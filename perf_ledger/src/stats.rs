//! Medians, quartiles and the ledger's percentile-eligibility rule.
//!
//! Every timing metric is the **median across windows** of a per-window
//! value, reported with its quartiles and sample count. A percentile is
//! taken per window when every window holds at least
//! [`MIN_PERCENTILE_SAMPLES`] samples of that op, otherwise pooled over
//! the run; p99 needs that many samples in total (ten beyond it).

use crate::json::Value;

/// Samples of an op a window needs for a percentile of its own, and a run
/// needs before a p99 of it means anything.
pub const MIN_PERCENTILE_SAMPLES: usize = 1000;

/// One reported number: the value, the quartiles of the samples it is the
/// median of, and how many samples that was.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// A number with no spread of its own (a count, a derived figure).
    pub fn point(value: f64) -> Self {
        Self { value, q1: value, q3: value, n: 1 }
    }

    /// Median and quartiles of `samples` (`None` when empty).
    pub fn of(samples: &[f64]) -> Option<Self> {
        let (q1, value, q3) = quartiles(samples)?;
        Some(Self { value, q1, q3, n: samples.len() })
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.value.abs()
        }
    }

    pub fn to_json(self, unit: &str) -> Value {
        Value::obj(vec![
            ("value", Value::Num(self.value)),
            ("unit", Value::str(unit)),
            ("q1", Value::Num(self.q1)),
            ("q3", Value::Num(self.q3)),
            ("n", Value::Num(self.n as f64)),
        ])
    }

    pub fn from_json(v: &Value) -> Option<(Self, String)> {
        let num = |k: &str| v.get(k).and_then(Value::as_f64);
        let s =
            Self { value: num("value")?, q1: num("q1")?, q3: num("q3")?, n: num("n")? as usize };
        Some((s, v.get("unit")?.as_str()?.to_string()))
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// `(q1, median, q3)` by the exclusive method — the same cut points as
/// Python's `statistics.quantiles(values, n=4)`, which is what the driver
/// judges spreads with. One sample is its own quartiles.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64, f64)> {
    let data = sorted(samples);
    match data.len() {
        0 => None,
        1 => Some((data[0], data[0], data[0])),
        n => {
            let cut = |i: usize| {
                let j = (i * (n + 1) / 4).clamp(1, n - 1);
                let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
                (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
            };
            Some((cut(1), cut(2), cut(3)))
        }
    }
}

/// Nearest-rank percentile (`p` in `0..=100`) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let data = sorted(samples);
    if data.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * data.len() as f64).ceil() as usize;
    Some(data[rank.clamp(1, data.len()) - 1])
}

/// The `p`-th percentile of an op's latency over a run, by the rule in
/// the module docs. `None` when the run holds too few samples for `p`.
/// Pooled or not, the quartiles are those of the per-window percentiles.
pub fn windowed_percentile(windows: &[Vec<f64>], p: f64) -> Option<Summary> {
    let total: usize = windows.iter().map(Vec::len).sum();
    if total == 0 || (p > 90.0 && total < MIN_PERCENTILE_SAMPLES) {
        return None;
    }
    let per_window: Vec<f64> = windows.iter().filter_map(|w| percentile(w, p)).collect();
    let across = Summary::of(&per_window)?;
    if windows.iter().all(|w| w.len() >= MIN_PERCENTILE_SAMPLES) {
        return Some(across);
    }
    let pooled: Vec<f64> = windows.iter().flatten().copied().collect();
    Some(Summary { value: percentile(&pooled, p)?, n: total, ..across })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some((7.5, 15.0, 22.5)));
        assert_eq!(quartiles(&[4.0]), Some((4.0, 4.0, 4.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn median_of_windows_ignores_one_slow_window() {
        let s = Summary::of(&[100.0, 101.0, 99.0, 100.5, 400.0]).unwrap();
        assert_eq!(s.value, 100.5);
        assert_eq!(s.n, 5);
        assert!(s.q1 >= 99.0 && s.q3 <= 400.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn percentile_is_per_window_only_when_every_window_is_large() {
        let big = |base: f64| -> Vec<f64> { (0..1000).map(|i| base + i as f64).collect() };
        let per_window = windowed_percentile(&[big(0.0), big(10.0), big(20.0)], 99.0).unwrap();
        assert_eq!(per_window.n, 3, "median across three per-window p99s");
        assert_eq!(per_window.value, 999.0);

        // One window under a thousand samples pools the run, medians too.
        let mut small = big(0.0);
        small.truncate(999);
        let pooled = windowed_percentile(&[small.clone(), big(10.0)], 99.0).unwrap();
        assert_eq!(pooled.n, 1999);
        assert_eq!(pooled.value, 994.0, "rank 1980 of the 1999 pooled samples");
        assert_eq!((pooled.q1, pooled.q3), (986.5, 1001.5), "of the window p99s 989, 999");
        assert_eq!(windowed_percentile(&[small, big(10.0)], 50.0).unwrap().n, 1999);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let w: Vec<f64> = (0..499).map(f64::from).collect();
        assert!(windowed_percentile(&[w.clone(), w.clone()], 99.0).is_none());
        assert!(windowed_percentile(&[w.clone(), w.clone()], 50.0).is_some());
        let more: Vec<f64> = (0..2).map(f64::from).collect();
        assert!(windowed_percentile(&[w.clone(), w, more], 99.0).is_some());
        assert!(windowed_percentile(&[], 50.0).is_none());
    }

    #[test]
    fn summary_json_roundtrip() {
        let s = Summary { value: 1.25, q1: 1.0, q3: 1.5, n: 12 };
        let (back, unit) = Summary::from_json(&s.to_json("us")).unwrap();
        assert_eq!((back, unit.as_str()), (s, "us"));
        assert_eq!(s.spread(), 0.4);
    }
}
