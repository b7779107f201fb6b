//! `perf_ledger compare A.json B.json`: per end-to-end metric × workload,
//! both medians with quartiles, the ratio with its base, the run-to-run
//! spread, the bound and a verdict; then the exact-count metrics, which
//! must be identical.

use crate::json::Value;
use crate::report::{Better, MetricDef, END_TO_END, EXACT_COUNTS};
use crate::stats::Summary;
use std::fmt::Write as _;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    /// The run-to-run spread is wider than the bound, so a difference of
    /// the size the bound polices cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By what share of `a`'s median `b` is worse (negative when better).
pub fn worse_by(def: &MetricDef, a: &Summary, b: &Summary) -> f64 {
    match def.better {
        Better::Lower => (b.value - a.value) / a.value.abs(),
        Better::Higher => (a.value - b.value) / a.value.abs(),
    }
}

/// The run-to-run spread of a metric: the interquartile range, as a share
/// of their median, of B's samples over A's, paired in op-list order
/// (window `i` of both runs did the same work, so what differs between
/// them is the run). Two runs' windows differ among themselves by design
/// where the op list does (a churn window holds a compaction or not), and
/// that is no noise. A figure measured once has no spread to show.
pub fn run_to_run_spread(a: &[f64], b: &[f64]) -> Result<f64, String> {
    if a.len() != b.len() {
        return Err(format!(
            "{} samples against {}: made with another --seconds?",
            a.len(),
            b.len()
        ));
    }
    let ratios: Vec<f64> = a.iter().zip(b).map(|(a, b)| b / a).collect();
    Ok(Summary::of(&ratios).map_or(0.0, |r| r.spread()))
}

pub fn verdict(def: &MetricDef, a: &Summary, b: &Summary, spread: f64) -> Verdict {
    if spread > def.bound {
        Verdict::Unresolved
    } else if worse_by(def, a, b) > def.bound {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

fn metric(doc: &Value, workload: &str, group: &str, name: &str) -> Option<Summary> {
    let m = doc.get("workloads")?.get(workload)?.get(group)?.get(name)?;
    Summary::from_json(m).map(|(s, _)| s)
}

/// The samples the untraced run kept for `name`; none for a single figure.
fn samples(doc: &Value, workload: &str, name: &str) -> Vec<f64> {
    let kept =
        || doc.get("workloads")?.get(workload)?.get("facts")?.get("untraced")?.get("samples");
    match kept().and_then(|s| s.get(name)) {
        Some(Value::Arr(items)) => items.iter().filter_map(Value::as_f64).collect(),
        _ => Vec::new(),
    }
}

fn show(s: &Summary) -> String {
    format!("{:.6} [{:.6} .. {:.6}] n={}", s.value, s.q1, s.q3, s.n)
}

/// The comparison table and whether every row came out `same` and every
/// exact count identical.
pub fn compare(a: &Value, b: &Value) -> Result<(String, bool), String> {
    let workloads = a.get("workloads").and_then(Value::as_obj).ok_or("A: no `workloads`")?;
    let mut out = String::new();
    let mut clean = true;
    for (workload, _) in workloads {
        writeln!(out, "== {workload}").expect("write to String");
        for def in END_TO_END {
            let (Some(sa), Some(sb)) = (
                metric(a, workload, "end_to_end", def.name),
                metric(b, workload, "end_to_end", def.name),
            ) else {
                return Err(format!("{workload}: `{}` is missing from one file", def.name));
            };
            let spread =
                run_to_run_spread(&samples(a, workload, def.name), &samples(b, workload, def.name))
                    .map_err(|e| format!("{workload}: {}: {e}", def.name))?;
            let v = verdict(def, &sa, &sb, spread);
            clean &= v == Verdict::Same;
            writeln!(
                out,
                "{:<24} A {} | B {} {} | B/A {:.4} (base A = {:.6} {}) | worse by {:+.2}%, run-to-run spread {:.2}%, bound {:.1}% | {}",
                def.name,
                show(&sa),
                show(&sb),
                def.unit,
                sb.value / sa.value,
                sa.value,
                def.unit,
                worse_by(def, &sa, &sb) * 100.0,
                spread * 100.0,
                def.bound * 100.0,
                v.as_str(),
            )
            .expect("write to String");
        }
        let exact = EXACT_COUNTS
            .iter()
            .map(|n| ("per_layer", *n))
            .chain([("end_to_end", "bytes_per_query")]);
        for (group, name) in exact {
            let (va, vb) = (metric(a, workload, group, name), metric(b, workload, group, name));
            let same = match (&va, &vb) {
                (Some(x), Some(y)) => x.value.to_bits() == y.value.to_bits(),
                _ => false,
            };
            clean &= same;
            let value =
                |s: Option<Summary>| s.map_or("missing".to_string(), |s| s.value.to_string());
            writeln!(
                out,
                "{name:<24} A {} | B {} | exact count | {}",
                value(va),
                value(vb),
                if same { "identical" } else { "DIFFERENT" }
            )
            .expect("write to String");
        }
    }
    Ok((out, clean))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::find_def;

    fn s(value: f64, spread: f64) -> Summary {
        Summary { value, q1: value * (1.0 - spread / 2.0), q3: value * (1.0 + spread / 2.0), n: 9 }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let latency = find_def("query_p50_us").unwrap(); // lower is better
        let (tight, loose) = (latency.bound / 10.0, latency.bound * 1.2);
        let over = 100.0 * (1.0 + latency.bound * 1.1);
        let at = |v| s(v, 0.0);
        assert_eq!(verdict(latency, &at(100.0), &at(105.0), tight), Verdict::Same);
        assert_eq!(verdict(latency, &at(100.0), &at(50.0), tight), Verdict::Same, "better");
        assert_eq!(verdict(latency, &at(100.0), &at(over), tight), Verdict::Worse);
        assert_eq!(verdict(latency, &at(100.0), &at(over), loose), Verdict::Unresolved);
        assert_eq!(verdict(latency, &at(100.0), &at(100.0), loose), Verdict::Unresolved);

        let recall = find_def("recall_at_k").unwrap(); // higher is better
        let under = 1.0 - recall.bound * 1.1;
        assert_eq!(verdict(recall, &at(1.0), &at(1.2), 0.0), Verdict::Same);
        assert_eq!(verdict(recall, &at(1.0), &at(under), 0.0), Verdict::Worse);
        assert!((worse_by(recall, &at(1.0), &at(0.88)) - 0.12).abs() < 1e-12);
    }

    #[test]
    fn run_to_run_spread_pairs_windows_in_order() {
        // Windows that differ among themselves but repeat exactly: no spread.
        let a = [100.0, 140.0, 100.0, 140.0, 100.0];
        assert_eq!(run_to_run_spread(&a, &a), Ok(0.0));
        // Every window 10% slower: a shift, still no spread.
        let b: Vec<f64> = a.iter().map(|v| v * 1.1).collect();
        assert!(run_to_run_spread(&a, &b).unwrap() < 1e-12);
        // Ratios 0.9, 1.0, 1.0, 1.0, 1.3: quartiles 0.95 and 1.15 around 1.
        let c = [90.0, 140.0, 100.0, 140.0, 130.0];
        assert!((run_to_run_spread(&a, &c).unwrap() - 0.2).abs() < 1e-12);
        assert_eq!(run_to_run_spread(&[], &[]), Ok(0.0), "a figure measured once");
        assert_eq!(run_to_run_spread(&[7.0], &[9.0]), Ok(0.0));
        assert!(run_to_run_spread(&a, &a[..4]).is_err());
    }

    fn doc(query_p50: f64, dist_comps: f64) -> Value {
        let e2e = END_TO_END
            .iter()
            .map(|d| {
                let v = if d.name == "query_p50_us" { query_p50 } else { 10.0 };
                (d.name.to_string(), s(v, d.bound / 10.0).to_json(d.unit))
            })
            .collect();
        let layers = EXACT_COUNTS
            .iter()
            .map(|n| (n.to_string(), Summary::point(dist_comps).to_json("count")))
            .collect();
        let windows =
            Value::Arr([0.99, 1.0, 1.01].iter().map(|f| Value::Num(query_p50 * f)).collect());
        let samples = Value::obj(vec![("query_p50_us", windows)]);
        let facts = Value::obj(vec![("untraced", Value::obj(vec![("samples", samples)]))]);
        let w = Value::obj(vec![
            ("end_to_end", Value::Obj(e2e)),
            ("per_layer", Value::Obj(layers)),
            ("facts", facts),
        ]);
        Value::obj(vec![("workloads", Value::obj(vec![("w1", w)]))])
    }

    #[test]
    fn compare_flags_regressions_and_count_drift() {
        let (table, clean) = compare(&doc(100.0, 1030.0), &doc(103.0, 1030.0)).unwrap();
        assert!(clean, "{table}");
        assert!(table.contains("B/A 1.0300 (base A = 100.000000 us)"), "{table}");

        let (table, clean) = compare(&doc(100.0, 1030.0), &doc(140.0, 1030.0)).unwrap();
        assert!(!clean && table.contains("| worse"), "{table}");

        let (table, clean) = compare(&doc(100.0, 1030.0), &doc(100.0, 1031.0)).unwrap();
        assert!(!clean && table.contains("DIFFERENT"), "{table}");

        assert!(
            compare(&doc(1.0, 1.0), &Value::obj(vec![("workloads", Value::Obj(vec![]))])).is_err()
        );
    }
}
