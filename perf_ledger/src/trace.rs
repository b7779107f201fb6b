//! Spans recorded from the benchmark's side of each layer boundary.
//!
//! A span is a name, a start, an end, the span that caused it and the
//! request it belongs to; up to two counts (distance computations, bytes,
//! allocations …) ride on the span that did the work. Spans stay in memory
//! and are written out once, when the run ends. A layer's self time is its
//! span's duration minus the part of that interval its children cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub type SpanId = u32;

/// A named count recorded on a span; an empty name is an unused slot.
pub type Count = (&'static str, u64);
pub const NO_COUNT: Count = ("", 0);

/// The request id of a span that belongs to no op of the loopback pass (a
/// probe the traced run makes on its own).
pub const NO_REQUEST: u64 = u64::MAX;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request: u64,
    pub counts: [Count; 2],
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self { epoch: Instant::now(), spans: Vec::new() }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        request: u64,
        counts: [Count; 2],
    ) -> SpanId {
        self.spans.push(Span { name, start_ns, end_ns, parent, request, counts });
        (self.spans.len() - 1) as SpanId
    }

    /// Times `f` as a root span of `request`, with the counts `f` reports.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce() -> (T, [Count; 2]),
    ) -> T {
        let start = self.now();
        let (out, counts) = f();
        let end = self.now();
        self.record(name, start, end, None, request, counts);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in microseconds, of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64 / 1e3).collect()
    }

    /// Sum of one named count over every span called `name`, and how many
    /// such spans there were.
    pub fn count_total(&self, name: &str, count: &str) -> (u64, usize) {
        let mut total = 0;
        let mut spans = 0;
        for s in self.spans.iter().filter(|s| s.name == name) {
            spans += 1;
            total += s.counts.iter().filter(|(c, _)| *c == count).map(|(_, v)| v).sum::<u64>();
        }
        (total, spans)
    }

    /// Root spans other than `request` whose request id no `request` span
    /// carries: replays that failed to join the loopback pass.
    pub fn unjoined(&self) -> usize {
        let is_request = |s: &&Span| s.name == "request";
        let requests: std::collections::HashSet<u64> =
            self.spans.iter().filter(is_request).map(|s| s.request).collect();
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name != "request" && s.request != NO_REQUEST)
            .filter(|s| !requests.contains(&s.request))
            .count()
    }

    /// One JSON object per line: name, start, end, parent, request, self
    /// time and counts.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let self_ns = self_times_ns(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (s, self_ns)) in self.spans.iter().zip(&self_ns).enumerate() {
            write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{},\"self_ns\":{self_ns}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request,
            )?;
            for (name, v) in s.counts.iter().filter(|(name, _)| !name.is_empty()) {
                write!(out, ",\"{name}\":{v}")?;
            }
            writeln!(out, "}}")?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the length of the union of
/// its children's intervals, each clipped to the span's own interval (so
/// overlapping children are not subtracted twice and a child that outlives
/// its parent cannot push self time negative).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(parent) = s.parent.and_then(|p| spans.get(p as usize)) {
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[s.parent.expect("parent is Some") as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span { name: "s", start_ns, end_ns, parent, request: 0, counts: [NO_COUNT; 2] }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        // root 0..100, child 10..60, grandchild 20..30
        let spans = [span(0, 100, None), span(10, 60, Some(0)), span(20, 30, Some(1))];
        assert_eq!(self_times_ns(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn overlapping_children_are_not_subtracted_twice() {
        // children 10..50 and 30..70 cover 10..70 = 60 of the root's 100
        let spans = [span(0, 100, None), span(10, 50, Some(0)), span(30, 70, Some(0))];
        assert_eq!(self_times_ns(&spans)[0], 40);
        // a child contained in another adds nothing
        let spans = [span(0, 100, None), span(10, 90, Some(0)), span(20, 30, Some(0))];
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn child_outliving_its_parent_is_clipped() {
        let spans = [span(10, 50, None), span(0, 20, Some(0)), span(40, 90, Some(0))];
        assert_eq!(self_times_ns(&spans)[0], 20);
        // entirely outside: ignored
        let spans = [span(10, 50, None), span(60, 70, Some(0))];
        assert_eq!(self_times_ns(&spans)[0], 40);
    }

    #[test]
    fn replayed_spans_join_a_request_span_on_their_id() {
        let mut t = Tracer::new();
        t.record("request", 0, 9, None, 7, [NO_COUNT; 2]);
        t.record("client.search", 1, 8, Some(0), 7, [NO_COUNT; 2]);
        t.record("core.search", 20, 25, None, 7, [NO_COUNT; 2]);
        t.record("hnsw.insert", 30, 35, None, NO_REQUEST, [NO_COUNT; 2]);
        assert_eq!(t.unjoined(), 0);
        t.record("core.search", 40, 45, None, 8, [NO_COUNT; 2]);
        assert_eq!(t.unjoined(), 1, "no `request` span carries id 8");
    }

    #[test]
    fn tracer_groups_by_name_and_sums_counts() {
        let mut t = Tracer::new();
        let root = t.record("request", 0, 9_000, None, 7, [NO_COUNT; 2]);
        t.record("core.search", 1_000, 4_000, Some(root), 7, [("dist_comps", 5), ("sdc", 2)]);
        t.record("core.search", 5_000, 6_000, Some(root), 8, [("dist_comps", 6), NO_COUNT]);
        assert_eq!(t.durations_us("core.search"), vec![3.0, 1.0]);
        assert_eq!(t.count_total("core.search", "dist_comps"), (11, 2));
        assert_eq!(t.count_total("core.search", "sdc"), (2, 2));
        assert_eq!(self_times_ns(t.spans())[0], 5_000);
    }
}
