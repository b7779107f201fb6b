//! The metric catalogue, the host fingerprint and the result-file schema.

use crate::json::Value;
use crate::stats::Summary;
use std::time::Instant;

pub const SCHEMA: &str = "perf_ledger/1";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median a later change may worsen the metric
    /// by; per-layer metrics carry none.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: 0.0 }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one.
/// Bounds: bench/ledger/README.md, "How the bounds were set".
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("query_p50_us", "us", Lower, 0.15),
    e2e("throughput_ops_s", "ops/s", Higher, 0.20),
    e2e("recall_at_k", "ratio", Higher, 0.02),
    e2e("insert_p50_us", "us", Lower, 0.25),
    e2e("restart_s", "s", Lower, 0.25),
    e2e("server_rss_mb", "MB", Lower, 0.05),
    e2e("server_cpu_us_per_op", "us", Lower, 0.20),
    e2e("bytes_per_query", "B", Lower, 0.001),
    e2e("disk_bytes_per_vector", "B", Lower, 0.05),
];

/// One layer each, timed from outside in the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    layer("linalg.l2_ns_per_pair", "ns", Lower),
    layer("linalg.dce_comp_ns", "ns", Lower),
    layer("dcpe.sap_encrypt_us_per_vec", "us", Lower),
    layer("dce.encrypt_us_per_vec", "us", Lower),
    layer("dce.trapdoor_us_p50", "us", Lower),
    layer("dce.sdc_ns_per_comp", "ns", Lower),
    layer("hnsw.build_s", "s", Lower),
    layer("hnsw.search_us_p50", "us", Lower),
    layer("hnsw.dist_comps_per_q", "count", Lower),
    layer("hnsw.ns_per_dist_comp", "ns", Lower),
    layer("hnsw.candidate_hit_share", "ratio", Higher),
    layer("hnsw.insert_us_p50", "us", Lower),
    layer("hnsw.delete_us_p50", "us", Lower),
    layer("hnsw.bytes_per_vector", "B", Lower),
    layer("core.search_us_p50", "us", Lower),
    layer("core.refine_us_p50", "us", Lower),
    layer("core.sdc_comps_per_q", "count", Lower),
    layer("core.sdc_per_candidate", "count", Lower),
    layer("core.allocs_per_q", "count", Lower),
    layer("core.wire_query_encode_ns", "ns", Lower),
    layer("core.wire_query_decode_ns", "ns", Lower),
    layer("core.wire_reply_encode_ns", "ns", Lower),
    layer("core.wire_reply_decode_ns", "ns", Lower),
    layer("core.wal_append_us_p50", "us", Lower),
    layer("core.wal_fsync_us_p50", "us", Lower),
    layer("core.wal_bytes_per_insert", "B", Lower),
    layer("core.compact_ms", "ms", Lower),
    layer("core.compactions", "count", Lower),
    layer("core.write_amp", "ratio", Lower),
    layer("core.snapshot_load_ms", "ms", Lower),
    layer("core.wal_replay_ms", "ms", Lower),
    layer("core.wal_replay_records", "count", Lower),
    layer("service.frame_encode_ns", "ns", Lower),
    layer("service.frame_decode_ns", "ns", Lower),
    layer("service.noop_rtt_us_p50", "us", Lower),
    layer("service.transport_us_p50", "us", Lower),
    layer("service.ctx_switches_per_req", "count", Lower),
    layer("service.batch64_us_per_q", "us", Lower),
    layer("service.pipelined32_us_per_q", "us", Lower),
    layer("service.stall_max_ms", "ms", Lower),
    layer("service.unexplained_share", "ratio", Lower),
    // Demoted from end-to-end: the tails do not repeat (ten-seed spread of
    // 20% and 44%, bench/ledger/README.md). From the loopback windows.
    layer("query_p99_us", "us", Lower),
    layer("insert_p99_us", "us", Lower),
    layer("trace.overhead_share", "ratio", Lower),
];

/// Counts that must be bit-identical between two runs of one seed.
pub const EXACT_COUNTS: &[&str] = &[
    "hnsw.dist_comps_per_q",
    "core.sdc_comps_per_q",
    "core.wal_bytes_per_insert",
    "core.allocs_per_q",
];

pub fn find_def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Metrics one run measured, in catalogue order.
pub type Metrics = Vec<(&'static str, Summary)>;

/// Checks that `metrics` holds exactly the catalogue `defs`, in order.
pub fn check_complete(metrics: &Metrics, defs: &[MetricDef]) -> Result<(), String> {
    let got: Vec<&str> = metrics.iter().map(|(n, _)| *n).collect();
    let want: Vec<&str> = defs.iter().map(|d| d.name).collect();
    if got == want {
        Ok(())
    } else {
        Err(format!("metrics measured {got:?} differ from the catalogue {want:?}"))
    }
}

pub fn metrics_json(metrics: &Metrics) -> Value {
    Value::Obj(
        metrics
            .iter()
            .map(|(name, s)| {
                let unit = find_def(name).map_or("", |d| d.unit);
                (name.to_string(), s.to_json(unit))
            })
            .collect(),
    )
}

/// The driver's result line: `correct`, `attempted`, `failed`, `metrics`
/// with each metric's value and unit.
pub fn contract_line(attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let metrics = metrics
        .iter()
        .map(|(name, s)| {
            let unit = find_def(name).map_or("", |d| d.unit);
            let v = Value::obj(vec![("value", Value::Num(s.value)), ("unit", Value::str(unit))]);
            (name.to_string(), v)
        })
        .collect();
    Value::obj(vec![
        ("correct", Value::Bool(failed == 0)),
        ("attempted", Value::Num(attempted.max(1) as f64)),
        ("failed", Value::Num(failed as f64)),
        ("metrics", Value::Obj(metrics)),
    ])
    .encode()
}

/// A fixed integer spin, timed: the same number on a quiet host every
/// time, so a noisy or throttled host shows in the result file.
pub fn spin_ns() -> f64 {
    const ITERS: u64 = 2_000_000;
    let best = (0..5)
        .map(|_| {
            let started = Instant::now();
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for i in 0..ITERS {
                x = std::hint::black_box(x.rotate_left(7) ^ i).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            }
            std::hint::black_box(x);
            started.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min);
    best / ITERS as f64
}

fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}")).unwrap_or_default(),
        None => head.to_string(),
    };
    match hash.trim() {
        "" => "unknown".to_string(),
        h => h.to_string(),
    }
}

/// Where and on what the numbers were taken.
pub fn host_fingerprint() -> Value {
    let load = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse::<f64>().ok()));
    Value::obj(vec![
        ("nproc", Value::Num(crate::run::nproc() as f64)),
        ("kernel", Value::str(ppann_linalg::kernels::active().name)),
        ("force_scalar", Value::Bool(ppann_linalg::kernels::force_scalar_requested())),
        ("commit", Value::str(commit())),
        ("loadavg_1m", load.map_or(Value::Null, Value::Num)),
        ("spin_ns", Value::Num(spin_ns())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::workload::WORKLOADS;

    #[test]
    fn names_are_unique_and_fit_the_contract() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, d) in all.iter().enumerate() {
            assert!(all[..i].iter().all(|o| o.name != d.name), "{} twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(d.bound <= 0.25);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().any(|d| d.name == "setup_s" && d.unit == "s"));
        assert!(EXACT_COUNTS.iter().all(|n| find_def(n).is_some()));
    }

    /// `BENCHMARK.json` is written by hand; this keeps it equal to what
    /// the binary reports.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        let list = |key: &str| match doc.get(key) {
            Some(Value::Arr(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let field = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).unwrap().to_string();

        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (w, spec) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(field(w, "name"), spec.name);
            assert_eq!(field(w, "why"), spec.why);
        }
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let items = list(key);
            assert_eq!(items.len(), defs.len(), "{key}");
            for (m, d) in items.iter().zip(defs) {
                assert_eq!(field(m, "name"), d.name);
                assert_eq!(field(m, "unit"), d.unit, "{}", d.name);
                assert_eq!(field(m, "better"), d.better.as_str(), "{}", d.name);
                let bound = m.get("bound").and_then(Value::as_f64);
                assert_eq!(bound, (key == "end_to_end").then_some(d.bound), "{}", d.name);
            }
        }
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let metrics: Metrics =
            vec![("setup_s", Summary::point(0.8127)), ("query_p50_us", Summary::point(120.25))];
        let line = contract_line(1000, 0, &metrics);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":1000,\"failed\":0,\"metrics\":{\
             \"setup_s\":{\"value\":0.8127,\"unit\":\"s\"},\
             \"query_p50_us\":{\"value\":120.25,\"unit\":\"us\"}}}"
        );
        assert!(contract_line(0, 2, &metrics).starts_with("{\"correct\":false,\"attempted\":1,"));
    }

    #[test]
    fn completeness_check_names_the_difference() {
        let metrics: Metrics = END_TO_END.iter().map(|d| (d.name, Summary::point(1.0))).collect();
        assert!(check_complete(&metrics, END_TO_END).is_ok());
        assert!(check_complete(&metrics[1..].to_vec(), END_TO_END).is_err());
    }

    #[test]
    fn spin_calibration_is_positive() {
        assert!(spin_ns() > 0.0);
    }
}
