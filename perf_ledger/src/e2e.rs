//! The untraced run: the end-to-end metrics a user of the service sees.
//!
//! Set-up, one unmeasured warm-up window, then measured windows of the
//! fixed op list for `--seconds`; afterwards the recall-and-parity sweep,
//! the `SIGKILL` + restart cycles and, on a read-only workload, the write
//! probe. Nothing is traced here.

use crate::json::Value;
use crate::procfs;
use crate::report::{check_complete, Metrics, END_TO_END};
use crate::run::{set_up, Env, Plain, Session, WindowSample};
use crate::stats::{percentile, windowed_percentile, Summary};
use crate::workload::{windows_for, Op, Spec};

/// The write probe of a read-only workload runs in batches of this many
/// inserts, so that its median comes with quartiles of its own.
const PROBE_BATCH: usize = 100;

pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Run facts that are not metrics (window count, compactions seen …).
    pub facts: Value,
}

/// Runs the measured windows numbered `first .. first + count` (the
/// warm-up was window 0). The count is fixed by `--seconds`, not by the
/// clock, so two runs of one seed send byte-identical traffic and end in
/// the same server state.
pub fn measure_windows(
    session: &mut Session,
    first: usize,
    count: usize,
    mut traced: impl FnMut(usize) -> bool,
) -> Vec<WindowSample> {
    (first..first + count)
        .map(|w| {
            let ops = session.gen.next_window();
            session.run_window(&ops, session.spec.request_id(w, 0), traced(w))
        })
        .collect()
}

fn latencies(windows: &[WindowSample], of: fn(&WindowSample) -> &Vec<f64>) -> Vec<Vec<f64>> {
    windows.iter().map(|w| of(w).clone()).collect()
}

pub fn search_latencies(windows: &[WindowSample]) -> Vec<Vec<f64>> {
    latencies(windows, |w| &w.search_us)
}

pub fn insert_latencies(windows: &[WindowSample]) -> Vec<Vec<f64>> {
    latencies(windows, |w| &w.insert_us)
}

/// Inserts the next `inserts` pool vectors, then deletes the first
/// `deletes` of those ids again. Returns the window sample of the inserts
/// and the ops made (for the durability check after a restart).
pub fn write_probe(
    session: &mut Session,
    inserts: usize,
    deletes: usize,
) -> (WindowSample, Vec<Op>) {
    let inserts: Vec<Op> = (0..inserts).map(|_| session.gen.insert()).collect();
    let sample = session.run_window(&inserts, 0, false);
    let base = session.plain.base.len() as u32;
    let deletes: Vec<Op> = inserts[..deletes]
        .iter()
        .map(|op| match *op {
            Op::Insert(j) => session.gen.delete_id(base + j),
            _ => unreachable!("the probe only inserts"),
        })
        .collect();
    session.run_window(&deletes, 0, false);
    (sample, [inserts, deletes].concat())
}

fn nums(values: impl IntoIterator<Item = f64>) -> Value {
    Value::Arr(values.into_iter().map(Value::Num).collect())
}

pub fn run(spec: &Spec, seed: u64, seconds: f64, env: &Env) -> Result<RunResult, String> {
    let count = windows_for(seconds);
    let plain = Plain::generate(spec, seed, spec.insert_pool(count));
    let (served, setup_s) = set_up(spec, seed, &plain, env)?;
    let mut session = Session::new(spec, seed, &plain, env, served);

    let warm_up = session.gen.next_window();
    session.run_window(&warm_up, 0, false);
    let windows = measure_windows(&mut session, 1, count, |_| false);

    let recall = session.recall_sweep(!spec.churn);
    let rss_mb =
        procfs::peak_rss_mb(session.served.server.pid()).map_err(|e| format!("rss: {e}"))?;
    let disk_per_vector = session.disk_bytes() as f64 / session.gen.live().len() as f64;

    // Each cycle acks a few writes, kills the server right after the last
    // ack, and holds the restarted server to every one of them. An op list
    // holds the same writes for every seed, so every run of churn is killed
    // at the same point of its compaction cycle.
    let mut restart_s = Vec::new();
    for _ in 0..spec.restart_cycles() {
        let writes = Spec::WRITES_PER_RESTART;
        let (_, recent) = write_probe(&mut session, writes, writes / 4);
        restart_s.push(session.kill_and_restart(&recent)?);
    }

    // Churn measured the durable-insert ack inside its windows; a
    // read-only workload measures it on its own collection last, so the
    // probe's log is in no restart above.
    let insert_windows = if spec.churn {
        insert_latencies(&windows)
    } else {
        (0..Spec::PROBE_INSERTS / PROBE_BATCH)
            .map(|_| write_probe(&mut session, PROBE_BATCH, 0).0.insert_us)
            .collect()
    };

    if recall < spec.recall_floor {
        session.failed += 1;
        eprintln!(
            "perf_ledger: {}: recall_at_k {recall:.4} is below the floor {}",
            spec.name, spec.recall_floor
        );
    }

    let per_window = |f: fn(&WindowSample) -> f64| -> Vec<f64> { windows.iter().map(f).collect() };
    let need = |s: Option<Summary>, what: &str| s.ok_or_else(|| format!("no samples for {what}"));
    let searches = search_latencies(&windows);
    let metrics: Metrics = vec![
        ("setup_s", Summary::point(setup_s)),
        ("query_p50_us", need(windowed_percentile(&searches, 50.0), "searches")?),
        ("throughput_ops_s", need(Summary::of(&per_window(WindowSample::ops_per_s)), "windows")?),
        ("recall_at_k", Summary::point(recall)),
        ("insert_p50_us", need(windowed_percentile(&insert_windows, 50.0), "inserts")?),
        ("restart_s", need(Summary::of(&restart_s), "restarts")?),
        ("server_rss_mb", Summary::point(rss_mb)),
        (
            "server_cpu_us_per_op",
            need(Summary::of(&per_window(WindowSample::server_cpu_us_per_op)), "windows")?,
        ),
        ("bytes_per_query", Summary::point(session.bytes_per_query())),
        ("disk_bytes_per_vector", Summary::point(disk_per_vector)),
    ];
    check_complete(&metrics, END_TO_END)?;

    let facts = Value::obj(vec![
        ("windows", Value::Num(windows.len() as f64)),
        ("window_ops", Value::Num(spec.window_ops as f64)),
        ("measured_s", Value::Num(windows.iter().map(|w| w.wall_s).sum())),
        ("inserts", Value::Num(session.gen.inserts_made() as f64)),
        ("compactions", Value::Num(session.compactions as f64)),
        (
            "stall_max_ms",
            Value::Num(windows.iter().map(WindowSample::max_us).fold(0.0, f64::max) / 1e3),
        ),
        ("window_s", nums(per_window(|w| w.wall_s))),
        // What each median is the median of, in op-list order: `compare`
        // pairs them with another run's to get the run-to-run spread.
        (
            "samples",
            Value::obj(vec![
                ("query_p50_us", nums(searches.iter().filter_map(|w| percentile(w, 50.0)))),
                ("throughput_ops_s", nums(per_window(WindowSample::ops_per_s))),
                ("insert_p50_us", nums(insert_windows.iter().filter_map(|w| percentile(w, 50.0)))),
                ("restart_s", nums(restart_s)),
                ("server_cpu_us_per_op", nums(per_window(WindowSample::server_cpu_us_per_op))),
            ]),
        ),
    ]);
    Ok(RunResult { attempted: session.attempted, failed: session.failed, metrics, facts })
}
