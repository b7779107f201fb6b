//! `perf_ledger`: the repository's one benchmark.
//!
//! ```text
//! perf_ledger [--workload NAME] [--seed S] [--seconds N] [--trace 0|1] [--out DIR]
//! perf_ledger compare A.json B.json
//! ```
//!
//! Each workload is served from a real `ppanns-cli serve --data-dir` child
//! over loopback and driven closed-loop from one connection. `--trace 0`
//! measures the end-to-end metrics, `--trace 1` the per-layer ledger; with
//! neither, both runs are made. Every reply is checked, and any fault makes
//! the exit code non-zero. See `bench/ledger/README.md`.

mod compare;
mod e2e;
mod json;
mod layers;
mod procfs;
mod report;
mod run;
mod server;
mod stats;
mod trace;
mod workload;

use json::Value;
use report::{contract_line, metrics_json, Metrics};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use workload::{Spec, WORKLOADS};

/// Counts heap allocations for `core.allocs_per_q`.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a statistic that
// publishes no other data.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Heap allocations (and reallocations) this process has made so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

struct Args {
    workload: Option<&'static Spec>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    out: Option<PathBuf>,
}

const USAGE: &str = "usage: perf_ledger [--workload NAME] [--seed S] [--seconds N] [--trace 0|1] \
                     [--out DIR]\n       perf_ledger compare A.json B.json";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args { workload: None, seed: 1, seconds: 10.0, trace: None, out: None };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("{flag}: cannot parse `{value}`");
        match flag.as_str() {
            "--workload" => {
                let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                args.workload = Some(
                    workload::find(value)
                        .ok_or_else(|| format!("unknown workload `{value}`; one of {known:?}"))?,
                );
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().ok().filter(|s| *s > 0.0).ok_or_else(bad)?;
            }
            "--trace" => {
                args.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--out" => args.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`\n{USAGE}")),
        }
    }
    Ok(args)
}

/// The benchmark's scratch directory, next to the binaries inside the
/// build's target directory; removed when the run ends, however it ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(cli: &Path) -> Result<Self, String> {
        let dir = cli.with_file_name("perf_ledger-work").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn print_metrics(workload: &str, metrics: &Metrics) {
    for (name, s) in metrics {
        let unit = report::find_def(name).map_or("", |d| d.unit);
        println!(
            "{workload:<14} {name:<30} {:>16.6} {unit:<6} [{:.6} .. {:.6}] n={}",
            s.value, s.q1, s.q3, s.n
        );
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let cli = server::find_cli()?;
    let work = WorkDir::create(&cli)?;
    let env = run::Env { cli, work: work.0.clone(), workers: run::nproc().min(4) };
    if let Some(dir) = &args.out {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let host = report::host_fingerprint();
    let specs: Vec<&Spec> = args.workload.map_or(WORKLOADS.iter().collect(), |w| vec![w]);
    let mut docs = Vec::new();
    // The result line counts every op of every run made; its metrics are
    // those of the last run (the driver asks for one workload and one run).
    let (mut all_attempted, mut all_failed) = (0, 0);
    let mut last_metrics = Metrics::new();
    for spec in specs {
        let mut fields = vec![("why", Value::str(spec.why))];
        let (mut attempted, mut failed) = (0, 0);
        let mut facts = Vec::new();
        let mut runs = Vec::new();
        if args.trace != Some(true) {
            let r = e2e::run(spec, args.seed, args.seconds, &env)?;
            runs.push(("end_to_end", "untraced", r));
        }
        if args.trace != Some(false) {
            let r = layers::run(spec, args.seed, args.seconds, &env, args.out.as_deref())?;
            runs.push(("per_layer", "traced", r));
        }
        for (group, kind, r) in runs {
            print_metrics(spec.name, &r.metrics);
            fields.push((group, metrics_json(&r.metrics)));
            facts.push((kind, r.facts));
            attempted += r.attempted;
            failed += r.failed;
            last_metrics = r.metrics;
        }
        all_attempted += attempted;
        all_failed += failed;
        fields.extend([
            ("attempted", Value::Num(attempted as f64)),
            ("failed", Value::Num(failed as f64)),
            ("failed_share", Value::Num(failed as f64 / attempted.max(1) as f64)),
            ("facts", Value::obj(facts)),
        ]);
        docs.push((spec.name, Value::obj(fields)));
    }
    if let Some(dir) = &args.out {
        let doc = Value::obj(vec![
            ("schema", Value::str(report::SCHEMA)),
            ("seed", Value::Num(args.seed as f64)),
            ("seconds", Value::Num(args.seconds)),
            ("host", host),
            ("workloads", Value::obj(docs)),
        ]);
        let path = dir.join("ledger.json");
        std::fs::write(&path, doc.encode_pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    // The driver reads the last line of standard output.
    println!("{}", contract_line(all_attempted, all_failed, &last_metrics));
    Ok(all_failed == 0)
}

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (table, clean) = compare::compare(&load(a)?, &load(b)?)?;
    print!("{table}");
    println!("{}", if clean { "verdict: same" } else { "verdict: NOT the same" });
    Ok(clean)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") if argv.len() == 3 => compare_files(&argv[1], &argv[2]),
        Some("compare") => Err(USAGE.to_string()),
        _ => parse_args(&argv).and_then(|args| run(&args)),
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perf_ledger: {e}");
            std::process::exit(2);
        }
    }
}
