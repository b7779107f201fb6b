//! **Throughput scaling** (extension experiment, not a paper figure): the
//! paper measures single-threaded search; this harness shows how one
//! collection scales query throughput with worker threads via the
//! `BatchExecutor`, and that result contents are identical to sequential
//! execution.

use ppann_bench::harness::build_scheme;
use ppann_bench::{bench_scale, TableWriter};
use ppann_core::catalog::Catalog;
use ppann_core::{BatchExecutor, SearchParams};
use ppann_datasets::{DatasetProfile, Workload};
use ppann_hnsw::HnswParams;
use std::sync::Arc;

fn main() {
    let scale = bench_scale();
    let profile = DatasetProfile::SiftLike;
    let k = 10;
    let n = scale.scaled(10_000, 40_000);
    let w = Workload::generate(profile, n, scale.scaled(400, 2_000), 3131);
    let (_owner, server, mut user) =
        build_scheme(&w, profile.default_beta(), HnswParams::default(), 81);
    let collection = Catalog::new().create("bench", server.into_database()).expect("collection");
    let params = SearchParams::from_ratio(k, 16, 160);
    let queries: Vec<_> = w.queries().iter().map(|q| user.encrypt_query(q, k)).collect();

    let mut t = TableWriter::new(
        &format!("Throughput scaling ({}, n={n}, {} queries)", profile.name(), queries.len()),
        &["threads", "QPS", "speedup"],
    );
    let mut base_qps = None;
    let max_threads = std::thread::available_parallelism().map(|t| t.get()).unwrap_or(4);
    let mut thread_counts = vec![1usize, 2, 4, 8];
    thread_counts.retain(|&t| t <= max_threads);
    let mut reference: Option<Vec<Vec<u32>>> = None;
    for threads in thread_counts {
        let exec = BatchExecutor::new(Arc::clone(&collection), threads);
        let outcome = exec.run(&queries, &params);
        let ids: Vec<Vec<u32>> = outcome.outcomes.iter().map(|o| o.ids.clone()).collect();
        match &reference {
            None => reference = Some(ids),
            Some(r) => assert_eq!(r, &ids, "threading changed results"),
        }
        let qps = outcome.qps();
        let speedup = match base_qps {
            None => {
                base_qps = Some(qps);
                1.0
            }
            Some(b) => qps / b,
        };
        t.row(&[threads.to_string(), format!("{qps:.0}"), format!("{speedup:.2}x")]);
    }
    t.print();
    println!("\nResult contents verified identical across thread counts.");
}
