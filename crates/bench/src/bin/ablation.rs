//! Ablation studies for the design choices the paper (and DESIGN.md) call
//! out:
//!
//! 1. **Exact refine vs approximate refine** — replace the DCE comparisons
//!    of Algorithm 2 with the filter's own SAP distances: the recall ceiling
//!    collapses back to the noisy index's, demonstrating why the refine
//!    phase must be exact.
//! 2. **Coordinate normalization** (DESIGN.md §6) — run DCE on raw
//!    SIFT-scale coordinates (|x| ≤ 255) vs owner-normalized ones and count
//!    comparison sign errors against plaintext truth.
//! 3. **Naive design, modeled** (paper §I) — per-operation cost ratio of a
//!    DCE comparison vs a SAP distance, reproducing the "at least 4×" claim.
//! 4. **Naive design, measured** — the full naive HNSW-over-DCE system
//!    (plaintext-built graph, comparison-driven traversal) against the real
//!    scheme at equal recall targets.

use ppann_bench::harness::build_scheme;
use ppann_bench::{bench_scale, measured_queries, TableWriter};
use ppann_core::SearchParams;
use ppann_datasets::{recall_at_k, DatasetProfile, Workload};
use ppann_dce::DceSecretKey;
use ppann_hnsw::HnswParams;
use ppann_linalg::{seeded_rng, uniform_vec, vector};
use std::time::Instant;

fn main() {
    let scale = bench_scale();
    ablation_exact_refine(scale);
    ablation_normalization();
    ablation_naive_dce_graph();
    ablation_naive_dce_measured(scale);
}

/// (4) The naive design measured end to end.
fn ablation_naive_dce_measured(scale: ppann_bench::BenchScale) {
    use ppann_baselines::naive_dce::{NaiveDce, NaiveDceParams};
    let profile = DatasetProfile::SiftLike;
    let k = 10;
    let n = scale.scaled(4_000, 10_000);
    let w = Workload::generate(profile, n, scale.scaled(30, 100), 115);
    let truth = w.ground_truth(k);

    let mut t = TableWriter::new(
        "Ablation 4: naive HNSW-over-DCE vs filter-and-refine (measured)",
        &["system", "recall@10", "latency(ms)", "leaks exact neighborhoods?"],
    );

    // Naive: plaintext-built graph, DCE-comparison traversal.
    let naive = NaiveDce::setup(
        NaiveDceParams { dim: w.dim(), hnsw: HnswParams::default(), seed: 5 },
        w.base(),
    );
    let trapdoors: Vec<_> =
        w.queries().iter().enumerate().map(|(i, q)| naive.encrypt_query(q, i as u64)).collect();
    let started = Instant::now();
    let mut naive_recall = 0.0;
    for (td, tr) in trapdoors.iter().zip(&truth) {
        let out = naive.search(td, k, 80);
        naive_recall += recall_at_k(tr, &out.ids);
    }
    let naive_ms = started.elapsed().as_secs_f64() * 1e3 / trapdoors.len() as f64;
    t.row(&[
        "naive HNSW-over-DCE".into(),
        format!("{:.3}", naive_recall / truth.len() as f64),
        format!("{naive_ms:.3}"),
        "YES (graph built on plaintext)".into(),
    ]);

    // Ours at a Ratio_k reaching comparable recall.
    let (_owner, server, mut user) =
        build_scheme(&w, profile.default_beta(), HnswParams::default(), 75);
    let m = measured_queries(
        &server,
        &mut user,
        &w,
        &truth,
        k,
        &SearchParams::from_ratio(k, 16, 160),
        false,
    );
    t.row(&[
        "PP-ANNS (ours)".into(),
        format!("{:.3}", m.recall),
        format!("{:.3}", m.latency_ms),
        "no (noisy SAP neighborhoods)".into(),
    ]);
    t.print();
    println!("shape: the naive design is slower per query AND leaks exact graph structure — the paper's two reasons for filter-and-refine (SI).");
}

/// (1) Exact DCE refine vs "refine" by the filter's own approximate ranking.
fn ablation_exact_refine(scale: ppann_bench::BenchScale) {
    let profile = DatasetProfile::SiftLike;
    let k = 10;
    let n = scale.scaled(5_000, 20_000);
    let w = Workload::generate(profile, n, scale.scaled(50, 200), 111);
    let truth = w.ground_truth(k);
    let (_owner, server, mut user) =
        build_scheme(&w, profile.default_beta(), HnswParams::default(), 71);

    let mut t = TableWriter::new(
        "Ablation 1: exact DCE refine vs approximate (SAP-ranked) refine",
        &["refine", "Ratio_k", "recall@10"],
    );
    for ratio in [4usize, 16, 64] {
        let params = SearchParams::from_ratio(k, ratio, (k * ratio).max(80));
        let exact = measured_queries(&server, &mut user, &w, &truth, k, &params, false);
        // Approximate refine: take the filter's top-k directly (its ranking
        // *is* the SAP approximate distance order).
        let mut approx_recall = 0.0;
        for (q, tr) in w.queries().iter().zip(&truth) {
            let enc = user.encrypt_query(q, k);
            let cands = server.filter_candidates(&enc, &params);
            approx_recall += recall_at_k(tr, &cands[..k.min(cands.len())]);
        }
        approx_recall /= truth.len() as f64;
        t.row(&["DCE (exact)".into(), ratio.to_string(), format!("{:.3}", exact.recall)]);
        t.row(&["SAP (approx)".into(), ratio.to_string(), format!("{approx_recall:.3}")]);
    }
    t.print();
    println!("shape: exact refine recall rises with Ratio_k; approximate refine stays at the noisy ceiling regardless.");
}

/// (2) DCE sign-error rate with and without coordinate normalization.
fn ablation_normalization() {
    let d = 128;
    let mut rng = seeded_rng(72);
    let sk = DceSecretKey::generate(d, &mut rng);
    let mut t = TableWriter::new(
        "Ablation 2: DCE comparison sign errors vs coordinate scale (10k trials, d=128)",
        &["coordinate range", "sign errors", "error rate"],
    );
    for (label, scale) in [("[-1, 1] (normalized)", 1.0), ("[-255, 255] (raw SIFT)", 255.0)] {
        let mut errors = 0u32;
        let trials = 10_000;
        let q = uniform_vec(&mut rng, d, -scale, scale);
        let tq = sk.trapdoor(&q, &mut rng);
        for _ in 0..trials {
            let o = uniform_vec(&mut rng, d, -scale, scale);
            let p = uniform_vec(&mut rng, d, -scale, scale);
            let z =
                ppann_dce::distance_comp(&sk.encrypt(&o, &mut rng), &sk.encrypt(&p, &mut rng), &tq);
            let truth = vector::squared_euclidean(&o, &q) - vector::squared_euclidean(&p, &q);
            if truth.abs() > 1e-9 && (z < 0.0) != (truth < 0.0) {
                errors += 1;
            }
        }
        t.row(&[
            label.into(),
            errors.to_string(),
            format!("{:.2e}", errors as f64 / trials as f64),
        ]);
    }
    t.print();
    println!("shape: both tiny, but normalization keeps the comparison exact with a wide margin (DESIGN.md §6).");
}

/// (3) The paper's §I argument against running HNSW directly over DCE:
/// model the naive design's cost from measured per-operation timings.
fn ablation_naive_dce_graph() {
    let d = 128;
    let mut rng = seeded_rng(74);
    let sk = DceSecretKey::generate(d, &mut rng);
    let o = uniform_vec(&mut rng, d, -1.0, 1.0);
    let p = uniform_vec(&mut rng, d, -1.0, 1.0);
    let q = uniform_vec(&mut rng, d, -1.0, 1.0);
    let c_o = sk.encrypt(&o, &mut rng);
    let c_p = sk.encrypt(&p, &mut rng);
    let t_q = sk.trapdoor(&q, &mut rng);

    let reps = 200_000;
    let started = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(vector::squared_euclidean(&o, &q));
    }
    let plain_ns = started.elapsed().as_nanos() as f64 / reps as f64;
    let started = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(ppann_dce::distance_comp(&c_o, &c_p, &t_q));
    }
    let dce_ns = started.elapsed().as_nanos() as f64 / reps as f64;

    let mut t = TableWriter::new(
        "Ablation 3: naive HNSW-over-DCE (modeled, d=128)",
        &["operation", "ns/op", "relative"],
    );
    t.row(&["SAP distance (our filter)".into(), format!("{plain_ns:.0}"), "1.0x".into()]);
    t.row(&[
        "DCE comparison (naive filter)".into(),
        format!("{dce_ns:.0}"),
        format!("{:.1}x", dce_ns / plain_ns),
    ]);
    t.print();
    println!(
        "shape: every graph hop in the naive design pays {:.1}x (paper SIV-B predicts >= 4x from 4d+32 vs d MACs), on top of leaking exact neighbor structure.",
        dce_ns / plain_ns
    );
}
