//! Delete repair (DESIGN.md §3, S8): what a delete costs next to an insert,
//! and what churn does to recall next to a fresh build.
//!
//! Both figures are exact functions of the seeded history — distance
//! computations are counted, not timed — so neither test depends on the
//! host. Run with `--nocapture` to see the measured figures.

use ppann_hnsw::{exact_knn_ids, Hnsw, HnswParams};
use ppann_linalg::{seeded_rng, uniform_vec};
use rand::Rng;

fn clustered(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = seeded_rng(seed);
    let centers: Vec<Vec<f64>> = (0..8).map(|_| uniform_vec(&mut rng, dim, -1.0, 1.0)).collect();
    (0..n)
        .map(|_| {
            let c = &centers[rng.gen_range(0..centers.len())];
            c.iter().map(|x| x + rng.gen_range(-0.1..0.1)).collect()
        })
        .collect()
}

/// Each round deletes a random live id, then inserts a new vector. A delete
/// repairs its ~`m0` in-neighbors from their 2-hop neighborhoods, where an
/// insert runs one `ef_construction` beam, so on average a delete may cost
/// at most twice an insert. Re-searching each in-neighbor from the entry
/// point cost about seven inserts.
#[test]
fn a_delete_costs_at_most_twice_an_insert() {
    const N: usize = 2_000;
    const DIM: usize = 16;
    const ROUNDS: usize = 200;
    let pts = clustered(N + ROUNDS, DIM, 0xDE1);
    let mut index = Hnsw::build(DIM, HnswParams::default(), &pts[..N]);
    let mut rng = seeded_rng(0xDE2);
    let (mut deletes, mut inserts) = (0u64, 0u64);
    for fresh in &pts[N..] {
        let victim = index.live_ids().nth(rng.gen_range(0..index.len())).unwrap();
        let before = index.distance_computations();
        index.delete(victim);
        let between = index.distance_computations();
        index.insert(fresh);
        deletes += between - before;
        inserts += index.distance_computations() - between;
    }
    let per_delete = deletes as f64 / ROUNDS as f64;
    let per_insert = inserts as f64 / ROUNDS as f64;
    println!(
        "distance computations per op over {ROUNDS} churn rounds on {N} x {DIM}: \
         delete {per_delete:.0}, insert {per_insert:.0} ({:.2}x)",
        per_delete / per_insert
    );
    assert!(
        per_delete <= 2.0 * per_insert,
        "a delete costs {per_delete:.0} distance computations, an insert {per_insert:.0}"
    );
}

const K: usize = 10;

/// Recall@`K` of `index` at beam width `K` against `truth`, whose ids are
/// rows of the survivors; `row` maps a hit of `index` to its row.
fn recall(index: &Hnsw, queries: &[Vec<f64>], truth: &[Vec<u32>], row: impl Fn(u32) -> u32) -> f64 {
    let mut hit = 0;
    for (q, want) in queries.iter().zip(truth) {
        let got: Vec<u32> = index.search(q, K, K).iter().map(|h| row(h.id)).collect();
        hit += want.iter().filter(|t| got.contains(t)).count();
    }
    hit as f64 / (queries.len() * K) as f64
}

/// Half the vectors are replaced (a random half deleted, as many new ones
/// inserted), and the churned graph must then find at least the neighbors
/// a fresh build over the survivors finds, less 0.01. The beam is as narrow
/// as `k`, and the data is uniform in 32 dimensions, so neither graph is
/// exact and lost links would show. Over 2 000 queries the sampling noise
/// of either recall is about ±0.003, well inside the tolerance; on eight
/// histories like this one the churned graph sat 0.0007–0.0070 below the
/// fresh build.
#[test]
fn recall_after_half_turnover_matches_a_fresh_build() {
    const N: usize = 2_000;
    const DIM: usize = 32;
    const QUERIES: usize = 2_000;
    let mut rng = seeded_rng(0x7E57);
    let mut draw = |n: usize| -> Vec<Vec<f64>> {
        (0..n).map(|_| uniform_vec(&mut rng, DIM, -1.0, 1.0)).collect()
    };
    let (base, newcomers, queries) = (draw(N), draw(N / 2), draw(QUERIES));
    let params = HnswParams { ef_construction: 64, ..HnswParams::default() };
    let mut churned = Hnsw::build(DIM, params, &base);
    let mut order = seeded_rng(0x7E58);
    for v in &newcomers {
        let victim = churned.live_ids().nth(order.gen_range(0..churned.len())).unwrap();
        churned.delete(victim);
        churned.insert(v);
    }

    let live: Vec<u32> = churned.live_ids().collect();
    let survivors: Vec<Vec<f64>> =
        live.iter().map(|&id| churned.store().get(id).to_vec()).collect();
    let fresh = Hnsw::build(DIM, params, &survivors);
    let truth: Vec<Vec<u32>> = queries.iter().map(|q| exact_knn_ids(fresh.store(), q, K)).collect();
    let live_row = |id: u32| live.binary_search(&id).expect("hits are live") as u32;
    let churned_recall = recall(&churned, &queries, &truth, live_row);
    let fresh_recall = recall(&fresh, &queries, &truth, |id| id);
    println!(
        "recall@{K} at ef {K} after replacing {} of {N}: churned {churned_recall:.4}, \
         fresh {fresh_recall:.4}",
        N / 2
    );
    assert!(fresh_recall < 1.0, "the data is too easy to show a loss: fresh recall {fresh_recall}");
    assert!(
        churned_recall >= fresh_recall - 0.01,
        "churned recall {churned_recall:.4} fell below the fresh build's {fresh_recall:.4} - 0.01"
    );
}
