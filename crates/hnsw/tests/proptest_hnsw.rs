//! Property-based tests of the HNSW index: structural invariants must hold
//! for arbitrary data, parameters and maintenance sequences.

use ppann_hnsw::{exact_knn_ids, Hnsw, HnswParams, SearchScratch};
use proptest::prelude::*;

fn points(n: usize, d: usize, data: &[f64]) -> Vec<Vec<f64>> {
    (0..n).map(|i| data[i * d..(i + 1) * d].to_vec()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Results are deduplicated, live, sorted by true distance, ≤ k long.
    #[test]
    fn search_invariants(
        n in 2usize..80,
        d in 1usize..8,
        k in 1usize..12,
        data in proptest::collection::vec(-1.0f64..1.0, 80 * 8),
        q_seed in proptest::collection::vec(-1.0f64..1.0, 8),
    ) {
        let pts = points(n, d, &data);
        let index = Hnsw::build(d, HnswParams::default(), &pts);
        let q = &q_seed[..d];
        let hits = index.search(q, k, 40);
        prop_assert!(hits.len() <= k);
        prop_assert!(hits.len() == k.min(n));
        let mut ids: Vec<u32> = hits.iter().map(|h| h.id).collect();
        prop_assert!(hits.windows(2).all(|w| w[0].dist <= w[1].dist), "not sorted");
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), hits.len(), "duplicates returned");
    }

    /// On databases small enough to fit one layer-0 neighborhood, HNSW with
    /// a generous beam is exact.
    #[test]
    fn exact_on_tiny_databases(
        n in 2usize..30,
        d in 1usize..6,
        data in proptest::collection::vec(-1.0f64..1.0, 30 * 6),
        q_seed in proptest::collection::vec(-1.0f64..1.0, 6),
    ) {
        let pts = points(n, d, &data);
        let index = Hnsw::build(d, HnswParams::default(), &pts);
        let q = &q_seed[..d];
        let got: Vec<u32> = index.search(q, 5, n.max(30)).iter().map(|h| h.id).collect();
        let truth = exact_knn_ids(index.store(), q, 5);
        prop_assert_eq!(got, truth);
    }

    /// Deleted ids never come back; live count tracks maintenance.
    #[test]
    fn deletion_invariants(
        n in 5usize..50,
        d in 1usize..5,
        delete_mask in proptest::collection::vec(any::<bool>(), 50),
        data in proptest::collection::vec(-1.0f64..1.0, 50 * 5),
    ) {
        let pts = points(n, d, &data);
        let mut index = Hnsw::build(d, HnswParams::default(), &pts);
        let mut deleted = Vec::new();
        for (id, &kill) in delete_mask.iter().take(n).enumerate() {
            // Keep at least two nodes alive.
            if kill && index.len() > 2 {
                index.delete(id as u32);
                deleted.push(id as u32);
            }
        }
        prop_assert_eq!(index.len(), n - deleted.len());
        let q = &pts[0];
        let hits = index.search(q, n, 60);
        for h in &hits {
            prop_assert!(!deleted.contains(&h.id), "deleted id {} returned", h.id);
        }
    }

    /// Determinism contract of pooled scratch (DESIGN.md §6): a search
    /// through a dirty, previously used scratch is bitwise identical —
    /// same ids in the same order, same `f64` distance bits — to the same
    /// search through a fresh `SearchScratch::default()`. The dirty
    /// scratch is dragged across differently-sized graphs (large first,
    /// so its tables and heaps are oversized and full of stale state for
    /// the small one) and across deletions, whose tombstones the visited
    /// tables must not resurrect or suppress.
    #[test]
    fn scratch_parity(
        n_big in 20usize..60,
        n_small in 2usize..20,
        d in 1usize..6,
        k in 1usize..10,
        ef in 4usize..48,
        delete_mask in proptest::collection::vec(any::<bool>(), 60),
        data in proptest::collection::vec(-1.0f64..1.0, 60 * 6),
        queries in proptest::collection::vec(-1.0f64..1.0, 4 * 6),
    ) {
        let big_pts = points(n_big, d, &data);
        let small_pts = points(n_small, d, &data);
        let mut big = Hnsw::build(d, HnswParams::default(), &big_pts);
        let small = Hnsw::build(d, HnswParams::default(), &small_pts);

        let mut dirty = SearchScratch::default();
        for step in 0..4 {
            let q = &queries[step * d..(step + 1) * d];
            // Interleave deletions so later searches run over tombstones.
            if step == 2 {
                for (id, &kill) in delete_mask.iter().take(n_big).enumerate() {
                    if kill && big.len() > 2 {
                        big.delete(id as u32);
                    }
                }
            }
            // Alternate graphs: big warms the buffers past what small
            // needs, so small sees genuinely stale oversized state.
            for index in [&big, &small] {
                let reused: Vec<_> = index.search_in(&mut dirty, q, k, ef).to_vec();
                let fresh: Vec<_> =
                    index.search_in(&mut SearchScratch::default(), q, k, ef).to_vec();
                prop_assert_eq!(reused.len(), fresh.len(), "result count diverged");
                for (a, b) in reused.iter().zip(fresh.iter()) {
                    prop_assert_eq!(a.id, b.id, "id order diverged");
                    prop_assert_eq!(
                        a.dist.to_bits(), b.dist.to_bits(),
                        "distance bits diverged for id {}", a.id
                    );
                }
            }
        }
    }

    /// Serialization round-trips exactly, across tombstones: the restored
    /// index re-serializes to the same bytes and answers with the same ids
    /// and distance bits, and the same delete then insert on both sides
    /// leaves them byte-identical.
    #[test]
    fn snapshot_roundtrip(
        n in 2usize..40,
        d in 1usize..5,
        delete_mask in proptest::collection::vec(any::<bool>(), 40),
        data in proptest::collection::vec(-1.0f64..1.0, 41 * 5),
    ) {
        let pts = points(n, d, &data);
        let mut index = Hnsw::build(d, HnswParams::default(), &pts);
        for (id, &kill) in delete_mask.iter().take(n).enumerate() {
            if kill && index.len() > 2 {
                index.delete(id as u32);
            }
        }
        let bytes = index.to_bytes();
        let mut restored = Hnsw::from_bytes(bytes.clone()).unwrap();
        prop_assert_eq!(&restored.to_bytes(), &bytes, "re-serialized snapshot differs");
        let q = &pts[n / 2];
        let bits = |index: &Hnsw| -> Vec<(u32, u64)> {
            index.search(q, 5, 30).iter().map(|h| (h.id, h.dist.to_bits())).collect()
        };
        prop_assert_eq!(bits(&index), bits(&restored));

        let victim = index.live_ids().next().unwrap();
        index.delete(victim);
        restored.delete(victim);
        prop_assert_eq!(index.to_bytes(), restored.to_bytes(), "delete diverged");
        let extra = &data[40 * 5..40 * 5 + d];
        let (a, b) = (index.insert(extra), restored.insert(extra));
        prop_assert_eq!(a, b);
        prop_assert_eq!(index.to_bytes(), restored.to_bytes(), "insert diverged");
    }

    /// The graph is a pure function of its parameters and its history: a
    /// random insert/delete history with a `to_bytes`/`from_bytes` round
    /// trip at a random point ends in the same snapshot bytes, and answers
    /// with the same ids and distance bits, as the uninterrupted history.
    /// This is what crash recovery (snapshot + WAL replay), follower
    /// bootstrap and compaction rely on.
    #[test]
    fn restore_mid_history_is_invisible(
        m in 2usize..8,
        seed in any::<u64>(),
        d in 1usize..5,
        kinds in proptest::collection::vec(0u8..4, 1..80),
        picks in proptest::collection::vec(any::<usize>(), 80),
        cut in any::<usize>(),
        data in proptest::collection::vec(-1.0f64..1.0, 80 * 5),
        queries in proptest::collection::vec(-1.0f64..1.0, 4 * 5),
    ) {
        let params = HnswParams { m, m0: 2 * m, ef_construction: 32, seed };
        let pts = points(80, d, &data);
        // Op `i` inserts point `i`, or (one time in four) deletes the live
        // id its pick selects, keeping at least one node alive.
        let apply = |index: &mut Hnsw, from: usize, to: usize| {
            for i in from..to {
                if kinds[i] == 0 && index.len() > 1 {
                    let victim = index.live_ids().nth(picks[i] % index.len()).unwrap();
                    index.delete(victim);
                } else {
                    index.insert(&pts[i]);
                }
            }
        };
        let (cut, len) = (cut % (kinds.len() + 1), kinds.len());
        let mut straight = Hnsw::new(d, params);
        apply(&mut straight, 0, len);
        let mut interrupted = Hnsw::new(d, params);
        apply(&mut interrupted, 0, cut);
        let mut interrupted = Hnsw::from_bytes(interrupted.to_bytes()).unwrap();
        apply(&mut interrupted, cut, len);

        prop_assert_eq!(straight.to_bytes(), interrupted.to_bytes(), "snapshot bytes differ");
        for q in queries.chunks(5) {
            let bits = |index: &Hnsw| -> Vec<(u32, u64)> {
                index.search(&q[..d], 5, 16).iter().map(|h| (h.id, h.dist.to_bits())).collect()
            };
            prop_assert_eq!(bits(&straight), bits(&interrupted));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Hostile snapshot bytes: flipping random bytes of a valid snapshot
    /// yields an error or an index that searches, inserts, deletes and
    /// re-serializes — never a panic, an abort or a runaway allocation.
    /// Half the flips land in the 74-byte header, where one flip changes
    /// a size, a parameter or the entry point.
    #[test]
    fn corrupted_snapshots_fail_cleanly_or_load_whole(
        n in 2usize..40,
        d in 1usize..5,
        data in proptest::collection::vec(-1.0f64..1.0, 40 * 5),
        n_flips in 1usize..6,
        flip_at in proptest::collection::vec(any::<u64>(), 6),
        flip_mask in proptest::collection::vec(any::<u8>(), 6),
    ) {
        let pts = points(n, d, &data);
        let mut index = Hnsw::build(d, HnswParams::default(), &pts);
        index.delete(0);
        let mut bytes = index.to_bytes().to_vec();
        for (&at, &mask) in flip_at.iter().zip(&flip_mask).take(n_flips) {
            let span = if at >> 63 == 1 { 74 } else { bytes.len() };
            bytes[(at % span as u64) as usize] ^= mask | 1;
        }
        if let Ok(mut loaded) = Hnsw::from_bytes(bytes::Bytes::from(bytes)) {
            prop_assume!(loaded.dim() == d);
            loaded.search(&pts[1], 5, 30);
            loaded.insert(&pts[1]);
            let first_live = loaded.live_ids().next();
            if let Some(id) = first_live {
                loaded.delete(id);
            }
            let again = loaded.to_bytes();
            prop_assert_eq!(Hnsw::from_bytes(again.clone()).unwrap().to_bytes(), again);
        }
    }
}
