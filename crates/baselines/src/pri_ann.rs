//! **PRI-ANN** (Servan-Schreiber, Langowski, Devadas — S&P 2022; paper
//! baseline `[27]`): LSH buckets fetched through two-server PIR, with
//! user-side refinement.
//!
//! Protocol shape:
//! 1. The owner builds an LSH index; non-empty buckets become PIR blocks of
//!    candidate ids. A *public directory* maps `(table, bucket key)` to a
//!    block index — the directory reveals nothing about any specific query.
//! 2. The user hashes the query locally (it holds the LSH key material),
//!    looks up the block indices, and PIR-fetches its `L` buckets in one
//!    batched round.
//! 3. The user PIR-fetches the candidate vectors and refines locally.
//!
//! Faithfulness note (DESIGN.md §3): the original packs steps 2–3 into a
//! single round with a custom batched construction; this re-implementation
//! uses two batched PIR rounds (buckets, then vectors). Server scan cost,
//! communication volume and the user-side refinement burden — the quantities
//! Figures 7 and 9 compare — are equivalent.

use crate::cost::{BaselineOutcome, TriCost};
use ppann_linalg::{seeded_rng, vector, TopK};
use ppann_lsh::{LshIndex, LshParams};
use ppann_pir::{PirCost, PirDatabase, TwoServerPir};
use std::collections::HashMap;
use std::time::Instant;

/// PRI-ANN parameters.
#[derive(Clone, Copy, Debug)]
pub struct PriAnnParams {
    /// Vector dimensionality.
    pub dim: usize,
    /// LSH configuration (key material shared owner → user).
    pub lsh: LshParams,
    /// Bucket block capacity (ids per bucket block; larger buckets are
    /// truncated, trading recall for block size, as in the original).
    pub bucket_capacity: usize,
    /// Cap on candidates refined per query.
    pub max_candidates: usize,
    /// Seed for PIR mask randomness.
    pub seed: u64,
}

/// The assembled PRI-ANN system.
pub struct PriAnn {
    params: PriAnnParams,
    /// User-side LSH hasher (same key material as the owner's index).
    hasher: LshIndex,
    /// Public directory: (table, bucket key) → bucket block index.
    directory: HashMap<(usize, u64), usize>,
    buckets: TwoServerPir,
    vectors: TwoServerPir,
    n: usize,
}

impl PriAnn {
    /// Owner-side setup: LSH index → bucket blocks + vector blocks.
    pub fn setup(params: PriAnnParams, data: &[Vec<f64>]) -> Self {
        let index = LshIndex::build(params.dim, params.lsh, data);
        let mut directory = HashMap::new();
        let mut bucket_blocks: Vec<Vec<u8>> = Vec::new();
        for (table, key, ids) in index.iter_buckets() {
            let mut block = Vec::with_capacity(4 + 4 * params.bucket_capacity);
            let take = ids.len().min(params.bucket_capacity);
            block.extend_from_slice(&(take as u32).to_le_bytes());
            for &id in &ids[..take] {
                block.extend_from_slice(&id.to_le_bytes());
            }
            directory.insert((table, key), bucket_blocks.len());
            bucket_blocks.push(block);
        }
        let vec_blocks: Vec<Vec<u8>> =
            data.iter().map(|v| v.iter().flat_map(|x| x.to_le_bytes()).collect()).collect();
        // An empty-but-valid bucket block keeps PIR well-defined on empty data.
        if bucket_blocks.is_empty() {
            bucket_blocks.push(vec![0u8; 4]);
        }
        Self {
            hasher: index,
            directory,
            buckets: TwoServerPir::new(PirDatabase::from_blocks(
                4 + 4 * params.bucket_capacity,
                &bucket_blocks,
            )),
            vectors: TwoServerPir::new(PirDatabase::from_blocks(
                (params.dim * 8).max(8),
                &vec_blocks,
            )),
            n: data.len(),
            params,
        }
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// One query end to end.
    pub fn search(&self, q: &[f64], k: usize, query_seed: u64) -> BaselineOutcome {
        let mut rng = seeded_rng(self.params.seed ^ query_seed);
        let mut pir_cost = PirCost::default();
        let started = Instant::now();
        let mut server_time = std::time::Duration::ZERO;

        // User: hash locally, resolve block indices through the public
        // directory.
        let block_indices: Vec<usize> = (0..self.hasher.num_tables())
            .filter_map(|t| {
                let key = self.hasher.bucket_key(t, q);
                self.directory.get(&(t, key)).copied()
            })
            .collect();

        // Round 1: batched bucket fetch.
        let t0 = Instant::now();
        let bucket_blocks = self.buckets.retrieve_batch(&block_indices, &mut rng, &mut pir_cost);
        server_time += t0.elapsed();

        let mut candidates: Vec<u32> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        'outer: for block in &bucket_blocks {
            let count = u32::from_le_bytes(block[..4].try_into().expect("count")) as usize;
            for c in block[4..4 + 4 * count].chunks_exact(4) {
                let id = u32::from_le_bytes(c.try_into().expect("id"));
                if seen.insert(id) {
                    candidates.push(id);
                    if candidates.len() >= self.params.max_candidates {
                        break 'outer;
                    }
                }
            }
        }

        // Round 2: batched vector fetch for the candidates.
        let t1 = Instant::now();
        let vec_blocks = self.vectors.retrieve_batch(
            &candidates.iter().map(|&id| id as usize).collect::<Vec<_>>(),
            &mut rng,
            &mut pir_cost,
        );
        server_time += t1.elapsed();

        // User: exact refinement over the fetched plaintext vectors.
        let decoded: HashMap<u32, Vec<f64>> = candidates
            .iter()
            .zip(&vec_blocks)
            .map(|(&id, block)| {
                (
                    id,
                    block
                        .chunks_exact(8)
                        .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
                        .collect(),
                )
            })
            .collect();
        let mut heap = TopK::new(k, |a: u32, b: u32| {
            vector::squared_euclidean(&decoded[&a], q) > vector::squared_euclidean(&decoded[&b], q)
        });
        for &id in &candidates {
            heap.offer(id);
        }
        let ids = heap.into_sorted_ids();
        let user_time = started.elapsed().saturating_sub(server_time);

        BaselineOutcome {
            ids,
            cost: TriCost {
                server_time,
                user_time,
                bytes_up: pir_cost.bytes_up,
                bytes_down: pir_cost.bytes_down,
                rounds: pir_cost.rounds,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppann_linalg::uniform_vec;
    use rand::Rng;

    fn system(n: usize, dim: usize, seed: u64) -> (Vec<Vec<f64>>, PriAnn) {
        let mut rng = seeded_rng(seed);
        let centers: Vec<Vec<f64>> =
            (0..8).map(|_| uniform_vec(&mut rng, dim, -1.0, 1.0)).collect();
        let data: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                let c = &centers[rng.gen_range(0..centers.len())];
                c.iter().map(|x| x + rng.gen_range(-0.05..0.05)).collect()
            })
            .collect();
        let params = PriAnnParams {
            dim,
            lsh: LshParams::tuned(6, 16, seed, &data),
            bucket_capacity: 64,
            max_candidates: 256,
            seed,
        };
        let sys = PriAnn::setup(params, &data);
        (data, sys)
    }

    #[test]
    fn finds_identical_vector() {
        let (data, sys) = system(400, 8, 211);
        let out = sys.search(&data[31], 1, 0);
        assert_eq!(out.ids, vec![31]);
    }

    #[test]
    fn two_batched_rounds() {
        let (data, sys) = system(300, 8, 212);
        let out = sys.search(&data[0], 5, 1);
        assert_eq!(out.cost.rounds, 2, "one bucket round + one vector round");
        assert!(out.cost.bytes_down > 0);
    }

    #[test]
    fn empty_database_is_safe() {
        let params = PriAnnParams {
            dim: 4,
            lsh: LshParams { k: 2, l: 2, w: 1.0, seed: 1 },
            bucket_capacity: 8,
            max_candidates: 10,
            seed: 1,
        };
        let sys = PriAnn::setup(params, &[]);
        let out = sys.search(&[0.0; 4], 3, 0);
        assert!(out.ids.is_empty());
    }
}
