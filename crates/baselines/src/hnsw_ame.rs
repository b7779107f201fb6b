//! **HNSW-AME** — the paper's own ablation baseline (Section VII-B,
//! Figure 6): identical privacy-preserving index and filter phase as the
//! main scheme (HNSW over DCPE/SAP ciphertexts), but the refine phase uses
//! AME secure comparisons at O(d²) each instead of DCE's O(d).

use crate::cost::{BaselineOutcome, TriCost};
use ppann_ame::{distance_comp, AmeCiphertext, AmeSecretKey, AmeTrapdoor};
use ppann_dcpe::{SapEncryptor, SapKey};
use ppann_hnsw::{Hnsw, HnswParams};
use ppann_linalg::{seeded_rng, vector, TopK};
use std::time::Instant;

/// Parameters for the HNSW-AME system (matches the main scheme's knobs).
#[derive(Clone, Copy, Debug)]
pub struct HnswAmeParams {
    /// Vector dimensionality.
    pub dim: usize,
    /// SAP scaling factor.
    pub sap_s: f64,
    /// SAP noise budget β (normalized coordinates).
    pub sap_beta: f64,
    /// HNSW construction parameters.
    pub hnsw: HnswParams,
    /// Master seed.
    pub seed: u64,
}

/// An encrypted HNSW-AME query.
pub struct HnswAmeQuery {
    c_sap: Vec<f64>,
    trapdoor: AmeTrapdoor,
    k: usize,
    /// User-side time spent building this query (AME trapdoors are 16
    /// matrix sandwiches — significant, and part of Figure 9's user cost).
    user_time: std::time::Duration,
}

/// The assembled HNSW-AME system (owner keys + the server state).
pub struct HnswAme {
    params: HnswAmeParams,
    sap: SapEncryptor,
    ame: AmeSecretKey,
    norm_scale: f64,
    hnsw: Hnsw,
    ame_cts: Vec<AmeCiphertext>,
}

impl HnswAme {
    /// Builds the full system over a plaintext database (owner side: keygen,
    /// dual encryption, index construction).
    pub fn setup(params: HnswAmeParams, data: &[Vec<f64>]) -> Self {
        let mut rng = seeded_rng(params.seed);
        let max_abs = data.iter().map(|v| vector::max_abs(v)).fold(0.0f64, f64::max);
        let norm_scale = if max_abs > 0.0 { 1.0 / max_abs } else { 1.0 };
        let sap = SapEncryptor::new(SapKey::new(params.sap_s, params.sap_beta));
        let ame = AmeSecretKey::generate(params.dim, &mut rng);

        let normalized: Vec<Vec<f64>> =
            data.iter().map(|v| vector::scaled(v, norm_scale)).collect();
        let sap_cts = sap.encrypt_batch(&normalized, params.seed ^ 0x5A9);
        let ame_cts = ppann_linalg::parallel_map_indexed(normalized.len(), |i| {
            let mut rng = seeded_rng(params.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            ame.encrypt(&normalized[i], &mut rng)
        });
        let hnsw = Hnsw::build(params.dim, params.hnsw, &sap_cts);
        Self { params, sap, ame, norm_scale, hnsw, ame_cts }
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.hnsw.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.hnsw.is_empty()
    }

    /// User-side query encryption (SAP ciphertext + AME trapdoor).
    pub fn encrypt_query(&self, q: &[f64], k: usize, seed: u64) -> HnswAmeQuery {
        let started = Instant::now();
        let mut rng = seeded_rng(self.params.seed ^ seed ^ 0x0E5);
        let normalized = vector::scaled(q, self.norm_scale);
        let c_sap = self.sap.encrypt(&normalized, &mut rng);
        let trapdoor = self.ame.trapdoor(&normalized, &mut rng);
        HnswAmeQuery { c_sap, trapdoor, k, user_time: started.elapsed() }
    }

    /// Filter-and-refine search: same filter as the main scheme, AME refine.
    pub fn search(
        &self,
        query: &HnswAmeQuery,
        k_prime: usize,
        ef_search: usize,
    ) -> BaselineOutcome {
        let started = Instant::now();
        let k_prime = k_prime.max(query.k);
        let candidates = self.hnsw.search(&query.c_sap, k_prime, ef_search.max(k_prime));

        let mut heap = TopK::new(query.k, |a: u32, b: u32| {
            distance_comp(&self.ame_cts[a as usize], &self.ame_cts[b as usize], &query.trapdoor)
                > 0.0
        });
        for cand in &candidates {
            heap.offer(cand.id);
        }
        let ids = heap.into_sorted_ids();
        let trapdoor_bytes = 8 * query.trapdoor.len_scalars() as u64;
        BaselineOutcome {
            cost: TriCost {
                server_time: started.elapsed(),
                user_time: query.user_time,
                bytes_up: 8 * query.c_sap.len() as u64 + trapdoor_bytes + 8,
                bytes_down: 4 * ids.len() as u64,
                rounds: 1,
            },
            ids,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppann_linalg::uniform_vec;

    fn params(dim: usize) -> HnswAmeParams {
        HnswAmeParams { dim, sap_s: 1024.0, sap_beta: 0.0, hnsw: HnswParams::default(), seed: 5 }
    }

    #[test]
    fn exact_results_with_noiseless_filter() {
        let mut rng = seeded_rng(181);
        let data: Vec<Vec<f64>> = (0..150).map(|_| uniform_vec(&mut rng, 6, -1.0, 1.0)).collect();
        let system = HnswAme::setup(params(6), &data);
        let truth = ppann_datasets_truth(&data, &data[3], 5);
        let q = system.encrypt_query(&data[3], 5, 1);
        let out = system.search(&q, 30, 60);
        assert_eq!(out.ids, truth);
        assert!(out.cost.bytes_up > 8 * 6); // the trapdoor dominates
    }

    /// Local brute force (avoids a dev-dependency cycle with datasets).
    fn ppann_datasets_truth(base: &[Vec<f64>], q: &[f64], k: usize) -> Vec<u32> {
        let mut ids: Vec<u32> = (0..base.len() as u32).collect();
        ids.sort_by(|&a, &b| {
            vector::squared_euclidean(&base[a as usize], q)
                .partial_cmp(&vector::squared_euclidean(&base[b as usize], q))
                .unwrap()
        });
        ids.truncate(k);
        ids
    }

    #[test]
    fn ame_trapdoor_dominates_upload() {
        let mut rng = seeded_rng(182);
        let data: Vec<Vec<f64>> = (0..40).map(|_| uniform_vec(&mut rng, 4, -1.0, 1.0)).collect();
        let system = HnswAme::setup(params(4), &data);
        let q = system.encrypt_query(&data[0], 3, 2);
        let out = system.search(&q, 10, 20);
        // 16 matrices of (2d+6)² f64s ≫ the SAP vector.
        let n = 2 * 4 + 6;
        assert!(out.cost.bytes_up as usize >= 16 * n * n * 8);
    }
}
