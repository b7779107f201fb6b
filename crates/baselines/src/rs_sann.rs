//! **RS-SANN** (Peng et al., Information Sciences 2017; paper baseline
//! `[25]`): AES-encrypted vectors behind an LSH index, with all exact
//! distance work pushed to the user.
//!
//! Protocol shape (reusable, single-interaction):
//! 1. The user hashes the query locally with the shared LSH key material and
//!    sends the `L` bucket keys (the "trapdoor").
//! 2. The server unions the candidate buckets and returns the candidates'
//!    AES-CTR ciphertexts.
//! 3. The user decrypts every candidate, computes exact distances, and keeps
//!    the top k.
//!
//! The characteristic costs the paper highlights — bulky downloads and heavy
//! user-side decryption — fall straight out of step 2 and 3.

use crate::cost::{BaselineOutcome, TriCost};
use ppann_linalg::{vector, TopK};
use ppann_lsh::{LshIndex, LshParams};
use ppann_softaes::{decrypt_f64_vector, encrypt_f64_vector, AesCtr};
use std::time::Instant;

/// RS-SANN parameters.
#[derive(Clone, Copy, Debug)]
pub struct RsSannParams {
    /// Vector dimensionality.
    pub dim: usize,
    /// LSH configuration (shared key material between owner and user).
    pub lsh: LshParams,
    /// Cap on candidates returned per query (the server truncates the
    /// union; more candidates ⇒ better recall, more user work).
    pub max_candidates: usize,
}

/// The assembled RS-SANN system.
pub struct RsSann {
    params: RsSannParams,
    /// Server state: the LSH index over (owner-hashed) vectors…
    lsh: LshIndex,
    /// …and the AES-CTR ciphertext of every vector, id-aligned.
    enc_vectors: Vec<Vec<u8>>,
    /// User state: the shared AES key.
    aes: AesCtr,
}

impl RsSann {
    /// Owner-side setup: encrypt every vector under AES-128-CTR and build
    /// the LSH index; both are shipped to the server.
    pub fn setup(params: RsSannParams, aes_key: [u8; 16], data: &[Vec<f64>]) -> Self {
        let aes = AesCtr::new(&aes_key);
        let enc_vectors =
            data.iter().enumerate().map(|(i, v)| encrypt_f64_vector(&aes, i as u64, v)).collect();
        let lsh = LshIndex::build(params.dim, params.lsh, data);
        Self { params, lsh, enc_vectors, aes }
    }

    /// Number of stored vectors.
    pub fn len(&self) -> usize {
        self.enc_vectors.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.enc_vectors.is_empty()
    }

    /// Runs one query end to end, reporting the id list and cost split.
    pub fn search(&self, q: &[f64], k: usize) -> BaselineOutcome {
        // --- user: hash the query into L bucket keys (the trapdoor).
        let user_started = Instant::now();
        let keys: Vec<u64> =
            (0..self.lsh.num_tables()).map(|t| self.lsh.bucket_key(t, q)).collect();
        let mut user_time = user_started.elapsed();

        // --- server: union buckets, cap, ship ciphertexts back.
        let server_started = Instant::now();
        let mut seen = std::collections::HashSet::new();
        let mut candidates: Vec<u32> = Vec::new();
        for (t, key) in keys.iter().enumerate() {
            for &id in self.lsh.bucket(t, *key) {
                if candidates.len() >= self.params.max_candidates {
                    break;
                }
                if seen.insert(id) {
                    candidates.push(id);
                }
            }
        }
        let payload: Vec<(u32, &[u8])> =
            candidates.iter().map(|&id| (id, self.enc_vectors[id as usize].as_slice())).collect();
        let server_time = server_started.elapsed();
        let bytes_down: u64 = payload.iter().map(|(_, ct)| 4 + ct.len() as u64).sum();

        // --- user: decrypt candidates, exact distances, top-k.
        let user_started = Instant::now();
        let decrypted: Vec<(u32, Vec<f64>)> = payload
            .iter()
            .map(|(id, ct)| (*id, decrypt_f64_vector(&self.aes, *id as u64, ct)))
            .collect();
        let mut heap = TopK::new(k, |a: u32, b: u32| {
            let da = &decrypted.iter().find(|(id, _)| *id == a).expect("candidate").1;
            let db = &decrypted.iter().find(|(id, _)| *id == b).expect("candidate").1;
            vector::squared_euclidean(da, q) > vector::squared_euclidean(db, q)
        });
        for (id, _) in &decrypted {
            heap.offer(*id);
        }
        let ids = heap.into_sorted_ids();
        user_time += user_started.elapsed();

        BaselineOutcome {
            ids,
            cost: TriCost {
                server_time,
                user_time,
                bytes_up: 8 * keys.len() as u64 + 8,
                bytes_down,
                rounds: 1,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppann_linalg::{seeded_rng, uniform_vec};
    use rand::Rng;

    fn system(n: usize, dim: usize, seed: u64) -> (Vec<Vec<f64>>, RsSann) {
        let mut rng = seeded_rng(seed);
        let centers: Vec<Vec<f64>> =
            (0..10).map(|_| uniform_vec(&mut rng, dim, -1.0, 1.0)).collect();
        let data: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                let c = &centers[rng.gen_range(0..centers.len())];
                c.iter().map(|x| x + rng.gen_range(-0.05..0.05)).collect()
            })
            .collect();
        let params =
            RsSannParams { dim, lsh: LshParams::tuned(6, 16, seed, &data), max_candidates: 400 };
        let sys = RsSann::setup(params, [7u8; 16], &data);
        (data, sys)
    }

    #[test]
    fn finds_identical_vector() {
        let (data, sys) = system(500, 8, 191);
        let out = sys.search(&data[42], 1);
        assert_eq!(out.ids, vec![42]);
        assert_eq!(out.cost.rounds, 1);
    }

    #[test]
    fn download_scales_with_candidates() {
        let (data, sys) = system(500, 8, 192);
        let out = sys.search(&data[0], 5);
        // Each candidate costs 4 + 8·dim bytes downstream.
        assert!(out.cost.bytes_down >= out.ids.len() as u64 * (4 + 64));
        assert!(out.cost.user_time >= std::time::Duration::ZERO);
    }

    #[test]
    fn recall_reasonable_on_clustered_data() {
        let (data, sys) = system(1000, 8, 193);
        let mut hits = 0;
        for qi in 0..20 {
            let q = &data[qi];
            let mut ids: Vec<u32> = (0..data.len() as u32).collect();
            ids.sort_by(|&a, &b| {
                vector::squared_euclidean(&data[a as usize], q)
                    .partial_cmp(&vector::squared_euclidean(&data[b as usize], q))
                    .unwrap()
            });
            let truth = &ids[..5];
            let got = sys.search(q, 5).ids;
            hits += truth.iter().filter(|t| got.contains(t)).count();
        }
        let recall = hits as f64 / 100.0;
        assert!(recall > 0.6, "recall {recall} too low for clustered data");
    }
}
