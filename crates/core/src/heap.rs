//! The secure top-k heap of the refine phase (paper Algorithm 2).
//!
//! A bounded max-heap over candidate ids in which **every** ordering decision
//! is a DCE `DistanceComp` call — the server never sees a distance value,
//! only comparison signs. Each insertion costs O(log k) secure comparisons,
//! giving the paper's refine complexity O(k′·d·log k).

use ppann_dce::{distance_comp, distance_comp_many_into, DceCiphertext, DceTrapdoor};
use ppann_linalg::{Ranking, TopK};

/// Algorithm 2's order: one `DistanceComp` sign per decision.
#[derive(Clone, Copy)]
struct DceRanking<'a> {
    trapdoor: &'a DceTrapdoor,
    ciphertexts: &'a [DceCiphertext],
}

impl Ranking for DceRanking<'_> {
    /// `true` iff `dist(a, q) > dist(b, q)` — the max-heap ordering.
    #[inline]
    fn farther(&mut self, a: u32, b: u32) -> bool {
        distance_comp(&self.ciphertexts[a as usize], &self.ciphertexts[b as usize], self.trapdoor)
            > 0.0
    }
}

/// A bounded secure max-heap: retains the `k` candidates closest to the
/// query, with the *farthest* retained candidate on top. It is the
/// [`TopK`] heap instantiated with DCE comparisons, plus a batched screen
/// ([`Self::offer_many`]).
pub struct SecureTopK<'a> {
    heap: TopK<DceRanking<'a>>,
}

impl<'a> SecureTopK<'a> {
    /// Creates an empty heap of the given capacity (`k`).
    pub fn new(
        trapdoor: &'a DceTrapdoor,
        ciphertexts: &'a [DceCiphertext],
        capacity: usize,
    ) -> Self {
        Self::new_with_storage(trapdoor, ciphertexts, capacity, Vec::with_capacity(capacity + 1))
    }

    /// [`Self::new`] reusing recycled heap storage (cleared here): the warm
    /// refine phase hands the same `Vec` through
    /// [`Self::into_sorted_parts`] query after query, so the heap itself
    /// never re-allocates.
    pub fn new_with_storage(
        trapdoor: &'a DceTrapdoor,
        ciphertexts: &'a [DceCiphertext],
        capacity: usize,
        storage: Vec<u32>,
    ) -> Self {
        let ranking = DceRanking { trapdoor, ciphertexts };
        Self { heap: TopK::with_storage(capacity, ranking, storage) }
    }

    /// Number of retained candidates.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing has been offered yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Secure comparisons performed so far.
    pub fn comparisons(&self) -> u64 {
        self.heap.comparisons()
    }

    /// Offers a candidate (the body of Algorithm 2's loop): inserted outright
    /// while the heap is under capacity; otherwise it replaces the current
    /// top iff it is closer to the query (line 8: `DistanceComp(C_o, C_p,
    /// T_q) > 0` ⇒ p wins).
    pub fn offer(&mut self, id: u32) {
        self.heap.offer(id);
    }

    /// Offers a whole candidate list, retaining exactly what offering each
    /// id in order with [`Self::offer`] would retain.
    ///
    /// After the heap fills, the remaining candidates are screened with one
    /// *batched* `DistanceComp` call against the batch-start top: the top's
    /// distance only ever shrinks as offers are accepted, so any candidate
    /// the batch-start top beats would also lose to every later top —
    /// rejecting it on the batched sign alone is exactly the sequential
    /// decision (one comparison, as in Algorithm 2 line 8). Survivors are
    /// re-offered one by one against the live top, which re-verifies them;
    /// each survivor therefore costs one extra comparison versus the
    /// sequential loop, while the bulk of the candidate set is rejected at
    /// batched-kernel speed with the trapdoor and the top's ciphertext
    /// halves loaded once.
    pub fn offer_many(&mut self, ids: &[u32]) {
        let mut idx = 0;
        while !self.heap.is_full() && idx < ids.len() {
            self.heap.offer(ids[idx]);
            idx += 1;
        }
        let rest = &ids[idx..];
        if rest.is_empty() {
            return;
        }
        // The batch-start top stays the screen reference across every chunk
        // (the ranking's borrows are `'a`, independent of `&mut self`):
        // chunking only groups kernel calls, the decisions and comparison
        // count are exactly those of the unchunked screen. Staging the
        // ciphertext refs in a fixed stack array keeps the warm path
        // allocation-free.
        let DceRanking { trapdoor, ciphertexts: cts } = *self.heap.ranking();
        let top_ct = &cts[self.heap.top().expect("a full heap has a top") as usize];
        const CHUNK: usize = 64;
        let mut c_ps: [&DceCiphertext; CHUNK] = [top_ct; CHUNK];
        let mut zs = [0.0f64; CHUNK];
        for chunk in rest.chunks(CHUNK) {
            for (slot, &id) in c_ps.iter_mut().zip(chunk) {
                *slot = &cts[id as usize];
            }
            distance_comp_many_into(top_ct, &c_ps[..chunk.len()], trapdoor, &mut zs[..chunk.len()]);
            self.heap.record_comparisons(chunk.len() as u64);
            for (&id, &z) in chunk.iter().zip(&zs[..chunk.len()]) {
                // z > 0 ⇔ the batch-start top is farther ⇒ the candidate
                // may still belong in the heap: run the normal offer
                // against the live top.
                if z > 0.0 {
                    self.heap.offer(id);
                }
            }
        }
    }

    /// Drains the heap into ids ordered closest-first (k·log k secure
    /// comparisons; the paper returns the heap unordered, ordering is a
    /// convenience for recall computation).
    pub fn into_sorted_ids(self) -> Vec<u32> {
        self.heap.into_sorted_ids()
    }

    /// [`Self::into_sorted_ids`] that also returns the (now empty) heap
    /// storage for recycling into the next [`Self::new_with_storage`].
    pub fn into_sorted_parts(self) -> (Vec<u32>, Vec<u32>) {
        self.heap.into_sorted_parts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppann_dce::DceSecretKey;
    use ppann_linalg::vector::squared_euclidean;
    use ppann_linalg::{seeded_rng, uniform_vec};

    #[test]
    fn keeps_the_true_top_k() {
        let mut rng = seeded_rng(121);
        let d = 8;
        let sk = DceSecretKey::generate(d, &mut rng);
        let pts: Vec<Vec<f64>> = (0..60).map(|_| uniform_vec(&mut rng, d, -1.0, 1.0)).collect();
        let cts: Vec<_> = pts.iter().map(|p| sk.encrypt(p, &mut rng)).collect();
        let q = uniform_vec(&mut rng, d, -1.0, 1.0);
        let t = sk.trapdoor(&q, &mut rng);

        let mut heap = SecureTopK::new(&t, &cts, 10);
        for id in 0..pts.len() as u32 {
            heap.offer(id);
        }
        let got = heap.into_sorted_ids();

        let mut expected: Vec<u32> = (0..pts.len() as u32).collect();
        expected.sort_by(|&a, &b| {
            squared_euclidean(&pts[a as usize], &q)
                .partial_cmp(&squared_euclidean(&pts[b as usize], &q))
                .unwrap()
        });
        assert_eq!(got, expected[..10].to_vec());
    }

    #[test]
    fn under_capacity_returns_everything() {
        let mut rng = seeded_rng(122);
        let d = 4;
        let sk = DceSecretKey::generate(d, &mut rng);
        let pts: Vec<Vec<f64>> = (0..3).map(|_| uniform_vec(&mut rng, d, -1.0, 1.0)).collect();
        let cts: Vec<_> = pts.iter().map(|p| sk.encrypt(p, &mut rng)).collect();
        let t = sk.trapdoor(&pts[0], &mut rng);
        let mut heap = SecureTopK::new(&t, &cts, 10);
        for id in 0..3 {
            heap.offer(id);
        }
        assert_eq!(heap.len(), 3);
        let ids = heap.into_sorted_ids();
        assert_eq!(ids.len(), 3);
        assert_eq!(ids[0], 0);
    }

    /// Encrypts each key as the point `(key, 0)` and queries the origin,
    /// so the secure order is the order of the keys' squares.
    fn keyed_heap_ids(keys: &[f64], capacity: usize, seed: u64) -> Vec<u32> {
        let mut rng = seeded_rng(seed);
        let sk = DceSecretKey::generate(2, &mut rng);
        let cts: Vec<_> = keys.iter().map(|&v| sk.encrypt(&[v, 0.0], &mut rng)).collect();
        let t = sk.trapdoor(&[0.0, 0.0], &mut rng);
        let mut heap = SecureTopK::new(&t, &cts, capacity);
        for id in 0..keys.len() as u32 {
            heap.offer(id);
        }
        heap.into_sorted_ids()
    }

    #[test]
    fn selects_smallest_values() {
        let keys = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0];
        assert_eq!(keyed_heap_ids(&keys, 3, 125), vec![1, 5, 3]);
    }

    #[test]
    fn capacity_one() {
        let keys = [4.0, 2.0, 6.0];
        assert_eq!(keyed_heap_ids(&keys, 1, 126), vec![1]);
    }

    /// Batched offering retains exactly the sequential result — the screen
    /// is a pure execution-shape change (tie-free data, so comparison
    /// consistency is exact).
    #[test]
    fn offer_many_matches_sequential_offers() {
        let mut rng = seeded_rng(124);
        let d = 8;
        let sk = DceSecretKey::generate(d, &mut rng);
        let pts: Vec<Vec<f64>> = (0..80).map(|_| uniform_vec(&mut rng, d, -1.0, 1.0)).collect();
        let cts: Vec<_> = pts.iter().map(|p| sk.encrypt(p, &mut rng)).collect();
        let q = uniform_vec(&mut rng, d, -1.0, 1.0);
        let t = sk.trapdoor(&q, &mut rng);
        let ids: Vec<u32> = (0..pts.len() as u32).collect();

        for k in [1usize, 3, 10, 79, 100] {
            let mut sequential = SecureTopK::new(&t, &cts, k);
            for &id in &ids {
                sequential.offer(id);
            }
            let mut batched = SecureTopK::new(&t, &cts, k);
            batched.offer_many(&ids);
            assert_eq!(
                batched.into_sorted_ids(),
                sequential.into_sorted_ids(),
                "k={k}: batched refine diverged from sequential offers"
            );
        }
    }

    #[test]
    fn comparison_count_is_logarithmic_per_offer() {
        let mut rng = seeded_rng(123);
        let d = 4;
        let k = 16usize;
        let n = 512u32;
        let sk = DceSecretKey::generate(d, &mut rng);
        let pts: Vec<Vec<f64>> = (0..n).map(|_| uniform_vec(&mut rng, d, -1.0, 1.0)).collect();
        let cts: Vec<_> = pts.iter().map(|p| sk.encrypt(p, &mut rng)).collect();
        let t = sk.trapdoor(&pts[0], &mut rng);
        let mut heap = SecureTopK::new(&t, &cts, k);
        for id in 0..n {
            heap.offer(id);
        }
        let comps = heap.comparisons();
        // Bound: each offer costs ≤ 1 + 2·log₂(k) comparisons.
        let bound = n as u64 * (1 + 2 * (k as f64).log2().ceil() as u64);
        assert!(comps <= bound, "comps {comps} exceeds bound {bound}");
    }
}
