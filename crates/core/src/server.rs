//! The cloud server: filter-and-refine search (paper Algorithm 2) plus
//! server-side index maintenance.

use crate::cost::QueryCost;
use crate::heap::SecureTopK;
use crate::index::EncryptedDatabase;
use crate::query::EncryptedQuery;
use crate::scratch::{QueryScratch, QueryScratchPool};
use ppann_dce::DceCiphertext;
use std::time::Instant;

/// Per-query search knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SearchParams {
    /// Number of filter-phase candidates `k′` (`k′ = Ratio_k · k`; the
    /// paper grid-searches `Ratio_k` per target recall, Figure 5).
    pub k_prime: usize,
    /// HNSW beam width `efSearch` for the filter phase.
    pub ef_search: usize,
}

impl SearchParams {
    /// Builds parameters from the paper's `Ratio_k` convention.
    pub fn from_ratio(k: usize, ratio_k: usize, ef_search: usize) -> Self {
        Self { k_prime: k * ratio_k, ef_search }
    }
}

/// The result of one query.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// The k result ids, closest first.
    pub ids: Vec<u32>,
    /// Per-id **encrypted-space** distance: the squared Euclidean distance
    /// between the SAP ciphertext of the query and the stored SAP ciphertext
    /// of each result (aligned with [`Self::ids`]). These are values the
    /// server can already compute from what it stores — no plaintext
    /// distance is revealed — and they are bit-identical wherever the same
    /// outsourced database answers, in-process or behind the service,
    /// which the service layer's loopback parity tests rely on.
    pub sap_dists: Vec<f64>,
    /// Number of candidates the filter phase produced (≤ k′).
    pub filter_candidates: usize,
    /// Cost breakdown for this query.
    pub cost: QueryCost,
}

/// The honest-but-curious cloud server (paper Figure 1). It stores only
/// ciphertexts and answers queries without interaction beyond the single
/// request/response pair.
pub struct CloudServer {
    db: EncryptedDatabase,
}

impl CloudServer {
    /// Takes ownership of an outsourced encrypted database.
    pub fn new(db: EncryptedDatabase) -> Self {
        Self { db }
    }

    /// Read access to the stored database.
    pub fn database(&self) -> &EncryptedDatabase {
        &self.db
    }

    /// Write access for the collection's checked apply.
    pub(crate) fn database_mut(&mut self) -> &mut EncryptedDatabase {
        &mut self.db
    }

    /// Number of live vectors served.
    pub fn len(&self) -> usize {
        self.db.len()
    }

    /// Vector dimensionality served (SAP-ciphertext width).
    pub fn dim(&self) -> usize {
        self.db.hnsw().dim()
    }

    /// True when the store is empty.
    pub fn is_empty(&self) -> bool {
        self.db.is_empty()
    }

    /// **Algorithm 2**: filter phase (k′-ANNS on HNSW over SAP ciphertexts)
    /// followed by the refine phase (exact DCE comparisons through a secure
    /// max-heap). Single-threaded, as in the paper's evaluation.
    ///
    /// Borrows this thread's pooled [`QueryScratch`]; results are bitwise
    /// identical to [`Self::search_in`] with any scratch.
    pub fn search(&self, query: &EncryptedQuery, params: &SearchParams) -> SearchOutcome {
        QueryScratchPool::with(|scratch| self.search_in(scratch, query, params))
    }

    /// [`Self::search`] through caller-owned scratch. With a warm scratch
    /// the whole pipeline performs exactly **two** heap allocations — the
    /// returned `ids` and `sap_dists` vectors, which the outcome must own —
    /// and zero inside the hnsw layer (the counting-allocator regression
    /// test pins both numbers).
    pub fn search_in(
        &self,
        scratch: &mut QueryScratch,
        query: &EncryptedQuery,
        params: &SearchParams,
    ) -> SearchOutcome {
        let started = Instant::now();

        // Filter: k′ candidates ranked by approximate (SAP) distance. The
        // hnsw scratch counts this query's distance computations itself,
        // so the figure stays exact while other threads search the index.
        let k_prime = params.k_prime.max(query.k);
        let candidates = self.db.hnsw().search_in(
            &mut scratch.hnsw,
            &query.c_sap,
            k_prime,
            params.ef_search.max(k_prime),
        );
        let filter_candidates = candidates.len();
        scratch.cand_ids.clear();
        scratch.cand_ids.extend(candidates.iter().map(|c| c.id));
        let filter_dist_comps = scratch.hnsw.dist_comps();

        // Refine: exact top-k via DCE comparisons only, offered as one
        // batch so the at-capacity screen scores the candidate set with a
        // single `DistanceComp` kernel call per trapdoor load. The heap
        // recycles its storage through the scratch across queries.
        let mut heap = SecureTopK::new_with_storage(
            &query.trapdoor,
            self.db.dce_ciphertexts(),
            query.k,
            std::mem::take(&mut scratch.topk),
        );
        heap.offer_many(&scratch.cand_ids);
        let refine_sdc_comps = heap.comparisons();
        let (ids, storage) = heap.into_sorted_parts();
        scratch.topk = storage;
        let sap_dists = self.db.sap_distances(&query.c_sap, &ids);

        let cost = QueryCost {
            filter_dist_comps,
            refine_sdc_comps,
            server_time: started.elapsed(),
            bytes_up: query.upload_bytes(),
            bytes_down: 4 * ids.len() as u64, // k result ids, u32 each (paper model)
        };
        SearchOutcome { ids, sap_dists, filter_candidates, cost }
    }

    /// The filter phase alone (`HNSW(filter)` of Figure 6 and the β study of
    /// Figure 4): returns the top-k by *approximate* SAP distance, skipping
    /// refinement entirely.
    pub fn search_filter_only(&self, query: &EncryptedQuery, ef_search: usize) -> SearchOutcome {
        let started = Instant::now();
        let (ids, filter_dist_comps) = QueryScratchPool::with(|scratch| {
            let hits = self.db.hnsw().search_in(
                &mut scratch.hnsw,
                &query.c_sap,
                query.k,
                ef_search.max(query.k),
            );
            let ids: Vec<u32> = hits.iter().map(|h| h.id).collect();
            (ids, scratch.hnsw.dist_comps())
        });
        let sap_dists = self.db.sap_distances(&query.c_sap, &ids);
        let cost = QueryCost {
            filter_dist_comps,
            refine_sdc_comps: 0,
            server_time: started.elapsed(),
            bytes_up: query.upload_bytes(),
            bytes_down: 4 * ids.len() as u64,
        };
        SearchOutcome { filter_candidates: ids.len(), ids, sap_dists, cost }
    }

    /// Runs only the *filter* search but returns the raw candidate list
    /// (used by the HNSW-AME baseline, which shares our filter phase).
    pub fn filter_candidates(&self, query: &EncryptedQuery, params: &SearchParams) -> Vec<u32> {
        let k_prime = params.k_prime.max(query.k);
        self.db
            .hnsw()
            .search(&query.c_sap, k_prime, params.ef_search.max(k_prime))
            .into_iter()
            .map(|n| n.id)
            .collect()
    }

    /// Server-side insertion of an owner-encrypted vector (Section V-D).
    pub fn insert(&mut self, c_sap: Vec<f64>, c_dce: DceCiphertext) -> u32 {
        self.db.insert(c_sap, c_dce)
    }

    /// Server-side deletion with graph repair (Section V-D).
    ///
    /// # Panics
    /// Panics if `id` is out of range or already deleted; remote callers
    /// check [`Self::is_live`] first.
    pub fn delete(&mut self, id: u32) {
        self.db.delete(id);
    }

    /// Whether `id` names a live (in-range, not yet deleted) vector, i.e.
    /// whether [`Self::delete`] would succeed.
    pub fn is_live(&self, id: u32) -> bool {
        self.db.is_live(id)
    }

    /// Total id slots allocated, live or tombstoned — the id the next
    /// [`Self::insert`] will assign (what the write-ahead log records).
    pub fn slots(&self) -> usize {
        self.db.hnsw().capacity_slots()
    }

    /// Consumes the server, returning the stored database (for persistence).
    pub fn into_database(self) -> EncryptedDatabase {
        self.db
    }
}

impl std::fmt::Debug for CloudServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CloudServer").field("live", &self.len()).finish_non_exhaustive()
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::owner::{DataOwner, PpAnnParams};
    use ppann_hnsw::exact_knn_ids;
    use ppann_hnsw::VecStore;
    use ppann_linalg::{seeded_rng, uniform_vec};

    fn setup(
        n: usize,
        dim: usize,
        beta: f64,
        seed: u64,
    ) -> (Vec<Vec<f64>>, DataOwner, CloudServer) {
        let mut rng = seeded_rng(seed);
        let data: Vec<Vec<f64>> = (0..n).map(|_| uniform_vec(&mut rng, dim, -1.0, 1.0)).collect();
        let owner = DataOwner::setup(PpAnnParams::new(dim).with_seed(seed).with_beta(beta), &data);
        let server = CloudServer::new(owner.outsource(&data));
        (data, owner, server)
    }

    #[test]
    fn refine_returns_exact_order_over_candidates() {
        // With β = 0 the filter is exact HNSW; the refine phase must then
        // return the true top-k in the true order.
        let (data, owner, server) = setup(300, 8, 0.0, 151);
        let mut user = owner.authorize_user();
        let store = VecStore::from_vectors(8, &data);
        for qi in 0..10 {
            let q = &data[qi];
            let enc = user.encrypt_query(q, 5);
            let out = server.search(&enc, &SearchParams { k_prime: 40, ef_search: 80 });
            let truth = exact_knn_ids(&store, q, 5);
            assert_eq!(out.ids, truth, "query {qi}");
        }
    }

    #[test]
    fn noisy_filter_with_refine_beats_filter_alone() {
        let (data, owner, server) = setup(800, 12, 1.2, 152);
        let mut user = owner.authorize_user();
        let store = VecStore::from_vectors(12, &data);
        let mut refine_hits = 0usize;
        let mut filter_hits = 0usize;
        let mut total = 0usize;
        for qi in 0..30 {
            let q = &data[qi];
            let truth = exact_knn_ids(&store, q, 10);
            let enc = user.encrypt_query(q, 10);
            let refined = server.search(&enc, &SearchParams { k_prime: 80, ef_search: 160 });
            let filtered = server.search_filter_only(&enc, 160);
            total += truth.len();
            refine_hits += truth.iter().filter(|t| refined.ids.contains(t)).count();
            filter_hits += truth.iter().filter(|t| filtered.ids.contains(t)).count();
        }
        let recall_refined = refine_hits as f64 / total as f64;
        let recall_filtered = filter_hits as f64 / total as f64;
        assert!(
            recall_refined >= recall_filtered,
            "refine {recall_refined} should not lose to filter {recall_filtered}"
        );
        assert!(recall_refined > 0.8, "refined recall {recall_refined} too low");
    }

    #[test]
    fn cost_meter_populated() {
        let (data, owner, server) = setup(200, 6, 0.5, 153);
        let mut user = owner.authorize_user();
        let enc = user.encrypt_query(&data[0], 5);
        let out = server.search(&enc, &SearchParams { k_prime: 20, ef_search: 40 });
        assert!(out.cost.filter_dist_comps > 0);
        assert!(out.cost.refine_sdc_comps > 0);
        assert!(out.cost.bytes_up > 0);
        assert_eq!(out.cost.bytes_down, 4 * out.ids.len() as u64);
    }

    /// Two threads searching one index at once must each report exactly
    /// the distance computations their own query costs alone.
    #[test]
    fn dist_comps_are_per_query_under_concurrency() {
        let (data, owner, server) = setup(400, 8, 0.5, 157);
        let mut user = owner.authorize_user();
        let params = SearchParams { k_prime: 30, ef_search: 60 };
        // The first pair of queries whose solo counts differ, so a count
        // smeared from one thread into the other cannot go unnoticed.
        let solo = |q: &EncryptedQuery| server.search(q, &params).cost.filter_dist_comps;
        let first = user.encrypt_query(&data[0], 5);
        let second = data[1..]
            .iter()
            .map(|v| user.encrypt_query(v, 5))
            .find(|q| solo(q) != solo(&first))
            .expect("some query costs a different count");
        let queries = [first, second];
        let alone: Vec<u64> = queries.iter().map(solo).collect();
        assert_ne!(alone[0], alone[1], "pick queries whose counts differ");

        let before = server.database().hnsw().distance_computations();
        let rounds = 200;
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for (q, &expected) in queries.iter().zip(&alone) {
                let (server, barrier) = (&server, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    for round in 0..rounds {
                        let got = server.search(q, &params).cost.filter_dist_comps;
                        assert_eq!(got, expected, "round {round}: count smeared across threads");
                    }
                });
            }
        });
        // The index-wide total still adds up every search exactly.
        let total = server.database().hnsw().distance_computations() - before;
        assert_eq!(total, rounds * (alone[0] + alone[1]));
    }

    #[test]
    fn maintenance_insert_then_find() {
        let (data, owner, mut server) = setup(100, 4, 0.0, 154);
        let novel = vec![5.0, 5.0, 5.0, 5.0]; // outside the data cube
        let (c_sap, c_dce) = owner.encrypt_for_insert(&novel, 1);
        let id = server.insert(c_sap, c_dce);
        let mut user = owner.authorize_user();
        let enc = user.encrypt_query(&novel, 1);
        let out = server.search(&enc, &SearchParams { k_prime: 10, ef_search: 30 });
        assert_eq!(out.ids, vec![id]);
        let _ = data;
    }

    #[test]
    fn maintenance_delete_removes_from_results() {
        let (data, owner, mut server) = setup(150, 4, 0.0, 155);
        let mut user = owner.authorize_user();
        let enc = user.encrypt_query(&data[3], 1);
        let first = server.search(&enc, &SearchParams { k_prime: 10, ef_search: 30 }).ids[0];
        server.delete(first);
        let enc = user.encrypt_query(&data[3], 5);
        let out = server.search(&enc, &SearchParams { k_prime: 20, ef_search: 40 });
        assert!(!out.ids.contains(&first));
    }

    #[test]
    fn k_larger_than_database() {
        let (data, owner, server) = setup(5, 3, 0.0, 156);
        let mut user = owner.authorize_user();
        let enc = user.encrypt_query(&data[0], 10);
        let out = server.search(&enc, &SearchParams { k_prime: 10, ef_search: 20 });
        assert_eq!(out.ids.len(), 5);
        let _ = data;
    }
}
