//! The hierarchical graph: construction, search, maintenance.

use crate::adjacency::Adjacency;
use crate::params::HnswParams;
use crate::scratch::{ScratchPool, SearchScratch};
use crate::store::VecStore;
use ppann_linalg::kernels::prefetch;
use ppann_linalg::vector::{squared_euclidean, squared_euclidean_many};
use std::sync::atomic::{AtomicU64, Ordering};

/// A search hit: node id plus its (squared) distance to the query.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Neighbor {
    /// Node id within the index.
    pub id: u32,
    /// Squared Euclidean distance to the query.
    pub dist: f64,
}

/// Max-heap entry ordered by distance (largest distance on top).
#[derive(Clone, Copy, PartialEq)]
pub(crate) struct FarthestFirst(pub(crate) Neighbor);
/// Min-heap entry ordered by distance (smallest distance on top).
#[derive(Clone, Copy, PartialEq)]
pub(crate) struct ClosestFirst(pub(crate) Neighbor);

impl Eq for FarthestFirst {}
impl Eq for ClosestFirst {}
impl Ord for FarthestFirst {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.dist.partial_cmp(&other.0.dist).expect("NaN distance in HNSW heap")
    }
}
impl PartialOrd for FarthestFirst {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ClosestFirst {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.0.dist.partial_cmp(&self.0.dist).expect("NaN distance in HNSW heap")
    }
}
impl PartialOrd for ClosestFirst {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A Hierarchical Navigable Small World index over squared-Euclidean space.
pub struct Hnsw {
    params: HnswParams,
    store: VecStore,
    /// Neighbour lists: the layer-0 arena plus the sparse upper layers.
    adj: Adjacency,
    /// Tombstones, one byte per id (ids are never reused).
    deleted: Vec<bool>,
    entry: Option<u32>,
    /// Scratch for the mutating paths (`insert`/`delete`), `mem::take`n
    /// around each use; searches use caller scratch or the thread pool.
    scratch: SearchScratch,
    live: usize,
    /// Distance computations performed so far (the paper's cost unit for
    /// the filter phase). Each operation counts in its scratch and adds
    /// its total here once, so concurrent searches never smear into one
    /// another's per-query figure. Relaxed atomic so `search(&self)`
    /// stays `&self`.
    dist_comps: AtomicU64,
}

impl Hnsw {
    /// An empty index for `dim`-dimensional vectors.
    ///
    /// # Panics
    /// Panics on invalid parameters (see [`HnswParams::validate`]).
    pub fn new(dim: usize, params: HnswParams) -> Self {
        params.validate().expect("invalid HNSW parameters");
        let adj = Adjacency::with_capacity(params.m0, 0).expect("m0 is bounded by validate");
        Self::from_parts(params, VecStore::new(dim), adj, Vec::new(), None, 0)
    }

    /// Assembles an index from decoded parts (the snapshot loader's
    /// constructor). Levels are a function of `(params.seed, id)`, so the
    /// parts are the whole state: later inserts link exactly as they would
    /// have in the index the parts were taken from.
    pub(crate) fn from_parts(
        params: HnswParams,
        store: VecStore,
        adj: Adjacency,
        deleted: Vec<bool>,
        entry: Option<u32>,
        live: usize,
    ) -> Self {
        Self {
            params,
            store,
            adj,
            deleted,
            entry,
            scratch: SearchScratch::default(),
            live,
            dist_comps: AtomicU64::new(0),
        }
    }

    /// Bulk-builds an index by sequential insertion (the construction order
    /// of the original algorithm; deterministic given the seed).
    pub fn build(dim: usize, params: HnswParams, vectors: &[Vec<f64>]) -> Self {
        let mut index = Self::new(dim, params);
        for v in vectors {
            index.insert(v);
        }
        index
    }

    /// Appends `vector` as a live node on layers `0..=level`, unlinked,
    /// returning its id.
    fn add_node(&mut self, vector: &[f64], level: usize) -> u32 {
        let id = self.store.push(vector);
        self.adj.add_node(level);
        self.deleted.push(false);
        self.live += 1;
        id
    }

    /// Number of live (non-deleted) vectors.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live vectors remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total slots including tombstones (ids are never reused).
    pub fn capacity_slots(&self) -> usize {
        self.deleted.len()
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.store.dim()
    }

    /// Construction/search parameters.
    pub fn params(&self) -> &HnswParams {
        &self.params
    }

    /// Underlying vector store (ciphertexts in the PP-ANNS deployment).
    pub fn store(&self) -> &VecStore {
        &self.store
    }

    /// Whether `id` has been deleted.
    pub fn is_deleted(&self, id: u32) -> bool {
        self.deleted[id as usize]
    }

    /// Distance computations performed so far by every search, insert and
    /// delete on this index. Per-search figures come from
    /// [`SearchScratch::dist_comps`] instead.
    pub fn distance_computations(&self) -> u64 {
        self.dist_comps.load(Ordering::Relaxed)
    }

    /// Resets the distance-computation counter.
    pub fn reset_distance_computations(&self) {
        self.dist_comps.store(0, Ordering::Relaxed);
    }

    /// Adds one finished operation's distance computations to the
    /// index-wide total.
    fn publish(&self, comps: u64) {
        self.dist_comps.fetch_add(comps, Ordering::Relaxed);
    }

    #[inline]
    fn dist(&self, a: &[f64], id: u32, comps: &mut u64) -> f64 {
        *comps += 1;
        squared_euclidean(a, self.store.get(id))
    }

    /// Batched counterpart of [`Self::dist`]: scores `query` against every
    /// id in `ids` with one kernel call, so the query stays resident in
    /// registers across a whole adjacency list. Per-id results are
    /// bit-identical to [`Self::dist`], and the counter advances by the
    /// same amount — batching is a pure execution-shape change. Each chunk's
    /// rows are prefetched before the kernel runs, so their first cache
    /// misses overlap instead of queueing behind one another.
    fn dist_many(&self, query: &[f64], ids: &[u32], out: &mut Vec<f64>, comps: &mut u64) {
        *comps += ids.len() as u64;
        out.clear();
        out.resize(ids.len(), 0.0);
        // Row pointers are staged in a fixed stack array so the warm path
        // never allocates; chunking is per-row exact (each output is the
        // same single-row kernel result regardless of batch grouping).
        const CHUNK: usize = 64;
        // Only a row's first 64-byte line is prefetched: the kernel then
        // walks the row in order, which the hardware streamer follows by
        // itself, while prefetching every line spends issue slots that an
        // in-cache build pays for nothing (~6% on a 5 000 × 96 build).
        const HEAD: usize = 64 / std::mem::size_of::<f64>();
        let empty: &[f64] = &[];
        let mut rows: [&[f64]; CHUNK] = [empty; CHUNK];
        for (id_chunk, out_chunk) in ids.chunks(CHUNK).zip(out.chunks_mut(CHUNK)) {
            for (slot, &id) in rows.iter_mut().zip(id_chunk) {
                let row = self.store.get(id);
                prefetch(&row[..row.len().min(HEAD)]);
                *slot = row;
            }
            squared_euclidean_many(query, &rows[..id_chunk.len()], out_chunk);
        }
    }

    /// The level of node `id`: HNSW's exponential decay `⌊−ln(u)·mL⌋`, with
    /// `u ∈ (0, 1]` drawn from a SplitMix64 mix of `(seed, id)` rather than
    /// a stateful generator. The graph is then a pure function of the
    /// parameters and the insert/delete history, so a restored, replayed or
    /// replicated index links later inserts exactly as the original does.
    fn level_of(&self, id: u32) -> usize {
        let mut z = self.params.seed ^ u64::from(id).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let u = ((z >> 11) + 1) as f64 / (1u64 << 53) as f64;
        (-u.ln() * self.params.ml()).floor() as usize
    }

    /// Greedy descent on one layer with beam width 1 (used above the
    /// insertion/search level). Each round scores the whole adjacency list
    /// with one batched call; keeping the first strict improvement in list
    /// order reproduces the sequential scan's choice exactly.
    fn greedy_closest(
        &self,
        scratch: &mut SearchScratch,
        query: &[f64],
        mut ep: u32,
        layer: usize,
    ) -> u32 {
        let SearchScratch { dists, dist_comps, .. } = scratch;
        let mut best = self.dist(query, ep, dist_comps);
        loop {
            let links = self.adj.links_at(ep, layer);
            if links.is_empty() {
                return ep;
            }
            self.dist_many(query, links, dists, dist_comps);
            let mut improved = false;
            for (&nb, &d) in links.iter().zip(dists.iter()) {
                if d < best {
                    best = d;
                    ep = nb;
                    improved = true;
                }
            }
            if !improved {
                return ep;
            }
        }
    }

    /// `SEARCH-LAYER` (Algorithm 2 of the HNSW paper): beam search with
    /// width `ef`, leaving up to `ef` closest elements in `scratch.out`,
    /// closest first. `include_deleted` lets construction route through
    /// tombstones so the graph stays connected after deletions. Every
    /// scratch buffer is reset up front, so the output is independent of
    /// whatever search used the scratch before (the pooling contract).
    fn search_layer(
        &self,
        scratch: &mut SearchScratch,
        query: &[f64],
        eps: &[u32],
        ef: usize,
        layer: usize,
        include_deleted: bool,
    ) {
        let SearchScratch { visited, candidates, results, fresh, dists, dist_comps, .. } =
            &mut *scratch;
        visited.reset(self.deleted.len());
        candidates.clear();
        results.clear();

        for &ep in eps {
            if !visited.insert(ep) {
                continue;
            }
            let d = self.dist(query, ep, dist_comps);
            let n = Neighbor { id: ep, dist: d };
            candidates.push(ClosestFirst(n));
            if include_deleted || !self.deleted[ep as usize] {
                results.push(FarthestFirst(n));
            }
        }
        while let Some(ClosestFirst(c)) = candidates.pop() {
            let worst = results.peek().map_or(f64::INFINITY, |f| f.0.dist);
            if c.dist > worst && results.len() >= ef {
                break;
            }
            // The likeliest next expansion is the new frontier head: start
            // loading its row while this one is scored. Upper layers read
            // their links from per-node lists, not the arena.
            if let (0, Some(next)) = (layer, candidates.peek()) {
                prefetch(self.adj.row(next.0.id));
            }
            // Batched expansion: score every unvisited neighbor of `c` in
            // one kernel call. The sequential loop also computed a distance
            // for each unvisited neighbor before its beam check, so the
            // work, the counter, and (per-row bit-identity) the results are
            // exactly those of per-neighbor calls.
            fresh.clear();
            fresh.extend(
                self.adj.links_at(c.id, layer).iter().copied().filter(|&nb| visited.insert(nb)),
            );
            if fresh.is_empty() {
                continue;
            }
            self.dist_many(query, fresh, dists, dist_comps);
            for (&nb, &d) in fresh.iter().zip(dists.iter()) {
                let worst = results.peek().map_or(f64::INFINITY, |f| f.0.dist);
                if results.len() < ef || d < worst {
                    candidates.push(ClosestFirst(Neighbor { id: nb, dist: d }));
                    if include_deleted || !self.deleted[nb as usize] {
                        results.push(FarthestFirst(Neighbor { id: nb, dist: d }));
                        if results.len() > ef {
                            results.pop();
                        }
                    }
                }
            }
        }
        // Draining the bounded max-heap yields ascending distance without a
        // sort (a stable sort would allocate its merge buffer on every query).
        scratch.drain_results_into_out();
    }

    /// `SELECT-NEIGHBORS-HEURISTIC` (Algorithm 4) for a list on `layer`:
    /// keeps candidates that are closer to the base point than to any
    /// already-selected neighbor, which preserves edge diversity and graph
    /// navigability. A layer-0 list is then back-filled with the pruned
    /// ones up to `m0` (the algorithm's `keepPrunedConnections`), nearest
    /// first except for the last slot, which takes the farthest. A full
    /// list is re-selected on every reverse link it receives, and a plain
    /// nearest-first back-fill drops its longest link each time: on
    /// clustered data, the one link into another cluster. Upper-layer
    /// lists are not back-filled, for the same reason. Candidate distances
    /// to the base point are already folded into `candidates`.
    fn select_neighbors(
        &self,
        candidates: &[Neighbor],
        layer: usize,
        comps: &mut u64,
    ) -> Vec<Neighbor> {
        let m = self.params.max_degree(layer);
        let mut work: Vec<Neighbor> = candidates.to_vec();
        work.sort_by(|a, b| a.dist.partial_cmp(&b.dist).unwrap());
        let mut selected: Vec<Neighbor> = Vec::with_capacity(m);
        let mut pruned: Vec<Neighbor> = Vec::new();
        for cand in work {
            if selected.len() >= m {
                break;
            }
            let cand_vec = self.store.get(cand.id);
            let diverse = selected.iter().all(|s| {
                *comps += 1;
                squared_euclidean(cand_vec, self.store.get(s.id)) > cand.dist
            });
            if diverse {
                selected.push(cand);
            } else if layer == 0 {
                pruned.push(cand);
            }
        }
        let mut pruned = pruned.into_iter();
        while selected.len() + 1 < m {
            let Some(p) = pruned.next() else { break };
            selected.push(p);
        }
        if selected.len() < m {
            selected.extend(pruned.next_back());
        }
        selected
    }

    /// Inserts a vector, returning its id (Algorithm 1 of the HNSW paper).
    pub fn insert(&mut self, vector: &[f64]) -> u32 {
        let level = self.level_of(self.deleted.len() as u32);
        let id = self.add_node(vector, level);

        let Some(entry) = self.entry else {
            self.entry = Some(id);
            return id;
        };
        let top_level = self.adj.level(entry);
        // Stage the just-pushed vector in the reusable scratch buffer (the
        // store cannot stay borrowed across the wiring mutations below).
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut base = std::mem::take(&mut scratch.base);
        base.clear();
        base.extend_from_slice(self.store.get(id));
        scratch.dist_comps = 0;

        // Phase 1: greedy descent through layers above the node's level.
        let mut ep = entry;
        for layer in ((level + 1)..=top_level).rev() {
            ep = self.greedy_closest(&mut scratch, &base, ep, layer);
        }

        // Phase 2: beam search + bidirectional wiring on each shared layer.
        let mut eps = vec![ep];
        for layer in (0..=level.min(top_level)).rev() {
            self.search_layer(&mut scratch, &base, &eps, self.params.ef_construction, layer, true);
            let chosen = self.select_neighbors(&scratch.out, layer, &mut scratch.dist_comps);
            // Entry points for the next layer come from this layer's beam;
            // extract them before the wiring below reuses the scratch.
            eps.clear();
            eps.extend(scratch.out.iter().map(|n| n.id));
            if eps.is_empty() {
                eps.push(ep);
            }
            for nb in &chosen {
                self.adj.push_link(id, layer, nb.id);
                self.adj.push_link(nb.id, layer, id);
                self.shrink_if_needed(&mut scratch, nb.id, layer);
            }
        }
        self.publish(scratch.dist_comps);
        scratch.base = base;
        self.scratch = scratch;

        if level > top_level {
            self.entry = Some(id);
        }
        id
    }

    /// Re-runs neighbor selection on `node`'s list at `layer` if it exceeds
    /// the degree bound (by the one link the layer-0 row's spare slot holds).
    /// Scores into the insert's checked-out `scratch`: every borrow until
    /// the final `set_links` is shared, so the stored row is read in place.
    fn shrink_if_needed(&mut self, scratch: &mut SearchScratch, node: u32, layer: usize) {
        let m = self.params.max_degree(layer);
        let links = self.adj.links_at(node, layer);
        if links.len() <= m {
            return;
        }
        let SearchScratch { dists, dist_comps, .. } = scratch;
        self.dist_many(self.store.get(node), links, dists, dist_comps);
        let cands: Vec<Neighbor> =
            links.iter().zip(dists.iter()).map(|(&nb, &d)| Neighbor { id: nb, dist: d }).collect();
        let chosen = self.select_neighbors(&cands, layer, dist_comps);
        self.adj.set_links(node, layer, chosen.into_iter().map(|n| n.id));
    }

    /// k-ANN search (Algorithm 5): returns up to `k` live neighbors,
    /// closest first, exploring with beam width `ef ≥ k`.
    ///
    /// Borrows this thread's pooled [`SearchScratch`], so on a warm thread
    /// the only heap allocation is the returned `Vec` itself. Results are
    /// bitwise identical to [`Self::search_in`] with any scratch.
    pub fn search(&self, query: &[f64], k: usize, ef: usize) -> Vec<Neighbor> {
        ScratchPool::with(|scratch| self.search_in(scratch, query, k, ef).to_vec())
    }

    /// Allocation-free search: results are left in (and borrowed from)
    /// `scratch.out`. A warm scratch — one whose buffers already fit this
    /// graph and beam width — performs **zero** heap allocations here, and
    /// the output is bitwise identical regardless of the scratch's history
    /// (see [`SearchScratch`] and DESIGN.md §6 for the determinism contract).
    /// The search's distance computations are left in
    /// [`SearchScratch::dist_comps`] and added once to
    /// [`Self::distance_computations`].
    pub fn search_in<'s>(
        &self,
        scratch: &'s mut SearchScratch,
        query: &[f64],
        k: usize,
        ef: usize,
    ) -> &'s [Neighbor] {
        scratch.dist_comps = 0;
        let Some(entry) = self.entry else {
            scratch.out.clear();
            return &scratch.out;
        };
        assert_eq!(query.len(), self.dim(), "search: query dimension mismatch");
        let ef = ef.max(k);
        let mut ep = entry;
        for layer in (1..=self.adj.level(entry)).rev() {
            ep = self.greedy_closest(scratch, query, ep, layer);
        }
        self.search_layer(scratch, query, &[ep], ef, 0, false);
        scratch.out.truncate(k);
        self.publish(scratch.dist_comps);
        &scratch.out
    }

    /// Deletes a vector (paper Section V-D): tombstones the node and
    /// repairs every in-neighbor `v` on every layer `l` it links from —
    /// out-neighbors are unaffected, as the paper notes. Runs entirely
    /// server-side (no data-owner involvement).
    ///
    /// The repair is local (DESIGN.md §3, S8): `v`'s new list is
    /// `select_neighbors` over `v`'s surviving links followed by the
    /// deleted node's links on `l`, less tombstones, `v` itself and
    /// repeats. That pool is at most `2·m0` ids, scored with one batched
    /// call, where re-inserting `v` (the paper's wording) would run an
    /// `ef_construction` beam over the whole graph.
    ///
    /// # Panics
    /// Panics if `id` is out of range or already deleted.
    pub fn delete(&mut self, id: u32) {
        assert!((id as usize) < self.deleted.len(), "delete: id out of range");
        assert!(!self.deleted[id as usize], "delete: node already deleted");
        self.deleted[id as usize] = true;
        self.live -= 1;

        // Collect in-neighbors per layer before mutating.
        let max_layer = self.adj.level(id);
        let mut in_neighbors: Vec<Vec<u32>> = vec![Vec::new(); max_layer + 1];
        for other in self.live_ids() {
            let shared = self.adj.level(other).min(max_layer) + 1;
            for (layer, list) in in_neighbors.iter_mut().enumerate().take(shared) {
                if self.adj.links_at(other, layer).contains(&id) {
                    list.push(other);
                }
            }
        }

        // Move the entry point off the tombstone.
        if self.entry == Some(id) {
            self.entry = self.live_ids().max_by_key(|&i| self.adj.level(i));
        }

        // Repair each in-neighbor from its 2-hop neighborhood through the
        // tombstone; the tombstone's own lists are read here, then cleared.
        let mut scratch = std::mem::take(&mut self.scratch);
        let SearchScratch { fresh: pool, dists, out: cands, dist_comps, .. } = &mut scratch;
        *dist_comps = 0;
        for (layer, vs) in in_neighbors.iter().enumerate() {
            for &v in vs {
                pool.clear();
                let around = self.adj.links_at(v, layer).iter().chain(self.adj.links_at(id, layer));
                for &c in around {
                    if c != v && !self.deleted[c as usize] && !pool.contains(&c) {
                        pool.push(c);
                    }
                }
                self.dist_many(self.store.get(v), pool, dists, dist_comps);
                cands.clear();
                cands.extend(
                    pool.iter().zip(dists.iter()).map(|(&nb, &d)| Neighbor { id: nb, dist: d }),
                );
                let chosen = self.select_neighbors(cands, layer, dist_comps);
                self.adj.set_links(v, layer, chosen.into_iter().map(|n| n.id));
            }
        }
        for layer in 0..=max_layer {
            self.adj.set_links(id, layer, []);
        }
        self.publish(scratch.dist_comps);
        self.scratch = scratch;
    }

    /// Iterator over live node ids.
    pub fn live_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.deleted.iter().enumerate().filter(|(_, &d)| !d).map(|(i, _)| i as u32)
    }

    /// Graph introspection for tests and serialization: the neighbor list of
    /// `id` at `layer`.
    ///
    /// # Panics
    /// Panics if `layer` exceeds [`Self::node_level`] of `id`.
    pub fn links(&self, id: u32, layer: usize) -> &[u32] {
        self.adj.links_at(id, layer)
    }

    /// The level of node `id`.
    pub fn node_level(&self, id: u32) -> usize {
        self.adj.level(id)
    }

    /// The current entry point, if any.
    pub fn entry_point(&self) -> Option<u32> {
        self.entry
    }
}

impl std::fmt::Debug for Hnsw {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hnsw")
            .field("dim", &self.dim())
            .field("live", &self.live)
            .field("slots", &self.deleted.len())
            .field("entry", &self.entry)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce::exact_knn;
    use ppann_linalg::{seeded_rng, uniform_vec};
    use proptest::prelude::*;
    use rand::Rng;

    fn clustered(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = seeded_rng(seed);
        let centers: Vec<Vec<f64>> =
            (0..8).map(|_| uniform_vec(&mut rng, dim, -1.0, 1.0)).collect();
        (0..n)
            .map(|_| {
                let c = &centers[rng.gen_range(0..centers.len())];
                c.iter().map(|x| x + rng.gen_range(-0.1..0.1)).collect()
            })
            .collect()
    }

    #[test]
    fn empty_index_returns_nothing() {
        let index = Hnsw::new(4, HnswParams::default());
        assert!(index.search(&[0.0; 4], 5, 10).is_empty());
        assert!(index.is_empty());
    }

    #[test]
    fn single_point() {
        let mut index = Hnsw::new(2, HnswParams::default());
        index.insert(&[1.0, 1.0]);
        let hits = index.search(&[0.0, 0.0], 3, 10);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, 0);
        assert!((hits[0].dist - 2.0).abs() < 1e-12);
    }

    #[test]
    fn exact_on_tiny_sets() {
        let pts = clustered(50, 4, 7);
        let index = Hnsw::build(4, HnswParams::default(), &pts);
        let store = index.store().clone();
        for q in clustered(10, 4, 8) {
            let hits = index.search(&q, 5, 50);
            let truth = exact_knn(&store, &q, 5);
            let hit_ids: Vec<u32> = hits.iter().map(|h| h.id).collect();
            let truth_ids: Vec<u32> = truth.iter().map(|h| h.id).collect();
            assert_eq!(hit_ids, truth_ids);
        }
    }

    #[test]
    fn recall_on_clustered_data() {
        let pts = clustered(2000, 16, 9);
        let index = Hnsw::build(16, HnswParams::default(), &pts);
        let queries = clustered(50, 16, 10);
        let mut hit = 0usize;
        let mut total = 0usize;
        for q in &queries {
            let truth: Vec<u32> = exact_knn(index.store(), q, 10).iter().map(|n| n.id).collect();
            let got: Vec<u32> = index.search(q, 10, 100).iter().map(|n| n.id).collect();
            total += truth.len();
            hit += truth.iter().filter(|t| got.contains(t)).count();
        }
        let recall = hit as f64 / total as f64;
        assert!(recall > 0.95, "recall {recall} too low");
    }

    #[test]
    fn degree_bounds_respected() {
        let pts = clustered(500, 8, 11);
        let index = Hnsw::build(8, HnswParams::default(), &pts);
        for id in index.live_ids() {
            for layer in 0..=index.node_level(id) {
                let deg = index.links(id, layer).len();
                assert!(
                    deg <= index.params().max_degree(layer),
                    "node {id} layer {layer} degree {deg}"
                );
            }
        }
    }

    #[test]
    fn construction_is_deterministic() {
        let pts = clustered(300, 8, 12);
        let a = Hnsw::build(8, HnswParams::default(), &pts);
        let b = Hnsw::build(8, HnswParams::default(), &pts);
        let q = &pts[0];
        let ha: Vec<u32> = a.search(q, 10, 50).iter().map(|n| n.id).collect();
        let hb: Vec<u32> = b.search(q, 10, 50).iter().map(|n| n.id).collect();
        assert_eq!(ha, hb);
    }

    #[test]
    fn deleted_nodes_vanish_from_results() {
        let pts = clustered(200, 8, 13);
        let mut index = Hnsw::build(8, HnswParams::default(), &pts);
        let q = pts[0].clone();
        let first = index.search(&q, 1, 30)[0].id;
        index.delete(first);
        assert!(index.is_deleted(first));
        let hits = index.search(&q, 10, 60);
        assert!(hits.iter().all(|h| h.id != first));
        assert_eq!(index.len(), 199);
    }

    #[test]
    fn heavy_deletion_keeps_index_usable() {
        let pts = clustered(300, 8, 14);
        let mut index = Hnsw::build(8, HnswParams::default(), &pts);
        for id in 0..100u32 {
            index.delete(id);
        }
        assert_eq!(index.len(), 200);
        // Recall against brute force over the survivors.
        let q = pts[150].clone();
        let got: Vec<u32> = index.search(&q, 5, 80).iter().map(|n| n.id).collect();
        assert!(!got.is_empty());
        assert!(got.iter().all(|&id| id >= 100));
        assert!(got.contains(&150));
    }

    #[test]
    fn insert_after_delete_works() {
        let pts = clustered(100, 4, 15);
        let mut index = Hnsw::build(4, HnswParams::default(), &pts);
        index.delete(0);
        let new_id = index.insert(&[9.0, 9.0, 9.0, 9.0]);
        let hits = index.search(&[9.0, 9.0, 9.0, 9.0], 1, 20);
        assert_eq!(hits[0].id, new_id);
    }

    #[test]
    fn distance_counter_moves() {
        let pts = clustered(200, 8, 16);
        let index = Hnsw::build(8, HnswParams::default(), &pts);
        index.reset_distance_computations();
        index.search(&pts[0], 10, 50);
        assert!(index.distance_computations() > 0);
    }

    #[test]
    fn levels_follow_the_hnsw_law() {
        // P(level ≥ l) = m^(−l) for ⌊−ln(u)·mL⌋ with mL = 1/ln(m). Over
        // 100 000 ids each count must sit within 4 binomial standard
        // deviations (plus one for rounding) of its expectation.
        const N: u32 = 100_000;
        let index = Hnsw::new(1, HnswParams::default());
        let m = index.params().m as f64;
        let levels: Vec<usize> = (0..N).map(|id| index.level_of(id)).collect();
        for l in 1..=3 {
            let p = m.powi(-l);
            let want = f64::from(N) * p;
            let tol = 4.0 * (want * (1.0 - p)).sqrt() + 1.0;
            let got = levels.iter().filter(|&&lv| lv >= l as usize).count() as f64;
            assert!((got - want).abs() <= tol, "level ≥ {l}: {got} ids, want {want:.1} ± {tol:.1}");
        }
        // The seed is an input: another seed draws other levels.
        let other = Hnsw::new(1, HnswParams { seed: 1, ..HnswParams::default() });
        assert!((0..1000).any(|id| other.level_of(id) != levels[id as usize]));
    }

    #[test]
    fn entry_point_survives_deletion() {
        let pts = clustered(50, 4, 17);
        let mut index = Hnsw::build(4, HnswParams::default(), &pts);
        let ep = index.entry_point().unwrap();
        index.delete(ep);
        assert_ne!(index.entry_point(), Some(ep));
        assert!(!index.search(&pts[5], 3, 20).is_empty());
    }

    /// The delete rule of [`Hnsw::delete`] written the plain way: the
    /// in-neighbors of each layer by scanning every slot, each pool by
    /// concatenating, filtering and deduplicating `Vec`s, each candidate
    /// scored on its own.
    fn reference_delete(index: &mut Hnsw, id: u32) {
        index.deleted[id as usize] = true;
        index.live -= 1;
        if index.entry == Some(id) {
            index.entry = index.live_ids().max_by_key(|&i| index.adj.level(i));
        }
        let mut comps = 0;
        for layer in 0..=index.adj.level(id) {
            let orphans = index.links(id, layer).to_vec();
            let in_neighbors: Vec<u32> = (0..index.capacity_slots() as u32)
                .filter(|&v| !index.is_deleted(v) && index.node_level(v) >= layer)
                .filter(|&v| index.links(v, layer).contains(&id))
                .collect();
            for v in in_neighbors {
                let mut pool = [index.links(v, layer), &orphans[..]].concat();
                pool.retain(|&c| c != v && !index.is_deleted(c));
                let mut unique: Vec<u32> = Vec::new();
                for c in pool {
                    if !unique.contains(&c) {
                        unique.push(c);
                    }
                }
                let base = index.store.get(v);
                let cands: Vec<Neighbor> = unique
                    .iter()
                    .map(|&c| Neighbor { id: c, dist: squared_euclidean(base, index.store.get(c)) })
                    .collect();
                let chosen = index.select_neighbors(&cands, layer, &mut comps);
                index.adj.set_links(v, layer, chosen.into_iter().map(|n| n.id));
            }
            index.adj.set_links(id, layer, []);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Over random insert/delete histories, the index whose deletes run
        /// [`reference_delete`] serializes to the same bytes after every
        /// operation as the one whose deletes run [`Hnsw::delete`].
        #[test]
        fn delete_matches_the_reference_rule(
            m in 2usize..8,
            seed in any::<u64>(),
            d in 1usize..5,
            kinds in proptest::collection::vec(0u8..3, 1..120),
            picks in proptest::collection::vec(any::<usize>(), 120),
            data in proptest::collection::vec(-1.0f64..1.0, 120 * 5),
        ) {
            let params = HnswParams { m, m0: 2 * m, ef_construction: 32, seed };
            let (mut real, mut reference) = (Hnsw::new(d, params), Hnsw::new(d, params));
            // Op `i` inserts point `i`, or (one time in three) deletes the
            // live id its pick selects.
            for (i, &kind) in kinds.iter().enumerate() {
                if kind == 0 && !real.is_empty() {
                    let victim = real.live_ids().nth(picks[i] % real.len()).unwrap();
                    real.delete(victim);
                    reference_delete(&mut reference, victim);
                } else {
                    let point = &data[i * d..(i + 1) * d];
                    prop_assert_eq!(real.insert(point), reference.insert(point));
                }
                prop_assert_eq!(real.to_bytes(), reference.to_bytes(), "diverged at op {}", i);
            }
        }
    }
}
