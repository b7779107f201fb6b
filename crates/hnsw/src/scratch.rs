//! Pooled per-thread search scratch.
//!
//! Every beam search marks a visited table, grows two beam heaps and a
//! handful of expansion buffers. Allocating those per query puts the
//! allocator on the hottest path in the system — and zeroing a fresh
//! visited table costs O(n) where the generation-stamped reuse costs O(1)
//! (see [`crate::visited`]). [`SearchScratch`] owns the whole working set
//! so a warm search performs **zero** heap allocations; [`ScratchPool`]
//! keeps warm instances per thread for callers that do not hold their own.
//!
//! ## Determinism contract
//!
//! Pooling may never change results: a search through a dirty, previously
//! used scratch returns *bitwise identical* output (same ids, same order,
//! same `f64` distance bits) as the same search through a fresh
//! `SearchScratch::default()`. Every buffer is either generation-stamped
//! (the visited table) or fully overwritten/cleared before use, and the
//! property is enforced by the `scratch_parity` proptest. DESIGN.md §6
//! documents the contract.

use crate::graph::{ClosestFirst, FarthestFirst, Neighbor};
use crate::visited::VisitedTable;
use std::cell::RefCell;
use std::collections::BinaryHeap;

/// Reusable search working set: a visited table, beam heaps, expansion
/// buffers and a staging buffer for base vectors. One instance serves any
/// number of searches against any number of indexes (tables and buffers
/// grow to the largest graph seen and stay there).
#[derive(Default)]
pub struct SearchScratch {
    /// Generation-stamped visited marks (O(1) reset between searches).
    pub(crate) visited: VisitedTable,
    /// Beam frontier, closest first.
    pub(crate) candidates: BinaryHeap<ClosestFirst>,
    /// Running result set, farthest first (bounded to `ef`).
    pub(crate) results: BinaryHeap<FarthestFirst>,
    /// Unvisited neighbors of the node being expanded.
    pub(crate) fresh: Vec<u32>,
    /// Batched distances for `fresh` (also greedy-descent rows).
    pub(crate) dists: Vec<f64>,
    /// The search output, closest first — what `search_in` borrows out.
    pub(crate) out: Vec<Neighbor>,
    /// Staging copy of a stored base vector (insert/delete paths
    /// read a vector they are about to search for; the store cannot be
    /// borrowed across the mutation, so the bytes are staged here).
    pub(crate) base: Vec<f64>,
    /// Distance computations of the last search run through this scratch
    /// (reset at its start). Counting here rather than in the index keeps
    /// the per-search figure exact when many threads search one index.
    pub(crate) dist_comps: u64,
}

impl SearchScratch {
    /// Distance computations performed by the last search through this
    /// scratch — the paper's filter-phase cost unit, exact per query
    /// whatever else runs against the same index.
    pub fn dist_comps(&self) -> u64 {
        self.dist_comps
    }

    /// Approximate resident heap bytes across every buffer — what the
    /// service's `scratch_bytes` gauge aggregates per worker. The model
    /// (DESIGN.md §6): `marks(n)` for the stamp table plus `ef`-bounded
    /// beam and expansion buffers, so
    /// `resident ≈ marks(n)·4 + ef·(16 + 16 + 16) + degree·(4 + 8)`.
    pub fn resident_bytes(&self) -> usize {
        self.visited.resident_bytes()
            + self.candidates.capacity() * std::mem::size_of::<ClosestFirst>()
            + self.results.capacity() * std::mem::size_of::<FarthestFirst>()
            + self.fresh.capacity() * std::mem::size_of::<u32>()
            + self.dists.capacity() * std::mem::size_of::<f64>()
            + self.out.capacity() * std::mem::size_of::<Neighbor>()
            + self.base.capacity() * std::mem::size_of::<f64>()
    }

    /// Drains `results` into `out`, closest first (heap pop yields
    /// farthest first; the reverse restores ascending distance order).
    /// Deterministic: the pop order is a pure function of the insertion
    /// sequence, never of the buffers' history.
    pub(crate) fn drain_results_into_out(&mut self) {
        self.out.clear();
        while let Some(FarthestFirst(nb)) = self.results.pop() {
            self.out.push(nb);
        }
        self.out.reverse();
    }
}

/// Retained warm instances per thread. Deeper nesting than this allocates
/// a fresh scratch and drops it on release — re-entrant callers stay
/// correct, they just stop amortizing.
const POOL_DEPTH: usize = 8;

thread_local! {
    static POOL: RefCell<Vec<SearchScratch>> = const { RefCell::new(Vec::new()) };
}

/// A per-thread freelist of [`SearchScratch`] instances.
///
/// [`crate::Hnsw::search`] (and the brute-force scanner) borrow a
/// scratch from here and return it afterwards, so even callers that never
/// heard of scratch reuse get allocation-free warm searches on a steady
/// thread. `thread_local!` storage makes check-out/check-in free of
/// synchronization and immune to the ABA hazards a shared lock-free
/// freelist would have to defend against; the cost is one warm scratch
/// per searching thread (`workers × resident_bytes`, OPERATIONS.md §2).
pub struct ScratchPool;

impl ScratchPool {
    /// Runs `f` with this thread's pooled scratch (allocating one only on
    /// the thread's first use, or when nested past `POOL_DEPTH`).
    pub fn with<R>(f: impl FnOnce(&mut SearchScratch) -> R) -> R {
        let mut scratch = POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default();
        let r = f(&mut scratch);
        POOL.with(|p| {
            let mut p = p.borrow_mut();
            if p.len() < POOL_DEPTH {
                p.push(scratch);
            }
        });
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_reuses_instances() {
        // Grow a buffer inside the pooled scratch, then observe the same
        // capacity on the next checkout: the instance was retained.
        let grown = ScratchPool::with(|s| {
            s.out.reserve(1024);
            s.out.capacity()
        });
        let seen = ScratchPool::with(|s| s.out.capacity());
        assert!(seen >= grown, "pooled scratch was not reused ({seen} < {grown})");
    }

    #[test]
    fn nested_checkouts_are_distinct() {
        ScratchPool::with(|outer| {
            outer.fresh.push(7);
            ScratchPool::with(|inner| {
                assert!(inner.fresh.is_empty(), "nested checkout aliased the outer scratch");
            });
            assert_eq!(outer.fresh, vec![7]);
        });
    }

    #[test]
    fn resident_bytes_tracks_growth() {
        let mut s = SearchScratch::default();
        let before = s.resident_bytes();
        s.dists.reserve(4096);
        assert!(s.resident_bytes() >= before + 4096 * 8);
    }
}
