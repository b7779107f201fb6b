//! Reusable per-query working set for the filter-and-refine pipeline.
//!
//! [`QueryScratch`] bundles everything [`crate::CloudServer::search_in`]
//! needs to answer one `Search` without touching the allocator on the warm
//! path: the HNSW filter scratch, the refine phase's candidate-id staging
//! buffer, and the [`crate::SecureTopK`] heap storage. Long-lived owners —
//! reactor workers, batch-executor threads — hold one across requests;
//! [`QueryScratchPool`] covers everyone else with a per-thread freelist.
//! The determinism contract from `ppann-hnsw` extends here: a search
//! through dirty scratch is bitwise identical to one through
//! `QueryScratch::default()` (DESIGN.md §6).

use ppann_hnsw::SearchScratch;
use std::cell::RefCell;

/// Scratch for one in-flight query.
#[derive(Default)]
pub struct QueryScratch {
    /// Filter-phase scratch.
    pub(crate) hnsw: SearchScratch,
    /// Refine-phase candidate ids offered to the secure top-k heap.
    pub(crate) cand_ids: Vec<u32>,
    /// Recycled [`crate::SecureTopK`] heap storage.
    pub(crate) topk: Vec<u32>,
}

impl QueryScratch {
    /// Approximate resident heap bytes across every buffer — the per-worker
    /// contribution behind the service's `scratch_bytes` gauge.
    pub fn resident_bytes(&self) -> usize {
        self.hnsw.resident_bytes()
            + self.cand_ids.capacity() * std::mem::size_of::<u32>()
            + self.topk.capacity() * std::mem::size_of::<u32>()
    }
}

/// Retained warm instances per thread (see `ScratchPool` in `ppann-hnsw`
/// for the rationale; nesting deeper falls back to a fresh allocation).
const POOL_DEPTH: usize = 8;

thread_local! {
    static POOL: RefCell<Vec<QueryScratch>> = const { RefCell::new(Vec::new()) };
}

/// Per-thread freelist of [`QueryScratch`] instances, backing the
/// scratch-less [`crate::CloudServer::search`] entry point.
pub struct QueryScratchPool;

impl QueryScratchPool {
    /// Runs `f` with this thread's pooled scratch.
    pub fn with<R>(f: impl FnOnce(&mut QueryScratch) -> R) -> R {
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
        let grown = QueryScratchPool::with(|s| {
            s.cand_ids.reserve(512);
            s.cand_ids.capacity()
        });
        let seen = QueryScratchPool::with(|s| s.cand_ids.capacity());
        assert!(seen >= grown, "pooled scratch was not reused ({seen} < {grown})");
    }

    #[test]
    fn resident_bytes_counts_all_buffers() {
        let mut s = QueryScratch::default();
        let before = s.resident_bytes();
        s.cand_ids.reserve(128);
        s.topk.reserve(128);
        assert!(s.resident_bytes() >= before + 128 * 4 + 128 * 4);
    }
}
