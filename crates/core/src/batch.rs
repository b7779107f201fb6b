//! Batched and multi-threaded query execution.
//!
//! The paper measures single-threaded search; a production deployment
//! amortizes across cores. [`BatchExecutor`] fans a query batch out over a
//! [`Collection`] with scoped worker threads, each query taking the
//! collection's shared lock on its own, preserving result order and
//! aggregating costs — the engine behind the service's `SearchBatch` frame
//! and the `throughput_scaling` benchmark (an extension experiment, not a
//! paper figure).

use crate::catalog::Collection;
use crate::cost::QueryCost;
use crate::query::EncryptedQuery;
use crate::scratch::QueryScratch;
use crate::server::{SearchOutcome, SearchParams};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Aggregated result of a batch run.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Per-query outcomes, in input order.
    pub outcomes: Vec<SearchOutcome>,
    /// Sum of all per-query costs.
    pub total_cost: QueryCost,
    /// Wall-clock time for the whole batch.
    pub wall_time: std::time::Duration,
    /// Worker threads used.
    pub threads: usize,
}

impl BatchOutcome {
    /// Aggregate throughput (queries per second of wall time).
    pub fn qps(&self) -> f64 {
        self.outcomes.len() as f64 / self.wall_time.as_secs_f64().max(1e-12)
    }
}

/// Runs query batches against one collection with a fixed worker count.
pub struct BatchExecutor {
    collection: Arc<Collection>,
    threads: usize,
}

impl BatchExecutor {
    /// Creates an executor with `threads` workers (clamped to ≥ 1).
    pub fn new(collection: Arc<Collection>, threads: usize) -> Self {
        Self { collection, threads: threads.max(1) }
    }

    /// Executes all queries, work-stealing over an atomic cursor so skewed
    /// per-query latencies cannot idle a worker.
    ///
    /// The fan-out width is clamped to the batch size — a two-query batch
    /// on an eight-thread executor spawns two workers, not eight — and a
    /// single effective worker runs inline on the calling thread, so small
    /// batches (the common case on the network path, where every
    /// `SearchBatch` frame lands here) never pay thread-spawn overhead.
    pub fn run(&self, queries: &[EncryptedQuery], params: &SearchParams) -> BatchOutcome {
        self.run_in(&mut QueryScratch::default(), queries, params)
    }

    /// [`Self::run`] with a caller-owned scratch for the inline
    /// single-worker case: a service worker passes its warm buffers, so a
    /// one-thread batch allocates like a plain search. Spawned workers
    /// start from fresh scratch.
    pub fn run_in(
        &self,
        scratch: &mut QueryScratch,
        queries: &[EncryptedQuery],
        params: &SearchParams,
    ) -> BatchOutcome {
        let started = std::time::Instant::now();
        let n = queries.len();
        let threads = self.threads.min(n.max(1));
        if threads == 1 {
            let outcomes: Vec<SearchOutcome> =
                queries.iter().map(|q| self.collection.search_in(scratch, q, params)).collect();
            return Self::finish(outcomes, started, 1);
        }
        let mut slots: Vec<Option<SearchOutcome>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        let cursor = AtomicUsize::new(0);

        // Workers steal indices from a shared cursor, collect results
        // locally, and the merge below restores input order.
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(threads);
            for _ in 0..threads {
                let collection = &*self.collection;
                let cursor = &cursor;
                handles.push(scope.spawn(move || {
                    let mut scratch = QueryScratch::default();
                    let mut local: Vec<(usize, SearchOutcome)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, collection.search_in(&mut scratch, &queries[i], params)));
                    }
                    local
                }));
            }
            for h in handles {
                let local = h.join().expect("batch worker panicked");
                for (i, out) in local {
                    slots[i] = Some(out);
                }
            }
        });

        let outcomes: Vec<SearchOutcome> =
            slots.into_iter().map(|s| s.expect("every slot filled")).collect();
        Self::finish(outcomes, started, threads)
    }

    fn finish(
        outcomes: Vec<SearchOutcome>,
        started: std::time::Instant,
        threads: usize,
    ) -> BatchOutcome {
        let mut total_cost = QueryCost::default();
        for o in &outcomes {
            total_cost.absorb(&o.cost);
        }
        BatchOutcome { outcomes, total_cost, wall_time: started.elapsed(), threads }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::owner::{DataOwner, PpAnnParams};
    use ppann_linalg::{seeded_rng, uniform_vec};

    fn collection(
        n: usize,
        dim: usize,
        beta: f64,
        seed: u64,
    ) -> (Vec<Vec<f64>>, DataOwner, Arc<Collection>) {
        let mut rng = seeded_rng(seed);
        let data: Vec<Vec<f64>> = (0..n).map(|_| uniform_vec(&mut rng, dim, -1.0, 1.0)).collect();
        let owner = DataOwner::setup(PpAnnParams::new(dim).with_beta(beta).with_seed(seed), &data);
        let coll = Catalog::new().create("batch", owner.outsource(&data)).unwrap();
        (data, owner, coll)
    }

    #[test]
    fn batch_matches_sequential_results() {
        let (data, owner, coll) = collection(400, 6, 0.5, 511);
        let mut user = owner.authorize_user();
        let queries: Vec<_> = (0..24).map(|i| user.encrypt_query(&data[i], 5)).collect();
        let params = SearchParams::from_ratio(5, 8, 60);

        let sequential: Vec<Vec<u32>> =
            queries.iter().map(|q| coll.search(q, &params).ids).collect();
        let exec = BatchExecutor::new(coll, 4);
        let batch = exec.run(&queries, &params);
        assert_eq!(batch.outcomes.len(), 24);
        assert_eq!(batch.threads, 4);
        for (seq, out) in sequential.iter().zip(&batch.outcomes) {
            assert_eq!(seq, &out.ids, "order or content drift under threading");
        }
        assert!(batch.qps() > 0.0);
        assert!(batch.total_cost.refine_sdc_comps > 0);
    }

    #[test]
    fn fan_out_clamps_to_batch_size() {
        let (data, owner, coll) = collection(120, 4, 1.0, 513);
        let mut user = owner.authorize_user();
        let queries: Vec<_> = (0..2).map(|i| user.encrypt_query(&data[i], 3)).collect();
        let exec = BatchExecutor::new(Arc::clone(&coll), 8);
        let batch = exec.run(&queries, &SearchParams::from_ratio(3, 8, 40));
        assert_eq!(batch.threads, 2, "two queries must not spawn eight workers");
        // A one-query batch runs inline on the calling thread.
        let single = exec.run(&queries[..1], &SearchParams::from_ratio(3, 8, 40));
        assert_eq!(single.threads, 1);
        assert_eq!(
            single.outcomes[0].ids,
            coll.search(&queries[0], &SearchParams::from_ratio(3, 8, 40)).ids
        );
    }

    #[test]
    fn empty_batch() {
        let (_, _, coll) = collection(1, 2, 1.0, 4);
        let exec = BatchExecutor::new(coll, 3);
        let out = exec.run(&[], &SearchParams::from_ratio(1, 1, 10));
        assert!(out.outcomes.is_empty());
    }

    /// Work-stealing with more workers than queries, and with heavily
    /// skewed per-query cost (k varies), must still fill every slot in
    /// input order.
    #[test]
    fn batch_ordering_survives_worker_skew() {
        let (data, owner, coll) = collection(300, 6, 0.5, 4454);
        let mut user = owner.authorize_user();
        let params = SearchParams { k_prime: 40, ef_search: 80 };

        // Skew: query i asks for k = 1..=12, so per-query refine cost varies.
        let queries: Vec<_> =
            (0..12).map(|i| user.encrypt_query(&data[i * 5], 1 + (i % 12))).collect();
        let sequential: Vec<Vec<u32>> =
            queries.iter().map(|q| coll.search(q, &params).ids).collect();

        for threads in [1usize, 3, 16, 64] {
            let exec = BatchExecutor::new(Arc::clone(&coll), threads);
            let batch = exec.run(&queries, &params);
            // The fan-out clamps to the batch size: 64 configured workers
            // on a 12-query batch spawn 12 threads.
            assert_eq!(batch.threads, threads.clamp(1, queries.len()));
            let got: Vec<Vec<u32>> = batch.outcomes.iter().map(|o| o.ids.clone()).collect();
            assert_eq!(got, sequential, "{threads} workers reordered results");
            // Costs aggregate across exactly the same work.
            assert_eq!(
                batch.total_cost.refine_sdc_comps,
                batch.outcomes.iter().map(|o| o.cost.refine_sdc_comps).sum::<u64>()
            );
        }
    }
}
