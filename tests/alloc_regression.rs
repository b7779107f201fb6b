//! Allocation regression gate for the steady-state query path.
//!
//! The zero-allocation claim (DESIGN.md §6): once a worker's pooled
//! scratch is warm, the HNSW filter phase performs **zero** heap
//! allocations per query, and a whole in-process `CloudServer::search`
//! allocates only the result buffers it hands back. This test enforces
//! the claim with a counting global allocator — if someone reintroduces a
//! per-query `Vec::new` on the hot path, the budget here catches it long
//! before a profiler would.
//!
//! All phases live in ONE `#[test]` so the harness cannot run another
//! test's allocations concurrently into the global counter.

use ppanns::core::{CloudServer, DataOwner, PpAnnParams, SearchParams};
use ppanns::hnsw::{Hnsw, HnswParams, SearchScratch};
use ppanns::linalg::{seeded_rng, uniform_vec};
use ppanns::service::{serve, ServiceClient, ServiceConfig};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{counted, CountingAlloc};

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

#[test]
fn warm_query_path_allocation_budgets() {
    let dim = 8;
    let k = 5;
    let ef = 40;
    let mut rng = seeded_rng(4242);
    let data: Vec<Vec<f64>> = (0..300).map(|_| uniform_vec(&mut rng, dim, -1.0, 1.0)).collect();

    // Phase 1 — HNSW layer: a warm caller-owned scratch makes `search_in`
    // allocation-free, full stop.
    let index = Hnsw::build(dim, HnswParams::default(), &data);
    let mut scratch = SearchScratch::default();
    for p in &data[..10] {
        index.search_in(&mut scratch, p, k, ef); // warm the buffers to their plateau
    }
    let (allocs, hits) = counted(|| index.search_in(&mut scratch, &data[10], k, ef).len());
    assert_eq!(hits, k);
    assert_eq!(allocs, 0, "warm hnsw search_in allocated {allocs} times; the contract is zero");

    // Phase 2 — whole scheme in-process: `CloudServer::search` through the
    // thread's warm `QueryScratchPool` may allocate only the result
    // buffers of the outcome it returns (ids + encrypted distances, plus
    // slack for one short-lived temporary if a future refactor needs it).
    let owner = DataOwner::setup(PpAnnParams::new(dim).with_seed(11).with_beta(0.0), &data);
    let server = CloudServer::new(owner.outsource(&data));
    let mut user = owner.authorize_user();
    let params = SearchParams { k_prime: 20, ef_search: 60 };
    let queries: Vec<_> = data.iter().take(20).map(|p| user.encrypt_query(p, k)).collect();
    for q in &queries[..10] {
        server.search(q, &params); // warm the pool on this thread
    }
    let mut outcomes = Vec::with_capacity(10);
    let (allocs, ()) = counted(|| {
        for q in &queries[10..20] {
            outcomes.push(server.search(q, &params));
        }
    });
    let per_query = allocs as f64 / 10.0;
    eprintln!("warm CloudServer::search: {per_query} allocs/query (budget 4)");
    assert!(
        per_query <= 4.0,
        "warm CloudServer::search allocated {per_query} times per query; budget is 4 \
         (result ids + distances + slack)"
    );
    drop(outcomes);

    // Phase 3 — loopback service round trip: framing, socket reads and the
    // client side all run in-process, so the budget is deliberately
    // generous; what it gates is per-query ballooning (each round trip
    // decodes one query frame and one reply, both O(dim²) ciphertext
    // buffers, but the server's reply encode path reuses worker scratch).
    let handle =
        serve(ppanns::core::CloudServer::new(owner.outsource(&data)), ServiceConfig::loopback())
            .unwrap();
    let mut client = ServiceClient::connect(handle.local_addr(), Some(dim)).unwrap();
    for q in &queries[..10] {
        client.search(q, &params).unwrap(); // warm workers and buffers
    }
    let (allocs, ()) = counted(|| {
        for q in &queries[10..20] {
            client.search(q, &params).unwrap();
        }
    });
    let per_query = allocs as f64 / 10.0;
    eprintln!("warm loopback round trip: {per_query} allocs/query (budget 256)");
    assert!(
        per_query <= 256.0,
        "warm loopback round trip allocated {per_query} times per query; budget is 256"
    );
    handle.request_stop();
    handle.join();
}
