//! **Multi-collection loopback smoke run** (extension experiment, not a
//! paper figure): one `ppann-service` process serving a catalog of two
//! collections with different dimensionalities, driven through every
//! namespaced surface of PPNW v2: interleaved namespaced searches with
//! per-collection parity against in-process `CloudServer`s, the collection
//! listing, per-collection stats, and
//! the full owner lifecycle (create an empty collection, populate it over
//! the wire, search it, drop it).
//!
//! CI runs this next to `remote_throughput` and uploads
//! `BENCH_multi_collection.json`; the run hard-fails (assert) on any
//! parity or lifecycle violation, so the JSON doubles as a freshness
//! marker that the multi-collection path was exercised end to end.

use ppann_bench::harness::build_scheme;
use ppann_bench::{bench_scale, write_bench_json, JsonObject, TableWriter};
use ppann_core::catalog::Catalog;
use ppann_core::{EncryptedQuery, SearchOutcome, SearchParams};
use ppann_datasets::{DatasetProfile, Workload};
use ppann_hnsw::HnswParams;
use ppann_service::{serve_catalog, ServiceClient, ServiceConfig};
use std::sync::Arc;
use std::time::Instant;

const TOKEN: u64 = 0xC0117;

fn main() {
    let scale = bench_scale();
    let k = 10;
    let n = scale.scaled(4_000, 20_000);
    let num_queries = scale.scaled(100, 500);

    // Two workloads with different dimensionalities: "products" =
    // SIFT-like (128d), "docs" = Deep-like (96d). β = 0 keeps every
    // remote answer bit-comparable to the in-process reference.
    let w_a = Workload::generate(DatasetProfile::SiftLike, n, num_queries, 9341);
    let (_, server_a, mut user_a) = build_scheme(&w_a, 0.0, HnswParams::default(), 61);
    let w_b = Workload::generate(DatasetProfile::DeepLike, n, num_queries, 9342);
    let (owner_b, server_b, mut user_b) = build_scheme(&w_b, 0.0, HnswParams::default(), 62);
    let params = SearchParams::from_ratio(k, 16, 160);

    let queries_a: Vec<EncryptedQuery> =
        w_a.queries().iter().map(|q| user_a.encrypt_query(q, k)).collect();
    let queries_b: Vec<EncryptedQuery> =
        w_b.queries().iter().map(|q| user_b.encrypt_query(q, k)).collect();
    let ref_a: Vec<SearchOutcome> = queries_a.iter().map(|q| server_a.search(q, &params)).collect();
    let ref_b: Vec<SearchOutcome> = queries_b.iter().map(|q| server_b.search(q, &params)).collect();

    let catalog = Arc::new(Catalog::new());
    catalog.create("products", server_a.into_database()).expect("products");
    catalog.create("docs", server_b.into_database()).expect("docs");

    let config = ServiceConfig::loopback().with_workers(4).with_owner_token(TOKEN);
    let handle = serve_catalog(Arc::clone(&catalog), config).expect("bind loopback");
    let addr = handle.local_addr();
    let mut client = ServiceClient::connect(addr, None).expect("connect");

    // Interleaved namespaced searches across both collections, parity
    // against each in-process reference.
    let started = Instant::now();
    for qi in 0..num_queries {
        let out_a = client.search_in("products", &queries_a[qi], &params).expect("products");
        assert_eq!(out_a.ids, ref_a[qi].ids, "products query {qi} diverged");
        let out_b = client.search_in("docs", &queries_b[qi], &params).expect("docs");
        assert_eq!(out_b.ids, ref_b[qi].ids, "docs query {qi} diverged");
    }
    let secs = started.elapsed().as_secs_f64();
    let interleaved_qps = (2 * num_queries) as f64 / secs;

    // Listing reports both collections with their dimensionalities.
    let entries = client.list_collections().expect("list");
    assert_eq!(entries.len(), 2);
    assert_eq!((entries[0].name.as_str(), entries[0].dim), ("docs", w_b.dim() as u64));
    assert_eq!((entries[1].name.as_str(), entries[1].dim), ("products", w_a.dim() as u64));

    // Per-collection stats saw exactly each collection's traffic.
    let s_products = client.stats_in("products").expect("stats products");
    let s_docs = client.stats_in("docs").expect("stats docs");
    assert_eq!(s_products.queries as usize, num_queries);
    assert_eq!(s_docs.queries as usize, num_queries);
    assert_eq!(s_products.live as usize, n);

    // Owner lifecycle: create an empty collection, populate it over the
    // wire with the docs owner's material, search it, drop it.
    client.create_collection(TOKEN, "scratch", w_b.dim()).expect("create");
    let insert_count = 50.min(n);
    for (i, v) in w_b.base().iter().take(insert_count).enumerate() {
        let (c_sap, c_dce) = owner_b.encrypt_for_insert(v, i as u64);
        let id = client.insert_in("scratch", TOKEN, c_sap, c_dce).expect("insert");
        assert_eq!(id as usize, i);
    }
    let mut scratch_user = owner_b.authorize_user();
    let probe = scratch_user.encrypt_query(&w_b.base()[3], 1);
    let out = client.search_in("scratch", &probe, &params).expect("scratch search");
    assert_eq!(out.ids, vec![3], "freshly populated collection must answer");
    client.drop_collection(TOKEN, "scratch").expect("drop");
    assert_eq!(client.list_collections().expect("list").len(), 2);

    handle.request_stop();
    handle.join();

    let mut t = TableWriter::new(
        &format!("Multi-collection smoke (n={n} per collection, {num_queries} queries each)"),
        &["collection", "dim", "queries", "parity"],
    );
    for (name, dim) in [("products", w_a.dim()), ("docs", w_b.dim())] {
        t.row(&[name.into(), dim.to_string(), num_queries.to_string(), "exact".into()]);
    }
    t.print();
    println!(
        "\ninterleaved {interleaved_qps:.0} QPS across 2 collections; \
         lifecycle create→{insert_count} inserts→search→drop OK"
    );

    let json = JsonObject::new()
        .str("bench", "multi_collection")
        .int("n_per_collection", n as u64)
        .int("queries_per_collection", num_queries as u64)
        .int("collections", 2)
        .int("dim_products", w_a.dim() as u64)
        .int("dim_docs", w_b.dim() as u64)
        .num("interleaved_qps", interleaved_qps)
        .int("lifecycle_inserts", insert_count as u64)
        .bool("parity", true)
        .bool("lifecycle_ok", true);
    let path = write_bench_json("multi_collection", &json).expect("write bench json");
    println!("machine-readable results -> {}", path.display());
}
