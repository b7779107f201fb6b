//! Loopback end-to-end: the remote path must be indistinguishable from
//! calling the `CloudServer` in-process — identical ids and bit-identical
//! encrypted-space distances on a seeded workload.

use ppann_core::{CloudServer, DataOwner, PpAnnParams, SearchParams};
use ppann_linalg::{seeded_rng, uniform_vec};
use ppann_service::{serve, ClientError, ServiceClient, ServiceConfig};

const DIM: usize = 8;
const N: usize = 400;
const K: usize = 5;
const TOKEN: u64 = 0xC0FFEE;

fn setup(seed: u64) -> (Vec<Vec<f64>>, DataOwner) {
    let mut rng = seeded_rng(seed);
    let data: Vec<Vec<f64>> = (0..N).map(|_| uniform_vec(&mut rng, DIM, -1.0, 1.0)).collect();
    let owner = DataOwner::setup(PpAnnParams::new(DIM).with_seed(seed).with_beta(0.0), &data);
    (data, owner)
}

fn params() -> SearchParams {
    SearchParams { k_prime: 40, ef_search: 80 }
}

/// Remote answers must match in-process `CloudServer::search` exactly:
/// same ids, same encrypted distances to the last bit.
fn assert_remote_matches_local(client: &mut ServiceClient, owner: &DataOwner, data: &[Vec<f64>]) {
    let local = CloudServer::new(owner.outsource(data));
    // Two users forked from the same seed produce identical query
    // ciphertexts, so local and remote answer the *same* messages.
    let mut local_user = owner.authorize_user();
    let mut remote_user = owner.authorize_user();
    for (qi, point) in data.iter().take(12).enumerate() {
        let local_q = local_user.encrypt_query(point, K);
        let remote_q = remote_user.encrypt_query(point, K);
        assert_eq!(local_q.c_sap, remote_q.c_sap, "seeded users must agree");
        let expect = local.search(&local_q, &params());
        let got = client.search(&remote_q, &params()).unwrap();
        assert_eq!(got.ids, expect.ids, "query {qi}: remote ids diverge");
        let expect_bits: Vec<u64> = expect.sap_dists.iter().map(|d| d.to_bits()).collect();
        let got_bits: Vec<u64> = got.sap_dists.iter().map(|d| d.to_bits()).collect();
        assert_eq!(got_bits, expect_bits, "query {qi}: encrypted distances diverge");
        assert!(got.cost.refine_sdc_comps > 0, "cost counters must travel");
    }
}

#[test]
fn remote_cloud_server_matches_in_process() {
    let (data, owner) = setup(9001);
    let server = CloudServer::new(owner.outsource(&data));
    let handle = serve(server, ServiceConfig::loopback()).unwrap();
    let mut client = ServiceClient::connect(handle.local_addr(), Some(DIM)).unwrap();
    assert_eq!(client.server_dim(), DIM);
    assert_eq!(client.server_live(), N as u64);
    assert_remote_matches_local(&mut client, &owner, &data);
    handle.request_stop();
    handle.join();
}

#[test]
fn remote_maintenance_roundtrip() {
    let (data, owner) = setup(9003);
    let server = CloudServer::new(owner.outsource(&data));
    let config = ServiceConfig::loopback().with_owner_token(TOKEN);
    let handle = serve(server, config).unwrap();
    let mut client = ServiceClient::connect(handle.local_addr(), None).unwrap();

    // Insert a far-out vector, find it remotely, then delete it remotely.
    let novel = vec![5.0; DIM];
    let (c_sap, c_dce) = owner.encrypt_for_insert(&novel, 1);
    let id = client.insert(TOKEN, c_sap, c_dce).unwrap();
    assert_eq!(id as usize, N);

    let mut user = owner.authorize_user();
    let q = user.encrypt_query(&novel, 1);
    let out = client.search(&q, &SearchParams { k_prime: 10, ef_search: 30 }).unwrap();
    assert_eq!(out.ids, vec![id]);

    client.delete(TOKEN, id).unwrap();
    let q = user.encrypt_query(&novel, 2);
    let out = client.search(&q, &SearchParams { k_prime: 10, ef_search: 30 }).unwrap();
    assert!(!out.ids.contains(&id), "deleted id resurfaced");

    let snap = client.stats().unwrap();
    assert_eq!(snap.inserts, 1);
    assert_eq!(snap.deletes, 1);
    assert_eq!(snap.live, N as u64);
    assert_eq!(snap.queries, 2);
    handle.request_stop();
    handle.join();
}

#[test]
fn stats_and_graceful_shutdown_over_the_wire() {
    let (data, owner) = setup(9004);
    let server = CloudServer::new(owner.outsource(&data));
    let config = ServiceConfig::loopback().with_owner_token(TOKEN);
    let handle = serve(server, config).unwrap();
    let addr = handle.local_addr();

    let mut client = ServiceClient::connect(addr, Some(DIM)).unwrap();
    let mut user = owner.authorize_user();
    for point in data.iter().take(4) {
        let q = user.encrypt_query(point, K);
        client.search(&q, &params()).unwrap();
    }
    let snap = client.stats().unwrap();
    assert_eq!(snap.queries, 4);
    assert_eq!(snap.live, N as u64);
    assert!(snap.bytes_in > 0 && snap.bytes_out > 0);
    assert!(snap.p50_micros > 0, "latency buckets must be populated");
    assert!(snap.p99_micros >= snap.p50_micros);
    assert!(snap.uptime_micros > 0);

    // Graceful shutdown: acknowledged, then the listener goes away.
    client.shutdown(TOKEN).unwrap();
    handle.join();
    assert!(
        ServiceClient::connect(addr, Some(DIM)).is_err(),
        "listener must be gone after shutdown"
    );
}

/// One `SearchBatch` frame must answer exactly like the same queries sent
/// one `Search` frame at a time — same ids, bit-identical encrypted
/// distances, request order preserved — including a batch wider than the server's fan-out and one smaller than it.
#[test]
fn batched_search_matches_sequential_remote() {
    let (data, owner) = setup(9006);
    let server = CloudServer::new(owner.outsource(&data));
    let handle = serve(server, ServiceConfig::loopback().with_workers(3)).unwrap();
    let mut client = ServiceClient::connect(handle.local_addr(), Some(DIM)).unwrap();

    let mut user = owner.authorize_user();
    // Varying k per query: the batch layout carries k per query.
    let queries: Vec<_> = (0..17).map(|i| user.encrypt_query(&data[i * 7], 1 + (i % K))).collect();
    let sequential: Vec<_> = queries.iter().map(|q| client.search(q, &params()).unwrap()).collect();

    for width in [1usize, 4, queries.len()] {
        let mut batched = Vec::new();
        for chunk in queries.chunks(width) {
            batched.extend(client.search_batch(chunk, &params()).unwrap());
        }
        assert_eq!(batched.len(), sequential.len());
        for (qi, (b, s)) in batched.iter().zip(&sequential).enumerate() {
            assert_eq!(b.ids, s.ids, "width {width}, query {qi}: ids diverge");
            let expect: Vec<u64> = s.sap_dists.iter().map(|d| d.to_bits()).collect();
            let got: Vec<u64> = b.sap_dists.iter().map(|d| d.to_bits()).collect();
            assert_eq!(got, expect, "width {width}, query {qi}: distances diverge");
        }
    }

    // Batch queries count toward the same stats as single-frame ones.
    let snap = client.stats().unwrap();
    assert_eq!(snap.queries as usize, queries.len() * 4);
    handle.request_stop();
    handle.join();
}

/// Pipelined single-frame search pairs replies with requests
/// positionally; outcomes must match the lockstep loop exactly for any
/// window, including windows larger than the query count.
#[test]
fn pipelined_search_matches_sequential_remote() {
    let (data, owner) = setup(9008);
    let server = CloudServer::new(owner.outsource(&data));
    let handle = serve(server, ServiceConfig::loopback().with_workers(2)).unwrap();
    let mut client = ServiceClient::connect(handle.local_addr(), Some(DIM)).unwrap();

    let mut user = owner.authorize_user();
    let queries: Vec<_> = (0..23).map(|i| user.encrypt_query(&data[i * 11], 1 + (i % K))).collect();
    let sequential: Vec<_> = queries.iter().map(|q| client.search(q, &params()).unwrap()).collect();

    for window in [1usize, 3, 8, 64] {
        let piped = client.search_pipelined(&queries, &params(), window).unwrap();
        assert_eq!(piped.len(), sequential.len());
        for (qi, (p, s)) in piped.iter().zip(&sequential).enumerate() {
            assert_eq!(p.ids, s.ids, "window {window}, query {qi}: ids diverge");
            let expect: Vec<u64> = s.sap_dists.iter().map(|d| d.to_bits()).collect();
            let got: Vec<u64> = p.sap_dists.iter().map(|d| d.to_bits()).collect();
            assert_eq!(got, expect, "window {window}, query {qi}: distances diverge");
        }
    }
    handle.request_stop();
    handle.join();
}

/// A server error mid-pipeline (here: a knob above the server's bound on
/// the 6th query) surfaces as `Remote` and poisons the client, while the
/// service keeps serving fresh connections.
#[test]
fn pipelined_error_poisons_but_server_survives() {
    let (data, owner) = setup(9009);
    let server = CloudServer::new(owner.outsource(&data));
    // High enough for params() (ef_search 80), far below the bad frame's.
    let config = ServiceConfig::loopback().with_max_search_k(256);
    let handle = serve(server, config).unwrap();
    let mut client = ServiceClient::connect(handle.local_addr(), Some(DIM)).unwrap();

    let mut user = owner.authorize_user();
    let queries: Vec<_> = (0..10).map(|i| user.encrypt_query(&data[i], K)).collect();
    let mut bad = params();
    // Per-frame params are shared, so poison via one oversized frame mix:
    // send good params but an ef_search beyond the bound on the whole
    // pipeline — every reply is an Error, the first of which aborts it.
    bad.ef_search = 1 << 20;
    match client.search_pipelined(&queries, &bad, 4) {
        Err(ClientError::Remote { code, .. }) => {
            assert_eq!(code, ppann_service::ErrorCode::BadRequest);
        }
        other => panic!("expected BadRequest, got {other:?}"),
    }
    // Poisoned: even a well-formed call is refused now.
    assert!(client.search(&queries[0], &params()).is_err(), "poisoned client must refuse");
    // A fresh connection works.
    let mut fresh = ServiceClient::connect(handle.local_addr(), Some(DIM)).unwrap();
    assert_eq!(fresh.search(&queries[0], &params()).unwrap().ids.len(), K);
    handle.request_stop();
    handle.join();
}

#[test]
fn shutdown_without_token_is_refused() {
    let (data, owner) = setup(9005);
    let server = CloudServer::new(owner.outsource(&data));
    // No owner token configured: maintenance and shutdown are disabled.
    let handle = serve(server, ServiceConfig::loopback()).unwrap();
    let mut client = ServiceClient::connect(handle.local_addr(), None).unwrap();
    match client.shutdown(0) {
        Err(ClientError::Remote { code, .. }) => {
            assert_eq!(code, ppann_service::ErrorCode::Unauthorized);
        }
        other => panic!("expected Unauthorized, got {other:?}"),
    }
    // The refusal must leave the connection and the service usable.
    let mut user = owner.authorize_user();
    let q = user.encrypt_query(&data[0], K);
    assert_eq!(client.search(&q, &params()).unwrap().ids.len(), K);
    handle.request_stop();
    handle.join();
}
