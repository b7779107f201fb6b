//! Multi-collection end-to-end: one `ppann-service` process serving a
//! whole catalog — collections with different dimensionalities side by
//! side — while legacy version-1 frames and v1 snapshots keep working
//! unchanged. This is the acceptance suite of the namespaced protocol:
//! routing, parity with in-process `CloudServer`s, malformed/unknown
//! names, per-collection stats, the
//! owner-driven collection lifecycle and its `--data-dir` persistence.

use ppann_core::catalog::Catalog;
use ppann_core::{
    save_collection_snapshot, CloudServer, CollectionMeta, DataOwner, PpAnnParams, SearchParams,
};
use ppann_linalg::{seeded_rng, uniform_vec};
use ppann_service::wire::{tag, HEADER_LEN, MAGIC};
use ppann_service::{
    serve_catalog, ClientError, ErrorCode, Frame, ServiceClient, ServiceConfig, StatsSnapshot,
    COLLECTION_KIND_CLOUD,
};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;

const TOKEN: u64 = 0xBEEF;

fn make_owner(n: usize, dim: usize, seed: u64) -> (Vec<Vec<f64>>, DataOwner) {
    let mut rng = seeded_rng(seed);
    let data: Vec<Vec<f64>> = (0..n).map(|_| uniform_vec(&mut rng, dim, -1.0, 1.0)).collect();
    let owner = DataOwner::setup(PpAnnParams::new(dim).with_seed(seed).with_beta(0.0), &data);
    (data, owner)
}

fn params() -> SearchParams {
    SearchParams { k_prime: 20, ef_search: 40 }
}

/// One dataset + owner pair per collection.
type OwnedData = (Vec<Vec<f64>>, DataOwner);

/// A catalog with the acceptance shape: `"default"` holds dim-6 vectors,
/// `"docs"` dim-10 ones.
fn two_collection_catalog() -> (OwnedData, OwnedData, Arc<Catalog>) {
    let (data_a, owner_a) = make_owner(200, 6, 7101);
    let (data_b, owner_b) = make_owner(260, 10, 7102);
    let catalog = Catalog::new();
    catalog.create("default", owner_a.outsource(&data_a)).unwrap();
    catalog.create("docs", owner_b.outsource(&data_b)).unwrap();
    ((data_a, owner_a), (data_b, owner_b), Arc::new(catalog))
}

/// The acceptance criterion: two collections with different dims served
/// concurrently by one process, each answering bit-identically to its
/// in-process reference.
#[test]
fn two_collections_two_dims_served_concurrently() {
    let ((data_a, owner_a), (data_b, owner_b), catalog) = two_collection_catalog();
    let handle = serve_catalog(catalog, ServiceConfig::loopback().with_workers(4)).unwrap();
    let addr = handle.local_addr();

    let local_a = CloudServer::new(owner_a.outsource(&data_a));
    let local_b = CloudServer::new(owner_b.outsource(&data_b));

    std::thread::scope(|scope| {
        // Thread 1 hammers the default (dim 6) collection with legacy
        // nameless frames; thread 2 the docs (dim 10) collection with
        // namespaced frames — concurrently.
        scope.spawn(|| {
            let mut client = ServiceClient::connect(addr, Some(6)).unwrap();
            let mut local_user = owner_a.authorize_user();
            let mut remote_user = owner_a.authorize_user();
            for round in 0..20 {
                let point = &data_a[round * 7 % data_a.len()];
                let expect = local_a.search(&local_user.encrypt_query(point, 5), &params());
                let got = client.search(&remote_user.encrypt_query(point, 5), &params()).unwrap();
                assert_eq!(got.ids, expect.ids, "default round {round}");
                let eb: Vec<u64> = expect.sap_dists.iter().map(|d| d.to_bits()).collect();
                let gb: Vec<u64> = got.sap_dists.iter().map(|d| d.to_bits()).collect();
                assert_eq!(gb, eb, "default round {round} distances");
            }
        });
        scope.spawn(|| {
            let mut client = ServiceClient::connect(addr, None).unwrap();
            let mut local_user = owner_b.authorize_user();
            let mut remote_user = owner_b.authorize_user();
            for round in 0..20 {
                let point = &data_b[round * 11 % data_b.len()];
                let expect = local_b.search(&local_user.encrypt_query(point, 4), &params());
                let got = client
                    .search_in("docs", &remote_user.encrypt_query(point, 4), &params())
                    .unwrap();
                assert_eq!(got.ids, expect.ids, "docs round {round}");
            }
        });
    });

    // The listing reports both dims, each as one single-index server.
    let mut client = ServiceClient::connect(addr, None).unwrap();
    let entries = client.list_collections().unwrap();
    assert_eq!(entries.len(), 2);
    assert_eq!(entries[0].name, "default");
    assert_eq!(entries[0].dim, 6);
    assert_eq!(entries[0].kind, COLLECTION_KIND_CLOUD);
    assert_eq!(entries[0].shards, 1);
    assert_eq!(entries[1].name, "docs");
    assert_eq!(entries[1].dim, 10);
    assert_eq!(entries[1].kind, COLLECTION_KIND_CLOUD);
    assert_eq!(entries[1].shards, 1);
    assert_eq!(handle.live(), 200 + 260);
    handle.request_stop();
    handle.join();
}

/// A namespaced search of `"default"` and a legacy nameless search are
/// the same request: bit-identical answers on the same connection.
#[test]
fn namespaced_matches_legacy_single_index_search() {
    let (data, owner) = make_owner(150, 8, 7103);
    let catalog = Catalog::new();
    catalog.create("default", owner.outsource(&data)).unwrap();
    let handle = serve_catalog(Arc::new(catalog), ServiceConfig::loopback()).unwrap();
    let mut client = ServiceClient::connect(handle.local_addr(), Some(8)).unwrap();

    let mut legacy_user = owner.authorize_user();
    let mut named_user = owner.authorize_user();
    for (qi, point) in data.iter().take(10).enumerate() {
        let legacy = client.search(&legacy_user.encrypt_query(point, 5), &params()).unwrap();
        let named =
            client.search_in("default", &named_user.encrypt_query(point, 5), &params()).unwrap();
        assert_eq!(named.ids, legacy.ids, "query {qi}: namespaced ids diverge from legacy");
        let lb: Vec<u64> = legacy.sap_dists.iter().map(|d| d.to_bits()).collect();
        let nb: Vec<u64> = named.sap_dists.iter().map(|d| d.to_bits()).collect();
        assert_eq!(nb, lb, "query {qi}: namespaced distances diverge from legacy");
    }

    // Batched and pipelined namespaced variants agree with lockstep too.
    let queries: Vec<_> = (0..9).map(|i| named_user.encrypt_query(&data[i * 3], 3)).collect();
    let mut lockstep_user = owner.authorize_user();
    let mut check_user = owner.authorize_user();
    let lockstep: Vec<_> = (0..9)
        .map(|i| client.search(&lockstep_user.encrypt_query(&data[i * 3], 3), &params()).unwrap())
        .collect();
    let batched = client.search_batch_in("default", &queries, &params()).unwrap();
    let piped = {
        let qs: Vec<_> = (0..9).map(|i| check_user.encrypt_query(&data[i * 3], 3)).collect();
        client.search_pipelined_in("default", &qs, &params(), 4).unwrap()
    };
    for ((b, p), s) in batched.iter().zip(&piped).zip(&lockstep) {
        assert_eq!(b.ids, s.ids);
        assert_eq!(p.ids, s.ids);
    }
    handle.request_stop();
    handle.join();
}

/// Unknown collections get their own error code and leave the
/// connection usable.
#[test]
fn unknown_collection_has_its_own_error_code() {
    let (data, owner) = make_owner(80, 4, 7104);
    let catalog = Catalog::new();
    catalog.create("default", owner.outsource(&data)).unwrap();
    let handle =
        serve_catalog(Arc::new(catalog), ServiceConfig::loopback().with_owner_token(TOKEN))
            .unwrap();
    let mut client = ServiceClient::connect(handle.local_addr(), None).unwrap();
    let mut user = owner.authorize_user();
    let q = user.encrypt_query(&data[0], 3);

    // Search, batch, stats, insert, delete and drop all surface it.
    for err in [
        client.search_in("nope", &q, &params()).unwrap_err(),
        client.search_batch_in("nope", std::slice::from_ref(&q), &params()).unwrap_err(),
        client.stats_in("nope").unwrap_err(),
        client.delete_in("nope", TOKEN, 0).unwrap_err(),
        client.drop_collection(TOKEN, "nope").unwrap_err(),
    ] {
        match err {
            ClientError::Remote { code, message } => {
                assert_eq!(code, ErrorCode::UnknownCollection, "{message}");
                assert!(message.contains("nope"), "message should name it: {message}");
            }
            other => panic!("expected UnknownCollection, got {other:?}"),
        }
    }
    // Connection still serves the known collection.
    assert_eq!(client.search(&q, &params()).unwrap().ids.len(), 3);
    handle.request_stop();
    handle.join();
}

/// Malformed names — empty, oversized, non-UTF-8 — are semantic
/// `BadRequest`s: answered, connection kept open, never a framing error.
#[test]
fn malformed_names_are_bad_request_and_keep_the_connection() {
    let (data, owner) = make_owner(80, 4, 7105);
    let catalog = Catalog::new();
    catalog.create("default", owner.outsource(&data)).unwrap();
    let handle = serve_catalog(Arc::new(catalog), ServiceConfig::loopback()).unwrap();

    let mut user = owner.authorize_user();
    let q = user.encrypt_query(&data[0], 3);

    // Raw protocol: handshake, then Search frames with bad names.
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream.write_all(&Frame::Hello { dim: 4 }.encode()).unwrap();
    read_raw_reply(&mut stream).expect("HelloAck");
    let bad_names: [&[u8]; 5] = [
        b"",                 // empty
        &[b'x'; 65],         // one over the 64-byte limit
        &[0xFF, 0xFE, b'a'], // not UTF-8
        b"a/b",              // bad charset
        b"Docs",             // uppercase: would case-collide as a file stem
    ];
    for bad in bad_names {
        let frame =
            Frame::Search { collection: Some(bad.to_vec()), params: params(), query: q.clone() };
        stream.write_all(&frame.encode()).unwrap();
        let (reply_tag, payload) = read_raw_reply(&mut stream).expect("error reply");
        assert_eq!(reply_tag, tag::ERROR, "bad name {bad:?}: expected an Error frame");
        let code = u16::from_le_bytes([payload[0], payload[1]]);
        assert_eq!(code, ErrorCode::BadRequest as u16, "bad name {bad:?}: wrong code");
    }
    // Same connection answers a well-formed namespaced search afterwards.
    let good =
        Frame::Search { collection: Some(b"default".to_vec()), params: params(), query: q.clone() };
    stream.write_all(&good.encode()).unwrap();
    let (reply_tag, _) = read_raw_reply(&mut stream).expect("search reply");
    assert_eq!(reply_tag, tag::SEARCH_RESULT, "connection must stay usable");
    handle.request_stop();
    handle.join();
}

/// Sharded collections are retired: a raw `CreateCollection` frame asking
/// for any shard count but 1 is a `BadRequest` that creates nothing and
/// keeps the connection open.
#[test]
fn create_with_shards_other_than_one_is_bad_request() {
    let (data, owner) = make_owner(40, 4, 7109);
    let catalog = Catalog::new();
    catalog.create("default", owner.outsource(&data)).unwrap();
    let handle =
        serve_catalog(Arc::new(catalog), ServiceConfig::loopback().with_owner_token(TOKEN))
            .unwrap();

    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream.write_all(&Frame::Hello { dim: 4 }.encode()).unwrap();
    read_raw_reply(&mut stream).expect("HelloAck");
    for shards in [0u16, 2, 64, u16::MAX] {
        let frame =
            Frame::CreateCollection { token: TOKEN, name: b"fresh".to_vec(), dim: 4, shards };
        stream.write_all(&frame.encode()).unwrap();
        let (reply_tag, payload) = read_raw_reply(&mut stream).expect("error reply");
        assert_eq!(reply_tag, tag::ERROR, "shards={shards}: expected an Error frame");
        let code = u16::from_le_bytes([payload[0], payload[1]]);
        assert_eq!(code, ErrorCode::BadRequest as u16, "shards={shards}: wrong code");
    }
    // Nothing was created, and the same connection still creates with 1.
    assert!(handle.catalog().get("fresh").is_none());
    let frame =
        Frame::CreateCollection { token: TOKEN, name: b"fresh".to_vec(), dim: 4, shards: 1 };
    stream.write_all(&frame.encode()).unwrap();
    let (reply_tag, _) = read_raw_reply(&mut stream).expect("create reply");
    assert_eq!(reply_tag, tag::CREATE_COLLECTION_ACK, "connection must stay usable");
    assert_eq!(handle.catalog().get("fresh").unwrap().dim(), 4);
    handle.request_stop();
    handle.join();
}

/// The owner-driven lifecycle over the wire: create an empty collection,
/// populate it with encrypted inserts, search it, read its stats, drop
/// it — with authorization enforced at each mutating step.
#[test]
fn create_insert_search_drop_lifecycle() {
    let (data, owner) = make_owner(60, 4, 7106);
    let catalog = Catalog::new();
    catalog.create("default", owner.outsource(&data)).unwrap();
    let handle =
        serve_catalog(Arc::new(catalog), ServiceConfig::loopback().with_owner_token(TOKEN))
            .unwrap();
    let mut client = ServiceClient::connect(handle.local_addr(), None).unwrap();

    // Unauthorized create/drop are refused.
    match client.create_collection(TOKEN + 1, "fresh", 4).unwrap_err() {
        ClientError::Remote { code, .. } => assert_eq!(code, ErrorCode::Unauthorized),
        other => panic!("expected Unauthorized, got {other:?}"),
    }
    // Bad parameters are refused before anything is built.
    for (name, dim) in [("fresh", 0usize), ("fr esh", 4)] {
        match client.create_collection(TOKEN, name, dim).unwrap_err() {
            ClientError::Remote { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
            other => panic!("expected BadRequest, got {other:?}"),
        }
    }

    client.create_collection(TOKEN, "fresh", 4).unwrap();
    // Duplicate create is refused.
    match client.create_collection(TOKEN, "fresh", 4).unwrap_err() {
        ClientError::Remote { code, message } => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(message.contains("exists"), "{message}");
        }
        other => panic!("expected BadRequest, got {other:?}"),
    }

    // Populate the empty collection with owner-encrypted vectors and
    // search it: the namespaced maintenance path end to end.
    let fresh_owner = DataOwner::setup(PpAnnParams::new(4).with_seed(99).with_beta(0.0), &data);
    for (i, v) in data.iter().take(10).enumerate() {
        let (c_sap, c_dce) = fresh_owner.encrypt_for_insert(v, i as u64);
        let id = client.insert_in("fresh", TOKEN, c_sap, c_dce).unwrap();
        assert_eq!(id as usize, i);
    }
    let mut fresh_user = fresh_owner.authorize_user();
    let out = client.search_in("fresh", &fresh_user.encrypt_query(&data[3], 2), &params()).unwrap();
    assert_eq!(out.ids[0], 3);

    // A failure on a frame routed to the collection counts against its
    // error counter (here: a wrong-dim insert).
    let (bad_sap, bad_dce) = fresh_owner.encrypt_for_insert(&data[0], 99);
    let mut bad_sap = bad_sap;
    bad_sap.push(0.0);
    match client.insert_in("fresh", TOKEN, bad_sap, bad_dce).unwrap_err() {
        ClientError::Remote { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected BadRequest, got {other:?}"),
    }

    // Per-collection stats saw exactly this collection's traffic.
    let snap = client.stats_in("fresh").unwrap();
    assert_eq!(snap.live, 10);
    assert_eq!(snap.inserts, 10);
    assert_eq!(snap.queries, 1);
    assert_eq!(snap.errors, 1, "routed failures must count per collection");
    assert!(snap.bytes_in > 0 && snap.bytes_out > 0);
    // The connection gauges are process-global (PROTOCOL.md §3.10): a
    // per-collection reply overlays them, so the very connection asking
    // is visible as checked-out rather than reported as zero.
    assert!(snap.conns_active >= 1, "the asking connection must show in conns_active");
    // The aggregate view counts the whole process.
    let agg = client.stats().unwrap();
    assert_eq!(agg.live, 60 + 10);
    assert_eq!(agg.inserts, 10);

    client.drop_collection(TOKEN, "fresh").unwrap();
    match client.search_in("fresh", &fresh_user.encrypt_query(&data[0], 1), &params()) {
        Err(ClientError::Remote { code, .. }) => assert_eq!(code, ErrorCode::UnknownCollection),
        other => panic!("dropped collection must be unknown, got {other:?}"),
    }
    assert_eq!(client.list_collections().unwrap().len(), 1);
    handle.request_stop();
    handle.join();
}

/// `--data-dir` lifecycle: a catalog booted from a snapshot directory
/// (one v1 file, one v2 file), a collection created over the wire lands
/// on disk and survives a restart, a dropped one disappears from disk.
#[test]
fn data_dir_persists_create_and_drop_across_restarts() {
    let dir = std::env::temp_dir().join(format!("ppanns_svc_datadir_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (data_a, owner_a) = make_owner(50, 4, 7107);
    // A v1 snapshot (named by its file stem) and a v2 snapshot.
    owner_a.outsource(&data_a).save_to(&dir.join("legacy.ppdb")).unwrap();
    let (data_b, owner_b) = make_owner(70, 6, 7108);
    save_collection_snapshot(
        &dir.join("wide.ppdb"),
        &CollectionMeta { name: "wide".into(), shards: 1 },
        &owner_b.outsource(&data_b),
    )
    .unwrap();

    let boot = |dir: &std::path::Path| {
        let catalog = Arc::new(Catalog::load_dir_durable(dir, Default::default()).unwrap().0);
        serve_catalog(
            Arc::clone(&catalog),
            ServiceConfig::loopback().with_owner_token(TOKEN).with_data_dir(dir),
        )
        .unwrap()
    };

    let handle = boot(&dir);
    let mut client = ServiceClient::connect(handle.local_addr(), None).unwrap();
    let names: Vec<String> =
        client.list_collections().unwrap().into_iter().map(|e| e.name).collect();
    assert_eq!(names, vec!["legacy".to_string(), "wide".to_string()]);

    // Both discovered collections answer.
    let mut user_a = owner_a.authorize_user();
    let out = client.search_in("legacy", &user_a.encrypt_query(&data_a[2], 2), &params()).unwrap();
    assert_eq!(out.ids[0], 2);
    let mut user_b = owner_b.authorize_user();
    let out = client.search_in("wide", &user_b.encrypt_query(&data_b[5], 2), &params()).unwrap();
    assert_eq!(out.ids[0], 5);

    // A duplicate create must fail WITHOUT touching the existing
    // collection's snapshot — `save_collection_snapshot` truncates, so
    // writing before the name check would silently empty `wide.ppdb` and
    // lose its 70 vectors at the next restart.
    let wide_bytes_before = std::fs::read(dir.join("wide.ppdb")).unwrap();
    match client.create_collection(TOKEN, "wide", 6).unwrap_err() {
        ClientError::Remote { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("duplicate create must be refused, got {other:?}"),
    }
    assert_eq!(
        std::fs::read(dir.join("wide.ppdb")).unwrap(),
        wide_bytes_before,
        "duplicate create must not rewrite the existing snapshot"
    );

    // Create lands on disk; drop removes its file.
    client.create_collection(TOKEN, "scratch", 8).unwrap();
    assert!(dir.join("scratch.ppdb").exists(), "create must write the snapshot");
    client.drop_collection(TOKEN, "legacy").unwrap();
    assert!(!dir.join("legacy.ppdb").exists(), "drop must delete the snapshot");
    client.shutdown(TOKEN).unwrap();
    handle.join();

    // Restart: the directory is the source of truth.
    let handle = boot(&dir);
    let mut client = ServiceClient::connect(handle.local_addr(), None).unwrap();
    let entries = client.list_collections().unwrap();
    let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
    assert_eq!(names, vec!["scratch", "wide"]);
    let scratch = entries.iter().find(|e| e.name == "scratch").unwrap();
    assert_eq!(scratch.dim, 8);
    assert_eq!(scratch.live, 0, "in-memory inserts are not persisted; created empty");
    handle.request_stop();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// Two listeners over one catalog with a data dir — the shape of
/// `serve --data-dir D --replica-listen A2`. A collection created and
/// filled through listener A answers the same ids through listener B,
/// its one set of counters holds both listeners' frames, and a
/// collection registered in-process after start answers on both.
#[test]
fn two_listeners_over_one_catalog_serve_every_collection() {
    let dir = std::env::temp_dir().join(format!("ppanns_svc_two_listeners_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let catalog = Arc::new(Catalog::new());
    let config = ServiceConfig::loopback().with_owner_token(TOKEN).with_data_dir(&dir);
    let a = serve_catalog(Arc::clone(&catalog), config.clone()).unwrap();
    let b = serve_catalog(catalog, config).unwrap();
    let mut client_a = ServiceClient::connect(a.local_addr(), None).unwrap();
    let mut client_b = ServiceClient::connect(b.local_addr(), None).unwrap();

    let (data, owner) = make_owner(40, 4, 7110);
    client_a.create_collection(TOKEN, "late", 4).unwrap();
    for (i, v) in data.iter().enumerate() {
        let (c_sap, c_dce) = owner.encrypt_for_insert(v, i as u64);
        client_a.insert_in("late", TOKEN, c_sap, c_dce).unwrap();
    }
    let mut user = owner.authorize_user();
    for i in [0usize, 9, 27] {
        let q = user.encrypt_query(&data[i], 3);
        let on_a = client_a.search_in("late", &q, &params()).unwrap();
        let on_b = client_b.search_in("late", &q, &params()).unwrap();
        assert_eq!(on_b.ids, on_a.ids, "query {i}");
        assert_eq!(on_a.ids[0], i as u32, "self-1NN for {i}");
    }

    // 40 inserts and 3 queries through A, 3 queries through B: both
    // listeners report the same counters, and those count every frame.
    let counters = |s: StatsSnapshot| (s.queries, s.inserts, s.deletes, s.errors, s.live);
    let via_a = client_a.stats_in("late").unwrap();
    let via_b = client_b.stats_in("late").unwrap();
    assert_eq!(counters(via_a), (6, 40, 0, 0, 40));
    assert_eq!(counters(via_b), counters(via_a));
    assert!(via_b.bytes_in > via_a.bytes_in, "B's Stats frame counts on top of A's");
    // The process-wide counters stay per listener.
    assert_eq!((a.stats().queries(), b.stats().queries()), (3, 3));

    let (data_d, owner_d) = make_owner(30, 5, 7111);
    a.catalog().create("direct", owner_d.outsource(&data_d)).unwrap();
    let mut user_d = owner_d.authorize_user();
    let q = user_d.encrypt_query(&data_d[4], 2);
    assert_eq!(client_a.search_in("direct", &q, &params()).unwrap().ids[0], 4);
    assert_eq!(client_b.search_in("direct", &q, &params()).unwrap().ids[0], 4);

    b.request_stop();
    b.join();
    a.request_stop();
    a.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// Against a catalog with no `"default"` collection the handshake
/// reports dim 0, legacy nameless frames get `UnknownCollection`, and a
/// nonzero-dim Hello is refused.
#[test]
fn catalog_without_default_collection() {
    let (data, owner) = make_owner(40, 5, 7109);
    let catalog = Catalog::new();
    catalog.create("only", owner.outsource(&data)).unwrap();
    let handle = serve_catalog(Arc::new(catalog), ServiceConfig::loopback()).unwrap();

    match ServiceClient::connect(handle.local_addr(), Some(5)) {
        Err(ClientError::Remote { code, .. }) => assert_eq!(code, ErrorCode::DimMismatch),
        other => panic!("nonzero-dim Hello must be refused, got {other:?}"),
    }
    let mut client = ServiceClient::connect(handle.local_addr(), None).unwrap();
    assert_eq!(client.server_dim(), 0);
    assert_eq!(client.server_live(), 40, "live total still reported");
    let mut user = owner.authorize_user();
    let q = user.encrypt_query(&data[0], 2);
    match client.search(&q, &params()) {
        Err(ClientError::Remote { code, .. }) => assert_eq!(code, ErrorCode::UnknownCollection),
        other => panic!("nameless frame needs a default collection, got {other:?}"),
    }
    assert_eq!(client.search_in("only", &q, &params()).unwrap().ids[0], 0);
    handle.request_stop();
    handle.join();
}

/// Reads one raw reply frame (tag + payload) from a bare stream.
fn read_raw_reply(stream: &mut TcpStream) -> Option<(u8, Vec<u8>)> {
    use std::io::Read;
    let mut header = [0u8; HEADER_LEN];
    stream.read_exact(&mut header).ok()?;
    assert_eq!(&header[..4], &MAGIC, "server reply must carry the magic");
    let len = u32::from_le_bytes([header[8], header[9], header[10], header[11]]) as usize;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).ok()?;
    Some((header[5], payload))
}
