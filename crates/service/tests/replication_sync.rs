//! Primary/backup replication end to end, in-process: a durable primary
//! serving a `--data-dir` catalog, one or two followers pulling its
//! snapshot + WAL stream over real TCP, reads served by followers,
//! mutations refused with `NotPrimary` until a `Promote`, and the
//! `ReplicaSet` client failing reads over from a hung node within one
//! call timeout.

use ppann_core::catalog::Catalog;
use ppann_core::wal::DurabilityOptions;
use ppann_core::{DataOwner, PpAnnParams, SearchParams};
use ppann_linalg::{seeded_rng, uniform_vec};
use ppann_service::{
    serve_catalog, ClientError, ErrorCode, ReplicaSet, ServiceClient, ServiceConfig, ServiceHandle,
};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TOKEN: u64 = 0xC0DE;
const DIM: usize = 4;
const COLL: &str = "repl";

fn make_owner(n: usize, seed: u64) -> (Vec<Vec<f64>>, DataOwner) {
    let mut rng = seeded_rng(seed);
    let data: Vec<Vec<f64>> = (0..n).map(|_| uniform_vec(&mut rng, DIM, -1.0, 1.0)).collect();
    let owner = DataOwner::setup(PpAnnParams::new(DIM).with_seed(seed).with_beta(0.0), &data);
    (data, owner)
}

fn params() -> SearchParams {
    SearchParams { k_prime: 16, ef_search: 32 }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ppanns_repl_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A durable primary over an empty data dir, owner maintenance enabled.
fn spawn_primary(dir: &std::path::Path, compact_bytes: u64) -> ServiceHandle {
    serve_catalog(
        Arc::new(Catalog::new()),
        ServiceConfig::loopback()
            .with_owner_token(TOKEN)
            .with_data_dir(dir)
            .with_compact_bytes(compact_bytes),
    )
    .unwrap()
}

/// A follower replicating from `upstream`, owner token set so `Promote`
/// can be exercised.
fn spawn_follower(upstream: std::net::SocketAddr) -> ServiceHandle {
    serve_catalog(
        Arc::new(Catalog::new()),
        ServiceConfig::loopback().with_owner_token(TOKEN).with_replicate_from(upstream.to_string()),
    )
    .unwrap()
}

/// Polls the follower's catalog until `coll` holds exactly `live`
/// vectors (replication is asynchronous; convergence is bounded).
fn await_live(follower: &ServiceHandle, coll: &str, live: usize) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let now = follower.catalog().get(coll).map(|c| c.live_len());
        if now == Some(live) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "follower never converged: wanted {live} live in `{coll}`, have {now:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Bootstrap, steady-state tailing, deletes, and read parity: the
/// tentpole's happy path over two real processes' worth of machinery
/// (separate reactors, real TCP between them).
#[test]
fn follower_bootstraps_tails_and_serves_reads() {
    let dir = temp_dir("tail");
    let primary = spawn_primary(&dir, ppann_core::DEFAULT_COMPACT_BYTES);
    let mut owner_client = ServiceClient::connect(primary.local_addr(), None).unwrap();
    owner_client.create_collection(TOKEN, COLL, DIM).unwrap();

    let (data, owner) = make_owner(20, 4242);
    for (i, v) in data.iter().take(12).enumerate() {
        let (c_sap, c_dce) = owner.encrypt_for_insert(v, i as u64);
        owner_client.insert_in(COLL, TOKEN, c_sap, c_dce).unwrap();
    }

    // The follower starts *after* the primary has state: pure bootstrap.
    let follower = spawn_follower(primary.local_addr());
    await_live(&follower, COLL, 12);

    // Steady state: later inserts arrive as WAL segments.
    for (i, v) in data.iter().enumerate().skip(12) {
        let (c_sap, c_dce) = owner.encrypt_for_insert(v, i as u64);
        owner_client.insert_in(COLL, TOKEN, c_sap, c_dce).unwrap();
    }
    await_live(&follower, COLL, 20);

    // Reads on the follower answer identically to the primary.
    let mut user = owner.authorize_user();
    let mut follower_client = ServiceClient::connect(follower.local_addr(), None).unwrap();
    for i in [0usize, 5, 13, 19] {
        let q = user.encrypt_query(&data[i], 3);
        let on_primary = owner_client.search_in(COLL, &q, &params()).unwrap();
        let on_follower = follower_client.search_in(COLL, &q, &params()).unwrap();
        assert_eq!(on_follower.ids, on_primary.ids, "query {i}");
        assert_eq!(on_follower.ids[0], i as u32, "self-1NN for {i}");
    }

    // Deletes replicate too.
    owner_client.delete_in(COLL, TOKEN, 7).unwrap();
    await_live(&follower, COLL, 19);

    // Per-collection stats on the follower carry its own counters.
    let snap = follower_client.stats_in(COLL).unwrap();
    assert_eq!(snap.live, 19);

    drop(follower);
    drop(primary);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A follower pulling from the primary's second listener over the same
/// catalog (`--replica-listen`) replicates a collection created through
/// the first listener after both started.
#[test]
fn follower_of_the_replica_listener_converges_on_a_late_collection() {
    let dir = temp_dir("replica_listener");
    let catalog = Arc::new(Catalog::new());
    let config = ServiceConfig::loopback().with_owner_token(TOKEN).with_data_dir(&dir);
    let primary = serve_catalog(Arc::clone(&catalog), config.clone()).unwrap();
    let replica_listener = serve_catalog(catalog, config).unwrap();
    let follower = spawn_follower(replica_listener.local_addr());

    let mut owner_client = ServiceClient::connect(primary.local_addr(), None).unwrap();
    owner_client.create_collection(TOKEN, COLL, DIM).unwrap();
    let (data, owner) = make_owner(15, 4343);
    for (i, v) in data.iter().enumerate() {
        let (c_sap, c_dce) = owner.encrypt_for_insert(v, i as u64);
        owner_client.insert_in(COLL, TOKEN, c_sap, c_dce).unwrap();
    }
    await_live(&follower, COLL, 15);

    let mut user = owner.authorize_user();
    let mut follower_client = ServiceClient::connect(follower.local_addr(), None).unwrap();
    let q = user.encrypt_query(&data[6], 3);
    let on_primary = owner_client.search_in(COLL, &q, &params()).unwrap();
    assert_eq!(follower_client.search_in(COLL, &q, &params()).unwrap().ids, on_primary.ids);

    drop(follower);
    drop(replica_listener);
    drop(primary);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `NotPrimary` contract: every mutating frame is refused on a
/// follower — regardless of token — until an owner-authenticated
/// `Promote` flips the role, after which writes land locally.
#[test]
fn followers_reject_mutations_until_promoted() {
    let dir = temp_dir("promote");
    let primary = spawn_primary(&dir, ppann_core::DEFAULT_COMPACT_BYTES);
    let mut owner_client = ServiceClient::connect(primary.local_addr(), None).unwrap();
    owner_client.create_collection(TOKEN, COLL, DIM).unwrap();
    let (data, owner) = make_owner(4, 777);
    for (i, v) in data.iter().take(3).enumerate() {
        let (c_sap, c_dce) = owner.encrypt_for_insert(v, i as u64);
        owner_client.insert_in(COLL, TOKEN, c_sap, c_dce).unwrap();
    }

    let follower = spawn_follower(primary.local_addr());
    await_live(&follower, COLL, 3);
    assert!(!follower.is_primary());
    let mut fclient = ServiceClient::connect(follower.local_addr(), None).unwrap();

    // Mutations — with the CORRECT token — are refused as NotPrimary.
    let (c_sap, c_dce) = owner.encrypt_for_insert(&data[3], 3);
    match fclient.insert_in(COLL, TOKEN, c_sap.clone(), c_dce.clone()).unwrap_err() {
        ClientError::Remote { code, message } => {
            assert_eq!(code, ErrorCode::NotPrimary);
            assert!(message.contains("follower"), "{message}");
        }
        other => panic!("expected NotPrimary, got {other:?}"),
    }
    match fclient.delete_in(COLL, TOKEN, 0).unwrap_err() {
        ClientError::Remote { code, .. } => assert_eq!(code, ErrorCode::NotPrimary),
        other => panic!("expected NotPrimary, got {other:?}"),
    }
    match fclient.create_collection(TOKEN, "fresh", DIM).unwrap_err() {
        ClientError::Remote { code, .. } => assert_eq!(code, ErrorCode::NotPrimary),
        other => panic!("expected NotPrimary, got {other:?}"),
    }
    match fclient.drop_collection(TOKEN, COLL).unwrap_err() {
        ClientError::Remote { code, .. } => assert_eq!(code, ErrorCode::NotPrimary),
        other => panic!("expected NotPrimary, got {other:?}"),
    }

    // Promote needs the owner token.
    match fclient.promote(TOKEN + 1).unwrap_err() {
        ClientError::Remote { code, .. } => assert_eq!(code, ErrorCode::Unauthorized),
        other => panic!("expected Unauthorized, got {other:?}"),
    }
    assert!(!follower.is_primary());

    // A real promotion flips the role; the next insert lands.
    fclient.promote(TOKEN).unwrap();
    assert!(follower.is_primary());
    let id = fclient.insert_in(COLL, TOKEN, c_sap, c_dce).unwrap();
    assert_eq!(id, 3);

    drop(follower);
    drop(primary);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A primary compaction changes the sealed snapshot identity mid-tail;
/// the follower detects the seal mismatch and re-bootstraps onto the new
/// snapshot without ever dropping its replica from the catalog.
#[test]
fn compaction_forces_a_clean_rebootstrap() {
    let dir = temp_dir("reseal");
    // compact_bytes = 1: every mutation crosses the threshold, so the
    // log re-seals constantly — the worst case for the seal-tracking
    // path, and a hammer for SnapshotChunk re-bootstraps.
    let primary = spawn_primary(&dir, 1);
    let mut owner_client = ServiceClient::connect(primary.local_addr(), None).unwrap();
    owner_client.create_collection(TOKEN, COLL, DIM).unwrap();
    let (data, owner) = make_owner(16, 99);
    for (i, v) in data.iter().take(8).enumerate() {
        let (c_sap, c_dce) = owner.encrypt_for_insert(v, i as u64);
        owner_client.insert_in(COLL, TOKEN, c_sap, c_dce).unwrap();
    }

    let follower = spawn_follower(primary.local_addr());
    await_live(&follower, COLL, 8);

    for (i, v) in data.iter().enumerate().skip(8) {
        let (c_sap, c_dce) = owner.encrypt_for_insert(v, i as u64);
        owner_client.insert_in(COLL, TOKEN, c_sap, c_dce).unwrap();
    }
    await_live(&follower, COLL, 16);

    let mut user = owner.authorize_user();
    let mut fclient = ServiceClient::connect(follower.local_addr(), None).unwrap();
    let out = fclient.search_in(COLL, &user.encrypt_query(&data[10], 2), &params()).unwrap();
    assert_eq!(out.ids[0], 10);

    drop(follower);
    drop(primary);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Replica parity through a re-bootstrap: a follower that bootstrapped,
/// tailed, re-bootstrapped after a primary compaction and tailed again
/// holds the primary's graph exactly (HNSW levels are a function of the
/// seed and the id, not of a generator a restore would reseed), so a
/// narrow beam over a few thousand vectors returns the same ids and the
/// same encrypted distances, bit for bit, on both nodes.
#[test]
fn a_rebootstrapped_follower_answers_exactly_as_its_primary() {
    const PARITY_DIM: usize = 16;
    const N: usize = 2_000;
    const MORE: usize = 200;
    let dir = temp_dir("parity");
    let mut rng = seeded_rng(2024);
    let data: Vec<Vec<f64>> =
        (0..N + 2 * MORE).map(|_| uniform_vec(&mut rng, PARITY_DIM, -1.0, 1.0)).collect();
    let owner = DataOwner::setup(PpAnnParams::new(PARITY_DIM).with_seed(2024), &data[..N]);
    let catalog = Arc::new(Catalog::new());
    catalog
        .create_durable(COLL, owner.outsource(&data[..N]), &dir, DurabilityOptions::default())
        .unwrap();
    let primary = serve_catalog(
        catalog,
        ServiceConfig::loopback().with_owner_token(TOKEN).with_data_dir(&dir),
    )
    .unwrap();
    let mut owner_client = ServiceClient::connect(primary.local_addr(), None).unwrap();
    let mut insert = |range: std::ops::Range<usize>| {
        for i in range {
            let (c_sap, c_dce) = owner.encrypt_for_insert(&data[i], i as u64);
            assert_eq!(owner_client.insert_in(COLL, TOKEN, c_sap, c_dce).unwrap(), i as u32);
        }
    };

    let follower = spawn_follower(primary.local_addr());
    await_live(&follower, COLL, N);
    insert(N..N + MORE);
    await_live(&follower, COLL, N + MORE);
    let first_replica = follower.catalog().get(COLL).unwrap();

    // The compaction re-seals the log: records after it reach the
    // follower only once it has installed the new snapshot.
    assert!(primary.catalog().get(COLL).unwrap().compact().unwrap());
    insert(N + MORE..N + 2 * MORE);
    await_live(&follower, COLL, N + 2 * MORE);
    assert!(
        !Arc::ptr_eq(&first_replica, &follower.catalog().get(COLL).unwrap()),
        "the follower never re-bootstrapped"
    );

    let mut user = owner.authorize_user();
    let mut fclient = ServiceClient::connect(follower.local_addr(), None).unwrap();
    let mut pclient = ServiceClient::connect(primary.local_addr(), None).unwrap();
    let narrow = SearchParams { k_prime: 10, ef_search: 10 };
    for i in 0..120 {
        let q = user.encrypt_query(&uniform_vec(&mut rng, PARITY_DIM, -1.0, 1.0), 10);
        let on_primary = pclient.search_in(COLL, &q, &narrow).unwrap();
        let on_follower = fclient.search_in(COLL, &q, &narrow).unwrap();
        assert_eq!(on_follower.ids, on_primary.ids, "query {i}: ids");
        let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&on_follower.sap_dists),
            bits(&on_primary.sap_dists),
            "query {i}: encrypted distances"
        );
    }

    drop(follower);
    drop(primary);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A collection dropped on the primary disappears from the follower.
#[test]
fn upstream_drop_propagates_to_the_follower() {
    let dir = temp_dir("drop");
    let primary = spawn_primary(&dir, ppann_core::DEFAULT_COMPACT_BYTES);
    let mut owner_client = ServiceClient::connect(primary.local_addr(), None).unwrap();
    owner_client.create_collection(TOKEN, COLL, DIM).unwrap();
    let (data, owner) = make_owner(3, 5);
    for (i, v) in data.iter().enumerate() {
        let (c_sap, c_dce) = owner.encrypt_for_insert(v, i as u64);
        owner_client.insert_in(COLL, TOKEN, c_sap, c_dce).unwrap();
    }
    let follower = spawn_follower(primary.local_addr());
    await_live(&follower, COLL, 3);

    owner_client.drop_collection(TOKEN, COLL).unwrap();
    let deadline = Instant::now() + Duration::from_secs(20);
    while follower.catalog().get(COLL).is_some() {
        assert!(Instant::now() < deadline, "follower never dropped `{COLL}`");
        std::thread::sleep(Duration::from_millis(20));
    }

    drop(follower);
    drop(primary);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The client failover bar from the issue: with the first node hung (TCP
/// accepts, never answers), a `ReplicaSet` read lands on the healthy
/// follower within roughly one call timeout — not the 30s default, and
/// not forever.
#[test]
fn replica_set_reads_fail_over_from_a_hung_node_within_one_timeout() {
    // A "server" that accepts connections and never answers anything —
    // the worst failure mode, indistinguishable from a wedged process.
    let hung = TcpListener::bind("127.0.0.1:0").unwrap();
    let hung_addr = hung.local_addr().unwrap();

    // A healthy single node with a searchable default collection.
    let (data, owner) = make_owner(30, 31);
    let catalog = Catalog::new();
    catalog.create("default", owner.outsource(&data)).unwrap();
    let healthy = serve_catalog(Arc::new(catalog), ServiceConfig::loopback()).unwrap();

    let call_timeout = Duration::from_millis(300);
    let mut set = ReplicaSet::connect_replicas_with_timeout(
        [hung_addr.to_string(), healthy.local_addr().to_string()],
        Some(DIM),
        call_timeout,
    )
    .unwrap();
    assert_eq!(set.len(), 2);
    assert_eq!(set.primary_addr(), hung_addr.to_string());

    let mut user = owner.authorize_user();
    let started = Instant::now();
    let out = set.search(&user.encrypt_query(&data[4], 2), &params()).unwrap();
    let elapsed = started.elapsed();
    assert_eq!(out.ids[0], 4);
    // One hung-node budget (handshake times out at `call_timeout`) plus
    // the healthy exchange; 3× is generous slack for CI.
    assert!(
        elapsed < call_timeout * 3,
        "failover took {elapsed:?}, budget was one {call_timeout:?} timeout"
    );

    // Writes stay pinned to the (hung) primary and surface the failure
    // instead of silently landing on a follower.
    let (c_sap, c_dce) = owner.encrypt_for_insert(&data[0], 1);
    match set.insert_in("default", TOKEN, c_sap, c_dce).unwrap_err() {
        ClientError::Io(_) | ClientError::Protocol(_) => {}
        other => panic!("expected a transport failure on the hung primary, got {other:?}"),
    }

    drop(hung);
}
