//! Crash-injection harness: a real `ppanns-cli serve --data-dir` child
//! process is SIGKILLed at a randomized point while a client churns
//! inserts and deletes against it, then the data directory is reloaded
//! in-process and checked against an oracle built from the mutations
//! the client actually saw acknowledged.
//!
//! The durability contract under test (OPERATIONS.md §9): with
//! `--fsync always`, *every* acknowledged mutation survives the kill —
//! at most one in-flight (sent, never acknowledged) mutation may or may
//! not land, and a torn tail in the log must truncate cleanly on reload,
//! never poison it.
//!
//! Two scenarios: compaction disabled (the log is the only moving file,
//! so the reloaded index must be *bit-identical* to an oracle replaying
//! the same records over the same snapshot) and compaction enabled (the
//! snapshot rewrites underneath the kill window; the live set must match
//! the acked ops, every live insert must be its own nearest neighbor, and
//! the reloaded collection, compacted once more, must write the same
//! snapshot bytes as an oracle applying those ops to the original base).
//!
//! Iterations default to a quick smoke count; CI sets
//! `PPANN_CRASH_ITERS=50` for the full randomized sweep. Failing runs
//! leave their data directory under `CARGO_TARGET_TMPDIR` for artifact
//! upload; successful runs clean up.

use ppanns::core::wal::{replay, snapshot_id, DurabilityOptions, WalRecord};
use ppanns::core::{
    collection_snapshot_bytes, load_snapshot, save_collection_snapshot, Catalog, CloudServer,
    CollectionMeta, DataOwner, PpAnnParams, SearchParams,
};
use ppanns::linalg::{seeded_rng, uniform_vec};
use ppanns::service::ServiceClient;
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::Duration;

const TOKEN: u64 = 7;
const DIM: usize = 4;
const BASE_N: usize = 24;
const COLLECTION: &str = "c";

/// Kill-point sweep width; CI runs the full 50, local smoke runs stay
/// fast.
fn iterations() -> u64 {
    std::env::var("PPANN_CRASH_ITERS").ok().and_then(|v| v.parse().ok()).unwrap_or(6)
}

/// Deterministic per-iteration randomness (no wall clock, so a failing
/// iteration number reproduces exactly).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// One churn mutation as the client saw it.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Op {
    Insert { id: u32, vec_idx: usize },
    Delete { id: u32 },
}

/// What the churn loop records: acknowledged ops in ack order, plus the
/// one op that was sent but never acknowledged when the kill landed.
#[derive(Default)]
struct ChurnLog {
    acked: Vec<Op>,
    in_flight: Option<Op>,
}

fn spawn_server(dir: &Path, fsync: &str, compact_bytes: u64) -> (Child, String, impl BufRead) {
    let bin = env!("CARGO_BIN_EXE_ppanns-cli");
    let mut server = Command::new(bin)
        .args([
            "serve",
            "--data-dir",
            dir.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--token",
            &TOKEN.to_string(),
            "--fsync",
            fsync,
            "--compact-bytes",
            &compact_bytes.to_string(),
        ])
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    let stdout = server.stdout.take().unwrap();
    let mut reader = std::io::BufReader::new(stdout);
    // Recovery lines may precede the serving line after a restart; scan
    // for the line that carries the bound address.
    let addr = loop {
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap() == 0 {
            panic!("server exited before announcing its address");
        }
        if line.starts_with("serving") {
            break line
                .split(" on ")
                .nth(1)
                .and_then(|rest| rest.split_whitespace().next())
                .unwrap_or_else(|| panic!("cannot parse bound address from: {line}"))
                .to_string();
        }
    };
    (server, addr, reader)
}

fn meta() -> CollectionMeta {
    CollectionMeta { name: COLLECTION.into(), shards: 1 }
}

/// Seeds `dir` with a fresh BASE_N-vector collection snapshot; returns
/// the owner and the plaintext vector pool (base + insert candidates).
fn seed_data_dir(dir: &Path, seed: u64) -> (DataOwner, Vec<Vec<f64>>) {
    std::fs::remove_dir_all(dir).ok();
    std::fs::create_dir_all(dir).unwrap();
    let mut rng = seeded_rng(seed);
    let vectors: Vec<Vec<f64>> =
        (0..BASE_N + 4096).map(|_| uniform_vec(&mut rng, DIM, -1.0, 1.0)).collect();
    let base = &vectors[..BASE_N];
    let owner = DataOwner::setup(PpAnnParams::new(DIM).with_seed(seed), base);
    save_collection_snapshot(
        &dir.join(format!("{COLLECTION}.ppdb")),
        &meta(),
        &owner.outsource(base),
    )
    .unwrap();
    (owner, vectors)
}

/// Churns inserts (3:1) and deletes against the server until a call
/// fails — which is how the churn thread learns the kill landed.
fn churn(addr: &str, owner: &DataOwner, vectors: &[Vec<f64>], seed: u64, log: &Mutex<ChurnLog>) {
    // No dim hint: the handshake reports the "default" collection's
    // shape, and this catalog only serves a named collection.
    let Ok(mut client) = ServiceClient::connect(addr, None) else {
        return; // killed before the handshake — nothing was acked
    };
    let mut rng = Lcg(seed);
    let mut live: Vec<u32> = (0..BASE_N as u32).collect();
    let mut next_vec = BASE_N;
    let mut next_id = BASE_N as u32;
    loop {
        let delete = rng.next().is_multiple_of(4) && !live.is_empty();
        let op = if delete {
            Op::Delete { id: live[(rng.next() % live.len() as u64) as usize] }
        } else if next_vec < vectors.len() {
            Op::Insert { id: next_id, vec_idx: next_vec }
        } else {
            return; // candidate pool exhausted (never in practice)
        };
        log.lock().unwrap().in_flight = Some(op);
        let outcome = match op {
            Op::Insert { id, vec_idx } => {
                let (c_sap, c_dce) = owner.encrypt_for_insert(&vectors[vec_idx], seed ^ id as u64);
                client.insert_in(COLLECTION, TOKEN, c_sap, c_dce).map(|got| {
                    assert_eq!(got, id, "server assigned an unexpected id");
                    next_id += 1;
                    next_vec += 1;
                    live.push(id);
                })
            }
            Op::Delete { id } => client.delete_in(COLLECTION, TOKEN, id).map(|()| {
                live.retain(|&l| l != id);
            }),
        };
        match outcome {
            Ok(()) => {
                let mut log = log.lock().unwrap();
                log.in_flight = None;
                log.acked.push(op);
            }
            Err(_) => return, // the kill landed mid-call; op stays in flight
        }
    }
}

/// Runs one kill iteration: seed the dir, boot the server, churn, kill
/// after a pseudo-random delay, and return what was acknowledged.
fn run_kill_iteration(
    dir: &Path,
    owner: &DataOwner,
    vectors: &[Vec<f64>],
    seed: u64,
    fsync: &str,
    compact_bytes: u64,
    max_kill_ms: u64,
) -> ChurnLog {
    let (mut server, addr, _reader) = spawn_server(dir, fsync, compact_bytes);
    let log = Mutex::new(ChurnLog::default());
    let mut rng = Lcg(seed ^ 0x9E37_79B9_7F4A_7C15);
    let kill_after = Duration::from_micros(500 + rng.next() % (max_kill_ms * 1000));
    std::thread::scope(|scope| {
        scope.spawn(|| churn(&addr, owner, vectors, seed, &log));
        std::thread::sleep(kill_after);
        server.kill().unwrap(); // SIGKILL on unix: no destructors, no flush
        server.wait().unwrap();
    });
    log.into_inner().unwrap()
}

/// The liveness state after applying `ops` to the freshly-seeded
/// collection: `expected[id] == true` iff `id` is live.
fn liveness_after(ops: &[Op]) -> Vec<bool> {
    let mut live = vec![true; BASE_N];
    for op in ops {
        match *op {
            Op::Insert { id, .. } => {
                assert_eq!(id as usize, live.len(), "acked ids must be sequential");
                live.push(true);
            }
            Op::Delete { id } => live[id as usize] = false,
        }
    }
    live
}

/// Scenario 1: `--fsync always`, compaction disabled. Every acked
/// mutation must be in the log, the log must extend the acked sequence
/// by at most the one in-flight op, and the reloaded index must be
/// bit-identical to an oracle replaying the same records over the same
/// snapshot.
#[test]
fn sigkill_loses_no_acked_mutation_with_fsync_always() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("crash_fsync_always");
    for iter in 0..iterations() {
        let seed = 1000 + iter;
        let (owner, vectors) = seed_data_dir(&dir, seed);
        let log = run_kill_iteration(&dir, &owner, &vectors, seed, "always", u64::MAX, 60);

        // Compaction never ran, so the snapshot must be untouched and
        // the log must seal to exactly its identity.
        let snapshot_path = dir.join(format!("{COLLECTION}.ppdb"));
        let snap_bytes = std::fs::read(&snapshot_path).unwrap();
        let wal_bytes = std::fs::read(dir.join(format!("{COLLECTION}.wal"))).unwrap();
        let out = replay(&wal_bytes, snapshot_id(&snap_bytes));
        assert!(!out.stale, "iter {iter}: log sealed to a different snapshot");

        // Acked ops form a prefix of the log; at most the in-flight op
        // may follow it.
        let acked = &log.acked;
        assert!(
            out.records.len() >= acked.len(),
            "iter {iter}: {} acked mutations but only {} on disk — an acked write was lost",
            acked.len(),
            out.records.len()
        );
        assert!(
            out.records.len() <= acked.len() + 1,
            "iter {iter}: more unacked records than the single in-flight op can explain"
        );
        for (i, (record, _)) in out.records.iter().enumerate() {
            let expect = if i < acked.len() {
                acked[i]
            } else {
                log.in_flight.unwrap_or_else(|| {
                    panic!("iter {iter}: extra record {i} with nothing in flight")
                })
            };
            match (record, expect) {
                (WalRecord::Insert { id, .. }, Op::Insert { id: want, .. }) if *id == want => {}
                (WalRecord::Delete { id }, Op::Delete { id: want }) if *id == want => {}
                other => panic!("iter {iter}: record {i} mismatch: {other:?}"),
            }
        }

        // Oracle: the same records applied to the same snapshot through
        // the plain in-memory server must yield a bit-identical index.
        let (_, db) = load_snapshot(&snapshot_path).unwrap();
        let mut oracle = CloudServer::new(db);
        for (record, _) in &out.records {
            match record {
                WalRecord::Insert { id, c_sap, c_dce } => {
                    assert_eq!(oracle.insert(c_sap.clone(), c_dce.clone()), *id);
                }
                WalRecord::Delete { id } => oracle.delete(*id),
                WalRecord::Checkpoint { .. } => unreachable!("replay strips the checkpoint"),
            }
        }

        let (catalog, reports) =
            Catalog::load_dir_durable(&dir, DurabilityOptions::default()).unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].replayed, out.records.len(), "iter {iter}");
        let coll = catalog.get(COLLECTION).unwrap();

        let mut user = owner.authorize_user();
        let params = SearchParams { k_prime: 12, ef_search: 24 };
        for probe in 0..6usize {
            let q = user.encrypt_query(&vectors[probe * 3], 3);
            let want = oracle.search(&q, &params);
            let got = coll.search(&q, &params);
            assert_eq!(got.ids, want.ids, "iter {iter} probe {probe}");
            let want_bits: Vec<u64> = want.sap_dists.iter().map(|d| d.to_bits()).collect();
            let got_bits: Vec<u64> = got.sap_dists.iter().map(|d| d.to_bits()).collect();
            assert_eq!(got_bits, want_bits, "iter {iter} probe {probe}: encrypted distances");
        }
        eprintln!(
            "crash iter {iter}: {} acked, {} logged, in-flight {:?}",
            acked.len(),
            out.records.len(),
            log.in_flight
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Scenario 2: a tiny compaction threshold, so the snapshot itself is
/// rewritten (and the log resealed) underneath the kill window. The
/// reloaded state must match the acked ops — with the in-flight op
/// optionally applied — by live-set, and every live insert must still
/// be findable as its own nearest neighbor.
#[test]
fn sigkill_with_compaction_preserves_every_acked_mutation() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("crash_compaction");
    for iter in 0..iterations() {
        let seed = 5000 + iter;
        let (owner, vectors) = seed_data_dir(&dir, seed);
        let log = run_kill_iteration(&dir, &owner, &vectors, seed, "always", 2048, 90);

        let (catalog, reports) =
            Catalog::load_dir_durable(&dir, DurabilityOptions::default()).unwrap();
        let coll = catalog.get(COLLECTION).unwrap();

        // The state must be the acked sequence, or the acked sequence
        // plus the single in-flight op.
        let mut histories = vec![log.acked.clone()];
        if let Some(op) = log.in_flight {
            histories.push([&log.acked[..], &[op]].concat());
        }
        let candidates: Vec<Vec<bool>> = histories.iter().map(|ops| liveness_after(ops)).collect();
        let got: Vec<bool> = (0..coll.slots()).map(|id| coll.is_live(id as u32)).collect();
        let Some(matched) = candidates.iter().position(|c| *c == got) else {
            panic!(
                "iter {iter}: reloaded live-set matches neither acked nor acked+in-flight:\n\
                 got      {got:?}\nacked    {:?}\nin-flight {:?}",
                candidates[0], log.in_flight,
            );
        };

        // The graph is a function of its parameters and its history, so
        // the matched ops applied to the original base give the same index
        // however many compactions and restarts lay between them: the
        // reloaded collection, compacted now, writes the oracle's bytes.
        let mut oracle = CloudServer::new(owner.outsource(&vectors[..BASE_N]));
        for op in &histories[matched] {
            match *op {
                Op::Insert { id, vec_idx } => {
                    let (c_sap, c_dce) =
                        owner.encrypt_for_insert(&vectors[vec_idx], seed ^ id as u64);
                    assert_eq!(oracle.insert(c_sap, c_dce), id);
                }
                Op::Delete { id } => oracle.delete(id),
            }
        }
        assert!(coll.compact().unwrap());
        let compacted = std::fs::read(dir.join(format!("{COLLECTION}.ppdb"))).unwrap();
        assert!(
            compacted == collection_snapshot_bytes(&meta(), oracle.database()),
            "iter {iter}: compacted snapshot differs from the oracle's"
        );

        // Every acked-inserted, still-live vector answers as its own
        // nearest neighbor through the reloaded (compacted) index.
        let mut user = owner.authorize_user();
        let params = SearchParams { k_prime: 12, ef_search: 24 };
        for op in &log.acked {
            if let Op::Insert { id, vec_idx } = *op {
                if got[id as usize] {
                    let q = user.encrypt_query(&vectors[vec_idx], 1);
                    let out = coll.search(&q, &params);
                    assert_eq!(
                        out.ids[0], id,
                        "iter {iter}: acked insert {id} no longer its own 1-NN after reload"
                    );
                }
            }
        }
        // `replayed < acked` is the tell that the child compacted (the
        // snapshot absorbed the head of the log) before it died.
        eprintln!(
            "compaction iter {iter}: {} acked, {} replayed on reload",
            log.acked.len(),
            reports[0].replayed,
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
