//! Integration tests for index maintenance (Section V-D) combined with
//! persistence: churn the index, snapshot it, restore it, keep querying.

use ppanns::core::{CloudServer, DataOwner, EncryptedDatabase, PpAnnParams, SearchParams};
use ppanns::datasets::{DatasetProfile, Workload};

#[test]
fn churn_then_snapshot_then_query() {
    let w = Workload::generate(DatasetProfile::DeepLike, 600, 8, 61);
    let k = 5;
    let owner = DataOwner::setup(PpAnnParams::new(w.dim()).with_beta(0.5).with_seed(7), w.base());
    let mut server = CloudServer::new(owner.outsource(w.base()));

    // Churn: delete every 10th vector, insert 30 fresh ones.
    for id in (0..600u32).step_by(10) {
        server.delete(id);
    }
    for i in 0..30u64 {
        let v = w.base()[(i as usize * 7) % w.base().len()].clone();
        let (c_sap, c_dce) = owner.encrypt_for_insert(&v, i);
        server.insert(c_sap, c_dce);
    }
    assert_eq!(server.len(), 600 - 60 + 30);

    // Snapshot + restore.
    let db = server.into_database();
    let restored = EncryptedDatabase::from_bytes(db.to_bytes()).expect("roundtrip");
    assert_eq!(restored.len(), 570);
    let server_a = CloudServer::new(db);
    let server_b = CloudServer::new(restored);

    let mut user = owner.authorize_user();
    for q in w.queries() {
        let enc = user.encrypt_query(q, k);
        let params = SearchParams::from_ratio(k, 8, 80);
        let a = server_a.search(&enc, &params);
        let b = server_b.search(&enc, &params);
        assert_eq!(a.ids, b.ids);
        assert!(a.ids.iter().all(|id| id % 10 != 0 || *id >= 600));
    }
}

#[test]
fn insert_into_empty_database() {
    let owner = DataOwner::setup(PpAnnParams::new(4).with_seed(8), &[vec![1.0, 2.0, 3.0, 4.0]]);
    let mut server = CloudServer::new(owner.outsource(&[]));
    assert!(server.is_empty());
    let (c_sap, c_dce) = owner.encrypt_for_insert(&[0.5, 0.5, 0.5, 0.5], 0);
    let id = server.insert(c_sap, c_dce);
    let mut user = owner.authorize_user();
    let out = server
        .search(&user.encrypt_query(&[0.5, 0.5, 0.5, 0.5], 1), &SearchParams::from_ratio(1, 4, 10));
    assert_eq!(out.ids, vec![id]);
}

#[test]
fn delete_everything_then_search_safely() {
    let data: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64, 0.0]).collect();
    let owner = DataOwner::setup(PpAnnParams::new(2).with_seed(9), &data);
    let mut server = CloudServer::new(owner.outsource(&data));
    for id in 0..20u32 {
        server.delete(id);
    }
    assert!(server.is_empty());
    let mut user = owner.authorize_user();
    let out =
        server.search(&user.encrypt_query(&[1.0, 1.0], 3), &SearchParams::from_ratio(3, 4, 10));
    assert!(out.ids.is_empty());
}

/// Restart cost after heavy churn is log-bounded: automatic compaction
/// keeps the write-ahead log near its byte threshold, so a reload
/// replays only the short post-compaction suffix — not the full
/// mutation history — and still restores the exact live set.
#[test]
fn heavy_churn_keeps_the_wal_bounded_and_restart_log_bounded() {
    use ppanns::core::{Catalog, DurabilityOptions, FsyncPolicy};

    let dir = std::env::temp_dir().join(format!("ppanns_wal_bounded_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    let w = Workload::generate(DatasetProfile::DeepLike, 40, 4, 71);
    let owner = DataOwner::setup(PpAnnParams::new(w.dim()).with_seed(17), w.base());
    const COMPACT: u64 = 2 * 1024;
    let opts = DurabilityOptions { fsync: FsyncPolicy::Never, compact_bytes: COMPACT };

    const OPS: usize = 120;
    let mut vectors: Vec<Vec<f64>> = w.base().to_vec();
    let mut live: Vec<bool> = vec![true; vectors.len()];
    {
        let catalog = Catalog::new();
        let coll = catalog.create_durable("c", owner.outsource(w.base()), &dir, opts).unwrap();
        for i in 0..OPS {
            if i % 3 == 2 {
                // Delete the oldest still-live id.
                let victim = live.iter().position(|&a| a).unwrap() as u32;
                assert!(coll.try_delete(victim).unwrap());
                live[victim as usize] = false;
            } else {
                let v: Vec<f64> =
                    w.base()[i % w.base().len()].iter().map(|x| x + 0.01 * i as f64).collect();
                let (c_sap, c_dce) = owner.encrypt_for_insert(&v, 1000 + i as u64);
                let id = coll.insert(c_sap, c_dce).unwrap();
                assert_eq!(id as usize, vectors.len());
                vectors.push(v);
                live.push(true);
            }
        }
        let status = coll.wal_status().unwrap();
        assert!(status.compactions > 0, "churn never crossed the compaction threshold");
        assert!(
            status.log_bytes < COMPACT + 2048,
            "log grew unboundedly: {} bytes",
            status.log_bytes
        );
    }

    // Restart: only the post-compaction suffix is replayed.
    let (catalog, reports) = Catalog::load_dir_durable(&dir, opts).unwrap();
    assert_eq!(reports.len(), 1);
    assert!(!reports[0].discarded);
    assert_eq!(reports[0].truncated_bytes, 0);
    assert!(
        reports[0].replayed < OPS / 4,
        "reload replayed {} of {OPS} ops — restart is not log-bounded",
        reports[0].replayed
    );

    // The restored collection is exactly the churned live set.
    let coll = catalog.get("c").unwrap();
    assert_eq!(coll.slots(), vectors.len());
    assert_eq!(coll.live_len(), live.iter().filter(|&&a| a).count());
    for (id, &alive) in live.iter().enumerate() {
        assert_eq!(coll.is_live(id as u32), alive, "id {id} liveness diverged after restart");
    }
    let mut user = owner.authorize_user();
    for id in (0..vectors.len()).filter(|&id| live[id]).step_by(9) {
        let q = user.encrypt_query(&vectors[id], 1);
        let out = coll.search(&q, &SearchParams { k_prime: 10, ef_search: 32 });
        assert_eq!(out.ids[0], id as u32, "vector {id} is not its own nearest neighbor");
    }
    std::fs::remove_dir_all(&dir).ok();
}
