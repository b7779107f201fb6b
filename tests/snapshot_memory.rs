//! Memory gate for snapshot I/O (DESIGN.md §5).
//!
//! The server holds the whole encrypted index, so the peak of a load or a
//! compaction, not the working set, decides how large a collection fits.
//! The codec streams: a load parses the file through one fixed buffer
//! into the live database and seals it in the same pass, and compaction
//! streams the database into the file it publishes. This test measures
//! both with a counting global allocator over a ≥ 32 MB snapshot:
//!
//! - a load peaks at ≤ 1.15× the bytes the loaded collection keeps;
//! - a compaction's transient peak is ≤ 0.05× the image it writes;
//! - the compaction-written file equals `collection_snapshot_bytes` of
//!   the same database, and its seal is that image's identity;
//! - a reader that returns one byte per `read` loads the same database.
//!
//! All phases live in ONE `#[test]` so the harness cannot run another
//! test's allocations into the global counters.

use ppanns::core::wal::snapshot_id;
use ppanns::core::{
    collection_snapshot_bytes, read_snapshot, save_collection_snapshot, Catalog, CollectionMeta,
    DurabilityOptions, EncryptedDatabase, FsyncPolicy,
};
use ppanns::dce::DceCiphertext;
use ppanns::hnsw::{Hnsw, HnswParams};
use ppanns::linalg::{seeded_rng, uniform_vec};
use std::io::Read;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{peak_above_start, CountingAlloc};

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

const N: usize = 4000;
/// SIFT's dimension, so the rows have the shape a load accepts.
const DIM: usize = 128;
/// A SIFT-sized DCE component (`ciphertext_dim(128)` = `2·128 + 16`):
/// 8.7 KB of ciphertext per row, so 4000 rows make a ~39 MB snapshot.
const COMP_DIM: usize = 272;

/// A synthetic DCE row: the codec never looks inside a ciphertext, so
/// any finite values do.
fn dce_row(i: usize) -> DceCiphertext {
    let comp = |k: f64| (0..COMP_DIM).map(|j| (i * COMP_DIM + j) as f64 * k).collect();
    DceCiphertext::from_components(comp(1.0), comp(-0.5), comp(0.25), comp(2.0))
}

/// A reader that hands out one byte per `read` call.
struct OneByte<'a>(&'a [u8]);

impl Read for OneByte<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match (buf.first_mut(), self.0.split_first()) {
            (Some(dst), Some((&b, rest))) => {
                *dst = b;
                self.0 = rest;
                Ok(1)
            }
            _ => Ok(0),
        }
    }
}

#[test]
fn snapshot_load_and_compaction_hold_one_copy() {
    let dir = std::env::temp_dir().join(format!("ppanns_snapshot_memory_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("big.ppdb");
    let meta = CollectionMeta { name: "big".into(), shards: 1 };

    // A small construction beam keeps the debug build quick; the graph is
    // a real one all the same.
    let mut rng = seeded_rng(0x5A0);
    let pts: Vec<Vec<f64>> = (0..N).map(|_| uniform_vec(&mut rng, DIM, -1.0, 1.0)).collect();
    let params = HnswParams { ef_construction: 16, ..HnswParams::default() };
    let db = EncryptedDatabase::new(Hnsw::build(DIM, params, &pts), (0..N).map(dce_row).collect());
    save_collection_snapshot(&path, &meta, &db).unwrap();
    drop(db);
    let image = std::fs::read(&path).unwrap();
    assert!(image.len() >= 32 << 20, "snapshot of {} bytes is too small to gate", image.len());

    // Load: the server's path, snapshot plus a fresh sealed log.
    let opts = DurabilityOptions { fsync: FsyncPolicy::Never, compact_bytes: u64::MAX };
    let (peak, kept, loaded) = peak_above_start(|| Catalog::load_dir_durable(&dir, opts).unwrap());
    let (catalog, _) = loaded;
    eprintln!(
        "load: image {} B, kept {kept} B, peak {peak} B ({:.3}× kept)",
        image.len(),
        peak as f64 / kept as f64
    );
    assert!(kept as f64 >= 0.9 * image.len() as f64, "the load kept only {kept} bytes");
    assert!(
        peak as f64 <= 1.15 * kept as f64,
        "load peaked at {peak} bytes over the {kept} it keeps (bound 1.15×)"
    );

    // One byte per read decodes the same database.
    let (back_meta, mut mirror) = read_snapshot(&mut OneByte(&image), image.len() as u64).unwrap();
    assert_eq!(back_meta.as_ref(), Some(&meta));
    assert!(
        collection_snapshot_bytes(&meta, &mirror) == image,
        "one-byte reads decoded another database"
    );
    drop(image);

    // Compaction after a few inserts, mirrored on the in-memory copy.
    let coll = catalog.get("big").unwrap();
    for i in 0..8 {
        let sap = uniform_vec(&mut rng, DIM, -1.0, 1.0);
        let id = coll.insert(sap.clone(), dce_row(N + i)).unwrap();
        assert_eq!(mirror.insert(sap, dce_row(N + i)), id);
    }
    let expected = collection_snapshot_bytes(&meta, &mirror);
    let (peak, _, compacted) = peak_above_start(|| coll.compact().unwrap());
    assert!(compacted);
    eprintln!(
        "compaction: image {} B, transient peak {peak} B ({:.4}× image)",
        expected.len(),
        peak as f64 / expected.len() as f64
    );
    assert!(
        peak as f64 <= 0.05 * expected.len() as f64,
        "compaction peaked {peak} bytes above the live set (bound 0.05× the image)"
    );
    assert!(std::fs::read(&path).unwrap() == expected, "compaction wrote another image");
    let source = coll.replication_source().unwrap();
    assert_eq!(source.seal, snapshot_id(&expected), "compaction sealed other bytes");

    drop((coll, catalog));
    std::fs::remove_dir_all(&dir).ok();
}
