//! Binary persistence of the encrypted database (server snapshots).
//!
//! Two container versions, both little endian and hand-rolled over
//! `bytes` (see DESIGN.md §5 for why no serialization crate is used):
//!
//! **v1** — one anonymous single-index database, what
//! [`EncryptedDatabase::to_bytes`] writes and `ppanns-cli outsource`
//! produces:
//!
//! ```text
//! magic "PPDB" | version=1 u32 | hnsw_len u64 | hnsw snapshot bytes
//! | n_dce u64 | component_dim u64 | 4·dim f64 per ciphertext
//! ```
//!
//! **v2** — one *named collection*: catalog metadata wrapped around the
//! complete v1 image, what a multi-collection `--data-dir` deployment
//! stores one file per collection of:
//!
//! ```text
//! magic "PPDB" | version=2 u32 | name_len u16 | name (UTF-8)
//! | shards u16 | inner_len u64 | complete v1 snapshot bytes
//! ```
//!
//! `shards` is retired: it is written as 1 and ignored on load once it
//! passes the range check ([`CollectionMeta::shards`]).
//!
//! [`load_snapshot`] reads either: a v1 file loads as an anonymous
//! database (the catalog layer wraps it as collection `"default"`, or
//! names it after its file stem in a `--data-dir`), so every `db.bin`
//! written before collections existed keeps working. The
//! `v1_*`-prefixed tests below pin the v1 byte layout so the container
//! cannot drift under existing snapshots.

use crate::index::EncryptedDatabase;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use ppann_dce::DceCiphertext;
use ppann_hnsw::Hnsw;
use std::io::{Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"PPDB";
const VERSION: u32 = 1;
const VERSION_COLLECTION: u32 = 2;

/// File extension of collection snapshots discovered by a `--data-dir`
/// deployment (`<name>.ppdb`).
pub const SNAPSHOT_EXT: &str = "ppdb";

/// Persistence failures.
#[derive(Debug)]
pub enum PersistError {
    /// Bad magic/version or inconsistent lengths.
    Corrupt(String),
    /// Underlying IO failure.
    Io(std::io::Error),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
            PersistError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}
impl std::error::Error for PersistError {}
impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl EncryptedDatabase {
    /// Serializes the full encrypted database.
    pub fn to_bytes(&self) -> Bytes {
        let hnsw_bytes = self.hnsw().to_bytes();
        let dce = self.dce_ciphertexts();
        let comp_dim = dce.first().map_or(0, |c| c.component_dim());
        let mut buf = BytesMut::with_capacity(32 + hnsw_bytes.len() + dce.len() * comp_dim * 4 * 8);
        buf.put_slice(MAGIC);
        buf.put_u32_le(VERSION);
        buf.put_u64_le(hnsw_bytes.len() as u64);
        buf.put_slice(&hnsw_bytes);
        buf.put_u64_le(dce.len() as u64);
        buf.put_u64_le(comp_dim as u64);
        for ct in dce {
            for comp in ct.components() {
                for v in comp {
                    buf.put_f64_le(*v);
                }
            }
        }
        buf.freeze()
    }

    /// Restores a database serialized by [`Self::to_bytes`].
    pub fn from_bytes(mut data: Bytes) -> Result<Self, PersistError> {
        let err = |msg: &str| PersistError::Corrupt(msg.to_string());
        if data.remaining() < 8 || &data.copy_to_bytes(4)[..] != MAGIC {
            return Err(err("bad magic"));
        }
        if data.get_u32_le() != VERSION {
            return Err(err("unsupported version"));
        }
        if data.remaining() < 8 {
            return Err(err("truncated header"));
        }
        let hnsw_len = data.get_u64_le() as usize;
        if data.remaining() < hnsw_len {
            return Err(err("truncated index"));
        }
        let hnsw = Hnsw::from_bytes(data.copy_to_bytes(hnsw_len))
            .map_err(|e| err(&format!("hnsw: {e}")))?;
        if data.remaining() < 16 {
            return Err(err("truncated ciphertext header"));
        }
        let n = data.get_u64_le() as usize;
        let comp_dim = data.get_u64_le() as usize;
        let bytes = n
            .checked_mul(comp_dim)
            .and_then(|f| f.checked_mul(4 * 8))
            .ok_or_else(|| err("ciphertext count × dimension overflows"))?;
        if data.remaining() < bytes {
            return Err(err("truncated ciphertexts"));
        }
        let mut dce = Vec::with_capacity(n);
        for _ in 0..n {
            let mut comps: [Vec<f64>; 4] = Default::default();
            for comp in &mut comps {
                comp.reserve(comp_dim);
                for _ in 0..comp_dim {
                    comp.push(data.get_f64_le());
                }
            }
            let [a, b, c, d] = comps;
            dce.push(DceCiphertext::from_components(a, b, c, d));
        }
        if hnsw.capacity_slots() != dce.len() {
            return Err(err("index/ciphertext misalignment"));
        }
        Ok(EncryptedDatabase::new(hnsw, dce))
    }

    /// Writes the snapshot to a file (atomically — see [`atomic_write`]).
    pub fn save_to(&self, path: &Path) -> Result<(), PersistError> {
        atomic_write(path, &self.to_bytes())
    }

    /// Loads a snapshot from a file.
    pub fn load_from(path: &Path) -> Result<Self, PersistError> {
        let mut buf = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut buf)?;
        Self::from_bytes(Bytes::from(buf))
    }
}

/// Catalog metadata a v2 collection snapshot carries around its database
/// image.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CollectionMeta {
    /// Collection name (must satisfy
    /// [`validate_collection_name`](crate::catalog::validate_collection_name)).
    pub name: String,
    /// Retired shard count, kept for byte compatibility: new snapshots
    /// write 1, and any value in `1..=`[`MAX_SHARDS`](crate::catalog::MAX_SHARDS)
    /// loads as one single-index collection (the inner image is always
    /// the whole database).
    pub shards: u16,
}

/// Serializes one named collection as a v2 `PPDB` container: metadata
/// header, then the complete v1 image of `db`.
pub fn collection_snapshot_bytes(meta: &CollectionMeta, db: &EncryptedDatabase) -> Bytes {
    collection_container_bytes(meta, &db.to_bytes())
}

/// [`collection_snapshot_bytes`] over a pre-serialized v1 database
/// image — what WAL compaction uses, which serializes the collection's
/// server under its shared lock rather than owning an
/// [`EncryptedDatabase`].
pub fn collection_container_bytes(meta: &CollectionMeta, inner: &[u8]) -> Bytes {
    let name = meta.name.as_bytes();
    assert!(name.len() <= u16::MAX as usize, "collection name too long to snapshot");
    let mut buf = BytesMut::with_capacity(8 + 2 + name.len() + 2 + 8 + inner.len());
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION_COLLECTION);
    buf.put_u16_le(name.len() as u16);
    buf.put_slice(name);
    buf.put_u16_le(meta.shards);
    buf.put_u64_le(inner.len() as u64);
    buf.put_slice(inner);
    buf.freeze()
}

/// Writes a v2 collection snapshot to `path` (atomically — see
/// [`atomic_write`]).
pub fn save_collection_snapshot(
    path: &Path,
    meta: &CollectionMeta,
    db: &EncryptedDatabase,
) -> Result<(), PersistError> {
    atomic_write(path, &collection_snapshot_bytes(meta, db))
}

/// Replaces the file at `path` with `bytes` atomically: the image is
/// written to `<file>.tmp` in the same directory, flushed and fsynced,
/// renamed over `path`, and the directory fsynced. A crash at any
/// instant leaves either the previous file or the complete new one —
/// never a half-written snapshot destroying the last good state (the
/// in-place `File::create` this replaces truncated the old snapshot
/// before the first new byte landed). Leftover `.tmp` files from a
/// crashed attempt are invisible to `Catalog::load_dir` (which filters
/// on the `.ppdb` extension) and simply overwritten next time.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    let tmp = crate::wal::tmp_sibling(path);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        crate::wal::sync_dir(dir)?;
    }
    Ok(())
}

/// Decodes either container version: a v2 snapshot yields its embedded
/// [`CollectionMeta`]; a v1 snapshot yields `None` (anonymous database —
/// the caller decides the collection name, `"default"` for a single
/// `--db` file or the file stem in a `--data-dir`).
pub fn load_snapshot_bytes(
    mut data: Bytes,
) -> Result<(Option<CollectionMeta>, EncryptedDatabase), PersistError> {
    let err = |msg: &str| PersistError::Corrupt(msg.to_string());
    if data.remaining() < 8 {
        return Err(err("truncated header"));
    }
    // Peek magic + version without consuming: v1 parsing re-reads both.
    if &data[..4] != MAGIC {
        return Err(err("bad magic"));
    }
    let version = u32::from_le_bytes([data[4], data[5], data[6], data[7]]);
    match version {
        VERSION => Ok((None, EncryptedDatabase::from_bytes(data)?)),
        VERSION_COLLECTION => {
            data.advance(8);
            if data.remaining() < 2 {
                return Err(err("truncated collection name length"));
            }
            let name_len = data.get_u16_le() as usize;
            if data.remaining() < name_len {
                return Err(err("truncated collection name"));
            }
            let name = String::from_utf8(data.copy_to_bytes(name_len).to_vec())
                .map_err(|_| err("collection name is not UTF-8"))?;
            if data.remaining() < 10 {
                return Err(err("truncated collection header"));
            }
            let shards = data.get_u16_le();
            let inner_len = data.get_u64_le() as usize;
            if data.remaining() != inner_len {
                return Err(err("collection payload length mismatch"));
            }
            let db = EncryptedDatabase::from_bytes(data)?;
            Ok((Some(CollectionMeta { name, shards }), db))
        }
        _ => Err(err("unsupported version")),
    }
}

/// Loads either container version from a file (see [`load_snapshot_bytes`]).
pub fn load_snapshot(
    path: &Path,
) -> Result<(Option<CollectionMeta>, EncryptedDatabase), PersistError> {
    let mut buf = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut buf)?;
    load_snapshot_bytes(Bytes::from(buf))
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::owner::{DataOwner, PpAnnParams};
    use crate::server::{CloudServer, SearchParams};
    use ppann_linalg::{seeded_rng, uniform_vec};

    #[test]
    fn roundtrip_preserves_search_results() {
        let mut rng = seeded_rng(171);
        let data: Vec<Vec<f64>> = (0..120).map(|_| uniform_vec(&mut rng, 6, -1.0, 1.0)).collect();
        let owner = DataOwner::setup(PpAnnParams::new(6).with_seed(3), &data);
        let db = owner.outsource(&data);
        let bytes = db.to_bytes();
        let restored = EncryptedDatabase::from_bytes(bytes).unwrap();

        let server_a = CloudServer::new(db);
        let server_b = CloudServer::new(restored);
        let mut user = owner.authorize_user();
        for i in 0..5 {
            let q = user.encrypt_query(&data[i], 5);
            let p = SearchParams { k_prime: 20, ef_search: 40 };
            assert_eq!(server_a.search(&q, &p).ids, server_b.search(&q, &p).ids);
        }
    }

    #[test]
    fn file_roundtrip() {
        let mut rng = seeded_rng(172);
        let data: Vec<Vec<f64>> = (0..30).map(|_| uniform_vec(&mut rng, 4, -1.0, 1.0)).collect();
        let owner = DataOwner::setup(PpAnnParams::new(4), &data);
        let db = owner.outsource(&data);
        let path = std::env::temp_dir().join("ppanns_persist_test.bin");
        db.save_to(&path).unwrap();
        let restored = EncryptedDatabase::load_from(&path).unwrap();
        assert_eq!(restored.len(), 30);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn garbage_rejected() {
        assert!(EncryptedDatabase::from_bytes(Bytes::from_static(b"garbage!")).is_err());
        assert!(load_snapshot_bytes(Bytes::from_static(b"garbage!")).is_err());
    }

    /// A ciphertext section whose `n × comp_dim × 32` wraps `usize` must
    /// be refused, not wrap to a small size that passes the length check.
    #[test]
    fn ciphertext_size_overflow_rejected() {
        let mut bytes = EncryptedDatabase::empty(2).to_bytes().to_vec();
        let at = bytes.len() - 16;
        bytes[at..at + 8].copy_from_slice(&(1u64 << 62).to_le_bytes());
        bytes[at + 8..].copy_from_slice(&(1u64 << 4).to_le_bytes());
        match EncryptedDatabase::from_bytes(Bytes::from(bytes)) {
            Err(PersistError::Corrupt(msg)) => assert!(msg.contains("overflows"), "{msg}"),
            other => panic!("expected Corrupt, got {:?}", other.map(|_| "a database")),
        }
    }

    /// Byte-for-byte pin of the v1 container: the expected image is built
    /// here field by field, independently of the production writer, so any
    /// drift in the layout (field order, widths, endianness, the header)
    /// fails this test before it can orphan existing `db.bin` snapshots.
    #[test]
    fn v1_layout_is_pinned() {
        let db = EncryptedDatabase::empty(2);
        let bytes = db.to_bytes();

        let mut expect = BytesMut::new();
        expect.put_slice(b"PPDB"); // magic
        expect.put_u32_le(1); // container version
        expect.put_u64_le(74); // hnsw snapshot length (below)
                               // Embedded HNSW snapshot of an empty dim-2 index, default params.
        expect.put_slice(b"HNSW"); // index magic
        expect.put_u32_le(1); // index version
        expect.put_u64_le(2); // dim
        expect.put_u64_le(16); // params.m
        expect.put_u64_le(32); // params.m0
        expect.put_u64_le(200); // params.ef_construction
        expect.put_u8(0); // params.extend_candidates
        expect.put_u8(1); // params.keep_pruned
        expect.put_u64_le(0x5EED); // params.seed
        expect.put_u64_le(u64::MAX); // entry point: none
        expect.put_u64_le(0); // live count
        expect.put_u64_le(0); // node count
                              // Back at the container: the DCE ciphertext section.
        expect.put_u64_le(0); // n_dce
        expect.put_u64_le(0); // component_dim

        assert_eq!(bytes.as_slice(), expect.freeze().as_slice(), "v1 byte layout drifted");
    }

    /// The v1 container of a *populated* database is pinned structurally:
    /// every header field, section length and trailing ciphertext byte is
    /// re-derived here from the database contents and checked against the
    /// produced image.
    #[test]
    fn v1_populated_layout_accounts_for_every_byte() {
        let mut rng = seeded_rng(174);
        let data: Vec<Vec<f64>> = (0..20).map(|_| uniform_vec(&mut rng, 3, -1.0, 1.0)).collect();
        let owner = DataOwner::setup(PpAnnParams::new(3).with_seed(9), &data);
        let db = owner.outsource(&data);
        let bytes = db.to_bytes().to_vec();

        assert_eq!(&bytes[..4], b"PPDB");
        assert_eq!(u32::from_le_bytes(bytes[4..8].try_into().unwrap()), 1);
        let hnsw_len = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
        let hnsw_end = 16 + hnsw_len;
        assert_eq!(db.hnsw().to_bytes().as_slice(), &bytes[16..hnsw_end], "index section");
        let n = u64::from_le_bytes(bytes[hnsw_end..hnsw_end + 8].try_into().unwrap()) as usize;
        assert_eq!(n, db.dce_ciphertexts().len());
        let comp_dim =
            u64::from_le_bytes(bytes[hnsw_end + 8..hnsw_end + 16].try_into().unwrap()) as usize;
        assert_eq!(comp_dim, db.dce_ciphertexts()[0].component_dim());
        // The ciphertext section is exactly n × 4 components × comp_dim
        // little-endian f64s, then the container ends.
        let mut off = hnsw_end + 16;
        for ct in db.dce_ciphertexts() {
            for comp in ct.components() {
                for v in comp {
                    let got = f64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
                    assert_eq!(got.to_bits(), v.to_bits());
                    off += 8;
                }
            }
        }
        assert_eq!(off, bytes.len(), "unaccounted trailing bytes in the v1 container");
    }

    /// A v1 snapshot loads through the collection-aware entry point as an
    /// anonymous database (no embedded metadata) with identical answers —
    /// the auto-wrap-as-`"default"` back-compat contract.
    #[test]
    fn v1_snapshot_loads_as_anonymous_database() {
        let mut rng = seeded_rng(175);
        let data: Vec<Vec<f64>> = (0..80).map(|_| uniform_vec(&mut rng, 4, -1.0, 1.0)).collect();
        let owner = DataOwner::setup(PpAnnParams::new(4).with_seed(6), &data);
        let db = owner.outsource(&data);
        let (meta, restored) = load_snapshot_bytes(db.to_bytes()).unwrap();
        assert_eq!(meta, None, "v1 snapshots carry no collection metadata");
        let a = CloudServer::new(db);
        let b = CloudServer::new(restored);
        let mut user = owner.authorize_user();
        for i in 0..5 {
            let q = user.encrypt_query(&data[i], 3);
            let p = SearchParams { k_prime: 12, ef_search: 24 };
            assert_eq!(a.search(&q, &p).ids, b.search(&q, &p).ids);
        }
    }

    #[test]
    fn v2_collection_snapshot_roundtrip() {
        let mut rng = seeded_rng(176);
        let data: Vec<Vec<f64>> = (0..40).map(|_| uniform_vec(&mut rng, 5, -1.0, 1.0)).collect();
        let owner = DataOwner::setup(PpAnnParams::new(5).with_seed(8), &data);
        let db = owner.outsource(&data);
        let meta = CollectionMeta { name: "products".into(), shards: 3 };
        let bytes = collection_snapshot_bytes(&meta, &db);
        // v2 header: magic, version 2, then the metadata fields.
        assert_eq!(&bytes[..4], b"PPDB");
        assert_eq!(u32::from_le_bytes(bytes[4..8].try_into().unwrap()), 2);
        let (back_meta, back_db) = load_snapshot_bytes(bytes).unwrap();
        assert_eq!(back_meta, Some(meta.clone()));
        assert_eq!(back_db.len(), 40);

        // File roundtrip too.
        let path = std::env::temp_dir().join("ppanns_v2_snapshot_test.ppdb");
        save_collection_snapshot(&path, &meta, &db).unwrap();
        let (file_meta, file_db) = load_snapshot(&path).unwrap();
        assert_eq!(file_meta, Some(meta));
        assert_eq!(file_db.len(), 40);
        std::fs::remove_file(&path).ok();
    }

    /// Regression for the in-place snapshot write: rewriting an
    /// existing snapshot must go through write-to-temp + rename, so a
    /// failed (or crashed) rewrite can never destroy the previous good
    /// snapshot. The failure is injected by blocking the temp path with
    /// a directory — `File::create` fails before a single byte of the
    /// old snapshot could have been touched.
    #[test]
    fn failed_snapshot_rewrite_preserves_previous_good_snapshot() {
        let dir = std::env::temp_dir().join(format!("ppanns_atomic_snap_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("keep.ppdb");
        let meta = CollectionMeta { name: "keep".into(), shards: 1 };

        let mut rng = seeded_rng(177);
        let data: Vec<Vec<f64>> = (0..10).map(|_| uniform_vec(&mut rng, 3, -1.0, 1.0)).collect();
        let owner = DataOwner::setup(PpAnnParams::new(3).with_seed(11), &data);
        let db = owner.outsource(&data);
        save_collection_snapshot(&path, &meta, &db).unwrap();
        let good = std::fs::read(&path).unwrap();

        // Block the temp sibling with a directory: the rewrite fails...
        let tmp = crate::wal::tmp_sibling(&path);
        std::fs::create_dir(&tmp).unwrap();
        let bigger = {
            let mut db2 = owner.outsource(&data);
            let (c_sap, c_dce) = owner.encrypt_for_insert(&data[0], 1);
            db2.insert(c_sap, c_dce);
            db2
        };
        assert!(save_collection_snapshot(&path, &meta, &bigger).is_err());
        // ...and the previous snapshot is byte-identical, still loadable.
        assert_eq!(std::fs::read(&path).unwrap(), good, "old snapshot was damaged");
        assert!(load_snapshot(&path).is_ok());

        // Unblock: the rewrite lands atomically and the temp is gone.
        std::fs::remove_dir(&tmp).unwrap();
        save_collection_snapshot(&path, &meta, &bigger).unwrap();
        assert!(!tmp.exists(), "temp file must not outlive the rename");
        let (_, reloaded) = load_snapshot(&path).unwrap();
        assert_eq!(reloaded.len(), 11);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v2_truncations_and_mismatches_rejected() {
        let db = EncryptedDatabase::empty(2);
        let meta = CollectionMeta { name: "t".into(), shards: 1 };
        let full = collection_snapshot_bytes(&meta, &db).to_vec();
        for cut in 0..full.len() {
            assert!(
                load_snapshot_bytes(Bytes::from(full[..cut].to_vec())).is_err(),
                "prefix of {cut} bytes must not load"
            );
        }
        // Non-UTF-8 name bytes are corrupt, not a panic.
        let mut bad = full.clone();
        bad[10] = 0xFF; // first name byte
        assert!(load_snapshot_bytes(Bytes::from(bad)).is_err());
        // A future container version is refused.
        let mut v3 = full;
        v3[4] = 3;
        assert!(load_snapshot_bytes(Bytes::from(v3)).is_err());
    }
}
