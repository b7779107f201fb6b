//! Binary persistence of the encrypted database (server snapshots).
//!
//! Two container versions, both little endian and hand-rolled over
//! `std::io` (see DESIGN.md §5 for why no serialization crate is used):
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
//!
//! There is one codec per container and it streams: the writers take any
//! `Write` and write each length prefix from an exact `encoded_len`, the
//! readers take any `Read` plus the length the caller knows the input has
//! and check every length a header claims against it before allocating
//! (`ppann_linalg::Section`, the reader every format shares).
//! Files are written through [`atomic_write`] and read by [`open_snapshot`]
//! through one fixed buffer, with the [`SnapshotId`] seal computed in the
//! same pass, so neither holds an image of the file in memory; the
//! `to_bytes`/`from_bytes` forms are the same code over a `Vec`/slice.

use crate::index::EncryptedDatabase;
use crate::wal::{sync_dir, tmp_sibling, SealHasher, SnapshotId};
use ppann_dce::DceCiphertext;
use ppann_hnsw::{Hnsw, SnapshotError};
use ppann_linalg::{write_f64s, Section, SectionError};
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::os::unix::fs::OpenOptionsExt;
use std::path::Path;

const MAGIC: &[u8; 4] = b"PPDB";
const VERSION: u32 = 1;
const VERSION_COLLECTION: u32 = 2;

/// Bytes of the one buffer between a snapshot file and its codec, on load
/// and on write: the whole transient memory of either beyond the parsed
/// database.
const SNAPSHOT_IO_BUF: usize = 256 << 10;

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

pub(crate) fn corrupt(msg: &str) -> PersistError {
    PersistError::Corrupt(msg.to_string())
}

/// For reads a caller has already bounded, which fail only on I/O.
impl From<SectionError> for PersistError {
    fn from(e: SectionError) -> Self {
        match e {
            SectionError::Short => corrupt("truncated"),
            SectionError::Io(e) => PersistError::Io(e),
        }
    }
}

/// Maps a [`Section`] failure to the persistence error a caller sees: a
/// field the container cannot hold is [`PersistError::Corrupt`] with the
/// message `msg`.
pub(crate) fn short(msg: &str) -> impl Fn(SectionError) -> PersistError + '_ {
    move |e| match e {
        SectionError::Short => corrupt(msg),
        e => e.into(),
    }
}

/// Magic and version; `too_short` names a header too short to hold them.
fn read_header<R: Read + ?Sized>(
    data: &mut Section<'_, R>,
    too_short: &str,
) -> Result<u32, PersistError> {
    let head = data.array::<8>().map_err(short(too_short))?;
    if &head[..4] != MAGIC {
        return Err(corrupt("bad magic"));
    }
    Ok(u32::from_le_bytes(head[4..].try_into().unwrap()))
}

impl EncryptedDatabase {
    /// Exact length in bytes of the v1 image [`Self::write_to`] writes.
    pub fn encoded_len(&self) -> usize {
        let dce: usize = self.dce_ciphertexts().iter().map(|ct| ct.len_scalars() * 8).sum();
        8 + 8 + self.hnsw().encoded_len() + 16 + dce
    }

    /// Streams the full encrypted database to `w` as a v1 image.
    pub fn write_to<W: Write + ?Sized>(&self, w: &mut W) -> io::Result<()> {
        let dce = self.dce_ciphertexts();
        let mut head = MAGIC.to_vec();
        head.extend(VERSION.to_le_bytes());
        head.extend((self.hnsw().encoded_len() as u64).to_le_bytes());
        w.write_all(&head)?;
        self.hnsw().write_to(w)?;
        head.clear();
        head.extend((dce.len() as u64).to_le_bytes());
        head.extend((dce.first().map_or(0, |c| c.component_dim()) as u64).to_le_bytes());
        w.write_all(&head)?;
        for ct in dce {
            for comp in ct.components() {
                write_f64s(w, comp)?;
            }
        }
        Ok(())
    }

    /// Serializes the full encrypted database: [`Self::write_to`] into a
    /// `Vec`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.write_to(&mut buf).expect("writing to a Vec cannot fail");
        buf
    }

    /// Restores a database serialized by [`Self::to_bytes`]:
    /// [`Self::read_from`] over a byte slice.
    pub fn from_bytes(data: impl AsRef<[u8]>) -> Result<Self, PersistError> {
        let data = data.as_ref();
        Self::read_from(&mut &data[..], data.len() as u64)
    }

    /// Restores a v1 image from the next `len` bytes of `r` (the length
    /// the caller knows the image spans), consuming exactly `len` bytes.
    pub fn read_from<R: Read + ?Sized>(r: &mut R, len: u64) -> Result<Self, PersistError> {
        let mut section = Section::new(r, len);
        if read_header(&mut section, "bad magic")? != VERSION {
            return Err(corrupt("unsupported version"));
        }
        let db = Self::read_v1_body(&mut section)?;
        section.skip_rest()?;
        Ok(db)
    }

    /// Everything of a v1 image after its magic and version.
    fn read_v1_body<R: Read + ?Sized>(data: &mut Section<'_, R>) -> Result<Self, PersistError> {
        let hnsw_len = data.u64().map_err(short("truncated header"))?;
        let r = data.nested(hnsw_len).map_err(short("truncated index"))?;
        let hnsw_len = usize::try_from(hnsw_len).map_err(|_| corrupt("truncated index"))?;
        let hnsw = Hnsw::read_from(r, hnsw_len).map_err(|e| match e {
            SnapshotError::Io(kind) => PersistError::Io(kind.into()),
            e => corrupt(&format!("hnsw: {e}")),
        })?;
        let n = data.u64().map_err(short("truncated ciphertext header"))?;
        let comp_dim = data.u64().map_err(short("truncated ciphertext header"))?;
        let floats = n
            .checked_mul(comp_dim)
            .filter(|f| f.checked_mul(4 * 8).is_some())
            .ok_or_else(|| corrupt("ciphertext count × dimension overflows"))?;
        data.need(floats, 4 * 8).map_err(short("truncated ciphertexts"))?;
        if hnsw.capacity_slots() as u64 != n {
            return Err(corrupt("index/ciphertext misalignment"));
        }
        // Every row's DCE width follows from the index dimension (the
        // shape `EncryptedDatabase::admit` enforces on every mutation);
        // an empty database writes width 0.
        if n > 0 && comp_dim != ppann_dce::ciphertext_dim(hnsw.dim()) as u64 {
            return Err(corrupt("DCE ciphertext width does not match the index dimension"));
        }
        let mut dce = Vec::with_capacity(hnsw.capacity_slots());
        for _ in 0..n {
            let mut comps: [Vec<f64>; 4] = Default::default();
            for comp in &mut comps {
                *comp = data.f64s(comp_dim).map_err(short("truncated ciphertexts"))?;
            }
            let [a, b, c, d] = comps;
            dce.push(DceCiphertext::from_components(a, b, c, d));
        }
        Ok(EncryptedDatabase::new(hnsw, dce))
    }

    /// Writes the snapshot to a file (atomically — see [`atomic_write`]).
    pub fn save_to(&self, path: &Path) -> Result<(), PersistError> {
        atomic_write(path, 0o666, |w| self.write_to(w)).map(drop)
    }

    /// Loads a v1 snapshot from a file, streaming it through one fixed
    /// buffer.
    pub fn load_from(path: &Path) -> Result<Self, PersistError> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        Self::read_from(&mut BufReader::with_capacity(SNAPSHOT_IO_BUF, file), len)
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

/// Streams one named collection to `w` as a v2 `PPDB` container:
/// metadata header, then the complete v1 image of `db`.
pub fn write_collection_to<W: Write + ?Sized>(
    w: &mut W,
    meta: &CollectionMeta,
    db: &EncryptedDatabase,
) -> io::Result<()> {
    let name = meta.name.as_bytes();
    assert!(name.len() <= u16::MAX as usize, "collection name too long to snapshot");
    let mut head = Vec::with_capacity(8 + 2 + name.len() + 2 + 8);
    head.extend_from_slice(MAGIC);
    head.extend(VERSION_COLLECTION.to_le_bytes());
    head.extend((name.len() as u16).to_le_bytes());
    head.extend_from_slice(name);
    head.extend(meta.shards.to_le_bytes());
    head.extend((db.encoded_len() as u64).to_le_bytes());
    w.write_all(&head)?;
    db.write_to(w)
}

/// Serializes one named collection as a v2 `PPDB` container:
/// [`write_collection_to`] into a `Vec`.
pub fn collection_snapshot_bytes(meta: &CollectionMeta, db: &EncryptedDatabase) -> Vec<u8> {
    let mut buf = Vec::with_capacity(20 + meta.name.len() + db.encoded_len());
    write_collection_to(&mut buf, meta, db).expect("writing to a Vec cannot fail");
    buf
}

/// Writes a v2 collection snapshot to `path` (atomically — see
/// [`atomic_write`]), returning the seal of the bytes written and the
/// open handle of the published file.
pub fn write_collection_snapshot(
    path: &Path,
    meta: &CollectionMeta,
    db: &EncryptedDatabase,
) -> Result<(SnapshotId, File), PersistError> {
    atomic_write(path, 0o666, |w| write_collection_to(w, meta, db))
}

/// [`write_collection_snapshot`] for callers that keep neither the seal
/// nor the handle.
pub fn save_collection_snapshot(
    path: &Path,
    meta: &CollectionMeta,
    db: &EncryptedDatabase,
) -> Result<(), PersistError> {
    write_collection_snapshot(path, meta, db).map(drop)
}

/// Replaces the file at `path` with what `write` streams, atomically: the
/// bytes go through one fixed buffer into `<file>.tmp` in the same
/// directory, which is flushed, fsynced, renamed over `path`, and the
/// directory fsynced. A crash at any instant leaves either the previous
/// file or the complete new one — never a half-written snapshot
/// destroying the last good state (the in-place `File::create` this
/// replaces truncated the old snapshot before the first new byte landed).
/// A failure before the rename removes the partial temp file, so a full
/// disk does not keep an image-sized leftover holding the space the log
/// then needs; a directory squatting on the temp path is never removed.
/// Leftover `.tmp` files from a crashed attempt are invisible to
/// `Catalog::load_dir` (which filters on the `.ppdb` extension) and
/// removed by the next attempt.
///
/// A new file is created at `mode` less the umask (key files pass 0600,
/// so no other user can read them or their temp file, everything else
/// 0666); a rewrite keeps the mode of the file it replaces, so an
/// operator's `chmod` survives it.
///
/// Returns the [`SnapshotId`] of the bytes written, computed in the same
/// pass, and the open (readable) handle of the published file.
pub fn atomic_write(
    path: &Path,
    mode: u32,
    write: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> Result<(SnapshotId, File), PersistError> {
    let tmp = tmp_sibling(path);
    // A temp file left by a crash would keep its own mode.
    std::fs::remove_file(&tmp).ok();
    let file = OpenOptions::new().read(true).write(true).create_new(true).mode(mode).open(&tmp)?;
    let kept =
        std::fs::metadata(path).map_or(Ok(()), |old| file.set_permissions(old.permissions()));
    let staged = kept
        .and_then(|()| stage(&file, write))
        .and_then(|seal| std::fs::rename(&tmp, path).map(|()| seal));
    let seal = staged.inspect_err(|_| {
        std::fs::remove_file(&tmp).ok();
    })?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        sync_dir(dir)?;
    }
    Ok((seal, file))
}

/// Streams `write` into `file` through the sealing buffer and fsyncs it.
fn stage(
    file: &File,
    write: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> io::Result<SnapshotId> {
    let mut out = SealHasher::new(BufWriter::with_capacity(SNAPSHOT_IO_BUF, file));
    write(&mut out)?;
    out.flush()?;
    let seal = out.seal();
    drop(out);
    file.sync_all()?;
    Ok(seal)
}

/// Decodes either container version from the next `len` bytes of `r`
/// (the length the caller knows the input has), consuming exactly `len`
/// bytes: a v2 snapshot yields its embedded [`CollectionMeta`]; a v1
/// snapshot yields `None` (anonymous database — the caller decides the
/// collection name, `"default"` for a single `--db` file or the file stem
/// in a `--data-dir`).
pub fn read_snapshot<R: Read + ?Sized>(
    r: &mut R,
    len: u64,
) -> Result<(Option<CollectionMeta>, EncryptedDatabase), PersistError> {
    let mut data = Section::new(r, len);
    let loaded = match read_header(&mut data, "truncated header")? {
        VERSION => (None, EncryptedDatabase::read_v1_body(&mut data)?),
        VERSION_COLLECTION => {
            let name_len = data.array().map_err(short("truncated collection name length"))?;
            let mut name = vec![0u8; u16::from_le_bytes(name_len) as usize];
            data.fill(&mut name).map_err(short("truncated collection name"))?;
            let name =
                String::from_utf8(name).map_err(|_| corrupt("collection name is not UTF-8"))?;
            let shards =
                u16::from_le_bytes(data.array().map_err(short("truncated collection header"))?);
            let inner_len = data.u64().map_err(short("truncated collection header"))?;
            if data.left() != inner_len {
                return Err(corrupt("collection payload length mismatch"));
            }
            let r = data.nested(inner_len)?;
            (Some(CollectionMeta { name, shards }), EncryptedDatabase::read_from(r, inner_len)?)
        }
        _ => return Err(corrupt("unsupported version")),
    };
    data.skip_rest()?;
    Ok(loaded)
}

/// [`read_snapshot`] over a byte slice.
pub fn load_snapshot_bytes(
    data: impl AsRef<[u8]>,
) -> Result<(Option<CollectionMeta>, EncryptedDatabase), PersistError> {
    let data = data.as_ref();
    read_snapshot(&mut &data[..], data.len() as u64)
}

/// A snapshot file parsed in one pass by [`open_snapshot`].
#[derive(Debug)]
pub struct SnapshotFile {
    /// The embedded metadata (`None` for a v1 file).
    pub meta: Option<CollectionMeta>,
    /// The decoded database.
    pub db: EncryptedDatabase,
    /// The identity of the bytes parsed, computed while parsing them.
    pub seal: SnapshotId,
    /// The open handle those bytes were read through.
    pub file: File,
}

/// Opens a snapshot file of either container version and streams it
/// through one fixed buffer into a database, sealing the bytes in the
/// same pass. The file is opened once; its handle comes back with the
/// seal that names its bytes.
pub fn open_snapshot(path: &Path) -> Result<SnapshotFile, PersistError> {
    let file = File::open(path)?;
    let len = file.metadata()?.len();
    let mut reader = SealHasher::new(BufReader::with_capacity(SNAPSHOT_IO_BUF, &file));
    let (meta, db) = read_snapshot(&mut reader, len)?;
    let seal = reader.seal();
    drop(reader);
    Ok(SnapshotFile { meta, db, seal, file })
}

/// Loads either container version from a file (see [`open_snapshot`]).
pub fn load_snapshot(
    path: &Path,
) -> Result<(Option<CollectionMeta>, EncryptedDatabase), PersistError> {
    open_snapshot(path).map(|loaded| (loaded.meta, loaded.db))
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::owner::{DataOwner, PpAnnParams};
    use crate::server::{CloudServer, SearchParams};
    use bytes::{BufMut, Bytes, BytesMut};
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

    /// A populated image whose DCE width is not `ciphertext_dim(dim)`
    /// is corrupt: a follower bootstraps from bytes off the network, and
    /// such rows would fail every query that touches them. An empty
    /// database writes width 0 and still loads.
    #[test]
    fn dce_width_must_match_the_index_dim() {
        let mut rng = seeded_rng(179);
        let data: Vec<Vec<f64>> = (0..12).map(|_| uniform_vec(&mut rng, 4, -1.0, 1.0)).collect();
        let owner = DataOwner::setup(PpAnnParams::new(4).with_seed(13), &data);
        let (hnsw, dce) = owner.outsource(&data).into_parts();
        let row = || vec![0.5; 3];
        let narrow = dce.iter().map(|_| DceCiphertext::from_components(row(), row(), row(), row()));
        let bytes = EncryptedDatabase::new(hnsw, narrow.collect()).to_bytes();
        match EncryptedDatabase::from_bytes(bytes) {
            Err(PersistError::Corrupt(msg)) => assert!(msg.contains("width"), "{msg}"),
            other => panic!("expected Corrupt, got {:?}", other.map(|_| "a database")),
        }
        let empty = EncryptedDatabase::from_bytes(EncryptedDatabase::empty(4).to_bytes()).unwrap();
        assert_eq!((empty.dim(), empty.len()), (4, 0));
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

    /// A snapshot rewrite publishes the file under the mode the operator
    /// gave the one it replaces.
    #[test]
    fn a_rewrite_keeps_the_snapshot_mode() {
        use std::os::unix::fs::PermissionsExt;
        let dir = std::env::temp_dir().join(format!("ppanns_snap_mode_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mode.ppdb");
        let meta = CollectionMeta { name: "mode".into(), shards: 1 };
        save_collection_snapshot(&path, &meta, &EncryptedDatabase::empty(2)).unwrap();
        std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o640)).unwrap();
        save_collection_snapshot(&path, &meta, &EncryptedDatabase::empty(2)).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().permissions().mode() & 0o777, 0o640);
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

    /// A writer that fails after its first `left` bytes, like a disk
    /// filling up mid-snapshot.
    struct FailAfter<'w> {
        inner: &'w mut dyn Write,
        left: usize,
    }

    impl Write for FailAfter<'_> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.left == 0 {
                return Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"));
            }
            let n = self.inner.write(&buf[..buf.len().min(self.left)])?;
            self.left -= n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }

    /// A snapshot write that fails partway removes its partial temp file
    /// and leaves the previous snapshot byte-identical; the next write
    /// publishes a file equal to the in-memory image, with its seal.
    #[test]
    fn failed_snapshot_write_removes_its_temp_file() {
        let dir = std::env::temp_dir().join(format!("ppanns_failed_write_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("full.ppdb");
        let tmp = crate::wal::tmp_sibling(&path);
        let meta = CollectionMeta { name: "full".into(), shards: 1 };
        let mut rng = seeded_rng(178);
        let data: Vec<Vec<f64>> = (0..40).map(|_| uniform_vec(&mut rng, 3, -1.0, 1.0)).collect();
        let owner = DataOwner::setup(PpAnnParams::new(3).with_seed(12), &data);
        let db = owner.outsource(&data);
        save_collection_snapshot(&path, &meta, &EncryptedDatabase::empty(3)).unwrap();
        let good = std::fs::read(&path).unwrap();

        let image = collection_snapshot_bytes(&meta, &db);
        for cut in [0, 1, 100, image.len() / 2, image.len() - 1] {
            let failed = atomic_write(&path, 0o666, |w| {
                write_collection_to(&mut FailAfter { inner: w, left: cut }, &meta, &db)
            });
            assert!(matches!(failed, Err(PersistError::Io(_))), "cut at {cut} bytes");
            assert!(!tmp.exists(), "partial temp file left behind after {cut} bytes");
            assert_eq!(std::fs::read(&path).unwrap(), good, "old snapshot was damaged");
        }

        let (seal, _) = write_collection_snapshot(&path, &meta, &db).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), image);
        assert_eq!(seal, crate::wal::snapshot_id(&image));
        assert!(!tmp.exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
