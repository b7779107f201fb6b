//! Persistence of the data owner's key bundle.
//!
//! The owner's secrets (DCE key, SAP key, normalization factor) plus the
//! scheme parameters are everything needed to resume operating against an
//! outsourced database: authorize new users, encrypt insertions, re-derive
//! query trapdoors. **The file is raw key material** — protect it like one.

use crate::owner::{DataOwner, OwnerSecretKey, PpAnnParams};
use crate::persist::{atomic_write, corrupt, short, PersistError};
use ppann_dce::{DceSecretKey, KeyCodecError};
use ppann_dcpe::{SapEncryptor, SapKey};
use ppann_hnsw::HnswParams;
use ppann_linalg::Section;
use std::fs::File;
use std::io::{self, BufReader, Read, Write};
use std::path::Path;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"PPSK";
const VERSION: u32 = 1;

impl DataOwner {
    /// Streams the key bundle and scheme parameters to `w`.
    pub fn write_keys_to<W: Write + ?Sized>(&self, w: &mut W) -> io::Result<()> {
        let (params, key) = (self.params(), self.secret_key());
        let mut head = MAGIC.to_vec();
        head.extend(VERSION.to_le_bytes());
        head.extend((params.dim as u64).to_le_bytes());
        head.extend(params.sap_s.to_le_bytes());
        head.extend(params.sap_beta.to_le_bytes());
        params.hnsw.write_to(&mut head)?;
        head.extend(params.seed.to_le_bytes());
        head.extend(key.norm_scale_value().to_le_bytes());
        head.extend((key.dce.encoded_len() as u64).to_le_bytes());
        w.write_all(&head)?;
        key.dce.write_to(w)
    }

    /// Serializes the key bundle and scheme parameters:
    /// [`Self::write_keys_to`] into a `Vec`.
    pub fn to_key_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64 + self.secret_key().dce.encoded_len());
        self.write_keys_to(&mut buf).expect("writing to a Vec cannot fail");
        buf
    }

    /// Restores a data owner from bytes written by
    /// [`DataOwner::to_key_bytes`]: [`Self::read_keys_from`] over a byte
    /// slice.
    pub fn from_key_bytes(data: impl AsRef<[u8]>) -> Result<Self, PersistError> {
        let data = data.as_ref();
        Self::read_keys_from(&mut &data[..], data.len() as u64)
    }

    /// Restores a data owner from the next `len` bytes of `r` (the length
    /// the caller knows the key file spans), consuming exactly `len`
    /// bytes. HNSW parameters that [`HnswParams::validate`] refuses, or a
    /// header `dim` that disagrees with the DCE key, are
    /// [`PersistError::Corrupt`] here rather than a panic at the next
    /// `outsource`.
    pub fn read_keys_from<R: Read + ?Sized>(r: &mut R, len: u64) -> Result<Self, PersistError> {
        let mut data = Section::new(r, len);
        let head = data.array::<8>().map_err(short("bad key magic"))?;
        if &head[..4] != MAGIC {
            return Err(corrupt("bad key magic"));
        }
        if u32::from_le_bytes(head[4..].try_into().unwrap()) != VERSION {
            return Err(corrupt("unsupported key version"));
        }
        let header = 3 * 8 + HnswParams::ENCODED_LEN as u64 + 4 * 8;
        data.need(1, header).map_err(short("truncated key header"))?;
        let dim = data.u64()? as usize;
        let (sap_s, sap_beta) = (data.f64()?, data.f64()?);
        let hnsw = HnswParams::read_from(&mut data)?;
        hnsw.validate().map_err(|e| corrupt(&format!("hnsw parameters: {e}")))?;
        let (seed, norm_scale) = (data.u64()?, data.f64()?);
        let dce_len = data.u64()?;
        let r = data.nested(dce_len).map_err(short("truncated DCE key"))?;
        let dce = DceSecretKey::read_from(r, dce_len).map_err(|e| match e {
            KeyCodecError::Io(kind) => PersistError::Io(kind.into()),
            e => corrupt(&format!("dce key: {e}")),
        })?;
        if dce.dim() != dim {
            return Err(corrupt(&format!("header dim {dim} != DCE key dim {}", dce.dim())));
        }
        data.skip_rest()?;
        let params = PpAnnParams { dim, sap_s, sap_beta, hnsw, seed };
        let key = OwnerSecretKey::from_parts(
            dce,
            SapEncryptor::new(SapKey::new(sap_s, sap_beta)),
            norm_scale,
            dim,
        );
        Ok(DataOwner::from_parts(Arc::new(key), params))
    }

    /// Writes the key bundle to a file, atomically (see [`atomic_write`]):
    /// a failed or interrupted save leaves the previous key file intact. A new key file is readable by
    /// its owner only (0600); a rewrite keeps the mode of the file it
    /// replaces.
    pub fn save_keys(&self, path: &Path) -> Result<(), PersistError> {
        atomic_write(path, 0o600, |w| self.write_keys_to(w)).map(drop)
    }

    /// Loads a key bundle from a file, streaming it through one buffer.
    pub fn load_keys(path: &Path) -> Result<Self, PersistError> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        Self::read_keys_from(&mut BufReader::new(file), len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{CloudServer, SearchParams};
    use bytes::Bytes;
    use ppann_linalg::{seeded_rng, uniform_vec};

    #[test]
    fn key_roundtrip_keeps_the_database_usable() {
        let mut rng = seeded_rng(331);
        let data: Vec<Vec<f64>> = (0..200).map(|_| uniform_vec(&mut rng, 6, -3.0, 3.0)).collect();
        let owner = DataOwner::setup(PpAnnParams::new(6).with_beta(0.5).with_seed(5), &data);
        let server = CloudServer::new(owner.outsource(&data));

        // Round-trip the keys, then query the OLD server with a user
        // authorized by the RESTORED owner.
        let restored = DataOwner::from_key_bytes(owner.to_key_bytes()).unwrap();
        let mut user = restored.authorize_user();
        let out =
            server.search(&user.encrypt_query(&data[17], 3), &SearchParams::from_ratio(3, 8, 60));
        assert_eq!(out.ids[0], 17);

        // And an insertion encrypted by the restored owner must land.
        let mut server = server;
        let novel = vec![9.0; 6];
        let (c_sap, c_dce) = restored.encrypt_for_insert(&novel, 1);
        let id = server.insert(c_sap, c_dce);
        let out =
            server.search(&user.encrypt_query(&novel, 1), &SearchParams::from_ratio(1, 8, 60));
        assert_eq!(out.ids, vec![id]);
    }

    #[test]
    fn key_file_roundtrip() {
        let data = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let owner = DataOwner::setup(PpAnnParams::new(2).with_seed(6), &data);
        let path = std::env::temp_dir().join("ppanns_keyfile_test.bin");
        owner.save_keys(&path).unwrap();
        let restored = DataOwner::load_keys(&path).unwrap();
        assert_eq!(restored.params().dim, 2);
        std::fs::remove_file(&path).ok();
    }

    /// 64-bit FNV-1a.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Pins the PPSK layout byte for byte, including the two reserved
    /// option bytes after `ef_construction`.
    #[test]
    fn key_bytes_layout_is_pinned() {
        let mut rng = seeded_rng(0x5EED);
        let data: Vec<Vec<f64>> = (0..16).map(|_| uniform_vec(&mut rng, 8, -2.0, 2.0)).collect();
        let owner = DataOwner::setup(PpAnnParams::new(8).with_seed(0x0DD), &data);
        let bytes = owner.to_key_bytes();
        assert_eq!((bytes.len(), fnv1a(&bytes)), (19_850, 0x30f2_96a7_dcfd_1942));
    }

    /// Byte offsets into the PPSK header of the fields the tests edit.
    const DIM_AT: usize = 8;
    const M_AT: usize = 32;
    const M0_AT: usize = 40;
    const RESERVED_AT: usize = 56;

    fn small_owner_bytes() -> Vec<u8> {
        let data = vec![vec![1.0, -2.0, 0.5], vec![3.0, 4.0, -1.0]];
        DataOwner::setup(PpAnnParams::new(3).with_seed(7), &data).to_key_bytes().to_vec()
    }

    fn load_edited(at: usize, value: u64) -> Result<DataOwner, PersistError> {
        let mut bytes = small_owner_bytes();
        bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
        DataOwner::from_key_bytes(Bytes::from(bytes))
    }

    #[test]
    fn invalid_hnsw_parameters_are_corrupt() {
        for (at, value) in [(M0_AT, 4096), (M_AT, 1)] {
            match load_edited(at, value) {
                Err(PersistError::Corrupt(msg)) => assert!(msg.contains("hnsw"), "{msg}"),
                other => panic!("expected Corrupt, got {:?}", other.map(|_| "an owner")),
            }
        }
    }

    #[test]
    fn header_dim_must_match_the_dce_key() {
        match load_edited(DIM_AT, 4) {
            Err(PersistError::Corrupt(msg)) => assert!(msg.contains("dim"), "{msg}"),
            other => panic!("expected Corrupt, got {:?}", other.map(|_| "an owner")),
        }
    }

    #[test]
    fn retired_option_bytes_are_ignored_on_load() {
        let mut bytes = small_owner_bytes();
        assert_eq!(bytes[RESERVED_AT..RESERVED_AT + 2], [0, 1]);
        bytes[RESERVED_AT..RESERVED_AT + 2].copy_from_slice(&[1, 0]);
        let restored = DataOwner::from_key_bytes(Bytes::from(bytes)).unwrap();
        assert_eq!(restored.to_key_bytes().to_vec(), small_owner_bytes());
    }

    #[test]
    fn garbage_key_rejected() {
        assert!(DataOwner::from_key_bytes(Bytes::from_static(b"garbage")).is_err());
    }

    #[test]
    fn every_strict_prefix_is_rejected() {
        let bytes = small_owner_bytes();
        for cut in 0..bytes.len() {
            assert!(DataOwner::from_key_bytes(&bytes[..cut]).is_err(), "prefix of {cut} bytes");
        }
    }

    /// A 96-byte DCE key whose first matrix claims `rows·cols` f64s that
    /// overflow, and a 208-byte one claiming dim = u64::MAX with empty
    /// runs (under a PPSK header claiming the same dim), inside an
    /// otherwise valid PPSK header, are corrupt rather than a panic, an
    /// allocation or an owner of a wrapped dimension.
    #[test]
    fn an_overflowing_dce_matrix_is_corrupt() {
        // The PPSK header ends with the DCE key's length word at 82..90.
        let mut header = small_owner_bytes()[..82].to_vec();
        let mut blobs = Vec::new();
        for (rows, cols) in [(1u64 << 61, 1u64), (1 << 32, 1 << 32)] {
            let mut blob = b"DCEK".to_vec();
            blob.extend(1u32.to_le_bytes());
            blob.extend(3u64.to_le_bytes());
            blob.extend(rows.to_le_bytes());
            blob.extend(cols.to_le_bytes());
            blob.resize(96, 0);
            blobs.push((3u64, blob));
        }
        let mut huge_dim = b"DCEK".to_vec();
        huge_dim.extend(1u32.to_le_bytes());
        huge_dim.extend(u64::MAX.to_le_bytes());
        huge_dim.resize(208, 0);
        blobs.push((u64::MAX, huge_dim));
        for (dim, blob) in blobs {
            header[DIM_AT..DIM_AT + 8].copy_from_slice(&dim.to_le_bytes());
            let mut bytes = header.clone();
            bytes.extend((blob.len() as u64).to_le_bytes());
            bytes.extend(blob);
            match DataOwner::from_key_bytes(bytes) {
                Err(PersistError::Corrupt(msg)) => assert!(msg.contains("dce key"), "{msg}"),
                other => panic!("expected Corrupt, got {:?}", other.map(|_| "an owner")),
            }
        }
    }

    /// Modelled on `persist::tests::failed_snapshot_rewrite_preserves_previous_good_snapshot`:
    /// a key save that fails (its temp path blocked by a directory) leaves
    /// the previous key file byte-identical and loadable.
    #[test]
    fn failed_key_save_preserves_the_previous_key_file() {
        let dir = std::env::temp_dir().join(format!("ppanns_atomic_keys_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("owner.keys");
        let data = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let old = DataOwner::setup(PpAnnParams::new(2).with_seed(6), &data);
        old.save_keys(&path).unwrap();
        let good = std::fs::read(&path).unwrap();

        let tmp = crate::wal::tmp_sibling(&path);
        std::fs::create_dir(&tmp).unwrap();
        let new = DataOwner::setup(PpAnnParams::new(2).with_seed(7), &data);
        assert_ne!(new.to_key_bytes(), good);
        assert!(new.save_keys(&path).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), good, "old key file was damaged");
        assert_eq!(DataOwner::load_keys(&path).unwrap().to_key_bytes(), good);

        std::fs::remove_dir(&tmp).unwrap();
        new.save_keys(&path).unwrap();
        assert!(!tmp.exists(), "temp file must not outlive the rename");
        assert_eq!(DataOwner::load_keys(&path).unwrap().to_key_bytes(), new.to_key_bytes());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A new key file is readable by its owner only, a stale temp file
    /// does not lend it its mode, and a rewrite keeps whatever mode the
    /// operator gave the file it replaces.
    #[test]
    fn key_saves_keep_the_file_private() {
        use std::os::unix::fs::PermissionsExt;
        let dir = std::env::temp_dir().join(format!("ppanns_key_mode_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("owner.keys");
        let mode = |p: &Path| std::fs::metadata(p).unwrap().permissions().mode() & 0o777;
        let chmod = |p: &Path, m| std::fs::set_permissions(p, PermissionsExt::from_mode(m));
        let data = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let owner = DataOwner::setup(PpAnnParams::new(2).with_seed(6), &data);

        let tmp = crate::wal::tmp_sibling(&path);
        std::fs::write(&tmp, b"left by a crash").unwrap();
        chmod(&tmp, 0o644).unwrap();
        owner.save_keys(&path).unwrap();
        assert_eq!(mode(&path), 0o600);
        for kept in [0o600, 0o640] {
            chmod(&path, kept).unwrap();
            owner.save_keys(&path).unwrap();
            assert_eq!(mode(&path), kept);
        }
        assert_eq!(DataOwner::load_keys(&path).unwrap().to_key_bytes(), owner.to_key_bytes());
        std::fs::remove_dir_all(&dir).ok();
    }
}
