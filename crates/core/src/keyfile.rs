//! Persistence of the data owner's key bundle.
//!
//! The owner's secrets (DCE key, SAP key, normalization factor) plus the
//! scheme parameters are everything needed to resume operating against an
//! outsourced database: authorize new users, encrypt insertions, re-derive
//! query trapdoors. **The file is raw key material** — protect it like one.

use crate::owner::{DataOwner, OwnerSecretKey, PpAnnParams};
use crate::persist::PersistError;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use ppann_dce::DceSecretKey;
use ppann_dcpe::{SapEncryptor, SapKey};
use ppann_hnsw::HnswParams;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"PPSK";
const VERSION: u32 = 1;

impl DataOwner {
    /// Serializes the key bundle and scheme parameters.
    pub fn to_key_bytes(&self) -> Bytes {
        let params = self.params();
        let key = self.secret_key();
        let dce_bytes = key.dce.to_bytes();
        let mut buf = BytesMut::with_capacity(64 + dce_bytes.len());
        buf.put_slice(MAGIC);
        buf.put_u32_le(VERSION);
        buf.put_u64_le(params.dim as u64);
        buf.put_f64_le(params.sap_s);
        buf.put_f64_le(params.sap_beta);
        params.hnsw.encode(&mut buf);
        buf.put_u64_le(params.seed);
        buf.put_f64_le(key.norm_scale_value());
        buf.put_u64_le(dce_bytes.len() as u64);
        buf.put_slice(&dce_bytes);
        buf.freeze()
    }

    /// Restores a data owner from bytes written by
    /// [`DataOwner::to_key_bytes`]. HNSW parameters that
    /// [`HnswParams::validate`] refuses, or a header `dim` that disagrees
    /// with the DCE key, are [`PersistError::Corrupt`] here rather than a
    /// panic at the next `outsource`.
    pub fn from_key_bytes(mut data: Bytes) -> Result<Self, PersistError> {
        let corrupt = |msg: &str| PersistError::Corrupt(msg.to_string());
        if data.remaining() < 8 || &data.copy_to_bytes(4)[..] != MAGIC {
            return Err(corrupt("bad key magic"));
        }
        if data.get_u32_le() != VERSION {
            return Err(corrupt("unsupported key version"));
        }
        if data.remaining() < 3 * 8 + HnswParams::ENCODED_LEN + 4 * 8 {
            return Err(corrupt("truncated key header"));
        }
        let dim = data.get_u64_le() as usize;
        let sap_s = data.get_f64_le();
        let sap_beta = data.get_f64_le();
        let hnsw = HnswParams::decode(&mut data);
        hnsw.validate().map_err(|e| corrupt(&format!("hnsw parameters: {e}")))?;
        let seed = data.get_u64_le();
        let norm_scale = data.get_f64_le();
        let dce_len = data.get_u64_le() as usize;
        if data.remaining() < dce_len {
            return Err(corrupt("truncated DCE key"));
        }
        let dce = DceSecretKey::from_bytes(data.copy_to_bytes(dce_len))
            .map_err(|e| corrupt(&format!("dce key: {e}")))?;
        if dce.dim() != dim {
            return Err(corrupt(&format!("header dim {dim} != DCE key dim {}", dce.dim())));
        }
        let params = PpAnnParams { dim, sap_s, sap_beta, hnsw, seed };
        let key = OwnerSecretKey::from_parts(
            dce,
            SapEncryptor::new(SapKey::new(sap_s, sap_beta)),
            norm_scale,
            dim,
        );
        Ok(DataOwner::from_parts(Arc::new(key), params))
    }

    /// Writes the key bundle to a file.
    pub fn save_keys(&self, path: &Path) -> Result<(), PersistError> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        f.write_all(&self.to_key_bytes())?;
        f.flush()?;
        Ok(())
    }

    /// Loads a key bundle from a file.
    pub fn load_keys(path: &Path) -> Result<Self, PersistError> {
        let mut buf = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut buf)?;
        Self::from_key_bytes(Bytes::from(buf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{CloudServer, SearchParams};
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
}
