//! Binary serialization of DCE secret keys.
//!
//! The data owner must persist its key bundle between sessions (losing the
//! key strands every ciphertext on the server). The format is the same
//! hand-rolled little-endian layout as the other snapshots in this
//! workspace, streamed and read through `ppann_linalg::Section` the same
//! way: magic, version, dimensions, then the raw key material.
//! **This is key material** — the caller is responsible for storing the
//! bytes with appropriate protection.

use crate::key::DceSecretKey;
use ppann_linalg::{write_f64s, Matrix, Permutation, Section, SectionError};
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"DCEK";
const VERSION: u32 = 1;

/// Key (de)serialization failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyCodecError {
    /// Magic/version mismatch.
    BadHeader,
    /// Truncated or inconsistent payload.
    Truncated,
    /// The reader failed for a reason other than running out of bytes.
    Io(io::ErrorKind),
}

impl std::fmt::Display for KeyCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KeyCodecError::BadHeader => write!(f, "bad key header"),
            KeyCodecError::Truncated => write!(f, "truncated key material"),
            KeyCodecError::Io(kind) => write!(f, "key read failed: {kind}"),
        }
    }
}
impl std::error::Error for KeyCodecError {}

impl From<SectionError> for KeyCodecError {
    fn from(e: SectionError) -> Self {
        match e {
            SectionError::Short => KeyCodecError::Truncated,
            SectionError::Io(e) => KeyCodecError::Io(e.kind()),
        }
    }
}

/// A `rows u64 | cols u64 | f64s` run.
fn read_matrix<R: Read + ?Sized>(data: &mut Section<'_, R>) -> Result<Matrix, KeyCodecError> {
    let (rows, cols) = (data.u64()?, data.u64()?);
    let values = data.f64s(rows.checked_mul(cols).ok_or(KeyCodecError::Truncated)?)?;
    Ok(Matrix::from_vec(rows as usize, cols as usize, values))
}

impl DceSecretKey {
    /// The matrices of the key, in the order they are written.
    fn matrices(&self) -> [&Matrix; 7] {
        let p = self.raw_parts();
        [p.m1, p.m1_inv, p.m2, p.m2_inv, p.m_up, p.m_down, p.m3_inv]
    }

    /// Exact length in bytes of the key [`Self::write_to`] writes.
    pub fn encoded_len(&self) -> usize {
        let parts = self.raw_parts();
        let matrices: usize = self.matrices().iter().map(|m| 16 + m.data().len() * 8).sum();
        let kv: usize = parts.kv.iter().map(|v| 8 + v.len() * 8).sum();
        16 + matrices + 16 + 4 * (parts.pi1.len() + parts.pi2.len()) + 32 + kv
    }

    /// Streams the complete key (all matrices, permutations, masking
    /// vectors and shared randoms) to `w`.
    pub fn write_to<W: Write + ?Sized>(&self, w: &mut W) -> io::Result<()> {
        let parts = self.raw_parts();
        let mut head = MAGIC.to_vec();
        head.extend(VERSION.to_le_bytes());
        head.extend((parts.dim as u64).to_le_bytes());
        w.write_all(&head)?;
        for m in self.matrices() {
            w.write_all(&(m.rows() as u64).to_le_bytes())?;
            w.write_all(&(m.cols() as u64).to_le_bytes())?;
            write_f64s(w, m.data())?;
        }
        for p in [parts.pi1, parts.pi2] {
            let mut run = (p.len() as u64).to_le_bytes().to_vec();
            run.extend(p.map().iter().flat_map(|x| x.to_le_bytes()));
            w.write_all(&run)?;
        }
        write_f64s(w, parts.r)?;
        for kv in parts.kv {
            w.write_all(&(kv.len() as u64).to_le_bytes())?;
            write_f64s(w, kv)?;
        }
        Ok(())
    }

    /// Serializes the complete key: [`Self::write_to`] into a `Vec`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.write_to(&mut buf).expect("writing to a Vec cannot fail");
        buf
    }

    /// Restores a key serialized with [`DceSecretKey::to_bytes`]:
    /// [`Self::read_from`] over a byte slice.
    pub fn from_bytes(data: impl AsRef<[u8]>) -> Result<Self, KeyCodecError> {
        let data = data.as_ref();
        Self::read_from(&mut &data[..], data.len() as u64)
    }

    /// Restores a key from the next `len` bytes of `r` (the length the
    /// caller knows the key spans), consuming exactly `len` bytes.
    pub fn read_from<R: Read + ?Sized>(r: &mut R, len: u64) -> Result<Self, KeyCodecError> {
        let mut data = Section::new(r, len);
        let head = match data.array::<8>() {
            Err(SectionError::Short) => return Err(KeyCodecError::BadHeader),
            head => head?,
        };
        if &head[..4] != MAGIC || u32::from_le_bytes(head[4..].try_into().unwrap()) != VERSION {
            return Err(KeyCodecError::BadHeader);
        }
        // A dim-d key holds more than d f64s, so a dim past the section's
        // length is a lie; bounding it here keeps the size arithmetic of
        // `from_raw_parts` (`d + 1`, `+ 8`, `2 *`) from overflowing.
        let dim = data.u64().and_then(|d| data.need(d, 8))?;
        let mut m = Vec::with_capacity(7);
        for _ in 0..7 {
            m.push(read_matrix(&mut data)?);
        }
        let [m1, m1_inv, m2, m2_inv, m_up, m_down, m3_inv] =
            m.try_into().expect("seven matrices were read");
        let mut permutation = || {
            let map = data.u64().and_then(|n| data.u32s(n))?;
            Permutation::try_from_map(map).ok_or(KeyCodecError::Truncated)
        };
        let (pi1, pi2) = (permutation()?, permutation()?);
        let r = [data.f64()?, data.f64()?, data.f64()?, data.f64()?];
        let mut kv: [Vec<f64>; 4] = Default::default();
        for v in &mut kv {
            *v = data.u64().and_then(|n| data.f64s(n))?;
        }
        data.skip_rest()?;
        DceSecretKey::from_raw_parts(
            dim, m1, m1_inv, m2, m2_inv, pi1, pi2, r, m_up, m_down, m3_inv, kv,
        )
        .ok_or(KeyCodecError::Truncated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance_comp;
    use ppann_linalg::{seeded_rng, uniform_vec};

    #[test]
    fn key_roundtrip_preserves_comparisons() {
        let mut rng = seeded_rng(321);
        let d = 9;
        let sk = DceSecretKey::generate(d, &mut rng);
        let restored = DceSecretKey::from_bytes(sk.to_bytes()).unwrap();

        // A ciphertext produced by the original key must compare correctly
        // against one produced by the restored key.
        let o = uniform_vec(&mut rng, d, -1.0, 1.0);
        let p = uniform_vec(&mut rng, d, -1.0, 1.0);
        let q = uniform_vec(&mut rng, d, -1.0, 1.0);
        let c_o = sk.encrypt(&o, &mut rng);
        let c_p = restored.encrypt(&p, &mut rng);
        let t_q = restored.trapdoor(&q, &mut rng);
        let z = distance_comp(&c_o, &c_p, &t_q);
        let truth = ppann_linalg::vector::squared_euclidean(&o, &q)
            - ppann_linalg::vector::squared_euclidean(&p, &q);
        assert_eq!(z < 0.0, truth < 0.0);
    }

    #[test]
    fn garbage_rejected() {
        assert_eq!(DceSecretKey::from_bytes(b"nope").unwrap_err(), KeyCodecError::BadHeader);
        let mut rng = seeded_rng(322);
        let sk = DceSecretKey::generate(4, &mut rng);
        let mut good = sk.to_bytes();
        assert_eq!(good.len(), sk.encoded_len());
        good.truncate(good.len() / 2);
        assert_eq!(DceSecretKey::from_bytes(good).unwrap_err(), KeyCodecError::Truncated);
    }

    /// A dim-4 key and the offsets of its first permutation and first
    /// masking vector (their `len u64` words).
    fn key_and_offsets() -> (Vec<u8>, usize, usize) {
        let sk = DceSecretKey::generate(4, &mut seeded_rng(323));
        let parts = sk.raw_parts();
        let pi1 = 16 + sk.matrices().iter().map(|m| 16 + m.data().len() * 8).sum::<usize>();
        let kv1 = pi1 + 16 + 4 * (parts.pi1.len() + parts.pi2.len()) + 32;
        (sk.to_bytes(), pi1, kv1)
    }

    fn load_edited(at: usize, value: u64) -> Result<DceSecretKey, KeyCodecError> {
        let (mut bytes, _, _) = key_and_offsets();
        bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
        DceSecretKey::from_bytes(bytes)
    }

    #[test]
    fn the_unedited_key_loads() {
        let (bytes, pi1, kv1) = key_and_offsets();
        assert_eq!(DceSecretKey::from_bytes(&bytes).unwrap().to_bytes(), bytes);
        let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        assert_eq!((word(pi1), word(kv1)), (4, crate::ciphertext_dim(4) as u64));
    }

    /// Claimed sizes whose byte count overflows `u64` are truncation, not
    /// a panic or an allocation: `rows·cols`, then ×8, of the first matrix
    /// of a 96-byte key; ×8 of a vector length; ×4 of a permutation length.
    #[test]
    fn overflowing_lengths_are_truncated() {
        for (rows, cols) in [(1u64 << 61, 1u64), (1 << 32, 1 << 32)] {
            let mut key = MAGIC.to_vec();
            key.extend(VERSION.to_le_bytes());
            key.extend(4u64.to_le_bytes());
            key.extend(rows.to_le_bytes());
            key.extend(cols.to_le_bytes());
            key.resize(96, 0);
            assert_eq!(DceSecretKey::from_bytes(&key).unwrap_err(), KeyCodecError::Truncated);
        }
        assert_eq!(DceSecretKey::from_bytes(huge_dim_key()).unwrap_err(), KeyCodecError::Truncated);
        let (_, pi1, kv1) = key_and_offsets();
        assert_eq!(load_edited(kv1, 1 << 61).unwrap_err(), KeyCodecError::Truncated);
        assert_eq!(load_edited(pi1, 1 << 62).unwrap_err(), KeyCodecError::Truncated);
    }

    /// A 208-byte key claiming dim = u64::MAX, every matrix 0 × 0 and
    /// every permutation and vector empty.
    fn huge_dim_key() -> Vec<u8> {
        let mut key = MAGIC.to_vec();
        key.extend(VERSION.to_le_bytes());
        key.extend(u64::MAX.to_le_bytes());
        key.resize(key.len() + 7 * 16 + 2 * 8 + 4 * 8 + 4 * 8, 0);
        key
    }

    /// A permutation with a repeated entry is refused, not a panic.
    #[test]
    fn a_map_that_is_not_a_permutation_is_truncated() {
        let (mut bytes, pi1, _) = key_and_offsets();
        let first = bytes[pi1 + 8..pi1 + 12].to_vec();
        bytes[pi1 + 12..pi1 + 16].copy_from_slice(&first);
        assert_eq!(DceSecretKey::from_bytes(bytes).unwrap_err(), KeyCodecError::Truncated);
    }
}
