//! Byte codecs for the messages that cross the user ↔ cloud boundary.
//!
//! These are the serialization hooks the network service (`ppann-service`)
//! frames and ships; they live here so the core types own their own wire
//! layout. Same conventions as every other snapshot format in the
//! workspace: hand-rolled little-endian over `bytes`, no serialization
//! crate (DESIGN.md §5), every length validated before it is trusted.
//! The full frame-level spec, including worked hex examples, is
//! `PROTOCOL.md` at the repository root.
//!
//! Only ciphertext, id and cost material is ever encoded:
//!
//! * [`EncryptedQuery`] — the SAP ciphertext, the DCE trapdoor and `k`.
//!   Both components are ciphertext under the owner's key; the plaintext
//!   query never has a codec.
//! * [`SearchParams`] — the public `k′`/`efSearch` knobs.
//! * [`SearchOutcome`] — result ids, encrypted-space (SAP) distances and
//!   the cost counters. No plaintext distance exists to leak.

use crate::query::EncryptedQuery;
use crate::server::{SearchOutcome, SearchParams};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use ppann_dce::{DceCiphertext, DceTrapdoor};
use std::time::Duration;

use crate::cost::QueryCost;

/// Decoding failures for the wire codecs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than the encoded lengths claim.
    Truncated,
    /// Structurally invalid payload (reason attached).
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated message"),
            WireError::Malformed(msg) => write!(f, "malformed message: {msg}"),
        }
    }
}
impl std::error::Error for WireError {}

/// Appends `v` as `u64 length | f64 × length`.
pub fn put_f64_slice(buf: &mut BytesMut, v: &[f64]) {
    buf.put_u64_le(v.len() as u64);
    for x in v {
        buf.put_f64_le(*x);
    }
}

/// Reads a vector written by [`put_f64_slice`], validating the claimed
/// length against the remaining bytes before allocating.
pub fn get_f64_slice(data: &mut Bytes) -> Result<Vec<f64>, WireError> {
    if data.remaining() < 8 {
        return Err(WireError::Truncated);
    }
    let n = data.get_u64_le() as usize;
    if data.remaining() < n.checked_mul(8).ok_or(WireError::Truncated)? {
        return Err(WireError::Truncated);
    }
    Ok((0..n).map(|_| data.get_f64_le()).collect())
}

/// Appends a DCE ciphertext row as `component_dim u64 | 4 × component_dim
/// f64` (the four components in order) — the layout insert frames and WAL
/// insert records share.
pub fn put_dce_ciphertext(buf: &mut BytesMut, ct: &DceCiphertext) {
    buf.put_u64_le(ct.component_dim() as u64);
    for comp in ct.components() {
        for v in comp {
            buf.put_f64_le(*v);
        }
    }
}

/// Reads a row written by [`put_dce_ciphertext`], validating the claimed
/// width against the remaining bytes before allocating.
pub fn get_dce_ciphertext(data: &mut Bytes) -> Result<DceCiphertext, WireError> {
    if data.remaining() < 8 {
        return Err(WireError::Truncated);
    }
    let comp_dim = data.get_u64_le() as usize;
    let need = comp_dim.checked_mul(4 * 8).ok_or(WireError::Truncated)?;
    if data.remaining() < need {
        return Err(WireError::Truncated);
    }
    let mut comps: [Vec<f64>; 4] = Default::default();
    for comp in &mut comps {
        comp.extend((0..comp_dim).map(|_| data.get_f64_le()));
    }
    let [a, b, c, d] = comps;
    Ok(DceCiphertext::from_components(a, b, c, d))
}

impl SearchParams {
    /// Appends `k_prime u64 | ef_search u64`.
    pub fn write_to(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.k_prime as u64);
        buf.put_u64_le(self.ef_search as u64);
    }

    /// Reads parameters written by [`Self::write_to`].
    pub fn read_from(data: &mut Bytes) -> Result<Self, WireError> {
        if data.remaining() < 16 {
            return Err(WireError::Truncated);
        }
        Ok(Self { k_prime: data.get_u64_le() as usize, ef_search: data.get_u64_le() as usize })
    }
}

impl EncryptedQuery {
    /// Appends `k u64 | c_sap (u64 len + f64×) | trapdoor (u64 len + f64×)`.
    ///
    /// Everything here is already ciphertext: `c_sap` is the SAP encryption
    /// of the (normalized) query and the trapdoor is DCE key material mixed
    /// with per-query randomness. The plaintext query cannot be encoded
    /// because it never reaches this type.
    pub fn write_to(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.k as u64);
        put_f64_slice(buf, &self.c_sap);
        put_f64_slice(buf, self.trapdoor.as_slice());
    }

    /// Reads a query written by [`Self::write_to`].
    pub fn read_from(data: &mut Bytes) -> Result<Self, WireError> {
        if data.remaining() < 8 {
            return Err(WireError::Truncated);
        }
        let k = data.get_u64_le() as usize;
        if k == 0 {
            return Err(WireError::Malformed("k must be positive".into()));
        }
        let c_sap = get_f64_slice(data)?;
        let trapdoor = get_f64_slice(data)?;
        Ok(Self { c_sap, trapdoor: DceTrapdoor::from_vec(trapdoor), k })
    }

    /// Exact encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        8 + (8 + 8 * self.c_sap.len()) + (8 + 8 * self.trapdoor.dim())
    }
}

impl SearchOutcome {
    /// Appends `n u64 | ids u32×n | sap_dists f64×n | filter_candidates u64
    /// | filter_dist_comps u64 | refine_sdc_comps u64 | server_micros u64
    /// | bytes_up u64 | bytes_down u64`.
    ///
    /// `server_time` is carried as whole microseconds, so a decoded outcome
    /// reproduces the original ids/distances bit-for-bit but rounds the
    /// timing (the only lossy field, and an explicitly approximate one).
    pub fn write_to(&self, buf: &mut BytesMut) {
        debug_assert_eq!(self.ids.len(), self.sap_dists.len(), "ids/sap_dists misaligned");
        buf.put_u64_le(self.ids.len() as u64);
        for id in &self.ids {
            buf.put_u32_le(*id);
        }
        for d in &self.sap_dists {
            buf.put_f64_le(*d);
        }
        buf.put_u64_le(self.filter_candidates as u64);
        buf.put_u64_le(self.cost.filter_dist_comps);
        buf.put_u64_le(self.cost.refine_sdc_comps);
        buf.put_u64_le(self.cost.server_time.as_micros() as u64);
        buf.put_u64_le(self.cost.bytes_up);
        buf.put_u64_le(self.cost.bytes_down);
    }

    /// Reads an outcome written by [`Self::write_to`].
    pub fn read_from(data: &mut Bytes) -> Result<Self, WireError> {
        if data.remaining() < 8 {
            return Err(WireError::Truncated);
        }
        let n = data.get_u64_le() as usize;
        let need = n.checked_mul(12).ok_or(WireError::Truncated)?.checked_add(48);
        if need.is_none_or(|need| data.remaining() < need) {
            return Err(WireError::Truncated);
        }
        let ids: Vec<u32> = (0..n).map(|_| data.get_u32_le()).collect();
        let sap_dists: Vec<f64> = (0..n).map(|_| data.get_f64_le()).collect();
        let filter_candidates = data.get_u64_le() as usize;
        let cost = QueryCost {
            filter_dist_comps: data.get_u64_le(),
            refine_sdc_comps: data.get_u64_le(),
            server_time: Duration::from_micros(data.get_u64_le()),
            bytes_up: data.get_u64_le(),
            bytes_down: data.get_u64_le(),
        };
        Ok(Self { ids, sap_dists, filter_candidates, cost })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_outcome() -> SearchOutcome {
        SearchOutcome {
            ids: vec![3, 1, 4, 1_000_000],
            sap_dists: vec![0.25, 1.5, -0.0, f64::MAX],
            filter_candidates: 40,
            cost: QueryCost {
                filter_dist_comps: 123,
                refine_sdc_comps: 456,
                server_time: Duration::from_micros(789),
                bytes_up: 1024,
                bytes_down: 16,
            },
        }
    }

    #[test]
    fn query_roundtrip_is_bit_exact() {
        let q = EncryptedQuery {
            c_sap: vec![1.0, -2.5, 3.25e-8],
            trapdoor: DceTrapdoor::from_vec(vec![0.5, f64::MIN_POSITIVE, -1e300]),
            k: 7,
        };
        let mut buf = BytesMut::new();
        q.write_to(&mut buf);
        assert_eq!(buf.len(), q.encoded_len());
        let mut data = buf.freeze();
        let back = EncryptedQuery::read_from(&mut data).unwrap();
        assert!(!data.has_remaining());
        assert_eq!(back.k, 7);
        assert_eq!(back.c_sap, q.c_sap);
        assert_eq!(back.trapdoor.as_slice(), q.trapdoor.as_slice());
    }

    #[test]
    fn outcome_roundtrip_is_bit_exact() {
        let out = sample_outcome();
        let mut buf = BytesMut::new();
        out.write_to(&mut buf);
        let mut data = buf.freeze();
        let back = SearchOutcome::read_from(&mut data).unwrap();
        assert!(!data.has_remaining());
        assert_eq!(back.ids, out.ids);
        assert_eq!(
            back.sap_dists.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
            out.sap_dists.iter().map(|d| d.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(back.filter_candidates, 40);
        assert_eq!(back.cost.filter_dist_comps, 123);
        assert_eq!(back.cost.refine_sdc_comps, 456);
        assert_eq!(back.cost.server_time, Duration::from_micros(789));
        assert_eq!(back.cost.bytes_up, 1024);
        assert_eq!(back.cost.bytes_down, 16);
    }

    #[test]
    fn params_roundtrip() {
        let p = SearchParams { k_prime: 160, ef_search: 320 };
        let mut buf = BytesMut::new();
        p.write_to(&mut buf);
        assert_eq!(SearchParams::read_from(&mut buf.freeze()).unwrap(), p);
    }

    #[test]
    fn truncations_are_rejected_not_panics() {
        let q = EncryptedQuery {
            c_sap: vec![1.0; 8],
            trapdoor: DceTrapdoor::from_vec(vec![2.0; 32]),
            k: 3,
        };
        let mut buf = BytesMut::new();
        q.write_to(&mut buf);
        let full = buf.freeze().to_vec();
        for cut in 0..full.len() {
            let mut data = Bytes::from(full[..cut].to_vec());
            assert!(
                EncryptedQuery::read_from(&mut data).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
        let out = sample_outcome();
        let mut buf = BytesMut::new();
        out.write_to(&mut buf);
        let full = buf.freeze().to_vec();
        for cut in 0..full.len() {
            let mut data = Bytes::from(full[..cut].to_vec());
            assert!(SearchOutcome::read_from(&mut data).is_err());
        }
    }

    #[test]
    fn absurd_claimed_lengths_are_rejected() {
        // A query whose c_sap length field claims u64::MAX elements must be
        // rejected by the remaining-bytes check, not overflow or allocate.
        let mut buf = BytesMut::new();
        buf.put_u64_le(5); // k
        buf.put_u64_le(u64::MAX); // c_sap length
        buf.put_f64_le(1.0);
        assert_eq!(EncryptedQuery::read_from(&mut buf.freeze()).unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn zero_k_is_malformed() {
        let mut buf = BytesMut::new();
        buf.put_u64_le(0);
        put_f64_slice(&mut buf, &[1.0]);
        put_f64_slice(&mut buf, &[1.0]);
        assert!(matches!(
            EncryptedQuery::read_from(&mut buf.freeze()).unwrap_err(),
            WireError::Malformed(_)
        ));
    }
}
