//! HNSW construction and search parameters.

use bytes::{Buf, BufMut};

/// Largest layer-0 degree [`HnswParams::validate`] accepts: three times
/// the paper's `m0 = 80`. Every node owns an `(m0 + 2)`-word layer-0 row
/// whatever its actual degree, so the bound caps a row at about 1 KiB.
pub(crate) const MAX_DEGREE: usize = 256;

/// Construction parameters of the HNSW graph.
///
/// The paper's evaluation (Section VII-A) uses `m = 40` and
/// `efConstruction = 600`, selected by grid search; the defaults here are the
/// classic `m = 16`, `efConstruction = 200`, which the benchmark harness
/// overrides per experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HnswParams {
    /// Maximum out-degree on layers above 0 (the paper's `m`).
    pub m: usize,
    /// Maximum out-degree on layer 0 (conventionally `2·m`).
    pub m0: usize,
    /// Beam width while constructing (`efConstruction`).
    pub ef_construction: usize,
    /// Seed for the level sampler, making construction deterministic.
    pub seed: u64,
}

impl Default for HnswParams {
    fn default() -> Self {
        Self { m: 16, m0: 32, ef_construction: 200, seed: 0x5EED }
    }
}

impl HnswParams {
    /// Paper-style parameters (`m = 40`, `efConstruction = 600`).
    pub fn paper() -> Self {
        Self { m: 40, m0: 80, ef_construction: 600, ..Self::default() }
    }

    /// Maximum degree allowed on `layer`.
    pub fn max_degree(&self, layer: usize) -> usize {
        if layer == 0 {
            self.m0
        } else {
            self.m
        }
    }

    /// Level-sampling normalization `mL = 1/ln(m)`.
    pub fn ml(&self) -> f64 {
        1.0 / (self.m as f64).ln()
    }

    /// Length of the block [`Self::encode`] writes.
    pub const ENCODED_LEN: usize = 3 * 8 + 2 + 8;

    /// Appends the parameter block that the HNSW snapshot and the owner's
    /// key file share: `m`, `m0` and `ef_construction` as little-endian
    /// u64s, two retired option bytes (once `extend_candidates` and
    /// `keep_pruned`), then the seed. The retired bytes are written as 0
    /// and 1, the values every earlier writer used by default, so files
    /// stay byte-identical.
    pub fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u64_le(self.m as u64);
        buf.put_u64_le(self.m0 as u64);
        buf.put_u64_le(self.ef_construction as u64);
        buf.put_slice(&[0, 1]);
        buf.put_u64_le(self.seed);
    }

    /// Reads a block written by [`Self::encode`], skipping the retired
    /// bytes whatever they hold. The caller checks that
    /// [`Self::ENCODED_LEN`] bytes remain and validates the result.
    pub fn decode(data: &mut impl Buf) -> Self {
        let m = data.get_u64_le() as usize;
        let m0 = data.get_u64_le() as usize;
        let ef_construction = data.get_u64_le() as usize;
        data.advance(2);
        Self { m, m0, ef_construction, seed: data.get_u64_le() }
    }

    /// Validates invariants (`2 ≤ m ≤ m0 ≤ 256`, beam ≥ 1).
    pub fn validate(&self) -> Result<(), String> {
        if self.m < 2 {
            return Err(format!("m must be ≥ 2, got {}", self.m));
        }
        if self.m0 < self.m {
            return Err(format!("m0 ({}) must be ≥ m ({})", self.m0, self.m));
        }
        if self.m0 > MAX_DEGREE {
            return Err(format!("m0 ({}) must be ≤ {MAX_DEGREE}", self.m0));
        }
        if self.ef_construction == 0 {
            return Err("ef_construction must be ≥ 1".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        assert!(HnswParams::default().validate().is_ok());
        assert!(HnswParams::paper().validate().is_ok());
    }

    #[test]
    fn degree_per_layer() {
        let p = HnswParams::default();
        assert_eq!(p.max_degree(0), 32);
        assert_eq!(p.max_degree(1), 16);
        assert_eq!(p.max_degree(5), 16);
    }

    #[test]
    fn invalid_params_rejected() {
        let p = HnswParams { m: 1, ..Default::default() };
        assert!(p.validate().is_err());
        let p2 = HnswParams { m0: 4, ..Default::default() };
        assert!(p2.validate().is_err());
        let p3 = HnswParams { m0: MAX_DEGREE + 1, ..Default::default() };
        assert!(p3.validate().is_err());
    }
}
