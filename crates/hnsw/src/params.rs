//! HNSW construction and search parameters.

use ppann_linalg::{Section, SectionError};
use std::io::{self, Read, Write};

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

    /// Length of the block [`Self::write_to`] writes.
    pub const ENCODED_LEN: usize = 3 * 8 + 2 + 8;

    /// Writes the parameter block that the HNSW snapshot and the owner's
    /// key file share: `m`, `m0` and `ef_construction` as little-endian
    /// u64s, two retired option bytes (once `extend_candidates` and
    /// `keep_pruned`), then the seed. The retired bytes are written as 0
    /// and 1, the values every earlier writer used by default, so files
    /// stay byte-identical.
    pub fn write_to<W: Write + ?Sized>(&self, w: &mut W) -> io::Result<()> {
        for v in [self.m, self.m0, self.ef_construction] {
            w.write_all(&(v as u64).to_le_bytes())?;
        }
        w.write_all(&[0, 1])?;
        w.write_all(&self.seed.to_le_bytes())
    }

    /// Reads a block written by [`Self::write_to`], skipping the retired
    /// bytes whatever they hold. The caller validates the result.
    pub fn read_from<R: Read + ?Sized>(data: &mut Section<'_, R>) -> Result<Self, SectionError> {
        let [m, m0, ef_construction] = [data.u64()?, data.u64()?, data.u64()?].map(|v| v as usize);
        data.array::<2>()?;
        Ok(Self { m, m0, ef_construction, seed: data.u64()? })
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
