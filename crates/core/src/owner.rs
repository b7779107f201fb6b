//! The data owner: key generation, database encryption, index construction.

use crate::index::EncryptedDatabase;
use crate::user::QueryUser;
use ppann_dce::DceSecretKey;
use ppann_dcpe::{SapEncryptor, SapKey};
use ppann_hnsw::{Hnsw, HnswParams};
use ppann_linalg::{seeded_rng, vector};
use std::sync::Arc;

/// Scheme-wide parameters chosen by the data owner.
#[derive(Clone, Copy, Debug)]
pub struct PpAnnParams {
    /// Vector dimensionality.
    pub dim: usize,
    /// SAP scaling factor `s` (the paper uses 1024).
    pub sap_s: f64,
    /// SAP noise budget `β`, expressed against *normalized* data
    /// (coordinates scaled into `[-1, 1]`, so `M = 1` and the admissible
    /// range is `[1, 2√d]`). `0` disables the noise (Figure 4's β = 0).
    pub sap_beta: f64,
    /// HNSW construction parameters for the filter index.
    pub hnsw: HnswParams,
    /// Master seed: key generation and all encryption randomness derive
    /// from it, making experiments reproducible.
    pub seed: u64,
}

impl PpAnnParams {
    /// Sensible defaults for `dim`-dimensional data (β = 1, the low end of
    /// the admissible range; tune per dataset as in Figure 4).
    pub fn new(dim: usize) -> Self {
        Self { dim, sap_s: 1024.0, sap_beta: 1.0, hnsw: HnswParams::default(), seed: 0xACE }
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the SAP β.
    pub fn with_beta(mut self, beta: f64) -> Self {
        self.sap_beta = beta;
        self
    }

    /// Replaces the HNSW parameters.
    pub fn with_hnsw(mut self, hnsw: HnswParams) -> Self {
        self.hnsw = hnsw;
        self
    }
}

/// The owner's secret key bundle: the DCE key, the SAP key, and the
/// coordinate normalization factor. Shared with authorized users via `Arc`
/// (step 0 of the paper's system model) — the server never sees it.
pub struct OwnerSecretKey {
    pub(crate) dce: DceSecretKey,
    pub(crate) sap: SapEncryptor,
    /// All plaintexts are scaled by this factor before encryption so that
    /// coordinates live in `[-1, 1]`: scaling never changes neighbor order
    /// but keeps DCE's f64 comparisons numerically exact (DESIGN.md §6).
    pub(crate) norm_scale: f64,
    pub(crate) dim: usize,
}

impl OwnerSecretKey {
    /// Applies coordinate normalization to a plaintext vector.
    pub(crate) fn normalize(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.dim, "vector dimension mismatch");
        vector::scaled(v, self.norm_scale)
    }
}

impl OwnerSecretKey {
    /// Reassembles a key bundle from its parts (key-file restore).
    pub(crate) fn from_parts(
        dce: DceSecretKey,
        sap: SapEncryptor,
        norm_scale: f64,
        dim: usize,
    ) -> Self {
        Self { dce, sap, norm_scale, dim }
    }

    /// The coordinate normalization factor.
    pub(crate) fn norm_scale_value(&self) -> f64 {
        self.norm_scale
    }
}

impl std::fmt::Debug for OwnerSecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OwnerSecretKey").field("dim", &self.dim).finish_non_exhaustive()
    }
}

/// The data owner (paper Figure 1).
pub struct DataOwner {
    key: Arc<OwnerSecretKey>,
    params: PpAnnParams,
}

impl DataOwner {
    /// Generates the key bundle. The normalization factor is calibrated from
    /// the database (`1 / max |coordinate|`), so `setup` takes the data the
    /// owner is about to outsource.
    pub fn setup(params: PpAnnParams, data: &[Vec<f64>]) -> Self {
        assert!(params.dim > 0, "dimension must be positive");
        let mut rng = seeded_rng(params.seed);
        let max_abs = data.iter().map(|v| vector::max_abs(v)).fold(0.0f64, f64::max);
        let norm_scale = if max_abs > 0.0 { 1.0 / max_abs } else { 1.0 };
        let dce = DceSecretKey::generate(params.dim, &mut rng);
        let sap = SapEncryptor::new(SapKey::new(params.sap_s, params.sap_beta));
        Self { key: Arc::new(OwnerSecretKey { dce, sap, norm_scale, dim: params.dim }), params }
    }

    /// The scheme parameters.
    pub fn params(&self) -> &PpAnnParams {
        &self.params
    }

    /// Borrow of the secret key bundle (persistence support).
    pub(crate) fn secret_key(&self) -> &OwnerSecretKey {
        &self.key
    }

    /// Reassembles an owner from restored parts (key-file restore).
    pub(crate) fn from_parts(key: Arc<OwnerSecretKey>, params: PpAnnParams) -> Self {
        Self { key, params }
    }

    /// Encrypts the database under SAP and DCE and builds the HNSW filter
    /// index over the SAP ciphertexts — everything the cloud will store
    /// (`B1`/`B2` in the paper's Figure 3). Bulk encryption is parallel;
    /// index construction is the standard sequential insertion.
    pub fn outsource(&self, data: &[Vec<f64>]) -> EncryptedDatabase {
        let normalized: Vec<Vec<f64>> = data.iter().map(|v| self.key.normalize(v)).collect();
        let sap_cts = self.key.sap.encrypt_batch(&normalized, self.params.seed ^ 0x5A9);
        let dce_cts = self.key.dce.encrypt_batch(&normalized, self.params.seed ^ 0xDCE);
        let hnsw = Hnsw::build(self.params.dim, self.params.hnsw, &sap_cts);
        EncryptedDatabase::new(hnsw, dce_cts)
    }

    /// Encrypts one additional vector for insertion (paper Section V-D): the
    /// owner produces `(C_u^SAP, C_u^DCE)` and ships them to the server.
    pub fn encrypt_for_insert(
        &self,
        v: &[f64],
        nonce: u64,
    ) -> (Vec<f64>, ppann_dce::DceCiphertext) {
        let normalized = self.key.normalize(v);
        let mut rng = seeded_rng(self.params.seed ^ 0x1235_4321 ^ nonce);
        let sap = self.key.sap.encrypt(&normalized, &mut rng);
        let dce = self.key.dce.encrypt(&normalized, &mut rng);
        (sap, dce)
    }

    /// Authorizes a query user by sharing the secret key bundle
    /// (step 0 of the system model).
    pub fn authorize_user(&self) -> QueryUser {
        QueryUser::new(Arc::clone(&self.key), self.params.seed ^ 0x05E5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppann_linalg::uniform_vec;

    #[test]
    fn setup_normalizes_to_unit_coordinates() {
        let mut rng = seeded_rng(131);
        let data: Vec<Vec<f64>> = (0..20).map(|_| uniform_vec(&mut rng, 4, -50.0, 50.0)).collect();
        let owner = DataOwner::setup(PpAnnParams::new(4), &data);
        let max =
            data.iter().map(|v| vector::max_abs(&owner.key.normalize(v))).fold(0.0f64, f64::max);
        assert!((max - 1.0).abs() < 1e-12);
    }

    #[test]
    fn outsourced_database_is_complete() {
        let mut rng = seeded_rng(132);
        let data: Vec<Vec<f64>> = (0..50).map(|_| uniform_vec(&mut rng, 6, -1.0, 1.0)).collect();
        let owner = DataOwner::setup(PpAnnParams::new(6).with_seed(1), &data);
        let db = owner.outsource(&data);
        assert_eq!(db.len(), 50);
        assert_eq!(db.dce_ciphertexts().len(), 50);
        assert_eq!(db.hnsw().dim(), 6);
    }

    #[test]
    fn empty_database_setup_does_not_divide_by_zero() {
        let owner = DataOwner::setup(PpAnnParams::new(3), &[]);
        let db = owner.outsource(&[]);
        assert_eq!(db.len(), 0);
    }
}
