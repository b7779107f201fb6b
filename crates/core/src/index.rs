//! The encrypted database the cloud stores: SAP ciphertexts inside the HNSW
//! index, plus the aligned DCE ciphertexts (paper Figure 3, `B1`/`B2`).

use crate::persist::PersistError;
use crate::wal::WalRecord;
use ppann_dce::DceCiphertext;
use ppann_hnsw::Hnsw;
use ppann_linalg::vector;

/// Why a mutation was refused. Every refusal leaves the database (and a
/// durable collection's log) untouched. The `Display` texts are the
/// messages the service answers clients with.
#[derive(Debug)]
pub enum MutationError {
    /// The insert's id is not the next free slot.
    IdMismatch { expected: u32, got: u32 },
    /// The insert's SAP ciphertext is not as wide as the index.
    SapDim { expected: usize, got: usize },
    /// The insert's DCE components are not `ciphertext_dim(dim)` wide.
    DceWidth { expected: usize, got: usize },
    /// The delete names an id that is not live.
    NotLive(u32),
    /// A checkpoint seals a log; it is not a mutation.
    Checkpoint,
    /// The write-ahead log append failed (durable collections only).
    Storage(PersistError),
}

impl std::fmt::Display for MutationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::IdMismatch { expected, got } => {
                write!(f, "insert id {got} is not the next slot {expected}")
            }
            Self::SapDim { expected, got } => {
                write!(f, "insert dim {got} != served dim {expected}")
            }
            Self::DceWidth { expected, got } => {
                write!(f, "DCE component dim {got} != expected {expected}")
            }
            Self::NotLive(id) => write!(f, "id {id} out of range or already deleted"),
            Self::Checkpoint => f.write_str("checkpoint record mid-stream"),
            Self::Storage(e) => write!(f, "write-ahead log append failed: {e}"),
        }
    }
}
impl std::error::Error for MutationError {}

impl From<std::io::Error> for MutationError {
    fn from(e: std::io::Error) -> Self {
        Self::Storage(e.into())
    }
}

/// Everything the server holds: the HNSW graph whose `VecStore` contains the
/// SAP ciphertexts, and one DCE ciphertext per vector, aligned by id.
pub struct EncryptedDatabase {
    hnsw: Hnsw,
    dce: Vec<DceCiphertext>,
}

impl EncryptedDatabase {
    /// Assembles a database; ids of the HNSW store and the DCE list must
    /// align (they do by construction in [`crate::DataOwner::outsource`]).
    pub fn new(hnsw: Hnsw, dce: Vec<DceCiphertext>) -> Self {
        assert_eq!(
            hnsw.capacity_slots(),
            dce.len(),
            "HNSW store and DCE ciphertext list must align"
        );
        Self { hnsw, dce }
    }

    /// An empty database of dimensionality `dim` (default HNSW build
    /// parameters): the starting point of a collection created over the
    /// wire, which the owner then populates with pre-encrypted
    /// [`Self::insert`]s.
    pub fn empty(dim: usize) -> Self {
        Self::new(Hnsw::build(dim, ppann_hnsw::HnswParams::default(), &[]), Vec::new())
    }

    /// Number of live vectors.
    pub fn len(&self) -> usize {
        self.hnsw.len()
    }

    /// Vector dimensionality stored (SAP-ciphertext width).
    pub fn dim(&self) -> usize {
        self.hnsw.dim()
    }

    /// True when the database holds no live vectors.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The filter index.
    pub fn hnsw(&self) -> &Hnsw {
        &self.hnsw
    }

    /// The aligned DCE ciphertexts.
    pub fn dce_ciphertexts(&self) -> &[DceCiphertext] {
        &self.dce
    }

    /// Whether `id` names a live (in-range, not tombstoned) vector.
    pub fn is_live(&self, id: u32) -> bool {
        (id as usize) < self.hnsw.capacity_slots() && !self.hnsw.is_deleted(id)
    }

    /// Encrypted-space distances between a query's SAP ciphertext and the
    /// stored SAP ciphertexts of `ids` (see
    /// [`SearchOutcome::sap_dists`](crate::SearchOutcome::sap_dists)).
    pub fn sap_distances(&self, c_sap_query: &[f64], ids: &[u32]) -> Vec<f64> {
        let store = self.hnsw.store();
        ids.iter().map(|&id| vector::squared_euclidean(c_sap_query, store.get(id))).collect()
    }

    /// The one admission check every mutation from outside passes —
    /// a client insert or delete, a replayed log record, a record a
    /// primary shipped (DESIGN.md §5): an insert's id is the next slot,
    /// its SAP ciphertext is `dim` wide and its DCE components are
    /// `ciphertext_dim(dim)` wide; a delete names a live id. A row of
    /// any other shape would trip the refine of every query that
    /// touches it.
    pub fn admit(&self, record: &WalRecord) -> Result<(), MutationError> {
        match record {
            WalRecord::Insert { id, c_sap, c_dce } => {
                let expected = self.hnsw.capacity_slots() as u32;
                if *id != expected {
                    return Err(MutationError::IdMismatch { expected, got: *id });
                }
                let dim = self.dim();
                if c_sap.len() != dim {
                    return Err(MutationError::SapDim { expected: dim, got: c_sap.len() });
                }
                let width = ppann_dce::ciphertext_dim(dim);
                if c_dce.component_dim() != width {
                    return Err(MutationError::DceWidth {
                        expected: width,
                        got: c_dce.component_dim(),
                    });
                }
                Ok(())
            }
            WalRecord::Delete { id } if self.is_live(*id) => Ok(()),
            WalRecord::Delete { id } => Err(MutationError::NotLive(*id)),
            WalRecord::Checkpoint { .. } => Err(MutationError::Checkpoint),
        }
    }

    /// [`Self::admit`], then the mutation; returns the id it inserted or
    /// deleted.
    pub fn apply(&mut self, record: WalRecord) -> Result<u32, MutationError> {
        self.admit(&record)?;
        Ok(self.apply_admitted(record))
    }

    /// Applies a record [`Self::admit`] accepted against this state.
    pub(crate) fn apply_admitted(&mut self, record: WalRecord) -> u32 {
        match record {
            WalRecord::Insert { c_sap, c_dce, .. } => self.insert(c_sap, c_dce),
            WalRecord::Delete { id } => {
                self.delete(id);
                id
            }
            WalRecord::Checkpoint { .. } => unreachable!("admit refuses checkpoints"),
        }
    }

    /// Inserts a pre-encrypted vector (server-side half of the paper's
    /// Section V-D insertion: the owner encrypted, the server wires the
    /// graph). Returns the assigned id. Unchecked: rows from outside the
    /// process go through [`Self::apply`].
    pub fn insert(&mut self, c_sap: Vec<f64>, c_dce: DceCiphertext) -> u32 {
        let id = self.hnsw.insert(&c_sap);
        debug_assert_eq!(id as usize, self.dce.len());
        self.dce.push(c_dce);
        id
    }

    /// Deletes a vector by id; the HNSW repair runs entirely server-side
    /// (paper: "the deletion could be finished solely by the server").
    pub fn delete(&mut self, id: u32) {
        self.hnsw.delete(id);
        // The DCE ciphertext slot is retained as a tombstone so ids stay
        // aligned; the filter phase never returns deleted ids.
    }

    /// Decomposes the database into its index and ciphertext list.
    pub fn into_parts(self) -> (Hnsw, Vec<DceCiphertext>) {
        (self.hnsw, self.dce)
    }
}

impl std::fmt::Debug for EncryptedDatabase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EncryptedDatabase")
            .field("live", &self.len())
            .field("slots", &self.hnsw.capacity_slots())
            .finish_non_exhaustive()
    }
}
