//! # ppann-core
//!
//! The complete **PP-ANNS scheme** of the reproduced paper (Section V):
//! a single-server, non-interactive privacy-preserving k-ANN search.
//!
//! ## Roles (paper Figure 1)
//!
//! * [`DataOwner`] — holds the plaintext database; generates the secret key
//!   bundle, encrypts every vector under **both** DCPE/SAP (approximate, for
//!   the index) and DCE (exact comparisons, for refinement), builds the HNSW
//!   graph over the SAP ciphertexts, and outsources everything to the cloud.
//! * [`QueryUser`] — holds the authorized secret key; per query computes one
//!   SAP ciphertext and one DCE trapdoor (O(d²) work) and sends `(C_q, T_q, k)`.
//! * [`CloudServer`] — stores only ciphertexts; answers queries with the
//!   **filter-and-refine** search of Algorithm 2: a k′-ANN search on the
//!   HNSW-over-SAP index (cheap, approximate) followed by an exact top-k
//!   refinement that orders candidates *only* through DCE's `DistanceComp`.
//!
//! ## Beyond the paper: one server, many collections
//!
//! There is one server shape: the paper's [`CloudServer`]. A [`Catalog`]
//! hosts many *named collections* of it in one process, each a
//! [`Collection`] holding its `CloudServer` behind a read-write lock
//! (concurrent searches, exclusive maintenance), its request counters
//! ([`ServiceStats`]) and an optional write-ahead log; collections may
//! differ in dimensionality. The catalog is the one registry of
//! collections: it serializes create and drop, and every listener of the
//! network service routes through it. The network service namespaces its
//! requests over the catalog, and [`BatchExecutor`] fans a query batch
//! over one collection's shared lock with work-stealing threads.
//!
//! ## What the server learns
//!
//! Per the paper's threat model, the server sees SAP ciphertexts, DCE
//! ciphertexts, the (approximate) HNSW neighborhood structure, and the signs
//! of distance comparisons during refinement — nothing else. No plaintext
//! vector, query, or distance value is ever materialized server-side.
//!
//! ```
//! use ppann_core::{CloudServer, DataOwner, PpAnnParams, SearchParams};
//! use ppann_linalg::{seeded_rng, uniform_vec};
//!
//! let mut rng = seeded_rng(7);
//! let data: Vec<Vec<f64>> = (0..200).map(|_| uniform_vec(&mut rng, 8, -1.0, 1.0)).collect();
//! let params = PpAnnParams::new(8).with_seed(42);
//! let owner = DataOwner::setup(params, &data);
//! let server = CloudServer::new(owner.outsource(&data));
//! let mut user = owner.authorize_user();
//!
//! let query = user.encrypt_query(&data[0], 5);
//! let outcome = server.search(&query, &SearchParams { k_prime: 20, ef_search: 40 });
//! assert_eq!(outcome.ids.len(), 5);
//! assert_eq!(outcome.ids[0], 0); // the query point itself is its own 1-NN
//! ```

pub mod batch;
pub mod catalog;
mod cost;
mod heap;
mod index;
mod keyfile;
mod owner;
mod persist;
mod query;
mod scratch;
mod server;
mod stats;
pub mod tune;
mod user;
pub mod wal;
pub mod wire;

pub use batch::{BatchExecutor, BatchOutcome};
pub use catalog::{
    validate_collection_name, Catalog, CatalogError, Collection, CollectionInfo,
    DurableCatalogError, ReplicationSource, WalRecoveryReport, WalStatus, DEFAULT_COLLECTION,
    MAX_COLLECTION_NAME_LEN,
};
pub use cost::{QueryCost, UserCost};
pub use heap::SecureTopK;
pub use index::{EncryptedDatabase, MutationError};
pub use owner::{DataOwner, OwnerSecretKey, PpAnnParams};
pub use persist::{
    atomic_write, collection_snapshot_bytes, load_snapshot, load_snapshot_bytes, open_snapshot,
    read_snapshot, save_collection_snapshot, write_collection_snapshot, write_collection_to,
    CollectionMeta, PersistError, SnapshotFile, SNAPSHOT_EXT,
};
pub use query::EncryptedQuery;
pub use scratch::{QueryScratch, QueryScratchPool};
pub use server::{CloudServer, SearchOutcome, SearchParams};
pub use stats::{ServiceStats, StatsSnapshot};
pub use user::QueryUser;
pub use wal::{DurabilityOptions, FsyncPolicy, DEFAULT_COMPACT_BYTES};
pub use wire::WireError;
