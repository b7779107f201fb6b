//! # ppann-hnsw
//!
//! A from-scratch implementation of **Hierarchical Navigable Small World**
//! graphs (Malkov & Yashunin, TPAMI 2020) — the state-of-the-art k-ANNS index
//! the reproduced paper uses for its filter phase (Section V-A).
//!
//! The index is built by the data owner over **DCPE/SAP-encrypted** vectors,
//! never over plaintext: the edges of a proximity graph leak neighborhood
//! relations, and building over noisy ciphertexts is exactly the paper's
//! privacy/accuracy trade-off. Nothing in this crate knows about encryption,
//! though — it indexes whatever `f64` vectors it is given, which also lets
//! the benchmarks run the plaintext-HNSW comparison of Section VII-B.
//!
//! Features beyond the basic index, all exercised by the paper:
//! * incremental **insertion** (Section V-D maintenance),
//! * **deletion with in-neighbor repair** (Section V-D),
//! * a distance-computation counter for the cost model,
//! * byte-level serialization for server snapshots,
//! * a brute-force scanner for ground truth.
//!
//! ```
//! use ppann_hnsw::{Hnsw, HnswParams, VecStore};
//!
//! let mut index = Hnsw::new(2, HnswParams::default());
//! for v in [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]] {
//!     index.insert(&v);
//! }
//! let hits = index.search(&[0.1, 0.1], 2, 10);
//! assert_eq!(hits[0].id, 0);
//! let _ = VecStore::new(2);
//! ```

mod adjacency;
mod bruteforce;
mod comparison_search;
mod graph;
mod params;
mod scratch;
mod serial;
mod store;
mod visited;

pub use bruteforce::{exact_knn, exact_knn_ids, exact_knn_in};
pub use graph::{Hnsw, Neighbor};
pub use params::HnswParams;
pub use scratch::{ScratchPool, SearchScratch};
pub use serial::SnapshotError;
pub use store::VecStore;
