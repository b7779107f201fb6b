//! # ppann-linalg
//!
//! Dense linear-algebra substrate for the PP-ANNS stack.
//!
//! Every encryption scheme in the reproduced paper (DCE, DCPE/SAP, ASPE, AME)
//! is built from a small set of real-valued primitives: dense vectors,
//! row-major matrices, matrix inversion, random permutations and seeded
//! random sampling. This crate implements all of them from scratch with no
//! dependencies beyond `rand`, plus a scoped-thread parallel map used by the
//! one-off bulk jobs (database encryption, ground-truth computation) that
//! must never be confused with the single-threaded search-path timings.
//! [`Section`] is the length-checked reader every on-disk format uses.
//!
//! ## Example
//!
//! ```
//! use ppann_linalg::{Matrix, random_invertible, seeded_rng};
//!
//! let mut rng = seeded_rng(7);
//! let (m, m_inv) = random_invertible(8, &mut rng);
//! let prod = m.matmul(&m_inv);
//! assert!(prod.max_abs_diff(&Matrix::identity(8)) < 1e-8);
//! ```

mod codec;
pub mod kernels;
mod lu;
mod matrix;
mod parallel;
mod permutation;
mod random;
mod topk;
pub mod vector;

pub use codec::{write_f64s, Section, SectionError};
pub use lu::{LinalgError, LuDecomposition};
pub use matrix::Matrix;
pub use parallel::{available_threads, parallel_map_indexed};
pub use permutation::Permutation;
pub use random::{
    gaussian, gaussian_vec, random_invertible, random_sign_vec, random_unit_vector, seeded_rng,
    uniform_vec,
};
pub use topk::{Ranking, TopK};
