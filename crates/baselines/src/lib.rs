//! # ppann-baselines
//!
//! The four baseline PP-ANNS systems the reproduced paper compares against
//! (Section VII-B), rebuilt end-to-end on this workspace's substrates:
//!
//! | Baseline | Index | Vector protection | Refinement | Paper ref |
//! |----------|-------|-------------------|------------|-----------|
//! | [`hnsw_ame::HnswAme`] | HNSW over DCPE | AME | server-side, O(d²)/comparison | §VII-B, Fig. 6 |
//! | [`rs_sann::RsSann`] | LSH | AES-128-CTR | **user-side** after bulk ciphertext download | ref. \[25\], Fig. 7 |
//! | [`pacm_ann::PacmAnn`] | proximity graph | PIR access hiding | **user-side**, multi-round graph walk | ref. \[45\], Fig. 7 |
//! | [`pri_ann::PriAnn`] | LSH | PIR access hiding | **user-side**, batched bucket fetch | ref. \[27\], Fig. 7 |
//!
//! Each system reports a [`TriCost`] (server time, user time, communication,
//! rounds) so the Figure 7/9 harness can print the same breakdowns the paper
//! does. Faithfulness notes for the PIR-based systems live in their module
//! docs; substitutions are catalogued in DESIGN.md §3.

pub mod cost;
pub mod hnsw_ame;
pub mod naive_dce;
pub mod pacm_ann;
pub mod pri_ann;
pub mod rs_sann;

pub use cost::{BaselineOutcome, TriCost};
pub use hnsw_ame::HnswAme;
pub use naive_dce::NaiveDce;
pub use pacm_ann::PacmAnn;
pub use pri_ann::PriAnn;
pub use rs_sann::RsSann;
