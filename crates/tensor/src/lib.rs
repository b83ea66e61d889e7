//! # pqc-tensor
//!
//! Minimal dense linear-algebra, RNG, and statistics substrate shared by the
//! PQCache reproduction. No external math dependencies: everything the
//! transformer substrate, Product Quantization, and the benchmark harness
//! need — GEMM, softmax, top-k selection, least-squares fitting — is
//! implemented here in plain Rust and unit/property tested.

#![warn(missing_docs)]
// Index-based loops are kept where they mirror the mathematical notation
// (row/column/cluster indices); iterator rewrites obscure the kernels.
#![allow(clippy::needless_range_loop, clippy::explicit_counter_loop)]

pub mod batch;
pub mod matrix;
pub mod ops;
pub mod rng;
pub mod stats;
pub mod topk;

pub use batch::{nearest_centroid_cached, AssignScratch};
pub use matrix::{axpy, dot, row_sq_norms_into, squared_l2, Matrix};
pub use ops::{argmax, cosine, l2_norm, softmax_inplace};
pub use rng::Rng64;
pub use topk::{argsort_desc, top_k_indices, topk_recall, TopK};
