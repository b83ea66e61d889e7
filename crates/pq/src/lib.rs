//! # pqc-pq
//!
//! Product Quantization for KVCache keys: K-Means clustering (k-means++,
//! empty-cluster repair), per-sub-space codebooks, asymmetric distance
//! computation for approximate top-k retrieval, and the adaptive iteration
//! budget of paper §3.3 that keeps clustering inside the GPU compute window.
//!
//! Query to top-k has one path: [`PqRetriever::score_and_select_into`]
//! (flat) or [`PqRetriever::score_and_select_ivf_into`] (IVF-routed), each
//! a fused, threshold-pruned scan streaming into one selector.

#![warn(missing_docs)]
// Index-based loops are kept where they mirror the mathematical notation
// (row/column/cluster indices); iterator rewrites obscure the kernels.
#![allow(clippy::needless_range_loop, clippy::explicit_counter_loop)]

pub mod adaptive;
pub mod adc;
pub mod codebook;
pub mod ivf;
pub mod kmeans;

pub use adaptive::{AdaptiveIterBudget, ClusterSample, ComputeSample};
pub use adc::{AdcTable, IvfScratch, IvfSelectStats, PqRetriever};
pub use codebook::{PqCodebook, PqCodes, PqConfig, CODE_BLOCK};
pub use ivf::{IvfConfig, IvfIndex, IvfMode};
pub use kmeans::{kmeans, KMeansConfig, KMeansResult};
