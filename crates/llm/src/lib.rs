//! # pqc-llm
//!
//! From-scratch decoder-only transformer substrate: GQA attention with RoPE,
//! RMSNorm residual blocks, a tied classifier head, O(s)-memory causal
//! prefill, selective-attention decode through a pluggable [`KvSource`], an
//! MInference-style sparse prefill pattern, and attention-distribution
//! instrumentation. This is the simulation-scale stand-in for the paper's
//! Llama/Mistral models (see DESIGN.md §2 for the substitution argument).

#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]
// Index-based loops are kept where they mirror the mathematical notation
// (row/column/cluster indices); iterator rewrites obscure the kernels.
#![allow(clippy::needless_range_loop, clippy::explicit_counter_loop)]

pub mod attention;
pub mod config;
pub mod instrument;
pub mod model;
pub mod rope;
pub mod weights;

pub use attention::{attend_selected_into, causal_attention, PrefillPattern, ScoreCapture};
pub use config::LlmConfig;
pub use model::{
    slice_head, DecodeOutput, DecodeScratch, FullKvSource, KvSource, LayerKv, Model,
    PrefillJob, PrefillOptions, PrefillOutput,
};
pub use weights::{rms_norm, ModelWeights};
