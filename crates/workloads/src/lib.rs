//! # pqc-workloads
//!
//! Synthetic long-context workloads (needle, passkey, KV retrieval, QA with
//! configurable question position, multi-hop CoT, aggregation) standing in
//! for LongBench/InfiniteBench, the paper's method lineup, and the
//! teacher-forced evaluation harness that scores every method against the
//! full-attention reference.

#![warn(missing_docs)]

pub mod gen;
pub mod harness;
pub mod methods;
pub mod multitenant;

pub use gen::{aggregation, cot_chain, kv_retrieval, needle, passkey, qa, QuestionPosition, VocabLayout, Workload};
pub use multitenant::{
    chaos_victims, corruption_victims, multi_tenant_trace, shared_prefix_trace, TenantTrace,
    TraceConfig, TraceRequest,
};
pub use harness::{
    driver_tokens, evaluate_method, evaluate_method_with_prefill, evaluate_workload, format_table, method_average, reference,
    EvalConfig, Reference, TaskResult,
};
pub use methods::MethodSpec;
