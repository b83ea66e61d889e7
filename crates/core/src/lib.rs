//! # pqc-core
//!
//! The PQCache engine (paper §3): session configuration, the selective
//! decode session wiring transformer + policy + host store + GPU cache, and
//! the latency model that reproduces the paper's scheduling/overlap results.

#![warn(missing_docs)]

pub mod config;
pub mod latency;
pub mod session;

pub use config::{CacheConfig, ConfigError, IvfMode, SessionConfig};
pub use latency::{KmeansIters, LatencyMethod, LatencyModel, PhaseReport};
pub use session::{
    panic_message, SelectiveSession, SessionResources, SessionScratch, SessionStart, StepError,
    SuspendError, SuspendedSession,
};
