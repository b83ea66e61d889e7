//! # pqc-memhier
//!
//! Simulated GPU/CPU memory hierarchy: an analytical hardware cost model
//! (PCIe bandwidth, GPU FLOP rate, CPU clustering throughput), a
//! discrete-event overlap simulator with streams and dependencies, a
//! **paged** host-tier KV store (refcounted fixed-size pages with
//! copy-on-write and a whole-prompt prefix registry for cross-session
//! sharing) with exact transfer accounting, and the phase
//! time-decomposition reports the paper presents in Fig. 12.

#![warn(missing_docs)]

pub mod costmodel;
pub mod decomp;
pub mod kvstore;
pub mod pages;
pub mod sim;

pub use costmodel::{CostModel, ModelShape};
pub use decomp::{labels, Decomposition};
pub use kvstore::{
    HostKvStore, KvTier, PrefixCacheStats, PrefixHit, TransferStats, WIRE_BYTES_PER_ELEM,
};
pub use pages::{MemError, PageAllocator, SharingStats, DEFAULT_PAGE_TOKENS};
pub use sim::{Event, OpRecord, Resource, SimEngine};
