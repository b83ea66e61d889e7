//! The serving layer's error taxonomy.
//!
//! Production schedulers treat per-request failure, preemption, and
//! overload as normal states, not aborts. [`ServeError`] names every
//! recoverable failure class the engine can produce; a failed session
//! becomes a [`Completion`](crate::Completion) carrying a [`FailureCause`]
//! while the engine keeps serving everyone else. Only a config rejection
//! fails the whole run — and it does so as a typed `Err` from
//! [`ServeEngine::run`](crate::ServeEngine::run), never a panic.

use pqc_core::ConfigError;
use pqc_memhier::MemError;

/// Everything that can go wrong while serving, classified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The engine or session configuration was rejected up front (the run
    /// fails), or one request was — its prompt, or the probe width against
    /// its policy (only that request fails).
    Config(ConfigError),
    /// The host-tier page pool hit its cap mid-session.
    PageExhausted {
        /// The pool cap that was hit.
        max_pages: usize,
    },
    /// The session's step panicked; the panic payload is preserved.
    SessionPoisoned {
        /// Stringified panic payload.
        message: String,
    },
    /// The worker thread serving this request died and the request had no
    /// checkpoint to fail over from. Requests with a checkpoint are
    /// re-admitted to a healthy shard instead and never see this error.
    ShardLost {
        /// The shard whose worker died.
        shard: usize,
    },
    /// A KV page failed its checksum: the stored bytes were corrupted after
    /// being written. Corrupt data is never served — the fetch that
    /// detected it fails the step — and a session with a checkpoint rolls
    /// back to it instead of surfacing this error.
    KvCorruption {
        /// The corrupt page's id.
        page: u32,
    },
}

impl ServeError {
    /// Short stable label for metering/serialisation (one per variant).
    pub fn class(&self) -> &'static str {
        match self {
            ServeError::Config(_) => "config",
            ServeError::PageExhausted { .. } => "page_exhausted",
            ServeError::SessionPoisoned { .. } => "session_poisoned",
            ServeError::ShardLost { .. } => "shard_lost",
            ServeError::KvCorruption { .. } => "kv_corruption",
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Config(e) => write!(f, "{e}"),
            ServeError::PageExhausted { max_pages } => {
                write!(f, "host page pool exhausted (max_pages {max_pages})")
            }
            ServeError::SessionPoisoned { message } => {
                write!(f, "session poisoned by panic: {message}")
            }
            ServeError::ShardLost { shard } => {
                write!(f, "shard {shard} died with no checkpoint to fail over from")
            }
            ServeError::KvCorruption { page } => {
                write!(f, "kv page {page} failed its checksum and no checkpoint could roll it back")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ConfigError> for ServeError {
    fn from(e: ConfigError) -> Self {
        ServeError::Config(e)
    }
}

impl From<MemError> for ServeError {
    fn from(e: MemError) -> Self {
        match e {
            MemError::PageExhausted { max_pages } => ServeError::PageExhausted { max_pages },
            MemError::PageCorrupt { page } => ServeError::KvCorruption { page },
            // An empty-slot fetch inside a session step is a logic fault —
            // classify it as poison, preserving the message.
            other => ServeError::SessionPoisoned { message: other.to_string() },
        }
    }
}

/// Why (and how) a session failed: attached to the failed
/// [`Completion`](crate::Completion).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureCause {
    /// The classified error.
    pub error: ServeError,
    /// True when the failure was injected by the fault plan (chaos tests
    /// assert the injected cause round-trips to the report).
    pub injected: bool,
    /// Decode steps the session completed before failing (0 when it never
    /// stepped — a prompt turned away at the door, prefill exhaustion).
    pub step: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_class_cover_all_variants() {
        let cases: Vec<(ServeError, &str, &str)> = vec![
            (
                ServeError::Config(ConfigError { field: "shards", message: "must be > 0".into() }),
                "config",
                "shards",
            ),
            (ServeError::PageExhausted { max_pages: 8 }, "page_exhausted", "max_pages 8"),
            (
                ServeError::SessionPoisoned { message: "boom".into() },
                "session_poisoned",
                "boom",
            ),
            (ServeError::ShardLost { shard: 2 }, "shard_lost", "shard 2"),
            (ServeError::KvCorruption { page: 17 }, "kv_corruption", "page 17"),
        ];
        for (e, class, needle) in cases {
            assert_eq!(e.class(), class);
            assert!(e.to_string().contains(needle), "{e} missing {needle}");
        }
    }

    #[test]
    fn mem_error_conversion() {
        assert_eq!(
            ServeError::from(MemError::PageExhausted { max_pages: 4 }),
            ServeError::PageExhausted { max_pages: 4 }
        );
        assert_eq!(
            ServeError::from(MemError::PageCorrupt { page: 9 }),
            ServeError::KvCorruption { page: 9 }
        );
        match ServeError::from(MemError::EmptySlot { layer: 0, head: 1 }) {
            ServeError::SessionPoisoned { message } => assert!(message.contains("empty slot")),
            other => panic!("unexpected {other:?}"),
        }
    }
}
