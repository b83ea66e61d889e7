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
    /// fails), or one request's prompt was (only that request does).
    Config(ConfigError),
    /// Admission shed the request: the queue or budget stayed exhausted
    /// through every permitted retry.
    Admission {
        /// Admission attempts consumed (initial attempt + retries).
        attempts: u32,
    },
    /// The shared cache budget was exhausted and the session was shed
    /// rather than letting it starve the fleet.
    BudgetExhausted,
    /// The host-tier page pool hit its cap mid-session.
    PageExhausted {
        /// The pool cap that was hit.
        max_pages: usize,
    },
    /// The request's deadline elapsed before decoding finished.
    DeadlineExceeded {
        /// The configured deadline, in scheduler ticks.
        deadline_ticks: u64,
        /// Ticks actually elapsed when the session was reaped.
        elapsed_ticks: u64,
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
            ServeError::Admission { .. } => "admission",
            ServeError::BudgetExhausted => "budget_exhausted",
            ServeError::PageExhausted { .. } => "page_exhausted",
            ServeError::DeadlineExceeded { .. } => "deadline_exceeded",
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
            ServeError::Admission { attempts } => {
                write!(f, "request shed at admission after {attempts} attempt(s)")
            }
            ServeError::BudgetExhausted => write!(f, "cache budget exhausted"),
            ServeError::PageExhausted { max_pages } => {
                write!(f, "host page pool exhausted (max_pages {max_pages})")
            }
            ServeError::DeadlineExceeded { deadline_ticks, elapsed_ticks } => {
                write!(f, "deadline of {deadline_ticks} ticks exceeded ({elapsed_ticks} elapsed)")
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
    /// stepped — admission sheds, prefill exhaustion).
    pub step: u64,
}

/// Bounded-retry policy for admission shedding, with deterministic seeded
/// backoff (tick-based, so retries replay identically across runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Re-admission attempts after the first rejection (0 = shed at once).
    pub max_retries: u32,
    /// Base backoff in scheduler ticks; the r-th retry waits
    /// `backoff_ticks << r` ticks plus a seeded jitter in `[0, backoff)`.
    pub backoff_ticks: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_retries: 2, backoff_ticks: 2 }
    }
}

impl RetryPolicy {
    /// No retries: first rejection sheds the request.
    pub fn none() -> Self {
        Self { max_retries: 0, backoff_ticks: 0 }
    }

    /// Ticks to wait before retry number `attempt` (1-based), jittered
    /// deterministically from `seed` (exponential backoff, full jitter).
    pub fn backoff(&self, seed: u64, attempt: u32) -> u64 {
        let base = self.backoff_ticks << attempt.min(16);
        if base == 0 {
            return 0;
        }
        let mut rng =
            pqc_tensor::Rng64::new(seed ^ (attempt as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        base + rng.below(base as usize) as u64
    }
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
            (ServeError::Admission { attempts: 3 }, "admission", "3 attempt"),
            (ServeError::BudgetExhausted, "budget_exhausted", "budget"),
            (ServeError::PageExhausted { max_pages: 8 }, "page_exhausted", "max_pages 8"),
            (
                ServeError::DeadlineExceeded { deadline_ticks: 5, elapsed_ticks: 9 },
                "deadline_exceeded",
                "5 ticks",
            ),
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

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let p = RetryPolicy { max_retries: 3, backoff_ticks: 2 };
        for attempt in 1..=3 {
            let a = p.backoff(42, attempt);
            let b = p.backoff(42, attempt);
            assert_eq!(a, b, "same seed must give the same backoff");
            let base = 2u64 << attempt;
            assert!(a >= base && a < 2 * base, "attempt {attempt}: {a} outside [{base}, {})", 2 * base);
        }
        assert_ne!(p.backoff(1, 1), p.backoff(2, 1), "seeds decorrelate sessions");
        assert_eq!(RetryPolicy::none().backoff(7, 1), 0);
    }
}
