//! Engine configuration: KVCache segmentation, budgets, cache geometry.

use pqc_cache::EvictionPolicy;
pub use pqc_policies::IvfMode;
use serde::{Deserialize, Serialize};

/// A rejected configuration: which field was nonsensical and why.
///
/// Validation returns this instead of panicking so serving layers can
/// refuse a bad request (or refuse to start) with a typed error; the
/// session builder panics with it (fail-fast on a programming error).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// Name of the offending field.
    pub field: &'static str,
    /// Human-readable constraint that was violated.
    pub message: String,
}

impl ConfigError {
    /// A rejection of `field`, explained by `message`.
    pub fn new(field: &'static str, message: impl Into<String>) -> Self {
        Self { field, message: message.into() }
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid config `{}`: {}", self.field, self.message)
    }
}

impl std::error::Error for ConfigError {}

/// How the GPU block cache is configured.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Capacity in tokens (0 disables the cache).
    pub capacity_tokens: usize,
    /// Tokens per block (paper default 128; simulation scale 32).
    pub block_size: usize,
    /// Eviction policy.
    pub lfu: bool,
    /// Number of blocks written back per step (`k_cache`).
    pub k_cache_blocks: usize,
}

impl CacheConfig {
    /// Disabled cache.
    pub fn disabled() -> Self {
        Self { capacity_tokens: 0, block_size: 32, lfu: false, k_cache_blocks: 8 }
    }

    /// Simulation-scale default: 512 tokens, 32-token blocks, LFU,
    /// `k_cache` = 8 (mirrors the paper's 4K tokens / 128-token blocks / 32).
    pub fn sim_default() -> Self {
        Self { capacity_tokens: 512, block_size: 32, lfu: true, k_cache_blocks: 8 }
    }

    /// The eviction policy as the cache crate's enum.
    pub fn policy(&self) -> EvictionPolicy {
        if self.lfu {
            EvictionPolicy::Lfu
        } else {
            EvictionPolicy::Lru
        }
    }
}

/// Full engine/session configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SessionConfig {
    /// Initial ("attention sink") tokens always kept on GPU.
    pub n_init: usize,
    /// Local sliding-window size always kept on GPU.
    pub n_local: usize,
    /// Fraction of the prompt participating in selective attention
    /// (paper: 1/5 or 1/10).
    pub token_ratio: f64,
    /// Extra-communication budget as a fraction of the keys' memory
    /// (paper: 1/128 for LongBench, 1/64 for InfiniteBench). Used to size
    /// dropping methods' "(C)" compensation and SPARQ's `r`.
    pub comm_fraction: f64,
    /// SnapKV/H2O observation window captured during prefill.
    pub obs_window: usize,
    /// GPU block cache.
    pub cache: CacheConfig,
    /// Retrieval routing for IVF-capable policies: `Probe(n_probe)` routes
    /// each query through an IVF tier and scans only the probed cells,
    /// pushed down to the policy (`SelectionPolicy::configure_ivf`) before
    /// initialisation so one serve-level knob governs every admitted
    /// session. The `Exact` default leaves each policy's own routing
    /// configuration in effect (a policy built with `IvfMode::Probe`
    /// directly keeps probing).
    pub ivf: IvfMode,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            n_init: 4,
            n_local: 32,
            token_ratio: 0.2,
            comm_fraction: 1.0 / 32.0,
            obs_window: 32,
            cache: CacheConfig::sim_default(),
            ivf: IvfMode::Exact,
        }
    }
}

impl SessionConfig {
    /// Total attended-token budget for a prompt of length `s`.
    pub fn token_budget(&self, s: usize) -> usize {
        ((self.token_ratio * s as f64).round() as usize).max(self.n_init + self.n_local)
    }

    /// Middle-region budget (total minus always-on segments).
    pub fn middle_budget(&self, s: usize) -> usize {
        self.token_budget(s).saturating_sub(self.n_init + self.n_local)
    }

    /// Extra middle tokens granted to dropping methods so that their memory
    /// matches retrieval methods' tokens *plus* transferred data (§4.1.3's
    /// "(C)" compensation). Transferred data is counted in key bytes; one
    /// kept token costs a key and a value, hence the factor ½.
    pub fn compensation_tokens(&self, s: usize) -> usize {
        (self.comm_fraction * s as f64 / 2.0).round() as usize
    }

    /// Validate, returning a typed error on nonsensical settings.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.n_init == 0 {
            return Err(ConfigError::new("n_init", "need at least one initial token"));
        }
        if self.n_local == 0 {
            return Err(ConfigError::new("n_local", "need at least one local token"));
        }
        if !(self.token_ratio > 0.0 && self.token_ratio <= 1.0) {
            return Err(ConfigError::new("token_ratio", "token_ratio must be in (0, 1]"));
        }
        if !(self.comm_fraction >= 0.0 && self.comm_fraction <= 1.0) {
            return Err(ConfigError::new("comm_fraction", "comm_fraction must be in [0, 1]"));
        }
        if self.cache.block_size == 0 {
            return Err(ConfigError::new("cache.block_size", "cache block size must be positive"));
        }
        if self.ivf == IvfMode::Probe(0) {
            return Err(ConfigError::new("ivf", "ivf probe width must be at least one cell"));
        }
        Ok(())
    }

    /// The probe-width bound, which depends on the policy a session runs:
    /// `Probe(n_probe)` is pushed down to it
    /// (`SelectionPolicy::configure_ivf`), so `n_probe` may not exceed its
    /// coarse cells (`SelectionPolicy::ivf_n_list`). Probing past `n_list`
    /// is a typed configuration error here rather than a silent saturation
    /// deep in the ADC kernel; a policy without an IVF tier ignores the
    /// knob and passes.
    pub fn check_probe(&self, policy: &dyn pqc_policies::SelectionPolicy) -> Result<(), ConfigError> {
        match (self.ivf, policy.ivf_n_list()) {
            (IvfMode::Probe(n_probe), Some(n_list)) if n_probe > n_list => Err(ConfigError::new(
                "ivf",
                format!(
                    "ivf probe width {n_probe} exceeds the policy's {n_list} coarse cells \
                     (n_probe must be <= n_list; Probe(n_list) is already bit-identical to Exact)"
                ),
            )),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_scale_with_ratio() {
        let cfg = SessionConfig { token_ratio: 0.2, ..Default::default() };
        assert_eq!(cfg.token_budget(1000), 200);
        assert_eq!(cfg.middle_budget(1000), 200 - 36);
    }

    #[test]
    fn budget_never_below_fixed_segments() {
        let cfg = SessionConfig { token_ratio: 0.01, ..Default::default() };
        assert_eq!(cfg.token_budget(100), 36);
        assert_eq!(cfg.middle_budget(100), 0);
    }

    #[test]
    fn compensation_matches_formula() {
        let cfg = SessionConfig { comm_fraction: 1.0 / 64.0, ..Default::default() };
        assert_eq!(cfg.compensation_tokens(6400), 50);
    }

    #[test]
    fn default_is_valid() {
        SessionConfig::default().validate().expect("default config valid");
    }

    #[test]
    #[should_panic(expected = "token_ratio")]
    fn zero_ratio_panics() {
        let cfg = SessionConfig { token_ratio: 0.0, ..Default::default() };
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    #[should_panic(expected = "probe width")]
    fn zero_probe_width_panics() {
        let cfg = SessionConfig { ivf: IvfMode::Probe(0), ..Default::default() };
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn invalid_configs_yield_typed_field_errors() {
        let e = SessionConfig { token_ratio: 1.5, ..Default::default() }
            .validate()
            .expect_err("over-1 ratio");
        assert_eq!(e.field, "token_ratio");
        assert!(e.to_string().contains("token_ratio must be in (0, 1]"));
        let e = SessionConfig { n_init: 0, ..Default::default() }
            .validate()
            .expect_err("no sink tokens");
        assert_eq!(e.field, "n_init");
        let e = SessionConfig { comm_fraction: -0.1, ..Default::default() }
            .validate()
            .expect_err("negative comm fraction");
        assert_eq!(e.field, "comm_fraction");
        let e = SessionConfig { ivf: IvfMode::Probe(0), ..Default::default() }
            .validate()
            .expect_err("zero probe");
        assert_eq!(e.field, "ivf");
        let cache = CacheConfig { block_size: 0, ..CacheConfig::sim_default() };
        let e = SessionConfig { cache, ..Default::default() }
            .validate()
            .expect_err("zero cache block size");
        assert_eq!(e.field, "cache.block_size");
    }

    #[test]
    fn probe_config_is_valid() {
        SessionConfig { ivf: IvfMode::Probe(4), ..Default::default() }
            .validate()
            .expect("probe config valid");
    }

    #[test]
    fn probe_width_bounded_by_coarse_cells() {
        // The bound is the coarse-cell count of the policy the session
        // runs, not the default policy's 16.
        let probe = |n| SessionConfig { ivf: IvfMode::Probe(n), ..Default::default() };
        let pq = |ivf_n_list| {
            let cfg = pqc_policies::PqCachePolicyConfig { ivf_n_list, ..Default::default() };
            pqc_policies::PqCachePolicy::new(cfg)
        };
        // Wider than 16 cells is fine on a 32-cell policy...
        probe(20).validate().expect("the width alone is valid");
        probe(20).check_probe(&pq(32)).expect("20 of 32 cells");
        // ...the boundary itself is valid (Probe(n_list) ≡ Exact)...
        probe(8).check_probe(&pq(8)).expect("probing every cell is valid");
        // ...one past it is a typed rejection, not a silent kernel clamp.
        let e = probe(12).check_probe(&pq(8)).expect_err("12 of 8 cells");
        assert_eq!(e.field, "ivf");
        assert!(e.message.contains("n_probe must be <= n_list"), "{}", e.message);
        // A policy without an IVF tier ignores the width.
        probe(99).check_probe(&pqc_policies::StreamingLlmPolicy).expect("no tier, no bound");
    }

    #[test]
    fn cache_policy_mapping() {
        assert_eq!(CacheConfig::sim_default().policy(), EvictionPolicy::Lfu);
        assert_eq!(CacheConfig::disabled().policy(), EvictionPolicy::Lru);
    }
}
