//! Method registry: maps paper method names to policy constructors with
//! communication-budget-aligned parameters (paper §4.1.3).
//!
//! At simulation scale (`d_h = 32`) the paper's 1/128 key-memory budget is
//! not reachable by SPARQ (its minimum is r=1 → 1/32), so budgets are
//! expressed as fractions and each method maps a fraction to its own
//! parameter exactly as the paper does at `d_h = 128`:
//! SPARQ `r = f·d_h`, InfLLM `reps = f·block`, PQCache `m·b = 16·d_h·f`.

use pqc_policies::{
    FullAttentionPolicy, H2oPolicy, InfLlmPolicy, OraclePolicy, PqCachePolicy,
    PqCachePolicyConfig, PyramidKvPolicy, SelectionPolicy, SnapKvPolicy, SparqPolicy,
    StreamingLlmPolicy,
};

/// A method identifier with everything needed to instantiate its policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MethodSpec {
    /// No compression.
    Full,
    /// Exact top-k (upper bound).
    Oracle,
    /// Initial + local only.
    StreamingLlm,
    /// Heavy-hitter dropping (compensated).
    H2o,
    /// Observation-window dropping (compensated).
    SnapKv,
    /// SnapKV with pyramid budgets (compensated).
    PyramidKv,
    /// Top-r query dimensions.
    Sparq,
    /// Block representatives.
    InfLlm,
    /// Product quantization (the paper's method) with explicit `m`, `b`,
    /// and K-Means iteration budget.
    PqCache {
        /// Sub-spaces.
        m: usize,
        /// Bits per code.
        b: u32,
        /// K-Means iterations.
        iters: usize,
    },
    /// PQCache with IVF-routed retrieval (the paper's §5 extension): the
    /// decode-step scan probes `n_probe` of `n_list` coarse cells instead
    /// of every token — sublinear selection for long contexts.
    PqCacheIvf {
        /// Sub-spaces.
        m: usize,
        /// Bits per code.
        b: u32,
        /// K-Means iterations.
        iters: usize,
        /// Coarse cells per (layer, kv-head).
        n_list: usize,
        /// Cells probed per query.
        n_probe: usize,
    },
}

impl MethodSpec {
    /// The default PQCache configuration scaled from the paper's m=2, b=6
    /// at d_h=128 to simulation scale (same comm-fraction semantics).
    pub fn pqcache_default() -> Self {
        MethodSpec::PqCache { m: 2, b: 6, iters: 15 }
    }

    /// The default IVF-routed PQCache: same PQ geometry, 16-cell inverted
    /// file probing 4 cells per step (the `IvfConfig` defaults).
    pub fn pqcache_ivf_default() -> Self {
        MethodSpec::PqCacheIvf { m: 2, b: 6, iters: 15, n_list: 16, n_probe: 4 }
    }

    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            MethodSpec::Full => "Full",
            MethodSpec::Oracle => "Oracle",
            MethodSpec::StreamingLlm => "StreamingLLM",
            MethodSpec::H2o => "H2O(C)",
            MethodSpec::SnapKv => "SnapKV(C)",
            MethodSpec::PyramidKv => "PyramidKV(C)",
            MethodSpec::Sparq => "SPARQ",
            MethodSpec::InfLlm => "InfLLM",
            MethodSpec::PqCache { .. } => "PQCache",
            MethodSpec::PqCacheIvf { .. } => "PQCache-IVF",
        }
    }

    /// Instantiate the policy for a model with head dimension `dh` under an
    /// extra-communication budget of `comm_fraction` of the keys' memory.
    pub fn build(&self, dh: usize, comm_fraction: f64) -> Box<dyn SelectionPolicy + Send> {
        match *self {
            MethodSpec::Full => Box::new(FullAttentionPolicy::default()),
            MethodSpec::Oracle => Box::new(OraclePolicy::default()),
            MethodSpec::StreamingLlm => Box::new(StreamingLlmPolicy),
            MethodSpec::H2o => Box::new(H2oPolicy::default()),
            MethodSpec::SnapKv => Box::new(SnapKvPolicy::default()),
            MethodSpec::PyramidKv => Box::new(PyramidKvPolicy::default()),
            MethodSpec::Sparq => Box::new(SparqPolicy::for_comm_fraction(comm_fraction, dh)),
            MethodSpec::InfLlm => {
                // Representatives per block so that reps/block ≈ fraction:
                // block of 32 tokens at sim scale (128 in the paper).
                let block = 32;
                let reps = ((comm_fraction * block as f64).round() as usize).max(1);
                Box::new(InfLlmPolicy::new(block, reps))
            }
            MethodSpec::PqCache { m, b, iters } => Box::new(PqCachePolicy::new(
                PqCachePolicyConfig { m, b, kmeans_iters: iters, seed: 0xBEEF, ..Default::default() },
            )),
            MethodSpec::PqCacheIvf { m, b, iters, n_list, n_probe } => {
                Box::new(PqCachePolicy::new(PqCachePolicyConfig {
                    m,
                    b,
                    kmeans_iters: iters,
                    seed: 0xBEEF,
                    ivf: pqc_policies::IvfMode::Probe(n_probe),
                    ivf_n_list: n_list,
                }))
            }
        }
    }

    /// The standard comparison set of the paper's quality tables
    /// (Tables 2 and 4): Full, Oracle, three compensated droppers, the two
    /// offloading baselines, and PQCache.
    pub fn paper_lineup() -> Vec<MethodSpec> {
        vec![
            MethodSpec::Full,
            MethodSpec::Oracle,
            MethodSpec::H2o,
            MethodSpec::SnapKv,
            MethodSpec::PyramidKv,
            MethodSpec::InfLlm,
            MethodSpec::Sparq,
            MethodSpec::pqcache_default(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lineup_has_eight_methods() {
        let l = MethodSpec::paper_lineup();
        assert_eq!(l.len(), 8);
        assert_eq!(l.last().unwrap().name(), "PQCache");
    }

    #[test]
    fn build_produces_matching_policies() {
        for spec in MethodSpec::paper_lineup() {
            let p = spec.build(32, 1.0 / 16.0);
            // Policy names drop the "(C)" suffix (compensation is an engine
            // concern), otherwise they match.
            let expect = spec.name().trim_end_matches("(C)");
            assert_eq!(p.name(), expect);
        }
    }

    #[test]
    fn comm_fraction_maps_to_sparq_r() {
        // `build` hands SPARQ `r = round(fraction · dh)` query dimensions
        // through `SparqPolicy::for_comm_fraction`: 32/16 = 2.
        assert_eq!(MethodSpec::Sparq.build(32, 1.0 / 16.0).name(), "SPARQ");
        assert_eq!(SparqPolicy::for_comm_fraction(1.0 / 16.0, 32).r, 2);
        assert_eq!(SparqPolicy::for_comm_fraction(1.0 / 128.0, 32).r, 1, "at least one dim");
    }

    #[test]
    fn droppers_marked_dropping() {
        for spec in [MethodSpec::H2o, MethodSpec::SnapKv, MethodSpec::PyramidKv, MethodSpec::StreamingLlm] {
            assert!(spec.build(32, 0.05).is_dropping(), "{}", spec.name());
        }
        assert!(!MethodSpec::pqcache_default().build(32, 0.05).is_dropping());
    }
}
