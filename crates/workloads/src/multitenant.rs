//! Multi-tenant serving traces: the request streams a `ServeEngine` eats.
//!
//! Models the traffic shape the ROADMAP's production north-star implies:
//! requests **arrive over time** (Poisson process — exponential
//! inter-arrival gaps), with a **mixture of prompt lengths** (chat-sized
//! through long-document) drawn from the existing task generators, and
//! **session churn** (decode lengths vary several-fold, so short sessions
//! retire while long ones are mid-flight and admission back-fills the
//! freed slots).
//!
//! `arrival_tick` is abstract time: it fixes the arrival *order* and burst
//! structure. The serve engine takes a closed batch, so its drivers
//! (`tests/serve_stress.rs`, the repo benchmark) submit requests in that
//! order and the engine's bounded queue — back-pressure, not the ticks —
//! paces admission. The ticks are kept because they come from the same
//! RNG stream as the prompts: dropping them would change every trace.
//!
//! The generator is purely deterministic in its seed: the same
//! [`TraceConfig`] always yields the same trace, which is what lets the
//! concurrency test battery drive the serve engine with reproducible
//! traffic.

use crate::gen::{aggregation, needle, qa, QuestionPosition, VocabLayout, Workload};
use pqc_tensor::Rng64;

/// Configuration of a multi-tenant trace.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Number of requests to generate.
    pub sessions: usize,
    /// Mean arrivals per tick of the Poisson process (λ).
    pub arrival_rate: f64,
    /// Prompt-length tiers sampled per request (short / medium / long).
    /// Values must satisfy the generators' minima (≥ 64).
    pub prompt_lens: [usize; 3],
    /// Mixture weights over the tiers (need not be normalised).
    pub prompt_mix: [f64; 3],
    /// Decode-step range `[min, max]` sampled uniformly per request —
    /// spreading this range is what produces churn under the engine.
    pub decode_steps: (usize, usize),
    /// Mixture weights over priority tiers (low / normal / high, need not
    /// be normalised). The default is all-normal — the SLO-neutral traffic
    /// every pre-priority battery assumes. Priorities are sampled from an
    /// independent RNG stream, so changing the mix never perturbs prompts,
    /// arrivals, or decode lengths.
    pub priority_mix: [f64; 3],
    /// Vocabulary layout shared with the model.
    pub layout: VocabLayout,
    /// Trace seed.
    pub seed: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            sessions: 32,
            arrival_rate: 0.5,
            prompt_lens: [96, 192, 384],
            prompt_mix: [0.5, 0.3, 0.2],
            decode_steps: (4, 24),
            priority_mix: [0.0, 1.0, 0.0],
            layout: VocabLayout::for_vocab(256),
            seed: 0x7EA5,
        }
    }
}

/// One request of a trace.
#[derive(Debug, Clone)]
pub struct TraceRequest {
    /// Sequential request id (also the arrival order).
    pub id: u64,
    /// Arrival time in abstract ticks (non-decreasing across the trace).
    pub arrival_tick: u64,
    /// The prompt and its ground truth (task family varies per request).
    pub workload: Workload,
    /// Greedy decode steps this session runs before completing.
    pub decode_steps: usize,
    /// Priority tier: 0 = low, 1 = normal, 2 = high. Plain data — the
    /// serve layer maps it onto its own `Priority` enum.
    pub priority: u8,
}

/// A generated request stream, ordered by arrival.
#[derive(Debug, Clone)]
pub struct TenantTrace {
    /// Requests in arrival order.
    pub requests: Vec<TraceRequest>,
}

/// Generate a Poisson-arrival, mixed-length, churn-heavy request stream.
pub fn multi_tenant_trace(cfg: &TraceConfig) -> TenantTrace {
    poisson_trace(cfg, 0, None)
}

/// Generate a shared-prefix fleet: `cfg.sessions` requests partitioned into
/// `groups` prompt groups, every request in a group carrying an **identical**
/// prompt (the group's canonical workload). This is the traffic shape that
/// exercises the serve engine's prefix cache — system prompts, few-shot
/// preambles, or fan-out agents all issue the same prefix many times — and
/// the expected full-hit rate is exactly `(sessions - groups) / sessions`
/// under sequential admission.
///
/// Arrival ticks and decode lengths still churn like [`multi_tenant_trace`];
/// only the prompt content is deduplicated. Requests round-robin over the
/// groups so hits interleave with misses instead of trailing them.
pub fn shared_prefix_trace(cfg: &TraceConfig, groups: usize) -> TenantTrace {
    assert!(groups > 0, "need at least one prompt group");
    assert!(groups <= cfg.sessions, "more prompt groups than sessions");
    poisson_trace(cfg, 0x5AA5_F00D, Some(groups))
}

/// The `n`-th workload of a rotation over the task families — so one trace
/// exercises needle retrieval, QA-style probing, and aggregation pressure
/// concurrently — at a prompt length sampled from the configured tiers.
fn rotated_workload(cfg: &TraceConfig, n: u64, rng: &mut Rng64) -> Workload {
    let s = cfg.prompt_lens[rng.weighted(&cfg.prompt_mix)].max(64);
    let wseed = cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(n);
    match n % 3 {
        0 => needle(s, 0.25 + 0.5 * rng.uniform(), &cfg.layout, wseed),
        1 => qa(s, 2, QuestionPosition::End, &cfg.layout, wseed),
        _ => aggregation(s, 4, &cfg.layout, wseed),
    }
}

/// The one request loop behind every trace generator: Poisson arrival gaps,
/// a uniform decode length, and a priority per request. The content RNG is
/// seeded `cfg.seed ^ stream`. With `groups` set, one canonical workload per
/// group is drawn up front and requests round-robin over them; otherwise
/// each request draws its own.
fn poisson_trace(cfg: &TraceConfig, stream: u64, groups: Option<usize>) -> TenantTrace {
    assert!(cfg.sessions > 0, "need at least one session");
    assert!(cfg.arrival_rate > 0.0, "arrival rate must be positive");
    assert!(cfg.decode_steps.0 <= cfg.decode_steps.1, "decode range inverted");
    assert!(cfg.prompt_mix.iter().sum::<f64>() > 0.0, "mixture weights all zero");
    assert!(cfg.priority_mix.iter().sum::<f64>() > 0.0, "priority weights all zero");
    let mut rng = Rng64::new(cfg.seed ^ stream);
    // Priorities draw from their own stream so the prompt/arrival/decode
    // content of a trace is invariant under priority_mix changes — an SLO
    // battery can compare mixes on bit-identical traffic.
    let mut prio_rng = Rng64::new(cfg.seed ^ 0x5710_11E5);
    let canon: Vec<Workload> =
        (0..groups.unwrap_or(0) as u64).map(|g| rotated_workload(cfg, g, &mut rng)).collect();
    let (lo, hi) = cfg.decode_steps;
    let mut tick = 0u64;
    let mut requests = Vec::with_capacity(cfg.sessions);
    for id in 0..cfg.sessions as u64 {
        // Exponential inter-arrival gap: -ln(1-u)/λ, rounded to whole
        // ticks (gaps under half a tick coalesce into a burst).
        let u = rng.uniform();
        tick += (-(1.0 - u).ln() / cfg.arrival_rate).round() as u64;
        let workload = match canon.len() {
            0 => rotated_workload(cfg, id, &mut rng),
            n => canon[id as usize % n].clone(),
        };
        let decode_steps = lo + rng.below(hi - lo + 1);
        let priority = prio_rng.weighted(&cfg.priority_mix) as u8;
        requests.push(TraceRequest { id, arrival_tick: tick, workload, decode_steps, priority });
    }
    TenantTrace { requests }
}

/// Pick deterministic chaos victims from a trace: roughly `frac` of the
/// requests (at least one), each paired with a panic step inside its own
/// decode range. The output is plain `(request_id, panic_step)` data — the
/// serve layer turns it into fault-plan entries — chosen by seeded
/// reservoir-free sampling so the same `(trace, seed, frac)` always marks
/// the same victims, which is what lets a chaos battery replay a storm and
/// compare survivors across runs.
pub fn chaos_victims(trace: &TenantTrace, seed: u64, frac: f64) -> Vec<(u64, u64)> {
    assert!((0.0..=1.0).contains(&frac), "victim fraction must be in [0, 1]");
    if trace.requests.is_empty() || frac == 0.0 {
        return Vec::new();
    }
    let want = ((trace.requests.len() as f64 * frac).round() as usize)
        .clamp(1, trace.requests.len());
    let mut rng = Rng64::new(seed ^ 0xC0A5_7A1E);
    // Sample without replacement by shuffling indices with seeded swaps.
    let mut order: Vec<usize> = (0..trace.requests.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let mut victims: Vec<(u64, u64)> = order[..want]
        .iter()
        .map(|&i| {
            let r = &trace.requests[i];
            // A panic step strictly inside the decode range (step 0 when
            // the request decodes nothing — it then fails at admission
            // depth instead, which the battery tolerates).
            let step = if r.decode_steps > 0 { rng.below(r.decode_steps) as u64 } else { 0 };
            (r.id, step)
        })
        .collect();
    victims.sort_unstable();
    victims
}

/// Pick deterministic store-corruption victims from a trace: roughly
/// `frac` of the requests (at least one), each paired with a decode step
/// at which a bit flip lands and the bit index to flip. The output is
/// plain `(request_id, flip_step, bit)` data — the serve layer turns it
/// into `BitFlip` fault-plan entries. Flip steps skip a request's first
/// decode step so a checkpoint taken at tick 0 always precedes the
/// damage; requests that decode fewer than 2 steps are never marked
/// (nothing lands mid-decode). Same `(trace, seed, frac)` → same victims.
pub fn corruption_victims(trace: &TenantTrace, seed: u64, frac: f64) -> Vec<(u64, u64, u64)> {
    assert!((0.0..=1.0).contains(&frac), "victim fraction must be in [0, 1]");
    let eligible: Vec<&TraceRequest> =
        trace.requests.iter().filter(|r| r.decode_steps >= 2).collect();
    if eligible.is_empty() || frac == 0.0 {
        return Vec::new();
    }
    let want =
        ((trace.requests.len() as f64 * frac).round() as usize).clamp(1, eligible.len());
    let mut rng = Rng64::new(seed ^ 0xB17_F11B5);
    let mut order: Vec<usize> = (0..eligible.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let mut victims: Vec<(u64, u64, u64)> = order[..want]
        .iter()
        .map(|&i| {
            let r = eligible[i];
            // Strictly after the first step, strictly inside the range.
            let step = 1 + rng.below(r.decode_steps - 1) as u64;
            let bit = rng.below(1 << 20) as u64;
            (r.id, step, bit)
        })
        .collect();
    victims.sort_unstable();
    victims
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TraceConfig {
        TraceConfig { sessions: 200, ..Default::default() }
    }

    #[test]
    fn trace_is_deterministic() {
        let a = multi_tenant_trace(&cfg());
        let b = multi_tenant_trace(&cfg());
        assert_eq!(a.requests.len(), 200);
        for (x, y) in a.requests.iter().zip(b.requests.iter()) {
            assert_eq!(x.arrival_tick, y.arrival_tick);
            assert_eq!(x.workload.tokens, y.workload.tokens);
            assert_eq!(x.decode_steps, y.decode_steps);
        }
        let c = multi_tenant_trace(&TraceConfig { seed: 999, ..cfg() });
        assert_ne!(
            a.requests[0].workload.tokens, c.requests[0].workload.tokens,
            "seed must matter"
        );
    }

    #[test]
    fn arrivals_are_poisson_ish() {
        // With λ = 0.5 the mean gap is 2 ticks; a 200-sample mean should
        // land well within [1, 3].
        let t = multi_tenant_trace(&cfg());
        let ticks: Vec<u64> = t.requests.iter().map(|r| r.arrival_tick).collect();
        assert!(ticks.windows(2).all(|w| w[0] <= w[1]), "arrivals must be ordered");
        let mean = (ticks[ticks.len() - 1] - ticks[0]) as f64 / (ticks.len() - 1) as f64;
        assert!((1.0..3.0).contains(&mean), "mean gap {mean}");
        // A Poisson process has bursts: some consecutive requests share a
        // tick, others are far apart.
        assert!(ticks.windows(2).any(|w| w[0] == w[1]), "no bursts generated");
        assert!(ticks.windows(2).any(|w| w[1] - w[0] >= 4), "no quiet gaps generated");
    }

    #[test]
    fn prompt_mixture_spans_tiers_and_families() {
        let t = multi_tenant_trace(&cfg());
        let mut by_len = [0usize; 3];
        let mut names = std::collections::HashSet::new();
        for r in &t.requests {
            let s = r.workload.tokens.len();
            let tier = [96, 192, 384].iter().position(|&l| l == s).expect("unknown prompt len");
            by_len[tier] += 1;
            names.insert(r.workload.name);
        }
        assert!(by_len.iter().all(|&c| c > 10), "tiers unused: {by_len:?}");
        assert!(by_len[0] > by_len[2], "mixture weights ignored: {by_len:?}");
        assert!(names.len() >= 3, "task families missing: {names:?}");
    }

    #[test]
    fn decode_steps_spread_for_churn() {
        let t = multi_tenant_trace(&cfg());
        let min = t.requests.iter().map(|r| r.decode_steps).min().unwrap();
        let max = t.requests.iter().map(|r| r.decode_steps).max().unwrap();
        assert!(min >= 4 && max <= 24);
        assert!(max >= min + 10, "decode lengths too uniform for churn: {min}..{max}");
    }

    #[test]
    fn default_priority_mix_is_all_normal() {
        for r in multi_tenant_trace(&cfg()).requests {
            assert_eq!(r.priority, 1, "default traffic must be SLO-neutral");
        }
        for r in shared_prefix_trace(&cfg(), 4).requests {
            assert_eq!(r.priority, 1);
        }
    }

    #[test]
    fn priority_mix_spans_tiers_without_perturbing_the_trace() {
        let mixed =
            multi_tenant_trace(&TraceConfig { priority_mix: [1.0, 1.0, 1.0], ..cfg() });
        let mut by_tier = [0usize; 3];
        for r in &mixed.requests {
            by_tier[r.priority as usize] += 1;
        }
        assert!(by_tier.iter().all(|&c| c > 20), "tiers unused: {by_tier:?}");
        // Same trace content as the all-normal default: priorities ride an
        // independent RNG stream.
        let plain = multi_tenant_trace(&cfg());
        for (m, p) in mixed.requests.iter().zip(plain.requests.iter()) {
            assert_eq!(m.arrival_tick, p.arrival_tick);
            assert_eq!(m.workload.tokens, p.workload.tokens);
            assert_eq!(m.decode_steps, p.decode_steps);
        }
        // Deterministic in the seed.
        let again =
            multi_tenant_trace(&TraceConfig { priority_mix: [1.0, 1.0, 1.0], ..cfg() });
        for (a, b) in mixed.requests.iter().zip(again.requests.iter()) {
            assert_eq!(a.priority, b.priority);
        }
    }

    #[test]
    #[should_panic(expected = "priority weights all zero")]
    fn zero_priority_mix_rejected() {
        let _ = multi_tenant_trace(&TraceConfig {
            priority_mix: [0.0, 0.0, 0.0],
            ..Default::default()
        });
    }

    #[test]
    #[should_panic(expected = "arrival rate")]
    fn zero_rate_rejected() {
        let _ = multi_tenant_trace(&TraceConfig { arrival_rate: 0.0, ..Default::default() });
    }

    #[test]
    fn shared_prefix_trace_dedups_prompts_per_group() {
        let t = shared_prefix_trace(&cfg(), 4);
        assert_eq!(t.requests.len(), 200);
        // Exactly 4 distinct prompts, assigned round-robin by id.
        let mut distinct = std::collections::HashSet::new();
        for r in &t.requests {
            assert_eq!(
                r.workload.tokens,
                t.requests[(r.id % 4) as usize].workload.tokens,
                "request {} left its prompt group",
                r.id
            );
            distinct.insert(r.workload.tokens.clone());
        }
        assert_eq!(distinct.len(), 4, "groups must carry distinct prompts");
        // Churn survives dedup: decode lengths and arrival gaps still vary.
        let min = t.requests.iter().map(|r| r.decode_steps).min().unwrap();
        let max = t.requests.iter().map(|r| r.decode_steps).max().unwrap();
        assert!(max > min, "decode lengths degenerate");
        assert!(t.requests.last().unwrap().arrival_tick > 0, "arrivals degenerate");
        // Deterministic in the seed.
        let again = shared_prefix_trace(&cfg(), 4);
        for (a, b) in t.requests.iter().zip(again.requests.iter()) {
            assert_eq!(a.workload.tokens, b.workload.tokens);
            assert_eq!(a.decode_steps, b.decode_steps);
        }
    }

    #[test]
    #[should_panic(expected = "more prompt groups than sessions")]
    fn oversized_group_count_rejected() {
        let _ = shared_prefix_trace(&TraceConfig { sessions: 2, ..Default::default() }, 3);
    }

    #[test]
    fn chaos_victims_are_deterministic_and_in_range() {
        let t = multi_tenant_trace(&cfg());
        let a = chaos_victims(&t, 42, 0.1);
        let b = chaos_victims(&t, 42, 0.1);
        assert_eq!(a, b, "same seed must mark the same victims");
        assert_eq!(a.len(), 20, "10% of 200 requests");
        let ids: std::collections::HashSet<u64> = a.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids.len(), a.len(), "victims must be distinct requests");
        for &(id, step) in &a {
            let r = &t.requests[id as usize];
            assert_eq!(r.id, id);
            assert!((step as usize) < r.decode_steps.max(1), "panic step outside decode range");
        }
        let c = chaos_victims(&t, 43, 0.1);
        assert_ne!(a, c, "seed must matter");
        assert!(chaos_victims(&t, 42, 0.0).is_empty());
        assert_eq!(chaos_victims(&t, 42, 1.0).len(), 200);
        // Tiny fractions still mark at least one victim.
        assert_eq!(chaos_victims(&t, 42, 0.0001).len(), 1);
    }

    #[test]
    fn corruption_victims_are_deterministic_and_flip_mid_decode() {
        let t = multi_tenant_trace(&cfg());
        let a = corruption_victims(&t, 42, 0.1);
        let b = corruption_victims(&t, 42, 0.1);
        assert_eq!(a, b, "same seed must mark the same victims");
        assert_eq!(a.len(), 20, "10% of 200 requests");
        let ids: std::collections::HashSet<u64> = a.iter().map(|&(id, _, _)| id).collect();
        assert_eq!(ids.len(), a.len(), "victims must be distinct requests");
        for &(id, step, _bit) in &a {
            let r = &t.requests[id as usize];
            assert_eq!(r.id, id);
            assert!(r.decode_steps >= 2, "victims must decode at least twice");
            assert!(step >= 1, "flip must land after the first decode step");
            assert!((step as usize) < r.decode_steps, "flip step outside decode range");
        }
        let c = corruption_victims(&t, 43, 0.1);
        assert_ne!(a, c, "seed must matter");
        assert!(corruption_victims(&t, 42, 0.0).is_empty());
        // Tiny fractions still mark at least one victim.
        assert_eq!(corruption_victims(&t, 42, 0.0001).len(), 1);
    }
}
