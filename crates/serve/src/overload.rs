//! Brownout overload control: adaptive pressure detection with graceful
//! quality degradation.
//!
//! The engine's whole substrate is a tunable quality/compute knob — PQ
//! selective attention trades recall for scan work through the selection
//! budget `k` and the IVF probe width — yet before this module the only
//! overload lever was to *shed*: drop whole requests while every survivor
//! decoded at full effort. A brownout controller inverts that: detect
//! pressure, dial effort down on degradable traffic within an explicit
//! recall floor, defer what can wait, and only shed at the very top of the
//! ladder. Actions reverse in order as pressure clears.
//!
//! ## The ladder
//!
//! A composite pressure score in `[0, 1]` — the **max** of queue depth,
//! slot occupancy, page-pool occupancy, rolling deadline-miss rate, and
//! rolling TTFT-vs-SLO violations (weakest-link semantics: any one
//! saturated resource is pressure) — is mapped through hysteresis onto
//! four [`PressureLevel`]s:
//!
//! | level       | Low/Normal effort        | Low admissions | checkpoints |
//! |-------------|--------------------------|----------------|-------------|
//! | `Nominal`   | full                     | admit          | base cadence|
//! | `Elevated`  | `effort[0]` (mild)       | admit          | base cadence|
//! | `Saturated` | `effort[1]`              | **defer**      | stretched   |
//! | `Critical`  | `effort[2]` (floor)      | **shed**       | stretched   |
//!
//! High-priority sessions are *never* degraded — the brownout exists to
//! protect them. The ladder moves **one rung per decision** and only after
//! `dwell_up`/`dwell_down` consecutive qualifying ticks, with exit
//! thresholds strictly below enter thresholds, so the controller never
//! flaps between levels on a noisy boundary tick.
//!
//! ## Determinism
//!
//! Every decision runs on the scheduler's tick clock over deterministic
//! inputs (queue lengths, slot counts, completion counters); the only
//! randomness — deferral jitter — is seeded per `(seed, request, tick)`.
//! A storm under a fault plan therefore replays bit-identically, and a
//! **disabled** controller (`ServeConfig::overload = None`) is
//! bit-identical to an engine built without this module: no effort calls
//! are made and no degraded code path is evaluated.

use crate::engine::Priority;
use pqc_core::{ConfigError, SelectionEffort};
use pqc_tensor::Rng64;
use std::collections::VecDeque;

/// Overload pressure level — the brownout ladder. Ordered: degradation
/// strictly increases with the level, and recovery walks back down the
/// same rungs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum PressureLevel {
    /// No degradation; the controller only watches.
    #[default]
    Nominal,
    /// Mild effort reduction on Low/Normal traffic.
    Elevated,
    /// Deeper effort reduction; Low admissions are deferred (not
    /// rejected) and the checkpoint cadence stretches.
    Saturated,
    /// Effort at the configured floor; Low admissions fall back to the
    /// pre-brownout shed path (bounded retry, then typed `Admission`).
    Critical,
}

impl PressureLevel {
    /// Number of rungs.
    pub const COUNT: usize = 4;

    /// All levels, lowest first.
    pub const ALL: [PressureLevel; Self::COUNT] =
        [Self::Nominal, Self::Elevated, Self::Saturated, Self::Critical];

    /// Rung index: `Nominal` = 0 … `Critical` = 3.
    pub fn index(self) -> usize {
        self as usize
    }

    /// One rung up (saturating at `Critical`).
    fn up(self) -> Self {
        Self::ALL[(self.index() + 1).min(Self::COUNT - 1)]
    }

    /// One rung down (saturating at `Nominal`).
    fn down(self) -> Self {
        Self::ALL[self.index().saturating_sub(1)]
    }
}

impl std::fmt::Display for PressureLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Self::Nominal => "nominal",
            Self::Elevated => "elevated",
            Self::Saturated => "saturated",
            Self::Critical => "critical",
        };
        f.write_str(s)
    }
}

/// Brownout controller configuration (`ServeConfig::overload`).
///
/// Thresholds index the rung being *entered*: `enter[0]`/`exit[0]` govern
/// `Nominal ⇄ Elevated`, `[1]` `Elevated ⇄ Saturated`, `[2]`
/// `Saturated ⇄ Critical`. `exit[i] < enter[i]` is required — the gap is
/// the hysteresis band.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadConfig {
    /// Pressure at or above which the ladder arms a step **up** into rung
    /// `i + 1` (after `dwell_up` consecutive qualifying ticks).
    pub enter: [f64; 3],
    /// Pressure strictly below which the ladder arms a step **down** out
    /// of rung `i + 1` (after `dwell_down` consecutive qualifying ticks).
    pub exit: [f64; 3],
    /// Consecutive qualifying ticks before a step up. ≥ 1.
    pub dwell_up: u64,
    /// Consecutive qualifying ticks before a step down. ≥ 1. Typically
    /// larger than `dwell_up`: escalate fast, relax carefully.
    pub dwell_down: u64,
    /// Rolling window (ticks) for the deadline-miss and TTFT-vs-SLO
    /// rates. ≥ 1.
    pub window_ticks: usize,
    /// TTFT target in scheduler ticks feeding the pressure signal: a
    /// completion whose `ttft_ticks` exceeds this counts as an SLO
    /// violation in the window.
    pub ttft_slo_ticks: u64,
    /// Selection effort applied to Low/Normal sessions at
    /// `Elevated`/`Saturated`/`Critical` (index = rung − 1). Each entry
    /// must respect the floors below, and effort must be non-increasing
    /// up the ladder so actions reverse in order as pressure clears.
    pub effort: [SelectionEffort; 3],
    /// Floor on every effort's `k_frac` — the recall floor expressed as a
    /// budget fraction. In `(0, 1]`.
    pub min_k_frac: f64,
    /// Floor on every effort's IVF probe cap. ≥ 1.
    pub min_n_probe: usize,
    /// The empirical recall@k floor (vs the exact path) the effort ladder
    /// was validated against at maximum degradation; `tests/overload.rs`
    /// re-measures it. In `(0, 1]`.
    pub recall_floor: f64,
    /// Base Low-admission deferral at `Saturated`, in ticks. ≥ 1.
    pub defer_ticks: u64,
    /// Max seeded jitter added to a deferral (0 = none); spreads matured
    /// re-admissions so a deferred cohort does not stampede one tick.
    pub defer_jitter: u64,
    /// Checkpoint-cadence multiplier at `Saturated` and above. ≥ 1.
    pub checkpoint_stretch: u64,
    /// Seed for deferral jitter; all other decisions are seedless
    /// deterministic functions of tick-clock state.
    pub seed: u64,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        Self {
            enter: [0.55, 0.75, 0.92],
            exit: [0.40, 0.60, 0.80],
            dwell_up: 2,
            dwell_down: 4,
            window_ticks: 32,
            ttft_slo_ticks: 16,
            effort: [
                SelectionEffort { k_frac: 0.5, max_n_probe: Some(8) },
                SelectionEffort { k_frac: 0.25, max_n_probe: Some(4) },
                SelectionEffort { k_frac: 0.15, max_n_probe: Some(4) },
            ],
            min_k_frac: 0.1,
            min_n_probe: 4,
            recall_floor: 0.5,
            defer_ticks: 4,
            defer_jitter: 2,
            checkpoint_stretch: 4,
            seed: 0xB0B0,
        }
    }
}

impl OverloadConfig {
    /// Validate, returning a typed error on nonsensical settings —
    /// including effort-floor consistency: every rung's effort must sit
    /// at or above the configured recall floor's knobs.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for i in 0..3 {
            if !(self.enter[i] > 0.0 && self.enter[i] <= 1.0) {
                return Err(ConfigError::new("overload.enter", "enter thresholds must be in (0, 1]"));
            }
            if !(self.exit[i] >= 0.0 && self.exit[i] < self.enter[i]) {
                return Err(ConfigError::new(
                    "overload.exit",
                    format!(
                        "exit[{i}] = {} must be in [0, enter[{i}] = {}) — the gap is the \
                         hysteresis band",
                        self.exit[i], self.enter[i]
                    ),
                ));
            }
        }
        if self.enter.windows(2).any(|w| w[0] > w[1]) {
            return Err(ConfigError::new("overload.enter", "enter thresholds must be ascending"));
        }
        if self.dwell_up == 0 || self.dwell_down == 0 {
            return Err(ConfigError::new("overload.dwell", "dwell ticks must be at least 1"));
        }
        if self.window_ticks == 0 {
            return Err(ConfigError::new("overload.window_ticks", "rolling window needs >= 1 tick"));
        }
        if !(self.min_k_frac > 0.0 && self.min_k_frac <= 1.0) {
            return Err(ConfigError::new("overload.min_k_frac", "min_k_frac must be in (0, 1]"));
        }
        if self.min_n_probe == 0 {
            return Err(ConfigError::new("overload.min_n_probe", "min_n_probe must be >= 1"));
        }
        if !(self.recall_floor > 0.0 && self.recall_floor <= 1.0) {
            return Err(ConfigError::new("overload.recall_floor", "recall_floor must be in (0, 1]"));
        }
        for (i, e) in self.effort.iter().enumerate() {
            if !(e.k_frac > 0.0 && e.k_frac <= 1.0) {
                return Err(ConfigError::new("overload.effort", "k_frac must be in (0, 1]"));
            }
            if e.k_frac < self.min_k_frac {
                return Err(ConfigError::new(
                    "overload.effort",
                    format!(
                        "effort[{i}].k_frac = {} sits below the recall floor's min_k_frac = {}",
                        e.k_frac, self.min_k_frac
                    ),
                ));
            }
            if let Some(cap) = e.max_n_probe {
                if cap < self.min_n_probe {
                    return Err(ConfigError::new(
                        "overload.effort",
                        format!(
                            "effort[{i}].max_n_probe = {cap} sits below the recall floor's \
                             min_n_probe = {}",
                            self.min_n_probe
                        ),
                    ));
                }
            }
        }
        if self.effort.windows(2).any(|w| w[1].k_frac > w[0].k_frac) {
            return Err(ConfigError::new(
                "overload.effort",
                "effort must be non-increasing up the ladder (actions reverse in order)",
            ));
        }
        if self.defer_ticks == 0 {
            return Err(ConfigError::new("overload.defer_ticks", "deferral must be >= 1 tick"));
        }
        if self.checkpoint_stretch == 0 {
            return Err(ConfigError::new(
                "overload.checkpoint_stretch",
                "checkpoint stretch must be >= 1 (1 = no stretch)",
            ));
        }
        Ok(())
    }
}

/// One tick's pressure inputs. Occupancy fields are fractions in `[0, 1]`;
/// counter fields are *increments since the previous observation*.
///
/// The controller is only as replayable as what it is fed: the engine
/// computes every field from tick-clock state — never from anything that
/// depends on how far another thread has got, such as the admission queue's
/// physical length while the producer is still pushing. On a shard that
/// owns its queue (round-robin placement, or one shard) the whole sample
/// replays exactly; shards sharing a first-free queue or a capped page pool
/// see each other's progress in `queue_frac` / `pool_frac`.
#[derive(Debug, Clone, Copy, Default)]
pub struct PressureSample {
    /// Admission backlog over queue capacity: requests whose arrival tick
    /// has passed and that no shard has popped yet.
    pub queue_frac: f64,
    /// Resident sessions (active + prefilling) over the slot count.
    pub slot_frac: f64,
    /// Page-pool occupancy (0 when the pool is uncapped).
    pub pool_frac: f64,
    /// Completions finished since the last observation.
    pub done: u32,
    /// Of `done`, how many failed on a deadline.
    pub missed: u32,
    /// Of `done`, how many recorded a first token later than the TTFT
    /// SLO (`OverloadConfig::ttft_slo_ticks`) on the tick clock.
    pub ttft_over: u32,
}

/// The per-shard brownout controller: feed it one [`PressureSample`] per
/// tick, read the [`PressureLevel`] and the per-priority effort back.
///
/// One instance per shard worker — pressure is a shard-local quantity
/// (each shard owns its queue, slots, and sessions), and shard-local
/// state is what keeps control decisions free of cross-thread races.
#[derive(Debug)]
pub struct OverloadController {
    cfg: OverloadConfig,
    level: PressureLevel,
    /// Consecutive ticks qualifying for a step up / down.
    above: u64,
    below: u64,
    /// Rolling `(done, missed, ttft_over)` increments, newest last.
    window: VecDeque<(u32, u32, u32)>,
    /// Running sums over `window`.
    done_sum: u64,
    missed_sum: u64,
    over_sum: u64,
    /// Last composite score, for introspection/tests.
    score: f64,
}

impl OverloadController {
    /// A controller at `Nominal` with an empty window. The configuration
    /// must already be validated (`ServeConfig::validate` does).
    pub fn new(cfg: OverloadConfig) -> Self {
        let window = VecDeque::with_capacity(cfg.window_ticks);
        Self {
            cfg,
            level: PressureLevel::Nominal,
            above: 0,
            below: 0,
            window,
            done_sum: 0,
            missed_sum: 0,
            over_sum: 0,
            score: 0.0,
        }
    }

    /// Current rung.
    pub fn level(&self) -> PressureLevel {
        self.level
    }

    /// Last composite pressure score.
    pub fn score(&self) -> f64 {
        self.score
    }

    /// The configuration in effect.
    pub fn config(&self) -> &OverloadConfig {
        &self.cfg
    }

    /// Ingest one tick's sample and return the (possibly stepped) level.
    ///
    /// Must be called on **every** scheduler tick, including idle ticks —
    /// pressure decay is what re-admits deferred work, so skipping idle
    /// ticks would deadlock a shard whose only remaining work is
    /// deferred. The ladder moves at most one rung per call.
    pub fn observe(&mut self, s: &PressureSample) -> PressureLevel {
        // Rolling miss / TTFT-violation rates over the last window_ticks.
        if self.window.len() == self.cfg.window_ticks {
            let (d, m, o) = self.window.pop_front().expect("non-empty window");
            self.done_sum -= u64::from(d);
            self.missed_sum -= u64::from(m);
            self.over_sum -= u64::from(o);
        }
        self.window.push_back((s.done, s.missed, s.ttft_over));
        self.done_sum += u64::from(s.done);
        self.missed_sum += u64::from(s.missed);
        self.over_sum += u64::from(s.ttft_over);
        let miss_frac =
            if self.done_sum == 0 { 0.0 } else { self.missed_sum as f64 / self.done_sum as f64 };
        let ttft_frac =
            if self.done_sum == 0 { 0.0 } else { self.over_sum as f64 / self.done_sum as f64 };

        // Weakest link: any one saturated resource is pressure.
        self.score = s
            .queue_frac
            .max(s.slot_frac)
            .max(s.pool_frac)
            .max(miss_frac)
            .max(ttft_frac)
            .clamp(0.0, 1.0);

        // Hysteresis: arm up/down against the thresholds of the adjacent
        // rung, step only after the dwell, one rung at a time.
        let li = self.level.index();
        let arm_up = li < PressureLevel::COUNT - 1 && self.score >= self.cfg.enter[li];
        let arm_down = li > 0 && self.score < self.cfg.exit[li - 1];
        self.above = if arm_up { self.above + 1 } else { 0 };
        self.below = if arm_down { self.below + 1 } else { 0 };
        if self.above >= self.cfg.dwell_up {
            self.level = self.level.up();
            self.above = 0;
            self.below = 0;
        } else if self.below >= self.cfg.dwell_down {
            self.level = self.level.down();
            self.above = 0;
            self.below = 0;
        }
        self.level
    }

    /// Selection effort for a session of the given priority at the
    /// current level. High priority is never degraded; that is the point.
    pub fn effort_for(&self, priority: Priority) -> SelectionEffort {
        if priority == Priority::High || self.level == PressureLevel::Nominal {
            return SelectionEffort::full();
        }
        self.cfg.effort[self.level.index() - 1]
    }

    /// Whether a Low-priority admission should be **deferred** right now
    /// (pushed back to the maturity queue without consuming a retry).
    pub fn defers_low_admission(&self) -> bool {
        self.level == PressureLevel::Saturated
    }

    /// Whether a Low-priority admission should fall back to the shed
    /// path (bounded retry, then a typed `Admission` failure).
    pub fn sheds_low_admission(&self) -> bool {
        self.level == PressureLevel::Critical
    }

    /// Deferral length in ticks for a Low admission at `tick`: the
    /// configured base plus seeded jitter keyed on `(seed, request,
    /// tick)` — deterministic for replay, spread so a deferred cohort
    /// matures staggered instead of stampeding one tick.
    pub fn defer_delay(&self, req_id: u64, tick: u64) -> u64 {
        let jitter = if self.cfg.defer_jitter == 0 {
            0
        } else {
            let mut rng = Rng64::new(
                self.cfg.seed ^ req_id.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ tick,
            );
            rng.below(self.cfg.defer_jitter as usize + 1) as u64
        };
        (self.cfg.defer_ticks + jitter).max(1)
    }

    /// Checkpoint cadence under pressure: stretched at `Saturated` and
    /// above (checkpoint I/O is deferrable work), untouched below.
    pub fn checkpoint_every(&self, base: u64) -> u64 {
        if self.level >= PressureLevel::Saturated {
            base.saturating_mul(self.cfg.checkpoint_stretch).max(1)
        } else {
            base
        }
    }

    /// Seed for controller-driven retry backoff (the Critical shed path),
    /// kept distinct from the deferral-jitter stream.
    pub fn seed(&self) -> u64 {
        self.cfg.seed ^ 0x0B0E_D10A_D5ED_u64
    }
}

/// Aggregated brownout metering across shards (`ServeReport::overload`).
/// All-zero when the controller is disabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverloadSummary {
    /// Scheduler ticks spent at each rung, summed over shards (indexed by
    /// `PressureLevel::index`). Ticks are only attributed while a
    /// controller is running, so a disabled controller leaves all four
    /// counts zero (including `Nominal`).
    pub level_ticks: [u64; PressureLevel::COUNT],
    /// Decode tokens produced under non-full effort.
    pub degraded_tokens: u64,
    /// Low admissions deferred at `Saturated` (each deferral counts).
    pub deferrals: u64,
    /// Requests shed by the controller at `Critical` (excludes fault-plan
    /// and deadline sheds).
    pub sheds: u64,
}

impl OverloadSummary {
    /// Ticks spent at or above `Elevated`.
    pub fn pressured_ticks(&self) -> u64 {
        self.level_ticks[1..].iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(score: f64) -> PressureSample {
        PressureSample { queue_frac: score, ..Default::default() }
    }

    #[test]
    fn default_config_is_valid() {
        OverloadConfig::default().validate().expect("default must validate");
    }

    #[test]
    fn ladder_is_ordered_and_indexed() {
        use PressureLevel::*;
        assert!(Nominal < Elevated && Elevated < Saturated && Saturated < Critical);
        for (i, l) in PressureLevel::ALL.iter().enumerate() {
            assert_eq!(l.index(), i);
        }
        assert_eq!(Critical.up(), Critical, "ladder saturates at the top");
        assert_eq!(Nominal.down(), Nominal, "ladder saturates at the bottom");
        assert_eq!(PressureLevel::default(), Nominal);
    }

    #[test]
    fn escalation_climbs_one_rung_per_dwell() {
        let cfg = OverloadConfig { dwell_up: 2, ..Default::default() };
        let mut c = OverloadController::new(cfg);
        // Saturation pressure: without per-rung dwell the ladder would
        // jump straight to Critical. It must climb a rung per 2 ticks.
        let mut seen = vec![c.level()];
        for _ in 0..6 {
            seen.push(c.observe(&sample(1.0)));
        }
        use PressureLevel::*;
        assert_eq!(
            seen,
            vec![Nominal, Nominal, Elevated, Elevated, Saturated, Saturated, Critical]
        );
        // Steady pressure holds the top without wrapping or flapping.
        assert_eq!(c.observe(&sample(1.0)), Critical);
    }

    #[test]
    fn recovery_descends_in_order_after_dwell_down() {
        let cfg = OverloadConfig { dwell_up: 1, dwell_down: 3, ..Default::default() };
        let mut c = OverloadController::new(cfg);
        while c.level() != PressureLevel::Critical {
            c.observe(&sample(1.0));
        }
        // Pressure clears: three quiet ticks per rung, strictly in order.
        let mut seen = Vec::new();
        for _ in 0..9 {
            seen.push(c.observe(&sample(0.0)));
        }
        use PressureLevel::*;
        assert_eq!(
            seen,
            vec![
                Critical, Critical, Saturated, Saturated, Saturated, Elevated, Elevated,
                Elevated, Nominal
            ]
        );
    }

    #[test]
    fn hysteresis_band_never_flaps() {
        // A score inside the Elevated band (>= exit[0], < enter[0]) must
        // hold the current level forever from either side.
        let cfg = OverloadConfig::default();
        let band = (cfg.exit[0] + cfg.enter[0]) / 2.0;
        let mut from_below = OverloadController::new(cfg.clone());
        for _ in 0..50 {
            assert_eq!(from_below.observe(&sample(band)), PressureLevel::Nominal);
        }
        let mut from_above = OverloadController::new(cfg);
        while from_above.level() != PressureLevel::Elevated {
            from_above.observe(&sample(1.0));
        }
        for _ in 0..50 {
            assert_eq!(from_above.observe(&sample(band)), PressureLevel::Elevated);
        }
    }

    #[test]
    fn interrupted_dwell_resets_the_count() {
        let cfg = OverloadConfig { dwell_up: 3, ..Default::default() };
        let mut c = OverloadController::new(cfg);
        // Two hot ticks, one cool tick, repeatedly: never escalates.
        for _ in 0..10 {
            assert_eq!(c.observe(&sample(1.0)), PressureLevel::Nominal);
            assert_eq!(c.observe(&sample(1.0)), PressureLevel::Nominal);
            assert_eq!(c.observe(&sample(0.0)), PressureLevel::Nominal);
        }
    }

    #[test]
    fn high_priority_is_never_degraded() {
        let mut c = OverloadController::new(OverloadConfig::default());
        for _ in 0..20 {
            c.observe(&sample(1.0));
        }
        assert_eq!(c.level(), PressureLevel::Critical);
        assert!(c.effort_for(Priority::High).is_full());
        assert!(!c.effort_for(Priority::Normal).is_full());
        assert!(!c.effort_for(Priority::Low).is_full());
    }

    #[test]
    fn efforts_respect_floors_and_reverse_in_order() {
        let cfg = OverloadConfig::default();
        let mut c = OverloadController::new(cfg.clone());
        let mut prev_k = 1.0f64;
        for want in [PressureLevel::Elevated, PressureLevel::Saturated, PressureLevel::Critical] {
            while c.level() != want {
                c.observe(&sample(1.0));
            }
            let e = c.effort_for(Priority::Low);
            assert!(e.k_frac >= cfg.min_k_frac, "{want}: k_frac below floor");
            assert!(
                e.max_n_probe.unwrap_or(usize::MAX) >= cfg.min_n_probe,
                "{want}: probe cap below floor"
            );
            assert!(e.k_frac <= prev_k, "{want}: effort must not grow up the ladder");
            prev_k = e.k_frac;
        }
    }

    #[test]
    fn admission_actions_follow_the_ladder() {
        let mut c = OverloadController::new(OverloadConfig { dwell_up: 1, ..Default::default() });
        assert!(!c.defers_low_admission() && !c.sheds_low_admission());
        c.observe(&sample(1.0)); // Elevated
        assert!(!c.defers_low_admission() && !c.sheds_low_admission());
        c.observe(&sample(1.0)); // Saturated
        assert!(c.defers_low_admission() && !c.sheds_low_admission());
        c.observe(&sample(1.0)); // Critical
        assert!(!c.defers_low_admission() && c.sheds_low_admission());
    }

    #[test]
    fn deadline_misses_and_ttft_are_rolling_rates() {
        // 100% miss rate saturates pressure even with empty queues; once
        // the misses age out of the window, pressure decays to zero.
        let cfg = OverloadConfig { window_ticks: 4, dwell_up: 1, ..Default::default() };
        let mut c = OverloadController::new(cfg);
        c.observe(&PressureSample { done: 4, missed: 4, ..Default::default() });
        assert!(c.score() >= 1.0 - 1e-12, "all-missed window must saturate: {}", c.score());
        assert_eq!(c.level(), PressureLevel::Elevated);
        for _ in 0..4 {
            c.observe(&PressureSample::default());
        }
        assert_eq!(c.score(), 0.0, "aged-out misses must stop pressuring");
        // TTFT violations pressure the same way.
        let mut c2 = OverloadController::new(OverloadConfig {
            window_ticks: 4,
            dwell_up: 1,
            ..Default::default()
        });
        c2.observe(&PressureSample { done: 2, ttft_over: 2, ..Default::default() });
        assert!(c2.score() >= 1.0 - 1e-12);
    }

    #[test]
    fn defer_delay_is_seeded_and_bounded() {
        let cfg = OverloadConfig { defer_ticks: 4, defer_jitter: 2, ..Default::default() };
        let c = OverloadController::new(cfg.clone());
        for req in 0..32u64 {
            for tick in [0u64, 7, 1000] {
                let d = c.defer_delay(req, tick);
                assert!(
                    (cfg.defer_ticks..=cfg.defer_ticks + cfg.defer_jitter).contains(&d),
                    "delay {d} outside [{}, {}]",
                    cfg.defer_ticks,
                    cfg.defer_ticks + cfg.defer_jitter
                );
                assert_eq!(d, c.defer_delay(req, tick), "jitter must replay");
            }
        }
        // The jitter stream actually spreads.
        let spread: std::collections::HashSet<u64> =
            (0..32u64).map(|r| c.defer_delay(r, 3)).collect();
        assert!(spread.len() > 1, "jitter never varies");
    }

    #[test]
    fn checkpoint_cadence_stretches_at_saturated_and_above() {
        let mut c = OverloadController::new(OverloadConfig {
            dwell_up: 1,
            checkpoint_stretch: 4,
            ..Default::default()
        });
        assert_eq!(c.checkpoint_every(2), 2);
        c.observe(&sample(1.0)); // Elevated
        assert_eq!(c.checkpoint_every(2), 2, "Elevated must not stretch yet");
        c.observe(&sample(1.0)); // Saturated
        assert_eq!(c.checkpoint_every(2), 8);
        c.observe(&sample(1.0)); // Critical
        assert_eq!(c.checkpoint_every(2), 8);
    }

    #[test]
    fn invalid_configs_yield_typed_errors() {
        let bad_exit = OverloadConfig { exit: [0.6, 0.6, 0.8], ..Default::default() };
        assert_eq!(bad_exit.validate().unwrap_err().field, "overload.exit");
        let bad_dwell = OverloadConfig { dwell_up: 0, ..Default::default() };
        assert_eq!(bad_dwell.validate().unwrap_err().field, "overload.dwell");
        let below_floor = OverloadConfig {
            effort: [
                SelectionEffort { k_frac: 0.05, max_n_probe: None },
                SelectionEffort { k_frac: 0.05, max_n_probe: None },
                SelectionEffort { k_frac: 0.05, max_n_probe: None },
            ],
            ..Default::default()
        };
        assert_eq!(below_floor.validate().unwrap_err().field, "overload.effort");
        let probe_below_floor = OverloadConfig {
            effort: [
                SelectionEffort { k_frac: 0.5, max_n_probe: Some(1) },
                SelectionEffort { k_frac: 0.5, max_n_probe: Some(1) },
                SelectionEffort { k_frac: 0.5, max_n_probe: Some(1) },
            ],
            min_n_probe: 2,
            ..Default::default()
        };
        assert_eq!(probe_below_floor.validate().unwrap_err().field, "overload.effort");
        let growing = OverloadConfig {
            effort: [
                SelectionEffort { k_frac: 0.2, max_n_probe: None },
                SelectionEffort { k_frac: 0.9, max_n_probe: None },
                SelectionEffort { k_frac: 0.2, max_n_probe: None },
            ],
            ..Default::default()
        };
        assert_eq!(growing.validate().unwrap_err().field, "overload.effort");
        let no_stretch = OverloadConfig { checkpoint_stretch: 0, ..Default::default() };
        assert_eq!(no_stretch.validate().unwrap_err().field, "overload.checkpoint_stretch");
    }

    #[test]
    fn observe_is_deterministic() {
        let run = || {
            let mut c = OverloadController::new(OverloadConfig::default());
            let mut levels = Vec::new();
            for i in 0..200u64 {
                // A deterministic sawtooth of pressure.
                let score = ((i % 17) as f64 / 16.0).clamp(0.0, 1.0);
                levels.push(c.observe(&PressureSample {
                    queue_frac: score,
                    slot_frac: score * 0.7,
                    done: (i % 3) as u32,
                    missed: u32::from(i % 9 == 0),
                    ..Default::default()
                }));
            }
            levels
        };
        assert_eq!(run(), run(), "same samples must replay the same ladder");
    }
}
