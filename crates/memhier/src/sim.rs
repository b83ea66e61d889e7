//! Discrete-event overlap simulator: streams, events, and a shared clock.
//!
//! Overlap is the whole game in PQCache's system design (Fig. 7): offload
//! rides the D2H link while the GPU computes the next layer, K-Means rides
//! the CPU, code prefetch rides H2D one layer ahead. We model each resource
//! as a *stream* — an in-order queue with a `free_at` cursor — and each
//! operation as an event with dependencies. An op starts at
//! `max(stream.free_at, deps…)` and finishes `duration` later. End-to-end
//! time is the max event end; serialized time is the sum of durations, which
//! gives the "PQCache vs sequential scheduling" comparison directly.

/// Identifies a simulated hardware resource (GPU, PCIe direction, CPU pool).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// GPU compute stream.
    Gpu,
    /// Device→host copy engine.
    D2H,
    /// Host→device copy engine.
    H2D,
    /// CPU clustering worker pool.
    Cpu,
}

const N_RESOURCES: usize = 4;

impl Resource {
    fn index(self) -> usize {
        match self {
            Resource::Gpu => 0,
            Resource::D2H => 1,
            Resource::H2D => 2,
            Resource::Cpu => 3,
        }
    }

    /// All resources, in index order.
    pub fn all() -> [Resource; N_RESOURCES] {
        [Resource::Gpu, Resource::D2H, Resource::H2D, Resource::Cpu]
    }
}

/// Handle to a scheduled operation; carries its completion time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// When the op started.
    pub start: f64,
    /// When the op completes.
    pub end: f64,
}

impl Event {
    /// An event that completed at time zero (useful as a null dependency).
    pub fn ready() -> Self {
        Self { start: 0.0, end: 0.0 }
    }
}

/// Records one scheduled op for later decomposition.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// Resource the op ran on.
    pub resource: Resource,
    /// Label used to group ops in decomposition reports.
    pub label: &'static str,
    /// Scheduled interval.
    pub event: Event,
}

/// The overlap simulator.
///
/// ```
/// use pqc_memhier::{Resource, SimEngine};
///
/// let mut e = SimEngine::new();
/// let compute = e.schedule(Resource::Gpu, "compute", 10.0, &[]);
/// e.schedule(Resource::D2H, "offload", 3.0, &[compute]); // dependent copy
/// e.schedule(Resource::Cpu, "kmeans", 8.0, &[]);          // overlaps fully
/// assert_eq!(e.makespan(), 13.0);          // 10 + trailing offload
/// assert_eq!(e.serialized_time(), 21.0);   // what a naive schedule costs
/// ```
#[derive(Debug, Clone)]
pub struct SimEngine {
    free_at: [f64; N_RESOURCES],
    ops: Vec<OpRecord>,
}

impl Default for SimEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl SimEngine {
    /// A fresh engine with all streams idle at t=0.
    pub fn new() -> Self {
        Self { free_at: [0.0; N_RESOURCES], ops: Vec::new() }
    }

    /// Schedule an op of `duration` seconds on `resource`, not starting
    /// before any of `deps` completes. Returns its completion event.
    pub fn schedule(
        &mut self,
        resource: Resource,
        label: &'static str,
        duration: f64,
        deps: &[Event],
    ) -> Event {
        assert!(duration >= 0.0 && duration.is_finite(), "bad duration {duration}");
        let dep_ready = deps.iter().fold(0.0f64, |acc, e| acc.max(e.end));
        let start = self.free_at[resource.index()].max(dep_ready);
        let end = start + duration;
        self.free_at[resource.index()] = end;
        let event = Event { start, end };
        self.ops.push(OpRecord { resource, label, event });
        event
    }

    /// Simulated end-to-end time: the latest completion across all streams.
    pub fn makespan(&self) -> f64 {
        self.free_at.iter().copied().fold(0.0, f64::max)
    }

    /// Sum of all op durations — the hypothetical fully-sequential schedule.
    pub fn serialized_time(&self) -> f64 {
        self.ops.iter().map(|o| o.event.end - o.event.start).sum()
    }

    /// Total busy time per resource.
    pub fn busy_time(&self, resource: Resource) -> f64 {
        self.ops
            .iter()
            .filter(|o| o.resource == resource)
            .map(|o| o.event.end - o.event.start)
            .sum()
    }

    /// Total busy time per label (e.g. all "kmeans" ops).
    pub fn label_time(&self, label: &str) -> f64 {
        self.ops
            .iter()
            .filter(|o| o.label == label)
            .map(|o| o.event.end - o.event.start)
            .sum()
    }

    /// All recorded ops, in scheduling order.
    pub fn ops(&self) -> &[OpRecord] {
        &self.ops
    }

    /// Reset to t=0, clearing history.
    pub fn reset(&mut self) {
        self.free_at = [0.0; N_RESOURCES];
        self.ops.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn independent_streams_overlap() {
        let mut e = SimEngine::new();
        e.schedule(Resource::Gpu, "compute", 10.0, &[]);
        e.schedule(Resource::D2H, "offload", 7.0, &[]);
        assert_eq!(e.makespan(), 10.0);
        assert_eq!(e.serialized_time(), 17.0);
    }

    #[test]
    fn same_stream_serializes() {
        let mut e = SimEngine::new();
        e.schedule(Resource::Gpu, "a", 5.0, &[]);
        let ev = e.schedule(Resource::Gpu, "b", 5.0, &[]);
        assert_eq!(ev.start, 5.0);
        assert_eq!(e.makespan(), 10.0);
    }

    #[test]
    fn dependencies_delay_start() {
        let mut e = SimEngine::new();
        let a = e.schedule(Resource::Gpu, "compute", 8.0, &[]);
        let b = e.schedule(Resource::D2H, "offload", 2.0, &[a]);
        assert_eq!(b.start, 8.0);
        assert_eq!(b.end, 10.0);
    }

    #[test]
    fn makespan_never_below_longest_component() {
        // DESIGN.md invariant: overlap can't beat the longest single stream.
        let mut e = SimEngine::new();
        for i in 0..5 {
            e.schedule(Resource::Gpu, "c", 3.0 + i as f64, &[]);
            e.schedule(Resource::Cpu, "k", 2.0, &[]);
        }
        assert!(e.makespan() >= e.busy_time(Resource::Gpu));
        assert!(e.makespan() >= e.busy_time(Resource::Cpu));
        assert!(e.makespan() <= e.serialized_time());
    }

    #[test]
    fn pipelined_prefill_pattern() {
        // GPU layer i computes; its offload depends on it but rides D2H.
        // With offload shorter than compute, makespan ≈ GPU time + last
        // offload tail (classic pipeline).
        let mut e = SimEngine::new();
        let mut last = Event::ready();
        for _ in 0..10 {
            let c = e.schedule(Resource::Gpu, "compute", 4.0, &[]);
            last = e.schedule(Resource::D2H, "offload", 1.0, &[c]);
        }
        assert_eq!(e.busy_time(Resource::Gpu), 40.0);
        assert_eq!(last.end, 41.0);
        assert_eq!(e.makespan(), 41.0);
    }

    #[test]
    fn label_accounting() {
        let mut e = SimEngine::new();
        e.schedule(Resource::Cpu, "kmeans", 3.0, &[]);
        e.schedule(Resource::Cpu, "kmeans", 2.0, &[]);
        e.schedule(Resource::Gpu, "compute", 1.0, &[]);
        assert_eq!(e.label_time("kmeans"), 5.0);
        assert_eq!(e.label_time("compute"), 1.0);
        assert_eq!(e.label_time("nothing"), 0.0);
    }

    #[test]
    fn events_monotone_per_stream() {
        let mut e = SimEngine::new();
        let mut prev_end = 0.0;
        for i in 0..20 {
            let ev = e.schedule(Resource::H2D, "x", (i % 3) as f64, &[]);
            assert!(ev.start >= prev_end);
            prev_end = ev.end;
        }
    }

    #[test]
    fn reset_clears_state() {
        let mut e = SimEngine::new();
        e.schedule(Resource::Gpu, "c", 5.0, &[]);
        e.reset();
        assert_eq!(e.makespan(), 0.0);
        assert!(e.ops().is_empty());
    }

    #[test]
    #[should_panic(expected = "bad duration")]
    fn negative_duration_panics() {
        let mut e = SimEngine::new();
        e.schedule(Resource::Gpu, "c", -1.0, &[]);
    }
}
