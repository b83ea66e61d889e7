//! Span recorder for the traced run. Spans are taken from the benchmark's
//! own files, around its calls into each layer crate; they stay in memory
//! and are written out when the run ends.

use crate::json::Value;
use std::io::Write;
use std::time::Instant;

/// Index of a span inside its [`Recorder`]; `ROOT` marks "no parent".
pub type SpanId = u32;
pub const ROOT: SpanId = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<operation>`; the layer is the crate the call enters, or
    /// `driver` for the benchmark's own per-request container span, whose
    /// self time is what the replays and shadow structures cost.
    pub name: &'static str,
    /// Request (or session) the span belongs to.
    pub request: u64,
    /// The span that caused this one.
    pub parent: SpanId,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work done inside the span (rows, tokens, iterations — per name).
    pub count: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Collects spans when enabled; when disabled every call runs its closure
/// and records nothing, so one driver serves the traced and untraced pass.
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, request: u64, parent: SpanId) -> SpanId {
        if !self.enabled {
            return ROOT;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns: now,
            end_ns: now,
            count: 0,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn close(&mut self, id: SpanId, count: u64) {
        if id != ROOT {
            let now = self.now_ns();
            let span = &mut self.spans[id as usize];
            span.end_ns = now;
            span.count = count;
        }
    }

    /// Time `f` as one span; `f` returns its result and the span's count.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: SpanId,
        f: impl FnOnce() -> (T, u64),
    ) -> T {
        let id = self.open(name, request, parent);
        let (out, count) = f();
        self.close(id, count);
        out
    }

    /// Self time per layer: each span's duration minus its children's,
    /// summed over the layer's spans, in descending order. Spans called
    /// `sampled` that have no children are left out: only some live steps
    /// are replayed, and an unreplayed step's time cannot be split.
    pub fn self_time_by_layer(&self, sampled: &str) -> Vec<(&'static str, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut has_child = vec![false; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.dur_ns();
                has_child[s.parent as usize] = true;
            }
        }
        let mut layers: Vec<(&'static str, u64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == sampled && !has_child[i] {
                continue;
            }
            let own = s.dur_ns().saturating_sub(child_ns[i]);
            match layers.iter_mut().find(|(l, _)| *l == s.layer()) {
                Some(entry) => entry.1 += own,
                None => layers.push((s.layer(), own)),
            }
        }
        layers.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
        layers
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                Value::Null
            } else {
                Value::Num(s.parent as f64)
            };
            let line = Value::obj(vec![
                ("id", Value::Num(i as f64)),
                ("name", Value::str(s.name)),
                ("layer", Value::str(s.layer())),
                ("request", Value::Num(s.request as f64)),
                ("parent", parent),
                ("start_ns", Value::Num(s.start_ns as f64)),
                ("end_ns", Value::Num(s.end_ns as f64)),
                ("count", Value::Num(s.count as f64)),
            ]);
            writeln!(out, "{}", line.to_line())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut rec = Recorder::new(true);
        rec.spans = vec![
            Span {
                name: "core.step",
                request: 0,
                parent: ROOT,
                start_ns: 0,
                end_ns: 100,
                count: 0,
            },
            Span {
                name: "pq.scan",
                request: 0,
                parent: 0,
                start_ns: 10,
                end_ns: 70,
                count: 0,
            },
            Span {
                name: "pq.adc",
                request: 0,
                parent: 1,
                start_ns: 10,
                end_ns: 30,
                count: 0,
            },
            // A live step that was not replayed: left out.
            Span {
                name: "core.step",
                request: 0,
                parent: ROOT,
                start_ns: 100,
                end_ns: 190,
                count: 0,
            },
        ];
        assert_eq!(
            rec.self_time_by_layer("core.step"),
            vec![("pq", 60), ("core", 40)]
        );
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.time("core.step", 0, ROOT, || (7, 1)), 7);
        assert!(rec.spans.is_empty());
    }
}
