//! Spans recorded from the benchmark's own files, around the calls into
//! each layer. Spans stay in memory during a run and are written out
//! when it ends; full spans are kept for one unit of work in
//! [`SAMPLE_EVERY`], counters (call count and total time) for all.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// One request (step, reading) in this many keeps its full spans.
pub const SAMPLE_EVERY: u64 = 64;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// The request the span belongs to; spans of one request share it.
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

/// Call count and total time of one call site.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counter {
    pub calls: u64,
    pub total_ns: u64,
}

impl Counter {
    pub fn add(&mut self, ns: u64) {
        self.calls += 1;
        self.total_ns += ns;
    }

    pub fn mean_ns(&self) -> f64 {
        self.total_ns as f64 / self.calls as f64
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    /// What one `Instant::now()` pair costs; subtracted from the
    /// nanosecond-scale call timings.
    pub timer_ns: u64,
}

impl Tracer {
    pub fn new() -> Self {
        let mut best = u64::MAX;
        for _ in 0..2_000 {
            let t = Instant::now();
            best = best.min(t.elapsed().as_nanos() as u64);
        }
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            timer_ns: best,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn at(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Per span name: count, total time, and self time (duration minus
    /// the part its child spans cover).
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e: &mut (u64, u64, u64) = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(child_ns[i]);
        }
        out
    }

    pub fn to_json(&self) -> Json {
        let spans = self.spans.iter().map(|s| {
            Json::Arr(vec![
                Json::str(s.name),
                Json::Num(s.request as f64),
                Json::Num(s.start_ns as f64),
                Json::Num(s.end_ns as f64),
                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
            ])
        });
        let totals = self
            .self_times()
            .into_iter()
            .map(|(name, (n, total, own))| {
                (
                    name,
                    Json::obj([
                        ("spans", Json::Num(n as f64)),
                        ("total_ns", Json::Num(total as f64)),
                        ("self_ns", Json::Num(own as f64)),
                    ]),
                )
            });
        Json::obj([
            ("sample_every", Json::Num(SAMPLE_EVERY as f64)),
            ("timer_ns", Json::Num(self.timer_ns as f64)),
            (
                "columns",
                Json::Arr(
                    ["name", "request", "start_ns", "end_ns", "parent"]
                        .map(Json::str)
                        .to_vec(),
                ),
            ),
            ("by_name", Json::obj(totals)),
            ("spans", Json::Arr(spans.collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        let parent = t.push(Span {
            name: "step",
            request: 1,
            start_ns: 0,
            end_ns: 100,
            parent: None,
        });
        t.push(Span {
            name: "call",
            request: 1,
            start_ns: 10,
            end_ns: 40,
            parent: Some(parent),
        });
        t.push(Span {
            name: "call",
            request: 1,
            start_ns: 50,
            end_ns: 70,
            parent: Some(parent),
        });
        let by = t.self_times();
        assert_eq!(by["step"], (1, 100, 50));
        assert_eq!(by["call"], (2, 50, 50));
        let doc = t.to_json();
        assert_eq!(doc.get("spans").unwrap().as_arr().len(), 3);
        assert_eq!(Json::parse(&doc.to_string()).unwrap(), doc);
    }
}
