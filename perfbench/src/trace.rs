//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only here, in the benchmark, around calls into
//! each layer's public functions; the program itself carries no
//! instrumentation. Each span keeps its name, start, end, parent and
//! job id; they stay in memory until the run ends and writes them out
//! ([`Tracer::jsonl`]).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Layers that self time is reported for, matched against span names by
/// prefix (the longest match wins). `bench` is the benchmark's own code
/// around the calls: root spans and whatever their children leave.
pub const LAYERS: [&str; 10] = [
    "bench",
    "repro_bench.runner",
    "streamsim.fleet",
    "streamsim.routing",
    "streamsim.sim",
    "streamsim.engine",
    "streamsim.telemetry",
    "unbiased.fleet.summary",
    "unbiased.fleet.estimate",
    "netsim",
];

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub job: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span. `f` receives the span's id so that calls
    /// it makes can record child spans (on any thread).
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        job: Option<u64>,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("span list poisoned by a panicking job")
            .push(Span {
                id,
                parent,
                name,
                job,
                start_ns,
                end_ns,
            });
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("span list poisoned by a panicking job")
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Total duration (seconds) of the spans called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Self time per layer (seconds): each span's duration minus the
    /// part of it its children cover, summed by [`layer_of`] its name.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans();
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
        for s in &spans {
            let covered = children
                .get(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(covered);
            *out.entry(layer_of(s.name)).or_default() += self_ns as f64 * 1e-9;
        }
        out
    }

    /// Every span as one JSON object per line.
    pub fn jsonl(&self) -> Vec<String> {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        self.spans()
            .iter()
            .map(|s| {
                format!(
                    "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"job\":{},\"start_ns\":{},\"end_ns\":{}}}",
                    s.id,
                    opt(s.parent),
                    s.name,
                    opt(s.job),
                    s.start_ns,
                    s.end_ns
                )
            })
            .collect()
    }
}

/// The layer a span name belongs to: the longest [`LAYERS`] prefix, or
/// `bench` when none matches.
pub fn layer_of(name: &str) -> &'static str {
    LAYERS
        .iter()
        .filter(|l| name.starts_with(*l))
        .max_by_key(|l| l.len())
        .copied()
        .unwrap_or("bench")
}

/// Nanoseconds of `[lo, hi)` covered by the union of `intervals`
/// (children may overlap when they ran on different threads).
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_overlapping_children() {
        assert_eq!(covered_ns(&[(0, 10), (5, 20), (30, 40)], 0, 35), 25);
        assert_eq!(covered_ns(&[], 0, 10), 0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new();
        t.span("bench.root", None, None, |root| {
            t.span("streamsim.sim.run", Some(root), Some(0), |_| {
                std::thread::sleep(std::time::Duration::from_millis(20));
            });
        });
        let by_layer = t.self_time_by_layer();
        assert!(by_layer["streamsim.sim"] >= 0.02);
        assert!(by_layer["bench"] < by_layer["streamsim.sim"]);
        assert_eq!(
            layer_of("unbiased.fleet.summary.from_run"),
            "unbiased.fleet.summary"
        );
        assert_eq!(
            layer_of("unbiased.fleet.estimate"),
            "unbiased.fleet.estimate"
        );
    }
}
