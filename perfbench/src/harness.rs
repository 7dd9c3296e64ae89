//! One benchmark run of one workload: set-up, measured repetitions until
//! the time budget is spent, output checks, and (with tracing) a traced
//! phase that yields the per-layer metrics.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use repro_bench::Runner;

use crate::golden::{check_ops, counter_key, fp_hex, op_key, Entry, Goldens};
use crate::measure::{measure, median};
use crate::trace::{Tracer, LAYERS};
use crate::workloads::{Op, Verified, Workload};

/// Set-up runs timed before each measured repetition (plus one before
/// the first); `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Metrics reported with tracing off: what a user of the simulators sees.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("work_per_s", "1/s"),
];

/// Metrics reported with tracing on, one group per layer. A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("streamsim.sim.step_ns_per_session_tick.congested", "ns"),
    ("streamsim.sim.step_ns_per_session_tick.uncongested", "ns"),
    ("streamsim.sim.ns_per_session_tick", "ns"),
    ("streamsim.sim.step_us_p50", "us"),
    ("streamsim.sim.step_us_p9999", "us"),
    ("streamsim.sim.ticks", "count"),
    ("streamsim.sim.session_ticks", "count"),
    ("streamsim.sim.congested_hours", "count"),
    ("streamsim.engine.event_ns_per_session_tick", "ns"),
    ("streamsim.engine.event_over_tick", "ratio"),
    ("streamsim.fleet.job_ms_p50", "ms"),
    ("streamsim.fleet.job_ms_tail", "ms"),
    ("streamsim.fleet.job_ms_tail_pct", "%"),
    ("streamsim.fleet.job_ms_n", "count"),
    ("streamsim.routing.prepass_s", "s"),
    ("streamsim.routing.arrivals", "count"),
    ("streamsim.routing.stream_mb", "MiB"),
    ("streamsim.routing.rss_delta_mb", "MiB"),
    ("streamsim.telemetry.apply_ns_per_record", "ns"),
    ("streamsim.telemetry.sent", "count"),
    ("streamsim.telemetry.delivered", "count"),
    ("unbiased.fleet.summary.from_run_ns_per_session", "ns"),
    ("unbiased.fleet.summary.merge_finalize_ms", "ms"),
    ("unbiased.fleet.estimate_ms", "ms"),
    ("repro_bench.runner.jobs", "count"),
    ("repro_bench.runner.busy_s", "s"),
    ("repro_bench.runner.idle_frac", "ratio"),
    ("repro_bench.runner.makespan_over_ideal", "ratio"),
    ("netsim.events", "count"),
    ("netsim.ns_per_event.k2", "ns"),
    ("netsim.ns_per_event.k5", "ns"),
    ("netsim.ns_per_event.k8", "ns"),
    ("trace.overhead_frac", "ratio"),
];

/// Prefix of the per-layer self-time metrics (`trace.self_s.<layer>`).
pub const SELF_TIME_PREFIX: &str = "trace.self_s.";

pub struct Settings<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
    /// Op fingerprints and counters of this run, in golden form.
    pub golden: Entry,
    /// Spans of every traced repetition.
    pub tracers: Vec<Tracer>,
}

/// Run one workload. `load_goldens` is part of the timed set-up.
pub fn bench<W: Workload>(
    w: &W,
    s: &Settings,
    runner: &Runner,
    load_goldens: &dyn Fn() -> Goldens,
) -> Result<Report, String> {
    let mut notes = Vec::new();
    let mut setup_s = Vec::new();
    let mut set_up = || {
        let t0 = Instant::now();
        let goldens = load_goldens();
        let input = w.setup(s.seed);
        setup_s.push(t0.elapsed().as_secs_f64());
        (goldens, input)
    };
    let (goldens, mut input) = set_up();
    let golden = goldens.get(s.workload, s.seed);
    notes.push(match golden {
        Some(_) => format!("golden: stored for seed {}", s.seed),
        None => format!(
            "golden: none for seed {}; ops checked against the run's first repetition",
            s.seed
        ),
    });

    // Untraced repetitions. With tracing on, half the budget goes to
    // them (they are the base of the overhead figure), half to traced
    // repetitions.
    let start = Instant::now();
    let budget = Duration::from_secs_f64(if s.trace { s.seconds / 2.0 } else { s.seconds });
    let (mut walls, mut cpus, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut reference: Option<Vec<Op>> = None;
    let mut last = None;
    loop {
        // The previous repetition's output must not count toward this
        // repetition's memory peak.
        drop(last.take());
        // Set-up is timed between repetitions, not only at process
        // start, so its median does not hinge on how warm the machine
        // was in the first milliseconds.
        for _ in 0..SETUP_REPEATS {
            input = set_up().1;
        }
        match catch_unwind(AssertUnwindSafe(|| measure(|| w.run(&input, runner)))) {
            Ok((out, phase)) => {
                walls.push(phase.wall_s);
                cpus.push(phase.cpu_s);
                rss.push(phase.peak_rss_mb);
                let ops = w.ops(&out);
                let (a, f) = check_ops(&ops, golden, reference.as_deref());
                attempted += a;
                failed += f;
                reference.get_or_insert(ops);
                last = Some(out);
            }
            Err(_) => {
                let n = w.n_ops(&input) as u64;
                attempted += n;
                failed += n;
                notes.push("a repetition panicked; all its ops count as failed".into());
            }
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    let out = last.ok_or("every repetition panicked")?;
    let mut correct = failed == 0;

    let verified: Verified = catch_unwind(AssertUnwindSafe(|| w.verify(&input, &out, runner)))
        .map_err(|_| "the output check panicked".to_string())?;
    if !verified.oracle_ok {
        correct = false;
        notes.push("oracle: MISMATCH (the other engine backend disagrees)".into());
    }
    for &(name, value) in &verified.counters {
        let stored = golden.and_then(|g| g.get(&counter_key(name)));
        let flag = match stored {
            Some(v) if *v == value.to_string() => String::new(),
            Some(v) => {
                correct = false;
                format!("  MISMATCH: golden {v}")
            }
            None => String::new(),
        };
        notes.push(format!("counter {name} = {value}{flag}"));
    }
    let wall_s = median(&walls);
    let list = |xs: &[f64]| {
        xs.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    notes.push(format!("repetition wall_s: {}", list(&walls)));
    notes.push(format!("repetition peak_rss_mb: {}", list(&rss)));
    notes.push(format!(
        "{} = {:.6e} 1/s ({} {} per repetition, {} repetitions, {} threads)",
        match verified.work_unit {
            "packet_events" => "packet_events_per_s",
            _ => "session_ticks_per_s",
        },
        verified.work as f64 / wall_s,
        verified.work,
        verified.work_unit,
        walls.len(),
        runner.threads()
    ));

    let mut entry: Entry = reference
        .iter()
        .flatten()
        .filter_map(|(n, fp)| Some((op_key(n), fp_hex((*fp)?))))
        .collect();
    for &(name, value) in &verified.counters {
        entry.insert(counter_key(name), value.to_string());
    }

    let mut metrics = Vec::new();
    let mut tracers = Vec::new();
    if !s.trace {
        let values = [
            wall_s,
            median(&cpus),
            median(&setup_s),
            // The first repetition's peak: later ones inherit allocator
            // state (glibc raises its mmap threshold when a previous
            // repetition frees large buffers), which one run of the
            // program never has.
            rss[0],
            verified.work as f64 / wall_s,
        ];
        for ((name, unit), v) in END_TO_END.iter().zip(values) {
            metrics.push((name.to_string(), v, *unit));
        }
    } else {
        let mut traced_walls = Vec::new();
        let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let deadline = Duration::from_secs_f64(s.seconds);
        loop {
            let tracer = Tracer::new();
            let rep = catch_unwind(AssertUnwindSafe(|| {
                w.traced(&input, runner, &tracer, &out, &verified)
            }))
            .map_err(|_| "a traced repetition panicked".to_string())?;
            if !rep.same_as_untraced {
                correct = false;
                notes.push("trace: rebuilt outputs DIFFER from the untraced run".into());
            }
            traced_walls.push(rep.wall_s);
            for (name, v) in rep.metrics {
                samples.entry(name.to_string()).or_default().push(v);
            }
            for (layer, secs) in tracer.self_time_by_layer() {
                samples
                    .entry(format!("{SELF_TIME_PREFIX}{layer}"))
                    .or_default()
                    .push(secs);
            }
            tracers.push(tracer);
            if start.elapsed() >= deadline {
                break;
            }
        }
        samples.insert(
            "trace.overhead_frac".into(),
            vec![median(&traced_walls) / wall_s - 1.0],
        );
        let listed = per_layer_metrics();
        if let Some(extra) = samples
            .keys()
            .find(|k| !listed.iter().any(|(n, _)| n == *k))
        {
            return Err(format!("workload reported an unlisted metric {extra}"));
        }
        for (name, unit) in listed {
            let v = samples.get(&name).map_or(0.0, |v| median(v));
            metrics.push((name, v, unit));
        }
    }
    Ok(Report {
        correct,
        attempted,
        failed,
        metrics,
        notes,
        golden: entry,
        tracers,
    })
}

/// Every per-layer metric with its unit, self times included.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    PER_LAYER
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .chain(
            LAYERS
                .iter()
                .map(|l| (format!("{SELF_TIME_PREFIX}{l}"), "s")),
        )
        .collect()
}

/// The result line: one JSON object, metrics printed with every digit.
pub fn result_json(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() {
                format!("{v:?}")
            } else {
                "null".into()
            };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{
        fleet_event::FleetEvent, fleet_routed::FleetRouted, lab::Lab, link::Link,
    };
    use streamsim::config::StreamConfig;

    fn tiny_link() -> Link {
        Link {
            cfg: StreamConfig {
                days: 1,
                capacity_bps: 100e6,
                peak_arrivals_per_s: 0.024,
                ..Default::default()
            },
        }
    }

    fn tiny_lab() -> Lab {
        Lab {
            ks: vec![2, 5],
            seeds_per_k: 1,
            duration_ms: 2000,
        }
    }

    /// Two in-process runs, on one and on two threads, give identical
    /// fingerprints.
    fn assert_stable<W: Workload>(w: &W) {
        let input = w.setup(3);
        let a = w.ops(&w.run(&input, &Runner::with_threads(1)));
        let b = w.ops(&w.run(&input, &Runner::with_threads(2)));
        assert!(!a.is_empty());
        assert!(a.iter().all(|(_, fp)| fp.is_some()), "an op failed: {a:?}");
        assert_eq!(a, b);
        let other = w.ops(&w.run(&w.setup(4), &Runner::with_threads(2)));
        assert_ne!(a, other, "a different seed must change the outputs");
    }

    #[test]
    fn fingerprints_stable_link() {
        assert_stable(&tiny_link());
    }

    #[test]
    fn fingerprints_stable_fleet_event() {
        assert_stable(&FleetEvent {
            n_links: 4,
            days: 1,
            n_seeds: 1,
        });
    }

    #[test]
    fn fingerprints_stable_fleet_routed() {
        assert_stable(&FleetRouted {
            n_links: 4,
            days: 2,
            n_seeds: 1,
        });
    }

    #[test]
    fn fingerprints_stable_lab() {
        assert_stable(&tiny_lab());
    }

    fn settings(trace: bool) -> Settings<'static> {
        Settings {
            workload: "lab_tiny",
            seed: 9,
            seconds: 0.0,
            trace,
        }
    }

    #[test]
    fn wrong_golden_counts_failed_ops() {
        let runner = Runner::with_threads(2);
        let first = bench(&tiny_lab(), &settings(false), &runner, &Goldens::default)
            .expect("bench without goldens");
        assert!(first.correct);
        assert_eq!((first.attempted, first.failed), (2, 0));

        // The run's own outputs as the golden: everything passes.
        let mut good = Goldens::default();
        good.set("lab_tiny", 9, first.golden.clone());
        let r = bench(&tiny_lab(), &settings(false), &runner, &|| good.clone()).expect("bench");
        assert!(r.correct);
        assert_eq!((r.attempted, r.failed), (2, 0));

        // One op's fingerprint wrong: that op, and only it, fails.
        let mut entry = first.golden.clone();
        entry.insert(op_key("k5.s0"), fp_hex(0xdead_beef));
        let mut bad = Goldens::default();
        bad.set("lab_tiny", 9, entry);
        let r = bench(&tiny_lab(), &settings(false), &runner, &|| bad.clone()).expect("bench");
        assert!(!r.correct);
        assert_eq!((r.attempted, r.failed), (2, 1));

        // A wrong counter flags the run without failing an op.
        let mut entry = first.golden.clone();
        entry.insert(counter_key("packet_events"), "1".into());
        let mut bad = Goldens::default();
        bad.set("lab_tiny", 9, entry);
        let r = bench(&tiny_lab(), &settings(false), &runner, &|| bad.clone()).expect("bench");
        assert!(!r.correct);
        assert_eq!(r.failed, 0);
    }

    #[test]
    fn traced_run_reports_every_per_layer_metric() {
        let runner = Runner::with_threads(2);
        let r = bench(&tiny_lab(), &settings(true), &runner, &Goldens::default).expect("bench");
        assert!(r.correct, "{:?}", r.notes);
        let names: Vec<&str> = r.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
        let expected = per_layer_metrics();
        assert_eq!(names.len(), expected.len());
        for (n, _) in &expected {
            assert!(names.contains(&n.as_str()), "missing {n}");
        }
        let value = |n: &str| r.metrics.iter().find(|m| m.0 == n).map(|m| m.1);
        assert!(value("netsim.ns_per_event.k5") > Some(0.0));
        assert_eq!(value("repro_bench.runner.jobs"), Some(2.0));
        assert!(result_json(&r).starts_with("{\"correct\": true, \"attempted\": 2, \"failed\": 0"));
    }
}
