//! Machine-readable performance trajectory, and the repository's one
//! perf harness: runs the streaming-link, fleet, runner-overhead, design,
//! packet-simulator and statistics-kernel scenarios and writes
//! `BENCH_streamsim.json` at the repo root (scenario → median seconds,
//! plus thread count and git revision), so the perf history is
//! comparable across PRs without parsing bench stdout.
//!
//! Usage: `cargo run --release -p repro-bench --bin bench_report
//! [output.json]`. Set `STREAMSIM_BENCH_QUICK=1` for the CI smoke mode
//! (one sample per scenario instead of five). The committed file at the
//! repo root is always produced by a full run; see README "Performance
//! measurement protocol" for how numbers are compared across revisions.

use std::time::Instant;

use dessim::SimDuration;
use expstats::ols::{DesignBuilder, Ols};
use expstats::CovEstimator;
use netsim::config::{AppConfig, CcKind, DumbbellConfig};
use repro_bench::{FailurePolicy, FleetSweep, Runner};
use streamsim::config::StreamConfig;
use streamsim::engine::EngineBackend;
use streamsim::scenario::AllocationSchedule;
use streamsim::session::{LinkId, Metric};
use streamsim::sim::LinkSim;
use unbiased::designs::{paired_link_effects, PairedLinkDesign};
use unbiased::fleet::DEFAULT_SKETCH_CAP;

fn quick() -> bool {
    std::env::var_os("STREAMSIM_BENCH_QUICK").is_some_and(|v| v != "0")
}

/// Time `f` `reps` times; returns (median seconds, sample count).
///
/// In quick mode a single timed sample would otherwise carry all the
/// cold-start noise (first-touch page faults, cold caches) straight
/// into the CI regression gate, so one untimed warmup runs first; full
/// mode absorbs the cold first sample in the median of five instead.
fn time_scenario(reps: usize, mut f: impl FnMut()) -> (f64, usize) {
    if reps == 1 {
        f();
    }
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        f();
        samples.push(start.elapsed().as_secs_f64());
    }
    let median = expstats::quantiles::quantile(&samples, 0.5).expect("at least one sample");
    (median, samples.len())
}

/// Reset the process peak-RSS high-water mark so [`peak_rss_mb`] reads
/// the peak of the *next* scenario, not of everything run so far.
/// Best-effort: if `/proc/self/clear_refs` is unwritable the subsequent
/// reading is conservative (includes earlier scenarios).
#[cfg(target_os = "linux")]
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(not(target_os = "linux"))]
fn reset_peak_rss() {}

/// Peak resident set size (`VmHWM`) in MB, if the platform exposes it.
#[cfg(target_os = "linux")]
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(not(target_os = "linux"))]
fn peak_rss_mb() -> Option<f64> {
    None
}

use repro_bench::figharness::git_rev;

fn main() {
    let reps = if quick() { 1 } else { 5 };
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    let mut rows: Vec<(&str, f64, usize, Option<f64>)> = Vec::new();

    // One streaming link: a small day, then the headline 5-day, 1 Gb/s
    // world that dominates figure-regeneration wall clock.
    let small = StreamConfig {
        days: 1,
        capacity_bps: 100e6,
        peak_arrivals_per_s: 0.024,
        ..Default::default()
    };
    let (m, n) = time_scenario(reps, || {
        let sim = LinkSim::new(
            small.clone(),
            LinkId::One,
            AllocationSchedule::Constant(0.5),
            1,
        );
        std::hint::black_box(sim.run().0.len());
    });
    rows.push(("one_day_small", m, n, None));

    let default_cfg = StreamConfig::default();
    let (m, n) = time_scenario(reps, || {
        let sim = LinkSim::new(
            default_cfg.clone(),
            LinkId::One,
            AllocationSchedule::Constant(0.5),
            1,
        );
        std::hint::black_box(sim.run().0.len());
    });
    rows.push(("five_day_default", m, n, None));

    // The same workload on the hybrid tick/event engine. Records are
    // bit-identical to the tick run's, so the pair of medians *is* the
    // engine speedup — measured fresh in the same report, same box,
    // same build, so the ratio is immune to cross-revision drift.
    let (m, n) = time_scenario(reps, || {
        let sim = LinkSim::new(
            default_cfg.clone(),
            LinkId::One,
            AllocationSchedule::Constant(0.5),
            1,
        );
        std::hint::black_box(sim.run_with(EngineBackend::Event).0.len());
    });
    rows.push(("five_day_default_event", m, n, None));

    // A small fleet sweep through the link×seed work-stealing scheduler:
    // the fleet layer's hot path (N independent LinkSims + regrouping),
    // on the same plant the fleet figures run (`fleet_population`) so
    // the gate tracks the workload that matters. Identical in quick and
    // full modes — only the sample count differs — so the CI regression
    // gate can compare its median meaningfully.
    let (fleet_base, fleet_specs) = repro_bench::fleet_population(12, 1, 99);
    let fleet_design = streamsim::fleet::FleetDesign::LinkLevel {
        p_hi: 0.95,
        p_lo: 0.05,
    };
    let fleet_sweep = FleetSweep::new(&fleet_base, &fleet_specs, &fleet_design);
    let fleet_runner = Runner::with_threads(4);
    reset_peak_rss();
    let (m, n) = time_scenario(reps, || {
        let runs = fleet_runner.fleet_runs(&fleet_sweep, &[1, 2]);
        std::hint::black_box(
            runs.iter()
                .map(|r| r.result.total_sessions())
                .sum::<usize>(),
        );
    });
    rows.push(("fleet_quick", m, n, peak_rss_mb()));

    // The same fleet sweep on the event engine — tracks that the
    // engine's span bookkeeping stays within the fleet RSS envelope
    // too (undo logs and span buffers are per-link and bounded).
    reset_peak_rss();
    let (m, n) = time_scenario(reps, || {
        let runs =
            fleet_runner.fleet_runs(&fleet_sweep.with_backend(EngineBackend::Event), &[1, 2]);
        std::hint::black_box(
            runs.iter()
                .map(|r| r.result.total_sessions())
                .sum::<usize>(),
        );
    });
    rows.push(("fleet_quick_event", m, n, peak_rss_mb()));

    // The same fleet sweep with the robustness layer fully engaged:
    // telemetry faults on every link (streaming fold) under the
    // quarantine policy, so the measurement covers the per-record wire
    // model — severity scoring, duplicate/reorder bookkeeping, receiver
    // reassembly — plus the `catch_unwind` job isolation quarantine
    // wraps every job in. Moderate knobs, no crashes: the cost profile
    // of a realistic lossy fleet, not a worst case.
    let faults = streamsim::TelemetryFaults {
        drop_mcar: 0.02,
        drop_congested: 0.2,
        duplicate_p: 0.05,
        corrupt_nan_p: 0.01,
        reorder_window: 8,
        ..streamsim::TelemetryFaults::none(77)
    };
    reset_peak_rss();
    let (m, n) = time_scenario(reps, || {
        let runs = fleet_runner.fleet_summaries(
            &fleet_sweep.with_faults(&faults),
            &[1, 2],
            DEFAULT_SKETCH_CAP,
            FailurePolicy::Quarantine { max_failures: 2 },
        );
        std::hint::black_box(runs.iter().map(|r| r.result.n_sessions).sum::<usize>());
    });
    rows.push(("fleet_quick_faulty", m, n, peak_rss_mb()));

    // The streaming fleet sweep at scale — the memory-bound scenario.
    // Each link's sessions are folded into moment summaries as the job
    // finishes, so peak RSS must stay bounded by links, not sessions.
    // Full mode runs 10 000 links × 8 seeds (minutes of wall clock);
    // quick mode 64 × 2. One timed sample and no warmup either way: a
    // warmup pass would pre-touch the allocator high-water mark and
    // hide exactly the regression the RSS gate exists to catch.
    let (n_links, n_seeds) = if quick() { (64, 2) } else { (10_000, 8) };
    let (large_base, large_specs) = repro_bench::fleet_population(n_links, 1, 4242);
    let large_seeds = repro_bench::derive_seeds(4242, n_seeds);
    reset_peak_rss();
    let start = Instant::now();
    let runs = fleet_runner.fleet_summaries(
        &FleetSweep::new(&large_base, &large_specs, &fleet_design),
        &large_seeds,
        DEFAULT_SKETCH_CAP,
        FailurePolicy::FailFast,
    );
    let elapsed = start.elapsed().as_secs_f64();
    std::hint::black_box(runs.iter().map(|r| r.result.n_sessions).sum::<usize>());
    drop(runs);
    rows.push(("fleet_large", elapsed, 1, peak_rss_mb()));

    // Runner scheduling overhead: a flood of sub-microsecond jobs
    // across an oversubscribed pool, so the measurement is dominated by
    // claim/collect costs — the target of the chunked work-stealing
    // scheduler (per-replication index stealing paid one atomic RMW
    // plus one mutex round-trip per job; chunked claims measured ~1.6×
    // faster on this workload).
    let jobs: Vec<u64> = (0..if quick() { 20_000 } else { 200_000 }).collect();
    let runner = Runner::with_threads(4);
    let (m, n) = time_scenario(reps, || {
        let out = runner.map(&jobs, |&j| {
            let mut rng = dessim::SimRng::new(j);
            let mut acc = 0.0f64;
            for _ in 0..4 {
                acc += rng.uniform01();
            }
            acc
        });
        std::hint::black_box(out.len());
    });
    rows.push(("runner_overhead_sweep", m, n, None));

    // End-to-end design cost: a small one-day paired-link experiment
    // plus the full Figure-5 analysis on its throughput.
    let paired_cfg = repro_bench::paired_config(0.1, 1);
    let (m, n) = time_scenario(reps, || {
        let out = PairedLinkDesign::paper(paired_cfg.clone(), 5).run();
        let effects = paired_link_effects(&out.data, Metric::Throughput).unwrap();
        std::hint::black_box(effects.tte.relative);
    });
    rows.push(("paired_link_1day_small", m, n, None));

    // The packet simulator: a 3-second, 4-flow Reno dumbbell.
    let dumbbell = DumbbellConfig {
        bottleneck_bps: 50e6,
        base_rtt: SimDuration::from_millis(20),
        apps: vec![AppConfig::plain(CcKind::Reno); 4],
        duration: SimDuration::from_secs(3),
        warmup: SimDuration::from_secs(1),
        ..Default::default()
    };
    let (m, n) = time_scenario(reps, || {
        std::hint::black_box(netsim::run_dumbbell(&dumbbell).unwrap().events);
    });
    rows.push(("netsim_dumbbell_3s_4flows", m, n, None));

    // The statistics kernel: the Appendix-B regression — 240 hourly
    // cells, treatment plus 23 hour dummies, Newey–West SEs. One fit
    // takes microseconds, so a sample times a fixed batch of fits.
    const OLS_FITS: usize = 200;
    let cells = 240;
    let hours: Vec<usize> = (0..cells).map(|i| i % 24).collect();
    // Alternate the arm per day-block so it is not collinear with the
    // hour dummies.
    let arm: Vec<f64> = (0..cells).map(|i| ((i / 24) % 2) as f64).collect();
    let y: Vec<f64> = (0..cells)
        .map(|i| 100.0 + (hours[i] as f64).sin() * 10.0 + arm[i] * 2.0 + (i as f64 * 0.7).sin())
        .collect();
    let (m, n) = time_scenario(reps, || {
        for _ in 0..OLS_FITS {
            let x = DesignBuilder::new()
                .intercept(cells)
                .unwrap()
                .column("arm", &arm)
                .unwrap()
                .dummies("hour", &hours)
                .unwrap()
                .build()
                .unwrap();
            let fit = Ols::fit(x, &y).unwrap();
            std::hint::black_box(fit.std_errors(CovEstimator::NeweyWest { lag: 2 }).unwrap()[1]);
        }
    });
    rows.push(("ols_hour_fe_newey_west", m, n, None));

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"git_rev\": \"{}\",\n", git_rev()));
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str(&format!("  \"quick\": {},\n", quick()));
    json.push_str("  \"scenarios\": {\n");
    for (i, (name, median_s, samples, rss)) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let rss_field = rss
            .map(|mb| format!(", \"peak_rss_mb\": {mb:.1}"))
            .unwrap_or_default();
        json.push_str(&format!(
            "    \"{name}\": {{ \"median_s\": {median_s:.6}, \"samples\": {samples}{rss_field} }}{comma}\n"
        ));
    }
    json.push_str("  }\n}\n");

    let out_path = std::env::args().nth(1).unwrap_or_else(|| {
        // crates/bench/../../ == repo root.
        format!("{}/../../BENCH_streamsim.json", env!("CARGO_MANIFEST_DIR"))
    });
    std::fs::write(&out_path, &json).expect("write bench report");
    print!("{json}");
    eprintln!("wrote {out_path}");
}
