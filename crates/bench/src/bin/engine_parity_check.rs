//! CI gate for the engine exactness contract: run the same scenarios
//! on the tick and the hybrid tick/event backends and fail on any
//! divergence — bitwise on session records, ≤1e-9 relative on hourly
//! statistics.
//!
//! Usage: `cargo run --release -p repro-bench --bin engine_parity_check
//! [--with-faults]`
//!
//! The test suites already prove the contract on randomized configs
//! (`tests/engine_oracle.rs`); this binary is the cheap always-on CI
//! variant — two fixed scenarios bracketing the mode space (one mostly
//! guaranteed-decoupled, one congested with standing queues and
//! rollbacks), a table of per-scenario outcomes, nonzero exit on the
//! first mismatch.
//!
//! With `--routed`, the gate instead runs a shared-arrival *routed*
//! fleet (one scenario per [`RoutingPolicy`]) on both backends through
//! the full sweep path: every per-link session record must be
//! bit-identical, and the link-level / user-level estimators computed
//! from each backend's sweep must agree to ≤1e-9 relative. This is the
//! always-on CI variant of `tests/fleet_routed.rs` — it exercises the
//! router pre-pass, the routed arrival cursor, and the estimator stack
//! in one pass.
//!
//! With `--with-faults`, each scenario's record stream is additionally
//! run through a composite [`TelemetryFaults`] pipeline (MCAR + MNAR
//! drop, duplication, NaN corruption, reordering, an outage window) on
//! both backends, and the *delivered* streams plus their
//! [`streamsim::TelemetryStats`] ledgers must match bitwise too. Faults are
//! post-engine — a pure function of `(fault seed, link, records)` — so
//! identical inputs must give identical observed streams; a divergence
//! here means the fault pipeline leaked backend-dependent state.

use std::process::ExitCode;

use expstats::table::Table;
use repro_bench::runner::{derive_seeds, FleetSweep, Runner};
use streamsim::engine::EngineBackend;
use streamsim::fleet::{FleetDesign, LinkPopulation};
use streamsim::scenario::AllocationSchedule;
use streamsim::session::{LinkId, Metric, SessionRecord};
use streamsim::sim::LinkSim;
use streamsim::telemetry::OutageWindow;
use streamsim::{RoutingConfig, RoutingPolicy, StreamConfig, TelemetryFaults};
use unbiased::fleet::{control_mean, link_level_effect, user_level_effect};

/// First field (by name) where two records differ bitwise, if any.
fn record_mismatch(a: &SessionRecord, b: &SessionRecord) -> Option<&'static str> {
    if a.link != b.link {
        return Some("link");
    }
    if (a.day, a.hour, a.weekend, a.treated) != (b.day, b.hour, b.weekend, b.treated) {
        return Some("day/hour/weekend/treated");
    }
    let floats = [
        ("arrival_s", a.arrival_s, b.arrival_s),
        ("throughput_bps", a.throughput_bps, b.throughput_bps),
        ("min_rtt_s", a.min_rtt_s, b.min_rtt_s),
        ("play_delay_s", a.play_delay_s, b.play_delay_s),
        ("bitrate_bps", a.bitrate_bps, b.bitrate_bps),
        ("quality", a.quality, b.quality),
        ("bytes", a.bytes, b.bytes),
        ("retx_bytes", a.retx_bytes, b.retx_bytes),
        ("duration_s", a.duration_s, b.duration_s),
    ];
    for (name, x, y) in floats {
        if x.to_bits() != y.to_bits() {
            return Some(name);
        }
    }
    if (a.rebuffer_count, a.rebuffered, a.cancelled, a.switches)
        != (b.rebuffer_count, b.rebuffered, b.cancelled, b.switches)
    {
        return Some("rebuffer/cancel/switches");
    }
    None
}

/// The composite fault model `--with-faults` pushes each scenario's
/// records through: every fault class engaged at moderate rates, plus a
/// mid-morning outage. Fixed seed so CI runs are reproducible.
fn parity_faults() -> TelemetryFaults {
    TelemetryFaults {
        drop_mcar: 0.05,
        drop_congested: 0.3,
        duplicate_p: 0.05,
        corrupt_nan_p: 0.02,
        reorder_window: 6,
        outage: Some(OutageWindow {
            start_s: 30_000.0,
            end_s: 33_600.0,
        }),
        ..TelemetryFaults::none(43)
    }
}

/// Run `cfg` through both backends; returns an error description on the
/// first divergence.
fn check(
    cfg: StreamConfig,
    seed: u64,
    faults: Option<&TelemetryFaults>,
) -> Result<(usize, usize), String> {
    let schedule = AllocationSchedule::Constant(0.5);
    let (rt, ht) = LinkSim::new(cfg.clone(), LinkId::One, schedule.clone(), seed).run();
    let (re, he) = LinkSim::new(cfg, LinkId::One, schedule, seed).run_with(EngineBackend::Event);

    if rt.len() != re.len() {
        return Err(format!(
            "record counts differ: {} vs {}",
            rt.len(),
            re.len()
        ));
    }
    for (i, (a, b)) in rt.iter().zip(&re).enumerate() {
        if let Some(field) = record_mismatch(a, b) {
            return Err(format!("record {i} diverges in `{field}`"));
        }
    }
    if let Some(f) = faults {
        // Faults are applied post-engine to identical record streams,
        // so the delivered streams and ledgers must be bit-identical
        // too — including the NaN bit patterns of corrupted fields.
        let (da, sa) = f.apply(0, rt.clone());
        let (db, sb) = f.apply(0, re.clone());
        if sa != sb {
            return Err(format!(
                "telemetry ledgers diverge under faults: {sa:?} vs {sb:?}"
            ));
        }
        if da.len() != db.len() {
            return Err(format!(
                "delivered counts differ under faults: {} vs {}",
                da.len(),
                db.len()
            ));
        }
        for (i, (a, b)) in da.iter().zip(&db).enumerate() {
            if let Some(field) = record_mismatch(a, b) {
                return Err(format!(
                    "delivered record {i} diverges in `{field}` under faults"
                ));
            }
        }
    }
    if ht.len() != he.len() {
        return Err(format!(
            "hourly counts differ: {} vs {}",
            ht.len(),
            he.len()
        ));
    }
    let close = |x: f64, y: f64| (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0);
    for (a, b) in ht.iter().zip(&he) {
        if (a.day, a.hour) != (b.day, b.hour) {
            return Err(format!(
                "hourly window order diverges at d{} h{}",
                a.day, a.hour
            ));
        }
        for (name, x, y) in [
            ("utilization", a.utilization, b.utilization),
            ("rtt_s", a.rtt_s, b.rtt_s),
            ("concurrent", a.concurrent, b.concurrent),
            ("loss", a.loss, b.loss),
        ] {
            if !close(x, y) {
                return Err(format!(
                    "hourly d{} h{} `{name}` beyond 1e-9: {x} vs {y}",
                    a.day, a.hour
                ));
            }
        }
    }
    Ok((rt.len(), ht.len()))
}

/// Run one routed fleet scenario on both backends; returns `(records,
/// links)` on success, an error description on the first divergence.
fn check_routed(policy: RoutingPolicy) -> Result<(usize, usize), String> {
    let base = StreamConfig {
        days: 1,
        capacity_bps: 15e6,
        peak_arrivals_per_s: 0.24 * 0.015,
        mean_watch_s: 1200.0,
        ..Default::default()
    };
    let specs = LinkPopulation::moderate(base.clone(), 8, 31).sample();
    let design = FleetDesign::LinkLevel {
        p_hi: 0.95,
        p_lo: 0.05,
    };
    let routing = RoutingConfig::new(policy, 3);
    let seeds = derive_seeds(4101, 1);
    let runner = Runner::with_threads(2);
    let sweep = FleetSweep::new(&base, &specs, &design).with_routing(&routing);
    let tick = runner.fleet_runs(&sweep, &seeds);
    let event = runner.fleet_runs(&sweep.with_backend(EngineBackend::Event), &seeds);
    let (t, e) = (&tick[0].result, &event[0].result);
    if t.links.len() != e.links.len() {
        return Err(format!(
            "link counts differ: {} vs {}",
            t.links.len(),
            e.links.len()
        ));
    }
    let mut n_records = 0usize;
    for (lt, le) in t.links.iter().zip(&e.links) {
        if lt.sessions.len() != le.sessions.len() {
            return Err(format!(
                "link {:?} record counts differ: {} vs {}",
                lt.link,
                lt.sessions.len(),
                le.sessions.len()
            ));
        }
        for (i, (a, b)) in lt.sessions.iter().zip(&le.sessions).enumerate() {
            if let Some(field) = record_mismatch(a, b) {
                return Err(format!(
                    "link {:?} record {i} diverges in `{field}`",
                    lt.link
                ));
            }
        }
        n_records += lt.sessions.len();
    }
    // The estimator stack must agree too: backend parity has to survive
    // the summary layer, not just the raw records.
    let close = |x: f64, y: f64| (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1e-300);
    let (lt, le) = (
        t.links.iter().collect::<Vec<_>>(),
        e.links.iter().collect::<Vec<_>>(),
    );
    for metric in [Metric::Bitrate, Metric::Throughput] {
        let (bt, be) = (control_mean(&lt, metric), control_mean(&le, metric));
        if !close(bt, be) {
            return Err(format!("{metric:?} control mean beyond 1e-9: {bt} vs {be}"));
        }
        for (name, rt, re) in [
            (
                "user_level",
                user_level_effect(&lt, metric, bt).map_err(|e| e.to_string())?,
                user_level_effect(&le, metric, be).map_err(|e| e.to_string())?,
            ),
            (
                "link_level",
                link_level_effect(&lt, metric, bt).map_err(|e| e.to_string())?,
                link_level_effect(&le, metric, be).map_err(|e| e.to_string())?,
            ),
        ] {
            if !close(rt.relative, re.relative) || !close(rt.se, re.se) {
                return Err(format!(
                    "{metric:?} {name} estimator beyond 1e-9: {} vs {}",
                    rt.relative, re.relative
                ));
            }
        }
    }
    Ok((n_records, t.links.len()))
}

fn routed_main() -> ExitCode {
    let mut t = Table::new(vec!["policy", "records", "links", "verdict"]);
    let mut failures = 0usize;
    for policy in RoutingPolicy::ALL {
        match check_routed(policy) {
            Ok((records, links)) => {
                t.row(vec![
                    policy.name().into(),
                    records.to_string(),
                    links.to_string(),
                    "identical".into(),
                ]);
            }
            Err(why) => {
                failures += 1;
                eprintln!("error: {}: {why}", policy.name());
                t.row(vec![
                    policy.name().into(),
                    "-".into(),
                    "-".into(),
                    format!("DIVERGED: {why}"),
                ]);
            }
        }
    }
    println!("engine parity gate: routed fleet, tick vs event backend\n");
    println!("{}", t.render());
    if failures > 0 {
        eprintln!("engine_parity_check: {failures} routed scenario(s) diverged");
        return ExitCode::FAILURE;
    }
    println!("all routed scenarios bit-identical (estimators within 1e-9)");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    if std::env::args().any(|a| a == "--routed") {
        return routed_main();
    }
    let with_faults = std::env::args().any(|a| a == "--with-faults");
    let faults = with_faults.then(parity_faults);
    let scenarios: Vec<(&str, StreamConfig, u64)> = vec![
        (
            "one_day_light",
            StreamConfig {
                days: 1,
                capacity_bps: 400e6,
                peak_arrivals_per_s: 0.24 * 0.05,
                mean_watch_s: 1500.0,
                ..Default::default()
            },
            11,
        ),
        (
            "one_day_congested",
            StreamConfig {
                days: 1,
                capacity_bps: 200e6,
                peak_arrivals_per_s: 0.24 * 0.2,
                mean_watch_s: 1500.0,
                ..Default::default()
            },
            7,
        ),
    ];

    let mut t = Table::new(vec!["scenario", "records", "hours", "verdict"]);
    let mut failures = 0usize;
    for (name, cfg, seed) in scenarios {
        match check(cfg, seed, faults.as_ref()) {
            Ok((records, hours)) => {
                t.row(vec![
                    name.into(),
                    records.to_string(),
                    hours.to_string(),
                    if with_faults {
                        "identical (+faults)".into()
                    } else {
                        "identical".into()
                    },
                ]);
            }
            Err(why) => {
                failures += 1;
                eprintln!("error: {name}: {why}");
                t.row(vec![
                    name.into(),
                    "-".into(),
                    "-".into(),
                    format!("DIVERGED: {why}"),
                ]);
            }
        }
    }
    if with_faults {
        println!("engine parity gate: tick vs event backend, telemetry faults applied\n");
    } else {
        println!("engine parity gate: tick vs event backend\n");
    }
    println!("{}", t.render());
    if failures > 0 {
        eprintln!("engine_parity_check: {failures} scenario(s) diverged");
        return ExitCode::FAILURE;
    }
    println!("all scenarios bit-identical (hourly within 1e-9)");
    ExitCode::SUCCESS
}
