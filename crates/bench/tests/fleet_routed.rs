//! Routed fleet sweeps through the Runner: the shared arrival stream
//! must not cost any of the sweep contracts — bit-identical results
//! across 1/2/4 worker threads, streaming summaries agreeing with the
//! record-based oracle, tick/event backend parity, and telemetry faults
//! with quarantine on top of routing.

use repro_bench::runner::{derive_seeds, FailurePolicy, FleetSweep, Runner};
use streamsim::config::StreamConfig;
use streamsim::fleet::{FleetDesign, FleetLinkRun, FleetRun, FleetSim, LinkPopulation};
use streamsim::session::Metric;
use streamsim::{EngineBackend, RoutingConfig, RoutingPolicy, TelemetryFaults};
use unbiased::fleet::{
    control_mean, control_mean_summary, link_level_effect, link_level_effect_summary,
    user_level_effect, user_level_effect_summary, DegradedReport, FleetLinkSummary, FleetSummary,
    DEFAULT_SKETCH_CAP,
};

fn small_base() -> StreamConfig {
    StreamConfig {
        days: 1,
        capacity_bps: 15e6,
        peak_arrivals_per_s: 0.24 * 0.015,
        mean_watch_s: 1200.0,
        ..Default::default()
    }
}

fn design() -> FleetDesign {
    FleetDesign::LinkLevel {
        p_hi: 0.95,
        p_lo: 0.05,
    }
}

#[test]
fn routed_streaming_sweep_is_schedule_independent() {
    // The routed acceptance bar: work stealing must not leak into a
    // routed sweep any more than an unrouted one. 1, 2 and 4 threads
    // must produce bit-identical per-link cells and fleet sketches.
    let base = small_base();
    let specs = LinkPopulation::moderate(base.clone(), 8, 5).sample();
    let routing = RoutingConfig::new(RoutingPolicy::LeastLoad, 3);
    let seeds = derive_seeds(9, 2);
    let design = design();
    let sweep = FleetSweep::new(&base, &specs, &design).with_routing(&routing);
    let runs: Vec<_> = [1usize, 2, 4]
        .iter()
        .map(|&t| {
            Runner::with_threads(t).fleet_summaries(&sweep, &seeds, 128, FailurePolicy::FailFast)
        })
        .collect();
    for pair in runs.windows(2) {
        for (a, b) in pair[0].iter().zip(&pair[1]) {
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.result.n_sessions, b.result.n_sessions);
            let (la, lb) = (a.result.link_refs(), b.result.link_refs());
            assert_eq!(la.len(), lb.len());
            for (x, y) in la.iter().zip(&lb) {
                assert_eq!(x.link, y.link);
                for metric in Metric::ALL {
                    let (cx, cy) = (x.cell(metric, true), y.cell(metric, true));
                    assert_eq!(cx.n, cy.n);
                    assert_eq!(cx.mean.to_bits(), cy.mean.to_bits());
                    assert_eq!(cx.m2.to_bits(), cy.m2.to_bits());
                }
            }
            for metric in Metric::ALL {
                assert_eq!(a.result.sketch(metric, true), b.result.sketch(metric, true));
                assert_eq!(
                    a.result.sketch(metric, false),
                    b.result.sketch(metric, false)
                );
            }
        }
    }
}

#[test]
fn routed_streaming_matches_record_oracle() {
    // Summary-based estimators over a routed sweep must agree with the
    // record-based twins to ≤1e-9 relative, same bar as unrouted.
    const TOL: f64 = 1e-9;
    let rel_close = |a: f64, b: f64| (a - b).abs() <= TOL * a.abs().max(b.abs()).max(1e-300);
    let base = small_base();
    let specs = LinkPopulation::moderate(base.clone(), 8, 31).sample();
    let routing = RoutingConfig::new(RoutingPolicy::WeightedRandom, 2);
    let seeds = derive_seeds(77, 2);
    let runner = Runner::with_threads(4);
    let design = design();
    let sweep = FleetSweep::new(&base, &specs, &design).with_routing(&routing);
    let record = runner.fleet_runs(&sweep, &seeds);
    let streaming =
        runner.fleet_summaries(&sweep, &seeds, DEFAULT_SKETCH_CAP, FailurePolicy::FailFast);
    assert_eq!(streaming.len(), seeds.len());
    for (r, s) in record.iter().zip(&streaming) {
        assert_eq!(r.seed, s.seed);
        let links: Vec<&FleetLinkRun> = r.result.links.iter().collect();
        let slinks = s.result.link_refs();
        for metric in [Metric::Bitrate, Metric::Throughput] {
            let base_mean = control_mean(&links, metric);
            let sbase = control_mean_summary(&slinks, metric);
            assert!(rel_close(base_mean, sbase), "{metric:?} control mean");
            let u = user_level_effect(&links, metric, base_mean).unwrap();
            let su = user_level_effect_summary(&slinks, metric, sbase).unwrap();
            assert!(rel_close(u.relative, su.relative), "user-level relative");
            assert!(rel_close(u.se, su.se), "user-level se");
            let l = link_level_effect(&links, metric, base_mean).unwrap();
            let sl = link_level_effect_summary(&slinks, metric, sbase).unwrap();
            assert!(rel_close(l.relative, sl.relative), "link-level relative");
            assert!(rel_close(l.se, sl.se), "link-level se");
        }
    }
}

#[test]
fn routed_sweep_backend_parity() {
    // The hybrid engine contract extends to routed fleets: tick and
    // event backends produce bit-identical session records, so routed
    // record sweeps agree exactly.
    let base = small_base();
    let specs = LinkPopulation::moderate(base.clone(), 6, 11).sample();
    let routing = RoutingConfig::new(RoutingPolicy::RandomWalkOblivious, 3);
    let seeds = [42u64];
    let runner = Runner::with_threads(2);
    let design = design();
    let sweep = FleetSweep::new(&base, &specs, &design).with_routing(&routing);
    let tick = runner.fleet_runs(&sweep, &seeds);
    let event = runner.fleet_runs(&sweep.with_backend(EngineBackend::Event), &seeds);
    for (t, e) in tick.iter().zip(&event) {
        assert_eq!(t.result.links.len(), e.result.links.len());
        for (lt, le) in t.result.links.iter().zip(&e.result.links) {
            assert_eq!(lt.sessions.len(), le.sessions.len());
            let fp = |l: &FleetLinkRun| {
                l.sessions
                    .iter()
                    .map(|s| {
                        s.bytes.to_bits()
                            ^ s.bitrate_bps.to_bits().rotate_left(17)
                            ^ s.play_delay_s.to_bits().rotate_left(31)
                    })
                    .fold(0xcbf29ce484222325u64, |h, x| {
                        (h ^ x).wrapping_mul(0x100000001b3)
                    })
            };
            assert_eq!(fp(lt), fp(le), "link {:?} record fingerprint", lt.link);
        }
    }
}

#[test]
fn routed_faulty_quarantined_sweep_matches_sequential_oracle() {
    // Routing, telemetry faults and quarantine in one sweep. The oracle
    // is the sequential routed fleet with the same faults attached:
    // record sweeps must reproduce its delivered records, and summary
    // sweeps at any thread count must equal its links folded in order.
    let base = small_base();
    let specs = LinkPopulation::moderate(base.clone(), 6, 17).sample();
    let design = design();
    let routing = RoutingConfig::new(RoutingPolicy::LeastLoad, 3);
    let faults = TelemetryFaults {
        drop_mcar: 0.05,
        drop_congested: 0.3,
        duplicate_p: 0.05,
        corrupt_nan_p: 0.02,
        reorder_window: 4,
        ..TelemetryFaults::none(19)
    };
    let seeds = derive_seeds(61, 2);
    let cap = 128;
    // The budget is sweep-wide: one scripted crash per seed below.
    let policy = FailurePolicy::Quarantine { max_failures: 2 };
    let oracle: Vec<FleetRun> = seeds
        .iter()
        .map(|&seed| {
            FleetSim::new_routed(&base, &specs, &design, &routing, seed)
                .with_faults(&faults)
                .run()
        })
        .collect();
    // The oracle's summaries, skipping the links in `skip`.
    let folded = |skip: &[usize]| -> Vec<FleetSummary> {
        oracle
            .iter()
            .map(|run| {
                let mut summary = FleetSummary::new(cap);
                for link in run.links.iter().filter(|l| !skip.contains(&l.link)) {
                    summary.fold(FleetLinkSummary::from_run(link, cap));
                }
                summary.finalize(run.pairs.clone());
                summary
            })
            .collect()
    };

    let sweep = FleetSweep::new(&base, &specs, &design)
        .with_routing(&routing)
        .with_faults(&faults);
    let runs = Runner::with_threads(2).fleet_runs(&sweep, &seeds);
    for (run, want) in runs.iter().zip(&oracle) {
        assert_eq!(run.result.pairs, want.pairs);
        assert_eq!(run.result.links.len(), want.links.len());
        for (got, want) in run.result.links.iter().zip(&want.links) {
            assert_eq!(got.link, want.link);
            assert_eq!(got.telemetry, want.telemetry, "link {}", got.link);
            assert!(got.telemetry.sent > got.telemetry.delivered);
            // Debug prints every f64 exactly, NaN-corrupted fields too.
            assert_eq!(
                format!("{:?}", got.sessions),
                format!("{:?}", want.sessions),
                "link {} delivered records",
                got.link
            );
        }
    }

    let expected = folded(&[]);
    for threads in [1, 2, 4] {
        let got = Runner::with_threads(threads).fleet_summaries(&sweep, &seeds, cap, policy);
        let got: Vec<FleetSummary> = got.into_iter().map(|r| r.result).collect();
        assert_eq!(got, expected, "threads {threads}");
    }

    // A scripted collector crash is quarantined; the surviving links
    // still equal the oracle's.
    let crashing = TelemetryFaults {
        crash_links: vec![2],
        ..faults.clone()
    };
    let expected = folded(&[2]);
    for threads in [1, 2, 4] {
        let got = Runner::with_threads(threads).fleet_summaries(
            &sweep.with_faults(&crashing),
            &seeds,
            cap,
            policy,
        );
        for (run, want) in got.iter().zip(&expected) {
            let lost: Vec<usize> = run
                .result
                .degraded
                .quarantined
                .iter()
                .map(|q| q.link)
                .collect();
            assert_eq!(lost, [2], "threads {threads}");
            let mut scrubbed = run.result.clone();
            scrubbed.degraded = DegradedReport::default();
            assert_eq!(&scrubbed, want, "threads {threads}");
        }
    }
}
