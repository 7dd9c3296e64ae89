//! `fleet_routed_switchback`: a 64-link, four-day fleet × 2 replication
//! seeds whose sessions a least-load router spreads over 4 candidate
//! links, under staggered daily switchbacks, swept on the Tick backend
//! with records kept, then the burn-in switchback estimator on
//! throughput. The only workload where the router pre-pass runs and
//! where memory grows with sessions.

use std::collections::BTreeMap;
use std::time::Instant;

use repro_bench::{derive_seeds, Runner};
use streamsim::config::StreamConfig;
use streamsim::engine::EngineBackend;
use streamsim::fleet::{
    run_fleet_link_with, FleetDesign, FleetLinkRun, FleetRun, FleetSim, LinkSpec,
};
use streamsim::session::Metric;
use streamsim::{RoutedArrival, RoutingConfig, RoutingPolicy};
use unbiased::fleet::{control_mean, switchback_effect};

use super::{
    congested_hours, counter, session_ticks, ticks, Estimate, Op, TracedRep, Verified, Workload,
};
use crate::fingerprint::{self, Fnv};
use crate::measure::rss_mb;
use crate::trace::Tracer;

const METRIC: Metric = Metric::Throughput;
/// Hours dropped after each switchback flip, as in the routing figure.
const BURN_IN_HOURS: usize = 3;

pub struct FleetRouted {
    pub n_links: usize,
    pub days: usize,
    pub n_seeds: usize,
}

impl Default for FleetRouted {
    fn default() -> Self {
        FleetRouted {
            n_links: 64,
            days: 4,
            n_seeds: 2,
        }
    }
}

pub struct FleetRoutedInput {
    base: StreamConfig,
    specs: Vec<LinkSpec>,
    design: FleetDesign,
    routing: RoutingConfig,
    seeds: Vec<u64>,
}

fn estimate(run: &FleetRun) -> Estimate {
    let links: Vec<&FleetLinkRun> = run.links.iter().collect();
    let b = control_mean(&links, METRIC);
    switchback_effect(&links, METRIC, b, BURN_IN_HOURS)
}

fn link_fp(l: &FleetLinkRun) -> u64 {
    let mut h = Fnv::default();
    h.u64(l.link as u64);
    fingerprint::records(&mut h, &l.sessions);
    fingerprint::hourly(&mut h, &l.hourly);
    h.finish()
}

fn estimate_fp(e: &Estimate) -> u64 {
    let mut h = Fnv::default();
    fingerprint::effect(&mut h, e);
    h.finish()
}

impl Workload for FleetRouted {
    type Input = FleetRoutedInput;
    type Output = Vec<(FleetRun, Estimate)>;

    fn setup(&self, seed: u64) -> FleetRoutedInput {
        let (base, specs) = repro_bench::fleet_population(self.n_links, self.days, 7171);
        FleetRoutedInput {
            base,
            specs,
            design: FleetDesign::StaggeredSwitchback {
                p_hi: 0.95,
                p_lo: 0.05,
                period_days: 1,
            },
            routing: RoutingConfig::new(RoutingPolicy::LeastLoad, 4),
            seeds: derive_seeds(seed, self.n_seeds),
        }
    }

    fn run(&self, input: &FleetRoutedInput, runner: &Runner) -> Self::Output {
        runner
            .sweep_fleet_routed(
                &input.base,
                &input.specs,
                &input.design,
                &input.routing,
                &input.seeds,
            )
            .into_iter()
            .map(|r| {
                let e = estimate(&r.result);
                (r.result, e)
            })
            .collect()
    }

    fn n_ops(&self, input: &FleetRoutedInput) -> usize {
        input.seeds.len() * (input.specs.len() + 1)
    }

    fn ops(&self, out: &Self::Output) -> Vec<Op> {
        let mut ops = Vec::new();
        for (s, (run, e)) in out.iter().enumerate() {
            for l in &run.links {
                ops.push((format!("s{s}.link{}", l.link), Some(link_fp(l))));
            }
            ops.push((format!("s{s}.estimate"), Some(estimate_fp(e))));
        }
        ops
    }

    /// The Event backend is the oracle: every routed link, rerun on the
    /// hybrid engine, must reproduce the Tick sweep's records.
    fn verify(&self, input: &FleetRoutedInput, out: &Self::Output, runner: &Runner) -> Verified {
        let jobs: Vec<_> = input
            .seeds
            .iter()
            .flat_map(|&seed| {
                FleetSim::new_routed(
                    &input.base,
                    &input.specs,
                    &input.design,
                    &input.routing,
                    seed,
                )
                .into_parts()
                .0
            })
            .collect();
        let arrivals: usize = jobs
            .iter()
            .map(|j| j.routed.as_ref().map_or(0, |r| r.len()))
            .sum();
        let event_fps = runner.map(&jobs, |job| {
            fingerprint::records_fp(&run_fleet_link_with(job, EngineBackend::Event).sessions)
        });
        let measured: Vec<&FleetLinkRun> = out.iter().flat_map(|(run, _)| &run.links).collect();
        let oracle_ok = measured.len() == event_fps.len()
            && measured
                .iter()
                .zip(&event_fps)
                .all(|(l, &fp)| fingerprint::records_fp(&l.sessions) == fp);
        let st: u64 = measured
            .iter()
            .map(|l| session_ticks(&l.sessions, input.base.dt_s))
            .sum();
        Verified {
            counters: vec![
                ("jobs", jobs.len() as u64),
                ("ticks", jobs.iter().map(|j| ticks(&j.cfg)).sum()),
                (
                    "congested_hours",
                    measured.iter().map(|l| congested_hours(&l.hourly)).sum(),
                ),
                ("session_ticks", st),
                (
                    "sessions",
                    measured.iter().map(|l| l.sessions.len() as u64).sum(),
                ),
                ("routed_arrivals", arrivals as u64),
            ],
            work: st,
            work_unit: "session_ticks",
            oracle_ok,
            oracle_job_s: Vec::new(),
        }
    }

    /// The sweep rebuilt from public pieces: `FleetSim::new` beside
    /// `FleetSim::new_routed` (their difference is the router
    /// pre-pass) → `into_parts` → `Runner::map` over the link jobs →
    /// the switchback estimator per seed.
    fn traced(
        &self,
        input: &FleetRoutedInput,
        runner: &Runner,
        tracer: &Tracer,
        untraced: &Self::Output,
        verified: &Verified,
    ) -> TracedRep {
        let per_seed = input.specs.len();
        let mut rss_delta_mb = 0.0;
        let mut arrivals = 0usize;
        let t0 = Instant::now();
        let out: Vec<(FleetRun, Estimate)> =
            tracer.span("bench.fleet_routed", None, None, |root| {
                let mut jobs = Vec::new();
                let mut pairs = Vec::new();
                for &seed in &input.seeds {
                    let rss0 = rss_mb();
                    let plain = tracer.span("streamsim.fleet.build", Some(root), None, |_| {
                        FleetSim::new(&input.base, &input.specs, &input.design, seed)
                    });
                    let rss1 = rss_mb();
                    drop(plain);
                    let rss2 = rss_mb();
                    let routed =
                        tracer.span("streamsim.routing.build_routed", Some(root), None, |_| {
                            FleetSim::new_routed(
                                &input.base,
                                &input.specs,
                                &input.design,
                                &input.routing,
                                seed,
                            )
                        });
                    rss_delta_mb += (rss_mb() - rss2) - (rss1 - rss0);
                    let (j, p) = routed.into_parts();
                    arrivals += j
                        .iter()
                        .map(|j| j.routed.as_ref().map_or(0, |r| r.len()))
                        .sum::<usize>();
                    jobs.extend(j);
                    pairs.push(p);
                }
                let runs = tracer.span("repro_bench.runner.map", Some(root), None, |sweep| {
                    // Map over job indices so each span carries its job id.
                    let idxs: Vec<usize> = (0..jobs.len()).collect();
                    runner.map(&idxs, |&i| {
                        let idx = Some(i as u64);
                        tracer.span("streamsim.fleet.job", Some(sweep), idx, |id| {
                            tracer.span("streamsim.sim.link_run", Some(id), idx, |_| {
                                run_fleet_link_with(&jobs[i], EngineBackend::Tick)
                            })
                        })
                    })
                });
                let mut it = runs.into_iter();
                pairs
                    .into_iter()
                    .map(|p| {
                        let run = FleetRun {
                            links: it.by_ref().take(per_seed).collect(),
                            pairs: p,
                        };
                        let e = tracer.span("unbiased.fleet.estimate", Some(root), None, |_| {
                            estimate(&run)
                        });
                        (run, e)
                    })
                    .collect()
            });
        let wall_s = t0.elapsed().as_secs_f64();

        let same = out.len() == untraced.len()
            && out.iter().zip(untraced).all(|((r, e), (ur, ue))| {
                r.pairs == ur.pairs
                    && estimate_fp(e) == estimate_fp(ue)
                    && r.links.len() == ur.links.len()
                    && r.links
                        .iter()
                        .zip(&ur.links)
                        .all(|(a, b)| link_fp(a) == link_fp(b))
            });

        let spans = tracer.spans();
        let jobs_s: BTreeMap<u64, f64> = spans
            .iter()
            .filter(|s| s.name == "streamsim.fleet.job")
            .filter_map(|s| Some((s.job?, s.secs())))
            .collect();
        let jobs_s: Vec<f64> = jobs_s.into_values().collect();
        let sim_s = tracer.total("streamsim.sim.link_run");
        let st = counter(verified, "session_ticks");
        let prepass_s =
            tracer.total("streamsim.routing.build_routed") - tracer.total("streamsim.fleet.build");
        let mut metrics = vec![
            (
                "streamsim.sim.ns_per_session_tick",
                if st > 0.0 { sim_s * 1e9 / st } else { 0.0 },
            ),
            ("streamsim.sim.ticks", counter(verified, "ticks")),
            ("streamsim.sim.session_ticks", st),
            (
                "streamsim.sim.congested_hours",
                counter(verified, "congested_hours"),
            ),
            ("streamsim.routing.prepass_s", prepass_s),
            ("streamsim.routing.arrivals", arrivals as f64),
            (
                "streamsim.routing.stream_mb",
                (arrivals * std::mem::size_of::<RoutedArrival>()) as f64 / (1024.0 * 1024.0),
            ),
            ("streamsim.routing.rss_delta_mb", rss_delta_mb),
            (
                "unbiased.fleet.estimate_ms",
                tracer.total("unbiased.fleet.estimate") * 1e3,
            ),
        ];
        metrics.extend(super::job_metrics(
            &jobs_s,
            tracer.total("repro_bench.runner.map"),
            runner.threads(),
        ));
        TracedRep {
            wall_s,
            same_as_untraced: same,
            metrics,
        }
    }
}
