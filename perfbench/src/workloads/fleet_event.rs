//! `fleet_event_faulty`: a 200-link, one-day fleet × 2 replication
//! seeds under link-level randomization on the Event backend, with
//! lossy telemetry on every link and the quarantine failure policy,
//! folded into streaming summaries; then the summary link-level
//! estimator on throughput. Span replay, the scheduler, the telemetry
//! wire model and the streaming fold do most of the work here.

use std::collections::BTreeMap;
use std::time::Instant;

use repro_bench::{derive_seeds, FailurePolicy, Runner};
use streamsim::config::StreamConfig;
use streamsim::engine::EngineBackend;
use streamsim::fleet::{run_fleet_link_with, FleetDesign, FleetLinkJob, FleetSim, LinkSpec};
use streamsim::session::Metric;
use streamsim::telemetry::TelemetryFaults;
use unbiased::fleet::{
    control_mean_summary, link_level_effect_summary, FleetLinkSummary, FleetSummary,
    DEFAULT_SKETCH_CAP,
};

use super::{
    congested_hours, counter, median_ratio, session_ticks, ticks, Estimate, Op, TracedRep,
    Verified, Workload,
};
use crate::fingerprint::{self, Fnv};
use crate::trace::Tracer;

const METRIC: Metric = Metric::Throughput;
const POLICY: FailurePolicy = FailurePolicy::Quarantine { max_failures: 2 };

pub struct FleetEvent {
    pub n_links: usize,
    pub days: usize,
    pub n_seeds: usize,
}

impl Default for FleetEvent {
    fn default() -> Self {
        FleetEvent {
            n_links: 200,
            days: 1,
            n_seeds: 2,
        }
    }
}

pub struct FleetEventInput {
    base: StreamConfig,
    specs: Vec<LinkSpec>,
    design: FleetDesign,
    seeds: Vec<u64>,
    faults: TelemetryFaults,
}

impl FleetEventInput {
    /// The sweep's job list, seed-major, exactly as the runner builds
    /// it: one fleet per replication seed with the faults attached.
    fn jobs(&self) -> (Vec<FleetLinkJob>, Vec<Vec<(usize, usize)>>) {
        let mut jobs = Vec::new();
        let mut pairs = Vec::new();
        for &seed in &self.seeds {
            let (j, p) = FleetSim::new(&self.base, &self.specs, &self.design, seed)
                .with_faults(&self.faults)
                .into_parts();
            jobs.extend(j);
            pairs.push(p);
        }
        (jobs, pairs)
    }
}

fn estimate(summary: &FleetSummary) -> Estimate {
    let links = summary.link_refs();
    let b = control_mean_summary(&links, METRIC);
    link_level_effect_summary(&links, METRIC, b)
}

fn estimate_fp(summary: &FleetSummary, e: &Estimate) -> u64 {
    let mut h = Fnv::default();
    fingerprint::fleet_summary(&mut h, summary);
    fingerprint::effect(&mut h, e);
    h.finish()
}

/// What one decomposed link job produced.
struct JobOut {
    summary: FleetLinkSummary,
    session_ticks: u64,
    congested_hours: u64,
    /// Wall seconds of the simulation alone.
    sim_s: f64,
}

/// One link job, decomposed into its layers: the simulation (faults
/// detached), the telemetry wire model, and the summary fold. Together
/// they produce exactly what `run_fleet_link_with(job, backend)` folds.
/// With a tracer, each layer runs in its own span under `parent`.
fn decomposed_job(
    job: &FleetLinkJob,
    backend: EngineBackend,
    tracer: Option<(&Tracer, u64, u64)>,
) -> JobOut {
    fn span<R>(
        tracer: Option<(&Tracer, u64, u64)>,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        match tracer {
            Some((t, parent, job)) => t.span(name, Some(parent), Some(job), |_| f()),
            None => f(),
        }
    }
    let sim_job = FleetLinkJob {
        faults: None,
        ..job.clone()
    };
    let name = match backend {
        EngineBackend::Event => "streamsim.engine.run_event",
        EngineBackend::Tick => "streamsim.engine.run_tick",
    };
    let t0 = Instant::now();
    let mut run = span(tracer, name, || run_fleet_link_with(&sim_job, backend));
    let sim_s = t0.elapsed().as_secs_f64();
    let session_ticks = session_ticks(&run.sessions, job.cfg.dt_s);
    if let Some(faults) = &job.faults {
        let sessions = std::mem::take(&mut run.sessions);
        (run.sessions, run.telemetry) = span(tracer, "streamsim.telemetry.apply", || {
            faults.apply(job.link, sessions)
        });
    }
    let summary = span(tracer, "unbiased.fleet.summary.from_run", || {
        FleetLinkSummary::from_run(&run, DEFAULT_SKETCH_CAP)
    });
    JobOut {
        summary,
        session_ticks,
        congested_hours: congested_hours(&run.hourly),
        sim_s,
    }
}

impl Workload for FleetEvent {
    type Input = FleetEventInput;
    type Output = Vec<(FleetSummary, Estimate)>;

    fn setup(&self, seed: u64) -> FleetEventInput {
        let (base, specs) = repro_bench::fleet_population(self.n_links, self.days, 99);
        FleetEventInput {
            base,
            specs,
            design: FleetDesign::LinkLevel {
                p_hi: 0.95,
                p_lo: 0.05,
            },
            seeds: derive_seeds(seed, self.n_seeds),
            faults: TelemetryFaults {
                drop_mcar: 0.02,
                drop_congested: 0.2,
                duplicate_p: 0.05,
                corrupt_nan_p: 0.01,
                reorder_window: 8,
                ..TelemetryFaults::none(77)
            },
        }
    }

    fn run(&self, input: &FleetEventInput, runner: &Runner) -> Self::Output {
        runner
            .sweep_fleet_streaming_policy(
                &input.base,
                &input.specs,
                &input.design,
                &input.seeds,
                DEFAULT_SKETCH_CAP,
                EngineBackend::Event,
                Some(&input.faults),
                POLICY,
            )
            .into_iter()
            .map(|r| {
                let e = estimate(&r.result);
                (r.result, e)
            })
            .collect()
    }

    fn n_ops(&self, input: &FleetEventInput) -> usize {
        input.seeds.len() * (input.specs.len() + 1)
    }

    fn ops(&self, out: &Self::Output) -> Vec<Op> {
        let mut ops = Vec::new();
        for (s, (summary, e)) in out.iter().enumerate() {
            for l in &summary.links {
                ops.push((
                    format!("s{s}.link{}", l.link),
                    Some(fingerprint::link_summary_fp(l)),
                ));
            }
            for q in &summary.degraded.quarantined {
                ops.push((format!("s{s}.link{}", q.link), None));
            }
            ops.push((format!("s{s}.estimate"), Some(estimate_fp(summary, e))));
        }
        ops
    }

    /// The Tick backend is the oracle: every link, rerun on the tick
    /// loop and pushed through the same telemetry and fold, must give a
    /// summary equal to the Event sweep's.
    fn verify(&self, input: &FleetEventInput, out: &Self::Output, runner: &Runner) -> Verified {
        let (jobs, _) = input.jobs();
        let per_seed = input.specs.len();
        let results = runner.map(&jobs, |job| decomposed_job(job, EngineBackend::Tick, None));
        let mut oracle_ok = true;
        let mut st_total = 0;
        let mut hours = 0;
        let mut oracle_job_s = Vec::with_capacity(jobs.len());
        for (i, job_out) in results.iter().enumerate() {
            st_total += job_out.session_ticks;
            hours += job_out.congested_hours;
            oracle_job_s.push(job_out.sim_s);
            // Fingerprints, not `PartialEq`: a folded summary has handed
            // its sketches to the fleet, a fresh one still holds them.
            let link = job_out.summary.link;
            let fp = fingerprint::link_summary_fp(&job_out.summary);
            let measured = out[i / per_seed].0.links.iter().find(|l| l.link == link);
            oracle_ok &= measured.map(fingerprint::link_summary_fp) == Some(fp);
        }
        let sessions: usize = out.iter().map(|(s, _)| s.n_sessions).sum();
        let sent: u64 = out.iter().map(|(s, _)| s.telemetry.sent_total()).sum();
        let delivered: u64 = out.iter().map(|(s, _)| s.telemetry.delivered_total()).sum();
        let quarantined: usize = out.iter().map(|(s, _)| s.degraded.len()).sum();
        Verified {
            counters: vec![
                ("jobs", jobs.len() as u64),
                ("ticks", jobs.iter().map(|j| ticks(&j.cfg)).sum()),
                ("congested_hours", hours),
                ("session_ticks", st_total),
                ("sessions", sessions as u64),
                ("telemetry_sent", sent),
                ("telemetry_delivered", delivered),
                ("quarantined", quarantined as u64),
            ],
            work: st_total,
            work_unit: "session_ticks",
            oracle_ok,
            oracle_job_s,
        }
    }

    /// The sweep rebuilt from public pieces: `FleetSim::new` →
    /// `into_parts` → `Runner::map_fold`, with the engine run, telemetry
    /// model and summary fold of each job in their own spans.
    fn traced(
        &self,
        input: &FleetEventInput,
        runner: &Runner,
        tracer: &Tracer,
        untraced: &Self::Output,
        verified: &Verified,
    ) -> TracedRep {
        let per_seed = input.specs.len();
        let new_summaries = || -> Vec<FleetSummary> {
            (0..input.seeds.len())
                .map(|_| FleetSummary::new(DEFAULT_SKETCH_CAP))
                .collect()
        };
        let t0 = Instant::now();
        let out: Vec<(FleetSummary, Estimate)> =
            tracer.span("bench.fleet_event", None, None, |root| {
                let (jobs, pairs) =
                    tracer.span("streamsim.fleet.build", Some(root), None, |_| input.jobs());
                let fold = |sweep: u64,
                            acc: &mut Vec<FleetSummary>,
                            idx: usize,
                            job: &FleetLinkJob| {
                    let job_id = Some(idx as u64);
                    let summary = tracer.span("streamsim.fleet.job", Some(sweep), job_id, |id| {
                        decomposed_job(job, EngineBackend::Event, Some((tracer, id, idx as u64)))
                            .summary
                    });
                    acc[idx / per_seed].fold(summary);
                };
                let summaries =
                    tracer.span("repro_bench.runner.map_fold", Some(root), None, |sweep| {
                        runner.map_fold(
                            &jobs,
                            new_summaries,
                            |acc, idx, job| fold(sweep, acc, idx, job),
                            |acc, partial| {
                                tracer.span(
                                    "unbiased.fleet.summary.merge",
                                    Some(sweep),
                                    None,
                                    |_| {
                                        for (mine, theirs) in acc.iter_mut().zip(partial) {
                                            mine.merge(theirs);
                                        }
                                    },
                                )
                            },
                        )
                    });
                summaries
                    .into_iter()
                    .zip(pairs)
                    .map(|(mut summary, p)| {
                        tracer.span("unbiased.fleet.summary.finalize", Some(root), None, |_| {
                            summary.finalize(p)
                        });
                        let e = tracer.span("unbiased.fleet.estimate", Some(root), None, |_| {
                            estimate(&summary)
                        });
                        (summary, e)
                    })
                    .collect()
            });
        let wall_s = t0.elapsed().as_secs_f64();

        let same = out.len() == untraced.len()
            && out
                .iter()
                .zip(untraced)
                .all(|((s, e), (us, ue))| s == us && estimate_fp(s, e) == estimate_fp(us, ue));

        let spans = tracer.spans();
        let by_job = |name: &str| -> BTreeMap<usize, f64> {
            spans
                .iter()
                .filter(|s| s.name == name)
                .filter_map(|s| Some((s.job? as usize, s.secs())))
                .collect()
        };
        let event_s = by_job("streamsim.engine.run_event");
        let jobs_s: Vec<f64> = by_job("streamsim.fleet.job").into_values().collect();
        // The Event records equal the Tick oracle's, so the oracle's
        // session-tick count is this run's too.
        let st = counter(verified, "session_ticks") as u64;
        let sent: u64 = out.iter().map(|(s, _)| s.telemetry.sent_total()).sum();
        let delivered: u64 = out.iter().map(|(s, _)| s.telemetry.delivered_total()).sum();
        let sessions: usize = out.iter().map(|(s, _)| s.n_sessions).sum();
        let per = |secs: f64, n: u64| if n == 0 { 0.0 } else { secs * 1e9 / n as f64 };
        let sweep_s = tracer.total("repro_bench.runner.map_fold");

        let mut metrics = vec![
            (
                "streamsim.engine.event_ns_per_session_tick",
                per(event_s.values().sum(), st),
            ),
            (
                "streamsim.engine.event_over_tick",
                median_ratio(&event_s, &verified.oracle_job_s),
            ),
            (
                "streamsim.telemetry.apply_ns_per_record",
                per(tracer.total("streamsim.telemetry.apply"), sent),
            ),
            ("streamsim.telemetry.sent", sent as f64),
            ("streamsim.telemetry.delivered", delivered as f64),
            (
                "unbiased.fleet.summary.from_run_ns_per_session",
                per(
                    tracer.total("unbiased.fleet.summary.from_run"),
                    sessions as u64,
                ),
            ),
            (
                "unbiased.fleet.summary.merge_finalize_ms",
                (tracer.total("unbiased.fleet.summary.merge")
                    + tracer.total("unbiased.fleet.summary.finalize"))
                    * 1e3,
            ),
            (
                "unbiased.fleet.estimate_ms",
                tracer.total("unbiased.fleet.estimate") * 1e3,
            ),
            ("streamsim.sim.ticks", counter(verified, "ticks")),
            (
                "streamsim.sim.session_ticks",
                counter(verified, "session_ticks"),
            ),
            (
                "streamsim.sim.congested_hours",
                counter(verified, "congested_hours"),
            ),
        ];
        metrics.extend(super::job_metrics(&jobs_s, sweep_s, runner.threads()));
        TracedRep {
            wall_s,
            same_as_untraced: same,
            metrics,
        }
    }
}
