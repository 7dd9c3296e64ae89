//! The four workloads. Each is a fixed batch of simulation work run to
//! completion in one process: no host-side arrival process, so the
//! throughput metric is work per second at the stated input size.

pub mod fleet_event;
pub mod fleet_routed;
pub mod lab;
pub mod link;

use std::collections::BTreeMap;

use repro_bench::Runner;
use streamsim::config::StreamConfig;
use streamsim::session::SessionRecord;
use streamsim::sim::HourlyLinkStats;

use crate::measure::{median, tail};
use crate::trace::Tracer;

/// A tick is congested when its hour's mean utilization reaches this.
pub const CONGESTED_UTILIZATION: f64 = 0.99;

/// A fleet-level effect estimate, or why the estimator refused.
pub type Estimate = Result<unbiased::fleet::FleetEffect, expstats::StatsError>;

/// One op's output fingerprint, or `None` when the op failed outright
/// (panicked or was quarantined).
pub type Op = (String, Option<u64>);

/// Deterministic counters plus the outcome of the workload's own
/// oracle, computed once per run outside the measured phase.
#[derive(Debug, Clone, Default)]
pub struct Verified {
    /// Exact-repeat counts, printed beside the timings and compared
    /// against the values stored with the golden.
    pub counters: Vec<(&'static str, u64)>,
    /// Work units the throughput metric divides by wall time:
    /// session-ticks for the streaming workloads, packet events for
    /// the lab.
    pub work: u64,
    pub work_unit: &'static str,
    /// Whether the independent oracle (the other engine backend, where
    /// one exists) reproduced the measured output.
    pub oracle_ok: bool,
    /// Per-job wall seconds of the oracle pass, by job index (the Tick
    /// half of the Event/Tick pairing).
    pub oracle_job_s: Vec<f64>,
}

/// One traced repetition: the traced phase's wall time, whether its
/// rebuilt outputs equal the untraced run's, and its per-layer metrics.
#[derive(Debug, Clone, Default)]
pub struct TracedRep {
    pub wall_s: f64,
    pub same_as_untraced: bool,
    pub metrics: Vec<(&'static str, f64)>,
}

pub trait Workload {
    type Input;
    type Output;

    /// Input generation: configs, populations and seeds.
    fn setup(&self, seed: u64) -> Self::Input;
    /// The measured phase: simulate, fold, estimate.
    fn run(&self, input: &Self::Input, runner: &Runner) -> Self::Output;
    /// Op count of one repetition (used to charge a panicked repetition).
    fn n_ops(&self, input: &Self::Input) -> usize;
    /// Fingerprint of every op's output, keyed by op name.
    fn ops(&self, out: &Self::Output) -> Vec<Op>;
    /// Counters and the oracle check, outside the measured phase.
    fn verify(&self, input: &Self::Input, out: &Self::Output, runner: &Runner) -> Verified;
    /// The traced phase, rebuilt from public pieces with spans around
    /// each layer's calls.
    fn traced(
        &self,
        input: &Self::Input,
        runner: &Runner,
        tracer: &Tracer,
        untraced: &Self::Output,
        verified: &Verified,
    ) -> TracedRep;
}

/// Ticks a link of `cfg` runs: the tick loop's own float clock, stepped
/// until it reaches the horizon.
pub fn ticks(cfg: &StreamConfig) -> u64 {
    let horizon = cfg.horizon_s();
    let mut now = 0.0;
    let mut n = 0;
    while now < horizon {
        now += cfg.dt_s;
        n += 1;
    }
    n
}

/// Session-ticks of the sessions that completed within the horizon: a
/// session stepped in `t` ticks records `duration_s = t · dt_s`.
pub fn session_ticks(records: &[SessionRecord], dt_s: f64) -> u64 {
    records
        .iter()
        .map(|r| (r.duration_s / dt_s).round() as u64)
        .sum()
}

pub fn congested_hours(hourly: &[HourlyLinkStats]) -> u64 {
    hourly
        .iter()
        .filter(|h| h.utilization >= CONGESTED_UTILIZATION)
        .count() as u64
}

/// Job-latency and scheduler metrics from per-job spans: `jobs_s` are
/// job durations, `sweep_s` the wall time of the parallel section.
pub fn job_metrics(jobs_s: &[f64], sweep_s: f64, threads: usize) -> Vec<(&'static str, f64)> {
    let busy: f64 = jobs_s.iter().sum();
    let longest = jobs_s.iter().copied().fold(0.0, f64::max);
    let threads = threads.min(jobs_s.len()).max(1) as f64;
    let ideal = (busy / threads).max(longest);
    let ms: Vec<f64> = jobs_s.iter().map(|s| s * 1e3).collect();
    let mut out = vec![
        ("repro_bench.runner.jobs", jobs_s.len() as f64),
        ("repro_bench.runner.busy_s", busy),
        (
            "repro_bench.runner.idle_frac",
            1.0 - busy / (sweep_s * threads),
        ),
        ("repro_bench.runner.makespan_over_ideal", sweep_s / ideal),
    ];
    if !ms.is_empty() {
        out.push(("streamsim.fleet.job_ms_p50", median(&ms)));
    }
    if let Some(t) = tail(&ms) {
        out.push(("streamsim.fleet.job_ms_tail", t.value));
        out.push(("streamsim.fleet.job_ms_tail_pct", t.pct));
        out.push(("streamsim.fleet.job_ms_n", t.n as f64));
    }
    out
}

/// Median per-job ratio of `num` to `den` seconds over jobs present in
/// both.
pub fn median_ratio(num: &BTreeMap<usize, f64>, den: &[f64]) -> f64 {
    let ratios: Vec<f64> = num
        .iter()
        .filter_map(|(&i, &n)| den.get(i).map(|&d| n / d))
        .collect();
    if ratios.is_empty() {
        0.0
    } else {
        median(&ratios)
    }
}

/// A verified counter as a metric value (0 when the workload has none).
pub fn counter(verified: &Verified, name: &str) -> f64 {
    verified
        .counters
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |&(_, v)| v as f64)
}
