//! `lab_bbr_cubic`: the packet-level dumbbell of the BBR-vs-Cubic lab
//! figure (ten apps, 2-BDP buffer) with k = 2, 5 and 8 apps on BBR and
//! the rest on Cubic, four lab seeds per k, all runs through one
//! `Runner::map`. Covers the packet-level TCP models and the event
//! queues, which no streaming workload touches.

use std::time::Instant;

use dessim::SimDuration;
use netsim::config::{AppConfig, CcKind, DumbbellConfig};
use netsim::{run_dumbbell, LabResult};
use repro_bench::{derive_seeds, lab_config, mixed_apps, Runner};

use super::{Op, TracedRep, Verified, Workload};
use crate::fingerprint;
use crate::trace::Tracer;

pub struct Lab {
    pub ks: Vec<usize>,
    /// Dumbbell runs per k, each with its own lab seed. Several short
    /// runs per k average out how much one seed's flow dynamics cost and
    /// balance the jobs over the threads.
    pub seeds_per_k: usize,
    /// Simulated milliseconds per run, of which the first third is
    /// warm-up.
    pub duration_ms: u64,
}

impl Default for Lab {
    fn default() -> Self {
        Lab {
            // Costliest first (more BBR apps cost more per run), so the
            // cheap runs fill in at the end and the two threads finish
            // together.
            ks: vec![8, 5, 2],
            seeds_per_k: 16,
            duration_ms: 1000,
        }
    }
}

pub struct LabInput {
    /// `(k, config)` per dumbbell run, k-major.
    runs: Vec<(usize, DumbbellConfig)>,
}

fn run_one(cfg: &DumbbellConfig) -> LabResult {
    run_dumbbell(cfg).expect("lab config validated in setup")
}

impl Workload for Lab {
    type Input = LabInput;
    type Output = Vec<LabResult>;

    fn setup(&self, seed: u64) -> LabInput {
        let seeds = derive_seeds(seed, self.ks.len() * self.seeds_per_k);
        let runs = self
            .ks
            .iter()
            .flat_map(|&k| std::iter::repeat_n(k, self.seeds_per_k))
            .zip(seeds)
            .map(|(k, s)| {
                let apps = mixed_apps(10, k, |bbr| {
                    AppConfig::plain(if bbr { CcKind::Bbr } else { CcKind::Cubic })
                });
                let mut cfg = lab_config(apps, s);
                cfg.buffer_bdp = 2.0;
                cfg.duration = SimDuration::from_millis(self.duration_ms);
                cfg.warmup = SimDuration::from_millis(self.duration_ms / 3);
                cfg.validate().expect("valid lab config");
                (k, cfg)
            })
            .collect();
        LabInput { runs }
    }

    fn run(&self, input: &LabInput, runner: &Runner) -> Vec<LabResult> {
        runner.map(&input.runs, |(_, cfg)| run_one(cfg))
    }

    fn n_ops(&self, input: &LabInput) -> usize {
        input.runs.len()
    }

    fn ops(&self, out: &Vec<LabResult>) -> Vec<Op> {
        out.iter()
            .enumerate()
            .map(|(i, r)| {
                let (k, s) = (self.ks[i / self.seeds_per_k], i % self.seeds_per_k);
                (format!("k{k}.s{s}"), Some(fingerprint::lab_fp(r)))
            })
            .collect()
    }

    /// The packet simulator has no second implementation to check
    /// against; repeat-run determinism and the goldens stand in.
    fn verify(&self, _input: &LabInput, out: &Vec<LabResult>, _runner: &Runner) -> Verified {
        let events: u64 = out.iter().map(|r| r.events).sum();
        Verified {
            counters: vec![("jobs", out.len() as u64), ("packet_events", events)],
            work: events,
            work_unit: "packet_events",
            oracle_ok: true,
            oracle_job_s: Vec::new(),
        }
    }

    fn traced(
        &self,
        input: &LabInput,
        runner: &Runner,
        tracer: &Tracer,
        untraced: &Vec<LabResult>,
        _verified: &Verified,
    ) -> TracedRep {
        let t0 = Instant::now();
        let out = tracer.span("bench.lab", None, None, |root| {
            tracer.span("repro_bench.runner.map", Some(root), None, |sweep| {
                let idxs: Vec<usize> = (0..input.runs.len()).collect();
                runner.map(&idxs, |&i| {
                    tracer.span("netsim.run_dumbbell", Some(sweep), Some(i as u64), |_| {
                        run_one(&input.runs[i].1)
                    })
                })
            })
        });
        let wall_s = t0.elapsed().as_secs_f64();

        let same = self.ops(&out) == self.ops(untraced);
        let mut jobs_s = vec![0.0; out.len()];
        for s in tracer
            .spans()
            .iter()
            .filter(|s| s.name == "netsim.run_dumbbell")
        {
            jobs_s[s.job.expect("dumbbell spans carry the run index") as usize] = s.secs();
        }
        let events: u64 = out.iter().map(|r| r.events).sum();
        let mut metrics = vec![("netsim.events", events as f64)];
        for (name, k) in [
            ("netsim.ns_per_event.k2", 2),
            ("netsim.ns_per_event.k5", 5),
            ("netsim.ns_per_event.k8", 8),
        ] {
            let (mut secs, mut n) = (0.0, 0u64);
            for (((rk, _), r), s) in input.runs.iter().zip(&out).zip(&jobs_s) {
                if *rk == k {
                    secs += s;
                    n += r.events;
                }
            }
            if n > 0 {
                metrics.push((name, secs * 1e9 / n as f64));
            }
        }
        let mut job = super::job_metrics(
            &jobs_s,
            tracer.total("repro_bench.runner.map"),
            runner.threads(),
        );
        // Dumbbell runs are not fleet link jobs.
        job.retain(|(name, _)| name.starts_with("repro_bench."));
        metrics.extend(job);
        TracedRep {
            wall_s,
            same_as_untraced: same,
            metrics,
        }
    }
}
