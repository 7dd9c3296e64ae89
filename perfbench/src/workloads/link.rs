//! `link_5day_tick`: one five-day `LinkSim` on the default streaming
//! config under a constant 50% allocation, on the Tick backend, single
//! threaded. Nearly all time goes to the arena column passes and the
//! water-filling allocator.

use std::time::Instant;

use repro_bench::Runner;
use streamsim::config::StreamConfig;
use streamsim::engine::EngineBackend;
use streamsim::scenario::AllocationSchedule;
use streamsim::session::{LinkId, SessionRecord};
use streamsim::sim::{HourlyLinkStats, LinkSim};

use super::{congested_hours, counter, session_ticks, ticks, Op, TracedRep, Verified, Workload};
use crate::fingerprint::{self, Fnv};
use crate::measure::quantile;
use crate::trace::Tracer;

#[derive(Default)]
pub struct Link {
    pub cfg: StreamConfig,
}

pub struct LinkInput {
    cfg: StreamConfig,
    schedule: AllocationSchedule,
    seed: u64,
}

impl LinkInput {
    fn sim(&self) -> LinkSim {
        LinkSim::new(
            self.cfg.clone(),
            LinkId::One,
            self.schedule.clone(),
            self.seed,
        )
    }
}

pub type LinkOutput = (Vec<SessionRecord>, Vec<HourlyLinkStats>);

fn output_fp(records: &[SessionRecord], hourly: &[HourlyLinkStats]) -> u64 {
    let mut h = Fnv::default();
    fingerprint::records(&mut h, records);
    fingerprint::hourly(&mut h, hourly);
    h.finish()
}

impl Workload for Link {
    type Input = LinkInput;
    type Output = LinkOutput;

    fn setup(&self, seed: u64) -> LinkInput {
        LinkInput {
            cfg: self.cfg.clone(),
            schedule: AllocationSchedule::Constant(0.5),
            seed,
        }
    }

    fn run(&self, input: &LinkInput, _runner: &Runner) -> LinkOutput {
        input.sim().run_with(EngineBackend::Tick)
    }

    fn n_ops(&self, _input: &LinkInput) -> usize {
        1
    }

    fn ops(&self, out: &LinkOutput) -> Vec<Op> {
        vec![("link".to_string(), Some(output_fp(&out.0, &out.1)))]
    }

    /// The Event backend is the oracle: its records must equal the Tick
    /// loop's bit for bit.
    fn verify(&self, input: &LinkInput, out: &LinkOutput, _runner: &Runner) -> Verified {
        let (event_records, _) = input.sim().run_with(EngineBackend::Event);
        let st = session_ticks(&out.0, input.cfg.dt_s);
        Verified {
            counters: vec![
                ("ticks", ticks(&input.cfg)),
                ("sessions", out.0.len() as u64),
                ("session_ticks", st),
                ("congested_hours", congested_hours(&out.1)),
            ],
            work: st,
            work_unit: "session_ticks",
            oracle_ok: fingerprint::records_fp(&event_records) == fingerprint::records_fp(&out.0),
            oracle_job_s: Vec::new(),
        }
    }

    /// Drive the tick loop step by step through `LinkSim::step`, timing
    /// each step and counting the sessions it advanced.
    fn traced(
        &self,
        input: &LinkInput,
        _runner: &Runner,
        tracer: &Tracer,
        untraced: &LinkOutput,
        verified: &Verified,
    ) -> TracedRep {
        let horizon = input.cfg.horizon_s();
        let dt = input.cfg.dt_s;
        let n_ticks = ticks(&input.cfg) as usize;
        let mut step_ns: Vec<u64> = Vec::with_capacity(n_ticks);
        let mut stepped: Vec<u64> = Vec::with_capacity(n_ticks);
        let t0 = Instant::now();
        let records = tracer.span("bench.link", None, Some(0), |root| {
            tracer.span("streamsim.sim.step_loop", Some(root), Some(0), |_| {
                let mut sim = input.sim();
                let mut now = 0.0;
                while now < horizon {
                    let done_before = sim.records().len();
                    let s0 = Instant::now();
                    sim.step();
                    step_ns.push(s0.elapsed().as_nanos() as u64);
                    let finished = sim.records().len() - done_before;
                    stepped.push((sim.active_sessions() + finished) as u64);
                    now += dt;
                }
                sim.records().to_vec()
            })
        });
        let wall_s = t0.elapsed().as_secs_f64();

        // Split by the hour's utilization from the untraced run (same
        // seed, same hourly statistics).
        let hourly = &untraced.1;
        let mut cong = (0u64, 0u64);
        let mut uncong = (0u64, 0u64);
        for (i, (&ns, &n)) in step_ns.iter().zip(&stepped).enumerate() {
            let hour = ((i as f64 * dt) / 3600.0) as usize;
            let congested = hourly
                .get(hour)
                .is_some_and(|h| h.utilization >= super::CONGESTED_UTILIZATION);
            let acc = if congested { &mut cong } else { &mut uncong };
            acc.0 += ns;
            acc.1 += n;
        }
        let per = |(ns, n): (u64, u64)| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
        let step_us: Vec<f64> = step_ns.iter().map(|&ns| ns as f64 * 1e-3).collect();
        let total_ns: u64 = step_ns.iter().sum();
        let total_stepped: u64 = stepped.iter().sum();
        TracedRep {
            wall_s,
            same_as_untraced: fingerprint::records_fp(&records)
                == fingerprint::records_fp(&untraced.0),
            metrics: vec![
                (
                    "streamsim.sim.step_ns_per_session_tick.congested",
                    per(cong),
                ),
                (
                    "streamsim.sim.step_ns_per_session_tick.uncongested",
                    per(uncong),
                ),
                (
                    "streamsim.sim.ns_per_session_tick",
                    per((total_ns, total_stepped)),
                ),
                ("streamsim.sim.step_us_p50", quantile(&step_us, 0.5)),
                ("streamsim.sim.step_us_p9999", quantile(&step_us, 0.9999)),
                ("streamsim.sim.ticks", step_ns.len() as f64),
                (
                    "streamsim.sim.session_ticks",
                    counter(verified, "session_ticks"),
                ),
                (
                    "streamsim.sim.congested_hours",
                    counter(verified, "congested_hours"),
                ),
            ],
        }
    }
}
