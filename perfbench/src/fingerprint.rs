//! Output fingerprints: FNV-1a over the exact bits of each output, so
//! any change to any field of any record changes the fingerprint.

use netsim::LabResult;
use streamsim::session::{Metric, SessionRecord};
use streamsim::sim::HourlyLinkStats;
use streamsim::telemetry::TelemetryStats;
use unbiased::fleet::{FleetLinkSummary, FleetSummary};

use crate::workloads::Estimate;

#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn u64(&mut self, v: u64) -> &mut Self {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

pub fn records(h: &mut Fnv, records: &[SessionRecord]) {
    h.u64(records.len() as u64);
    for r in records {
        h.u64(r.link as u64)
            .u64(r.day as u64)
            .u64(r.hour as u64)
            .u64(u64::from(r.weekend))
            .f64(r.arrival_s)
            .u64(u64::from(r.treated))
            .f64(r.throughput_bps)
            .f64(r.min_rtt_s)
            .f64(r.play_delay_s)
            .f64(r.bitrate_bps)
            .f64(r.quality)
            .u64(u64::from(r.rebuffer_count))
            .u64(u64::from(r.rebuffered))
            .u64(u64::from(r.cancelled))
            .f64(r.bytes)
            .f64(r.retx_bytes)
            .u64(u64::from(r.switches))
            .f64(r.duration_s);
    }
}

pub fn records_fp(recs: &[SessionRecord]) -> u64 {
    let mut h = Fnv::default();
    records(&mut h, recs);
    h.finish()
}

/// Hourly statistics are covered by their counters (congested hours)
/// and the utilization bits, which decide the congested-tick split.
pub fn hourly(h: &mut Fnv, hours: &[HourlyLinkStats]) {
    h.u64(hours.len() as u64);
    for s in hours {
        h.u64(s.day as u64).u64(s.hour as u64).f64(s.utilization);
    }
}

pub fn telemetry(h: &mut Fnv, t: &TelemetryStats) {
    for arr in [
        t.sent,
        t.delivered,
        t.dropped_outage,
        t.dropped_mcar,
        t.dropped_congested,
        t.duplicated,
        t.corrupted,
        t.out_of_order,
    ] {
        h.u64(arr[0]).u64(arr[1]);
    }
}

pub fn link_summary_fp(l: &FleetLinkSummary) -> u64 {
    let mut h = Fnv::default();
    h.u64(l.link as u64)
        .u64(match l.treated_cluster {
            None => 2,
            Some(t) => u64::from(t),
        })
        .f64(l.offered_load)
        .f64(l.expected_allocation)
        .u64(l.n_sessions as u64);
    telemetry(&mut h, &l.telemetry);
    for m in Metric::ALL {
        for arm in [false, true] {
            let c = l.cell(m, arm);
            h.u64(c.n).f64(c.mean).f64(c.m2);
        }
    }
    h.finish()
}

pub fn effect(h: &mut Fnv, e: &Estimate) {
    match e {
        Ok(e) => {
            h.f64(e.absolute)
                .f64(e.relative)
                .f64(e.ci95.0)
                .f64(e.ci95.1)
                .f64(e.se)
                .u64(e.n_sessions as u64)
                .u64(e.n_clusters as u64)
                .u64(e.quality.len() as u64);
        }
        Err(err) => {
            for b in err.to_string().bytes() {
                h.u64(u64::from(b));
            }
        }
    }
}

/// Fleet-level part of a summary: totals, ledger, quarantine report,
/// pairs, and the fleet sketches' quartiles for every metric and arm.
pub fn fleet_summary(h: &mut Fnv, s: &FleetSummary) {
    h.u64(s.n_sessions as u64)
        .u64(s.links.len() as u64)
        .u64(s.degraded.len() as u64)
        .u64(s.pairs.len() as u64);
    telemetry(h, &s.telemetry);
    for m in Metric::ALL {
        for arm in [false, true] {
            let sk = s.sketch(m, arm);
            h.u64(sk.total());
            for q in [0.25, 0.5, 0.75] {
                h.f64(sk.quantile(q).unwrap_or(f64::NAN));
            }
        }
    }
}

pub fn lab_fp(r: &LabResult) -> u64 {
    let mut h = Fnv::default();
    h.u64(r.events).u64(r.apps.len() as u64);
    for a in &r.apps {
        h.u64(a.connections as u64)
            .f64(a.throughput_bps)
            .f64(a.retx_fraction)
            .f64(a.mean_rtt_s)
            .f64(a.min_rtt_s);
    }
    h.finish()
}
