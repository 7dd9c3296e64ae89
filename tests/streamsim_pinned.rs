//! Pinned tick-loop outputs. Three single-link runs on the
//! `Tick` backend whose exact results are frozen here: record and
//! hourly-stat counts, a few integer totals, and FNV-1a fingerprints
//! over every record field and every hourly statistic (floats as raw
//! `f64` bits).
//!
//! Between them the runs cover two congested days with a standing queue
//! and shed load (`loss > 0`), a half-capped treatment mix (both ABR
//! ladder prefixes in play), and a high `dip_prob` world with short
//! patience, where noise collapses drain buffers and startups time out
//! into cancellations.
//!
//! `tests/arena_oracle.rs` and `tests/engine_oracle.rs` compare two
//! implementations against each other; a change to code both share —
//! `dessim::fast_exp`, the ziggurat sampler, `Ladder` selection — moves
//! both sides at once and passes them. This file catches that: the hot
//! loop may be restructured for speed, but never so that one bit here
//! moves. A deliberate model change re-pins: the failure message prints
//! the new table in the syntax used below.

use streamsim::scenario::AllocationSchedule;
use streamsim::session::{LinkId, SessionRecord};
use streamsim::sim::{HourlyLinkStats, LinkSim};
use streamsim::StreamConfig;

/// One frozen run.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    records: usize,
    /// `treated, cancelled, rebuffered` record counts.
    flags: [usize; 3],
    /// Σ switches, Σ rebuffer counts.
    totals: [u64; 2],
    hours: usize,
    /// Hours with shed load (`loss > 0`).
    lossy_hours: usize,
    record_fp: u64,
    hourly_fp: u64,
}

/// FNV-1a over a stream of 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f(&mut self, x: f64) {
        self.word(x.to_bits());
    }
}

fn record_words(h: &mut Fnv, r: &SessionRecord) {
    h.word(matches!(r.link, LinkId::Two) as u64);
    h.word(r.day as u64);
    h.word(r.hour as u64);
    h.word(r.weekend as u64);
    h.f(r.arrival_s);
    h.word(r.treated as u64);
    h.f(r.throughput_bps);
    h.f(r.min_rtt_s);
    h.f(r.play_delay_s);
    h.f(r.bitrate_bps);
    h.f(r.quality);
    h.word(u64::from(r.rebuffer_count));
    h.word(r.rebuffered as u64);
    h.word(r.cancelled as u64);
    h.f(r.bytes);
    h.f(r.retx_bytes);
    h.word(u64::from(r.switches));
    h.f(r.duration_s);
}

fn hourly_words(h: &mut Fnv, s: &HourlyLinkStats) {
    h.word(s.day as u64);
    h.word(s.hour as u64);
    h.f(s.utilization);
    h.f(s.rtt_s);
    h.f(s.concurrent);
    h.f(s.loss);
}

fn observe(records: &[SessionRecord], hourly: &[HourlyLinkStats]) -> Pin {
    let mut rh = Fnv::new();
    for r in records {
        record_words(&mut rh, r);
    }
    let mut hh = Fnv::new();
    for s in hourly {
        hourly_words(&mut hh, s);
    }
    let count = |f: fn(&SessionRecord) -> bool| records.iter().filter(|r| f(r)).count();
    Pin {
        records: records.len(),
        flags: [
            count(|r| r.treated),
            count(|r| r.cancelled),
            count(|r| r.rebuffered),
        ],
        totals: [
            records.iter().map(|r| u64::from(r.switches)).sum(),
            records.iter().map(|r| u64::from(r.rebuffer_count)).sum(),
        ],
        hours: hourly.len(),
        lossy_hours: hourly.iter().filter(|h| h.loss > 0.0).count(),
        record_fp: rh.0,
        hourly_fp: hh.0,
    }
}

fn render(p: &Pin) -> String {
    format!(
        "Pin {{\n    records: {},\n    flags: {:?},\n    totals: {:?},\n    hours: {},\n    \
         lossy_hours: {},\n    record_fp: 0x{:016x},\n    hourly_fp: 0x{:016x},\n}}",
        p.records, p.flags, p.totals, p.hours, p.lossy_hours, p.record_fp, p.hourly_fp
    )
}

fn check(
    name: &str,
    cfg: StreamConfig,
    schedule: AllocationSchedule,
    seed: u64,
    pin: &Pin,
) -> (Vec<SessionRecord>, Vec<HourlyLinkStats>) {
    let (records, hourly) = LinkSim::new(cfg, LinkId::One, schedule, seed).run();
    let got = observe(&records, &hourly);
    assert!(
        got == *pin,
        "{name}: tick-loop outputs moved; if the model change is deliberate, re-pin with\n{}",
        render(&got)
    );
    (records, hourly)
}

/// Two days of offered load far past capacity through the evening
/// peaks: a standing queue, shed demand and retransmissions.
#[test]
fn congested_days_with_loss() {
    let cfg = StreamConfig {
        days: 2,
        capacity_bps: 100e6,
        peak_arrivals_per_s: 0.05,
        mean_watch_s: 900.0,
        ..Default::default()
    };
    let (_, hourly) = check(
        "congested_days_with_loss",
        cfg,
        AllocationSchedule::none(),
        1303,
        &Pin {
            records: 3773,
            flags: [0, 62, 665],
            totals: [133463, 821],
            hours: 48,
            lossy_hours: 30,
            record_fp: 0x50256304dbd32c68,
            hourly_fp: 0xb72e3984d6b95235,
        },
    );
    assert!(
        hourly.iter().any(|h| h.loss > 0.0),
        "the run must shed load"
    );
}

/// Half the sessions capped: both the whole-ladder and the capped
/// prefix ABR walks run, on a link that congests at the peak.
#[test]
fn capped_treatment_mix() {
    let cfg = StreamConfig {
        days: 2,
        capacity_bps: 100e6,
        peak_arrivals_per_s: 0.035,
        mean_watch_s: 900.0,
        ..Default::default()
    };
    let (records, _) = check(
        "capped_treatment_mix",
        cfg,
        AllocationSchedule::Constant(0.5),
        77,
        &Pin {
            records: 2620,
            flags: [1359, 8, 186],
            totals: [48420, 216],
            hours: 48,
            lossy_hours: 20,
            record_fp: 0xde083612dafafd6c,
            hourly_fp: 0x258466b7b6c1ad40,
        },
    );
    let treated = records.iter().filter(|r| r.treated).count();
    assert!(treated > 0 && treated < records.len(), "both arms present");
}

/// Frequent difficulty dips and impatient users: rebuffers and
/// cancelled startups.
#[test]
fn high_dip_prob_with_cancellations() {
    let cfg = StreamConfig {
        days: 1,
        capacity_bps: 60e6,
        peak_arrivals_per_s: 0.025,
        mean_watch_s: 600.0,
        mean_patience_s: 4.0,
        dip_prob: 0.3,
        ..Default::default()
    };
    let (records, _) = check(
        "high_dip_prob_with_cancellations",
        cfg,
        AllocationSchedule::Constant(0.3),
        4242,
        &Pin {
            records: 935,
            flags: [302, 55, 856],
            totals: [33461, 21054],
            hours: 24,
            lossy_hours: 13,
            record_fp: 0x29d20793656e6d48,
            hourly_fp: 0x2cc7566be4a017c1,
        },
    );
    assert!(records.iter().any(|r| r.cancelled), "some startups cancel");
    assert!(
        records.iter().any(|r| r.rebuffered),
        "some sessions rebuffer"
    );
}
