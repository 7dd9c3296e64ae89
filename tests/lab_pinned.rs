//! Pinned packet-lab outputs. Four dumbbells whose exact results are
//! frozen here: event count, bottleneck queue statistics, and every
//! flow's measurement-window counters (sent, retransmitted and delivered
//! bytes, loss events, timeouts, drops, RTT sum and minimum) with the
//! throughput as raw `f64` bits.
//!
//! Between them the runs cover BBR/Cubic competition in a 2-BDP buffer
//! with few and with most apps on BBR (the Figure 3 shape), a paced Reno
//! app under random loss (fast retransmit, lost retransmissions and
//! RTOs), and stretch ACKs (`ack_aggregation > 1`). Sender bookkeeping
//! may be restructured for speed, but never so that one bit here moves.
//! A deliberate model change re-pins: the failure message prints the new
//! table in the syntax used below.

use dessim::SimDuration;
use netsim::config::{AppConfig, CcKind, DumbbellConfig};
use netsim::{run_dumbbell, LabResult};

/// One frozen run.
struct Pin {
    events: u64,
    /// `enqueued, dropped, dropped_bytes, max_occupancy_bytes`.
    queue: [u64; 4],
    /// Per flow: `throughput bits, sent_bytes, retx_bytes, loss_events,
    /// rtos, drops, mean_rtt bits, min_rtt bits`.
    flows: &'static [[u64; 8]],
}

fn observe(r: &LabResult) -> (u64, [u64; 4], Vec<[u64; 8]>) {
    let q = &r.queue;
    let flows = r
        .flows
        .iter()
        .map(|f| {
            [
                f.throughput_bps.to_bits(),
                f.sent_bytes,
                f.retx_bytes,
                f.loss_events,
                f.rtos,
                f.drops,
                f.mean_rtt_s.to_bits(),
                f.min_rtt_s.to_bits(),
            ]
        })
        .collect();
    (
        r.events,
        [
            q.enqueued,
            q.dropped,
            q.dropped_bytes,
            q.max_occupancy_bytes,
        ],
        flows,
    )
}

fn render(events: u64, queue: [u64; 4], flows: &[[u64; 8]]) -> String {
    let mut s = format!("Pin {{\n    events: {events},\n    queue: {queue:?},\n    flows: &[\n");
    for f in flows {
        let cells: Vec<String> = f
            .iter()
            .enumerate()
            .map(|(i, v)| match i {
                0 | 6 | 7 => format!("0x{v:016x}"),
                _ => v.to_string(),
            })
            .collect();
        s += &format!("        [{}],\n", cells.join(", "));
    }
    s + "    ],\n}"
}

fn check(name: &str, cfg: &DumbbellConfig, pin: &Pin) -> LabResult {
    let r = run_dumbbell(cfg).expect("valid config");
    let (events, queue, flows) = observe(&r);
    let same = events == pin.events && queue == pin.queue && flows == pin.flows;
    assert!(
        same,
        "{name}: lab output moved; observed\n{}",
        render(events, queue, &flows)
    );
    r
}

/// Ten single-connection apps, the first `k` on BBR and the rest on
/// Cubic, in a 2-BDP buffer: the Figure 3 dumbbell, scaled down.
fn fig3(k: usize) -> DumbbellConfig {
    DumbbellConfig {
        bottleneck_bps: 100e6,
        base_rtt: SimDuration::from_millis(20),
        buffer_bdp: 2.0,
        apps: (0..10)
            .map(|i| AppConfig::plain(if i < k { CcKind::Bbr } else { CcKind::Cubic }))
            .collect(),
        duration: SimDuration::from_secs(3),
        warmup: SimDuration::from_secs(1),
        seed: 11,
        ..Default::default()
    }
}

#[test]
fn fig3_bbr_cubic_k2_pinned() {
    check("fig3 k=2", &fig3(2), &FIG3_K2);
}

#[test]
fn fig3_bbr_cubic_k8_pinned() {
    check("fig3 k=8", &fig3(8), &FIG3_K8);
}

/// A paced Reno app beside three unpaced Cubic apps in a shallow buffer
/// under 1% random loss: fast retransmit, lost retransmissions and
/// timeouts all fire.
#[test]
fn paced_reno_random_loss_pinned() {
    let cfg = DumbbellConfig {
        bottleneck_bps: 100e6,
        base_rtt: SimDuration::from_millis(30),
        buffer_bdp: 0.25,
        apps: vec![
            AppConfig::paced(CcKind::Reno, 1.0),
            AppConfig::plain(CcKind::Cubic),
            AppConfig::plain(CcKind::Cubic),
            AppConfig::plain(CcKind::Cubic),
        ],
        duration: SimDuration::from_secs(3),
        warmup: SimDuration::from_millis(200),
        seed: 5,
        random_loss: 0.01,
        ..Default::default()
    };
    let r = check("paced reno, 1% loss", &cfg, &PACED_RENO_LOSS);
    assert!(r.flows.iter().any(|f| f.rtos > 0), "the run must reach RTO");
    assert!(r.flows.iter().all(|f| f.retx_bytes > 0));
}

/// Stretch ACKs (one ACK per eight segments) with every CC in the mix.
#[test]
fn ack_aggregation_pinned() {
    let cfg = DumbbellConfig {
        bottleneck_bps: 80e6,
        base_rtt: SimDuration::from_millis(20),
        buffer_bdp: 0.5,
        apps: vec![
            AppConfig::plain(CcKind::Reno),
            AppConfig::plain(CcKind::Cubic),
            AppConfig::paced(CcKind::Cubic, 1.2),
            AppConfig::plain(CcKind::Bbr),
        ],
        duration: SimDuration::from_secs(2),
        warmup: SimDuration::from_millis(600),
        ack_aggregation: 8,
        seed: 3,
        ..Default::default()
    };
    check("ack aggregation 8", &cfg, &ACK_AGG8);
}

#[rustfmt::skip]
const FIG3_K2: Pin = Pin {
    events: 135825,
    queue: [23956, 3311, 4966500, 499500],
    flows: &[
        [0x417eaff500000000, 9141000, 897000, 6, 0, 598, 0x3fa5c0045c3512ab, 0x3f96235363a1b264],
        [0x4183826280000000, 11469000, 997500, 4, 1, 664, 0x3fa5fc3e963454ac, 0x3f95eb6b7c028d82],
        [0x4109a28000000000, 55500, 19500, 0, 4, 3, 0x3fa8dfea27983c13, 0x3fa8255b035bd513],
        [0x4163ec9600000000, 2235000, 180000, 5, 0, 120, 0x3fa818ae17d371d8, 0x3f95498c18b02db8],
        [0x412da9c000000000, 258000, 10500, 3, 1, 7, 0x3fa77e6f67a5b8dc, 0x3f94a1c66c691271],
        [0x4169768e00000000, 3367500, 340500, 4, 2, 240, 0x3faaa5ed528faac6, 0x3fa5cfaacd9e83e4],
        [0x412973a000000000, 216000, 16500, 2, 2, 11, 0x3faa2704985cca4a, 0x3fa426fe718a86d7],
        [0x412627e000000000, 196500, 25500, 3, 2, 17, 0x3fa85c2ff35467a8, 0x3fa4bf0995aaf790],
        [0x41311ed000000000, 286500, 25500, 3, 2, 17, 0x3fab8ad95005e049, 0x3fa5714b9cb6848c],
        [0x411abbc000000000, 124500, 10500, 1, 3, 5, 0x3fa86a630393c1a4, 0x3fa27913e81450f0],
    ],
};

#[rustfmt::skip]
const FIG3_K8: Pin = Pin {
    events: 146918,
    queue: [23826, 3418, 5127000, 499500],
    flows: &[
        [0x415e7cb000000000, 2452500, 337500, 4, 1, 212, 0x3fad012faad7edc3, 0x3fa9b9f99c9fc492],
        [0x4141940000000000, 648000, 91500, 4, 0, 51, 0x3fab6260d62c3898, 0x3fa8c739cc0fc9b3],
        [0x417a63dc00000000, 7690500, 1446000, 3, 0, 860, 0x3fab2184503ab39f, 0x3fa89655caeb53d4],
        [0x4167848200000000, 3159000, 601500, 1, 1, 343, 0x3faa80d816399716, 0x3fa6e81030600057],
        [0x414b774000000000, 993000, 187500, 3, 0, 109, 0x3faa2dc4feccef19, 0x3fa7ae845121ca6f],
        [0x41857eaf80000000, 11332500, 1438500, 2, 1, 770, 0x3faa7a0728c788e6, 0x3fa728876edae550],
        [0x40ed4c0000000000, 7500, 6000, 0, 2, 0, 0x3fae88b5f194017f, 0x3fae88b5f194017f],
        [0x4151e02c00000000, 1563000, 163500, 1, 1, 123, 0x3fa9a8929fcf2c76, 0x3fa6368fb41296b1],
        [0x413915e000000000, 454500, 57000, 3, 0, 31, 0x3fab1fc1f591a05f, 0x3fa8644523f67f4e],
        [0x4124532000000000, 187500, 21000, 1, 1, 13, 0x3faa873889bb36af, 0x3fa797cc39ffd60f],
    ],
};

#[rustfmt::skip]
const PACED_RENO_LOSS: Pin = Pin {
    events: 25395,
    queue: [4641, 51, 76500, 93000],
    flows: &[
        [0x41568fab6db6db6e, 1834500, 96000, 13, 0, 50, 0x3f9ed0ab2729bf2c, 0x3f9da062ea0dadf1],
        [0x415af1524924924a, 2422500, 10500, 7, 0, 6, 0x3fa002577b0faa63, 0x3f9f96c8eafc1e04],
        [0x40e0bdb6db6db6dc, 13500, 13500, 0, 1, 11, 0x7ff8000000000000, 0x7ff8000000000000],
        [0x415402c492492493, 1749000, 22500, 13, 0, 14, 0x3f9c7fa2080eeb13, 0x3f9c3142f6a8460d],
    ],
};

#[rustfmt::skip]
const ACK_AGG8: Pin = Pin {
    events: 68473,
    queue: [10990, 2649, 3973500, 99000],
    flows: &[
        [0x4105f90000000000, 43500, 16500, 1, 1, 5, 0x3f9a858793dd97f5, 0x3f986c226809d495],
        [0x4101c99249249249, 30000, 12000, 0, 1, 4, 0x3f9dc3a6faf2c19b, 0x3f9ba5e353f7ced9],
        [0x4150831edb6db6dc, 793500, 34500, 2, 0, 19, 0x3f9bfd15ef771ad1, 0x3f973cd935771673],
        [0x4192b4fe24924925, 14463000, 2547000, 5, 0, 1463, 0x3f9a7fb1db0c2b9c, 0x3f9626816b71e064],
    ],
};
