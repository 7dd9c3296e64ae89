//! Reference-model test for `dessim::EventQueue`.
//!
//! The queue promises one thing to every simulator in the workspace:
//! events pop in ascending `(time, push order)`, whatever the sequence
//! of pushes and pops. This test drives the queue and a plain
//! `BinaryHeap<(time, seq)>` model with the same seeded operation
//! stream and compares every observable answer after every operation:
//! `pop`, `peek`, `peek_time`, `pop_before`, `len` and
//! `scheduled_total`.
//!
//! The stream is shaped like the packet dumbbell's calendar, where a
//! few scheduling delays carry nearly every push: ten per-flow
//! propagation delays, two serialization times and zero delay, plus
//! timers at random delays. Equal-time ties arise from all of them. It
//! also pushes below the last popped time, which is how the streaming
//! engine's span calendar restarts at time 0 after each span.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use dessim::{EventQueue, SimRng, SimTime};

/// Per-flow one-way propagation delays (ns): ten distinct values.
const FLOW_DELAYS: [u64; 10] = [
    9_400_000, 9_650_000, 9_800_000, 9_950_000, 10_000_000, 10_050_000, 10_200_000, 10_350_000,
    10_500_000, 10_600_000,
];
/// Serialization times of a 1500-byte segment at 20 and 10 Gb/s.
const TX_TIMES: [u64; 2] = [600, 1_200];

/// The test-local model: a min-heap on `(time, seq)` carrying the
/// payload. `seq` is the push index, so ties pop in push order.
#[derive(Default)]
struct Model {
    heap: BinaryHeap<Reverse<(u64, u64, u64)>>,
    scheduled_total: u64,
}

impl Model {
    fn push(&mut self, time: u64, payload: u64) {
        self.heap
            .push(Reverse((time, self.scheduled_total, payload)));
        self.scheduled_total += 1;
    }

    fn peek(&self) -> Option<(u64, u64)> {
        self.heap.peek().map(|&Reverse((t, _, p))| (t, p))
    }

    fn pop(&mut self) -> Option<(u64, u64)> {
        self.heap.pop().map(|Reverse((t, _, p))| (t, p))
    }
}

fn as_pair(e: Option<(SimTime, u64)>) -> Option<(u64, u64)> {
    e.map(|(t, p)| (t.as_nanos(), p))
}

/// Compare every read-only observation of queue and model.
fn check_views(q: &EventQueue<u64>, m: &Model, step: usize) {
    let peeked = q.peek().map(|(t, &p)| (t.as_nanos(), p));
    assert_eq!(peeked, m.peek(), "peek at step {step}");
    assert_eq!(
        q.peek_time().map(SimTime::as_nanos),
        m.peek().map(|(t, _)| t),
        "peek_time at step {step}"
    );
    assert_eq!(q.len(), m.heap.len(), "len at step {step}");
    assert_eq!(q.is_empty(), m.heap.is_empty(), "is_empty at step {step}");
    assert_eq!(
        q.scheduled_total(),
        m.scheduled_total,
        "scheduled_total at step {step}"
    );
}

/// Run one seeded stream of `steps` operations against queue and model.
fn run_stream(seed: u64, steps: usize) {
    let mut rng = SimRng::new(seed);
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut m = Model::default();
    // The last popped time: the simulation clock delays are measured from.
    let mut now = 0u64;
    let mut payload = 0u64;
    for step in 0..steps {
        let r = rng.uniform01();
        if r < 0.52 {
            let kind = rng.uniform01();
            let time = if kind < 0.55 {
                now + FLOW_DELAYS[rng.below(FLOW_DELAYS.len() as u64) as usize]
            } else if kind < 0.75 {
                now + TX_TIMES[rng.below(TX_TIMES.len() as u64) as usize]
            } else if kind < 0.87 {
                now
            } else if kind < 0.97 {
                // Timers (RTO, pacing, ACK flush) at arbitrary delays.
                now + rng.below(250_000_000)
            } else {
                // Below the last popped time: a fresh span calendar.
                now.saturating_sub(rng.below(50_000_000))
            };
            q.push(SimTime::from_nanos(time), payload);
            m.push(time, payload);
            payload += 1;
        } else if r < 0.90 {
            let got = as_pair(q.pop());
            let want = m.pop();
            assert_eq!(got, want, "pop at step {step} (seed {seed})");
            if let Some((t, _)) = got {
                now = t;
            }
        } else {
            // Drain everything due by a bound near the clock.
            let bound = now + rng.below(2 * FLOW_DELAYS[9]);
            loop {
                let got = as_pair(q.pop_before(SimTime::from_nanos(bound)));
                let want = match m.peek() {
                    Some((t, _)) if t <= bound => m.pop(),
                    _ => None,
                };
                assert_eq!(got, want, "pop_before at step {step} (seed {seed})");
                match got {
                    Some((t, _)) => now = t,
                    None => break,
                }
            }
        }
        check_views(&q, &m, step);
    }
    // Drain what is left.
    loop {
        let got = as_pair(q.pop());
        assert_eq!(got, m.pop(), "final drain (seed {seed})");
        if got.is_none() {
            break;
        }
    }
    check_views(&q, &m, steps);
}

#[test]
fn event_queue_matches_heap_model_on_dumbbell_stream() {
    for seed in [1, 2, 3, 7919, 0x5eed] {
        run_stream(seed, 40_000);
    }
}

/// The streaming engine's pattern: a small calendar filled at times
/// 0..n, drained, then filled again from 0 while the last popped time
/// is far later.
#[test]
fn event_queue_matches_heap_model_on_restarting_spans() {
    let mut rng = SimRng::new(11);
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut m = Model::default();
    let mut payload = 0u64;
    for span in 0..500 {
        let n = 1 + rng.below(6);
        for _ in 0..n {
            let t = rng.below(4);
            q.push(SimTime::from_nanos(t), payload);
            m.push(t, payload);
            payload += 1;
        }
        check_views(&q, &m, span);
        // Drain all but occasionally one event, so a stale calendar
        // entry sometimes survives into the next span.
        let keep = usize::from(rng.below(5) == 0);
        while q.len() > keep {
            assert_eq!(as_pair(q.pop()), m.pop(), "span {span}");
        }
        check_views(&q, &m, span);
    }
}

/// Ties at one instant pop in push order, even when they arrive through
/// different delays (and so, potentially, different internal lanes).
#[test]
fn event_queue_ties_across_delays_pop_in_push_order() {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut m = Model::default();
    q.push(SimTime::from_nanos(0), 0);
    m.push(0, 0);
    assert_eq!(as_pair(q.pop()), m.pop());
    let mut payload = 1;
    // Advance the clock step by step and aim every push at t = 1000.
    for now in [0u64, 100, 250, 400, 999, 1000] {
        for _ in 0..3 {
            q.push(SimTime::from_nanos(1000), payload);
            m.push(1000, payload);
            payload += 1;
        }
        q.push(SimTime::from_nanos(now), payload);
        m.push(now, payload);
        payload += 1;
        assert_eq!(as_pair(q.pop()), m.pop());
        check_views(&q, &m, now as usize);
    }
    while let Some(want) = m.pop() {
        assert_eq!(as_pair(q.pop()), Some(want));
    }
    assert!(q.pop().is_none());
}
