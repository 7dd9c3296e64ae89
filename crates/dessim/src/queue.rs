//! The event queue: a priority queue ordered by event time with FIFO
//! tie-breaking for determinism, built as a *delay-lane calendar*.
//!
//! # Lanes
//!
//! Simulations schedule most events a fixed delay after "now": the
//! packet dumbbell's pushes are nearly all per-flow propagation delays,
//! its two serialization times or zero delay. Two events pushed with
//! the same delay `d` from a clock that only moves forward are due in
//! push order. So the queue keeps one FIFO *lane* per delay, measured
//! from the time of the last popped event, and appends each push to its
//! delay's lane. A binary heap orders only the lanes' head events, keyed
//! by `(time, seq)`, where `seq` is the push count. A push into a live
//! lane costs an append and no heap work. In the dumbbell the heap
//! holds ~13 lane heads where a plain heap held ~360 events.
//!
//! # Exactness
//!
//! An event joins its delay's lane only if the lane's tail is not later
//! than the event. Its `seq` is larger than every earlier one, so each
//! lane stays sorted by `(time, seq)`. The minimum over the lane heads
//! is therefore the minimum over all pending events, and the queue pops
//! in exactly the `(time, seq)` order of a plain binary heap: earliest
//! time first, ties in push order.
//!
//! # Fallback
//!
//! When the clock moves backwards, an append could break a lane's
//! order. This happens in the streaming engine's span-local calendar,
//! which restarts at time 0 after each span. A push that would land
//! before its lane's tail therefore opens a fresh lane, which takes
//! over the delay's slot in the lane map. The old lane drains through
//! the heap as before.
//!
//! # Memory
//!
//! Events live in one shared slot array; each lane is a linked list of
//! slot indices, threaded through a parallel array of links. Freed
//! slots and emptied lanes are recycled, and the lane map holds only
//! non-empty lanes. Slots, lanes and map entries are each bounded by the
//! peak number of pending events.

use crate::time::SimTime;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// End of a slot list.
const NIL: u32 = u32::MAX;

/// One event's storage: its key and the event itself (`None` while the
/// slot is free). The link to the next slot lives in a separate array,
/// so a slot carries no padding beyond the event's own (for `netsim`
/// events, 128 bytes).
struct Slot<E> {
    time: SimTime,
    seq: u64,
    event: Option<E>,
}

/// A FIFO lane of slots, sorted by `(time, seq)`.
struct Lane {
    head: u32,
    tail: u32,
    /// The lane map key this lane was opened under.
    delay: u64,
}

/// A lane's head event in the heap.
#[derive(Clone, Copy)]
struct Head {
    /// `(time, seq)` packed so one integer comparison orders heads.
    key: u128,
    lane: u32,
}

fn key(time: SimTime, seq: u64) -> u128 {
    (u128::from(time.as_nanos()) << 64) | u128::from(seq)
}

/// Hasher for the lane map's `u64` delay keys: one multiply and a fold
/// of the high half, which spreads nearby delays over both the bucket
/// bits and the tag bits of the table.
#[derive(Default)]
struct DelayHasher(u64);

impl Hasher for DelayHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let h = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }
}

/// A deterministic time-ordered event queue.
///
/// Events scheduled for the same instant pop in the order they were
/// pushed, which keeps simulations reproducible regardless of the
/// queue's internals. See the module docs for the lane design.
pub struct EventQueue<E> {
    slots: Vec<Slot<E>>,
    /// `next[i]`: the slot after slot `i` in its lane or in the free list.
    next: Vec<u32>,
    /// Head of the free-slot list, linked through `next`.
    free_slot: u32,
    lanes: Vec<Lane>,
    free_lanes: Vec<u32>,
    /// Delay (ns after the last popped time, wrapping) → its open lane.
    by_delay: HashMap<u64, u32, BuildHasherDefault<DelayHasher>>,
    /// Binary min-heap of lane heads by `(time, seq)`.
    heap: Vec<Head>,
    /// Time of the last popped event; push delays are measured from it.
    now: SimTime,
    len: usize,
    scheduled_total: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// Empty queue.
    pub fn new() -> EventQueue<E> {
        EventQueue {
            slots: Vec::new(),
            next: Vec::new(),
            free_slot: NIL,
            lanes: Vec::new(),
            free_lanes: Vec::new(),
            by_delay: HashMap::default(),
            heap: Vec::new(),
            now: SimTime::ZERO,
            len: 0,
            scheduled_total: 0,
        }
    }

    /// Schedule `event` at absolute time `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        #[cfg(debug_assertions)]
        if self.scheduled_total.is_power_of_two() {
            self.assert_invariants();
        }
        // The push count doubles as the FIFO tie-break.
        let seq = self.scheduled_total;
        self.scheduled_total += 1;
        self.len += 1;
        let slot = self.alloc_slot(time, seq, event);
        let delay = time.as_nanos().wrapping_sub(self.now.as_nanos());
        if let Some(&lane) = self.by_delay.get(&delay) {
            let tail = self.lanes[lane as usize].tail;
            if self.slots[tail as usize].time <= time {
                debug_assert!(self.slots[tail as usize].seq < seq);
                self.next[tail as usize] = slot;
                self.lanes[lane as usize].tail = slot;
                return;
            }
        }
        let lane = self.open_lane(delay, slot);
        self.by_delay.insert(delay, lane);
        self.heap_push(Head {
            key: key(time, seq),
            lane,
        });
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let top = *self.heap.first()?;
        let lane = top.lane as usize;
        let idx = self.lanes[lane].head;
        let slot = &mut self.slots[idx as usize];
        debug_assert_eq!(
            top.key,
            key(slot.time, slot.seq),
            "heap head is not its lane's front"
        );
        let time = slot.time;
        let event = slot.event.take().expect("lane slot holds an event");
        let next = self.next[idx as usize];
        self.next[idx as usize] = self.free_slot;
        self.free_slot = idx;
        self.len -= 1;
        self.now = time;
        if next != NIL {
            self.lanes[lane].head = next;
            let s = &self.slots[next as usize];
            self.heap[0].key = key(s.time, s.seq);
        } else {
            let delay = self.lanes[lane].delay;
            if self.by_delay.get(&delay) == Some(&top.lane) {
                self.by_delay.remove(&delay);
            }
            self.free_lanes.push(top.lane);
            self.heap.swap_remove(0);
        }
        if self.heap.is_empty() {
            debug_assert_eq!(self.len, 0, "len disagrees with the live slots");
        } else {
            self.sift_down_root();
        }
        Some((time, event))
    }

    /// Time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|h| self.front(h.lane).time)
    }

    /// The earliest pending event without removing it, with its time.
    /// FIFO tie-breaking applies: this is exactly the event the next
    /// [`EventQueue::pop`] would return.
    pub fn peek(&self) -> Option<(SimTime, &E)> {
        self.heap.first().map(|h| {
            let slot = self.front(h.lane);
            (
                slot.time,
                slot.event.as_ref().expect("lane slot holds an event"),
            )
        })
    }

    /// Remove and return the earliest event only if it is due at or
    /// before `t` — the "advance the clock to `t`" primitive hybrid
    /// tick/event drivers drain due events with, leaving the future
    /// calendar untouched.
    pub fn pop_before(&mut self, t: SimTime) -> Option<(SimTime, E)> {
        match self.peek_time() {
            Some(due) if due <= t => self.pop(),
            _ => None,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events ever scheduled (for simulation stats).
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    fn front(&self, lane: u32) -> &Slot<E> {
        &self.slots[self.lanes[lane as usize].head as usize]
    }

    fn alloc_slot(&mut self, time: SimTime, seq: u64, event: E) -> u32 {
        let fresh = Slot {
            time,
            seq,
            event: Some(event),
        };
        if self.free_slot == NIL {
            self.slots.push(fresh);
            self.next.push(NIL);
            u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 pending events")
        } else {
            let idx = self.free_slot;
            self.free_slot = self.next[idx as usize];
            self.next[idx as usize] = NIL;
            self.slots[idx as usize] = fresh;
            idx
        }
    }

    fn open_lane(&mut self, delay: u64, slot: u32) -> u32 {
        let lane = Lane {
            head: slot,
            tail: slot,
            delay,
        };
        match self.free_lanes.pop() {
            Some(idx) => {
                self.lanes[idx as usize] = lane;
                idx
            }
            None => {
                self.lanes.push(lane);
                (self.lanes.len() - 1) as u32
            }
        }
    }

    fn heap_push(&mut self, head: Head) {
        let mut i = self.heap.len();
        self.heap.push(head);
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent].key <= head.key {
                break;
            }
            self.heap[i] = self.heap[parent];
            i = parent;
        }
        self.heap[i] = head;
    }

    /// Restore heap order after the root's key grew or the root was
    /// replaced by the last element.
    fn sift_down_root(&mut self) {
        let n = self.heap.len();
        let moving = self.heap[0];
        let mut i = 0;
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let child = if right < n && self.heap[right].key < self.heap[left].key {
                right
            } else {
                left
            };
            if moving.key <= self.heap[child].key {
                break;
            }
            self.heap[i] = self.heap[child];
            i = child;
        }
        self.heap[i] = moving;
    }

    /// Check every structural invariant: each lane sorted by
    /// `(time, seq)`, each heap entry equal to its lane's front and
    /// in heap order, the lane map pointing at live lanes, and `len`
    /// equal to the number of live slots. O(pending): debug builds run it
    /// at exponentially spaced pushes, tests wherever they like.
    #[cfg(any(test, debug_assertions))]
    fn assert_invariants(&self) {
        let mut live = 0;
        for (i, h) in self.heap.iter().enumerate() {
            if i > 0 {
                assert!(self.heap[(i - 1) / 2].key <= h.key, "heap order");
            }
            let lane = &self.lanes[h.lane as usize];
            assert_eq!(h.key, key(self.front(h.lane).time, self.front(h.lane).seq));
            let mut at = lane.head;
            let mut prev: Option<u128> = None;
            loop {
                let s = &self.slots[at as usize];
                assert!(s.event.is_some(), "lane slot is live");
                let k = key(s.time, s.seq);
                assert!(prev.is_none_or(|p| p < k), "lane sorted");
                prev = Some(k);
                live += 1;
                if at == lane.tail {
                    assert_eq!(self.next[at as usize], NIL, "tail ends the lane");
                    break;
                }
                at = self.next[at as usize];
            }
        }
        assert_eq!(live, self.len, "len equals the live slot count");
        assert_eq!(
            self.slots.iter().filter(|s| s.event.is_some()).count(),
            self.len
        );
        for &lane in self.by_delay.values() {
            assert!(
                self.heap.iter().any(|h| h.lane == lane),
                "mapped lane is live"
            );
        }
        assert_eq!(self.heap.len() + self.free_lanes.len(), self.lanes.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        let t = |s| SimTime::ZERO + SimDuration::from_secs(s);
        q.push(t(3), "c");
        q.push(t(1), "a");
        q.push(t(2), "b");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(42);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        let t = |n| SimTime::from_nanos(n);
        q.push(t(10), 1);
        q.push(t(5), 0);
        assert_eq!(q.pop().unwrap().1, 0);
        q.push(t(7), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 1);
    }

    #[test]
    fn peek_time_matches_pop() {
        let mut q = EventQueue::new();
        assert!(q.peek_time().is_none());
        q.push(SimTime::from_nanos(9), ());
        q.push(SimTime::from_nanos(3), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(3)));
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_nanos(3));
    }

    #[test]
    fn counters_track_activity() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::ZERO, ());
        q.push(SimTime::ZERO, ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_total(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.scheduled_total(), 2);
    }

    /// Same-delay pushes share one lane; the heap holds only lane heads.
    #[test]
    fn equal_delays_share_a_lane() {
        let mut q = EventQueue::new();
        for i in 0..10u64 {
            q.push(SimTime::from_nanos(100 + i), i);
        }
        // Ten different delays from time 0: ten lanes.
        assert_eq!(q.heap.len(), 10);
        q.pop();
        // The clock is at 100: delay 50 from here, twice.
        q.push(SimTime::from_nanos(150), 10);
        q.push(SimTime::from_nanos(150), 11);
        assert_eq!(q.heap.len(), 10);
        q.assert_invariants();
    }

    /// A push that would land before its lane's tail opens a fresh lane
    /// (the clock went backwards), and both lanes drain in order.
    #[test]
    fn backwards_clock_opens_a_fresh_lane() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(1_000), 0);
        q.pop();
        // Delay 10 from 1000.
        q.push(SimTime::from_nanos(1_010), 1);
        // Below the clock: wraps to a huge delay key, its own lane.
        q.push(SimTime::from_nanos(5), 2);
        assert_eq!(q.pop().unwrap(), (SimTime::from_nanos(5), 2));
        // The clock is now 5, so a push at 15 has delay 10 like event 1,
        // but it is earlier than that lane's tail (1010).
        q.push(SimTime::from_nanos(15), 3);
        q.assert_invariants();
        assert_eq!(q.heap.len(), 2, "fresh lane for the same delay");
        assert_eq!(q.pop().unwrap(), (SimTime::from_nanos(15), 3));
        assert_eq!(q.pop().unwrap(), (SimTime::from_nanos(1_010), 1));
        assert!(q.pop().is_none());
        q.assert_invariants();
        assert!(q.by_delay.is_empty());
    }

    /// After heavy churn, lanes and slots never outnumber the peak
    /// pending count, and the lane map holds only live lanes.
    #[test]
    fn storage_bounded_by_peak_pending() {
        let mut q = EventQueue::new();
        let mut rng = crate::rng::SimRng::new(3);
        let mut peak = 0;
        let mut now = 0u64;
        for step in 0..200_000u32 {
            // Random-walk the pending count between 0 and a few hundred.
            let target = if (step / 5_000) % 2 == 0 { 400 } else { 20 };
            let push = rng.below(1_000) < if q.len() < target { 600 } else { 400 };
            if push {
                let delay = match rng.below(4) {
                    0 => rng.below(1_000_000),
                    1 => 0,
                    _ => 10_000 * (1 + rng.below(10)),
                };
                q.push(SimTime::from_nanos(now + delay), step);
            } else if let Some((t, _)) = q.pop() {
                now = t.as_nanos();
            }
            peak = peak.max(q.len());
            assert!(
                q.slots.len() <= peak,
                "slots {} > peak {peak}",
                q.slots.len()
            );
            assert!(
                q.lanes.len() <= peak,
                "lanes {} > peak {peak}",
                q.lanes.len()
            );
            assert!(q.by_delay.len() <= q.len());
            if step % 4_096 == 0 {
                q.assert_invariants();
            }
        }
        while q.pop().is_some() {}
        q.assert_invariants();
        assert!(q.by_delay.is_empty());
        assert!(q.heap.is_empty());
        assert!(peak > 300, "the churn reached a real peak ({peak})");
    }

    mod properties {
        //! Property tests for the determinism contract: the queue drains
        //! as a *stable* sort by time — events at equal instants pop in
        //! push order, under any interleaving of pushes and pops. The
        //! hybrid engine's within-tick ordering (hour flush before
        //! arrivals) rides on exactly this guarantee.
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Draining a batch of pushes yields the stable time-sort of
            /// the inputs. Times are drawn from a tiny range so nearly
            /// every case exercises duplicate timestamps.
            #[test]
            fn drain_is_stable_time_sort(times in prop::collection::vec(0u64..8, 1..200)) {
                let mut q = EventQueue::new();
                for (i, &t) in times.iter().enumerate() {
                    q.push(SimTime::from_nanos(t), i);
                }
                q.assert_invariants();
                let mut expect: Vec<(u64, usize)> =
                    times.iter().copied().enumerate().map(|(i, t)| (t, i)).collect();
                // `sort_by_key` is stable: ties keep push order, which is
                // the queue's documented FIFO tie-break.
                expect.sort_by_key(|&(t, _)| t);
                prop_assert_eq!(q.len(), expect.len());
                for &(t, i) in &expect {
                    let (pt, pi) = q.pop().unwrap();
                    prop_assert_eq!(pt, SimTime::from_nanos(t));
                    prop_assert_eq!(pi, i);
                }
                prop_assert!(q.pop().is_none());
                prop_assert_eq!(q.scheduled_total(), times.len() as u64);
            }

            /// Interleaved pushes and pops match a model that re-sorts
            /// (stably) on every pop: a pop mid-stream returns the
            /// earliest (time, push-seq) among events pushed *so far*,
            /// and later pushes at the same instant never jump ahead.
            #[test]
            fn interleaved_push_pop_matches_model(
                ops in prop::collection::vec((0u64..8, prop::bool::weighted(0.4)), 1..200),
            ) {
                let mut q = EventQueue::new();
                let mut model: Vec<(u64, usize)> = Vec::new();
                let mut seq = 0usize;
                for &(t, is_pop) in &ops {
                    if is_pop {
                        let got = q.pop();
                        if model.is_empty() {
                            prop_assert!(got.is_none());
                        } else {
                            let best = *model
                                .iter()
                                .min_by_key(|&&(bt, bs)| (bt, bs))
                                .unwrap();
                            model.retain(|&e| e != best);
                            let (pt, ps) = got.unwrap();
                            prop_assert_eq!(pt, SimTime::from_nanos(best.0));
                            prop_assert_eq!(ps, best.1);
                        }
                    } else {
                        q.push(SimTime::from_nanos(t), seq);
                        model.push((t, seq));
                        seq += 1;
                    }
                    q.assert_invariants();
                    match q.peek() {
                        Some((pt, &pe)) => {
                            let &(bt, bs) =
                                model.iter().min_by_key(|&&(bt, bs)| (bt, bs)).unwrap();
                            prop_assert_eq!(pt, SimTime::from_nanos(bt));
                            prop_assert_eq!(pe, bs);
                        }
                        None => prop_assert!(model.is_empty()),
                    }
                }
            }

            /// `pop_before(t)` drains exactly the due prefix: every event
            /// at or before `t` in stable order, and never one after it.
            #[test]
            fn pop_before_respects_bound(
                times in prop::collection::vec(0u64..16, 1..100),
                bound in 0u64..16,
            ) {
                let mut q = EventQueue::new();
                for (i, &t) in times.iter().enumerate() {
                    q.push(SimTime::from_nanos(t), i);
                }
                let cut = SimTime::from_nanos(bound);
                let mut due: Vec<(u64, usize)> = times
                    .iter()
                    .copied()
                    .enumerate()
                    .filter(|&(_, t)| t <= bound)
                    .map(|(i, t)| (t, i))
                    .collect();
                due.sort_by_key(|&(t, _)| t);
                for &(t, i) in &due {
                    let (pt, pi) = q.pop_before(cut).unwrap();
                    prop_assert_eq!(pt, SimTime::from_nanos(t));
                    prop_assert_eq!(pi, i);
                }
                prop_assert!(q.pop_before(cut).is_none());
                prop_assert_eq!(q.len(), times.len() - due.len());
                q.assert_invariants();
            }
        }
    }
}
