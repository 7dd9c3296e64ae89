//! Sender scoreboard structures whose per-ACK cost does not grow with the
//! window.
//!
//! * [`SackBitmap`]: the SACKed segments above the cumulative ACK point,
//!   as a circular bitmap plus a count and the highest SACKed sequence.
//!   Inserting a SACK block touches one word per 64 segments and visits
//!   only the bits it newly sets; pruning below a new cumulative ACK
//!   clears whole words and counts what it cleared with `popcount`.
//! * [`RetxFifo`]: retransmitted segments in send order. Send times never
//!   decrease, so the retransmissions older than a reordering window are
//!   always a prefix. Entries that stop mattering (SACKed, cumulatively
//!   acknowledged) are not searched for and removed; the owner's liveness
//!   test skips them when they reach the front.

use dessim::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Bits per bitmap word.
const WORD: u64 = 64;
/// Initial bitmap capacity in segments (grows by doubling).
const INITIAL_BITS: u64 = 256;

/// SACKed sequence numbers in `[base, base + capacity)`, stored at bit
/// `seq mod capacity` of a power-of-two ring of words.
#[derive(Debug, Clone)]
pub(crate) struct SackBitmap {
    words: Vec<u64>,
    /// Lowest sequence the bitmap can hold (the cumulative ACK point).
    base: u64,
    /// Number of set bits.
    count: u64,
    /// Highest set sequence, `None` when empty.
    highest: Option<u64>,
}

impl Default for SackBitmap {
    fn default() -> Self {
        SackBitmap {
            words: vec![0; (INITIAL_BITS / WORD) as usize],
            base: 0,
            count: 0,
            highest: None,
        }
    }
}

impl SackBitmap {
    fn capacity(&self) -> u64 {
        self.words.len() as u64 * WORD
    }

    /// Word index and in-word bit of `seq`.
    fn slot(&self, seq: u64) -> (usize, u32) {
        let pos = seq & (self.capacity() - 1);
        ((pos / WORD) as usize, (pos % WORD) as u32)
    }

    /// The lowest sequence the bitmap can hold.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Number of SACKed segments.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Highest SACKed sequence.
    pub fn highest(&self) -> Option<u64> {
        self.highest
    }

    /// Whether `seq` is SACKed.
    pub fn contains(&self, seq: u64) -> bool {
        if seq < self.base || seq - self.base >= self.capacity() {
            return false;
        }
        let (w, b) = self.slot(seq);
        self.words[w] >> b & 1 == 1
    }

    /// Grow (by doubling) until `seq` fits, re-placing every set bit.
    fn reserve(&mut self, seq: u64) {
        let need = seq - self.base + 1;
        if need <= self.capacity() {
            return;
        }
        let cap = need.next_power_of_two().max(2 * self.capacity());
        let old = std::mem::replace(&mut self.words, vec![0; (cap / WORD) as usize]);
        let old_cap = old.len() as u64 * WORD;
        // Old position p holds the sequence base + ((p - base) mod old_cap).
        let shift = old_cap - (self.base & (old_cap - 1));
        for (w, &word) in old.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let p = w as u64 * WORD + bits.trailing_zeros() as u64;
                let seq = self.base + ((p + shift) & (old_cap - 1));
                let (nw, nb) = self.slot(seq);
                self.words[nw] |= 1 << nb;
                bits &= bits - 1;
            }
        }
    }

    /// SACK every sequence in `[start, end)` (`start >= base`), calling
    /// `on_new` once for each sequence that was not already SACKed.
    pub fn insert_range(&mut self, start: u64, end: u64, mut on_new: impl FnMut(u64)) {
        if start >= end {
            return;
        }
        debug_assert!(start >= self.base, "SACK below the cumulative point");
        self.reserve(end - 1);
        for (w, mask, word_start) in word_spans(self.capacity(), start, end) {
            let mut fresh = mask & !self.words[w];
            self.words[w] |= mask;
            self.count += fresh.count_ones() as u64;
            while fresh != 0 {
                on_new(word_start + fresh.trailing_zeros() as u64);
                fresh &= fresh - 1;
            }
        }
        self.highest = Some(self.highest.map_or(end - 1, |h| h.max(end - 1)));
    }

    /// Move the base up to `new_base`, dropping every SACKed sequence
    /// below it. Returns how many were dropped.
    pub fn advance(&mut self, new_base: u64) -> u64 {
        if new_base <= self.base {
            return 0;
        }
        let dropped = if new_base - self.base >= self.capacity() {
            self.words.fill(0);
            self.count
        } else {
            let mut dropped = 0;
            for (w, mask, _) in word_spans(self.capacity(), self.base, new_base) {
                dropped += (self.words[w] & mask).count_ones() as u64;
                self.words[w] &= !mask;
            }
            dropped
        };
        self.base = new_base;
        self.count -= dropped;
        if self.count == 0 {
            self.highest = None;
        }
        dropped
    }

    /// The ring invariants: the count is the popcount, and the highest
    /// SACKed sequence is in range.
    pub fn debug_check(&self) {
        debug_assert_eq!(
            self.count,
            self.words
                .iter()
                .map(|w| w.count_ones() as u64)
                .sum::<u64>(),
            "SACK count out of step with the bitmap"
        );
        debug_assert!(self.highest.is_none_or(|h| self.contains(h)));
    }
}

/// The pieces of `[start, end)` that fall in one word of a ring of
/// `capacity` bits: word index, mask of the piece's bits, and the
/// sequence that bit 0 of the word stands for.
fn word_spans(capacity: u64, start: u64, end: u64) -> impl Iterator<Item = (usize, u64, u64)> {
    let mut s = start;
    std::iter::from_fn(move || {
        if s >= end {
            return None;
        }
        // `s` up to the next multiple of 64, or `end`.
        let e = end.min((s | (WORD - 1)) + 1);
        let lo = s % WORD;
        let n = e - s;
        let mask = if n == WORD {
            !0
        } else {
            ((1u64 << n) - 1) << lo
        };
        let w = ((s & (capacity - 1)) / WORD) as usize;
        let span = (w, mask, s - lo);
        s = e;
        Some(span)
    })
}

/// Retransmitted segments in send order (see the module docs).
#[derive(Debug, Clone, Default)]
pub(crate) struct RetxFifo {
    sent: VecDeque<(u64, SimTime)>,
}

impl RetxFifo {
    /// Record that `seq` was retransmitted at `at`.
    pub fn push(&mut self, seq: u64, at: SimTime) {
        debug_assert!(
            self.sent.back().is_none_or(|&(_, t)| t <= at),
            "retransmission times must not decrease"
        );
        self.sent.push_back((seq, at));
    }

    /// Forget every entry.
    pub fn clear(&mut self) {
        self.sent.clear();
    }

    /// Remove the live entries retransmitted more than `reo_wnd` before
    /// `now`, calling `on_expired` for each in send order. `is_live` says
    /// whether an entry still counts; dead entries met on the way are
    /// discarded.
    pub fn drain_expired(
        &mut self,
        now: SimTime,
        reo_wnd: SimDuration,
        is_live: impl Fn(u64) -> bool,
        mut on_expired: impl FnMut(u64),
    ) {
        while let Some(&(seq, at)) = self.sent.front() {
            if is_live(seq) {
                if now.since(at.min(now)) <= reo_wnd {
                    break;
                }
                on_expired(seq);
            }
            self.sent.pop_front();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn bitmap_grows_past_initial_capacity_and_wraps() {
        let mut b = SackBitmap::default();
        b.advance(200);
        let mut fresh = Vec::new();
        b.insert_range(250, 270, |s| fresh.push(s));
        b.insert_range(900, 1000, |s| fresh.push(s));
        assert_eq!(fresh.len(), 120);
        assert_eq!(b.len(), 120);
        assert_eq!(b.highest(), Some(999));
        assert!(b.contains(250) && b.contains(269) && !b.contains(270));
        assert_eq!(b.advance(260), 10);
        assert_eq!(b.advance(5000), 110);
        assert_eq!((b.len(), b.highest()), (0, None));
    }

    #[test]
    fn fifo_skips_dead_entries_and_stops_at_fresh_ones() {
        let mut f = RetxFifo::default();
        let t = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
        f.push(1, t(0));
        f.push(2, t(1));
        f.push(3, t(10));
        let mut out = Vec::new();
        f.drain_expired(
            t(12),
            SimDuration::from_millis(5),
            |s| s != 1,
            |s| out.push(s),
        );
        assert_eq!(out, vec![2]);
        assert_eq!(f.sent.len(), 1, "seq 3 is live and fresh");
    }

    /// One scripted bitmap operation; offsets are relative to the base.
    #[derive(Debug, Clone)]
    enum BitOp {
        Insert { lo: u64, len: u64 },
        Contains(u64),
        Advance(u64),
    }

    fn bit_op() -> impl Strategy<Value = BitOp> {
        (0usize..3, 0u64..1500, 0u64..300).prop_map(|(kind, a, b)| match kind {
            0 => BitOp::Insert { lo: a, len: b },
            1 => BitOp::Contains(a),
            _ => BitOp::Advance(a % 400),
        })
    }

    #[derive(Debug, Clone)]
    enum FifoOp {
        /// Retransmit the segment `pick` indexes among the idle ones.
        Push(usize),
        /// The segment `pick` indexes among the live ones is SACKed.
        Kill(usize),
        /// A lost-retransmission check after `dt` ms with this window.
        Expire {
            dt: u64,
            wnd: u64,
        },
        Clear,
    }

    fn fifo_op() -> impl Strategy<Value = FifoOp> {
        (0usize..20, 0usize..64, 0u64..30, 1u64..40).prop_map(|(kind, pick, dt, wnd)| match kind {
            0..=8 => FifoOp::Push(pick),
            9..=12 => FifoOp::Kill(pick),
            13..=18 => FifoOp::Expire { dt, wnd },
            _ => FifoOp::Clear,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The bitmap agrees with a `BTreeSet` on every membership,
        /// count, highest element and pruned-range count.
        #[test]
        fn bitmap_matches_btreeset(ops in prop::collection::vec(bit_op(), 1..120)) {
            let mut b = SackBitmap::default();
            let mut model = BTreeSet::new();
            for op in ops {
                let base = b.base();
                match op {
                    BitOp::Insert { lo, len } => {
                        let mut fresh = Vec::new();
                        b.insert_range(base + lo, base + lo + len, |s| fresh.push(s));
                        let want: Vec<u64> =
                            (base + lo..base + lo + len).filter(|&s| model.insert(s)).collect();
                        prop_assert_eq!(fresh, want);
                    }
                    BitOp::Contains(off) => {
                        prop_assert_eq!(b.contains(base + off), model.contains(&(base + off)));
                        if base > 0 {
                            prop_assert!(!b.contains(base - 1));
                        }
                    }
                    BitOp::Advance(d) => {
                        let want = model.range(base..base + d).count() as u64;
                        prop_assert_eq!(b.advance(base + d), want);
                        model = model.split_off(&(base + d));
                    }
                }
                prop_assert_eq!(b.len(), model.len() as u64);
                prop_assert_eq!(b.highest(), model.iter().next_back().copied());
                b.debug_check();
            }
        }

        /// The FIFO's expired set equals the full scan of a
        /// `BTreeMap<seq, sent>` model, when (as in the sender) a segment
        /// that stops being live never becomes live again unless it left
        /// through expiry or a clear.
        #[test]
        fn fifo_expiry_matches_full_scan(ops in prop::collection::vec(fifo_op(), 1..150)) {
            let mut f = RetxFifo::default();
            let mut model: BTreeMap<u64, SimTime> = BTreeMap::new();
            let mut dead = BTreeSet::new();
            let mut now = SimTime::ZERO;
            for op in ops {
                match op {
                    FifoOp::Push(pick) => {
                        let idle: Vec<u64> = (0..64)
                            .filter(|s| !model.contains_key(s) && !dead.contains(s))
                            .collect();
                        if let Some(&seq) = idle.get(pick % idle.len().max(1)) {
                            f.push(seq, now);
                            model.insert(seq, now);
                        }
                    }
                    FifoOp::Kill(pick) => {
                        let live: Vec<u64> = model.keys().copied().collect();
                        if let Some(&seq) = live.get(pick % live.len().max(1)) {
                            model.remove(&seq);
                            dead.insert(seq);
                        }
                    }
                    FifoOp::Expire { dt, wnd } => {
                        now += SimDuration::from_millis(dt);
                        let wnd = SimDuration::from_millis(wnd);
                        let want: Vec<u64> = model
                            .iter()
                            .filter(|&(_, &t)| now.since(t.min(now)) > wnd)
                            .map(|(&s, _)| s)
                            .collect();
                        let mut got = Vec::new();
                        f.drain_expired(now, wnd, |s| model.contains_key(&s), |s| got.push(s));
                        got.sort_unstable();
                        prop_assert_eq!(&got, &want);
                        for s in got {
                            model.remove(&s);
                        }
                    }
                    FifoOp::Clear => {
                        f.clear();
                        model.clear();
                    }
                }
            }
        }
    }
}
