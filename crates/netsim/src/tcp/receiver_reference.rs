//! A receiver that keeps its out-of-order intervals in a `BTreeMap`:
//! the direct implementation, kept as the reference model that the
//! property tests in `receiver.rs` compare the sorted-ring receiver
//! against.

use super::receiver::AckDecision;
use crate::packet::{Ack, FlowId, Packet, SackBlock, MAX_SACK_BLOCKS};
use dessim::SimTime;
use std::collections::BTreeMap;

/// Per-flow receiver state with GRO-style ACK aggregation; same contract
/// as [`super::Receiver`].
#[derive(Debug)]
pub struct BTreeReceiver {
    flow: FlowId,
    rcv_next: u64,
    /// Out-of-order data as disjoint, non-adjacent intervals
    /// `start → end` (end exclusive), all above `rcv_next`.
    ranges: BTreeMap<u64, u64>,
    /// ACK every `aggregation` in-order segments (1 = every segment).
    aggregation: u32,
    /// In-order segments received since the last ACK.
    pending: u32,
    /// Metadata of the most recent pending segment (for ACK echo fields).
    pending_last: Option<(u64, SimTime, bool)>,
    /// Segments received more than once (diagnostics).
    pub duplicate_segments: u64,
}

impl BTreeReceiver {
    /// New receiver ACKing every `aggregation` in-order segments.
    pub fn with_aggregation(flow: FlowId, aggregation: u32) -> BTreeReceiver {
        BTreeReceiver {
            flow,
            rcv_next: 0,
            ranges: BTreeMap::new(),
            aggregation: aggregation.max(1),
            pending: 0,
            pending_last: None,
            duplicate_segments: 0,
        }
    }

    /// Next expected segment (everything below is delivered).
    pub fn rcv_next(&self) -> u64 {
        self.rcv_next
    }

    /// Number of buffered out-of-order segments.
    pub fn buffered(&self) -> usize {
        self.ranges.iter().map(|(s, e)| (e - s) as usize).sum()
    }

    /// Insert `seq` into the out-of-order interval set.
    /// Returns `false` if it was already present.
    fn insert_ooo(&mut self, seq: u64) -> bool {
        // Find the closest range starting at or before seq.
        if let Some((&start, &end)) = self.ranges.range(..=seq).next_back() {
            if seq < end {
                return false; // duplicate
            }
            if seq == end {
                // Extend this range rightward, possibly merging the next.
                let mut new_end = end + 1;
                if let Some(&next_end) = self.ranges.get(&new_end) {
                    self.ranges.remove(&new_end);
                    new_end = next_end;
                }
                self.ranges.insert(start, new_end);
                return true;
            }
        }
        // seq starts a new range or prepends the following one.
        let mut new_end = seq + 1;
        if let Some(&next_end) = self.ranges.get(&new_end) {
            self.ranges.remove(&new_end);
            new_end = next_end;
        }
        self.ranges.insert(seq, new_end);
        true
    }

    /// Build SACK blocks: the range containing `for_seq` first, then the
    /// highest ranges.
    fn sack_blocks(&self, for_seq: u64) -> [Option<SackBlock>; MAX_SACK_BLOCKS] {
        let mut blocks: [Option<SackBlock>; MAX_SACK_BLOCKS] = [None; MAX_SACK_BLOCKS];
        let mut n = 0;
        // Triggering range first (RFC 2018: most recent info first).
        let trigger = self
            .ranges
            .range(..=for_seq)
            .next_back()
            .filter(|&(_, &end)| for_seq < end)
            .map(|(&s, &e)| SackBlock { start: s, end: e });
        if let Some(b) = trigger {
            blocks[n] = Some(b);
            n += 1;
        }
        for (&s, &e) in self.ranges.iter().rev() {
            if n == MAX_SACK_BLOCKS {
                break;
            }
            if trigger.is_some_and(|t| t.start == s) {
                continue;
            }
            blocks[n] = Some(SackBlock { start: s, end: e });
            n += 1;
        }
        blocks
    }

    fn build_ack(&self, for_seq: u64, sent_at: SimTime, is_retx: bool) -> Ack {
        Ack {
            flow: self.flow,
            cum_ack: self.rcv_next,
            for_seq,
            sacks: self.sack_blocks(for_seq),
            // Karn's rule: never sample RTT from retransmitted segments.
            echo_sent_at: if is_retx { None } else { Some(sent_at) },
        }
    }

    /// Process an arriving data segment.
    pub fn on_segment(&mut self, pkt: &Packet) -> AckDecision {
        debug_assert_eq!(pkt.flow, self.flow, "segment routed to wrong receiver");
        let mut out_of_order = false;
        if pkt.seq == self.rcv_next {
            self.rcv_next += 1;
            // Swallow a now-contiguous buffered range, if any.
            if let Some(&end) = self.ranges.get(&self.rcv_next) {
                self.ranges.remove(&self.rcv_next);
                self.rcv_next = end;
            }
        } else if pkt.seq > self.rcv_next {
            out_of_order = true;
            if !self.insert_ooo(pkt.seq) {
                self.duplicate_segments += 1;
            }
        } else {
            // Below the cumulative point: a spurious retransmission.
            out_of_order = true;
            self.duplicate_segments += 1;
        }

        // Immediate ACK when: feedback is urgent (out-of-order data or
        // open holes), or the aggregation quota is reached.
        self.pending += 1;
        let urgent = out_of_order || !self.ranges.is_empty();
        if urgent || self.pending >= self.aggregation {
            self.pending = 0;
            self.pending_last = None;
            AckDecision {
                ack: Some(self.build_ack(pkt.seq, pkt.sent_at, pkt.is_retx)),
                want_flush_timer: false,
            }
        } else {
            self.pending_last = Some((pkt.seq, pkt.sent_at, pkt.is_retx));
            AckDecision {
                ack: None,
                want_flush_timer: true,
            }
        }
    }

    /// Flush a withheld aggregated ACK (delayed-ACK timer fired).
    pub fn flush(&mut self) -> Option<Ack> {
        if self.pending == 0 {
            return None;
        }
        let (seq, sent_at, is_retx) = self.pending_last.take()?;
        self.pending = 0;
        Some(self.build_ack(seq, sent_at, is_retx))
    }
}
