//! The TCP model: sender/receiver state machines, congestion control
//! algorithms, RTT estimation and pacing.
//!
//! The transport model is deliberately scoped to what bulk transfers over
//! a congested bottleneck exercise: MSS-sized segments, cumulative ACKs,
//! duplicate-ACK fast retransmit, NewReno partial-ACK recovery, RTO with
//! exponential backoff (go-back-N on timeout), Karn's rule for RTT
//! sampling. SACK, delayed ACKs, ECN and flow control are out of scope —
//! none of the paper's lab effects depend on them.

pub mod bbr;
pub mod cc;
pub mod cubic;
pub mod pacing;
pub mod receiver;
#[cfg(test)]
mod receiver_reference;
pub mod reno;
pub mod rtt;
mod scoreboard;
pub mod sender;

pub use cc::{AckEvent, CongestionControl};
pub use receiver::Receiver;
pub use sender::Sender;
