//! # quic-sim — a QUIC-like message-oriented transport on `netsim`
//!
//! The second transport of the SUSS reproduction, beside `tcp-sim`. Its
//! purpose is twofold:
//!
//! 1. **Prove SUSS's information requirements.** The paper claims SUSS
//!    ports to userspace QUIC congestion control. Here every controller
//!    in `cc-algos` — CUBIC, CUBIC+SUSS, the BBR family — attaches
//!    through the quinn-shaped [`cc_algos::QuicController`] interface
//!    only (byte counts and times, no TCP sequence numbers), and drives
//!    a transport with *no cumulative sequence space at all*.
//! 2. **Reproduce the pacing-strategy matrix.** Real QUIC stacks differ
//!    in how they *space* departures (per-packet, burst-N, chunked
//!    interval timers — the "QUIC Steps" comparison), and that choice
//!    interacts with slow-start acceleration. [`PacingStrategy`] reifies
//!    the three shapes; the `ext_quic_pacing` campaign crosses them with
//!    {CUBIC, CUBIC+SUSS} on {4G, wired} paths.
//!
//! Architecture (one module per mechanism, mirroring `tcp-sim`):
//!
//! * [`frames`] — typed payloads with modeled wire sizes: data packets
//!   (packet number + stream chunk) and ACK frames with packet-number
//!   ranges.
//! * [`loss`] — RFC 9002-style loss detection (packet threshold + time
//!   threshold) feeding a NAK-style retransmission list, plus PTO support
//!   in the sender.
//! * [`pacing`] — the pluggable [`PacingStrategy`] layered over the
//!   transport-neutral [`suss_core::Pacer`].
//! * [`sender`] / [`receiver`] — the endpoint agents; [`flow`] wires a
//!   pair into a [`netsim::Sim`].
//!
//! Telemetry reuses the TCP transport's `ConnTrace` schema and registers
//! `quic.*` counters in the shared `simtrace` catalogue, so `suss-trace`
//! tooling, the CC decision trace, and the flight recorder work on both
//! transports without translation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod flow;
pub mod frames;
pub mod loss;
pub mod pacing;
pub mod receiver;
pub mod sender;

pub use flow::{
    install_quic_flow, quic_flow_complete, teardown_quic_flow, wire_quic_flow, QuicFlowEnds,
};
pub use frames::{AckRanges, QuicAckPkt, QuicDataPkt, MAX_ACK_RANGES};
pub use loss::{loss_delay, AckOutcome, LossDetector, SentPacket, PACKET_THRESHOLD};
pub use pacing::{PacingStrategy, QuicPacer};
pub use receiver::QuicReceiver;
pub use sender::{QuicConfig, QuicFlowStats, QuicSender};
