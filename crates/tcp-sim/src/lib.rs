//! # tcp-sim — a userspace TCP-like transport on the netsim simulator
//!
//! A byte-accurate, deterministic transport model implementing the sender
//! machinery SUSS lives in: cwnd-driven transmission with pluggable
//! congestion control, ACK clocking, token-bucket pacing, RFC 6298 RTT/RTO,
//! fast retransmit with a SACK scoreboard, and NewReno-style recovery.
//!
//! The congestion-control interface ([`cc::CongestionControl`]) mirrors the
//! controller traits of userspace QUIC stacks (e.g. quinn), which is the
//! reproduction target suggested for this paper: SUSS is implemented
//! against this trait in the `cc-algos` crate and could be dropped into a
//! real QUIC implementation with the same shape.
//!
//! ## Example
//!
//! ```
//! use netsim::{Sim, Bandwidth, LinkSpec, FlowId, SimTime};
//! use tcp_sim::flow::{install_flow, wire_flow};
//! use tcp_sim::sender::{SenderConfig, SenderEndpoint};
//! use tcp_sim::cc::BasicSlowStart;
//! use std::time::Duration;
//!
//! let mut sim = Sim::new(7);
//! let ends = install_flow(
//!     &mut sim,
//!     FlowId(1),
//!     SenderConfig::bulk(100_000),
//!     Box::new(BasicSlowStart::new(14_480, 1_448)),
//! );
//! // Direct back-to-back links (no router) for a smoke test.
//! let spec = LinkSpec::clean(Bandwidth::from_mbps(10), Duration::from_millis(10));
//! let (s2r, r2s) = sim.add_link(ends.sender, ends.receiver, spec.clone(), spec);
//! wire_flow(&mut sim, ends, s2r, r2s);
//! sim.run_until(SimTime::from_secs(10));
//! assert!(sim.agent::<SenderEndpoint>(ends.sender).is_done());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cc;
pub mod flow;
pub mod ranges;
pub mod receiver;
pub mod rtt;
pub mod segment;
pub mod sender;
pub mod trace;

pub use cc::{AckView, CongestionControl, LossKind, LossView};
pub use flow::{flow_complete, install_flow, wire_flow, FlowEnds};
pub use ranges::{ByteRange, RangeSet};
pub use receiver::ReceiverEndpoint;
pub use rtt::RttEstimator;
pub use segment::{AckSeg, DataSeg};
pub use sender::{SenderConfig, SenderEndpoint};
pub use trace::{ConnTrace, FlowStats, TraceEvent, TraceSample};
