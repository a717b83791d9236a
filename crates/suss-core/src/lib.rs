//! # suss-core — SUSS: Speeding Up Slow-Start (SIGCOMM 2024)
//!
//! A transport-agnostic implementation of SUSS, the sender-side add-on to
//! TCP slow-start from *"SUSS: Improving TCP Performance by Speeding Up
//! Slow-Start"* (Arghavani et al., ACM SIGCOMM 2024).
//!
//! SUSS predicts — from the current round's blue (ACK-clocked) ACK train
//! and RTT trend — whether exponential cwnd growth will persist into the
//! next round, and if so accelerates the current round's growth factor
//! from 2 up to `2^(k_max+1)` (4 by default). The extra data is *paced*
//! inside a guarded window so that neither the next round's ACK-train
//! measurement nor HyStart's exit logic is disturbed.
//!
//! This crate contains only the algorithm:
//!
//! * [`growth`] — Conditions 1 & 2 and the growth-factor search
//!   (Eqs. 6/8, 17/19; Algorithm 1 generalization),
//! * [`schedule`] — the clocking/pacing split, guard intervals, and
//!   pacing rate (Eqs. 9–12, Lemma 1),
//! * [`rounds`] — sequence-number round delimiting and blue/red
//!   accounting (§5),
//! * [`suss`] — the per-connection state machine combining the above
//!   with the modified HyStart of Fig. 8.
//!
//! Integrations live elsewhere: `cc-algos` couples this state machine to
//! a CUBIC controller for the `tcp-sim` transport and exposes a
//! quinn-style controller adapter for userspace QUIC stacks.
//!
//! ## Example: driving the state machine by hand
//!
//! ```
//! use suss_core::{Suss, SussConfig, AckEvent};
//! use std::time::Duration;
//!
//! let iw = 10 * 1448u64;
//! let mut suss = Suss::new(SussConfig::default(), 0, 0, iw);
//!
//! // First ACK of round 2 arrives 100 ms in, acking the first segment.
//! let out = suss.on_ack(AckEvent {
//!     now: 100_000_000,
//!     ack_seq: 1448,
//!     rtt: Some(Duration::from_millis(100)),
//!     cwnd: iw + 1448,
//!     snd_nxt: iw,
//! });
//! assert!(out.start_pacing.is_none()); // blue train not complete yet
//! assert_eq!(suss.round(), 2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod growth;
pub mod pacer;
pub mod rounds;
pub mod schedule;
pub mod suss;

pub use config::SussConfig;
pub use growth::{
    condition1, condition2, growth_factor, growth_factor_algorithm1_literal, GrowthInputs,
};
pub use pacer::{packet_interval, Pacer};
pub use rounds::{AckObservation, Nanos, RoundSnapshot, RoundTracker};
pub use schedule::{estimate_ack_train, plan_pacing, PacingPlan};
pub use suss::{AckEvent, HystartExit, Suss, SussOutput};
