//! # suss-repro — a full reproduction of SUSS (SIGCOMM 2024)
//!
//! *"SUSS: Improving TCP Performance by Speeding Up Slow-Start"*
//! (Arghavani, Zhang, Eyers, Arghavani — ACM SIGCOMM 2024) reimplemented
//! from scratch in Rust: the algorithm, a userspace TCP-like transport
//! with pluggable congestion control, a deterministic packet-level network
//! simulator standing in for the paper's testbeds, every comparator CCA,
//! and a benchmark harness regenerating each table and figure.
//!
//! This crate is a facade re-exporting the workspace's public API:
//!
//! * [`suss`] ([`suss_core`]) — the SUSS state machine (growth prediction,
//!   pacing schedule, modified HyStart),
//! * [`cc`] ([`cc_algos`]) — CUBIC+SUSS and the baselines (CUBIC, BBRv1,
//!   BBRv2-lite) plus a quinn-shaped QUIC adapter,
//! * [`transport`] ([`tcp_sim`]) — the TCP-like transport,
//! * [`sim`] ([`netsim`]) — the discrete-event network simulator,
//! * [`scenarios`] ([`workload`]) — the paper's 28-scenario matrix and
//!   testbed configurations,
//! * [`stats`] ([`simstats`]) and [`exp`] ([`experiments`]) — statistics
//!   and per-figure experiment runners.
//!
//! ## Quickstart
//!
//! ```
//! use suss_repro::prelude::*;
//!
//! // Download 1 MB over the paper's Tokyo→NZ WiFi path, SUSS on vs off.
//! let path = PathScenario::new(ServerSite::GoogleTokyo, LastHop::WiFi);
//! let on = run_flow(&path, CcKind::CubicSuss, 1_000_000, 1, false);
//! let off = run_flow(&path, CcKind::Cubic, 1_000_000, 1, false);
//! assert!(on.fct_secs() < off.fct_secs());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use cc_algos as cc;
pub use experiments as exp;
pub use netsim as sim;
pub use simrunner as runner;
pub use simstats as stats;
pub use suss_core as suss;
pub use tcp_sim as transport;
pub use workload as scenarios;

/// The most common imports for experiments.
pub mod prelude {
    pub use cc_algos::{make_controller, CcKind};
    pub use experiments::{mean_fct, run_flow, FlowGrid, FlowOutcome, IW, MSS};
    pub use netsim::{Bandwidth, LinkSpec, Sim, SimTime};
    pub use simrunner::RunnerOpts;
    pub use suss_core::{Suss, SussConfig};
    pub use tcp_sim::SenderConfig;
    pub use workload::{DumbbellConfig, LastHop, PathScenario, ServerSite, KB, MB};
}
