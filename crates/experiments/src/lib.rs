//! # experiments — per-figure/table runners for the SUSS reproduction
//!
//! Each module regenerates one table or figure from the paper's evaluation
//! (see DESIGN.md §3 for the full index). Every experiment has a
//! parameters struct with two constructors:
//!
//! * `paper()` — full scale (50 iterations, full sweeps), used by the
//!   `suss-bench` binaries;
//! * `quick()` — a scaled-down variant for Criterion benches and CI.
//!
//! All experiments are deterministic given their seed base.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dumbbell;
pub mod runner;
pub mod scope;

pub mod ablations;
pub mod campaigns;
pub mod chaos;
pub mod extensions;
pub mod fairness;
pub mod fct_sweep;
pub mod fig01;
pub mod fig02;
pub mod fig09;
pub mod fig13;
pub mod fleet;
pub mod loss;
pub mod quic_pacing;
pub mod stability;

pub use campaigns::{Batch, FlowGrid, FlowGridRun, FlowStats, CAMPAIGN_VERSION};
pub use chaos::{chaos_table, run_flow_faulted, FaultFamily};
pub use dumbbell::{run_dumbbell, run_dumbbell_scoped, DumbbellFlow, DumbbellOutcome};
pub use fleet::{fleet_table, run_fleet_cell, FleetConfig, FleetRun, FleetStats};
pub use quic_pacing::{
    quic_pacing_campaign, quic_pacing_table, run_quic_pacing_cell, QuicPacingConfig, QuicPacingRun,
    QuicPacingStats,
};
pub use runner::{mean_fct, run_flow, FlowOutcome, IW, MSS};
pub use scope::{attach_link_scope, emit_scope_annotations, ScopeHistograms, SCOPE_SERIES};
