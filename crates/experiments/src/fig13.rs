//! Figure 13: SUSS has no impact on large flows.
//!
//! A 100 MB transfer between two data centers: the per-megabyte arrival
//! improvement is large for the first megabytes and tapers to ~zero.

use crate::runner::{run_flow, FlowOutcome};
use cc_algos::CcKind;
use netsim::SimTime;
use simstats::{fmt_pct, improvement, TextTable};
use workload::{LastHop, PathScenario, ServerSite};

/// Parameters for the Fig. 13 experiment.
#[derive(Debug, Clone)]
pub struct Fig13Params {
    /// Transfer size (paper: 100 MB).
    pub flow_bytes: u64,
    /// Megabyte checkpoints to report.
    pub checkpoints_mb: Vec<u64>,
    /// Seed.
    pub seed: u64,
}

impl Fig13Params {
    /// Full-scale run.
    pub fn paper() -> Self {
        Fig13Params {
            flow_bytes: 100 * workload::MB,
            checkpoints_mb: vec![1, 2, 4, 8, 16, 32, 64, 100],
            seed: 1,
        }
    }

    /// Scaled-down variant (20 MB).
    pub fn quick() -> Self {
        Fig13Params {
            flow_bytes: 20 * workload::MB,
            checkpoints_mb: vec![1, 2, 5, 10, 20],
            seed: 1,
        }
    }
}

/// Result: time-to-byte-checkpoint per variant.
#[derive(Debug)]
pub struct Fig13Result {
    /// DC-to-DC path (US-east → Sydney).
    pub scenario: PathScenario,
    /// SUSS on.
    pub suss_on: FlowOutcome,
    /// SUSS off.
    pub suss_off: FlowOutcome,
    /// Parameters.
    pub params: Fig13Params,
}

/// Run the experiment.
pub fn run(params: &Fig13Params) -> Fig13Result {
    // Both endpoints in data centers: the longest WAN path in the matrix
    // (US-east ↔ Sydney), capped at 100 Mbps so the path BDP (~4 MB) is
    // small relative to the 100 MB transfer — the regime where the paper
    // shows the improvement tapering to negligible. (At the wired
    // profile's full 300 Mbps the BDP alone is 12 MB and slow start
    // covers a quarter of the transfer, which would overstate SUSS.)
    let mut scenario = PathScenario::new(ServerSite::OracleSydney, LastHop::Wired);
    scenario.bottleneck = netsim::Bandwidth::from_mbps(100);
    Fig13Result {
        suss_on: run_flow(
            &scenario,
            CcKind::CubicSuss,
            params.flow_bytes,
            params.seed,
            true,
        ),
        suss_off: run_flow(
            &scenario,
            CcKind::Cubic,
            params.flow_bytes,
            params.seed,
            true,
        ),
        scenario,
        params: params.clone(),
    }
}

impl Fig13Result {
    /// Time at which `mb` megabytes had been delivered.
    fn time_to_mb(&self, out: &FlowOutcome, mb: u64) -> Option<SimTime> {
        let bytes = mb * workload::MB;
        out.trace
            .samples
            .iter()
            .find(|s| s.delivered >= bytes)
            .map(|s| s.t)
    }

    /// Improvement in arrival time of the `mb` checkpoint.
    fn improvement_at_mb(&self, mb: u64) -> Option<f64> {
        let on = self.time_to_mb(&self.suss_on, mb)?.as_secs_f64();
        let off = self.time_to_mb(&self.suss_off, mb)?.as_secs_f64();
        Some(improvement(off, on))
    }

    /// The per-checkpoint table the figure plots.
    pub fn to_table(&self) -> TextTable {
        let mut t = TextTable::new(vec!["MB", "t-on(s)", "t-off(s)", "improvement"]);
        for &mb in &self.params.checkpoints_mb {
            let on = self.time_to_mb(&self.suss_on, mb);
            let off = self.time_to_mb(&self.suss_off, mb);
            t.row(vec![
                format!("{mb}"),
                on.map(|t| format!("{:.3}", t.as_secs_f64()))
                    .unwrap_or("-".into()),
                off.map(|t| format!("{:.3}", t.as_secs_f64()))
                    .unwrap_or("-".into()),
                self.improvement_at_mb(mb)
                    .map(fmt_pct)
                    .unwrap_or("-".into()),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvement_tapers_with_progress() {
        let r = run(&Fig13Params::quick());
        let early = r.improvement_at_mb(1).expect("1 MB checkpoint");
        let last_mb = *r.params.checkpoints_mb.last().unwrap();
        let late = r.improvement_at_mb(last_mb).expect("final checkpoint");
        assert!(early > 0.15, "early improvement {early:.2}");
        assert!(
            late < early,
            "late {late:.2} must be below early {early:.2}"
        );
        assert!(
            late > -0.05,
            "SUSS must not hurt the full transfer ({late:.2})"
        );
    }
}
