//! Packet loss experiments: Figure 14 (London→5G loss vs. flow size) and
//! Figure 17 (loss across the 28-scenario matrix).
//!
//! The loss metric is the sender's retransmission rate — the observable
//! proxy the paper plots — with bottleneck-queue drops also recorded as
//! ground truth.

use crate::campaigns::FlowGrid;
use cc_algos::CcKind;
use simrunner::{RunManifest, RunnerOpts};
use simstats::{fmt_bytes, Summary, TextTable};
use workload::{LastHop, PathScenario, ServerSite};

/// Parameters for the loss experiments.
#[derive(Debug, Clone)]
pub struct LossParams {
    /// Flow sizes to test.
    pub sizes: Vec<u64>,
    /// Iterations per cell.
    pub iters: u64,
    /// Seed base.
    pub seed_base: u64,
    /// Shrink the bottleneck buffer to this BDP multiple (the paper's
    /// loss-visible scenarios are shallow-buffered; `None` keeps the
    /// scenario default).
    pub buffer_bdp_override: Option<f64>,
}

impl LossParams {
    /// Full-scale Fig. 14 run (10 seeded iterations; see
    /// `SweepParams::paper` for the iteration-count rationale).
    pub fn paper() -> Self {
        LossParams {
            sizes: workload::loss_sweep_sizes(),
            iters: 10,
            seed_base: 1,
            buffer_bdp_override: Some(0.5),
        }
    }

    /// Scaled-down variant.
    pub fn quick() -> Self {
        LossParams {
            sizes: vec![2 * workload::MB, 8 * workload::MB],
            iters: 3,
            seed_base: 1,
            buffer_bdp_override: Some(0.5),
        }
    }
}

/// One loss cell.
#[derive(Debug, Clone)]
pub struct LossCell {
    /// Flow size.
    pub size: u64,
    /// Retransmit rate, SUSS on.
    pub suss: Summary,
    /// Retransmit rate, SUSS off.
    pub cubic: Summary,
    /// Retransmit rate, BBR.
    pub bbr: Summary,
}

/// Loss sweep over one scenario.
#[derive(Debug, Clone)]
pub struct LossSweep {
    /// The path.
    pub scenario: PathScenario,
    /// Per-size cells.
    pub cells: Vec<LossCell>,
}

fn apply_override(mut scn: PathScenario, p: &LossParams) -> PathScenario {
    if let Some(b) = p.buffer_bdp_override {
        scn.buffer_bdp = b;
    }
    scn
}

/// A multi-scenario loss sweep executed as one campaign (Fig. 17 runs
/// all 28 scenarios through a single worker pool and cache).
#[derive(Debug)]
pub struct LossMatrix {
    /// Per-scenario sweeps, in input order.
    pub sweeps: Vec<LossSweep>,
    /// Manifest of the single campaign that produced them.
    pub manifest: RunManifest,
}

/// Sweep many scenarios as one campaign. The buffer override is applied
/// *before* cells are queued, so the cache identity hashes the
/// overridden buffer depth, not the stock scenario's.
pub fn sweep_matrix(scenarios: &[PathScenario], p: &LossParams, opts: &RunnerOpts) -> LossMatrix {
    let scns: Vec<PathScenario> = scenarios.iter().map(|s| apply_override(*s, p)).collect();
    let mut grid = FlowGrid::new("loss");
    let handles: Vec<Vec<_>> = scns
        .iter()
        .map(|scn| {
            p.sizes
                .iter()
                .map(|&size| {
                    (
                        size,
                        grid.batch(scn, CcKind::CubicSuss, size, p.iters, p.seed_base),
                        grid.batch(scn, CcKind::Cubic, size, p.iters, p.seed_base),
                        grid.batch(scn, CcKind::Bbr, size, p.iters, p.seed_base),
                    )
                })
                .collect()
        })
        .collect();
    let run = grid.run(opts);
    let sweeps = scns
        .iter()
        .zip(handles)
        .map(|(scn, per_size)| LossSweep {
            scenario: *scn,
            cells: per_size
                .into_iter()
                .map(|(size, suss, cubic, bbr)| LossCell {
                    size,
                    suss: run.retransmit_rate(suss),
                    cubic: run.retransmit_rate(cubic),
                    bbr: run.retransmit_rate(bbr),
                })
                .collect(),
        })
        .collect();
    LossMatrix {
        sweeps,
        manifest: run.manifest,
    }
}

/// The Fig. 14 scenario: Oracle London server, Swedish 5G client.
pub fn fig14_scenario() -> PathScenario {
    PathScenario::new(ServerSite::OracleLondon, LastHop::FiveG)
}

impl LossSweep {
    /// Render the loss-rate rows.
    pub fn to_table(&self) -> TextTable {
        let mut t = TextTable::new(vec!["size", "suss-on(%)", "suss-off(%)", "bbr(%)"]);
        for c in &self.cells {
            t.row(vec![
                fmt_bytes(c.size),
                format!("{:.2}", c.suss.mean * 100.0),
                format!("{:.2}", c.cubic.mean * 100.0),
                format!("{:.2}", c.bbr.mean * 100.0),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suss_pacing_reduces_slow_start_loss() {
        // Shallow buffer so slow-start bursts overflow (the regime where
        // Fig. 14 shows a difference).
        let p = LossParams {
            sizes: vec![3 * workload::MB],
            iters: 4,
            seed_base: 1,
            buffer_bdp_override: Some(0.35),
        };
        let m = sweep_matrix(&[fig14_scenario()], &p, &RunnerOpts::serial());
        let sweep = &m.sweeps[0];
        let c = &sweep.cells[0];
        assert!(
            c.cubic.mean > 0.0,
            "shallow buffer must provoke loss for plain CUBIC"
        );
        assert!(
            c.suss.mean <= c.cubic.mean * 1.05,
            "SUSS loss {:.3}% must not exceed CUBIC {:.3}%",
            c.suss.mean * 100.0,
            c.cubic.mean * 100.0
        );
        // BBRv1 ignores loss, so on this deliberately shallow buffer it can
        // retransmit heavily (the paper's Fig. 17 likewise has one scenario
        // where BBR is the lossy one); we only require it to complete.
        assert!(c.bbr.mean.is_finite());
    }

    #[test]
    fn loss_rates_converge_for_long_flows() {
        let p = LossParams {
            sizes: vec![2 * workload::MB, 16 * workload::MB],
            iters: 3,
            seed_base: 7,
            buffer_bdp_override: Some(0.5),
        };
        let m = sweep_matrix(&[fig14_scenario()], &p, &RunnerOpts::serial());
        let sweep = &m.sweeps[0];
        let small = &sweep.cells[0];
        let large = &sweep.cells[1];
        // Relative gap (off vs on) shrinks as steady-state dominates.
        let gap = |c: &LossCell| (c.cubic.mean - c.suss.mean).abs();
        assert!(
            gap(large) <= gap(small) + 0.02,
            "gaps: small {:.4} large {:.4}",
            gap(small),
            gap(large)
        );
    }
}
