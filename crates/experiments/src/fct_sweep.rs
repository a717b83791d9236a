//! FCT sweeps: Figures 11, 12 and the full 28-scenario matrix of
//! Figure 18.
//!
//! For each (scenario, flow size) cell, measure mean FCT over N seeded
//! iterations for BBR, CUBIC (SUSS off) and CUBIC+SUSS, and report the
//! SUSS improvement percentage.

use crate::campaigns::FlowGrid;
use cc_algos::CcKind;
use simrunner::{RunManifest, RunnerOpts};
use simstats::{fmt_bytes, fmt_pct, improvement, Summary, TextTable};
use workload::{LastHop, PathScenario, ServerSite};

/// Parameters for an FCT sweep.
#[derive(Debug, Clone)]
pub struct SweepParams {
    /// Flow sizes to test.
    pub sizes: Vec<u64>,
    /// Iterations per cell (paper: 50).
    pub iters: u64,
    /// Seed base.
    pub seed_base: u64,
}

impl SweepParams {
    /// Full-scale parameters. The paper uses 50 iterations per cell on
    /// real, noisy paths; the simulator's jitter is the only noise source,
    /// so 10 seeded iterations give comparably tight bands in a fraction
    /// of the time (raise `iters` for paper-exact replication).
    pub fn paper() -> Self {
        SweepParams {
            sizes: workload::fct_sweep_sizes(),
            iters: 10,
            seed_base: 1,
        }
    }

    /// Scaled-down variant.
    pub fn quick() -> Self {
        SweepParams {
            sizes: vec![256 * workload::KB, workload::MB, 4 * workload::MB],
            iters: 3,
            seed_base: 1,
        }
    }
}

/// One sweep cell: mean FCTs of the three schemes.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Flow size in bytes.
    pub size: u64,
    /// Mean/σ FCT for BBR.
    pub bbr: Summary,
    /// Mean/σ FCT for CUBIC (SUSS off).
    pub cubic: Summary,
    /// Mean/σ FCT for CUBIC+SUSS.
    pub suss: Summary,
}

impl SweepCell {
    /// SUSS improvement over plain CUBIC (the paper's Fig. 12 metric).
    pub fn suss_improvement(&self) -> f64 {
        improvement(self.cubic.mean, self.suss.mean)
    }
}

/// A sweep over one scenario.
#[derive(Debug, Clone)]
pub struct ScenarioSweep {
    /// The path.
    pub scenario: PathScenario,
    /// Per-size cells.
    pub cells: Vec<SweepCell>,
}

/// A multi-scenario sweep executed as one campaign.
#[derive(Debug)]
pub struct MatrixSweep {
    /// Per-scenario sweeps, in input order.
    pub sweeps: Vec<ScenarioSweep>,
    /// Manifest of the single campaign that produced them.
    pub manifest: RunManifest,
}

/// Sweep many scenarios as **one** campaign: every
/// (scenario, size, scheme, seed) cell spreads across the worker pool
/// together and memoizes in the shared result cache.
pub fn sweep_matrix(scenarios: &[PathScenario], p: &SweepParams, opts: &RunnerOpts) -> MatrixSweep {
    let mut grid = FlowGrid::new("fct_sweep");
    let handles: Vec<Vec<_>> = scenarios
        .iter()
        .map(|scn| {
            p.sizes
                .iter()
                .map(|&size| {
                    (
                        size,
                        grid.batch(scn, CcKind::Bbr, size, p.iters, p.seed_base),
                        grid.batch(scn, CcKind::Cubic, size, p.iters, p.seed_base),
                        grid.batch(scn, CcKind::CubicSuss, size, p.iters, p.seed_base),
                    )
                })
                .collect()
        })
        .collect();
    let run = grid.run(opts);
    let sweeps = scenarios
        .iter()
        .zip(handles)
        .map(|(scn, per_size)| ScenarioSweep {
            scenario: *scn,
            cells: per_size
                .into_iter()
                .map(|(size, bbr, cubic, suss)| SweepCell {
                    size,
                    bbr: run.fct(bbr),
                    cubic: run.fct(cubic),
                    suss: run.fct(suss),
                })
                .collect(),
        })
        .collect();
    MatrixSweep {
        sweeps,
        manifest: run.manifest,
    }
}

/// Sweep one scenario across all sizes and the three schemes (the serial
/// reference path).
pub fn sweep_scenario(scenario: &PathScenario, p: &SweepParams) -> ScenarioSweep {
    sweep_matrix(std::slice::from_ref(scenario), p, &RunnerOpts::serial())
        .sweeps
        .pop()
        .expect("one scenario in, one sweep out")
}

/// Figure 11/12: the four Tokyo-server scenarios.
pub fn fig11_scenarios() -> Vec<PathScenario> {
    LastHop::ALL
        .iter()
        .map(|&h| PathScenario::new(ServerSite::GoogleTokyo, h))
        .collect()
}

/// Figure 18: the full 28-scenario matrix.
pub fn fig18_scenarios() -> Vec<PathScenario> {
    PathScenario::matrix()
}

impl ScenarioSweep {
    /// Render the Fig. 11-style rows (FCT means with σ) plus the Fig. 12
    /// improvement column.
    pub fn to_table(&self) -> TextTable {
        let mut t = TextTable::new(vec![
            "size",
            "bbr(s)",
            "cubic(s)",
            "suss(s)",
            "σ-suss",
            "improvement",
        ]);
        for c in &self.cells {
            t.row(vec![
                fmt_bytes(c.size),
                format!("{:.3}", c.bbr.mean),
                format!("{:.3}", c.cubic.mean),
                format!("{:.3}", c.suss.mean),
                format!("{:.3}", c.suss.std_dev),
                fmt_pct(c.suss_improvement()),
            ]);
        }
        t
    }

    /// Mean improvement over all cells at or below `size_cap` bytes.
    pub fn mean_improvement_below(&self, size_cap: u64) -> f64 {
        let xs: Vec<f64> = self
            .cells
            .iter()
            .filter(|c| c.size <= size_cap)
            .map(SweepCell::suss_improvement)
            .collect();
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::{KB, MB};

    #[test]
    fn tokyo_wifi_sweep_shows_suss_win() {
        let scn = PathScenario::new(ServerSite::GoogleTokyo, LastHop::WiFi);
        let p = SweepParams {
            sizes: vec![512 * KB, 2 * MB],
            iters: 3,
            seed_base: 1,
        };
        let sweep = sweep_scenario(&scn, &p);
        assert_eq!(sweep.cells.len(), 2);
        for c in &sweep.cells {
            assert!(
                c.suss_improvement() > 0.10,
                "{}: improvement {:.1}%",
                fmt_bytes(c.size),
                c.suss_improvement() * 100.0
            );
            // FCT grows with size.
        }
        assert!(sweep.cells[0].cubic.mean < sweep.cells[1].cubic.mean);
        let t = sweep.to_table();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn scenario_lists() {
        assert_eq!(fig11_scenarios().len(), 4);
        assert_eq!(fig18_scenarios().len(), 28);
    }
}
