//! Figure 18: FCT and SUSS improvement across the 28-scenario matrix.

use experiments::fct_sweep::{fig18_scenarios, sweep_matrix, SweepParams};
use simstats::{fmt_pct, TextTable};
use suss_bench::BenchCli;

fn main() {
    let o = BenchCli::parse("fig18");
    let p = if o.quick {
        SweepParams {
            sizes: vec![workload::MB, 4 * workload::MB],
            iters: 2,
            seed_base: 1,
        }
    } else {
        // 28 scenarios × sizes × 3 schemes: keep the grid affordable with
        // a probe-size subset and 5 seeds per cell.
        SweepParams {
            sizes: vec![workload::MB, 2 * workload::MB, 4 * workload::MB],
            iters: 5,
            seed_base: 1,
        }
    };
    // All 28 scenarios run as one campaign, spread across the pool.
    let m = sweep_matrix(&fig18_scenarios(), &p, &o.runner());
    let mut t = TextTable::new(vec![
        "scenario",
        "size",
        "bbr(s)",
        "cubic(s)",
        "suss(s)",
        "improvement",
    ]);
    let mut wins = 0usize;
    let mut cells = 0usize;
    for sweep in &m.sweeps {
        for c in &sweep.cells {
            t.row(vec![
                sweep.scenario.id(),
                simstats::fmt_bytes(c.size),
                format!("{:.3}", c.bbr.mean),
                format!("{:.3}", c.cubic.mean),
                format!("{:.3}", c.suss.mean),
                fmt_pct(c.suss_improvement()),
            ]);
            cells += 1;
            if c.suss_improvement() > 0.0 {
                wins += 1;
            }
        }
    }
    o.emit("Fig. 18 — FCT across all 28 scenarios", &t);
    println!("SUSS beats plain CUBIC in {wins}/{cells} cells");
    o.write_manifest(&m.manifest);
}
