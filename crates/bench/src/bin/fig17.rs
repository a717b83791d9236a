//! Figure 17: loss rates across the 28-scenario matrix.

use experiments::loss::{sweep_matrix, LossParams};
use simstats::TextTable;
use suss_bench::BenchCli;
use workload::PathScenario;

fn main() {
    let o = BenchCli::parse("fig17");
    let p = if o.quick {
        LossParams {
            sizes: vec![4 * workload::MB],
            iters: 2,
            seed_base: 1,
            buffer_bdp_override: Some(0.5),
        }
    } else {
        LossParams {
            sizes: vec![6 * workload::MB],
            iters: 8,
            seed_base: 1,
            buffer_bdp_override: Some(0.5),
        }
    };
    // All 28 scenarios run as one campaign, spread across the pool.
    let m = sweep_matrix(&PathScenario::matrix(), &p, &o.runner());
    let mut t = TextTable::new(vec!["scenario", "suss-on(%)", "suss-off(%)", "bbr(%)"]);
    for sweep in &m.sweeps {
        let c = &sweep.cells[0];
        t.row(vec![
            sweep.scenario.id(),
            format!("{:.2}", c.suss.mean * 100.0),
            format!("{:.2}", c.cubic.mean * 100.0),
            format!("{:.2}", c.bbr.mean * 100.0),
        ]);
    }
    o.emit("Fig. 17 — retransmission rates, all 28 scenarios", &t);
    o.write_manifest(&m.manifest);
}
