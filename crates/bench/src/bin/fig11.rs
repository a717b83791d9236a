//! Figure 11: FCT vs flow size for the four Tokyo-server scenarios.

use experiments::fct_sweep::{fig11_scenarios, sweep_matrix, SweepParams};
use suss_bench::BenchCli;

fn main() {
    let o = BenchCli::parse("fig11");
    let p = if o.quick {
        SweepParams::quick()
    } else {
        SweepParams::paper()
    };
    let m = sweep_matrix(&fig11_scenarios(), &p, &o.runner());
    for sweep in &m.sweeps {
        o.emit(
            &format!("Fig. 11 — FCT sweep, {}", sweep.scenario.id()),
            &sweep.to_table(),
        );
    }
    o.write_manifest(&m.manifest);
}
