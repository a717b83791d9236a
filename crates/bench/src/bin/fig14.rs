//! Figure 14: packet loss vs flow size (London server → Sweden 5G).

use experiments::loss::{fig14_scenario, sweep_matrix, LossParams};
use suss_bench::BenchCli;

fn main() {
    let o = BenchCli::parse("fig14");
    let p = if o.quick {
        LossParams::quick()
    } else {
        LossParams::paper()
    };
    let m = sweep_matrix(&[fig14_scenario()], &p, &o.runner());
    let sweep = &m.sweeps[0];
    o.emit(
        &format!("Fig. 14 — retransmission rate, {}", sweep.scenario.id()),
        &sweep.to_table(),
    );
    o.write_manifest(&m.manifest);
}
