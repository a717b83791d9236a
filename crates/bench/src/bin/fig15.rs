//! Figure 15: Jain fairness dynamics across minRTT × buffer grid.

use experiments::fairness::{run_with, to_table, FairnessParams};
use suss_bench::BenchCli;

fn main() {
    let o = BenchCli::parse("fig15");
    let p = if o.quick {
        FairnessParams::quick()
    } else {
        FairnessParams::paper()
    };
    let (cells, manifest) = run_with(&p, &o.runner());
    o.emit(
        "Fig. 15 — fairness recovery after a fifth flow joins",
        &to_table(&cells),
    );
    o.write_manifest(&manifest);
}
