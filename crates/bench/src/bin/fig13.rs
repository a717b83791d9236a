//! Figure 13: SUSS has no impact on large flows (100 MB transfer).

use experiments::fig13::{run, Fig13Params};
use suss_bench::BenchCli;

fn main() {
    let o = BenchCli::parse("fig13");
    let p = if o.quick {
        Fig13Params::quick()
    } else {
        Fig13Params::paper()
    };
    let r = run(&p);
    o.emit(
        &format!(
            "Fig. 13 — per-MB arrival improvement on {}",
            r.scenario.id()
        ),
        &r.to_table(),
    );
}
