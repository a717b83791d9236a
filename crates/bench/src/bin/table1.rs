//! Table 1: stability of a large flow vs SUSS-accelerated small flows.

use experiments::stability::{run_with, to_table, StabilityParams};
use suss_bench::BenchCli;

fn main() {
    let o = BenchCli::parse("table1");
    let p = if o.quick {
        StabilityParams::quick()
    } else {
        StabilityParams::paper()
    };
    let (cells, manifest) = run_with(&p, &o.runner());
    o.emit(
        "Table 1 — large-flow stability / small-flow improvement",
        &to_table(&cells),
    );
    for kind in &p.large_ccas {
        let rows: Vec<_> = cells.iter().filter(|c| c.large_cca == *kind).collect();
        if rows.is_empty() {
            continue;
        }
        let avg = rows.iter().map(|c| c.small_improvement()).sum::<f64>() / rows.len() as f64;
        println!(
            "average small-flow improvement with large flow on {}: {:+.0}%",
            kind.label(),
            avg * 100.0
        );
    }
    o.write_manifest(&manifest);
}
