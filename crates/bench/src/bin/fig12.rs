//! Figure 12: SUSS FCT improvement for the Fig. 11 scenarios.

use experiments::fct_sweep::{fig11_scenarios, sweep_matrix, SweepParams};
use simstats::{fmt_bytes, fmt_pct, TextTable};
use suss_bench::BenchCli;

fn main() {
    let o = BenchCli::parse("fig12");
    let p = if o.quick {
        SweepParams::quick()
    } else {
        SweepParams::paper()
    };
    let m = sweep_matrix(&fig11_scenarios(), &p, &o.runner());
    let mut t = TextTable::new(vec!["size", "5G", "wired", "wifi", "4G"]);
    for (i, &size) in p.sizes.iter().enumerate() {
        let row: Vec<String> = std::iter::once(fmt_bytes(size))
            .chain(
                m.sweeps
                    .iter()
                    .map(|s| fmt_pct(s.cells[i].suss_improvement())),
            )
            .collect();
        t.row(row);
    }
    o.emit("Fig. 12 — FCT improvement by last hop (Tokyo server)", &t);
    for s in &m.sweeps {
        println!(
            "{}: mean improvement for flows ≤ 2 MB: {}",
            s.scenario.id(),
            fmt_pct(s.mean_improvement_below(2 * workload::MB))
        );
    }
    o.write_manifest(&m.manifest);
}
