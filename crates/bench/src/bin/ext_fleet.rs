//! Extension: fleet FCT-percentile campaign — heavy-tailed flows at an
//! open-loop offered load share one bottleneck, and the tail of the
//! flow-completion-time distribution is compared across controllers.
//!
//! Sweeps {4G, wired} × load {0.3, 0.6, 0.9} × {CUBIC, CUBIC+SUSS, BBR};
//! every controller within a (scenario, load) pair faces the
//! byte-identical arrival sequence. Percentiles land both in the printed
//! table and as machine-readable annotations in the run manifest.

use suss_bench::BenchCli;

fn main() {
    let o = BenchCli::parse("ext_fleet");
    let n_flows = if o.quick { 150 } else { 2_000 };
    let run = experiments::fleet::fleet_table(n_flows, 1, &o.runner());
    let (spawned, completed, expired) = run.totals();
    println!("fleet: spawned={spawned} completed={completed} expired={expired}");
    o.write_manifest(&run.manifest);
    o.emit(
        "Extension — fleet FCT percentiles by flow-size bucket",
        &run.table,
    );

    // The paper's headline regime: short downloads on the 4G path at
    // moderate load, where slow-start dominates FCT.
    let p99 = |label: &str| {
        run.manifest
            .annotations
            .iter()
            .find(|a| a.label == label)
            .map(|a| a.p99)
    };
    if let (Some(cubic), Some(suss)) = (
        p99("fleet/4G/cubic/load0.6/<=2MB"),
        p99("fleet/4G/cubic+suss/load0.6/<=2MB"),
    ) {
        let verdict = if suss <= cubic { "ok" } else { "regression" };
        println!("suss check: 4G load 0.6 <=2MB p99 cubic={cubic:.3}s suss={suss:.3}s ({verdict})");
    }

    if !run.manifest.all_ok() {
        eprintln!(
            "ext_fleet: {} of {} cells failed; see the manifest for per-cell status",
            run.manifest.cells_failed, run.manifest.total_cells
        );
        std::process::exit(1);
    }
}
