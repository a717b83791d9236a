//! Extension: SUSS vs CUBIC safety under deterministic fault injection.
//!
//! Runs resiliently: cells that panic or hang are retried/abandoned and
//! recorded in the manifest, and the process exits non-zero when any
//! cell ended without a result — so a chaos run never silently reports a
//! partial table as clean.

use experiments::chaos::chaos_table;
use suss_bench::BenchCli;

fn main() {
    let o = BenchCli::parse("ext_chaos");
    let (size, iters) = if o.quick {
        (workload::MB, 2)
    } else {
        (4 * workload::MB, 16)
    };
    let (t, manifest) = chaos_table(size, iters, 1, &o.runner());
    o.write_manifest(&manifest);
    o.emit("Extension — SUSS vs CUBIC under injected faults", &t);
    if !manifest.all_ok() {
        eprintln!(
            "ext_chaos: {} of {} cells failed; see the manifest for per-cell status",
            manifest.cells_failed, manifest.total_cells
        );
        std::process::exit(1);
    }
}
