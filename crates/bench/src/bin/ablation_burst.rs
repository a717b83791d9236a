//! Design ablation (§4): guarded pacing vs un-paced burst injection.

use experiments::ablations::burst_ablation;
use suss_bench::BenchCli;

fn main() {
    let o = BenchCli::parse("ablation_burst");
    let (size, iters) = if o.quick {
        (2 * workload::MB, 1)
    } else {
        (6 * workload::MB, 5)
    };
    let (t, manifest) = burst_ablation(size, iters, 1, &o.runner());
    o.write_manifest(&manifest);
    o.emit("§4 ablation — paced vs burst extra-data injection", &t);
}
