//! Appendix B ablation: bottleneck-bandwidth variation mid-slow-start.

use experiments::ablations::btlbw_sweep;
use suss_bench::BenchCli;

fn main() {
    let o = BenchCli::parse("ablation_btlbw");
    let (size, iters) = if o.quick {
        (3 * workload::MB, 1)
    } else {
        (10 * workload::MB, 5)
    };
    let (t, manifest) = btlbw_sweep(size, iters, 1, &o.runner());
    o.write_manifest(&manifest);
    o.emit("Appendix B — BtlBw variation robustness", &t);
}
