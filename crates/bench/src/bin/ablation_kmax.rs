//! Appendix A ablation: generalized SUSS lookahead depth k_max.

use experiments::ablations::kmax_sweep;
use suss_bench::BenchCli;

fn main() {
    let o = BenchCli::parse("ablation_kmax");
    let (sizes, iters): (Vec<u64>, u64) = if o.quick {
        (vec![workload::MB, 4 * workload::MB], 2)
    } else {
        (
            vec![
                512 * workload::KB,
                workload::MB,
                2 * workload::MB,
                5 * workload::MB,
            ],
            20,
        )
    };
    let (t, manifest) = kmax_sweep(&sizes, &[1, 2, 3], iters, 1, &o.runner());
    o.write_manifest(&manifest);
    o.emit("Appendix A — FCT vs k_max (clean large-BDP path)", &t);
}
