//! Extension (paper §7 future work): BBR with SUSS-predicted STARTUP
//! boosts vs plain BBRv1.

use experiments::extensions::bbr_suss_sweep;
use suss_bench::BenchCli;

fn main() {
    let o = BenchCli::parse("ext_bbr_suss");
    let (sizes, iters): (Vec<u64>, u64) = if o.quick {
        (vec![workload::MB, 2 * workload::MB], 2)
    } else {
        (
            vec![
                500 * workload::KB,
                workload::MB,
                2 * workload::MB,
                5 * workload::MB,
                10 * workload::MB,
            ],
            10,
        )
    };
    let (t, manifest) = bbr_suss_sweep(&sizes, iters, 1, &o.runner());
    o.write_manifest(&manifest);
    o.emit("Extension — BBR+SUSS vs BBR (paper §7 future work)", &t);
}
