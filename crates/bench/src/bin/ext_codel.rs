//! Extension: SUSS under a CoDel (RFC 8289) bottleneck.

use experiments::extensions::codel_sweep;
use suss_bench::BenchCli;

fn main() {
    let o = BenchCli::parse("ext_codel");
    let (sizes, iters): (Vec<u64>, u64) = if o.quick {
        (vec![2 * workload::MB], 2)
    } else {
        (
            vec![
                workload::MB,
                2 * workload::MB,
                5 * workload::MB,
                10 * workload::MB,
            ],
            8,
        )
    };
    let (t, manifest) = codel_sweep(&sizes, iters, 1, &o.runner());
    o.write_manifest(&manifest);
    o.emit("Extension — SUSS with a CoDel AQM bottleneck", &t);
}
