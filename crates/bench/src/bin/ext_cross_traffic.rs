//! Extension: SUSS against unresponsive Poisson cross traffic.

use experiments::extensions::cross_traffic_sweep;
use suss_bench::BenchCli;

fn main() {
    let o = BenchCli::parse("ext_cross_traffic");
    let (loads, iters): (Vec<f64>, u64) = if o.quick {
        (vec![0.0, 0.4], 2)
    } else {
        (vec![0.0, 0.2, 0.4, 0.6, 0.8], 8)
    };
    let (t, manifest) = cross_traffic_sweep(2 * workload::MB, &loads, iters, 1, &o.runner());
    o.write_manifest(&manifest);
    o.emit(
        "Extension — SUSS vs unresponsive Poisson cross traffic (2 MB flows)",
        &t,
    );
}
