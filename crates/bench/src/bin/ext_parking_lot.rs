//! Extension: SUSS across stacked bottlenecks (parking-lot topology).

use experiments::extensions::parking_lot_probe;
use suss_bench::BenchCli;

fn main() {
    let o = BenchCli::parse("ext_parking_lot");
    let (hops, size) = if o.quick {
        (2usize, workload::MB)
    } else {
        (4usize, 2 * workload::MB)
    };
    let (t, manifest) = parking_lot_probe(hops, size, 1, &o.runner());
    o.write_manifest(&manifest);
    o.emit(
        &format!("Extension — short flow across {hops} stacked bottlenecks"),
        &t,
    );
}
