//! Figure 2: a new flow competing against four established flows.

use experiments::fig02::{run, Fig02Params};
use suss_bench::BenchCli;

fn main() {
    let o = BenchCli::parse("fig02");
    let p = if o.quick {
        Fig02Params::quick()
    } else {
        Fig02Params::paper()
    };
    let r = run(&p);
    if let Some(mut sink) = o.open_trace() {
        // Both arms share one file; dumbbell flow ids are 1-based, the
        // joining flow is id 5.
        for (label, out) in [("cubic", &r.cubic), ("bbr", &r.bbr)] {
            let flows: Vec<(u64, &experiments::FlowOutcome)> = out
                .flows
                .iter()
                .enumerate()
                .map(|(i, f)| (i as u64 + 1, f))
                .collect();
            BenchCli::export_run(&mut sink, Some(label), &flows);
        }
    }
    o.emit(
        "Fig. 2 — joining-flow goodput (CUBIC vs BBR)",
        &r.to_table(),
    );
    for (label, out) in [("cubic", &r.cubic), ("bbr", &r.bbr)] {
        match r.time_to_share(out, 0.8) {
            Some(t) => println!(
                "{label}: reached 80% of fair share {:.1}s after joining",
                t.as_secs_f64()
            ),
            None => println!("{label}: did not reach 80% of fair share within the window"),
        }
    }
}
