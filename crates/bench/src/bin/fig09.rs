//! Figure 9: cwnd and RTT dynamics with SUSS on vs. off.

use experiments::fig09::{run, Fig09Params};
use suss_bench::BenchCli;

fn main() {
    let o = BenchCli::parse("fig09");
    let p = if o.quick {
        Fig09Params::quick()
    } else {
        Fig09Params::paper()
    };
    let r = run(&p);
    if let Some(mut sink) = o.open_trace() {
        BenchCli::export_run(&mut sink, Some("suss-on"), &[(1, &r.suss_on)]);
        BenchCli::export_run(&mut sink, Some("suss-off"), &[(1, &r.suss_off)]);
    }
    o.emit(
        &format!("Fig. 9 — cwnd/RTT dynamics on {}", r.scenario.id()),
        &r.to_table(),
    );
    if let (Some(on), Some(off)) = (r.suss_on.exit_cwnd, r.suss_off.exit_cwnd) {
        println!(
            "slow-start exit cwnd: SUSS on {} segs, off {} segs",
            on / experiments::MSS,
            off / experiments::MSS
        );
    }
    let to_pts = |o: &experiments::FlowOutcome| -> Vec<(f64, f64)> {
        o.trace
            .samples
            .iter()
            .map(|s| (s.t.as_secs_f64(), s.cwnd as f64 / experiments::MSS as f64))
            .collect()
    };
    let (on, off) = (to_pts(&r.suss_on), to_pts(&r.suss_off));
    println!();
    print!(
        "{}",
        simstats::ascii_chart(
            &[("suss-on", &on), ("suss-off", &off)],
            72,
            16,
            "t(s)",
            "cwnd(segs)"
        )
    );
}
