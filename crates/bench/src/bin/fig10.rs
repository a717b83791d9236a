//! Figure 10: total delivered data with SUSS on vs. off.

use experiments::fig09::{run, Fig09Params};
use netsim::SimTime;
use suss_bench::BenchCli;

fn main() {
    let o = BenchCli::parse("fig10");
    let p = if o.quick {
        Fig09Params::quick()
    } else {
        Fig09Params::paper()
    };
    let r = run(&p);
    o.emit(
        &format!("Fig. 10 — delivered data on {}", r.scenario.id()),
        &r.to_delivered_table(),
    );
    let probe = if o.quick {
        SimTime::from_secs(1)
    } else {
        SimTime::from_secs(2)
    };
    println!(
        "delivered ratio (on/off) at {}: {:.2}x",
        probe,
        r.delivered_ratio(probe)
    );
    let to_pts = |o: &experiments::FlowOutcome| -> Vec<(f64, f64)> {
        o.trace
            .samples
            .iter()
            .map(|s| (s.t.as_secs_f64(), s.delivered as f64 / 1e6))
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
            "delivered(MB)"
        )
    );
}
