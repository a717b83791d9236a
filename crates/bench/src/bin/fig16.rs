//! Figure 16: large-flow goodput timeline while 12 small flows arrive.

use experiments::stability::{fig16_timeline, StabilityParams};
use std::time::Duration;
use suss_bench::BenchCli;

fn main() {
    let o = BenchCli::parse("fig16");
    let p = if o.quick {
        StabilityParams::quick()
    } else {
        StabilityParams::paper()
    };
    let (out, table) = fig16_timeline(Duration::from_millis(200), 1.0, &p);
    o.emit(
        "Fig. 16 — large-flow goodput under small-flow arrivals",
        &table,
    );
    let smalls: Vec<f64> = out.flows[1..].iter().map(|f| f.fct_secs()).collect();
    println!(
        "small-flow FCTs (s): {}",
        smalls
            .iter()
            .map(|f| format!("{f:.2}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    // Chart: large-flow goodput over time (2 s windows).
    let series = out.flows[0].delivered_series();
    let horizon = out.ended_at;
    let pts: Vec<(f64, f64)> = (1..=60u64)
        .map(|k| {
            let t = netsim::SimTime::from_nanos(horizon.as_nanos() * k / 60);
            (
                t.as_secs_f64(),
                series.windowed_rate(t, netsim::SimTime::from_secs(2), 0.0) * 8.0 / 1e6,
            )
        })
        .collect();
    println!();
    print!(
        "{}",
        simstats::ascii_chart(&[("large-flow", &pts)], 72, 14, "t(s)", "Mbps")
    );
}
