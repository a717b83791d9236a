//! Figure 1: slow-start under-utilization (CUBIC & BBR vs. the θ line).

use experiments::fig01::{run, Fig01Params};
use suss_bench::BenchCli;

fn main() {
    let o = BenchCli::parse("fig01");
    let p = if o.quick {
        Fig01Params::quick()
    } else {
        Fig01Params::paper()
    };
    let r = run(&p);
    o.emit(
        &format!(
            "Fig. 1 — delivered data vs time on {} (θ = {:.1} Mbps)",
            r.scenario.id(),
            r.theta * 8.0 / 1e6
        ),
        &r.to_table(),
    );
    println!(
        "early utilization (first quarter of horizon): {:.0}% of the θ line",
        r.early_utilization(0.25) * 100.0
    );
    let pts = |s: &simstats::StepSeries| -> Vec<(f64, f64)> {
        s.resample(p.horizon, 64, 0.0)
            .into_iter()
            .map(|(t, v)| (t.as_secs_f64(), v / 1e6))
            .collect()
    };
    let cubic = pts(&r.cubic);
    let bbr = pts(&r.bbr);
    let theta: Vec<(f64, f64)> = (0..=64)
        .map(|k| {
            let t = p.horizon.as_secs_f64() * k as f64 / 64.0;
            (t, r.theta * t / 1e6)
        })
        .collect();
    println!();
    print!(
        "{}",
        simstats::ascii_chart(
            &[("cubic", &cubic), ("bbr", &bbr), ("theta", &theta)],
            72,
            16,
            "t(s)",
            "delivered(MB)"
        )
    );
}
