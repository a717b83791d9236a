//! `suss-sim` — ad-hoc single-download simulation CLI.
//!
//! ```text
//! suss-sim [--site <name>] [--hop 5g|wired|wifi|4g] [--size <bytes|K|M>]
//!          [--cc cubic|suss|bbr|bbr2|bbr-suss] [--seed N]
//!          [--iters N] [--workers N] [--trace]
//! ```
//!
//! Multi-iteration runs (`--iters` > 1) execute as a simrunner campaign:
//! the seeds spread across `--workers` threads (0 = all cores) with
//! identical results at any worker count.
//!
//! Examples:
//!
//! ```text
//! suss-sim --site tokyo --hop wifi --size 2M --cc suss
//! suss-sim --site london --hop 5g --size 500K --cc cubic --iters 10
//! ```

use suss_repro::prelude::*;
use suss_repro::stats::Summary;

fn parse_size(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(x) = s.strip_suffix(['M', 'm']) {
        return x.parse::<f64>().ok().map(|v| (v * 1e6) as u64);
    }
    if let Some(x) = s.strip_suffix(['K', 'k']) {
        return x.parse::<f64>().ok().map(|v| (v * 1e3) as u64);
    }
    s.parse().ok()
}

fn parse_site(s: &str) -> Option<ServerSite> {
    Some(match s.to_lowercase().as_str() {
        "us-east" | "useast" | "google-us-east" => ServerSite::GoogleUsEast,
        "tokyo" | "google-tokyo" => ServerSite::GoogleTokyo,
        "singapore" | "google-singapore" => ServerSite::GoogleSingapore,
        "us-west" | "uswest" | "oracle-us-west" => ServerSite::OracleUsWest,
        "sydney" | "oracle-sydney" => ServerSite::OracleSydney,
        "london" | "oracle-london" => ServerSite::OracleLondon,
        "nz" | "campus" | "nz-campus" => ServerSite::NzCampus,
        _ => return None,
    })
}

fn parse_hop(s: &str) -> Option<LastHop> {
    Some(match s.to_lowercase().as_str() {
        "5g" => LastHop::FiveG,
        "wired" | "ethernet" => LastHop::Wired,
        "wifi" => LastHop::WiFi,
        "4g" | "lte" => LastHop::FourG,
        _ => return None,
    })
}

fn parse_cc(s: &str) -> Option<CcKind> {
    Some(match s.to_lowercase().as_str() {
        "cubic" => CcKind::Cubic,
        "suss" | "cubic+suss" | "cubic-suss" => CcKind::CubicSuss,
        "bbr" => CcKind::Bbr,
        "bbr2" => CcKind::Bbr2,
        "bbr-suss" | "bbr+suss" => CcKind::BbrSuss,
        _ => return None,
    })
}

fn usage() -> ! {
    eprintln!(
        "usage: suss-sim [--site us-east|tokyo|singapore|us-west|sydney|london|nz]\n\
         \x20               [--hop 5g|wired|wifi|4g] [--size <bytes|K|M>]\n\
         \x20               [--cc cubic|suss|bbr|bbr2|bbr-suss]\n\
         \x20               [--seed N] [--iters N] [--workers N] [--trace]"
    );
    std::process::exit(2);
}

/// Write the flow's samples, events, and counters as JSONL (flow id 1,
/// run label = the controller's name), for `suss-trace` to query.
fn write_trace(path: &str, out: &suss_repro::exp::FlowOutcome, run: &str) {
    let path = std::path::Path::new(path);
    let written = simtrace::create_jsonl(path)
        .and_then(|mut sink| suss_repro::exp::export_trace(&mut sink, Some(run), &[(1, out)]));
    match written {
        Ok(()) => eprintln!("trace: {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

fn main() {
    let mut site = ServerSite::GoogleTokyo;
    let mut hop = LastHop::WiFi;
    let mut size = 2 * MB;
    let mut cc = CcKind::CubicSuss;
    let mut seed = 1u64;
    let mut iters = 1u64;
    let mut workers = 0usize;
    let mut trace = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let need = |i: usize| args.get(i + 1).unwrap_or_else(|| usage());
        match args[i].as_str() {
            "--site" => {
                site = parse_site(need(i)).unwrap_or_else(|| usage());
                i += 1;
            }
            "--hop" => {
                hop = parse_hop(need(i)).unwrap_or_else(|| usage());
                i += 1;
            }
            "--size" => {
                size = parse_size(need(i)).unwrap_or_else(|| usage());
                i += 1;
            }
            "--cc" => {
                cc = parse_cc(need(i)).unwrap_or_else(|| usage());
                i += 1;
            }
            "--seed" => {
                seed = need(i).parse().unwrap_or_else(|_| usage());
                i += 1;
            }
            "--iters" => {
                iters = need(i).parse().unwrap_or_else(|_| usage());
                i += 1;
            }
            "--workers" => {
                workers = need(i).parse().unwrap_or_else(|_| usage());
                i += 1;
            }
            "--trace" => trace = true,
            _ => usage(),
        }
        i += 1;
    }
    // `SUSS_TRACE=path` implies tracing: the export needs the samples.
    let trace_out = std::env::var("SUSS_TRACE").ok().filter(|p| !p.is_empty());
    if trace_out.is_some() {
        trace = true;
    }

    let path = PathScenario::new(site, hop);
    println!(
        "{} | {} | {} bytes | minRTT {:.0} ms | bottleneck {} | buffer {:.1} BDP\n",
        path.id(),
        cc.label(),
        size,
        path.min_rtt().as_secs_f64() * 1e3,
        path.bottleneck,
        path.buffer_bdp
    );

    if iters == 1 {
        let out = run_flow(&path, cc, size, seed, trace);
        println!("fct            : {:.3} s", out.fct_secs());
        println!(
            "goodput        : {:.2} Mbps",
            size as f64 * 8.0 / out.fct_secs() / 1e6
        );
        println!("segments sent  : {}", out.segs_sent);
        println!(
            "retransmitted  : {} ({:.2}%)",
            out.segs_retransmitted,
            out.retransmit_rate * 100.0
        );
        println!("bottleneck drops: {}", out.bottleneck_drops);
        println!("suss pacings   : {}", out.suss_pacings);
        if trace {
            if let Some((t, _)) =
                out.trace.events.iter().find(|(_, e)| {
                    matches!(e, suss_repro::transport::TraceEvent::SlowStartExit { .. })
                })
            {
                println!("slow-start exit: t = {:.3} s", t.as_secs_f64());
            }
            println!("trace samples  : {}", out.trace.samples.len());
        }
        if let Some(path) = &trace_out {
            write_trace(path, &out, &cc.label());
        }
    } else {
        let mut grid = FlowGrid::new("suss-sim");
        let batch = grid.batch(&path, cc, size, iters, seed);
        let run = grid.run(&RunnerOpts::default().with_workers(workers));
        let s: Summary = run.fct(batch);
        println!(
            "fct over {} iters: mean {:.3} s  σ {:.3}  min {:.3}  max {:.3}  (95% CI ±{:.3})",
            s.n,
            s.mean,
            s.std_dev,
            s.min,
            s.max,
            s.ci95_half_width()
        );
    }
}
