//! Extension: the QUIC pacing-strategy matrix — the "QUIC Steps"
//! comparison reproduced on the `quic-sim` transport, with SUSS on top.
//!
//! Sweeps {4G, wired} × {per-packet, burst-8, chunked-5ms} pacing ×
//! {CUBIC, CUBIC+SUSS}; both controllers within a (scenario, strategy)
//! pair face byte-identical seeds. Two questions: how much does the
//! departure shape alone move FCT, and does SUSS's predictive
//! acceleration survive every shape? Percentiles land in the printed
//! table and as machine-readable annotations in the run manifest.

use experiments::quic_pacing::{quic_pacing_table, QUIC_SIZES_FULL, QUIC_SIZES_QUICK};
use quic_sim::PacingStrategy;
use suss_bench::BenchCli;

fn main() {
    let o = BenchCli::parse("ext_quic_pacing");
    let (iters, sizes): (u64, &[u64]) = if o.quick {
        (2, &QUIC_SIZES_QUICK)
    } else {
        (6, &QUIC_SIZES_FULL)
    };
    let run = quic_pacing_table(iters, sizes, 1, &o.runner());
    let (completed, incomplete) = run.totals();
    println!("quic pacing: completed={completed} incomplete={incomplete}");
    o.write_manifest(&run.manifest);
    o.emit(
        "Extension — QUIC pacing matrix: FCT percentiles by flow-size bucket",
        &run.table,
    );

    // Headline: small-flow (slow-start-dominated) FCT on the 4G path —
    // the strategy spread for stock CUBIC, then the SUSS verdict per
    // departure shape.
    let strategies = PacingStrategy::matrix();
    let mut cubic_p50 = Vec::new();
    for s in strategies {
        let label = format!("quic/4G/{}/cubic/<=200KB", s.label());
        if let Some(p50) = run.p50(&label) {
            cubic_p50.push(p50);
            println!(
                "strategy spread: 4G cubic {} <=200KB p50={p50:.3}s",
                s.label()
            );
        }
    }
    if let (Some(min), Some(max)) = (
        cubic_p50.iter().cloned().reduce(f64::min),
        cubic_p50.iter().cloned().reduce(f64::max),
    ) {
        println!(
            "strategy spread: 4G cubic <=200KB p50 range {min:.3}s..{max:.3}s ({:+.1}%)",
            (max / min - 1.0) * 100.0
        );
    }
    let mut suss_wins = 0usize;
    for s in strategies {
        let cubic = run.p50(&format!("quic/4G/{}/cubic/<=200KB", s.label()));
        let suss = run.p50(&format!("quic/4G/{}/cubic+suss/<=200KB", s.label()));
        if let (Some(c), Some(z)) = (cubic, suss) {
            let verdict = if z <= c { "suss wins" } else { "suss loses" };
            if z <= c {
                suss_wins += 1;
            }
            println!(
                "suss check: 4G {} <=200KB p50 cubic={c:.3}s suss={z:.3}s ({verdict})",
                s.label()
            );
        }
    }
    println!(
        "suss verdict: wins small-flow p50 under {suss_wins}/{} pacing strategies",
        strategies.len()
    );

    if !run.manifest.all_ok() {
        eprintln!(
            "ext_quic_pacing: {} of {} cells failed; see the manifest for per-cell status",
            run.manifest.cells_failed, run.manifest.total_cells
        );
        std::process::exit(1);
    }
}
