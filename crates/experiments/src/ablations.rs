//! Ablation experiments beyond the paper's figures:
//!
//! * **k_max sweep** (Appendix A): growth-factor lookahead depth 1–3;
//! * **BtlBw variation** (Appendix B): the bottleneck rate drops or rises
//!   mid-slow-start;
//! * **burst shaping** (motivates §4): SUSS with the paced extra data
//!   injected as an un-paced burst, quantifying why the clocking+pacing
//!   combination is needed.

use crate::campaigns::FlowGrid;
use crate::runner::{
    build_download, run_download, run_until_complete, FlowOutcome, Transport, HORIZON, IW, MSS,
};
use cc_algos::{CcKind, CubicSuss};
use netsim::{Bandwidth, LinkSpec, RateSchedule, SimTime};
use simrunner::{RunManifest, RunnerOpts};
use simstats::{fmt_bytes, fmt_pct, improvement, TextTable};
use std::time::Duration;
use suss_core::SussConfig;
use workload::{LastHop, PathScenario, ServerSite};

/// Appendix A: FCT vs. k_max on a clean large-BDP path.
///
/// Runs as one [`FlowGrid`] campaign — all (size × k × seed) cells shard
/// across the worker pool and memoize in the shared cache — and returns
/// the rendered table together with the run's manifest.
pub fn kmax_sweep(
    sizes: &[u64],
    kmaxes: &[u8],
    iters: u64,
    seed_base: u64,
    opts: &RunnerOpts,
) -> (TextTable, RunManifest) {
    let scenario = PathScenario::new(ServerSite::GoogleTokyo, LastHop::Wired);
    let mut grid = FlowGrid::new("ablation_kmax");
    let batches: Vec<_> = sizes
        .iter()
        .map(|&size| {
            let off = grid.batch(&scenario, CcKind::Cubic, size, iters, seed_base);
            let ks: Vec<_> = kmaxes
                .iter()
                .map(|&k| grid.batch(&scenario, CcKind::CubicSussKmax(k), size, iters, seed_base))
                .collect();
            (size, off, ks)
        })
        .collect();
    let run = grid.run(opts);

    let mut t = TextTable::new(vec!["size", "k=0(off)", "k=1", "k=2", "k=3", "best-improv"]);
    for (size, off_b, ks) in batches {
        let off = run.fct(off_b).mean;
        let mut cols = vec![fmt_bytes(size), format!("{off:.3}")];
        let mut best = off;
        for b in ks {
            let v = run.fct(b).mean;
            best = best.min(v);
            cols.push(format!("{v:.3}"));
        }
        while cols.len() < 5 {
            cols.push("-".into());
        }
        cols.push(fmt_pct(improvement(off, best)));
        t.row(cols);
    }
    (t, run.manifest)
}

/// Run one flow over a path whose bottleneck follows `sched`.
pub(crate) fn run_scheduled(
    kind: CcKind,
    sched: RateSchedule,
    flow_bytes: u64,
    owd_ms: u64,
    seed: u64,
) -> FlowOutcome {
    let owd = Duration::from_millis(owd_ms);
    let data = LinkSpec::clean(sched.base_rate(), owd)
        .with_rate_schedule(sched)
        .with_queue_bdp(2 * owd, 1.0);
    let ack = LinkSpec::clean(Bandwidth::from_mbps(1000), owd);
    run_download(data, ack, Transport::tcp(kind), flow_bytes, seed, false).with_sender_fct()
}

/// Appendix B: FCT and loss with a mid-slow-start bandwidth change
/// (drop and rise cases), run as one [`FlowGrid`] campaign.
pub fn btlbw_sweep(
    flow_bytes: u64,
    iters: u64,
    seed_base: u64,
    opts: &RunnerOpts,
) -> (TextTable, RunManifest) {
    // The change lands mid-slow-start (~2 RTTs in on a 150 ms path).
    let drop = RateSchedule::steps(vec![
        (SimTime::ZERO, Bandwidth::from_mbps(100)),
        (SimTime::from_millis(400), Bandwidth::from_mbps(40)),
    ]);
    let rise = RateSchedule::steps(vec![
        (SimTime::ZERO, Bandwidth::from_mbps(40)),
        (SimTime::from_millis(400), Bandwidth::from_mbps(100)),
    ]);
    let cases = [
        ("drop 100→40 Mbps", "drop100-40", drop),
        ("rise 40→100 Mbps", "rise40-100", rise),
    ];

    let mut grid = FlowGrid::new("ablation_btlbw");
    let batches: Vec<_> = cases
        .into_iter()
        .map(|(label, tag, sched)| {
            let mut arm = |kind: CcKind| {
                let s = sched.clone();
                grid.batch_fn(
                    &format!("btlbw/{tag}/{}/{}B", kind.label(), flow_bytes),
                    &format!(
                        "topo=btlbw sched={tag}@400ms owd=75ms buf=1.0bdp cc={} size={flow_bytes}",
                        kind.label()
                    ),
                    iters,
                    seed_base,
                    move |seed| run_scheduled(kind, s.clone(), flow_bytes, 75, seed),
                )
            };
            (label, arm(CcKind::CubicSuss), arm(CcKind::Cubic))
        })
        .collect();
    let run = grid.run(opts);

    let mut t = TextTable::new(vec![
        "case",
        "suss-fct(s)",
        "cubic-fct(s)",
        "improv",
        "suss-drops",
        "cubic-drops",
    ]);
    for (label, suss_b, cubic_b) in batches {
        let (suss, cubic) = (run.fct(suss_b).mean, run.fct(cubic_b).mean);
        let drops = |b| {
            run.summary(b, |s| s.bottleneck_drops as f64)
                .map(|s| s.mean)
                .unwrap_or(f64::NAN)
        };
        t.row(vec![
            label.to_string(),
            format!("{suss:.3}"),
            format!("{cubic:.3}"),
            fmt_pct(improvement(cubic, suss)),
            format!("{:.1}", drops(suss_b)),
            format!("{:.1}", drops(cubic_b)),
        ]);
    }
    (t, run.manifest)
}

/// Burst-shaping ablation: paper CUBIC+SUSS with pacing disabled. When
/// the guard timer fires the window jumps straight to the round target
/// and the extra packets leave as an ACK-clocked burst (what §4 warns
/// against), so drops and loss can be compared to the paper's guarded
/// pacing.
struct BurstSuss {
    inner: CubicSuss,
}

impl tcp_sim::cc::CongestionControl for BurstSuss {
    fn name(&self) -> &'static str {
        "cubic+suss-burst"
    }
    fn cwnd(&self) -> u64 {
        self.inner.cwnd()
    }
    fn in_slow_start(&self) -> bool {
        self.inner.in_slow_start()
    }
    fn on_ack(&mut self, ack: &tcp_sim::cc::AckView) {
        self.inner.on_ack(ack)
    }
    fn on_congestion_event(&mut self, loss: &tcp_sim::cc::LossView) {
        self.inner.on_congestion_event(loss)
    }
    fn on_sent(&mut self, now: u64, bytes: u64, snd_nxt: u64) {
        self.inner.on_sent(now, bytes, snd_nxt)
    }
    fn pacing_rate(&self) -> Option<f64> {
        None // never pace: the ablation point
    }
    fn next_timer(&self) -> Option<u64> {
        self.inner.next_timer()
    }
    fn on_timer(&mut self, now: u64) {
        // Drain the inner state machine's whole pacing window at once.
        self.inner.on_timer(now);
        while let Some(t) = self.inner.next_timer() {
            if t > now.saturating_add(500_000_000) {
                break; // a future plan, not this window
            }
            self.inner.on_timer(t.max(now));
        }
    }
    fn ssthresh(&self) -> Option<u64> {
        self.inner.ssthresh()
    }
    fn take_events(&mut self) -> Vec<tcp_sim::cc::CcEvent> {
        self.inner.take_events()
    }
}

/// Name of the campaign-local gauge carrying the bottleneck queue's
/// high-water mark (bytes) for the burst ablation. A burst arriving
/// faster than the drain rate piles up; paced arrivals at cwnd/minRTT
/// (below the bottleneck rate while cwnd < BDP) do not.
const PEAK_QUEUE_GAUGE: &str = "ablation.peak_queue_bytes";

/// One burst-ablation cell on the shallow-buffered 5G path.
pub(crate) fn run_burst_variant(flow_bytes: u64, burst: bool, seed: u64) -> FlowOutcome {
    let mut scn = PathScenario::new(ServerSite::GoogleTokyo, LastHop::FiveG);
    scn.buffer_bdp = 0.35; // shallow: bursts visibly overflow
    let transport = if burst {
        Transport::Tcp(Box::new(BurstSuss {
            inner: CubicSuss::new(IW, MSS, SussConfig::default()),
        }))
    } else {
        Transport::tcp(CcKind::CubicSuss)
    };
    let (mut sim, flow, s2r) = build_download(
        scn.data_link(),
        scn.ack_link(),
        transport,
        flow_bytes,
        seed,
        false,
    );
    run_until_complete(&mut sim, &[flow], HORIZON);
    sim.metrics()
        .gauge(PEAK_QUEUE_GAUGE)
        .observe(sim.link_queue_stats(s2r).max_backlog_bytes);
    FlowOutcome::collect(&mut sim, flow, &[s2r]).with_sender_fct()
}

/// Compare burst-mode SUSS against paced SUSS on a shallow buffer, as a
/// [`FlowGrid`] campaign.
pub fn burst_ablation(
    flow_bytes: u64,
    iters: u64,
    seed_base: u64,
    opts: &RunnerOpts,
) -> (TextTable, RunManifest) {
    let mut scn = PathScenario::new(ServerSite::GoogleTokyo, LastHop::FiveG);
    scn.buffer_bdp = 0.35; // mirror the cell runner for the BDP divisor
    let bdp = scn.bdp_bytes().max(1) as f64;

    let mut grid = FlowGrid::new("ablation_burst");
    let mut arm = |tag: &str, burst: bool| {
        grid.batch_fn(
            &format!("burst/{tag}/{flow_bytes}B"),
            &format!(
                "{} variant={tag} cc=cubic+suss size={flow_bytes}",
                scn.canonical_params()
            ),
            iters,
            seed_base,
            move |seed| run_burst_variant(flow_bytes, burst, seed),
        )
    };
    let paced_b = arm("paced", false);
    let burst_b = arm("burst", true);
    let run = grid.run(opts);

    let mut t = TextTable::new(vec![
        "variant",
        "fct(s)",
        "rtx-rate(%)",
        "drops",
        "peak-queue(BDP)",
    ]);
    for (label, b) in [("paced (paper)", paced_b), ("burst (ablation)", burst_b)] {
        let drops = run
            .summary(b, |s| s.bottleneck_drops as f64)
            .map(|s| s.mean)
            .unwrap_or(f64::NAN);
        t.row(vec![
            label.to_string(),
            format!("{:.3}", run.fct(b).mean),
            format!("{:.2}", run.retransmit_rate(b).mean * 100.0),
            format!("{drops:.1}"),
            format!("{:.2}", run.counter_mean(b, PEAK_QUEUE_GAUGE) / bdp),
        ]);
    }
    (t, run.manifest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::MB;

    #[test]
    fn kmax_table_shape() {
        let (t, manifest) = kmax_sweep(&[MB], &[1, 2], 2, 1, &RunnerOpts::serial());
        assert_eq!(t.len(), 1);
        // 1 size × (off + 2 ks) × 2 iters.
        assert_eq!(manifest.total_cells, 6);
        assert!(manifest.events_total > 0, "cells must report sim events");
    }

    #[test]
    fn btlbw_drop_does_not_break_suss() {
        let (t, manifest) = btlbw_sweep(3 * MB, 1, 1, &RunnerOpts::serial());
        assert_eq!(t.len(), 2);
        // 2 cases × 2 arms × 1 iter.
        assert_eq!(manifest.total_cells, 4);
        for line in t.to_csv().lines().skip(1) {
            let cols: Vec<&str> = line.split(',').collect();
            let suss: f64 = cols[1].parse().unwrap();
            let cubic: f64 = cols[2].parse().unwrap();
            assert!(suss.is_finite(), "{}: suss incomplete", cols[0]);
            assert!(cubic.is_finite());
            // Appendix B: SUSS stays competitive under rate variation.
            let rel = suss / cubic;
            assert!(rel < 1.15, "{}: suss/cubic FCT ratio {rel:.2}", cols[0]);
        }
    }

    #[test]
    fn pacing_beats_bursting_on_shallow_buffers() {
        let (t, manifest) = burst_ablation(3 * MB, 1, 1, &RunnerOpts::serial());
        assert_eq!(t.len(), 2);
        assert_eq!(manifest.total_cells, 2);
        // Structural check only here; the CSV carries the numbers. The
        // stronger property (burst drops >= paced drops) is asserted in
        // the integration suite where more iterations amortize noise.
    }
}
