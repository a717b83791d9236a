//! Shared single-path experiment runner: one flow over one Internet-matrix
//! scenario, mirroring the paper's "client downloads a file from a server"
//! measurement unit.

use cc_algos::CcKind;
use netsim::{FlowId, Sim, SimTime};
use simstats::StepSeries;
use std::cell::Cell;
use std::rc::Rc;
use std::time::Duration;
use tcp_sim::flow::{install_flow, wire_flow};
use tcp_sim::receiver::{AckPolicy, ReceiverEndpoint};
use tcp_sim::sender::{SenderConfig, SenderEndpoint};
use tcp_sim::trace::{ConnTrace, TraceEvent};
use workload::PathScenario;

/// Linux-like defaults: MSS 1448 B, IW 10 segments (RFC 6928).
pub const MSS: u64 = 1_448;
/// Initial window: 10 segments.
pub const IW: u64 = 10 * MSS;

/// Everything measured from one download.
#[derive(Debug, Clone)]
pub struct FlowOutcome {
    /// Sender-side FCT (last byte cumulatively ACKed).
    pub fct: Option<Duration>,
    /// Receiver-side completion (last byte reassembled) — the paper's
    /// download-complete instant.
    pub fct_receiver: Option<Duration>,
    /// Data segments sent, including retransmissions.
    pub segs_sent: u64,
    /// Retransmitted segments.
    pub segs_retransmitted: u64,
    /// Sender's observable loss proxy: retransmitted / sent.
    pub retransmit_rate: f64,
    /// Packets dropped at the bottleneck queue (ground truth).
    pub bottleneck_drops: u64,
    /// cwnd at slow-start exit, if it exited.
    pub exit_cwnd: Option<u64>,
    /// Number of SUSS pacing periods.
    pub suss_pacings: usize,
    /// Simulation-wide metric snapshot at flow end (retransmits, RTOs,
    /// HyStart exits, queue drops, …) — see `simtrace::names`.
    pub counters: simtrace::CounterSnapshot,
    /// Full connection trace (samples populated only when tracing).
    pub trace: ConnTrace,
}

impl FlowOutcome {
    /// Seconds variant of the receiver FCT (NaN if incomplete).
    pub fn fct_secs(&self) -> f64 {
        self.fct_receiver
            .map(|d| d.as_secs_f64())
            .unwrap_or(f64::NAN)
    }

    /// Delivered-bytes step series from the trace (requires tracing).
    pub fn delivered_series(&self) -> StepSeries {
        StepSeries::new(
            self.trace
                .samples
                .iter()
                .map(|s| (s.t, s.delivered as f64))
                .collect(),
        )
    }

    /// cwnd step series in segments (requires tracing).
    pub fn cwnd_series(&self) -> StepSeries {
        StepSeries::new(
            self.trace
                .samples
                .iter()
                .map(|s| (s.t, s.cwnd as f64 / MSS as f64))
                .collect(),
        )
    }

    /// RTT sample series in milliseconds (requires tracing).
    pub fn rtt_series(&self) -> StepSeries {
        StepSeries::new(
            self.trace
                .samples
                .iter()
                .filter_map(|s| s.rtt.map(|r| (s.t, r.as_secs_f64() * 1e3)))
                .collect(),
        )
    }
}

/// Snapshot a finished simulation's metric registry and report its
/// dispatched-event count to the per-cell runtime tally (which simrunner
/// workers fold into manifest telemetry). Call once per simulation, after
/// the run loop.
pub fn collect_sim_telemetry(sim: &Sim) -> simtrace::CounterSnapshot {
    simtrace::runtime::add_cell_events(sim.events_dispatched());
    sim.metrics().snapshot()
}

/// Run one download of `flow_bytes` over `scenario` with controller `kind`.
///
/// `seed` controls all stochastic path elements; with the same seed, the
/// SUSS-on and SUSS-off arms see identical jitter and loss draws — the
/// simulator's strengthened version of the paper's alternating A/B runs.
pub fn run_flow(
    scenario: &PathScenario,
    kind: CcKind,
    flow_bytes: u64,
    seed: u64,
    tracing: bool,
) -> FlowOutcome {
    run_flow_with_horizon(
        scenario,
        kind,
        flow_bytes,
        seed,
        tracing,
        SimTime::from_secs(600),
    )
}

/// [`run_flow`] with an explicit simulation horizon.
pub fn run_flow_with_horizon(
    scenario: &PathScenario,
    kind: CcKind,
    flow_bytes: u64,
    seed: u64,
    tracing: bool,
    horizon: SimTime,
) -> FlowOutcome {
    let _cell_span = simtrace::prof::span("flow/cell");
    let mut sim = Sim::new(seed);
    let mut cfg = SenderConfig::bulk(flow_bytes);
    cfg.trace_sampling = tracing;
    let ends = install_flow(
        &mut sim,
        FlowId(1),
        cfg,
        cc_algos::make_controller(kind, IW, MSS),
        AckPolicy::default(),
    );
    let s2r = sim.add_half_link(ends.sender, ends.receiver, scenario.data_link());
    let r2s = sim.add_half_link(ends.receiver, ends.sender, scenario.ack_link());
    wire_flow(&mut sim, ends, s2r, r2s);

    // The tally flips inside the same dispatch as `is_done`, so the stop
    // boundary is unchanged, without a downcast after every step.
    let done = Rc::new(Cell::new(0u64));
    sim.agent_mut::<SenderEndpoint>(ends.sender)
        .notify_completion(Rc::clone(&done));
    sim.run_while(horizon, |_| done.get() == 0);

    let drops = sim.link_queue_stats(s2r).dropped_pkts;
    let rcv_done = sim.agent::<ReceiverEndpoint>(ends.receiver).completed_at();
    let snd = sim.agent::<SenderEndpoint>(ends.sender);
    let started = snd.stats.started_at.unwrap_or(SimTime::ZERO);
    FlowOutcome {
        fct: snd.stats.fct(),
        fct_receiver: rcv_done.map(|t| t.saturating_since(started)),
        segs_sent: snd.stats.segs_sent,
        segs_retransmitted: snd.stats.segs_retransmitted,
        retransmit_rate: snd.stats.retransmit_rate(),
        bottleneck_drops: drops,
        exit_cwnd: snd.trace.events.iter().find_map(|(_, e)| match e {
            TraceEvent::SlowStartExit { cwnd } => Some(*cwnd),
            _ => None,
        }),
        suss_pacings: snd
            .trace
            .events
            .iter()
            .filter(|(_, e)| matches!(e, TraceEvent::SussPacing { .. }))
            .count(),
        counters: collect_sim_telemetry(&sim),
        trace: snd.trace.clone(),
    }
}

/// Mean receiver-side FCT over `iters` seeded repetitions, run as a
/// one-batch campaign (the worker pool parallelizes the seeds; results
/// are identical to the serial loop by simrunner's ordering invariant).
pub fn mean_fct(
    scenario: &PathScenario,
    kind: CcKind,
    flow_bytes: u64,
    iters: u64,
    seed_base: u64,
) -> simstats::Summary {
    let mut grid = crate::campaigns::FlowGrid::new("mean_fct");
    let batch = grid.batch(scenario, kind, flow_bytes, iters, seed_base);
    grid.run(&simrunner::RunnerOpts::default()).fct(batch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::{LastHop, ServerSite};

    #[test]
    fn wired_download_completes_quickly() {
        let scn = PathScenario::new(ServerSite::OracleLondon, LastHop::Wired);
        let out = run_flow(&scn, CcKind::Cubic, 1_000_000, 1, true);
        let fct = out.fct_receiver.expect("must complete");
        // London→Sweden wired: RTT ~38 ms, 300 Mbps. Several RTTs of slow
        // start dominate; well under a second.
        assert!(fct < Duration::from_secs(1), "fct {fct:?}");
        assert_eq!(out.segs_retransmitted, 0);
        assert!(!out.trace.samples.is_empty());
        // Registry counters mirror the sender stats.
        assert_eq!(
            out.counters.get(simtrace::names::TCP_SEGS_SENT),
            Some(out.segs_sent)
        );
        assert_eq!(out.counters.get(simtrace::names::TCP_RETRANSMITS), Some(0));
        assert!(out.counters.get(simtrace::names::NET_EVENTS).unwrap_or(0) > 0);
    }

    #[test]
    fn fourg_download_is_slower_than_wifi() {
        // Same client region (NZ) and thus same WAN RTT: the slower,
        // deeper-buffered 4G access must yield a longer FCT than WiFi.
        let size = 8_000_000;
        let wifi = run_flow(
            &PathScenario::new(ServerSite::GoogleTokyo, LastHop::WiFi),
            CcKind::Cubic,
            size,
            1,
            false,
        );
        let fourg = run_flow(
            &PathScenario::new(ServerSite::GoogleTokyo, LastHop::FourG),
            CcKind::Cubic,
            size,
            1,
            false,
        );
        assert!(fourg.fct_secs() > wifi.fct_secs());
    }

    #[test]
    fn identical_seeds_identical_outcomes() {
        let scn = PathScenario::new(ServerSite::GoogleTokyo, LastHop::WiFi);
        let a = run_flow(&scn, CcKind::CubicSuss, 500_000, 9, false);
        let b = run_flow(&scn, CcKind::CubicSuss, 500_000, 9, false);
        assert_eq!(a.fct, b.fct);
        assert_eq!(a.segs_sent, b.segs_sent);
    }

    #[test]
    fn mean_fct_aggregates() {
        let scn = PathScenario::new(ServerSite::NzCampus, LastHop::WiFi);
        let s = mean_fct(&scn, CcKind::Cubic, 200_000, 3, 1);
        assert_eq!(s.n, 3);
        assert!(s.mean > 0.0 && s.mean.is_finite());
    }
}
