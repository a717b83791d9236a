//! The one single-flow runner, on either transport: the paper's "client
//! downloads a file from a server" unit. `run_download` chains its three
//! steps, which experiments with their own topology reuse one by one:
//! `build_download` (or `Endpoints::install`), `run_until_complete` and
//! `FlowOutcome::collect`. [`run_flow`] is its Internet-matrix case.

use cc_algos::{CcKind, QuicController};
use netsim::{FlowId, LinkId, LinkSpec, NodeId, Sim, SimTime};
use quic_sim::{
    install_quic_flow, wire_quic_flow, PacingStrategy, QuicConfig, QuicFlowEnds, QuicReceiver,
    QuicSender,
};
use simstats::StepSeries;
use std::cell::Cell;
use std::rc::Rc;
use std::time::Duration;
use tcp_sim::cc::CongestionControl;
use tcp_sim::flow::{install_flow, wire_flow, FlowEnds};
use tcp_sim::receiver::{AckPolicy, ReceiverEndpoint};
use tcp_sim::sender::{SenderConfig, SenderEndpoint};
use tcp_sim::trace::{ConnTrace, TraceEvent};
use workload::PathScenario;

/// Linux-like defaults: MSS 1448 B, IW 10 segments (RFC 6928).
pub const MSS: u64 = 1_448;
/// Initial window: 10 segments.
pub const IW: u64 = 10 * MSS;

/// Simulated-time limit of a single download.
pub(crate) const HORIZON: SimTime = SimTime::from_secs(600);

/// The transport that carries a download, with its congestion controller.
pub(crate) enum Transport {
    /// `tcp-sim` driving a TCP controller.
    Tcp(Box<dyn CongestionControl>),
    /// `quic-sim` driving a QUIC controller, departures spaced by the
    /// strategy.
    Quic(Box<dyn QuicController>, PacingStrategy),
}

impl Transport {
    /// TCP with the controller `kind` names, at [`IW`] and [`MSS`].
    pub(crate) fn tcp(kind: CcKind) -> Transport {
        Transport::Tcp(cc_algos::make_controller(kind, IW, MSS))
    }

    /// QUIC with the controller `kind` names, at [`IW`] and [`MSS`].
    pub(crate) fn quic(kind: CcKind, strategy: PacingStrategy) -> Transport {
        Transport::Quic(cc_algos::make_quic_controller(kind, IW, MSS), strategy)
    }
}

/// The sender and receiver of one installed download.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Endpoints {
    /// A `tcp-sim` flow.
    Tcp(FlowEnds),
    /// A `quic-sim` flow.
    Quic(QuicFlowEnds),
}

impl Endpoints {
    /// Install a bulk download of `flow_bytes` as `flow`, starting at
    /// t = 0; `tracing` turns on per-ACK samples. Wire its egress links
    /// with [`Endpoints::wire`] once the topology exists.
    pub(crate) fn install(
        sim: &mut Sim,
        flow: FlowId,
        transport: Transport,
        flow_bytes: u64,
        tracing: bool,
    ) -> Endpoints {
        match transport {
            Transport::Tcp(cc) => {
                let mut cfg = SenderConfig::bulk(flow_bytes);
                cfg.trace_sampling = tracing;
                Endpoints::Tcp(install_flow(sim, flow, cfg, cc, AckPolicy::default()))
            }
            Transport::Quic(cc, strategy) => {
                let mut cfg = QuicConfig::bulk(flow_bytes).with_strategy(strategy);
                cfg.trace_sampling = tracing;
                Endpoints::Quic(install_quic_flow(sim, flow, cfg, cc))
            }
        }
    }

    /// The sender's and the receiver's nodes.
    pub(crate) fn nodes(self) -> (NodeId, NodeId) {
        match self {
            Endpoints::Tcp(e) => (e.sender, e.receiver),
            Endpoints::Quic(e) => (e.sender, e.receiver),
        }
    }

    /// Wire the sender's and the receiver's egress half-links.
    pub(crate) fn wire(self, sim: &mut Sim, sender_egress: LinkId, receiver_egress: LinkId) {
        match self {
            Endpoints::Tcp(e) => wire_flow(sim, e, sender_egress, receiver_egress),
            Endpoints::Quic(e) => wire_quic_flow(sim, e, sender_egress, receiver_egress),
        }
    }
}

/// Everything measured from one download.
#[derive(Debug, Clone)]
pub struct FlowOutcome {
    /// Sender-side FCT (last byte cumulatively ACKed).
    pub fct: Option<Duration>,
    /// Receiver-side completion (last byte reassembled) — the paper's
    /// download-complete instant.
    pub fct_receiver: Option<Duration>,
    /// Data segments (QUIC: packets) sent, including retransmissions.
    pub segs_sent: u64,
    /// Retransmitted segments (QUIC: packets carrying retransmitted bytes).
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
    /// Read the outcome of the one download in a finished simulation:
    /// `bottlenecks` are the links whose queue drops it reports, and the
    /// counters are the simulation's (see [`collect_sim_telemetry`]).
    pub(crate) fn collect(sim: &mut Sim, flow: Endpoints, bottlenecks: &[LinkId]) -> FlowOutcome {
        let drops = bottlenecks
            .iter()
            .map(|&l| sim.link_queue_stats(l).dropped_pkts)
            .sum();
        let counters = collect_sim_telemetry(sim);
        FlowOutcome::of_flow(sim, flow, drops, counters)
    }

    /// Read one flow's outcome from a finished simulation, with the drop
    /// count and counter snapshot given (a simulation shared by several
    /// flows snapshots its counters once). Moves the flow's trace out of
    /// its sender.
    pub(crate) fn of_flow(
        sim: &mut Sim,
        flow: Endpoints,
        bottleneck_drops: u64,
        counters: simtrace::CounterSnapshot,
    ) -> FlowOutcome {
        let (done, started, fct, sent, rtx, rate, trace) = match flow {
            Endpoints::Tcp(e) => {
                let done = sim.agent::<ReceiverEndpoint>(e.receiver).completed_at();
                let snd = sim.agent_mut::<SenderEndpoint>(e.sender);
                let (s, trace) = (snd.stats, std::mem::take(&mut snd.trace));
                let (sent, rtx) = (s.segs_sent, s.segs_retransmitted);
                let (fct, rate) = (s.fct(), s.retransmit_rate());
                (done, s.started_at, fct, sent, rtx, rate, trace)
            }
            Endpoints::Quic(e) => {
                let done = sim.agent::<QuicReceiver>(e.receiver).completed_at();
                let snd = sim.agent_mut::<QuicSender>(e.sender);
                let (s, trace) = (snd.stats, std::mem::take(&mut snd.trace));
                let (sent, rtx) = (s.pkts_sent, s.pkts_retransmitted);
                let (fct, rate) = (s.fct(), s.retransmit_rate());
                (done, s.started_at, fct, sent, rtx, rate, trace)
            }
        };
        let started = started.unwrap_or(SimTime::ZERO);
        FlowOutcome {
            fct,
            fct_receiver: done.map(|t| t.saturating_since(started)),
            segs_sent: sent,
            segs_retransmitted: rtx,
            retransmit_rate: rate,
            bottleneck_drops,
            exit_cwnd: trace.events.iter().find_map(|(_, e)| match e {
                TraceEvent::SlowStartExit { cwnd } => Some(*cwnd),
                _ => None,
            }),
            suss_pacings: trace
                .events
                .iter()
                .filter(|(_, e)| matches!(e, TraceEvent::SussPacing { .. }))
                .count(),
            counters,
            trace,
        }
    }

    /// Report the sender-side FCT ([`FlowOutcome::fct`], last byte
    /// cumulatively ACKed) in place of the receiver's.
    ///
    /// ext_chaos, ext_codel, ext_cross_traffic, ext_parking_lot,
    /// ablation_btlbw and ablation_burst have always tabulated the
    /// sender's FCT, and their cached results and fingerprints hold it.
    /// The v3 campaign batch deletes this method and its six calls, so
    /// that they report the receiver's FCT like fig11–18 (ROADMAP.md,
    /// item 8).
    pub(crate) fn with_sender_fct(mut self) -> FlowOutcome {
        self.fct_receiver = self.fct;
        self
    }

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

/// Build one download's path: a simulation seeded with `seed`, flow 1
/// installed on `transport`, `data` carrying sender → receiver and `ack`
/// receiver → sender. Returns the simulation, the endpoints and the data
/// link.
pub(crate) fn build_download(
    data: LinkSpec,
    ack: LinkSpec,
    transport: Transport,
    flow_bytes: u64,
    seed: u64,
    tracing: bool,
) -> (Sim, Endpoints, LinkId) {
    let mut sim = Sim::new(seed);
    let flow = Endpoints::install(&mut sim, FlowId(1), transport, flow_bytes, tracing);
    let (snd, rcv) = flow.nodes();
    let s2r = sim.add_half_link(snd, rcv, data);
    let r2s = sim.add_half_link(rcv, snd, ack);
    flow.wire(&mut sim, s2r, r2s);
    (sim, flow, s2r)
}

/// Run `sim` until every sender in `flows` has completed, or `horizon`
/// passes.
///
/// The stop is a completion tally each sender bumps in the dispatch that
/// marks it done, so the boundary is the step at which polling every
/// sender would first see them all done, without a downcast after every
/// step.
pub(crate) fn run_until_complete(sim: &mut Sim, flows: &[Endpoints], horizon: SimTime) {
    let done = Rc::new(Cell::new(0u64));
    for flow in flows {
        match *flow {
            Endpoints::Tcp(e) => sim
                .agent_mut::<SenderEndpoint>(e.sender)
                .notify_completion(Rc::clone(&done)),
            Endpoints::Quic(e) => sim
                .agent_mut::<QuicSender>(e.sender)
                .notify_completion(Rc::clone(&done)),
        }
    }
    let all = flows.len() as u64;
    sim.run_while(horizon, |_| done.get() < all);
}

/// Run one download of `flow_bytes` over a data and an ACK link, to
/// completion or [`HORIZON`], and collect its outcome; drops are counted
/// on the data link.
pub(crate) fn run_download(
    data: LinkSpec,
    ack: LinkSpec,
    transport: Transport,
    flow_bytes: u64,
    seed: u64,
    tracing: bool,
) -> FlowOutcome {
    let (mut sim, flow, s2r) = build_download(data, ack, transport, flow_bytes, seed, tracing);
    run_until_complete(&mut sim, &[flow], HORIZON);
    FlowOutcome::collect(&mut sim, flow, &[s2r])
}

/// Run one TCP download of `flow_bytes` over `scenario` with controller
/// `kind`.
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
    let _cell_span = simtrace::prof::span("flow/cell");
    run_download(
        scenario.data_link(),
        scenario.ack_link(),
        Transport::tcp(kind),
        flow_bytes,
        seed,
        tracing,
    )
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
    fn every_path_variant_reports_slow_start_exit_and_suss_pacing() {
        use crate::ablations::{run_burst_variant, run_scheduled};
        use crate::chaos::{chaos_scenario, run_flow_faulted};
        use crate::extensions::run_flow_codel;
        use netsim::{Bandwidth, FaultPlan, RateSchedule};
        use workload::MB;

        let scn = chaos_scenario();
        let mut deep = scn;
        deep.buffer_bdp = 4.0;
        let drop = RateSchedule::steps(vec![
            (SimTime::ZERO, Bandwidth::from_mbps(100)),
            (SimTime::from_millis(400), Bandwidth::from_mbps(40)),
        ]);
        let suss = CcKind::CubicSuss;
        // Each path at a size where SUSS has paced before the flow leaves
        // slow start, on an ACK or, for the 12 MB burst arm, on a loss.
        let size = 8 * MB;
        let variants: [(&str, FlowOutcome); 7] = [
            ("plain", run_flow(&scn, suss, size, 1, false)),
            (
                "faulted",
                run_flow_faulted(&scn, suss, size, 1, &FaultPlan::new()),
            ),
            ("codel", run_flow_codel(&deep, suss, size, 1)),
            ("rate-scheduled", run_scheduled(suss, drop, size, 75, 1)),
            ("burst ablation", run_burst_variant(20 * MB, true, 1)),
            (
                "burst ablation, loss exit",
                run_burst_variant(12 * MB, true, 1),
            ),
            (
                "quic per-packet",
                run_download(
                    scn.data_link(),
                    scn.ack_link(),
                    Transport::quic(suss, PacingStrategy::PerPacket),
                    size,
                    1,
                    false,
                ),
            ),
        ];
        for (name, out) in &variants {
            assert!(out.fct_secs().is_finite(), "{name}: incomplete");
            assert!(out.exit_cwnd.is_some(), "{name}: no slow-start exit");
            assert!(out.suss_pacings > 0, "{name}: no SUSS pacing");
        }
    }

    #[test]
    fn mean_fct_aggregates() {
        let scn = PathScenario::new(ServerSite::NzCampus, LastHop::WiFi);
        let s = mean_fct(&scn, CcKind::Cubic, 200_000, 3, 1);
        assert_eq!(s.n, 3);
        assert!(s.mean > 0.0 && s.mean.is_finite());
    }
}
