//! Shared dumbbell experiment runner: N download flows through the shaped
//! bottleneck of the paper's local testbed (Figs. 2, 15, 16, Table 1).

use cc_algos::CcKind;
use netsim::{build_dumbbell, FlowId, NodeId, Sim, SimTime};
use simstats::StepSeries;
use tcp_sim::flow::{install_flow, wire_flow, FlowEnds};
use tcp_sim::sender::SenderConfig;
use workload::DumbbellConfig;

use crate::runner::{collect_sim_telemetry, run_until_complete, Endpoints, FlowOutcome, IW, MSS};

/// One flow in a dumbbell experiment.
#[derive(Debug, Clone, Copy)]
pub struct DumbbellFlow {
    /// Congestion controller for this flow's sender.
    pub kind: CcKind,
    /// Bytes to transfer (`u64::MAX` = long-lived flow, runs to horizon).
    pub flow_bytes: u64,
    /// Start time.
    pub start_at: SimTime,
    /// Per-ACK trace sampling.
    pub tracing: bool,
}

impl DumbbellFlow {
    /// A finite download starting at `start_at`.
    pub fn download(kind: CcKind, flow_bytes: u64, start_at: SimTime) -> Self {
        DumbbellFlow {
            kind,
            flow_bytes,
            start_at,
            tracing: false,
        }
    }

    /// Enable tracing.
    pub fn traced(mut self) -> Self {
        self.tracing = true;
        self
    }
}

/// Result of a dumbbell experiment.
#[derive(Debug)]
pub struct DumbbellOutcome {
    /// Per-flow outcomes, in input order.
    pub flows: Vec<FlowOutcome>,
    /// Packets dropped at the congested (server→client) bottleneck queue.
    pub bottleneck_drops: u64,
    /// End-of-run simulation time.
    pub ended_at: SimTime,
}

impl DumbbellOutcome {
    /// Per-flow delivered-bytes series (requires tracing on those flows).
    pub fn delivered_series(&self) -> Vec<StepSeries> {
        self.flows.iter().map(|f| f.delivered_series()).collect()
    }

    /// Jain's index over flows `flow_idx` within `[t − window, t]`.
    pub fn jain_at(&self, flow_idx: &[usize], t: SimTime, window: SimTime) -> Option<f64> {
        let goodputs: Vec<f64> = flow_idx
            .iter()
            .map(|&i| {
                self.flows[i]
                    .delivered_series()
                    .windowed_rate(t, window, 0.0)
            })
            .collect();
        simstats::jain_index(&goodputs)
    }
}

/// Run `flows.len()` download flows (servers on the right of the dumbbell,
/// clients on the left) over `cfg`, until all finite flows complete or
/// `horizon` elapses.
///
/// # Panics
/// Panics if `flows.len() != cfg.pairs()`.
pub fn run_dumbbell(
    cfg: &DumbbellConfig,
    flows: &[DumbbellFlow],
    seed: u64,
    horizon: SimTime,
) -> DumbbellOutcome {
    let _cell_span = simtrace::prof::span("dumbbell/cell");
    assert_eq!(flows.len(), cfg.pairs(), "one flow per dumbbell pair");
    let mut sim = Sim::new(seed);

    // Endpoints: senders (servers) right, receivers (clients) left.
    let mut ends: Vec<FlowEnds> = Vec::with_capacity(flows.len());
    for (i, f) in flows.iter().enumerate() {
        let mut scfg = SenderConfig::bulk(f.flow_bytes).starting_at(f.start_at);
        scfg.trace_sampling = f.tracing;
        let e = install_flow(
            &mut sim,
            FlowId(i as u64 + 1),
            scfg,
            cc_algos::make_controller(f.kind, IW, MSS),
        );
        ends.push(e);
    }

    let clients: Vec<NodeId> = ends.iter().map(|e| e.receiver).collect();
    let servers: Vec<NodeId> = ends.iter().map(|e| e.sender).collect();
    let db = build_dumbbell(&mut sim, &clients, &servers, &cfg.to_spec());
    for (i, e) in ends.iter().enumerate() {
        wire_flow(&mut sim, *e, db.right_egress[i], db.left_egress[i]);
    }

    let finite: Vec<Endpoints> = ends
        .iter()
        .zip(flows)
        .filter(|(_, f)| f.flow_bytes != u64::MAX)
        .map(|(&e, _)| Endpoints::Tcp(e))
        .collect();
    if finite.is_empty() {
        // Only long-lived flows: observe for the whole horizon.
        sim.run_until(horizon);
    } else {
        run_until_complete(&mut sim, &finite, horizon);
    }
    let ended_at = sim.now();

    let drops = sim.link_queue_stats(db.bottleneck_r2l).dropped_pkts;
    // One shared simulation: snapshot once, every flow reports the same
    // simulation-wide counters.
    let counters = collect_sim_telemetry(&sim);
    // The shared queue's drops are reported at outcome level, not per flow.
    let outcomes = ends
        .iter()
        .map(|&e| FlowOutcome::of_flow(&mut sim, Endpoints::Tcp(e), 0, counters.clone()))
        .collect();

    DumbbellOutcome {
        flows: outcomes,
        bottleneck_drops: drops,
        ended_at,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use workload::MB;

    #[test]
    fn two_equal_flows_share_fairly() {
        let cfg = DumbbellConfig::fairness(Duration::from_millis(50), 2.0, 2);
        let flows = vec![
            DumbbellFlow::download(CcKind::Cubic, 4 * MB, SimTime::ZERO).traced(),
            DumbbellFlow::download(CcKind::Cubic, 4 * MB, SimTime::ZERO).traced(),
        ];
        let out = run_dumbbell(&cfg, &flows, 1, SimTime::from_secs(60));
        let f0 = out.flows[0].fct_secs();
        let f1 = out.flows[1].fct_secs();
        assert!(f0.is_finite() && f1.is_finite());
        // Identical flows: near-identical FCTs.
        assert!((f0 / f1 - 1.0).abs() < 0.25, "f0 {f0} f1 {f1}");
        // Aggregate goodput can't beat the bottleneck: 8 MB at 50 Mbps
        // needs ≥ 1.28 s.
        assert!(f0.max(f1) >= 1.28, "too fast for a 50 Mbps bottleneck");
        // Mid-transfer fairness is high.
        let jain = out
            .jain_at(
                &[0, 1],
                SimTime::from_millis(900),
                SimTime::from_millis(500),
            )
            .unwrap();
        assert!(jain > 0.8, "jain {jain}");
    }

    #[test]
    fn late_flow_completes_against_background() {
        let cfg = DumbbellConfig::fairness(Duration::from_millis(50), 1.0, 3);
        let flows = vec![
            DumbbellFlow::download(CcKind::Cubic, 30 * MB, SimTime::ZERO),
            DumbbellFlow::download(CcKind::Cubic, 30 * MB, SimTime::ZERO),
            DumbbellFlow::download(CcKind::CubicSuss, MB, SimTime::from_secs(3)),
        ];
        let out = run_dumbbell(&cfg, &flows, 2, SimTime::from_secs(120));
        assert!(out.flows[2].fct_secs().is_finite(), "late flow must finish");
        assert!(out.bottleneck_drops > 0, "a congested 1-BDP buffer drops");
    }

    #[test]
    #[should_panic]
    fn flow_count_must_match_pairs() {
        let cfg = DumbbellConfig::fairness(Duration::from_millis(50), 1.0, 2);
        run_dumbbell(
            &cfg,
            &[DumbbellFlow::download(CcKind::Cubic, MB, SimTime::ZERO)],
            1,
            SimTime::from_secs(1),
        );
    }
}
