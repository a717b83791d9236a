//! Traced cell drivers: line-for-line mirrors of `experiments::run_flow`,
//! `run_quic_pacing_cell` and `run_fleet_cell`, built from public API
//! only, with the endpoint agents and controllers wrapped in
//! [`crate::trace`]'s delegating spans and every `Sim::run_*` call
//! bracketed. The wrappers only observe, so each driver returns exactly
//! what its original returns (pinned by the tests below and, per run, by
//! the campaign fingerprint check).

use crate::trace::{enter, Kind, TracedAgent, TracedCc, TracedQuicCc};
use cc_algos::CcKind;
use experiments::fleet::{BUCKET_MID_MAX, BUCKET_SMALL_MAX};
use experiments::runner::collect_sim_telemetry;
use experiments::{
    attach_link_scope, emit_scope_annotations, FleetConfig, FleetStats, FlowOutcome,
    QuicPacingConfig, QuicPacingStats, IW, MSS,
};
use netsim::{Bandwidth, FlowId, LinkId, LinkSpec, Router, Sim, SimTime};
use quic_sim::{QuicConfig, QuicFlowEnds, QuicReceiver, QuicSender};
use simstats::LogHistogram;
use simtrace::names;
use std::rc::Rc;
use std::time::Duration;
use tcp_sim::flow::{teardown_flow, wire_flow, FlowEnds};
use tcp_sim::receiver::{AckPolicy, ReceiverEndpoint};
use tcp_sim::sender::{SenderConfig, SenderEndpoint};
use tcp_sim::trace::TraceEvent;
use workload::PathScenario;

fn traced_sender(
    cfg: SenderConfig,
    flow: FlowId,
    kind: CcKind,
) -> Box<TracedAgent<SenderEndpoint>> {
    let cc = Box::new(TracedCc(cc_algos::make_controller(kind, IW, MSS)));
    Box::new(TracedAgent::new(
        SenderEndpoint::new(cfg, flow, cc),
        Kind::TcpSender,
    ))
}

fn traced_receiver(flow: FlowId) -> Box<TracedAgent<ReceiverEndpoint>> {
    Box::new(TracedAgent::new(
        ReceiverEndpoint::new(flow, AckPolicy::default()),
        Kind::TcpReceiver,
    ))
}

/// Finish wiring a freshly installed TCP pair (the tail of
/// `tcp_sim::flow::install_flow` / `respawn_flow`).
fn bind_pair(sim: &mut Sim, ends: FlowEnds) {
    let registry = sim.metrics().clone();
    sim.agent_mut::<SenderEndpoint>(ends.sender)
        .bind_metrics(&registry);
    sim.agent_mut::<SenderEndpoint>(ends.sender)
        .set_peer(ends.receiver);
    sim.agent_mut::<ReceiverEndpoint>(ends.receiver)
        .set_peer(ends.sender);
}

/// `tcp_sim::flow::install_flow` with traced endpoints.
fn install_traced_flow(sim: &mut Sim, flow: FlowId, cfg: SenderConfig, kind: CcKind) -> FlowEnds {
    let sender = sim.add_agent(traced_sender(cfg, flow, kind));
    let receiver = sim.add_agent(traced_receiver(flow));
    let ends = FlowEnds {
        flow,
        sender,
        receiver,
    };
    bind_pair(sim, ends);
    ends
}

/// `tcp_sim::flow::respawn_flow` with traced endpoints.
fn respawn_traced_flow(
    sim: &mut Sim,
    slots: FlowEnds,
    flow: FlowId,
    cfg: SenderConfig,
    kind: CcKind,
) -> FlowEnds {
    let ends = FlowEnds {
        flow,
        sender: slots.sender,
        receiver: slots.receiver,
    };
    sim.install_agent_at(ends.sender, traced_sender(cfg, flow, kind));
    sim.install_agent_at(ends.receiver, traced_receiver(flow));
    bind_pair(sim, ends);
    ends
}

/// Traced mirror of `experiments::run_flow(scenario, kind, flow_bytes,
/// seed, false)`.
pub fn run_flow(scenario: &PathScenario, kind: CcKind, flow_bytes: u64, seed: u64) -> FlowOutcome {
    let mut sim = Sim::with_engine(seed, netsim::EngineConfig::default());
    let ends = install_traced_flow(&mut sim, FlowId(1), SenderConfig::bulk(flow_bytes), kind);
    let s2r = sim.add_half_link(ends.sender, ends.receiver, scenario.data_link());
    let r2s = sim.add_half_link(ends.receiver, ends.sender, scenario.ack_link());
    wire_flow(&mut sim, ends, s2r, r2s);

    {
        let _g = enter(Kind::Sim);
        sim.run_while(SimTime::from_secs(600), |sim| {
            !sim.agent::<SenderEndpoint>(ends.sender).is_done()
        });
    }

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

/// One traced QUIC download (mirror of `quic_pacing`'s private `run_one`
/// with `quic_sim::install_quic_flow` inlined to wrap the endpoints).
fn run_quic_one(cfg: &QuicPacingConfig, flow_bytes: u64, seed: u64) -> (Option<f64>, Sim) {
    let mut sim = Sim::with_engine(seed, cfg.engine);
    let qcfg = QuicConfig::bulk(flow_bytes).with_strategy(cfg.strategy);
    let flow = FlowId(1);
    let cc = Box::new(TracedQuicCc(cc_algos::make_quic_controller(
        cfg.cc, IW, MSS,
    )));
    let sender = sim.add_agent(Box::new(TracedAgent::new(
        QuicSender::new(qcfg, flow, cc),
        Kind::QuicSender,
    )));
    let receiver = sim.add_agent(Box::new(TracedAgent::new(
        QuicReceiver::new(flow),
        Kind::QuicReceiver,
    )));
    let registry = sim.metrics().clone();
    sim.agent_mut::<QuicSender>(sender).bind_metrics(&registry);
    sim.agent_mut::<QuicReceiver>(receiver)
        .bind_metrics(&registry);
    sim.agent_mut::<QuicSender>(sender).set_peer(receiver);
    sim.agent_mut::<QuicReceiver>(receiver).set_peer(sender);
    let ends = QuicFlowEnds {
        flow,
        sender,
        receiver,
    };
    let s2r = sim.add_half_link(ends.sender, ends.receiver, cfg.scenario.data_link());
    let r2s = sim.add_half_link(ends.receiver, ends.sender, cfg.scenario.ack_link());
    quic_sim::wire_quic_flow(&mut sim, ends, s2r, r2s);

    {
        let _g = enter(Kind::Sim);
        sim.run_while(SimTime::from_secs(600), |sim| {
            !sim.agent::<QuicSender>(ends.sender).is_done()
        });
    }

    let fct = quic_sim::flow::teardown_quic_flow(&mut sim, ends)
        .map(|t| t.saturating_since(SimTime::ZERO).as_secs_f64());
    (fct, sim)
}

/// The FCT bucket a flow of `bytes` lands in (same edges as experiments).
fn bucket(bytes: u64) -> usize {
    if bytes <= BUCKET_SMALL_MAX {
        0
    } else if bytes <= BUCKET_MID_MAX {
        1
    } else {
        2
    }
}

fn observe(hists: [&mut LogHistogram; 3], bytes: u64, fct: f64) {
    let [small, mid, large] = hists;
    match bucket(bytes) {
        0 => small.observe(fct),
        1 => mid.observe(fct),
        _ => large.observe(fct),
    }
}

/// Traced mirror of `experiments::run_quic_pacing_cell`.
pub fn run_quic_pacing_cell(cfg: &QuicPacingConfig, seed: u64) -> QuicPacingStats {
    let mut stats = QuicPacingStats {
        completed: 0,
        incomplete: 0,
        hist_small: LogHistogram::new(),
        hist_mid: LogHistogram::new(),
        hist_large: LogHistogram::new(),
        counters: simtrace::CounterSnapshot::default(),
    };
    for iter in 0..cfg.iters {
        for (si, &bytes) in cfg.sizes.iter().enumerate() {
            let sub = seed
                .wrapping_add(iter.wrapping_mul(7919))
                .wrapping_add((si as u64).wrapping_mul(104_729));
            let (fct, sim) = run_quic_one(cfg, bytes, sub);
            match fct {
                Some(secs) => {
                    let hists = [
                        &mut stats.hist_small,
                        &mut stats.hist_mid,
                        &mut stats.hist_large,
                    ];
                    observe(hists, bytes, secs);
                    stats.completed += 1;
                }
                None => stats.incomplete += 1,
            }
            stats.counters.merge(&collect_sim_telemetry(&sim));
        }
    }
    stats
}

const EDGE_RATE: Bandwidth = Bandwidth::from_gbps(10);
const EDGE_DELAY: Duration = Duration::from_micros(1);

struct Slot {
    ends: FlowEnds,
    s_egress: LinkId,
    r_egress: LinkId,
    spawned_at: SimTime,
    bytes: u64,
    busy: bool,
}

fn harvest(sim: &mut Sim, slots: &mut [Slot], stats: &mut FleetStats, done: &simtrace::Counter) {
    for slot in slots.iter_mut().filter(|s| s.busy) {
        if !sim.agent::<SenderEndpoint>(slot.ends.sender).is_done() {
            continue;
        }
        let at = teardown_flow(sim, slot.ends).expect("fully-acked flow must have completed");
        let fct = at.saturating_since(slot.spawned_at).as_secs_f64();
        let hists = [
            &mut stats.hist_small,
            &mut stats.hist_mid,
            &mut stats.hist_large,
        ];
        observe(hists, slot.bytes, fct);
        stats.completed += 1;
        done.inc();
        slot.busy = false;
    }
}

/// Traced mirror of `experiments::run_fleet_cell`.
pub fn run_fleet_cell(cfg: &FleetConfig, seed: u64) -> FleetStats {
    let mut sim = Sim::with_engine(seed, cfg.engine);
    let metrics = sim.metrics().clone();
    let ctr_spawned = metrics.counter(names::FLEET_FLOWS_SPAWNED);
    let ctr_completed = metrics.counter(names::FLEET_FLOWS_COMPLETED);
    let ctr_expired = metrics.counter(names::FLEET_FLOWS_EXPIRED);
    let ctr_slots = metrics.counter(names::FLEET_SLOTS_CREATED);
    let ctr_reuses = metrics.counter(names::FLEET_SLOT_REUSES);
    let ctr_suppressed = metrics.counter(names::FLEET_TRACES_SUPPRESSED);

    let r1 = sim.add_agent(Box::new(Router::new()));
    let r2 = sim.add_agent(Box::new(Router::new()));
    let data = sim.add_half_link(r1, r2, cfg.scenario.data_link());
    let ack = sim.add_half_link(r2, r1, cfg.scenario.ack_link());
    let scope =
        (cfg.scope_sampling > 0).then(|| attach_link_scope(&mut sim, data, cfg.scope_sampling));
    sim.agent_mut::<Router>(r1).set_default_route(data);
    sim.agent_mut::<Router>(r2).set_default_route(ack);

    let tally = Rc::new(std::cell::Cell::new(0u64));
    let mut slots: Vec<Slot> = Vec::new();
    let mut stats = FleetStats {
        spawned: 0,
        completed: 0,
        expired: 0,
        peak_concurrent: 0,
        hist_small: LogHistogram::new(),
        hist_mid: LogHistogram::new(),
        hist_large: LogHistogram::new(),
        counters: simtrace::CounterSnapshot::default(),
    };
    let mut last_arrival = SimTime::ZERO;

    for (next_flow, arrival) in (1u64..).zip(cfg.workload.arrivals(seed)) {
        {
            let _g = enter(Kind::Sim);
            sim.run_until(arrival.at);
        }
        last_arrival = arrival.at;
        harvest(&mut sim, &mut slots, &mut stats, &ctr_completed);

        let active = slots.iter().filter(|s| s.busy).count();
        let sampled = cfg.trace_sampling && active < cfg.trace_flow_cap;
        if cfg.trace_sampling && !sampled {
            ctr_suppressed.inc();
        }
        let mut scfg = SenderConfig::bulk(arrival.bytes);
        scfg.start_at = arrival.at;
        scfg.trace_sampling = sampled;
        let flow = FlowId(next_flow);

        let ends = if let Some(i) = slots.iter().position(|s| !s.busy) {
            let (prev, s_eg, r_eg) = (slots[i].ends, slots[i].s_egress, slots[i].r_egress);
            let ends = respawn_traced_flow(&mut sim, prev, flow, scfg, cfg.cc);
            wire_flow(&mut sim, ends, s_eg, r_eg);
            let slot = &mut slots[i];
            slot.ends = ends;
            slot.spawned_at = arrival.at;
            slot.bytes = arrival.bytes;
            slot.busy = true;
            ctr_reuses.inc();
            ends
        } else {
            let ends = install_traced_flow(&mut sim, flow, scfg, cfg.cc);
            let edge = || LinkSpec::clean(EDGE_RATE, EDGE_DELAY);
            let s_up = sim.add_half_link(ends.sender, r1, edge());
            let s_down = sim.add_half_link(r1, ends.sender, edge());
            let r_up = sim.add_half_link(ends.receiver, r2, edge());
            let r_down = sim.add_half_link(r2, ends.receiver, edge());
            sim.agent_mut::<Router>(r1).add_route(ends.sender, s_down);
            sim.agent_mut::<Router>(r2).add_route(ends.receiver, r_down);
            wire_flow(&mut sim, ends, s_up, r_up);
            slots.push(Slot {
                ends,
                s_egress: s_up,
                r_egress: r_up,
                spawned_at: arrival.at,
                bytes: arrival.bytes,
                busy: true,
            });
            ctr_slots.inc();
            ends
        };
        sim.agent_mut::<SenderEndpoint>(ends.sender)
            .notify_completion(tally.clone());
        ctr_spawned.inc();
        stats.spawned += 1;
        let live = slots.iter().filter(|s| s.busy).count() as u64;
        stats.peak_concurrent = stats.peak_concurrent.max(live);
    }

    let spawned = stats.spawned;
    let watch = tally.clone();
    {
        let _g = enter(Kind::Sim);
        sim.run_while(last_arrival + cfg.drain, move |_| watch.get() < spawned);
    }
    harvest(&mut sim, &mut slots, &mut stats, &ctr_completed);
    for slot in slots.iter_mut().filter(|s| s.busy) {
        teardown_flow(&mut sim, slot.ends);
        slot.busy = false;
        stats.expired += 1;
        ctr_expired.inc();
    }

    if let Some(hists) = &scope {
        let prefix = format!(
            "scope/{}/{}/load{}",
            cfg.scenario.id(),
            cfg.cc.label(),
            cfg.workload.load
        );
        emit_scope_annotations(&prefix, hists);
    }
    stats.counters = collect_sim_telemetry(&sim);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace;
    use quic_sim::PacingStrategy;
    use std::time::Instant;
    use workload::{FleetWorkload, LastHop, ServerSite, KB, MB};

    #[test]
    fn traced_run_flow_is_transparent_for_every_matrix_cc() {
        let mut scn = PathScenario::new(ServerSite::OracleLondon, LastHop::FiveG);
        scn.buffer_bdp = 0.5;
        for kind in [CcKind::CubicSuss, CcKind::Cubic, CcKind::Bbr] {
            let plain = experiments::run_flow(&scn, kind, 2 * MB, 3, false);
            let (traced, span) = trace::cell(Instant::now(), || run_flow(&scn, kind, 2 * MB, 3));
            assert_eq!(plain.fct, traced.fct, "{kind:?}");
            assert_eq!(plain.fct_receiver, traced.fct_receiver, "{kind:?}");
            assert_eq!(plain.segs_sent, traced.segs_sent, "{kind:?}");
            assert_eq!(plain.segs_retransmitted, traced.segs_retransmitted);
            assert_eq!(plain.bottleneck_drops, traced.bottleneck_drops);
            assert_eq!(plain.exit_cwnd, traced.exit_cwnd);
            assert_eq!(plain.suss_pacings, traced.suss_pacings);
            assert_eq!(plain.counters, traced.counters, "{kind:?}");
            assert_eq!(plain.trace.events, traced.trace.events, "{kind:?}");
            assert!(span.tally.get(Kind::TcpSender).calls > 0);
            assert!(span.tally.get(Kind::TcpReceiver).calls > 0);
            assert!(span.tally.get(Kind::CcOnAck).calls > 0);
        }
    }

    #[test]
    fn traced_quic_cell_is_transparent() {
        let scn = PathScenario::new(ServerSite::OracleLondon, LastHop::Wired);
        let mut cfg = QuicPacingConfig::new(scn, PacingStrategy::Burst(8), CcKind::CubicSuss);
        cfg.iters = 1;
        cfg.sizes = vec![200 * KB, MB];
        let plain = experiments::run_quic_pacing_cell(&cfg, 5);
        let (traced, span) = trace::cell(Instant::now(), || run_quic_pacing_cell(&cfg, 5));
        assert_eq!(plain, traced);
        assert!(span.tally.get(Kind::QuicSender).calls > 0);
        assert!(span.tally.get(Kind::QuicReceiver).calls > 0);
        assert_eq!(span.tally.get(Kind::TcpSender).calls, 0);
    }

    #[test]
    fn traced_fleet_cell_is_transparent() {
        let scn = PathScenario::new(ServerSite::OracleLondon, LastHop::Wired);
        let mut cfg = FleetConfig::new(
            scn,
            CcKind::CubicSuss,
            FleetWorkload::web(0.6, scn.bottleneck, 60),
        );
        cfg.scope_sampling = experiments::fleet::FLEET_SCOPE_SAMPLING;
        simtrace::runtime::take_scope_annotations();
        let plain = experiments::run_fleet_cell(&cfg, 7);
        let plain_scopes = simtrace::runtime::take_scope_annotations();
        let (traced, span) = trace::cell(Instant::now(), || run_fleet_cell(&cfg, 7));
        let traced_scopes = simtrace::runtime::take_scope_annotations();
        assert_eq!(plain, traced);
        assert_eq!(
            serde::to_string(&plain_scopes),
            serde::to_string(&traced_scopes)
        );
        assert_eq!(traced.expired, 0);
        assert!(span.tally.get(Kind::Sim).calls > 60);
    }
}
