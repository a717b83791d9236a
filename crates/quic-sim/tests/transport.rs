//! End-to-end transport tests: the QUIC endpoints complete flows on the
//! netsim engine, under every `cc-algos` controller through the
//! `QuicController` adapter (the adapter round-trip), with working loss
//! recovery, SUSS acceleration, and deterministic results.

use cc_algos::{make_quic_controller, CcKind};
use netsim::{Bandwidth, FaultPlan, FlapWindow, FlowId, LinkSpec, Sim, SimTime};
use quic_sim::{
    install_quic_flow, wire_quic_flow, PacingStrategy, QuicConfig, QuicReceiver, QuicSender,
};
use std::time::Duration;

const MSS: u64 = 1_448;
const IW: u64 = 10 * MSS;

struct RunResult {
    fct: Option<Duration>,
    pkts_sent: u64,
    pkts_retransmitted: u64,
    pkts_lost: u64,
    ptos: u64,
    suss_pacings: usize,
    counters: simtrace::CounterSnapshot,
}

/// One QUIC download over a symmetric clean-ish path.
fn run_quic(
    kind: CcKind,
    flow_bytes: u64,
    seed: u64,
    strategy: PacingStrategy,
    loss: f64,
    queue_bytes: u64,
    tracing: bool,
) -> RunResult {
    let mut sim = Sim::new(seed);
    let mut cfg = QuicConfig::bulk(flow_bytes).with_strategy(strategy);
    cfg.trace_sampling = tracing;
    let ends = install_quic_flow(
        &mut sim,
        FlowId(1),
        cfg,
        make_quic_controller(kind, IW, MSS),
    );
    let data = LinkSpec::clean(Bandwidth::from_mbps(50), Duration::from_millis(25))
        .with_loss(loss)
        .with_queue_bytes(queue_bytes);
    let ack = LinkSpec::clean(Bandwidth::from_mbps(50), Duration::from_millis(25));
    let s2r = sim.add_half_link(ends.sender, ends.receiver, data);
    let r2s = sim.add_half_link(ends.receiver, ends.sender, ack);
    wire_quic_flow(&mut sim, ends, s2r, r2s);

    sim.run_while(SimTime::from_secs(120), |sim| {
        !sim.agent::<QuicSender>(ends.sender).is_done()
    });

    let started = {
        let snd = sim.agent::<QuicSender>(ends.sender);
        snd.stats.started_at.unwrap_or(SimTime::ZERO)
    };
    let rcv_done = sim.agent::<QuicReceiver>(ends.receiver).completed_at();
    let snd = sim.agent::<QuicSender>(ends.sender);
    RunResult {
        fct: rcv_done.map(|t| t.saturating_since(started)),
        pkts_sent: snd.stats.pkts_sent,
        pkts_retransmitted: snd.stats.pkts_retransmitted,
        pkts_lost: snd.stats.pkts_lost,
        ptos: snd.stats.ptos,
        suss_pacings: snd
            .trace
            .events
            .iter()
            .filter(|(_, e)| matches!(e, tcp_sim::trace::TraceEvent::SussPacing { .. }))
            .count(),
        counters: sim.metrics().snapshot(),
    }
}

#[test]
fn every_controller_completes_a_clean_flow() {
    // The adapter round-trip: each cc-algos controller drives the QUIC
    // transport end to end through `QuicController` alone.
    for kind in [
        CcKind::Cubic,
        CcKind::CubicSuss,
        CcKind::Bbr,
        CcKind::Bbr2,
        CcKind::BbrSuss,
    ] {
        let out = run_quic(
            kind,
            2_000_000,
            7,
            PacingStrategy::PerPacket,
            0.0,
            u64::MAX,
            false,
        );
        let fct = out
            .fct
            .unwrap_or_else(|| panic!("{kind:?} did not complete"));
        assert!(fct < Duration::from_secs(10), "{kind:?} fct {fct:?}");
        assert_eq!(out.pkts_retransmitted, 0, "{kind:?} clean path");
        assert_eq!(out.pkts_lost, 0, "{kind:?}");
        assert!(out.pkts_sent >= 2_000_000 / MSS, "{kind:?}");
    }
}

#[test]
fn loss_recovery_completes_under_random_loss() {
    // 1% i.i.d. loss: the detector + NAK list must repair every hole.
    let out = run_quic(
        CcKind::Cubic,
        1_000_000,
        3,
        PacingStrategy::PerPacket,
        0.01,
        u64::MAX,
        false,
    );
    let fct = out.fct.expect("lossy flow must still complete");
    assert!(fct < Duration::from_secs(60), "fct {fct:?}");
    assert!(out.pkts_lost > 0, "1% loss on ~700 pkts must hit");
    assert!(out.pkts_retransmitted >= out.pkts_lost - out.ptos.min(out.pkts_lost));
    assert_eq!(
        out.counters.get("quic.pkts_lost").unwrap_or(0),
        out.pkts_lost
    );
}

#[test]
fn all_strategies_complete_and_counters_flow() {
    for strategy in PacingStrategy::matrix() {
        let out = run_quic(
            CcKind::CubicSuss,
            1_000_000,
            5,
            strategy,
            0.0,
            u64::MAX,
            false,
        );
        assert!(out.fct.is_some(), "{strategy:?}");
        assert_eq!(
            out.counters.get("quic.pkts_sent").unwrap_or(0),
            out.pkts_sent,
            "{strategy:?}"
        );
        assert!(
            out.counters.get("quic.acks_sent").unwrap_or(0) >= out.pkts_sent,
            "{strategy:?}: per-packet acking"
        );
    }
}

#[test]
fn suss_schedules_pacing_and_beats_cubic_on_clean_path() {
    // SUSS must fire its pacing plan through the QUIC interface and
    // finish a mid-size download no later than stock CUBIC.
    let suss = run_quic(
        CcKind::CubicSuss,
        4_000_000,
        11,
        PacingStrategy::PerPacket,
        0.0,
        u64::MAX,
        true,
    );
    let cubic = run_quic(
        CcKind::Cubic,
        4_000_000,
        11,
        PacingStrategy::PerPacket,
        0.0,
        u64::MAX,
        true,
    );
    assert!(suss.suss_pacings > 0, "SUSS pacing must engage over QUIC");
    assert_eq!(
        suss.counters.get("suss.pacing_rounds").unwrap_or(0),
        suss.suss_pacings as u64
    );
    let (f_s, f_c) = (suss.fct.unwrap(), cubic.fct.unwrap());
    assert!(
        f_s <= f_c,
        "SUSS {f_s:?} should not lose to CUBIC {f_c:?} on a clean path"
    );
}

#[test]
fn runs_are_deterministic_across_engines() {
    // Same seed ⇒ identical outcomes, equal to what the original
    // binary-heap engine (no pooling, no batching) recorded.
    let mk = || {
        run_quic(
            CcKind::CubicSuss,
            1_500_000,
            42,
            PacingStrategy::Burst(8),
            0.005,
            64 * 1024,
            false,
        )
    };
    let (a, b) = (mk(), mk());
    for (x, name) in [(&a, "first run"), (&b, "repeat")] {
        assert_eq!(x.fct, Some(Duration::from_nanos(806_246_097)), "{name}");
        assert_eq!(x.pkts_sent, 1045, "{name}");
        assert_eq!(x.pkts_retransmitted, 9, "{name}");
        assert_eq!(x.pkts_lost, 9, "{name}");
        assert_eq!(x.ptos, 0, "{name}");
    }
}

#[test]
fn chunked_pacing_defers_more_sends_than_per_packet() {
    // The strategies must actually behave differently on the wire: the
    // chunked sender sleeps on the interval grid (pace-delay timers),
    // while unlimited-phase per-packet sending arms far fewer.
    let chunked = run_quic(
        CcKind::Cubic,
        2_000_000,
        9,
        PacingStrategy::Chunked(Duration::from_millis(5)),
        0.0,
        u64::MAX,
        false,
    );
    let per_pkt = run_quic(
        CcKind::Cubic,
        2_000_000,
        9,
        PacingStrategy::PerPacket,
        0.0,
        u64::MAX,
        false,
    );
    assert!(chunked.counters.get("quic.pace_delays").unwrap_or(0) > 0);
    assert!(per_pkt.counters.get("quic.pace_delays").unwrap_or(0) > 0);
    assert!(chunked.fct.is_some() && per_pkt.fct.is_some());
}

#[test]
fn loss_timer_records_a_loss_driven_slow_start_exit() {
    // A two-packet flow whose first packet a link flap cuts on the wire.
    // The ACK of the second leaves it short of the packet threshold, so
    // only the loss timer can declare it lost, and that loss ends slow
    // start.
    let mut sim = Sim::new(1);
    let ends = install_quic_flow(
        &mut sim,
        FlowId(1),
        QuicConfig::bulk(2 * MSS),
        make_quic_controller(CcKind::Cubic, IW, MSS),
    );
    let flap = FaultPlan::new().with_flaps(vec![FlapWindow {
        down: SimTime::from_micros(100),
        up: SimTime::from_micros(300),
    }]);
    let path = LinkSpec::clean(Bandwidth::from_mbps(50), Duration::from_millis(25));
    let s2r = sim.add_half_link(ends.sender, ends.receiver, path.clone().with_faults(flap));
    let r2s = sim.add_half_link(ends.receiver, ends.sender, path);
    wire_quic_flow(&mut sim, ends, s2r, r2s);
    sim.run_while(SimTime::from_secs(10), |sim| {
        !sim.agent::<QuicSender>(ends.sender).is_done()
    });

    let snd = sim.agent::<QuicSender>(ends.sender);
    assert!(snd.is_done());
    assert_eq!(
        (snd.stats.pkts_lost, snd.stats.ptos),
        (1, 0),
        "{:?}",
        snd.stats
    );
    assert!(!snd.cc().in_slow_start());
    let exits = snd
        .trace
        .events
        .iter()
        .filter(|(_, e)| matches!(e, tcp_sim::trace::TraceEvent::SlowStartExit { .. }))
        .count();
    assert_eq!(exits, 1, "{:?}", snd.trace.events);
    let counters = sim.metrics().snapshot();
    assert_eq!(
        counters.get(simtrace::names::CC_HYSTART_EXITS).unwrap_or(0),
        0
    );
}
