//! End-to-end controller behaviour over the full transport + simulator:
//! the properties the paper's evaluation rests on, as assertions.

use cc_algos::{make_controller, CcKind};
use netsim::{Bandwidth, FlowId, LinkSpec, Sim, SimTime};
use std::time::Duration;
use tcp_sim::flow::{install_flow, wire_flow};
use tcp_sim::sender::{SenderConfig, SenderEndpoint};
use tcp_sim::trace::TraceEvent;

const MSS: u64 = 1448;
const IW: u64 = 10 * MSS;

struct RunResult {
    fct: Duration,
    exit_cwnd: Option<u64>,
    pacings: usize,
    retransmits: u64,
    max_rtt: Option<Duration>,
    trace: tcp_sim::trace::ConnTrace,
}

/// One flow over a clean large-BDP path (100 Mbps, 150 ms RTT by default).
fn run_path(
    kind: CcKind,
    flow_bytes: u64,
    bw_mbps: u64,
    owd_ms: u64,
    buffer_bdp: f64,
    seed: u64,
) -> RunResult {
    let mut sim = Sim::new(seed);
    let cfg = SenderConfig::bulk(flow_bytes).with_tracing();
    let ends = install_flow(&mut sim, FlowId(1), cfg, make_controller(kind, IW, MSS));
    let rtt = Duration::from_millis(2 * owd_ms);
    let spec = LinkSpec::clean(Bandwidth::from_mbps(bw_mbps), Duration::from_millis(owd_ms))
        .with_queue_bdp(rtt, buffer_bdp);
    let ack = LinkSpec::clean(Bandwidth::from_mbps(1000), Duration::from_millis(owd_ms));
    let s2r = sim.add_half_link(ends.sender, ends.receiver, spec);
    let r2s = sim.add_half_link(ends.receiver, ends.sender, ack);
    wire_flow(&mut sim, ends, s2r, r2s);
    sim.run_until(SimTime::from_secs(300));
    let snd = sim.agent::<SenderEndpoint>(ends.sender);
    assert!(
        snd.is_done(),
        "flow must complete ({kind:?}, {flow_bytes} B)"
    );
    RunResult {
        fct: snd.stats.fct().unwrap(),
        exit_cwnd: snd.trace.events.iter().find_map(|(_, e)| match e {
            TraceEvent::SlowStartExit { cwnd } => Some(*cwnd),
            _ => None,
        }),
        pacings: snd
            .trace
            .events
            .iter()
            .filter(|(_, e)| matches!(e, TraceEvent::SussPacing { .. }))
            .count(),
        retransmits: snd.stats.segs_retransmitted,
        max_rtt: snd.trace.samples.iter().filter_map(|s| s.rtt).max(),
        trace: snd.trace.clone(),
    }
}

#[test]
fn suss_improves_small_flow_fct_by_over_20_percent() {
    // The paper's headline: >20% FCT improvement for flows ≤ 5 MB on paths
    // with RTT > 50 ms.
    for &size in &[500_000u64, 1_000_000, 2_000_000] {
        let cubic = run_path(CcKind::Cubic, size, 100, 75, 1.0, 1);
        let suss = run_path(CcKind::CubicSuss, size, 100, 75, 1.0, 1);
        let improvement = 1.0 - suss.fct.as_secs_f64() / cubic.fct.as_secs_f64();
        assert!(
            improvement > 0.20,
            "{size} B: improvement {:.1}% (cubic {:?}, suss {:?})",
            improvement * 100.0,
            cubic.fct,
            suss.fct
        );
        assert!(suss.pacings >= 1, "SUSS must have paced at least once");
    }
}

#[test]
fn suss_exit_cwnd_matches_plain_cubic() {
    // Fig. 9: both variants stop exponential growth at ~the same cwnd
    // (the path BDP), i.e. SUSS accelerates *toward* cwnd*, not past it.
    let cubic = run_path(CcKind::Cubic, 20_000_000, 100, 75, 1.0, 1);
    let suss = run_path(CcKind::CubicSuss, 20_000_000, 100, 75, 1.0, 1);
    let (ec, es) = (
        cubic.exit_cwnd.expect("cubic must exit slow start") as f64,
        suss.exit_cwnd.expect("suss must exit slow start") as f64,
    );
    let ratio = es / ec;
    assert!(
        (0.8..=1.25).contains(&ratio),
        "exit cwnd mismatch: cubic {ec}, suss {es}"
    );
    // And both should be in the neighbourhood of the BDP.
    let bdp = 100e6 / 8.0 * 0.15;
    assert!(
        (0.6..=1.6).contains(&(es / bdp)),
        "suss exit vs BDP: {}",
        es / bdp
    );
}

#[test]
fn suss_improvement_tapers_for_large_flows() {
    // Fig. 12/13: the absolute head-start is fixed, so relative improvement
    // decays with flow size.
    let small_impr = {
        let c = run_path(CcKind::Cubic, 1_000_000, 100, 75, 1.0, 1);
        let s = run_path(CcKind::CubicSuss, 1_000_000, 100, 75, 1.0, 1);
        1.0 - s.fct.as_secs_f64() / c.fct.as_secs_f64()
    };
    let large_impr = {
        let c = run_path(CcKind::Cubic, 20_000_000, 100, 75, 1.0, 1);
        let s = run_path(CcKind::CubicSuss, 20_000_000, 100, 75, 1.0, 1);
        1.0 - s.fct.as_secs_f64() / c.fct.as_secs_f64()
    };
    assert!(
        small_impr > large_impr,
        "improvement must taper: small {small_impr:.2} vs large {large_impr:.2}"
    );
    assert!(
        large_impr > -0.05,
        "SUSS must not hurt large flows ({large_impr:.2})"
    );
}

#[test]
fn suss_does_not_inflate_rtt_in_early_rounds() {
    // Fig. 9 bottom: pacing the extra packets avoids instantaneous queueing
    // delay — max RTT under SUSS stays close to CUBIC's.
    let cubic = run_path(CcKind::Cubic, 2_000_000, 100, 75, 1.0, 1);
    let suss = run_path(CcKind::CubicSuss, 2_000_000, 100, 75, 1.0, 1);
    let (rc, rs) = (cubic.max_rtt.unwrap(), suss.max_rtt.unwrap());
    assert!(
        rs.as_secs_f64() <= rc.as_secs_f64() * 1.15,
        "SUSS max RTT {rs:?} vs CUBIC {rc:?}"
    );
}

#[test]
fn suss_no_retransmits_on_clean_path() {
    let suss = run_path(CcKind::CubicSuss, 5_000_000, 100, 75, 1.0, 1);
    assert_eq!(suss.retransmits, 0, "clean 1-BDP path must stay loss-free");
}

#[test]
fn small_bdp_path_gains_little() {
    // On a short-RTT path slow start finishes in a few rounds; SUSS should
    // neither help much nor hurt (paper: gains concentrate at RTT > 50 ms).
    let cubic = run_path(CcKind::Cubic, 1_000_000, 50, 5, 2.0, 1);
    let suss = run_path(CcKind::CubicSuss, 1_000_000, 50, 5, 2.0, 1);
    let improvement = 1.0 - suss.fct.as_secs_f64() / cubic.fct.as_secs_f64();
    assert!(
        improvement > -0.10,
        "SUSS must not hurt short paths ({:.1}%)",
        improvement * 100.0
    );
}

#[test]
fn delivered_bytes_dominate_early_with_suss() {
    // Fig. 10: at ~2 s the SUSS flow has delivered a multiple of CUBIC's
    // bytes. Use a 250 ms RTT path so 2 s is still early in slow start.
    let cubic = run_path(CcKind::Cubic, 50_000_000, 100, 125, 1.0, 1);
    let suss = run_path(CcKind::CubicSuss, 50_000_000, 100, 125, 1.0, 1);
    let at = SimTime::from_secs(2);
    let (dc, ds) = (cubic.trace.delivered_at(at), suss.trace.delivered_at(at));
    assert!(
        ds as f64 >= dc as f64 * 1.8,
        "delivered at 2 s: suss {ds} vs cubic {dc}"
    );
}

#[test]
fn bbr_matches_cubic_slow_start_shape() {
    // Fig. 1: BBR retains traditional slow-start growth dynamics, so its
    // small-flow FCT is in CUBIC's neighbourhood, not SUSS's.
    let cubic = run_path(CcKind::Cubic, 1_000_000, 100, 75, 1.0, 1);
    let bbr = run_path(CcKind::Bbr, 1_000_000, 100, 75, 1.0, 1);
    let ratio = bbr.fct.as_secs_f64() / cubic.fct.as_secs_f64();
    assert!(
        (0.8..=1.4).contains(&ratio),
        "bbr/cubic FCT ratio {ratio:.2}"
    );
}

#[test]
fn generalized_kmax_is_at_least_as_fast_on_clean_path() {
    // Appendix A: deeper lookahead may accelerate further on a stable path.
    let k1 = run_path(CcKind::CubicSuss, 2_000_000, 100, 75, 1.0, 1);
    let k3 = run_path(CcKind::CubicSussKmax(3), 2_000_000, 100, 75, 1.0, 1);
    assert!(
        k3.fct.as_secs_f64() <= k1.fct.as_secs_f64() * 1.10,
        "k_max=3 {:?} vs k_max=1 {:?}",
        k3.fct,
        k1.fct
    );
}

#[test]
fn suss_behaves_like_cubic_when_disabled() {
    // The SUSS-off arm must track plain CUBIC closely (same HyStart family).
    let cubic = run_path(CcKind::Cubic, 2_000_000, 100, 75, 1.0, 1);
    let mut sim = Sim::new(1);
    let cfg = SenderConfig::bulk(2_000_000).with_tracing();
    let cc = Box::new(cc_algos::CubicSuss::new(
        IW,
        MSS,
        suss_core::SussConfig::disabled(),
    ));
    let ends = install_flow(&mut sim, FlowId(1), cfg, cc);
    let rtt = Duration::from_millis(150);
    let spec = LinkSpec::clean(Bandwidth::from_mbps(100), Duration::from_millis(75))
        .with_queue_bdp(rtt, 1.0);
    let ack = LinkSpec::clean(Bandwidth::from_mbps(1000), Duration::from_millis(75));
    let s2r = sim.add_half_link(ends.sender, ends.receiver, spec);
    let r2s = sim.add_half_link(ends.receiver, ends.sender, ack);
    wire_flow(&mut sim, ends, s2r, r2s);
    sim.run_until(SimTime::from_secs(60));
    let snd = sim.agent::<SenderEndpoint>(ends.sender);
    assert!(snd.is_done());
    let off_fct = snd.stats.fct().unwrap().as_secs_f64();
    let ratio = off_fct / cubic.fct.as_secs_f64();
    assert!(
        (0.9..=1.1).contains(&ratio),
        "SUSS-off FCT ratio vs CUBIC: {ratio:.3}"
    );
}
