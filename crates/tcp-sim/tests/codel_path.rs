//! Transport over a CoDel-managed bottleneck: the AQM bounds queueing
//! delay where a drop-tail buffer of the same size would bloat.

use netsim::{Bandwidth, FlowId, LinkSpec, Qdisc, Sim, SimTime};
use std::time::Duration;
use tcp_sim::cc::BasicSlowStart;
use tcp_sim::flow::{install_flow, wire_flow};
use tcp_sim::receiver::AckPolicy;
use tcp_sim::sender::{SenderConfig, SenderEndpoint};

const MSS: u64 = 1448;

fn run(qdisc: Qdisc) -> (f64, Duration, u64) {
    let mut sim = Sim::new(3);
    let cfg = SenderConfig::bulk(6_000_000).with_tracing();
    let ends = install_flow(
        &mut sim,
        FlowId(1),
        cfg,
        Box::new(BasicSlowStart::new(10 * MSS, MSS)),
        AckPolicy::default(),
    );
    // Deep buffer (8 BDP): drop-tail will bufferbloat, CoDel should not.
    let rtt = Duration::from_millis(60);
    let data = LinkSpec::clean(Bandwidth::from_mbps(20), Duration::from_millis(30))
        .with_queue_bdp(rtt, 8.0)
        .with_qdisc(qdisc);
    let ack = LinkSpec::clean(Bandwidth::from_mbps(1000), Duration::from_millis(30));
    let s2r = sim.add_half_link(ends.sender, ends.receiver, data);
    let r2s = sim.add_half_link(ends.receiver, ends.sender, ack);
    wire_flow(&mut sim, ends, s2r, r2s);
    sim.run_until(SimTime::from_secs(60));
    let aqm = sim.link_aqm_drops(s2r);
    let snd = sim.agent::<SenderEndpoint>(ends.sender);
    assert!(snd.is_done(), "flow must complete under {qdisc:?}");
    let max_rtt = snd
        .trace
        .samples
        .iter()
        .filter_map(|s| s.rtt)
        .max()
        .unwrap();
    (snd.stats.fct().unwrap().as_secs_f64(), max_rtt, aqm)
}

#[test]
fn codel_bounds_bufferbloat() {
    let (fct_dt, rtt_dt, aqm_dt) = run(Qdisc::DropTail);
    let (fct_cd, rtt_cd, aqm_cd) = run(Qdisc::Codel);
    assert_eq!(aqm_dt, 0, "drop-tail reports no AQM drops");
    assert!(aqm_cd > 0, "CoDel must intervene on a deep buffer");
    // The headline AQM property: peak queueing delay is much lower.
    assert!(
        rtt_cd < rtt_dt,
        "CoDel max RTT {rtt_cd:?} must beat drop-tail {rtt_dt:?}"
    );
    // And the FCT cost of that control is bounded.
    assert!(
        fct_cd < fct_dt * 1.5,
        "CoDel FCT {fct_cd:.2}s vs drop-tail {fct_dt:.2}s"
    );
}
