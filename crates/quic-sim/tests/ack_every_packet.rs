//! Both receivers acknowledge every data packet: one ACK per TCP segment
//! and one ACK frame per QUIC packet. This is the per-packet regime the
//! paper's slow-start measurements assume (Linux quickack), and it gives
//! SUSS the same ACK train on either transport.

use cc_algos::{make_controller, make_quic_controller, CcKind};
use netsim::{Bandwidth, FlowId, LinkSpec, Sim, SimTime};
use quic_sim::{install_quic_flow, wire_quic_flow, QuicConfig, QuicReceiver};
use std::time::Duration;
use tcp_sim::flow::{install_flow, wire_flow};
use tcp_sim::receiver::ReceiverEndpoint;
use tcp_sim::sender::SenderConfig;

const MSS: u64 = 1_448;
const IW: u64 = 10 * MSS;
const FLOW_BYTES: u64 = 500_000;

fn clean_path() -> LinkSpec {
    LinkSpec::clean(Bandwidth::from_mbps(20), Duration::from_millis(10))
}

#[test]
fn both_receivers_ack_every_data_packet() {
    let mut sim = Sim::new(1);
    let ends = install_flow(
        &mut sim,
        FlowId(1),
        SenderConfig::bulk(FLOW_BYTES),
        make_controller(CcKind::CubicSuss, IW, MSS),
    );
    let s2r = sim.add_half_link(ends.sender, ends.receiver, clean_path());
    let r2s = sim.add_half_link(ends.receiver, ends.sender, clean_path());
    wire_flow(&mut sim, ends, s2r, r2s);
    sim.run_until(SimTime::from_secs(30));
    let tcp = sim.agent::<ReceiverEndpoint>(ends.receiver);
    assert!(tcp.completed_at().is_some(), "TCP flow did not finish");
    assert!(tcp.segs_received >= FLOW_BYTES.div_ceil(MSS));
    assert_eq!(tcp.acks_sent, tcp.segs_received, "TCP: one ACK per segment");

    let mut sim = Sim::new(1);
    let ends = install_quic_flow(
        &mut sim,
        FlowId(1),
        QuicConfig::bulk(FLOW_BYTES),
        make_quic_controller(CcKind::CubicSuss, IW, MSS),
    );
    let s2r = sim.add_half_link(ends.sender, ends.receiver, clean_path());
    let r2s = sim.add_half_link(ends.receiver, ends.sender, clean_path());
    wire_quic_flow(&mut sim, ends, s2r, r2s);
    sim.run_until(SimTime::from_secs(30));
    let quic = sim.agent::<QuicReceiver>(ends.receiver);
    assert!(quic.completed_at().is_some(), "QUIC flow did not finish");
    assert!(quic.pkts_received >= FLOW_BYTES.div_ceil(MSS));
    assert_eq!(
        quic.acks_sent, quic.pkts_received,
        "QUIC: one ACK per packet"
    );
}
