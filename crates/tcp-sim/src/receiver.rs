//! The receiving endpoint: reassembly and ACK generation.
//!
//! The receiver reassembles the byte stream, generates cumulative ACKs
//! with up to three SACK blocks, and echoes send timestamps for RTT
//! sampling. Every data segment is acknowledged at once: in order or
//! not, there is one ACK per segment, as Linux sends during slow start
//! (quickack) and as the paper's per-round Δt measurements assume. The
//! receiver therefore arms no timer.
//!
//! There is no flow control. The application consumes in-order data at
//! once and the reassembly buffer is unbounded (modern autotuned buffers,
//! as in the paper's downloads), so ACKs advertise no receive window and
//! the sender's window is its congestion window alone.

use crate::ranges::RangeSet;
use crate::segment::{AckSeg, DataSeg, MAX_SACK_BLOCKS};
use netsim::{Agent, Ctx, FlowId, LinkId, NodeId, Packet, SimTime};
use std::any::Any;

/// A fieldless placeholder kept in [`ReceiverEndpoint::new`]'s signature
/// for the benchmark package under `perfbench/`, which passes
/// `AckPolicy::default()`. The receiver has one policy, an ACK per data
/// segment, so there is nothing to configure.
#[derive(Debug, Clone, Copy, Default)]
pub struct AckPolicy;

/// A TCP-like receiving endpoint for one flow.
pub struct ReceiverEndpoint {
    flow: FlowId,
    peer: Option<NodeId>,
    out: Option<LinkId>,
    received: RangeSet,
    /// Learned from the FIN-marked segment: total flow length.
    flow_bytes: Option<u64>,
    /// Time the full flow was reassembled (the paper's download-complete
    /// instant; FCT at the receiver).
    complete_at: Option<SimTime>,
    /// Total data segments received (including duplicates).
    pub segs_received: u64,
    /// Total ACKs sent.
    pub acks_sent: u64,
}

impl ReceiverEndpoint {
    /// Create a receiver for `flow`. Call [`set_peer`](Self::set_peer) and
    /// [`set_egress`](Self::set_egress) once the topology is wired.
    pub fn new(flow: FlowId, _policy: AckPolicy) -> Self {
        ReceiverEndpoint {
            flow,
            peer: None,
            out: None,
            received: RangeSet::new(),
            flow_bytes: None,
            complete_at: None,
            segs_received: 0,
            acks_sent: 0,
        }
    }

    /// Wire the egress half-link ACKs travel on.
    pub fn set_egress(&mut self, link: LinkId) {
        self.out = Some(link);
    }

    /// Set the sending peer's node id.
    pub fn set_peer(&mut self, peer: NodeId) {
        self.peer = Some(peer);
    }

    /// Bytes received in order from offset 0.
    pub fn in_order_bytes(&self) -> u64 {
        self.received.contiguous_end(0)
    }

    /// Time the flow finished reassembling, if it has.
    pub fn completed_at(&self) -> Option<SimTime> {
        self.complete_at
    }

    /// Acknowledge everything received so far, echoing the send time and
    /// retransmit flag of the segment that just arrived.
    fn send_ack(&mut self, echo_ts: u64, echo_rtx: bool, ctx: &mut Ctx<'_>) {
        let Some(out) = self.out else { return };
        let cum = self.received.contiguous_end(0);
        let ack = AckSeg {
            flow: self.flow,
            ack_seq: cum,
            sack: self.received.sack_blocks(cum, MAX_SACK_BLOCKS),
            echo_ts,
            echo_retransmit: echo_rtx,
        };
        let wire = ack.wire_bytes();
        let me = ctx.self_id();
        let peer = self.peer.expect("receiver peer not wired (call set_peer)");
        let boxed = ctx.alloc_payload(ack);
        ctx.send(
            out,
            Packet::with_boxed_payload(self.flow, me, peer, wire, boxed),
        );
        self.acks_sent += 1;
    }

    fn handle_data(&mut self, seg: DataSeg, ctx: &mut Ctx<'_>) {
        self.segs_received += 1;
        let now = ctx.now();
        self.received.insert(seg.range());
        if seg.fin {
            self.flow_bytes = Some(seg.range().end);
        }

        if self.complete_at.is_none() {
            if let Some(total) = self.flow_bytes {
                if self.received.contiguous_end(0) >= total {
                    self.complete_at = Some(now);
                }
            }
        }
        self.send_ack(seg.sent_at, seg.retransmit, ctx);
    }
}

impl Agent for ReceiverEndpoint {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        if pkt.flow != self.flow {
            return;
        }
        if let Ok((seg, _meta)) = ctx.take_payload::<DataSeg>(pkt) {
            self.handle_data(seg, ctx);
        }
    }

    fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_>) {}

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
