//! The receiving endpoint: reassembly and ACK generation.
//!
//! The receiver reassembles the byte stream, generates cumulative ACKs
//! with up to three SACK blocks, and echoes send timestamps for RTT
//! sampling. Out-of-order arrivals trigger immediate duplicate ACKs (as
//! all real stacks do); in-order arrivals follow the configured ACK
//! policy (per-packet by default, or every-N with a delayed-ACK timer).

use crate::ranges::RangeSet;
use crate::segment::{AckSeg, DataSeg, MAX_SACK_BLOCKS};
use netsim::{Agent, Ctx, FlowId, LinkId, NodeId, Packet, SimTime};
use std::any::Any;
use std::time::Duration;

/// ACK generation policy.
#[derive(Debug, Clone, Copy)]
pub struct AckPolicy {
    /// ACK every `every_n` in-order segments (1 = per-packet ACKing).
    pub every_n: u32,
    /// Flush a pending delayed ACK after this much time.
    pub delay: Duration,
    /// Receive buffer in bytes, bounding the advertised window. Defaults
    /// to effectively unlimited (modern autotuned buffers); set small to
    /// study receiver-limited transfers.
    pub recv_buffer: u64,
}

impl Default for AckPolicy {
    fn default() -> Self {
        // Per-packet ACKs: what Linux does during slow-start via quickack,
        // and the regime the paper's Δt measurements assume.
        AckPolicy {
            every_n: 1,
            delay: Duration::from_millis(40),
            recv_buffer: u64::MAX,
        }
    }
}

impl AckPolicy {
    /// Classic delayed ACKs: every second segment, 40 ms flush.
    pub fn delayed() -> Self {
        AckPolicy {
            every_n: 2,
            delay: Duration::from_millis(40),
            recv_buffer: u64::MAX,
        }
    }

    /// Bound the advertised receive window.
    pub fn with_recv_buffer(mut self, bytes: u64) -> Self {
        self.recv_buffer = bytes;
        self
    }
}

/// A TCP-like receiving endpoint for one flow.
pub struct ReceiverEndpoint {
    flow: FlowId,
    peer: Option<NodeId>,
    out: Option<LinkId>,
    policy: AckPolicy,
    received: RangeSet,
    /// Learned from the FIN-marked segment: total flow length.
    flow_bytes: Option<u64>,
    /// Time the full flow was reassembled (the paper's download-complete
    /// instant; FCT at the receiver).
    complete_at: Option<SimTime>,
    /// In-order segments since the last ACK was sent.
    unacked_segs: u32,
    /// Echo state from the most recent data segment.
    pending_echo: Option<(u64, bool)>,
    delack_gen: u64,
    delack_armed: bool,
    /// Total data segments received (including duplicates).
    pub segs_received: u64,
    /// Total ACKs sent.
    pub acks_sent: u64,
}

impl ReceiverEndpoint {
    /// Create a receiver for `flow`. Call [`set_peer`](Self::set_peer) and
    /// [`set_egress`](Self::set_egress) once the topology is wired.
    pub fn new(flow: FlowId, policy: AckPolicy) -> Self {
        ReceiverEndpoint {
            flow,
            peer: None,
            out: None,
            policy,
            received: RangeSet::new(),
            flow_bytes: None,
            complete_at: None,
            unacked_segs: 0,
            pending_echo: None,
            delack_gen: 0,
            delack_armed: false,
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

    fn send_ack(&mut self, ctx: &mut Ctx<'_>) {
        let Some(out) = self.out else { return };
        let Some((echo_ts, echo_rtx)) = self.pending_echo else {
            return;
        };
        let cum = self.received.contiguous_end(0);
        // Flow control: in-order data is consumed by the application
        // immediately, so only out-of-order bytes occupy the buffer.
        let held = self
            .received
            .total_bytes()
            .saturating_sub(cum.min(self.received.total_bytes()));
        let rwnd = self.policy.recv_buffer.saturating_sub(held);
        let ack = AckSeg {
            flow: self.flow,
            ack_seq: cum,
            sack: self.received.sack_blocks(cum, MAX_SACK_BLOCKS),
            echo_ts,
            echo_retransmit: echo_rtx,
            segs_covered: self.unacked_segs.max(1),
            rwnd,
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
        self.unacked_segs = 0;
        self.delack_gen += 1; // cancel any pending delayed-ACK flush
        self.delack_armed = false;
    }

    fn handle_data(&mut self, seg: DataSeg, ctx: &mut Ctx<'_>) {
        self.segs_received += 1;
        let now = ctx.now();
        let cum_before = self.received.contiguous_end(0);
        let in_order = seg.seq <= cum_before;
        self.received.insert(seg.range());
        if seg.fin {
            self.flow_bytes = Some(seg.range().end);
        }
        self.pending_echo = Some((seg.sent_at, seg.retransmit));
        self.unacked_segs += 1;

        if self.complete_at.is_none() {
            if let Some(total) = self.flow_bytes {
                if self.received.contiguous_end(0) >= total {
                    self.complete_at = Some(now);
                }
            }
        }

        let gap_present = self.received.num_ranges() > 1;
        if !in_order || gap_present || self.unacked_segs >= self.policy.every_n || seg.fin {
            // Immediate ACK: out-of-order data, dupACK duty, quota reached,
            // or the final segment.
            self.send_ack(ctx);
        } else if !self.delack_armed {
            self.delack_gen += 1;
            self.delack_armed = true;
            ctx.set_timer(now + self.policy.delay, self.delack_gen);
        }
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

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        if token == self.delack_gen && self.delack_armed {
            self.delack_armed = false;
            if self.unacked_segs > 0 {
                self.send_ack(ctx);
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
