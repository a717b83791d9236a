//! The QUIC-like sending endpoint: stream send buffer, packet-number
//! space, RFC 9002-style loss recovery, PTO probing, and the pluggable
//! pacing strategy.
//!
//! One `QuicSender` carries one fixed-size stream (the same workload unit
//! as `tcp_sim::SenderEndpoint`: a file download). Structural differences
//! from the TCP sender:
//!
//! * every transmission gets a fresh packet number, so there is no Karn
//!   filter — every ACK yields a valid RTT sample;
//! * acknowledgment state is pure packet-number ranges (no cumulative
//!   sequence); completion is tracked in stream-offset space via a
//!   [`RangeSet`] send buffer;
//! * loss detection is the packet/time-threshold [`LossDetector`] with a
//!   NAK-style retransmission list, plus a probe timeout (PTO) instead of
//!   a retransmission timeout — a PTO sends a probe without collapsing
//!   the window (persistent congestion does that, on the second
//!   consecutive PTO);
//! * congestion control attaches exclusively through the quinn-shaped
//!   [`QuicController`] interface, so every `cc-algos` controller —
//!   including CUBIC+SUSS — runs unmodified on byte counters and times;
//! * departures always go through a [`QuicPacer`], whose
//!   [`PacingStrategy`] (per-packet / burst-N / chunked-interval) is the
//!   variable of the `ext_quic_pacing` matrix. Without a controller rate
//!   the pacer runs at the quinn-style default `1.25 · cwnd / srtt`.

use crate::frames::{Nanos, QuicAckPkt, QuicDataPkt, STREAM_FRAME_BYTES, UDP_IP_HEADER_BYTES};
use crate::loss::{loss_delay, LossDetector, SentPacket};
use crate::pacing::{PacingStrategy, QuicPacer};
use cc_algos::QuicController;
use cc_algos::QuicRtt;
use netsim::{Agent, Ctx, FlowId, LinkId, NodeId, Packet, SimTime};
use simtrace::{names, Counter, Registry};
use std::any::Any;
use std::time::Duration;
use tcp_sim::ranges::{ByteRange, RangeSet};
use tcp_sim::rtt::RttEstimator;
use tcp_sim::trace::{ConnTrace, TraceEvent, TraceSample};

use crate::frames::SHORT_HEADER_BYTES;

/// Timer token kinds (low 3 bits of the token).
const TK_START: u64 = 0;
const TK_PTO: u64 = 1;
const TK_PACE: u64 = 2;
const TK_CC: u64 = 3;
const TK_LOSS: u64 = 4;

/// Maximum stream bytes per packet: the TCP side's segment size, so
/// cargo per packet matches across transports.
pub(crate) const MSS: u64 = 1_448;

/// Per-packet wire overhead beyond stream cargo.
const WIRE_OVERHEAD: u32 = UDP_IP_HEADER_BYTES + SHORT_HEADER_BYTES + STREAM_FRAME_BYTES;

/// Static configuration of a QUIC sending endpoint.
#[derive(Debug, Clone)]
pub struct QuicConfig {
    /// Application bytes to deliver.
    pub flow_bytes: u64,
    /// How departures are spaced once a pacing rate is known.
    pub strategy: PacingStrategy,
    /// Record per-ACK trace samples (disable for large batches).
    pub trace_sampling: bool,
}

impl QuicConfig {
    /// A bulk transfer of `flow_bytes` starting at t=0 with per-packet
    /// pacing.
    pub fn bulk(flow_bytes: u64) -> Self {
        QuicConfig {
            flow_bytes,
            strategy: PacingStrategy::PerPacket,
            trace_sampling: false,
        }
    }

    /// Set the pacing strategy.
    pub fn with_strategy(mut self, s: PacingStrategy) -> Self {
        self.strategy = s;
        self
    }

    /// Enable per-ACK trace sampling.
    pub fn with_tracing(mut self) -> Self {
        self.trace_sampling = true;
        self
    }
}

/// Registry-backed counter handles shared by every QUIC sender in a
/// simulation.
#[derive(Debug, Clone)]
struct QuicMetrics {
    pkts_sent: Counter,
    retransmits: Counter,
    pkts_lost: Counter,
    ptos: Counter,
    pace_delays: Counter,
    hystart_exits: Counter,
}

impl QuicMetrics {
    fn bind(registry: &Registry) -> Self {
        QuicMetrics {
            pkts_sent: registry.counter(names::QUIC_PKTS_SENT),
            retransmits: registry.counter(names::QUIC_RETRANSMITS),
            pkts_lost: registry.counter(names::QUIC_PKTS_LOST),
            ptos: registry.counter(names::QUIC_PTOS),
            pace_delays: registry.counter(names::QUIC_PACE_DELAYS),
            hystart_exits: registry.counter(names::CC_HYSTART_EXITS),
        }
    }
}

/// Final statistics of one QUIC flow.
#[derive(Debug, Clone, Copy, Default)]
pub struct QuicFlowStats {
    /// Total application bytes to deliver.
    pub flow_bytes: u64,
    /// Flow start time (first transmission).
    pub started_at: Option<SimTime>,
    /// Time the whole stream was acknowledged at the sender.
    pub completed_at: Option<SimTime>,
    /// Packets transmitted (every transmission, fresh number each).
    pub pkts_sent: u64,
    /// Packets carrying retransmitted stream bytes.
    pub pkts_retransmitted: u64,
    /// Packets declared lost by the detector.
    pub pkts_lost: u64,
    /// Congestion events reported to the controller (loss episodes).
    pub loss_events: u64,
    /// Probe timeouts fired.
    pub ptos: u64,
}

impl QuicFlowStats {
    /// Flow completion time, if the flow finished.
    pub fn fct(&self) -> Option<Duration> {
        match (self.started_at, self.completed_at) {
            (Some(s), Some(c)) => Some(c.saturating_since(s)),
            _ => None,
        }
    }

    /// Fraction of transmitted packets that carried retransmitted bytes.
    pub fn retransmit_rate(&self) -> f64 {
        if self.pkts_sent == 0 {
            0.0
        } else {
            self.pkts_retransmitted as f64 / self.pkts_sent as f64
        }
    }
}

/// A QUIC-like sending endpoint (one stream), pluggable congestion
/// control via [`QuicController`].
pub struct QuicSender {
    cfg: QuicConfig,
    flow: FlowId,
    peer: Option<NodeId>,
    out: Option<LinkId>,
    cc: Box<dyn QuicController>,
    rtt: RttEstimator,
    pacer: QuicPacer,
    detector: LossDetector,

    /// Next packet number to mint.
    next_pkt_num: u64,
    /// First never-transmitted stream offset.
    send_cursor: u64,
    /// Stream bytes acknowledged (any order).
    stream_acked: RangeSet,
    /// Congestion events are reported once per episode: only a lost
    /// packet sent after this number starts a new one.
    recovery_start_pkt: u64,
    /// Consecutive PTOs without forward progress.
    pto_count: u32,

    // Timer generations (stale-firing filter).
    pto_gen: u64,
    pace_gen: u64,
    cc_gen: u64,
    loss_gen: u64,
    pto_armed: bool,
    cc_deadline: Option<SimTime>,
    loss_deadline: Option<Nanos>,

    current_pacing_rate: Option<f64>,
    app_limited: bool,
    done: bool,
    /// Shared completion tally, bumped once at flow completion (see
    /// `tcp_sim::SenderEndpoint::notify_completion`).
    completion_tally: Option<std::rc::Rc<std::cell::Cell<u64>>>,

    /// Per-connection trace — the same schema as the TCP transport, so
    /// `suss-trace` tooling reads both without translation.
    pub trace: ConnTrace,
    /// Final flow statistics.
    pub stats: QuicFlowStats,
    metrics: Option<QuicMetrics>,
}

impl QuicSender {
    /// Create a sender for `flow` using the given controller. Call
    /// [`set_peer`](Self::set_peer) and [`set_egress`](Self::set_egress)
    /// once the topology is wired (see [`crate::flow::install_quic_flow`]).
    pub fn new(cfg: QuicConfig, flow: FlowId, cc: Box<dyn QuicController>) -> Self {
        let trace = if cfg.trace_sampling {
            ConnTrace::enabled()
        } else {
            ConnTrace::events_only()
        };
        let stats = QuicFlowStats {
            flow_bytes: cfg.flow_bytes,
            ..Default::default()
        };
        QuicSender {
            pacer: QuicPacer::new(cfg.strategy, MSS + u64::from(WIRE_OVERHEAD)),
            cfg,
            flow,
            peer: None,
            out: None,
            cc,
            rtt: RttEstimator::new(),
            detector: LossDetector::new(),
            next_pkt_num: 0,
            send_cursor: 0,
            stream_acked: RangeSet::new(),
            recovery_start_pkt: 0,
            pto_count: 0,
            pto_gen: 0,
            pace_gen: 0,
            cc_gen: 0,
            loss_gen: 0,
            pto_armed: false,
            cc_deadline: None,
            loss_deadline: None,
            current_pacing_rate: None,
            app_limited: false,
            done: false,
            completion_tally: None,
            trace,
            stats,
            metrics: None,
        }
    }

    /// Register this sender's counters (and its controller's) on the
    /// simulation-wide metric registry.
    pub fn bind_metrics(&mut self, registry: &Registry) {
        self.metrics = Some(QuicMetrics::bind(registry));
        self.cc.bind_metrics(registry);
    }

    /// Wire the egress half-link this endpoint transmits on.
    pub fn set_egress(&mut self, link: LinkId) {
        self.out = Some(link);
    }

    /// Set the receiving peer's node id.
    pub fn set_peer(&mut self, peer: NodeId) {
        self.peer = Some(peer);
    }

    /// Whether the whole stream has been acknowledged.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Register a shared tally bumped exactly once at flow completion.
    pub fn notify_completion(&mut self, tally: std::rc::Rc<std::cell::Cell<u64>>) {
        if self.done {
            tally.set(tally.get() + 1);
        }
        self.completion_tally = Some(tally);
    }

    /// The congestion controller (for experiment inspection).
    pub fn cc(&self) -> &dyn QuicController {
        self.cc.as_ref()
    }

    /// The RTT estimator (for experiment inspection).
    pub fn rtt(&self) -> &RttEstimator {
        &self.rtt
    }

    /// Stream bytes acknowledged in order from offset 0.
    pub fn delivered(&self) -> u64 {
        self.stream_acked.contiguous_end(0)
    }

    /// Stream bytes currently in flight (tracked transmissions).
    pub fn inflight(&self) -> u64 {
        self.detector.bytes_in_flight()
    }

    fn token(kind: u64, gen: u64) -> u64 {
        kind | (gen << 3)
    }

    /// The current reordering window for loss declaration.
    fn current_loss_delay(&self) -> Nanos {
        let srtt = self.rtt.srtt().map_or(0, |d| d.as_nanos() as u64);
        let latest = self.rtt.latest().map_or(0, |d| d.as_nanos() as u64);
        loss_delay(srtt, latest)
    }

    fn arm_pto(&mut self, ctx: &mut Ctx<'_>) {
        self.pto_gen += 1;
        self.pto_armed = true;
        // The RFC 6298-style RTO (srtt + 4·rttvar, with backoff) is the
        // same quantity RFC 9002 calls the PTO horizon.
        let at = ctx.now() + self.rtt.rto();
        ctx.set_timer(at, Self::token(TK_PTO, self.pto_gen));
    }

    fn disarm_pto(&mut self) {
        self.pto_gen += 1;
        self.pto_armed = false;
    }

    fn sync_cc_timer(&mut self, ctx: &mut Ctx<'_>) {
        let want = self.cc.next_timer().map(SimTime::from_nanos);
        if want != self.cc_deadline {
            self.cc_deadline = want;
            if let Some(at) = want {
                self.cc_gen += 1;
                ctx.set_timer(at.max(ctx.now()), Self::token(TK_CC, self.cc_gen));
            }
        }
    }

    fn sync_loss_timer(&mut self, ctx: &mut Ctx<'_>) {
        let want = self.detector.next_loss_time(self.current_loss_delay());
        if want != self.loss_deadline {
            self.loss_deadline = want;
            if let Some(at) = want {
                self.loss_gen += 1;
                ctx.set_timer(
                    SimTime::from_nanos(at).max(ctx.now()),
                    Self::token(TK_LOSS, self.loss_gen),
                );
            }
        }
    }

    fn sync_pacing_rate(&mut self, now: SimTime) {
        // Controller rate when it paces (SUSS, BBR); otherwise the
        // quinn-style window-derived default once an RTT is known. Before
        // the first sample the pacer stays unlimited — the initial window
        // departs as one burst, as in real handshake-primed stacks.
        let want = self.cc.pacing_rate().or_else(|| {
            self.rtt
                .srtt()
                .map(|s| 1.25 * self.cc.window() as f64 / s.as_secs_f64().max(1e-9))
        });
        if want != self.current_pacing_rate {
            self.current_pacing_rate = want;
            self.pacer.set_rate(now.as_nanos(), want);
        }
    }

    /// Transmit one packet covering `range`. Pays no window/pacer gates —
    /// callers decide those — but does all bookkeeping.
    fn transmit(&mut self, ctx: &mut Ctx<'_>, range: ByteRange, is_rtx: bool) {
        let Some(out) = self.out else { return };
        let now_ns = ctx.now().as_nanos();
        let fin = range.end >= self.cfg.flow_bytes;
        let pkt_num = self.next_pkt_num;
        self.next_pkt_num += 1;
        let data = QuicDataPkt {
            flow: self.flow,
            pkt_num,
            offset: range.start,
            len: range.len() as u32,
            fin,
            sent_at: now_ns,
            is_rtx,
        };
        let wire = data.wire_bytes();
        let me = ctx.self_id();
        let peer = self.peer.expect("sender peer not wired (call set_peer)");
        let boxed = ctx.alloc_payload(data);
        ctx.send(
            out,
            Packet::with_boxed_payload(self.flow, me, peer, wire, boxed),
        );
        self.pacer.on_sent(now_ns, u64::from(wire));
        self.detector.on_packet_sent(SentPacket {
            pkt_num,
            range,
            fin,
            sent_at: now_ns,
            is_rtx,
        });
        self.stats.pkts_sent += 1;
        if let Some(m) = &self.metrics {
            m.pkts_sent.inc();
            if is_rtx {
                m.retransmits.inc();
            }
        }
        if is_rtx {
            self.stats.pkts_retransmitted += 1;
        } else {
            self.send_cursor = range.end;
            self.app_limited = false;
        }
        self.cc.on_sent(now_ns, range.len());
    }

    /// Transmit as much as window + pacer allow: NAK repairs first, then
    /// new stream data.
    fn try_send(&mut self, ctx: &mut Ctx<'_>) {
        if self.out.is_none() || self.done {
            return;
        }
        let mut sent_any = false;
        loop {
            // Pick the next chunk (popping a NAK range; re-queued below if
            // a gate refuses it).
            let (range, is_rtx) = match self.detector.pop_nak(MSS) {
                Some(r) => (r, true),
                None => {
                    if self.send_cursor >= self.cfg.flow_bytes {
                        self.app_limited = true;
                        break;
                    }
                    let len = MSS.min(self.cfg.flow_bytes - self.send_cursor);
                    (
                        ByteRange::new(self.send_cursor, self.send_cursor + len),
                        false,
                    )
                }
            };
            let len = range.len();

            // Window gate: tracked in-flight bytes against the window.
            if self.detector.bytes_in_flight() + len > self.cc.window() {
                if is_rtx {
                    self.detector.requeue_nak(range);
                }
                break;
            }

            // Pacing gate: the strategy decides when the wire opens.
            let wire = u64::from(len as u32 + WIRE_OVERHEAD);
            let now_ns = ctx.now().as_nanos();
            if !self.pacer.can_send(now_ns, wire) {
                let at = SimTime::from_nanos(self.pacer.next_send_time(now_ns, wire));
                self.pace_gen += 1;
                ctx.set_timer(at, Self::token(TK_PACE, self.pace_gen));
                if let Some(m) = &self.metrics {
                    m.pace_delays.inc();
                }
                if is_rtx {
                    self.detector.requeue_nak(range);
                }
                break;
            }

            self.transmit(ctx, range, is_rtx);
            sent_any = true;
        }
        if sent_any && !self.pto_armed {
            self.arm_pto(ctx);
        }
    }

    /// Report newly lost packets: count them, and raise at most one
    /// congestion event per loss episode.
    fn process_losses(&mut self, now: SimTime, lost: &[SentPacket]) {
        if lost.is_empty() {
            return;
        }
        self.stats.pkts_lost += lost.len() as u64;
        if let Some(m) = &self.metrics {
            m.pkts_lost.add(lost.len() as u64);
        }
        // A new episode begins only when a packet sent after the last
        // episode's start is lost (RFC 9002 recovery-period rule).
        let Some(trigger) = lost
            .iter()
            .filter(|p| p.pkt_num >= self.recovery_start_pkt)
            .max_by_key(|p| p.pkt_num)
        else {
            return;
        };
        let lost_bytes: u64 = lost.iter().map(|p| p.range.len()).sum();
        self.stats.loss_events += 1;
        self.recovery_start_pkt = self.next_pkt_num;
        self.trace
            .record(now, self.flow, TraceEvent::FastRetransmit);
        {
            let _prof = simtrace::prof::span("cc/on_loss");
            self.cc
                .on_congestion_event(now.as_nanos(), trigger.sent_at, false, lost_bytes);
        }
        self.drain_cc_events(now);
    }

    fn handle_ack(&mut self, ack: QuicAckPkt, ctx: &mut Ctx<'_>) {
        if self.done {
            return;
        }
        let _prof = simtrace::prof::span("quic/ack");
        let now = ctx.now();
        let now_ns = now.as_nanos();

        // RTT sampling: every echo is valid — the echoed transmission is
        // identified by its unique packet number (no Karn ambiguity).
        let sample = now_ns.saturating_sub(ack.echo_ts);
        self.rtt.on_sample(Duration::from_nanos(sample));

        let delay = self.current_loss_delay();
        let out = self
            .detector
            .on_ack(&ack.ranges, now_ns, delay, &mut self.stream_acked);

        let was_slow_start = self.cc.in_slow_start();
        self.process_losses(now, &out.lost);

        if out.newly_acked > 0 {
            self.pto_count = 0;
            let reference = out.largest_newly.expect("newly_acked implies a packet");
            let rtt_view = QuicRtt {
                latest: self.rtt.latest().unwrap_or_default(),
                smoothed: self.rtt.srtt().unwrap_or_default(),
                min: self.rtt.min_rtt().unwrap_or_default(),
            };
            let _prof = simtrace::prof::span("cc/on_ack");
            self.cc.on_ack(
                now_ns,
                reference.sent_at,
                out.newly_acked,
                self.app_limited,
                &rtt_view,
            );
        }
        if was_slow_start && !self.cc.in_slow_start() {
            // A loss-driven exit happens inside process_losses; a
            // transition without new losses is the controller's own
            // (HyStart/SUSS) voluntary exit.
            if out.lost.is_empty() {
                if let Some(m) = &self.metrics {
                    m.hystart_exits.inc();
                }
            }
            self.trace.record(
                now,
                self.flow,
                TraceEvent::SlowStartExit {
                    cwnd: self.cc.window(),
                },
            );
        }
        self.drain_cc_events(now);

        // Completion: the whole stream acknowledged.
        if self.stream_acked.contiguous_end(0) >= self.cfg.flow_bytes {
            self.done = true;
            if let Some(t) = &self.completion_tally {
                t.set(t.get() + 1);
            }
            self.stats.completed_at = Some(now);
            self.trace.record(now, self.flow, TraceEvent::FlowComplete);
            self.disarm_pto();
            self.trace_sample(now);
            return;
        }

        self.sync_pacing_rate(now);
        self.try_send(ctx);
        if out.newly_acked > 0 {
            if self.detector.packets_in_flight() > 0 {
                self.arm_pto(ctx); // restart on forward progress
            } else {
                self.disarm_pto();
            }
        }
        self.sync_cc_timer(ctx);
        self.sync_loss_timer(ctx);
        self.trace_sample(now);
    }

    fn handle_pto(&mut self, ctx: &mut Ctx<'_>) {
        if self.done || self.detector.packets_in_flight() == 0 {
            return;
        }
        let now = ctx.now();
        self.stats.ptos += 1;
        if let Some(m) = &self.metrics {
            m.ptos.inc();
        }
        self.trace.record(now, self.flow, TraceEvent::Rto);
        self.rtt.back_off();
        self.pto_count += 1;
        if self.pto_count == 2 {
            // Two consecutive PTOs without forward progress: persistent
            // congestion. The controller collapses its window; unlike a
            // TCP RTO, a single PTO costs only the probe.
            let earliest = self
                .detector
                .earliest_unacked()
                .map(|p| p.sent_at)
                .unwrap_or(0);
            self.recovery_start_pkt = self.next_pkt_num;
            self.cc.on_congestion_event(
                now.as_nanos(),
                earliest,
                true,
                self.detector.bytes_in_flight(),
            );
            self.drain_cc_events(now);
        }
        // Probe: re-send the oldest unacked chunk with a fresh packet
        // number, bypassing window and pacer (RFC 9002 allows probes to
        // exceed the congestion window).
        if let Some(p) = self.detector.earliest_unacked().copied() {
            self.transmit(ctx, p.range, true);
        }
        self.sync_pacing_rate(now);
        self.arm_pto(ctx);
        self.sync_cc_timer(ctx);
    }

    fn handle_loss_timer(&mut self, ctx: &mut Ctx<'_>) {
        if self.done {
            return;
        }
        self.loss_deadline = None;
        let now = ctx.now();
        let lost = self
            .detector
            .detect_lost(now.as_nanos(), self.current_loss_delay());
        let was_slow_start = self.cc.in_slow_start();
        self.process_losses(now, &lost);
        if was_slow_start && !self.cc.in_slow_start() {
            // A loss-driven exit: not a HyStart/SUSS exit, so
            // `hystart_exits` does not count it.
            self.trace.record(
                now,
                self.flow,
                TraceEvent::SlowStartExit {
                    cwnd: self.cc.window(),
                },
            );
        }
        self.sync_pacing_rate(now);
        self.try_send(ctx);
        self.sync_cc_timer(ctx);
        self.sync_loss_timer(ctx);
    }

    fn drain_cc_events(&mut self, now: SimTime) {
        for ev in self.cc.take_events() {
            self.trace.record(now, self.flow, TraceEvent::from_cc(ev));
        }
    }

    fn trace_sample(&mut self, now: SimTime) {
        self.trace.sample(TraceSample {
            t: now,
            cwnd: self.cc.window(),
            inflight: self.detector.bytes_in_flight(),
            delivered: self.stream_acked.contiguous_end(0),
            rtt: self.rtt.latest(),
            srtt: self.rtt.srtt(),
        });
    }
}

impl Agent for QuicSender {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // Every QUIC flow starts at t = 0, through a timer like the TCP
        // sender's start.
        ctx.set_timer(SimTime::ZERO, Self::token(TK_START, 0));
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        if pkt.flow != self.flow {
            return;
        }
        if let Ok((ack, _meta)) = ctx.take_payload::<QuicAckPkt>(pkt) {
            self.handle_ack(ack, ctx);
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        let kind = token & 0b111;
        let gen = token >> 3;
        match kind {
            TK_START => {
                let now = ctx.now();
                self.stats.started_at = Some(now);
                self.trace.record(now, self.flow, TraceEvent::FlowStart);
                self.sync_pacing_rate(now);
                self.try_send(ctx);
                self.sync_cc_timer(ctx);
            }
            TK_PTO if gen == self.pto_gen && self.pto_armed => {
                self.pto_armed = false;
                self.handle_pto(ctx);
            }
            TK_PACE if gen == self.pace_gen && !self.done => {
                self.try_send(ctx);
            }
            TK_CC if gen == self.cc_gen && !self.done => {
                self.cc_deadline = None;
                self.cc.on_timer(ctx.now().as_nanos());
                self.drain_cc_events(ctx.now());
                self.sync_pacing_rate(ctx.now());
                self.try_send(ctx);
                self.sync_cc_timer(ctx);
            }
            TK_LOSS if gen == self.loss_gen && !self.done => {
                self.handle_loss_timer(ctx);
            }
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
