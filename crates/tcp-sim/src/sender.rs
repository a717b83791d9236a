//! The sending endpoint: reliability, loss recovery, pacing, and the
//! congestion-control driver.
//!
//! One `SenderEndpoint` carries one fixed-size flow (the paper's workload
//! unit: a file download). It implements:
//!
//! * cumulative + SACK acknowledgment processing,
//! * RFC 6298 RTT estimation and RTO with backoff,
//! * fast retransmit on triple-dupACK / SACK threshold, NewReno-style
//!   partial-ACK hole filling, RFC 6675-flavoured pipe accounting,
//! * a token-bucket pacer driven by the congestion controller's
//!   `pacing_rate()`,
//! * per-ACK trace sampling for the experiment harness.

use crate::cc::{AckView, CongestionControl, LossKind, LossView};
use crate::ranges::{ByteRange, RangeSet};
use crate::rtt::RttEstimator;
use crate::segment::{AckSeg, DataSeg, BASE_HEADER_BYTES, TS_OPTION_BYTES};
use crate::trace::{ConnTrace, FlowStats, TraceEvent, TraceSample};
use netsim::{Agent, Ctx, FlowId, LinkId, NodeId, Packet, SimTime};
use simtrace::{names, Counter, Registry};
use std::any::Any;
use suss_core::pacer::Pacer;

/// Timer token kinds (low 3 bits of the token).
const TK_START: u64 = 0;
const TK_RTO: u64 = 1;
const TK_PACE: u64 = 2;
const TK_CC: u64 = 3;

/// Duplicate ACKs (or SACKed MSS) that trigger fast retransmit, as in
/// Linux (`tcp_reordering` = 3).
const DUPACK_THRESHOLD: u32 = 3;

/// Static configuration of a sending endpoint.
#[derive(Debug, Clone)]
pub struct SenderConfig {
    /// Maximum segment (payload) size in bytes.
    pub mss: u32,
    /// Application bytes to deliver.
    pub flow_bytes: u64,
    /// When the flow starts transmitting.
    pub start_at: SimTime,
    /// Record per-ACK trace samples (disable for large batches).
    pub trace_sampling: bool,
}

impl SenderConfig {
    /// A bulk transfer of `flow_bytes` starting at t=0 with Linux-like
    /// defaults (MSS 1448).
    pub fn bulk(flow_bytes: u64) -> Self {
        SenderConfig {
            mss: 1448,
            flow_bytes,
            start_at: SimTime::ZERO,
            trace_sampling: false,
        }
    }

    /// Set the flow start time.
    pub fn starting_at(mut self, t: SimTime) -> Self {
        self.start_at = t;
        self
    }

    /// Enable per-ACK trace sampling.
    pub fn with_tracing(mut self) -> Self {
        self.trace_sampling = true;
        self
    }
}

/// Registry-backed counter handles shared by every sender in a
/// simulation. Increments land on the sim-wide registry, so one snapshot
/// covers all flows.
#[derive(Debug, Clone)]
struct SenderMetrics {
    segs_sent: Counter,
    retransmits: Counter,
    rtos: Counter,
    fast_retransmits: Counter,
    hystart_exits: Counter,
}

impl SenderMetrics {
    fn bind(registry: &Registry) -> Self {
        SenderMetrics {
            segs_sent: registry.counter(names::TCP_SEGS_SENT),
            retransmits: registry.counter(names::TCP_RETRANSMITS),
            rtos: registry.counter(names::TCP_RTOS),
            fast_retransmits: registry.counter(names::TCP_FAST_RETRANSMITS),
            hystart_exits: registry.counter(names::CC_HYSTART_EXITS),
        }
    }
}

/// A TCP-like sending endpoint (one flow), pluggable congestion control.
pub struct SenderEndpoint {
    cfg: SenderConfig,
    flow: FlowId,
    peer: Option<NodeId>,
    out: Option<LinkId>,
    cc: Box<dyn CongestionControl>,
    rtt: RttEstimator,
    pacer: Pacer,

    // Reliability state. All offsets are absolute stream bytes.
    snd_una: u64,
    snd_nxt: u64,
    /// SACKed ranges above snd_una.
    sacked: RangeSet,
    /// Ranges deemed lost (scoreboard), above snd_una, disjoint from sacked.
    lost: RangeSet,
    /// Lost ranges already retransmitted (awaiting ACK).
    rtx_sent: RangeSet,
    /// Send times of outstanding retransmissions (ascending `sent_at`),
    /// for RACK-style lost-retransmission detection. Processed from the
    /// front as later-sent deliveries overtake them, so the per-ACK cost
    /// is amortized O(1) even under sustained heavy loss.
    rtx_records: std::collections::VecDeque<(ByteRange, u64)>,
    dup_acks: u32,
    /// In fast recovery until snd_una passes this point.
    recovery_point: Option<u64>,
    highest_sacked: u64,
    /// Everything in `lost` below this offset has already been
    /// retransmitted: the repair scan starts here (amortizes the per-send
    /// hole search to O(1) under heavy loss).
    rtx_scan_from: u64,
    /// Debug builds: checks to skip before the next full `rtx_scan_from`
    /// audit.
    #[cfg(debug_assertions)]
    rtx_audit_skip: usize,
    /// RFC 6675 loss marking has covered gaps below this offset.
    mark_cursor: u64,

    // Timer generations (stale-firing filter).
    rto_gen: u64,
    pace_gen: u64,
    cc_gen: u64,
    rto_armed: bool,
    cc_deadline: Option<SimTime>,

    current_pacing_rate: Option<f64>,
    app_limited: bool,
    done: bool,
    /// Shared completion tally, bumped once when the flow finishes. Lets
    /// multi-flow harnesses stop with an O(1) check instead of polling
    /// every sender after every event (see [`notify_completion`](Self::notify_completion)).
    completion_tally: Option<std::rc::Rc<std::cell::Cell<u64>>>,

    /// Per-connection trace (cwnd/RTT/delivered samples and events).
    pub trace: ConnTrace,
    /// Final flow statistics.
    pub stats: FlowStats,
    /// Sim-wide counter handles, once wired (see
    /// [`bind_metrics`](Self::bind_metrics)).
    metrics: Option<SenderMetrics>,
}

impl SenderEndpoint {
    /// Create a sender for `flow` using the given congestion controller.
    /// Call [`set_peer`](Self::set_peer) and [`set_egress`](Self::set_egress)
    /// once the topology is wired (see [`crate::flow::install_flow`]).
    pub fn new(cfg: SenderConfig, flow: FlowId, cc: Box<dyn CongestionControl>) -> Self {
        let trace = if cfg.trace_sampling {
            ConnTrace::enabled()
        } else {
            ConnTrace::events_only()
        };
        let stats = FlowStats {
            flow_bytes: cfg.flow_bytes,
            ..Default::default()
        };
        SenderEndpoint {
            pacer: Pacer::unlimited(u64::from(cfg.mss) * 10),
            cfg,
            flow,
            peer: None,
            out: None,
            cc,
            rtt: RttEstimator::new(),
            snd_una: 0,
            snd_nxt: 0,
            sacked: RangeSet::new(),
            lost: RangeSet::new(),
            rtx_sent: RangeSet::new(),
            rtx_records: std::collections::VecDeque::new(),
            dup_acks: 0,
            recovery_point: None,
            highest_sacked: 0,
            rtx_scan_from: 0,
            #[cfg(debug_assertions)]
            rtx_audit_skip: 0,
            mark_cursor: 0,
            rto_gen: 0,
            pace_gen: 0,
            cc_gen: 0,
            rto_armed: false,
            cc_deadline: None,
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
    /// simulation-wide metric registry. Called by
    /// [`crate::flow::install_flow`]; harmless to skip for ad-hoc setups —
    /// counting is simply disabled.
    pub fn bind_metrics(&mut self, registry: &Registry) {
        self.metrics = Some(SenderMetrics::bind(registry));
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

    /// Whether the flow has been fully acknowledged.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Register a shared tally this sender increments exactly once, at
    /// flow completion. Experiment loops over many flows use it to detect
    /// "all done" in O(1) per event; the stop boundary is identical to
    /// polling [`is_done`](Self::is_done) (both flip inside the same ACK's
    /// dispatch). If the flow already completed, the tally is bumped
    /// immediately.
    pub fn notify_completion(&mut self, tally: std::rc::Rc<std::cell::Cell<u64>>) {
        if self.done {
            tally.set(tally.get() + 1);
        }
        self.completion_tally = Some(tally);
    }

    /// The congestion controller (for experiment inspection).
    pub fn cc(&self) -> &dyn CongestionControl {
        self.cc.as_ref()
    }

    /// Cumulatively acknowledged bytes.
    pub fn delivered(&self) -> u64 {
        self.snd_una
    }

    /// The RTT estimator (for experiment inspection).
    pub fn rtt(&self) -> &RttEstimator {
        &self.rtt
    }

    /// Bytes currently in flight per the scoreboard (RFC 6675 "pipe"):
    /// outstanding minus SACKed minus lost-not-yet-retransmitted.
    pub fn pipe(&self) -> u64 {
        let outstanding = self.snd_nxt - self.snd_una;
        let lost_unrepaired = self.lost.total_bytes() - self.rtx_sent.total_bytes();
        outstanding
            .saturating_sub(self.sacked.total_bytes())
            .saturating_sub(lost_unrepaired)
    }

    fn token(kind: u64, gen: u64) -> u64 {
        kind | (gen << 3)
    }

    fn arm_rto(&mut self, ctx: &mut Ctx<'_>) {
        self.rto_gen += 1;
        self.rto_armed = true;
        let at = ctx.now() + self.rtt.rto();
        ctx.set_timer(at, Self::token(TK_RTO, self.rto_gen));
    }

    fn disarm_rto(&mut self) {
        self.rto_gen += 1;
        self.rto_armed = false;
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

    fn sync_pacing_rate(&mut self, now: SimTime) {
        let want = self.cc.pacing_rate();
        if want != self.current_pacing_rate {
            self.current_pacing_rate = want;
            self.pacer.set_rate(now.as_nanos(), want);
        }
    }

    /// The next lost range that has not been retransmitted yet, clipped to
    /// one MSS. Scans from `rtx_scan_from` (everything below is repaired)
    /// and moves it past every lost range the scan finds fully
    /// retransmitted, so no later call walks those ranges again.
    fn next_rtx_hole(&mut self) -> Option<ByteRange> {
        self.debug_check_rtx_scan();
        let from = self.rtx_scan_from.max(self.snd_una);
        let mut repaired_to = from;
        let mut hole = None;
        for lost in self.lost.iter_from(from) {
            let start = lost.start.max(from);
            if let Some(gap) = self.rtx_sent.first_gap(start, lost.end) {
                let end = gap.end.min(gap.start + u64::from(self.cfg.mss));
                hole = Some(ByteRange::new(gap.start, end));
                break;
            }
            repaired_to = lost.end;
        }
        self.rtx_scan_from = self.rtx_scan_from.max(repaired_to);
        hole
    }

    /// Debug builds check `rtx_scan_from`'s invariant: every lost byte in
    /// `[snd_una, rtx_scan_from)` has been retransmitted. A full audit
    /// then skips as many checks as it walked lost ranges, so the checks
    /// stay O(1) amortised; a broken invariant stays broken until a rewind
    /// repairs it, so a later audit still catches it.
    fn debug_check_rtx_scan(&mut self) {
        #[cfg(debug_assertions)]
        {
            if self.rtx_audit_skip > 0 {
                self.rtx_audit_skip -= 1;
                return;
            }
            self.rtx_audit_skip = self.lost.num_ranges();
            let below = ByteRange::new(self.snd_una, self.rtx_scan_from.max(self.snd_una));
            for lost in self.lost.iter_from(below.start) {
                let Some(r) = lost.intersect(&below) else {
                    break;
                };
                assert_eq!(
                    self.rtx_sent.first_gap(r.start, r.end),
                    None,
                    "lost bytes below rtx_scan_from {} not retransmitted",
                    self.rtx_scan_from
                );
            }
        }
    }

    /// A range below the repair cursor became eligible again: rewind.
    fn rewind_rtx_scan(&mut self, to: u64) {
        self.rtx_scan_from = self.rtx_scan_from.min(to);
    }

    /// Transmit as much as window + pacer allow.
    fn try_send(&mut self, ctx: &mut Ctx<'_>) {
        let Some(out) = self.out else { return };
        if self.done {
            return;
        }
        let me = ctx.self_id();
        let mut sent_any = false;
        loop {
            // Pick the next segment: repair holes first, then new data.
            let (range, is_rtx) = match self.next_rtx_hole() {
                Some(hole) => (hole, true),
                None => {
                    if self.snd_nxt >= self.cfg.flow_bytes {
                        self.app_limited = true;
                        break;
                    }
                    let len = u64::from(self.cfg.mss).min(self.cfg.flow_bytes - self.snd_nxt);
                    (ByteRange::new(self.snd_nxt, self.snd_nxt + len), false)
                }
            };
            let len = range.len();

            // Window check against the scoreboard pipe.
            if self.pipe() + len > self.cc.cwnd() {
                break;
            }

            // Pacer check.
            let wire = len as u32 + BASE_HEADER_BYTES + TS_OPTION_BYTES;
            let now_ns = ctx.now().as_nanos();
            if !self.pacer.can_send(now_ns, u64::from(wire)) {
                let at = SimTime::from_nanos(self.pacer.next_send_time(now_ns, u64::from(wire)));
                self.pace_gen += 1;
                ctx.set_timer(at, Self::token(TK_PACE, self.pace_gen));
                break;
            }

            // Transmit.
            let fin = range.end >= self.cfg.flow_bytes;
            let seg = DataSeg {
                flow: self.flow,
                seq: range.start,
                len: len as u32,
                sent_at: now_ns,
                retransmit: is_rtx,
                fin,
            };
            let peer = self.peer.expect("sender peer not wired (call set_peer)");
            let boxed = ctx.alloc_payload(seg);
            ctx.send(
                out,
                Packet::with_boxed_payload(self.flow, me, peer, wire, boxed),
            );
            self.pacer.on_sent(now_ns, u64::from(wire));
            self.stats.segs_sent += 1;
            if let Some(m) = &self.metrics {
                m.segs_sent.inc();
                if is_rtx {
                    m.retransmits.inc();
                }
            }
            if is_rtx {
                self.stats.segs_retransmitted += 1;
                self.rtx_sent.insert(range);
                self.rtx_records.push_back((range, now_ns));
                self.rtx_scan_from = self.rtx_scan_from.max(range.end);
            } else {
                self.snd_nxt = range.end;
                self.app_limited = false;
            }
            self.cc.on_sent(now_ns, len, self.snd_nxt);
            sent_any = true;
        }
        if sent_any && !self.rto_armed {
            self.arm_rto(ctx);
        }
    }

    /// Enter (or continue) loss recovery by marking `hole` lost.
    fn mark_lost(&mut self, hole: ByteRange) {
        // Never mark SACKed bytes lost: clip against the scoreboard.
        let mut cursor = hole.start;
        while cursor < hole.end {
            match self.sacked.first_gap(cursor, hole.end) {
                Some(gap) => {
                    self.lost.insert(gap);
                    self.rewind_rtx_scan(gap.start);
                    cursor = gap.end;
                }
                None => break,
            }
        }
    }

    fn enter_recovery(&mut self, now: SimTime, kind: LossKind) {
        self.recovery_point = Some(self.snd_nxt);
        let lost_bytes = self.lost.total_bytes();
        let was_slow_start = self.cc.in_slow_start();
        {
            let _prof = simtrace::prof::span("cc/on_loss");
            self.cc.on_congestion_event(&LossView {
                now: now.as_nanos(),
                kind,
                lost_bytes,
                inflight: self.pipe(),
            });
        }
        match kind {
            LossKind::FastRetransmit => {
                self.stats.fast_retransmits += 1;
                if let Some(m) = &self.metrics {
                    m.fast_retransmits.inc();
                }
                self.trace
                    .record(now, self.flow, TraceEvent::FastRetransmit);
            }
            LossKind::Timeout => {
                self.stats.rtos += 1;
                if let Some(m) = &self.metrics {
                    m.rtos.inc();
                }
                self.trace.record(now, self.flow, TraceEvent::Rto);
            }
        }
        if was_slow_start && !self.cc.in_slow_start() {
            // A loss-driven exit: not a HyStart/SUSS exit, so
            // `hystart_exits` does not count it.
            self.trace.record(
                now,
                self.flow,
                TraceEvent::SlowStartExit {
                    cwnd: self.cc.cwnd(),
                },
            );
        }
    }

    fn handle_ack(&mut self, ack: AckSeg, ctx: &mut Ctx<'_>) {
        if self.done {
            return;
        }
        let _prof = simtrace::prof::span("tcp/ack");
        let now = ctx.now();

        // RTT sampling (Karn: skip echoes of retransmitted segments).
        if !ack.echo_retransmit {
            let sample = now.as_nanos().saturating_sub(ack.echo_ts);
            self.rtt.on_sample(std::time::Duration::from_nanos(sample));
        }

        let pipe_before = self.pipe();
        let cum_advance = ack.ack_seq.saturating_sub(self.snd_una);

        // Merge SACK information.
        let mut newly_sacked = 0;
        for block in ack.sack.iter() {
            if block.end > self.snd_una {
                let clipped = ByteRange::new(block.start.max(self.snd_una), block.end);
                newly_sacked += self.sacked.insert(clipped);
                // SACKed data is not lost; clear stale scoreboard marks.
                self.lost.remove(clipped);
                self.rtx_sent.remove(clipped);
                self.highest_sacked = self.highest_sacked.max(block.end);
            }
        }

        if cum_advance > 0 {
            self.snd_una = ack.ack_seq;
            self.sacked.remove_below(self.snd_una);
            self.lost.remove_below(self.snd_una);
            self.rtx_sent.remove_below(self.snd_una);
            self.dup_acks = 0;
        } else if newly_sacked == 0 && self.snd_nxt > self.snd_una {
            self.dup_acks += 1;
        }

        // RACK-style lost-retransmission detection: if a segment sent
        // *after* one of our retransmissions has been delivered (its echo
        // timestamp proves it), and the retransmitted range is still
        // unacknowledged, the retransmission itself was lost — make it
        // eligible for repair again. The reordering window guards against
        // mild reordering (RACK's reo_wnd, ~RTT/4). Records are in
        // ascending send-time order, so only the overtaken prefix is ever
        // examined: amortized O(1) per ACK.
        let reo_wnd = self
            .rtt
            .srtt()
            .map_or(10_000_000, |s| (s.as_nanos() / 4) as u64);
        while let Some(&(range, sent_at)) = self.rtx_records.front() {
            if sent_at.saturating_add(reo_wnd) >= ack.echo_ts {
                break; // not overtaken yet; neither is anything behind it
            }
            self.rtx_records.pop_front();
            if range.end > self.snd_una {
                self.rtx_sent.remove(range);
                self.rewind_rtx_scan(range.start);
            }
        }

        // --- Loss detection -------------------------------------------------
        let in_recovery = self.recovery_point.is_some_and(|p| self.snd_una < p);
        if !in_recovery {
            self.recovery_point = None;
            let sack_thresh = u64::from(DUPACK_THRESHOLD) * u64::from(self.cfg.mss);
            let dupack_trip = self.dup_acks >= DUPACK_THRESHOLD;
            let sack_trip = self
                .sacked
                .iter()
                .next()
                .is_some_and(|first| first.start > self.snd_una)
                && self.sacked.total_bytes() >= sack_thresh;
            if (dupack_trip || sack_trip) && self.snd_nxt > self.snd_una {
                // Mark the first hole lost and enter recovery.
                let hole_end = self
                    .sacked
                    .iter()
                    .next()
                    .map(|r| r.start)
                    .unwrap_or(self.snd_una + u64::from(self.cfg.mss))
                    .min(self.snd_nxt);
                self.mark_lost(ByteRange::new(self.snd_una, hole_end.max(self.snd_una)));
                self.enter_recovery(now, LossKind::FastRetransmit);
            }
        } else {
            if cum_advance > 0 && self.sacked.is_empty() {
                // NewReno partial ACK: the next segment is also lost. Only
                // without SACK — with a scoreboard, RFC 6675's
                // dupthresh-below-highest-SACK rule (below) decides what is
                // lost; marking on every partial ACK would spuriously
                // retransmit data that is merely queued, snowballing under
                // sustained congestion.
                let hole_end = (self.snd_una + u64::from(self.cfg.mss)).min(self.snd_nxt);
                if hole_end > self.snd_una {
                    self.mark_lost(ByteRange::new(self.snd_una, hole_end));
                }
            }
            // RFC 6675: anything more than dupthresh·MSS below the highest
            // SACK is lost. Marking is idempotent, so resume from the
            // high-water mark instead of rescanning from snd_una.
            let sack_loss_edge = self
                .highest_sacked
                .saturating_sub(u64::from(DUPACK_THRESHOLD) * u64::from(self.cfg.mss));
            let mut cursor = self.snd_una.max(self.mark_cursor);
            self.mark_cursor = self.mark_cursor.max(sack_loss_edge);
            while cursor < sack_loss_edge {
                match self.sacked.first_gap(cursor, sack_loss_edge) {
                    Some(gap) => {
                        self.mark_lost(gap);
                        cursor = gap.end;
                    }
                    None => break,
                }
            }
        }
        if self.recovery_point.is_some_and(|p| self.snd_una >= p) {
            self.recovery_point = None;
        }

        // --- Congestion controller ------------------------------------------
        let was_slow_start = self.cc.in_slow_start();
        let cc_prof = simtrace::prof::span("cc/on_ack");
        self.cc.on_ack(&AckView {
            now: now.as_nanos(),
            ack_seq: ack.ack_seq,
            newly_acked: cum_advance + newly_sacked,
            rtt_sample: (!ack.echo_retransmit).then(|| {
                std::time::Duration::from_nanos(now.as_nanos().saturating_sub(ack.echo_ts))
            }),
            srtt: self.rtt.srtt(),
            min_rtt: self.rtt.min_rtt(),
            inflight: pipe_before,
            snd_nxt: self.snd_nxt,
            delivered: self.snd_una,
            app_limited: self.app_limited,
        });
        drop(cc_prof);
        if was_slow_start && !self.cc.in_slow_start() {
            // A loss-driven exit happens in `enter_recovery`, before
            // `was_slow_start` is read — so a transition across `on_ack`
            // outside recovery is the controller's own (HyStart/SUSS) exit.
            if self.recovery_point.is_none() {
                if let Some(m) = &self.metrics {
                    m.hystart_exits.inc();
                }
            }
            self.trace.record(
                now,
                self.flow,
                TraceEvent::SlowStartExit {
                    cwnd: self.cc.cwnd(),
                },
            );
        }
        self.drain_cc_events(now);

        // --- Completion ------------------------------------------------------
        if self.snd_una >= self.cfg.flow_bytes {
            self.done = true;
            if let Some(t) = &self.completion_tally {
                t.set(t.get() + 1);
            }
            self.stats.completed_at = Some(now);
            self.trace.record(now, self.flow, TraceEvent::FlowComplete);
            self.disarm_rto();
            self.trace_sample(now);
            return;
        }

        // --- Transmit + timers ------------------------------------------------
        self.sync_pacing_rate(now);
        self.try_send(ctx);
        if cum_advance > 0 || newly_sacked > 0 {
            if self.snd_nxt > self.snd_una {
                self.arm_rto(ctx); // restart on forward progress
            } else {
                self.disarm_rto();
            }
        }
        self.sync_cc_timer(ctx);
        self.trace_sample(now);
    }

    fn handle_rto(&mut self, ctx: &mut Ctx<'_>) {
        if self.done || self.snd_nxt == self.snd_una {
            return;
        }
        let now = ctx.now();
        self.rtt.back_off();
        // Everything outstanding and unSACKed is presumed lost; the
        // scoreboard restarts.
        self.rtx_sent = RangeSet::new();
        self.rtx_records.clear();
        self.lost = RangeSet::new();
        self.rtx_scan_from = self.snd_una;
        self.mark_cursor = self.snd_una;
        self.mark_lost(ByteRange::new(self.snd_una, self.snd_nxt));
        self.dup_acks = 0;
        self.enter_recovery(now, LossKind::Timeout);
        self.sync_pacing_rate(now);
        self.try_send(ctx);
        self.arm_rto(ctx);
        self.sync_cc_timer(ctx);
    }

    fn drain_cc_events(&mut self, now: SimTime) {
        for ev in self.cc.take_events() {
            self.trace.record(now, self.flow, TraceEvent::from_cc(ev));
        }
    }

    fn trace_sample(&mut self, now: SimTime) {
        self.trace.sample(TraceSample {
            t: now,
            cwnd: self.cc.cwnd(),
            inflight: self.pipe(),
            delivered: self.snd_una,
            rtt: self.rtt.latest(),
            srtt: self.rtt.srtt(),
        });
    }
}

impl Agent for SenderEndpoint {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.cfg.start_at, Self::token(TK_START, 0));
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        if pkt.flow != self.flow {
            return;
        }
        if let Ok((ack, _meta)) = ctx.take_payload::<AckSeg>(pkt) {
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
            TK_RTO if gen == self.rto_gen && self.rto_armed => {
                self.rto_armed = false;
                self.handle_rto(ctx);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::FixedCwnd;
    use std::time::{Duration, Instant};

    const MSS: u64 = 1448;

    /// A sender whose scoreboard holds `n` disjoint one-MSS lost ranges,
    /// every one already retransmitted.
    fn repaired_scoreboard(n: u64) -> SenderEndpoint {
        let mut s = SenderEndpoint::new(
            SenderConfig::bulk(4 * n * MSS),
            FlowId(1),
            Box::new(FixedCwnd::new(10 * MSS)),
        );
        for i in 0..n {
            let r = ByteRange::new(2 * i * MSS, (2 * i + 1) * MSS);
            s.lost.insert(r);
            s.rtx_sent.insert(r);
        }
        s.snd_nxt = 2 * n * MSS;
        s
    }

    #[test]
    fn repaired_ranges_are_scanned_once() {
        // Every send attempt asks for the next hole. With all lost ranges
        // already retransmitted, a scan that restarts from the same cursor
        // each time walks all of them (with a `first_gap` search each):
        // 20k calls × 20k ranges. Advancing the cursor makes it linear.
        let n = 20_000;
        let mut s = repaired_scoreboard(n);
        let t0 = Instant::now();
        for _ in 0..n {
            assert_eq!(s.next_rtx_hole(), None);
        }
        let took = t0.elapsed();
        assert_eq!(s.rtx_scan_from, (2 * n - 1) * MSS);
        assert!(took < Duration::from_secs(2), "{n} scans took {took:?}");
    }

    #[test]
    fn scan_stops_at_the_first_unrepaired_range() {
        let mut s = repaired_scoreboard(4);
        // A third range loses its retransmission: the scan must stop there
        // and move the cursor only past the two repaired ranges below it.
        s.rtx_sent.remove(ByteRange::new(4 * MSS, 5 * MSS));
        s.rewind_rtx_scan(4 * MSS);
        let hole = ByteRange::new(4 * MSS, 5 * MSS);
        assert_eq!(s.next_rtx_hole(), Some(hole));
        assert_eq!(s.rtx_scan_from, 3 * MSS);
        assert_eq!(s.next_rtx_hole(), Some(hole));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not retransmitted")]
    fn unrewound_cursor_fails_the_debug_audit() {
        let mut s = repaired_scoreboard(4);
        assert_eq!(s.next_rtx_hole(), None);
        // A retransmission is found lost without rewinding the cursor:
        // its bytes would never be repaired.
        s.rtx_sent.remove(ByteRange::new(2 * MSS, 3 * MSS));
        s.rtx_audit_skip = 0;
        s.next_rtx_hole();
    }
}
