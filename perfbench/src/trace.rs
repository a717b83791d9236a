//! Outside-in span tracing for the traced mode.
//!
//! Every span is opened by the benchmark's own code around a call into
//! one layer's public API: a delegating wrapper around a transport agent
//! or a congestion controller, or a bracket around `Sim::run_*`. Spans
//! nest on a per-thread stack; when one closes, its duration minus the
//! time covered by its children is added to its kind's *self time*, and
//! its full duration to the parent's child time. The self times of one
//! cell therefore sum exactly to the cell span's duration.
//!
//! Per-call spans are aggregated in memory into (calls, self ns) per span
//! kind and cell; only the cell-level spans are kept individually, and
//! everything is handed back when the cell closes.

use cc_algos::{QuicController, QuicRtt};
use netsim::{Agent, Ctx, Packet};
use std::any::Any;
use std::cell::RefCell;
use std::time::Instant;
use tcp_sim::cc::{AckView, CcEvent, CongestionControl, LossView, Nanos};

/// What a span measures; each kind belongs to exactly one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The whole cell call (experiments: the cell driver itself).
    Cell,
    /// `Sim::run_while` / `Sim::run_until` (netsim: the event engine).
    Sim,
    /// `SenderEndpoint` callbacks (tcp-sim).
    TcpSender,
    /// `ReceiverEndpoint` callbacks (tcp-sim).
    TcpReceiver,
    /// `QuicSender` callbacks (quic-sim).
    QuicSender,
    /// `QuicReceiver` callbacks (quic-sim).
    QuicReceiver,
    /// Controller on-ACK callbacks (cc-algos, with suss-core inside).
    CcOnAck,
    /// Every other timed controller callback (cc-algos).
    CcOther,
}

impl Kind {
    /// Every kind, in report order.
    pub const ALL: [Kind; 8] = [
        Kind::Cell,
        Kind::Sim,
        Kind::TcpSender,
        Kind::TcpReceiver,
        Kind::QuicSender,
        Kind::QuicReceiver,
        Kind::CcOnAck,
        Kind::CcOther,
    ];

    /// The span name written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Cell => "experiments/cell",
            Kind::Sim => "netsim/run",
            Kind::TcpSender => "tcp-sim/sender",
            Kind::TcpReceiver => "tcp-sim/receiver",
            Kind::QuicSender => "quic-sim/sender",
            Kind::QuicReceiver => "quic-sim/receiver",
            Kind::CcOnAck => "cc-algos/on_ack",
            Kind::CcOther => "cc-algos/other",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Calls and self time of one span kind.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Acc {
    /// Spans closed.
    pub calls: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

/// Per-kind totals of one cell (or a sum of cells).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally([Acc; 8]);

impl Tally {
    /// Totals for one kind.
    pub fn get(&self, kind: Kind) -> Acc {
        self.0[kind.index()]
    }

    /// Self time summed over every kind, ns.
    pub fn total_ns(&self) -> u64 {
        self.0.iter().map(|a| a.self_ns).sum()
    }

    /// Add another tally into this one.
    pub fn add(&mut self, other: &Tally) {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            a.calls += b.calls;
            a.self_ns += b.self_ns;
        }
    }
}

struct Frame {
    kind: Kind,
    start: Instant,
    child_ns: u64,
}

#[derive(Default)]
struct Tracer {
    stack: Vec<Frame>,
    tally: Tally,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::default());
}

/// Closes its span on drop.
pub struct Guard(());

/// Open a span of `kind`; it closes when the returned guard drops.
pub fn enter(kind: Kind) -> Guard {
    TRACER.with(|t| {
        t.borrow_mut().stack.push(Frame {
            kind,
            start: Instant::now(),
            child_ns: 0,
        })
    });
    Guard(())
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end = Instant::now();
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let frame = t.stack.pop().expect("span stack underflow");
            let dur = end.duration_since(frame.start).as_nanos() as u64;
            let acc = &mut t.tally.0[frame.kind.index()];
            acc.calls += 1;
            acc.self_ns += dur.saturating_sub(frame.child_ns);
            if let Some(parent) = t.stack.last_mut() {
                parent.child_ns += dur;
            }
        });
    }
}

/// Run `f` inside a span of `kind`.
pub fn span<R>(kind: Kind, f: impl FnOnce() -> R) -> R {
    let _g = enter(kind);
    f()
}

/// One traced cell: when it ran and what each span kind cost inside it.
#[derive(Debug, Clone)]
pub struct CellSpan {
    /// Start, ns since the traced campaign began.
    pub start_ns: u64,
    /// Duration of the cell span, ns.
    pub dur_ns: u64,
    /// Per-kind calls and self time within the cell.
    pub tally: Tally,
}

/// Run one cell body under a [`Kind::Cell`] span, returning its result
/// and its aggregated spans. `epoch` is the campaign's start instant.
pub fn cell<R>(epoch: Instant, f: impl FnOnce() -> R) -> (R, CellSpan) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        assert!(t.stack.is_empty(), "cell span opened inside another span");
        t.tally = Tally::default();
    });
    let start = Instant::now();
    let out = span(Kind::Cell, f);
    let dur_ns = start.elapsed().as_nanos() as u64;
    let tally = TRACER.with(|t| std::mem::take(&mut t.borrow_mut().tally));
    let span = CellSpan {
        start_ns: start.duration_since(epoch).as_nanos() as u64,
        dur_ns,
        tally,
    };
    (out, span)
}

/// A transport agent with every callback bracketed in a span. `as_any`
/// delegates, so `Sim::agent::<Inner>` still downcasts through it.
pub struct TracedAgent<A> {
    inner: A,
    kind: Kind,
}

impl<A: Agent> TracedAgent<A> {
    /// Wrap `inner`, attributing its callbacks to `kind`.
    pub fn new(inner: A, kind: Kind) -> Self {
        TracedAgent { inner, kind }
    }
}

impl<A: Agent> Agent for TracedAgent<A> {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        let _g = enter(self.kind);
        self.inner.on_packet(pkt, ctx)
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        let _g = enter(self.kind);
        self.inner.on_timer(token, ctx)
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let _g = enter(self.kind);
        self.inner.on_start(ctx)
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// A TCP congestion controller with its state-changing callbacks
/// bracketed in spans. Read-only queries (`cwnd`, `pacing_rate`,
/// `next_timer`, …) delegate untimed: they are a few loads each, and
/// their cost stays in the calling transport's self time.
pub struct TracedCc(pub Box<dyn CongestionControl>);

impl CongestionControl for TracedCc {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn cwnd(&self) -> u64 {
        self.0.cwnd()
    }
    fn in_slow_start(&self) -> bool {
        self.0.in_slow_start()
    }
    fn on_ack(&mut self, ack: &AckView) {
        span(Kind::CcOnAck, || self.0.on_ack(ack))
    }
    fn on_congestion_event(&mut self, loss: &LossView) {
        span(Kind::CcOther, || self.0.on_congestion_event(loss))
    }
    fn on_sent(&mut self, now: Nanos, bytes: u64, snd_nxt: u64) {
        span(Kind::CcOther, || self.0.on_sent(now, bytes, snd_nxt))
    }
    fn pacing_rate(&self) -> Option<f64> {
        self.0.pacing_rate()
    }
    fn next_timer(&self) -> Option<Nanos> {
        self.0.next_timer()
    }
    fn on_timer(&mut self, now: Nanos) {
        span(Kind::CcOther, || self.0.on_timer(now))
    }
    fn ssthresh(&self) -> Option<u64> {
        self.0.ssthresh()
    }
    fn take_events(&mut self) -> Vec<CcEvent> {
        span(Kind::CcOther, || self.0.take_events())
    }
    fn bind_metrics(&mut self, registry: &simtrace::Registry) {
        self.0.bind_metrics(registry)
    }
}

/// The QUIC-adapter twin of [`TracedCc`].
pub struct TracedQuicCc(pub Box<dyn QuicController>);

impl QuicController for TracedQuicCc {
    fn on_ack(&mut self, now: Nanos, sent: Nanos, bytes: u64, app_limited: bool, rtt: &QuicRtt) {
        span(Kind::CcOnAck, || {
            self.0.on_ack(now, sent, bytes, app_limited, rtt)
        })
    }
    fn on_congestion_event(&mut self, now: Nanos, sent: Nanos, persistent: bool, lost: u64) {
        span(Kind::CcOther, || {
            self.0.on_congestion_event(now, sent, persistent, lost)
        })
    }
    fn on_sent(&mut self, now: Nanos, bytes: u64) {
        span(Kind::CcOther, || self.0.on_sent(now, bytes))
    }
    fn window(&self) -> u64 {
        self.0.window()
    }
    fn pacing_rate(&self) -> Option<f64> {
        self.0.pacing_rate()
    }
    fn next_timer(&self) -> Option<Nanos> {
        self.0.next_timer()
    }
    fn on_timer(&mut self, now: Nanos) {
        span(Kind::CcOther, || self.0.on_timer(now))
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn in_slow_start(&self) -> bool {
        self.0.in_slow_start()
    }
    fn ssthresh(&self) -> Option<u64> {
        self.0.ssthresh()
    }
    fn take_events(&mut self) -> Vec<CcEvent> {
        span(Kind::CcOther, || self.0.take_events())
    }
    fn bind_metrics(&mut self, registry: &simtrace::Registry) {
        self.0.bind_metrics(registry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_tile_the_cell() {
        let epoch = Instant::now();
        let ((), cell) = cell(epoch, || {
            span(Kind::Sim, || {
                span(Kind::TcpSender, || {
                    span(Kind::CcOnAck, || std::hint::black_box(0u64));
                });
                span(Kind::TcpReceiver, || ());
            });
        });
        let t = cell.tally;
        assert_eq!(t.get(Kind::Cell).calls, 1);
        assert_eq!(t.get(Kind::Sim).calls, 1);
        assert_eq!(t.get(Kind::CcOnAck).calls, 1);
        assert_eq!(t.get(Kind::QuicSender).calls, 0);
        // Self times partition the cell span up to the few ns spent
        // between its own clock reads and the guard's.
        let diff = cell.dur_ns.abs_diff(t.total_ns());
        assert!(
            diff < 100_000,
            "cell {} vs tiles {}",
            cell.dur_ns,
            t.total_ns()
        );
    }
}
