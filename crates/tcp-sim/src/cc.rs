//! The pluggable congestion-control interface.
//!
//! Modeled on the controller traits of userspace QUIC stacks (quinn's
//! `congestion::Controller`): the transport owns reliability and delivery,
//! the controller owns the congestion window and pacing rate, and the two
//! communicate through per-ACK / per-loss callbacks. Everything SUSS needs
//! (ACK sequence positions, `snd_nxt`, timers for its guarded pacing
//! window) flows through this trait, which is what makes the paper's
//! algorithm portable to a real QUIC implementation.

use std::time::Duration;

/// Nanoseconds on the transport clock.
pub type Nanos = u64;

/// Everything a controller may inspect when an ACK arrives.
///
/// The transport calls [`CongestionControl::on_ack`] *before* transmitting
/// any data in response to the ACK, and before applying the controller's
/// new window — so `snd_nxt` and `inflight` reflect the pre-ACK world.
#[derive(Debug, Clone, Copy)]
pub struct AckView {
    /// Arrival time.
    pub now: Nanos,
    /// Cumulative ACK sequence (one past last in-order byte).
    pub ack_seq: u64,
    /// Bytes newly acknowledged by this ACK (cumulative + SACK).
    pub newly_acked: u64,
    /// RTT sample from this ACK, if valid (Karn-filtered).
    pub rtt_sample: Option<Duration>,
    /// Transport's smoothed RTT.
    pub srtt: Option<Duration>,
    /// Transport's lifetime minimum RTT.
    pub min_rtt: Option<Duration>,
    /// Bytes in flight *before* this ACK was applied.
    pub inflight: u64,
    /// One past the highest byte sent so far.
    pub snd_nxt: u64,
    /// Total bytes delivered (cumulatively acknowledged) including this ACK.
    pub delivered: u64,
    /// The sender had no data waiting when it last could have sent
    /// (controllers should not grow the window on app-limited samples).
    pub app_limited: bool,
}

/// A congestion (loss) event, reported once per recovery episode.
#[derive(Debug, Clone, Copy)]
pub struct LossView {
    /// Detection time.
    pub now: Nanos,
    /// How the loss was detected.
    pub kind: LossKind,
    /// Bytes currently deemed lost.
    pub lost_bytes: u64,
    /// Bytes in flight at detection.
    pub inflight: u64,
}

/// Loss detection mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossKind {
    /// Triple duplicate ACK / SACK threshold (fast retransmit).
    FastRetransmit,
    /// Retransmission timeout.
    Timeout,
}

/// A pluggable congestion controller.
///
/// Implementations own `cwnd` (in bytes) and optionally a pacing rate and
/// an internal timer (used by SUSS for its guard/pacing windows and by BBR
/// for ProbeRTT scheduling).
pub trait CongestionControl {
    /// Short algorithm name for traces and tables (e.g. `"cubic+suss"`).
    fn name(&self) -> &'static str;

    /// Current congestion window in bytes.
    fn cwnd(&self) -> u64;

    /// Whether the controller is in its exponential-growth phase.
    fn in_slow_start(&self) -> bool;

    /// A cumulative/SACK acknowledgment arrived.
    fn on_ack(&mut self, ack: &AckView);

    /// A loss episode was detected (at most once per episode).
    fn on_congestion_event(&mut self, loss: &LossView);

    /// Data was transmitted (`bytes` on the wire, new or retransmit).
    fn on_sent(&mut self, _now: Nanos, _bytes: u64, _snd_nxt: u64) {}

    /// Current pacing rate in bytes/sec; `None` = unpaced (ACK clocking).
    fn pacing_rate(&self) -> Option<f64> {
        None
    }

    /// When the controller next needs [`Self::on_timer`] called, if ever.
    /// Re-queried after every callback; returning a time at or before
    /// "now" fires immediately.
    fn next_timer(&self) -> Option<Nanos> {
        None
    }

    /// The timer requested via [`Self::next_timer`] fired.
    fn on_timer(&mut self, _now: Nanos) {}

    /// Diagnostic: the slow-start threshold, if meaningful.
    fn ssthresh(&self) -> Option<u64> {
        None
    }

    /// Drain controller-generated events for the connection trace.
    /// Called by the transport after every callback.
    fn take_events(&mut self) -> Vec<CcEvent> {
        Vec::new()
    }

    /// Attach metric handles from the owning simulation's registry.
    /// Called once when the endpoint is wired into a simulation.
    /// Controllers with internal state machines (SUSS) register their own
    /// counters here; the default registers nothing.
    fn bind_metrics(&mut self, _registry: &simtrace::Registry) {}
}

/// Boxed controllers forward transparently, so adapters generic over
/// `C: CongestionControl` (the QUIC adapter in `cc-algos`) can wrap the
/// factory-produced `Box<dyn CongestionControl>` without knowing the
/// concrete type.
impl CongestionControl for Box<dyn CongestionControl> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn cwnd(&self) -> u64 {
        (**self).cwnd()
    }
    fn in_slow_start(&self) -> bool {
        (**self).in_slow_start()
    }
    fn on_ack(&mut self, ack: &AckView) {
        (**self).on_ack(ack)
    }
    fn on_congestion_event(&mut self, loss: &LossView) {
        (**self).on_congestion_event(loss)
    }
    fn on_sent(&mut self, now: Nanos, bytes: u64, snd_nxt: u64) {
        (**self).on_sent(now, bytes, snd_nxt)
    }
    fn pacing_rate(&self) -> Option<f64> {
        (**self).pacing_rate()
    }
    fn next_timer(&self) -> Option<Nanos> {
        (**self).next_timer()
    }
    fn on_timer(&mut self, now: Nanos) {
        (**self).on_timer(now)
    }
    fn ssthresh(&self) -> Option<u64> {
        (**self).ssthresh()
    }
    fn take_events(&mut self) -> Vec<CcEvent> {
        (**self).take_events()
    }
    fn bind_metrics(&mut self, registry: &simtrace::Registry) {
        (**self).bind_metrics(registry)
    }
}

/// Events a controller reports into the connection trace.
///
/// Together these form the CC *decision* catalogue: each records one
/// discrete choice the controller made (not per-ACK state — the sample
/// stream carries that), with a short static `reason` code saying why.
/// Reason codes are part of the trace contract; the full table lives in
/// DESIGN.md §9.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcEvent {
    /// A SUSS pacing period began with growth factor `g`.
    SussPacingStarted {
        /// The measured growth factor G.
        g: u32,
    },
    /// The congestion window was reset by a decision (loss response,
    /// timeout collapse). Routine per-ACK growth is *not* reported.
    CwndChanged {
        /// The new congestion window in bytes.
        cwnd: u64,
        /// Decision code, e.g. `loss`, `timeout`.
        reason: &'static str,
    },
    /// The slow-start threshold moved.
    SsthreshChanged {
        /// The new threshold in bytes.
        ssthresh: u64,
        /// Decision code, e.g. `loss`, `hystart`, `suss_exit`.
        reason: &'static str,
    },
    /// The pacing rate changed (0 = pacing stopped).
    PacingRateChanged {
        /// The new rate in bits per second.
        rate_bps: u64,
        /// Decision code, e.g. `suss_pacing`, `suss_cancel`.
        reason: &'static str,
    },
    /// SUSS finished estimating a slow-start round.
    SussRound {
        /// The 1-based slow-start round index.
        round: u32,
        /// The growth estimate `k` for that round.
        k: u32,
    },
    /// A HyStart phase transition.
    HystartPhase {
        /// The phase entered (`exit`).
        phase: &'static str,
        /// Trigger code: the detector that fired, `ack_train` or `delay`.
        reason: &'static str,
    },
}

/// A fixed-window controller for transport unit tests: no reaction to
/// anything, a constant cwnd.
#[derive(Debug, Clone)]
pub struct FixedCwnd {
    window: u64,
}

impl FixedCwnd {
    /// A controller pinned at `window` bytes.
    pub fn new(window: u64) -> Self {
        FixedCwnd { window }
    }
}

impl CongestionControl for FixedCwnd {
    fn name(&self) -> &'static str {
        "fixed"
    }
    fn cwnd(&self) -> u64 {
        self.window
    }
    fn in_slow_start(&self) -> bool {
        false
    }
    fn on_ack(&mut self, _ack: &AckView) {}
    fn on_congestion_event(&mut self, _loss: &LossView) {}
}

/// A minimal slow-start-only controller for transport tests: doubles per
/// round, halves on loss, never leaves slow start unless loss occurs.
#[derive(Debug, Clone)]
pub struct BasicSlowStart {
    cwnd: u64,
    ssthresh: u64,
    mss: u64,
}

impl BasicSlowStart {
    /// Start from `iw` bytes with the given MSS.
    pub fn new(iw: u64, mss: u64) -> Self {
        BasicSlowStart {
            cwnd: iw,
            ssthresh: u64::MAX,
            mss,
        }
    }
}

impl CongestionControl for BasicSlowStart {
    fn name(&self) -> &'static str {
        "basic-ss"
    }
    fn cwnd(&self) -> u64 {
        self.cwnd
    }
    fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }
    fn on_ack(&mut self, ack: &AckView) {
        if self.in_slow_start() {
            self.cwnd += ack.newly_acked;
        } else {
            // Linear: one MSS per cwnd of ACKed data.
            self.cwnd += self.mss * ack.newly_acked / self.cwnd.max(1);
        }
    }
    fn on_congestion_event(&mut self, _loss: &LossView) {
        self.ssthresh = (self.cwnd / 2).max(2 * self.mss);
        self.cwnd = self.ssthresh;
    }
    fn ssthresh(&self) -> Option<u64> {
        (self.ssthresh != u64::MAX).then_some(self.ssthresh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ack(newly: u64) -> AckView {
        AckView {
            now: 0,
            ack_seq: 0,
            newly_acked: newly,
            rtt_sample: None,
            srtt: None,
            min_rtt: None,
            inflight: 0,
            snd_nxt: 0,
            delivered: 0,
            app_limited: false,
        }
    }

    #[test]
    fn fixed_stays_fixed() {
        let mut c = FixedCwnd::new(10_000);
        c.on_ack(&ack(5_000));
        c.on_congestion_event(&LossView {
            now: 0,
            kind: LossKind::FastRetransmit,
            lost_bytes: 1_000,
            inflight: 10_000,
        });
        assert_eq!(c.cwnd(), 10_000);
    }

    #[test]
    fn basic_slow_start_doubles_and_halves() {
        let mut c = BasicSlowStart::new(10_000, 1_000);
        assert!(c.in_slow_start());
        c.on_ack(&ack(10_000));
        assert_eq!(c.cwnd(), 20_000);
        c.on_congestion_event(&LossView {
            now: 0,
            kind: LossKind::FastRetransmit,
            lost_bytes: 1_000,
            inflight: 20_000,
        });
        assert_eq!(c.cwnd(), 10_000);
        assert!(!c.in_slow_start());
        // Congestion avoidance: +MSS per cwnd acked.
        c.on_ack(&ack(10_000));
        assert_eq!(c.cwnd(), 11_000);
    }
}
