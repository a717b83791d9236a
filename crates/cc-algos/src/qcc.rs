//! A quinn-shaped QUIC congestion-controller adapter.
//!
//! The reproduction target for SUSS is "port into userspace QUIC
//! congestion control". This module defines a controller trait with the
//! exact shape of quinn's `congestion::Controller` (times, byte counts,
//! app-limited flags — no TCP sequence numbers) and adapts any of this
//! crate's controllers to it, proving that SUSS's requirements are
//! satisfiable from the information a QUIC stack exposes:
//!
//! * **round delimiting** — QUIC has no cumulative ACK sequence, but the
//!   monotone *delivered-bytes* counter is an exact substitute: SUSS's
//!   `ack_seq`/`snd_nxt` become `total_acked`/`total_sent`;
//! * **RTT samples** — provided per ACK by the QUIC loss detector;
//! * **pacing** — quinn paces from `window()` and pacing hooks; the
//!   adapter surfaces the SUSS pacing rate through [`QuicController::pacing_rate`].

use std::time::Duration;
use tcp_sim::cc::{AckView, CcEvent, CongestionControl, LossKind, LossView};

/// Nanoseconds on the transport clock (QUIC stacks use `Instant`; a
/// monotonic nanosecond count is the same information).
pub type Nanos = u64;

/// The RTT information quinn hands its controllers.
#[derive(Debug, Clone, Copy)]
pub struct QuicRtt {
    /// Latest sample.
    pub latest: Duration,
    /// Smoothed RTT.
    pub smoothed: Duration,
    /// Minimum observed RTT.
    pub min: Duration,
}

/// A quinn-shaped congestion controller: byte-count/time-based callbacks,
/// no transport sequence numbers.
pub trait QuicController {
    /// Packet(s) carrying `bytes` were newly acknowledged.
    ///
    /// `sent` is the (earliest) send time of the acknowledged packets,
    /// `app_limited` whether the path was under-utilized when they were
    /// sent, and `rtt` the loss-detector's current estimates.
    fn on_ack(&mut self, now: Nanos, sent: Nanos, bytes: u64, app_limited: bool, rtt: &QuicRtt);

    /// A congestion event (loss or ECN-CE) was detected.
    fn on_congestion_event(
        &mut self,
        now: Nanos,
        _sent: Nanos,
        is_persistent_congestion: bool,
        lost_bytes: u64,
    );

    /// Bytes transmitted (new data or retransmission).
    fn on_sent(&mut self, now: Nanos, bytes: u64);

    /// Current congestion window in bytes.
    fn window(&self) -> u64;

    /// Current pacing rate in bytes/sec, if the controller paces.
    fn pacing_rate(&self) -> Option<f64>;

    /// Earliest time the controller needs a timer callback.
    fn next_timer(&self) -> Option<Nanos>;

    /// A requested timer fired.
    fn on_timer(&mut self, now: Nanos);

    /// Short algorithm name for traces and tables.
    fn name(&self) -> &'static str {
        "quic-cc"
    }

    /// Whether the controller is in its exponential-growth phase.
    fn in_slow_start(&self) -> bool {
        false
    }

    /// Diagnostic: the slow-start threshold, if meaningful.
    fn ssthresh(&self) -> Option<u64> {
        None
    }

    /// Drain controller decisions for the connection trace — the same
    /// [`CcEvent`] catalogue the TCP transport consumes, so both
    /// transports' decision traces line up record-for-record.
    fn take_events(&mut self) -> Vec<CcEvent> {
        Vec::new()
    }

    /// Attach metric handles from the owning simulation's registry.
    fn bind_metrics(&mut self, _registry: &simtrace::Registry) {}
}

/// Adapts any [`CongestionControl`] (including `CubicSuss`) to the
/// quinn-shaped [`QuicController`] interface by reconstructing the
/// byte-counter view SUSS needs.
pub struct QuicAdapter<C: CongestionControl> {
    inner: C,
    total_sent: u64,
    total_acked: u64,
}

impl<C: CongestionControl> QuicAdapter<C> {
    /// Wrap a controller.
    pub fn new(inner: C) -> Self {
        QuicAdapter {
            inner,
            total_sent: 0,
            total_acked: 0,
        }
    }

    /// Access the wrapped controller.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Total bytes the adapter has seen transmitted.
    pub fn total_sent(&self) -> u64 {
        self.total_sent
    }

    /// Total bytes the adapter has seen acknowledged.
    pub fn total_acked(&self) -> u64 {
        self.total_acked
    }
}

/// Construct a boxed quinn-shaped controller by [`CcKind`](crate::CcKind): the factory
/// the QUIC transport uses, mirroring [`crate::make_controller`]. Every
/// controller in this crate runs unmodified behind the adapter.
pub fn make_quic_controller(kind: crate::CcKind, iw: u64, mss: u64) -> Box<dyn QuicController> {
    Box::new(QuicAdapter::new(crate::make_controller(kind, iw, mss)))
}

impl<C: CongestionControl> QuicController for QuicAdapter<C> {
    fn on_ack(&mut self, now: Nanos, sent: Nanos, bytes: u64, app_limited: bool, rtt: &QuicRtt) {
        self.total_acked += bytes;
        let inflight = self.total_sent.saturating_sub(self.total_acked);
        self.inner.on_ack(&AckView {
            now,
            // Delivered-bytes counters stand in for TCP sequence space:
            // both are monotone and round-delimit identically.
            ack_seq: self.total_acked,
            newly_acked: bytes,
            rtt_sample: (sent <= now).then_some(rtt.latest),
            srtt: Some(rtt.smoothed),
            min_rtt: Some(rtt.min),
            inflight,
            snd_nxt: self.total_sent,
            delivered: self.total_acked,
            app_limited,
        });
    }

    fn on_congestion_event(
        &mut self,
        now: Nanos,
        _sent: Nanos,
        is_persistent_congestion: bool,
        lost_bytes: u64,
    ) {
        let kind = if is_persistent_congestion {
            LossKind::Timeout
        } else {
            LossKind::FastRetransmit
        };
        let inflight = self.total_sent.saturating_sub(self.total_acked);
        self.inner.on_congestion_event(&LossView {
            now,
            kind,
            lost_bytes,
            inflight,
        });
    }

    fn on_sent(&mut self, now: Nanos, bytes: u64) {
        self.total_sent += bytes;
        self.inner.on_sent(now, bytes, self.total_sent);
    }

    fn window(&self) -> u64 {
        self.inner.cwnd()
    }

    fn pacing_rate(&self) -> Option<f64> {
        self.inner.pacing_rate()
    }

    fn next_timer(&self) -> Option<Nanos> {
        self.inner.next_timer()
    }

    fn on_timer(&mut self, now: Nanos) {
        self.inner.on_timer(now)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn in_slow_start(&self) -> bool {
        self.inner.in_slow_start()
    }

    fn ssthresh(&self) -> Option<u64> {
        self.inner.ssthresh()
    }

    fn take_events(&mut self) -> Vec<CcEvent> {
        self.inner.take_events()
    }

    fn bind_metrics(&mut self, registry: &simtrace::Registry) {
        self.inner.bind_metrics(registry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cubic_suss::CubicSuss;
    use suss_core::SussConfig;

    const MSS: u64 = 1_448;
    const IW: u64 = 10 * MSS;
    const RTT: Duration = Duration::from_millis(100);

    fn rtt() -> QuicRtt {
        QuicRtt {
            latest: RTT,
            smoothed: RTT,
            min: RTT,
        }
    }

    /// Drive SUSS through the QUIC-shaped interface only: one clean round
    /// of per-packet ACKs must trigger a G=4 pacing plan exactly as via the
    /// TCP interface.
    #[test]
    fn suss_accelerates_through_quic_interface() {
        let mut q = QuicAdapter::new(CubicSuss::new(IW, MSS, SussConfig::default()));
        q.on_sent(0, IW); // initial window departs
        let rtt_ns = 100_000_000u64;
        let n = IW / MSS;
        for k in 0..n {
            let now = rtt_ns + k * 100_000; // tightly spaced ACK train
            q.on_ack(now, now - rtt_ns, MSS, false, &rtt());
            // ACK clocking at the QUIC layer: send what the window allows.
            let inflight = q.total_sent - q.total_acked;
            let w = q.window();
            if w > inflight {
                let grant = w - inflight;
                q.on_sent(now, grant);
            }
        }
        // A pacing timer must now be pending (guard interval).
        let t = q.next_timer().expect("SUSS pacing plan expected");
        q.on_timer(t);
        assert_eq!(q.inner().suss().last_growth_factor(), 4);
        // Run the window to completion.
        let mut guard_exceeded = 0;
        while let Some(at) = q.next_timer() {
            q.on_timer(at);
            guard_exceeded += 1;
            assert!(guard_exceeded < 10_000, "pacing window must terminate");
        }
        assert!(q.window() >= 4 * IW, "window {} < 4·iw", q.window());
    }

    #[test]
    fn persistent_congestion_maps_to_timeout() {
        let mut q = QuicAdapter::new(CubicSuss::new(IW, MSS, SussConfig::default()));
        q.on_sent(0, IW);
        q.on_congestion_event(1_000_000, 0, true, MSS);
        assert_eq!(
            q.window(),
            MSS,
            "persistent congestion collapses the window"
        );
    }

    #[test]
    fn loss_event_maps_to_fast_retransmit() {
        let mut q = QuicAdapter::new(CubicSuss::new(100 * MSS, MSS, SussConfig::default()));
        q.on_sent(0, 100 * MSS);
        let before = q.window();
        q.on_congestion_event(1_000_000, 0, false, MSS);
        assert!(q.window() < before);
        assert!(q.window() > MSS);
    }

    #[test]
    fn byte_counters_track() {
        let mut q = QuicAdapter::new(CubicSuss::new(IW, MSS, SussConfig::default()));
        q.on_sent(0, 5_000);
        q.on_ack(1_000, 0, 2_000, false, &rtt());
        assert_eq!(q.total_sent, 5_000);
        assert_eq!(q.total_acked, 2_000);
    }
}
