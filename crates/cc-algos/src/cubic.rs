//! CUBIC congestion control (RFC 9438), with classic HyStart slow-start
//! exit — the paper's baseline ("CUBIC with SUSS off").

use crate::hystart::HyStart;
use std::time::Duration;
use tcp_sim::cc::{AckView, CcEvent, CongestionControl, LossKind, LossView};

/// Nanoseconds on the transport clock.
pub type Nanos = u64;

/// RFC 9438 multiplicative-decrease factor.
const BETA: f64 = 0.7;
/// RFC 9438 cubic scaling constant (segments/sec³).
pub const C: f64 = 0.4;

/// The CUBIC window-growth core (congestion avoidance only), in segment
/// units. Shared by plain CUBIC and CUBIC+SUSS.
#[derive(Debug, Clone)]
pub struct CubicCore {
    /// Segment size in bytes.
    mss: f64,
    /// W_max: window just before the last reduction (segments).
    w_max: f64,
    /// K: time to regrow to W_max (seconds).
    k: f64,
    /// Congestion-avoidance epoch start.
    epoch_start: Option<Nanos>,
    /// TCP-friendly (Reno-estimate) window, segments.
    w_est: f64,
    /// Enable fast convergence (RFC 9438 §4.6).
    pub fast_convergence: bool,
}

impl CubicCore {
    /// A fresh core (no loss history).
    pub fn new(mss: u64) -> Self {
        CubicCore {
            mss: mss as f64,
            w_max: 0.0,
            k: 0.0,
            epoch_start: None,
            w_est: 0.0,
            fast_convergence: true,
        }
    }

    /// React to a multiplicative-decrease event. `cwnd` is the window at
    /// loss detection (bytes); returns the new window (bytes).
    pub fn on_loss(&mut self, cwnd: u64) -> u64 {
        let w = cwnd as f64 / self.mss;
        let mut w_max = w;
        if self.fast_convergence && w < self.w_max {
            // Release bandwidth faster when the saturation point is falling.
            w_max = w * (1.0 + BETA) / 2.0;
        }
        self.w_max = w_max;
        self.epoch_start = None;
        ((w * BETA) * self.mss).max(2.0 * self.mss) as u64
    }

    /// Congestion-avoidance growth on an ACK. Returns the new window.
    ///
    /// * `cwnd` — current window, bytes.
    /// * `acked` — newly acknowledged bytes.
    /// * `srtt` — smoothed RTT for the target-lookahead.
    pub fn on_ack_ca(&mut self, now: Nanos, cwnd: u64, acked: u64, srtt: Duration) -> u64 {
        let w = cwnd as f64 / self.mss;
        let acked_segs = acked as f64 / self.mss;

        if self.epoch_start.is_none() {
            self.epoch_start = Some(now);
            if self.w_max < w {
                // Exiting slow start above the old saturation point: treat
                // the current window as the new plateau.
                self.w_max = w;
            }
            self.k = ((self.w_max - w).max(0.0) / C).cbrt();
            self.w_est = w;
        }
        let t = (now - self.epoch_start.unwrap()) as f64 / 1e9;

        // Cubic target one RTT ahead, clamped to 1.5x (RFC 9438 §4.2).
        let t_ahead = t + srtt.as_secs_f64();
        let w_cubic = C * (t_ahead - self.k).powi(3) + self.w_max;
        let target = w_cubic.clamp(w, 1.5 * w);

        // Reno-friendly estimate (RFC 9438 §4.3).
        self.w_est += 3.0 * (1.0 - BETA) / (1.0 + BETA) * acked_segs / w;

        let mut w_next = w + (target - w) / w * acked_segs;
        if self.w_est > w_next {
            w_next = self.w_est.min(w + acked_segs); // friendly region
        }
        (w_next * self.mss) as u64
    }

    /// Reset the epoch (e.g. after an RTO-induced slow start).
    pub fn reset_epoch(&mut self) {
        self.epoch_start = None;
    }
}

/// Plain CUBIC with classic HyStart — the kernel-default configuration the
/// paper compares against.
pub struct Cubic {
    mss: u64,
    cwnd: u64,
    ssthresh: u64,
    core: CubicCore,
    hystart: HyStart,
    events: Vec<CcEvent>,
}

impl Cubic {
    /// CUBIC starting from `iw` bytes with HyStart enabled.
    pub fn new(iw: u64, mss: u64) -> Self {
        Cubic {
            mss,
            cwnd: iw,
            ssthresh: u64::MAX,
            core: CubicCore::new(mss),
            hystart: HyStart::new(mss),
            events: Vec::new(),
        }
    }
}

impl CongestionControl for Cubic {
    fn name(&self) -> &'static str {
        "cubic"
    }

    fn cwnd(&self) -> u64 {
        self.cwnd
    }

    fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }

    fn on_ack(&mut self, ack: &AckView) {
        if ack.app_limited {
            return;
        }
        if self.in_slow_start() {
            if let Some(why) =
                self.hystart
                    .on_ack(ack.now, ack.ack_seq, ack.snd_nxt, ack.rtt_sample, self.cwnd)
            {
                self.ssthresh = self.cwnd;
                self.events.push(CcEvent::SsthreshChanged {
                    ssthresh: self.ssthresh,
                    reason: "hystart",
                });
                self.events.push(CcEvent::HystartPhase {
                    phase: "exit",
                    reason: why.reason(),
                });
                return;
            }
            self.cwnd += ack.newly_acked;
            if self.cwnd >= self.ssthresh {
                self.cwnd = self.ssthresh;
            }
        } else {
            let srtt = ack.srtt.unwrap_or(Duration::from_millis(100));
            self.cwnd = self
                .core
                .on_ack_ca(ack.now, self.cwnd, ack.newly_acked, srtt);
        }
    }

    fn on_congestion_event(&mut self, loss: &LossView) {
        match loss.kind {
            LossKind::FastRetransmit => {
                self.cwnd = self.core.on_loss(self.cwnd);
                self.ssthresh = self.cwnd;
                self.events.push(CcEvent::CwndChanged {
                    cwnd: self.cwnd,
                    reason: "loss",
                });
                self.events.push(CcEvent::SsthreshChanged {
                    ssthresh: self.ssthresh,
                    reason: "loss",
                });
            }
            LossKind::Timeout => {
                let reduced = self.core.on_loss(self.cwnd);
                self.ssthresh = reduced;
                self.cwnd = self.mss;
                self.core.reset_epoch();
                self.hystart.restart();
                self.events.push(CcEvent::CwndChanged {
                    cwnd: self.cwnd,
                    reason: "timeout",
                });
                self.events.push(CcEvent::SsthreshChanged {
                    ssthresh: self.ssthresh,
                    reason: "timeout",
                });
            }
        }
    }

    fn ssthresh(&self) -> Option<u64> {
        (self.ssthresh != u64::MAX).then_some(self.ssthresh)
    }

    fn take_events(&mut self) -> Vec<CcEvent> {
        std::mem::take(&mut self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: u64 = 1_448;

    fn ack_at(now: Nanos, newly: u64, srtt_ms: u64) -> AckView {
        AckView {
            now,
            ack_seq: 0,
            newly_acked: newly,
            rtt_sample: Some(Duration::from_millis(srtt_ms)),
            srtt: Some(Duration::from_millis(srtt_ms)),
            min_rtt: Some(Duration::from_millis(srtt_ms)),
            inflight: 0,
            snd_nxt: u64::MAX / 2, // keep HyStart round logic quiet
            delivered: 0,
            app_limited: false,
        }
    }

    #[test]
    fn core_loss_reduces_by_beta() {
        let mut core = CubicCore::new(MSS);
        let new = core.on_loss(100 * MSS);
        assert_eq!(new, (100.0 * BETA * MSS as f64) as u64);
    }

    #[test]
    fn core_fast_convergence_lowers_wmax() {
        let mut core = CubicCore::new(MSS);
        core.on_loss(100 * MSS);
        assert!((core.w_max - 100.0).abs() < 1e-9);
        // Second loss below the previous plateau.
        core.on_loss(80 * MSS);
        assert!((core.w_max - 80.0 * (1.0 + BETA) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn core_regrows_to_wmax_in_k_seconds() {
        // Use a long RTT so the cubic region (not the Reno-friendly W_est,
        // which grows ~0.53 seg/RTT) governs the regrowth time.
        let mut core = CubicCore::new(MSS);
        let mut cwnd = core.on_loss(100 * MSS); // 70 segs
                                                // K = cbrt(30 / 0.4) ≈ 4.217 s.
        let expect_k = (30.0f64 / C).cbrt();
        let srtt = Duration::from_millis(100);
        let mut now: Nanos = 0;
        let mut recovered_at = None;
        for _ in 0..4000 {
            now += 100_000_000; // one RTT per tick
            cwnd = core.on_ack_ca(now, cwnd, cwnd, srtt); // full window acked
            if recovered_at.is_none() && cwnd >= 100 * MSS {
                recovered_at = Some(now as f64 / 1e9);
                break;
            }
        }
        let t = recovered_at.expect("window must regrow");
        assert!(
            (t - expect_k).abs() < 1.0,
            "regrow time {t:.2}s vs K {expect_k:.2}s"
        );
    }

    #[test]
    fn core_tcp_friendly_region_wins_at_short_rtt() {
        // At short RTT the Reno estimate W_est regrows faster than the
        // cubic curve; RFC 9438 says CUBIC must follow it.
        let mut core = CubicCore::new(MSS);
        let mut cwnd = core.on_loss(100 * MSS);
        let srtt = Duration::from_millis(10);
        let mut now: Nanos = 0;
        for _ in 0..4000 {
            now += 10_000_000;
            cwnd = core.on_ack_ca(now, cwnd, cwnd, srtt);
            if cwnd >= 100 * MSS {
                break;
            }
        }
        let t = now as f64 / 1e9;
        let k = (30.0f64 / C).cbrt();
        assert!(
            t < k,
            "friendly region should beat the cubic K ({t:.2}s vs {k:.2}s)"
        );
    }

    #[test]
    fn core_growth_is_slow_near_plateau() {
        let mut core = CubicCore::new(MSS);
        let cwnd = core.on_loss(100 * MSS);
        let srtt = Duration::from_millis(50);
        // Right after the epoch starts, growth per RTT is small (concave
        // region approaching W_max).
        let c1 = core.on_ack_ca(50_000_000, cwnd, cwnd, srtt);
        let growth1 = c1 - cwnd;
        assert!(
            growth1 < 5 * MSS,
            "early CA growth should be gentle, got {growth1}"
        );
    }

    #[test]
    fn slow_start_until_hystart_or_ssthresh() {
        let mut c = Cubic::new(10 * MSS, MSS);
        assert!(c.in_slow_start());
        c.on_ack(&ack_at(0, 10 * MSS, 100));
        assert_eq!(c.cwnd(), 20 * MSS);
    }

    #[test]
    fn paced_flat_rtt_round_exits_on_the_ack_train() {
        // A paced round's ACKs arrive 1 ms apart while the RTT stays flat
        // at 38 ms: only the ACK-train detector can fire, and the trace
        // must name it rather than a delay rise.
        let mut c = Cubic::new(10 * MSS, MSS);
        let rtt = Duration::from_millis(38);
        for k in 0..100 {
            c.on_ack(&AckView {
                now: 1_000_000_000 + k * 1_000_000,
                ack_seq: (k + 1) * MSS,
                newly_acked: MSS,
                rtt_sample: Some(rtt),
                srtt: Some(rtt),
                min_rtt: Some(rtt),
                inflight: 0,
                snd_nxt: 200 * MSS,
                delivered: (k + 1) * MSS,
                app_limited: false,
            });
            if !c.in_slow_start() {
                break;
            }
        }
        assert!(!c.in_slow_start(), "a 19 ms train exceeds minRTT/2");
        let evs = c.take_events();
        assert!(
            evs.contains(&CcEvent::HystartPhase {
                phase: "exit",
                reason: "ack_train",
            }),
            "{evs:?}"
        );
    }

    #[test]
    fn loss_exits_slow_start() {
        let mut c = Cubic::new(10 * MSS, MSS);
        c.on_ack(&ack_at(0, 10 * MSS, 100));
        c.on_congestion_event(&LossView {
            now: 0,
            kind: LossKind::FastRetransmit,
            lost_bytes: MSS,
            inflight: 20 * MSS,
        });
        assert!(!c.in_slow_start());
        assert_eq!(c.cwnd(), (20.0 * BETA) as u64 * MSS);
    }

    #[test]
    fn timeout_restarts_slow_start_to_reduced_ssthresh() {
        let mut c = Cubic::new(100 * MSS, MSS);
        c.on_congestion_event(&LossView {
            now: 0,
            kind: LossKind::Timeout,
            lost_bytes: MSS,
            inflight: 100 * MSS,
        });
        assert_eq!(c.cwnd(), MSS);
        assert!(c.in_slow_start());
        assert_eq!(c.ssthresh(), Some((100.0 * BETA) as u64 * MSS));
    }

    #[test]
    fn slow_start_caps_at_ssthresh() {
        let mut c = Cubic::new(100 * MSS, MSS);
        c.on_congestion_event(&LossView {
            now: 0,
            kind: LossKind::Timeout,
            lost_bytes: MSS,
            inflight: 100 * MSS,
        });
        // Regrow: big ACK overshooting ssthresh must clamp.
        c.on_ack(&ack_at(1_000_000, 200 * MSS, 100));
        assert_eq!(c.cwnd(), c.ssthresh().unwrap());
    }
}
