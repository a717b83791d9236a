//! Classic HyStart (Ha & Rhee 2011), as shipped in Linux CUBIC.
//!
//! Two independent heuristics end slow start before the first loss:
//!
//! * **ACK train**: each ACK arriving within 2 ms of the previous one
//!   extends the train; once the train stretches longer than `minRTT / 2`,
//!   the pipe is full.
//! * **Delay increase**: if the minimum of the first 8 RTT samples of a
//!   round exceeds the lifetime minimum by `clamp(minRTT/8, 4 ms, 16 ms)`
//!   (Linux's `HYSTART_DELAY_MIN/MAX` bounds), queueing has begun.
//!
//! This is the *unmodified* detector, used by plain CUBIC. The HyStart
//! embedded in SUSS (`suss-core`, and so the paper's "SUSS off" arm) is
//! not this detector: its delay test trusts 4 samples per round and
//! uses an unclamped `1.125 × minRTT` (see `suss-core`'s `config.rs`).

use std::time::Duration;
use suss_core::HystartExit;

/// Nanoseconds on the transport clock.
pub type Nanos = u64;

/// Inter-ACK spacing bound for the train detector (Linux's
/// `hystart_ack_delta_us`, 2 ms).
const ACK_SPACING: Duration = Duration::from_millis(2);

/// RTT samples examined per round before the delay detector decides
/// (Linux's `HYSTART_MIN_SAMPLES`).
const DELAY_SAMPLES: u32 = 8;

/// Bounds of the delay threshold `minRTT / 8` (Linux's
/// `HYSTART_DELAY_MIN/MAX`).
const DELAY_THRESHOLD_MIN: Duration = Duration::from_millis(4);
const DELAY_THRESHOLD_MAX: Duration = Duration::from_millis(16);

/// Classic HyStart state machine.
#[derive(Debug, Clone)]
pub struct HyStart {
    /// Activation floor: below this cwnd (bytes) HyStart stays quiet
    /// (Linux: 16 segments).
    low_window: u64,

    round_end_seq: u64,
    round_start: Nanos,
    last_ack: Option<Nanos>,
    round_min_rtt: Option<Duration>,
    samples_this_round: u32,
    min_rtt: Option<Duration>,
    found: Option<HystartExit>,
}

impl HyStart {
    /// Linux-default parameters (2 ms train spacing, 8 delay samples,
    /// 16-segment activation floor).
    pub fn new(mss: u64) -> Self {
        HyStart {
            low_window: 16 * mss,
            round_end_seq: 0,
            round_start: 0,
            last_ack: None,
            round_min_rtt: None,
            samples_this_round: 0,
            min_rtt: None,
            found: None,
        }
    }

    /// Whether an exit signal has fired.
    pub fn found(&self) -> bool {
        self.found.is_some()
    }

    /// Lifetime minimum RTT seen.
    pub fn min_rtt(&self) -> Option<Duration> {
        self.min_rtt
    }

    /// Reset after an RTO restarts slow start.
    pub fn restart(&mut self) {
        self.found = None;
        self.last_ack = None;
        self.round_min_rtt = None;
        self.samples_this_round = 0;
    }

    /// The Linux delay threshold: `clamp(minRTT / 8, 4 ms, 16 ms)`.
    fn delay_threshold(min_rtt: Duration) -> Duration {
        (min_rtt / 8).clamp(DELAY_THRESHOLD_MIN, DELAY_THRESHOLD_MAX)
    }

    /// Process one ACK during slow start. Returns the detector that
    /// fired if slow start should end now (the ACK train when both fire
    /// on the same ACK).
    pub fn on_ack(
        &mut self,
        now: Nanos,
        ack_seq: u64,
        snd_nxt: u64,
        rtt: Option<Duration>,
        cwnd: u64,
    ) -> Option<HystartExit> {
        if self.found.is_some() {
            return self.found;
        }
        // Round boundary, sequence-delimited like Linux `bictcp_hystart_reset`.
        if ack_seq > self.round_end_seq {
            self.round_end_seq = snd_nxt;
            self.round_start = now;
            self.last_ack = Some(now);
            self.round_min_rtt = None;
            self.samples_this_round = 0;
        }

        if let Some(rtt) = rtt {
            self.min_rtt = Some(self.min_rtt.map_or(rtt, |m| m.min(rtt)));
        }
        let min_rtt = self.min_rtt?;
        if cwnd < self.low_window {
            self.last_ack = Some(now);
            return None;
        }

        // ACK-train detector.
        if let Some(last) = self.last_ack {
            if Duration::from_nanos(now.saturating_sub(last)) <= ACK_SPACING {
                let train = Duration::from_nanos(now.saturating_sub(self.round_start));
                if train >= min_rtt / 2 {
                    self.found = Some(HystartExit::AckTrain);
                }
            }
        }
        self.last_ack = Some(now);

        // Delay detector: min of the first `DELAY_SAMPLES` RTTs per round.
        if let Some(rtt) = rtt {
            if self.samples_this_round < DELAY_SAMPLES {
                self.samples_this_round += 1;
                self.round_min_rtt = Some(self.round_min_rtt.map_or(rtt, |m| m.min(rtt)));
                if self.samples_this_round >= DELAY_SAMPLES {
                    let threshold = min_rtt + Self::delay_threshold(min_rtt);
                    if self.round_min_rtt.unwrap() > threshold {
                        self.found.get_or_insert(HystartExit::Delay);
                    }
                }
            }
        }

        self.found
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: u64 = 1_448;

    fn ms(x: u64) -> Duration {
        Duration::from_millis(x)
    }

    /// Feed a synthetic round of `n` ACKs spaced `gap` ns apart, starting
    /// at `start`, each carrying `rtt`.
    fn feed_round(
        h: &mut HyStart,
        start: Nanos,
        n: u64,
        gap: Nanos,
        rtt: Duration,
        base_seq: u64,
        cwnd: u64,
    ) -> Option<HystartExit> {
        let snd_nxt = base_seq + 4 * n * MSS;
        (0..n).find_map(|k| {
            h.on_ack(
                start + k * gap,
                base_seq + (k + 1) * MSS,
                snd_nxt,
                Some(rtt),
                cwnd,
            )
        })
    }

    #[test]
    fn no_exit_on_short_clean_rounds() {
        let mut h = HyStart::new(MSS);
        // 20 acks 0.5 ms apart = 10 ms train << minRTT/2 = 50 ms.
        let fired = feed_round(&mut h, 0, 20, 500_000, ms(100), 0, 32 * MSS);
        assert_eq!(fired, None);
        assert!(!h.found());
    }

    #[test]
    fn ack_train_exit() {
        let mut h = HyStart::new(MSS);
        // 60 acks 1 ms apart: train passes 50 ms mid-round.
        let fired = feed_round(&mut h, 0, 60, 1_000_000, ms(100), 0, 64 * MSS);
        assert_eq!(fired, Some(HystartExit::AckTrain));
    }

    #[test]
    fn spaced_out_acks_break_the_train() {
        let mut h = HyStart::new(MSS);
        // 60 acks 3 ms apart: same elapsed span, but gaps exceed 2 ms so
        // the train detector must not fire; delay detector sees flat RTT.
        let fired = feed_round(&mut h, 0, 60, 3_000_000, ms(100), 0, 64 * MSS);
        assert_eq!(fired, None);
    }

    #[test]
    fn delay_increase_exit() {
        let mut h = HyStart::new(MSS);
        // Round 1 establishes minRTT = 100 ms.
        feed_round(&mut h, 0, 10, 3_000_000, ms(100), 0, 32 * MSS);
        // Round 2: RTT jumped by 20 ms > threshold (12.5 ms). The base
        // must clear round 1's round_end_seq (= its snd_nxt, 40·MSS).
        let base = 40 * MSS;
        let fired = feed_round(&mut h, 200_000_000, 10, 3_000_000, ms(120), base, 32 * MSS);
        assert_eq!(fired, Some(HystartExit::Delay), "delay detector must fire");
    }

    #[test]
    fn delay_threshold_clamps() {
        assert_eq!(HyStart::delay_threshold(ms(8)), ms(4)); // floor
        assert_eq!(HyStart::delay_threshold(ms(80)), ms(10)); // /8
        assert_eq!(HyStart::delay_threshold(ms(400)), ms(16)); // ceiling
    }

    #[test]
    fn quiet_below_low_window() {
        let mut h = HyStart::new(MSS);
        let fired = feed_round(&mut h, 0, 60, 1_000_000, ms(100), 0, 4 * MSS);
        assert_eq!(fired, None, "HyStart must not fire below 16 segments");
    }

    #[test]
    fn restart_clears_found() {
        let mut h = HyStart::new(MSS);
        feed_round(&mut h, 0, 60, 1_000_000, ms(100), 0, 64 * MSS);
        assert!(h.found());
        h.restart();
        assert!(!h.found());
    }
}
