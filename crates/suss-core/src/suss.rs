//! The SUSS state machine: rounds + growth prediction + modified HyStart.
//!
//! This is the transport-agnostic heart of the paper. A congestion
//! controller drives it with one call per cumulative ACK ([`Suss::on_ack`])
//! and two notifications ([`Suss::mark_pacing_started`] when it begins
//! executing a [`PacingPlan`], [`Suss::on_exit_slow_start`] when slow-start
//! ends for any reason). In return it emits:
//!
//! * a [`PacingPlan`] when the blue ACK train of a round completes and the
//!   growth factor exceeds 2 (the controller schedules the pacing period
//!   `guard` seconds later), and
//! * an exit signal when the *modified* HyStart (paper Fig. 8) detects that
//!   exponential growth must stop.
//!
//! ## Contract
//!
//! * Sequence numbers are absolute cumulative byte offsets.
//! * `on_ack` must be called **before** the controller sends data in
//!   response to the ACK, so that `snd_nxt` reflects only previously sent
//!   data (this is how the kernel implementation sees the world too).
//! * The state machine is only meaningful during slow-start; after
//!   `on_exit_slow_start` it goes dormant and reports `G = 2`.

use crate::config::SussConfig;
use crate::growth::{growth_factor, GrowthInputs};
use crate::rounds::{Nanos, RoundTracker};
use crate::schedule::{estimate_ack_train, plan_pacing, PacingPlan};
use std::time::Duration;

/// One cumulative-ACK event, as seen by the sender.
#[derive(Debug, Clone, Copy)]
pub struct AckEvent {
    /// Arrival time (transport clock, nanoseconds).
    pub now: Nanos,
    /// Cumulative acknowledgment: one past the last in-order byte.
    pub ack_seq: u64,
    /// RTT sample carried by this ACK, if available (not available for
    /// ACKs of retransmitted data, per Karn's algorithm).
    pub rtt: Option<Duration>,
    /// Congestion window (bytes) *before* this ACK's cwnd increase is
    /// applied. Calling in before mutating cwnd lets SUSS capture the
    /// exact end-of-round cwnd (`cwnd_{i-1}`) at each round boundary.
    pub cwnd: u64,
    /// One past the highest byte sent so far (before any sends triggered
    /// by this ACK).
    pub snd_nxt: u64,
}

/// What the controller must do in response to an ACK.
#[derive(Debug, Clone, Copy, Default)]
pub struct SussOutput {
    /// Begin a pacing period: wait `plan.guard`, then pace
    /// `plan.extra_bytes` at `plan.rate_bytes_per_sec`, growing cwnd as
    /// the bytes are sent, up to `plan.cwnd_target`.
    pub start_pacing: Option<PacingPlan>,
    /// Modified HyStart says exponential growth must stop now: exit
    /// slow-start (set ssthresh = cwnd) and cancel any pending pacing.
    pub exit_slow_start: bool,
}

/// The SUSS per-connection state.
///
/// The paper reports its kernel counterpart occupies 40 bytes per
/// connection; this struct is larger only by rustic bookkeeping (Options,
/// the embedded round tracker) — the *logical* state is the same.
#[derive(Debug, Clone)]
pub struct Suss {
    cfg: SussConfig,
    tracker: RoundTracker,
    /// Lifetime minimum RTT.
    min_rtt: Option<Duration>,
    /// Whether min_rtt was updated during the current round.
    min_rtt_updated_this_round: bool,
    /// Rounds since min_rtt last changed (the paper's `r`).
    rounds_since_min_rtt: u64,
    /// Minimum RTT observed this round, blue samples only (`moRTT_i`).
    mo_rtt: Option<Duration>,
    /// Blue RTT samples seen this round.
    blue_samples: u32,
    /// Rounds completed since a round last carried red (paced) data. A
    /// pacing period disturbs the ACK arrival pattern for *two* rounds:
    /// the round whose ACKs cover the red data itself, and the echo round
    /// after it (its data was sent ACK-clocked on the spread red ACKs, so
    /// its ACKs arrive spread too). Saturates at 2 = clean.
    rounds_since_red: u64,
    /// Arrival time of the previous ACK (for ACK-train continuity).
    last_ack_at: Option<Nanos>,
    /// cwnd at the start of the current round (`cwnd_{i-1}`).
    cwnd_base: u64,
    /// Whether G was already measured this round.
    measured_this_round: bool,
    /// Most recently measured growth factor.
    last_g: u32,
    /// Modified-HyStart growth cap: once the scaled ACK-train condition
    /// trips in a paced round, growth continues until cwnd reaches this,
    /// then stops (paper Fig. 8's `cap`/`flag`).
    cap: Option<u64>,
    /// Exponential growth still permitted.
    exp_growth: bool,
    /// Total pacing periods started (diagnostics).
    pacing_periods: u64,
    /// Optional registry-backed counter mirroring `pacing_periods`
    /// (`suss.pacing_rounds`), wired via [`Suss::bind_metrics`].
    ctr_pacing_rounds: Option<simtrace::Counter>,
}

impl Suss {
    /// Create the state machine at connection establishment.
    ///
    /// `now` is the current transport clock, `initial_snd_nxt` the stream
    /// offset of the first byte to be sent, and `iw_bytes` the initial
    /// congestion window.
    pub fn new(cfg: SussConfig, now: Nanos, initial_snd_nxt: u64, iw_bytes: u64) -> Self {
        Suss {
            cfg,
            tracker: RoundTracker::new(now, initial_snd_nxt),
            min_rtt: None,
            min_rtt_updated_this_round: false,
            rounds_since_min_rtt: 0,
            mo_rtt: None,
            blue_samples: 0,
            rounds_since_red: 2,
            last_ack_at: None,
            cwnd_base: iw_bytes,
            measured_this_round: false,
            last_g: 2,
            cap: None,
            exp_growth: true,
            pacing_periods: 0,
            ctr_pacing_rounds: None,
        }
    }

    /// Register the `suss.pacing_rounds` counter on a simulation-wide
    /// metric registry. Without this call the state machine still tracks
    /// [`Suss::pacing_periods`] locally; binding just mirrors each start
    /// into the shared registry.
    pub fn bind_metrics(&mut self, registry: &simtrace::Registry) {
        self.ctr_pacing_rounds = Some(registry.counter(simtrace::names::SUSS_PACING_ROUNDS));
    }

    /// The configuration in use.
    pub fn config(&self) -> &SussConfig {
        &self.cfg
    }

    /// Whether exponential growth is still permitted.
    pub fn exp_growth(&self) -> bool {
        self.exp_growth
    }

    /// Current round index (1-based).
    pub fn round(&self) -> u64 {
        self.tracker.round()
    }

    /// Lifetime minimum RTT observed so far.
    pub fn min_rtt(&self) -> Option<Duration> {
        self.min_rtt
    }

    /// The growth factor measured most recently (2 until SUSS activates).
    pub fn last_growth_factor(&self) -> u32 {
        self.last_g
    }

    /// Number of pacing periods emitted so far.
    pub fn pacing_periods(&self) -> u64 {
        self.pacing_periods
    }

    /// The controller began executing a pacing plan with `snd_nxt` bytes
    /// sent so far: everything before this instant in the current round is
    /// blue. Must be called exactly when the guard interval elapses.
    pub fn mark_pacing_started(&mut self, snd_nxt: u64) {
        self.tracker.mark_pacing_started(snd_nxt);
        self.pacing_periods += 1;
        if let Some(c) = &self.ctr_pacing_rounds {
            c.inc();
        }
    }

    /// Slow-start ended (loss, ssthresh crossing, or our own exit signal):
    /// SUSS goes dormant.
    pub fn on_exit_slow_start(&mut self) {
        self.exp_growth = false;
    }

    /// Process a cumulative ACK. See module docs for the call contract.
    pub fn on_ack(&mut self, ev: AckEvent) -> SussOutput {
        let mut out = SussOutput::default();

        let obs = self.tracker.on_ack(ev.now, ev.ack_seq, ev.snd_nxt);
        if obs.new_round {
            self.roll_round(ev.cwnd);
        }

        // Lifetime minRTT filter (all samples qualify, as in Linux).
        if let Some(rtt) = ev.rtt {
            if self.min_rtt.is_none_or(|m| rtt < m) {
                self.min_rtt = Some(rtt);
                self.min_rtt_updated_this_round = true;
                self.rounds_since_min_rtt = 0;
            }
        }

        // Per-round moRTT: blue samples only (red ACKs reflect paced
        // traffic and would understate path pressure — paper §5).
        if obs.is_blue {
            if let Some(rtt) = ev.rtt {
                self.mo_rtt = Some(self.mo_rtt.map_or(rtt, |m| m.min(rtt)));
                self.blue_samples += 1;
            }
        }

        if self.exp_growth {
            self.modified_hystart(&ev, obs.is_blue, &mut out);
        }

        if self.exp_growth
            && obs.blue_train_complete
            && !self.measured_this_round
            && self.tracker.round() >= 2
        {
            self.measure_growth(&ev, &mut out);
        }

        self.last_ack_at = Some(ev.now);
        if out.exit_slow_start {
            self.exp_growth = false;
        }
        out
    }

    /// Round rollover bookkeeping.
    fn roll_round(&mut self, cwnd: u64) {
        if !self.min_rtt_updated_this_round {
            self.rounds_since_min_rtt = self.rounds_since_min_rtt.saturating_add(1);
        }
        self.min_rtt_updated_this_round = false;
        let prev_had_red = self
            .tracker
            .prev()
            .is_some_and(|p| p.total_bytes() > p.blue_bytes());
        self.rounds_since_red = if prev_had_red {
            0
        } else {
            (self.rounds_since_red + 1).min(2)
        };
        self.mo_rtt = None;
        self.blue_samples = 0;
        self.measured_this_round = false;
        self.cwnd_base = cwnd;
        // The ACK train restarts at a round boundary.
        self.last_ack_at = None;
        // The cap, once armed, persists across rounds until it fires: it
        // postpones (not cancels) the stop decision.
    }

    /// Modified HyStart (paper Fig. 8): ACK-train and delay exit checks,
    /// with elapsed time scaled to blue-only measurements (Eq. 9) and a
    /// growth cap postponing the stop in paced rounds.
    fn modified_hystart(&mut self, ev: &AckEvent, is_blue: bool, out: &mut SussOutput) {
        // Cap check first: once armed, it alone decides when to stop.
        if let Some(cap) = self.cap {
            if ev.cwnd >= cap {
                out.exit_slow_start = true;
            }
            return;
        }
        let Some(min_rtt) = self.min_rtt else { return };

        // --- Condition 1: ACK-train length ---------------------------------
        // Only blue ACKs measure the path (Fig. 8's blueCnt): red ACKs
        // acknowledge paced data and arrive spread across the whole round,
        // so their elapsed time says nothing about the pipe. The train must
        // also be contiguous (inter-ACK spacing bounded) for the elapsed
        // time to measure the train rather than idle gaps.
        //
        // This per-ACK check runs only in *clean* rounds (two or more
        // rounds since any red data), where it is byte-for-byte the
        // classic HyStart train detector — so SUSS-on and SUSS-off exit at
        // the same cwnd when no pacing is in play (paper Fig. 9). In the
        // two rounds a pacing period disturbs, elapsed time from the round
        // start does not measure a burst train: the ACK stream is spread
        // across the round by the pacing itself (directly, then as an echo
        // through ACK clocking), so the raw check would trip at ~cwnd/2
        // with the pipe half empty. Those rounds are covered by the scaled
        // once-per-round check at blue-train completion (see
        // `measure_growth`), which arms the cap instead of exiting.
        let train_intact = self
            .last_ack_at
            .is_some_and(|t| ev.now.saturating_sub(t) <= ns(self.cfg.ack_spacing));
        if is_blue && train_intact && self.rounds_since_red >= 2 {
            let elapsed = Duration::from_nanos(ev.now.saturating_sub(self.tracker.round_start()));
            if elapsed > min_rtt / self.cfg.ack_train_divisor {
                out.exit_slow_start = true;
            }
        }

        // --- Condition 2: delay increase ------------------------------------
        if self.blue_samples >= self.cfg.min_rtt_samples {
            if let Some(mo) = self.mo_rtt {
                let limit = min_rtt.mul_f64(self.cfg.delay_factor);
                if mo > limit {
                    out.exit_slow_start = true;
                }
            }
        }
    }

    /// Growth measurement at blue-train completion (paper §5, Fig. 7).
    fn measure_growth(&mut self, ev: &AckEvent, out: &mut SussOutput) {
        self.measured_this_round = true;
        let (Some(min_rtt), Some(mo_rtt), Some(prev)) =
            (self.min_rtt, self.mo_rtt, self.tracker.prev())
        else {
            return;
        };

        let dt_bat = Duration::from_nanos(ev.now.saturating_sub(self.tracker.round_start()));
        let dt_at = estimate_ack_train(prev.total_bytes(), prev.blue_bytes(), dt_bat);

        // Scaled ACK-train exit check (Fig. 8's ratio path), evaluated once
        // per round on the completed blue train: if the estimated *full*
        // train already exceeds minRTT/2, the pipe will be full within this
        // round's committed growth. Arm the cap and postpone the stop until
        // that growth completes (a round whose scaled train exceeds
        // minRTT/2 cannot have G > 2, so the committed target is exactly
        // 2·cwnd_base). This covers the paced round and its echo round; a
        // clean round is handled per-ACK in `modified_hystart`,
        // classic-style.
        if self.cap.is_none()
            && self.rounds_since_red < 2
            && dt_at > min_rtt / self.cfg.ack_train_divisor
        {
            self.cap = Some(2 * self.cwnd_base.max(1));
        }

        let g = growth_factor(
            &self.cfg,
            &GrowthInputs {
                ack_train: dt_at,
                min_rtt,
                mo_rtt,
                rounds_since_min_rtt: self.rounds_since_min_rtt,
            },
        );
        self.last_g = g;

        if g > 2 && ev.cwnd >= self.cfg.min_cwnd_for_suss {
            let blue_sent = self.tracker.bytes_sent_this_round(ev.snd_nxt);
            out.start_pacing = plan_pacing(g, self.cwnd_base, blue_sent, dt_bat, min_rtt);
        }
    }
}

/// Duration → nanoseconds, saturating.
fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: u64 = 1_000;
    const IW: u64 = 10 * MSS;
    const MIN_RTT_NS: u64 = 100_000_000; // 100 ms

    /// Drive the state machine over synthetic slow-start rounds on a clean,
    /// fat path: each round's ACK train arrives tightly packed at the round
    /// start, with per-ACK spacing `spacing_ns`.
    struct Harness {
        suss: Suss,
        cwnd: u64,
        snd_nxt: u64,
        acked: u64,
        now: Nanos,
    }

    impl Harness {
        fn new(cfg: SussConfig) -> Self {
            let mut h = Harness {
                suss: Suss::new(cfg, 0, 0, IW),
                cwnd: IW,
                snd_nxt: 0,
                acked: 0,
                now: 0,
            };
            h.snd_nxt = IW; // send the initial window
            h
        }

        /// Deliver one round's worth of ACKs with the given spacing and RTT,
        /// applying slow-start cwnd growth and clocked sending. Returns any
        /// pacing plan that was emitted.
        fn run_round(
            &mut self,
            round_start: Nanos,
            spacing_ns: u64,
            rtt_ns: u64,
        ) -> (Option<PacingPlan>, bool) {
            let mut plan = None;
            let mut exited = false;
            let to_ack = self.snd_nxt - self.acked;
            let n_acks = (to_ack / MSS).max(1);
            self.now = round_start;
            for k in 0..n_acks {
                self.now = round_start + k * spacing_ns;
                self.acked += MSS.min(to_ack);
                let out = self.suss.on_ack(AckEvent {
                    now: self.now,
                    ack_seq: self.acked,
                    rtt: Some(Duration::from_nanos(rtt_ns)),
                    cwnd: self.cwnd,
                    snd_nxt: self.snd_nxt,
                });
                self.cwnd += MSS; // slow start: cwnd += newly acked
                                  // Clocked sending: 2x the acked data.
                self.snd_nxt += 2 * MSS;
                if let Some(p) = out.start_pacing {
                    plan = Some(p);
                }
                if out.exit_slow_start {
                    exited = true;
                    break;
                }
            }
            (plan, exited)
        }
    }

    #[test]
    fn fast_path_quadruples() {
        // 10 pkts/round initially; spacing 100 us -> round-2 train ~1 ms,
        // far below minRTT/4 = 25 ms; no queueing. Expect G = 4 by round 2.
        let mut h = Harness::new(SussConfig::default());
        let (plan, exited) = h.run_round(MIN_RTT_NS, 100_000, MIN_RTT_NS);
        assert!(!exited);
        let plan = plan.expect("pacing plan expected on a fat path");
        assert_eq!(plan.growth_factor, 4);
        assert_eq!(h.suss.last_growth_factor(), 4);
        assert_eq!(plan.cwnd_base, IW);
        assert_eq!(plan.cwnd_target, 4 * IW);
        assert_eq!(plan.extra_bytes, 2 * IW);
    }

    #[test]
    fn slow_path_keeps_traditional_growth() {
        // ACK spacing 3 ms: train for 10 ACKs = 27 ms > minRTT/4 = 25 ms
        // AND the 3 ms spacing exceeds the 2 ms train-continuity bound, so
        // condition 1 (k=1) fails -> G stays 2, no plan.
        let mut h = Harness::new(SussConfig::default());
        let (plan, exited) = h.run_round(MIN_RTT_NS, 3_000_000, MIN_RTT_NS);
        assert!(plan.is_none());
        assert!(!exited);
        assert_eq!(h.suss.last_growth_factor(), 2);
    }

    #[test]
    fn rising_delay_blocks_acceleration() {
        let mut h = Harness::new(SussConfig::default());
        // Round 2: RTT jumped to 115 ms while minRTT is 100 ms. moRTT
        // forecast: 115 + (115-100)/r; with r>=1 this exceeds 112.5 ms.
        // Seed minRTT via round 1... the harness's first round already uses
        // rtt=minRTT? Here: first delivered round has rtt 100ms (sets
        // minRTT), second round 115ms.
        let (plan, _) = h.run_round(MIN_RTT_NS, 100_000, MIN_RTT_NS);
        assert!(plan.is_some(), "round 2 on clean path accelerates");
        let (plan, _) = h.run_round(2 * MIN_RTT_NS, 100_000, 115_000_000);
        assert!(plan.is_none(), "rising moRTT must suppress G=4");
    }

    #[test]
    fn delay_exit_fires() {
        let mut h = Harness::new(SussConfig::default());
        h.run_round(MIN_RTT_NS, 100_000, MIN_RTT_NS);
        // moRTT way above 1.125*minRTT: HyStart delay exit.
        let (_, exited) = h.run_round(2 * MIN_RTT_NS, 100_000, 150_000_000);
        assert!(exited);
        assert!(!h.suss.exp_growth());
    }

    #[test]
    fn ack_train_exit_fires_without_scaling() {
        // Unscaled round (no pacing yet): a contiguous train longer than
        // minRTT/2 must stop growth directly.
        let mut h = Harness::new(SussConfig::disabled());
        // Round 2 with 10 acks spaced 1 ms: train 9 ms < 50 ms -> fine.
        let (_, exited) = h.run_round(MIN_RTT_NS, 1_000_000, MIN_RTT_NS);
        assert!(!exited);
        // Round 3 now has 20 pkts in flight... keep acking with 1.9 ms
        // spacing (train stays contiguous): 20 acks * 1.9 = 38 ms < 50.
        let (_, exited) = h.run_round(2 * MIN_RTT_NS, 1_900_000, MIN_RTT_NS);
        assert!(!exited);
        // Round 4 has 40 pkts: 40 * 1.9 = 76 ms > 50 ms -> exit mid-train.
        let (_, exited) = h.run_round(3 * MIN_RTT_NS, 1_900_000, MIN_RTT_NS);
        assert!(exited, "long contiguous ACK train must stop growth");
    }

    #[test]
    fn disabled_never_paces_but_still_tracks() {
        let mut h = Harness::new(SussConfig::disabled());
        let (plan, _) = h.run_round(MIN_RTT_NS, 100_000, MIN_RTT_NS);
        assert!(plan.is_none());
        assert_eq!(h.suss.round(), 2);
        assert_eq!(h.suss.min_rtt(), Some(Duration::from_nanos(MIN_RTT_NS)));
    }

    #[test]
    fn min_cwnd_gate() {
        let cfg = SussConfig {
            min_cwnd_for_suss: 1_000_000, // enormous: never met
            ..SussConfig::default()
        };
        let mut h = Harness::new(cfg);
        let (plan, _) = h.run_round(MIN_RTT_NS, 100_000, MIN_RTT_NS);
        assert!(plan.is_none(), "below min cwnd SUSS must stay dormant");
        assert_eq!(h.suss.last_growth_factor(), 4, "G is still measured");
    }

    #[test]
    fn exit_slow_start_makes_dormant() {
        let mut h = Harness::new(SussConfig::default());
        h.suss.on_exit_slow_start();
        let (plan, exited) = h.run_round(MIN_RTT_NS, 100_000, MIN_RTT_NS);
        assert!(plan.is_none());
        assert!(!exited, "dormant SUSS emits no further signals");
        assert!(!h.suss.exp_growth());
    }

    #[test]
    fn one_measurement_per_round() {
        let mut h = Harness::new(SussConfig::default());
        let (plan, _) = h.run_round(MIN_RTT_NS, 100_000, MIN_RTT_NS);
        assert!(plan.is_some());
        // Extra duplicate-ish ACK at the same cumulative seq: no new plan.
        let out = h.suss.on_ack(AckEvent {
            now: h.now + 1_000,
            ack_seq: h.acked,
            rtt: Some(Duration::from_nanos(MIN_RTT_NS)),
            cwnd: h.cwnd,
            snd_nxt: h.snd_nxt,
        });
        assert!(out.start_pacing.is_none());
    }

    #[test]
    fn pacing_marks_split_blue_red_for_next_round() {
        let mut h = Harness::new(SussConfig::default());
        let (plan, _) = h.run_round(MIN_RTT_NS, 100_000, MIN_RTT_NS);
        let plan = plan.unwrap();
        // Execute the plan: pace extra bytes, telling SUSS where blue ends.
        h.suss.mark_pacing_started(h.snd_nxt);
        h.snd_nxt += plan.extra_bytes;
        h.cwnd = plan.cwnd_target;
        assert_eq!(h.suss.pacing_periods(), 1);
        // Next round: the measurement scales by total/blue > 1. The path is
        // still clean, so SUSS accelerates again (paper Fig. 6, G3 = 4).
        let (plan3, exited) = h.run_round(2 * MIN_RTT_NS, 100_000, MIN_RTT_NS);
        assert!(!exited);
        let plan3 = plan3.expect("round 3 accelerates again on a clean path");
        assert_eq!(plan3.growth_factor, 4);
        assert!(
            plan3.cwnd_base >= plan.cwnd_target,
            "round 3 builds on 4*iw"
        );
    }

    #[test]
    fn rounds_since_min_rtt_increments() {
        let mut h = Harness::new(SussConfig::default());
        h.run_round(MIN_RTT_NS, 100_000, MIN_RTT_NS);
        // Two rounds with higher RTT: r grows.
        h.run_round(2 * MIN_RTT_NS, 100_000, MIN_RTT_NS + 5_000_000);
        h.run_round(3 * MIN_RTT_NS, 100_000, MIN_RTT_NS + 5_000_000);
        assert!(h.suss.rounds_since_min_rtt >= 1);
        // A new minimum resets r.
        let out = h.suss.on_ack(AckEvent {
            now: h.now + 1000,
            ack_seq: h.acked,
            rtt: Some(Duration::from_nanos(MIN_RTT_NS - 1_000_000)),
            cwnd: h.cwnd,
            snd_nxt: h.snd_nxt,
        });
        assert!(!out.exit_slow_start);
        assert_eq!(h.suss.rounds_since_min_rtt, 0);
    }
}
