//! Golden test: the paper's Fig. 5/6 worked example, end to end.
//!
//! On an ideal path where both SUSS conditions hold in rounds 2 and 3 and
//! fail in round 4, the paper traces:
//!
//! * round 1: cwnd = iw (initial window sent);
//! * round 2: G₂ = 4 → clocking sends 2·iw, pacing adds 2·iw,
//!   cwnd₂ = 4·iw; pacing occupies half of minRTT;
//! * round 3: G₃ = 4 → clocking sends 4·iw, cwnd₃ = 16·iw
//!   (12·iw of red data, of which the pacer itself injects 8·iw — the
//!   other 4·iw are clocked out by round-2's red ACKs);
//! * round 4: G₄ = 2 → traditional slow start resumes.
//!
//! This test drives the `Suss` state machine through exactly that scenario
//! and pins every intermediate quantity.

use std::time::Duration;
use suss_core::{AckEvent, Suss, SussConfig};

const MSS: u64 = 1_448;
const IW: u64 = 10 * MSS;
const RTT: u64 = 100_000_000; // 100 ms in ns
/// Bottleneck chosen so round 2's blue train (= iw of ACKs) spans exactly
/// minRTT/20 — far below the minRTT/4 bound, so G = 4 is granted.
const ACK_SPACING: u64 = RTT / 20 / 10; // 10 ACKs per iw

struct World {
    suss: Suss,
    acked: u64,
    snd_nxt: u64,
    cwnd: u64,
}

impl World {
    fn new() -> Self {
        let mut w = World {
            suss: Suss::new(SussConfig::default(), 0, 0, IW),
            acked: 0,
            snd_nxt: 0,
            cwnd: IW,
        };
        w.snd_nxt = IW; // initial window departs in round 1
        w
    }

    /// Deliver ACKs for everything outstanding, tightly spaced from
    /// `round_start`; returns any pacing plan captured during the round.
    fn run_round(&mut self, round_start: u64) -> Option<suss_core::PacingPlan> {
        let mut plan = None;
        let outstanding = self.snd_nxt - self.acked;
        let n = outstanding / MSS;
        for k in 0..n {
            let now = round_start + k * ACK_SPACING;
            self.acked += MSS;
            let out = self.suss.on_ack(AckEvent {
                now,
                ack_seq: self.acked,
                rtt: Some(Duration::from_nanos(RTT)),
                cwnd: self.cwnd,
                snd_nxt: self.snd_nxt,
            });
            assert_eq!(out.exit_slow_start, None, "ideal path must not exit");
            if out.start_pacing.is_some() {
                plan = out.start_pacing;
            }
            // Traditional slow-start bookkeeping: cwnd += acked, clocked
            // sending of 2x the acknowledged data.
            self.cwnd += MSS;
            self.snd_nxt += 2 * MSS;
        }
        plan
    }

    /// Execute a pacing plan: SUSS is told where blue ended, the extra
    /// bytes go out, cwnd reaches the target.
    fn execute(&mut self, plan: &suss_core::PacingPlan) {
        self.suss.mark_pacing_started(self.snd_nxt);
        self.snd_nxt += plan.extra_bytes;
        self.cwnd = plan.cwnd_target;
    }
}

#[test]
fn fig6_round_by_round() {
    let mut w = World::new();

    // ---- round 2: first ACK train arrives one RTT in -----------------------
    let plan2 = w.run_round(RTT).expect("round 2 must accelerate");
    assert_eq!(plan2.growth_factor, 4, "G2 = 4");
    assert_eq!(plan2.cwnd_base, IW, "cwnd_1 = iw");
    assert_eq!(plan2.cwnd_target, 4 * IW, "cwnd_2 = 4·iw");
    assert_eq!(plan2.extra_bytes, 2 * IW, "red data in round 2 = 2·iw");
    // Eq. 11: pacing rate = cwnd_2 / minRTT; duration = extra/rate = RTT/2
    // (the paper: "the pacing period in round(2) lasts for half of minRTT").
    assert_eq!(plan2.duration, Duration::from_nanos(RTT / 2));
    // Clocking sent 2·iw (snd_nxt grew from iw to 3·iw before pacing).
    assert_eq!(w.snd_nxt, 3 * IW);
    w.execute(&plan2);
    assert_eq!(w.snd_nxt, 5 * IW, "after pacing, 5·iw total sent");

    // ---- round 3 ------------------------------------------------------------
    let plan3 = w.run_round(2 * RTT).expect("round 3 must accelerate");
    assert_eq!(plan3.growth_factor, 4, "G3 = 4");
    assert_eq!(plan3.cwnd_base, 4 * IW, "cwnd_2 = 4·iw");
    assert_eq!(plan3.cwnd_target, 16 * IW, "cwnd_3 = 16·iw");
    // The pacer injects (G−2)·cwnd_base = 8·iw; with the 4·iw clocked out
    // by round-2's red ACKs this matches the paper's 12·iw of red data.
    assert_eq!(plan3.extra_bytes, 8 * IW);
    w.execute(&plan3);

    // ---- round 4: the train is now long; growth must NOT accelerate --------
    // Outstanding = cwnd_3 = 16·iw = 160 ACKs at ACK_SPACING: the blue
    // train spans 160·(RTT/200) = 0.8·RTT > RTT/4 ⇒ conditions fail.
    let plan4 = w.run_round(3 * RTT);
    assert!(plan4.is_none(), "round 4 reverts to traditional slow start");
    assert_eq!(w.suss.last_growth_factor(), 2, "G4 = 2");

    // Round counter is consistent: rounds 2, 3, 4 were observed.
    assert_eq!(w.suss.round(), 4);
    assert_eq!(w.suss.pacing_periods(), 2);
}

#[test]
fn fig6_disabled_control_arm() {
    // Identical drive with SUSS disabled: no plans, same round tracking.
    let mut w = World::new();
    w.suss = Suss::new(SussConfig::disabled(), 0, 0, IW);
    assert!(w.run_round(RTT).is_none());
    assert!(w.run_round(2 * RTT).is_none());
    assert_eq!(w.suss.round(), 3);
    assert_eq!(w.suss.pacing_periods(), 0);
    // cwnd followed traditional doubling exactly: iw → 2·iw → 4·iw.
    assert_eq!(w.cwnd, 4 * IW);
}
