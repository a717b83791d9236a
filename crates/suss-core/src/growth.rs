//! Growth-factor prediction (paper §3 and Appendix A).
//!
//! SUSS decides, at the end of each round's "blue" ACK train, whether the
//! exponential growth of cwnd is extrapolated to continue, and by how many
//! rounds. The decision combines two conditions derived from HyStart's exit
//! criteria:
//!
//! * **Condition 1** (ACK-train length, Eq. 6/17): the ACK train of round
//!   `i+k` is predicted to be `2^k` times the current one (Eq. 5/16), so
//!   growth persists through round `i+k` iff
//!   `Δt_i ≤ minRTT / 2^(k+1)`.
//! * **Condition 2** (queueing-delay forecast, Eq. 8/19): queuing delay has
//!   grown `(moRTT − minRTT) / r` per round since `minRTT` was last updated
//!   `r` rounds ago, so growth persists through round `i+k` iff
//!   `moRTT + k·(moRTT − minRTT)/r ≤ 1.125 · minRTT`.
//!
//! The growth factor is `G = 2^(k+1)` for the largest `k ∈ [0, k_max]`
//! satisfying both, floored at `G = 2` (traditional slow-start).
//!
//! **Fidelity note.** Appendix A's Algorithm 1 as printed starts its loop
//! by testing `Δt ≤ minRTT/2` (its `k = 0` iteration) and returns
//! `2^(k+1)` after the final increment, which disagrees with the main
//! text's Eq. 6 (`G = 4` requires `Δt ≤ minRTT/4`) by one position. We
//! implement the main-text-normative form: with the default `k_max = 1`,
//! `G = 4` iff Eq. 6 and Eq. 8 hold, else `G = 2` — exactly §3.

use crate::config::{SussConfig, ACK_TRAIN_DIVISOR, DELAY_FACTOR};
use std::time::Duration;

/// Inputs to a growth-factor decision, all measured in the current round.
#[derive(Debug, Clone, Copy)]
pub struct GrowthInputs {
    /// Estimated full ACK-train length of the current round, Δt_i^at
    /// (already scaled from the blue measurement via Eq. 9).
    pub ack_train: Duration,
    /// Connection-lifetime minimum RTT.
    pub min_rtt: Duration,
    /// Minimum RTT observed in the current round (blue samples only).
    pub mo_rtt: Duration,
    /// Rounds since `min_rtt` was last updated. `0` means it was updated
    /// this round — the queueing-delay forecast is then vacuous and
    /// Condition 2 passes (Algorithm 1, line 3).
    pub rounds_since_min_rtt: u64,
}

/// Does Condition 1 (Eq. 17) hold for lookahead `k`?
///
/// `Δt_i ≤ minRTT / 2^(k+1)`, written for a base divisor (2 in the paper
/// and in [`growth_factor`]): `Δt_i ≤ minRTT / (divisor·2^k)`.
pub fn condition1(ack_train: Duration, min_rtt: Duration, k: u32, divisor: u32) -> bool {
    let denom = u64::from(divisor) << k;
    // Compare ack_train * denom <= min_rtt without losing precision.
    ack_train.as_nanos().saturating_mul(u128::from(denom)) <= min_rtt.as_nanos()
}

/// Does Condition 2 (Eq. 19) hold for lookahead `k`?
///
/// `moRTT + k·(moRTT − minRTT)/r ≤ delay_factor · minRTT`. Vacuously true
/// when `r == 0` (minRTT was updated this round).
pub fn condition2(
    mo_rtt: Duration,
    min_rtt: Duration,
    rounds_since_min_rtt: u64,
    k: u32,
    delay_factor: f64,
) -> bool {
    if rounds_since_min_rtt == 0 {
        return true;
    }
    let mo = mo_rtt.as_secs_f64();
    let min = min_rtt.as_secs_f64();
    // moRTT is a per-round min and minRTT the lifetime min, so mo >= min;
    // guard anyway for robustness against caller slack.
    let slope = (mo - min).max(0.0) / rounds_since_min_rtt as f64;
    mo + f64::from(k) * slope <= delay_factor * min
}

/// Compute the growth factor `G_i` for the current round.
///
/// Returns a power of two in `[2, 2^(k_max+1)]`. `G = 2` means "behave as
/// traditional slow-start" (SUSS dormant this round).
pub fn growth_factor(cfg: &SussConfig, inputs: &GrowthInputs) -> u32 {
    if !cfg.enabled {
        return 2;
    }
    debug_assert!(cfg.validate().is_ok());
    let mut best_k = 0u32;
    for k in 1..=cfg.k_max {
        let c1 = condition1(inputs.ack_train, inputs.min_rtt, k, ACK_TRAIN_DIVISOR);
        let c2 = condition2(
            inputs.mo_rtt,
            inputs.min_rtt,
            inputs.rounds_since_min_rtt,
            k,
            DELAY_FACTOR,
        );
        if c1 && c2 {
            best_k = k;
        } else {
            // Both conditions are monotone in k: once one fails, all
            // larger lookaheads fail too.
            break;
        }
    }
    1u32 << (best_k + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> Duration {
        Duration::from_millis(x)
    }

    #[test]
    fn condition1_boundary() {
        // k=1, divisor=2: ack_train must be <= minRTT/4.
        assert!(condition1(ms(25), ms(100), 1, 2));
        assert!(!condition1(ms(26), ms(100), 1, 2));
        // k=0: <= minRTT/2.
        assert!(condition1(ms(50), ms(100), 0, 2));
        assert!(!condition1(ms(51), ms(100), 0, 2));
    }

    #[test]
    fn condition2_r_zero_vacuous() {
        assert!(condition2(ms(500), ms(100), 0, 3, 1.125));
    }

    #[test]
    fn condition2_forecast() {
        // minRTT 100ms, moRTT 105ms, r=1: forecast for k=1 is 110ms,
        // threshold 112.5ms -> pass.
        assert!(condition2(ms(105), ms(100), 1, 1, 1.125));
        // moRTT 110ms: forecast 120ms > 112.5 -> fail.
        assert!(!condition2(ms(110), ms(100), 1, 1, 1.125));
        // Same moRTT but the rise took 4 rounds: forecast 112.5 -> pass.
        assert!(condition2(ms(110), ms(100), 4, 1, 1.125));
    }

    #[test]
    fn condition2_k_zero_is_current_round_check() {
        // k=0: just moRTT <= 1.125 minRTT.
        assert!(condition2(ms(112), ms(100), 3, 0, 1.125));
        assert!(!condition2(ms(113), ms(100), 3, 0, 1.125));
    }

    fn inputs(ack_train_ms: u64, mo_rtt_ms: u64) -> GrowthInputs {
        GrowthInputs {
            ack_train: ms(ack_train_ms),
            min_rtt: ms(100),
            mo_rtt: ms(mo_rtt_ms),
            rounds_since_min_rtt: 1,
        }
    }

    #[test]
    fn g4_when_both_conditions_hold() {
        // Eq. 6: ack_train <= minRTT/4 = 25ms; Eq. 8 with moRTT=101ms:
        // 101 + 1 = 102 <= 112.5.
        let g = growth_factor(&SussConfig::default(), &inputs(20, 101));
        assert_eq!(g, 4);
    }

    #[test]
    fn g2_when_ack_train_too_long() {
        // 30ms > minRTT/4: next round's train would exceed minRTT/2.
        let g = growth_factor(&SussConfig::default(), &inputs(30, 101));
        assert_eq!(g, 2);
    }

    #[test]
    fn g2_when_queueing_delay_rising() {
        // moRTT 110ms, r=1: forecast 120 > 112.5.
        let g = growth_factor(&SussConfig::default(), &inputs(10, 110));
        assert_eq!(g, 2);
    }

    #[test]
    fn disabled_always_g2() {
        let g = growth_factor(&SussConfig::disabled(), &inputs(1, 100));
        assert_eq!(g, 2);
    }

    #[test]
    fn generalized_kmax_unlocks_higher_g() {
        let cfg = SussConfig::default().with_k_max(3);
        // ack_train 5ms: minRTT/2^(k+1) -> k=3 needs <= 6.25ms: pass all.
        // moRTT barely above minRTT so condition 2 passes for all k.
        let g = growth_factor(&cfg, &inputs(5, 100));
        assert_eq!(g, 16);
        // ack_train 10ms: k=3 needs <=6.25 (fail), k=2 needs <=12.5 (pass).
        let g = growth_factor(&cfg, &inputs(10, 100));
        assert_eq!(g, 8);
    }

    #[test]
    fn kmax_caps_growth() {
        let cfg = SussConfig::default().with_k_max(1);
        let g = growth_factor(&cfg, &inputs(1, 100));
        assert_eq!(g, 4, "k_max=1 must cap G at 4 even on a perfect path");
    }

    #[test]
    fn condition2_gates_lookahead_depth() {
        let cfg = SussConfig::default().with_k_max(3);
        // minRTT=100, moRTT=106, r=1: slope 6ms/round.
        // k=1: 112 <= 112.5 ok; k=2: 118 > 112.5 fail -> G = 4.
        let g = growth_factor(&cfg, &inputs(1, 106));
        assert_eq!(g, 4);
    }

    #[test]
    fn zero_ack_train_is_fine() {
        // Degenerate single-ACK round: Δt = 0 passes condition 1.
        let g = growth_factor(&SussConfig::default(), &inputs(0, 100));
        assert_eq!(g, 4);
    }
}

/// Algorithm 1 exactly as printed in Appendix A, for comparison.
///
/// The printed pseudocode tests `Δt ≤ minRTT/2^(k+1)` with the *current*
/// `k` and then increments, returning `2^(k+1)`. Tracing it: if the k = 0
/// test (`Δt ≤ minRTT/2`) passes and the k = 1 test fails, it returns
/// G = 4 — i.e. it grants a 4× factor from the *current-round* condition
/// (Eq. 2) instead of the next-round condition the main text derives
/// (Eq. 6, `Δt ≤ minRTT/4`). With `k_max = 1` and both tests passing it
/// returns G = 8, which the main text never allows. We treat the main
/// text as normative ([`growth_factor`]); this literal transcription
/// exists so the divergence is executable and documented rather than
/// silently patched. See `DESIGN.md` §4.
pub fn growth_factor_algorithm1_literal(cfg: &SussConfig, inputs: &GrowthInputs) -> u32 {
    if !cfg.enabled {
        return 2;
    }
    let mut k = 0u32;
    while k <= cfg.k_max {
        let c1 = condition1(inputs.ack_train, inputs.min_rtt, k, ACK_TRAIN_DIVISOR);
        let c2 = inputs.rounds_since_min_rtt == 0
            || condition2(
                inputs.mo_rtt,
                inputs.min_rtt,
                inputs.rounds_since_min_rtt,
                k,
                DELAY_FACTOR,
            );
        if c1 && c2 {
            k += 1;
        } else {
            break;
        }
    }
    1u32 << (k + 1)
}

#[cfg(test)]
mod literal_tests {
    use super::*;
    use std::time::Duration;

    fn ms(x: u64) -> Duration {
        Duration::from_millis(x)
    }

    /// Executable documentation of the Appendix-A off-by-one: on a path
    /// where the main text prescribes G = 4, the literal algorithm
    /// returns G = 8, and on a borderline path (train between minRTT/4
    /// and minRTT/2) the literal algorithm accelerates where the main
    /// text does not.
    #[test]
    fn literal_algorithm_diverges_from_main_text() {
        let cfg = SussConfig::default(); // k_max = 1
                                         // Fast path: main text says G = 4 (Eq. 6 satisfied).
        let fast = GrowthInputs {
            ack_train: ms(10),
            min_rtt: ms(100),
            mo_rtt: ms(101),
            rounds_since_min_rtt: 1,
        };
        assert_eq!(growth_factor(&cfg, &fast), 4);
        assert_eq!(growth_factor_algorithm1_literal(&cfg, &fast), 8);

        // Borderline: train in (minRTT/4, minRTT/2]; main text keeps G = 2,
        // the literal transcription grants 4.
        let borderline = GrowthInputs {
            ack_train: ms(40),
            min_rtt: ms(100),
            mo_rtt: ms(101),
            rounds_since_min_rtt: 1,
        };
        assert_eq!(growth_factor(&cfg, &borderline), 2);
        assert_eq!(growth_factor_algorithm1_literal(&cfg, &borderline), 4);

        // Congested: both agree on G = 2.
        let congested = GrowthInputs {
            ack_train: ms(60),
            min_rtt: ms(100),
            mo_rtt: ms(130),
            rounds_since_min_rtt: 1,
        };
        assert_eq!(growth_factor(&cfg, &congested), 2);
        assert_eq!(growth_factor_algorithm1_literal(&cfg, &congested), 2);
    }
}
