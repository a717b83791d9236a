//! SUSS configuration.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// HyStart Condition 1 divisor: exponential growth is allowed while the
/// ACK train stays within `minRTT / 2` (paper §3, Linux
/// `tcp_cubic.c`'s `ca->delay_min >> 1` ACK-train test).
pub(crate) const ACK_TRAIN_DIVISOR: u32 = 2;

/// HyStart Condition 2 factor: growth is allowed while
/// `moRTT ≤ 1.125 × minRTT` (paper §3). Linux's `HYSTART_DELAY_THRESH`
/// adds `minRTT / 8` but clamps it to 4–16 ms; this test has no clamp.
pub(crate) const DELAY_FACTOR: f64 = 1.125;

/// RTT samples a round needs before the delay condition is trusted.
/// Linux's `HYSTART_MIN_SAMPLES` is 8; this reproduction uses 4, the
/// value every committed result was produced with.
pub(crate) const MIN_RTT_SAMPLES: u32 = 4;

/// Inter-ACK spacing that still counts as one ACK train: two ACKs further
/// apart break it (Linux's `hystart_ack_delta_us`, 2 ms).
pub(crate) const ACK_SPACING: Duration = Duration::from_millis(2);

/// Below this cwnd (4 MSS, bytes) SUSS never activates: with only a few
/// packets in flight, Δt measurements are too noisy to extrapolate.
pub(crate) const MIN_CWND_FOR_SUSS: u64 = 4 * 1448;

/// The settable parameters of SUSS.
///
/// Defaults reproduce the paper's configuration: one-round lookahead
/// (`k_max = 1`, giving growth factors of 2 or 4 — the main-text design;
/// larger `k_max` enables the Appendix-A generalization). The embedded
/// HyStart's thresholds are the constants above, fixed at the paper's
/// values (§3), which follow Linux CUBIC's.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SussConfig {
    /// Maximum lookahead in rounds for the growth-factor search
    /// (Appendix A). `1` is the paper's main design (G ∈ {2, 4}).
    pub k_max: u32,
    /// Master switch: with `enabled = false`, the state machine still does
    /// all bookkeeping (so traces align) but always reports G = 2.
    pub enabled: bool,
}

impl Default for SussConfig {
    fn default() -> Self {
        SussConfig {
            k_max: 1,
            enabled: true,
        }
    }
}

impl SussConfig {
    /// SUSS disabled: traditional slow-start with the embedded HyStart
    /// (the paper's "SUSS off" arm). That HyStart is close to, not the
    /// same as, CUBIC's classic one (`cc_algos::hystart`): its delay test
    /// trusts `MIN_RTT_SAMPLES` = 4 samples per round and uses an
    /// unclamped `DELAY_FACTOR` × minRTT, where Linux takes 8 samples
    /// and adds `clamp(minRTT / 8, 4 ms, 16 ms)`. The contract is
    /// `cc-algos`' `e2e.rs::suss_behaves_like_cubic_when_disabled`: a
    /// SUSS-off flow's FCT stays within ±10% of plain CUBIC's.
    pub fn disabled() -> Self {
        SussConfig {
            enabled: false,
            ..Self::default()
        }
    }

    /// Generalized SUSS with a deeper lookahead (Appendix A).
    pub fn with_k_max(mut self, k_max: u32) -> Self {
        self.k_max = k_max;
        self
    }

    /// Validate parameter sanity; call after manual construction.
    pub fn validate(&self) -> Result<(), String> {
        if self.k_max > 16 {
            return Err("k_max > 16 would overflow the growth factor".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_config() {
        let c = SussConfig::default();
        assert_eq!(c.k_max, 1);
        assert!(c.enabled);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn disabled_config() {
        assert!(!SussConfig::disabled().enabled);
    }

    #[test]
    fn validation_catches_bad_values() {
        assert!(SussConfig::default().with_k_max(16).validate().is_ok());
        let c = SussConfig::default().with_k_max(17);
        assert!(c.validate().is_err());
    }
}
