//! SUSS configuration.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Tunable parameters of SUSS and its embedded (modified) HyStart.
///
/// Defaults reproduce the paper's configuration: HyStart's thresholds as
/// used by Linux CUBIC (§3), and one-round lookahead (`k_max = 1`, giving
/// growth factors of 2 or 4 — the main-text design; larger `k_max` enables
/// the Appendix-A generalization).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SussConfig {
    /// Maximum lookahead in rounds for the growth-factor search
    /// (Appendix A). `1` is the paper's main design (G ∈ {2, 4}).
    pub k_max: u32,
    /// HyStart Condition 1 threshold: exponential growth is allowed while
    /// the ACK train length stays below `minRTT / ack_train_divisor`.
    /// The paper (and Linux) use 2.
    pub ack_train_divisor: u32,
    /// HyStart Condition 2 threshold: growth is allowed while
    /// `moRTT ≤ delay_factor × minRTT`. The paper (and Linux) use 1.125.
    pub delay_factor: f64,
    /// Minimum number of RTT samples in a round before the delay condition
    /// is trusted (Linux HyStart uses 8 samples for its delay test).
    pub min_rtt_samples: u32,
    /// Inter-ACK spacing bound for the ACK-train detector: two ACKs more
    /// than this far apart break the train (Linux uses 2 ms).
    pub ack_spacing: Duration,
    /// Below this cwnd (in bytes) SUSS never activates: with only a few
    /// packets in flight, Δt measurements are too noisy to extrapolate.
    pub min_cwnd_for_suss: u64,
    /// Master switch: with `enabled = false`, the state machine still does
    /// all bookkeeping (so traces align) but always reports G = 2.
    pub enabled: bool,
}

impl Default for SussConfig {
    fn default() -> Self {
        SussConfig {
            k_max: 1,
            ack_train_divisor: 2,
            delay_factor: 1.125,
            min_rtt_samples: 4,
            ack_spacing: Duration::from_millis(2),
            min_cwnd_for_suss: 4 * 1448,
            enabled: true,
        }
    }
}

impl SussConfig {
    /// SUSS disabled: behaves exactly like traditional slow-start with
    /// classic HyStart (the paper's "SUSS off" arm).
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
        if self.ack_train_divisor == 0 {
            return Err("ack_train_divisor must be >= 1".into());
        }
        if self.delay_factor < 1.0 {
            return Err("delay_factor must be >= 1.0".into());
        }
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
        assert_eq!(c.ack_train_divisor, 2);
        assert!((c.delay_factor - 1.125).abs() < 1e-12);
        assert!(c.enabled);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn disabled_config() {
        assert!(!SussConfig::disabled().enabled);
    }

    #[test]
    fn validation_catches_bad_values() {
        let c = SussConfig {
            ack_train_divisor: 0,
            ..SussConfig::default()
        };
        assert!(c.validate().is_err());
        let c = SussConfig {
            delay_factor: 0.5,
            ..SussConfig::default()
        };
        assert!(c.validate().is_err());
        let c = SussConfig::default().with_k_max(17);
        assert!(c.validate().is_err());
    }
}
