//! Bandwidth (link rate) arithmetic.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::Duration;

/// A link rate in bits per second.
///
/// Provides the conversions between bytes, rates, and time the simulator and
/// congestion controllers need (serialization delay, BDP sizing, pacing
/// intervals) with explicit rounding behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Bandwidth(u64);

impl Bandwidth {
    /// Zero rate (sentinel; cannot transmit).
    pub const ZERO: Bandwidth = Bandwidth(0);

    /// Construct from bits per second.
    pub const fn from_bps(bps: u64) -> Self {
        Bandwidth(bps)
    }

    /// Construct from kilobits per second (10^3).
    pub const fn from_kbps(kbps: u64) -> Self {
        Bandwidth(kbps * 1_000)
    }

    /// Construct from megabits per second (10^6).
    pub const fn from_mbps(mbps: u64) -> Self {
        Bandwidth(mbps * 1_000_000)
    }

    /// Construct from gigabits per second (10^9).
    pub const fn from_gbps(gbps: u64) -> Self {
        Bandwidth(gbps * 1_000_000_000)
    }

    /// Rate in bits per second.
    pub const fn as_bps(self) -> u64 {
        self.0
    }

    /// Rate in megabits per second.
    pub fn as_mbps_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Rate in bytes per second.
    pub fn bytes_per_sec(self) -> f64 {
        self.0 as f64 / 8.0
    }

    /// Time to serialize `bytes` onto the wire at this rate.
    ///
    /// # Panics
    /// Panics if the rate is zero (a zero-rate link can never transmit; model
    /// outages with [`crate::link::RateSchedule`] pauses instead).
    pub fn tx_time(self, bytes: u64) -> Duration {
        assert!(self.0 > 0, "tx_time on a zero-rate link");
        // 64-bit division whenever the numerator fits (any packet, any
        // backlog under ~2.3 GB); the same exact ceiling either way.
        let ns = match bytes.checked_mul(8 * 1_000_000_000) {
            Some(bits_ns) => u128::from(bits_ns.div_ceil(self.0)),
            None => (bytes as u128 * 8 * 1_000_000_000).div_ceil(self.0 as u128),
        };
        Duration::from_nanos(u64::try_from(ns).unwrap_or(u64::MAX))
    }

    /// Bandwidth–delay product in bytes for a given round-trip time.
    pub fn bdp_bytes(self, rtt: Duration) -> u64 {
        (self.bytes_per_sec() * rtt.as_secs_f64()).round() as u64
    }

    /// Scale the rate by a factor (used for time-varying links).
    pub fn scaled(self, factor: f64) -> Bandwidth {
        assert!(factor >= 0.0, "negative bandwidth scale");
        Bandwidth((self.0 as f64 * factor).round() as u64)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.2}Gbps", self.0 as f64 / 1e9)
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.2}Mbps", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.2}Kbps", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}bps", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Bandwidth::from_kbps(5).as_bps(), 5_000);
        assert_eq!(Bandwidth::from_mbps(50).as_bps(), 50_000_000);
        assert_eq!(Bandwidth::from_gbps(1).as_bps(), 1_000_000_000);
    }

    #[test]
    fn tx_time_simple() {
        // 1 Mbps, 125 bytes = 1000 bits -> 1 ms
        let b = Bandwidth::from_mbps(1);
        assert_eq!(b.tx_time(125), Duration::from_millis(1));
    }

    #[test]
    fn tx_time_rounds_up() {
        // 3 bps, 1 byte = 8 bits -> ceil(8/3) s in ns
        let b = Bandwidth::from_bps(3);
        let t = b.tx_time(1);
        assert!(t >= Duration::from_secs_f64(8.0 / 3.0));
        assert!(t <= Duration::from_secs_f64(8.0 / 3.0) + Duration::from_nanos(1));
    }

    #[test]
    #[should_panic]
    fn tx_time_zero_rate_panics() {
        Bandwidth::ZERO.tx_time(1);
    }

    #[test]
    fn bdp() {
        // 100 Mbps * 100 ms = 10 Mbit = 1.25 MB
        let b = Bandwidth::from_mbps(100);
        assert_eq!(b.bdp_bytes(Duration::from_millis(100)), 1_250_000);
    }

    #[test]
    fn scaled() {
        assert_eq!(
            Bandwidth::from_mbps(10).scaled(0.5),
            Bandwidth::from_mbps(5)
        );
    }

    #[test]
    fn display_units() {
        assert_eq!(Bandwidth::from_gbps(2).to_string(), "2.00Gbps");
        assert_eq!(Bandwidth::from_mbps(50).to_string(), "50.00Mbps");
        assert_eq!(Bandwidth::from_kbps(9).to_string(), "9.00Kbps");
        assert_eq!(Bandwidth::from_bps(42).to_string(), "42bps");
    }
}
