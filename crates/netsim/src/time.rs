//! Virtual time for the discrete-event simulator.
//!
//! Simulation time is a monotonically non-decreasing count of nanoseconds
//! since the start of the simulation, wrapped in [`SimTime`]. Intervals are
//! expressed with [`std::time::Duration`], which gives us well-tested
//! arithmetic and conversion helpers for free.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// An instant in virtual time, in nanoseconds since simulation start.
///
/// `SimTime` is `Copy`, totally ordered, and supports arithmetic with
/// [`Duration`]. The simulator guarantees events are dispatched in
/// non-decreasing `SimTime` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of the simulation (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable instant. Used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds since simulation start.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from microseconds since simulation start.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from milliseconds since simulation start.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from whole seconds since simulation start.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Construct from fractional seconds since simulation start.
    ///
    /// Negative values saturate to [`SimTime::ZERO`].
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 {
            SimTime::ZERO
        } else {
            SimTime((s * 1e9).round() as u64)
        }
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds since simulation start.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Elapsed time since `earlier`, saturating to zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition of a duration (clamps at [`SimTime::MAX`]).
    pub fn saturating_add(self, d: Duration) -> SimTime {
        SimTime(self.0.saturating_add(duration_as_nanos_u64(d)))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }
}

/// Convert a [`Duration`] to u64 nanoseconds, saturating on overflow.
///
/// Simulations never run anywhere near 2^64 ns (~584 years), so saturation
/// only matters for sentinel values like `Duration::MAX`.
fn duration_as_nanos_u64(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Add<Duration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: Duration) -> SimTime {
        self.saturating_add(rhs)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;

    /// Elapsed time between two instants.
    ///
    /// # Panics
    /// Panics in debug builds if `rhs` is later than `self`; saturates to
    /// zero in release builds (matching `Instant` semantics would panic, but
    /// a simulator must be robust against benign reordering at equal times).
    fn sub(self, rhs: SimTime) -> Duration {
        debug_assert!(
            self.0 >= rhs.0,
            "SimTime subtraction underflow: {self:?} - {rhs:?}"
        );
        Duration::from_nanos(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_millis(5).as_nanos(), 5_000_000);
        assert_eq!(SimTime::from_micros(7).as_nanos(), 7_000);
        assert_eq!(SimTime::from_secs(2).as_nanos(), 2_000_000_000);
        assert!((SimTime::from_secs_f64(1.5).as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn negative_secs_clamp_to_zero() {
        assert_eq!(SimTime::from_secs_f64(-3.0), SimTime::ZERO);
    }

    #[test]
    fn add_duration() {
        let t = SimTime::from_millis(10) + Duration::from_millis(5);
        assert_eq!(t, SimTime::from_millis(15));
    }

    #[test]
    fn add_assign_duration() {
        let mut t = SimTime::from_millis(1);
        t += Duration::from_millis(2);
        assert_eq!(t, SimTime::from_millis(3));
    }

    #[test]
    fn subtraction_gives_duration() {
        let a = SimTime::from_millis(30);
        let b = SimTime::from_millis(10);
        assert_eq!(a - b, Duration::from_millis(20));
    }

    #[test]
    fn saturating_since_clamps() {
        let a = SimTime::from_millis(10);
        let b = SimTime::from_millis(30);
        assert_eq!(a.saturating_since(b), Duration::ZERO);
        assert_eq!(b.saturating_since(a), Duration::from_millis(20));
    }

    #[test]
    fn saturating_add_clamps_at_max() {
        assert_eq!(
            SimTime::MAX.saturating_add(Duration::from_secs(1)),
            SimTime::MAX
        );
        assert_eq!(SimTime::MAX + Duration::MAX, SimTime::MAX);
    }

    #[test]
    fn min_max() {
        let a = SimTime::from_millis(1);
        let b = SimTime::from_millis(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn ordering_is_total() {
        let mut ts = vec![
            SimTime::from_millis(3),
            SimTime::ZERO,
            SimTime::from_millis(1),
        ];
        ts.sort();
        assert_eq!(
            ts,
            vec![
                SimTime::ZERO,
                SimTime::from_millis(1),
                SimTime::from_millis(3)
            ]
        );
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(SimTime::from_millis(1500).to_string(), "1.500000s");
    }
}
