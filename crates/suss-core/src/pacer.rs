//! Token-bucket packet pacer, shared by every transport.
//!
//! Gates packet departures at a configurable byte rate, like the kernel's
//! `sk_pacing_rate` path (FQ). A rate of `None` means unlimited: packets
//! go out as fast as cwnd permits (pure ACK clocking). SUSS switches the
//! rate on only during pacing periods; BBR keeps it on continuously.
//!
//! The pacer is transport-neutral — it knows nothing about sequence
//! numbers or packet-number spaces, only bytes and nanoseconds — so the
//! TCP-like transport (`tcp-sim`) and the QUIC-like transport
//! (`quic-sim`) drive the identical token bucket. `quic-sim` further
//! layers its pluggable `PacingStrategy` (per-packet / burst-N /
//! chunked-interval) on top of this bucket by varying the burst
//! allowance and release quantization.

use std::time::Duration;

/// Nanoseconds, matching the transport clock.
pub type Nanos = u64;

/// A byte-rate pacer with a small burst allowance.
#[derive(Debug, Clone)]
pub struct Pacer {
    /// Bytes per second; `None` = unlimited.
    rate: Option<f64>,
    /// Burst allowance in bytes: sends that fit in the bucket go out
    /// immediately, so short trains are not artificially spread.
    burst: u64,
    /// Tokens currently in the bucket (bytes).
    tokens: f64,
    /// Last time the bucket was refilled.
    last_refill: Nanos,
}

impl Pacer {
    /// An unlimited pacer (pure ACK clocking), with the given burst size
    /// used once a rate is set.
    pub fn unlimited(burst: u64) -> Self {
        Pacer {
            rate: None,
            burst,
            tokens: burst as f64,
            last_refill: 0,
        }
    }

    /// Current rate in bytes per second, if limited.
    pub fn rate(&self) -> Option<f64> {
        self.rate
    }

    /// Set or change the pacing rate. Resets the bucket to one burst so a
    /// rate change cannot release an instantaneous backlog of tokens.
    pub fn set_rate(&mut self, now: Nanos, rate: Option<f64>) {
        self.refill(now);
        self.rate = rate;
        self.tokens = self.tokens.min(self.burst as f64);
        if let Some(r) = rate {
            assert!(r > 0.0, "pacing rate must be positive");
        }
    }

    fn refill(&mut self, now: Nanos) {
        if let Some(rate) = self.rate {
            let dt = now.saturating_sub(self.last_refill) as f64 / 1e9;
            self.tokens = (self.tokens + rate * dt).min(self.burst as f64);
        }
        self.last_refill = now;
    }

    /// Whether `bytes` may depart at `now`.
    pub fn can_send(&mut self, now: Nanos, bytes: u64) -> bool {
        match self.rate {
            None => true,
            Some(_) => {
                self.refill(now);
                self.tokens >= bytes as f64
            }
        }
    }

    /// Account for a departure of `bytes` at `now`.
    pub fn on_sent(&mut self, now: Nanos, bytes: u64) {
        if self.rate.is_some() {
            self.refill(now);
            // May go negative: the deficit delays the next send, which is
            // how a token bucket paces segments larger than the bucket.
            self.tokens -= bytes as f64;
        }
    }

    /// The earliest time `bytes` could depart, given current tokens.
    /// Returns `now` when sending is already allowed.
    pub fn next_send_time(&mut self, now: Nanos, bytes: u64) -> Nanos {
        match self.rate {
            None => now,
            Some(rate) => {
                self.refill(now);
                let deficit = bytes as f64 - self.tokens;
                if deficit <= 0.0 {
                    now
                } else {
                    now + (deficit / rate * 1e9).ceil() as u64
                }
            }
        }
    }
}

/// Convenience: a pacing interval for back-to-back packets at `rate`.
pub fn packet_interval(rate_bytes_per_sec: f64, packet_bytes: u64) -> Duration {
    Duration::from_secs_f64(packet_bytes as f64 / rate_bytes_per_sec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_always_sends() {
        let mut p = Pacer::unlimited(10_000);
        assert!(p.can_send(0, u64::MAX));
        assert_eq!(p.next_send_time(5, 1_000_000), 5);
    }

    #[test]
    fn rate_limits_throughput() {
        let mut p = Pacer::unlimited(1_500);
        p.set_rate(0, Some(1_500_000.0)); // 1.5 MB/s, 1500 B packets -> 1 ms apart
        let mut t: Nanos = 0;
        let mut sent = 0u64;
        // Send as fast as allowed for 10 ms.
        while t < 10_000_000 {
            if p.can_send(t, 1_500) {
                p.on_sent(t, 1_500);
                sent += 1_500;
            }
            t = p.next_send_time(t, 1_500).max(t + 1);
        }
        // Expect ~15_000 B (+1 initial burst).
        assert!((15_000..=16_500 + 1_500).contains(&sent), "sent {sent}");
    }

    #[test]
    fn burst_goes_out_immediately() {
        let mut p = Pacer::unlimited(4_500);
        p.set_rate(0, Some(1_000_000.0));
        // Three packets fit in the burst allowance.
        for _ in 0..3 {
            assert!(p.can_send(0, 1_500));
            p.on_sent(0, 1_500);
        }
        assert!(!p.can_send(0, 1_500), "fourth packet must wait");
    }

    #[test]
    fn next_send_time_matches_deficit() {
        let mut p = Pacer::unlimited(1_500);
        p.set_rate(0, Some(1_500_000.0));
        p.on_sent(0, 1_500); // bucket empty
        let t = p.next_send_time(0, 1_500);
        assert_eq!(t, 1_000_000, "one 1500 B packet at 1.5 MB/s = 1 ms");
        assert!(p.can_send(t, 1_500));
    }

    #[test]
    fn tokens_cap_at_burst() {
        let mut p = Pacer::unlimited(3_000);
        p.set_rate(0, Some(1_000_000.0));
        p.on_sent(0, 3_000);
        // A long idle period must not accumulate unbounded credit.
        assert!(p.can_send(1_000_000_000, 3_000));
        p.on_sent(1_000_000_000, 3_000);
        assert!(!p.can_send(1_000_000_000, 1_500));
    }

    #[test]
    fn rate_change_does_not_dump_backlog() {
        let mut p = Pacer::unlimited(1_500);
        p.set_rate(0, Some(1_000.0)); // crawl
        p.on_sent(0, 1_500);
        // Switch to a fast rate: tokens stay bounded by burst.
        p.set_rate(1_000_000, Some(1e9));
        assert!(p.next_send_time(1_000_000, 1_500) >= 1_000_000);
    }

    #[test]
    fn packet_interval_helper() {
        assert_eq!(
            packet_interval(1_500_000.0, 1_500),
            Duration::from_millis(1)
        );
    }
}
