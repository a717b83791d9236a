//! Round accounting keyed by sequence numbers (paper §5, "Measurement of G_i").
//!
//! Like the Linux CUBIC implementation SUSS extends, rounds are delimited
//! with sequence numbers: a round ends when the sender receives an ACK for
//! data sent *after* the round began. The tracker also records, per round,
//! the boundary between data sent in the clocking period ("blue") and data
//! sent in the pacing period ("red") — the blue boundary is what lets the
//! next round measure `Δt^Bat` and scale it into `Δt^at` via Eq. 9.
//!
//! All sequence numbers here are *absolute cumulative byte offsets* (the
//! transport unwraps 32-bit TCP sequence space before calling in).

/// Nanoseconds since an arbitrary, fixed origin (the transport's clock).
pub type Nanos = u64;

/// Immutable record of a finished round, inspected while ACKs for its data
/// arrive during the following round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundSnapshot {
    /// Round index (1-based; round 1 is the initial-window round).
    pub round: u64,
    /// First byte sent during this round.
    pub start_seq: u64,
    /// One past the last byte sent during this round.
    pub end_seq: u64,
    /// One past the last byte sent in the clocking period ("blue" data).
    /// Equals `end_seq` for rounds without a pacing period.
    pub blue_end_seq: u64,
}

impl RoundSnapshot {
    /// Total bytes sent in the round (`cwnd_{i}` proxy).
    pub fn total_bytes(self) -> u64 {
        self.end_seq - self.start_seq
    }

    /// Bytes sent in the clocking period (`S_i^Bdt`).
    pub fn blue_bytes(self) -> u64 {
        self.blue_end_seq - self.start_seq
    }
}

/// Tracks round boundaries and blue/red send accounting for the *current*
/// round, exposing the previous round's snapshot for measurement.
#[derive(Debug, Clone)]
pub struct RoundTracker {
    round: u64,
    /// Time the current round started (arrival of its first ACK).
    round_start: Nanos,
    /// `snd_nxt` when the current round started: an ACK beyond this begins
    /// the next round. Also the first byte *sent during* this round.
    round_end_seq: u64,
    /// Blue boundary for the current round (`u64::MAX` = no pacing yet, so
    /// everything sent so far is blue).
    blue_end_seq: u64,
    /// Snapshot of the previous round (None during round 1).
    prev: Option<RoundSnapshot>,
    /// Whether the previous round's blue-train completion was already
    /// reported (so stretch ACKs crossing the boundary still report it
    /// exactly once).
    blue_train_done: bool,
}

/// What [`RoundTracker::on_ack`] observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckObservation {
    /// This ACK started a new round.
    pub new_round: bool,
    /// This ACK acknowledged blue data of the previous round (so its RTT
    /// sample is trustworthy for HyStart/moRTT purposes).
    pub is_blue: bool,
    /// With this ACK, the previous round's blue data is fully acknowledged:
    /// the blue ACK train is complete and `Δt^Bat` can be read.
    pub blue_train_complete: bool,
}

impl RoundTracker {
    /// Start tracking at connection establishment.
    ///
    /// `initial_snd_nxt` is the stream offset of the first byte that will
    /// be sent (normally 0); round 1 begins immediately.
    pub fn new(now: Nanos, initial_snd_nxt: u64) -> Self {
        RoundTracker {
            round: 1,
            round_start: now,
            round_end_seq: initial_snd_nxt,
            blue_end_seq: u64::MAX,
            prev: None,
            blue_train_done: false,
        }
    }

    /// Current round index (1-based).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Time the current round began.
    pub fn round_start(&self) -> Nanos {
        self.round_start
    }

    /// Snapshot of the previous round, if any.
    pub fn prev(&self) -> Option<RoundSnapshot> {
        self.prev
    }

    /// Bytes sent so far during the current round, given the transport's
    /// current `snd_nxt`.
    pub fn bytes_sent_this_round(&self, snd_nxt: u64) -> u64 {
        snd_nxt.saturating_sub(self.round_end_seq)
    }

    /// Record that the pacing period began with `snd_nxt` bytes sent:
    /// everything sent before this instant in the current round is blue.
    ///
    /// Idempotent per round: only the first call in a round takes effect
    /// (the clocking→pacing transition happens at most once per round).
    pub fn mark_pacing_started(&mut self, snd_nxt: u64) {
        if self.blue_end_seq == u64::MAX {
            self.blue_end_seq = snd_nxt.max(self.round_end_seq);
        }
    }

    /// Process a cumulative ACK.
    ///
    /// * `now` — ACK arrival time.
    /// * `ack_seq` — cumulative acknowledgment (one past last in-order byte).
    /// * `snd_nxt` — highest byte sent so far (one past), used to close the
    ///   departing round's send accounting at a boundary.
    pub fn on_ack(&mut self, now: Nanos, ack_seq: u64, snd_nxt: u64) -> AckObservation {
        let mut obs = AckObservation {
            new_round: false,
            is_blue: false,
            blue_train_complete: false,
        };

        if ack_seq > self.round_end_seq {
            // This ACK covers data sent during the current round: the
            // current round is over. Snapshot it and open the next.
            let end_seq = snd_nxt.max(self.round_end_seq);
            let blue_end = self.blue_end_seq.min(end_seq).max(self.round_end_seq);
            self.prev = Some(RoundSnapshot {
                round: self.round,
                start_seq: self.round_end_seq,
                end_seq,
                blue_end_seq: blue_end,
            });
            self.round += 1;
            self.round_start = now;
            self.round_end_seq = end_seq;
            self.blue_end_seq = u64::MAX;
            self.blue_train_done = false;
            obs.new_round = true;
        }

        if let Some(prev) = self.prev {
            if ack_seq <= prev.blue_end_seq {
                obs.is_blue = true;
            }
            // First ACK at or past the blue boundary completes the train
            // (stretch ACKs may jump past it; report exactly once).
            if !self.blue_train_done && ack_seq >= prev.blue_end_seq {
                obs.is_blue = true;
                obs.blue_train_complete = true;
                self.blue_train_done = true;
            }
        }

        obs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_one_has_no_prev() {
        let t = RoundTracker::new(0, 0);
        assert_eq!(t.round(), 1);
        assert!(t.prev().is_none());
    }

    #[test]
    fn boundary_detection() {
        let mut t = RoundTracker::new(0, 0);
        // Round 1: iw = 10 packets of 1000 B sent; snd_nxt = 10_000.
        // First ACK arrives covering 1000 B; we had sent 10_000 already and
        // meanwhile clocked out up to 20_000.
        let obs = t.on_ack(100, 1_000, 20_000);
        assert!(obs.new_round, "first ACK for round-1 data begins round 2");
        assert_eq!(t.round(), 2);
        let prev = t.prev().unwrap();
        assert_eq!(prev.round, 1);
        assert_eq!(prev.start_seq, 0);
        assert_eq!(prev.end_seq, 20_000);
        assert_eq!(prev.blue_end_seq, 20_000, "no pacing: all blue");

        // Subsequent ACKs within the same round.
        let obs = t.on_ack(110, 5_000, 20_000);
        assert!(!obs.new_round);
        assert!(obs.is_blue);
        // ACK beyond round 2's start (20_000) begins round 3.
        let obs = t.on_ack(200, 21_000, 40_000);
        assert!(obs.new_round);
        assert_eq!(t.round(), 3);
    }

    #[test]
    fn blue_train_completion() {
        let mut t = RoundTracker::new(0, 0);
        t.on_ack(100, 1_000, 10_000); // round 2 opens; prev blue_end = 10_000
        let obs = t.on_ack(120, 9_000, 10_000);
        assert!(obs.is_blue && !obs.blue_train_complete);
        let obs = t.on_ack(130, 10_000, 10_000);
        assert!(obs.is_blue && obs.blue_train_complete);
    }

    #[test]
    fn pacing_splits_blue_red() {
        let mut t = RoundTracker::new(0, 0);
        // Round 1 data acked: round 2 opens having sent [10_000, 20_000).
        t.on_ack(100, 10_000, 20_000);
        // Pacing starts in round 2 once 30_000 B total are out.
        t.mark_pacing_started(30_000);
        // Reds sent: snd_nxt reaches 40_000. Round 3 opens when an ACK
        // covers beyond 20_000.
        let obs = t.on_ack(200, 21_000, 40_000);
        assert!(obs.new_round);
        let prev = t.prev().unwrap();
        assert_eq!(prev.start_seq, 20_000);
        assert_eq!(prev.end_seq, 40_000);
        assert_eq!(prev.blue_end_seq, 30_000);
        assert_eq!(prev.total_bytes(), 20_000);
        assert_eq!(prev.blue_bytes(), 10_000);

        // In round 3: ACKs up to 30_000 are blue; beyond is red.
        assert!(t.on_ack(210, 25_000, 40_000).is_blue);
        let obs = t.on_ack(220, 30_000, 40_000);
        assert!(obs.is_blue && obs.blue_train_complete);
        let obs = t.on_ack(230, 35_000, 40_000);
        assert!(!obs.is_blue);
    }

    #[test]
    fn mark_pacing_idempotent_within_round() {
        let mut t = RoundTracker::new(0, 0);
        t.on_ack(100, 10_000, 20_000);
        t.mark_pacing_started(25_000);
        t.mark_pacing_started(33_000); // ignored
        t.on_ack(200, 20_001, 40_000);
        assert_eq!(t.prev().unwrap().blue_end_seq, 25_000);
    }

    #[test]
    fn stretch_ack_spanning_a_round_forfeits_its_measurement() {
        let mut t = RoundTracker::new(0, 0);
        t.on_ack(100, 10_000, 20_000);
        // One giant ACK covering all of round 1's remaining data AND round
        // 2's: round 3 opens, but round 2's blue-train completion is never
        // reported — a Δt measured at the boundary would be meaningless, so
        // SUSS conservatively skips acceleration for that round.
        let obs = t.on_ack(200, 40_000, 60_000);
        assert!(obs.new_round);
        assert!(!obs.blue_train_complete);
        // The *new* round's train then completes normally.
        let obs = t.on_ack(210, 60_000, 80_000);
        assert!(obs.blue_train_complete);
    }

    #[test]
    fn stretch_ack_past_blue_boundary_within_round_completes_once() {
        let mut t = RoundTracker::new(0, 0);
        t.on_ack(100, 10_000, 20_000);
        t.mark_pacing_started(30_000);
        t.on_ack(200, 20_001, 40_000); // round 3; prev blue_end = 30_000
                                       // Stretch ACK jumps from 20_001 straight past the blue boundary.
        let obs = t.on_ack(210, 32_000, 40_000);
        assert!(obs.blue_train_complete && obs.is_blue);
        // Reported exactly once.
        let obs = t.on_ack(220, 33_000, 40_000);
        assert!(!obs.blue_train_complete && !obs.is_blue);
    }

    #[test]
    fn blue_boundary_clamped_into_round() {
        let mut t = RoundTracker::new(0, 0);
        t.on_ack(100, 10_000, 20_000);
        // Degenerate: pacing marked with snd_nxt below round start
        // (cannot happen live, but the clamp keeps accounting sane).
        t.mark_pacing_started(5_000);
        t.on_ack(200, 20_001, 40_000);
        let prev = t.prev().unwrap();
        assert!(prev.blue_end_seq >= prev.start_seq);
        assert!(prev.blue_end_seq <= prev.end_seq);
    }

    #[test]
    fn app_limited_round_accounting() {
        let mut t = RoundTracker::new(0, 0);
        // Tiny flow: only 3_000 B ever sent.
        let obs = t.on_ack(50, 1_500, 3_000);
        assert!(obs.new_round);
        let prev = t.prev().unwrap();
        assert_eq!(prev.total_bytes(), 3_000);
        // Everything acked; no more data. Next ACK completes the train.
        let obs = t.on_ack(60, 3_000, 3_000);
        assert!(obs.blue_train_complete);
    }
}
