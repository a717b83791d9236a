//! Loss detection over the packet-number space.
//!
//! RFC 9002-style: a packet is declared lost once it is *both* unacked
//! and either
//!
//! * **packet threshold** — at least [`PACKET_THRESHOLD`] packets with
//!   higher numbers have been acknowledged (the reordering analogue of
//!   TCP's dupthresh), or
//! * **time threshold** — a higher-numbered packet is acked and the
//!   packet has been outstanding longer than `9/8 · max(srtt, latest)`
//!   (see [`loss_delay`]).
//!
//! Stream bytes of lost packets land on a NAK-style *loss list* — a
//! sorted deque of byte ranges awaiting retransmission, the idiom of
//! srt-rs's sender — which the transport drains ahead of new data. The
//! packets themselves are forgotten: a retransmission mints a fresh
//! packet number, so the detector never tracks the same number twice.
//!
//! Every operation costs O(log n + packets touched), never a pass over
//! the whole in-flight set. The in-flight byte total is cached; an ACK
//! range finds its window by binary search and drains only that; loss
//! detection and the loss-timer deadline walk only the prefix below
//! `largest_acked`. Two invariants carry this:
//!
//! * packet numbers are handed in ascending, so the in-flight deque is
//!   sorted (asserted on every send);
//! * after each detection at most `PACKET_THRESHOLD − 1` unlost packets
//!   stay below `largest_acked` — every older one is lost by count — so
//!   that prefix is a couple of packets, not the window.

use crate::frames::{Nanos, PktRange};
use std::collections::VecDeque;
use tcp_sim::ranges::{ByteRange, RangeSet};

/// Packets-reordered threshold (RFC 9002 `kPacketThreshold`).
pub const PACKET_THRESHOLD: u64 = 3;
/// Time-threshold granularity floor (RFC 9002 `kGranularity`): 1 ms.
const GRANULARITY_NS: u64 = 1_000_000;

/// The reordering time window: `9/8 · max(srtt, latest)` (RFC 9002
/// `kTimeThreshold`), floored at 1 ms (`kGranularity`).
pub fn loss_delay(srtt_ns: u64, latest_ns: u64) -> Nanos {
    (srtt_ns.max(latest_ns) * 9 / 8).max(GRANULARITY_NS)
}

/// Bookkeeping for one in-flight transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SentPacket {
    /// Packet number (unique per transmission).
    pub pkt_num: u64,
    /// Stream bytes carried.
    pub range: ByteRange,
    /// Whether the packet carried the stream's final byte.
    pub fin: bool,
    /// Departure time.
    pub sent_at: Nanos,
    /// Carried previously-transmitted stream bytes.
    pub is_rtx: bool,
}

/// What one ACK frame did to the in-flight set.
#[derive(Debug, Clone, Default)]
pub struct AckOutcome {
    /// Stream bytes newly acknowledged.
    pub newly_acked: u64,
    /// The largest-numbered packet among the newly acked, if any — the
    /// RTT/congestion reference packet.
    pub largest_newly: Option<SentPacket>,
    /// Packets this ACK's arrival newly declared lost.
    pub lost: Vec<SentPacket>,
}

/// The sender's loss detector: in-flight packet records, threshold
/// detection, and the NAK loss list.
#[derive(Debug, Clone, Default)]
pub struct LossDetector {
    /// Unacked transmissions, ascending packet number.
    sent: VecDeque<SentPacket>,
    /// Stream bytes carried by `sent` (kept in step on send, ACK and loss).
    in_flight: u64,
    /// Debug builds: checks to skip before the next full in-flight audit.
    #[cfg(debug_assertions)]
    audit_skip: usize,
    /// Largest packet number acknowledged so far.
    largest_acked: Option<u64>,
    /// Stream ranges awaiting retransmission: sorted, disjoint (the
    /// NAK list). Popped from the front by the transport.
    loss_list: VecDeque<ByteRange>,
}

impl LossDetector {
    /// An empty detector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a departure. Packet numbers must be handed in ascending:
    /// every window search and prefix walk depends on it.
    pub fn on_packet_sent(&mut self, pkt: SentPacket) {
        assert!(
            self.sent.back().is_none_or(|p| p.pkt_num < pkt.pkt_num),
            "packet numbers must be sent ascending: {} after {:?}",
            pkt.pkt_num,
            self.sent.back().map(|p| p.pkt_num)
        );
        self.in_flight += pkt.range.len();
        self.sent.push_back(pkt);
    }

    /// Largest acknowledged packet number, if any.
    pub fn largest_acked(&self) -> Option<u64> {
        self.largest_acked
    }

    /// Unacked stream bytes currently tracked (in-flight).
    pub fn bytes_in_flight(&self) -> u64 {
        self.in_flight
    }

    /// Number of unacked transmissions tracked.
    pub fn packets_in_flight(&self) -> usize {
        self.sent.len()
    }

    /// The oldest unacked transmission (the PTO probe candidate).
    pub fn earliest_unacked(&self) -> Option<&SentPacket> {
        self.sent.front()
    }

    /// Apply an ACK frame's packet-number ranges, then run both loss
    /// thresholds. `delay` is the current [`loss_delay`]. The stream
    /// range of every newly acked packet is inserted into `acked`.
    ///
    /// Ranges may come in any order, overlap, be empty, re-ack packets
    /// already gone, or run past the last packet sent: each one drains
    /// just the packets it covers that are still in flight.
    pub fn on_ack(
        &mut self,
        ranges: &[PktRange],
        now: Nanos,
        delay: Nanos,
        acked: &mut RangeSet,
    ) -> AckOutcome {
        let mut out = AckOutcome::default();
        for &(start, end) in ranges {
            let hi = self.count_below(end);
            let lo = self.count_below(start);
            if lo >= hi {
                continue;
            }
            for p in self.sent.drain(lo..hi) {
                out.newly_acked += p.range.len();
                acked.insert(p.range);
                if out.largest_newly.is_none_or(|l| l.pkt_num < p.pkt_num) {
                    out.largest_newly = Some(p);
                }
            }
        }
        self.in_flight -= out.newly_acked;
        if let Some(l) = out.largest_newly {
            self.largest_acked = Some(self.largest_acked.map_or(l.pkt_num, |a| a.max(l.pkt_num)));
        }
        out.lost = self.detect_lost(now, delay);
        out
    }

    /// How many in-flight packets are numbered below `n`: the
    /// `partition_point` of `n`, in O(1) when no number between the
    /// oldest in flight and `n` is missing. Numbers are distinct and
    /// ascending, so at most `n − oldest` packets qualify; when the last
    /// of those candidates is below `n`, all of them are.
    fn count_below(&self, n: u64) -> usize {
        let Some(oldest) = self.sent.front().map(|p| p.pkt_num) else {
            return 0;
        };
        if n <= oldest {
            return 0;
        }
        let k = usize::try_from(n - oldest).map_or(self.sent.len(), |d| d.min(self.sent.len()));
        if self.sent[k - 1].pkt_num < n {
            k
        } else {
            self.sent.partition_point(|p| p.pkt_num < n)
        }
    }

    /// Run both loss thresholds against the current in-flight set (the
    /// loss-timer path re-enters here without an ACK). Lost packets come
    /// back in packet-number order.
    pub fn detect_lost(&mut self, now: Nanos, delay: Nanos) -> Vec<SentPacket> {
        let Some(largest) = self.largest_acked else {
            return Vec::new();
        };
        // Only packets below `largest` can be judged. Every one of them
        // but the last `PACKET_THRESHOLD − 1` is lost by count, so at
        // most that many survivors precede a removed packet, and each
        // `remove` shifts only those.
        let mut lost = Vec::new();
        let mut i = 0;
        while let Some(&p) = self.sent.get(i).filter(|p| p.pkt_num < largest) {
            let by_count = p.pkt_num + PACKET_THRESHOLD <= largest;
            let by_time = p.sent_at.saturating_add(delay) <= now;
            if by_count || by_time {
                self.sent.remove(i);
                self.in_flight -= p.range.len();
                lost.push(p);
            } else {
                i += 1;
            }
        }
        for p in &lost {
            self.nak(p.range);
        }
        self.debug_check_in_flight();
        lost
    }

    /// Earliest instant a still-unjudged packet will cross the time
    /// threshold (the loss-timer deadline), if any.
    pub fn next_loss_time(&self, delay: Nanos) -> Option<Nanos> {
        let largest = self.largest_acked?;
        self.sent
            .iter()
            .take_while(|p| p.pkt_num < largest)
            .map(|p| p.sent_at.saturating_add(delay))
            .min()
    }

    /// Debug builds re-derive the cached in-flight total from `sent`
    /// (`on_ack` reaches this through `detect_lost`). A full audit then
    /// skips as many checks as it summed packets, so the checks stay
    /// O(1) amortised; a stale total stays stale, so the next audit
    /// still catches it.
    fn debug_check_in_flight(&mut self) {
        #[cfg(debug_assertions)]
        {
            if self.audit_skip > 0 {
                self.audit_skip -= 1;
                return;
            }
            self.audit_skip = self.sent.len();
            assert_eq!(
                self.in_flight,
                self.sent.iter().map(|p| p.range.len()).sum::<u64>(),
                "cached in-flight total out of step with the in-flight packets"
            );
        }
    }

    /// Insert a stream range into the NAK list, keeping it sorted and
    /// disjoint (overlapping/adjacent entries merge).
    fn nak(&mut self, r: ByteRange) {
        if r.is_empty() {
            return;
        }
        let lo = self.loss_list.partition_point(|x| x.end < r.start);
        let mut merged = r;
        let mut hi = lo;
        while hi < self.loss_list.len() && self.loss_list[hi].start <= merged.end {
            merged = ByteRange::new(
                merged.start.min(self.loss_list[hi].start),
                merged.end.max(self.loss_list[hi].end),
            );
            hi += 1;
        }
        // Splice [lo, hi) with the merged range.
        self.loss_list.drain(lo..hi);
        self.loss_list.insert(lo, merged);
    }

    /// Whether stream bytes await retransmission.
    pub fn has_nak(&self) -> bool {
        !self.loss_list.is_empty()
    }

    /// Put a popped range back (the window or pacer refused it). Merges
    /// like any NAK, so ordering is preserved.
    pub fn requeue_nak(&mut self, r: ByteRange) {
        self.nak(r);
    }

    /// Pop the first NAKed range, clipped to `max_len` bytes; the
    /// remainder (if any) stays at the front of the list.
    pub fn pop_nak(&mut self, max_len: u64) -> Option<ByteRange> {
        let first = self.loss_list.front_mut()?;
        if first.len() <= max_len {
            return self.loss_list.pop_front();
        }
        let head = ByteRange::new(first.start, first.start + max_len);
        first.start += max_len;
        Some(head)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(num: u64, start: u64, len: u64, at: Nanos) -> SentPacket {
        SentPacket {
            pkt_num: num,
            range: ByteRange::new(start, start + len),
            fin: false,
            sent_at: at,
            is_rtx: false,
        }
    }

    const D: Nanos = 10_000_000; // 10 ms loss delay

    #[test]
    fn ack_ranges_remove_and_measure() {
        let mut d = LossDetector::new();
        for i in 0..5 {
            d.on_packet_sent(pkt(i, i * 1_000, 1_000, i));
        }
        let mut acked = RangeSet::new();
        let out = d.on_ack(&[(0, 2), (3, 4)], 100, D, &mut acked);
        assert_eq!(out.newly_acked, 3_000);
        let stream: Vec<_> = acked.iter().collect();
        assert_eq!(
            stream,
            [ByteRange::new(0, 2_000), ByteRange::new(3_000, 4_000)]
        );
        assert_eq!(out.largest_newly.unwrap().pkt_num, 3);
        assert_eq!(d.packets_in_flight(), 2);
        assert_eq!(d.largest_acked(), Some(3));
        // Re-acking the same ranges is a no-op.
        let dup = d.on_ack(&[(0, 2)], 101, D, &mut acked);
        assert_eq!(dup.newly_acked, 0);
        assert!(dup.largest_newly.is_none());
        assert_eq!(acked.total_bytes(), 3_000);
        assert_eq!(d.bytes_in_flight(), 2_000);
    }

    #[test]
    fn packet_threshold_declares_loss() {
        let mut d = LossDetector::new();
        for i in 0..6 {
            d.on_packet_sent(pkt(i, i * 1_000, 1_000, 0));
        }
        // Packet 0 missing; acks for 1..=3 leave it within threshold.
        let out = d.on_ack(&[(1, 3)], 10, D, &mut RangeSet::new());
        assert!(out.lost.is_empty(), "0 survives: only 2 above it acked");
        // Acking packet 3 puts three higher packets past it.
        let out = d.on_ack(&[(3, 4)], 20, D, &mut RangeSet::new());
        assert_eq!(out.lost.len(), 1);
        assert_eq!(out.lost[0].pkt_num, 0);
        assert!(d.has_nak());
        assert_eq!(d.pop_nak(400), Some(ByteRange::new(0, 400)));
        assert_eq!(d.pop_nak(10_000), Some(ByteRange::new(400, 1_000)));
        assert_eq!(d.pop_nak(10_000), None);
    }

    #[test]
    fn time_threshold_declares_loss() {
        let mut d = LossDetector::new();
        d.on_packet_sent(pkt(0, 0, 1_000, 0));
        d.on_packet_sent(pkt(1, 1_000, 1_000, 0));
        // Only one higher packet acked: count threshold not met.
        let out = d.on_ack(&[(1, 2)], 5, D, &mut RangeSet::new());
        assert!(out.lost.is_empty());
        assert_eq!(d.next_loss_time(D), Some(D));
        // The loss timer fires past sent_at + delay.
        let lost = d.detect_lost(D, D);
        assert_eq!(lost.len(), 1);
        assert_eq!(lost[0].pkt_num, 0);
        assert_eq!(d.next_loss_time(D), None);
    }

    #[test]
    #[should_panic(expected = "packet numbers must be sent ascending")]
    fn out_of_order_send_panics() {
        let mut d = LossDetector::new();
        d.on_packet_sent(pkt(5, 0, 1_000, 0));
        d.on_packet_sent(pkt(5, 1_000, 1_000, 1));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "cached in-flight total out of step")]
    fn stale_in_flight_total_fails_the_debug_audit() {
        let mut d = LossDetector::new();
        d.on_packet_sent(pkt(0, 0, 1_000, 0));
        d.on_packet_sent(pkt(1, 1_000, 1_000, 0));
        d.in_flight -= 1;
        d.on_ack(&[(1, 2)], 5, D, &mut RangeSet::new());
    }

    #[test]
    fn nak_list_merges_and_stays_sorted() {
        let mut d = LossDetector::new();
        d.nak(ByteRange::new(5_000, 6_000));
        d.nak(ByteRange::new(1_000, 2_000));
        d.nak(ByteRange::new(1_500, 5_200));
        assert_eq!(d.pop_nak(u64::MAX), Some(ByteRange::new(1_000, 6_000)));
        assert!(!d.has_nak());
    }

    #[test]
    fn unjudged_tail_is_never_lost() {
        let mut d = LossDetector::new();
        for i in 0..4 {
            d.on_packet_sent(pkt(i, i * 1_000, 1_000, 0));
        }
        // Ack only packet 1: packets 2 and 3 are above largest_acked and
        // must survive any amount of elapsed time.
        let out = d.on_ack(&[(1, 2)], 1_000_000_000, D, &mut RangeSet::new());
        assert_eq!(out.lost.len(), 1, "only packet 0 is judged: {out:?}");
        assert_eq!(out.lost[0].pkt_num, 0);
        assert_eq!(d.packets_in_flight(), 2);
    }
}
