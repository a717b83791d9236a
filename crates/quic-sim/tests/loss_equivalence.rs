//! The loss detector against the whole-window `retain` detector it
//! replaced: random sends, ACK frames, loss-timer firings and NAK pops
//! must give the same acks, losses, in-flight state, loss-timer deadline
//! and NAK list after every step.

use proptest::prelude::*;
use quic_sim::{LossDetector, SentPacket, PACKET_THRESHOLD};
use std::collections::VecDeque;
use tcp_sim::{ByteRange, RangeSet};

type PktRange = (u64, u64);

/// The reference detector: every operation walks the whole in-flight
/// set, exactly as the detector did before its O(log n) rewrite.
#[derive(Clone, Default)]
struct Oracle {
    sent: VecDeque<SentPacket>,
    largest_acked: Option<u64>,
    loss_list: VecDeque<ByteRange>,
}

/// What one oracle ACK did.
struct OracleAck {
    newly_acked: u64,
    acked_ranges: Vec<ByteRange>,
    largest_newly: Option<SentPacket>,
    lost: Vec<SentPacket>,
}

impl Oracle {
    fn bytes_in_flight(&self) -> u64 {
        self.sent.iter().map(|p| p.range.len()).sum()
    }

    fn on_ack(&mut self, ranges: &[PktRange], now: u64, delay: u64) -> OracleAck {
        let covered = |pkt: u64| ranges.iter().any(|&(s, e)| s <= pkt && pkt < e);
        let (mut newly_acked, mut acked_ranges, mut largest_newly) = (0, Vec::new(), None);
        self.sent.retain(|p| {
            if covered(p.pkt_num) {
                newly_acked += p.range.len();
                acked_ranges.push(p.range);
                if largest_newly.is_none_or(|l: SentPacket| l.pkt_num < p.pkt_num) {
                    largest_newly = Some(*p);
                }
                false
            } else {
                true
            }
        });
        if let Some(l) = largest_newly {
            self.largest_acked = Some(self.largest_acked.map_or(l.pkt_num, |a| a.max(l.pkt_num)));
        }
        let lost = self.detect_lost(now, delay);
        OracleAck {
            newly_acked,
            acked_ranges,
            largest_newly,
            lost,
        }
    }

    fn detect_lost(&mut self, now: u64, delay: u64) -> Vec<SentPacket> {
        let Some(largest) = self.largest_acked else {
            return Vec::new();
        };
        let mut lost = Vec::new();
        self.sent.retain(|p| {
            if p.pkt_num >= largest {
                return true;
            }
            let by_count = p.pkt_num + PACKET_THRESHOLD <= largest;
            let by_time = p.sent_at.saturating_add(delay) <= now;
            if by_count || by_time {
                lost.push(*p);
                false
            } else {
                true
            }
        });
        for p in &lost {
            self.nak(p.range);
        }
        lost
    }

    fn next_loss_time(&self, delay: u64) -> Option<u64> {
        let largest = self.largest_acked?;
        self.sent
            .iter()
            .filter(|p| p.pkt_num < largest)
            .map(|p| p.sent_at.saturating_add(delay))
            .min()
    }

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
        self.loss_list.drain(lo..hi);
        self.loss_list.insert(lo, merged);
    }

    fn pop_nak(&mut self, max_len: u64) -> Option<ByteRange> {
        let first = self.loss_list.front_mut()?;
        if first.len() <= max_len {
            return self.loss_list.pop_front();
        }
        let head = ByteRange::new(first.start, first.start + max_len);
        first.start += max_len;
        Some(head)
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Send `len` stream bytes `dt` after the previous step; `rewind`
    /// bytes back from the send cursor (a retransmission's overlap).
    Send { len: u64, rewind: u64, dt: u64 },
    /// An ACK frame `dt` later. Each `(back, len)` becomes the packet
    /// range starting `back` below `next_pkt_num + 4`, so frames run past
    /// the last packet sent, repeat, overlap, come unsorted or are empty;
    /// `len` 7 stands for an inverted range that covers nothing.
    Ack { ranges: Vec<(u64, u64)>, dt: u64 },
    /// The loss timer fires `dt` later.
    Timer { dt: u64 },
    /// The transport pops one NAK range of at most `max_len` bytes.
    PopNak { max_len: u64 },
}

fn send() -> impl Strategy<Value = Op> {
    (1u64..3_000, 0u64..2_000, 0u64..6).prop_map(|(len, rewind, dt)| Op::Send { len, rewind, dt })
}

fn op() -> impl Strategy<Value = Op> {
    // `Send` is listed twice so windows grow past the packet threshold
    // between ACKs instead of draining after every frame.
    prop_oneof![
        send(),
        send(),
        (prop::collection::vec((0u64..24, 0u64..8), 0..5), 0u64..12)
            .prop_map(|(ranges, dt)| Op::Ack { ranges, dt }),
        (0u64..25).prop_map(|dt| Op::Timer { dt }),
        (1u64..2_500).prop_map(|max_len| Op::PopNak { max_len }),
    ]
}

/// Every NAK range each side would hand out, popped from clones.
fn drain_naks(d: &LossDetector, o: &Oracle) -> (Vec<ByteRange>, Vec<ByteRange>) {
    let (mut d, mut o) = (d.clone(), o.clone());
    let got = std::iter::from_fn(|| d.pop_nak(1_000)).collect();
    let want = std::iter::from_fn(|| o.pop_nak(1_000)).collect();
    (got, want)
}

fn acked_set(ranges: &[ByteRange]) -> RangeSet {
    let mut set = RangeSet::new();
    for r in ranges {
        set.insert(*r);
    }
    set
}

proptest! {
    #[test]
    fn detector_matches_whole_window_oracle(
        ops in prop::collection::vec(op(), 1..300),
        delay in 1u64..30,
    ) {
        let mut d = LossDetector::new();
        let mut o = Oracle::default();
        let (mut now, mut next_pkt, mut cursor) = (0u64, 0u64, 0u64);
        for op in ops {
            match op {
                Op::Send { len, rewind, dt } => {
                    now += dt;
                    let start = cursor.saturating_sub(rewind);
                    let pkt = SentPacket {
                        pkt_num: next_pkt,
                        range: ByteRange::new(start, start + len),
                        fin: false,
                        sent_at: now,
                        is_rtx: rewind > 0,
                    };
                    next_pkt += 1;
                    cursor = cursor.max(start + len);
                    d.on_packet_sent(pkt);
                    o.sent.push_back(pkt);
                }
                Op::Ack { ranges, dt } => {
                    now += dt;
                    let top = next_pkt + 4;
                    let frame: Vec<PktRange> = ranges
                        .iter()
                        .map(|&(back, len)| {
                            let s = top.saturating_sub(back);
                            if len == 7 {
                                (s, s.saturating_sub(2))
                            } else {
                                (s, s + len)
                            }
                        })
                        .collect();
                    let mut acked = RangeSet::new();
                    let got = d.on_ack(&frame, now, delay, &mut acked);
                    let want = o.on_ack(&frame, now, delay);
                    prop_assert_eq!(got.newly_acked, want.newly_acked, "frame {:?}", frame);
                    prop_assert_eq!(acked, acked_set(&want.acked_ranges), "frame {:?}", frame);
                    prop_assert_eq!(got.largest_newly, want.largest_newly);
                    prop_assert_eq!(got.lost, want.lost, "frame {:?}", frame);
                }
                Op::Timer { dt } => {
                    now += dt;
                    prop_assert_eq!(d.detect_lost(now, delay), o.detect_lost(now, delay));
                }
                Op::PopNak { max_len } => {
                    prop_assert_eq!(d.pop_nak(max_len), o.pop_nak(max_len));
                }
            }
            prop_assert_eq!(d.bytes_in_flight(), o.bytes_in_flight());
            prop_assert_eq!(d.packets_in_flight(), o.sent.len());
            prop_assert_eq!(d.earliest_unacked(), o.sent.front());
            prop_assert_eq!(d.largest_acked(), o.largest_acked);
            prop_assert_eq!(d.next_loss_time(delay), o.next_loss_time(delay));
            prop_assert_eq!(d.has_nak(), !o.loss_list.is_empty());
            let (got, want) = drain_naks(&d, &o);
            prop_assert_eq!(got, want);
        }
    }
}
