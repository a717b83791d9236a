//! The loss detector's per-ACK cost must not grow with the number of
//! packets in flight.

use quic_sim::{LossDetector, SentPacket};
use std::time::{Duration, Instant};
use tcp_sim::{ByteRange, RangeSet};

const MSS: u64 = 1448;
const DELAY: u64 = 10_000_000; // 10 ms loss delay

#[test]
fn per_ack_ops_do_not_scan_every_packet_in_flight() {
    // A 20k-packet window, then one cumulative ACK per packet — each one
    // followed by the reads the sender makes on every ACK.
    const PKTS: u64 = 20_000;
    let mut d = LossDetector::new();
    for i in 0..PKTS {
        d.on_packet_sent(SentPacket {
            pkt_num: i,
            range: ByteRange::new(i * MSS, (i + 1) * MSS),
            fin: i + 1 == PKTS,
            sent_at: i,
            is_rtx: false,
        });
    }
    assert_eq!(d.bytes_in_flight(), PKTS * MSS);

    let mut acked = RangeSet::new();
    let t0 = Instant::now();
    for i in 0..PKTS {
        let out = d.on_ack(&[(0, i + 1)], PKTS + i, DELAY, &mut acked);
        assert_eq!(out.newly_acked, MSS);
        assert!(out.lost.is_empty());
        assert_eq!(d.bytes_in_flight(), (PKTS - i - 1) * MSS);
        assert_eq!(d.next_loss_time(DELAY), None);
    }
    let took = t0.elapsed();
    assert_eq!(d.packets_in_flight(), 0);
    assert_eq!(acked.total_bytes(), PKTS * MSS);
    assert_eq!(acked.num_ranges(), 1);
    // A binary search and a front drain per ACK take a fraction of a
    // second even unoptimised; rescanning all in-flight packets on each
    // ACK and each read takes over ten times the bound.
    assert!(
        took < Duration::from_secs(2),
        "20k cumulative ACKs over a 20k-packet window took {took:?}"
    );
}
