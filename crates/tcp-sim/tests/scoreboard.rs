//! The SACK scoreboard's cost must not grow with the number of holes.

use std::time::{Duration, Instant};
use tcp_sim::{ByteRange, RangeSet};

const MSS: u64 = 1448;

#[test]
fn scoreboard_ops_do_not_scan_every_hole() {
    // 20k SACKed segments, each followed by a one-segment hole: a badly
    // lossy window's scoreboard.
    const HOLES: u64 = 20_000;
    let mut sacked = RangeSet::new();
    for i in 0..HOLES {
        sacked.insert(ByteRange::new(2 * i * MSS, (2 * i + 1) * MSS));
    }
    assert_eq!(sacked.num_ranges(), HOLES as usize);
    let full = sacked.total_bytes();

    // 20k rounds over segments spread across the whole window: drop the
    // middle of one (splitting its range in two), read the total as
    // `pipe()` does, then SACK it again (merging the split back).
    let t0 = Instant::now();
    for round in 0..HOLES {
        let seg = 2 * (round * 7_919 % HOLES) * MSS;
        let mid = ByteRange::new(seg + MSS / 4, seg + MSS / 2);
        assert_eq!(sacked.remove(mid), mid.len());
        assert_eq!(sacked.total_bytes(), full - mid.len());
        assert_eq!(sacked.insert(mid), mid.len());
    }
    let took = t0.elapsed();
    assert_eq!(sacked.total_bytes(), full);
    assert_eq!(sacked.num_ranges(), HOLES as usize);
    // Binary search plus one splice per op takes a fraction of a second
    // even unoptimised; rescanning or rebuilding all 20k ranges per op
    // takes over ten times the bound.
    assert!(
        took < Duration::from_secs(2),
        "20k scoreboard rounds over 20k holes took {took:?}"
    );
}
