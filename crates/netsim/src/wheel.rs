//! Calendar-queue timer wheel for the event scheduler.
//!
//! The simulator dispatches events in `(time, insertion-seq)` order. A
//! binary heap gives that order at `O(log n)` per operation with poor cache
//! locality; this wheel gives amortized `O(1)` pushes and pops for the
//! near-future events that dominate a packet simulation (serialization
//! completions, propagation arrivals, pacing timers), while far timers
//! (RTOs, experiment horizons) wait in a small overflow heap and *cascade*
//! into the wheel as time approaches them.
//!
//! Layout: one ring of [`NUM_BUCKETS`] buckets at [`TICK_NANOS`]-nanosecond
//! granularity (a window of ~268 ms — wider than any modeled RTT, so the
//! common path never touches the overflow heap). A bucket collects every
//! event whose tick lands on it; when the wheel advances to that tick the
//! bucket is sorted by `(at, seq)` and drained into a FIFO dispatch buffer.
//! Because `seq` values are unique and monotone, this reproduces a binary
//! heap's global dispatch order *exactly* — same-tick FIFO included —
//! which is what kept `FlowStats`, counter totals, and cache keys
//! byte-identical when the wheel replaced the heap. The heap survives as
//! the oracle of this module's random-schedule property test, and the
//! goldens it recorded pin whole simulations in
//! `tests/wheel_equivalence.rs`.
//!
//! Buckets are drained with `Vec::drain`, so their allocations are
//! recycled: after warm-up the push/pop path allocates nothing.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Nanoseconds per wheel tick (2^16 ≈ 65.5 µs).
#[cfg(test)]
pub(crate) const TICK_NANOS: u64 = 1 << TICK_SHIFT;
const TICK_SHIFT: u32 = 16;
/// Buckets in the ring; window = `NUM_BUCKETS * TICK_NANOS` ≈ 268 ms.
pub(crate) const NUM_BUCKETS: u64 = 4096;
const MASK: u64 = NUM_BUCKETS - 1;
const WORDS: usize = (NUM_BUCKETS / 64) as usize;

/// A scheduled event: absolute time, global insertion sequence, payload.
pub(crate) struct WheelEntry<T> {
    pub(crate) at: SimTime,
    pub(crate) seq: u64,
    pub(crate) item: T,
}

/// Overflow-heap wrapper: reversed `(at, seq)` order so the `BinaryHeap`
/// max-heap pops the earliest entry first.
struct Overflow<T>(WheelEntry<T>);

impl<T> PartialEq for Overflow<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.at == other.0.at && self.0.seq == other.0.seq
    }
}
impl<T> Eq for Overflow<T> {}
impl<T> PartialOrd for Overflow<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Overflow<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .0
            .at
            .cmp(&self.0.at)
            .then_with(|| other.0.seq.cmp(&self.0.seq))
    }
}

/// The wheel. Generic over the event payload so the ordering contract can
/// be unit-tested without dragging in packets and agents.
pub(crate) struct TimerWheel<T> {
    /// Tick whose events are currently being dispatched from `current`.
    current_tick: u64,
    /// Events at `current_tick`, sorted by `(at, seq)`; popped from front.
    current: VecDeque<WheelEntry<T>>,
    /// Ring buckets; bucket `b` holds the events of the unique tick
    /// `t ≡ b (mod NUM_BUCKETS)` inside the window `(current_tick,
    /// current_tick + NUM_BUCKETS)`.
    buckets: Vec<Vec<WheelEntry<T>>>,
    /// One bit per bucket: set iff the bucket is non-empty.
    occupied: [u64; WORDS],
    /// Events beyond the wheel window, waiting to cascade in.
    overflow: BinaryHeap<Overflow<T>>,
    /// Entries currently stored in `buckets`.
    wheel_len: usize,
    /// Total entries (current + buckets + overflow).
    len: usize,
    /// Times an overflow entry was moved into the ring.
    cascades: u64,
}

impl<T> TimerWheel<T> {
    pub(crate) fn new() -> Self {
        TimerWheel {
            current_tick: 0,
            current: VecDeque::new(),
            buckets: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            occupied: [0; WORDS],
            overflow: BinaryHeap::new(),
            wheel_len: 0,
            len: 0,
            cascades: 0,
        }
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Times a far timer cascaded from the overflow heap into the ring.
    pub(crate) fn cascades(&self) -> u64 {
        self.cascades
    }

    /// Schedule an event. `seq` must be strictly greater than every
    /// previously pushed `seq` (the engine's global insertion counter).
    pub(crate) fn push(&mut self, at: SimTime, seq: u64, item: T) {
        let tick = at.as_nanos() >> TICK_SHIFT;
        let entry = WheelEntry { at, seq, item };
        if tick <= self.current_tick {
            // Lands on the tick being dispatched: insert in sorted position.
            // `seq` is larger than every queued seq, so it goes after all
            // entries with an earlier-or-equal timestamp.
            let idx = self.current.partition_point(|e| e.at <= at);
            self.current.insert(idx, entry);
        } else if tick - self.current_tick < NUM_BUCKETS {
            self.bucket_insert(tick, entry);
        } else {
            self.overflow.push(Overflow(entry));
        }
        self.len += 1;
    }

    /// Earliest pending event time, advancing the wheel if needed to find
    /// it (advancing never changes dispatch order).
    pub(crate) fn next_at(&mut self) -> Option<SimTime> {
        loop {
            if let Some(e) = self.current.front() {
                return Some(e.at);
            }
            if self.len == 0 {
                return None;
            }
            self.advance();
        }
    }

    /// Remove and return the earliest event (ties in insertion order).
    pub(crate) fn pop(&mut self) -> Option<WheelEntry<T>> {
        loop {
            if let Some(e) = self.current.pop_front() {
                self.len -= 1;
                return Some(e);
            }
            if self.len == 0 {
                return None;
            }
            self.advance();
        }
    }

    fn bucket_insert(&mut self, tick: u64, entry: WheelEntry<T>) {
        let b = (tick & MASK) as usize;
        self.buckets[b].push(entry);
        self.occupied[b >> 6] |= 1 << (b & 63);
        self.wheel_len += 1;
    }

    /// Jump `current_tick` to the next tick holding events, cascade any
    /// overflow entries that the move brought inside the window, and drain
    /// that tick's bucket (sorted) into the dispatch buffer.
    fn advance(&mut self) {
        debug_assert!(self.current.is_empty());
        let wheel_next = (self.wheel_len > 0).then(|| self.scan_next());
        let over_next = self
            .overflow
            .peek()
            .map(|e| e.0.at.as_nanos() >> TICK_SHIFT);
        self.current_tick = match (wheel_next, over_next) {
            (Some(w), Some(o)) => w.min(o),
            (Some(w), None) => w,
            (None, Some(o)) => o,
            (None, None) => return,
        };
        while let Some(top) = self.overflow.peek() {
            let tick = top.0.at.as_nanos() >> TICK_SHIFT;
            if tick - self.current_tick >= NUM_BUCKETS {
                break;
            }
            let entry = self.overflow.pop().expect("peeked entry").0;
            self.bucket_insert(tick, entry);
            self.cascades += 1;
        }
        let b = (self.current_tick & MASK) as usize;
        let bucket = &mut self.buckets[b];
        bucket.sort_unstable_by(|x, y| x.at.cmp(&y.at).then_with(|| x.seq.cmp(&y.seq)));
        self.wheel_len -= bucket.len();
        self.current.extend(bucket.drain(..));
        self.occupied[b >> 6] &= !(1 << (b & 63));
    }

    /// Smallest tick strictly after `current_tick` with a non-empty bucket.
    /// Caller guarantees the ring holds at least one entry.
    fn scan_next(&self) -> u64 {
        let start = ((self.current_tick + 1) & MASK) as usize;
        for step in 0..=WORDS {
            let w = (start / 64 + step) % WORDS;
            let mut word = self.occupied[w];
            if step == 0 {
                word &= !0u64 << (start & 63);
            } else if step == WORDS {
                word &= (1u64 << (start & 63)) - 1;
            }
            if word != 0 {
                let b = (w * 64 + word.trailing_zeros() as usize) as u64;
                let dist = b.wrapping_sub(self.current_tick + 1) & MASK;
                return self.current_tick + 1 + dist;
            }
        }
        unreachable!("scan_next on an empty ring")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;

    fn drain(w: &mut TimerWheel<u64>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(e) = w.pop() {
            out.push((e.at.as_nanos(), e.item));
        }
        out
    }

    #[test]
    fn same_tick_fifo_order() {
        // Many events at the same instant must pop in insertion order.
        let mut w = TimerWheel::new();
        let at = SimTime::from_micros(10);
        for seq in 1..=50u64 {
            w.push(at, seq, seq);
        }
        let got: Vec<u64> = drain(&mut w).into_iter().map(|(_, i)| i).collect();
        assert_eq!(got, (1..=50).collect::<Vec<_>>());
    }

    #[test]
    fn matches_global_time_seq_order() {
        // A scrambled schedule pops in exactly (at, seq) order, including
        // distinct times that share one wheel tick.
        let mut w = TimerWheel::new();
        let mut expect = Vec::new();
        let mut seq = 0u64;
        let mut x = 0x2545_F491u64;
        for _ in 0..2000 {
            // Deterministic xorshift covering same-tick and cross-bucket cases.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let at = SimTime::from_nanos(x % (50 * TICK_NANOS));
            seq += 1;
            w.push(at, seq, seq);
            expect.push((at.as_nanos(), seq));
        }
        expect.sort();
        assert_eq!(drain(&mut w), expect);
    }

    #[test]
    fn overflow_cascades_in_order() {
        // Events far beyond the window must cascade in and still dispatch
        // in global order.
        let mut w = TimerWheel::new();
        let far = NUM_BUCKETS * TICK_NANOS;
        w.push(SimTime::from_nanos(3 * far), 1, 1);
        w.push(SimTime::from_nanos(100), 2, 2);
        w.push(SimTime::from_nanos(2 * far), 3, 3);
        w.push(SimTime::from_nanos(3 * far), 4, 4);
        let got: Vec<u64> = drain(&mut w).into_iter().map(|(_, i)| i).collect();
        assert_eq!(got, vec![2, 3, 1, 4]);
        assert!(w.cascades() > 0, "far timers must cascade, not teleport");
    }

    #[test]
    fn push_onto_current_tick_keeps_order() {
        // While dispatching tick T, a new event at the same tick but a
        // later timestamp must slot after pending earlier timestamps.
        let mut w = TimerWheel::new();
        w.push(SimTime::from_nanos(10), 1, 1);
        w.push(SimTime::from_nanos(30), 2, 2);
        assert_eq!(w.pop().unwrap().item, 1);
        // Same instant as the pending event: FIFO ⇒ after it.
        w.push(SimTime::from_nanos(30), 3, 3);
        // Earlier instant than the pending event: before it.
        w.push(SimTime::from_nanos(20), 4, 4);
        let got: Vec<u64> = drain(&mut w).into_iter().map(|(_, i)| i).collect();
        assert_eq!(got, vec![4, 2, 3]);
    }

    #[test]
    fn next_at_peeks_without_reordering() {
        let mut w = TimerWheel::new();
        w.push(SimTime::from_millis(500), 1, 1); // overflow territory
        w.push(SimTime::from_nanos(5), 2, 2);
        assert_eq!(w.next_at(), Some(SimTime::from_nanos(5)));
        assert_eq!(w.pop().unwrap().item, 2);
        assert_eq!(w.next_at(), Some(SimTime::from_millis(500)));
        assert_eq!(w.pop().unwrap().item, 1);
        assert_eq!(w.next_at(), None);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn empty_wheel_behaves() {
        let mut w: TimerWheel<u64> = TimerWheel::new();
        assert!(w.pop().is_none());
        assert_eq!(w.next_at(), None);
        assert_eq!(w.len(), 0);
    }

    /// One step of a random schedule, as the engine drives the wheel.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Schedule at `now + δ` nanoseconds.
        Push(u64),
        /// Dispatch the earliest event; `now` moves to its time.
        Pop,
        /// Peek the earliest event time.
        NextAt,
        /// `run_until(now + δ)`: dispatch everything due by the deadline,
        /// then jump `now` to it, leaving the cursor behind over an idle
        /// stretch.
        Idle(u64),
    }

    fn op() -> impl Strategy<Value = Op> {
        let window = NUM_BUCKETS * TICK_NANOS;
        prop_oneof![
            // Same instant as `now`, or nearly: FIFO ties.
            (0u64..4).prop_map(Op::Push),
            // Same tick as `now`.
            (0..TICK_NANOS).prop_map(Op::Push),
            // Inside the ring's window.
            (TICK_NANOS..window).prop_map(Op::Push),
            (TICK_NANOS..window).prop_map(Op::Push),
            // Beyond it: the overflow heap and the cascade path.
            (window..4 * window).prop_map(Op::Push),
            (0u64..1).prop_map(|_| Op::Pop),
            (0u64..1).prop_map(|_| Op::Pop),
            (0u64..1).prop_map(|_| Op::NextAt),
            (0..2 * window).prop_map(Op::Idle),
        ]
    }

    /// Pop from both queues; they must hand out the same `(at, seq)`.
    fn pop_both(
        wheel: &mut TimerWheel<u64>,
        heap: &mut BinaryHeap<Reverse<(u64, u64)>>,
    ) -> Result<Option<(u64, u64)>, TestCaseError> {
        let w = wheel.pop().map(|e| (e.at.as_nanos(), e.item));
        let h = heap.pop().map(|Reverse(x)| x);
        prop_assert_eq!(w, h);
        Ok(w)
    }

    // The wheel against the binary heap it replaced, on random schedules:
    // both must agree on every `(at, seq)` they hand out, and on their
    // length after every step.
    proptest! {
        #[test]
        fn random_schedules_match_binary_heap(ops in prop::collection::vec(op(), 1..600)) {
            let mut wheel = TimerWheel::new();
            let mut heap = BinaryHeap::new();
            let (mut now, mut seq) = (0u64, 0u64);
            for op in ops {
                match op {
                    Op::Push(d) => {
                        seq += 1;
                        wheel.push(SimTime::from_nanos(now + d), seq, seq);
                        heap.push(Reverse((now + d, seq)));
                    }
                    Op::Pop => {
                        if let Some((at, _)) = pop_both(&mut wheel, &mut heap)? {
                            now = at;
                        }
                    }
                    Op::NextAt => {
                        let w = wheel.next_at().map(SimTime::as_nanos);
                        prop_assert_eq!(w, heap.peek().map(|Reverse((at, _))| *at));
                    }
                    Op::Idle(d) => {
                        let deadline = now + d;
                        while wheel.next_at().is_some_and(|at| at.as_nanos() <= deadline) {
                            pop_both(&mut wheel, &mut heap)?;
                        }
                        prop_assert!(heap.peek().is_none_or(|Reverse((at, _))| *at > deadline));
                        now = deadline;
                    }
                }
                prop_assert_eq!(wheel.len(), heap.len());
            }
            while pop_both(&mut wheel, &mut heap)?.is_some() {}
        }
    }
}
