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
//! bucket's keys are sorted by `(at, seq)` into a dispatch buffer. Because
//! `seq` values are unique and monotone, this reproduces a binary heap's
//! global dispatch order *exactly* — same-tick FIFO included — which is
//! what kept `FlowStats`, counter totals, and cache keys byte-identical
//! when the wheel replaced the heap. The heap survives as an oracle of
//! this module's random-schedule property test, next to the `Vec`-bucket
//! wheel this one replaced (which also pins the cascade count), and the
//! goldens it recorded pin whole simulations in
//! `tests/wheel_equivalence.rs`.
//!
//! Storage: every pending event lives in one slab of slots, recycled
//! through an intrusive free list. A bucket is an intrusive chain through
//! those slots (a head and a tail index), so an empty bucket owns no
//! allocation. The dispatch buffer, the overflow heap and the same-tick
//! heap hold 24-byte `(at, seq, slot)` keys; the payload moves only on
//! push and on pop. A push onto the tick being dispatched goes into the
//! small same-tick min-heap rather than into the sorted buffer, and a pop
//! takes whichever of the buffer's cursor and the heap's top is earlier.
//! A new wheel allocates its chain array once; the slab, the buffer and
//! the heaps then grow to the simulation's high-water mark and are reused.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Nanoseconds per wheel tick (2^16 ≈ 65.5 µs).
#[cfg(test)]
pub(crate) const TICK_NANOS: u64 = 1 << TICK_SHIFT;
const TICK_SHIFT: u32 = 16;
/// Buckets in the ring; window = `NUM_BUCKETS * TICK_NANOS` ≈ 268 ms.
pub(crate) const NUM_BUCKETS: u64 = 4096;
const MASK: u64 = NUM_BUCKETS - 1;
const WORDS: usize = (NUM_BUCKETS / 64) as usize;
/// End of a chain or of the free list.
const NIL: u32 = u32::MAX;

/// Dispatch key of a pending event: its time, its insertion sequence and
/// the slab slot holding it. Orders by `(at, seq)`; `seq` is unique, so
/// `slot` never decides.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
}

/// A slab slot: a pending event, or a free slot (`item` is `None`).
/// `next` links the slot into its bucket's chain or into the free list.
struct Slot<T> {
    at: SimTime,
    seq: u64,
    next: u32,
    item: Option<T>,
}

/// First and last slot of a bucket's chain (`NIL` when empty).
#[derive(Clone, Copy)]
struct Chain {
    head: u32,
    tail: u32,
}

/// The wheel. Generic over the event payload so the ordering contract can
/// be unit-tested without dragging in packets and agents.
pub(crate) struct TimerWheel<T> {
    /// Tick whose events are currently being dispatched.
    current_tick: u64,
    /// Keys drained from `current_tick`'s bucket, sorted by `(at, seq)`;
    /// `current[cursor..]` are still pending.
    current: Vec<Key>,
    cursor: usize,
    /// Events pushed at or before `current_tick` after it became current.
    same_tick: BinaryHeap<Reverse<Key>>,
    /// Every pending event's payload, plus free slots.
    slots: Vec<Slot<T>>,
    /// Head of the free-slot list.
    free: u32,
    /// Ring buckets; bucket `b` chains the events of the unique tick
    /// `t ≡ b (mod NUM_BUCKETS)` inside the window `(current_tick,
    /// current_tick + NUM_BUCKETS)`.
    chains: Box<[Chain]>,
    /// One bit per bucket: set iff the bucket is non-empty.
    occupied: [u64; WORDS],
    /// Events beyond the wheel window, waiting to cascade in.
    overflow: BinaryHeap<Reverse<Key>>,
    /// Entries currently chained in the ring.
    wheel_len: usize,
    /// Total entries (dispatch buffer + same-tick heap + ring + overflow).
    len: usize,
    /// Times an overflow entry was moved into the ring.
    cascades: u64,
}

impl<T> TimerWheel<T> {
    pub(crate) fn new() -> Self {
        TimerWheel {
            current_tick: 0,
            current: Vec::new(),
            cursor: 0,
            same_tick: BinaryHeap::new(),
            slots: Vec::new(),
            free: NIL,
            chains: vec![
                Chain {
                    head: NIL,
                    tail: NIL
                };
                NUM_BUCKETS as usize
            ]
            .into_boxed_slice(),
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
        let slot = self.alloc(at, seq, item);
        let key = Key { at, seq, slot };
        if tick <= self.current_tick {
            // Lands on the tick being dispatched.
            self.same_tick.push(Reverse(key));
        } else if tick - self.current_tick < NUM_BUCKETS {
            self.link(tick, slot);
        } else {
            self.overflow.push(Reverse(key));
        }
        self.len += 1;
    }

    /// Earliest pending event time, advancing the wheel if needed to find
    /// it (advancing never changes dispatch order).
    pub(crate) fn next_at(&mut self) -> Option<SimTime> {
        loop {
            let head = match (self.current.get(self.cursor), self.same_tick.peek()) {
                (Some(c), Some(Reverse(s))) => Some(c.at.min(s.at)),
                (Some(c), None) => Some(c.at),
                (None, Some(Reverse(s))) => Some(s.at),
                (None, None) => None,
            };
            if head.is_some() || self.len == 0 {
                return head;
            }
            self.advance();
        }
    }

    /// Remove and return the earliest event (ties in insertion order).
    pub(crate) fn pop(&mut self) -> Option<(SimTime, T)> {
        loop {
            let key = match (self.current.get(self.cursor), self.same_tick.peek()) {
                (Some(c), Some(Reverse(s))) if s < c => self.same_tick.pop().map(|r| r.0),
                (Some(&c), _) => {
                    self.cursor += 1;
                    Some(c)
                }
                (None, Some(_)) => self.same_tick.pop().map(|r| r.0),
                (None, None) => None,
            };
            if let Some(key) = key {
                self.len -= 1;
                return Some((key.at, self.release(key.slot)));
            }
            if self.len == 0 {
                return None;
            }
            self.advance();
        }
    }

    /// Store an event in a free slot (or a new one) and return its index.
    fn alloc(&mut self, at: SimTime, seq: u64, item: T) -> u32 {
        let slot = Slot {
            at,
            seq,
            next: NIL,
            item: Some(item),
        };
        if self.free == NIL {
            let i = u32::try_from(self.slots.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("timer wheel slab full");
            self.slots.push(slot);
            i
        } else {
            let i = self.free;
            self.free = self.slots[i as usize].next;
            self.slots[i as usize] = slot;
            i
        }
    }

    /// Move a dispatched event's payload out and free its slot.
    fn release(&mut self, i: u32) -> T {
        let slot = &mut self.slots[i as usize];
        slot.next = self.free;
        self.free = i;
        slot.item.take().expect("released slot holds an event")
    }

    /// Append slot `i` (whose `next` is `NIL`) to `tick`'s bucket chain.
    fn link(&mut self, tick: u64, i: u32) {
        let b = (tick & MASK) as usize;
        let chain = &mut self.chains[b];
        if chain.head == NIL {
            chain.head = i;
            self.occupied[b >> 6] |= 1 << (b & 63);
        } else {
            self.slots[chain.tail as usize].next = i;
        }
        chain.tail = i;
        self.wheel_len += 1;
    }

    /// Jump `current_tick` to the next tick holding events, cascade any
    /// overflow entries that the move brought inside the window, and drain
    /// that tick's bucket (sorted) into the dispatch buffer.
    fn advance(&mut self) {
        debug_assert!(self.cursor == self.current.len() && self.same_tick.is_empty());
        self.current.clear();
        self.cursor = 0;
        let wheel_next = (self.wheel_len > 0).then(|| self.scan_next());
        let over_next = self
            .overflow
            .peek()
            .map(|r| r.0.at.as_nanos() >> TICK_SHIFT);
        self.current_tick = match (wheel_next, over_next) {
            (Some(w), Some(o)) => w.min(o),
            (Some(w), None) => w,
            (None, Some(o)) => o,
            (None, None) => return,
        };
        while let Some(Reverse(top)) = self.overflow.peek() {
            let tick = top.at.as_nanos() >> TICK_SHIFT;
            if tick - self.current_tick >= NUM_BUCKETS {
                break;
            }
            let slot = top.slot;
            self.overflow.pop();
            self.link(tick, slot);
            self.cascades += 1;
        }
        let b = (self.current_tick & MASK) as usize;
        let mut i = std::mem::replace(&mut self.chains[b].head, NIL);
        self.chains[b].tail = NIL;
        while i != NIL {
            let s = &self.slots[i as usize];
            self.current.push(Key {
                at: s.at,
                seq: s.seq,
                slot: i,
            });
            i = s.next;
        }
        self.wheel_len -= self.current.len();
        self.current.sort_unstable();
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

    fn drain(w: &mut TimerWheel<u64>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some((at, item)) = w.pop() {
            out.push((at.as_nanos(), item));
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
        assert_eq!(w.pop().unwrap().1, 1);
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
        assert_eq!(w.pop().unwrap().1, 2);
        assert_eq!(w.next_at(), Some(SimTime::from_millis(500)));
        assert_eq!(w.pop().unwrap().1, 1);
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

    #[test]
    fn slots_are_recycled() {
        // A steady push-one-pop-one schedule reuses one slot forever.
        let mut w = TimerWheel::new();
        for seq in 1..=1000u64 {
            w.push(SimTime::from_nanos(seq * 40_000), seq, seq);
            assert_eq!(w.pop().map(|(_, i)| i), Some(seq));
        }
        assert_eq!(w.slots.len(), 1);
    }

    /// The wheel this one replaced: one `Vec` per bucket, a sorted
    /// `VecDeque` dispatch buffer with sorted inserts for same-tick pushes,
    /// and the same ring geometry, bitmap and cascade rule. Kept only as
    /// the oracle for [`TimerWheel::cascades`], which the engine reports
    /// as `net.sched_cascades` and every campaign fingerprint hashes.
    mod vec_wheel {
        use super::super::{MASK, NUM_BUCKETS, TICK_SHIFT, WORDS};
        use crate::time::SimTime;
        use std::cmp::Reverse;
        use std::collections::{BinaryHeap, VecDeque};

        pub(super) struct VecWheel {
            current_tick: u64,
            current: VecDeque<(SimTime, u64)>,
            buckets: Vec<Vec<(SimTime, u64)>>,
            occupied: [u64; WORDS],
            overflow: BinaryHeap<Reverse<(SimTime, u64)>>,
            wheel_len: usize,
            pub(super) len: usize,
            pub(super) cascades: u64,
        }

        impl VecWheel {
            pub(super) fn new() -> Self {
                VecWheel {
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

            pub(super) fn push(&mut self, at: SimTime, seq: u64) {
                let tick = at.as_nanos() >> TICK_SHIFT;
                if tick <= self.current_tick {
                    let idx = self.current.partition_point(|e| e.0 <= at);
                    self.current.insert(idx, (at, seq));
                } else if tick - self.current_tick < NUM_BUCKETS {
                    self.bucket_insert(tick, (at, seq));
                } else {
                    self.overflow.push(Reverse((at, seq)));
                }
                self.len += 1;
            }

            pub(super) fn next_at(&mut self) -> Option<SimTime> {
                loop {
                    if let Some(e) = self.current.front() {
                        return Some(e.0);
                    }
                    if self.len == 0 {
                        return None;
                    }
                    self.advance();
                }
            }

            pub(super) fn pop(&mut self) -> Option<(SimTime, u64)> {
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

            fn bucket_insert(&mut self, tick: u64, entry: (SimTime, u64)) {
                let b = (tick & MASK) as usize;
                self.buckets[b].push(entry);
                self.occupied[b >> 6] |= 1 << (b & 63);
                self.wheel_len += 1;
            }

            fn advance(&mut self) {
                let wheel_next = (self.wheel_len > 0).then(|| self.scan_next());
                let over_next = self
                    .overflow
                    .peek()
                    .map(|r| r.0 .0.as_nanos() >> TICK_SHIFT);
                self.current_tick = match (wheel_next, over_next) {
                    (Some(w), Some(o)) => w.min(o),
                    (Some(w), None) => w,
                    (None, Some(o)) => o,
                    (None, None) => return,
                };
                while let Some(Reverse(top)) = self.overflow.peek() {
                    let tick = top.0.as_nanos() >> TICK_SHIFT;
                    if tick - self.current_tick >= NUM_BUCKETS {
                        break;
                    }
                    let entry = self.overflow.pop().expect("peeked entry").0;
                    self.bucket_insert(tick, entry);
                    self.cascades += 1;
                }
                let b = (self.current_tick & MASK) as usize;
                let bucket = &mut self.buckets[b];
                bucket.sort_unstable();
                self.wheel_len -= bucket.len();
                self.current.extend(bucket.drain(..));
                self.occupied[b >> 6] &= !(1 << (b & 63));
            }

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

    /// The wheel under test and its two oracles, driven in lockstep.
    struct Trio {
        wheel: TimerWheel<u64>,
        heap: BinaryHeap<Reverse<(u64, u64)>>,
        vec_wheel: vec_wheel::VecWheel,
    }

    impl Trio {
        /// Pop from all three queues; they must hand out the same
        /// `(at, seq)`.
        fn pop(&mut self) -> Result<Option<(u64, u64)>, TestCaseError> {
            let w = self.wheel.pop().map(|(at, item)| (at.as_nanos(), item));
            let h = self.heap.pop().map(|Reverse(x)| x);
            let v = self.vec_wheel.pop().map(|(at, seq)| (at.as_nanos(), seq));
            prop_assert_eq!(w, h);
            prop_assert_eq!(w, v);
            Ok(w)
        }

        /// Peek all three queues; they must agree on the earliest time.
        fn next_at(&mut self) -> Result<Option<u64>, TestCaseError> {
            let w = self.wheel.next_at().map(SimTime::as_nanos);
            let h = self.heap.peek().map(|Reverse((at, _))| *at);
            let v = self.vec_wheel.next_at().map(SimTime::as_nanos);
            prop_assert_eq!(w, h);
            prop_assert_eq!(w, v);
            Ok(w)
        }
    }

    // The wheel against the binary heap the engine started with and the
    // `Vec`-bucket wheel it replaced, on random schedules: all three must
    // agree on every `(at, seq)` they hand out and on their length after
    // every step, and the two wheels on their cascade count.
    proptest! {
        #[test]
        fn random_schedules_match_binary_heap(ops in prop::collection::vec(op(), 1..600)) {
            let mut q = Trio {
                wheel: TimerWheel::new(),
                heap: BinaryHeap::new(),
                vec_wheel: vec_wheel::VecWheel::new(),
            };
            let (mut now, mut seq) = (0u64, 0u64);
            for op in ops {
                match op {
                    Op::Push(d) => {
                        seq += 1;
                        q.wheel.push(SimTime::from_nanos(now + d), seq, seq);
                        q.heap.push(Reverse((now + d, seq)));
                        q.vec_wheel.push(SimTime::from_nanos(now + d), seq);
                    }
                    Op::Pop => {
                        if let Some((at, _)) = q.pop()? {
                            now = at;
                        }
                    }
                    Op::NextAt => {
                        q.next_at()?;
                    }
                    Op::Idle(d) => {
                        let deadline = now + d;
                        while q.next_at()?.is_some_and(|at| at <= deadline) {
                            q.pop()?;
                        }
                        now = deadline;
                    }
                }
                prop_assert_eq!(q.wheel.len(), q.heap.len());
                prop_assert_eq!(q.wheel.len(), q.vec_wheel.len);
                prop_assert_eq!(q.wheel.cascades(), q.vec_wheel.cascades);
            }
            while q.pop()?.is_some() {}
            prop_assert_eq!(q.wheel.cascades(), q.vec_wheel.cascades);
        }
    }
}
