//! Ordered, non-overlapping byte-range sets.
//!
//! Used by the receiver's reassembly buffer and the sender's SACK
//! scoreboard. Ranges are half-open `[start, end)` over absolute stream
//! offsets.

use crate::segment::SackBlocks;
use std::fmt;
use std::ops::Deref;

/// A half-open byte range `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ByteRange {
    /// Inclusive start offset.
    pub start: u64,
    /// Exclusive end offset.
    pub end: u64,
}

impl ByteRange {
    /// Create a range. `start == end` yields an empty range.
    ///
    /// # Panics
    /// Panics if `start > end`.
    pub fn new(start: u64, end: u64) -> Self {
        assert!(start <= end, "inverted range [{start}, {end})");
        ByteRange { start, end }
    }

    /// Number of bytes covered.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Whether the range covers no bytes.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Whether `offset` lies inside the range.
    pub fn contains(&self, offset: u64) -> bool {
        self.start <= offset && offset < self.end
    }

    /// Whether the two ranges overlap or touch (can be merged).
    pub fn mergeable(&self, other: &ByteRange) -> bool {
        self.start <= other.end && other.start <= self.end
    }

    /// The intersection, if non-empty.
    pub fn intersect(&self, other: &ByteRange) -> Option<ByteRange> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        (start < end).then(|| ByteRange::new(start, end))
    }
}

impl fmt::Display for ByteRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

/// At most `N` values stored inline, in push order: the short block lists
/// an ACK carries (SACK blocks, QUIC ACK ranges), so that building an ACK
/// allocates nothing. Reads go through `Deref<Target = [T]>`.
#[derive(Clone, Copy)]
pub struct InlineVec<T, const N: usize> {
    items: [T; N],
    len: usize,
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// An empty list.
    pub fn new() -> Self {
        InlineVec {
            items: [T::default(); N],
            len: 0,
        }
    }

    /// Append a value.
    ///
    /// # Panics
    /// Panics if the list already holds `N` values.
    pub fn push(&mut self, x: T) {
        assert!(self.len < N, "InlineVec full ({N} values)");
        self.items[self.len] = x;
        self.len += 1;
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.items[..self.len]
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for InlineVec<T, N> {
    /// Collect an iterator of at most `N` values (panics on more).
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = Self::new();
        for x in iter {
            v.push(x);
        }
        v
    }
}

impl<T: PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A set of disjoint, sorted byte ranges with merge-on-insert.
///
/// Mutations find the touched window by binary search and splice only
/// that window, so each costs O(log n + k) for k touched ranges (plus the
/// `Vec`'s memmove of the tail); the byte total is kept alongside, so
/// [`RangeSet::total_bytes`] is O(1).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RangeSet {
    ranges: Vec<ByteRange>,
    /// Sum of `ranges`' lengths, kept up to date by every mutation.
    total: u64,
}

impl RangeSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of disjoint ranges.
    pub fn num_ranges(&self) -> usize {
        self.ranges.len()
    }

    /// Total bytes covered.
    pub fn total_bytes(&self) -> u64 {
        self.total
    }

    /// Whether the set covers no bytes.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Iterate the disjoint ranges in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = ByteRange> + '_ {
        self.ranges.iter().copied()
    }

    /// Iterate ranges that end after `offset` (ascending), skipping the
    /// fully-consumed prefix in O(log n).
    pub fn iter_from(&self, offset: u64) -> impl Iterator<Item = ByteRange> + '_ {
        let i = self.ranges.partition_point(|x| x.end <= offset);
        self.ranges[i..].iter().copied()
    }

    /// Insert a range, merging with any overlapping/adjacent ranges.
    /// Returns the number of *new* bytes added (0 if fully duplicate).
    pub fn insert(&mut self, r: ByteRange) -> u64 {
        if r.is_empty() {
            return 0;
        }
        // Find insertion window: all ranges mergeable with r.
        let lo = self.ranges.partition_point(|x| x.end < r.start);
        let hi = self.ranges.partition_point(|x| x.start <= r.end);
        let added = if lo == hi {
            self.ranges.insert(lo, r);
            r.len()
        } else {
            let merged = ByteRange::new(
                self.ranges[lo].start.min(r.start),
                self.ranges[hi - 1].end.max(r.end),
            );
            let absorbed: u64 = self.ranges[lo..hi].iter().map(ByteRange::len).sum();
            self.ranges.splice(lo..hi, std::iter::once(merged));
            merged.len() - absorbed
        };
        self.total += added;
        added
    }

    /// Remove a range from the set (set difference), splitting any range
    /// that straddles it. Returns the number of bytes removed.
    pub fn remove(&mut self, r: ByteRange) -> u64 {
        if r.is_empty() {
            return 0;
        }
        // Window of ranges that intersect r.
        let lo = self.ranges.partition_point(|x| x.end <= r.start);
        let hi = self.ranges.partition_point(|x| x.start < r.end);
        if lo == hi {
            return 0;
        }
        let (first, last) = (self.ranges[lo], self.ranges[hi - 1]);
        let head = (first.start < r.start).then(|| ByteRange::new(first.start, r.start));
        let tail = (r.end < last.end).then(|| ByteRange::new(r.end, last.end));
        let window: u64 = self.ranges[lo..hi].iter().map(ByteRange::len).sum();
        let kept = head.map_or(0, |x| x.len()) + tail.map_or(0, |x| x.len());
        self.ranges.splice(lo..hi, head.into_iter().chain(tail));
        let removed = window - kept;
        self.total -= removed;
        removed
    }

    /// Remove every byte below `offset` (they have been consumed).
    pub fn remove_below(&mut self, offset: u64) {
        let n = self.ranges.partition_point(|x| x.end <= offset);
        self.total -= self.ranges.drain(..n).map(|x| x.len()).sum::<u64>();
        if let Some(first) = self.ranges.first_mut() {
            if first.start < offset {
                self.total -= offset - first.start;
                first.start = offset;
            }
        }
    }

    /// Whether `offset` is covered by the set.
    pub fn contains(&self, offset: u64) -> bool {
        let i = self.ranges.partition_point(|x| x.end <= offset);
        self.ranges.get(i).is_some_and(|r| r.contains(offset))
    }

    /// The end of the contiguous run starting at `offset` (== `offset` if
    /// `offset` itself is not covered). This is the receiver's cumulative
    /// ACK computation.
    pub fn contiguous_end(&self, offset: u64) -> u64 {
        let i = self.ranges.partition_point(|x| x.end < offset);
        match self.ranges.get(i) {
            Some(r) if r.start <= offset => r.end.max(offset),
            _ => offset,
        }
    }

    /// The first gap (uncovered range) at or after `offset`, bounded by
    /// `limit`. Returns `None` if everything in `[offset, limit)` is
    /// covered. This is the sender's "next hole to retransmit" query.
    pub fn first_gap(&self, offset: u64, limit: u64) -> Option<ByteRange> {
        if offset >= limit {
            return None;
        }
        let mut cursor = offset;
        let start_idx = self.ranges.partition_point(|x| x.end <= offset);
        for r in &self.ranges[start_idx..] {
            if r.start > cursor {
                return Some(ByteRange::new(cursor, r.start.min(limit)));
            }
            cursor = cursor.max(r.end);
            if cursor >= limit {
                return None;
            }
        }
        (cursor < limit).then(|| ByteRange::new(cursor, limit))
    }

    /// SACK blocks above `above`: the `max_blocks` ranges with the
    /// highest offsets, highest first, each clipped to start at `above`.
    ///
    /// This is not RFC 2018 §4's order, which puts the block holding the
    /// most recently received segment first: a retransmission that fills
    /// a low hole may never be reported. See the BBR recovery item in
    /// ROADMAP.md; changing the order changes every lossy cell's result.
    ///
    /// # Panics
    /// Panics if `max_blocks` exceeds [`crate::segment::MAX_SACK_BLOCKS`]
    /// and the set has more blocks than that above `above`.
    pub fn sack_blocks(&self, above: u64, max_blocks: usize) -> SackBlocks {
        self.ranges
            .iter()
            .rev()
            .filter(|r| r.end > above)
            .take(max_blocks)
            .map(|r| ByteRange::new(r.start.max(above), r.end))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(a: u64, b: u64) -> ByteRange {
        ByteRange::new(a, b)
    }

    #[test]
    fn basic_range_ops() {
        let x = r(10, 20);
        assert_eq!(x.len(), 10);
        assert!(x.contains(10) && x.contains(19) && !x.contains(20));
        assert_eq!(x.intersect(&r(15, 30)), Some(r(15, 20)));
        assert_eq!(x.intersect(&r(20, 30)), None);
        assert!(x.mergeable(&r(20, 30)), "touching ranges merge");
        assert!(!x.mergeable(&r(21, 30)));
    }

    #[test]
    #[should_panic]
    fn inverted_range_panics() {
        r(5, 4);
    }

    #[test]
    fn insert_disjoint_sorted() {
        let mut s = RangeSet::new();
        assert_eq!(s.insert(r(30, 40)), 10);
        assert_eq!(s.insert(r(10, 20)), 10);
        assert_eq!(s.insert(r(50, 60)), 10);
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, vec![r(10, 20), r(30, 40), r(50, 60)]);
        assert_eq!(s.total_bytes(), 30);
    }

    #[test]
    fn insert_merges_overlaps() {
        let mut s = RangeSet::new();
        s.insert(r(10, 20));
        s.insert(r(30, 40));
        // Bridges both, overlapping each.
        assert_eq!(s.insert(r(15, 35)), 10);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![r(10, 40)]);
    }

    #[test]
    fn insert_merges_adjacent() {
        let mut s = RangeSet::new();
        s.insert(r(10, 20));
        s.insert(r(20, 30));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![r(10, 30)]);
    }

    #[test]
    fn duplicate_insert_adds_nothing() {
        let mut s = RangeSet::new();
        s.insert(r(10, 20));
        assert_eq!(s.insert(r(12, 18)), 0);
        assert_eq!(s.total_bytes(), 10);
    }

    #[test]
    fn empty_insert_ignored() {
        let mut s = RangeSet::new();
        assert_eq!(s.insert(r(5, 5)), 0);
        assert!(s.is_empty());
    }

    #[test]
    fn contiguous_end_cumulative_ack() {
        let mut s = RangeSet::new();
        s.insert(r(0, 10));
        s.insert(r(20, 30));
        assert_eq!(s.contiguous_end(0), 10);
        assert_eq!(s.contiguous_end(10), 10, "offset at gap stays put");
        assert_eq!(s.contiguous_end(20), 30);
        assert_eq!(s.contiguous_end(5), 10);
        assert_eq!(s.contiguous_end(40), 40);
    }

    #[test]
    fn first_gap_queries() {
        let mut s = RangeSet::new();
        s.insert(r(10, 20));
        s.insert(r(30, 40));
        assert_eq!(s.first_gap(0, 50), Some(r(0, 10)));
        assert_eq!(s.first_gap(10, 50), Some(r(20, 30)));
        assert_eq!(s.first_gap(35, 50), Some(r(40, 50)));
        assert_eq!(s.first_gap(10, 20), None, "fully covered window");
        assert_eq!(s.first_gap(50, 50), None, "empty window");
        // Gap clipped by limit.
        assert_eq!(s.first_gap(20, 25), Some(r(20, 25)));
    }

    #[test]
    fn remove_splits_straddled_range() {
        let mut s = RangeSet::new();
        s.insert(r(10, 40));
        assert_eq!(s.remove(r(20, 30)), 10);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![r(10, 20), r(30, 40)]);
        // Removing uncovered bytes is a no-op.
        assert_eq!(s.remove(r(20, 30)), 0);
        // Removal spanning multiple ranges.
        assert_eq!(s.remove(r(15, 35)), 10);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![r(10, 15), r(35, 40)]);
    }

    #[test]
    fn remove_below_trims_and_drops() {
        let mut s = RangeSet::new();
        s.insert(r(10, 20));
        s.insert(r(30, 40));
        s.remove_below(15);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![r(15, 20), r(30, 40)]);
        s.remove_below(25);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![r(30, 40)]);
        s.remove_below(100);
        assert!(s.is_empty());
    }

    #[test]
    fn contains_offset() {
        let mut s = RangeSet::new();
        s.insert(r(10, 20));
        assert!(s.contains(10) && s.contains(19));
        assert!(!s.contains(9) && !s.contains(20));
    }

    #[test]
    fn sack_blocks_newest_first() {
        let mut s = RangeSet::new();
        s.insert(r(10, 20));
        s.insert(r(30, 40));
        s.insert(r(50, 60));
        s.insert(r(70, 80));
        let blocks = s.sack_blocks(0, 3);
        assert_eq!(blocks[..], [r(70, 80), r(50, 60), r(30, 40)]);
        // `above` trims and filters.
        let blocks = s.sack_blocks(55, 3);
        assert_eq!(blocks[..], [r(70, 80), r(55, 60)]);
    }

    #[test]
    fn inline_vec_compares_only_its_values() {
        let mut a: InlineVec<u64, 3> = InlineVec::new();
        a.push(7);
        let b: InlineVec<u64, 3> = [7].into_iter().collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 1);
        assert_eq!(format!("{a:?}"), "[7]");
    }

    #[test]
    #[should_panic(expected = "InlineVec full")]
    fn inline_vec_rejects_overflow() {
        let _: InlineVec<u64, 2> = (0..3).collect();
    }
}
