//! Sets of cache-line addresses stored as strided segments.
//!
//! An MVE access is a few strided rows (Section III), so the lines it
//! touches form a handful of arithmetic progressions. [`LineSet`] stores
//! them that way instead of one `u64` per line: at paper scale the 53
//! kernel traces hold 7.5M lines in 158K segments, and 98% of the memory
//! events are a single segment, which the set holds inline.

use std::fmt;

/// One arithmetic progression: `count` lines from `start`, `stride` apart.
/// A segment of one line has stride 0.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Segment {
    start: u64,
    stride: u32,
    count: u32,
}

impl Segment {
    const EMPTY: Segment = Segment {
        start: 0,
        stride: 0,
        count: 0,
    };

    /// Whether `line` is one of this segment's lines.
    fn holds(&self, line: u64) -> bool {
        let Some(d) = line.checked_sub(self.start) else {
            return false;
        };
        if self.stride == 0 {
            d == 0
        } else {
            let stride = u64::from(self.stride);
            d % stride == 0 && d / stride < u64::from(self.count)
        }
    }

    /// Splits the longest progression off the front of `lines`
    /// (non-empty): its first two lines fix the stride, unless they are
    /// more than `u32::MAX` apart.
    ///
    /// # Panics
    ///
    /// Panics if a line it reads is not above the line before it.
    fn split(lines: &[u64]) -> (Segment, &[u64]) {
        let start = lines[0];
        let stride = match lines.get(1) {
            Some(&next) => {
                assert!(next > start, "line set not strictly ascending");
                u32::try_from(next - start).ok()
            }
            None => None,
        };
        let Some(stride) = stride else {
            let one = Segment {
                start,
                stride: 0,
                count: 1,
            };
            return (one, &lines[1..]);
        };
        let mut n = 2;
        while n < lines.len() && n < u32::MAX as usize {
            let (prev, next) = (lines[n - 1], lines[n]);
            if next.checked_sub(prev) != Some(u64::from(stride)) {
                assert!(next > prev, "line set not strictly ascending");
                break;
            }
            n += 1;
        }
        let seg = Segment {
            start,
            stride,
            count: n as u32,
        };
        (seg, &lines[n..])
    }
}

impl fmt::Debug for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}+{}x{}", self.start, self.stride, self.count)
    }
}

/// A sorted, duplicate-free set of cache-line addresses.
///
/// The set is held as its canonical greedy segmentation: each segment
/// starts at the lowest line not yet covered, takes its stride from the
/// gap to the next line (when that gap fits in a `u32`), and runs as far
/// as the gap repeats. Equal sets therefore have equal segments, so `==`
/// is set equality. A set of at most one segment is held inline, without
/// a heap allocation; more segments are one exact-size boxed slice.
#[derive(Clone, PartialEq, Eq)]
pub struct LineSet(Repr);

#[derive(Clone, PartialEq, Eq)]
enum Repr {
    /// No segment ([`Segment::EMPTY`]) or one.
    Inline(Segment),
    /// Two or more segments, ascending.
    Heap(Box<[Segment]>),
}

impl Default for LineSet {
    fn default() -> Self {
        Self::new()
    }
}

impl LineSet {
    /// The empty set.
    pub const fn new() -> Self {
        LineSet(Repr::Inline(Segment::EMPTY))
    }

    /// Encodes strictly ascending lines.
    ///
    /// # Panics
    ///
    /// Panics unless every line is above the line before it.
    pub fn from_sorted(lines: &[u64]) -> Self {
        if lines.is_empty() {
            return Self::new();
        }
        let (first, mut rest) = Segment::split(lines);
        if rest.is_empty() {
            return LineSet(Repr::Inline(first));
        }
        let mut n = 1;
        let mut tail = rest;
        while !tail.is_empty() {
            tail = Segment::split(tail).1;
            n += 1;
        }
        let mut segs = Vec::with_capacity(n);
        segs.push(first);
        while !rest.is_empty() {
            let (seg, tail) = Segment::split(rest);
            segs.push(seg);
            rest = tail;
        }
        LineSet(Repr::Heap(segs.into_boxed_slice()))
    }

    /// The segments, ascending and disjoint in range.
    fn segments(&self) -> &[Segment] {
        match &self.0 {
            Repr::Inline(seg) if seg.count == 0 => &[],
            Repr::Inline(seg) => std::slice::from_ref(seg),
            Repr::Heap(segs) => segs,
        }
    }

    /// Number of lines.
    pub fn len(&self) -> usize {
        self.segments().iter().map(|s| s.count as usize).sum()
    }

    /// Whether the set holds no line.
    pub fn is_empty(&self) -> bool {
        self.segments().is_empty()
    }

    /// The lines in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            segs: self.segments().iter(),
            next: 0,
            stride: 0,
            left: 0,
        }
    }

    /// Whether `line` is in the set: a binary search over the segments.
    pub fn contains(&self, line: u64) -> bool {
        let segs = self.segments();
        let i = segs.partition_point(|s| s.start <= line);
        i > 0 && segs[i - 1].holds(line)
    }

    /// Bytes held out of line: the boxed segments of a set of two or more.
    pub fn heap_bytes(&self) -> usize {
        match &self.0 {
            Repr::Inline(_) => 0,
            Repr::Heap(segs) => std::mem::size_of_val::<[Segment]>(segs),
        }
    }
}

impl fmt::Debug for LineSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.segments()).finish()
    }
}

/// Ascending iterator over a [`LineSet`]'s lines.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    segs: std::slice::Iter<'a, Segment>,
    next: u64,
    stride: u64,
    left: u32,
}

impl Iterator for Iter<'_> {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        if self.left == 0 {
            let seg = self.segs.next()?;
            self.next = seg.start;
            self.stride = u64::from(seg.stride);
            self.left = seg.count;
        }
        let line = self.next;
        self.next = self.next.wrapping_add(self.stride);
        self.left -= 1;
        Some(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Strictly ascending lines from generated gaps: runs of one repeated
    /// gap (strided rows), gaps of 1 (contiguous rows), and now and then a
    /// gap above `u32::MAX`.
    fn lines_from(start: u64, gaps: &[(u64, u64)]) -> Vec<u64> {
        let mut lines = vec![start];
        for &(gap, run) in gaps {
            for _ in 0..run {
                let last = *lines.last().expect("nonempty");
                lines.push(last + gap);
            }
        }
        lines
    }

    fn gap(kind: u64, raw: u64) -> u64 {
        match kind {
            0..=3 => 1,
            4..=6 => 1 + raw % 64,
            7 | 8 => 1 + raw % 5_000,
            _ => u64::from(u32::MAX) - 2 + raw % 5,
        }
    }

    proptest! {
        #[test]
        fn prop_line_set_matches_a_sorted_vec(
            start in 0u64..(1 << 40),
            kinds in proptest::collection::vec(0u64..10, 0..12),
            raws in proptest::collection::vec(any::<u64>(), 12),
            runs in proptest::collection::vec(1u64..40, 12),
            probes in proptest::collection::vec(any::<u64>(), 16),
        ) {
            let gaps: Vec<(u64, u64)> = kinds
                .iter()
                .enumerate()
                .map(|(i, &k)| (gap(k, raws[i]), runs[i]))
                .collect();
            let lines = lines_from(start, &gaps);
            let set = LineSet::from_sorted(&lines);
            // Round trip, length and ascending order.
            prop_assert_eq!(set.iter().collect::<Vec<_>>(), lines.clone());
            prop_assert_eq!(set.len(), lines.len());
            prop_assert!(!set.is_empty());
            // Membership against a binary search: every line, its
            // neighbours, and probes inside and outside the span.
            let span = lines[lines.len() - 1] - lines[0] + 1;
            for &l in &lines {
                for q in [l.wrapping_sub(1), l, l + 1] {
                    prop_assert_eq!(set.contains(q), lines.binary_search(&q).is_ok());
                }
            }
            for &p in &probes {
                for q in [p, lines[0] + p % span] {
                    prop_assert_eq!(set.contains(q), lines.binary_search(&q).is_ok());
                }
            }
            // Equal sets encode equal, however they were built; one line
            // fewer does not (the negative control).
            let again: Vec<u64> = set.iter().collect();
            prop_assert_eq!(LineSet::from_sorted(&again), set.clone());
            let k = (probes[0] % lines.len() as u64) as usize;
            let mut fewer = lines.clone();
            let gone = fewer.remove(k);
            let smaller = LineSet::from_sorted(&fewer);
            prop_assert_ne!(smaller.clone(), set.clone());
            prop_assert!(!smaller.contains(gone));
            prop_assert_eq!(smaller.len(), lines.len() - 1);
            // Two or more segments live out of line, 16 bytes each.
            let segs = set.segments().len();
            let want = if segs > 1 { segs * 16 } else { 0 };
            prop_assert_eq!(set.heap_bytes(), want);
        }
    }

    #[test]
    fn singletons_and_the_empty_set() {
        let empty = LineSet::from_sorted(&[]);
        assert_eq!(empty, LineSet::new());
        assert!(empty.is_empty());
        assert_eq!(empty.len(), 0);
        assert_eq!(empty.iter().next(), None);
        assert!(!empty.contains(0));
        for line in [0, 1, 77, u64::MAX] {
            let one = LineSet::from_sorted(&[line]);
            assert_eq!(one.len(), 1);
            assert_eq!(one.iter().collect::<Vec<_>>(), vec![line]);
            assert!(one.contains(line));
            assert!(!one.contains(line ^ 1));
            assert_ne!(one, empty);
            assert_eq!(one.heap_bytes(), 0);
        }
    }

    #[test]
    fn segmentation_is_greedy_and_canonical() {
        // Two strided rows of contiguous lines: one segment each.
        let rows = LineSet::from_sorted(&[10, 11, 12, 50, 51, 52]);
        assert_eq!(format!("{rows:?}"), "[10+1x3, 50+1x3]");
        // A column: one segment of stride 64.
        let col = LineSet::from_sorted(&[0, 64, 128, 192]);
        assert_eq!(format!("{col:?}"), "[0+64x4]");
        assert_eq!(col.heap_bytes(), 0);
        // The first gap fixes the stride, even when a later split would
        // make fewer segments.
        let greedy = LineSet::from_sorted(&[1, 5, 6, 7]);
        assert_eq!(format!("{greedy:?}"), "[1+4x2, 6+1x2]");
        // A gap above u32::MAX cannot be a stride.
        let far = 1u64 << 33;
        let wide = LineSet::from_sorted(&[0, far, 2 * far]);
        assert_eq!(
            format!("{wide:?}"),
            "[0+0x1, 8589934592+0x1, 17179869184+0x1]"
        );
        assert!(wide.contains(far) && !wide.contains(far / 2));
    }

    #[test]
    #[should_panic(expected = "not strictly ascending")]
    fn unsorted_lines_are_refused() {
        LineSet::from_sorted(&[3, 4, 5, 5]);
    }

    #[test]
    #[should_panic(expected = "not strictly ascending")]
    fn a_stride_that_wraps_is_refused() {
        LineSet::from_sorted(&[u64::MAX - 1, u64::MAX, 0]);
    }
}
