//! Column storage in fixed-size, `Arc`-shared segments (DESIGN §16).
//!
//! A column's values, and its NULL mask when it has one, are each a list
//! of segments of [`SEGMENT_ROWS`] rows; only the last segment may be
//! shorter. Two columns of equal length therefore split at the same rows,
//! so kernels over several columns walk their segments pairwise.
//!
//! Cloning a [`Segments`] clones one `Arc` per segment and no rows, which
//! is what makes a catalog snapshot cheap. A write makes unshared only the
//! segments it touches, copying each one that a clone still holds (the
//! copy-on-write of `Arc::make_mut`, with room for the rows an append
//! adds): an append copies at most the tail segment, an UPDATE the
//! segments that hold its rows, and a write to segments nothing else
//! holds copies nothing. Every row copied that way is counted in
//! `monet.table.cow_rows`.

use std::ops::Index;
use std::sync::Arc;

/// Rows per segment. On a 20 000-row, 2-INTEGER-column table (release
/// build, 2-core x86-64 host), a 5-row append under a held snapshot took
/// 5.6–6.3 µs at 16 Ki rows against 12.0–12.4 µs at 64 Ki, the cost of
/// copying the tail segment of each column, while full-column reads did
/// not separate the two sizes within the host's noise (EXPERIMENTS C17).
/// A power of two, so locating a row is a shift and a mask.
pub const SEGMENT_ROWS: usize = 1 << 14;

/// The rows of one column (or of its NULL mask) in shared segments.
#[derive(Debug, Clone, PartialEq)]
pub struct Segments<T> {
    segs: Vec<Arc<Vec<T>>>,
}

impl<T> Default for Segments<T> {
    fn default() -> Self {
        Segments { segs: Vec::new() }
    }
}

impl<T> Index<usize> for Segments<T> {
    type Output = T;

    fn index(&self, row: usize) -> &T {
        &self.segs[row / SEGMENT_ROWS][row % SEGMENT_ROWS]
    }
}

impl<T: Clone> From<Vec<T>> for Segments<T> {
    /// Split `rows` at segment boundaries; a vector that fits in one
    /// segment becomes it without a copy.
    fn from(rows: Vec<T>) -> Self {
        if rows.len() <= SEGMENT_ROWS {
            return Segments::from_chunks([rows]);
        }
        let len = rows.len();
        Segments::collect_n(len, rows.into_iter())
    }
}

impl<T: Clone> From<&[T]> for Segments<T> {
    /// Copy `rows` into segments.
    fn from(rows: &[T]) -> Self {
        Segments::from_chunks(rows.chunks(SEGMENT_ROWS).map(<[T]>::to_vec))
    }
}

impl<T: Clone> Segments<T> {
    pub fn new() -> Self {
        Segments::default()
    }

    /// Segments from chunks that already sit at segment boundaries: every
    /// chunk but the last holds [`SEGMENT_ROWS`] rows. Empty chunks are
    /// dropped.
    pub fn from_chunks(chunks: impl IntoIterator<Item = Vec<T>>) -> Self {
        let segs: Vec<Arc<Vec<T>>> = chunks
            .into_iter()
            .filter(|c| !c.is_empty())
            .map(Arc::new)
            .collect();
        debug_assert!(segs.iter().rev().skip(1).all(|s| s.len() == SEGMENT_ROWS));
        Segments { segs }
    }

    /// The first `len` items of `items` in segments sized exactly.
    fn collect_n(len: usize, mut items: impl Iterator<Item = T>) -> Self {
        let mut segs = Vec::with_capacity(len.div_ceil(SEGMENT_ROWS));
        let mut left = len;
        while left > 0 {
            let n = left.min(SEGMENT_ROWS);
            let mut chunk = Vec::with_capacity(n);
            chunk.extend(items.by_ref().take(n));
            debug_assert_eq!(chunk.len(), n, "iterator shorter than its length");
            segs.push(Arc::new(chunk));
            left -= n;
        }
        Segments { segs }
    }

    pub fn len(&self) -> usize {
        match self.segs.last() {
            None => 0,
            Some(last) => (self.segs.len() - 1) * SEGMENT_ROWS + last.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }

    pub fn get(&self, row: usize) -> Option<&T> {
        self.segs
            .get(row / SEGMENT_ROWS)
            .and_then(|s| s.get(row % SEGMENT_ROWS))
    }

    /// The segments themselves, for checks of what a write shares.
    pub fn segments(&self) -> &[Arc<Vec<T>>] {
        &self.segs
    }

    /// Each segment's rows, in row order.
    pub fn slices(&self) -> impl DoubleEndedIterator<Item = &[T]> + ExactSizeIterator + '_ {
        self.segs.iter().map(|s| s.as_slice())
    }

    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.slices().flatten()
    }

    /// `f` over each segment, keeping the boundaries: every chunk `f`
    /// returns holds as many rows as the slice it was given.
    pub fn map_slices<U: Clone>(&self, f: impl FnMut(&[T]) -> Vec<U>) -> Segments<U> {
        Segments::from_chunks(self.slices().map(f))
    }

    /// All rows in one vector. Moves the rows out when the column is one
    /// segment that nothing else shares; otherwise one concatenating copy.
    pub fn into_vec(mut self) -> Vec<T> {
        if self.segs.len() == 1 {
            let only = self.segs.pop().expect("one segment");
            return Arc::try_unwrap(only).unwrap_or_else(|shared| (*shared).clone());
        }
        let mut out = Vec::with_capacity(self.len());
        for s in self.slices() {
            out.extend_from_slice(s);
        }
        out
    }

    /// Segment `k`, unshared: copied first, with room for `extra` more
    /// rows, if anything else holds it.
    fn seg_mut(&mut self, k: usize, extra: usize) -> &mut Vec<T> {
        let seg = &mut self.segs[k];
        // No holder can appear once the count is 1: a clone needs a handle.
        if Arc::strong_count(seg) > 1 {
            let mut copy = Vec::with_capacity(seg.len() + extra);
            copy.extend_from_slice(seg);
            obs::counter!("monet.table.cow_rows").add(copy.len() as u64);
            *seg = Arc::new(copy);
        }
        Arc::get_mut(seg).expect("unshared above")
    }

    pub fn push(&mut self, value: T) {
        self.tail(1).push(value);
    }

    /// Append `items`, filling the tail segment before opening the next
    /// one; a shared tail is copied once, with room for what it takes.
    pub fn extend(&mut self, items: impl IntoIterator<Item = T>) {
        let mut items = items.into_iter().peekable();
        while items.peek().is_some() {
            let extra = items.size_hint().0;
            let tail = self.tail(extra);
            let room = SEGMENT_ROWS - tail.len();
            tail.extend(items.by_ref().take(room));
        }
    }

    /// The tail segment, unshared and with room for `extra` more rows (or
    /// as many as fit), opening a new segment when the last one is full.
    /// Its capacity doubles as it grows but never passes one segment.
    fn tail(&mut self, extra: usize) -> &mut Vec<T> {
        if self.segs.last().is_none_or(|s| s.len() == SEGMENT_ROWS) {
            self.segs.push(Arc::new(Vec::new()));
        }
        let k = self.segs.len() - 1;
        let extra = extra.clamp(1, SEGMENT_ROWS - self.segs[k].len());
        let tail = self.seg_mut(k, extra);
        if tail.capacity() < tail.len() + extra {
            let cap = (tail.len() + extra).max(2 * tail.capacity());
            tail.reserve_exact(cap.min(SEGMENT_ROWS) - tail.len());
        }
        tail
    }

    /// Append `value` until there are `len` rows.
    pub fn resize(&mut self, len: usize, value: T) {
        if let Some(missing) = len.checked_sub(self.len()) {
            self.extend(std::iter::repeat_n(value, missing));
        }
    }

    /// Overwrite row `row`, copying only its segment if it is shared.
    pub fn set(&mut self, row: usize, value: T) {
        self.seg_mut(row / SEGMENT_ROWS, 0)[row % SEGMENT_ROWS] = value;
    }

    /// The rows where `mask` is true.
    pub fn filter(&self, mask: &[bool]) -> Segments<T> {
        let mask = &mask[..mask.len().min(self.len())];
        let kept = mask.iter().filter(|m| **m).count();
        let rows = self
            .slices()
            .zip(mask.chunks(SEGMENT_ROWS))
            .flat_map(|(s, m)| s.iter().zip(m).filter(|(_, m)| **m).map(|(x, _)| x.clone()));
        Segments::collect_n(kept, rows)
    }

    /// Row `perm[i]` as row `i`.
    pub fn permute(&self, perm: &[usize]) -> Segments<T> {
        Segments::collect_n(perm.len(), perm.iter().map(|&i| self[i].clone()))
    }

    /// The first `n` rows, sharing every whole segment among them.
    pub fn take(&self, n: usize) -> Segments<T> {
        let n = n.min(self.len());
        let whole = n / SEGMENT_ROWS;
        let mut segs = self.segs[..whole].to_vec();
        if !n.is_multiple_of(SEGMENT_ROWS) {
            segs.push(Arc::new(self.segs[whole][..n % SEGMENT_ROWS].to_vec()));
        }
        Segments { segs }
    }

    /// [`Segments::filter`] in place. From the segment of the first
    /// removed row on, each segment (copied first if a snapshot shares it)
    /// drops its removed rows, and the later segments' rows move down to
    /// fill the earlier ones up again; the segments before it are not
    /// touched.
    pub fn retain(&mut self, keep: &[bool]) {
        let keep = &keep[..keep.len().min(self.len())];
        let Some(first) = keep.iter().position(|k| !k) else {
            return;
        };
        let start = first / SEGMENT_ROWS;
        for k in start..self.segs.len() {
            self.seg_mut(k, 0);
        }
        let mut segs: Vec<&mut Vec<T>> = self.segs[start..]
            .iter_mut()
            .map(|s| Arc::get_mut(s).expect("made unique above"))
            .collect();
        for (seg, mask) in segs
            .iter_mut()
            .zip(keep[start * SEGMENT_ROWS..].chunks(SEGMENT_ROWS))
        {
            let mut mask = mask.iter();
            seg.retain(|_| mask.next().copied().unwrap_or(false));
        }
        for j in 0..segs.len() {
            let (fill, donors) = segs[j..].split_first_mut().expect("j < len");
            for donor in donors {
                if fill.len() == SEGMENT_ROWS {
                    break;
                }
                let n = (SEGMENT_ROWS - fill.len()).min(donor.len());
                fill.extend(donor.drain(..n));
            }
        }
        while self.segs.last().is_some_and(|s| s.is_empty()) {
            self.segs.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEG: usize = SEGMENT_ROWS;

    fn rows(n: usize) -> Vec<u32> {
        (0..n as u32).collect()
    }

    #[test]
    fn segments_split_at_fixed_rows() {
        for n in [0, 1, SEG - 1, SEG, SEG + 1, 2 * SEG, 2 * SEG + 3] {
            let s = Segments::from(rows(n));
            assert_eq!(s.len(), n);
            assert_eq!(s.segments().len(), n.div_ceil(SEG));
            assert!(s.slices().rev().skip(1).all(|c| c.len() == SEG));
            assert_eq!(s.clone().into_vec(), rows(n));
            assert_eq!(s.iter().copied().collect::<Vec<_>>(), rows(n));
            if n > 0 {
                assert_eq!(s[n - 1], n as u32 - 1);
            }
        }
    }

    #[test]
    fn push_and_resize_fill_the_tail_before_opening_a_segment() {
        let mut s = Segments::from(rows(SEG - 1));
        s.push(7);
        assert_eq!(s.segments().len(), 1);
        s.push(8);
        assert_eq!(s.segments().len(), 2);
        s.resize(3 * SEG + 2, 0);
        assert_eq!(s.len(), 3 * SEG + 2);
        assert!(s.slices().rev().skip(1).all(|c| c.len() == SEG));
        assert_eq!(s[SEG], 8);
        assert_eq!(s[3 * SEG + 1], 0);
        let mut grown = Segments::new();
        for i in 0..2 * SEG as u32 {
            grown.push(i);
        }
        grown.extend(0..SEG as u32 / 2);
        assert!(grown.segments().iter().all(|c| c.capacity() <= SEG));
        assert_eq!(grown.len(), 2 * SEG + SEG / 2);
    }

    #[test]
    fn a_write_copies_only_the_segment_it_touches() {
        let mut s = Segments::from(rows(2 * SEG + 5));
        let snap = s.clone();
        s.set(SEG + 1, 99);
        s.push(100);
        let shared = |a: &Segments<u32>, b: &Segments<u32>, k: usize| {
            Arc::ptr_eq(&a.segments()[k], &b.segments()[k])
        };
        assert!(shared(&s, &snap, 0));
        assert!(!shared(&s, &snap, 1));
        assert!(!shared(&s, &snap, 2));
        assert_eq!(snap.into_vec(), rows(2 * SEG + 5));
        assert_eq!(s[SEG + 1], 99);
        assert_eq!(s[2 * SEG + 5], 100);
    }

    #[test]
    fn filter_retain_permute_and_take_match_flat_vectors() {
        let n = 2 * SEG + 17;
        let flat = rows(n);
        let mask: Vec<bool> = (0..n)
            .map(|i| i % 3 != 1 && !(SEG..SEG + 9).contains(&i))
            .collect();
        let want: Vec<u32> = flat
            .iter()
            .zip(&mask)
            .filter(|(_, m)| **m)
            .map(|(x, _)| *x)
            .collect();
        let s = Segments::from(flat.clone());
        assert_eq!(s.filter(&mask).into_vec(), want);
        let mut r = s.clone();
        r.retain(&mask);
        assert_eq!(r, Segments::from(want.clone()));
        // Retaining everything, or everything after a kept prefix, keeps
        // the untouched segments shared.
        let mut all = s.clone();
        all.retain(&vec![true; n]);
        assert!(Arc::ptr_eq(&all.segments()[2], &s.segments()[2]));
        let mut tail = s.clone();
        let mut cut = vec![true; n];
        cut[SEG + 3] = false;
        tail.retain(&cut);
        assert!(Arc::ptr_eq(&tail.segments()[0], &s.segments()[0]));
        assert_eq!(tail.len(), n - 1);
        let mut none = s.clone();
        none.retain(&vec![false; n]);
        assert!(none.is_empty());
        let perm: Vec<usize> = (0..n).rev().collect();
        let reversed: Vec<u32> = flat.iter().rev().copied().collect();
        assert_eq!(s.permute(&perm).into_vec(), reversed);
        let t = s.take(SEG + 2);
        assert!(Arc::ptr_eq(&t.segments()[0], &s.segments()[0]));
        assert_eq!(t.into_vec(), rows(SEG + 2));
    }
}
