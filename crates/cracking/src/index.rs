//! The cracker index: an ordered table of [`Piece`]s describing how far a
//! cracker column has been partitioned.
//!
//! MonetDB implements this as an AVL tree keyed on crack values; an ordered
//! vector of pieces provides the same O(log P) lookup (P = number of pieces)
//! with better cache behaviour and much simpler invariants, at the cost of
//! O(P) splits — irrelevant in practice because P is small compared to the
//! column (cracking stops paying off once pieces fit in the CPU cache, as
//! the paper's cost model observes).

use crate::piece::Piece;
use crate::Value;

/// One affected piece of a batch pass: the piece's index, the splits the
/// pass produced inside it (`(position, pivot)` pairs, the
/// [`PieceIndex::split_multi_with_sums`] contract), and the pass's
/// per-segment sums — fused kernel sums for unsorted pieces, prefix-sum
/// differences for binary-searched sorted pieces, `None` only for sum-less
/// maintenance.
/// Consumed by [`PieceIndex::split_grouped_with_sums`].
pub type SplitGroup = (usize, Vec<(usize, Value)>, Option<Vec<i128>>);

/// The cracker index: an ordered, contiguous list of pieces covering
/// positions `[0, len)` of a cracker column.
///
/// Invariants (checked by [`PieceIndex::validate`]):
/// * pieces are contiguous and cover exactly `[0, len)`;
/// * pieces are non-empty (unless the column itself is empty);
/// * value bounds are consistent: `pieces[i].hi == pieces[i+1].lo`
///   whenever both are known, the first piece has `lo = None` or a bound
///   that under-approximates the minimum, and bounds never contradict the
///   data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PieceIndex {
    pieces: Vec<Piece>,
    len: usize,
}

impl PieceIndex {
    /// Creates an index with a single unbounded piece covering `[0, len)`.
    #[must_use]
    pub fn new(len: usize) -> Self {
        let pieces = if len == 0 {
            Vec::new()
        } else {
            vec![Piece::unbounded(0, len)]
        };
        PieceIndex { pieces, len }
    }

    /// Creates an index with a single piece covering `[0, len)` that is
    /// flagged as fully sorted. Used after a full (offline) sort, so
    /// subsequent selects resolve boundaries with binary search instead of
    /// data movement.
    #[must_use]
    pub fn new_sorted(len: usize) -> Self {
        let pieces = if len == 0 {
            Vec::new()
        } else {
            vec![Piece {
                sorted: true,
                ..Piece::unbounded(0, len)
            }]
        };
        PieceIndex { pieces, len }
    }

    /// Reassembles an index from decoded pieces (the snapshot-recovery
    /// path). Only the structural invariants that need no data are checked
    /// here — contiguity, coverage of `[0, len)`, bound ordering; callers
    /// must still run [`PieceIndex::validate`] against the recovered data
    /// before trusting cached sums, sorted flags or prefix arrays.
    #[must_use]
    pub fn from_parts(len: usize, pieces: Vec<Piece>) -> Option<Self> {
        if len == 0 {
            return pieces.is_empty().then_some(PieceIndex { pieces, len });
        }
        if pieces.first()?.start != 0 || pieces.last()?.end != len {
            return None;
        }
        for w in pieces.windows(2) {
            if w[0].end != w[1].start {
                return None;
            }
        }
        if pieces.iter().any(|p| p.is_empty() || p.start > p.end) {
            return None;
        }
        Some(PieceIndex { pieces, len })
    }

    /// Number of positions covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the indexed column is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of pieces.
    #[must_use]
    pub fn piece_count(&self) -> usize {
        self.pieces.len()
    }

    /// All pieces, in positional (== value) order.
    #[must_use]
    pub fn pieces(&self) -> &[Piece] {
        &self.pieces
    }

    /// The piece at index `idx` (cloned; the prefix-sum handle, if any, is
    /// shared).
    #[must_use]
    pub fn piece(&self, idx: usize) -> Piece {
        self.pieces[idx].clone()
    }

    /// Average piece length (`len / piece_count`), or 0 for an empty column.
    #[must_use]
    pub fn avg_piece_len(&self) -> f64 {
        if self.pieces.is_empty() {
            0.0
        } else {
            self.len as f64 / self.pieces.len() as f64
        }
    }

    /// Length of the largest piece, or 0 for an empty column.
    #[must_use]
    pub fn max_piece_len(&self) -> usize {
        self.pieces.iter().map(Piece::len).max().unwrap_or(0)
    }

    /// Index of the piece that would hold value `v`.
    ///
    /// Returns the first piece whose exclusive upper bound is greater than
    /// `v` (the last piece for values beyond every bound). For an empty
    /// column there is no piece and `None` is returned.
    #[must_use]
    pub fn find_piece_for_value(&self, v: Value) -> Option<usize> {
        if self.pieces.is_empty() {
            return None;
        }
        let idx = self
            .pieces
            .partition_point(|p| p.hi.is_some_and(|hi| hi <= v));
        Some(idx.min(self.pieces.len() - 1))
    }

    /// Index of the piece containing position `pos`.
    #[must_use]
    pub fn find_piece_for_position(&self, pos: usize) -> Option<usize> {
        if pos >= self.len {
            return None;
        }
        let idx = self.pieces.partition_point(|p| p.end <= pos);
        Some(idx)
    }

    /// Records a crack of piece `idx` at absolute position `split_pos` with
    /// pivot value `pivot`, plus the aggregate-cache sums the fused
    /// partitioning pass produced: positions `[start, split_pos)` hold
    /// values `< pivot` summing to `lo_sum`, positions `[split_pos, end)`
    /// hold values `>= pivot`, and `total_sum` is the sum of the whole
    /// pre-split piece. Both resulting pieces (or the single tightened
    /// piece) get a trusted cached sum.
    ///
    /// If the split lands on the piece's start or end, no new piece is
    /// created; the existing piece's value bound is tightened instead, which
    /// still records the knowledge that `pivot` is a resolved boundary.
    ///
    /// Returns `true` if a new piece was created.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds or `split_pos` lies outside the piece.
    pub fn split_with_sums(
        &mut self,
        idx: usize,
        split_pos: usize,
        pivot: Value,
        lo_sum: i128,
        total_sum: i128,
    ) -> bool {
        self.split_grouped_with_sums(&[(
            idx,
            vec![(split_pos, pivot)],
            Some(vec![lo_sum, total_sum - lo_sum]),
        )]) == 1
    }

    /// Records all splits of one multi-pivot partitioning pass over piece
    /// `idx` in a single piece-table edit (a one-group
    /// [`PieceIndex::split_grouped_with_sums`]).
    ///
    /// `splits` are `(split_pos, pivot)` pairs — each with the same meaning
    /// as in [`PieceIndex::split_with_sums`] — ordered by position, with
    /// strictly increasing pivots. Splits landing on the piece's start or
    /// end tighten its value bounds; interior splits carve the piece into
    /// sub-pieces. `seg_sums[i]` is the sum of the values between split
    /// `i - 1` and split `i` (with `seg_sums[0]` before the first split and
    /// the last entry after the last split — `splits.len() + 1` entries
    /// total). With `None`, newly created pieces get no cached sum (a pure
    /// bound-tightening edit still keeps the existing one, since the piece's
    /// contents are unchanged).
    ///
    /// Returns the number of new pieces created.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds, any split position lies outside the
    /// piece, positions decrease, pivots are not strictly increasing, or
    /// `seg_sums` has the wrong length.
    pub fn split_multi_with_sums(
        &mut self,
        idx: usize,
        splits: &[(usize, Value)],
        seg_sums: Option<&[i128]>,
    ) -> usize {
        self.split_grouped_with_sums(&[(idx, splits.to_vec(), seg_sums.map(<[i128]>::to_vec))])
    }

    /// Records the splits of a whole batch pass over *many* pieces in one
    /// in-place piece-table edit — the one function that writes split
    /// results into the piece vector.
    ///
    /// Each [`SplitGroup`] pairs an affected piece index with the splits
    /// produced inside that piece (same contract as
    /// [`PieceIndex::split_multi_with_sums`], including the optional fused
    /// per-segment sums), strictly ascending by piece index. The edit
    /// expands each group's piece, grows the vector by the number of pieces
    /// created, then walks the groups back to front, rotating each run of
    /// untouched pieces once into its final place and writing the group's
    /// expansion in front of it. No second table is built and no untouched
    /// piece is cloned; pieces before the first group never move.
    ///
    /// Returns the total number of new pieces created.
    ///
    /// # Panics
    ///
    /// Panics under the per-piece conditions of
    /// [`PieceIndex::split_multi_with_sums`], or if `groups` is not
    /// strictly ascending by piece index. Every check runs before the table
    /// is touched.
    pub fn split_grouped_with_sums(&mut self, groups: &[SplitGroup]) -> usize {
        let Some(&(last_idx, _, _)) = groups.last() else {
            return 0;
        };
        assert!(
            groups.windows(2).all(|w| w[0].0 < w[1].0),
            "groups must be strictly ascending by piece index"
        );
        assert!(
            last_idx < self.pieces.len(),
            "group piece index out of bounds"
        );
        // 1. Expand every group's piece, remembering how many pieces each
        //    expansion holds.
        let mut expanded: Vec<Piece> = Vec::with_capacity(
            groups.len() + groups.iter().map(|(_, s, _)| s.len()).sum::<usize>(),
        );
        let mut lens = Vec::with_capacity(groups.len());
        for (idx, splits, seg_sums) in groups {
            let before = expanded.len();
            Self::expand_piece(
                self.pieces[*idx].clone(),
                splits,
                seg_sums.as_deref(),
                &mut expanded,
            );
            lens.push(expanded.len() - before);
        }
        let created = expanded.len() - groups.len();
        // 2. Grow by the number of pieces created.
        let old_len = self.pieces.len();
        self.pieces
            .resize_with(old_len + created, || Piece::unbounded(0, 0));
        // 3. Back to front: original pieces `[0, read_end)` and slots
        //    `[0, write_end)` are not yet placed. The gap between the two is
        //    the number of pieces the groups not yet placed create; rotating
        //    a group's tail run right by the gap moves that run into its
        //    final slots and leaves free slots (and the group's stale
        //    original piece) in front of it, where the expansion goes.
        let (mut read_end, mut write_end) = (old_len, old_len + created);
        for ((idx, _, _), len) in groups.iter().zip(lens).rev() {
            let gap = write_end - read_end;
            if gap > 0 {
                self.pieces[idx + 1..write_end].rotate_right(gap);
            }
            let first = idx + 1 + gap - len;
            let from = expanded.len() - len;
            for (slot, piece) in self.pieces[first..first + len]
                .iter_mut()
                .zip(expanded.drain(from..))
            {
                *slot = piece;
            }
            read_end = *idx;
            write_end = first;
        }
        debug_assert_eq!(read_end, write_end, "every created piece was placed");
        created
    }

    /// Expands one piece into the pieces its splits produce, pushing them
    /// onto `out` (step 1 of [`PieceIndex::split_grouped_with_sums`]).
    /// Pushes the piece unchanged (modulo bound tightening) when no interior
    /// split exists.
    ///
    /// `seg_sums`, when present, holds one sum per kernel segment
    /// (`splits.len() + 1` entries, segment `i` ending at split `i`); each
    /// output piece's cached sum is the total of the segments it absorbs.
    /// Without sums, created pieces get `sum: None` and a pure tightening
    /// keeps the piece's existing cached sum (its contents are unchanged).
    ///
    /// A *sorted* piece's shared prefix-sum array is inherited by every
    /// output piece: splitting a sorted piece is binary search, so no data
    /// moved and the absolute-position array stays exact for all
    /// descendants. An unsorted piece was just permuted by a kernel pass, so
    /// its outputs never inherit a prefix (it would be stale).
    fn expand_piece(
        p: Piece,
        splits: &[(usize, Value)],
        seg_sums: Option<&[i128]>,
        out: &mut Vec<Piece>,
    ) {
        assert!(
            splits
                .windows(2)
                .all(|w| w[0].0 <= w[1].0 && w[0].1 < w[1].1),
            "splits must have non-decreasing positions and strictly increasing pivots"
        );
        for &(split_pos, _) in splits {
            assert!(
                split_pos >= p.start && split_pos <= p.end,
                "split position {split_pos} outside piece [{}, {})",
                p.start,
                p.end
            );
        }
        if let Some(sums) = seg_sums {
            assert_eq!(
                sums.len(),
                splits.len() + 1,
                "one segment sum per kernel segment"
            );
        }
        // Walk the splits left to right. `cur_start`/`cur_lo` describe the
        // sub-piece currently open on the left; `end_hi` collects
        // upper-bound tightenings from splits that land on the piece's end
        // (the smallest such pivot wins); `acc` collects the segment sums
        // absorbed into the currently open sub-piece.
        let inherited_prefix = if p.sorted { p.prefix.clone() } else { None };
        let first_out = out.len();
        let mut cur_start = p.start;
        let mut cur_lo = p.lo;
        let mut end_hi = p.hi;
        let mut acc = 0i128;
        for (j, &(split_pos, pivot)) in splits.iter().enumerate() {
            if let Some(sums) = seg_sums {
                acc += sums[j];
            }
            if split_pos == cur_start {
                // Empty left side: every remaining value is >= pivot.
                cur_lo = Some(cur_lo.map_or(pivot, |lo| lo.max(pivot)));
            } else if split_pos == p.end {
                // Every remaining value is < pivot. Pivots increase, so the
                // first end-split carries the tightest bound. The segment
                // ending here stays in `acc` for the final piece.
                end_hi = Some(end_hi.map_or(pivot, |hi| hi.min(pivot)));
            } else {
                out.push(Piece {
                    start: cur_start,
                    end: split_pos,
                    lo: cur_lo,
                    hi: Some(pivot),
                    sorted: p.sorted,
                    sum: seg_sums.map(|_| acc),
                    prefix: inherited_prefix.clone(),
                });
                acc = 0;
                cur_start = split_pos;
                cur_lo = Some(pivot);
            }
        }
        let final_sum = match seg_sums {
            Some(sums) => Some(acc + sums[splits.len()]),
            // Pure tightening without kernel sums: contents unchanged, the
            // cached sum (if any) stays trusted.
            None if out.len() == first_out => p.sum,
            None => None,
        };
        out.push(Piece {
            start: cur_start,
            end: p.end,
            lo: cur_lo,
            hi: end_hi,
            sorted: p.sorted,
            sum: final_sum,
            prefix: inherited_prefix,
        });
    }

    /// Returns the resolved boundary position for value `v`, if the index
    /// already knows where values `>= v` begin without any data movement.
    #[must_use]
    pub fn resolved_boundary(&self, v: Value) -> Option<usize> {
        let idx = self.find_piece_for_value(v)?;
        let p = &self.pieces[idx];
        match p.lo {
            Some(lo) if v <= lo => Some(p.start),
            _ => {
                // A value beyond the last piece's (known) upper bound starts
                // after the end of the column.
                if idx == self.pieces.len() - 1 {
                    if let Some(hi) = p.hi {
                        if v >= hi {
                            return Some(p.end);
                        }
                    }
                }
                None
            }
        }
    }

    /// Grows the covered range by `extra` positions, extending the last
    /// piece (or creating one for a previously empty index). Used when
    /// pending inserts are merged into the cracker column.
    pub fn grow(&mut self, extra: usize) {
        if extra == 0 {
            return;
        }
        let new_len = self.len + extra;
        if let Some(last) = self.pieces.last_mut() {
            last.end = new_len;
            // The appended values may violate the last piece's bounds; the
            // caller (ripple insertion) is responsible for placing values in
            // admissible pieces, so bounds stay as they are. The cached sum
            // and prefix, however, no longer cover the piece's extent —
            // invalidate them (ripple insertion restores/patches them once
            // the appended value has been rippled into its target piece).
            last.sum = None;
            last.prefix = None;
        } else {
            self.pieces.push(Piece::unbounded(0, new_len));
        }
        self.len = new_len;
    }

    /// Shrinks the covered range by `removed` positions from the end,
    /// shrinking (and possibly removing) trailing pieces. Used when pending
    /// deletes are merged.
    pub fn shrink(&mut self, removed: usize) {
        let new_len = self.len.saturating_sub(removed);
        while let Some(last) = self.pieces.last_mut() {
            if last.start >= new_len {
                self.pieces.pop();
            } else {
                if last.end != new_len {
                    // Truncation drops values the cached sum still counts.
                    // A prefix-sum array survives: the surviving positions'
                    // entries are untouched by dropping the tail, so the
                    // truncated piece keeps the array — and re-derives its
                    // sum from it instead of losing the cache.
                    last.end = new_len;
                    last.sum = last
                        .prefix
                        .as_ref()
                        .filter(|p| p.covers(&(last.start..new_len)))
                        .map(|p| p.sum_range(last.start..new_len));
                }
                break;
            }
        }
        self.len = new_len;
    }

    /// (Internal) direct access to the piece table for the ripple
    /// insert/delete algorithms in the updates module.
    pub(crate) fn pieces_mut(&mut self) -> &mut Vec<Piece> {
        &mut self.pieces
    }

    /// Removes empty pieces (produced by ripple deletion) while keeping the
    /// remaining pieces contiguous.
    pub(crate) fn drop_empty_pieces(&mut self) {
        self.pieces.retain(|p| !p.is_empty());
        if self.pieces.is_empty() && self.len > 0 {
            self.pieces.push(Piece::unbounded(0, self.len));
        }
    }

    /// (Internal) overrides the covered length after the updates module has
    /// adjusted piece extents directly.
    pub(crate) fn set_len(&mut self, len: usize) {
        self.len = len;
        if len == 0 {
            self.pieces.clear();
        }
    }

    /// Checks all structural invariants against the cracked data.
    #[must_use]
    pub fn validate(&self, data: &[Value]) -> bool {
        if data.len() != self.len {
            return false;
        }
        if self.pieces.is_empty() {
            return self.len == 0;
        }
        if self.pieces[0].start != 0 || self.pieces.last().is_none_or(|p| p.end != self.len) {
            return false;
        }
        for w in self.pieces.windows(2) {
            if w[0].end != w[1].start {
                return false;
            }
            if let (Some(hi), Some(lo)) = (w[0].hi, w[1].lo) {
                if hi > lo {
                    return false;
                }
            }
        }
        self.pieces
            .iter()
            .all(|p| !p.is_empty() && p.validate(data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sum-less one-group edit: the splits of one pass over piece
    /// `piece`, recorded without kernel sums. Returns the pieces created.
    fn split_multi(idx: &mut PieceIndex, piece: usize, splits: &[(usize, Value)]) -> usize {
        idx.split_grouped_with_sums(&[(piece, splits.to_vec(), None)])
    }

    /// A sum-less single split; `true` if it created a piece.
    fn split(idx: &mut PieceIndex, piece: usize, pos: usize, pivot: Value) -> bool {
        split_multi(idx, piece, &[(pos, pivot)]) == 1
    }

    #[test]
    fn new_index_single_unbounded_piece() {
        let idx = PieceIndex::new(10);
        assert_eq!(idx.len(), 10);
        assert_eq!(idx.piece_count(), 1);
        assert_eq!(idx.avg_piece_len(), 10.0);
        assert_eq!(idx.max_piece_len(), 10);
        assert!(!idx.is_empty());
        let data = vec![5; 10];
        assert!(idx.validate(&data));
    }

    #[test]
    fn empty_index_has_no_pieces() {
        let idx = PieceIndex::new(0);
        assert!(idx.is_empty());
        assert_eq!(idx.piece_count(), 0);
        assert_eq!(idx.find_piece_for_value(5), None);
        assert_eq!(idx.find_piece_for_position(0), None);
        assert!(idx.validate(&[]));
    }

    #[test]
    fn split_creates_pieces_with_bounds() {
        // data conceptually cracked at 50: [10, 20, 30 | 60, 70]
        let mut idx = PieceIndex::new(5);
        assert!(split(&mut idx, 0, 3, 50));
        assert_eq!(idx.piece_count(), 2);
        let p0 = idx.piece(0);
        let p1 = idx.piece(1);
        assert_eq!((p0.start, p0.end, p0.lo, p0.hi), (0, 3, None, Some(50)));
        assert_eq!((p1.start, p1.end, p1.lo, p1.hi), (3, 5, Some(50), None));
        let data = vec![10, 20, 30, 60, 70];
        assert!(idx.validate(&data));
    }

    #[test]
    fn split_at_edges_tightens_bounds_without_new_piece() {
        let mut idx = PieceIndex::new(4);
        // Everything >= 5: split position == start
        assert!(!split(&mut idx, 0, 0, 5));
        assert_eq!(idx.piece_count(), 1);
        assert_eq!(idx.piece(0).lo, Some(5));
        // Everything < 100: split position == end
        assert!(!split(&mut idx, 0, 4, 100));
        assert_eq!(idx.piece_count(), 1);
        assert_eq!(idx.piece(0).hi, Some(100));
        // Bounds only ever tighten.
        assert!(!split(&mut idx, 0, 0, 3));
        assert_eq!(idx.piece(0).lo, Some(5));
        assert!(!split(&mut idx, 0, 4, 200));
        assert_eq!(idx.piece(0).hi, Some(100));
    }

    #[test]
    fn find_piece_for_value_uses_bounds() {
        let mut idx = PieceIndex::new(10);
        split(&mut idx, 0, 4, 100);
        split(&mut idx, 1, 7, 200);
        // pieces: [0,4) <100, [4,7) [100,200), [7,10) >=200
        assert_eq!(idx.find_piece_for_value(50), Some(0));
        assert_eq!(idx.find_piece_for_value(100), Some(1));
        assert_eq!(idx.find_piece_for_value(150), Some(1));
        assert_eq!(idx.find_piece_for_value(200), Some(2));
        assert_eq!(idx.find_piece_for_value(10_000), Some(2));
        assert_eq!(idx.find_piece_for_value(-5), Some(0));
    }

    #[test]
    fn find_piece_for_position_walks_extents() {
        let mut idx = PieceIndex::new(10);
        split(&mut idx, 0, 4, 100);
        assert_eq!(idx.find_piece_for_position(0), Some(0));
        assert_eq!(idx.find_piece_for_position(3), Some(0));
        assert_eq!(idx.find_piece_for_position(4), Some(1));
        assert_eq!(idx.find_piece_for_position(9), Some(1));
        assert_eq!(idx.find_piece_for_position(10), None);
    }

    #[test]
    fn resolved_boundary_detects_known_pivots() {
        let mut idx = PieceIndex::new(10);
        assert_eq!(idx.resolved_boundary(100), None);
        split(&mut idx, 0, 4, 100);
        assert_eq!(idx.resolved_boundary(100), Some(4));
        assert_eq!(idx.resolved_boundary(50), None);
        // Smaller than every known bound of piece 0? piece 0 has lo None, so unknown.
        assert_eq!(idx.resolved_boundary(-5), None);
        // Beyond the last piece's known upper bound.
        split(&mut idx, 1, 10, 500);
        assert_eq!(idx.resolved_boundary(600), Some(10));
    }

    #[test]
    fn split_preserves_sorted_flag() {
        let mut idx = PieceIndex::new(6);
        // mark the single piece sorted
        let mut p = idx.piece(0);
        p.sorted = true;
        idx = PieceIndex {
            pieces: vec![p],
            len: 6,
        };
        split(&mut idx, 0, 3, 10);
        assert!(idx.piece(0).sorted);
        assert!(idx.piece(1).sorted);
    }

    #[test]
    fn grow_and_shrink_adjust_extents() {
        let mut idx = PieceIndex::new(5);
        split(&mut idx, 0, 2, 10);
        idx.grow(3);
        assert_eq!(idx.len(), 8);
        assert_eq!(idx.piece(idx.piece_count() - 1).end, 8);
        idx.shrink(4);
        assert_eq!(idx.len(), 4);
        assert_eq!(idx.piece_count(), 2);
        assert_eq!(idx.piece(1).end, 4);
        // shrinking past a whole piece removes it
        idx.shrink(3);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.piece_count(), 1);
    }

    #[test]
    fn grow_on_empty_index_creates_piece() {
        let mut idx = PieceIndex::new(0);
        idx.grow(4);
        assert_eq!(idx.len(), 4);
        assert_eq!(idx.piece_count(), 1);
    }

    #[test]
    fn validate_rejects_inconsistent_indexes() {
        let mut idx = PieceIndex::new(5);
        split(&mut idx, 0, 3, 50);
        let data_ok = vec![10, 20, 30, 60, 70];
        let data_bad = vec![10, 20, 99, 60, 70];
        assert!(idx.validate(&data_ok));
        assert!(!idx.validate(&data_bad));
        assert!(!idx.validate(&data_ok[..4]));
    }

    #[test]
    #[should_panic(expected = "outside piece")]
    fn split_outside_piece_panics() {
        let mut idx = PieceIndex::new(5);
        split(&mut idx, 0, 3, 50);
        split(&mut idx, 0, 4, 20);
    }

    #[test]
    fn split_multi_matches_sequential_splits() {
        // data conceptually: [10, 20, 30, 60, 70, 90]
        let data = vec![10, 20, 30, 60, 70, 90];
        let splits = [(2usize, 25i64), (3, 50), (5, 80)];
        let mut batched = PieceIndex::new(6);
        assert_eq!(split_multi(&mut batched, 0, &splits), 3);
        let mut sequential = PieceIndex::new(6);
        // Sequential application must target the piece holding each value.
        for &(pos, pivot) in &splits {
            let i = sequential.find_piece_for_value(pivot).unwrap();
            split(&mut sequential, i, pos, pivot);
        }
        assert_eq!(batched, sequential);
        assert!(batched.validate(&data));
        assert_eq!(batched.piece_count(), 4);
    }

    #[test]
    fn split_multi_edge_splits_tighten_bounds() {
        // All values >= 5 and < 100: both splits land on the edges.
        let mut idx = PieceIndex::new(4);
        assert_eq!(split_multi(&mut idx, 0, &[(0, 5), (4, 100)]), 0);
        assert_eq!(idx.piece_count(), 1);
        assert_eq!(idx.piece(0).lo, Some(5));
        assert_eq!(idx.piece(0).hi, Some(100));
        // Bounds only ever tighten; with increasing pivots at the end, the
        // smallest end-pivot wins.
        assert_eq!(split_multi(&mut idx, 0, &[(0, 3), (4, 60), (4, 200)]), 0);
        assert_eq!(idx.piece(0).lo, Some(5));
        assert_eq!(idx.piece(0).hi, Some(60));
    }

    #[test]
    fn split_multi_same_position_different_pivots() {
        // data conceptually: [10, 20 | 60, 70]; pivots 30 and 50 both
        // resolve to position 2 — one piece boundary, tightest lo bound.
        let data = vec![10, 20, 60, 70];
        let mut idx = PieceIndex::new(4);
        assert_eq!(split_multi(&mut idx, 0, &[(2, 30), (2, 50)]), 1);
        assert_eq!(idx.piece_count(), 2);
        assert_eq!(idx.piece(0).hi, Some(30));
        assert_eq!(idx.piece(1).lo, Some(50));
        assert!(idx.validate(&data));
    }

    #[test]
    fn split_multi_empty_is_noop() {
        let mut idx = PieceIndex::new(5);
        assert_eq!(split_multi(&mut idx, 0, &[]), 0);
        assert_eq!(idx.piece_count(), 1);
    }

    #[test]
    fn split_multi_preserves_sorted_flag() {
        let mut idx = PieceIndex::new_sorted(6);
        assert_eq!(split_multi(&mut idx, 0, &[(2, 10), (4, 20)]), 2);
        assert!(idx.pieces().iter().all(|p| p.sorted));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn split_multi_rejects_unordered_pivots() {
        let mut idx = PieceIndex::new(5);
        split_multi(&mut idx, 0, &[(1, 50), (2, 40)]);
    }

    #[test]
    fn split_with_sums_caches_both_sides() {
        // data conceptually cracked at 50: [10, 20, 30 | 60, 70]
        let data = vec![10, 20, 30, 60, 70];
        let mut idx = PieceIndex::new(5);
        assert!(idx.split_with_sums(0, 3, 50, 60, 190));
        assert_eq!(idx.piece(0).sum, Some(60));
        assert_eq!(idx.piece(1).sum, Some(130));
        assert!(idx.validate(&data));
        // A plain split leaves the new pieces' sums unknown.
        let mut plain = PieceIndex::new(5);
        split(&mut plain, 0, 3, 50);
        assert_eq!(plain.piece(0).sum, None);
        assert_eq!(plain.piece(1).sum, None);
    }

    #[test]
    fn split_multi_with_sums_accumulates_segments() {
        // data conceptually: [10, 20 | 30 | 60, 70 | 90]
        let data = vec![10, 20, 30, 60, 70, 90];
        let splits = [(2usize, 25i64), (3, 50), (5, 80)];
        let seg_sums = [30i128, 30, 130, 90];
        let mut idx = PieceIndex::new(6);
        assert_eq!(idx.split_multi_with_sums(0, &splits, Some(&seg_sums)), 3);
        let sums: Vec<Option<i128>> = idx.pieces().iter().map(|p| p.sum).collect();
        assert_eq!(sums, vec![Some(30), Some(30), Some(130), Some(90)]);
        assert!(idx.validate(&data));
    }

    #[test]
    fn split_multi_with_sums_edge_splits_fold_into_survivor() {
        // Both splits land on the edges: one piece survives, and the fused
        // pass still teaches it its total sum.
        let data = vec![10, 20, 30, 40];
        let mut idx = PieceIndex::new(4);
        assert_eq!(
            idx.split_multi_with_sums(0, &[(0, 5), (4, 100)], Some(&[0, 100, 0])),
            0
        );
        assert_eq!(idx.piece_count(), 1);
        assert_eq!(idx.piece(0).sum, Some(100));
        assert!(idx.validate(&data));
        // Duplicate positions: the empty middle segment contributes zero.
        let data = vec![10, 20, 60, 70];
        let mut idx = PieceIndex::new(4);
        assert_eq!(
            idx.split_multi_with_sums(0, &[(2, 30), (2, 50)], Some(&[30, 0, 130])),
            1
        );
        assert_eq!(idx.piece(0).sum, Some(30));
        assert_eq!(idx.piece(1).sum, Some(130));
        assert!(idx.validate(&data));
    }

    #[test]
    fn tightening_without_sums_keeps_existing_cache() {
        let data = vec![10, 20, 30, 40];
        let mut idx = PieceIndex::new(4);
        idx.split_multi_with_sums(0, &[(0, 5)], Some(&[0, 100]));
        assert_eq!(idx.piece(0).sum, Some(100));
        // A later sum-less tightening must not drop the trusted cache.
        assert!(!split(&mut idx, 0, 4, 200));
        assert_eq!(idx.piece(0).sum, Some(100));
        // But a sum-less *interior* split invalidates (contents unknown).
        assert!(split(&mut idx, 0, 2, 25));
        assert_eq!(idx.piece(0).sum, None);
        assert_eq!(idx.piece(1).sum, None);
        assert!(idx.validate(&data));
    }

    #[test]
    fn split_grouped_with_sums_mixes_summed_and_unsummed_groups() {
        // data conceptually: [10, 20 | 60, 70] then both pieces split again.
        let data = vec![10, 20, 60, 70];
        let mut idx = PieceIndex::new(4);
        idx.split_with_sums(0, 2, 50, 30, 160);
        let created = idx.split_grouped_with_sums(&[
            (0, vec![(1, 15)], Some(vec![10, 20])),
            (1, vec![(3, 65)], None),
        ]);
        assert_eq!(created, 2);
        let sums: Vec<Option<i128>> = idx.pieces().iter().map(|p| p.sum).collect();
        assert_eq!(sums, vec![Some(10), Some(20), None, None]);
        assert!(idx.validate(&data));
    }

    /// The four pieces `[0,2) <25`, `[2,4) [25,45)`, `[4,6) [45,65)` and
    /// `[6,8) >=65` over `[10, 20, .., 80]`, without cached sums.
    fn four_pieces() -> (PieceIndex, Vec<Value>) {
        let data = vec![10, 20, 30, 40, 50, 60, 70, 80];
        let mut idx = PieceIndex::new(8);
        split(&mut idx, 0, 2, 25);
        split(&mut idx, 1, 4, 45);
        split(&mut idx, 2, 6, 65);
        assert_eq!(idx.piece_count(), 4);
        (idx, data)
    }

    /// `(start, end, lo, hi, sum)` of every piece.
    type Shape = (usize, usize, Option<Value>, Option<Value>, Option<i128>);

    fn shape(idx: &PieceIndex) -> Vec<Shape> {
        idx.pieces()
            .iter()
            .map(|p| (p.start, p.end, p.lo, p.hi, p.sum))
            .collect()
    }

    #[test]
    fn grouped_edit_splits_the_first_and_the_last_piece() {
        let (mut idx, data) = four_pieces();
        let created = idx.split_grouped_with_sums(&[
            (0, vec![(1, 15)], Some(vec![10, 20])),
            (3, vec![(7, 75)], Some(vec![70, 80])),
        ]);
        assert_eq!(created, 2);
        assert_eq!(
            shape(&idx),
            vec![
                (0, 1, None, Some(15), Some(10)),
                (1, 2, Some(15), Some(25), Some(20)),
                (2, 4, Some(25), Some(45), None),
                (4, 6, Some(45), Some(65), None),
                (6, 7, Some(65), Some(75), Some(70)),
                (7, 8, Some(75), None, Some(80)),
            ]
        );
        assert!(idx.validate(&data));
    }

    #[test]
    fn grouped_edit_mixes_tightening_and_creating_groups() {
        let (mut idx, data) = four_pieces();
        let created = idx.split_grouped_with_sums(&[
            // Tightens piece 0's lower bound only.
            (0, vec![(0, 5)], None),
            (1, vec![(3, 35)], Some(vec![30, 40])),
            // Tightens piece 2's upper bound only.
            (2, vec![(6, 64)], None),
            (3, vec![(7, 75)], Some(vec![70, 80])),
        ]);
        assert_eq!(created, 2);
        assert_eq!(
            shape(&idx),
            vec![
                (0, 2, Some(5), Some(25), None),
                (2, 3, Some(25), Some(35), Some(30)),
                (3, 4, Some(35), Some(45), Some(40)),
                (4, 6, Some(45), Some(64), None),
                (6, 7, Some(65), Some(75), Some(70)),
                (7, 8, Some(75), None, Some(80)),
            ]
        );
        assert!(idx.validate(&data));
        // Tightening-only groups create nothing and move nothing.
        let before = shape(&idx);
        assert_eq!(
            idx.split_grouped_with_sums(&[(0, vec![(2, 25)], None), (5, vec![(7, 75)], None)]),
            0
        );
        assert_eq!(shape(&idx), before);
    }

    #[test]
    fn grouped_edit_hands_a_sorted_prefix_to_every_child() {
        use holistic_storage::PrefixSums;
        use std::sync::Arc;

        // An unsorted piece [0,3) and a sorted piece [3,6) carrying a
        // prefix array; both are split in one edit.
        let data = vec![10, 20, 30, 60, 70, 90];
        let prefix = Arc::new(PrefixSums::build(3, &data[3..]));
        let pieces = vec![
            Piece {
                hi: Some(50),
                prefix: Some(Arc::clone(&prefix)),
                ..Piece::unbounded(0, 3)
            },
            Piece {
                lo: Some(50),
                sorted: true,
                prefix: Some(Arc::clone(&prefix)),
                ..Piece::unbounded(3, 6)
            },
        ];
        let mut idx = PieceIndex::from_parts(6, pieces).expect("contiguous");
        let created = idx.split_grouped_with_sums(&[
            (0, vec![(1, 15)], Some(vec![10, 50])),
            (1, vec![(4, 65), (5, 80)], Some(vec![60, 70, 90])),
        ]);
        assert_eq!(created, 3);
        assert_eq!(idx.piece_count(), 5);
        let (unsorted, sorted) = idx.pieces().split_at(2);
        assert!(unsorted.iter().all(|p| !p.sorted && p.prefix.is_none()));
        for p in sorted {
            assert!(p.sorted);
            let shared = p.prefix.as_ref().expect("inherited");
            assert!(Arc::ptr_eq(shared, &prefix));
            assert!(p.covering_prefix().is_some());
        }
        assert!(idx.validate(&data));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn grouped_edit_rejects_an_index_past_the_table() {
        let (mut idx, _) = four_pieces();
        idx.split_grouped_with_sums(&[(4, vec![(8, 90)], None)]);
    }

    #[test]
    fn sorted_splits_share_the_prefix_and_unsorted_splits_drop_it() {
        use holistic_storage::PrefixSums;
        use std::sync::Arc;

        let data = vec![10, 20, 30, 60, 70, 90];
        let mut idx = PieceIndex::new_sorted(6);
        let prefix = Arc::new(PrefixSums::build(0, &data));
        idx.pieces_mut()[0].prefix = Some(Arc::clone(&prefix));
        split_multi(&mut idx, 0, &[(3, 50), (5, 80)]);
        assert_eq!(idx.piece_count(), 3);
        for (i, p) in idx.pieces().iter().enumerate() {
            assert!(p.sorted, "piece {i}");
            let shared = p.prefix.as_ref().expect("inherited");
            assert!(Arc::ptr_eq(shared, &prefix), "piece {i} shares the array");
            assert!(p.covering_prefix().is_some());
        }
        assert!(idx.validate(&data));

        // An unsorted piece never hands a prefix down (its data was just
        // permuted by the kernel pass that produced the splits).
        let mut unsorted = PieceIndex::new(6);
        unsorted.pieces_mut()[0].prefix = Some(Arc::clone(&prefix));
        split(&mut unsorted, 0, 3, 50);
        assert!(unsorted.pieces().iter().all(|p| p.prefix.is_none()));
    }

    #[test]
    fn grow_drops_the_prefix_and_shrink_keeps_it() {
        use holistic_storage::PrefixSums;
        use std::sync::Arc;

        let data = vec![10, 20, 30, 60];
        let mut idx = PieceIndex::new_sorted(4);
        idx.pieces_mut()[0].prefix = Some(Arc::new(PrefixSums::build(0, &data)));
        idx.pieces_mut()[0].sum = Some(120);
        idx.grow(1);
        assert!(idx.piece(0).prefix.is_none(), "grow extends past the array");
        assert_eq!(idx.piece(0).sum, None);

        // Truncation keeps a covering prefix and re-derives the sum.
        let mut idx = PieceIndex::new_sorted(4);
        idx.pieces_mut()[0].prefix = Some(Arc::new(PrefixSums::build(0, &data)));
        idx.pieces_mut()[0].sum = Some(120);
        idx.shrink(1);
        assert!(idx.piece(0).prefix.is_some());
        assert_eq!(idx.piece(0).sum, Some(60));
        assert!(idx.validate(&data[..3]));
    }

    #[test]
    fn grow_and_shrink_invalidate_affected_sums() {
        let data = vec![10, 20, 60, 70];
        let mut idx = PieceIndex::new(4);
        idx.split_with_sums(0, 2, 50, 30, 160);
        assert_eq!(idx.piece(1).sum, Some(130));
        idx.grow(1);
        // Only the extended (last) piece loses its cache.
        assert_eq!(idx.piece(0).sum, Some(30));
        assert_eq!(idx.piece(1).sum, None);
        idx.shrink(1);
        assert_eq!(idx.piece(0).sum, Some(30));
        assert!(idx.validate(&data));
        // Truncating into a piece with a cached sum drops the cache.
        idx.shrink(1);
        assert_eq!(idx.piece(1).sum, None);
        // Shrinking a whole piece away leaves earlier caches untouched.
        idx.shrink(1);
        assert_eq!(idx.piece_count(), 1);
        assert_eq!(idx.piece(0).sum, Some(30));
    }
}
