//! The cracker column: the query-facing, incrementally reorganized copy of a
//! base column.

use std::ops::Range;
use std::sync::Arc;

use rand::Rng;

use holistic_storage::{Column, PrefixSums};

use crate::index::PieceIndex;
use crate::kernels::{self, KernelChoice, KernelDispatches};
use crate::piece::Piece;
use crate::{RowId, Value};

/// Runs one kernel sweep over the column positions `$range`: records the
/// dispatch of the form [`KernelChoice::for_piece_len`] picks for the
/// range, then calls the sweep monomorphized for that form and for the
/// column's row-id payload. This is the one place a runtime choice becomes
/// the sweep's compile-time parameters.
macro_rules! sweep {
    ($col:ident, $range:expr, $kernel:ident($($arg:expr),+)) => {{
        let range: Range<usize> = $range;
        let choice = KernelChoice::for_piece_len(range.len());
        $col.dispatches.record(choice);
        let data = &mut $col.data[range.clone()];
        match (&mut $col.rowids, choice) {
            (None, KernelChoice::Branchy) => kernels::$kernel::<false, _>(data, (), $($arg),+),
            (None, KernelChoice::Predicated) => kernels::$kernel::<true, _>(data, (), $($arg),+),
            (Some(ids), KernelChoice::Branchy) => {
                kernels::$kernel::<false, _>(data, &mut ids[range], $($arg),+)
            }
            (Some(ids), KernelChoice::Predicated) => {
                kernels::$kernel::<true, _>(data, &mut ids[range], $($arg),+)
            }
        }
    }};
}

/// The sorted, deduplicated pivot set of a batch of range bounds: both
/// bounds of every non-degenerate `[lo, hi)` pair, each value once. Shared
/// by the batch select and the batched stochastic policies so the two
/// sites can never drift on which bounds count as the batch's pivots.
pub(crate) fn dedup_batch_pivots(bounds: &[(Value, Value)]) -> Vec<Value> {
    let mut pivots: Vec<Value> = bounds
        .iter()
        .filter(|&&(lo, hi)| hi > lo)
        .flat_map(|&(lo, hi)| [lo, hi])
        .collect();
    pivots.sort_unstable();
    pivots.dedup();
    pivots
}

/// The outcome of composing a range aggregate from the per-piece cache:
/// count, sum, and how the sum was produced (cached whole pieces,
/// prefix-sum differences, or scanned fallback pieces).
/// `scanned_values == 0` means the aggregate was answered without a single
/// data-array read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RangeAggregate {
    /// Number of positions in the range.
    pub count: u64,
    /// Sum of the values in the range.
    pub sum: i128,
    /// Pieces whose cached sum was used (no data touched).
    pub cached_pieces: usize,
    /// Pieces answered by a prefix-sum difference — partial overlaps of
    /// sorted pieces, still no data touched.
    pub prefix_pieces: usize,
    /// Pieces that had to be scanned (no cached sum or prefix).
    pub scanned_pieces: usize,
    /// Data values read by the scan fallback (0 = pure metadata answer).
    pub scanned_values: u64,
}

/// A cracker column.
///
/// Created as a copy of a base column the first time the column is queried
/// (or eagerly by the holistic kernel's idle-time tuner), then physically
/// reorganized a little more by every range select and by every auxiliary
/// refinement action. The accompanying [`PieceIndex`] records the boundaries
/// produced so far.
///
/// When `rowids` are kept, the original row of every value is carried along
/// through all reorganizations, so projections of other attributes remain
/// possible after cracking (the column-store tuple-reconstruction path).
#[derive(Debug, Clone)]
pub struct CrackerColumn {
    data: Vec<Value>,
    rowids: Option<Vec<RowId>>,
    index: PieceIndex,
    cracks_performed: u64,
    dispatches: KernelDispatches,
}

impl CrackerColumn {
    /// Creates a cracker column from raw values, without row ids.
    #[must_use]
    pub fn from_values(values: Vec<Value>) -> Self {
        let len = values.len();
        CrackerColumn {
            data: values,
            rowids: None,
            index: PieceIndex::new(len),
            cracks_performed: 0,
            dispatches: KernelDispatches::default(),
        }
    }

    /// Creates a cracker column from raw values, carrying row ids
    /// `0..values.len()` for tuple reconstruction.
    #[must_use]
    pub fn from_values_with_rowids(values: Vec<Value>) -> Self {
        let len = values.len();
        CrackerColumn {
            rowids: Some((0..len as u32).collect()),
            data: values,
            index: PieceIndex::new(len),
            cracks_performed: 0,
            dispatches: KernelDispatches::default(),
        }
    }

    /// Creates a cracker column from raw values, carrying row ids
    /// `offset..offset + values.len()`. This is the shard constructor:
    /// shard `k` of a column with fixed extent `E` holds the base rows
    /// `k·E..` and must label them with their *global* row ids so tuple
    /// reconstruction composes across shards.
    #[must_use]
    pub fn from_values_with_rowid_offset(values: Vec<Value>, offset: RowId) -> Self {
        let len = values.len();
        CrackerColumn {
            rowids: Some((offset..offset + len as u32).collect()),
            data: values,
            index: PieceIndex::new(len),
            cracks_performed: 0,
            dispatches: KernelDispatches::default(),
        }
    }

    /// Running totals of kernel dispatches, split by physical form.
    #[must_use]
    pub fn kernel_dispatches(&self) -> KernelDispatches {
        self.dispatches
    }

    /// Creates a cracker column by copying a base [`Column`].
    #[must_use]
    pub fn from_column(column: &Column, with_rowids: bool) -> Self {
        if with_rowids {
            Self::from_values_with_rowids(column.values().to_vec())
        } else {
            Self::from_values(column.values().to_vec())
        }
    }

    /// Reassembles a cracker column from recovered parts (the snapshot
    /// decode path). Returns `None` unless the full set of invariants
    /// holds — [`CrackerColumn::validate`] is run over the recovered
    /// state, so every piece's bounds, sorted flag, cached sum and prefix
    /// array are checked against the actual data before the column is
    /// trusted.
    #[must_use]
    pub fn from_parts(
        data: Vec<Value>,
        rowids: Option<Vec<RowId>>,
        index: PieceIndex,
        cracks_performed: u64,
    ) -> Option<Self> {
        if index.len() != data.len() {
            return None;
        }
        let col = CrackerColumn {
            data,
            rowids,
            index,
            cracks_performed,
            dispatches: KernelDispatches::default(),
        };
        col.validate().then_some(col)
    }

    /// Number of values.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the column is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The (cracked) value array.
    #[must_use]
    pub fn data(&self) -> &[Value] {
        &self.data
    }

    /// The row ids aligned with [`CrackerColumn::data`], if kept.
    #[must_use]
    pub fn rowids(&self) -> Option<&[RowId]> {
        self.rowids.as_deref()
    }

    /// The cracker index.
    #[must_use]
    pub fn index(&self) -> &PieceIndex {
        &self.index
    }

    /// Number of pieces the column is currently partitioned into.
    #[must_use]
    pub fn piece_count(&self) -> usize {
        self.index.piece_count()
    }

    /// Average piece length.
    #[must_use]
    pub fn avg_piece_len(&self) -> f64 {
        self.index.avg_piece_len()
    }

    /// Total number of crack (partitioning) actions performed so far,
    /// counting both query-driven and auxiliary (idle-time) cracks.
    #[must_use]
    pub fn cracks_performed(&self) -> u64 {
        self.cracks_performed
    }

    /// All pieces.
    #[must_use]
    pub fn pieces(&self) -> &[Piece] {
        self.index.pieces()
    }

    /// Returns piece `idx`'s prefix-sum array, building (and installing) it
    /// if the piece does not carry a covering one yet.
    ///
    /// Building is one streaming pass over the piece — comparable to the
    /// partitioning pass an *unsorted* piece of the same size would pay for
    /// a single crack — after which every aggregate that lands anywhere in
    /// the piece or its descendants is a subtraction. Callers hold `&mut
    /// self`, so in the concurrent wrapper this only ever happens under the
    /// write latch (build once, read many). The piece's cached sum is
    /// derived from the array if it was unknown.
    fn ensure_piece_prefix(&mut self, idx: usize) -> Arc<PrefixSums> {
        if let Some(prefix) = self.index.piece(idx).covering_prefix() {
            return Arc::clone(prefix);
        }
        let p = self.index.piece(idx);
        let prefix = Arc::new(PrefixSums::build(p.start, &self.data[p.start..p.end]));
        let piece = &mut self.index.pieces_mut()[idx];
        piece.prefix = Some(Arc::clone(&prefix));
        if piece.sum.is_none() {
            piece.sum = Some(prefix.total());
        }
        prefix
    }

    /// Whether [`CrackerColumn::seed_prefix_sums`] would do any work: some
    /// sorted, non-empty piece lacks a covering prefix array. A cheap
    /// metadata walk, so the concurrent wrapper can probe under the shared
    /// latch before escalating to the write latch.
    #[must_use]
    pub fn needs_prefix_seeding(&self) -> bool {
        self.index
            .pieces()
            .iter()
            .any(|p| p.sorted && !p.is_empty() && p.covering_prefix().is_none())
    }

    /// Builds prefix-sum arrays for every sorted piece that lacks one,
    /// returning how many pieces were seeded.
    ///
    /// This is the idle-time / preparation entry point: `sort_fully` seeds
    /// its single piece eagerly, but a column handed over with pre-sorted
    /// pieces (or one whose prefixes were invalidated by updates) can be
    /// re-seeded here so resolved aggregates go back to zero-read.
    pub fn seed_prefix_sums(&mut self) -> usize {
        let mut seeded = 0;
        for idx in 0..self.index.piece_count() {
            let p = self.index.piece(idx);
            if p.sorted && !p.is_empty() && p.covering_prefix().is_none() {
                self.ensure_piece_prefix(idx);
                seeded += 1;
            }
        }
        seeded
    }

    /// Cracks the column so that values `>= v` start at the returned
    /// position, performing at most one partitioning pass over one piece —
    /// the one-pivot case of the batch select's per-piece crack, so a
    /// sorted piece is binary-searched and both sides' sums are priced from
    /// its prefix array.
    pub fn crack_at(&mut self, v: Value) -> usize {
        let Some(idx) = self.index.find_piece_for_value(v) else {
            return 0;
        };
        if let Some(pos) = self.index.resolved_boundary(v) {
            return pos;
        }
        let (splits, seg_sums) = self.crack_piece_multi(idx, &[v]);
        let pos = splits.first().map_or(0, |&(pos, _)| pos);
        self.index
            .split_grouped_with_sums(&[(idx, splits, seg_sums)]);
        pos
    }

    /// Answers the range select `[lo, hi)` adaptively: a batch of one
    /// ([`CrackerColumn::crack_select_batch`]). Cracks the pieces the bounds
    /// fall into — at most two partitioning passes, or a single three-way
    /// pass when both bounds share a piece — and returns the contiguous
    /// position range holding the qualifying values.
    pub fn crack_select(&mut self, lo: Value, hi: Value) -> Range<usize> {
        self.crack_select_batch(&[(lo, hi)])
            .pop()
            .unwrap_or_default()
    }

    /// Answers a batch of range selects adaptively, amortizing the
    /// partitioning work across the whole batch: the deduplicated predicate
    /// bounds of all queries are grouped by the piece they currently fall
    /// into, and every affected piece is cracked around *all* of its pivots
    /// with a single multi-pivot pass ([`kernels::crack_in_k`];
    /// one or two pivots use the cheaper one-pass two-/three-way kernels).
    /// Each query is then answered from the refined index, so the returned
    /// ranges are identical to what the same queries issued one at a time
    /// would produce — but each affected piece is swept once per batch
    /// instead of up to twice per query.
    pub fn crack_select_batch(&mut self, bounds: &[(Value, Value)]) -> Vec<Range<usize>> {
        if self.data.is_empty() {
            return bounds.iter().map(|_| 0..0).collect();
        }
        let mut pivots = dedup_batch_pivots(bounds);
        pivots.retain(|&v| self.index.resolved_boundary(v).is_none());

        // Group the remaining pivots by target piece. Sorted pivots give
        // non-decreasing piece indexes, so groups are runs. The kernel
        // passes never touch the piece table, so all groups partition
        // against stable piece indexes; their splits are then recorded with
        // a single in-place piece-table edit (each untouched piece moves at
        // most once, instead of one O(P) tail shift per affected piece).
        let mut groups: Vec<(usize, Range<usize>)> = Vec::new();
        for (i, &v) in pivots.iter().enumerate() {
            // A pivot without a piece (empty index) simply isn't cracked;
            // the contiguity check keeps runs valid if one is skipped.
            let Some(idx) = self.index.find_piece_for_value(v) else {
                continue;
            };
            match groups.last_mut() {
                Some((last, r)) if *last == idx && r.end == i => r.end = i + 1,
                _ => groups.push((idx, i..i + 1)),
            }
        }
        let recorded: Vec<crate::index::SplitGroup> = groups
            .into_iter()
            .map(|(idx, range)| {
                let (splits, seg_sums) = self.crack_piece_multi(idx, &pivots[range]);
                (idx, splits, seg_sums)
            })
            .collect();
        self.index.split_grouped_with_sums(&recorded);

        // Every bound is now a resolved boundary; `crack_at` degenerates to
        // two binary searches per query (and stays correct if it does not).
        bounds
            .iter()
            .map(|&(lo, hi)| {
                if hi <= lo {
                    0..0
                } else {
                    let start = self.crack_at(lo);
                    let end = self.crack_at(hi);
                    start..end
                }
            })
            .collect()
    }

    /// Cracks piece `idx` around all `pivots` (strictly increasing, all
    /// falling into the piece) in one partitioning pass, returning the
    /// produced splits plus the pass's per-segment sums for the caller to
    /// record (the batch path batches them into one
    /// [`PieceIndex::split_grouped_with_sums`] edit). Sorted pieces are
    /// binary-searched — no data moves, and the segment sums come from the
    /// piece's (lazily built) prefix-sum array instead of a kernel pass.
    fn crack_piece_multi(
        &mut self,
        idx: usize,
        pivots: &[Value],
    ) -> (Vec<(usize, Value)>, Option<Vec<i128>>) {
        let p = self.index.piece(idx);
        if p.sorted {
            // No data movement needed: binary-search every boundary and
            // price every segment with a prefix difference.
            let prefix = self.ensure_piece_prefix(idx);
            let splits: Vec<(usize, Value)> = pivots
                .iter()
                .map(|&v| {
                    let off = self.data[p.start..p.end].partition_point(|&x| x < v);
                    (p.start + off, v)
                })
                .collect();
            let mut seg_sums = Vec::with_capacity(splits.len() + 1);
            let mut prev = p.start;
            for &(pos, _) in &splits {
                seg_sums.push(prefix.sum_range(prev..pos));
                prev = pos;
            }
            seg_sums.push(prefix.sum_range(prev..p.end));
            return (splits, Some(seg_sums));
        }
        let (offsets, seg_sums): (Vec<usize>, Vec<i128>) = match *pivots {
            // One or two pivots keep the classic single-pass kernels.
            [v] => {
                let two = sweep!(self, p.start..p.end, crack_in_two(v));
                (vec![two.split], vec![two.lo_sum, two.hi_sum()])
            }
            [lo, hi] => {
                let three = sweep!(self, p.start..p.end, crack_in_three(lo, hi));
                (vec![three.a, three.b], three.sums.to_vec())
            }
            _ => {
                let k = sweep!(self, p.start..p.end, crack_in_k(pivots));
                (k.boundaries, k.segment_sums)
            }
        };
        self.cracks_performed += 1;
        let splits = offsets
            .into_iter()
            .map(|off| p.start + off)
            .zip(pivots.iter().copied())
            .collect();
        (splits, Some(seg_sums))
    }

    /// Like [`CrackerColumn::crack_select`] but only returns the number of
    /// qualifying values.
    pub fn crack_count(&mut self, lo: Value, hi: Value) -> u64 {
        let r = self.crack_select(lo, hi);
        (r.end - r.start) as u64
    }

    /// Returns the values in a position range previously produced by
    /// [`CrackerColumn::crack_select`].
    #[must_use]
    pub fn view(&self, range: Range<usize>) -> &[Value] {
        &self.data[range]
    }

    /// Returns the row ids in a position range, if row ids are kept.
    #[must_use]
    pub fn rowids_in(&self, range: Range<usize>) -> Option<&[RowId]> {
        self.rowids.as_ref().map(|r| &r[range])
    }

    /// Answers `[lo, hi)` *without* reorganizing anything, if the cracker
    /// index already resolves both bounds. Used by the concurrent wrapper's
    /// read-only fast path.
    #[must_use]
    pub fn select_if_resolved(&self, lo: Value, hi: Value) -> Option<Range<usize>> {
        if hi <= lo {
            return Some(0..0);
        }
        let start = self.index.resolved_boundary(lo)?;
        let end = self.index.resolved_boundary(hi)?;
        Some(start..end)
    }

    /// Answers `[lo, hi)` *without* reorganizing anything, if every bound is
    /// either already resolved by the cracker index **or** falls into a
    /// sorted piece carrying a prefix-sum array (where binary search finds
    /// the position and [`CrackerColumn::aggregate_range`] prices the
    /// boundary overlap with a prefix difference).
    ///
    /// This is the read-only superset of
    /// [`CrackerColumn::select_if_resolved`] used by the concurrent
    /// wrapper: on a sorted, prefix-seeded region, *arbitrary* range
    /// aggregates stay on the shared latch forever — no splits, no piece
    /// table growth, no data movement. A sorted piece *without* a prefix
    /// deliberately does not qualify: answering it here would mask-scan the
    /// interior on every repeat, while falling through to the crack path
    /// builds the prefix once and makes every later query a subtraction.
    #[must_use]
    pub fn select_if_answerable(&self, lo: Value, hi: Value) -> Option<Range<usize>> {
        if hi <= lo {
            return Some(0..0);
        }
        let start = self.bound_position_readonly(lo)?;
        let end = self.bound_position_readonly(hi)?;
        Some(start..end)
    }

    /// The position where values `>= v` begin, if it can be determined
    /// without reorganizing: a resolved crack boundary, or binary search
    /// inside a sorted piece whose prefix-sum array is present (so the
    /// caller's aggregate stays zero-read).
    fn bound_position_readonly(&self, v: Value) -> Option<usize> {
        if let Some(pos) = self.index.resolved_boundary(v) {
            return Some(pos);
        }
        let idx = self.index.find_piece_for_value(v)?;
        let p = &self.index.pieces()[idx];
        if p.sorted && p.covering_prefix().is_some() {
            let off = self.data[p.start..p.end].partition_point(|&x| x < v);
            return Some(p.start + off);
        }
        None
    }

    /// Composes the count and sum of a resolved position range from the
    /// per-piece aggregate cache.
    ///
    /// Crack boundaries always fall on piece boundaries, so a resolved
    /// result range is a run of whole pieces: the count is implicit in the
    /// range length, and the sum is composed from the pieces' cached sums.
    /// A piece that is only *partially* overlapped — the boundary pieces of
    /// a range produced by [`CrackerColumn::select_if_answerable`]'s binary
    /// searches into sorted pieces — contributes a prefix-sum difference
    /// when it carries a prefix array: still zero data-array reads. Only
    /// pieces with neither a usable cached sum nor a covering prefix are
    /// scanned, through the storage layer's chunked masked-sum kernel — the
    /// same kernel the pre-cache answer path used for the whole range. A
    /// fully cached/prefix-composed range therefore costs O(pieces)
    /// metadata reads and **zero** data-array touches.
    ///
    /// **Contract:** every value in `range` must satisfy `lo <= v < hi` —
    /// true for any range produced by resolving both bounds (the only
    /// production use). `lo`/`hi` then only parameterize the scan
    /// fallback's mask, keeping the fallback identical to the pre-cache
    /// answer path. For a range violating the contract the sum is
    /// unspecified: cached whole pieces and prefix differences contribute
    /// unmasked positional sums, while scanned pieces are masked — the
    /// arms would disagree. Debug builds assert the contract on every
    /// prefix-composed and scanned piece. The outcome reports how the sum
    /// was produced so callers can maintain cache hit/prefix/partial/miss
    /// statistics.
    #[must_use]
    pub fn aggregate_range(&self, range: Range<usize>, lo: Value, hi: Value) -> RangeAggregate {
        let mut agg = RangeAggregate {
            count: (range.end.saturating_sub(range.start)) as u64,
            ..RangeAggregate::default()
        };
        if range.start >= range.end {
            return agg;
        }
        let Some(mut idx) = self.index.find_piece_for_position(range.start) else {
            return agg;
        };
        let pieces = self.index.pieces();
        while idx < pieces.len() && pieces[idx].start < range.end {
            let p = &pieces[idx];
            let overlap = p.start.max(range.start)..p.end.min(range.end);
            match (p.sum, p.covering_prefix()) {
                // Whole piece covered and cached: pure metadata.
                (Some(sum), _) if overlap == (p.start..p.end) => {
                    agg.sum += sum;
                    agg.cached_pieces += 1;
                }
                // Partial overlap of (or missing sum on) a piece with a
                // prefix-sum array: one subtraction, still no data reads.
                (_, Some(prefix)) => {
                    debug_assert!(
                        self.data[overlap.clone()]
                            .iter()
                            .all(|&v| v >= lo && v < hi),
                        "aggregate_range contract: every value in the range must satisfy [lo, hi)"
                    );
                    agg.sum += prefix.sum_range(overlap);
                    agg.prefix_pieces += 1;
                }
                // No cache at all: scan the overlap.
                _ => {
                    debug_assert!(
                        self.data[overlap.clone()]
                            .iter()
                            .all(|&v| v >= lo && v < hi),
                        "aggregate_range contract: every value in the range must satisfy [lo, hi)"
                    );
                    agg.sum += holistic_storage::scan_sum(&self.data[overlap.clone()], lo, hi);
                    agg.scanned_pieces += 1;
                    agg.scanned_values += (overlap.end - overlap.start) as u64;
                }
            }
            idx += 1;
        }
        agg
    }

    /// Number of pieces currently carrying a trusted cached sum (aggregate
    /// cache population probe for tests and diagnostics).
    #[must_use]
    pub fn cached_sum_pieces(&self) -> usize {
        self.index
            .pieces()
            .iter()
            .filter(|p| p.sum.is_some())
            .count()
    }

    /// Number of pieces currently carrying a covering prefix-sum array
    /// (prefix-cache population probe for tests and diagnostics).
    #[must_use]
    pub fn prefix_pieces(&self) -> usize {
        self.index
            .pieces()
            .iter()
            .filter(|p| p.covering_prefix().is_some())
            .count()
    }

    /// Applies one *auxiliary refinement action*: picks a random position,
    /// uses its value as a pivot and cracks the piece it lives in.
    ///
    /// This is the unit of idle-time work in the paper ("apply X random
    /// index refinement actions"): cheap, always safe, and each action makes
    /// some future query on this column cheaper. Returns `true` if the
    /// action introduced a new piece (an action can be a no-op if the chosen
    /// pivot happens to already be a boundary or the piece is degenerate).
    pub fn random_crack<R: Rng + ?Sized>(&mut self, rng: &mut R) -> bool {
        if self.data.is_empty() {
            return false;
        }
        let pos = rng.gen_range(0..self.data.len());
        let pivot = self.data[pos];
        let before = self.index.piece_count();
        self.crack_at(pivot);
        self.index.piece_count() > before
    }

    /// Applies one auxiliary refinement action restricted to the value range
    /// `[lo, hi)` — used for hot-range boosting during query processing.
    ///
    /// Returns `true` if a new piece was introduced.
    pub fn random_crack_in_range<R: Rng + ?Sized>(
        &mut self,
        lo: Value,
        hi: Value,
        rng: &mut R,
    ) -> bool {
        if self.data.is_empty() || hi <= lo {
            return false;
        }
        let pivot = rng.gen_range(lo..hi);
        let before = self.index.piece_count();
        self.crack_at(pivot);
        self.index.piece_count() > before
    }

    /// Applies `actions` auxiliary refinement actions and returns how many
    /// of them introduced a new piece.
    pub fn random_cracks<R: Rng + ?Sized>(&mut self, actions: u64, rng: &mut R) -> u64 {
        let mut effective = 0;
        for _ in 0..actions {
            if self.random_crack(rng) {
                effective += 1;
            }
        }
        effective
    }

    /// Fully sorts the column (and row ids), collapsing the piece index to a
    /// single sorted piece. This is what offline indexing does with enough
    /// idle time; exposed here so the kernels can share one representation.
    ///
    /// The sorted piece is seeded with both its total sum and its prefix-sum
    /// array, so *every* range aggregate on the freshly sorted column — not
    /// just the full range — is immediately zero-read: two binary searches
    /// and one subtraction.
    pub fn sort_fully(&mut self) {
        match &mut self.rowids {
            Some(rowids) => {
                let mut pairs: Vec<(Value, RowId)> = self
                    .data
                    .iter()
                    .copied()
                    .zip(rowids.iter().copied())
                    .collect();
                pairs.sort_unstable();
                for (i, (v, r)) in pairs.into_iter().enumerate() {
                    self.data[i] = v;
                    rowids[i] = r;
                }
            }
            None => self.data.sort_unstable(),
        }
        self.index = PieceIndex::new_sorted(self.data.len());
        let prefix = PrefixSums::build(0, &self.data);
        if let Some(p) = self.index.pieces_mut().last_mut() {
            p.sum = Some(prefix.total());
            p.prefix = Some(Arc::new(prefix));
        }
    }

    /// Whether the column is already in the state [`CrackerColumn::sort_fully`]
    /// produces: a single sorted piece with a covering prefix-sum array (or
    /// an empty column, which has nothing to sort). Lets callers skip the
    /// sort — and, in the concurrent wrapper, the write latch — entirely.
    #[must_use]
    pub fn is_fully_sorted(&self) -> bool {
        self.data.is_empty()
            || (self.index.piece_count() == 1
                && self.index.piece(0).sorted
                && self.index.piece(0).covering_prefix().is_some())
    }

    /// Validates the cracker-column invariants (piece index consistent with
    /// the data, row ids aligned). Intended for tests and debug assertions.
    #[must_use]
    pub fn validate(&self) -> bool {
        if let Some(rowids) = &self.rowids {
            if rowids.len() != self.data.len() {
                return false;
            }
        }
        self.index.validate(&self.data)
    }

    /// Validates the pieces whose indexes fall in `range` (clamped to the
    /// piece table) against the data, including row-id alignment. This is
    /// the incremental unit of the background scrubber: full
    /// [`CrackerColumn::validate`] is O(column), while one scrub step is
    /// O(the pieces it covers).
    #[must_use]
    pub fn validate_piece_range(&self, range: Range<usize>) -> bool {
        if let Some(rowids) = &self.rowids {
            if rowids.len() != self.data.len() {
                return false;
            }
        }
        let end = range.end.min(self.index.piece_count());
        self.index.pieces()[range.start.min(end)..end]
            .iter()
            .all(|p| p.validate(&self.data))
    }

    /// Reassembles a cracker column from recovered parts with **sampled**
    /// validation: structural invariants (extent match, row-id alignment,
    /// piece-table contiguity — already enforced by `PieceIndex`) are
    /// always checked, but the per-piece content pass of
    /// [`CrackerColumn::validate`] runs only on a deterministic sample of
    /// roughly one in `sample_rate` pieces (always including the first
    /// and last). The caller must arrange for the skipped pieces to be
    /// validated later — the background scrubber / first-touch paranoia
    /// path — which is safe only in an engine where a deferred validation
    /// failure heals (quarantine + rebuild) instead of crashing.
    #[must_use]
    pub fn from_parts_sampled(
        data: Vec<Value>,
        rowids: Option<Vec<RowId>>,
        index: PieceIndex,
        cracks_performed: u64,
        sample_seed: u64,
        sample_rate: usize,
    ) -> Option<Self> {
        if index.len() != data.len() {
            return None;
        }
        if let Some(rowids) = &rowids {
            if rowids.len() != data.len() {
                return None;
            }
        }
        let rate = sample_rate.max(1) as u64;
        let n = index.piece_count();
        let sampled = |i: usize| {
            i == 0
                || i + 1 == n
                || (i as u64)
                    .wrapping_add(sample_seed)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .is_multiple_of(rate)
        };
        for (i, piece) in index.pieces().iter().enumerate() {
            if sampled(i) && !piece.validate(&data) {
                return None;
            }
        }
        Some(CrackerColumn {
            data,
            rowids,
            index,
            cracks_performed,
            dispatches: KernelDispatches::default(),
        })
    }

    /// (Internal) mutable access for the updates module.
    pub(crate) fn parts_mut(
        &mut self,
    ) -> (&mut Vec<Value>, Option<&mut Vec<RowId>>, &mut PieceIndex) {
        (&mut self.data, self.rowids.as_mut(), &mut self.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample() -> Vec<Value> {
        vec![13, 16, 4, 9, 2, 12, 7, 1, 19, 3, 14, 11, 8, 6]
    }

    fn scan_count(values: &[Value], lo: Value, hi: Value) -> u64 {
        values.iter().filter(|&&v| v >= lo && v < hi).count() as u64
    }

    #[test]
    fn first_select_returns_correct_range() {
        let mut c = CrackerColumn::from_values(sample());
        let r = c.crack_select(5, 12);
        let count = (r.end - r.start) as u64;
        assert_eq!(count, scan_count(&sample(), 5, 12));
        assert!(c.view(r).iter().all(|&v| (5..12).contains(&v)));
        assert!(c.validate());
        assert!(c.piece_count() >= 2);
        assert!(c.cracks_performed() >= 1);
    }

    #[test]
    fn repeated_selects_stay_correct_and_refine() {
        let mut c = CrackerColumn::from_values(sample());
        let queries = [(5, 12), (1, 4), (10, 20), (0, 25), (7, 8), (13, 14)];
        for &(lo, hi) in &queries {
            let r = c.crack_select(lo, hi);
            assert_eq!((r.end - r.start) as u64, scan_count(&sample(), lo, hi));
            assert!(c.validate(), "invariants violated after query [{lo},{hi})");
        }
        assert!(c.piece_count() > 2);
    }

    #[test]
    fn crack_count_matches_scan() {
        let mut c = CrackerColumn::from_values(sample());
        assert_eq!(c.crack_count(3, 10), scan_count(&sample(), 3, 10));
        assert_eq!(c.crack_count(100, 200), 0);
        assert_eq!(c.crack_count(9, 2), 0);
    }

    #[test]
    fn empty_column_is_handled() {
        let mut c = CrackerColumn::from_values(vec![]);
        assert!(c.is_empty());
        assert_eq!(c.crack_select(1, 10), 0..0);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(!c.random_crack(&mut rng));
        assert!(c.validate());
    }

    #[test]
    fn rowids_follow_their_values() {
        let values = sample();
        let mut c = CrackerColumn::from_values_with_rowids(values.clone());
        let r = c.crack_select(5, 12);
        let ids = c.rowids_in(r.clone()).expect("rowids kept");
        for (&v, &id) in c.view(r).iter().zip(ids) {
            assert_eq!(values[id as usize], v, "rowid must still address its value");
        }
        assert!(c.validate());
    }

    #[test]
    fn from_column_copies_base_data() {
        let base = Column::from_values("a", sample());
        let mut c = CrackerColumn::from_column(&base, true);
        assert_eq!(c.len(), base.len());
        let r = c.crack_select(2, 9);
        assert_eq!((r.end - r.start) as u64, base.scan_count(2, 9));
        // Base column untouched.
        assert_eq!(base.values(), &sample()[..]);
    }

    #[test]
    fn select_if_resolved_only_after_cracking() {
        let mut c = CrackerColumn::from_values(sample());
        assert!(c.select_if_resolved(5, 12).is_none());
        let r = c.crack_select(5, 12);
        assert_eq!(c.select_if_resolved(5, 12), Some(r));
        assert!(c.select_if_resolved(5, 13).is_none());
        assert_eq!(c.select_if_resolved(12, 5), Some(0..0));
    }

    #[test]
    fn random_cracks_increase_pieces() {
        let mut c = CrackerColumn::from_values((0..1000).rev().collect());
        let mut rng = StdRng::seed_from_u64(42);
        let effective = c.random_cracks(50, &mut rng);
        assert!(
            effective > 10,
            "expected most random actions to split, got {effective}"
        );
        assert!(c.piece_count() > 10);
        assert!(c.validate());
        // Queries remain correct after arbitrary refinement.
        let r = c.crack_select(100, 200);
        assert_eq!((r.end - r.start), 100);
    }

    #[test]
    fn random_crack_in_range_only_touches_that_range() {
        let mut c = CrackerColumn::from_values((0..1000).collect());
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            c.random_crack_in_range(400, 500, &mut rng);
        }
        assert!(c.validate());
        // All introduced boundaries fall inside [400, 500].
        for p in c.pieces() {
            if let Some(lo) = p.lo {
                assert!((400..=500).contains(&lo) || lo == 0);
            }
        }
        assert!(!c.random_crack_in_range(10, 10, &mut rng));
    }

    #[test]
    fn sort_fully_yields_single_sorted_piece_and_fast_selects() {
        let mut c = CrackerColumn::from_values_with_rowids(sample());
        c.sort_fully();
        assert_eq!(c.piece_count(), 1);
        assert!(c.pieces()[0].sorted);
        assert!(c.data().windows(2).all(|w| w[0] <= w[1]));
        assert!(c.validate());
        let cracks_before = c.cracks_performed();
        let r = c.crack_select(5, 12);
        assert_eq!((r.end - r.start) as u64, scan_count(&sample(), 5, 12));
        // Selecting on a sorted column must not move data.
        assert_eq!(c.cracks_performed(), cracks_before);
        // Row ids still address their values after the sort.
        let ids = c.rowids_in(r.clone()).unwrap();
        for (&v, &id) in c.view(r).iter().zip(ids) {
            assert_eq!(sample()[id as usize], v);
        }
    }

    #[test]
    fn duplicate_heavy_data_stays_correct() {
        let values: Vec<Value> = std::iter::repeat_n([5, 5, 7, 7, 7, 9], 20)
            .flatten()
            .collect();
        let mut c = CrackerColumn::from_values(values.clone());
        for &(lo, hi) in &[(5, 6), (7, 8), (5, 8), (6, 7), (9, 10), (0, 100)] {
            let r = c.crack_select(lo, hi);
            assert_eq!((r.end - r.start) as u64, scan_count(&values, lo, hi));
            assert!(c.validate());
        }
    }

    #[test]
    fn kernel_policy_is_respected_and_dispatches_are_counted() {
        // A piece below the predication threshold is cracked branchy.
        let mut c = CrackerColumn::from_values(sample());
        assert_eq!(c.kernel_dispatches().total(), 0);
        let r = c.crack_select(5, 12);
        assert_eq!((r.end - r.start) as u64, scan_count(&sample(), 5, 12));
        assert!(c.validate());
        let d = c.kernel_dispatches();
        assert_eq!((d.branchy, d.predicated), (1, 0));
        // A piece at the threshold is cracked predicated; the pieces that
        // crack leaves behind are small again and go back to branchy.
        let values: Vec<Value> = (0..256).rev().collect();
        let mut c = CrackerColumn::from_values_with_rowids(values.clone());
        let r = c.crack_select(64, 192);
        assert_eq!(r.len(), 128);
        assert_eq!(c.kernel_dispatches().predicated, 1);
        let r = c.crack_select(10, 20);
        assert_eq!(r.len(), 10);
        let d = c.kernel_dispatches();
        assert_eq!((d.branchy, d.predicated), (1, 1));
        let ids = c.rowids_in(r.clone()).expect("rowids kept");
        for (&v, &id) in c.view(r).iter().zip(ids) {
            assert_eq!(values[id as usize], v);
        }
        assert!(c.validate());
    }

    #[test]
    fn batch_select_matches_sequential_answers_and_boundaries() {
        let values: Vec<Value> = (0..2000).map(|i| (i * 7919) % 2000).collect();
        let batch: Vec<(Value, Value)> = vec![
            (100, 200),
            (150, 250), // overlaps the first
            (1900, 2100),
            (500, 400), // inverted: empty
            (700, 700), // degenerate: empty
            (100, 200), // exact duplicate
            (0, 2000),
        ];
        let mut batched = CrackerColumn::from_values(values.clone());
        let mut sequential = CrackerColumn::from_values(values.clone());
        let got = batched.crack_select_batch(&batch);
        for (r, &(lo, hi)) in got.iter().zip(&batch) {
            let want = sequential.crack_select(lo, hi);
            assert_eq!(
                (r.end - r.start) as u64,
                (want.end - want.start) as u64,
                "count mismatch for [{lo},{hi})"
            );
            assert_eq!(
                (r.end - r.start) as u64,
                scan_count(&values, lo, hi),
                "scan mismatch for [{lo},{hi})"
            );
            assert!(batched.view(r.clone()).iter().all(|&v| v >= lo && v < hi));
        }
        // Plain cracking is order-independent: the batch pass must leave the
        // exact same piece boundaries as the sequential replay.
        assert_eq!(batched.index(), sequential.index());
        assert!(batched.validate());
        assert!(sequential.validate());
    }

    #[test]
    fn batch_select_cracks_each_piece_once() {
        // 8 distinct queries on a fresh column: 16 pivots, all landing in
        // the single initial piece. The batch path must partition it with
        // one kernel dispatch (one pass), not 16.
        let values: Vec<Value> = (0..4096).rev().collect();
        let mut c = CrackerColumn::from_values(values.clone());
        let batch: Vec<(Value, Value)> = (0..8).map(|i| (i * 500, i * 500 + 40)).collect();
        let got = c.crack_select_batch(&batch);
        assert_eq!(c.kernel_dispatches().total(), 1, "one pass for the batch");
        assert_eq!(c.cracks_performed(), 1);
        for (r, &(lo, hi)) in got.iter().zip(&batch) {
            assert_eq!((r.end - r.start) as u64, scan_count(&values, lo, hi));
        }
        assert!(c.piece_count() >= 16, "all pivots became boundaries");
        assert!(c.validate());

        // A second identical batch is fully resolved: no more dispatches.
        let again = c.crack_select_batch(&batch);
        assert_eq!(c.kernel_dispatches().total(), 1);
        assert_eq!(again, got);
    }

    #[test]
    fn batch_select_with_rowids_keeps_alignment() {
        let values = sample();
        let mut c = CrackerColumn::from_values_with_rowids(values.clone());
        let batch = vec![(3, 8), (10, 15), (1, 20)];
        let got = c.crack_select_batch(&batch);
        for r in got {
            let ids = c.rowids_in(r.clone()).expect("rowids kept");
            for (&v, &id) in c.view(r.clone()).iter().zip(ids) {
                assert_eq!(values[id as usize], v);
            }
        }
        assert!(c.validate());
    }

    #[test]
    fn batch_select_on_sorted_column_moves_no_data() {
        let mut c = CrackerColumn::from_values(sample());
        c.sort_fully();
        let before = c.cracks_performed();
        let got = c.crack_select_batch(&[(5, 12), (1, 4), (13, 20)]);
        assert_eq!(c.cracks_performed(), before, "sorted pieces binary-search");
        for (r, &(lo, hi)) in got.iter().zip(&[(5, 12), (1, 4), (13, 20)]) {
            assert_eq!((r.end - r.start) as u64, scan_count(&sample(), lo, hi));
        }
        assert!(c.validate());
    }

    #[test]
    fn batch_select_empty_column_and_empty_batch() {
        let mut empty = CrackerColumn::from_values(vec![]);
        assert_eq!(empty.crack_select_batch(&[(1, 5)]), vec![0..0]);
        let mut c = CrackerColumn::from_values(sample());
        assert!(c.crack_select_batch(&[]).is_empty());
        assert_eq!(c.kernel_dispatches().total(), 0);
    }

    #[test]
    fn batch_select_duplicate_heavy_data() {
        let values: Vec<Value> = std::iter::repeat_n([5, 5, 7, 7, 7, 9], 40)
            .flatten()
            .collect();
        let mut c = CrackerColumn::from_values(values.clone());
        let batch = vec![(5, 6), (7, 8), (5, 8), (6, 7), (9, 10), (0, 100)];
        let got = c.crack_select_batch(&batch);
        for (r, &(lo, hi)) in got.iter().zip(&batch) {
            assert_eq!((r.end - r.start) as u64, scan_count(&values, lo, hi));
        }
        assert!(c.validate());
    }

    fn scan_sum_ref(values: &[Value], lo: Value, hi: Value) -> i128 {
        values
            .iter()
            .filter(|&&v| v >= lo && v < hi)
            .map(|&v| i128::from(v))
            .sum()
    }

    #[test]
    fn cracking_populates_the_aggregate_cache() {
        let mut c = CrackerColumn::from_values(sample());
        assert_eq!(c.cached_sum_pieces(), 0);
        let r = c.crack_select(5, 12);
        // One fused pass taught every resulting piece its sum.
        assert_eq!(c.cached_sum_pieces(), c.piece_count());
        assert!(c.validate());
        let agg = c.aggregate_range(r.clone(), 5, 12);
        assert_eq!(agg.count, (r.end - r.start) as u64);
        assert_eq!(agg.sum, scan_sum_ref(&sample(), 5, 12));
        assert_eq!(
            agg.scanned_values, 0,
            "resolved aggregate must not read data"
        );
        assert_eq!(agg.scanned_pieces, 0);
        assert!(agg.cached_pieces >= 1);
    }

    #[test]
    fn batch_cracking_populates_the_aggregate_cache() {
        let values: Vec<Value> = (0..2000).map(|i| (i * 7919) % 2000).collect();
        let mut c = CrackerColumn::from_values(values.clone());
        let batch: Vec<(Value, Value)> = (0..8).map(|i| (i * 200, i * 200 + 50)).collect();
        let ranges = c.crack_select_batch(&batch);
        assert_eq!(c.cached_sum_pieces(), c.piece_count());
        for (r, &(lo, hi)) in ranges.iter().zip(&batch) {
            let agg = c.aggregate_range(r.clone(), lo, hi);
            assert_eq!(agg.sum, scan_sum_ref(&values, lo, hi), "[{lo},{hi})");
            assert_eq!(agg.scanned_values, 0, "[{lo},{hi})");
        }
        assert!(c.validate());
    }

    #[test]
    fn sorted_piece_splits_seed_sums_from_the_prefix() {
        // Binary-search splits of a sorted column used to leave sum-less
        // children (masked-scan fallback, reported partial/miss). With the
        // per-piece prefix sums they are as cache-complete as kernel splits.
        let mut c = CrackerColumn::from_values(sample());
        c.sort_fully();
        assert_eq!(c.prefix_pieces(), 1, "sort_fully seeds the prefix");
        // The full sorted piece carries the column total.
        let full = c.aggregate_range(0..c.len(), i64::MIN, i64::MAX);
        assert_eq!(full.sum, scan_sum_ref(&sample(), i64::MIN, i64::MAX));
        assert_eq!(full.scanned_values, 0);
        // Splitting by binary search now derives both children's sums from
        // the shared prefix array: the resolved aggregate reads no data.
        let r = c.crack_select(5, 12);
        let agg = c.aggregate_range(r.clone(), 5, 12);
        assert_eq!(agg.sum, scan_sum_ref(&sample(), 5, 12));
        assert_eq!(agg.scanned_pieces, 0);
        assert_eq!(agg.scanned_values, 0);
        assert_eq!(c.cached_sum_pieces(), c.piece_count());
        assert_eq!(c.prefix_pieces(), c.piece_count(), "children share it");
        assert!(c.validate());
    }

    #[test]
    fn sorted_aggregates_are_answerable_without_cracking() {
        // Arbitrary interior bounds on a sorted, prefix-seeded column are
        // read-only: two binary searches resolve the range, and the
        // boundary pieces contribute prefix differences — no splits, no
        // data reads.
        let mut c = CrackerColumn::from_values(sample());
        assert!(c.select_if_answerable(5, 12).is_none(), "unsorted: crack");
        c.sort_fully();
        let pieces_before = c.piece_count();
        let r = c.select_if_answerable(5, 12).expect("sorted + prefix");
        assert_eq!((r.end - r.start) as u64, scan_count(&sample(), 5, 12));
        let agg = c.aggregate_range(r.clone(), 5, 12);
        assert_eq!(agg.sum, scan_sum_ref(&sample(), 5, 12));
        assert_eq!(agg.scanned_values, 0, "prefix difference, not a scan");
        assert!(agg.prefix_pieces >= 1);
        assert_eq!(c.piece_count(), pieces_before, "no reorganization");
        // Degenerate ranges short-circuit like select_if_resolved.
        assert_eq!(c.select_if_answerable(12, 5), Some(0..0));
        assert!(c.validate());
    }

    #[test]
    fn aggregate_range_scans_only_uncached_pieces() {
        // Strip the caches a crack pass seeded: the fallback path must
        // scan exactly the stripped pieces and still answer exactly.
        let mut c = CrackerColumn::from_values(sample());
        let r = c.crack_select(5, 12);
        let (_, _, index) = c.parts_mut();
        for p in index.pieces_mut() {
            p.sum = None;
            p.prefix = None;
        }
        let agg = c.aggregate_range(r.clone(), 5, 12);
        assert_eq!(agg.sum, scan_sum_ref(&sample(), 5, 12));
        assert_eq!(agg.cached_pieces, 0);
        assert_eq!(agg.prefix_pieces, 0);
        assert!(agg.scanned_pieces >= 1);
        assert_eq!(agg.scanned_values, (r.end - r.start) as u64);
        assert!(c.validate());
    }

    #[test]
    fn aggregate_range_handles_unaligned_ranges_with_the_mask() {
        // Not crack-resolved: an arbitrary position range cutting through
        // pieces, with the full-domain bounds so every value qualifies
        // (the documented contract). Partially overlapped pieces go
        // through the masked scan fallback and still sum exactly.
        let values: Vec<Value> = (0..100).rev().collect();
        let mut c = CrackerColumn::from_values(values);
        let _ = c.crack_select(20, 70);
        let agg = c.aggregate_range(3..47, i64::MIN, i64::MAX);
        let expected: i128 = c.data()[3..47].iter().map(|&v| i128::from(v)).sum();
        assert_eq!(agg.sum, expected);
        assert_eq!(agg.count, 44);
        // Empty range is pure metadata.
        let empty = c.aggregate_range(5..5, 0, 10);
        assert_eq!(empty, RangeAggregate::default());
    }

    #[test]
    fn boundary_value_queries() {
        let values: Vec<Value> = (0..100).collect();
        let mut c = CrackerColumn::from_values(values.clone());
        // Bounds equal to min / max / beyond.
        assert_eq!(c.crack_count(0, 100), 100);
        assert_eq!(c.crack_count(-50, 0), 0);
        assert_eq!(c.crack_count(99, 99), 0);
        assert_eq!(c.crack_count(99, 1000), 1);
        assert!(c.validate());
    }
}
