//! In-place partitioning kernels.
//!
//! These are the physical reorganization primitives of database cracking,
//! three sweeps in all: [`crack_in_two`] splits a piece around one pivot
//! (used when a query bound falls into a piece), [`crack_in_three`] splits a
//! piece around two pivots in a single logical step (used when both bounds
//! of a range query fall into the same piece), and [`crack_in_k`] splits a
//! piece around an arbitrary sorted pivot set in one kernel invocation (used
//! by batched execution, where all of a batch's predicate bounds landing in
//! a piece are resolved together).
//!
//! Every sweep is generic over two compile-time parameters, so one body
//! serves every combination and each combination still compiles to its own
//! dedicated inner loop:
//!
//! * a [`RowIds`] payload permuted in lockstep with the values — `()` for a
//!   plain column (the mirrored swaps compile away), `&mut [RowId]` for a
//!   column that keeps row ids for tuple reconstruction (projections of
//!   other attributes after cracking);
//! * `const PREDICATED: bool`, selecting the branchy or the predicated
//!   physical form (see below).
//!
//! Every sweep is also **sum-fused**: it returns the value sums of the
//! regions it produced ([`TwoWaySums`], [`ThreeWaySums`], [`KWaySums`]),
//! which seed the per-piece aggregate cache at no extra pass.
//!
//! # Range contract
//!
//! Every kernel and every caller in this crate uses **half-open ranges**:
//! a bound pair `(lo, hi)` always means the value interval `[lo, hi)` —
//! `lo` inclusive, `hi` exclusive. Concretely:
//!
//! * `crack_in_two(data, (), pivot)` puts values `< pivot` on the left and
//!   values `>= pivot` on the right, splitting at the first value
//!   `>= pivot`;
//! * `crack_in_three(data, (), lo, hi)` produces the regions `< lo`,
//!   `[lo, hi)` and `>= hi`;
//! * a **degenerate** bound pair with `hi <= lo` denotes the empty interval:
//!   [`crack_in_three`] (either form, either payload) then performs exactly
//!   one [`crack_in_two`] at `lo` and returns `a == b` — the data is still
//!   usefully partitioned at `lo`, the middle region is empty, and the only
//!   boundary a caller may record in a piece index is the one for `lo` (no
//!   boundary for `hi` materializes).
//!
//! # Branchy vs. predicated
//!
//! Each sweep comes in two physical forms:
//!
//! * the **branchy** form (`PREDICATED = false`) runs the classic
//!   two-pointer / Dutch-national-flag loops whose `if value < pivot`
//!   branch is data-dependent — on uniform-random pieces it mispredicts
//!   roughly every other element, stalling the pipeline;
//! * the **predicated** form (`PREDICATED = true`) replaces the branch with
//!   arithmetic on the comparison result: an unconditional swap plus a
//!   cursor advanced by `(value < pivot) as usize`. Every iteration executes
//!   the same instruction stream, so there is nothing to mispredict, at the
//!   price of always paying the swap's loads and stores.
//!
//! Both forms produce the same boundaries and sums; only the order *within*
//! each region may differ. Mispredict stalls dominate on large
//! out-of-cache pieces, while the extra memory traffic of predication is
//! felt most when a piece is cache resident — the same cache-threshold
//! reasoning the holistic kernel's ranking model uses.
//! [`KernelChoice::for_piece_len`] is the one rule picking the form: branchy
//! below [`DEFAULT_PREDICATION_THRESHOLD`] values, predicated from there on.

use crate::{RowId, Value};

/// The payload a sweep permutes in lockstep with the values.
///
/// `()` is the payload of a plain column: its swaps do nothing and compile
/// away. `&mut [RowId]` is the payload of a column that keeps row ids: every
/// value swap is mirrored, so each row id keeps addressing its value.
pub trait RowIds: Sized {
    /// Asserts that the payload is aligned with `len` values.
    ///
    /// # Panics
    ///
    /// Panics if a row-id payload's length differs from `len`.
    fn assert_aligned(&self, len: usize);

    /// Mirrors a swap of the values at `a` and `b`.
    fn swap(&mut self, a: usize, b: usize);

    /// Splits into the payloads of the values `[..mid]` and `[mid..]`.
    #[must_use]
    fn split_at(self, mid: usize) -> (Self, Self);
}

impl RowIds for () {
    fn assert_aligned(&self, _len: usize) {}

    fn swap(&mut self, _a: usize, _b: usize) {}

    fn split_at(self, _mid: usize) -> (Self, Self) {
        ((), ())
    }
}

impl RowIds for &mut [RowId] {
    fn assert_aligned(&self, len: usize) {
        assert_eq!(self.len(), len, "values and rowids must be aligned");
    }

    fn swap(&mut self, a: usize, b: usize) {
        <[RowId]>::swap(self, a, b);
    }

    fn split_at(self, mid: usize) -> (Self, Self) {
        self.split_at_mut(mid)
    }
}

/// Split position plus the value sums of both sides of one two-way
/// partitioning pass.
///
/// The sums are a *fused by-product*: the partitioning sweep already streams
/// every value of the piece through a register, so accumulating `lo_sum`
/// (values `< pivot`) and `total_sum` costs two adds per element and no
/// extra pass. `total_sum - lo_sum` is the sum of the `>= pivot` side.
/// This is what feeds the per-piece aggregate cache — piece sums are
/// produced while the data is already in cache, never by re-reading it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TwoWaySums {
    /// Index of the first value `>= pivot` (equivalently, the number of
    /// values `< pivot`).
    pub split: usize,
    /// Sum of the values `< pivot`.
    pub lo_sum: i128,
    /// Sum of *all* values in the piece.
    pub total_sum: i128,
}

impl TwoWaySums {
    /// Sum of the values `>= pivot`.
    #[must_use]
    pub fn hi_sum(&self) -> i128 {
        self.total_sum - self.lo_sum
    }
}

/// Region boundaries plus per-region sums of one three-way partitioning
/// pass (see [`TwoWaySums`] for the fusion rationale).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreeWaySums {
    /// Index of the first value `>= lo`.
    pub a: usize,
    /// Index of the first value `>= hi`.
    pub b: usize,
    /// Sums of the three regions `< lo`, `[lo, hi)` and `>= hi`. For the
    /// degenerate `hi <= lo` interval the middle sum is 0.
    pub sums: [i128; 3],
}

/// Boundaries plus per-segment sums of one multi-pivot pass: `k` pivots
/// produce `k + 1` segments, `segment_sums[i]` being the sum of the values
/// between boundary `i - 1` and boundary `i` (see [`TwoWaySums`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KWaySums {
    /// One boundary per pivot: `boundaries[i]` is the index of the first
    /// value `>= pivots[i]`.
    pub boundaries: Vec<usize>,
    /// One sum per segment (`boundaries.len() + 1` entries).
    pub segment_sums: Vec<i128>,
}

/// Partitions `data` in place so that all values `< pivot` precede all
/// values `>= pivot`, mirroring every swap in `rowids`, and returns the
/// split position with both sides' sums.
///
/// # Panics
///
/// Panics if a row-id payload is not aligned with `data`.
pub fn crack_in_two<const PREDICATED: bool, R: RowIds>(
    data: &mut [Value],
    mut rowids: R,
    pivot: Value,
) -> TwoWaySums {
    rowids.assert_aligned(data.len());
    partition::<PREDICATED, R>(data, &mut rowids, pivot)
}

/// The two-way pass itself, borrowing the payload so [`crack_in_three`]
/// and [`crack_in_k`] can keep splitting it after the pass.
fn partition<const PREDICATED: bool, R: RowIds>(
    data: &mut [Value],
    rowids: &mut R,
    pivot: Value,
) -> TwoWaySums {
    let mut lo_sum = 0i128;
    let mut total_sum = 0i128;
    if PREDICATED {
        // A predicated Lomuto partition: the write cursor trails the read
        // cursor, every examined element is swapped to the write position
        // unconditionally, and the write cursor advances by
        // `(value < pivot) as usize`. The region `data[write..read]` only
        // ever holds values `>= pivot`, so the unconditional swap is a
        // no-op exactly when the element should stay — correctness never
        // depends on the comparison being taken as a branch, which is what
        // lets the compiler emit straight-line code.
        let mut write = 0usize;
        for read in 0..data.len() {
            let v = data[read];
            let lt = v < pivot;
            // Branch-free masked accumulation, same trick as the storage
            // scans.
            let mask = -(i64::from(lt));
            lo_sum += i128::from(v & mask);
            total_sum += i128::from(v);
            data.swap(write, read);
            rowids.swap(write, read);
            write += usize::from(lt);
        }
        return TwoWaySums {
            split: write,
            lo_sum,
            total_sum,
        };
    }
    let mut lo = 0usize;
    let mut hi = data.len();
    while lo < hi {
        let v = data[lo];
        // Each element is examined (and counted) exactly once: `< pivot`
        // elements when the cursor passes them, `>= pivot` elements when
        // they are swapped out to the tail.
        total_sum += i128::from(v);
        if v < pivot {
            lo_sum += i128::from(v);
            lo += 1;
        } else {
            hi -= 1;
            data.swap(lo, hi);
            rowids.swap(lo, hi);
        }
    }
    TwoWaySums {
        split: lo,
        lo_sum,
        total_sum,
    }
}

/// Partitions `data` in place into three regions — values `< lo`, values in
/// `[lo, hi)` and values `>= hi` — mirroring every swap in `rowids`, and
/// returns the region boundaries with all three region sums.
///
/// The branchy form is a single Dutch-national-flag pass. A three-way
/// partition cannot be predicated as a single pass without introducing
/// data-dependent stores at both ends of the piece, so the predicated form
/// runs two branch-free two-way passes: first at `lo` over the whole
/// piece, then at `hi` over the upper remainder.
///
/// If `hi <= lo` (degenerate empty interval) the call performs a single
/// two-way pass at `lo` and returns `a == b` with a middle sum of 0; see the
/// module docs for the full degenerate-range contract.
///
/// # Panics
///
/// Panics if a row-id payload is not aligned with `data`.
pub fn crack_in_three<const PREDICATED: bool, R: RowIds>(
    data: &mut [Value],
    mut rowids: R,
    lo: Value,
    hi: Value,
) -> ThreeWaySums {
    rowids.assert_aligned(data.len());
    if hi <= lo {
        let two = partition::<PREDICATED, R>(data, &mut rowids, lo);
        return ThreeWaySums {
            a: two.split,
            b: two.split,
            sums: [two.lo_sum, 0, two.hi_sum()],
        };
    }
    if PREDICATED {
        let first = partition::<true, R>(data, &mut rowids, lo);
        let a = first.split;
        let (_, mut upper) = rowids.split_at(a);
        let second = partition::<true, R>(&mut data[a..], &mut upper, hi);
        return ThreeWaySums {
            a,
            b: a + second.split,
            sums: [first.lo_sum, second.lo_sum, second.hi_sum()],
        };
    }
    let mut lt = 0usize; // data[..lt] < lo
    let mut i = 0usize; // data[lt..i] in [lo, hi)
    let mut gt = data.len(); // data[gt..] >= hi
    let mut sums = [0i128; 3];
    while i < gt {
        let v = data[i];
        if v < lo {
            sums[0] += i128::from(v);
            data.swap(i, lt);
            rowids.swap(i, lt);
            lt += 1;
            i += 1;
        } else if v >= hi {
            sums[2] += i128::from(v);
            gt -= 1;
            data.swap(i, gt);
            rowids.swap(i, gt);
        } else {
            sums[1] += i128::from(v);
            i += 1;
        }
    }
    ThreeWaySums { a: lt, b: gt, sums }
}

/// Partitions `data` in place around all of `pivots` (strictly increasing)
/// at once, mirroring every swap in `rowids`, producing `k + 1`
/// value-ordered regions: values `< pivots[0]`, `[pivots[0], pivots[1])`,
/// …, values `>= pivots[k-1]`.
///
/// Returns one boundary per pivot — exactly what `k` separate
/// [`crack_in_two`] calls would report — plus all `k + 1` segment sums. An
/// empty pivot list moves nothing and reports one segment: the whole piece
/// and its sum.
///
/// # Panics
///
/// Panics if a row-id payload is not aligned with `data`, or if `pivots` is
/// not strictly increasing.
pub fn crack_in_k<const PREDICATED: bool, R: RowIds>(
    data: &mut [Value],
    rowids: R,
    pivots: &[Value],
) -> KWaySums {
    rowids.assert_aligned(data.len());
    assert!(
        pivots.windows(2).all(|w| w[0] < w[1]),
        "pivots must be strictly increasing"
    );
    let mut boundaries = vec![0usize; pivots.len()];
    let mut segment_sums = vec![0i128; pivots.len() + 1];
    // The top-level total is produced by the first sweep itself; only the
    // recursion's leaves need a parent-supplied subrange sum — no pre-pass
    // over the data.
    partition_k::<PREDICATED, R>(
        data,
        rowids,
        pivots,
        0,
        None,
        &mut boundaries,
        &mut segment_sums,
    );
    KWaySums {
        boundaries,
        segment_sums,
    }
}

/// The recursion behind [`crack_in_k`]: median-pivot partitioning. The
/// piece is partitioned around the *middle* pivot with one streaming
/// two-way pass, then each half recurses on its pivot subset, so `k` pivots
/// cost `O(n log k)` total work in `log k` perfectly balanced sweeps
/// instead of the `O(n k)` that `k` separate two-way passes would pay on a
/// piece none of them shrinks much.
///
/// This shape was chosen over a classify-and-permute single pass (counting
/// pass + in-place cycle placement) after measuring both: the cycle walk's
/// per-element classification forms a serial dependency chain the CPU
/// cannot overlap, making it 7–18× *slower* at 1M values than these tight
/// two-way sweeps, which stream with full ILP and hardware prefetch.
///
/// The segment sums come for free: the parent knows every child
/// subrange's total (left = `lo_sum`, right = `total - lo_sum` of its own
/// pass), so a leaf with no pivots left records `subrange_sum` without
/// touching the data again. Only a top-level call without pivots has no
/// parent-computed sum and sums its piece.
fn partition_k<const PREDICATED: bool, R: RowIds>(
    data: &mut [Value],
    mut rowids: R,
    pivots: &[Value],
    offset: usize,
    subrange_sum: Option<i128>,
    boundaries: &mut [usize],
    segment_sums: &mut [i128],
) {
    if pivots.is_empty() {
        segment_sums[0] = subrange_sum.unwrap_or_else(|| data.iter().map(|&v| i128::from(v)).sum());
        return;
    }
    let mid = pivots.len() / 2;
    let pass = partition::<PREDICATED, R>(data, &mut rowids, pivots[mid]);
    if let Some(s) = subrange_sum {
        debug_assert_eq!(pass.total_sum, s, "pass total must match parent");
    }
    boundaries[mid] = offset + pass.split;
    let (left_data, right_data) = data.split_at_mut(pass.split);
    let (left_ids, right_ids) = rowids.split_at(pass.split);
    let (left_bounds, right_bounds) = boundaries.split_at_mut(mid);
    let (left_sums, right_sums) = segment_sums.split_at_mut(mid + 1);
    partition_k::<PREDICATED, R>(
        left_data,
        left_ids,
        &pivots[..mid],
        offset,
        Some(pass.lo_sum),
        left_bounds,
        left_sums,
    );
    partition_k::<PREDICATED, R>(
        right_data,
        right_ids,
        &pivots[mid + 1..],
        offset + pass.split,
        Some(pass.hi_sum()),
        &mut right_bounds[1..],
        right_sums,
    );
}

/// Piece length (in values) from which [`KernelChoice::for_piece_len`]
/// picks the predicated form.
///
/// Measured on uniform-random pieces (`benches/micro_crack_kernels.rs`),
/// the predicated form wins at every size from 64 values up (~3.5–3.9× on
/// cold pieces, ~6× at 1M values), because a random pivot mispredicts the
/// branchy loop on roughly every other element regardless of cache
/// residency. The branchy form only wins (~1.05–1.1×) when a piece's
/// content is already partitioned around the pivot — predictable branches —
/// which in a cracker is most likely for tiny, repeatedly re-cracked
/// cache-resident pieces. The rule therefore keeps branchy only below
/// 128 values (one kilobyte, where the absolute gap is tens of
/// nanoseconds) and predicates everything above.
pub const DEFAULT_PREDICATION_THRESHOLD: usize = 128;

/// Which physical kernel form runs for one dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelChoice {
    /// The branchy form (`PREDICATED = false`).
    Branchy,
    /// The branch-free predicated form (`PREDICATED = true`).
    Predicated,
}

impl KernelChoice {
    /// The form a piece of `piece_len` values is cracked with: branchy
    /// below [`DEFAULT_PREDICATION_THRESHOLD`] values, predicated from
    /// there on.
    #[must_use]
    pub fn for_piece_len(piece_len: usize) -> Self {
        if piece_len < DEFAULT_PREDICATION_THRESHOLD {
            KernelChoice::Branchy
        } else {
            KernelChoice::Predicated
        }
    }
}

/// Running totals of kernel dispatches, split by the physical form that ran.
///
/// Maintained by [`crate::CrackerColumn`] and surfaced through the engine's
/// metrics so benches can report which path served a workload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelDispatches {
    /// Dispatches served by the branchy reference kernels.
    pub branchy: u64,
    /// Dispatches served by the predicated kernels.
    pub predicated: u64,
}

impl KernelDispatches {
    /// Records one dispatch.
    pub fn record(&mut self, choice: KernelChoice) {
        match choice {
            KernelChoice::Branchy => self.branchy += 1,
            KernelChoice::Predicated => self.predicated += 1,
        }
    }

    /// Total dispatches of either form.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.branchy + self.predicated
    }

    /// Component-wise difference against an earlier snapshot.
    #[must_use]
    pub fn since(&self, earlier: KernelDispatches) -> KernelDispatches {
        KernelDispatches {
            branchy: self.branchy - earlier.branchy,
            predicated: self.predicated - earlier.predicated,
        }
    }

    /// Component-wise accumulation.
    pub fn add(&mut self, delta: KernelDispatches) {
        self.branchy += delta.branchy;
        self.predicated += delta.predicated;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slice_sum(values: &[Value]) -> i128 {
        values.iter().map(|&v| i128::from(v)).sum()
    }

    fn ids_for(values: &[Value]) -> Vec<RowId> {
        (0..values.len() as RowId).collect()
    }

    fn sorted(mut values: Vec<Value>) -> Vec<Value> {
        values.sort_unstable();
        values
    }

    fn assert_partitioned_two(data: &[Value], split: usize, pivot: Value) {
        assert!(
            data[..split].iter().all(|&v| v < pivot),
            "left side violated"
        );
        assert!(
            data[split..].iter().all(|&v| v >= pivot),
            "right side violated"
        );
    }

    fn assert_partitioned_three(data: &[Value], a: usize, b: usize, lo: Value, hi: Value) {
        assert!(data[..a].iter().all(|&v| v < lo), "first region violated");
        assert!(
            data[a..b].iter().all(|&v| v >= lo && v < hi),
            "middle region violated"
        );
        assert!(data[b..].iter().all(|&v| v >= hi), "last region violated");
    }

    fn assert_partitioned_k(data: &[Value], boundaries: &[usize], pivots: &[Value]) {
        assert_eq!(boundaries.len(), pivots.len());
        let mut prev = 0usize;
        for (i, (&b, &p)) in boundaries.iter().zip(pivots).enumerate() {
            assert!(b >= prev, "boundaries must be non-decreasing");
            assert!(
                data[..b].iter().all(|&v| v < p),
                "values before boundary {i} must be < {p}"
            );
            assert!(
                data[b..].iter().all(|&v| v >= p),
                "values after boundary {i} must be >= {p}"
            );
            prev = b;
        }
    }

    /// Every row id must still address its original value.
    fn assert_aligned(original: &[Value], data: &[Value], ids: &[RowId]) {
        for (&v, &id) in data.iter().zip(ids) {
            assert_eq!(
                original[id as usize], v,
                "rowid must still address its value"
            );
        }
    }

    /// The sums of the regions `cuts` delimits in `data`.
    fn region_sums(data: &[Value], cuts: &[usize]) -> Vec<i128> {
        let mut edges = vec![0usize];
        edges.extend_from_slice(cuts);
        edges.push(data.len());
        edges
            .windows(2)
            .map(|w| slice_sum(&data[w[0]..w[1]]))
            .collect()
    }

    #[test]
    fn crack_in_two_basic() {
        let mut data = vec![5, 1, 9, 3, 7, 3, 0, 10];
        let orig = sorted(data.clone());
        let two = crack_in_two::<false, _>(&mut data, (), 5);
        assert_eq!(two.split, 4);
        assert_partitioned_two(&data, two.split, 5);
        assert_eq!(sorted(data), orig, "multiset must be preserved");
    }

    #[test]
    fn crack_in_two_extremes() {
        let mut data = vec![3, 1, 2];
        assert_eq!(crack_in_two::<false, _>(&mut data, (), i64::MIN).split, 0);
        assert_eq!(crack_in_two::<false, _>(&mut data, (), 100).split, 3);
        let mut empty: Vec<Value> = vec![];
        assert_eq!(crack_in_two::<false, _>(&mut empty, (), 5).split, 0);
        assert_eq!(crack_in_two::<true, _>(&mut empty, (), 5).split, 0);
        let mut single = vec![7];
        assert_eq!(crack_in_two::<false, _>(&mut single, (), 7).split, 0);
        assert_eq!(crack_in_two::<true, _>(&mut single, (), 8).split, 1);
    }

    #[test]
    fn crack_in_two_all_equal_values() {
        let mut data = vec![4; 10];
        assert_eq!(crack_in_two::<false, _>(&mut data, (), 4).split, 0);
        assert_eq!(crack_in_two::<false, _>(&mut data, (), 5).split, 10);
        assert_eq!(crack_in_two::<true, _>(&mut data, (), 4).split, 0);
        assert_eq!(crack_in_two::<true, _>(&mut data, (), 5).split, 10);
    }

    #[test]
    fn crack_in_two_with_rowids_keeps_pairs_aligned() {
        let base = vec![50, 10, 90, 30];
        let mut data = base.clone();
        let mut ids = ids_for(&base);
        let two = crack_in_two::<false, _>(&mut data, ids.as_mut_slice(), 40);
        assert_partitioned_two(&data, two.split, 40);
        assert_aligned(&base, &data, &ids);
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn crack_in_two_with_rowids_rejects_mismatched_lengths() {
        let mut data = vec![1, 2];
        let mut ids: Vec<RowId> = vec![0];
        let _ = crack_in_two::<false, _>(&mut data, ids.as_mut_slice(), 1);
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn predicated_with_rowids_rejects_mismatched_lengths() {
        let mut data = vec![1, 2];
        let mut ids: Vec<RowId> = vec![0];
        let _ = crack_in_two::<true, _>(&mut data, ids.as_mut_slice(), 1);
    }

    #[test]
    fn crack_in_three_basic() {
        let mut data = vec![5, 1, 9, 3, 7, 3, 0, 10, 4, 6];
        let expected = sorted(data.clone());
        let three = crack_in_three::<false, _>(&mut data, (), 3, 7);
        assert_partitioned_three(&data, three.a, three.b, 3, 7);
        assert_eq!(three.b - three.a, 5); // 5, 3, 3, 4, 6
        assert_eq!(sorted(data), expected);
    }

    #[test]
    fn crack_in_three_degenerate_range() {
        let mut data = vec![5, 1, 9, 3];
        let three = crack_in_three::<false, _>(&mut data, (), 6, 6);
        assert_eq!(three.a, three.b);
        assert_partitioned_two(&data, three.a, 6);
        let three = crack_in_three::<false, _>(&mut data, (), 8, 2);
        assert_eq!(three.a, three.b);
    }

    #[test]
    fn degenerate_range_consistent_across_all_variants() {
        // Both forms, with and without row ids, must agree on the
        // degenerate interval: partition at `lo`, report an empty middle
        // with a zero middle sum.
        let base = vec![5, 1, 9, 3, 7, 2, 8];
        for (lo, hi) in [(6, 6), (8, 2), (i64::MAX, i64::MIN)] {
            let split = base.iter().filter(|&&v| v < lo).count();
            let low: i128 = base
                .iter()
                .filter(|&&v| v < lo)
                .map(|&v| i128::from(v))
                .sum();
            let want = ThreeWaySums {
                a: split,
                b: split,
                sums: [low, 0, slice_sum(&base) - low],
            };
            let mut d = base.clone();
            assert_eq!(crack_in_three::<false, _>(&mut d, (), lo, hi), want);
            assert_partitioned_two(&d, split, lo);
            let mut d = base.clone();
            assert_eq!(crack_in_three::<true, _>(&mut d, (), lo, hi), want);
            assert_partitioned_two(&d, split, lo);
            for pred in [false, true] {
                let mut d = base.clone();
                let mut ids = ids_for(&base);
                let got = if pred {
                    crack_in_three::<true, _>(&mut d, ids.as_mut_slice(), lo, hi)
                } else {
                    crack_in_three::<false, _>(&mut d, ids.as_mut_slice(), lo, hi)
                };
                assert_eq!(got, want, "rowids pred={pred}");
                assert_partitioned_two(&d, split, lo);
                assert_aligned(&base, &d, &ids);
            }
        }
    }

    #[test]
    fn crack_in_three_whole_range() {
        let mut data = vec![2, 9, 4];
        let three = crack_in_three::<false, _>(&mut data, (), i64::MIN, i64::MAX);
        assert_eq!((three.a, three.b), (0, 3));
        assert_eq!(three.sums, [0, 15, 0]);
    }

    #[test]
    fn crack_in_three_with_rowids_keeps_pairs_aligned() {
        let base = vec![50, 10, 90, 30, 70, 20];
        for pred in [false, true] {
            let mut data = base.clone();
            let mut ids = ids_for(&base);
            let three = if pred {
                crack_in_three::<true, _>(&mut data, ids.as_mut_slice(), 25, 75)
            } else {
                crack_in_three::<false, _>(&mut data, ids.as_mut_slice(), 25, 75)
            };
            assert_partitioned_three(&data, three.a, three.b, 25, 75);
            assert_aligned(&base, &data, &ids);
        }
    }

    #[test]
    fn crack_in_three_empty_input() {
        let mut data: Vec<Value> = vec![];
        let empty = ThreeWaySums {
            a: 0,
            b: 0,
            sums: [0; 3],
        };
        assert_eq!(crack_in_three::<false, _>(&mut data, (), 1, 5), empty);
        assert_eq!(crack_in_three::<true, _>(&mut data, (), 1, 5), empty);
    }

    #[test]
    fn predicated_two_matches_branchy_split() {
        let samples: &[&[Value]] = &[
            &[],
            &[7],
            &[4; 10],
            &[5, 1, 9, 3, 7, 3, 0, 10],
            &[9, 8, 7, 6, 5, 4, 3, 2, 1, 0],
        ];
        for &sample in samples {
            for pivot in [-1, 0, 3, 5, 7, 100] {
                let mut branchy = sample.to_vec();
                let mut pred = sample.to_vec();
                let a = crack_in_two::<false, _>(&mut branchy, (), pivot);
                let b = crack_in_two::<true, _>(&mut pred, (), pivot);
                assert_eq!(a, b, "split/sum mismatch for {sample:?} at {pivot}");
                assert_partitioned_two(&pred, b.split, pivot);
                assert_eq!(sorted(branchy), sorted(pred), "multiset mismatch");
            }
        }
    }

    #[test]
    fn predicated_three_matches_branchy_boundaries() {
        let sample = vec![5, 1, 9, 3, 7, 3, 0, 10, 4, 6, 2, 8];
        for (lo, hi) in [(3, 7), (0, 11), (-5, 100), (4, 5), (7, 3)] {
            let mut branchy = sample.clone();
            let mut pred = sample.clone();
            let a = crack_in_three::<false, _>(&mut branchy, (), lo, hi);
            let b = crack_in_three::<true, _>(&mut pred, (), lo, hi);
            assert_eq!(a, b, "boundary/sum mismatch for [{lo},{hi})");
            if lo < hi {
                assert_partitioned_three(&pred, b.a, b.b, lo, hi);
            }
        }
    }

    #[test]
    fn predicated_rowids_stay_aligned() {
        let base = vec![50, 10, 90, 30, 70, 20, 40, 80];
        let mut d = base.clone();
        let mut ids = ids_for(&base);
        let two = crack_in_two::<true, _>(&mut d, ids.as_mut_slice(), 45);
        assert_partitioned_two(&d, two.split, 45);
        assert_aligned(&base, &d, &ids);
        let mut d = base.clone();
        let mut ids = ids_for(&base);
        let three = crack_in_three::<true, _>(&mut d, ids.as_mut_slice(), 25, 75);
        assert_partitioned_three(&d, three.a, three.b, 25, 75);
        assert_aligned(&base, &d, &ids);
    }

    #[test]
    fn kernel_policy_dispatch() {
        // The one length rule: branchy below the threshold, predicated
        // from it on.
        assert_eq!(KernelChoice::for_piece_len(0), KernelChoice::Branchy);
        assert_eq!(KernelChoice::for_piece_len(127), KernelChoice::Branchy);
        assert_eq!(KernelChoice::for_piece_len(128), KernelChoice::Predicated);
        assert_eq!(
            KernelChoice::for_piece_len(1 << 30),
            KernelChoice::Predicated
        );
        assert_eq!(DEFAULT_PREDICATION_THRESHOLD, 128);
    }

    #[test]
    fn crack_in_k_matches_repeated_crack_in_two() {
        let base: Vec<Value> = vec![13, 16, 4, 9, 2, 12, 7, 1, 19, 3, 14, 11, 8, 6, 9, 4];
        for pivots in [
            vec![5],
            vec![3, 9],
            vec![2, 7, 12, 15],
            vec![-10, 0, 4, 4 + 1, 100],
            vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
        ] {
            let expected: Vec<usize> = pivots
                .iter()
                .map(|&p| crack_in_two::<false, _>(&mut base.clone(), (), p).split)
                .collect();
            for pred in [false, true] {
                let mut data = base.clone();
                let k = if pred {
                    crack_in_k::<true, _>(&mut data, (), &pivots)
                } else {
                    crack_in_k::<false, _>(&mut data, (), &pivots)
                };
                assert_eq!(k.boundaries, expected, "pred={pred} for {pivots:?}");
                assert_partitioned_k(&data, &k.boundaries, &pivots);
                assert_eq!(sorted(data), sorted(base.clone()), "multiset, pred={pred}");
            }
        }
    }

    #[test]
    fn crack_in_k_edge_cases() {
        // Empty pivot list: nothing moves, one segment — the whole piece.
        let mut d = vec![3, 1, 2];
        let k = crack_in_k::<false, _>(&mut d, (), &[]);
        assert!(k.boundaries.is_empty());
        assert_eq!(k.segment_sums, vec![6]);
        assert_eq!(d, vec![3, 1, 2]);
        let mut ids = ids_for(&d);
        let k = crack_in_k::<true, _>(&mut d, ids.as_mut_slice(), &[]);
        assert_eq!(k.segment_sums, vec![6]);
        // Empty data: all boundaries and sums are 0.
        let mut empty: Vec<Value> = vec![];
        let k = crack_in_k::<false, _>(&mut empty, (), &[1, 5]);
        assert_eq!(k.boundaries, vec![0, 0]);
        assert_eq!(k.segment_sums, vec![0, 0, 0]);
        let k = crack_in_k::<true, _>(&mut empty, (), &[]);
        assert_eq!(k.segment_sums, vec![0]);
        // All values identical: boundaries snap to the ends.
        let mut same = vec![4; 8];
        let k = crack_in_k::<true, _>(&mut same, (), &[4, 5]);
        assert_eq!(k.boundaries, vec![0, 8]);
        // Pivots outside the data range.
        let mut d = vec![10, 20, 30];
        let k = crack_in_k::<false, _>(&mut d, (), &[-5, 100]);
        assert_eq!(k.boundaries, vec![0, 3]);
        assert_eq!(k.segment_sums, vec![0, 60, 0]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn crack_in_k_rejects_unsorted_pivots() {
        let mut d = vec![1, 2, 3];
        let _ = crack_in_k::<false, _>(&mut d, (), &[5, 5]);
    }

    #[test]
    fn crack_in_k_with_rowids_keeps_pairs_aligned() {
        let base = vec![50, 10, 90, 30, 70, 20, 40, 80, 60, 15];
        let pivots = vec![25, 45, 75];
        for pred in [false, true] {
            let mut d = base.clone();
            let mut ids = ids_for(&base);
            let k = if pred {
                crack_in_k::<true, _>(&mut d, ids.as_mut_slice(), &pivots)
            } else {
                crack_in_k::<false, _>(&mut d, ids.as_mut_slice(), &pivots)
            };
            assert_partitioned_k(&d, &k.boundaries, &pivots);
            assert_aligned(&base, &d, &ids);
        }
    }

    #[test]
    fn crack_in_k_kernel_policy_dispatch() {
        // A cracker column's batch path runs the k-way sweep in the form
        // the length rule picks, with either payload: one dispatch per
        // piece, counted under that form, with exact answers.
        for (len, want) in [
            (100, KernelChoice::Branchy),
            (4096, KernelChoice::Predicated),
        ] {
            let base: Vec<Value> = (0..len as Value)
                .map(|i| (i * 7919) % len as Value)
                .collect();
            let bounds: Vec<(Value, Value)> = (0..8).map(|i| (i * 10, i * 10 + 5)).collect();
            for mut column in [
                crate::CrackerColumn::from_values(base.clone()),
                crate::CrackerColumn::from_values_with_rowids(base.clone()),
            ] {
                let ranges = column.crack_select_batch(&bounds);
                let mut expected = KernelDispatches::default();
                expected.record(want);
                assert_eq!(column.kernel_dispatches(), expected, "{len} values");
                for (r, &(lo, hi)) in ranges.iter().zip(&bounds) {
                    assert!(column.view(r.clone()).iter().all(|&v| v >= lo && v < hi));
                    assert_eq!(r.len(), 5);
                    if let Some(ids) = column.rowids_in(r.clone()) {
                        assert_aligned(&base, column.view(r.clone()), ids);
                    }
                }
                assert!(column.validate());
            }
        }
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn crack_in_k_with_rowids_rejects_mismatched_lengths() {
        let mut d = vec![1, 2];
        let mut ids: Vec<RowId> = vec![0];
        let _ = crack_in_k::<true, _>(&mut d, ids.as_mut_slice(), &[1]);
    }

    #[test]
    fn sum_fused_two_way_matches_plain_and_scan() {
        let samples: &[&[Value]] = &[
            &[],
            &[7],
            &[4; 10],
            &[5, 1, 9, 3, 7, 3, 0, 10],
            &[9, 8, 7, 6, 5, 4, 3, 2, 1, 0],
            &[i64::MAX, i64::MIN, 0, i64::MAX, i64::MIN],
        ];
        for &sample in samples {
            for pivot in [i64::MIN, -1, 0, 3, 5, 7, 100, i64::MAX] {
                let split = sample.iter().filter(|&&v| v < pivot).count();
                // Every form, plain and with row ids, must report the
                // split and the sums of the regions it actually produced.
                for (pred, with_ids) in [(false, false), (true, false), (false, true), (true, true)]
                {
                    let mut d = sample.to_vec();
                    let mut ids = ids_for(sample);
                    let got = match (pred, with_ids) {
                        (false, false) => crack_in_two::<false, _>(&mut d, (), pivot),
                        (true, false) => crack_in_two::<true, _>(&mut d, (), pivot),
                        (false, true) => {
                            crack_in_two::<false, _>(&mut d, ids.as_mut_slice(), pivot)
                        }
                        (true, true) => crack_in_two::<true, _>(&mut d, ids.as_mut_slice(), pivot),
                    };
                    let ctx = format!("{sample:?} at {pivot}, pred={pred} ids={with_ids}");
                    assert_eq!(got.split, split, "{ctx}");
                    assert_partitioned_two(&d, got.split, pivot);
                    assert_eq!(
                        vec![got.lo_sum, got.hi_sum()],
                        region_sums(&d, &[got.split]),
                        "{ctx}"
                    );
                    assert_eq!(got.total_sum, slice_sum(sample), "{ctx}");
                    if with_ids {
                        assert_aligned(sample, &d, &ids);
                    }
                }
            }
        }
    }

    #[test]
    fn sum_fused_three_way_matches_plain_and_scan() {
        let sample = vec![5, 1, 9, 3, 7, 3, 0, 10, 4, 6, 2, 8];
        for (lo, hi) in [(3, 7), (0, 11), (-5, 100), (4, 5), (7, 3), (6, 6)] {
            let a = sample.iter().filter(|&&v| v < lo).count();
            let b = if hi <= lo {
                a
            } else {
                sample.iter().filter(|&&v| v < hi).count()
            };
            for (pred, with_ids) in [(false, false), (true, false), (false, true), (true, true)] {
                let mut d = sample.clone();
                let mut ids = ids_for(&sample);
                let got = match (pred, with_ids) {
                    (false, false) => crack_in_three::<false, _>(&mut d, (), lo, hi),
                    (true, false) => crack_in_three::<true, _>(&mut d, (), lo, hi),
                    (false, true) => crack_in_three::<false, _>(&mut d, ids.as_mut_slice(), lo, hi),
                    (true, true) => crack_in_three::<true, _>(&mut d, ids.as_mut_slice(), lo, hi),
                };
                let ctx = format!("[{lo},{hi}) pred={pred} ids={with_ids}");
                assert_eq!((got.a, got.b), (a, b), "{ctx}");
                assert_eq!(got.sums.to_vec(), region_sums(&d, &[a, b]), "{ctx}");
                if with_ids {
                    assert_aligned(&sample, &d, &ids);
                }
            }
        }
    }

    #[test]
    fn sum_fused_k_way_matches_plain_and_scan() {
        let base: Vec<Value> = vec![13, 16, 4, 9, 2, 12, 7, 1, 19, 3, 14, 11, 8, 6, 9, 4];
        for pivots in [
            vec![],
            vec![5],
            vec![3, 9],
            vec![2, 7, 12, 15],
            vec![-10, 0, 4, 5, 100],
            vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
        ] {
            let expected_bounds: Vec<usize> = pivots
                .iter()
                .map(|&p| base.iter().filter(|&&v| v < p).count())
                .collect();
            for (pred, with_ids) in [(false, false), (true, false), (false, true), (true, true)] {
                let mut d = base.clone();
                let mut ids = ids_for(&base);
                let got = match (pred, with_ids) {
                    (false, false) => crack_in_k::<false, _>(&mut d, (), &pivots),
                    (true, false) => crack_in_k::<true, _>(&mut d, (), &pivots),
                    (false, true) => crack_in_k::<false, _>(&mut d, ids.as_mut_slice(), &pivots),
                    (true, true) => crack_in_k::<true, _>(&mut d, ids.as_mut_slice(), &pivots),
                };
                let ctx = format!("{pivots:?} pred={pred} ids={with_ids}");
                assert_eq!(got.boundaries, expected_bounds, "{ctx}");
                assert_eq!(got.segment_sums, region_sums(&d, &expected_bounds), "{ctx}");
                if with_ids {
                    assert_aligned(&base, &d, &ids);
                }
            }
        }
    }

    #[test]
    fn sum_fused_kernel_policy_dispatch() {
        // The two- and three-way sweeps a cracker column dispatches under
        // the length rule seed every piece they produce with its exact sum,
        // in either form and with either payload.
        for (len, want) in [
            (100, KernelChoice::Branchy),
            (4096, KernelChoice::Predicated),
        ] {
            let base: Vec<Value> = (0..len as Value).rev().collect();
            let (lo, hi) = (len as Value / 4, len as Value / 2);
            for mut column in [
                crate::CrackerColumn::from_values(base.clone()),
                crate::CrackerColumn::from_values_with_rowids(base.clone()),
            ] {
                // One three-way pass, then one two-way pass in the top piece.
                let r = column.crack_select(lo, hi);
                let _ = column.crack_at(len as Value - len as Value / 8);
                let d = column.kernel_dispatches();
                let forms = match want {
                    KernelChoice::Branchy => (d.branchy, d.predicated),
                    KernelChoice::Predicated => (d.predicated, d.branchy),
                };
                assert_eq!(forms, (2, 0), "{len} values");
                assert_eq!(column.cached_sum_pieces(), column.piece_count());
                for p in column.pieces() {
                    assert_eq!(p.sum, Some(slice_sum(&column.data()[p.start..p.end])));
                }
                let agg = column.aggregate_range(r.clone(), lo, hi);
                assert_eq!(agg.sum, (lo..hi).map(i128::from).sum::<i128>());
                assert_eq!(agg.scanned_values, 0);
                assert!(column.validate());
            }
        }
    }

    #[test]
    fn dispatch_counters_accumulate() {
        let mut d = KernelDispatches::default();
        d.record(KernelChoice::Branchy);
        d.record(KernelChoice::Predicated);
        d.record(KernelChoice::Predicated);
        assert_eq!(d.branchy, 1);
        assert_eq!(d.predicated, 2);
        assert_eq!(d.total(), 3);
        let earlier = KernelDispatches {
            branchy: 1,
            predicated: 0,
        };
        let delta = d.since(earlier);
        assert_eq!(
            delta,
            KernelDispatches {
                branchy: 0,
                predicated: 2
            }
        );
        let mut acc = KernelDispatches::default();
        acc.add(delta);
        acc.add(delta);
        assert_eq!(acc.predicated, 4);
    }
}
