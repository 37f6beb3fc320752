//! Stochastic cracking: robustness against adversarial query sequences.
//!
//! Plain cracking only splits at query bounds. A sequential workload (e.g.
//! a sliding window moving left to right) then always leaves one huge
//! unindexed piece that every query has to re-partition, so per-query cost
//! stays O(n) for a long time. Stochastic cracking (Halim, Idreos, Karras,
//! Yap — PVLDB 2012) injects additional *data-driven or random* splits so
//! progress is made on every query regardless of where its bounds fall.
//!
//! Implemented variants:
//!
//! * [`CrackPolicy::Standard`] — plain cracking, no auxiliary splits.
//! * [`CrackPolicy::Ddc`] — *Divide & Conquer (center)*: before resolving a
//!   query bound inside a large piece, recursively crack the piece at the
//!   value of its middle element until pieces drop below a threshold.
//! * [`CrackPolicy::Ddr`] — *Divide & Conquer (random)*: as DDC but the
//!   recursive pivots are values at random positions.
//! * [`CrackPolicy::Mdd1r`] — *Materialize, Data-Driven, 1 Random*: resolve
//!   the query bounds exactly, then add one random split inside each piece
//!   the query touched.

use rand::Rng;

use crate::cracker::CrackerColumn;
use crate::Value;

/// Default piece-size threshold (in values) below which the divide-and-
/// conquer policies stop introducing auxiliary splits.
pub const DEFAULT_DC_THRESHOLD: usize = 4096;

/// The cracking policy applied by a select operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CrackPolicy {
    /// Plain database cracking (split only at query bounds).
    #[default]
    Standard,
    /// Divide & conquer with center pivots until pieces fall below the
    /// threshold.
    Ddc {
        /// Stop splitting once pieces are at most this many values.
        threshold: usize,
    },
    /// Divide & conquer with random pivots until pieces fall below the
    /// threshold.
    Ddr {
        /// Stop splitting once pieces are at most this many values.
        threshold: usize,
    },
    /// One extra random split per piece touched by the query.
    Mdd1r,
}

impl CrackPolicy {
    /// DDC with the default threshold.
    #[must_use]
    pub fn ddc() -> Self {
        CrackPolicy::Ddc {
            threshold: DEFAULT_DC_THRESHOLD,
        }
    }

    /// DDR with the default threshold.
    #[must_use]
    pub fn ddr() -> Self {
        CrackPolicy::Ddr {
            threshold: DEFAULT_DC_THRESHOLD,
        }
    }

    /// A short, stable name for reports and benchmark output.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            CrackPolicy::Standard => "standard",
            CrackPolicy::Ddc { .. } => "ddc",
            CrackPolicy::Ddr { .. } => "ddr",
            CrackPolicy::Mdd1r => "mdd1r",
        }
    }
}

/// Answers the range select `[lo, hi)` on `column` using the given cracking
/// policy: a batch of one ([`crack_select_batch_with_policy`]). Returns the
/// contiguous position range of qualifying values, just like
/// [`CrackerColumn::crack_select`].
pub fn crack_select_with_policy<R: Rng + ?Sized>(
    column: &mut CrackerColumn,
    lo: Value,
    hi: Value,
    policy: CrackPolicy,
    rng: &mut R,
) -> std::ops::Range<usize> {
    crack_select_batch_with_policy(column, &[(lo, hi)], policy, rng)
        .pop()
        .unwrap_or_default()
}

/// Answers a batch of range selects under the given cracking policy, built
/// on [`CrackerColumn::crack_select_batch`]'s multi-pivot pass.
///
/// DDC/DDR run their divide-and-conquer pre-splits around every
/// deduplicated bound (in ascending order) before the exact batch pass, and
/// MDD1R adds one random split inside each distinct piece the batch's
/// bounds originally touched, after the exact pass — a piece holding both
/// bounds of a query is split once, not twice. Answers are always exactly
/// the qualifying ranges, whatever the policy.
pub fn crack_select_batch_with_policy<R: Rng + ?Sized>(
    column: &mut CrackerColumn,
    bounds: &[(Value, Value)],
    policy: CrackPolicy,
    rng: &mut R,
) -> Vec<std::ops::Range<usize>> {
    if column.is_empty() {
        return bounds.iter().map(|_| 0..0).collect();
    }
    match policy {
        CrackPolicy::Standard => column.crack_select_batch(bounds),
        CrackPolicy::Ddc { threshold } | CrackPolicy::Ddr { threshold } => {
            let random_pivot = matches!(policy, CrackPolicy::Ddr { .. });
            for v in crate::cracker::dedup_batch_pivots(bounds) {
                pre_split(column, v, threshold.max(1), rng, random_pivot);
            }
            column.crack_select_batch(bounds)
        }
        CrackPolicy::Mdd1r => {
            let mut extents: Vec<(Value, Value)> = crate::cracker::dedup_batch_pivots(bounds)
                .into_iter()
                .filter_map(|v| piece_extent_for_value(column, v))
                .collect();
            extents.sort_unstable();
            extents.dedup();
            let ranges = column.crack_select_batch(bounds);
            for (plo, phi) in extents {
                if phi > plo {
                    column.random_crack_in_range(plo, phi, rng);
                }
            }
            ranges
        }
    }
}

/// Value extent (lo, hi) of the piece that currently holds `v`, if that
/// extent is known on both sides. Used by MDD1R to restrict its auxiliary
/// random split to the region the query actually touched.
fn piece_extent_for_value(column: &CrackerColumn, v: Value) -> Option<(Value, Value)> {
    let idx = column.index().find_piece_for_value(v)?;
    let p = column.index().piece(idx);
    let data = column.data();
    if p.is_empty() {
        return None;
    }
    let slice = &data[p.start..p.end];
    let lo = match p.lo {
        Some(lo) => lo,
        None => slice.iter().copied().min()?,
    };
    let hi = match p.hi {
        Some(hi) => hi,
        None => slice.iter().copied().max()? + 1,
    };
    (hi > lo).then_some((lo, hi))
}

/// Recursively splits the piece containing `v` until it is smaller than
/// `threshold`, using center (DDC) or random (DDR) pivots.
fn pre_split<R: Rng + ?Sized>(
    column: &mut CrackerColumn,
    v: Value,
    threshold: usize,
    rng: &mut R,
    random_pivot: bool,
) {
    // Bounded number of rounds to guarantee termination even on pathological
    // (e.g. all-equal) data where splits cannot shrink the piece.
    for _ in 0..64 {
        let Some(idx) = column.index().find_piece_for_value(v) else {
            return;
        };
        let p = column.index().piece(idx);
        if p.len() <= threshold || p.sorted {
            return;
        }
        let pos = if random_pivot {
            rng.gen_range(p.start..p.end)
        } else {
            p.start + p.len() / 2
        };
        let pivot = column.data()[pos];
        let before = column.piece_count();
        column.crack_at(pivot);
        if column.piece_count() == before {
            // No progress possible (duplicate-heavy piece); stop.
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn data() -> Vec<Value> {
        // Deterministic pseudo-random permutation of 0..4096.
        let mut v: Vec<Value> = (0..4096).collect();
        let mut state = 12345u64;
        for i in (1..v.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            v.swap(i, j);
        }
        v
    }

    fn scan_count(values: &[Value], lo: Value, hi: Value) -> u64 {
        values.iter().filter(|&&v| v >= lo && v < hi).count() as u64
    }

    fn all_policies() -> Vec<CrackPolicy> {
        vec![
            CrackPolicy::Standard,
            CrackPolicy::Ddc { threshold: 256 },
            CrackPolicy::Ddr { threshold: 256 },
            CrackPolicy::Mdd1r,
        ]
    }

    #[test]
    fn every_policy_returns_scan_equivalent_results() {
        let base = data();
        for policy in all_policies() {
            let mut c = CrackerColumn::from_values(base.clone());
            let mut rng = StdRng::seed_from_u64(9);
            for &(lo, hi) in &[
                (100, 141),
                (2000, 2041),
                (0, 4096),
                (4000, 4001),
                (500, 300),
            ] {
                let r = crack_select_with_policy(&mut c, lo, hi, policy, &mut rng);
                assert_eq!(
                    (r.end - r.start) as u64,
                    scan_count(&base, lo, hi),
                    "policy {policy:?} wrong for [{lo},{hi})"
                );
                assert!(c.view(r).iter().all(|&v| v >= lo && v < hi));
                assert!(c.validate(), "policy {policy:?} broke invariants");
            }
        }
    }

    #[test]
    fn dc_policies_split_large_pieces_proactively() {
        let base = data();
        let mut plain = CrackerColumn::from_values(base.clone());
        let mut ddc = CrackerColumn::from_values(base.clone());
        let mut rng = StdRng::seed_from_u64(3);
        let _ = crack_select_with_policy(&mut plain, 10, 20, CrackPolicy::Standard, &mut rng);
        let _ = crack_select_with_policy(
            &mut ddc,
            10,
            20,
            CrackPolicy::Ddc { threshold: 256 },
            &mut rng,
        );
        assert!(
            ddc.piece_count() > plain.piece_count(),
            "DDC should leave more pieces ({} vs {})",
            ddc.piece_count(),
            plain.piece_count()
        );
        // DDC drives the pieces *around the query bounds* below the
        // threshold (the complementary halves it peels off stay large —
        // that is by design; they get refined when later queries land there).
        for probe in [10, 15, 20] {
            let idx = ddc.index().find_piece_for_value(probe).unwrap();
            assert!(
                ddc.index().piece(idx).len() <= 256,
                "piece around {probe} still has {} values",
                ddc.index().piece(idx).len()
            );
        }
    }

    #[test]
    fn mdd1r_adds_at_most_a_few_extra_pieces_per_query() {
        let base = data();
        let mut c = CrackerColumn::from_values(base);
        let mut rng = StdRng::seed_from_u64(11);
        let _ = crack_select_with_policy(&mut c, 1000, 1041, CrackPolicy::Mdd1r, &mut rng);
        // Exact cracking of one fresh piece yields <= 3 pieces; MDD1R adds at
        // most 2 more (one per touched piece).
        assert!(c.piece_count() <= 5, "got {} pieces", c.piece_count());
        assert!(c.piece_count() >= 3);
    }

    #[test]
    fn mdd1r_splits_a_piece_holding_both_bounds_once() {
        // Both bounds of the first query fall into the column's single
        // piece: one three-way pass resolves them, then MDD1R adds exactly
        // one auxiliary random crack to that piece — not one per bound.
        let mut c = CrackerColumn::from_values(data());
        let mut rng = StdRng::seed_from_u64(11);
        let r = crack_select_with_policy(&mut c, 1000, 1041, CrackPolicy::Mdd1r, &mut rng);
        assert_eq!(r.len(), 41);
        assert_eq!(c.kernel_dispatches().total(), 2, "exact pass + one aux");
        assert_eq!(c.cracks_performed(), 2);
        assert_eq!(c.piece_count(), 4);
        assert!(c.validate());
    }

    #[test]
    fn sequential_workload_progress_under_ddr() {
        // Sliding window left-to-right: the classic worst case for plain cracking.
        let base = data();
        let mut plain = CrackerColumn::from_values(base.clone());
        let mut ddr = CrackerColumn::from_values(base.clone());
        let mut rng = StdRng::seed_from_u64(5);
        for q in 0..32 {
            let lo = q * 64;
            let hi = lo + 64;
            let _ = crack_select_with_policy(&mut plain, lo, hi, CrackPolicy::Standard, &mut rng);
            let _ = crack_select_with_policy(
                &mut ddr,
                lo,
                hi,
                CrackPolicy::Ddr { threshold: 128 },
                &mut rng,
            );
        }
        // Under the sequential workload plain cracking still has a huge
        // unindexed tail piece and exactly one boundary per query bound; DDR
        // keeps splitting ahead of the query sequence.
        assert!(
            ddr.piece_count() > plain.piece_count(),
            "ddr pieces {} vs plain {}",
            ddr.piece_count(),
            plain.piece_count()
        );
        assert!(
            ddr.index().max_piece_len() <= plain.index().max_piece_len(),
            "ddr max piece {} vs plain {}",
            ddr.index().max_piece_len(),
            plain.index().max_piece_len()
        );
    }

    #[test]
    fn all_equal_data_terminates() {
        let base = vec![7; 10_000];
        for policy in all_policies() {
            let mut c = CrackerColumn::from_values(base.clone());
            let mut rng = StdRng::seed_from_u64(1);
            let r = crack_select_with_policy(&mut c, 0, 7, policy, &mut rng);
            assert_eq!(r.end - r.start, 0, "policy {policy:?}");
            let r = crack_select_with_policy(&mut c, 7, 8, policy, &mut rng);
            assert_eq!(r.end - r.start, 10_000, "policy {policy:?}");
        }
    }

    #[test]
    fn policy_names_are_stable() {
        assert_eq!(CrackPolicy::Standard.name(), "standard");
        assert_eq!(CrackPolicy::ddc().name(), "ddc");
        assert_eq!(CrackPolicy::ddr().name(), "ddr");
        assert_eq!(CrackPolicy::Mdd1r.name(), "mdd1r");
        assert_eq!(CrackPolicy::default(), CrackPolicy::Standard);
    }
}
