//! Property-based equivalence suite for the three generic crack sweeps
//! (`crack_in_two`, `crack_in_three`, `crack_in_k`): the predicated
//! (branch-free) form must be observationally equivalent to the branchy
//! form, with and without a row-id payload.
//!
//! For arbitrary pieces and pivots, both forms must agree on:
//!
//! * the partition boundaries (the returned split points);
//! * the value multiset (no value lost, duplicated or invented);
//! * the partition predicate itself (each region holds only the values the
//!   contract promises);
//! * the fused sums — every returned sum must equal the sum recomputed from
//!   the region the sweep actually produced;
//! * value/row-id pair alignment with a row-id payload (every row id still
//!   addresses its original value after the permutation).
//!
//! Degenerate inputs — empty pieces, single elements, all-equal pieces,
//! pivots outside the value domain, and empty (`hi <= lo`) intervals — are
//! exercised both through dedicated generators and as boundary cases of the
//! general ones.

use proptest::prelude::*;

use holistic_cracking::kernels::{
    crack_in_k, crack_in_three, crack_in_two, KernelChoice, KernelDispatches,
    DEFAULT_PREDICATION_THRESHOLD,
};
use holistic_cracking::CrackerColumn;

type Value = i64;
type RowId = u32;

fn sorted(mut v: Vec<Value>) -> Vec<Value> {
    v.sort_unstable();
    v
}

fn rowids_for(values: &[Value]) -> Vec<RowId> {
    (0..values.len() as RowId).collect()
}

fn assert_pairs_preserved(original: &[Value], data: &[Value], rowids: &[RowId]) {
    assert_eq!(data.len(), rowids.len());
    for (&v, &id) in data.iter().zip(rowids) {
        assert_eq!(original[id as usize], v, "rowid {id} lost its value");
    }
    // Row ids are a permutation (no id lost or duplicated).
    let mut ids = rowids.to_vec();
    ids.sort_unstable();
    assert_eq!(ids, rowids_for(original));
}

/// The sums of the regions `cuts` delimits in `data`.
fn region_sums(data: &[Value], cuts: &[usize]) -> Vec<i128> {
    let mut edges = vec![0usize];
    edges.extend_from_slice(cuts);
    edges.push(data.len());
    edges
        .windows(2)
        .map(|w| data[w[0]..w[1]].iter().map(|&v| i128::from(v)).sum())
        .collect()
}

/// Asserts `data` is partitioned at `cuts` around the strictly increasing
/// `pivots` (one cut per pivot).
fn assert_partitioned(data: &[Value], cuts: &[usize], pivots: &[Value]) {
    for (&c, &p) in cuts.iter().zip(pivots) {
        assert!(
            data[..c].iter().all(|&v| v < p),
            "values before {c} must be < {p}"
        );
        assert!(
            data[c..].iter().all(|&v| v >= p),
            "values from {c} must be >= {p}"
        );
    }
}

prop_compose! {
    fn arb_piece()(values in prop::collection::vec(-1000i64..1000, 0..600)) -> Vec<Value> {
        values
    }
}

prop_compose! {
    fn arb_all_equal()(v in -1000i64..1000, len in 0usize..200) -> Vec<Value> {
        vec![v; len]
    }
}

prop_compose! {
    fn arb_pivots()(pivots in prop::collection::btree_set(-1100i64..1100, 0..24)) -> Vec<Value> {
        pivots.into_iter().collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn crack_in_two_pred_equals_branchy(values in arb_piece(), pivot in -1100i64..1100) {
        let mut branchy = values.clone();
        let mut pred = values.clone();
        let sa = crack_in_two::<false, _>(&mut branchy, (), pivot);
        let sb = crack_in_two::<true, _>(&mut pred, (), pivot);
        prop_assert_eq!(sa, sb, "partition boundary and sums must match");
        for (data, got) in [(&branchy, sa), (&pred, sb)] {
            assert_partitioned(data, &[got.split], &[pivot]);
            prop_assert_eq!(vec![got.lo_sum, got.hi_sum()], region_sums(data, &[got.split]));
        }
        prop_assert_eq!(sorted(pred), sorted(values.clone()), "multiset must be preserved");
        prop_assert_eq!(sorted(branchy), sorted(values), "branchy multiset must be preserved");
    }

    #[test]
    fn crack_in_two_rowids_pred_equals_branchy(values in arb_piece(), pivot in -1100i64..1100) {
        let mut branchy = values.clone();
        let mut branchy_ids = rowids_for(&values);
        let mut pred = values.clone();
        let mut pred_ids = rowids_for(&values);
        let sa = crack_in_two::<false, _>(&mut branchy, branchy_ids.as_mut_slice(), pivot);
        let sb = crack_in_two::<true, _>(&mut pred, pred_ids.as_mut_slice(), pivot);
        prop_assert_eq!(sa, sb);
        prop_assert_eq!(sa, crack_in_two::<false, _>(&mut values.clone(), (), pivot));
        for (data, got) in [(&branchy, sa), (&pred, sb)] {
            assert_partitioned(data, &[got.split], &[pivot]);
            prop_assert_eq!(vec![got.lo_sum, got.hi_sum()], region_sums(data, &[got.split]));
        }
        assert_pairs_preserved(&values, &branchy, &branchy_ids);
        assert_pairs_preserved(&values, &pred, &pred_ids);
    }

    #[test]
    fn crack_in_three_pred_equals_branchy(
        values in arb_piece(),
        lo in -1100i64..1100,
        width in -200i64..400,
    ) {
        // `width` may be negative: exercises the degenerate hi <= lo path.
        let hi = lo + width;
        let mut branchy = values.clone();
        let mut pred = values.clone();
        let ra = crack_in_three::<false, _>(&mut branchy, (), lo, hi);
        let rb = crack_in_three::<true, _>(&mut pred, (), lo, hi);
        prop_assert_eq!(ra, rb, "partition boundaries and sums must match");
        for (data, got) in [(&branchy, ra), (&pred, rb)] {
            prop_assert_eq!(got.sums.to_vec(), region_sums(data, &[got.a, got.b]));
            if hi > lo {
                assert_partitioned(data, &[got.a, got.b], &[lo, hi]);
            } else {
                prop_assert_eq!(got.a, got.b, "degenerate interval must report an empty middle");
                assert_partitioned(data, &[got.a], &[lo]);
            }
        }
        prop_assert_eq!(sorted(pred), sorted(values.clone()));
        prop_assert_eq!(sorted(branchy), sorted(values));
    }

    #[test]
    fn crack_in_three_rowids_pred_equals_branchy(
        values in arb_piece(),
        lo in -1100i64..1100,
        width in -200i64..400,
    ) {
        let hi = lo + width;
        let mut branchy = values.clone();
        let mut branchy_ids = rowids_for(&values);
        let mut pred = values.clone();
        let mut pred_ids = rowids_for(&values);
        let ra = crack_in_three::<false, _>(&mut branchy, branchy_ids.as_mut_slice(), lo, hi);
        let rb = crack_in_three::<true, _>(&mut pred, pred_ids.as_mut_slice(), lo, hi);
        prop_assert_eq!(ra, rb);
        prop_assert_eq!(ra, crack_in_three::<false, _>(&mut values.clone(), (), lo, hi));
        for (data, got) in [(&branchy, ra), (&pred, rb)] {
            prop_assert_eq!(got.sums.to_vec(), region_sums(data, &[got.a, got.b]));
            if hi <= lo {
                prop_assert_eq!(got.a, got.b);
            }
        }
        assert_pairs_preserved(&values, &branchy, &branchy_ids);
        assert_pairs_preserved(&values, &pred, &pred_ids);
    }

    #[test]
    fn crack_in_k_pred_equals_branchy(values in arb_piece(), pivots in arb_pivots()) {
        let mut branchy = values.clone();
        let mut pred = values.clone();
        let ka = crack_in_k::<false, _>(&mut branchy, (), &pivots);
        let kb = crack_in_k::<true, _>(&mut pred, (), &pivots);
        prop_assert_eq!(&ka, &kb, "boundaries and segment sums must match");
        for (data, got) in [(&branchy, &ka), (&pred, &kb)] {
            assert_partitioned(data, &got.boundaries, &pivots);
            prop_assert_eq!(&got.segment_sums, &region_sums(data, &got.boundaries));
        }
        prop_assert_eq!(sorted(pred), sorted(values.clone()));
        prop_assert_eq!(sorted(branchy), sorted(values));
    }

    #[test]
    fn crack_in_k_rowids_pred_equals_branchy(values in arb_piece(), pivots in arb_pivots()) {
        let mut branchy = values.clone();
        let mut branchy_ids = rowids_for(&values);
        let mut pred = values.clone();
        let mut pred_ids = rowids_for(&values);
        let ka = crack_in_k::<false, _>(&mut branchy, branchy_ids.as_mut_slice(), &pivots);
        let kb = crack_in_k::<true, _>(&mut pred, pred_ids.as_mut_slice(), &pivots);
        prop_assert_eq!(&ka, &kb);
        prop_assert_eq!(&ka, &crack_in_k::<false, _>(&mut values.clone(), (), &pivots));
        for (data, got) in [(&branchy, &ka), (&pred, &kb)] {
            assert_partitioned(data, &got.boundaries, &pivots);
            prop_assert_eq!(&got.segment_sums, &region_sums(data, &got.boundaries));
        }
        assert_pairs_preserved(&values, &branchy, &branchy_ids);
        assert_pairs_preserved(&values, &pred, &pred_ids);
    }

    #[test]
    fn all_equal_pieces_agree(values in arb_all_equal(), pivot in -1100i64..1100) {
        prop_assert_eq!(
            crack_in_two::<false, _>(&mut values.clone(), (), pivot),
            crack_in_two::<true, _>(&mut values.clone(), (), pivot)
        );
        prop_assert_eq!(
            crack_in_three::<false, _>(&mut values.clone(), (), pivot, pivot + 1),
            crack_in_three::<true, _>(&mut values.clone(), (), pivot, pivot + 1)
        );
        prop_assert_eq!(
            crack_in_k::<false, _>(&mut values.clone(), (), &[pivot, pivot + 1]),
            crack_in_k::<true, _>(&mut values.clone(), (), &[pivot, pivot + 1])
        );
    }

    #[test]
    fn tiny_pieces_agree(values in prop::collection::vec(-10i64..10, 0..2), pivot in -12i64..12) {
        // Empty and single-element pieces.
        let mut branchy = values.clone();
        let mut pred = values.clone();
        prop_assert_eq!(
            crack_in_two::<false, _>(&mut branchy, (), pivot),
            crack_in_two::<true, _>(&mut pred, (), pivot)
        );
        prop_assert_eq!(branchy, pred, "on ≤1 element the layouts are identical");
    }

    #[test]
    fn kernel_choice_switches_at_the_threshold(
        values in prop::collection::vec(-1000i64..1000, 128..129),
        lo in -1100i64..1100,
        width in 1i64..400,
    ) {
        // The one length rule, observed through a cracker column: a
        // 127-value piece is cracked branchy, a 128-value piece predicated,
        // and both answer exactly.
        prop_assert_eq!(DEFAULT_PREDICATION_THRESHOLD, 128);
        prop_assert_eq!(KernelChoice::for_piece_len(127), KernelChoice::Branchy);
        prop_assert_eq!(KernelChoice::for_piece_len(128), KernelChoice::Predicated);
        let hi = lo + width;
        for (len, want) in [
            (127, KernelDispatches { branchy: 1, predicated: 0 }),
            (128, KernelDispatches { branchy: 0, predicated: 1 }),
        ] {
            let piece = values[..len].to_vec();
            let mut column = CrackerColumn::from_values(piece.clone());
            let range = column.crack_select(lo, hi);
            let expected = piece.iter().filter(|&&v| v >= lo && v < hi).count();
            prop_assert_eq!(range.len(), expected);
            prop_assert_eq!(column.kernel_dispatches(), want, "{} values", len);
            prop_assert!(column.validate());
        }
    }
}
