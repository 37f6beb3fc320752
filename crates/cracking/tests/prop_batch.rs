//! Property-based tests for batched cracking: on arbitrary data and query
//! batches, the multi-pivot batch path must be indistinguishable from a
//! sequential replay of the same queries.
//!
//! * every query's answer equals a scan of the base data;
//! * plain (Standard-policy) cracking is order-independent, so the batch
//!   pass must leave **exactly** the piece index a per-query sequential
//!   replay produces — same boundaries, same value bounds, same flags;
//! * the multi-pivot kernels agree with repeated two-way cracks in both
//!   physical forms, with row ids staying aligned;
//! * stochastic policies keep scan-equivalent answers through the batched
//!   concurrent path;
//! * the in-place grouped piece-table edit produces exactly the table an
//!   `O(P + k)` rebuild of the same groups produces.

use proptest::prelude::*;

use std::sync::Arc;

use holistic_cracking::stochastic::crack_select_batch_with_policy;
use holistic_cracking::{
    crack_in_k, crack_in_two, ConcurrentCrackerColumn, CrackPolicy, CrackerColumn, Piece,
    PieceIndex, PrefixSums, SplitGroup,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn scan_count(values: &[i64], lo: i64, hi: i64) -> u64 {
    values.iter().filter(|&&v| v >= lo && v < hi).count() as u64
}

fn sorted(mut v: Vec<i64>) -> Vec<i64> {
    v.sort_unstable();
    v
}

prop_compose! {
    fn arb_column()(values in prop::collection::vec(-1000i64..1000, 0..400)) -> Vec<i64> {
        values
    }
}

prop_compose! {
    fn arb_batch()(queries in prop::collection::vec((-1100i64..1100, -20i64..300), 1..40))
        -> Vec<(i64, i64)>
    {
        // Negative widths produce inverted (empty) ranges on purpose.
        queries.into_iter().map(|(lo, width)| (lo, lo + width)).collect()
    }
}

prop_compose! {
    fn arb_pivots()(pivots in prop::collection::btree_set(-1100i64..1100, 1..24))
        -> Vec<i64>
    {
        pivots.into_iter().collect()
    }
}

/// A random piece table of `pieces` pieces (1..6 positions each) with
/// random known/unknown bounds, sorted flags, cached sums and prefix arrays,
/// plus random ascending split groups over it: each group holds 1..4 splits
/// at non-decreasing positions inside its piece (edges included, so some
/// groups only tighten bounds) with strictly increasing pivots, and kernel
/// sums or none. The edit checks only these structural preconditions, so
/// no data array is needed.
fn random_table_and_groups(pieces: usize, seed: u64) -> (PieceIndex, Vec<SplitGroup>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut table = Vec::with_capacity(pieces);
    let mut start = 0;
    for i in 0..pieces {
        let end = start + rng.gen_range(1..6usize);
        let sorted = rng.gen_bool(0.3);
        table.push(Piece {
            start,
            end,
            lo: (i > 0 && rng.gen_bool(0.8)).then_some(100 * i as i64),
            hi: (i + 1 < pieces && rng.gen_bool(0.8)).then_some(100 * (i as i64 + 1)),
            sorted,
            sum: rng
                .gen_bool(0.5)
                .then(|| i128::from(rng.gen_range(-500i64..500))),
            prefix: (sorted && rng.gen_bool(0.5))
                .then(|| Arc::new(PrefixSums::build(start, &vec![1; end - start]))),
        });
        start = end;
    }
    let index = PieceIndex::from_parts(start, table).expect("contiguous table");
    let mut groups = Vec::new();
    for idx in 0..pieces {
        if !rng.gen_bool(0.4) {
            continue;
        }
        let p = index.piece(idx);
        let k = rng.gen_range(1..5usize);
        let mut positions: Vec<usize> = (0..k).map(|_| rng.gen_range(p.start..=p.end)).collect();
        positions.sort_unstable();
        let splits = positions
            .into_iter()
            .enumerate()
            .map(|(j, pos)| (pos, 100 * idx as i64 + 10 * j as i64 + 5))
            .collect();
        let sums = rng.gen_bool(0.7).then(|| {
            (0..=k)
                .map(|_| i128::from(rng.gen_range(-100i64..100)))
                .collect()
        });
        groups.push((idx, splits, sums));
    }
    (index, groups)
}

/// The piece-table edit as an `O(P + k)` rebuild: every untouched piece is
/// cloned into a fresh table, and each group's piece is replaced by its
/// expansion — computed by a one-group edit of that piece alone, rebased
/// to position 0 so a one-piece table can hold it.
fn rebuild_reference(pieces: &[Piece], groups: &[SplitGroup]) -> Vec<Piece> {
    let mut rebuilt = Vec::with_capacity(pieces.len());
    let mut next_group = groups.iter().peekable();
    for (idx, p) in pieces.iter().enumerate() {
        match next_group.peek() {
            Some((group_idx, splits, seg_sums)) if *group_idx == idx => {
                let alone = Piece {
                    start: 0,
                    end: p.len(),
                    ..p.clone()
                };
                let mut one = PieceIndex::from_parts(p.len(), vec![alone]).expect("one piece");
                let rebased: Vec<(usize, i64)> =
                    splits.iter().map(|&(pos, v)| (pos - p.start, v)).collect();
                one.split_multi_with_sums(0, &rebased, seg_sums.as_deref());
                rebuilt.extend(one.pieces().iter().map(|q| Piece {
                    start: q.start + p.start,
                    end: q.end + p.start,
                    ..q.clone()
                }));
                next_group.next();
            }
            _ => rebuilt.push(p.clone()),
        }
    }
    rebuilt
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn in_place_grouped_edit_equals_the_rebuild(
        pieces in 1usize..48,
        seed in any::<u64>(),
    ) {
        let (mut index, groups) = random_table_and_groups(pieces, seed);
        let expected = rebuild_reference(index.pieces(), &groups);
        let created = index.split_grouped_with_sums(&groups);
        prop_assert_eq!(created, expected.len() - pieces);
        prop_assert_eq!(index.pieces(), &expected[..]);
        // Pieces that share a prefix array keep sharing the very same one.
        for (got, want) in index.pieces().iter().zip(&expected) {
            if let (Some(a), Some(b)) = (&got.prefix, &want.prefix) {
                prop_assert!(Arc::ptr_eq(a, b));
            }
        }
    }

    #[test]
    fn batch_select_is_equivalent_to_sequential_replay(
        values in arb_column(),
        batch in arb_batch(),
    ) {
        let mut batched = CrackerColumn::from_values(values.clone());
        let mut sequential = CrackerColumn::from_values(values.clone());
        let ranges = batched.crack_select_batch(&batch);
        prop_assert_eq!(ranges.len(), batch.len());
        for (range, &(lo, hi)) in ranges.iter().zip(&batch) {
            let seq_range = sequential.crack_select(lo, hi);
            // Identical counts, and both equal the scan ground truth.
            prop_assert_eq!(
                (range.end - range.start) as u64,
                (seq_range.end - seq_range.start) as u64,
                "count mismatch on [{}, {})", lo, hi
            );
            prop_assert_eq!(
                (range.end - range.start) as u64,
                scan_count(&values, lo, hi),
                "scan mismatch on [{}, {})", lo, hi
            );
            // Identical contents as multisets.
            prop_assert_eq!(
                sorted(batched.view(range.clone()).to_vec()),
                sorted(sequential.view(seq_range).to_vec())
            );
        }
        // Order independence: identical final piece boundaries and bounds.
        prop_assert_eq!(batched.index(), sequential.index());
        prop_assert!(batched.validate(), "batch path broke invariants");
        prop_assert!(sequential.validate());
        prop_assert_eq!(sorted(batched.data().to_vec()), sorted(values));
    }

    #[test]
    fn batch_select_with_rowids_is_equivalent_and_aligned(
        values in arb_column(),
        batch in arb_batch(),
    ) {
        let mut batched = CrackerColumn::from_values_with_rowids(values.clone());
        let mut sequential = CrackerColumn::from_values_with_rowids(values.clone());
        let ranges = batched.crack_select_batch(&batch);
        for (range, &(lo, hi)) in ranges.iter().zip(&batch) {
            let _ = sequential.crack_select(lo, hi);
            let ids = batched.rowids_in(range.clone()).expect("rowids kept");
            for (&v, &id) in batched.view(range.clone()).iter().zip(ids) {
                prop_assert_eq!(values[id as usize], v, "rowid misaligned");
            }
        }
        prop_assert_eq!(batched.index(), sequential.index());
        prop_assert!(batched.validate());
    }

    #[test]
    fn crack_in_k_boundaries_match_repeated_crack_in_two(
        values in arb_column(),
        pivots in arb_pivots(),
    ) {
        let expected: Vec<usize> = pivots
            .iter()
            .map(|&p| crack_in_two::<false, _>(&mut values.clone(), (), p).split)
            .collect();
        let mut branchy = values.clone();
        let branchy_k = crack_in_k::<false, _>(&mut branchy, (), &pivots);
        prop_assert_eq!(&branchy_k.boundaries, &expected);
        let mut pred = values.clone();
        let pred_k = crack_in_k::<true, _>(&mut pred, (), &pivots);
        prop_assert_eq!(&pred_k.boundaries, &expected);
        prop_assert_eq!(&pred_k.segment_sums, &branchy_k.segment_sums);
        // The row-id payload moves in lockstep without changing the answer.
        let mut with_ids = values.clone();
        let mut ids: Vec<u32> = (0..values.len() as u32).collect();
        let ids_k = crack_in_k::<true, _>(&mut with_ids, ids.as_mut_slice(), &pivots);
        prop_assert_eq!(&ids_k, &pred_k);
        for (&v, &id) in with_ids.iter().zip(&ids) {
            prop_assert_eq!(values[id as usize], v, "rowid misaligned");
        }
        for (i, (&b, &p)) in expected.iter().zip(&pivots).enumerate() {
            prop_assert!(branchy[..b].iter().all(|&v| v < p), "region {} (branchy)", i);
            prop_assert!(branchy[b..].iter().all(|&v| v >= p));
            prop_assert!(pred[..b].iter().all(|&v| v < p), "region {} (pred)", i);
            prop_assert!(pred[b..].iter().all(|&v| v >= p));
        }
        prop_assert_eq!(sorted(branchy), sorted(values.clone()));
        prop_assert_eq!(sorted(pred), sorted(values));
    }

    #[test]
    fn batched_policies_stay_scan_equivalent(
        values in arb_column(),
        batch in arb_batch(),
        seed in 0u64..1000,
    ) {
        for policy in [
            CrackPolicy::Standard,
            CrackPolicy::Ddc { threshold: 64 },
            CrackPolicy::Ddr { threshold: 64 },
            CrackPolicy::Mdd1r,
        ] {
            let mut column = CrackerColumn::from_values(values.clone());
            let mut rng = StdRng::seed_from_u64(seed);
            let ranges = crack_select_batch_with_policy(&mut column, &batch, policy, &mut rng);
            for (range, &(lo, hi)) in ranges.iter().zip(&batch) {
                prop_assert_eq!(
                    (range.end - range.start) as u64,
                    scan_count(&values, lo, hi),
                    "{:?} wrong on [{}, {})", policy, lo, hi
                );
            }
            prop_assert!(column.validate(), "{:?} broke invariants", policy);
        }
    }

    #[test]
    fn concurrent_batch_path_matches_scan(
        values in arb_column(),
        batch in arb_batch(),
        seed in 0u64..1000,
    ) {
        let column = ConcurrentCrackerColumn::from_values(values.clone());
        let queries: Vec<(i64, i64, bool)> =
            batch.iter().map(|&(lo, hi)| (lo, hi, false)).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let outcome =
            column.select_batch_with_policy(&queries, CrackPolicy::Standard, &mut rng);
        for (answer, &(lo, hi)) in outcome.answers.iter().zip(&batch) {
            prop_assert_eq!(answer.count, scan_count(&values, lo, hi));
            let expected_sum: i128 = values
                .iter()
                .filter(|&&v| v >= lo && v < hi)
                .map(|&v| i128::from(v))
                .sum();
            prop_assert_eq!(answer.sum, expected_sum);
        }
        prop_assert!(column.validate());
    }
}
