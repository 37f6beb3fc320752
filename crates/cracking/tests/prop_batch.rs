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
//!   concurrent path.

use proptest::prelude::*;

use holistic_cracking::stochastic::crack_select_batch_with_policy;
use holistic_cracking::{
    crack_in_k, crack_in_two, ConcurrentCrackerColumn, CrackPolicy, CrackerColumn,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

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
