//! Property-based tests for the adaptive-indexing substrate.
//!
//! The key invariants, checked on arbitrary data and query sequences:
//!
//! * a cracking select returns exactly the rows a scan returns;
//! * the piece index stays structurally valid (contiguous, non-empty,
//!   value-bounded pieces) after any sequence of cracks;
//! * cracking never loses or invents values (multiset preservation);
//! * all stochastic policies return scan-equivalent answers;
//! * pending updates become visible exactly when their range is queried.

use proptest::prelude::*;

use holistic_cracking::stochastic::crack_select_with_policy;
use holistic_cracking::{CrackPolicy, CrackerColumn, UpdatableCrackerColumn};
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
    fn arb_queries()(queries in prop::collection::vec((-1100i64..1100, 0i64..300), 1..30))
        -> Vec<(i64, i64)>
    {
        queries.into_iter().map(|(lo, width)| (lo, lo + width)).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn crack_select_equals_scan(values in arb_column(), queries in arb_queries()) {
        let mut cracker = CrackerColumn::from_values(values.clone());
        for (lo, hi) in queries {
            let range = cracker.crack_select(lo, hi);
            prop_assert_eq!((range.end - range.start) as u64, scan_count(&values, lo, hi));
            prop_assert!(cracker.view(range).iter().all(|&v| v >= lo && v < hi));
            prop_assert!(cracker.validate(), "piece invariants violated");
        }
        // Multiset preservation over the whole sequence.
        prop_assert_eq!(sorted(cracker.data().to_vec()), sorted(values));
    }

    #[test]
    fn rowids_always_point_at_their_values(values in arb_column(), queries in arb_queries()) {
        let mut cracker = CrackerColumn::from_values_with_rowids(values.clone());
        for (lo, hi) in queries {
            let range = cracker.crack_select(lo, hi);
            let ids = cracker.rowids_in(range.clone()).unwrap();
            for (&v, &id) in cracker.view(range).iter().zip(ids) {
                prop_assert_eq!(values[id as usize], v);
            }
        }
    }

    #[test]
    fn random_refinement_never_breaks_queries(
        values in arb_column(),
        actions in 0u64..200,
        queries in arb_queries(),
        seed in any::<u64>(),
    ) {
        let mut cracker = CrackerColumn::from_values(values.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        cracker.random_cracks(actions, &mut rng);
        prop_assert!(cracker.validate());
        for (lo, hi) in queries {
            prop_assert_eq!(cracker.crack_count(lo, hi), scan_count(&values, lo, hi));
        }
    }

    #[test]
    fn stochastic_policies_are_scan_equivalent(
        values in arb_column(),
        queries in arb_queries(),
        seed in any::<u64>(),
    ) {
        for policy in [
            CrackPolicy::Standard,
            CrackPolicy::Ddc { threshold: 16 },
            CrackPolicy::Ddr { threshold: 16 },
            CrackPolicy::Mdd1r,
        ] {
            let mut cracker = CrackerColumn::from_values(values.clone());
            let mut rng = StdRng::seed_from_u64(seed);
            for &(lo, hi) in &queries {
                let range = crack_select_with_policy(&mut cracker, lo, hi, policy, &mut rng);
                prop_assert_eq!(
                    (range.end - range.start) as u64,
                    scan_count(&values, lo, hi),
                    "policy {:?}", policy
                );
                prop_assert!(cracker.validate(), "policy {:?} broke invariants", policy);
            }
        }
    }

    #[test]
    fn sort_fully_is_equivalent_to_std_sort(values in arb_column()) {
        let mut cracker = CrackerColumn::from_values(values.clone());
        cracker.sort_fully();
        prop_assert_eq!(cracker.data().to_vec(), sorted(values));
        prop_assert!(cracker.validate());
    }

    #[test]
    fn updates_become_visible_when_their_range_is_queried(
        base in arb_column(),
        inserts in prop::collection::vec(-1000i64..1000, 0..50),
        delete_positions in prop::collection::vec(any::<prop::sample::Index>(), 0..20),
        queries in arb_queries(),
    ) {
        let mut reference = base.clone();
        let mut column = UpdatableCrackerColumn::from_values(base);
        for v in inserts {
            column.insert(v);
            reference.push(v);
        }
        // Delete a subset of currently present values.
        for idx in delete_positions {
            if reference.is_empty() {
                break;
            }
            let i = idx.index(reference.len());
            let v = reference.swap_remove(i);
            column.delete(v);
        }
        for (lo, hi) in queries {
            prop_assert_eq!(column.count(lo, hi), scan_count(&reference, lo, hi));
            prop_assert!(column.validate());
        }
        column.merge_all();
        prop_assert_eq!(column.count(i64::MIN, i64::MAX), reference.len() as u64);
    }

    #[test]
    fn piece_index_statistics_are_consistent(values in arb_column(), queries in arb_queries()) {
        let mut cracker = CrackerColumn::from_values(values.clone());
        for (lo, hi) in queries {
            let _ = cracker.crack_select(lo, hi);
            let index = cracker.index();
            // Piece extents tile the column exactly.
            let covered: usize = index.pieces().iter().map(|p| p.len()).sum();
            prop_assert_eq!(covered, values.len());
            if !values.is_empty() {
                prop_assert!(index.piece_count() >= 1);
                prop_assert!(index.max_piece_len() <= values.len());
                let avg = index.avg_piece_len();
                prop_assert!(avg > 0.0 && avg <= values.len() as f64);
            }
        }
    }
}
