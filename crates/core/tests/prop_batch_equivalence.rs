//! Batch ≡ sequential equivalence at the engine level.
//!
//! The proptests build two identically configured engines over the same
//! data, run a random batch of range queries through `execute_batch` on one
//! and through per-query `execute` on the other, and assert identical
//! per-query counts and sums, identical final piece boundaries (plain
//! cracking is order-independent), and cracker-column invariants on the
//! result. A multi-threaded stress test additionally races batches against
//! the background tuner, and `execute_is_a_batch_of_one` pins that a single
//! `execute` and a one-query `execute_batch` differ only in the batch
//! counters.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use holistic_core::{Database, HolisticConfig, IdleBudget, IndexingStrategy, Query};

fn reference_count(values: &[i64], lo: i64, hi: i64) -> u64 {
    values.iter().filter(|&&v| v >= lo && v < hi).count() as u64
}

fn reference_sum(values: &[i64], lo: i64, hi: i64) -> i128 {
    values
        .iter()
        .filter(|&&v| v >= lo && v < hi)
        .map(|&v| i128::from(v))
        .sum()
}

fn make_db(strategy: IndexingStrategy, values: Vec<i64>) -> (Database, holistic_core::ColumnId) {
    let mut db = Database::new(HolisticConfig::for_testing(), strategy);
    let t = db.create_table("r", vec![("a", values)]).unwrap();
    let col = db.column_id(t, "a").unwrap();
    (db, col)
}

prop_compose! {
    fn arb_values()(values in prop::collection::vec(-2000i64..2000, 0..500)) -> Vec<i64> {
        values
    }
}

prop_compose! {
    fn arb_batch()(queries in prop::collection::vec((-2100i64..2100, -50i64..500), 1..40))
        -> Vec<(i64, i64)>
    {
        // Negative widths produce inverted (empty) predicates on purpose.
        queries.into_iter().map(|(lo, w)| (lo, lo + w)).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn execute_batch_is_equivalent_to_sequential_execute(
        values in arb_values(),
        batch in arb_batch(),
    ) {
        for strategy in IndexingStrategy::all() {
            let (batch_db, batch_col) = make_db(strategy, values.clone());
            let (seq_db, seq_col) = make_db(strategy, values.clone());
            let queries: Vec<Query> = batch
                .iter()
                .map(|&(lo, hi)| Query::range(batch_col, lo, hi))
                .collect();
            let got = batch_db.execute_batch(&queries).unwrap();
            prop_assert_eq!(got.len(), batch.len());
            for (r, &(lo, hi)) in got.iter().zip(&batch) {
                let seq = seq_db.execute(&Query::range(seq_col, lo, hi)).unwrap();
                prop_assert_eq!(
                    r.count, seq.count,
                    "{} count mismatch on [{}, {})", strategy, lo, hi
                );
                prop_assert_eq!(
                    r.sum, seq.sum,
                    "{} sum mismatch on [{}, {})", strategy, lo, hi
                );
                prop_assert_eq!(r.count, reference_count(&values, lo, hi));
                prop_assert_eq!(r.sum, reference_sum(&values, lo, hi));
            }
            prop_assert!(batch_db.validate(), "{} batch path broke invariants", strategy);
        }
    }

    #[test]
    fn execute_batch_leaves_identical_piece_boundaries(
        values in arb_values(),
        batch in arb_batch(),
    ) {
        // Plain adaptive cracking (Standard policy, no hot-range boosts) is
        // order-independent: boundary positions are determined by pivot
        // values alone, so the batched multi-pivot pass must leave exactly
        // the piece table a sequential replay produces.
        let (batch_db, batch_col) = make_db(IndexingStrategy::Adaptive, values.clone());
        let (seq_db, seq_col) = make_db(IndexingStrategy::Adaptive, values.clone());
        let queries: Vec<Query> = batch
            .iter()
            .map(|&(lo, hi)| Query::range(batch_col, lo, hi))
            .collect();
        batch_db.execute_batch(&queries).unwrap();
        for &(lo, hi) in &batch {
            seq_db.execute(&Query::range(seq_col, lo, hi)).unwrap();
        }
        prop_assert_eq!(
            batch_db.cracker_pieces(batch_col),
            seq_db.cracker_pieces(seq_col),
            "batch and sequential cracking disagree on the final piece table"
        );
        prop_assert!(batch_db.validate());
        // A second pass over the same batch is fully resolved: no new cracks.
        let cracks = batch_db.cracks_performed(batch_col);
        batch_db.execute_batch(&queries).unwrap();
        prop_assert_eq!(batch_db.cracks_performed(batch_col), cracks);
    }

    #[test]
    fn materialized_batch_queries_return_the_qualifying_values(
        values in arb_values(),
        lo in -2100i64..2100,
        width in 0i64..800,
    ) {
        let hi = lo + width;
        let (db, col) = make_db(IndexingStrategy::Holistic, values.clone());
        let queries = vec![
            Query::range_materialized(col, lo, hi),
            Query::range(col, lo, hi),
        ];
        let got = db.execute_batch(&queries).unwrap();
        let mut materialized = got[0].values.clone().unwrap();
        materialized.sort_unstable();
        let mut expected: Vec<i64> = values
            .iter()
            .copied()
            .filter(|&v| v >= lo && v < hi)
            .collect();
        expected.sort_unstable();
        prop_assert_eq!(materialized, expected);
        prop_assert!(got[1].values.is_none());
        prop_assert_eq!(got[0].count, got[1].count);
    }
}

/// Batches racing the background tuner: every batch answer must still equal
/// the scan ground truth while idle-time refinement keeps cracking the same
/// columns through the per-column latches.
#[test]
fn batches_race_the_background_tuner() {
    use holistic_core::{BackgroundConfig, BackgroundTuner};
    use std::sync::Arc;
    use std::time::Duration;

    let n = 30_000usize;
    let columns = 3usize;
    let data: Vec<Vec<i64>> = (0..columns)
        .map(|c| {
            (0..n)
                .map(|i| ((i as i64) * 7919 + c as i64 * 131) % (n as i64))
                .collect()
        })
        .collect();
    let mut db = Database::new(HolisticConfig::for_testing(), IndexingStrategy::Holistic);
    let table = db
        .create_table(
            "r",
            data.iter()
                .enumerate()
                .map(|(i, values)| {
                    let name: &str = ["a", "b", "c"][i];
                    (name, values.clone())
                })
                .collect(),
        )
        .expect("create table");
    let cols = db.column_ids(table).expect("column ids");
    let db = db.into_shared();

    let tuner = BackgroundTuner::spawn(
        Arc::clone(&db),
        BackgroundConfig {
            idle_threshold: Duration::ZERO,
            batch_actions: 32,
            poll_interval: Duration::from_micros(100),
            seed_prefix_sums: true,
            snapshot_on_idle: false,
            scrub_pieces: 64,
        },
    );

    let mut handles = Vec::new();
    for t in 0..4u64 {
        let db = Arc::clone(&db);
        let cols = cols.clone();
        let data = data.clone();
        handles.push(std::thread::spawn(move || {
            for round in 0..8u64 {
                // Each thread batches queries over all columns at once, with
                // thread/round-dependent ranges so resolved and unresolved
                // bounds mix.
                let queries: Vec<Query> = (0..24)
                    .map(|i| {
                        let ci = (i + t as usize + round as usize) % cols.len();
                        let lo = 1
                            + ((i as i64 * 2311 + t as i64 * 977 + round as i64 * 409)
                                % (n as i64 - 800));
                        Query::range(cols[ci], lo, lo + 555)
                    })
                    .collect();
                let results = db.read().execute_batch(&queries).expect("batch");
                for (r, q) in results.iter().zip(&queries) {
                    let ci = cols.iter().position(|c| *c == q.column).unwrap();
                    assert_eq!(
                        r.count,
                        reference_count(&data[ci], q.lo, q.hi),
                        "thread {t} round {round} [{}, {})",
                        q.lo,
                        q.hi
                    );
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("batch thread panicked");
    }
    let tuned = tuner.stop();
    let guard = db.read();
    assert!(guard.validate(), "invariants violated under batch stress");
    assert!(tuned > 0, "tuner should have refined during the stress run");
    assert_eq!(guard.metrics().batches_executed(), 4 * 8);
    assert_eq!(guard.metrics().batched_queries(), 4 * 8 * 24);
    // Sequential re-check after the dust settles.
    for (ci, values) in data.iter().enumerate() {
        for lo in [1i64, 5_000, 20_000] {
            let r = guard
                .execute(&Query::range(cols[ci], lo, lo + 555))
                .expect("post-check query");
            assert_eq!(r.count, reference_count(values, lo, lo + 555));
        }
    }
}

#[test]
fn execute_is_a_batch_of_one() {
    // One seeded sequence — hot repeats, fresh ranges, empty and
    // materialized queries, idle windows, a full index on column b —
    // through `execute` on one engine and one-query `execute_batch` on
    // another: every observable but the batch counters must agree.
    for strategy in IndexingStrategy::all() {
        let values: Vec<i64> = (0..6000).map(|i| (i * 7919) % 6000).collect();
        let engine = || {
            let mut db = Database::new(HolisticConfig::for_testing(), strategy);
            let t = db
                .create_table("r", vec![("a", values.clone()), ("b", values.clone())])
                .unwrap();
            (
                db.column_id(t, "a").unwrap(),
                db.column_id(t, "b").unwrap(),
                db,
            )
        };
        let (a, b, mut single) = engine();
        let (_, _, mut batched) = engine();
        single.build_full_index(b).unwrap();
        batched.build_full_index(b).unwrap();
        let mut rng = StdRng::seed_from_u64(14);
        let hot = [(1000, 1100), (3000, 3050), (4500, 4900)];
        for i in 0..160 {
            let column = if i % 5 == 4 { b } else { a };
            let (lo, hi) = match rng.gen_range(0..10) {
                0..=4 => hot[rng.gen_range(0..hot.len())],
                5 => (2500, 2400),
                _ => {
                    let lo: i64 = rng.gen_range(0..6000);
                    (lo, lo + rng.gen_range(1..400i64))
                }
            };
            let q = if i % 7 == 0 {
                Query::range_materialized(column, lo, hi)
            } else {
                Query::range(column, lo, hi)
            };
            let one = single.execute(&q).unwrap();
            let batch = batched.execute_batch(&[q]).unwrap();
            assert_eq!(batch.len(), 1);
            let other = &batch[0];
            assert_eq!(
                one.count,
                reference_count(&values, lo, hi),
                "{strategy} q{i}"
            );
            assert_eq!(
                (one.count, one.sum, one.path),
                (other.count, other.sum, other.path),
                "{strategy} q{i}"
            );
            let sorted = |r: &holistic_core::QueryResult| {
                r.values.clone().map(|mut v| {
                    v.sort_unstable();
                    v
                })
            };
            assert_eq!(sorted(&one), sorted(other), "{strategy} q{i}");
            if i % 32 == 31 {
                single.run_idle(IdleBudget::Actions(8));
                batched.run_idle(IdleBudget::Actions(8));
            }
        }
        for column in [a, b] {
            assert_eq!(
                single.cracker_pieces(column),
                batched.cracker_pieces(column),
                "{strategy} {column}"
            );
            let (s, o) = (
                single.stats().column(column).unwrap(),
                batched.stats().column(column).unwrap(),
            );
            assert_eq!(
                (s.queries, s.auxiliary_actions),
                (o.queries, o.auxiliary_actions),
                "{strategy} {column}"
            );
        }
        assert_eq!(
            single.metrics().aggregate_cache(),
            batched.metrics().aggregate_cache(),
            "{strategy}"
        );
        if strategy == IndexingStrategy::Holistic {
            // The sequence is hot enough to boost during queries.
            let boosts_and_idle = single.stats().column(a).unwrap().auxiliary_actions;
            assert!(boosts_and_idle > single.metrics().auxiliary_actions());
        }
        // Only the batch counters tell the two apart.
        assert_eq!(single.metrics().batches_executed(), 0);
        assert_eq!(single.metrics().batched_queries(), 0);
        assert_eq!(batched.metrics().batches_executed(), 160);
        assert_eq!(batched.metrics().batched_queries(), 160);
        assert_eq!(single.metrics().query_count(), 160);
        assert_eq!(batched.metrics().query_count(), 160);
    }
}
