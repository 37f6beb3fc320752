//! `ingest`: the cracking layer under writes beside reads.
//!
//! One client, closed loop, Holistic strategy, one single-column table
//! with persistence attached. Each step is one group commit through
//! `Database::update_batch` (inserts plus a minority of deletes of values
//! known to be present; the engine fsyncs once per commit) followed by a
//! burst of uniformly placed 0.01%-wide range reads. A snapshot is taken
//! every `SNAPSHOT_EVERY` commits: a count-based cadence, never a timer,
//! so both sides of a comparison snapshot at the same points. The round
//! ends with a timed `Database::recover`, after which the row count and a
//! fixed query sample are re-checked against the multiset model.
//!
//! Why: the only workload that exercises the WAL, snapshots, recovery and
//! the base-column update path. Deletes rebuild the base column's
//! statistics from every surviving value, so `storage.remove_first_us`
//! stands far above `storage.append_us` — a known defect kept visible.
//! It bypasses the server and sharding.

use std::time::Instant;

use holistic_core::{Database, IndexingStrategy, Query, UpdateOp};
use rand::Rng;

use crate::durable::{check_recovered, Durable};
use crate::measure::micros;
use crate::reference::{Model, Multiset, Verifier};
use crate::replay::{replay, Event};
use crate::report::{first_and_last_eighth, median_layers, E2e, Layers};
use crate::trace::Tracer;
use crate::workload::{
    cracking_layers, engine_call_layers, engine_config, narrow_width, uniform_range,
    uniform_values, Params,
};

/// Composition of one commit.
const INSERTS_PER_COMMIT: usize = 7;
const DELETES_PER_COMMIT: usize = 1;

struct Sizes {
    rows: usize,
    commits: usize,
    reads_per_commit: usize,
    snapshot_every: usize,
}

impl Sizes {
    fn new(tiny: bool) -> Self {
        if tiny {
            Sizes {
                rows: 20_000,
                commits: 24,
                reads_per_commit: 4,
                snapshot_every: 8,
            }
        } else {
            Sizes {
                rows: 1_000_000,
                commits: 160,
                reads_per_commit: 32,
                snapshot_every: 48,
            }
        }
    }
}

pub fn run(p: &Params, tr: &mut Tracer, v: &mut Verifier) -> (E2e, Layers) {
    let sizes = Sizes::new(p.tiny);
    let config = engine_config();
    let width = narrow_width(sizes.rows);
    let mut e2e = E2e::default();
    let mut rounds: Vec<Layers> = Vec::new();
    let mut replayed = Layers::new();
    for round in 0..p.rounds {
        let mut rng = p.rng(round);
        let data = uniform_values(sizes.rows, &mut rng);
        let mut model = Multiset::new(&data);
        let round_span = tr.open("workload.round", 0, round as u64);

        let input = data.clone();
        let t0 = Instant::now();
        let mut db = Database::new(config.clone(), IndexingStrategy::Holistic);
        let table = db
            .create_table("ingest", vec![("v", input)])
            .expect("create table");
        let column = db.column_id(table, "v").expect("column id");
        let mut durable =
            Durable::attach(&mut db, p.dir.join(format!("ingest-{round}")), sizes.rows)
                .expect("attach persistence");
        let t1 = Instant::now();
        tr.span("engine.setup", "", t0, t1, round_span, 0);
        e2e.setup_s.push((t1 - t0).as_secs_f64());

        let mut events: Vec<Event> = Vec::new();
        let mut latencies: Vec<f64> = Vec::new();
        let mut read_s = 0.0;
        for c in 0..sizes.commits {
            let mut ops: Vec<UpdateOp> =
                Vec::with_capacity(INSERTS_PER_COMMIT + DELETES_PER_COMMIT);
            for _ in 0..INSERTS_PER_COMMIT {
                let value = rng.gen_range(0..sizes.rows as i64);
                model.insert(value);
                ops.push(UpdateOp::Insert { column, value });
            }
            for _ in 0..DELETES_PER_COMMIT {
                let value = model.remove_at(rng.gen_range(0..usize::MAX));
                ops.push(UpdateOp::Delete { column, value });
            }
            v.attempted += 1;
            match durable.commit(&mut db, &ops, tr, round_span, c as u64) {
                Ok(applied) => {
                    let done = applied.iter().filter(|&&a| a).count();
                    v.check_len(&format!("commit {c} applied"), ops.len(), done);
                }
                Err(e) => v.fail(&format!("commit {c}: {e}")),
            }
            events.extend(ops.iter().map(|op| match *op {
                UpdateOp::Insert { value, .. } => Event::Insert(value),
                UpdateOp::Delete { value, .. } => Event::Delete(value),
            }));
            if (c + 1) % sizes.snapshot_every == 0 {
                v.attempted += 1;
                if let Err(e) = durable.snapshot(&db, tr, round_span) {
                    v.fail(&format!("snapshot after commit {c}: {e}"));
                }
            }

            let reads: Vec<(i64, i64)> = (0..sizes.reads_per_commit)
                .map(|_| uniform_range(sizes.rows, width, &mut rng))
                .collect();
            let mut answers = Vec::with_capacity(reads.len());
            let burst = Instant::now();
            for (i, &(lo, hi)) in reads.iter().enumerate() {
                let cracks_before = if tr.is_on() {
                    db.cracks_performed(column)
                } else {
                    0
                };
                let t0 = Instant::now();
                let result = db.execute(&Query::range(column, lo, hi));
                let t1 = Instant::now();
                if tr.is_on() {
                    let tag = if db.cracks_performed(column) > cracks_before {
                        "crack"
                    } else {
                        "resolved"
                    };
                    tr.span(
                        "engine.execute",
                        tag,
                        t0,
                        t1,
                        round_span,
                        (c * 1000 + i) as u64,
                    );
                }
                latencies.push(micros(t1 - t0));
                answers.push(result.map(|r| (r.count, r.sum)));
            }
            read_s += burst.elapsed().as_secs_f64();
            for (i, (&(lo, hi), answer)) in reads.iter().zip(&answers).enumerate() {
                v.attempted += 1;
                match answer {
                    Ok(got) => {
                        v.check(
                            &format!("read {i} after commit {c}"),
                            model.answer(lo, hi),
                            *got,
                        );
                    }
                    Err(e) => v.fail(&format!("read {i} after commit {c}: {e}")),
                }
            }
            events.extend(reads.iter().map(|&(lo, hi)| Event::Read(lo, hi)));
        }
        let (first, last) = first_and_last_eighth(&latencies);
        e2e.first_query_mean_us.push(first);
        e2e.late_query_mean_us.push(last);
        e2e.queries_per_s.push(latencies.len() as f64 / read_s);
        let mut layers = cracking_layers(&db, &[column], model.len(), latencies.len());
        e2e.query_us.push(latencies);
        e2e.disk_bytes_per_value
            .push(durable.disk_bytes() as f64 / model.len() as f64);
        drop(db);

        v.attempted += 1;
        match durable.recover(&config, tr, round_span) {
            Ok((recovered, secs)) => {
                e2e.recover_s.push(secs);
                check_recovered(
                    &recovered, "ingest", column, &model, sizes.rows, &mut rng, v,
                );
            }
            Err(e) => v.fail(&format!("recover: {e}")),
        }
        e2e.update_us.push(durable.commit_us.clone());
        durable.layers(&mut layers);
        durable.remove();
        tr.close(round_span);
        if round == 0 && tr.is_on() {
            replay(&data, &events, tr, &mut replayed);
        }
        rounds.push(layers);
    }
    let mut layers = median_layers(&rounds);
    layers.extend(replayed);
    if tr.is_on() {
        engine_call_layers(tr, &mut layers);
    }
    (e2e, layers)
}
