//! `serve-hot`: the operator's view of the query service.
//!
//! A `ServiceCore` with `ServiceConfig::default()` and a
//! `BackgroundTuner` attached, over four single-column tables whose
//! cracker columns are sharded into two shards of 500k values: at least
//! 64k each, so every query takes the shard fan-out path, and no more
//! fan-out workers than the two hardware threads of the machine the
//! bounds were set on (with four shards, the oversubscribed workers
//! doubled the run-to-run spread). Queries are Zipf-skewed hot
//! ranges (`ZipfRangeGenerator`) over a uniformly chosen column, issued
//! by two client sessions. One generator thread drives the core in
//! process: each step admits `STEP` requests alternating between the
//! two sessions, dispatches them with `ServiceCore::flush` (column-grouped
//! batches of at most `max_batch`), and collects the responses. The
//! window stays under `per_client_cap` and the token rate, so the drive
//! measures admission, batch formation, dispatch and the engine, not the
//! admission limiter. A warm-up first lets lazy set-up (cracker
//! instantiation, the first cracks of the hot regions) finish untimed.
//!
//! Why: most of its time goes to admission, batch formation, dispatch,
//! sharded fan-out and the aggregate cache; its working set is a few hot
//! regions that fit the learned state. No update runs while the service
//! serves; the tuner starts after the set-up clock stops.
//!
//! The TCP shell (`serve`) and an open loop at a fixed rate are left
//! out: on a 2-thread machine shared with other tenants, their
//! timer-driven figures (2 ms batch deadline, 500 us dispatcher sleeps,
//! background-tuner stalls) spread by 20-90% between runs of identical
//! code, beyond the largest bound a metric may have.

use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::Instant;

use holistic_core::{
    BackgroundConfig, BackgroundTuner, ColumnId, Database, IndexingStrategy, Query, SharedDatabase,
};
use holistic_server::{ServiceConfig, ServiceCore, ServiceResponse};
use holistic_workload::{QueryGenerator, ZipfRangeGenerator};
use rand::Rng;

use crate::durable::{epilogue, Target};
use crate::measure::{micros, ratio};
use crate::reference::{AppendedColumn, Verifier};
use crate::replay::{replay, shard_layout, Event};
use crate::report::{first_and_last_eighth, median_layers, E2e, Layers};
use crate::trace::Tracer;
use crate::workload::{cracking_layers, engine_config, uniform_values, Params};

const COLUMNS: usize = 4;
const SESSIONS: usize = 2;
/// Requests admitted per step: 128 outstanding per session, under
/// `per_client_cap` (512) and the token burst (1024). Over the four
/// columns that fills batches to `max_batch` (64); with half the window,
/// half-full batches spawned twice the fan-out workers per query and the
/// runs spread three times as much.
const STEP: usize = 256;
/// Hot regions and skew of the Zipf range generator; ranges are 0.1% of
/// the domain wide.
const ZIPF_BUCKETS: usize = 64;
const ZIPF_THETA: f64 = 1.2;
const SELECTIVITY: f64 = 0.001;

struct Sizes {
    rows: usize,
    shard_extent: usize,
    warm_requests: usize,
    requests: usize,
    epilogue_commits: usize,
}

impl Sizes {
    fn new(tiny: bool) -> Self {
        if tiny {
            Sizes {
                rows: 20_000,
                shard_extent: 5_000,
                warm_requests: 256,
                requests: 1_024,
                epilogue_commits: 16,
            }
        } else {
            Sizes {
                rows: 1_000_000,
                shard_extent: 500_000,
                warm_requests: 4_096,
                requests: 32_768,
                epilogue_commits: 512,
            }
        }
    }
}

/// One planned request: column index and range.
type Planned = (usize, i64, i64);

/// One answered, shed or lost request. A NaN latency means no response
/// arrived.
#[derive(Debug, Clone)]
struct Outcome {
    error: Option<String>,
    answer: (u64, i128),
    latency_us: f64,
}

pub fn run(p: &Params, tr: &mut Tracer, v: &mut Verifier) -> (E2e, Layers) {
    let sizes = Sizes::new(p.tiny);
    let config = engine_config().with_shard_extent(sizes.shard_extent);
    let mut e2e = E2e::default();
    let mut rounds: Vec<Layers> = Vec::new();
    let mut replayed = Layers::new();
    for round in 0..p.rounds {
        let mut rng = p.rng(round);
        let data: Vec<Vec<i64>> = (0..COLUMNS)
            .map(|_| uniform_values(sizes.rows, &mut rng))
            .collect();
        let mut generator = ZipfRangeGenerator::new(
            0,
            0,
            sizes.rows as i64,
            SELECTIVITY,
            ZIPF_BUCKETS,
            ZIPF_THETA,
        );
        let mut plan = |n: usize| -> Vec<Planned> {
            (0..n)
                .map(|_| {
                    let q = generator.next_query(&mut rng);
                    (rng.gen_range(0..COLUMNS), q.lo, q.hi)
                })
                .collect()
        };
        let warm_plan = plan(sizes.warm_requests);
        let main_plan = plan(sizes.requests);
        let round_span = tr.open("workload.round", 0, round as u64);

        let inputs = data.clone();
        let t0 = Instant::now();
        let mut db = Database::new(config.clone(), IndexingStrategy::Holistic);
        let mut columns = Vec::with_capacity(COLUMNS);
        for (c, values) in inputs.into_iter().enumerate() {
            let table = db
                .create_table(table_name(c), vec![("v", values)])
                .expect("create table");
            columns.push(db.column_id(table, "v").expect("column id"));
        }
        let engine = db.into_shared();
        let core = ServiceCore::new(Arc::clone(&engine), ServiceConfig::default());
        let sessions: Vec<Receiver<ServiceResponse>> =
            (0..SESSIONS).map(|s| core.connect(s as u64 + 1)).collect();
        let t1 = Instant::now();
        tr.span("engine.setup", "", t0, t1, round_span, 0);
        e2e.setup_s.push((t1 - t0).as_secs_f64());

        // The tuner thread starts only after the set-up clock stopped.
        let tuner = BackgroundTuner::spawn(Arc::clone(&engine), BackgroundConfig::default());
        core.attach_tuner(tuner.pause_handle());

        let (warm, _) = drive(&core, &sessions, &columns, &warm_plan, tr, round_span);
        let before = engine_phase(&engine);
        let (outcomes, wall_s) = drive(&core, &sessions, &columns, &main_plan, tr, round_span);
        let after = engine_phase(&engine);
        let tuner_actions = tuner.stop();

        let mut targets: Vec<Target> = data
            .iter()
            .enumerate()
            .map(|(c, values)| Target {
                table: table_name(c),
                column: columns[c],
                model: AppendedColumn::new(values),
            })
            .collect();
        let mut latencies = Vec::with_capacity(outcomes.len());
        for (phase, outcomes, plan) in [
            ("warm-up", &warm, &warm_plan),
            ("main", &outcomes, &main_plan),
        ] {
            for (i, (o, &(c, lo, hi))) in outcomes.iter().zip(plan.iter()).enumerate() {
                v.attempted += 1;
                if let Some(e) = &o.error {
                    v.fail(&format!("{phase} request {i}: {e}"));
                    continue;
                }
                if o.latency_us.is_nan() {
                    v.fail(&format!("{phase} request {i}: no response"));
                    continue;
                }
                v.check(
                    &format!("{phase} request {i} on column {c} [{lo}, {hi})"),
                    targets[c].model.base.answer(lo, hi),
                    o.answer,
                );
                if phase == "main" {
                    latencies.push(o.latency_us);
                }
            }
        }
        let (first, last) = first_and_last_eighth(&latencies);
        e2e.first_query_mean_us.push(first);
        e2e.late_query_mean_us.push(last);
        e2e.queries_per_s.push(outcomes.len() as f64 / wall_s);
        e2e.query_us.push(latencies);

        let attempted = (warm.len() + outcomes.len()) as f64;
        let mut layers = {
            let db = engine.read();
            let mut layers =
                cracking_layers(&db, &columns, COLUMNS * sizes.rows, attempted as usize);
            let service = db.metrics().service();
            let shed = service.rejected_global
                + service.rejected_client
                + service.shed_deadline
                + service.cancelled;
            layers.insert("server.peak_queue_depth", service.peak_queue_depth as f64);
            layers.insert("server.shed_ratio", ratio(shed as f64, attempted));
            layers.insert(
                "server.degraded_ratio",
                ratio(service.degraded_answers as f64, attempted),
            );
            layers.insert(
                "server.saturation_entries",
                service.saturation_entries as f64,
            );
            layers
        };
        let (batches, queries, secs) = (after.0 - before.0, after.1 - before.1, after.2 - before.2);
        layers.insert(
            "engine.batch_size_mean",
            ratio(queries as f64, batches as f64),
        );
        layers.insert("engine.query_time_s", secs);
        layers.insert("background.actions", tuner_actions as f64);

        drop(sessions);
        drop(core);
        let db = Arc::try_unwrap(engine)
            .map_err(|_| "engine still shared after the service stopped")
            .expect("sole owner of the engine")
            .into_inner();
        epilogue(
            db,
            &mut targets,
            sizes.epilogue_commits,
            p.dir.join(format!("serve-hot-{round}")),
            &config,
            &mut rng,
            tr,
            round_span,
            v,
            &mut e2e,
            &mut layers,
        );
        tr.close(round_span);
        if round == 0 && tr.is_on() {
            let events: Vec<Event> = warm_plan
                .iter()
                .chain(&main_plan)
                .filter(|&&(c, _, _)| c == 0)
                .map(|&(_, lo, hi)| Event::Read(lo, hi))
                .chain(targets[0].model.appended.iter().map(|&x| Event::Insert(x)))
                .collect();
            replay(&data[0], &events, tr, &mut replayed);
            shard_layout(&data[0], sizes.shard_extent, &mut replayed);
        }
        rounds.push(layers);
    }
    let mut layers = median_layers(&rounds);
    layers.extend(replayed);
    (e2e, layers)
}

fn table_name(c: usize) -> String {
    format!("hot{c}")
}

/// Cumulative engine batch counters: batches, batched queries and total
/// query time in seconds.
fn engine_phase(engine: &SharedDatabase) -> (u64, u64, f64) {
    let db = engine.read();
    let m = db.metrics();
    (
        m.batches_executed(),
        m.batched_queries(),
        m.total_query_time().as_secs_f64(),
    )
}

/// Drives `plan` through the service core: each step admits `STEP`
/// requests alternating between the sessions, flushes every queued batch
/// and collects the responses. A request's latency runs from its
/// admission until its response has been collected. Returns the outcomes
/// by request and the wall time in seconds.
fn drive(
    core: &ServiceCore,
    sessions: &[Receiver<ServiceResponse>],
    columns: &[ColumnId],
    plan: &[Planned],
    tr: &mut Tracer,
    parent: usize,
) -> (Vec<Outcome>, f64) {
    let mut outcomes = vec![LOST; plan.len()];
    let mut admitted_at = vec![None; plan.len()];
    let start = Instant::now();
    for (step, chunk) in plan.chunks(STEP).enumerate() {
        for (j, &(c, lo, hi)) in chunk.iter().enumerate() {
            let k = step * STEP + j;
            let client = (k % sessions.len()) as u64 + 1;
            let at = Instant::now();
            match core.admit(client, k as u64, Query::range(columns[c], lo, hi), None) {
                Ok(()) => admitted_at[k] = Some(at),
                Err(e) => outcomes[k].error = Some(e.to_string()),
            }
        }
        let t0 = Instant::now();
        core.flush();
        tr.span("server.flush", "", t0, Instant::now(), parent, step as u64);
        for rx in sessions {
            while let Ok(resp) = rx.try_recv() {
                let now = Instant::now();
                let k = resp.request_id as usize;
                let at = admitted_at[k].unwrap_or(now);
                tr.span("server.request", "", at, now, parent, k as u64);
                outcomes[k] = match resp.result {
                    Ok(r) => Outcome {
                        error: None,
                        answer: (r.count, r.sum),
                        latency_us: micros(now - at),
                    },
                    Err(e) => Outcome {
                        error: Some(e.to_string()),
                        ..LOST
                    },
                };
            }
        }
    }
    (outcomes, start.elapsed().as_secs_f64())
}

/// An outcome for a request whose response never came.
const LOST: Outcome = Outcome {
    error: None,
    answer: (0, 0),
    latency_us: f64::NAN,
};
