//! `explore`: the paper's ad-hoc exploration case.
//!
//! One client, closed loop, Holistic strategy with the default
//! configuration, one unsharded column of uniform values. The client
//! issues uniformly placed 0.01%-wide count/sum ranges through
//! `Database::execute` and grants the engine a fixed idle budget
//! (`Database::run_idle`) every `IDLE_EVERY` queries.
//!
//! Why: nearly all of its time goes to the crack kernels, the piece table
//! and hot-range boosts, and its working set (the whole column) is larger
//! than the learned state. It bypasses the server, sharding and, during
//! its query phase, persistence. Per-query cost rises as the piece table
//! grows: `late_query_mean_us` far above the first-eighth mean is the
//! known piece-table/learned-state defect this workload keeps visible.
//! The query phase performs no updates.

use std::time::Instant;

use holistic_core::{Database, IdleBudget, IndexingStrategy, Query};

use crate::durable::{epilogue, Target};
use crate::measure::{mean, micros, ratio};
use crate::reference::{AppendedColumn, Verifier};
use crate::replay::{replay, Event};
use crate::report::{first_and_last_eighth, median_layers, E2e, Layers};
use crate::trace::Tracer;
use crate::workload::{
    cracking_layers, engine_call_layers, engine_config, narrow_width, uniform_range,
    uniform_values, Params,
};

/// Queries between two idle grants, and the actions each grant allows.
const IDLE_EVERY: usize = 64;
const IDLE_ACTIONS: u64 = 16;

struct Sizes {
    rows: usize,
    queries: usize,
    epilogue_commits: usize,
}

impl Sizes {
    fn new(tiny: bool) -> Self {
        if tiny {
            Sizes {
                rows: 20_000,
                queries: 512,
                epilogue_commits: 16,
            }
        } else {
            Sizes {
                rows: 1_000_000,
                queries: 16_000,
                epilogue_commits: 320,
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
        let queries: Vec<(i64, i64)> = (0..sizes.queries)
            .map(|_| uniform_range(sizes.rows, width, &mut rng))
            .collect();
        let round_span = tr.open("workload.round", 0, round as u64);

        let input = data.clone();
        let t0 = Instant::now();
        let mut db = Database::new(config.clone(), IndexingStrategy::Holistic);
        let table = db
            .create_table("explore", vec![("v", input)])
            .expect("create table");
        let column = db.column_id(table, "v").expect("column id");
        let t1 = Instant::now();
        tr.span("engine.setup", "", t0, t1, round_span, 0);
        e2e.setup_s.push((t1 - t0).as_secs_f64());

        let mut latencies = Vec::with_capacity(queries.len());
        let mut answers = Vec::with_capacity(queries.len());
        let (mut idle_us, mut idle_applied, mut idle_effective) = (Vec::new(), 0u64, 0u64);
        let phase = Instant::now();
        for (i, &(lo, hi)) in queries.iter().enumerate() {
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
                tr.span("engine.execute", tag, t0, t1, round_span, i as u64);
            }
            latencies.push(micros(t1 - t0));
            answers.push(result.map(|r| (r.count, r.sum)));
            if (i + 1) % IDLE_EVERY == 0 {
                let t0 = Instant::now();
                let report = db.run_idle(IdleBudget::Actions(IDLE_ACTIONS));
                let t1 = Instant::now();
                tr.span("engine.run_idle", "", t0, t1, round_span, i as u64);
                idle_us.push(micros(t1 - t0));
                idle_applied += report.actions_applied;
                idle_effective += report.effective_actions;
            }
        }
        let phase_s = phase.elapsed().as_secs_f64();

        let mut targets = [Target {
            table: "explore".into(),
            column,
            model: AppendedColumn::new(&data),
        }];
        for (i, (&(lo, hi), answer)) in queries.iter().zip(&answers).enumerate() {
            v.attempted += 1;
            match answer {
                Ok(got) => {
                    v.check(
                        &format!("query {i} [{lo}, {hi})"),
                        targets[0].model.base.answer(lo, hi),
                        *got,
                    );
                }
                Err(e) => v.fail(&format!("query {i}: {e}")),
            }
        }
        let (first, last) = first_and_last_eighth(&latencies);
        e2e.first_query_mean_us.push(first);
        e2e.late_query_mean_us.push(last);
        e2e.queries_per_s.push(queries.len() as f64 / phase_s);
        e2e.query_us.push(latencies);

        let mut layers = cracking_layers(&db, &[column], sizes.rows, queries.len());
        layers.insert("idle.busy_us", mean(&idle_us));
        layers.insert(
            "idle.effective_ratio",
            ratio(idle_effective as f64, idle_applied as f64),
        );
        epilogue(
            db,
            &mut targets,
            sizes.epilogue_commits,
            p.dir.join(format!("explore-{round}")),
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
            let events: Vec<Event> = queries
                .iter()
                .map(|&(lo, hi)| Event::Read(lo, hi))
                .chain(targets[0].model.appended.iter().map(|&x| Event::Insert(x)))
                .collect();
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
