//! The learning curve: per-query cost and piece count, window by window,
//! as the cracker index learns.
//!
//! Cracking's promise is that the i-th query gets cheaper. This bench
//! replays one sequence of uniformly placed 0.01%-wide count/sum ranges
//! over one column of uniform values, cut into 8 equal windows, and reports
//! each window's mean per-query cost and the piece count at its end, for:
//!
//! * **cracker** — a bare `CrackerColumn`: `crack_select` + `aggregate_range`
//!   per query (kernels and piece table only);
//! * **adaptive** — `Database::execute` under `IndexingStrategy::Adaptive`;
//! * **holistic** — `Database::execute` under `IndexingStrategy::Holistic`,
//!   granting `run_idle(16 actions)` every 64 queries (idle time is not part
//!   of the per-query cost).
//!
//! A flat or falling curve is the paper's property; a rising one means
//! index maintenance grows with the index. `last/first` is the last
//! window's mean over the first window's.
//!
//! Every answer is checked, outside the timed regions, against the scan
//! answer computed by binary search over a sorted copy of the data (with
//! prefix sums); a wrong answer aborts the bench.
//!
//! Scale knobs: `HOLISTIC_SCALE` (rows, default 1,000,000) and
//! `HOLISTIC_QUERIES` (queries over all windows, default 16,384).
//!
//! Output: one table per configuration, then one line
//! BENCH_JSON {"bench":"micro_learning_curve","rows":…,"queries":…,…}

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use holistic_bench::{scale, uniform_column};
use holistic_core::{Database, HolisticConfig, IdleBudget, IndexingStrategy, Query};
use holistic_cracking::CrackerColumn;

const WINDOWS: usize = 8;
const IDLE_EVERY: usize = 64;
const IDLE_ACTIONS: u64 = 16;

fn query_total() -> usize {
    std::env::var("HOLISTIC_QUERIES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(16_384)
}

/// Exact count/sum answers from a sorted copy of the data.
struct Reference {
    sorted: Vec<i64>,
    prefix: Vec<i128>,
}

impl Reference {
    fn new(data: &[i64]) -> Self {
        let mut sorted = data.to_vec();
        sorted.sort_unstable();
        let mut prefix = Vec::with_capacity(sorted.len() + 1);
        prefix.push(0i128);
        for &v in &sorted {
            prefix.push(prefix[prefix.len() - 1] + i128::from(v));
        }
        Reference { sorted, prefix }
    }

    fn answer(&self, lo: i64, hi: i64) -> (u64, i128) {
        if hi <= lo {
            return (0, 0);
        }
        let a = self.sorted.partition_point(|&v| v < lo);
        let b = self.sorted.partition_point(|&v| v < hi);
        ((b - a) as u64, self.prefix[b] - self.prefix[a])
    }
}

/// One configuration's curve: mean µs per query and end-of-window pieces.
struct Curve {
    name: &'static str,
    mean_us: Vec<f64>,
    pieces: Vec<usize>,
}

impl Curve {
    fn last_over_first(&self) -> f64 {
        match (self.mean_us.first(), self.mean_us.last()) {
            (Some(&first), Some(&last)) if first > 0.0 => last / first,
            _ => 0.0,
        }
    }

    fn print(&self) {
        println!("\n{} (mean us/query, pieces at window end)", self.name);
        for (w, (us, pieces)) in self.mean_us.iter().zip(&self.pieces).enumerate() {
            println!("  window {w}: {us:>10.2} us  {pieces:>8} pieces");
        }
        println!("  last/first: {:.2}", self.last_over_first());
    }

    fn json(&self) -> String {
        let us: Vec<String> = self.mean_us.iter().map(|v| format!("{v:.2}")).collect();
        let pieces: Vec<String> = self.pieces.iter().map(ToString::to_string).collect();
        format!(
            "\"{0}_us\":[{1}],\"{0}_pieces\":[{2}],\"{0}_last_over_first\":{3:.3}",
            self.name,
            us.join(","),
            pieces.join(","),
            self.last_over_first()
        )
    }
}

/// One answered query: its timed cost in µs, its (count, sum), and the
/// piece count right after it (read outside the timed region).
type Answered = (f64, (u64, i128), usize);

/// Runs `queries` window by window through `run`, which answers query `i`
/// of `[lo, hi)`. Answers are checked afterwards.
fn curve(
    name: &'static str,
    queries: &[(i64, i64)],
    reference: &Reference,
    mut run: impl FnMut(usize, i64, i64) -> Answered,
) -> Curve {
    let per_window = (queries.len() / WINDOWS).max(1);
    let mut mean_us = Vec::with_capacity(WINDOWS);
    let mut window_pieces = Vec::with_capacity(WINDOWS);
    let mut answers = Vec::with_capacity(queries.len());
    for window in queries.chunks(per_window).take(WINDOWS) {
        let (mut total_us, mut pieces) = (0.0, 0);
        for &(lo, hi) in window {
            let (us, answer, after) = run(answers.len(), lo, hi);
            total_us += us;
            pieces = after;
            answers.push(answer);
        }
        mean_us.push(total_us / window.len() as f64);
        window_pieces.push(pieces);
    }
    for (i, (&(lo, hi), &got)) in queries.iter().zip(&answers).enumerate() {
        assert_eq!(
            got,
            reference.answer(lo, hi),
            "{name}: query {i} [{lo}, {hi}) disagrees with the scan"
        );
    }
    Curve {
        name,
        mean_us,
        pieces: window_pieces,
    }
}

fn engine_curve(
    name: &'static str,
    strategy: IndexingStrategy,
    data: &[i64],
    queries: &[(i64, i64)],
    reference: &Reference,
) -> Curve {
    let mut db = Database::new(HolisticConfig::default(), strategy);
    let table = db
        .create_table("t", vec![("v", data.to_vec())])
        .expect("create table");
    let column = db.column_id(table, "v").expect("column id");
    let holistic = strategy == IndexingStrategy::Holistic;
    curve(name, queries, reference, |i, lo, hi| {
        let t0 = Instant::now();
        let r = db.execute(&Query::range(column, lo, hi)).expect("execute");
        let us = t0.elapsed().as_secs_f64() * 1e6;
        if holistic && (i + 1) % IDLE_EVERY == 0 {
            db.run_idle(IdleBudget::Actions(IDLE_ACTIONS));
        }
        (us, (r.count, r.sum), db.piece_count(column))
    })
}

fn main() {
    let rows = scale();
    let total = query_total().max(WINDOWS);
    let width = (rows as i64 / 10_000).max(1);
    let data = uniform_column(rows, 7);
    let reference = Reference::new(&data);
    let mut rng = StdRng::seed_from_u64(11);
    let queries: Vec<(i64, i64)> = (0..total)
        .map(|_| {
            let lo = rng.gen_range(1..=(rows as i64 - width).max(1));
            (lo, lo + width)
        })
        .collect();
    println!(
        "micro_learning_curve: {rows} rows, {total} queries of width {width} in {WINDOWS} windows"
    );

    let mut column = CrackerColumn::from_values(data.clone());
    let cracker = curve("cracker", &queries, &reference, |_, lo, hi| {
        let t0 = Instant::now();
        let range = column.crack_select(lo, hi);
        let agg = column.aggregate_range(range, lo, hi);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        (us, (agg.count, agg.sum), column.piece_count())
    });
    let adaptive = engine_curve(
        "adaptive",
        IndexingStrategy::Adaptive,
        &data,
        &queries,
        &reference,
    );
    let holistic = engine_curve(
        "holistic",
        IndexingStrategy::Holistic,
        &data,
        &queries,
        &reference,
    );
    for c in [&cracker, &adaptive, &holistic] {
        c.print();
    }
    println!(
        "BENCH_JSON {{\"bench\":\"micro_learning_curve\",\"rows\":{rows},\"queries\":{total},\"windows\":{WINDOWS},{},{},{}}}",
        cracker.json(),
        adaptive.json(),
        holistic.json()
    );
}
