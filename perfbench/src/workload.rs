//! What every workload shares: run parameters, the engine configuration,
//! seeded inputs and the engine counters read after a query phase.

use std::path::PathBuf;

use holistic_core::{ColumnId, Database, HolisticConfig};
use holistic_cracking::Piece;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::measure::{quantile, ratio, sorted};
use crate::report::Layers;
use crate::trace::Tracer;

/// Parameters of one benchmark run.
#[derive(Debug, Clone)]
pub struct Params {
    pub seed: u64,
    /// Rounds of the workload's fixed operation sequence, each on a fresh
    /// engine. Run length is a number of rounds, never a deadline, so two
    /// commits given the same arguments do identical work.
    pub rounds: usize,
    /// Self-test scale: small columns and few operations.
    pub tiny: bool,
    /// Scratch directory for persistence files and the span file.
    pub dir: PathBuf,
}

impl Params {
    /// The RNG of round `round`, derived from the run's seed.
    pub fn rng(&self, round: usize) -> StdRng {
        StdRng::seed_from_u64(
            self.seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(round as u64 + 1),
        )
    }
}

/// The engine configuration every workload starts from: the defaults,
/// with paranoia validation pinned off so that an environment variable
/// cannot change what is measured.
pub fn engine_config() -> HolisticConfig {
    HolisticConfig::default().with_paranoia(false)
}

/// `n` values drawn uniformly from `[0, n)`.
pub fn uniform_values(n: usize, rng: &mut StdRng) -> Vec<i64> {
    (0..n).map(|_| rng.gen_range(0..n as i64)).collect()
}

/// Width of a 0.01%-selectivity range over the domain `[0, n)`.
pub fn narrow_width(n: usize) -> i64 {
    (n as i64 / 10_000).max(1)
}

/// A uniformly placed range of `width` inside `[0, n)`.
pub fn uniform_range(n: usize, width: i64, rng: &mut StdRng) -> (i64, i64) {
    let lo = rng.gen_range(0..=n as i64 - width);
    (lo, lo + width)
}

/// Cracking-layer counters of `columns` after `queries` queries:
/// pieces, cracks, piece-table bytes per value, kernel dispatches and the
/// aggregate cache's zero-read share.
pub fn cracking_layers(
    db: &Database,
    columns: &[ColumnId],
    values: usize,
    queries: usize,
) -> Layers {
    let pieces: usize = columns.iter().map(|&c| db.piece_count(c)).sum();
    let cracks: u64 = columns.iter().map(|&c| db.cracks_performed(c)).sum();
    let kernels = db.metrics().kernel_dispatches();
    let cache = db.metrics().aggregate_cache();
    let answered = cache.hits + cache.prefix + cache.partials + cache.misses;
    Layers::from([
        ("cracking.pieces", pieces as f64),
        ("cracking.cracks", cracks as f64),
        (
            "cracking.piece_bytes_per_value",
            ratio(
                (pieces * std::mem::size_of::<Piece>()) as f64,
                values as f64,
            ),
        ),
        ("cracking.kernel_branchy", kernels.branchy as f64),
        ("cracking.kernel_predicated", kernels.predicated as f64),
        (
            "cracking.zero_read_ratio",
            ratio(cache.zero_read() as f64, answered as f64),
        ),
        (
            "cracking.scanned_per_query",
            ratio(cache.scanned_values as f64, queries as f64),
        ),
    ])
}

/// p50 of `Database::execute` calls that cracked and of those that did
/// not (`cracks_performed` unchanged).
pub fn engine_call_layers(tr: &Tracer, layers: &mut Layers) {
    for (layer, tag) in [
        ("engine.crack_call_us", "crack"),
        ("engine.resolved_call_us", "resolved"),
    ] {
        let d = tr.durations_us("engine.execute", Some(tag));
        layers.insert(layer, quantile(&sorted(&d), 0.5));
    }
}
