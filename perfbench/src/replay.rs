//! Standalone replays for the traced run: one workload round's
//! operations applied to a bare cracker column or base column, so the
//! time of a single layer's calls is measured without the engine around
//! them.

use std::time::Instant;

use holistic_cracking::{ConcurrentCrackerColumn, CrackerColumn};
use holistic_storage::Column;

use crate::measure::{quantile, sorted};
use crate::report::Layers;
use crate::trace::Tracer;

/// One replayed operation of a round, in order.
#[derive(Debug, Clone, Copy)]
pub enum Event {
    Read(i64, i64),
    Insert(i64),
    Delete(i64),
}

fn p50(tr: &Tracer, name: &str) -> f64 {
    quantile(&sorted(&tr.durations_us(name, None)), 0.5)
}

/// `CrackerColumn::crack_select` + `aggregate_range` per read, on a copy
/// of `values`.
fn cracker_select(values: &[i64], events: &[Event], tr: &mut Tracer, parent: usize) {
    let mut column = CrackerColumn::from_values(values.to_vec());
    for (i, e) in events.iter().enumerate() {
        let Event::Read(lo, hi) = *e else { continue };
        let t0 = Instant::now();
        let range = column.crack_select(lo, hi);
        let t1 = Instant::now();
        std::hint::black_box(column.aggregate_range(range, lo, hi));
        let t2 = Instant::now();
        let id = tr.span("cracking.select", "", t0, t2, parent, i as u64);
        tr.span("cracking.crack_select", "", t0, t1, id, i as u64);
        tr.span("cracking.aggregate_range", "", t1, t2, id, i as u64);
    }
}

/// `ConcurrentCrackerColumn::insert`/`delete` per update on a copy of
/// `values`, with the reads cracking it in between as they did in the
/// round.
fn cracker_ripple(values: &[i64], events: &[Event], tr: &mut Tracer, parent: usize) {
    let column = ConcurrentCrackerColumn::from_values(values.to_vec());
    let mut next_rowid = values.len() as u32;
    for (i, e) in events.iter().enumerate() {
        match *e {
            Event::Read(lo, hi) => {
                std::hint::black_box(column.select_range(lo, hi));
            }
            Event::Insert(v) => {
                let t0 = Instant::now();
                column.insert(v, next_rowid);
                tr.span(
                    "cracking.ripple_insert",
                    "",
                    t0,
                    Instant::now(),
                    parent,
                    i as u64,
                );
                next_rowid += 1;
            }
            Event::Delete(v) => {
                let t0 = Instant::now();
                let removed = column.delete(v);
                tr.span(
                    "cracking.ripple_delete",
                    "",
                    t0,
                    Instant::now(),
                    parent,
                    i as u64,
                );
                assert!(removed, "replayed delete of a present value");
            }
        }
    }
}

/// `Column::append`/`remove_first` per update on a copy of `values`.
fn base_column(values: &[i64], events: &[Event], tr: &mut Tracer, parent: usize) {
    let mut column = Column::from_values("replay", values.to_vec());
    for (i, e) in events.iter().enumerate() {
        match *e {
            Event::Read(..) => {}
            Event::Insert(v) => {
                let t0 = Instant::now();
                column.append(v);
                tr.span("storage.append", "", t0, Instant::now(), parent, i as u64);
            }
            Event::Delete(v) => {
                let t0 = Instant::now();
                let removed = column.remove_first(v);
                tr.span(
                    "storage.remove_first",
                    "",
                    t0,
                    Instant::now(),
                    parent,
                    i as u64,
                );
                assert!(removed, "replayed delete of a present value");
            }
        }
    }
}

/// Replays `events` against standalone copies of a column that started
/// as `values`, and adds the p50 of every replayed call to `layers`.
pub fn replay(values: &[i64], events: &[Event], tr: &mut Tracer, layers: &mut Layers) {
    let parent = tr.open("replay", 0, 0);
    cracker_select(values, events, tr, parent);
    cracker_ripple(values, events, tr, parent);
    base_column(values, events, tr, parent);
    tr.close(parent);
    for (layer, span) in [
        ("cracking.select_us", "cracking.select"),
        ("cracking.ripple_insert_us", "cracking.ripple_insert"),
        ("cracking.ripple_delete_us", "cracking.ripple_delete"),
        ("storage.append_us", "storage.append"),
        ("storage.remove_first_us", "storage.remove_first"),
    ] {
        if !tr.durations_us(span, None).is_empty() {
            layers.insert(layer, p50(tr, span));
        }
    }
}

/// Shard count and smallest shard of a copy of `values` sharded with the
/// engine's extent: more than one shard means every select takes the
/// fan-out path.
pub fn shard_layout(values: &[i64], extent: usize, layers: &mut Layers) {
    let column = ConcurrentCrackerColumn::from_values_sharded(values.to_vec(), extent);
    let shards = column.shard_count();
    let smallest = (0..shards)
        .filter_map(|s| column.with_shard_read(s, CrackerColumn::len))
        .min()
        .unwrap_or(0);
    layers.insert("cracking.shards", shards as f64);
    layers.insert("cracking.min_shard_values", smallest as f64);
}
