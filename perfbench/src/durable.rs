//! Timed calls into the persistence layer: group commits, snapshots,
//! recovery, and the bytes they leave on disk.
//!
//! The fsync policy is the engine's own: `Database::update_batch` appends
//! a commit's records to the WAL with one write and one fsync before it
//! returns, so a commit's latency runs from the call until the commit is
//! durable. Snapshots are written temp-file, fsync, rename, fsync-dir.
//! Latencies measured here are this machine's filesystem and page cache,
//! not a storage device's.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use holistic_core::{
    ColumnId, Database, FaultInjector, HolisticConfig, HolisticError, IndexingStrategy, Query,
    RecoveryOutcome, UpdateOp,
};
use rand::rngs::StdRng;
use rand::Rng;

use crate::measure::{dir_bytes, file_bytes, mean, median, micros, ratio};
use crate::reference::{AppendedColumn, Model, Verifier};
use crate::report::{E2e, Layers};
use crate::trace::Tracer;
use crate::workload::{narrow_width, uniform_range};

/// Bytes of user data per value: one `i64`.
const VALUE_BYTES: u64 = 8;
/// Recoveries timed per round; `recover_s` takes their median.
const RECOVERIES: usize = 5;

/// A persistence directory attached to one engine, with what its calls
/// cost and wrote.
pub struct Durable {
    dir: PathBuf,
    injector: Arc<FaultInjector>,
    pub commit_us: Vec<f64>,
    io_ops: Vec<f64>,
    snapshot_ms: Vec<f64>,
    snapshot_bytes: u64,
    bytes_written: u64,
    user_bytes: u64,
    replayed_records: u64,
}

impl Durable {
    /// Attaches persistence in `dir` to `db`, whose tables hold
    /// `values` values (they become durable as the WAL's genesis).
    pub fn attach(db: &mut Database, dir: PathBuf, values: usize) -> Result<Self, HolisticError> {
        let injector = FaultInjector::new();
        db.set_persistence(&dir, Arc::clone(&injector))?;
        let genesis = file_bytes(&wal_path(&dir));
        Ok(Durable {
            dir,
            injector,
            commit_us: Vec::new(),
            io_ops: Vec::new(),
            snapshot_ms: Vec::new(),
            snapshot_bytes: 0,
            bytes_written: genesis,
            user_bytes: values as u64 * VALUE_BYTES,
            replayed_records: 0,
        })
    }

    /// One timed group commit.
    pub fn commit(
        &mut self,
        db: &mut Database,
        ops: &[UpdateOp],
        tr: &mut Tracer,
        parent: usize,
        request: u64,
    ) -> Result<Vec<bool>, HolisticError> {
        let wal_before = file_bytes(&wal_path(&self.dir));
        let ops_before = self.injector.ops_performed();
        let t0 = Instant::now();
        let applied = db.update_batch(ops);
        let t1 = Instant::now();
        tr.span("engine.update_batch", "", t0, t1, parent, request);
        self.commit_us.push(micros(t1 - t0));
        self.io_ops
            .push((self.injector.ops_performed() - ops_before) as f64);
        self.bytes_written += file_bytes(&wal_path(&self.dir)).saturating_sub(wal_before);
        self.user_bytes += ops.len() as u64 * VALUE_BYTES;
        applied
    }

    /// One timed snapshot (which also compacts the WAL).
    pub fn snapshot(
        &mut self,
        db: &Database,
        tr: &mut Tracer,
        parent: usize,
    ) -> Result<(), HolisticError> {
        let t0 = Instant::now();
        let generation = db.snapshot()?;
        let t1 = Instant::now();
        tr.span("engine.snapshot", "", t0, t1, parent, generation);
        self.snapshot_ms.push(micros(t1 - t0) / 1e3);
        self.snapshot_bytes = file_bytes(&self.dir.join(format!("snapshot.{generation}")));
        self.bytes_written += self.snapshot_bytes + file_bytes(&wal_path(&self.dir));
        Ok(())
    }

    /// Snapshot plus WAL bytes on disk now.
    pub fn disk_bytes(&self) -> u64 {
        dir_bytes(&self.dir)
    }

    /// `RECOVERIES` timed `Database::recover` calls from this directory
    /// (recovery only reads it); returns the last engine and the median
    /// seconds.
    pub fn recover(
        &mut self,
        config: &HolisticConfig,
        tr: &mut Tracer,
        parent: usize,
    ) -> Result<(Database, f64), HolisticError> {
        let mut secs = Vec::with_capacity(RECOVERIES);
        let mut recovered = None;
        for i in 0..RECOVERIES {
            drop(recovered.take());
            let t0 = Instant::now();
            let (db, outcome): (Database, RecoveryOutcome) = Database::recover(
                config.clone(),
                IndexingStrategy::Holistic,
                &self.dir,
                FaultInjector::new(),
            )?;
            let t1 = Instant::now();
            tr.span("engine.recover", "", t0, t1, parent, i as u64);
            secs.push((t1 - t0).as_secs_f64());
            self.replayed_records = outcome.wal_records_replayed;
            recovered = Some(db);
        }
        let db = recovered.expect("at least one recovery");
        Ok((db, median(&secs)))
    }

    /// This directory's per-layer values.
    pub fn layers(&self, layers: &mut Layers) {
        layers.insert("persist.commits", self.commit_us.len() as f64);
        layers.insert("persist.io_ops_per_commit", mean(&self.io_ops));
        layers.insert("persist.snapshot_ms", median(&self.snapshot_ms));
        layers.insert("persist.snapshot_bytes", self.snapshot_bytes as f64);
        layers.insert(
            "persist.write_amp",
            ratio(self.bytes_written as f64, self.user_bytes as f64),
        );
        layers.insert("persist.replayed_records", self.replayed_records as f64);
    }

    /// Deletes the directory.
    pub fn remove(self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn wal_path(dir: &Path) -> PathBuf {
    dir.join("wal.log")
}

/// One read-mostly column the durability epilogue appends to.
pub struct Target {
    pub table: String,
    pub column: ColumnId,
    pub model: AppendedColumn,
}

/// Values per epilogue commit.
const EPILOGUE_BATCH: usize = 8;
/// Queries per column re-checked on the recovered engine.
const RECOVERY_SAMPLE: usize = 32;

/// The durability epilogue of the read-only workloads, run after their
/// query phase: attach persistence, `commits` insert-only group commits
/// round-robin over `targets` with one snapshot halfway (so recovery
/// loads the snapshot and replays a WAL tail), then timed recoveries
/// whose row counts and a fixed query sample are checked against the
/// models.
/// It gives those workloads their update, recovery and disk metrics for
/// the learned state they built, without any update inside the query
/// phase.
#[allow(clippy::too_many_arguments)]
pub fn epilogue(
    mut db: Database,
    targets: &mut [Target],
    commits: usize,
    dir: PathBuf,
    config: &HolisticConfig,
    rng: &mut StdRng,
    tr: &mut Tracer,
    parent: usize,
    v: &mut Verifier,
    e2e: &mut E2e,
    layers: &mut Layers,
) {
    let rows: usize = targets.iter().map(|t| t.model.len()).sum();
    let domain = targets
        .iter()
        .map(|t| t.model.base.len())
        .max()
        .unwrap_or(1)
        .max(1) as i64;
    let mut durable = Durable::attach(&mut db, dir, rows).expect("attach persistence");
    for c in 0..commits {
        let target = &mut targets[c % targets.len()];
        let values: Vec<i64> = (0..EPILOGUE_BATCH)
            .map(|_| rng.gen_range(0..domain))
            .collect();
        let ops: Vec<UpdateOp> = values
            .iter()
            .map(|&value| UpdateOp::Insert {
                column: target.column,
                value,
            })
            .collect();
        v.attempted += 1;
        match durable.commit(&mut db, &ops, tr, parent, c as u64) {
            Ok(_) => target.model.appended.extend(values),
            Err(e) => v.fail(&format!("commit {c}: {e}")),
        }
        if c + 1 == commits / 2 {
            v.attempted += 1;
            if let Err(e) = durable.snapshot(&db, tr, parent) {
                v.fail(&format!("snapshot: {e}"));
            }
        }
    }
    let live: usize = targets.iter().map(|t| t.model.len()).sum();
    e2e.disk_bytes_per_value
        .push(durable.disk_bytes() as f64 / live as f64);
    drop(db);

    v.attempted += 1;
    match durable.recover(config, tr, parent) {
        Ok((recovered, secs)) => {
            e2e.recover_s.push(secs);
            for t in targets.iter() {
                let domain = t.model.base.len();
                check_recovered(&recovered, &t.table, t.column, &t.model, domain, rng, v);
            }
        }
        Err(e) => v.fail(&format!("recover: {e}")),
    }
    e2e.update_us.push(durable.commit_us.clone());
    durable.layers(layers);
    durable.remove();
}

/// Row count and a fixed query sample, over `[0, domain)`, of one
/// recovered column against its model: every acknowledged commit must be
/// readable.
pub fn check_recovered(
    db: &Database,
    table: &str,
    column: ColumnId,
    model: &dyn Model,
    domain: usize,
    rng: &mut StdRng,
    v: &mut Verifier,
) {
    let rows = db
        .table_id(table)
        .and_then(|id| db.row_count(id).ok())
        .unwrap_or(0);
    v.check_len(&format!("recovered rows of {table}"), model.len(), rows);
    let width = narrow_width(domain);
    for i in 0..RECOVERY_SAMPLE {
        let (lo, hi) = uniform_range(domain, width, rng);
        v.attempted += 1;
        match db.execute(&Query::range(column, lo, hi)) {
            Ok(r) => {
                v.check(
                    &format!("recovered query {i} on {table}"),
                    model.answer(lo, hi),
                    (r.count, r.sum),
                );
            }
            Err(e) => v.fail(&format!("recovered query {i} on {table}: {e}")),
        }
    }
}
