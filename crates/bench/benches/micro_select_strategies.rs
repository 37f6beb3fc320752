//! Criterion micro-benchmarks for a single range select under the different
//! access paths: full scan (count / sum / full materialization), binary
//! search on a full sorted index, and a cracked column at different stages
//! of refinement, cracked with the production kernel rule (branchy below
//! the predication threshold, predicated above).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use holistic_cracking::CrackerColumn;
use holistic_offline::SortedIndex;
use holistic_storage::{scan_count, scan_full, scan_sum};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 1_000_000;
const SELECTIVITY: i64 = (N as i64) / 100;

fn dataset() -> Vec<i64> {
    let mut rng = StdRng::seed_from_u64(3);
    (0..N).map(|_| rng.gen_range(1..=N as i64)).collect()
}

fn cracked_column(refinements: u64) -> CrackerColumn {
    let mut cracker = CrackerColumn::from_values(dataset());
    let mut rng = StdRng::seed_from_u64(4);
    cracker.random_cracks(refinements, &mut rng);
    cracker
}

fn bench_scans(c: &mut Criterion) {
    let data = dataset();
    let mut group = c.benchmark_group("bulk_scan");

    group.bench_function("count", |b| {
        let mut rng = StdRng::seed_from_u64(5);
        b.iter(|| {
            let lo = rng.gen_range(1..=(N as i64 - SELECTIVITY));
            black_box(scan_count(&data, lo, lo + SELECTIVITY))
        });
    });

    group.bench_function("sum", |b| {
        let mut rng = StdRng::seed_from_u64(5);
        b.iter(|| {
            let lo = rng.gen_range(1..=(N as i64 - SELECTIVITY));
            black_box(scan_sum(&data, lo, lo + SELECTIVITY))
        });
    });

    group.bench_function("full", |b| {
        let mut rng = StdRng::seed_from_u64(5);
        b.iter(|| {
            let lo = rng.gen_range(1..=(N as i64 - SELECTIVITY));
            black_box(scan_full(&data, lo, lo + SELECTIVITY).count)
        });
    });

    group.finish();
}

fn bench_selects(c: &mut Criterion) {
    let data = dataset();
    let sorted = SortedIndex::build_from_values(&data);
    let mut group = c.benchmark_group("range_select");

    group.bench_function("scan", |b| {
        let mut rng = StdRng::seed_from_u64(5);
        b.iter(|| {
            let lo = rng.gen_range(1..=(N as i64 - SELECTIVITY));
            black_box(scan_count(&data, lo, lo + SELECTIVITY))
        });
    });

    group.bench_function("sorted_index", |b| {
        let mut rng = StdRng::seed_from_u64(6);
        b.iter(|| {
            let lo = rng.gen_range(1..=(N as i64 - SELECTIVITY));
            black_box(sorted.count(lo, lo + SELECTIVITY))
        });
    });

    // The cracked select after 0, 64 and 1024 idle refinements. The
    // per-query cost is dominated by the first cracks of large pieces,
    // which the rule hands to the predicated kernels.
    for &refinements in &[0u64, 64, 1024] {
        group.bench_with_input(
            BenchmarkId::new("cracked", refinements),
            &refinements,
            |b, &refinements| {
                let mut cracker = cracked_column(refinements);
                let mut rng = StdRng::seed_from_u64(7);
                b.iter(|| {
                    let lo = rng.gen_range(1..=(N as i64 - SELECTIVITY));
                    black_box(cracker.crack_count(lo, lo + SELECTIVITY))
                });
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_scans, bench_selects
}
criterion_main!(benches);
