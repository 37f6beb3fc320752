//! Criterion micro-benchmarks for the partitioning kernels.
//!
//! Two questions are answered here:
//!
//! 1. The classic adaptive-indexing asymmetry: one crack pass is O(n), a
//!    full sort is O(n log n) — the cost gap the whole cracking argument
//!    rests on (`full_sort` baselines).
//! 2. The branchy-vs-predicated trade-off across piece sizes: the branchy
//!    two-pointer loop mispredicts on uniform-random data, the predicated
//!    Lomuto loop executes a fixed instruction stream. The head-to-head
//!    sweep locates the crossover that justifies the piece-length rule
//!    (`KernelChoice::for_piece_len`), and the `auto` rows verify the rule
//!    picks the better form at every size.
//!
//! Every row runs one of the three generic sum-fused sweeps the cracker
//! column itself runs (`crack_in_two`, `crack_in_three`), instantiated for
//! the form and the row-id payload under test.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use holistic_cracking::kernels::{crack_in_three, crack_in_two, KernelChoice, TwoWaySums};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn dataset(n: usize) -> Vec<i64> {
    let mut rng = StdRng::seed_from_u64(1);
    (0..n).map(|_| rng.gen_range(1..=n as i64)).collect()
}

/// Piece sizes swept by the branchy-vs-predicated comparison: from well
/// inside L1 (1 Ki values = 8 KiB) to far out of cache (4 Mi values).
const PIECE_SIZES: [usize; 7] = [
    1 << 10,
    1 << 12,
    1 << 14,
    1 << 16,
    1 << 18,
    1 << 20,
    1 << 22,
];

/// The two-way sweep in the form the production rule picks for `data`.
fn crack_in_two_auto(data: &mut [i64], pivot: i64) -> TwoWaySums {
    match KernelChoice::for_piece_len(data.len()) {
        KernelChoice::Branchy => crack_in_two::<false, _>(data, (), pivot),
        KernelChoice::Predicated => crack_in_two::<true, _>(data, (), pivot),
    }
}

fn bench_crack_in_two_head_to_head(c: &mut Criterion) {
    let mut group = c.benchmark_group("crack_in_two");
    for &n in &PIECE_SIZES {
        let data = dataset(n);
        let pivot = n as i64 / 2;
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("branchy", n), &n, |b, _| {
            b.iter_batched(
                || data.clone(),
                |mut d| black_box(crack_in_two::<false, _>(&mut d, (), pivot)),
                criterion::BatchSize::LargeInput,
            );
        });
        group.bench_with_input(BenchmarkId::new("predicated", n), &n, |b, _| {
            b.iter_batched(
                || data.clone(),
                |mut d| black_box(crack_in_two::<true, _>(&mut d, (), pivot)),
                criterion::BatchSize::LargeInput,
            );
        });
        group.bench_with_input(BenchmarkId::new("auto", n), &n, |b, _| {
            b.iter_batched(
                || data.clone(),
                |mut d| black_box(crack_in_two_auto(&mut d, pivot)),
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

fn bench_crack_in_two_with_rowids(c: &mut Criterion) {
    let mut group = c.benchmark_group("crack_in_two_rowids");
    for &n in &[1 << 14, 1 << 20] {
        let data = dataset(n);
        let rowids: Vec<u32> = (0..n as u32).collect();
        let pivot = n as i64 / 2;
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("branchy", n), &n, |b, _| {
            b.iter_batched(
                || (data.clone(), rowids.clone()),
                |(mut d, mut r)| {
                    black_box(crack_in_two::<false, _>(&mut d, r.as_mut_slice(), pivot))
                },
                criterion::BatchSize::LargeInput,
            );
        });
        group.bench_with_input(BenchmarkId::new("predicated", n), &n, |b, _| {
            b.iter_batched(
                || (data.clone(), rowids.clone()),
                |(mut d, mut r)| {
                    black_box(crack_in_two::<true, _>(&mut d, r.as_mut_slice(), pivot))
                },
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

fn bench_crack_in_three_and_sort(c: &mut Criterion) {
    let mut group = c.benchmark_group("crack_in_three_and_sort");
    for &n in &[100_000usize, 1_000_000] {
        let data = dataset(n);
        let (lo, hi) = (n as i64 / 3, 2 * n as i64 / 3);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("three_branchy", n), &n, |b, _| {
            b.iter_batched(
                || data.clone(),
                |mut d| black_box(crack_in_three::<false, _>(&mut d, (), lo, hi)),
                criterion::BatchSize::LargeInput,
            );
        });
        group.bench_with_input(BenchmarkId::new("three_predicated", n), &n, |b, _| {
            b.iter_batched(
                || data.clone(),
                |mut d| black_box(crack_in_three::<true, _>(&mut d, (), lo, hi)),
                criterion::BatchSize::LargeInput,
            );
        });
        group.bench_with_input(BenchmarkId::new("full_sort", n), &n, |b, _| {
            b.iter_batched(
                || data.clone(),
                |mut d| {
                    d.sort_unstable();
                    black_box(d.len())
                },
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_crack_in_two_head_to_head, bench_crack_in_two_with_rowids,
        bench_crack_in_three_and_sort
}
criterion_main!(benches);
