//! Criterion bench: the behavioural single-spiking MVM hot path across
//! crossbar sizes (the kernel behind every Fig. 7 evaluation).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use resipe::batch::BatchPlan;
use resipe::config::ResipeConfig;
use resipe::engine::ResipeEngine;
use resipe::mapping::{SpikeEncoding, TileMapper};
use resipe_analog::units::Seconds;

fn bench_mvm_matrix(c: &mut Criterion) {
    let engine = ResipeEngine::new(ResipeConfig::paper());
    let mut rng = StdRng::seed_from_u64(1);
    let mut group = c.benchmark_group("mvm_matrix");
    for &size in &[8usize, 16, 32, 64] {
        let g: Vec<f64> = (0..size * size)
            .map(|_| rng.gen_range(1e-6..20e-6))
            .collect();
        let t_in: Vec<Seconds> = (0..size)
            .map(|_| Seconds(rng.gen_range(0.0..80e-9)))
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            b.iter(|| {
                engine
                    .mvm_matrix(std::hint::black_box(&g), size, size, &t_in)
                    .expect("valid mvm")
            })
        });
    }
    group.finish();
}

/// The same MVM on the column-major (SoA) conductance layout: the
/// contiguous per-column walk the batch plan streams.
fn bench_mvm_matrix_cm(c: &mut Criterion) {
    let engine = ResipeEngine::new(ResipeConfig::paper());
    let mut rng = StdRng::seed_from_u64(1);
    let mut group = c.benchmark_group("mvm_matrix_cm");
    for &size in &[8usize, 16, 32, 64] {
        // Column-major: column j occupies g[j * size .. (j + 1) * size].
        let g: Vec<f64> = (0..size * size)
            .map(|_| rng.gen_range(1e-6..20e-6))
            .collect();
        let t_in: Vec<Seconds> = (0..size)
            .map(|_| Seconds(rng.gen_range(0.0..80e-9)))
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            b.iter(|| {
                engine
                    .mvm_matrix_cm(std::hint::black_box(&g), size, size, &t_in)
                    .expect("valid mvm")
            })
        });
    }
    group.finish();
}

/// The cache-blocked batch kernel at pinned block sizes: one pass over
/// the tile conductances serves the whole sample block.
fn bench_forward_block(c: &mut Criterion) {
    let engine = ResipeEngine::new(ResipeConfig::paper());
    let mut rng = StdRng::seed_from_u64(3);
    let weights: Vec<f64> = (0..256 * 32).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mapped = TileMapper::paper().map(&weights, 256, 32).expect("maps");
    let plan = BatchPlan::new(&engine, &mapped, SpikeEncoding::LinearTime);
    let mut group = c.benchmark_group("forward_block_256x32");
    for &block in &[1usize, 8, 32] {
        let a: Vec<f64> = (0..block * 256).map(|_| rng.gen_range(0.0..1.0)).collect();
        let mut out = vec![0.0f64; block * 32];
        let mut scratch = plan.scratch();
        group.bench_with_input(BenchmarkId::from_parameter(block), &block, |b, _| {
            b.iter(|| {
                plan.forward_block(
                    std::hint::black_box(&a),
                    block,
                    &mut out,
                    &mut scratch,
                    None,
                )
                .expect("valid block")
            })
        });
    }
    group.finish();
}

fn bench_mapped_forward(c: &mut Criterion) {
    let engine = ResipeEngine::new(ResipeConfig::paper());
    let mut rng = StdRng::seed_from_u64(2);
    let weights: Vec<f64> = (0..256 * 32).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mapped = TileMapper::paper().map(&weights, 256, 32).expect("maps");
    let a: Vec<f64> = (0..256).map(|_| rng.gen_range(0.0..1.0)).collect();
    let mut group = c.benchmark_group("mapped_forward_256x32");
    for (name, enc) in [
        ("linear_time", SpikeEncoding::LinearTime),
        ("pass_through", SpikeEncoding::PassThrough),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                mapped
                    .forward(&engine, std::hint::black_box(&a), enc)
                    .expect("valid forward")
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_mvm_matrix,
    bench_mvm_matrix_cm,
    bench_forward_block,
    bench_mapped_forward
);
criterion_main!(benches);
