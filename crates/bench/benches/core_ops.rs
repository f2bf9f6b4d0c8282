//! Criterion micro-benchmarks of the numerical substrate: LIF stepping,
//! GEMM, spike encoding and precision scaling. The dense conv kernels are
//! timed by `bench_conv_batch` (`conv_dense_*` rows).

use axsnn::core::encoding::Encoder;
use axsnn::core::lif::{LifParams, LifState};
use axsnn::core::precision::PrecisionScale;
use axsnn::tensor::{init, linalg};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_lif(c: &mut Criterion) {
    let params = LifParams::default();
    let mut state = LifState::new(4096, params);
    let current = vec![0.3f32; 4096];
    c.bench_function("lif_step_4096_neurons", |b| {
        b.iter(|| black_box(state.step(black_box(&current))))
    });
}

fn bench_matmul(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    let a = init::uniform(&mut rng, &[128, 128], 1.0);
    let bm = init::uniform(&mut rng, &[128, 128], 1.0);
    c.bench_function("matmul_128x128", |b| {
        b.iter(|| black_box(linalg::matmul(black_box(&a), black_box(&bm)).unwrap()))
    });
    let x = init::uniform(&mut rng, &[128], 1.0);
    c.bench_function("matvec_128", |b| {
        b.iter(|| black_box(linalg::matvec(black_box(&a), black_box(&x)).unwrap()))
    });
}

fn bench_encoding(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let image = init::uniform(&mut rng, &[1, 28, 28], 0.5).clamp(0.0, 1.0);
    c.bench_function("encode_poisson_28x28_T32", |b| {
        b.iter(|| {
            black_box(
                Encoder::Poisson
                    .encode(black_box(&image), 32, &mut rng)
                    .unwrap(),
            )
        })
    });
    c.bench_function("encode_deterministic_28x28_T32", |b| {
        b.iter(|| {
            black_box(
                Encoder::Deterministic
                    .encode(black_box(&image), 32, &mut rng)
                    .unwrap(),
            )
        })
    });
}

fn bench_precision(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let w = init::uniform(&mut rng, &[256 * 96], 1.0);
    c.bench_function("quantize_fp16_24k_weights", |b| {
        b.iter(|| black_box(PrecisionScale::Fp16.quantize_tensor(black_box(&w)).unwrap()))
    });
    c.bench_function("quantize_int8_24k_weights", |b| {
        b.iter(|| black_box(PrecisionScale::Int8.quantize_tensor(black_box(&w)).unwrap()))
    });
}

criterion_group!(
    benches,
    bench_lif,
    bench_matmul,
    bench_encoding,
    bench_precision
);
criterion_main!(benches);
