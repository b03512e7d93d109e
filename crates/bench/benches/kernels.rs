//! Criterion micro-benchmarks of the chunk-of-8 dense EM kernels
//! (`rfid_core::dense::kernels`) against their strict scalar references.
//! Every default-path kernel is bit-identical to its scalar twin (pinned by
//! the unit tests in `crates/core/src/dense/kernels.rs`); these benches
//! isolate the per-call wall-clock so kernel regressions show up without
//! running a whole distributed workload (`benchmark/` owns end-to-end
//! `core.infer_*` time).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rfid_core::dense::kernels;

/// Deterministic pseudo-random log-weights in a plausible range.
fn log_weights(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            -((state % 1000) as f64) / 37.0
        })
        .collect()
}

fn bench_row_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("row_kernels");
    group.sample_size(20);
    for width in [16usize, 64, 256] {
        let src = log_weights(width, 7);
        let base = log_weights(width, 11);

        group.bench_with_input(
            BenchmarkId::new("add_assign/vector", width),
            &width,
            |b, _| {
                let mut dst = base.clone();
                b.iter(|| {
                    kernels::add_assign_rows(black_box(&mut dst), black_box(&src));
                    dst[0]
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("add_assign/scalar", width),
            &width,
            |b, _| {
                let mut dst = base.clone();
                b.iter(|| {
                    for (d, s) in dst.iter_mut().zip(&src) {
                        *d += s;
                    }
                    dst[0]
                })
            },
        );

        group.bench_with_input(
            BenchmarkId::new("exp_normalize/vector", width),
            &width,
            |b, _| {
                let mut row = base.clone();
                b.iter(|| {
                    row.copy_from_slice(&base);
                    kernels::exp_normalize(black_box(&mut row));
                    row[0]
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("exp_normalize/scalar", width),
            &width,
            |b, _| {
                let mut row = base.clone();
                b.iter(|| {
                    row.copy_from_slice(&base);
                    let max = row.iter().fold(f64::NEG_INFINITY, |m, &w| m.max(w));
                    for w in row.iter_mut() {
                        *w = (*w - max).exp();
                    }
                    let total: f64 = row.iter().sum();
                    if total > 0.0 {
                        for w in row.iter_mut() {
                            *w /= total;
                        }
                    }
                    row[0]
                })
            },
        );

        group.bench_with_input(BenchmarkId::new("argmax/vector", width), &width, |b, _| {
            b.iter(|| kernels::argmax_ties_last(black_box(&base)))
        });
    }
    group.finish();
}

fn bench_dot_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("dot_kernels");
    group.sample_size(20);
    for width in [16usize, 64, 256] {
        let row = log_weights(width, 3);
        let qs: Vec<Vec<f64>> = (0..kernels::LANES as u64)
            .map(|s| log_weights(width, s + 20))
            .collect();
        let q_refs: Vec<&[f64]> = qs.iter().map(|q| q.as_slice()).collect();
        let mut out = [0.0f64; kernels::LANES];

        group.bench_with_input(BenchmarkId::new("dot/strict", width), &width, |b, _| {
            b.iter(|| kernels::dot(black_box(&qs[0]), black_box(&row)))
        });
        group.bench_with_input(
            BenchmarkId::new("dot_many_shared/8-lane", width),
            &width,
            |b, _| {
                b.iter(|| {
                    kernels::dot_many_shared(black_box(&q_refs), black_box(&row), &mut out);
                    out[0]
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("dot_many_shared/scalar-ref", width),
            &width,
            |b, _| {
                b.iter(|| {
                    for (o, q) in out.iter_mut().zip(&q_refs) {
                        *o = kernels::dot(q, &row);
                    }
                    out[0]
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_row_kernels, bench_dot_kernels);
criterion_main!(benches);
