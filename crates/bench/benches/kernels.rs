//! Criterion micro-benchmarks of the chunk-of-8 dense EM kernels
//! (`rfid_core::dense::kernels`) against their strict scalar references.
//! Every kernel is bit-identical to its scalar twin (pinned by
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

/// The M-step's fresh point-evidence dots at the two row widths the
/// benchmark workloads run: 11 locations per federated site and 88 in the
/// Centralized engine's block-diagonal table. 64 dots, each a posterior row
/// against one of 8 loglik rows (an object's epochs share a handful of
/// reader sets), through [`kernels::dot_each`] and through one scalar
/// [`kernels::dot`] after another.
fn bench_dot_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("dot_kernels");
    group.sample_size(20);
    const DOTS: usize = 64;
    for width in [11usize, 88] {
        let qs: Vec<Vec<f64>> = (0..DOTS as u64)
            .map(|s| log_weights(width, s + 20).iter().map(|x| x.exp()).collect())
            .collect();
        let rows: Vec<Vec<f64>> = (0..8).map(|s| log_weights(width, s + 3)).collect();
        let pair = |i: usize| (qs[i].as_slice(), rows[i % rows.len()].as_slice());
        let mut out = [0.0f64; DOTS];

        group.bench_with_input(
            BenchmarkId::new("dot_each/64-dots", width),
            &width,
            |b, _| {
                b.iter(|| {
                    kernels::dot_each(DOTS, |i| black_box(pair(i)), |i, e| out[i] = e);
                    out[DOTS - 1]
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("dot/64-scalar", width), &width, |b, _| {
            b.iter(|| {
                for (i, o) in out.iter_mut().enumerate() {
                    let (q, row) = black_box(pair(i));
                    *o = kernels::dot(q, row);
                }
                out[DOTS - 1]
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_row_kernels, bench_dot_kernels);
criterion_main!(benches);
