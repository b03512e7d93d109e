//! Criterion micro-benchmarks of the inference core: the E-step / M-step
//! building blocks, a full RFINFER run, the change-point statistic and the
//! critical-region search.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rfid_core::{
    change_statistic, container_posterior, critical_region, LikelihoodModel, Observations, RfInfer,
};
use rfid_sim::{WarehouseConfig, WarehouseSimulator};
use rfid_types::{LocationId, Trace};

fn small_trace(read_rate: f64, length: u32) -> Trace {
    WarehouseSimulator::new(
        WarehouseConfig::default()
            .with_length(length)
            .with_read_rate(read_rate)
            .with_items_per_case(5)
            .with_cases_per_pallet(2)
            .with_seed(5),
    )
    .generate()
}

fn bench_posterior(c: &mut Criterion) {
    let model = LikelihoodModel::new(rfid_types::ReadRateTable::diagonal(11, 0.8, 1e-4));
    let container_readers = [LocationId(3)];
    let member_a = [LocationId(3)];
    let member_b = [LocationId(4)];
    let members: Vec<Option<&[LocationId]>> =
        vec![Some(&member_a), None, Some(&member_b), None, None];
    c.bench_function("e_step_container_posterior", |b| {
        b.iter(|| container_posterior(&model, Some(&container_readers), &members))
    });
}

fn bench_rfinfer(c: &mut Criterion) {
    let mut group = c.benchmark_group("rfinfer_full_run");
    group.sample_size(10);
    for length in [600u32, 1200] {
        let trace = small_trace(0.8, length);
        let model = LikelihoodModel::new(trace.read_rates.clone());
        let obs = Observations::from_batch(&trace.readings);
        group.bench_with_input(BenchmarkId::from_parameter(length), &length, |b, _| {
            b.iter(|| RfInfer::new(&model, &obs).run())
        });
    }
    group.finish();
}

fn bench_changepoint_and_truncation(c: &mut Criterion) {
    let trace = small_trace(0.7, 900);
    let model = LikelihoodModel::new(trace.read_rates.clone());
    let obs = Observations::from_batch(&trace.readings);
    let outcome = RfInfer::new(&model, &obs).run();
    c.bench_function("change_point_statistic_per_object", |b| {
        b.iter(|| {
            outcome
                .objects()
                .filter_map(change_statistic)
                .map(|s| s.delta)
                .sum::<f64>()
        })
    });
    c.bench_function("critical_region_search_per_object", |b| {
        b.iter(|| {
            outcome
                .objects()
                .filter_map(|e| critical_region(e, 60, 3.0))
                .count()
        })
    });
}

criterion_group!(
    benches,
    bench_posterior,
    bench_rfinfer,
    bench_changepoint_and_truncation
);
criterion_main!(benches);
