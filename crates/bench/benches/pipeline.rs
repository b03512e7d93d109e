//! Criterion micro-benchmarks of the surrounding pipeline: trace generation,
//! the SMURF* baseline, the streaming engine, the pattern matcher,
//! centroid-based query-state sharing, and the critical-region migration
//! path of one shipment.

use criterion::{criterion_group, criterion_main, Criterion};
use rfid_core::{InferenceConfig, InferenceEngine, MigrationState};
use rfid_dist::{WireCodec, WireFormat};
use rfid_query::{share_states_with, ExposureAutomaton, ObjectQueryState};
use rfid_sim::{WarehouseConfig, WarehouseSimulator};
use rfid_smurf::SmurfStar;
use rfid_types::{Epoch, RawReading, ReadRateTable, ReaderId, TagId, Trace};
use std::collections::BTreeSet;

fn small_trace() -> Trace {
    WarehouseSimulator::new(
        WarehouseConfig::default()
            .with_length(900)
            .with_read_rate(0.8)
            .with_items_per_case(5)
            .with_cases_per_pallet(2)
            .with_seed(17),
    )
    .generate()
}

fn bench_trace_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator");
    group.sample_size(10);
    group.bench_function("warehouse_trace_900s", |b| b.iter(small_trace));
    group.finish();
}

fn bench_smurf_star(c: &mut Criterion) {
    let trace = small_trace();
    let mut group = c.benchmark_group("baseline");
    group.sample_size(10);
    group.bench_function("smurf_star_full_trace", |b| {
        b.iter(|| SmurfStar::new().run(&trace.readings))
    });
    group.finish();
}

fn bench_streaming_engine(c: &mut Criterion) {
    let trace = small_trace();
    let mut group = c.benchmark_group("streaming_engine");
    group.sample_size(10);
    group.bench_function("replay_900s_with_periodic_inference", |b| {
        b.iter(|| {
            let mut engine = InferenceEngine::new(
                InferenceConfig::default()
                    .with_period(300)
                    .without_change_detection(),
                trace.read_rates.clone(),
            );
            let mut readings = trace.readings.clone();
            for r in readings.readings() {
                engine.observe(*r);
            }
            for t in (0..=trace.meta.length).step_by(300) {
                engine.step(Epoch(t));
            }
            engine.run_inference(Epoch(trace.meta.length))
        })
    });
    group.finish();
}

fn bench_pattern_matcher(c: &mut Criterion) {
    c.bench_function("pattern_automaton_10k_events", |b| {
        b.iter(|| {
            let mut automaton = ExposureAutomaton::new(3600);
            let mut matches = 0usize;
            for t in 0..10_000u32 {
                let qualifies = t % 100 != 0; // periodic reset
                if automaton.feed(Epoch(t), qualifies, 21.0).is_some() {
                    matches += 1;
                }
            }
            matches
        })
    });
}

fn bench_state_sharing(c: &mut Criterion) {
    // 50 objects of one case with nearly identical query state.
    let states: Vec<ObjectQueryState> = (0..50)
        .map(|i| ObjectQueryState {
            query: "Q1".to_string(),
            tag: TagId::item(i),
            automaton: rfid_query::AutomatonState::Accumulating {
                since: Epoch(100),
                readings: (0..30).map(|k| (Epoch(100 + k * 10), 21.0)).collect(),
                fired: false,
            },
        })
        .collect();
    let codec = WireCodec::new(WireFormat::Binary);
    c.bench_function("centroid_state_sharing_50_objects", |b| {
        b.iter(|| {
            share_states_with(&states, |s| codec.state_payload(s))
                .map(|bundle| codec.encode_bundle(&bundle).len())
        })
    });
}

/// One physical shipment under `CriticalRegionReadings`: 3 cases of 20 items
/// read together for 120 s, so every item names all three cases as
/// candidates and the per-shipment tag dedup has 59 repeats of each to skip.
fn bench_migration_path(c: &mut Criterion) {
    let config = InferenceConfig::default()
        .with_period(120)
        .without_change_detection();
    let rates = ReadRateTable::diagonal(2, 0.8, 1e-4);
    let items: Vec<TagId> = (0..60).map(TagId::item).collect();
    let tags: Vec<TagId> = items
        .iter()
        .copied()
        .chain((0..3).map(TagId::case))
        .collect();
    let mut origin = InferenceEngine::new(config.clone(), rates.clone());
    for t in 0..120 {
        for &tag in &tags {
            origin.observe(RawReading::new(Epoch(t), tag, ReaderId(0)));
        }
    }
    origin.run_inference(Epoch(120));
    let codec = WireCodec::new(WireFormat::Binary);
    let mut group = c.benchmark_group("migration_path");
    group.sample_size(10);
    group.bench_function("one_shipment_3_cases_60_objects", |b| {
        b.iter(|| {
            // The goods reach the destination's reader before their state
            // does: the import lands behind one local reading per tag.
            let mut destination = InferenceEngine::new(config.clone(), rates.clone());
            for &tag in &tags {
                destination.observe(RawReading::new(Epoch(180), tag, ReaderId(1)));
            }
            let mut shipped = BTreeSet::new();
            let mut bytes = 0;
            for &item in &items {
                let state = origin.export_readings_for_shipment(item, &mut shipped);
                let payload = codec.encode_migration(&MigrationState::Readings(state));
                bytes += payload.len();
                let state = codec.decode_migration(&payload).expect("just encoded");
                destination.import_state(state);
            }
            // `forget` runs on the destination's copy of the same lists, so
            // the origin stays whole for the next iteration.
            for &tag in &tags {
                destination.forget(tag);
            }
            (bytes, destination.stored_observations())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_trace_generation,
    bench_smurf_star,
    bench_streaming_engine,
    bench_pattern_matcher,
    bench_state_sharing,
    bench_migration_path
);
criterion_main!(benches);
