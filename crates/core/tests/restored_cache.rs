//! A checkpoint keeps only the evidence cache's keys, and restore recomputes
//! every posterior row and series under them from the restored store. Keys
//! that match nothing the store holds — epochs it never observed, epochs
//! missing from a variant — must neither panic the restore nor the next run,
//! and the next run's outcome is what an engine that never stopped (or one
//! restored with no cache at all) computes.

use rfid_core::{CacheKeys, InferenceConfig, InferenceEngine, InferenceReport, VariantKey};
use rfid_types::{Epoch, RawReading, ReadRateTable, ReaderId, TagId};

/// Read each of `cases` and its two items at the case's current reader (of
/// three) in every epoch of `epochs`.
fn observe(engine: &mut InferenceEngine, epochs: std::ops::Range<u32>, cases: &[u64]) {
    for t in epochs {
        for &case in cases {
            let reader = ReaderId(((t / 7 + case as u32) % 3) as u16);
            for tag in [
                TagId::case(case),
                TagId::item(2 * case - 1),
                TagId::item(2 * case),
            ] {
                engine.observe(RawReading::new(Epoch(t), tag, reader));
            }
        }
    }
}

/// An engine that has run inference once, so its cache holds variants.
fn warm_engine() -> InferenceEngine {
    let mut engine = InferenceEngine::new(
        InferenceConfig::default()
            .with_period(10)
            .without_change_detection(),
        ReadRateTable::diagonal(3, 0.8, 1e-4),
    );
    observe(&mut engine, 0..20, &[1, 2]);
    engine.run_inference(Epoch(20));
    engine
}

/// New readings of case 2 only, then a run that may reuse case 1's variants.
fn next_run(mut engine: InferenceEngine) -> InferenceReport {
    observe(&mut engine, 20..30, &[2]);
    engine.run_inference(Epoch(30))
}

/// `warm_engine`'s snapshot restored with `cache` in place of its own.
fn restored_with(cache: CacheKeys) -> InferenceEngine {
    let mut snapshot = warm_engine().snapshot();
    snapshot.cache = cache;
    let mut engine = warm_engine();
    engine.restore(snapshot);
    engine
}

fn assert_hostile_epochs_recompute_cleanly(edit: impl Fn(&mut Vec<Epoch>)) {
    let mut hostile = CacheKeys::new();
    for (container, variants) in warm_engine().snapshot().cache.containers() {
        let variants = variants.iter().map(|key| {
            let mut epochs = key.epochs.clone();
            edit(&mut epochs);
            VariantKey {
                epochs,
                ..key.clone()
            }
        });
        hostile
            .insert(container, variants.collect())
            .expect("ascending keys");
    }

    let never_snapshotted = next_run(warm_engine());
    let cold = next_run(restored_with(CacheKeys::new()));
    let restored = next_run(restored_with(hostile));

    assert!(
        never_snapshotted.stats.posteriors_reused > 0,
        "nothing was reused, so nothing hostile could be"
    );
    assert_eq!(restored.outcome, never_snapshotted.outcome);
    assert_eq!(restored.outcome, cold.outcome);
}

#[test]
fn a_restored_variant_with_epochs_the_store_never_saw_recomputes_cleanly() {
    assert_hostile_epochs_recompute_cleanly(|epochs| {
        epochs.extend([Epoch(1_000), Epoch(2_000), Epoch(u32::MAX)])
    });
}

#[test]
fn a_restored_variant_missing_epochs_recomputes_cleanly() {
    assert_hostile_epochs_recompute_cleanly(|epochs| {
        let kept: Vec<Epoch> = epochs.iter().copied().step_by(3).collect();
        *epochs = kept;
    });
}
