//! A restored evidence cache is decoded field by field, so nothing ties a
//! variant's posterior row arena to its epoch list. A variant whose arena is
//! not one row per epoch must be dropped like one naming a tag that left the
//! universe: the next run neither panics nor reuses it, and reports what a
//! cold cache would.

use rfid_core::{EvidenceCache, InferenceConfig, InferenceEngine, InferenceReport};
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
fn restored_with(cache: EvidenceCache) -> InferenceEngine {
    let mut snapshot = warm_engine().snapshot();
    snapshot.cache = cache;
    let mut engine = warm_engine();
    engine.restore(snapshot);
    engine
}

fn assert_malformed_rows_are_dropped(resize: impl Fn(&mut Vec<f64>)) {
    let mut malformed = EvidenceCache::new();
    for (container, variants) in warm_engine().snapshot().cache.variants() {
        let mut variants = variants.to_vec();
        variants.iter_mut().for_each(|v| resize(&mut v.qrows));
        malformed.set_variants(container, variants);
    }

    let never_snapshotted = next_run(warm_engine());
    let cold = next_run(restored_with(EvidenceCache::new()));
    let restored = next_run(restored_with(malformed));

    assert!(
        never_snapshotted.stats.posteriors_reused > 0,
        "nothing was reused, so nothing malformed could be"
    );
    assert_eq!(restored.outcome, never_snapshotted.outcome);
    assert_eq!(restored.outcome, cold.outcome);
    assert_eq!(restored.stats, cold.stats);
}

#[test]
fn a_restored_variant_with_a_short_row_arena_is_dropped() {
    assert_malformed_rows_are_dropped(|q| q.truncate(q.len() - 3));
}

#[test]
fn a_restored_variant_with_a_long_row_arena_is_dropped() {
    assert_malformed_rows_are_dropped(|q| q.extend_from_slice(&[0.25; 3]));
}
