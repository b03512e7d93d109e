//! Directed product-vs-reference checks the proptests cannot reach: the one
//! input-selected fallback inside the dense solver, the co-location masks'
//! words past the first, one trace at a realistic location count, and one
//! over the Centralized engine's block-diagonal global table.
//!
//! The product is `RfInfer::run_incremental` / `InferenceEngine::run_inference`
//! (dense, vector kernels); the reference is `rfid_core::reference::run_tree`.
//! Outcomes and reuse counters must be equal bit for bit.

use rfid_core::{
    reference, DenseScratch, DirtySet, EvidenceCache, InferenceConfig, InferenceEngine,
    InferenceOutcome, LikelihoodModel, Observations, RfInfer,
};
use rfid_sim::{WarehouseConfig, WarehouseSimulator};
use rfid_types::{Epoch, LocationId, RawReading, ReadRateTable, ReaderId, TagId};

/// Feed `batches` one after another into an observation store, solving after
/// each batch with the product and with the tree reference (each against its
/// own cross-run cache), and require equal outcomes and equal stats. Returns
/// the last run's outcome.
fn assert_product_matches_reference(
    model: &LikelihoodModel,
    batches: &[Vec<RawReading>],
) -> InferenceOutcome {
    let mut obs = Observations::new();
    let mut product_cache = EvidenceCache::new();
    let mut reference_cache = EvidenceCache::new();
    let mut scratch = DenseScratch::default();
    let mut last = None;
    for (run, batch) in batches.iter().enumerate() {
        let mut dirty = DirtySet::new();
        for &reading in batch {
            if obs.insert(reading) {
                dirty.record(reading.tag, reading.time);
            }
        }
        let infer = RfInfer::new(model, &obs);
        let product = infer.run_incremental(&mut product_cache, &dirty, &mut scratch);
        let tree = reference::run_tree(&infer, Some((&mut reference_cache, &dirty)));
        assert_eq!(product.0, tree.0, "outcome diverged at run {run}");
        assert_eq!(product.1, tree.1, "reuse counters diverged at run {run}");
        assert_eq!(
            product_cache, reference_cache,
            "cache diverged at run {run}"
        );
        assert!(
            product.0.containment().next().is_some(),
            "run {run} inferred nothing"
        );
        last = Some(product.0);
    }
    last.expect("at least one batch")
}

/// An item travelling with `case(1)` at `reader`, next to a decoy case that
/// shares the reader only every third epoch.
fn co_travel(epochs: impl Iterator<Item = u32>, reader: u16, decoy_reader: u16) -> Vec<RawReading> {
    epochs
        .flat_map(|t| {
            let decoy = if t % 3 == 0 { reader } else { decoy_reader };
            [
                RawReading::new(Epoch(t), TagId::item(1), ReaderId(reader)),
                RawReading::new(Epoch(t), TagId::case(1), ReaderId(reader)),
                RawReading::new(Epoch(t), TagId::case(2), ReaderId(decoy)),
            ]
        })
        .collect()
}

/// Two observed epochs more than `1 << 24` apart push the solve's epoch
/// ordering (`fill_by_epoch`) off its epoch buckets onto a comparison sort;
/// co-location and the needed epochs read the sorted lists.
#[test]
fn epoch_span_beyond_the_bucket_guard_matches_the_reference() {
    let model = LikelihoodModel::new(ReadRateTable::diagonal(3, 0.8, 1e-4));
    let far = (1u32 << 24) + 100;
    assert_product_matches_reference(
        &model,
        &[
            co_travel(0..6, 0, 1),
            co_travel(far..far + 6, 1, 2),
            co_travel(far + 6..far + 9, 2, 0),
        ],
    );
}

/// The co-location pass decides reader-set overlap on masks of
/// `ceil(locations / 64)` words, three at 131 locations. `item(1)` is read by
/// readers 5, 70 and 130 every epoch, so it has six co-located cases, one
/// more than the candidate limit of 5. Cases 1–4 share reader 5 with it on
/// 9, 8, 7 and 6 epochs. Case 5 shares reader 5 on 4 epochs. Case 6 shares
/// reader 5 on 3 epochs, reader 70 once (read with reader 60, one reader on
/// each side of 64) and reader 130 once. So case 6 ranks 5th with 5 and case
/// 5 drops out with 4. Lose either word past the first and case 6 ties case
/// 5 or falls below it, and the lower tag id keeps case 5 instead.
#[test]
fn reader_ids_beyond_the_mask_width_match_the_reference() {
    let model = LikelihoodModel::new(ReadRateTable::diagonal(131, 0.8, 1e-4));
    fn read(t: u32, tag: TagId, readers: &[u16]) -> impl Iterator<Item = RawReading> + '_ {
        let reading = move |&r: &u16| RawReading::new(Epoch(t), tag, ReaderId(r));
        readers.iter().map(reading)
    }
    let mut readings = Vec::new();
    for t in 0..10u32 {
        readings.extend(read(t, TagId::item(1), &[5, 70, 130]));
        for (case, shared) in [(1, 9), (2, 8), (3, 7), (4, 6), (5, 4)] {
            let reader = if t < shared { 5 } else { 40 };
            readings.extend(read(t, TagId::case(case), &[reader]));
        }
        let case6: &[u16] = match t {
            0..=2 => &[5],
            3 => &[60, 70],
            4 => &[129, 130],
            _ => &[40],
        };
        readings.extend(read(t, TagId::case(6), case6));
    }
    let outcome = assert_product_matches_reference(&model, &[readings]);
    let candidates: Vec<TagId> = outcome
        .object(TagId::item(1))
        .expect("item 1 was observed")
        .candidates()
        .collect();
    assert_eq!(candidates.len(), 5);
    assert!(candidates.contains(&TagId::case(6)), "{candidates:?}");
    assert!(!candidates.contains(&TagId::case(5)), "{candidates:?}");
}

/// What one streamed comparison saw: inference runs, posteriors served from
/// the cache, detected containment changes.
struct Streamed {
    runs: usize,
    reused: usize,
    changes: usize,
}

/// Stream `readings` (sorted) through a product engine and a reference engine
/// over `rates` with the default configuration, and require every periodic
/// report — outcome, changes, reuse counters, retention — and the final
/// snapshots to agree.
fn assert_engines_agree_every_period(
    rates: &ReadRateTable,
    readings: &[RawReading],
    length: u32,
) -> Streamed {
    let engine = || InferenceEngine::new(InferenceConfig::default(), rates.clone());
    let (mut product, mut tree) = (engine(), engine());
    let mut cursor = 0usize;
    let mut seen = Streamed {
        runs: 0,
        reused: 0,
        changes: 0,
    };
    for t in 0..=length {
        let now = Epoch(t);
        while cursor < readings.len() && readings[cursor].time <= now {
            product.observe(readings[cursor]);
            tree.observe(readings[cursor]);
            cursor += 1;
        }
        let Some(report) = product.step(now) else {
            continue;
        };
        assert!(tree.due(now));
        let expected = tree.run_inference_with(now, |infer, cache, dirty, _| {
            reference::run_tree(infer, Some((cache, dirty)))
        });
        assert_eq!(
            report.outcome, expected.outcome,
            "outcome diverged at {now:?}"
        );
        assert_eq!(
            report.changes, expected.changes,
            "changes diverged at {now:?}"
        );
        assert_eq!(
            report.stats, expected.stats,
            "reuse counters diverged at {now:?}"
        );
        assert_eq!(report.retained_observations, expected.retained_observations);
        assert_eq!(product.containment(), tree.containment());
        seen.runs += 1;
        seen.reused += report.stats.posteriors_reused;
        seen.changes += report.changes.len();
    }
    assert_eq!(product.snapshot(), tree.snapshot());
    seen
}

/// One warehouse trace over 11 reader locations — a full 8-lane chunk plus a
/// 3-lane remainder in every row kernel — streamed through a product engine
/// and a reference engine with change detection on; every periodic report
/// must agree.
#[test]
fn warehouse_trace_matches_the_reference_every_period() {
    let sim = WarehouseSimulator::new(
        WarehouseConfig::default()
            .with_length(1500)
            .with_items_per_case(5)
            .with_cases_per_pallet(2)
            .with_anomaly_interval(400)
            .with_seed(5),
    );
    assert!(sim.config().num_locations() >= 9);
    let trace = sim.generate();
    let mut readings = trace.readings.readings().to_vec();
    readings.sort_unstable();

    let seen = assert_engines_agree_every_period(&trace.read_rates, &readings, trace.meta.length);
    assert!(
        seen.runs >= 4,
        "the trace must span several inference periods"
    );
    assert!(
        seen.reused > 0,
        "later periods must reuse cached posteriors"
    );
    assert!(
        seen.changes > 0,
        "the injected anomalies must trip change detection"
    );
}

/// The row shape of the Centralized engine: one global table made of
/// 11-location site blocks with 1e-4 between blocks (the layout
/// `global_read_rates` builds), default candidate limit. Each block replays
/// its own warehouse trace on its own readers and tags, so every object has
/// several candidates and every point-evidence dot runs over the full
/// 44-location row.
#[test]
fn block_diagonal_global_table_matches_the_reference_every_period() {
    const BLOCKS: u16 = 4;
    const SERIALS_PER_BLOCK: u64 = 1 << 20;
    let mut rates: Option<ReadRateTable> = None;
    let mut readings = Vec::new();
    let mut length = 0;
    for b in 0..BLOCKS {
        let sim = WarehouseSimulator::new(
            WarehouseConfig::default()
                .with_length(900)
                .with_items_per_case(5)
                .with_cases_per_pallet(2)
                .with_anomaly_interval(300)
                .with_seed(11 + u64::from(b)),
        );
        let site_locs = sim.config().num_locations();
        assert_eq!(site_locs, 11, "blocks of the federated sites' width");
        let trace = sim.generate();
        length = trace.meta.length;
        let global =
            rates.get_or_insert_with(|| ReadRateTable::uniform(BLOCKS as usize * site_locs, 1e-4));
        let offset = b * site_locs as u16;
        for r in 0..site_locs as u16 {
            for a in 0..site_locs as u16 {
                let rate = trace.read_rates.rate(LocationId(r), LocationId(a));
                global.set(LocationId(offset + r), LocationId(offset + a), rate);
            }
        }
        readings.extend(trace.readings.readings().iter().map(|r| {
            let tag = TagId::new(
                r.tag.kind(),
                r.tag.serial() + u64::from(b) * SERIALS_PER_BLOCK,
            );
            RawReading::new(r.time, tag, ReaderId(offset + r.reader.0))
        }));
    }
    readings.sort_unstable();
    let rates = rates.expect("at least one block");

    let seen = assert_engines_agree_every_period(&rates, &readings, length);
    assert!(
        seen.runs >= 3,
        "the trace must span several inference periods"
    );
    assert!(
        seen.reused > 0,
        "later periods must reuse cached posteriors"
    );
}
