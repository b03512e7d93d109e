//! Helpers shared by the root integration suites.
//!
//! Each `tests/*.rs` file is its own crate, so this module is compiled into
//! every suite that declares `mod test_support;` — items a given suite does
//! not use are expected, hence the `dead_code` allowance. Chain and trace
//! constructors delegate to [`rfid::sim::presets`] so the canonical scales
//! (the seed-55 smoke chain, the seed-97 reference chain) are defined once
//! and shared with the benchmarks and the crash-consistency/fault suites.

#![allow(dead_code)]

use rfid::core::{InferenceConfig, InferenceEngine};
use rfid::dist::DistributedOutcome;
use rfid::eval::containment_error;
use rfid::sim::{presets, ChainTrace};
use rfid::types::{Epoch, TagId, Trace};

/// The seed-55 smoke chain: `sites` warehouses, 4 items per case, 2 cases
/// per pallet, 90 s transit, fanout 2.
pub fn smoke_chain(length_secs: u32, sites: u32, anomaly_interval: Option<u32>) -> ChainTrace {
    presets::smoke_chain(length_secs, sites, anomaly_interval)
}

/// Fraction of objects whose inferred container matches ground truth at the
/// end of a distributed run.
pub fn chain_accuracy(chain: &ChainTrace, outcome: &DistributedOutcome) -> f64 {
    let end = Epoch(chain.sites[0].meta.length);
    let estimate = |object| outcome.container_of(object);
    1.0 - containment_error(&chain.containment, estimate, &chain.objects(), end) / 100.0
}

/// Fraction of objects whose estimated container matches ground truth at the
/// end of a single-site trace.
pub fn containment_accuracy(trace: &Trace, estimate: impl Fn(TagId) -> Option<TagId>) -> f64 {
    let end = Epoch(trace.meta.length);
    1.0 - containment_error(&trace.truth.containment, estimate, &trace.objects(), end) / 100.0
}

/// Replay a single-site trace through a fresh engine epoch by epoch and run
/// a final inference pass at the horizon.
pub fn run_engine(trace: &Trace, config: InferenceConfig) -> InferenceEngine {
    let mut engine = InferenceEngine::new(config, trace.read_rates.clone());
    let all = trace.readings.readings();
    let mut cursor = 0usize;
    for t in 0..=trace.meta.length {
        let now = Epoch(t);
        while cursor < all.len() && all[cursor].time == now {
            engine.observe(all[cursor]);
            cursor += 1;
        }
        engine.step(now);
    }
    engine.run_inference(Epoch(trace.meta.length));
    engine
}
