//! The calibration kernel: a fixed piece of work, frozen with the benchmark,
//! that brackets every timed run so that time can be reported relative to
//! what this machine is delivering at that moment (see README.md, "Why time
//! is reported in calibration units").
//!
//! The kernel mixes what the product's hot paths mix — ordered-map inserts
//! and lookups, and a floating-point `ln`/`sqrt` sweep over a buffer larger
//! than L1 — so that cache and memory contention from neighbours slows it
//! roughly as it slows the product. It must never change: a change here
//! rescales every `cu` metric.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// What one calibration unit is worth on an idle machine of the class this
/// benchmark was written on: the kernel's wall there, seconds. `setup_s` must
/// be in seconds, yet raw seconds drift by a quarter between two minutes on a
/// shared VM; so it is measured in calibration units like everything else and
/// converted with this constant. It is a unit conversion, frozen with the
/// kernel, not a measurement.
pub const NOMINAL_S: f64 = 0.035;

const MAP_KEYS: u64 = 100_000;
const SWEEP_LEN: usize = 1 << 17;
const SWEEP_PASSES: usize = 12;

/// SplitMix64 step: the benchmark's only random-number generator, used to
/// derive the calibration keys and the fault-plan seed from `--seed`.
pub fn splitmix(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Run the kernel once; returns `(wall seconds, checksum)`. Its keys derive
/// from the run's `seed`; the checksum is a pure function of it and only
/// exists so the work cannot be elided.
pub fn run(seed: u64) -> (f64, u64) {
    let seed = splitmix(seed ^ 0xca11_b8a7);
    let started = Instant::now();
    let mut map: BTreeMap<u64, u64> = BTreeMap::new();
    let mut key = seed;
    for i in 0..MAP_KEYS {
        key = splitmix(key);
        map.insert(key >> 20, i);
    }
    let mut hits = 0u64;
    // Another stream than the keys', so that lookups land between keys.
    let mut probe = !seed;
    for _ in 0..MAP_KEYS {
        probe = splitmix(probe);
        if let Some((_, v)) = map.range(probe >> 20..).next() {
            hits = hits.wrapping_add(*v);
        }
    }
    let mut buf: Vec<f64> = (0..SWEEP_LEN).map(|i| 1.0 + i as f64).collect();
    for _ in 0..SWEEP_PASSES {
        for x in buf.iter_mut() {
            *x = (*x + 1.5).ln().mul_add(0.5, (*x).sqrt());
        }
    }
    let sum: f64 = black_box(&buf).iter().sum();
    let checksum = black_box(hits) ^ sum.to_bits();
    (started.elapsed().as_secs_f64(), checksum)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_a_pure_function_of_its_seed() {
        let (_, a) = run(11);
        let (_, b) = run(11);
        let (_, c) = run(12);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn splitmix_decorrelates_adjacent_seeds() {
        assert_ne!(splitmix(1), splitmix(2));
        assert_eq!(splitmix(97), splitmix(97));
    }
}
