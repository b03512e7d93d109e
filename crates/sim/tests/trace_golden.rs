//! Golden hashes of every generator's output.
//!
//! Each test folds one generated trace — readings, ground truth (the
//! containment timeline and every tag's recorded locations), the read-rate
//! table, the metadata and, for a chain, the transfers — into one 64-bit
//! FNV-1a hash and compares it with a literal. A change that moves one RNG
//! draw, reorders one trajectory or renames one trace fails here in seconds,
//! before a `BENCH_*.json` rerun would. A refactor of the generators must
//! leave every literal untouched; a deliberate change to a workload
//! re-records the literal it moves (a mismatch prints the new hash).

use rfid_sim::{
    presets, ChainTrace, EvidenceScenario, LabConfig, LabTraceId, WarehouseConfig,
    WarehouseSimulator,
};
use rfid_types::{ContainmentTimeline, Epoch, TagId, Trace};

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn tag(&mut self, tag: Option<TagId>) {
        self.u64(tag.map_or(u64::MAX, TagId::raw));
    }

    fn timeline(&mut self, timeline: &ContainmentTimeline) {
        self.u64(timeline.initial().len() as u64);
        for (object, container) in timeline.initial().iter() {
            self.u64(object.raw());
            self.u64(container.raw());
        }
        self.u64(timeline.changes().len() as u64);
        for change in timeline.changes() {
            self.u64(u64::from(change.time.0));
            self.u64(change.object.raw());
            self.tag(change.old_container);
            self.tag(change.new_container);
        }
    }

    fn trace(&mut self, trace: &Trace) {
        let readings = trace.readings.readings();
        self.u64(readings.len() as u64);
        for r in readings {
            self.u64(u64::from(r.time.0));
            self.u64(r.tag.raw());
            self.u64(u64::from(r.reader.0));
        }
        self.timeline(&trace.truth.containment);
        // Every tag's location as a step function: one entry per epoch at
        // which the recorded location changes.
        for tag in trace.truth.tags() {
            self.u64(tag.raw());
            let mut last = None;
            for t in 0..=trace.meta.length {
                let at = trace.truth.location_at(tag, Epoch(t));
                if at != last {
                    self.u64(u64::from(t));
                    self.u64(at.map_or(u64::MAX, |l| u64::from(l.0)));
                    last = at;
                }
            }
        }
        let rates = &trace.read_rates;
        self.u64(rates.num_locations() as u64);
        for reader in rates.locations() {
            for at in rates.locations() {
                self.u64(rates.rate(reader, at).to_bits());
            }
        }
        let meta = &trace.meta;
        self.u64(meta.name.len() as u64);
        self.bytes(meta.name.as_bytes());
        self.u64(meta.read_rate.to_bits());
        self.u64(meta.overlap_rate.to_bits());
        self.u64(u64::from(meta.length));
        self.u64(meta.anomaly_interval.map_or(u64::MAX, u64::from));
        self.u64(meta.num_locations as u64);
    }

    fn chain(&mut self, chain: &ChainTrace) {
        self.u64(chain.sites.len() as u64);
        for site in &chain.sites {
            self.trace(site);
        }
        self.u64(chain.transfers.len() as u64);
        for tr in &chain.transfers {
            self.u64(tr.tag.raw());
            self.u64(u64::from(tr.from_site.0));
            self.u64(u64::from(tr.to_site.0));
            self.u64(u64::from(tr.depart.0));
            self.u64(u64::from(tr.arrive.0));
        }
        self.timeline(&chain.containment);
    }
}

fn trace_hash(trace: &Trace) -> u64 {
    let mut h = Fnv::new();
    h.trace(trace);
    h.0
}

fn chain_hash(chain: &ChainTrace) -> u64 {
    let mut h = Fnv::new();
    h.chain(chain);
    h.0
}

fn check(what: &str, actual: u64, expected: u64) {
    assert!(
        actual == expected,
        "{what}: trace hash {actual:#018x}, pinned {expected:#018x}"
    );
}

#[test]
fn stable_warehouse_is_pinned() {
    let config = WarehouseConfig::default().with_length(900).with_seed(5);
    let trace = WarehouseSimulator::new(config).generate();
    check(
        "stable warehouse",
        trace_hash(&trace),
        0x9c74_bac3_9d07_6d1a,
    );
}

#[test]
fn anomalous_warehouse_is_pinned() {
    let config = WarehouseConfig::default()
        .with_length(1800)
        .with_anomaly_interval(30)
        .with_seed(9);
    let trace = WarehouseSimulator::new(config).generate();
    assert!(!trace.truth.containment.changes().is_empty());
    check(
        "anomalous warehouse",
        trace_hash(&trace),
        0xc82a_a8ce_fcb2_db79,
    );
}

#[test]
fn smoke_chain_with_anomalies_is_pinned() {
    let chain = presets::smoke_chain(900, 3, Some(60));
    assert!(!chain.containment.changes().is_empty());
    assert!(!chain.transfers.is_empty());
    check("smoke chain", chain_hash(&chain), 0xa5da_1d2d_ad20_1351);
}

#[test]
fn short_dwell_chain_is_pinned() {
    let chain = presets::short_dwell_chain(1500, 8, 8, 2);
    assert!(!chain.transfers.is_empty());
    check(
        "short-dwell chain",
        chain_hash(&chain),
        0xf783_9f39_db77_03df,
    );
}

#[test]
fn lab_traces_are_pinned() {
    let t1 = LabConfig::published(LabTraceId::T1).generate();
    check("lab T1", trace_hash(&t1), 0x94df_1198_f294_4177);
    let t6 = LabConfig::published(LabTraceId::T6).generate();
    assert_eq!(t6.truth.containment.changes().len(), 4);
    check("lab T6", trace_hash(&t6), 0x875f_42be_9573_1889);
}

#[test]
fn evidence_scenario_is_pinned() {
    let (trace, _) = EvidenceScenario::default().generate();
    check(
        "figure-4 scenario",
        trace_hash(&trace),
        0xbf1e_a05f_632a_aefc,
    );
}
