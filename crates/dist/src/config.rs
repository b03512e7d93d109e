//! Configuration of the distributed pipeline: which state migrates with an
//! object (Section 4.1 / Table 5) and what the per-site query processors run.

use rfid_core::InferenceConfig;
use rfid_query::ExposureQuery;
use rfid_sim::{FaultPlan, TemperatureModel};
use rfid_types::TagId;
use rfid_wire::WireFormat;
use std::collections::BTreeMap;

/// What travels with an object when it is dispatched to another site.
///
/// These are the alternatives evaluated in Section 5.3 and Table 5 of the
/// paper, from "ship nothing" to "ship every raw reading to a central
/// server".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationStrategy {
    /// Transfer nothing; every site infers from scratch (the "None"
    /// baseline). No inter-site messages are sent at all.
    None,
    /// Transfer the raw readings retained in the object's critical region
    /// and recent history (the "CR" method of Section 4.1, *Truncating
    /// History*).
    CriticalRegionReadings,
    /// Transfer one accumulated co-location weight per candidate container
    /// (Section 4.1, *Collapsing Inference State*) — the paper's headline
    /// method: near-centralized accuracy at a tiny fraction of the bytes.
    CollapsedWeights,
    /// Ship every raw reading of every site to a central server that runs
    /// one global inference — the accuracy upper bound and communication
    /// worst case.
    Centralized,
}

/// Retransmission tuning of the transport (see `crate::transport`).
///
/// Only read when the run's [`FaultPlan`] can lose payloads or partition
/// links ([`FaultPlan::has_transport_faults`]), which is what switches the
/// ack/retransmit exchange on; sequencing and dedup run on every run and
/// have nothing to tune.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportConfig {
    /// Base retransmission backoff added on top of the round-trip estimate;
    /// attempt `k` waits `rtt + min(rto_base_secs << k, rto_max_secs)`.
    pub rto_base_secs: u32,
    /// Cap on the exponential backoff term.
    pub rto_max_secs: u32,
    /// Retransmissions allowed per payload after the first attempt; `None`
    /// retries until the horizon (the "retry budget ∞" of the equivalence
    /// proptests).
    pub max_retries: Option<u32>,
}

impl Default for TransportConfig {
    fn default() -> TransportConfig {
        TransportConfig {
            rto_base_secs: 30,
            rto_max_secs: 480,
            max_retries: Some(5),
        }
    }
}

impl TransportConfig {
    /// A transport that never gives up: unlimited retries with a small
    /// backoff, so any partition shorter than the horizon is ridden out.
    pub fn persistent() -> TransportConfig {
        TransportConfig {
            rto_base_secs: 15,
            rto_max_secs: 120,
            max_retries: None,
        }
    }

    /// The exponential backoff term before retransmission `k + 1`:
    /// `min(rto_base_secs << k, rto_max_secs)`, saturating at the cap once
    /// the shift would overflow.
    pub(crate) fn backoff_secs(&self, k: u32) -> u32 {
        self.rto_base_secs
            .checked_shl(k)
            .map_or(self.rto_max_secs, |b| b.min(self.rto_max_secs))
    }
}

/// Configuration of a [`DistributedDriver`](crate::DistributedDriver) run.
#[derive(Debug, Clone)]
pub struct DistributedConfig {
    /// Which state migrates between sites.
    pub strategy: MigrationStrategy,
    /// Inference-engine configuration shared by every site.
    pub inference: InferenceConfig,
    /// Monitoring queries registered at every site (queries travel with the
    /// objects they track, so every site runs all of them).
    pub queries: Vec<ExposureQuery>,
    /// Product properties from the manufacturer's database, attached to the
    /// enriched events so query predicates like `IsA` can evaluate.
    pub product_properties: BTreeMap<TagId, String>,
    /// Temperature model joined against by hybrid queries; `None` disables
    /// sensor streams.
    pub temperature: Option<TemperatureModel>,
    /// Seconds between two pushes of enriched events into the query
    /// processors.
    pub event_stride_secs: u32,
    /// Number of workers that run the federated sites, clamped to
    /// `1..=sites`. Every count runs the same loop — each worker takes the
    /// site furthest behind among those its inbound edges' transit lets
    /// advance, runs it for a slice and posts the slice's shipments to the
    /// destinations' mailboxes — and produces a bit-identical outcome; `1`
    /// (the default) runs it on the calling thread with nothing spawned, `N`
    /// adds `N - 1` scoped OS threads. Ignored by
    /// [`MigrationStrategy::Centralized`], which has a single engine.
    pub num_workers: usize,
    /// Residue: [`WireFormat`] has one value, so this field configures
    /// nothing. It is held, with no builder, because the frozen `benchmark/`
    /// package names it in a struct literal (see "Wire axes" in
    /// docs/INVARIANTS.md).
    pub wire_format: WireFormat,
    /// Checkpoint policy: every site cuts a durable
    /// [`SiteCheckpoint`](rfid_wire::SiteCheckpoint) at the end of each epoch
    /// that is a positive multiple of this period, and keeps only the newest
    /// one — incoming shipments received after it live in a journal that
    /// each new checkpoint compacts. `None` (the default) disables
    /// checkpointing.
    /// Checkpoints alone never change a run's outcome; they only matter when
    /// a [`FaultPlan`] crash restores from one. Ignored by
    /// [`MigrationStrategy::Centralized`].
    pub checkpoint_every_secs: Option<u32>,
    /// Deterministic fault schedule injected into the run (site crashes with
    /// restore-from-checkpoint, reader outages, delayed and duplicated
    /// shipments). `None` (the default) runs fault-free. The plan is queried
    /// identically by every worker, so a faulty run is still bit-identical
    /// across worker counts; crashes with zero
    /// downtime are additionally bit-identical to the uninterrupted run.
    /// [`MigrationStrategy::Centralized`] honours reader outages only.
    pub faults: Option<FaultPlan>,
    /// Retransmission tuning. Inert unless the fault plan has transport
    /// faults (loss/partitions/corruption).
    pub transport: TransportConfig,
    /// Per-site memory budget: once a site's retained observation history
    /// exceeds the cap, old epochs are collapsed into summary prior weights
    /// and cold evidence-cache entries are evicted
    /// ([`InferenceEngine::enforce_budget`](rfid_core::InferenceEngine::enforce_budget)),
    /// with high-water/compaction/eviction counters reported in checkpoints
    /// and the merged outcome. `None` (the default) retains everything the
    /// truncation policy keeps; an unbounded budget only tracks the
    /// high-water mark. The centralized strategy applies the budget to its
    /// single global engine.
    pub memory_budget: Option<rfid_core::MemoryBudget>,
}

impl Default for DistributedConfig {
    fn default() -> DistributedConfig {
        DistributedConfig {
            strategy: MigrationStrategy::CollapsedWeights,
            inference: InferenceConfig::default(),
            queries: Vec::new(),
            product_properties: BTreeMap::new(),
            temperature: None,
            event_stride_secs: 10,
            num_workers: 1,
            wire_format: WireFormat::Binary,
            checkpoint_every_secs: None,
            faults: None,
            transport: TransportConfig::default(),
            memory_budget: None,
        }
    }
}

impl DistributedConfig {
    /// Builder-style setter for the number of site-worker threads.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.num_workers = workers;
        self
    }

    /// Builder-style setter for the checkpoint period.
    pub fn with_checkpoints(mut self, every_secs: u32) -> Self {
        self.checkpoint_every_secs = Some(every_secs);
        self
    }

    /// Builder-style setter for the fault schedule.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Builder-style setter for the transport tuning.
    pub fn with_transport(mut self, transport: TransportConfig) -> Self {
        self.transport = transport;
        self
    }

    /// Builder-style setter for the per-site memory budget.
    pub fn with_memory_budget(mut self, budget: rfid_core::MemoryBudget) -> Self {
        self.memory_budget = Some(budget);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_uses_the_papers_method() {
        let config = DistributedConfig::default();
        assert_eq!(config.strategy, MigrationStrategy::CollapsedWeights);
        assert!(config.queries.is_empty());
        assert!(config.temperature.is_none());
        assert_eq!(config.event_stride_secs, 10);
        assert_eq!(config.num_workers, 1, "one worker by default");
        assert_eq!(DistributedConfig::default().with_workers(8).num_workers, 8);
        assert_eq!(
            config.checkpoint_every_secs, None,
            "no checkpoints by default"
        );
        assert!(config.faults.is_none(), "fault-free by default");
        assert!(config.memory_budget.is_none(), "no budget by default");
        assert_eq!(
            DistributedConfig::default()
                .with_memory_budget(rfid_core::MemoryBudget::capped(1024))
                .memory_budget,
            Some(rfid_core::MemoryBudget::capped(1024))
        );
        assert_eq!(config.transport, TransportConfig::default());
        assert_eq!(config.transport.max_retries, Some(5));
        assert_eq!(
            TransportConfig::persistent().max_retries,
            None,
            "persistent transport never gives up"
        );
        assert_eq!(
            DistributedConfig::default()
                .with_transport(TransportConfig::persistent())
                .transport,
            TransportConfig::persistent()
        );
        assert_eq!(
            DistributedConfig::default()
                .with_checkpoints(300)
                .checkpoint_every_secs,
            Some(300)
        );
        assert!(DistributedConfig::default()
            .with_faults(FaultPlan::quiet(4).with_crash(1, rfid_types::Epoch(100), 0))
            .faults
            .is_some());
    }

    #[test]
    fn strategies_are_distinct_and_debuggable() {
        let all = [
            MigrationStrategy::None,
            MigrationStrategy::CriticalRegionReadings,
            MigrationStrategy::CollapsedWeights,
            MigrationStrategy::Centralized,
        ];
        for (i, a) in all.iter().enumerate() {
            for (j, b) in all.iter().enumerate() {
                assert_eq!(a == b, i == j);
            }
            assert!(!format!("{a:?}").is_empty());
        }
    }
}
