//! Seeded chaos schedules composing every fault injector at once.
//!
//! A [`ChaosPlan`] is a [`FaultPlan`] whose configuration turns *all* the
//! fault families on together — crashes with downtime, reader outages,
//! delivery delay/duplication, transmission and ack losses, link partitions,
//! corrupted wire bytes, rogue tag readings and per-site clock skew. Like
//! every plan, it is a pure function of its seed: site-level faults are
//! tabulated at construction and message-level faults are key-hashed point
//! queries, so the same chaos schedule injects the identical fault sequence
//! into the sequential and parallel executors, any worker count, and any
//! crash-replay interleaving.
//!
//! The `chaos` soak in `rfid-bench` drives a whole [`schedule`] of these
//! plans through all four migration strategies with the invariant oracles of
//! `rfid-dist` asserted on every run; [`ChaosPlan::calm`] is the identity
//! schedule the bit-identity test pins against the run with no plan.
//!
//! [`schedule`]: ChaosPlan::schedule

use crate::fault::{FaultPlan, FaultPlanConfig};

/// A composed chaos schedule: a fault plan built from a config that enables
/// every injector, plus the config it came from (for reporting).
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPlan {
    config: FaultPlanConfig,
    plan: FaultPlan,
}

impl ChaosPlan {
    /// The full soak schedule: every fault family active at once, scaled to
    /// the run's horizon. Deterministic in `seed`.
    pub fn soak(seed: u64, num_sites: u16, horizon_secs: u32) -> ChaosPlan {
        ChaosPlan::from_config(FaultPlanConfig {
            crash_probability: 0.4,
            max_downtime_secs: 180,
            outage_probability: 0.5,
            outage_max_secs: (horizon_secs / 10).max(1),
            delay_probability: 0.2,
            delay_max_secs: 120,
            duplicate_probability: 0.1,
            loss_probability: 0.1,
            ack_loss_probability: 0.05,
            partition_probability: 0.3,
            partition_max_secs: (horizon_secs / 8).max(1),
            corruption_probability: 0.05,
            rogue_probability: 0.02,
            clock_skew_max_secs: 45,
            ..FaultPlanConfig::quiet(seed, num_sites, horizon_secs)
        })
    }

    /// The identity schedule: the chaos machinery engaged with every fault
    /// family off. A calm run must be bit-identical to the run with no plan
    /// — this is the hook `transport_equivalence.rs` pins.
    pub fn calm(seed: u64, num_sites: u16, horizon_secs: u32) -> ChaosPlan {
        ChaosPlan::from_config(FaultPlanConfig::quiet(seed, num_sites, horizon_secs))
    }

    /// A chaos schedule from an explicit configuration.
    pub fn from_config(config: FaultPlanConfig) -> ChaosPlan {
        let plan = FaultPlan::generate(&config);
        ChaosPlan { config, plan }
    }

    /// `count` independent soak schedules derived from one master seed, for
    /// the `chaos` experiment's N-schedule sweep. Schedule `i` uses a
    /// decorrelated per-index seed, so the list is itself a pure function of
    /// `master_seed`.
    pub fn schedule(
        master_seed: u64,
        count: usize,
        num_sites: u16,
        horizon_secs: u32,
    ) -> Vec<ChaosPlan> {
        (0..count)
            .map(|i| {
                let seed = crate::fault::derive_seed(master_seed, i as u64);
                ChaosPlan::soak(seed, num_sites, horizon_secs)
            })
            .collect()
    }

    /// The generated fault plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The configuration the plan was generated from.
    pub fn config(&self) -> &FaultPlanConfig {
        &self.config
    }

    /// Consume the schedule, yielding the fault plan for
    /// `DistributedConfig::with_faults`.
    pub fn into_plan(self) -> FaultPlan {
        self.plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultEvent;

    #[test]
    fn soak_schedules_are_deterministic_and_actually_chaotic() {
        let a = ChaosPlan::soak(41, 8, 2400);
        let b = ChaosPlan::soak(41, 8, 2400);
        assert_eq!(a, b);
        let plan = a.plan();
        assert!(!plan.is_quiet());
        assert!(plan.has_transport_faults());
        assert!(
            !plan.events().is_empty(),
            "a soak over 8 sites must schedule site-level faults"
        );
    }

    #[test]
    fn calm_schedules_are_the_identity_plan() {
        let calm = ChaosPlan::calm(41, 8, 2400);
        assert!(calm.plan().is_quiet());
        assert!(!calm.plan().has_transport_faults());
        assert!(calm.plan().events().is_empty());
    }

    #[test]
    fn schedules_derive_distinct_plans_from_one_master_seed() {
        let first = ChaosPlan::schedule(7, 3, 8, 2400);
        let second = ChaosPlan::schedule(7, 3, 8, 2400);
        assert_eq!(first, second);
        let events: Vec<Vec<FaultEvent>> = first.iter().map(|c| c.plan().events()).collect();
        assert!(
            events[0] != events[1] || events[1] != events[2],
            "per-index seeds should decorrelate the schedules"
        );
    }
}
