//! Deterministic fault injection for the distributed executors.
//!
//! A [`FaultPlan`] is a *pre-computed schedule* of failures, fixed entirely
//! by the [`FaultPlanConfig`] it holds: site crashes (with optional
//! downtime), reader-outage bursts, and per-shipment delivery faults (delay,
//! duplication). Because every decision is either tabulated up front or a
//! pure function of the shipment's identifying key, the same plan injects
//! the *identical* fault sequence regardless of execution order — sequential
//! and parallel executors, any worker count, any epoch interleaving.
//!
//! Two kinds of fault, with very different contracts:
//!
//! * **Crashes** ([`CrashFault`]) are *lossless* when `downtime_secs == 0`:
//!   the site loses its volatile state at the start of the crash epoch,
//!   restores from its last checkpoint, replays the trace tail, and the run
//!   must finish bit-identical to an uninterrupted one. With downtime the
//!   site additionally skips epochs, which is lossy by design.
//! * **Outages, delays and duplicates** are lossy: they change which
//!   readings and shipments a site sees. They feed the `faults` accuracy-
//!   degradation experiment, not the bit-identity tests.
//! * **Losses, ack losses and link partitions** drive the reliable-delivery
//!   transport in `rfid-dist`: individual transmission attempts (and their
//!   acks) vanish, or a directed link goes dark for a tabulated window.
//!   Whether the payload still arrives depends on the transport's retry
//!   budget; these faults feed the `degraded` experiment.
//! * **Corruption, rogue readings and clock skew** feed the `chaos` soak
//!   (the [`FaultPlanConfig::soak`] preset, which turns every family on at
//!   once): a corrupted envelope's bytes are bit-flipped on the link as a
//!   pure function of `(edge, seq)` and must be quarantined by the receiver,
//!   a rogue reader clones a tag reading at a spurious antenna, and a skewed
//!   site observes its RFID feed late by a tabulated per-site offset.
//!
//! A scripted plan — one crash or one partition placed by hand — is
//! [`FaultPlan::quiet`] plus [`FaultPlan::with_crash`] /
//! [`FaultPlan::with_partition`].

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rfid_types::{Epoch, TagId};

/// Parameters from which a [`FaultPlan`] is generated.
///
/// All probabilities are per independent trial: `crash_probability` and
/// `outage_probability` per site, `delay_probability` and
/// `duplicate_probability` per shipment. Each must lie in `[0, 1]`
/// ([`FaultPlanConfig::validate`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlanConfig {
    /// Master seed; everything else being equal, the same seed produces the
    /// same plan and the same per-shipment decisions.
    pub seed: u64,
    /// Number of sites the plan covers.
    pub num_sites: u16,
    /// Trace horizon in seconds; scheduled faults land inside it.
    pub horizon_secs: u32,
    /// Chance that a site crashes once during the run.
    pub crash_probability: f64,
    /// Upper bound on post-crash downtime; `0` makes crashes lossless
    /// (restore within the crash epoch).
    pub max_downtime_secs: u32,
    /// Chance that a site suffers a reader-outage burst.
    pub outage_probability: f64,
    /// Upper bound on the length of one outage burst.
    pub outage_max_secs: u32,
    /// Chance that a shipment's delivery is delayed.
    pub delay_probability: f64,
    /// Upper bound on the delivery delay of one shipment.
    pub delay_max_secs: u32,
    /// Chance that a shipment is delivered twice.
    pub duplicate_probability: f64,
    /// Chance that one *transmission attempt* of a cross-site payload is
    /// lost in transit. Each retransmission draws independently.
    pub loss_probability: f64,
    /// Chance that the ack for a delivered attempt is lost on the way back,
    /// provoking a spurious retransmission.
    pub ack_loss_probability: f64,
    /// Chance that a directed link suffers one partition window during the
    /// run.
    pub partition_probability: f64,
    /// Upper bound on the length of one partition window.
    pub partition_max_secs: u32,
    /// Chance that a sequenced envelope's payload bytes are corrupted in
    /// transit (bit-flips keyed by `(edge, seq)`). The receiver must
    /// quarantine the poisoned envelope instead of panicking.
    pub corruption_probability: f64,
    /// Chance that an RFID reading is cloned by a rogue reader at a spurious
    /// antenna of the same site, keyed by `(site, epoch, tag)`.
    pub rogue_probability: f64,
    /// Upper bound on a site's constant clock skew: its RFID feed is
    /// observed `skew` seconds late. `0` disables skew entirely.
    pub clock_skew_max_secs: u32,
}

impl FaultPlanConfig {
    /// A configuration with every fault disabled — the identity plan.
    pub fn quiet(seed: u64, num_sites: u16, horizon_secs: u32) -> FaultPlanConfig {
        FaultPlanConfig {
            seed,
            num_sites,
            horizon_secs,
            crash_probability: 0.0,
            max_downtime_secs: 0,
            outage_probability: 0.0,
            outage_max_secs: 0,
            delay_probability: 0.0,
            delay_max_secs: 0,
            duplicate_probability: 0.0,
            loss_probability: 0.0,
            ack_loss_probability: 0.0,
            partition_probability: 0.0,
            partition_max_secs: 0,
            corruption_probability: 0.0,
            rogue_probability: 0.0,
            clock_skew_max_secs: 0,
        }
    }

    /// The lossy preset used by the `faults` experiment: no crashes, but
    /// reader outages and delayed/duplicated shipments on every site. No
    /// transport faults: nothing is lost, so the run sends no acks and the
    /// receivers' dedup and late-state reconciliation absorb both draws.
    pub fn lossy(seed: u64, num_sites: u16, horizon_secs: u32) -> FaultPlanConfig {
        FaultPlanConfig {
            crash_probability: 0.0,
            max_downtime_secs: 0,
            outage_probability: 0.75,
            outage_max_secs: horizon_secs / 8,
            delay_probability: 0.25,
            delay_max_secs: 120,
            duplicate_probability: 0.1,
            ..FaultPlanConfig::quiet(seed, num_sites, horizon_secs)
        }
    }

    /// The unreliable-network preset used by the `degraded` experiment:
    /// attempt losses, ack losses and per-link partition windows, but no
    /// crashes or reader outages — accuracy degradation is attributable to
    /// the transport alone.
    pub fn unreliable(seed: u64, num_sites: u16, horizon_secs: u32) -> FaultPlanConfig {
        FaultPlanConfig {
            loss_probability: 0.15,
            ack_loss_probability: 0.1,
            partition_probability: 0.4,
            partition_max_secs: horizon_secs / 6,
            ..FaultPlanConfig::quiet(seed, num_sites, horizon_secs)
        }
    }

    /// The chaos soak preset used by the `chaos` experiment and the
    /// `chaos_durable` benchmark workload: every fault family active at
    /// once, scaled to the run's horizon.
    pub fn soak(seed: u64, num_sites: u16, horizon_secs: u32) -> FaultPlanConfig {
        FaultPlanConfig {
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
        }
    }

    /// Check that every probability is a finite number in `[0, 1]`. A NaN
    /// would otherwise read as "off" to [`FaultPlan::has_transport_faults`]
    /// yet fire on every draw.
    pub fn validate(&self) -> Result<(), String> {
        let probabilities = [
            ("crash_probability", self.crash_probability),
            ("outage_probability", self.outage_probability),
            ("delay_probability", self.delay_probability),
            ("duplicate_probability", self.duplicate_probability),
            ("loss_probability", self.loss_probability),
            ("ack_loss_probability", self.ack_loss_probability),
            ("partition_probability", self.partition_probability),
            ("corruption_probability", self.corruption_probability),
            ("rogue_probability", self.rogue_probability),
        ];
        for (name, p) in probabilities {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be in [0,1], got {p}"));
            }
        }
        Ok(())
    }
}

/// One scheduled site crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashFault {
    /// The site loses its volatile state at the *start* of this epoch,
    /// before ingesting anything.
    pub at: Epoch,
    /// Epochs the site stays down after the crash; `0` restores within the
    /// crash epoch (lossless).
    pub downtime_secs: u32,
}

impl CrashFault {
    /// First epoch at which the site works again: `at` itself when downtime
    /// is zero.
    pub fn resume_at(&self) -> Epoch {
        Epoch(self.at.0.saturating_add(self.downtime_secs))
    }
}

/// One reader-outage burst: the site's readers report nothing in
/// `from..=until`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutageWindow {
    /// First silent epoch.
    pub from: Epoch,
    /// Last silent epoch (inclusive).
    pub until: Epoch,
}

impl OutageWindow {
    /// Whether `at` falls inside the burst.
    pub fn covers(&self, at: Epoch) -> bool {
        self.from <= at && at <= self.until
    }
}

/// One tabulated partition window of a *directed* link: payloads sent
/// `from_site → to_site` while the window covers the send epoch are lost
/// (the reverse direction has its own independent window).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionWindow {
    /// Sending side of the dark link.
    pub from_site: u16,
    /// Receiving side of the dark link.
    pub to_site: u16,
    /// First dark epoch.
    pub from: Epoch,
    /// Last dark epoch (inclusive).
    pub until: Epoch,
}

impl PartitionWindow {
    /// Whether a send at `at` over this directed link is swallowed.
    pub fn covers(&self, at: Epoch) -> bool {
        self.from <= at && at <= self.until
    }
}

/// The faults scheduled for one site.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SiteFaults {
    /// At most one crash per run.
    pub crash: Option<CrashFault>,
    /// Reader-outage bursts, disjoint and in ascending epoch order.
    pub outages: Vec<OutageWindow>,
    /// Constant clock skew of the site's RFID feed, in seconds; `0` means
    /// the site's clock is true.
    pub clock_skew_secs: u32,
}

/// A deterministic, order-independent fault schedule.
///
/// Site-level faults (crashes, outages, skew) and link partitions are
/// tabulated at construction from per-site and per-edge `ChaCha8` streams;
/// message-level faults (delay, duplication, loss, corruption, rogue reads)
/// are pure functions of the message's key, hashed into a fresh `ChaCha8`
/// seed. Querying the plan never mutates it, so any number of workers asking
/// in any order observe the same answers.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    config: FaultPlanConfig,
    sites: Vec<SiteFaults>,
    /// Directed-link partition windows; generated ones come in canonical
    /// `(from_site, to_site)` order.
    partitions: Vec<PartitionWindow>,
}

impl FaultPlan {
    /// Generate the plan for `config`, fixing every site-level fault.
    ///
    /// # Panics
    /// If `config` is invalid (see [`FaultPlanConfig::validate`]).
    pub fn generate(config: &FaultPlanConfig) -> FaultPlan {
        if let Err(msg) = config.validate() {
            panic!("invalid fault plan configuration: {msg}");
        }
        let mut plan = FaultPlan {
            config: config.clone(),
            sites: Vec::new(),
            partitions: Vec::new(),
        };
        let horizon = config.horizon_secs.max(1);
        plan.sites = (0..config.num_sites)
            .map(|site| {
                let mut rng = plan.draw(0xfa17, &[site.into()]);
                let crash =
                    if config.crash_probability > 0.0 && rng.gen_bool(config.crash_probability) {
                        // Crash somewhere in the middle half of the run, so a
                        // checkpoint exists before it and epochs remain after it.
                        let at = Epoch(rng.gen_range(horizon / 4..=horizon * 3 / 4));
                        let downtime_secs = if config.max_downtime_secs > 0 {
                            rng.gen_range(0..=config.max_downtime_secs)
                        } else {
                            0
                        };
                        Some(CrashFault { at, downtime_secs })
                    } else {
                        None
                    };
                let mut outages = Vec::new();
                if config.outage_probability > 0.0
                    && config.outage_max_secs > 0
                    && rng.gen_bool(config.outage_probability)
                {
                    let len = rng.gen_range(1..=config.outage_max_secs);
                    let latest_start = horizon.saturating_sub(len).max(1);
                    let from = rng.gen_range(1..=latest_start);
                    outages.push(OutageWindow {
                        from: Epoch(from),
                        until: Epoch(from + len - 1),
                    });
                }
                // The skew draw comes *after* the crash/outage draws, so
                // enabling skew never perturbs the existing schedules of a
                // plan with the same seed.
                let clock_skew_secs = if config.clock_skew_max_secs > 0 {
                    rng.gen_range(0..=config.clock_skew_max_secs)
                } else {
                    0
                };
                SiteFaults {
                    crash,
                    outages,
                    clock_skew_secs,
                }
            })
            .collect();
        if config.partition_probability > 0.0 && config.partition_max_secs > 0 {
            // Each *directed* edge draws from its own key-hashed stream, so
            // the tabulation is independent of iteration details elsewhere.
            for from_site in 0..config.num_sites {
                for to_site in 0..config.num_sites {
                    if from_site == to_site {
                        continue;
                    }
                    let mut rng = plan.draw(0x9a27, &[from_site.into(), to_site.into()]);
                    if rng.gen_bool(config.partition_probability) {
                        let len = rng.gen_range(1..=config.partition_max_secs.min(horizon));
                        let latest_start = horizon.saturating_sub(len).max(1);
                        let from = rng.gen_range(1..=latest_start);
                        plan.partitions.push(PartitionWindow {
                            from_site,
                            to_site,
                            from: Epoch(from),
                            until: Epoch(from + len - 1),
                        });
                    }
                }
            }
        }
        plan
    }

    /// The identity plan over `num_sites` sites: no fault at all. The base
    /// of a scripted plan, which adds faults with [`FaultPlan::with_crash`]
    /// and [`FaultPlan::with_partition`].
    pub fn quiet(num_sites: u16) -> FaultPlan {
        FaultPlan::generate(&FaultPlanConfig::quiet(0, num_sites, 0))
    }

    /// The plan of [`FaultPlanConfig::soak`]: every fault family at once.
    pub fn soak(seed: u64, num_sites: u16, horizon_secs: u32) -> FaultPlan {
        FaultPlan::generate(&FaultPlanConfig::soak(seed, num_sites, horizon_secs))
    }

    /// `count` independent soak plans from one master seed, for the `chaos`
    /// experiment's N-schedule sweep. Plan `i` uses a decorrelated per-index
    /// seed, so the list is itself a pure function of `master_seed`.
    pub fn soak_schedule(
        master_seed: u64,
        count: usize,
        num_sites: u16,
        horizon_secs: u32,
    ) -> Vec<FaultPlan> {
        (0..count)
            .map(|i| FaultPlan::soak(mix(master_seed ^ 0xc0a5, i as u64), num_sites, horizon_secs))
            .collect()
    }

    /// The same plan with `site` crashing at `at` (replacing any crash it
    /// had) — a scripted crash, e.g. one per epoch of the crash-consistency
    /// sweeps.
    ///
    /// # Panics
    /// If the plan has no site `site`.
    pub fn with_crash(mut self, site: u16, at: Epoch, downtime_secs: u32) -> FaultPlan {
        self.sites[usize::from(site)].crash = Some(CrashFault { at, downtime_secs });
        self
    }

    /// The same plan with the link between `a` and `b` dark in *both*
    /// directions over `from..=until` — a scripted partition.
    ///
    /// # Panics
    /// If `a == b` or either is not a site of the plan.
    pub fn with_partition(mut self, a: u16, b: u16, from: Epoch, until: Epoch) -> FaultPlan {
        assert!(
            a != b && usize::from(a.max(b)) < self.sites.len(),
            "a partition joins two distinct sites of the plan"
        );
        for (from_site, to_site) in [(a.min(b), a.max(b)), (a.max(b), a.min(b))] {
            self.partitions.push(PartitionWindow {
                from_site,
                to_site,
                from,
                until,
            });
        }
        self
    }

    /// The configuration the plan was generated from. Scripted faults added
    /// with `with_*` live in [`FaultPlan::sites`] and
    /// [`FaultPlan::partitions`], not here.
    pub fn config(&self) -> &FaultPlanConfig {
        &self.config
    }

    /// The tabulated faults of each site, indexed by site.
    pub fn sites(&self) -> &[SiteFaults] {
        &self.sites
    }

    /// The tabulated directed-link partition windows.
    pub fn partitions(&self) -> &[PartitionWindow] {
        &self.partitions
    }

    /// Identity: the plan was the soak schedule's plan all along. Kept for
    /// callers that spell `ChaosPlan::soak(..).into_plan()`.
    #[doc(hidden)]
    pub fn into_plan(self) -> FaultPlan {
        self
    }

    /// The scheduled crash of `site`, if any.
    pub fn crash(&self, site: u16) -> Option<CrashFault> {
        self.sites.get(usize::from(site)).and_then(|f| f.crash)
    }

    /// Whether `site`'s readers are silent at `at`.
    pub fn reading_dropped(&self, site: u16, at: Epoch) -> bool {
        self.sites
            .get(usize::from(site))
            .map(|f| f.outages.iter().any(|w| w.covers(at)))
            .unwrap_or(false)
    }

    /// Extra transit seconds for the shipment identified by
    /// `(from, to, tag, depart)`; `0` when the shipment is on time. A pure
    /// function of the key — identical across runs and worker counts.
    pub fn shipment_delay_secs(&self, from: u16, to: u16, tag: TagId, depart: Epoch) -> u32 {
        let max = self.config.delay_max_secs;
        if max == 0 {
            return 0;
        }
        let key = [from.into(), to.into(), tag.raw(), depart.0.into()];
        self.fires(self.config.delay_probability, 0x0de1, &key)
            .map_or(0, |mut rng| rng.gen_range(1..=max))
    }

    /// Whether the shipment identified by `(from, to, tag, depart)` is
    /// delivered twice. A pure function of the key.
    pub fn shipment_duplicated(&self, from: u16, to: u16, tag: TagId, depart: Epoch) -> bool {
        let key = [from.into(), to.into(), tag.raw(), depart.0.into()];
        self.fires(self.config.duplicate_probability, 0xd0b1, &key)
            .is_some()
    }

    /// Whether transmission attempt `attempt` (0-based) of the payload
    /// identified by `(from, to, tag, depart)` is lost in transit. A pure
    /// function of the key — every retransmission draws independently, and
    /// the answer is identical across runs and worker counts.
    pub fn message_lost(
        &self,
        from: u16,
        to: u16,
        tag: TagId,
        depart: Epoch,
        attempt: u32,
    ) -> bool {
        let key = attempt_key(from, to, tag, depart, attempt);
        self.fires(self.config.loss_probability, 0x105e, &key)
            .is_some()
    }

    /// Whether the ack for attempt `attempt` of the payload identified by
    /// `(from, to, tag, depart)` is lost on the reverse path. A pure function
    /// of the key.
    pub fn ack_lost(&self, from: u16, to: u16, tag: TagId, depart: Epoch, attempt: u32) -> bool {
        let key = attempt_key(from, to, tag, depart, attempt);
        self.fires(self.config.ack_loss_probability, 0x0ac4, &key)
            .is_some()
    }

    /// Whether the directed link `from → to` is partitioned at `at`: a send
    /// over the link at that epoch is swallowed regardless of loss draws.
    pub fn link_partitioned(&self, from: u16, to: u16, at: Epoch) -> bool {
        self.partitions
            .iter()
            .any(|w| w.from_site == from && w.to_site == to && w.covers(at))
    }

    /// Whether attempt `attempt` of the centralized reading-batch forward
    /// from `site` at `epoch` is lost. Centralized forwarding is keyed by
    /// `(site, epoch)` rather than a shipment tag; partitions do not apply
    /// to the coordinator uplink.
    pub fn forward_lost(&self, site: u16, epoch: Epoch, attempt: u32) -> bool {
        let key = [site.into(), epoch.0.into(), attempt.into()];
        self.fires(self.config.loss_probability, 0xf04d, &key)
            .is_some()
    }

    /// Whether the sequenced envelope `seq` on the directed link
    /// `from → to` has its payload bytes corrupted in transit. A pure
    /// function of `(edge, seq)`: every retransmitted copy of the envelope
    /// carries the same poisoned bytes.
    pub fn payload_corrupted(&self, from: u16, to: u16, seq: u64) -> bool {
        let key = [from.into(), to.into(), seq];
        self.fires(self.config.corruption_probability, 0xc042, &key)
            .is_some()
    }

    /// The spurious reader slot (in `0..num_readers`) at which a rogue
    /// reader clones the reading of `tag` observed by `site` at `at`, if
    /// any. A pure function of `(site, at, tag)`.
    pub fn rogue_reader_slot(
        &self,
        site: u16,
        at: Epoch,
        tag: TagId,
        num_readers: u16,
    ) -> Option<u16> {
        if num_readers == 0 {
            return None;
        }
        let key = [site.into(), at.0.into(), tag.raw()];
        self.fires(self.config.rogue_probability, 0x409e, &key)
            .map(|mut rng| rng.gen_range(0..num_readers))
    }

    /// The tabulated clock skew of `site`: its RFID feed is observed this
    /// many seconds late.
    pub fn clock_skew_secs(&self, site: u16) -> u32 {
        self.sites
            .get(usize::from(site))
            .map(|f| f.clock_skew_secs)
            .unwrap_or(0)
    }

    /// Whether the plan can lose payloads at all — the trigger for the
    /// transport's ack/retransmit machinery. Corruption counts: a poisoned
    /// envelope is quarantined, and recovering it takes the `Resync`
    /// anti-entropy only an ack-bearing receiver sends.
    pub fn has_transport_faults(&self) -> bool {
        self.config.loss_probability > 0.0
            || self.config.ack_loss_probability > 0.0
            || self.config.corruption_probability > 0.0
            || !self.partitions.is_empty()
    }

    /// Whether the plan schedules or can produce any fault at all.
    pub fn is_quiet(&self) -> bool {
        self.config.delay_probability <= 0.0
            && self.config.duplicate_probability <= 0.0
            && self.config.rogue_probability <= 0.0
            && !self.has_transport_faults()
            && self
                .sites
                .iter()
                .all(|f| f.crash.is_none() && f.outages.is_empty() && f.clock_skew_secs == 0)
    }

    /// The one keyed stream every fault draw comes from: `salt` names the
    /// family (a site's or an edge's tabulation, or a per-message fault),
    /// `key` the member, and the plan's seed makes the stream the plan's own.
    fn draw(&self, salt: u64, key: &[u64]) -> ChaCha8Rng {
        let mut h = self.config.seed ^ salt;
        for &v in key {
            h = mix(h, v);
        }
        ChaCha8Rng::seed_from_u64(h)
    }

    /// The keyed stream, if its first draw fires at probability `p`;
    /// `None` without drawing when `p` is zero.
    fn fires(&self, p: f64, salt: u64, key: &[u64]) -> Option<ChaCha8Rng> {
        if p <= 0.0 {
            return None;
        }
        let mut rng = self.draw(salt, key);
        rng.gen_bool(p).then_some(rng)
    }
}

/// The key of one transmission attempt of a shipment's payload.
fn attempt_key(from: u16, to: u16, tag: TagId, depart: Epoch, attempt: u32) -> [u64; 5] {
    [
        from.into(),
        to.into(),
        tag.raw(),
        depart.0.into(),
        attempt.into(),
    ]
}

/// SplitMix64-style avalanche step folding `v` into `h`.
fn mix(h: u64, v: u64) -> u64 {
    let mut z = h ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossy_plan(seed: u64) -> FaultPlan {
        FaultPlan::generate(&FaultPlanConfig::lossy(seed, 8, 2400))
    }

    #[test]
    fn same_seed_produces_identical_plans_and_events() {
        let a = lossy_plan(7);
        let b = lossy_plan(7);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_produce_different_schedules() {
        let plans: Vec<FaultPlan> = (0..8).map(lossy_plan).collect();
        let distinct = plans
            .iter()
            .map(|p| format!("{:?}", p.sites()))
            .collect::<std::collections::BTreeSet<_>>();
        assert!(
            distinct.len() > 1,
            "eight seeds should not all share one schedule"
        );
    }

    #[test]
    fn shipment_decisions_are_pure_functions_of_the_key() {
        let plan = lossy_plan(11);
        let tag = TagId::item(42);
        let first = (
            plan.shipment_delay_secs(0, 1, tag, Epoch(300)),
            plan.shipment_duplicated(0, 1, tag, Epoch(300)),
        );
        // Interleave queries for other keys, then re-ask: the answer cannot
        // depend on query order.
        for serial in 0..50 {
            plan.shipment_delay_secs(1, 2, TagId::item(serial), Epoch(500));
            plan.shipment_duplicated(2, 3, TagId::case(serial), Epoch(700));
        }
        let second = (
            plan.shipment_delay_secs(0, 1, tag, Epoch(300)),
            plan.shipment_duplicated(0, 1, tag, Epoch(300)),
        );
        assert_eq!(first, second);
    }

    #[test]
    fn lossy_preset_actually_injects_faults() {
        let plan = lossy_plan(3);
        assert!(!plan.is_quiet());
        assert!(
            plan.sites().iter().any(|f| !f.outages.is_empty()),
            "expected at least one outage"
        );
        let mut delayed = 0;
        let mut duplicated = 0;
        for serial in 0..400u64 {
            let tag = TagId::item(serial);
            if plan.shipment_delay_secs(0, 1, tag, Epoch(serial as u32)) > 0 {
                delayed += 1;
            }
            if plan.shipment_duplicated(0, 1, tag, Epoch(serial as u32)) {
                duplicated += 1;
            }
        }
        assert!(
            delayed > 0,
            "delay probability 0.25 never fired in 400 draws"
        );
        assert!(
            duplicated > 0,
            "dup probability 0.1 never fired in 400 draws"
        );
    }

    #[test]
    fn quiet_config_yields_the_identity_plan() {
        let plan = FaultPlan::generate(&FaultPlanConfig::quiet(9, 4, 1000));
        assert!(plan.is_quiet());
        assert!(FaultPlan::quiet(4).is_quiet());
        assert_eq!(plan.crash(0), None);
        assert!(!plan.reading_dropped(2, Epoch(500)));
        assert_eq!(plan.shipment_delay_secs(0, 1, TagId::item(1), Epoch(5)), 0);
        assert!(!plan.shipment_duplicated(0, 1, TagId::item(1), Epoch(5)));
    }

    #[test]
    fn scripted_crash_hits_exactly_one_site() {
        let plan = FaultPlan::quiet(4).with_crash(2, Epoch(600), 0);
        assert_eq!(
            plan.crash(2),
            Some(CrashFault {
                at: Epoch(600),
                downtime_secs: 0
            })
        );
        for site in [0, 1, 3] {
            assert_eq!(plan.crash(site), None);
        }
        assert!(plan.partitions().is_empty() && !plan.has_transport_faults());
        assert_eq!(plan.crash(2).unwrap().resume_at(), Epoch(600));
        assert_eq!(
            FaultPlan::quiet(4)
                .with_crash(1, Epoch(100), 50)
                .crash(1)
                .unwrap()
                .resume_at(),
            Epoch(150)
        );
    }

    fn unreliable_plan(seed: u64) -> FaultPlan {
        FaultPlan::generate(&FaultPlanConfig::unreliable(seed, 8, 2400))
    }

    #[test]
    fn loss_and_ack_draws_are_pure_functions_of_the_key() {
        let plan = unreliable_plan(13);
        let tag = TagId::case(7);
        let first: Vec<(bool, bool)> = (0..6)
            .map(|attempt| {
                (
                    plan.message_lost(1, 2, tag, Epoch(400), attempt),
                    plan.ack_lost(1, 2, tag, Epoch(400), attempt),
                )
            })
            .collect();
        // Interleave unrelated queries, then re-ask: answers cannot depend
        // on query order (the worker-count-independence contract).
        for serial in 0..50 {
            plan.message_lost(2, 3, TagId::item(serial), Epoch(900), 0);
            plan.ack_lost(0, 1, TagId::pallet(serial), Epoch(100), 1);
            plan.forward_lost(3, Epoch(serial as u32), 0);
        }
        let second: Vec<(bool, bool)> = (0..6)
            .map(|attempt| {
                (
                    plan.message_lost(1, 2, tag, Epoch(400), attempt),
                    plan.ack_lost(1, 2, tag, Epoch(400), attempt),
                )
            })
            .collect();
        assert_eq!(first, second);
        // Attempts draw independently: across many keys at 15% loss some
        // first attempts survive and some retransmissions also fail.
        let mut lost_first = 0;
        let mut lost_retry = 0;
        for serial in 0..400u64 {
            let tag = TagId::item(serial);
            if plan.message_lost(0, 1, tag, Epoch(serial as u32), 0) {
                lost_first += 1;
            }
            if plan.message_lost(0, 1, tag, Epoch(serial as u32), 1) {
                lost_retry += 1;
            }
        }
        assert!(lost_first > 0, "loss probability 0.15 never fired");
        assert!(lost_retry > 0, "retry attempts must draw independently");
        assert!(lost_first < 400, "loss probability 0.15 fired every time");
    }

    #[test]
    fn partition_windows_are_tabulated_identically_for_equal_seeds() {
        let a = unreliable_plan(29);
        let b = unreliable_plan(29);
        assert_eq!(a, b);
        assert!(a.has_transport_faults());
        assert!(
            !a.partitions().is_empty(),
            "partition probability 0.4 over 56 directed edges never fired"
        );
        // The tabulation agrees with the point query for every window.
        for w in a.partitions() {
            assert!(a.link_partitioned(w.from_site, w.to_site, w.from));
            assert!(a.link_partitioned(w.from_site, w.to_site, w.until));
            assert!(!a.link_partitioned(w.from_site, w.to_site, Epoch(w.until.0 + 1)));
        }
    }

    #[test]
    fn scripted_partition_darkens_both_directions_only_in_window() {
        let plan = FaultPlan::quiet(4).with_partition(2, 1, Epoch(300), Epoch(600));
        assert!(plan.has_transport_faults());
        assert!(plan.link_partitioned(1, 2, Epoch(300)));
        assert!(plan.link_partitioned(2, 1, Epoch(600)));
        assert!(!plan.link_partitioned(1, 2, Epoch(299)));
        assert!(!plan.link_partitioned(2, 1, Epoch(601)));
        assert!(!plan.link_partitioned(0, 1, Epoch(400)));
        assert_eq!(plan.partitions().len(), 2, "one window per direction");
        // Loss draws stay quiet on a scripted partition plan.
        assert!(!plan.message_lost(1, 2, TagId::item(1), Epoch(10), 0));
        assert!(!plan.forward_lost(1, Epoch(10), 0));
    }

    #[test]
    fn quiet_and_lossy_presets_have_no_transport_faults() {
        let quiet = FaultPlan::generate(&FaultPlanConfig::quiet(9, 4, 1000));
        assert!(!quiet.has_transport_faults());
        let lossy = lossy_plan(5);
        assert!(
            !lossy.has_transport_faults(),
            "delay and duplication lose nothing, so the lossy preset needs no acks"
        );
        assert!(!lossy.message_lost(0, 1, TagId::item(1), Epoch(5), 0));
        assert!(!lossy.ack_lost(0, 1, TagId::item(1), Epoch(5), 0));
        let unreliable = unreliable_plan(5);
        assert!(unreliable.has_transport_faults());
        assert!(!unreliable.is_quiet());
    }

    fn chaotic_plan(seed: u64) -> FaultPlan {
        FaultPlan::generate(&FaultPlanConfig {
            corruption_probability: 0.2,
            rogue_probability: 0.1,
            clock_skew_max_secs: 60,
            ..FaultPlanConfig::quiet(seed, 8, 2400)
        })
    }

    #[test]
    fn corruption_and_rogue_draws_are_pure_functions_of_the_key() {
        let plan = chaotic_plan(17);
        assert!(
            plan.has_transport_faults(),
            "corruption wakes the transport"
        );
        assert!(!plan.is_quiet());
        let first = (
            plan.payload_corrupted(0, 1, 7),
            plan.rogue_reader_slot(2, Epoch(300), TagId::item(4), 5),
        );
        for serial in 0..50 {
            plan.payload_corrupted(1, 2, serial);
            plan.rogue_reader_slot(3, Epoch(serial as u32), TagId::case(serial), 4);
        }
        let second = (
            plan.payload_corrupted(0, 1, 7),
            plan.rogue_reader_slot(2, Epoch(300), TagId::item(4), 5),
        );
        assert_eq!(first, second);
        // Across many keys both families fire at least once and never
        // saturate, and rogue slots stay inside the reader range.
        let mut corrupted = 0;
        let mut rogue = 0;
        for serial in 0..400u64 {
            if plan.payload_corrupted(0, 1, serial) {
                corrupted += 1;
            }
            if let Some(slot) =
                plan.rogue_reader_slot(1, Epoch(serial as u32), TagId::item(serial), 3)
            {
                assert!(slot < 3, "rogue slot out of reader range");
                rogue += 1;
            }
        }
        assert!(corrupted > 0 && corrupted < 400);
        assert!(rogue > 0 && rogue < 400);
        assert_eq!(
            plan.rogue_reader_slot(1, Epoch(5), TagId::item(1), 0),
            None,
            "a site without readers has no rogue slot"
        );
    }

    #[test]
    fn clock_skew_is_tabulated_per_site_and_listed_in_events() {
        let a = chaotic_plan(23);
        let b = chaotic_plan(23);
        assert_eq!(a, b);
        let skews: Vec<u32> = (0..8).map(|s| a.clock_skew_secs(s)).collect();
        assert!(
            skews.iter().any(|&s| s > 0),
            "skew max 60 over 8 sites never fired"
        );
        let tabulated: Vec<u32> = a.sites().iter().map(|f| f.clock_skew_secs).collect();
        assert_eq!(tabulated, skews, "the point query reads the site table");
        // Enabling the chaos knobs must not perturb the legacy draws of a
        // same-seed plan: the quiet plan and the chaotic plan agree on every
        // legacy query.
        let quiet = FaultPlan::generate(&FaultPlanConfig::quiet(23, 8, 2400));
        assert_eq!(quiet.crash(3), a.crash(3));
        assert_eq!(
            quiet.shipment_delay_secs(0, 1, TagId::item(9), Epoch(40)),
            a.shipment_delay_secs(0, 1, TagId::item(9), Epoch(40))
        );
    }

    #[test]
    fn quiet_plans_never_corrupt_clone_or_skew() {
        let plan = FaultPlan::generate(&FaultPlanConfig::quiet(9, 4, 1000));
        assert!(!plan.payload_corrupted(0, 1, 3));
        assert_eq!(plan.rogue_reader_slot(0, Epoch(5), TagId::item(1), 4), None);
        assert_eq!(plan.clock_skew_secs(2), 0);
        let with_crash = plan.with_crash(1, Epoch(400), 30);
        assert_eq!(
            with_crash.crash(1),
            Some(CrashFault {
                at: Epoch(400),
                downtime_secs: 30
            })
        );
        assert_eq!(with_crash.crash(0), None);
    }

    #[test]
    fn soak_schedules_are_deterministic_and_actually_chaotic() {
        let a = FaultPlan::soak(41, 8, 2400);
        assert_eq!(a, FaultPlan::soak(41, 8, 2400));
        assert!(!a.is_quiet());
        assert!(a.has_transport_faults());
        assert!(
            a.sites()
                .iter()
                .any(|f| f.crash.is_some() || !f.outages.is_empty()),
            "a soak over 8 sites must schedule site-level faults"
        );
    }

    #[test]
    fn schedules_derive_distinct_plans_from_one_master_seed() {
        let first = FaultPlan::soak_schedule(7, 3, 8, 2400);
        assert_eq!(first, FaultPlan::soak_schedule(7, 3, 8, 2400));
        assert!(
            first[0] != first[1] || first[1] != first[2],
            "per-index seeds should decorrelate the schedules"
        );
    }

    #[test]
    fn validate_rejects_probabilities_outside_the_unit_interval() {
        let fields: [fn(&mut FaultPlanConfig) -> &mut f64; 9] = [
            |c| &mut c.crash_probability,
            |c| &mut c.outage_probability,
            |c| &mut c.delay_probability,
            |c| &mut c.duplicate_probability,
            |c| &mut c.loss_probability,
            |c| &mut c.ack_loss_probability,
            |c| &mut c.partition_probability,
            |c| &mut c.corruption_probability,
            |c| &mut c.rogue_probability,
        ];
        for field in fields {
            for (p, valid) in [
                (f64::NAN, false),
                (-0.1, false),
                (1.5, false),
                (0.0, true),
                (1.0, true),
            ] {
                let mut config = FaultPlanConfig::quiet(1, 4, 1000);
                *field(&mut config) = p;
                assert_eq!(config.validate().is_ok(), valid, "{p} in {config:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "loss_probability must be in [0,1], got NaN")]
    fn generate_panics_on_a_nan_probability() {
        FaultPlan::generate(&FaultPlanConfig {
            loss_probability: f64::NAN,
            ..FaultPlanConfig::quiet(1, 4, 1000)
        });
    }

    /// Every draw of the soak preset, tabulated and keyed, pinned as
    /// literals: a refactor of the plan must leave each one where it is.
    #[test]
    fn soak_draws_are_pinned() {
        let plan = FaultPlan::generate(&FaultPlanConfig::soak(97, 8, 2400));
        let crashes: Vec<(usize, u32, u32)> = (plan.sites.iter().enumerate())
            .filter_map(|(site, f)| f.crash.map(|c| (site, c.at.0, c.downtime_secs)))
            .collect();
        let outages: Vec<(usize, u32, u32)> = (plan.sites.iter().enumerate())
            .flat_map(|(site, f)| f.outages.iter().map(move |w| (site, w.from.0, w.until.0)))
            .collect();
        let skews: Vec<u32> = plan.sites.iter().map(|f| f.clock_skew_secs).collect();
        let partitions: Vec<(u16, u16, u32, u32)> = (plan.partitions.iter())
            .map(|w| (w.from_site, w.to_site, w.from.0, w.until.0))
            .collect();
        assert_eq!(crashes, [(0, 1495, 53)]);
        assert_eq!(
            outages,
            [
                (0, 1225, 1337),
                (1, 1015, 1248),
                (2, 1817, 1853),
                (3, 1689, 1878),
                (5, 449, 633),
            ]
        );
        assert_eq!(skews, [1, 41, 7, 10, 1, 38, 25, 38]);
        assert_eq!(
            partitions,
            [
                (0, 5, 2246, 2257),
                (0, 6, 1229, 1447),
                (0, 7, 1830, 2007),
                (1, 0, 551, 703),
                (1, 2, 1579, 1633),
                (1, 4, 2028, 2199),
                (1, 5, 227, 266),
                (2, 6, 822, 1077),
                (3, 6, 1277, 1559),
                (3, 7, 1866, 2083),
                (4, 3, 907, 1090),
                (4, 7, 161, 428),
                (5, 0, 2301, 2337),
                (5, 1, 1534, 1641),
                (5, 3, 1921, 2066),
                (5, 4, 1005, 1086),
                (6, 4, 2046, 2297),
                (6, 7, 710, 904),
                (7, 4, 1133, 1175),
            ]
        );

        // One fixed grid of 256 keys; each family counts its positive
        // answers over it (delay and rogue also sum what they draw).
        let mut counts = [0u32; 8];
        let (mut delay_secs, mut rogue_slots) = (0u32, 0u32);
        for k in 0..256u32 {
            let from = (k % 8) as u16;
            let to = (from + 1 + (k / 8 % 7) as u16) % 8;
            let tag = TagId::item(u64::from(k));
            let at = Epoch(k * 9);
            let attempt = k % 4;
            let delay = plan.shipment_delay_secs(from, to, tag, at);
            delay_secs += delay;
            let rogue = plan.rogue_reader_slot(from, at, tag, 5);
            rogue_slots += rogue.map_or(0, u32::from);
            let answers = [
                delay > 0,
                plan.shipment_duplicated(from, to, tag, at),
                plan.message_lost(from, to, tag, at, attempt),
                plan.ack_lost(from, to, tag, at, attempt),
                plan.forward_lost(from, at, attempt),
                plan.payload_corrupted(from, to, u64::from(k)),
                rogue.is_some(),
                plan.link_partitioned(from, to, at),
            ];
            for (count, hit) in counts.iter_mut().zip(answers) {
                *count += u32::from(hit);
            }
        }
        // delay, duplicate, loss, ack, forward, corruption, rogue, partition
        assert_eq!(counts, [42, 28, 24, 16, 26, 13, 4, 5]);
        assert_eq!((delay_secs, rogue_slots), (2719, 9));
    }

    #[test]
    fn outage_windows_cover_their_range_inclusively() {
        let window = OutageWindow {
            from: Epoch(10),
            until: Epoch(20),
        };
        assert!(!window.covers(Epoch(9)));
        assert!(window.covers(Epoch(10)));
        assert!(window.covers(Epoch(20)));
        assert!(!window.covers(Epoch(21)));
    }
}
