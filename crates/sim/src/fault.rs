//! Deterministic fault injection for the distributed executors.
//!
//! A [`FaultPlan`] is a *pre-computed schedule* of failures, fixed entirely
//! by its seed at construction time: site crashes (with optional downtime),
//! reader-outage bursts, and per-shipment delivery faults (delay,
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
//!   (see [`crate::chaos::ChaosPlan`]): a corrupted envelope's bytes are
//!   bit-flipped on the link as a pure function of `(edge, seq)` and must be
//!   quarantined by the receiver, a rogue reader clones a tag reading at a
//!   spurious antenna, and a skewed site observes its RFID feed late by a
//!   tabulated per-site offset.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rfid_types::{Epoch, TagId};

/// Parameters from which a [`FaultPlan`] is generated.
///
/// All probabilities are per independent trial: `crash_probability` and
/// `outage_probability` per site, `delay_probability` and
/// `duplicate_probability` per shipment.
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

/// One entry of [`FaultPlan::events`] — the scheduled (per-site) faults in a
/// canonical order, for pinning determinism in tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// A scheduled crash.
    Crash {
        /// Crashing site.
        site: u16,
        /// Crash epoch.
        at: Epoch,
        /// Downtime after the crash.
        downtime_secs: u32,
    },
    /// A scheduled reader outage.
    Outage {
        /// Affected site.
        site: u16,
        /// First silent epoch.
        from: Epoch,
        /// Last silent epoch (inclusive).
        until: Epoch,
    },
    /// A scheduled directed-link partition.
    Partition {
        /// Sending side of the dark link.
        from_site: u16,
        /// Receiving side of the dark link.
        to_site: u16,
        /// First dark epoch.
        from: Epoch,
        /// Last dark epoch (inclusive).
        until: Epoch,
    },
    /// A tabulated per-site clock skew.
    ClockSkew {
        /// Skewed site.
        site: u16,
        /// Constant lateness of the site's RFID feed, in seconds.
        skew_secs: u32,
    },
}

/// A deterministic, order-independent fault schedule.
///
/// Site-level faults (crashes, outages) are tabulated at construction from a
/// per-site `ChaCha8` stream; shipment-level faults (delay, duplication) are
/// pure functions of the shipment's `(from, to, tag, depart)` key, hashed
/// into a fresh `ChaCha8` seed. Querying the plan never mutates it, so any
/// number of workers asking in any order observe the same answers.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    delay_probability: f64,
    delay_max_secs: u32,
    duplicate_probability: f64,
    loss_probability: f64,
    ack_loss_probability: f64,
    corruption_probability: f64,
    rogue_probability: f64,
    sites: Vec<SiteFaults>,
    /// Directed-link partition windows, tabulated at generation time in
    /// canonical `(from_site, to_site)` order.
    partitions: Vec<PartitionWindow>,
}

impl FaultPlan {
    /// Generate the plan for `config`, fixing every site-level fault.
    pub fn generate(config: &FaultPlanConfig) -> FaultPlan {
        let horizon = config.horizon_secs.max(1);
        let sites = (0..config.num_sites)
            .map(|site| {
                let mut rng = ChaCha8Rng::seed_from_u64(site_seed(config.seed, site));
                let crash = if config.crash_probability > 0.0
                    && rng.gen_bool(config.crash_probability.min(1.0))
                {
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
                    && rng.gen_bool(config.outage_probability.min(1.0))
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
        let mut partitions = Vec::new();
        if config.partition_probability > 0.0 && config.partition_max_secs > 0 {
            // Each *directed* edge draws from its own key-hashed stream, so
            // the tabulation is independent of iteration details elsewhere.
            for from_site in 0..config.num_sites {
                for to_site in 0..config.num_sites {
                    if from_site == to_site {
                        continue;
                    }
                    let mut rng =
                        ChaCha8Rng::seed_from_u64(edge_seed(config.seed, from_site, to_site));
                    if rng.gen_bool(config.partition_probability.min(1.0)) {
                        let len = rng.gen_range(1..=config.partition_max_secs.min(horizon));
                        let latest_start = horizon.saturating_sub(len).max(1);
                        let from = rng.gen_range(1..=latest_start);
                        partitions.push(PartitionWindow {
                            from_site,
                            to_site,
                            from: Epoch(from),
                            until: Epoch(from + len - 1),
                        });
                    }
                }
            }
        }
        FaultPlan {
            seed: config.seed,
            delay_probability: config.delay_probability,
            delay_max_secs: config.delay_max_secs,
            duplicate_probability: config.duplicate_probability,
            loss_probability: config.loss_probability,
            ack_loss_probability: config.ack_loss_probability,
            corruption_probability: config.corruption_probability,
            rogue_probability: config.rogue_probability,
            sites,
            partitions,
        }
    }

    /// A plan whose only fault is a crash of `site` at `at` with the given
    /// downtime — the scripted form used by the crash-consistency sweep.
    pub fn scripted_crash(num_sites: u16, site: u16, at: Epoch, downtime_secs: u32) -> FaultPlan {
        let mut sites = vec![SiteFaults::default(); usize::from(num_sites)];
        if let Some(faults) = sites.get_mut(usize::from(site)) {
            faults.crash = Some(CrashFault { at, downtime_secs });
        }
        FaultPlan {
            seed: 0,
            delay_probability: 0.0,
            delay_max_secs: 0,
            duplicate_probability: 0.0,
            loss_probability: 0.0,
            ack_loss_probability: 0.0,
            corruption_probability: 0.0,
            rogue_probability: 0.0,
            sites,
            partitions: Vec::new(),
        }
    }

    /// The same plan with an additional scripted crash of `site` at `at` —
    /// the hook the chaos crash-consistency sweep uses to crash a site at
    /// every epoch of an otherwise unchanged chaotic schedule.
    pub fn with_scripted_crash(mut self, site: u16, at: Epoch, downtime_secs: u32) -> FaultPlan {
        if let Some(faults) = self.sites.get_mut(usize::from(site)) {
            faults.crash = Some(CrashFault { at, downtime_secs });
        }
        self
    }

    /// A plan whose only fault is a symmetric partition of the link between
    /// `a` and `b` over `from..=until` — the scripted form used by the
    /// degraded-mode tests and the `degraded` experiment's partition
    /// scenario. Both directions of the link go dark.
    pub fn scripted_partition(
        num_sites: u16,
        a: u16,
        b: u16,
        from: Epoch,
        until: Epoch,
    ) -> FaultPlan {
        let mut partitions = Vec::new();
        if a < num_sites && b < num_sites && a != b {
            partitions.push(PartitionWindow {
                from_site: a.min(b),
                to_site: a.max(b),
                from,
                until,
            });
            partitions.push(PartitionWindow {
                from_site: a.max(b),
                to_site: a.min(b),
                from,
                until,
            });
        }
        FaultPlan {
            seed: 0,
            delay_probability: 0.0,
            delay_max_secs: 0,
            duplicate_probability: 0.0,
            loss_probability: 0.0,
            ack_loss_probability: 0.0,
            corruption_probability: 0.0,
            rogue_probability: 0.0,
            sites: vec![SiteFaults::default(); usize::from(num_sites)],
            partitions,
        }
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
        if self.delay_probability <= 0.0 || self.delay_max_secs == 0 {
            return 0;
        }
        let mut rng = self.shipment_rng(from, to, tag, depart, 0x0de1);
        if rng.gen_bool(self.delay_probability.min(1.0)) {
            rng.gen_range(1..=self.delay_max_secs)
        } else {
            0
        }
    }

    /// Whether the shipment identified by `(from, to, tag, depart)` is
    /// delivered twice. A pure function of the key.
    pub fn shipment_duplicated(&self, from: u16, to: u16, tag: TagId, depart: Epoch) -> bool {
        if self.duplicate_probability <= 0.0 {
            return false;
        }
        let mut rng = self.shipment_rng(from, to, tag, depart, 0xd0b1);
        rng.gen_bool(self.duplicate_probability.min(1.0))
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
        if self.loss_probability <= 0.0 {
            return false;
        }
        let mut rng = self.attempt_rng(from, to, tag, depart, attempt, 0x105e);
        rng.gen_bool(self.loss_probability.min(1.0))
    }

    /// Whether the ack for attempt `attempt` of the payload identified by
    /// `(from, to, tag, depart)` is lost on the reverse path. A pure function
    /// of the key.
    pub fn ack_lost(&self, from: u16, to: u16, tag: TagId, depart: Epoch, attempt: u32) -> bool {
        if self.ack_loss_probability <= 0.0 {
            return false;
        }
        let mut rng = self.attempt_rng(from, to, tag, depart, attempt, 0x0ac4);
        rng.gen_bool(self.ack_loss_probability.min(1.0))
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
        if self.loss_probability <= 0.0 {
            return false;
        }
        let mut key = self.seed ^ 0xf04d;
        key = mix(key, u64::from(site));
        key = mix(key, u64::from(epoch.0));
        key = mix(key, u64::from(attempt));
        let mut rng = ChaCha8Rng::seed_from_u64(key);
        rng.gen_bool(self.loss_probability.min(1.0))
    }

    /// Whether the sequenced envelope `seq` on the directed link
    /// `from → to` has its payload bytes corrupted in transit. A pure
    /// function of `(edge, seq)`: every retransmitted copy of the envelope
    /// carries the same poisoned bytes.
    pub fn payload_corrupted(&self, from: u16, to: u16, seq: u64) -> bool {
        if self.corruption_probability <= 0.0 {
            return false;
        }
        let mut key = self.seed ^ 0xc042;
        key = mix(key, u64::from(from));
        key = mix(key, u64::from(to));
        key = mix(key, seq);
        let mut rng = ChaCha8Rng::seed_from_u64(key);
        rng.gen_bool(self.corruption_probability.min(1.0))
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
        if self.rogue_probability <= 0.0 || num_readers == 0 {
            return None;
        }
        let mut key = self.seed ^ 0x409e;
        key = mix(key, u64::from(site));
        key = mix(key, u64::from(at.0));
        key = mix(key, tag.raw());
        let mut rng = ChaCha8Rng::seed_from_u64(key);
        if rng.gen_bool(self.rogue_probability.min(1.0)) {
            Some(rng.gen_range(0..num_readers))
        } else {
            None
        }
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
        self.loss_probability > 0.0
            || self.ack_loss_probability > 0.0
            || self.corruption_probability > 0.0
            || !self.partitions.is_empty()
    }

    /// The scheduled (site-level) faults in canonical order: by site, crashes
    /// before outages (by start epoch) before the site's clock skew; then
    /// partition windows by `(from_site, to_site, start)`. Equal seeds
    /// produce equal event lists — the hook the determinism tests pin.
    pub fn events(&self) -> Vec<FaultEvent> {
        let mut events = Vec::new();
        for (site, faults) in self.sites.iter().enumerate() {
            let site = site as u16;
            if let Some(crash) = faults.crash {
                events.push(FaultEvent::Crash {
                    site,
                    at: crash.at,
                    downtime_secs: crash.downtime_secs,
                });
            }
            for outage in &faults.outages {
                events.push(FaultEvent::Outage {
                    site,
                    from: outage.from,
                    until: outage.until,
                });
            }
            if faults.clock_skew_secs > 0 {
                events.push(FaultEvent::ClockSkew {
                    site,
                    skew_secs: faults.clock_skew_secs,
                });
            }
        }
        let mut partitions = self.partitions.clone();
        partitions.sort_by_key(|w| (w.from_site, w.to_site, w.from));
        for w in partitions {
            events.push(FaultEvent::Partition {
                from_site: w.from_site,
                to_site: w.to_site,
                from: w.from,
                until: w.until,
            });
        }
        events
    }

    /// Whether the plan schedules or can produce any fault at all.
    pub fn is_quiet(&self) -> bool {
        self.delay_probability <= 0.0
            && self.duplicate_probability <= 0.0
            && self.rogue_probability <= 0.0
            && !self.has_transport_faults()
            && self
                .sites
                .iter()
                .all(|f| f.crash.is_none() && f.outages.is_empty() && f.clock_skew_secs == 0)
    }

    fn shipment_rng(&self, from: u16, to: u16, tag: TagId, depart: Epoch, salt: u64) -> ChaCha8Rng {
        let mut key = self.seed ^ salt;
        key = mix(key, u64::from(from));
        key = mix(key, u64::from(to));
        key = mix(key, tag.raw());
        key = mix(key, u64::from(depart.0));
        ChaCha8Rng::seed_from_u64(key)
    }

    fn attempt_rng(
        &self,
        from: u16,
        to: u16,
        tag: TagId,
        depart: Epoch,
        attempt: u32,
        salt: u64,
    ) -> ChaCha8Rng {
        let mut key = self.seed ^ salt;
        key = mix(key, u64::from(from));
        key = mix(key, u64::from(to));
        key = mix(key, tag.raw());
        key = mix(key, u64::from(depart.0));
        key = mix(key, u64::from(attempt));
        ChaCha8Rng::seed_from_u64(key)
    }
}

/// Decorrelated per-index seed for multi-schedule chaos sweeps.
pub(crate) fn derive_seed(master: u64, index: u64) -> u64 {
    mix(master ^ 0xc0a5, index)
}

/// Per-site stream seed, decorrelated from neighbouring sites.
fn site_seed(seed: u64, site: u16) -> u64 {
    mix(seed ^ 0xfa17, u64::from(site))
}

/// Per-directed-edge stream seed for partition tabulation.
fn edge_seed(seed: u64, from: u16, to: u16) -> u64 {
    mix(mix(seed ^ 0x9a27, u64::from(from)), u64::from(to))
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
        assert_eq!(a.events(), b.events());
    }

    #[test]
    fn different_seeds_produce_different_schedules() {
        let plans: Vec<FaultPlan> = (0..8).map(lossy_plan).collect();
        let distinct = plans
            .iter()
            .map(|p| format!("{:?}", p.events()))
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
        assert!(!plan.events().is_empty(), "expected at least one outage");
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
        assert!(plan.events().is_empty());
        assert_eq!(plan.crash(0), None);
        assert!(!plan.reading_dropped(2, Epoch(500)));
        assert_eq!(plan.shipment_delay_secs(0, 1, TagId::item(1), Epoch(5)), 0);
        assert!(!plan.shipment_duplicated(0, 1, TagId::item(1), Epoch(5)));
    }

    #[test]
    fn scripted_crash_hits_exactly_one_site() {
        let plan = FaultPlan::scripted_crash(4, 2, Epoch(600), 0);
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
        assert_eq!(
            plan.events(),
            vec![FaultEvent::Crash {
                site: 2,
                at: Epoch(600),
                downtime_secs: 0
            }]
        );
        assert_eq!(plan.crash(2).unwrap().resume_at(), Epoch(600));
        assert_eq!(
            FaultPlan::scripted_crash(4, 1, Epoch(100), 50)
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
        assert_eq!(a.events(), b.events());
        assert!(a.has_transport_faults());
        let partitions: Vec<FaultEvent> = a
            .events()
            .into_iter()
            .filter(|e| matches!(e, FaultEvent::Partition { .. }))
            .collect();
        assert!(
            !partitions.is_empty(),
            "partition probability 0.4 over 56 directed edges never fired"
        );
        // The tabulation agrees with the point query for every window.
        for event in &partitions {
            if let FaultEvent::Partition {
                from_site,
                to_site,
                from,
                until,
            } = *event
            {
                assert!(a.link_partitioned(from_site, to_site, from));
                assert!(a.link_partitioned(from_site, to_site, until));
                assert!(!a.link_partitioned(from_site, to_site, Epoch(until.0 + 1)));
            }
        }
    }

    #[test]
    fn scripted_partition_darkens_both_directions_only_in_window() {
        let plan = FaultPlan::scripted_partition(4, 1, 2, Epoch(300), Epoch(600));
        assert!(plan.has_transport_faults());
        assert!(plan.link_partitioned(1, 2, Epoch(300)));
        assert!(plan.link_partitioned(2, 1, Epoch(600)));
        assert!(!plan.link_partitioned(1, 2, Epoch(299)));
        assert!(!plan.link_partitioned(2, 1, Epoch(601)));
        assert!(!plan.link_partitioned(0, 1, Epoch(400)));
        assert_eq!(plan.events().len(), 2, "one window per direction");
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
        let skew_events: Vec<FaultEvent> = a
            .events()
            .into_iter()
            .filter(|e| matches!(e, FaultEvent::ClockSkew { .. }))
            .collect();
        for event in &skew_events {
            if let FaultEvent::ClockSkew { site, skew_secs } = *event {
                assert_eq!(a.clock_skew_secs(site), skew_secs);
            }
        }
        assert_eq!(
            skew_events.len(),
            skews.iter().filter(|&&s| s > 0).count(),
            "every nonzero skew must appear exactly once in the event list"
        );
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
        let with_crash = plan.with_scripted_crash(1, Epoch(400), 30);
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
