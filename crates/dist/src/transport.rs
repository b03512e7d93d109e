//! The one delivery path for cross-site payloads.
//!
//! Migrated state is *added* to the receiver's own
//! (`PriorWeights::merge`), so delivery must be at-most-once on every run,
//! not only on the ones whose [`FaultPlan`] loses messages. Every
//! `ShipmentMsg` (`site/shipments.rs`) that carries state therefore always
//! travels the same way:
//!
//! * on a **per-edge sequence-numbered channel** ([`EdgeSequencer`]);
//! * the receiver **deduplicates** by sequence number ([`ReliableInbox`]) so
//!   retransmitted (or fault-duplicated) copies are ingested at most once,
//!   guards against stale state, quarantines undecodable payloads and books
//!   its half of the edge's conservation ledger;
//! * when the plan can lose payloads, the receiver additionally **acks**
//!   every arriving copy, and the sender **retransmits** under deterministic
//!   epoch-based exponential backoff until an ack is seen or the retry
//!   budget runs out ([`DeliveryPlan`]).
//!
//! Determinism is the whole design: every worker of the scheduler, at any
//! worker count, and a crash-replaying site, must observe the *same* losses,
//! retransmissions and arrival epochs. The entire ack/retransmit exchange is
//! therefore computed sender-side at departure time as a pure function of the
//! message key and the [`FaultPlan`]'s order-independent hash draws —
//! [`DeliveryPlan::compute`] — and the sender emits one inbox copy per
//! attempt that actually arrives. The receiver's dedup and ack accounting
//! then runs against real arriving copies, so the at-most-once guarantee is
//! enforced where it matters, not assumed.
//!
//! The only thing decided per run is whether the ack/retransmit exchange
//! runs, and that is read off the input, never off an option
//! ([`TransportMode`]; docs/INVARIANTS.md § "Transport axes"):
//!
//! | mode | when | what it adds to the shared path |
//! |---|---|---|
//! | [`Optimistic`] | no plan, or a plan that cannot lose a payload (delay/duplicate-only included) | nothing: one attempt per envelope, zero control bytes |
//! | [`Reliable`] | the plan can lose, corrupt or partition | acks, retransmission, resync, all charged as control/payload bytes |
//!
//! [`Optimistic`]: TransportMode::Optimistic
//! [`Reliable`]: TransportMode::Reliable

use crate::config::TransportConfig;
use rfid_sim::FaultPlan;
use rfid_types::{Epoch, TagId};
use rfid_wire::EdgeSeqs;
use std::collections::{BTreeMap, BTreeSet};

pub use rfid_wire::TransportStats;

/// Whether a run's envelopes are acknowledged and retransmitted. Sequencing,
/// dedup, the staleness guard, quarantine and the edge ledgers run in both
/// modes; the mode is derived from the fault plan, not configured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportMode {
    /// Ack-free: nothing in the plan can lose a payload, so every envelope
    /// is one attempt and no [`MessageKind::Control`](crate::MessageKind::Control)
    /// byte is sent — a fault-free run keeps the paper's Table 5 totals.
    Optimistic,
    /// The full protocol: retransmission under deterministic backoff, acks
    /// and resyncs charged as
    /// [`MessageKind::Control`](crate::MessageKind::Control) traffic,
    /// degraded-mode abandonment.
    Reliable,
}

impl TransportMode {
    /// The mode of a run: [`Reliable`](TransportMode::Reliable) exactly when
    /// its plan [`has_transport_faults`](FaultPlan::has_transport_faults).
    /// The second parameter is residue — ignored, held because the frozen
    /// `benchmark/` package passes it (docs/INVARIANTS.md § "Residue").
    pub fn resolve(plan: Option<&FaultPlan>, _config: &TransportConfig) -> TransportMode {
        if plan.is_some_and(FaultPlan::has_transport_faults) {
            TransportMode::Reliable
        } else {
            TransportMode::Optimistic
        }
    }

    /// Residue: constantly `true` — every mode sequences and deduplicates.
    /// Held for the frozen `benchmark/` package, which still asks
    /// (docs/INVARIANTS.md § "Residue").
    #[doc(hidden)]
    pub fn dedups(self) -> bool {
        true
    }
}

/// Per-destination outbound sequence counters for one site.
///
/// Sequence numbers are per directed edge and are assigned in the site's
/// deterministic departure order, so a crash-restored site can rebuild its
/// counters by counting the transport envelopes in its already-processed
/// departure prefix.
#[derive(Debug, Default, Clone)]
pub struct EdgeSequencer {
    next: BTreeMap<u16, u64>,
}

impl EdgeSequencer {
    /// Fresh counters (every edge starts at sequence 0).
    pub fn new() -> EdgeSequencer {
        EdgeSequencer::default()
    }

    /// Allocate the next sequence number on the edge to `peer`.
    pub fn next(&mut self, peer: u16) -> u64 {
        let counter = self.next.entry(peer).or_insert(0);
        let seq = *counter;
        *counter += 1;
        seq
    }
}

/// Receiver-side dedup state for one inbound edge: a watermark below which
/// every sequence number has been seen, plus the sparse set of seen numbers
/// above it.
///
/// `watermark` counts the contiguous prefix `0..watermark` of seen sequence
/// numbers; out-of-order arrivals park in `extras` until the gap closes, at
/// which point the watermark advances and the extras compact away — bounded
/// memory even under heavy reordering.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ReliableInbox {
    watermark: u64,
    extras: BTreeSet<u64>,
}

impl ReliableInbox {
    /// An inbox that has seen nothing.
    pub fn new() -> ReliableInbox {
        ReliableInbox::default()
    }

    /// Record `seq`; returns `true` the first time a number is seen and
    /// `false` for every duplicate.
    pub fn accept(&mut self, seq: u64) -> bool {
        if seq < self.watermark || !self.extras.insert(seq) {
            return false;
        }
        while self.extras.remove(&self.watermark) {
            self.watermark += 1;
        }
        true
    }

    /// The durable form carried inside a
    /// [`SiteCheckpoint`](rfid_wire::SiteCheckpoint).
    pub fn to_seqs(&self, peer: u16) -> EdgeSeqs {
        EdgeSeqs {
            peer,
            watermark: self.watermark,
            extras: self.extras.iter().copied().collect(),
        }
    }

    /// Rehydrate from a checkpointed [`EdgeSeqs`].
    pub fn from_seqs(seqs: &EdgeSeqs) -> ReliableInbox {
        ReliableInbox {
            watermark: seqs.watermark,
            extras: seqs.extras.iter().copied().collect(),
        }
    }
}

/// The sender-side simulation of one envelope's reliable delivery: which
/// attempts were transmitted, and the epoch at which each surviving copy
/// reaches the destination.
///
/// Computed at departure time as a pure function of the message key, the
/// [`FaultPlan`] and the [`TransportConfig`] — so every worker, at any
/// worker count, and a crash-replaying sender all derive the identical
/// schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeliveryPlan {
    /// Arrival epoch of every copy that survives loss and partitions, in
    /// transmission order (ascending). Empty when the envelope is abandoned.
    pub arrivals: Vec<Epoch>,
    /// Number of copies actually transmitted (1 = no retransmission).
    pub attempts: u32,
    /// No copy ever arrived within the horizon: the destination proceeds in
    /// degraded mode (cold-start ingestion of the physically-arrived object).
    pub abandoned: bool,
}

impl DeliveryPlan {
    /// The one-attempt schedule of ack-free delivery: a single copy,
    /// arriving at `arrive`, never retransmitted.
    pub(crate) fn one_attempt(arrive: Epoch) -> DeliveryPlan {
        DeliveryPlan {
            arrivals: vec![arrive],
            attempts: 1,
            abandoned: false,
        }
    }

    /// Simulate the delivery of one envelope on the edge `from → to`.
    ///
    /// `arrive` is the first-attempt arrival epoch (the physical transit,
    /// plus any delay fault, which therefore stretches every
    /// attempt's transit identically). Attempt `k` is transmitted at
    /// `s_k` where `s_0 = depart` and `s_{k+1} = s_k + rtt +
    /// min(rto_base · 2^k, rto_max)`; it is lost iff the plan's loss draw
    /// for `(edge, tag, depart, k)` fires or the edge is partitioned at
    /// `s_k`. A surviving copy arrives `transit` epochs later (never past
    /// the horizon) and is acked immediately; the ack is lost iff the ack
    /// draw fires or the *reverse* edge is partitioned at the arrival
    /// epoch, and otherwise reaches the sender one hop later, stopping all
    /// retransmission from that epoch on. `max_retries` bounds the number
    /// of retransmissions (`None` retries until the horizon).
    #[expect(
        clippy::too_many_arguments,
        reason = "the argument list is the message key plus its schedule inputs; a struct would only rename the coupling"
    )]
    pub fn compute(
        plan: &FaultPlan,
        config: &TransportConfig,
        from: u16,
        to: u16,
        tag: TagId,
        depart: Epoch,
        arrive: Epoch,
        horizon: Epoch,
    ) -> DeliveryPlan {
        let transit = arrive.0.saturating_sub(depart.0);
        let hop = transit.max(1);
        let rtt = hop.saturating_mul(2);
        let mut arrivals = Vec::new();
        let mut attempts = 0u32;
        let mut send = depart.0;
        // Earliest epoch at which an ack is back at the sender.
        let mut acked_at: Option<u32> = None;
        let mut k = 0u32;
        loop {
            if send > horizon.0 || acked_at.is_some_and(|ack| ack <= send) {
                break;
            }
            attempts += 1;
            let lost = plan.message_lost(from, to, tag, depart, k)
                || plan.link_partitioned(from, to, Epoch(send));
            if !lost {
                let arrival = send.saturating_add(transit);
                if arrival <= horizon.0 {
                    arrivals.push(Epoch(arrival));
                    let ack_lost = plan.ack_lost(from, to, tag, depart, k)
                        || plan.link_partitioned(to, from, Epoch(arrival));
                    if !ack_lost {
                        let back = arrival.saturating_add(hop);
                        acked_at = Some(acked_at.map_or(back, |prev| prev.min(back)));
                    }
                }
            }
            if config.max_retries.is_some_and(|max| k >= max) {
                break;
            }
            send = send.saturating_add(rtt.saturating_add(config.backoff_secs(k)).max(1));
            k += 1;
        }
        DeliveryPlan {
            abandoned: arrivals.is_empty(),
            arrivals,
            attempts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_sim::FaultPlanConfig;

    fn unreliable_plan(seed: u64) -> FaultPlan {
        FaultPlan::generate(&FaultPlanConfig::unreliable(seed, 4, 3600))
    }

    #[test]
    fn mode_resolution_matches_the_plan() {
        let config = TransportConfig::default();
        let ack_free = TransportMode::Optimistic;
        assert_eq!(TransportMode::resolve(None, &config), ack_free);
        let quiet = FaultPlan::generate(&FaultPlanConfig::quiet(7, 4, 3600));
        assert_eq!(TransportMode::resolve(Some(&quiet), &config), ack_free);
        let lossy = FaultPlan::generate(&FaultPlanConfig::lossy(7, 4, 3600));
        assert_eq!(
            TransportMode::resolve(Some(&lossy), &config),
            ack_free,
            "delay and duplication lose nothing: dedup absorbs them without acks"
        );
        assert_eq!(
            TransportMode::resolve(Some(&unreliable_plan(7)), &config),
            TransportMode::Reliable
        );
    }

    #[test]
    fn sequencers_count_per_edge() {
        let mut seqs = EdgeSequencer::new();
        assert_eq!(seqs.next(1), 0);
        assert_eq!(seqs.next(1), 1);
        assert_eq!(seqs.next(2), 0, "edges are independent channels");
        assert_eq!(seqs.next(1), 2);
    }

    #[test]
    fn inbox_accepts_each_sequence_number_exactly_once() {
        let mut inbox = ReliableInbox::new();
        assert!(inbox.accept(0));
        assert!(!inbox.accept(0), "duplicate of the first copy");
        assert!(inbox.accept(2), "out of order is fine");
        assert!(inbox.accept(1));
        assert!(!inbox.accept(2));
        assert!(!inbox.accept(1));
        assert!(inbox.accept(3));
        // 0..=3 all seen: everything compacted into the watermark.
        assert_eq!(inbox.to_seqs(9).watermark, 4);
        assert!(inbox.to_seqs(9).extras.is_empty());
    }

    #[test]
    fn inbox_round_trips_through_checkpoint_form() {
        let mut inbox = ReliableInbox::new();
        for seq in [0u64, 1, 5, 7] {
            assert!(inbox.accept(seq));
        }
        let seqs = inbox.to_seqs(3);
        assert_eq!(seqs.peer, 3);
        assert_eq!(seqs.watermark, 2);
        assert_eq!(seqs.extras, vec![5, 7]);
        let mut back = ReliableInbox::from_seqs(&seqs);
        assert_eq!(back, inbox);
        // The rehydrated inbox keeps rejecting what the original saw.
        for seq in [0u64, 1, 5, 7] {
            assert!(!back.accept(seq));
        }
        assert!(back.accept(6));
    }

    #[test]
    fn loss_free_plans_deliver_on_the_first_attempt() {
        let quiet = FaultPlan::generate(&FaultPlanConfig::quiet(11, 4, 3600));
        let plan = DeliveryPlan::compute(
            &quiet,
            &TransportConfig::default(),
            0,
            1,
            TagId::item(4),
            Epoch(100),
            Epoch(160),
            Epoch(3600),
        );
        assert_eq!(plan.arrivals, vec![Epoch(160)]);
        assert_eq!(plan.attempts, 1);
        assert!(!plan.abandoned);
    }

    #[test]
    fn a_partition_outliving_the_horizon_abandons_the_envelope() {
        let dark = FaultPlan::quiet(4).with_partition(0, 1, Epoch(0), Epoch(3600));
        let plan = DeliveryPlan::compute(
            &dark,
            &TransportConfig::default(),
            0,
            1,
            TagId::item(4),
            Epoch(100),
            Epoch(160),
            Epoch(3600),
        );
        assert!(plan.abandoned);
        assert!(plan.arrivals.is_empty());
        assert!(
            plan.attempts >= 2,
            "the sender kept trying into the dark window"
        );
    }

    #[test]
    fn unlimited_retries_ride_out_a_bounded_partition() {
        // Link dark for the first 600 epochs only; a persistent transport
        // must get a copy through after it heals.
        let dark = FaultPlan::quiet(4).with_partition(0, 1, Epoch(0), Epoch(600));
        let plan = DeliveryPlan::compute(
            &dark,
            &TransportConfig::persistent(),
            0,
            1,
            TagId::item(4),
            Epoch(100),
            Epoch(160),
            Epoch(3600),
        );
        assert!(!plan.abandoned);
        assert!(plan.attempts > 1);
        assert!(
            plan.arrivals.iter().all(|&a| a > Epoch(600)),
            "nothing crosses while the link is dark"
        );
    }

    #[test]
    fn the_retry_budget_is_a_hard_cap() {
        let dark = FaultPlan::quiet(4).with_partition(0, 1, Epoch(0), Epoch(3600));
        for budget in [0u32, 1, 3] {
            let plan = DeliveryPlan::compute(
                &dark,
                &TransportConfig {
                    max_retries: Some(budget),
                    ..TransportConfig::default()
                },
                0,
                1,
                TagId::item(4),
                Epoch(0),
                Epoch(60),
                Epoch(3600),
            );
            assert_eq!(plan.attempts, budget + 1);
            assert!(plan.abandoned);
        }
    }

    #[test]
    fn delivery_plans_are_pure_functions_of_the_key() {
        let config = TransportConfig::default();
        for seed in [3u64, 97] {
            let a = unreliable_plan(seed);
            let b = unreliable_plan(seed);
            for tag in [TagId::item(1), TagId::case(9)] {
                for depart in [0u32, 500, 1200] {
                    let args = (0u16, 2u16, tag, Epoch(depart), Epoch(depart + 90));
                    let first = DeliveryPlan::compute(
                        &a,
                        &config,
                        args.0,
                        args.1,
                        args.2,
                        args.3,
                        args.4,
                        Epoch(3600),
                    );
                    let second = DeliveryPlan::compute(
                        &b,
                        &config,
                        args.0,
                        args.1,
                        args.2,
                        args.3,
                        args.4,
                        Epoch(3600),
                    );
                    assert_eq!(first, second);
                }
            }
        }
    }

    #[test]
    fn lost_acks_produce_duplicate_arrivals_for_dedup_to_drop() {
        // Scan an unreliable plan for an envelope where a copy arrived, its
        // ack was lost, and the retransmission also arrived — the situation
        // the receiver-side dedup exists for.
        let plan = unreliable_plan(97);
        let config = TransportConfig::persistent();
        let found = (0u64..400).any(|serial| {
            let d = DeliveryPlan::compute(
                &plan,
                &config,
                0,
                1,
                TagId::item(serial),
                Epoch(50),
                Epoch(110),
                Epoch(3600),
            );
            d.arrivals.len() > 1
        });
        assert!(
            found,
            "an unreliable plan must produce at least one duplicate arrival"
        );
    }
}
