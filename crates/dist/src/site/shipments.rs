//! Shipments: the only cross-site interaction of a federated run. Departure
//! snapshots and charges the migrating state, the transport decides which
//! copies arrive when, and the arrival side deduplicates, guards against
//! stale and poisoned state, and imports — booking both halves of every
//! edge's conservation ledger on the way.

use super::SiteState;
use crate::comm::MessageKind;
use crate::config::MigrationStrategy;
use crate::ons::ONS_UPDATE_BYTES;
use crate::transport::{DeliveryPlan, TransportMode};
use rfid_core::MigrationState;
use rfid_query::sharing::unshared_bytes_with;
use rfid_query::{share_states_with, ObjectQueryState};
use rfid_types::{Epoch, SiteId, TagId};
use rfid_wire::{ControlMsg, PendingShipment, QuarantineEntry};
use std::collections::{BTreeMap, BTreeSet};

/// Minimum seconds between two departure-forced inference runs at one site;
/// a dispatch within this window reuses the (slightly stale) last outcome.
const FORCED_RUN_SPACING_SECS: u32 = 150;

/// One object's migrating state, en route between two sites — the message
/// the scheduler posts to the destination site's mailbox. It is the wire
/// crate's [`PendingShipment`] as is, so the inbox section of a checkpoint
/// is the in-memory inbox, not a field-by-field translation of it.
///
/// * `seq` — sequence number on the `from → to` edge; every retransmitted
///   or fault-duplicated copy of one envelope carries the same number, which
///   is how the receiver deduplicates. Always 0 when the message carries
///   nothing.
/// * `physical` — epoch the *object* reaches `to` per the trace; unlike
///   `arrive`, never stretched by delivery faults or retransmission. A copy
///   with `arrive > physical` is late state merged into an engine that
///   already cold-started the object, and state older than the tag's last
///   local departure is stale.
/// * `inference` — migrating inference state (see [`MigrationStrategy`]),
///   already encoded in the run's wire codec: exactly the bytes charged to
///   [`MessageKind::InferenceState`]. `None` when nothing migrates (the
///   `None` strategy, or a container tag re-localized from its own
///   readings), which costs no message at all.
pub(crate) type ShipmentMsg = PendingShipment;

/// Generation order — epochs ascending, then origin site, then route, then
/// tag: the order a site imports a batch in, so it imports identically no
/// matter which slice of which sender delivered which part of it first.
pub(super) fn order_key(msg: &ShipmentMsg) -> (Epoch, u16, u16, TagId) {
    (msg.depart, msg.from, msg.to, msg.tag)
}

/// Whether this message carries anything to deliver; empty ones (the `None`
/// strategy, container tags) have nothing to sequence, import or book.
fn is_envelope(msg: &ShipmentMsg) -> bool {
    msg.inference.is_some() || !msg.query.is_empty()
}

fn payload_len(msg: &ShipmentMsg) -> u64 {
    msg.inference.as_ref().map_or(0, Vec::len) as u64
}

impl SiteState<'_> {
    /// Buffer an inbound shipment until its arrival epoch, journaling it
    /// first if this site can crash: the journal is the durable receive log
    /// a restore re-enqueues, so no shipment is lost with the volatile inbox.
    pub(crate) fn receive(&mut self, msg: ShipmentMsg) {
        if self.crash.is_some() {
            self.journal.push(msg.clone());
        }
        self.enqueue(msg);
    }

    /// Insert into the volatile inbox without journaling (the restore path,
    /// which re-enqueues already-journaled shipments).
    pub(super) fn enqueue(&mut self, msg: ShipmentMsg) {
        self.inbox.entry(msg.arrive).or_default().push(msg);
    }

    /// Import every shipment that arrived at `now` from an *earlier* epoch's
    /// departures.
    ///
    /// Shipments with `depart == now` (zero transit) are held back: an
    /// inbound neighbour may already have run its epoch-`now` departures,
    /// and their place is after this site's own —
    /// [`Self::deliver_zero_transit`] imports them there.
    pub(super) fn deliver(&mut self, now: Epoch) {
        if let Some(batch) = self.inbox.remove(&now) {
            let (ready, hold): (Vec<ShipmentMsg>, Vec<ShipmentMsg>) =
                batch.into_iter().partition(|msg| msg.depart < now);
            if !hold.is_empty() {
                self.inbox.insert(now, hold);
            }
            self.import(ready);
        }
    }

    /// Import this epoch's zero-transit shipments (`depart == arrive ==
    /// now`), which the departure pass just produced.
    pub(super) fn deliver_zero_transit(&mut self, now: Epoch) {
        if let Some(batch) = self.inbox.remove(&now) {
            self.import(batch);
        }
    }

    /// Charge one control message of this site's.
    fn send_control(&mut self, msg: &ControlMsg) {
        let bytes = self.ctx.codec.encode_control(msg).len();
        self.unit.tally.comm.record(MessageKind::Control, bytes);
    }

    /// Ask `peer` for anti-entropy resync of everything since `since`,
    /// charged like any other control traffic.
    pub(super) fn request_resync(&mut self, peer: u16, since: Epoch) {
        self.send_control(&ControlMsg::Resync {
            site: self.site as u16,
            peer,
            since,
        });
        self.unit.tally.resyncs += 1;
    }

    /// Import a batch in generation order. Every envelope passes the same
    /// gauntlet — ledger, dedup, staleness guard, decode — before anything
    /// reaches the engine or the query processor.
    pub(super) fn import(&mut self, mut batch: Vec<ShipmentMsg>) {
        batch.sort_by_key(order_key);
        let me = self.site as u16;
        let acked = self.ctx.transport_mode == TransportMode::Reliable;
        for msg in batch.into_iter().filter(is_envelope) {
            let peer = msg.from;
            let entry = self.unit.tally.ledger(peer, me);
            entry.recv_copies += 1;
            entry.recv_bytes += payload_len(&msg);
            if acked {
                // The receiver acks every arriving copy — duplicates
                // included, since the sender may be retransmitting
                // precisely because an earlier ack was lost. Real encoded
                // bytes, booked at the ack sender.
                self.send_control(&ControlMsg::Ack {
                    from: me,
                    to: peer,
                    seq: msg.seq,
                });
            }
            // At-most-once delivery: retransmitted (and fault-duplicated)
            // copies of a sequence number never reach the engine twice —
            // imported state is *added* to the local prior, so a second
            // import would double it.
            if !self.dedup.entry(peer).or_default().accept(msg.seq) {
                continue;
            }
            self.unit.tally.ledger(peer, me).accepted += 1;
            // Staleness guard: if the tag already departed this site
            // after the physical arrival this copy belongs to, its state
            // would resurrect a forwarded object — drop it.
            if self
                .forgotten
                .get(&msg.tag)
                .is_some_and(|&gone| gone > msg.physical)
            {
                self.unit.tally.ledger(peer, me).stale += 1;
                continue;
            }
            if let Some(payload) = &msg.inference {
                let Ok(state) = self.ctx.codec.decode_migration(payload) else {
                    // Poison quarantine: a corrupted payload is a typed
                    // decode error, never a panic. The whole envelope is
                    // suspect, so its query state is dropped too and the
                    // receiver degrades to None-semantics for this object
                    // (cold-started from local readings). A reliable
                    // receiver additionally asks the sender for
                    // anti-entropy resync.
                    let entry = QuarantineEntry {
                        from: peer,
                        seq: msg.seq,
                        physical: msg.physical,
                    };
                    self.unit.tally.quarantine.push((SiteId(me), entry));
                    self.unit.tally.ledger(peer, me).quarantined += 1;
                    if acked {
                        self.request_resync(peer, msg.physical);
                    }
                    continue;
                };
                // State merges through the dirty-set journal whenever it
                // lands, so incremental inference re-runs it exactly. A copy
                // that lands after the object itself (delayed, or a
                // retransmission) finds it already cold-started from local
                // readings: degraded-mode reconciliation.
                let summary = self.unit.engine.import_late_state(state);
                if msg.arrive > msg.physical && summary.merged() {
                    self.unit.tally.ledger(peer, me).reconciled += 1;
                }
            }
            if !msg.query.is_empty() {
                self.unit.processor.import_state(msg.query);
            }
            self.unit.tally.ledger(peer, me).imported += 1;
        }
    }

    /// Process the dispatches leaving this site at `now`: refresh the local
    /// outcome, snapshot the departing objects' inference and query state,
    /// charge every byte, forget the objects, and hand one [`ShipmentMsg`]
    /// per copy that will arrive to `emit`.
    pub(super) fn depart(&mut self, now: Epoch, mut emit: impl FnMut(ShipmentMsg)) {
        let ctx = self.ctx;
        let config = ctx.config;
        let faults = config.faults.as_ref();
        let start = self.departure_cursor;
        let leaving = self.departures[start..].iter();
        self.departure_cursor += leaving.take_while(|tr| tr.depart == now).count();
        if start == self.departure_cursor {
            return;
        }
        // Refresh this site's outcome so exported state reflects the readings
        // collected since the last run.
        if ctx.migrates_state
            && self
                .unit
                .engine
                .last_inference_at()
                .is_none_or(|last| now.since(last) >= FORCED_RUN_SPACING_SECS)
        {
            self.unit.refresh(now);
        }
        // Group the dispatch by route *and arrival epoch*, so that staggered
        // arrivals on one route import state at their own epochs and query
        // state is shared per physical shipment (the objects that actually
        // travel together).
        let from = self.site as u16;
        let mut by_shipment: BTreeMap<(u16, Epoch), Vec<TagId>> = BTreeMap::new();
        for tr in &self.departures[start..self.departure_cursor] {
            if ctx.migrates_state {
                let comm = &mut self.unit.tally.comm;
                comm.record(MessageKind::OnsUpdate, ONS_UPDATE_BYTES);
            }
            by_shipment
                .entry((tr.to_site.0, tr.arrive))
                .or_default()
                .push(tr.tag);
        }
        for ((to, arrive), tags) in by_shipment {
            let mut shipment_states: Vec<ObjectQueryState> = Vec::new();
            // Transmissions of the physical shipment's query bundle: under a
            // reliable transport the bundle rides on every retransmission, so
            // it is charged once per the slowest envelope's attempt count.
            let mut group_attempts = 1u32;
            // Tags whose readings are already on this shipment: objects of
            // one case share candidate containers, whose critical-region
            // readings would otherwise travel once per object. Nothing
            // mutates the engine's store or outcome before the `forget` loop
            // that ends the group, which is what makes skipping a tag exactly
            // reading-level dedup.
            let mut shipped_tags: BTreeSet<TagId> = BTreeSet::new();
            for &tag in &tags {
                // Inference state: objects carry state, containers are
                // re-localized from their own readings at the next site.
                let state = if !tag.is_object() {
                    MigrationState::None
                } else {
                    match config.strategy {
                        MigrationStrategy::None => MigrationState::None,
                        MigrationStrategy::CollapsedWeights => {
                            MigrationState::Collapsed(self.unit.engine.export_collapsed(tag))
                        }
                        MigrationStrategy::CriticalRegionReadings => MigrationState::Readings(
                            self.unit
                                .engine
                                .export_readings_for_shipment(tag, &mut shipped_tags),
                        ),
                        MigrationStrategy::Centralized => unreachable!(),
                    }
                };
                // Encode with the run's wire codec: the encoded length is the
                // communication cost, and the same bytes travel in the
                // shipment and are decoded at the destination. Carrying no
                // state costs no message.
                let inference = match state {
                    MigrationState::None => None,
                    state => {
                        let payload = ctx.codec.encode_migration(&state);
                        let comm = &mut self.unit.tally.comm;
                        comm.record(MessageKind::InferenceState, payload.len());
                        Some(payload)
                    }
                };
                // Query state travels per object so the automaton run
                // continues seamlessly at the next site. Under `None` nothing
                // at all crosses the boundary, so the automaton restarts cold
                // — that is the baseline.
                let query = if ctx.with_queries && ctx.migrates_state && tag.is_object() {
                    self.unit.processor.export_state(tag)
                } else {
                    Vec::new()
                };
                shipment_states.extend(query.iter().cloned());
                // Delivery faults are decided sender-side from the message's
                // identifying key, so every worker (and a crash replay)
                // injects the same delay or duplicate for the same shipment.
                // A delayed arrival past the horizon is never delivered.
                let delay = faults.map_or(0, |p| p.shipment_delay_secs(from, to, tag, now));
                let duplicated = faults.is_some_and(|p| p.shipment_duplicated(from, to, tag, now));
                let mut msg = ShipmentMsg {
                    depart: now,
                    from,
                    to,
                    tag,
                    arrive: Epoch(arrive.0.saturating_add(delay)),
                    seq: 0,
                    physical: arrive,
                    inference,
                    query,
                };
                // Every envelope rides the sequenced channel (crash restore
                // rebuilds the sequence counters from exactly this predicate,
                // so it must stay a pure function of the strategy and the
                // tag).
                debug_assert_eq!(
                    is_envelope(&msg),
                    ctx.migrates_state && tag.is_object(),
                    "envelope predicate drifted from the seq-rebuild rule"
                );
                let sequenced = is_envelope(&msg);
                // Delivery: which attempts are transmitted and when each
                // surviving copy arrives — one attempt unless the plan can
                // lose it.
                let mut delivery = DeliveryPlan::one_attempt(msg.arrive);
                if sequenced {
                    msg.seq = self.seqs.next(to);
                    // Poison injection: a corrupted link flips a bit in the
                    // encoded payload. Keyed by `(edge, seq)` so every
                    // retransmitted copy of one envelope carries the
                    // identical corruption and every replay poisons the same
                    // envelopes.
                    if faults.is_some_and(|p| p.payload_corrupted(from, to, msg.seq)) {
                        if let Some(byte) = msg.inference.as_mut().and_then(|p| p.first_mut()) {
                            *byte ^= 0x80;
                        }
                    }
                    if ctx.transport_mode == TransportMode::Reliable {
                        // The whole ack/retransmit exchange is simulated
                        // sender-side, a pure function of the fault plan.
                        delivery = DeliveryPlan::compute(
                            faults.expect("reliable transport implies a fault plan"),
                            &config.transport,
                            from,
                            to,
                            tag,
                            now,
                            msg.arrive,
                            Epoch(ctx.horizon),
                        );
                    }
                }
                // A fault-duplicated copy rides along with the first arrival,
                // for the receiver's dedup to drop. An abandoned envelope has
                // no arrivals at all — the retry budget ran out (or the
                // partition outlived the horizon), so the destination never
                // sees this state and cold-starts the physically-arrived
                // object: degraded mode.
                let mut arrivals = delivery.arrivals;
                if let Some(&first) = arrivals.first().filter(|_| duplicated) {
                    arrivals.insert(0, first);
                }
                // Account: the payload is charged once per transmission.
                if sequenced {
                    let tally = &mut self.unit.tally;
                    let copies = arrivals.len() as u64;
                    let entry = tally.ledger(from, to);
                    entry.envelopes += 1;
                    entry.transmissions += u64::from(delivery.attempts);
                    entry.abandoned += u64::from(delivery.abandoned);
                    entry.sent_copies += copies;
                    entry.sent_bytes += payload_len(&msg) * copies;
                    if let Some(payload) = &msg.inference {
                        for _ in 1..delivery.attempts {
                            tally
                                .comm
                                .record(MessageKind::InferenceState, payload.len());
                        }
                    }
                    group_attempts = group_attempts.max(delivery.attempts);
                }
                // Emit one copy per arrival.
                let last = arrivals.pop();
                for arrive in arrivals {
                    emit(ShipmentMsg {
                        arrive,
                        ..msg.clone()
                    });
                }
                if let Some(arrive) = last {
                    emit(ShipmentMsg { arrive, ..msg });
                }
            }
            // Centroid-based sharing: compress the query states of this
            // shipment's objects (Section 4.2) over payloads in the run's
            // wire format, and charge the encoded bundle size. The unshared
            // baseline is measured in the same format so the Section 5.4
            // comparison stays apples-to-apples, and a shipment whose bundle
            // framing would exceed the plain states ships them unbundled —
            // the shipment-level analogue of the per-state full-payload
            // fallback inside `delta_against`, keeping "sharing never makes
            // migration more expensive" true under every codec.
            if let Some(bundle) =
                share_states_with(&shipment_states, |s| ctx.codec.state_payload(s))
            {
                let bundled = ctx.codec.encode_bundle(&bundle).len();
                let unshared = unshared_bytes_with(&shipment_states, |s| {
                    ctx.codec.encode_query_state(s).len()
                });
                let shared = bundled.min(unshared);
                let tally = &mut self.unit.tally;
                tally.shared_bytes += shared;
                tally.unshared_bytes += unshared;
                // The sharing-efficiency comparison (Section 5.4) counts the
                // logical bundle once; the wire tally charges it once per
                // transmission of the shipment it rides on.
                for _ in 0..group_attempts {
                    tally.comm.record(MessageKind::QueryState, shared);
                }
            }
            // The state has left the building.
            for &tag in &tags {
                self.unit.engine.forget(tag);
                self.unit.processor.forget(tag);
                self.forgotten.insert(tag, now);
            }
        }
    }

    /// Conservation drain at the horizon: copies still in the inbox (the
    /// site was down from their arrival through the horizon, or a delay
    /// fault pushed the arrival past it) are booked as undelivered, so the
    /// per-edge ledgers balance instead of silently losing them. The dedup
    /// probe distinguishes a leftover duplicate of an accepted envelope from
    /// an envelope that never got through.
    pub(super) fn book_undelivered(&mut self) {
        let me = self.site as u16;
        let leftover = std::mem::take(&mut self.inbox).into_values().flatten();
        for msg in leftover.filter(is_envelope) {
            let fresh = self.dedup.entry(msg.from).or_default().accept(msg.seq);
            let entry = self.unit.tally.ledger(msg.from, me);
            entry.undelivered += 1;
            entry.undelivered_bytes += payload_len(&msg);
            entry.dark_envelopes += u64::from(fresh);
        }
    }
}
