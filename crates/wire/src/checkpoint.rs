//! The site-checkpoint payload family (`0x07`): a site's complete durable
//! state as one serialized artifact.
//!
//! A [`SiteCheckpoint`] bundles everything a crashed site needs to resume —
//! the inference engine's snapshot (observations, priors, containment,
//! detected changes, last outcome without its point evidence, dirty journal,
//! evidence-cache keys), the query processor's snapshot (sensor window, automata, alerts), the trace cursors,
//! the pending-shipment inbox, and the communication accounting — under the
//! same framing as every other wire payload. Checkpoints therefore inherit
//! the codec's guarantees: `decode(encode(cp)) == cp` bit-exactly (including
//! `f64` bit patterns), and hostile bytes produce typed [`WireError`]s, never
//! panics.
//!
//! The binary body opens with one site-wide [`TagTable`] covering every tag
//! mentioned anywhere in the checkpoint; all tag references are table
//! indices, epoch sequences are zigzag deltas, and floats are raw IEEE-754
//! bits.

use crate::codec::{message, parse, KIND_CHECKPOINT};
use crate::layout::{
    counters, get_keyed, get_run, put_keyed, put_run, put_seq, wire_struct, Counters, Delta, Plain,
    TagRefs, Wire,
};
use crate::primitives::{Reader, TagTable, Writer};
use crate::{WireCodec, WireError};
use rfid_core::{
    CacheKeys, DetectedChange, DirtySet, EngineSnapshot, InferenceOutcome, InferenceStats,
    MemoryStats, Observations, PriorWeights, ReaderSet, VariantKey,
};
use rfid_query::{Alert, ObjectQueryState, ProcessorSnapshot};
use rfid_types::{ContainmentMap, Epoch, LocationId, RawReading, SensorReading, TagId};
use std::collections::BTreeMap;

/// One shipment that had arrived at (or was in flight toward) a site when
/// its checkpoint was cut: the durable form of the driver's in-memory
/// shipment messages.
///
/// The migrated inference state stays in its *encoded* form (`inference`):
/// the bytes were produced by the sender's codec and are decoded only when
/// the shipment is delivered, so checkpointing never re-encodes them.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingShipment {
    /// Epoch at which the shipment left its origin site.
    pub depart: Epoch,
    /// Origin site index.
    pub from: u16,
    /// Destination site index.
    pub to: u16,
    /// The shipped object.
    pub tag: TagId,
    /// Epoch at which the shipment arrives.
    pub arrive: Epoch,
    /// Per-edge transport sequence number (0 when the shipment carries no
    /// state).
    pub seq: u64,
    /// Epoch at which the physical object arrives; `arrive` is when the
    /// *state message* is delivered, which trails it under retransmission.
    pub physical: Epoch,
    /// Encoded migration state travelling with the object, if any.
    pub inference: Option<Vec<u8>>,
    /// Query state travelling with the object.
    pub query: Vec<ObjectQueryState>,
}

/// Durable dedup state of one incoming transport edge: every sequence number
/// `<= watermark` has been delivered, plus a sparse set of out-of-order
/// extras above it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeSeqs {
    /// The sending peer site.
    pub peer: u16,
    /// Highest sequence number below which everything was delivered.
    pub watermark: u64,
    /// Delivered sequence numbers above the watermark, ascending.
    pub extras: Vec<u64>,
}

/// Reliable-transport counters of one site or a whole run: a view of its
/// [`EdgeLedger`]s, built only by [`TransportStats::from_ledgers`]. Every
/// counter but `resyncs` is a ledger sum or a difference of two.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Logical payloads handed to the transport (one per shipment group
    /// member or forwarded batch).
    pub envelopes: u64,
    /// Transmission attempts that left the sender (first sends and
    /// retransmissions).
    pub transmissions: u64,
    /// Attempts beyond the first per envelope.
    pub retransmissions: u64,
    /// Acks sent by receivers (lost or not).
    pub acks: u64,
    /// Arrivals dropped by receiver-side dedup.
    pub duplicates_dropped: u64,
    /// Late state messages merged into a live engine after a degraded
    /// cold-start ingest.
    pub reconciled: u64,
    /// Late state messages dropped because the object had already departed
    /// again.
    pub stale_dropped: u64,
    /// Envelopes that exhausted their retry budget (or the horizon) without
    /// a single arrival.
    pub abandoned: u64,
    /// Anti-entropy resync requests: not envelopes, so no ledger books them.
    pub resyncs: u64,
    /// Arrivals whose payload failed to decode and were quarantined instead
    /// of delivered (poison-message handling).
    pub quarantined: u64,
}

impl TransportStats {
    /// The sums of `ledgers`, plus `resyncs`; `acked` says whether the
    /// receivers acked every arriving copy (a reliable run).
    pub fn from_ledgers<'a>(
        ledgers: impl IntoIterator<Item = &'a EdgeLedger>,
        acked: bool,
        resyncs: u64,
    ) -> TransportStats {
        let mut sum = EdgeLedger::default();
        for ledger in ledgers {
            sum.add_counters(ledger);
        }
        // Every envelope departs at or before the horizon, so it makes at
        // least one attempt.
        debug_assert!(sum.transmissions >= sum.envelopes, "{sum:?}");
        TransportStats {
            envelopes: sum.envelopes,
            transmissions: sum.transmissions,
            retransmissions: sum.transmissions.saturating_sub(sum.envelopes),
            acks: if acked { sum.recv_copies } else { 0 },
            duplicates_dropped: sum.recv_copies.saturating_sub(sum.accepted),
            reconciled: sum.reconciled,
            stale_dropped: sum.stale,
            abandoned: sum.abandoned,
            resyncs,
            quarantined: sum.quarantined,
        }
    }

    /// Envelopes that reached their destination at least once.
    pub fn delivered(&self) -> u64 {
        self.envelopes.saturating_sub(self.abandoned)
    }
}

/// One quarantined arrival: an envelope whose payload failed to decode at
/// the receiver. Durable in the checkpoint so a crash-restore replay
/// converges on the same quarantine ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantineEntry {
    /// The sending peer site.
    pub from: u16,
    /// The envelope's per-edge transport sequence number.
    pub seq: u64,
    /// Epoch of the physical arrival the poisoned state message accompanied.
    pub physical: Epoch,
}

/// Per-directed-edge conservation ledger, filled on both ends of the edge:
/// the sender books what it hands to the transport, the receiver books what
/// comes out (copies still sitting in a dark receiver's inbox at the end of
/// the run are booked as undelivered). It is the only book of transport
/// facts: [`TransportStats`] is derived from it. The invariant oracles check
/// that the two sides balance —
/// `envelopes == abandoned + accepted + dark_envelopes`,
/// `sent_copies == recv_copies + undelivered`,
/// `sent_bytes == recv_bytes + undelivered_bytes` and
/// `accepted == imported + stale + quarantined`
/// — so no envelope is ever silently lost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdgeLedger {
    /// Origin site of the edge.
    pub from: u16,
    /// Destination site of the edge.
    pub to: u16,
    /// Envelopes the sender handed to the transport on this edge.
    pub envelopes: u64,
    /// Transmission attempts of those envelopes (first sends and
    /// retransmissions).
    pub transmissions: u64,
    /// Envelopes the sender gave up on (no copy ever arrives).
    pub abandoned: u64,
    /// Transmitted copies that arrive at the receiver (sender's view).
    pub sent_copies: u64,
    /// Payload bytes of those arriving copies (sender's view).
    pub sent_bytes: u64,
    /// Copies that actually arrived (receiver's view, before dedup).
    pub recv_copies: u64,
    /// Payload bytes of arrived copies (receiver's view).
    pub recv_bytes: u64,
    /// Envelopes accepted after dedup (first arrival of each sequence).
    pub accepted: u64,
    /// Accepted envelopes whose state was delivered or reconciled.
    pub imported: u64,
    /// Imported envelopes whose state landed after the object itself and
    /// merged into an engine that had already cold-started it.
    pub reconciled: u64,
    /// Accepted envelopes dropped as stale (object already departed again).
    pub stale: u64,
    /// Accepted envelopes quarantined because their payload failed to
    /// decode.
    pub quarantined: u64,
    /// Copies still sitting undelivered in the receiver's inbox when the run
    /// ended (the receiver was down from their arrival through the horizon).
    pub undelivered: u64,
    /// Payload bytes of those undelivered copies.
    pub undelivered_bytes: u64,
    /// Envelopes none of whose copies were ever processed (every copy ended
    /// the run undelivered) — the receiver-side complement of `abandoned`.
    pub dark_envelopes: u64,
}

impl EdgeLedger {
    /// A zeroed ledger for one directed edge.
    pub fn new(from: u16, to: u16) -> EdgeLedger {
        EdgeLedger {
            from,
            to,
            ..EdgeLedger::default()
        }
    }

    /// Fold `other` (a ledger of the same edge) into `self`.
    pub fn merge(&mut self, other: &EdgeLedger) {
        self.add_counters(other);
    }
}

/// A site's complete durable state at one epoch, as a wire payload.
///
/// Produced by the distributed driver's checkpoint policy and consumed on
/// restore after a crash; also a first-class serialized artifact (kind
/// `0x07`) that round-trips bitwise through [`WireCodec::encode_checkpoint`]
/// / [`WireCodec::decode_checkpoint`].
#[derive(Debug, Clone, PartialEq)]
pub struct SiteCheckpoint {
    /// The site this checkpoint belongs to.
    pub site: u16,
    /// The epoch at whose end the checkpoint was cut.
    pub at: Epoch,
    /// The inference engine's durable state.
    pub engine: EngineSnapshot,
    /// The query processor's durable state.
    pub processor: ProcessorSnapshot,
    /// Number of trace readings already ingested.
    pub reading_cursor: u64,
    /// Number of sensor readings already ingested.
    pub sensor_cursor: u64,
    /// Number of departures already processed.
    pub departure_cursor: u64,
    /// Shipments received but not yet delivered, in canonical
    /// `(depart, from, to, tag)` order.
    pub inbox: Vec<PendingShipment>,
    /// Communication bytes per message kind, in the kind-table order of the
    /// distributed layer (raw readings, inference state, query state, ONS,
    /// transport control).
    pub comm_bytes: [u64; 5],
    /// Communication messages per kind, same order as `comm_bytes`.
    pub comm_messages: [u64; 5],
    /// Query-state bytes shipped with centroid sharing.
    pub shared_bytes: u64,
    /// Query-state bytes that would have shipped without sharing.
    pub unshared_bytes: u64,
    /// Inference runs executed so far.
    pub inference_runs: u64,
    /// Cache-reuse accounting accumulated so far.
    pub stats: InferenceStats,
    /// Per-in-edge transport dedup state, in ascending peer order.
    pub inbox_seqs: Vec<EdgeSeqs>,
    /// Reliable-transport counters so far: the sums of `ledgers` plus the
    /// site's resyncs, the one counter a restore reads back.
    pub transport: TransportStats,
    /// Quarantined poison arrivals, in acceptance order.
    pub quarantine: Vec<QuarantineEntry>,
    /// Memory-pressure counters accumulated so far.
    pub memory: MemoryStats,
    /// Per-directed-edge conservation ledgers this site contributed to, in
    /// ascending `(from, to)` order.
    pub ledgers: Vec<EdgeLedger>,
}

impl WireCodec {
    /// Encode a site checkpoint.
    pub fn encode_checkpoint(&self, checkpoint: &SiteCheckpoint) -> Vec<u8> {
        message(KIND_CHECKPOINT, checkpoint, TagRefs::Raw)
    }

    /// Decode a [`Self::encode_checkpoint`] message.
    pub fn decode_checkpoint(&self, bytes: &[u8]) -> Result<SiteCheckpoint, WireError> {
        parse(bytes, KIND_CHECKPOINT, TagRefs::Raw)
    }
}

// ---------------------------------------------------------------------------
// The layout: every struct's fields in wire order, once.

// The site-wide tag table sits after `at` (the `;`) and covers every tag
// mentioned anywhere below it, so all sections share indices.
wire_struct!(SiteCheckpoint: site, at;
    engine, processor, reading_cursor, sensor_cursor, departure_cursor, inbox,
    comm_bytes, comm_messages, shared_bytes, unshared_bytes, inference_runs, stats,
    inbox_seqs, transport, quarantine, memory, ledgers);
wire_struct!(EngineSnapshot: store, prior, containment, detected, last_outcome as Flag,
    last_inference_at as Flag, dirty, cache);
wire_struct!(DetectedChange: object, change_at, old_container, new_container, statistic);
wire_struct!(VariantKey: members, epochs as Delta, objects);
wire_struct!(ProcessorSnapshot: temperatures, automata, alerts);
wire_struct!(SensorReading: time, location, value);
wire_struct!(Alert: query, tag, since, at, readings as Delta);
wire_struct!(PendingShipment: depart, from, to, tag, arrive, seq, physical, inference as Flag,
    query);
wire_struct!(EdgeSeqs: peer, watermark, extras);
wire_struct!(QuarantineEntry: from, seq, physical);
wire_struct!(InferenceStats: dirty_tags, posteriors_reused, posteriors_computed, evidence_reused,
    evidence_computed);

// Each block is exactly its listed counters: a counter appended here is one
// more name in its list and a new WIRE_VERSION.
counters!(TransportStats: envelopes, transmissions, retransmissions, acks, duplicates_dropped,
    reconciled, stale_dropped, abandoned, resyncs, quarantined);
counters!(MemoryStats: high_water, compactions, compacted_observations, evicted_cache_entries);
counters!(EdgeLedger(from, to): envelopes, transmissions, abandoned, sent_copies, sent_bytes,
    recv_copies, recv_bytes, accepted, imported, reconciled, stale, quarantined, undelivered,
    undelivered_bytes, dark_envelopes);

// ---------------------------------------------------------------------------
// Keyed stores that rebuild through their own API. Each is a tag-keyed
// section (`put_keyed` / `get_keyed`, so a repeated key is rejected) whose
// values are the shared runs and sequences.

impl Wire for ContainmentMap {
    fn put(&self, w: &mut Writer, refs: TagRefs<'_>) {
        put_keyed(w, refs, self.len(), self.iter(), |container, w| {
            container.put(w, refs)
        });
    }
    fn get(r: &mut Reader<'_>, refs: TagRefs<'_>) -> Result<Self, WireError> {
        let mut map = ContainmentMap::new();
        for (object, container) in get_keyed(r, refs, |r| TagId::get(r, refs))? {
            map.set(object, container);
        }
        Ok(map)
    }
    fn tags(&self, out: &mut Vec<TagId>) {
        self.iter()
            .for_each(|(object, container)| out.extend([object, container]));
    }
}

/// The outcome's arenas in the keyed layout: the containment section, then
/// per object row its candidates in ranked order, its weights keyed by
/// candidate and its assigned container, then the location runs, the
/// iteration count and the location count. The epoch and point-evidence
/// arenas are not part of the layout (a checkpoint keeps the outcome without
/// them), so every decoded row has no epochs. Decoding refuses what the arenas
/// cannot hold: rows out of order or repeated, a weight for a tag that is
/// not a candidate, an empty run, and containment for an object without a
/// row.
impl Wire for InferenceOutcome {
    fn put(&self, w: &mut Writer, refs: TagRefs<'_>) {
        let containment = self.containment();
        put_keyed(w, refs, self.containment().count(), containment, |c, w| {
            c.put(w, refs)
        });
        let rows = self.objects().map(|row| (row.object(), row));
        put_keyed(w, refs, rows.len(), rows, |row, w| {
            row.candidates().len().put(w, refs);
            row.candidates().for_each(|c| c.put(w, refs));
            put_keyed(w, refs, row.weights().len(), row.weights(), |weight, w| {
                weight.put(w, refs)
            });
            Wire::<Plain>::put(&row.assigned(), w, refs);
        });
        put_keyed(
            w,
            refs,
            self.locations().count(),
            self.locations(),
            |run, w| {
                put_run(w, Epoch(0), run.len(), run.iter().copied(), |loc, w| {
                    loc.put(w, refs)
                });
            },
        );
        self.iterations.put(w, refs);
        self.num_locations.put(w, refs);
    }
    fn get(r: &mut Reader<'_>, refs: TagRefs<'_>) -> Result<Self, WireError> {
        let malformed = |rule: &str| WireError::new(rule);
        let containment = ContainmentMap::get(r, refs)?;
        let mut outcome = InferenceOutcome::default();
        let mut contained = 0;
        for _ in 0..usize::get(r, refs)? {
            let object = TagId::get(r, refs)?;
            let ranked = Vec::<TagId>::get(r, refs)?;
            let weights = get_keyed(r, refs, |r| f64::get(r, refs))?;
            let assigned = <Option<TagId> as Wire<Plain>>::get(r, refs)?;
            if weights.len() != ranked.len() {
                return Err(WireError::new("mismatched weight and candidate counts"));
            }
            let mut candidates = Vec::with_capacity(ranked.len());
            for c in ranked {
                let weight = weights
                    .get(&c)
                    .ok_or_else(|| WireError::new("a weight for a tag that is not a candidate"))?;
                candidates.push((c, *weight, &[][..]));
            }
            let container = containment.container_of(object);
            contained += usize::from(container.is_some());
            outcome
                .push_object(object, container, assigned, &[], &candidates)
                .map_err(malformed)?;
        }
        if contained != containment.len() {
            return Err(WireError::new("containment names an object without a row"));
        }
        for _ in 0..usize::get(r, refs)? {
            let tag = TagId::get(r, refs)?;
            let run = <Vec<(Epoch, LocationId)> as Wire<Delta>>::get(r, refs)?;
            outcome.push_locations(tag, &run).map_err(malformed)?;
        }
        outcome.iterations = usize::get(r, refs)?;
        outcome.num_locations = usize::get(r, refs)?;
        Ok(outcome)
    }
    fn tags(&self, out: &mut Vec<TagId>) {
        for row in self.objects() {
            out.push(row.object());
            out.extend(row.weights().map(|(c, _)| c));
            out.extend(row.assigned());
        }
        out.extend(self.containment().map(|(_, c)| c));
        out.extend(self.locations().map(|(tag, _)| tag));
    }
}

/// Per object, its own keyed section of `(container, weight)` priors.
impl Wire for PriorWeights {
    fn put(&self, w: &mut Writer, refs: TagRefs<'_>) {
        let objects = self.objects().map(|object| (object, object));
        put_keyed(w, refs, self.objects().count(), objects, |object, w| {
            let len = self.entries_for(object).count();
            put_keyed(w, refs, len, self.entries_for(object), |weight, w| {
                weight.put(w, refs)
            });
        });
    }
    fn get(r: &mut Reader<'_>, refs: TagRefs<'_>) -> Result<Self, WireError> {
        let mut prior = PriorWeights::empty();
        for (object, weights) in
            get_keyed(r, refs, |r| <BTreeMap<TagId, f64> as Wire>::get(r, refs))?
        {
            for (container, weight) in weights {
                prior.set(object, container, weight);
            }
        }
        Ok(prior)
    }
    fn tags(&self, out: &mut Vec<TagId>) {
        for object in self.objects() {
            out.push(object);
            out.extend(self.entries_for(object).map(|(container, _)| container));
        }
    }
}

/// A counted sequence of reader locations. A reader listed twice is the
/// duplicate observation it would decode to.
impl Wire for ReaderSet {
    fn put(&self, w: &mut Writer, refs: TagRefs<'_>) {
        put_seq(self.as_slice(), w, refs);
    }
    fn get(r: &mut Reader<'_>, refs: TagRefs<'_>) -> Result<Self, WireError> {
        let mut set = ReaderSet::new();
        for _ in 0..usize::get(r, TagRefs::Raw)? {
            if !set.insert(LocationId::get(r, refs)?) {
                return Err(WireError::new("duplicate observation in the store"));
            }
        }
        Ok(set)
    }
}

/// Per tag, a delta run of `(epoch, reader locations)`.
impl Wire for Observations {
    fn put(&self, w: &mut Writer, refs: TagRefs<'_>) {
        put_keyed(w, refs, self.tags().count(), self.entries(), |list, w| {
            let items = list.iter().map(|obs| (obs.epoch, &obs.readers));
            put_run(w, Epoch(0), list.len(), items, |readers, w| {
                readers.put(w, refs)
            });
        });
    }
    fn get(r: &mut Reader<'_>, refs: TagRefs<'_>) -> Result<Self, WireError> {
        let runs = get_keyed(r, refs, |r| {
            get_run(r, Epoch(0), |r| ReaderSet::get(r, refs))
        })?;
        let mut store = Observations::new();
        for (tag, run) in runs {
            for (epoch, locations) in run {
                for location in locations.iter() {
                    if !store.insert(RawReading::new(epoch, tag, location.reader())) {
                        return Err(WireError::new("duplicate observation in the store"));
                    }
                }
            }
        }
        Ok(store)
    }
    fn tags(&self, out: &mut Vec<TagId>) {
        out.extend(Observations::tags(self));
    }
}

/// Per tag, a bare epoch run (empty for a tag that was only marked).
impl Wire for DirtySet {
    fn put(&self, w: &mut Writer, refs: TagRefs<'_>) {
        put_keyed(w, refs, self.num_tags(), self.entries(), |epochs, w| {
            let items = epochs.iter().map(|epoch| (*epoch, ()));
            put_run(w, Epoch(0), epochs.len(), items, |(), _| {});
        });
    }
    fn get(r: &mut Reader<'_>, refs: TagRefs<'_>) -> Result<Self, WireError> {
        let mut dirty = DirtySet::new();
        for (tag, epochs) in get_keyed(r, refs, |r| <Vec<Epoch> as Wire<Delta>>::get(r, refs))? {
            dirty.mark(tag);
            let declared = epochs.len();
            dirty.record_all(tag, epochs);
            if dirty.epochs_of(tag).map_or(0, |set| set.len()) != declared {
                return Err(WireError::new("duplicate epoch in the dirty journal"));
            }
        }
        Ok(dirty)
    }
    fn tags(&self, out: &mut Vec<TagId>) {
        out.extend(self.entries().map(|(tag, _)| tag));
    }
}

/// Per container, the sequence of its cached variants' keys.
impl Wire for CacheKeys {
    fn put(&self, w: &mut Writer, refs: TagRefs<'_>) {
        put_keyed(
            w,
            refs,
            self.containers().len(),
            self.containers(),
            |variants, w| put_seq(variants, w, refs),
        );
    }
    fn get(r: &mut Reader<'_>, refs: TagRefs<'_>) -> Result<Self, WireError> {
        let mut keys = CacheKeys::new();
        for (container, variants) in get_keyed(r, refs, |r| Wire::get(r, refs))? {
            keys.insert(container, variants).map_err(WireError::new)?;
        }
        Ok(keys)
    }
    fn tags(&self, out: &mut Vec<TagId>) {
        for (container, variants) in self.containers() {
            out.push(container);
            variants.iter().for_each(|variant| variant.tags(out));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WireFormat;
    use rfid_query::AutomatonState;
    use rfid_types::ReaderId;

    /// A checkpoint exercising every section: observations, priors,
    /// containment, detected changes, an outcome, dirty journal, cache
    /// keys, processor state with alerts, a pending shipment, and
    /// non-zero accounting.
    fn sample() -> SiteCheckpoint {
        let mut store = Observations::new();
        for t in 0..5u32 {
            store.insert(RawReading::new(Epoch(t), TagId::item(1), ReaderId(0)));
            store.insert(RawReading::new(Epoch(t), TagId::case(1), ReaderId(0)));
        }
        let mut prior = PriorWeights::empty();
        prior.set(TagId::item(1), TagId::case(1), -0.5);
        prior.set(TagId::item(1), TagId::case(2), -40.25);
        let mut containment = ContainmentMap::new();
        containment.set(TagId::item(1), TagId::case(1));
        let mut dirty = DirtySet::new();
        dirty.mark(TagId::item(2));
        dirty.record(TagId::item(1), Epoch(4));
        let mut cache = CacheKeys::new();
        cache
            .insert(
                TagId::case(1),
                vec![VariantKey {
                    members: vec![TagId::item(1)],
                    epochs: vec![Epoch(1), Epoch(3)],
                    objects: vec![TagId::item(1)],
                }],
            )
            .unwrap();
        let mut outcome = InferenceOutcome::new(3, 4);
        outcome
            .push_object(
                TagId::item(1),
                Some(TagId::case(1)),
                Some(TagId::case(1)),
                &[],
                &[(TagId::case(1), 4.5, &[]), (TagId::case(2), -1e-300, &[])],
            )
            .unwrap();
        outcome
            .push_locations(TagId::case(1), &[(Epoch(0), LocationId(0))])
            .unwrap();
        let engine = EngineSnapshot {
            store,
            prior,
            containment,
            detected: vec![DetectedChange {
                object: TagId::item(1),
                change_at: Epoch(3),
                old_container: Some(TagId::case(2)),
                new_container: Some(TagId::case(1)),
                statistic: 7.25,
            }],
            last_outcome: Some(outcome),
            last_inference_at: Some(Epoch(4)),
            dirty,
            cache,
        };
        let processor = ProcessorSnapshot {
            temperatures: vec![SensorReading::new(Epoch(2), LocationId(1), 21.5)],
            automata: vec![ObjectQueryState {
                query: "Q1".to_string(),
                tag: TagId::item(1),
                automaton: AutomatonState::Accumulating {
                    since: Epoch(1),
                    readings: vec![(Epoch(1), 21.5), (Epoch(2), 22.0)],
                    fired: false,
                },
            }],
            alerts: vec![Alert {
                query: "Q1".to_string(),
                tag: TagId::item(7),
                since: Epoch(0),
                at: Epoch(3),
                readings: vec![(Epoch(0), 20.0), (Epoch(3), 24.0)],
            }],
        };
        SiteCheckpoint {
            site: 2,
            at: Epoch(4),
            engine,
            processor,
            reading_cursor: 10,
            sensor_cursor: 1,
            departure_cursor: 0,
            inbox: vec![PendingShipment {
                depart: Epoch(3),
                from: 1,
                to: 2,
                tag: TagId::item(9),
                arrive: Epoch(5),
                seq: 17,
                physical: Epoch(4),
                inference: Some(vec![1, 2, 3]),
                query: vec![ObjectQueryState {
                    query: "Q2".to_string(),
                    tag: TagId::item(9),
                    automaton: AutomatonState::Idle,
                }],
            }],
            comm_bytes: [0, 120, 30, 8, 6],
            comm_messages: [0, 2, 1, 1, 1],
            shared_bytes: 30,
            unshared_bytes: 45,
            inference_runs: 2,
            stats: InferenceStats {
                dirty_tags: 2,
                posteriors_reused: 5,
                posteriors_computed: 7,
                evidence_reused: 11,
                evidence_computed: 13,
            },
            inbox_seqs: vec![
                EdgeSeqs {
                    peer: 0,
                    watermark: 4,
                    extras: vec![6, 9],
                },
                EdgeSeqs {
                    peer: 1,
                    watermark: 17,
                    extras: Vec::new(),
                },
            ],
            transport: TransportStats {
                envelopes: 12,
                transmissions: 15,
                retransmissions: 3,
                acks: 14,
                duplicates_dropped: 2,
                reconciled: 1,
                stale_dropped: 0,
                abandoned: 1,
                resyncs: 1,
                quarantined: 1,
            },
            quarantine: vec![QuarantineEntry {
                from: 1,
                seq: 9,
                physical: Epoch(3),
            }],
            memory: rfid_core::MemoryStats {
                high_water: 40,
                compactions: 2,
                compacted_observations: 17,
                evicted_cache_entries: 3,
            },
            ledgers: vec![
                EdgeLedger {
                    from: 1,
                    to: 2,
                    envelopes: 12,
                    transmissions: 15,
                    abandoned: 1,
                    sent_copies: 13,
                    sent_bytes: 260,
                    recv_copies: 13,
                    recv_bytes: 260,
                    accepted: 11,
                    imported: 9,
                    reconciled: 1,
                    stale: 1,
                    quarantined: 1,
                    undelivered: 1,
                    undelivered_bytes: 20,
                    dark_envelopes: 1,
                },
                EdgeLedger::new(2, 0),
            ],
        }
    }

    #[test]
    fn checkpoints_round_trip_in_both_formats() {
        let checkpoint = sample();
        let codec = WireCodec::new(WireFormat::Binary);
        let bytes = codec.encode_checkpoint(&checkpoint);
        assert_eq!(codec.decode_checkpoint(&bytes).unwrap(), checkpoint);
    }

    #[test]
    fn empty_checkpoint_round_trips() {
        let empty = SiteCheckpoint {
            site: 0,
            at: Epoch(0),
            engine: EngineSnapshot {
                store: Observations::new(),
                prior: PriorWeights::empty(),
                containment: ContainmentMap::new(),
                detected: Vec::new(),
                last_outcome: None,
                last_inference_at: None,
                dirty: DirtySet::new(),
                cache: CacheKeys::new(),
            },
            processor: ProcessorSnapshot {
                temperatures: Vec::new(),
                automata: Vec::new(),
                alerts: Vec::new(),
            },
            reading_cursor: 0,
            sensor_cursor: 0,
            departure_cursor: 0,
            inbox: Vec::new(),
            comm_bytes: [0; 5],
            comm_messages: [0; 5],
            shared_bytes: 0,
            unshared_bytes: 0,
            inference_runs: 0,
            stats: InferenceStats::default(),
            inbox_seqs: Vec::new(),
            transport: TransportStats::default(),
            quarantine: Vec::new(),
            memory: rfid_core::MemoryStats::default(),
            ledgers: Vec::new(),
        };
        let codec = WireCodec::new(WireFormat::Binary);
        let bytes = codec.encode_checkpoint(&empty);
        assert_eq!(codec.decode_checkpoint(&bytes).unwrap(), empty);
    }

    /// `merge` and the encoding are derived from one counter list, so
    /// neither can skip a counter — and `{:?}` names every field, so a field
    /// missing from that list would show up here as a zero.
    #[test]
    fn merge_doubles_every_counter_and_nothing_else() {
        fn filled<T: Counters + std::fmt::Debug>(mut value: T) -> T {
            for (i, slot) in value.counters_mut().enumerate() {
                *slot = i as u64 + 1;
            }
            assert!(!format!("{value:?}").contains(": 0"), "{value:?}");
            value
        }
        filled(TransportStats::default());

        let ledger = filled(EdgeLedger::new(7, 9));
        let mut merged = ledger;
        merged.merge(&ledger);
        let doubled: Vec<u64> = ledger.counters().map(|c| 2 * c).collect();
        assert_eq!(merged.counters().collect::<Vec<_>>(), doubled);
        assert_eq!((merged.from, merged.to), (7, 9));
    }

    /// Nine counters are ledger sums or differences of them; `acks` exists
    /// only on an acked run, and `resyncs` is passed in.
    #[test]
    fn transport_stats_are_read_off_the_ledgers() {
        let ledgers = sample().ledgers;
        let derived = |acked| TransportStats::from_ledgers(&ledgers, acked, 4);
        assert_eq!(
            derived(true),
            TransportStats {
                envelopes: 12,
                transmissions: 15,
                retransmissions: 3,
                acks: 13,
                duplicates_dropped: 2,
                reconciled: 1,
                stale_dropped: 1,
                abandoned: 1,
                resyncs: 4,
                quarantined: 1,
            }
        );
        assert_eq!(
            derived(false),
            TransportStats {
                acks: 0,
                ..derived(true)
            }
        );
    }

    #[test]
    fn missing_trailing_sections_are_rejected() {
        // Every section must be present: a checkpoint cut off before the
        // chaos sections is truncated, not a silently-defaulted decode.
        let binary = WireCodec::new(WireFormat::Binary);
        let mut checkpoint = sample();
        checkpoint.quarantine.clear();
        checkpoint.memory = rfid_core::MemoryStats::default();
        checkpoint.ledgers.clear();
        let bytes = binary.encode_checkpoint(&checkpoint);
        // The empty trailing sections are quarantine count 0, four zero
        // memory counters, ledger count 0 = 6 varint bytes.
        for cut in 1..=6 {
            let mut old = bytes.clone();
            old.truncate(old.len() - cut);
            assert!(
                binary.decode_checkpoint(&old).is_err(),
                "cutting {cut} trailing bytes must not decode"
            );
        }
    }

    /// The memory block as a codec that knew one counter fewer would write
    /// it.
    #[derive(Default)]
    struct ShortMemory {
        high_water: u64,
        compactions: u64,
        compacted_observations: u64,
    }
    counters!(ShortMemory: high_water, compactions, compacted_observations);

    /// A counter block is exactly its declared counters: a block one counter
    /// short is a typed error, never a decode with the missing counter zero.
    #[test]
    fn a_counter_block_one_short_is_rejected() {
        let binary = WireCodec::new(WireFormat::Binary);
        let mut checkpoint = sample();
        checkpoint.ledgers.clear();
        let mut bytes = binary.encode_checkpoint(&checkpoint);
        // The checkpoint ends with the memory block and an empty ledger list.
        let block = |value: &dyn Fn(&mut Writer)| {
            let mut w = Writer::new();
            value(&mut w);
            w.into_bytes()
        };
        let full = block(&|w| checkpoint.memory.put(w, TagRefs::Raw));
        let memory = checkpoint.memory;
        let short = block(&|w| {
            ShortMemory {
                high_water: memory.high_water,
                compactions: memory.compactions,
                compacted_observations: memory.compacted_observations,
            }
            .put(w, TagRefs::Raw)
        });
        bytes.truncate(bytes.len() - full.len() - 1);
        bytes.extend(short);
        bytes.push(0);
        let err = binary.decode_checkpoint(&bytes).unwrap_err();
        assert_eq!(err.kind(), crate::WireErrorKind::Truncated, "{err}");
    }

    #[test]
    fn corrupted_checkpoints_are_rejected() {
        let binary = WireCodec::new(WireFormat::Binary);
        let bytes = binary.encode_checkpoint(&sample());
        assert!(binary.decode_readings(&bytes).is_err(), "kind mismatch");
        let mut wrong_version = bytes.clone();
        wrong_version[0] = 99;
        assert!(binary.decode_checkpoint(&wrong_version).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(binary.decode_checkpoint(&trailing).is_err());
        assert!(binary.decode_checkpoint(&[]).is_err());
        let mut truncated = bytes;
        truncated.truncate(truncated.len() - 1);
        assert!(binary.decode_checkpoint(&truncated).is_err());
    }
}
