//! The site-checkpoint payload family (`0x07`): a site's complete durable
//! state as one serialized artifact.
//!
//! A [`SiteCheckpoint`] bundles everything a crashed site needs to resume —
//! the inference engine's snapshot (observations, priors, containment,
//! detected changes, last outcome, dirty journal, evidence cache), the query
//! processor's snapshot (sensor window, automata, alerts), the trace cursors,
//! the pending-shipment inbox, and the communication accounting — under the
//! same framing as every other wire payload. Checkpoints therefore inherit
//! the codec's guarantees: `decode(encode(cp)) == cp` bit-exactly (including
//! `f64` bit patterns), and hostile bytes produce typed [`WireError`]s, never
//! panics.
//!
//! The binary body opens with one site-wide [`TagTable`] covering every tag
//! mentioned anywhere in the checkpoint; all tag references are table
//! indices, epoch sequences are zigzag deltas, and floats are raw IEEE-754
//! bits — so a checkpoint carrying an infinite calibration threshold
//! round-trips like any other.

use crate::codec::{
    check_header, checked_delta, decode_automaton, encode_automaton, get_epoch, get_opt_tag,
    get_string, header, put_opt_tag,
};
use crate::primitives::{Reader, TagTable, Writer};
use crate::{WireCodec, WireError};
use rfid_core::InferenceStats;
use rfid_core::{
    CachedVariant, DetectedChange, DirtySet, EngineSnapshot, EvidenceCache, InferenceOutcome,
    ObjectEvidence, Observations, PriorWeights,
};
use rfid_query::{Alert, ObjectQueryState, ProcessorSnapshot};
use rfid_types::{ContainmentMap, Epoch, LocationId, RawReading, SensorReading, TagId};
use std::collections::BTreeMap;

/// Payload-kind byte of a site checkpoint.
// FUZZ: corrupted_byte_zero_is_a_typed_error_for_every_kind
pub(crate) const KIND_CHECKPOINT: u8 = 0x07;

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
    /// Per-edge transport sequence number (0 when the transport is off).
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

/// Reliable-transport counters of one site (or, merged, a whole run).
///
/// Invariants the transport tests pin: `delivered + abandoned == envelopes`
/// where `delivered = envelopes - abandoned`, and
/// `duplicates_dropped == arrivals - deliveries`.
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
    /// Anti-entropy resync requests sent after downtime.
    pub resyncs: u64,
    /// Arrivals whose payload failed to decode and were quarantined instead
    /// of delivered (poison-message handling).
    pub quarantined: u64,
}

impl TransportStats {
    /// Fold `other` into `self` (all counters are additive).
    pub fn merge(&mut self, other: &TransportStats) {
        self.envelopes += other.envelopes;
        self.transmissions += other.transmissions;
        self.retransmissions += other.retransmissions;
        self.acks += other.acks;
        self.duplicates_dropped += other.duplicates_dropped;
        self.reconciled += other.reconciled;
        self.stale_dropped += other.stale_dropped;
        self.abandoned += other.abandoned;
        self.resyncs += other.resyncs;
        self.quarantined += other.quarantined;
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
/// the run are booked as undelivered). The invariant oracles check that the
/// two sides balance —
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
        self.envelopes += other.envelopes;
        self.abandoned += other.abandoned;
        self.sent_copies += other.sent_copies;
        self.sent_bytes += other.sent_bytes;
        self.recv_copies += other.recv_copies;
        self.recv_bytes += other.recv_bytes;
        self.accepted += other.accepted;
        self.imported += other.imported;
        self.stale += other.stale;
        self.quarantined += other.quarantined;
        self.undelivered += other.undelivered;
        self.undelivered_bytes += other.undelivered_bytes;
        self.dark_envelopes += other.dark_envelopes;
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
    /// transport control). Encoded with a leading arity so a checkpoint
    /// written before a kind existed still decodes (missing kinds read as
    /// zero).
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
    /// Reliable-transport counters accumulated so far.
    pub transport: TransportStats,
    /// Quarantined poison arrivals, in acceptance order.
    pub quarantine: Vec<QuarantineEntry>,
    /// Memory-pressure counters accumulated so far.
    pub memory: rfid_core::MemoryStats,
    /// Per-directed-edge conservation ledgers this site contributed to, in
    /// ascending `(from, to)` order.
    pub ledgers: Vec<EdgeLedger>,
}

impl WireCodec {
    /// Encode a site checkpoint.
    pub fn encode_checkpoint(&self, checkpoint: &SiteCheckpoint) -> Vec<u8> {
        let mut w = header(KIND_CHECKPOINT);
        w.put_varint(u64::from(checkpoint.site));
        w.put_varint(u64::from(checkpoint.at.0));
        let table = collect_table(checkpoint);
        table.encode(&mut w);
        encode_engine(&mut w, &table, &checkpoint.engine);
        encode_processor(&mut w, &table, &checkpoint.processor);
        w.put_varint(checkpoint.reading_cursor);
        w.put_varint(checkpoint.sensor_cursor);
        w.put_varint(checkpoint.departure_cursor);
        w.put_varint(checkpoint.inbox.len() as u64);
        for shipment in &checkpoint.inbox {
            encode_shipment(&mut w, &table, shipment);
        }
        // Versioned arity: the kind count leads each comm array, so
        // adding a kind never invalidates older checkpoints.
        w.put_varint(checkpoint.comm_bytes.len() as u64);
        for bytes in checkpoint.comm_bytes {
            w.put_varint(bytes);
        }
        for messages in checkpoint.comm_messages {
            w.put_varint(messages);
        }
        w.put_varint(checkpoint.shared_bytes);
        w.put_varint(checkpoint.unshared_bytes);
        w.put_varint(checkpoint.inference_runs);
        encode_stats(&mut w, &checkpoint.stats);
        w.put_varint(checkpoint.inbox_seqs.len() as u64);
        for edge in &checkpoint.inbox_seqs {
            w.put_varint(u64::from(edge.peer));
            w.put_varint(edge.watermark);
            w.put_varint(edge.extras.len() as u64);
            for &seq in &edge.extras {
                w.put_varint(seq);
            }
        }
        encode_transport(&mut w, &checkpoint.transport);
        w.put_varint(checkpoint.quarantine.len() as u64);
        for entry in &checkpoint.quarantine {
            w.put_varint(u64::from(entry.from));
            w.put_varint(entry.seq);
            w.put_varint(u64::from(entry.physical.0));
        }
        encode_memory(&mut w, &checkpoint.memory);
        w.put_varint(checkpoint.ledgers.len() as u64);
        for ledger in &checkpoint.ledgers {
            encode_ledger(&mut w, ledger);
        }
        w.into_bytes()
    }

    /// Decode a [`Self::encode_checkpoint`] message.
    pub fn decode_checkpoint(&self, bytes: &[u8]) -> Result<SiteCheckpoint, WireError> {
        let mut r = check_header(bytes, KIND_CHECKPOINT)?;
        let site = get_u16(r.get_varint()?, "site index")?;
        let at = get_epoch(cast_epoch(r.get_varint()?))?;
        let table = TagTable::decode(&mut r)?;
        let engine = decode_engine(&mut r, &table)?;
        let processor = decode_processor(&mut r, &table)?;
        let reading_cursor = r.get_varint()?;
        let sensor_cursor = r.get_varint()?;
        let departure_cursor = r.get_varint()?;
        let count = r.get_varint()? as usize;
        let mut inbox = Vec::with_capacity(count.min(1 << 16));
        for _ in 0..count {
            inbox.push(decode_shipment(&mut r, &table)?);
        }
        let kinds = r.get_varint()? as usize;
        if kinds > 5 {
            return Err(WireError::new(format!(
                "checkpoint declares {kinds} message kinds, this codec knows 5"
            )));
        }
        let mut comm_bytes = [0u64; 5];
        for slot in comm_bytes.iter_mut().take(kinds) {
            *slot = r.get_varint()?;
        }
        let mut comm_messages = [0u64; 5];
        for slot in comm_messages.iter_mut().take(kinds) {
            *slot = r.get_varint()?;
        }
        let shared_bytes = r.get_varint()?;
        let unshared_bytes = r.get_varint()?;
        let inference_runs = r.get_varint()?;
        let stats = decode_stats(&mut r)?;
        let edge_count = r.get_varint()? as usize;
        let mut inbox_seqs = Vec::with_capacity(edge_count.min(1 << 16));
        for _ in 0..edge_count {
            let peer = get_u16(r.get_varint()?, "edge peer")?;
            let watermark = r.get_varint()?;
            let extra_count = r.get_varint()? as usize;
            let mut extras = Vec::with_capacity(extra_count.min(1 << 16));
            for _ in 0..extra_count {
                extras.push(r.get_varint()?);
            }
            inbox_seqs.push(EdgeSeqs {
                peer,
                watermark,
                extras,
            });
        }
        let transport = decode_transport(&mut r)?;
        let count = r.get_varint()? as usize;
        let mut quarantine = Vec::with_capacity(count.min(1 << 16));
        for _ in 0..count {
            quarantine.push(QuarantineEntry {
                from: get_u16(r.get_varint()?, "quarantine peer")?,
                seq: r.get_varint()?,
                physical: get_epoch(cast_epoch(r.get_varint()?))?,
            });
        }
        let memory = decode_memory(&mut r)?;
        let count = r.get_varint()? as usize;
        let mut ledgers = Vec::with_capacity(count.min(1 << 16));
        for _ in 0..count {
            ledgers.push(decode_ledger(&mut r)?);
        }
        r.expect_exhausted()?;
        Ok(SiteCheckpoint {
            site,
            at,
            engine,
            processor,
            reading_cursor,
            sensor_cursor,
            departure_cursor,
            inbox,
            comm_bytes,
            comm_messages,
            shared_bytes,
            unshared_bytes,
            inference_runs,
            stats,
            inbox_seqs,
            transport,
            quarantine,
            memory,
            ledgers,
        })
    }
}

/// The site-wide tag table: every tag mentioned anywhere in the checkpoint,
/// collected once so all sections share indices.
fn collect_table(checkpoint: &SiteCheckpoint) -> TagTable {
    let mut tags: Vec<TagId> = Vec::new();
    let engine = &checkpoint.engine;
    tags.extend(engine.store.tags());
    for object in engine.prior.objects() {
        tags.push(object);
        tags.extend(engine.prior.entries_for(object).map(|(c, _)| c));
    }
    for (object, container) in engine.containment.iter() {
        tags.push(object);
        tags.push(container);
    }
    for change in &engine.detected {
        tags.push(change.object);
        tags.extend(change.old_container);
        tags.extend(change.new_container);
    }
    if let Some(outcome) = &engine.last_outcome {
        for (object, container) in outcome.containment.iter() {
            tags.push(object);
            tags.push(container);
        }
        for (object, evidence) in &outcome.objects {
            tags.push(*object);
            tags.extend(evidence.candidates.iter().copied());
            tags.extend(evidence.weights.keys().copied());
            tags.extend(evidence.point_evidence.keys().copied());
            tags.extend(evidence.assigned);
        }
        tags.extend(outcome.tag_locations.keys().copied());
    }
    for (tag, _) in engine.dirty.entries() {
        tags.push(tag);
    }
    for (container, variants) in engine.cache.variants() {
        tags.push(container);
        for variant in variants {
            tags.extend(variant.members.iter().copied());
            tags.extend(variant.evidence.keys().copied());
        }
    }
    for state in &checkpoint.processor.automata {
        tags.push(state.tag);
    }
    for alert in &checkpoint.processor.alerts {
        tags.push(alert.tag);
    }
    for shipment in &checkpoint.inbox {
        tags.push(shipment.tag);
        tags.extend(shipment.query.iter().map(|s| s.tag));
    }
    TagTable::from_tags(tags)
}

// ---------------------------------------------------------------------------
// small shared pieces

/// A `u64` varint that must fit `u16` (site and location indices).
fn get_u16(raw: u64, what: &str) -> Result<u16, WireError> {
    u16::try_from(raw).map_err(|_| WireError::new(format!("{what} out of u16 range")))
}

/// Reinterpret an epoch varint for [`get_epoch`]'s range check: values past
/// `i64::MAX` become negative and are rejected there, exactly like oversized
/// epochs.
fn cast_epoch(raw: u64) -> i64 {
    raw as i64
}

fn encode_stats(w: &mut Writer, stats: &InferenceStats) {
    w.put_varint(stats.dirty_tags as u64);
    w.put_varint(stats.posteriors_reused as u64);
    w.put_varint(stats.posteriors_computed as u64);
    w.put_varint(stats.evidence_reused as u64);
    w.put_varint(stats.evidence_computed as u64);
}

fn decode_stats(r: &mut Reader<'_>) -> Result<InferenceStats, WireError> {
    Ok(InferenceStats {
        dirty_tags: r.get_varint()? as usize,
        posteriors_reused: r.get_varint()? as usize,
        posteriors_computed: r.get_varint()? as usize,
        evidence_reused: r.get_varint()? as usize,
        evidence_computed: r.get_varint()? as usize,
    })
}

/// Transport counters with a leading arity, like the comm arrays: counters
/// appended in later versions read as zero from older checkpoints.
fn encode_transport(w: &mut Writer, transport: &TransportStats) {
    let counters = [
        transport.envelopes,
        transport.transmissions,
        transport.retransmissions,
        transport.acks,
        transport.duplicates_dropped,
        transport.reconciled,
        transport.stale_dropped,
        transport.abandoned,
        transport.resyncs,
        transport.quarantined,
    ];
    w.put_varint(counters.len() as u64);
    for counter in counters {
        w.put_varint(counter);
    }
}

fn decode_transport(r: &mut Reader<'_>) -> Result<TransportStats, WireError> {
    let arity = r.get_varint()? as usize;
    if arity > 10 {
        return Err(WireError::new(format!(
            "checkpoint declares {arity} transport counters, this codec knows 10"
        )));
    }
    let mut counters = [0u64; 10];
    for slot in counters.iter_mut().take(arity) {
        *slot = r.get_varint()?;
    }
    let [envelopes, transmissions, retransmissions, acks, duplicates_dropped, reconciled, stale_dropped, abandoned, resyncs, quarantined] =
        counters;
    Ok(TransportStats {
        envelopes,
        transmissions,
        retransmissions,
        acks,
        duplicates_dropped,
        reconciled,
        stale_dropped,
        abandoned,
        resyncs,
        quarantined,
    })
}

/// Memory-pressure counters with a leading arity, like the transport block.
fn encode_memory(w: &mut Writer, memory: &rfid_core::MemoryStats) {
    let counters = [
        memory.high_water,
        memory.compactions,
        memory.compacted_observations,
        memory.evicted_cache_entries,
    ];
    w.put_varint(counters.len() as u64);
    for counter in counters {
        w.put_varint(counter);
    }
}

fn decode_memory(r: &mut Reader<'_>) -> Result<rfid_core::MemoryStats, WireError> {
    let arity = r.get_varint()? as usize;
    if arity > 4 {
        return Err(WireError::new(format!(
            "checkpoint declares {arity} memory counters, this codec knows 4"
        )));
    }
    let mut counters = [0u64; 4];
    for slot in counters.iter_mut().take(arity) {
        *slot = r.get_varint()?;
    }
    let [high_water, compactions, compacted_observations, evicted_cache_entries] = counters;
    Ok(rfid_core::MemoryStats {
        high_water,
        compactions,
        compacted_observations,
        evicted_cache_entries,
    })
}

/// One per-edge conservation ledger: the endpoint pair, then an
/// arity-prefixed counter block so later versions can append counters.
fn encode_ledger(w: &mut Writer, ledger: &EdgeLedger) {
    w.put_varint(u64::from(ledger.from));
    w.put_varint(u64::from(ledger.to));
    let counters = [
        ledger.envelopes,
        ledger.abandoned,
        ledger.sent_copies,
        ledger.sent_bytes,
        ledger.recv_copies,
        ledger.recv_bytes,
        ledger.accepted,
        ledger.imported,
        ledger.stale,
        ledger.quarantined,
        ledger.undelivered,
        ledger.undelivered_bytes,
        ledger.dark_envelopes,
    ];
    w.put_varint(counters.len() as u64);
    for counter in counters {
        w.put_varint(counter);
    }
}

fn decode_ledger(r: &mut Reader<'_>) -> Result<EdgeLedger, WireError> {
    let from = get_u16(r.get_varint()?, "ledger origin")?;
    let to = get_u16(r.get_varint()?, "ledger destination")?;
    let arity = r.get_varint()? as usize;
    if arity > 13 {
        return Err(WireError::new(format!(
            "checkpoint declares {arity} ledger counters, this codec knows 13"
        )));
    }
    let mut counters = [0u64; 13];
    for slot in counters.iter_mut().take(arity) {
        *slot = r.get_varint()?;
    }
    let [envelopes, abandoned, sent_copies, sent_bytes, recv_copies, recv_bytes, accepted, imported, stale, quarantined, undelivered, undelivered_bytes, dark_envelopes] =
        counters;
    Ok(EdgeLedger {
        from,
        to,
        envelopes,
        abandoned,
        sent_copies,
        sent_bytes,
        recv_copies,
        recv_bytes,
        accepted,
        imported,
        stale,
        quarantined,
        undelivered,
        undelivered_bytes,
        dark_envelopes,
    })
}

/// `(epoch, f64)` series: count, then per entry a zigzag epoch delta against
/// the previous entry (starting from 0) and the raw float bits.
fn put_series(w: &mut Writer, series: &[(Epoch, f64)]) {
    w.put_varint(series.len() as u64);
    let mut prev = 0i64;
    for (epoch, value) in series {
        w.put_zigzag(i64::from(epoch.0) - prev);
        prev = i64::from(epoch.0);
        w.put_f64(*value);
    }
}

fn get_series(r: &mut Reader<'_>, what: &str) -> Result<Vec<(Epoch, f64)>, WireError> {
    let count = r.get_varint()? as usize;
    let mut series = Vec::with_capacity(count.min(1 << 20));
    let mut prev = 0i64;
    for _ in 0..count {
        let epoch = get_epoch(checked_delta(prev, r.get_zigzag()?, what)?)?;
        prev = i64::from(epoch.0);
        series.push((epoch, r.get_f64()?));
    }
    Ok(series)
}

/// Tag-keyed map of `(epoch, f64)` series (point evidence, cached evidence).
fn put_series_map(w: &mut Writer, table: &TagTable, map: &BTreeMap<TagId, Vec<(Epoch, f64)>>) {
    w.put_varint(map.len() as u64);
    for (tag, series) in map {
        w.put_varint(table.index_of(*tag));
        put_series(w, series);
    }
}

fn get_series_map(
    r: &mut Reader<'_>,
    table: &TagTable,
    what: &str,
) -> Result<BTreeMap<TagId, Vec<(Epoch, f64)>>, WireError> {
    let count = r.get_varint()? as usize;
    let mut map = BTreeMap::new();
    for _ in 0..count {
        let tag = table.tag_at(r.get_varint()?)?;
        let series = get_series(r, what)?;
        map.insert(tag, series);
    }
    if map.len() != count {
        return Err(WireError::new("duplicate tag in series map"));
    }
    Ok(map)
}

fn put_containment(w: &mut Writer, table: &TagTable, map: &ContainmentMap) {
    w.put_varint(map.iter().count() as u64);
    for (object, container) in map.iter() {
        w.put_varint(table.index_of(object));
        w.put_varint(table.index_of(container));
    }
}

fn get_containment(r: &mut Reader<'_>, table: &TagTable) -> Result<ContainmentMap, WireError> {
    let count = r.get_varint()? as usize;
    let mut map = ContainmentMap::new();
    for _ in 0..count {
        let object = table.tag_at(r.get_varint()?)?;
        let container = table.tag_at(r.get_varint()?)?;
        map.set(object, container);
    }
    Ok(map)
}

fn put_query_state(w: &mut Writer, table: &TagTable, state: &ObjectQueryState) {
    w.put_bytes(state.query.as_bytes());
    w.put_varint(table.index_of(state.tag));
    encode_automaton(w, &state.automaton);
}

fn get_query_state(r: &mut Reader<'_>, table: &TagTable) -> Result<ObjectQueryState, WireError> {
    let query = get_string(r)?;
    let tag = table.tag_at(r.get_varint()?)?;
    let automaton = decode_automaton(r)?;
    Ok(ObjectQueryState {
        query,
        tag,
        automaton,
    })
}

// ---------------------------------------------------------------------------
// engine snapshot

fn encode_engine(w: &mut Writer, table: &TagTable, engine: &EngineSnapshot) {
    encode_store(w, table, &engine.store);
    encode_prior(w, table, &engine.prior);
    put_containment(w, table, &engine.containment);
    encode_changes(w, table, &engine.detected);
    match &engine.last_outcome {
        Some(outcome) => {
            w.put_u8(1);
            encode_outcome(w, table, outcome);
        }
        None => w.put_u8(0),
    }
    match engine.last_inference_at {
        Some(at) => {
            w.put_u8(1);
            w.put_varint(u64::from(at.0));
        }
        None => w.put_u8(0),
    }
    match engine.threshold {
        Some(threshold) => {
            w.put_u8(1);
            w.put_f64(threshold);
        }
        None => w.put_u8(0),
    }
    encode_dirty(w, table, &engine.dirty);
    encode_cache(w, table, &engine.cache);
}

fn decode_engine(r: &mut Reader<'_>, table: &TagTable) -> Result<EngineSnapshot, WireError> {
    let store = decode_store(r, table)?;
    let prior = decode_prior(r, table)?;
    let containment = get_containment(r, table)?;
    let detected = decode_changes(r, table)?;
    let last_outcome = match r.get_u8()? {
        0 => None,
        1 => Some(decode_outcome(r, table)?),
        _ => return Err(WireError::new("invalid outcome flag")),
    };
    let last_inference_at = match r.get_u8()? {
        0 => None,
        1 => Some(get_epoch(cast_epoch(r.get_varint()?))?),
        _ => return Err(WireError::new("invalid inference-epoch flag")),
    };
    let threshold = match r.get_u8()? {
        0 => None,
        1 => Some(r.get_f64()?),
        _ => return Err(WireError::new("invalid threshold flag")),
    };
    let dirty = decode_dirty(r, table)?;
    let cache = decode_cache(r, table)?;
    Ok(EngineSnapshot {
        store,
        prior,
        containment,
        detected,
        last_outcome,
        last_inference_at,
        threshold,
        dirty,
        cache,
    })
}

fn encode_store(w: &mut Writer, table: &TagTable, store: &Observations) {
    w.put_varint(store.tags().count() as u64);
    for (tag, obs_list) in store.entries() {
        w.put_varint(table.index_of(tag));
        w.put_varint(obs_list.len() as u64);
        let mut prev = 0i64;
        for obs in obs_list {
            w.put_zigzag(i64::from(obs.epoch.0) - prev);
            prev = i64::from(obs.epoch.0);
            w.put_varint(obs.readers.len() as u64);
            for location in &obs.readers {
                w.put_varint(u64::from(location.0));
            }
        }
    }
}

fn decode_store(r: &mut Reader<'_>, table: &TagTable) -> Result<Observations, WireError> {
    let mut store = Observations::new();
    let tags = r.get_varint()? as usize;
    for _ in 0..tags {
        let tag = table.tag_at(r.get_varint()?)?;
        let count = r.get_varint()? as usize;
        let mut prev = 0i64;
        for _ in 0..count {
            let epoch = get_epoch(checked_delta(prev, r.get_zigzag()?, "observation epoch")?)?;
            prev = i64::from(epoch.0);
            let readers = r.get_varint()? as usize;
            for _ in 0..readers {
                let location = LocationId(get_u16(r.get_varint()?, "location id")?);
                store.insert(RawReading::new(epoch, tag, location.reader()));
            }
        }
    }
    Ok(store)
}

fn encode_prior(w: &mut Writer, table: &TagTable, prior: &PriorWeights) {
    w.put_varint(prior.objects().count() as u64);
    for object in prior.objects() {
        w.put_varint(table.index_of(object));
        w.put_varint(prior.entries_for(object).count() as u64);
        for (container, weight) in prior.entries_for(object) {
            w.put_varint(table.index_of(container));
            w.put_f64(weight);
        }
    }
}

fn decode_prior(r: &mut Reader<'_>, table: &TagTable) -> Result<PriorWeights, WireError> {
    let mut prior = PriorWeights::empty();
    let objects = r.get_varint()? as usize;
    for _ in 0..objects {
        let object = table.tag_at(r.get_varint()?)?;
        let count = r.get_varint()? as usize;
        for _ in 0..count {
            let container = table.tag_at(r.get_varint()?)?;
            let weight = r.get_f64()?;
            prior.set(object, container, weight);
        }
    }
    Ok(prior)
}

fn encode_changes(w: &mut Writer, table: &TagTable, changes: &[DetectedChange]) {
    w.put_varint(changes.len() as u64);
    for change in changes {
        w.put_varint(table.index_of(change.object));
        w.put_varint(u64::from(change.change_at.0));
        put_opt_tag(w, table, change.old_container);
        put_opt_tag(w, table, change.new_container);
        w.put_f64(change.statistic);
    }
}

fn decode_changes(r: &mut Reader<'_>, table: &TagTable) -> Result<Vec<DetectedChange>, WireError> {
    let count = r.get_varint()? as usize;
    let mut changes = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let object = table.tag_at(r.get_varint()?)?;
        let change_at = get_epoch(cast_epoch(r.get_varint()?))?;
        let old_container = get_opt_tag(r, table)?;
        let new_container = get_opt_tag(r, table)?;
        let statistic = r.get_f64()?;
        changes.push(DetectedChange {
            object,
            change_at,
            old_container,
            new_container,
            statistic,
        });
    }
    Ok(changes)
}

fn encode_outcome(w: &mut Writer, table: &TagTable, outcome: &InferenceOutcome) {
    put_containment(w, table, &outcome.containment);
    w.put_varint(outcome.objects.len() as u64);
    for (object, evidence) in &outcome.objects {
        w.put_varint(table.index_of(*object));
        w.put_varint(evidence.candidates.len() as u64);
        for candidate in &evidence.candidates {
            w.put_varint(table.index_of(*candidate));
        }
        w.put_varint(evidence.weights.len() as u64);
        for (candidate, weight) in &evidence.weights {
            w.put_varint(table.index_of(*candidate));
            w.put_f64(*weight);
        }
        put_series_map(w, table, &evidence.point_evidence);
        put_opt_tag(w, table, evidence.assigned);
    }
    w.put_varint(outcome.tag_locations.len() as u64);
    for (tag, locations) in &outcome.tag_locations {
        w.put_varint(table.index_of(*tag));
        w.put_varint(locations.len() as u64);
        let mut prev = 0i64;
        for (epoch, location) in locations {
            w.put_zigzag(i64::from(epoch.0) - prev);
            prev = i64::from(epoch.0);
            w.put_varint(u64::from(location.0));
        }
    }
    w.put_varint(outcome.iterations as u64);
    w.put_varint(outcome.num_locations as u64);
}

fn decode_outcome(r: &mut Reader<'_>, table: &TagTable) -> Result<InferenceOutcome, WireError> {
    let containment = get_containment(r, table)?;
    let object_count = r.get_varint()? as usize;
    let mut objects = BTreeMap::new();
    for _ in 0..object_count {
        let object = table.tag_at(r.get_varint()?)?;
        let candidate_count = r.get_varint()? as usize;
        let mut candidates = Vec::with_capacity(candidate_count.min(1 << 16));
        for _ in 0..candidate_count {
            candidates.push(table.tag_at(r.get_varint()?)?);
        }
        let weight_count = r.get_varint()? as usize;
        let mut weights = BTreeMap::new();
        for _ in 0..weight_count {
            let candidate = table.tag_at(r.get_varint()?)?;
            let weight = r.get_f64()?;
            weights.insert(candidate, weight);
        }
        if weights.len() != weight_count {
            return Err(WireError::new("duplicate candidate in outcome weights"));
        }
        let point_evidence = get_series_map(r, table, "point-evidence epoch")?;
        let assigned = get_opt_tag(r, table)?;
        objects.insert(
            object,
            ObjectEvidence {
                candidates,
                weights,
                point_evidence,
                assigned,
            },
        );
    }
    if objects.len() != object_count {
        return Err(WireError::new("duplicate object in outcome"));
    }
    let location_count = r.get_varint()? as usize;
    let mut tag_locations = BTreeMap::new();
    for _ in 0..location_count {
        let tag = table.tag_at(r.get_varint()?)?;
        let count = r.get_varint()? as usize;
        let mut series = Vec::with_capacity(count.min(1 << 20));
        let mut prev = 0i64;
        for _ in 0..count {
            let epoch = get_epoch(checked_delta(prev, r.get_zigzag()?, "location epoch")?)?;
            prev = i64::from(epoch.0);
            let location = LocationId(get_u16(r.get_varint()?, "location id")?);
            series.push((epoch, location));
        }
        tag_locations.insert(tag, series);
    }
    if tag_locations.len() != location_count {
        return Err(WireError::new("duplicate tag in location map"));
    }
    let iterations = r.get_varint()? as usize;
    let num_locations = r.get_varint()? as usize;
    Ok(InferenceOutcome {
        containment,
        objects,
        tag_locations,
        iterations,
        num_locations,
    })
}

fn encode_dirty(w: &mut Writer, table: &TagTable, dirty: &DirtySet) {
    w.put_varint(dirty.num_tags() as u64);
    for (tag, epochs) in dirty.entries() {
        w.put_varint(table.index_of(tag));
        w.put_varint(epochs.len() as u64);
        let mut prev = 0i64;
        for epoch in epochs {
            w.put_zigzag(i64::from(epoch.0) - prev);
            prev = i64::from(epoch.0);
        }
    }
}

fn decode_dirty(r: &mut Reader<'_>, table: &TagTable) -> Result<DirtySet, WireError> {
    let mut dirty = DirtySet::new();
    let tags = r.get_varint()? as usize;
    for _ in 0..tags {
        let tag = table.tag_at(r.get_varint()?)?;
        dirty.mark(tag);
        let count = r.get_varint()? as usize;
        let mut prev = 0i64;
        for _ in 0..count {
            let epoch = get_epoch(checked_delta(prev, r.get_zigzag()?, "dirty epoch")?)?;
            prev = i64::from(epoch.0);
            dirty.record(tag, epoch);
        }
    }
    Ok(dirty)
}

fn encode_cache(w: &mut Writer, table: &TagTable, cache: &EvidenceCache) {
    w.put_varint(cache.variants().count() as u64);
    for (container, variants) in cache.variants() {
        w.put_varint(table.index_of(container));
        w.put_varint(variants.len() as u64);
        for variant in variants {
            w.put_varint(variant.members.len() as u64);
            for member in &variant.members {
                w.put_varint(table.index_of(*member));
            }
            w.put_varint(variant.epochs.len() as u64);
            let mut prev = 0i64;
            for epoch in &variant.epochs {
                w.put_zigzag(i64::from(epoch.0) - prev);
                prev = i64::from(epoch.0);
            }
            w.put_varint(variant.qrows.len() as u64);
            for row_value in &variant.qrows {
                w.put_f64(*row_value);
            }
            put_series_map(w, table, &variant.evidence);
        }
    }
}

fn decode_cache(r: &mut Reader<'_>, table: &TagTable) -> Result<EvidenceCache, WireError> {
    let mut cache = EvidenceCache::new();
    let containers = r.get_varint()? as usize;
    for _ in 0..containers {
        let container = table.tag_at(r.get_varint()?)?;
        let variant_count = r.get_varint()? as usize;
        let mut variants = Vec::with_capacity(variant_count.min(1 << 8));
        for _ in 0..variant_count {
            let member_count = r.get_varint()? as usize;
            let mut members = Vec::with_capacity(member_count.min(1 << 16));
            for _ in 0..member_count {
                members.push(table.tag_at(r.get_varint()?)?);
            }
            let epoch_count = r.get_varint()? as usize;
            let mut epochs = Vec::with_capacity(epoch_count.min(1 << 20));
            let mut prev = 0i64;
            for _ in 0..epoch_count {
                let epoch = get_epoch(checked_delta(prev, r.get_zigzag()?, "cache epoch")?)?;
                prev = i64::from(epoch.0);
                epochs.push(epoch);
            }
            let qrow_count = r.get_varint()? as usize;
            let mut qrows = Vec::with_capacity(qrow_count.min(1 << 20));
            for _ in 0..qrow_count {
                qrows.push(r.get_f64()?);
            }
            let evidence = get_series_map(r, table, "cache-evidence epoch")?;
            variants.push(CachedVariant {
                members,
                epochs,
                qrows,
                evidence,
            });
        }
        cache.set_variants(container, variants);
    }
    Ok(cache)
}

// ---------------------------------------------------------------------------
// processor snapshot

fn encode_processor(w: &mut Writer, table: &TagTable, processor: &ProcessorSnapshot) {
    w.put_varint(processor.temperatures.len() as u64);
    for reading in &processor.temperatures {
        w.put_varint(u64::from(reading.time.0));
        w.put_varint(u64::from(reading.location.0));
        w.put_f64(reading.value);
    }
    w.put_varint(processor.automata.len() as u64);
    for state in &processor.automata {
        put_query_state(w, table, state);
    }
    w.put_varint(processor.alerts.len() as u64);
    for alert in &processor.alerts {
        w.put_bytes(alert.query.as_bytes());
        w.put_varint(table.index_of(alert.tag));
        w.put_varint(u64::from(alert.since.0));
        w.put_varint(u64::from(alert.at.0));
        put_series(w, &alert.readings);
    }
}

fn decode_processor(r: &mut Reader<'_>, table: &TagTable) -> Result<ProcessorSnapshot, WireError> {
    let temperature_count = r.get_varint()? as usize;
    let mut temperatures = Vec::with_capacity(temperature_count.min(1 << 16));
    for _ in 0..temperature_count {
        let time = get_epoch(cast_epoch(r.get_varint()?))?;
        let location = LocationId(get_u16(r.get_varint()?, "location id")?);
        let value = r.get_f64()?;
        temperatures.push(SensorReading::new(time, location, value));
    }
    let automaton_count = r.get_varint()? as usize;
    let mut automata = Vec::with_capacity(automaton_count.min(1 << 16));
    for _ in 0..automaton_count {
        automata.push(get_query_state(r, table)?);
    }
    let alert_count = r.get_varint()? as usize;
    let mut alerts = Vec::with_capacity(alert_count.min(1 << 16));
    for _ in 0..alert_count {
        let query = get_string(r)?;
        let tag = table.tag_at(r.get_varint()?)?;
        let since = get_epoch(cast_epoch(r.get_varint()?))?;
        let at = get_epoch(cast_epoch(r.get_varint()?))?;
        let readings = get_series(r, "alert epoch")?;
        alerts.push(Alert {
            query,
            tag,
            since,
            at,
            readings,
        });
    }
    Ok(ProcessorSnapshot {
        temperatures,
        automata,
        alerts,
    })
}

// ---------------------------------------------------------------------------
// inbox

fn encode_shipment(w: &mut Writer, table: &TagTable, shipment: &PendingShipment) {
    w.put_varint(u64::from(shipment.depart.0));
    w.put_varint(u64::from(shipment.from));
    w.put_varint(u64::from(shipment.to));
    w.put_varint(table.index_of(shipment.tag));
    w.put_varint(u64::from(shipment.arrive.0));
    w.put_varint(shipment.seq);
    w.put_varint(u64::from(shipment.physical.0));
    match &shipment.inference {
        Some(bytes) => {
            w.put_u8(1);
            w.put_bytes(bytes);
        }
        None => w.put_u8(0),
    }
    w.put_varint(shipment.query.len() as u64);
    for state in &shipment.query {
        put_query_state(w, table, state);
    }
}

fn decode_shipment(r: &mut Reader<'_>, table: &TagTable) -> Result<PendingShipment, WireError> {
    let depart = get_epoch(cast_epoch(r.get_varint()?))?;
    let from = get_u16(r.get_varint()?, "origin site")?;
    let to = get_u16(r.get_varint()?, "destination site")?;
    let tag = table.tag_at(r.get_varint()?)?;
    let arrive = get_epoch(cast_epoch(r.get_varint()?))?;
    let seq = r.get_varint()?;
    let physical = get_epoch(cast_epoch(r.get_varint()?))?;
    let inference = match r.get_u8()? {
        0 => None,
        1 => Some(r.get_bytes()?),
        _ => return Err(WireError::new("invalid inference flag")),
    };
    let count = r.get_varint()? as usize;
    let mut query = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        query.push(get_query_state(r, table)?);
    }
    Ok(PendingShipment {
        depart,
        from,
        to,
        tag,
        arrive,
        seq,
        physical,
        inference,
        query,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WireFormat;
    use rfid_query::AutomatonState;
    use rfid_types::ReaderId;

    /// A checkpoint exercising every section: observations, priors,
    /// containment, detected changes, a full outcome, dirty journal,
    /// evidence cache, processor state with alerts, a pending shipment, and
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
        let mut cache = EvidenceCache::new();
        cache.set_variants(
            TagId::case(1),
            vec![CachedVariant {
                members: vec![TagId::item(1)],
                epochs: vec![Epoch(1), Epoch(3)],
                qrows: vec![0.25, 0.75, -0.0, 1.0],
                evidence: [(TagId::item(1), vec![(Epoch(1), 0.5), (Epoch(3), 1.5)])]
                    .into_iter()
                    .collect(),
            }],
        );
        let outcome = InferenceOutcome {
            containment: containment.clone(),
            objects: [(
                TagId::item(1),
                ObjectEvidence {
                    candidates: vec![TagId::case(1), TagId::case(2)],
                    weights: [(TagId::case(1), 4.5), (TagId::case(2), -1e-300)]
                        .into_iter()
                        .collect(),
                    point_evidence: [(TagId::case(1), vec![(Epoch(0), 0.5), (Epoch(4), 0.25)])]
                        .into_iter()
                        .collect(),
                    assigned: Some(TagId::case(1)),
                },
            )]
            .into_iter()
            .collect(),
            tag_locations: [(TagId::case(1), vec![(Epoch(0), LocationId(0))])]
                .into_iter()
                .collect(),
            iterations: 3,
            num_locations: 4,
        };
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
            threshold: Some(5.5),
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
                    abandoned: 1,
                    sent_copies: 13,
                    sent_bytes: 260,
                    recv_copies: 13,
                    recv_bytes: 260,
                    accepted: 11,
                    imported: 9,
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
                threshold: None,
                dirty: DirtySet::new(),
                cache: EvidenceCache::new(),
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

    #[test]
    fn smaller_comm_arities_decode_zero_filled() {
        // A checkpoint written by a codec that knew only 4 message kinds and
        // no transport counters: the arity prefixes make it decode cleanly,
        // with the missing slots zero-filled.
        let mut w = header(KIND_CHECKPOINT);
        w.put_varint(0); // site
        w.put_varint(0); // at
        TagTable::from_tags([]).encode(&mut w);
        for _ in 0..3 {
            w.put_varint(0); // store tags, prior objects, containment count
        }
        w.put_varint(0); // detected changes
        w.put_u8(0); // no outcome
        w.put_u8(0); // no inference epoch
        w.put_u8(0); // no threshold
        w.put_varint(0); // dirty tags
        w.put_varint(0); // cache containers
        for _ in 0..3 {
            w.put_varint(0); // temperatures, automata, alerts
        }
        for _ in 0..3 {
            w.put_varint(0); // cursors
        }
        w.put_varint(0); // inbox
        w.put_varint(4); // four comm kinds only
        for i in 0..4u64 {
            w.put_varint(i + 1); // comm bytes
        }
        for _ in 0..4 {
            w.put_varint(1); // comm messages
        }
        for _ in 0..3 {
            w.put_varint(0); // shared, unshared, runs
        }
        for _ in 0..5 {
            w.put_varint(0); // inference stats
        }
        w.put_varint(0); // no edge seqs
        w.put_varint(0); // zero transport counters
        w.put_varint(0); // no quarantine entries
        w.put_varint(0); // zero memory counters
        w.put_varint(0); // no edge ledgers
        let decoded = WireCodec::new(WireFormat::Binary)
            .decode_checkpoint(&w.into_bytes())
            .unwrap();
        assert_eq!(decoded.comm_bytes, [1, 2, 3, 4, 0]);
        assert_eq!(decoded.comm_messages, [1, 1, 1, 1, 0]);
        assert_eq!(decoded.transport, TransportStats::default());
        assert!(decoded.inbox_seqs.is_empty());
        assert!(decoded.quarantine.is_empty());
        assert_eq!(decoded.memory, rfid_core::MemoryStats::default());
        assert!(decoded.ledgers.is_empty());
    }

    #[test]
    fn missing_trailing_sections_are_rejected() {
        // Every section must be present (the arity prefixes version the
        // counters *inside* a section, not the section's existence): a
        // checkpoint cut off before the chaos sections is truncated, not a
        // silently-defaulted decode.
        let binary = WireCodec::new(WireFormat::Binary);
        let mut checkpoint = sample();
        checkpoint.quarantine.clear();
        checkpoint.memory = rfid_core::MemoryStats::default();
        checkpoint.ledgers.clear();
        let bytes = binary.encode_checkpoint(&checkpoint);
        // The empty trailing sections are quarantine count 0, memory arity 4
        // + four zeros, ledger count 0 = 7 varint bytes.
        for cut in 1..=7 {
            let mut old = bytes.clone();
            old.truncate(old.len() - cut);
            assert!(
                binary.decode_checkpoint(&old).is_err(),
                "cutting {cut} trailing bytes must not decode"
            );
        }
    }

    #[test]
    fn oversized_arities_are_rejected() {
        let binary = WireCodec::new(WireFormat::Binary);
        let sample = sample();
        let bytes = binary.encode_checkpoint(&sample);
        // Corrupting the comm arity to an unknown larger value must produce
        // a clean error, never a misaligned decode.
        let arity_pos = bytes
            .windows(6)
            .position(|w| w == [5, 0, 120, 30, 8, 6])
            .expect("comm arity prefix present");
        let mut corrupted = bytes.clone();
        corrupted[arity_pos] = 6;
        assert!(binary.decode_checkpoint(&corrupted).is_err());
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
