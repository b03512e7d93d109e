//! The traced replay: a harness-owned loop that walks a workload's chain on
//! the driver's schedule and calls only public layer functions, with a span
//! around each call. It is how the benchmark attributes a distributed run to
//! its layers without touching the product: spans inside the product are a
//! later issue.
//!
//! The loop mirrors `DistributedDriver`'s per-epoch order — crash hook,
//! ingest, deliver, depart, route, zero-transit deliver, custody, step and
//! feed, checkpoint — and its constants (forced-run spacing). On fault-free
//! workloads it sends exactly the driver's messages; `trace` checks that
//! (`dist.replay_fidelity`). Under the chaos plan it follows the driver's
//! protocol (delivery plans, dedup, poison quarantine, checkpoint restore and
//! tail replay) closely enough to exercise the same layer calls, but it is
//! not held to byte equality there.

use crate::span::{Op, Recorder, NO_SITE};
use crate::workload::Prepared;
use rfid::core::{InferenceEngine, InferenceReport, InferenceStats, MigrationState};
use rfid::dist::transport::DeliveryPlan;
use rfid::dist::{
    DistributedConfig, MigrationStrategy, Ons, TransportMode, TransportStats, WireCodec,
    ONS_UPDATE_BYTES,
};
use rfid::query::sharing::unshared_bytes_with;
use rfid::query::{share_states_with, ObjectQueryState, QueryProcessor};
use rfid::sim::{ChainTrace, CrashFault, FaultPlan, ObjectTransfer};
use rfid::types::{
    Epoch, LocationId, ObjectEvent, RawReading, ReadRateTable, ReaderId, SensorReading, SiteId,
    TagId,
};
use rfid::wire::{PendingShipment, SiteCheckpoint};
use rfid::MemoryStats;
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// The driver's minimum spacing between two departure-forced inference runs
/// at one site (`FORCED_RUN_SPACING_SECS` in `rfid-dist`).
const FORCED_RUN_SPACING_SECS: u32 = 150;

/// Counts taken at the same boundaries as the spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters {
    pub readings_observed: u64,
    pub infer_runs: u64,
    /// Sum of `InferenceReport::duration`, seconds: inference time as the
    /// engine itself reports it, available with spans off.
    pub infer_reported_s: f64,
    pub migration_bytes: u64,
    pub migration_msgs: u64,
    pub readings_bytes: u64,
    pub readings_msgs: u64,
    pub bundle_bytes: u64,
    pub bundle_msgs: u64,
    pub ons_bytes: u64,
    pub ons_msgs: u64,
    pub checkpoint_bytes: u64,
    pub checkpoints: u64,
    pub decode_errors: u64,
    pub events_in: u64,
    pub tracked_states: u64,
    pub high_water_obs: u64,
}

impl Counters {
    /// Bytes the replay put on the wire, comparable to `comm.total_bytes()`
    /// on fault-free workloads.
    pub fn comm_bytes(&self) -> u64 {
        self.migration_bytes + self.readings_bytes + self.bundle_bytes + self.ons_bytes
    }

    pub fn comm_messages(&self) -> u64 {
        self.migration_msgs + self.readings_msgs + self.bundle_msgs + self.ons_msgs
    }

    /// Add `other`'s work counters (what was computed) but not its traffic
    /// counters (what was sent).
    fn absorb_work(&mut self, other: &Counters) {
        self.readings_observed += other.readings_observed;
        self.infer_runs += other.infer_runs;
        self.infer_reported_s += other.infer_reported_s;
        self.events_in += other.events_in;
        self.decode_errors += other.decode_errors;
        self.high_water_obs = self.high_water_obs.max(other.high_water_obs);
    }
}

/// What one replay produced.
pub struct Replay {
    pub wall_s: f64,
    pub counters: Counters,
    pub recorder: Recorder,
}

/// Replay `prepared`'s chain under its config, with spans on or off.
pub fn replay(prepared: &Prepared, spans: bool) -> Replay {
    replay_with(&prepared.chain, &prepared.config, spans)
}

/// Replay `chain` under `config` (which may differ from the workload's own,
/// e.g. with change detection off).
pub fn replay_with(chain: &ChainTrace, config: &DistributedConfig, spans: bool) -> Replay {
    let mut rec = Recorder::new(spans);
    let mut counters = Counters::default();
    let started = Instant::now();
    rec.enter(Op::Replay, NO_SITE);
    if config.strategy == MigrationStrategy::Centralized {
        replay_centralized(chain, config, &mut rec, &mut counters);
    } else {
        replay_federated(chain, config, &mut rec, &mut counters);
    }
    rec.exit();
    Replay {
        wall_s: started.elapsed().as_secs_f64(),
        counters,
        recorder: rec,
    }
}

fn make_processor(config: &DistributedConfig) -> QueryProcessor {
    let mut processor = QueryProcessor::new();
    for query in &config.queries {
        processor.register(query.clone());
    }
    processor
}

fn note_report(counters: &mut Counters, report: &InferenceReport) {
    counters.infer_runs += 1;
    counters.infer_reported_s += report.duration.as_secs_f64();
}

/// One object's migrating state between two sites.
#[derive(Clone)]
struct Shipment {
    depart: Epoch,
    from: u16,
    to: u16,
    tag: TagId,
    arrive: Epoch,
    seq: u64,
    /// When the object itself arrives; `arrive` may be later under faults.
    physical: Epoch,
    inference: Option<Vec<u8>>,
    query: Vec<ObjectQueryState>,
}

impl Shipment {
    fn order_key(&self) -> (Epoch, u16, u16, TagId) {
        (self.depart, self.from, self.to, self.tag)
    }

    fn is_envelope(&self) -> bool {
        self.inference.is_some() || !self.query.is_empty()
    }
}

/// What every site of one federated replay shares.
struct Ctx<'a> {
    chain: &'a ChainTrace,
    config: &'a DistributedConfig,
    codec: WireCodec,
    horizon: u32,
    migrates_state: bool,
    with_queries: bool,
    stride: u32,
    mode: TransportMode,
    faults: Option<&'a FaultPlan>,
}

struct Site<'a> {
    id: u16,
    engine: InferenceEngine,
    processor: QueryProcessor,
    readings: Cow<'a, [RawReading]>,
    reading_cursor: usize,
    sensors: Vec<SensorReading>,
    sensor_cursor: usize,
    departures: Vec<ObjectTransfer>,
    departure_cursor: usize,
    inbox: BTreeMap<Epoch, Vec<Shipment>>,
    /// Shipments received since the last checkpoint, replayed after a crash.
    journal: Vec<Shipment>,
    last_checkpoint: Option<Vec<u8>>,
    crash: Option<CrashFault>,
    down_until: Option<Epoch>,
    down: bool,
    skew_secs: u32,
    num_readers: u16,
    next_seq: BTreeMap<u16, u64>,
    seen: BTreeSet<(u16, u64)>,
    forgotten: BTreeMap<TagId, Epoch>,
    /// Scratch for the readings that become visible this epoch.
    batch: Vec<RawReading>,
}

impl<'a> Site<'a> {
    fn new(ctx: &Ctx<'a>, id: usize) -> Site<'a> {
        let trace = &ctx.chain.sites[id];
        let readings = match trace.readings.sorted_readings() {
            Some(slice) => Cow::Borrowed(slice),
            None => {
                let mut copy = trace.readings.readings_unordered().to_vec();
                copy.sort_unstable();
                copy.dedup();
                Cow::Owned(copy)
            }
        };
        let sensors = match &ctx.config.temperature {
            Some(model) if ctx.with_queries => {
                model.generate(trace.meta.num_locations, Epoch(ctx.horizon))
            }
            _ => Vec::new(),
        };
        Site {
            id: id as u16,
            engine: InferenceEngine::new(ctx.config.inference.clone(), trace.read_rates.clone()),
            processor: make_processor(ctx.config),
            readings,
            reading_cursor: 0,
            sensors,
            sensor_cursor: 0,
            departures: ctx
                .chain
                .transfers
                .iter()
                .filter(|tr| tr.from_site.0 as usize == id)
                .copied()
                .collect(),
            departure_cursor: 0,
            inbox: BTreeMap::new(),
            journal: Vec::new(),
            last_checkpoint: None,
            crash: ctx.faults.and_then(|plan| plan.crash(id as u16)),
            down_until: None,
            down: false,
            skew_secs: ctx.faults.map_or(0, |plan| plan.clock_skew_secs(id as u16)),
            num_readers: trace.meta.num_locations as u16,
            next_seq: BTreeMap::new(),
            seen: BTreeSet::new(),
            forgotten: BTreeMap::new(),
            batch: Vec::new(),
        }
    }

    fn infer(&mut self, now: Epoch, rec: &mut Recorder, counters: &mut Counters) {
        let report = rec.time(Op::CoreInfer, self.id, || self.engine.run_inference(now));
        note_report(counters, &report);
        counters.high_water_obs = counters
            .high_water_obs
            .max(self.engine.stored_observations() as u64);
    }

    /// Feed the sensor and RFID readings that become visible at `now`.
    fn ingest(&mut self, ctx: &Ctx<'_>, now: Epoch, rec: &mut Recorder, counters: &mut Counters) {
        if self.down {
            return;
        }
        let sensor_start = self.sensor_cursor;
        while self.sensor_cursor < self.sensors.len()
            && self.sensors[self.sensor_cursor].time <= now
        {
            self.sensor_cursor += 1;
        }
        if sensor_start < self.sensor_cursor {
            let (processor, due) = (
                &mut self.processor,
                &self.sensors[sensor_start..self.sensor_cursor],
            );
            rec.time(Op::QueryOnSensor, self.id, || {
                for reading in due {
                    processor.on_sensor(*reading);
                }
            });
        }
        // Fault draws are the harness's business; only the surviving
        // readings are timed as `core.observe`.
        self.batch.clear();
        while self.reading_cursor < self.readings.len()
            && self.readings[self.reading_cursor]
                .time
                .0
                .saturating_add(self.skew_secs)
                <= now.0
        {
            let reading = self.readings[self.reading_cursor];
            self.reading_cursor += 1;
            if let Some(plan) = ctx.faults {
                if plan.reading_dropped(self.id, reading.time) {
                    continue;
                }
            }
            self.batch.push(reading);
            if let Some(plan) = ctx.faults {
                if let Some(slot) =
                    plan.rogue_reader_slot(self.id, reading.time, reading.tag, self.num_readers)
                {
                    self.batch
                        .push(RawReading::new(reading.time, reading.tag, ReaderId(slot)));
                }
            }
        }
        if !self.batch.is_empty() {
            counters.readings_observed += self.batch.len() as u64;
            let (engine, batch) = (&mut self.engine, &self.batch);
            rec.time(Op::CoreObserve, self.id, || {
                for reading in batch {
                    engine.observe(*reading);
                }
            });
        }
    }

    fn receive(&mut self, msg: Shipment) {
        if self.crash.is_some() {
            self.journal.push(msg.clone());
        }
        self.inbox.entry(msg.arrive).or_default().push(msg);
    }

    /// Import the shipments arriving at `now` that departed earlier
    /// (`zero_transit` false) or this very epoch (`zero_transit` true).
    fn deliver(
        &mut self,
        ctx: &Ctx<'_>,
        now: Epoch,
        zero_transit: bool,
        rec: &mut Recorder,
        counters: &mut Counters,
    ) {
        if self.down {
            return;
        }
        let Some(batch) = self.inbox.remove(&now) else {
            return;
        };
        let (ready, hold): (Vec<Shipment>, Vec<Shipment>) = batch
            .into_iter()
            .partition(|msg| zero_transit || msg.depart < now);
        if !hold.is_empty() {
            self.inbox.insert(now, hold);
        }
        self.import(ctx, ready, rec, counters);
    }

    fn import(
        &mut self,
        ctx: &Ctx<'_>,
        mut batch: Vec<Shipment>,
        rec: &mut Recorder,
        counters: &mut Counters,
    ) {
        if batch.is_empty() {
            return;
        }
        batch.sort_by_key(Shipment::order_key);
        rec.enter(Op::ReplayDeliver, self.id);
        for msg in batch {
            let guarded = msg.is_envelope() && ctx.mode.dedups();
            if guarded {
                if !self.seen.insert((msg.from, msg.seq)) {
                    continue;
                }
                if self
                    .forgotten
                    .get(&msg.tag)
                    .is_some_and(|&gone| gone > msg.physical)
                {
                    continue;
                }
            }
            if let Some(payload) = &msg.inference {
                let decoded = rec.time(Op::WireDecodeMigration, self.id, || {
                    ctx.codec.decode_migration(payload)
                });
                match decoded {
                    Ok(state) => {
                        let engine = &mut self.engine;
                        rec.time(Op::CoreImport, self.id, || {
                            if guarded && msg.arrive > msg.physical {
                                engine.import_late_state(state);
                            } else {
                                engine.import_state(state);
                            }
                        });
                    }
                    Err(_) => {
                        // A poisoned envelope: quarantined, query state and all.
                        counters.decode_errors += 1;
                        continue;
                    }
                }
            }
            if !msg.query.is_empty() {
                let processor = &mut self.processor;
                rec.time(Op::QueryImportState, self.id, || {
                    processor.import_state(msg.query)
                });
            }
        }
        rec.exit();
    }

    /// Process the dispatches leaving at `now`, pushing one shipment per
    /// surviving copy into `out`.
    fn depart(
        &mut self,
        ctx: &Ctx<'_>,
        now: Epoch,
        out: &mut Vec<Shipment>,
        rec: &mut Recorder,
        counters: &mut Counters,
    ) {
        if self.down {
            return;
        }
        let start = self.departure_cursor;
        while self.departure_cursor < self.departures.len()
            && self.departures[self.departure_cursor].depart == now
        {
            self.departure_cursor += 1;
        }
        if start == self.departure_cursor {
            return;
        }
        rec.enter(Op::ReplayDepart, self.id);
        if ctx.migrates_state {
            let due = match self.engine.last_inference_at() {
                None => true,
                Some(last) => now.since(last) >= FORCED_RUN_SPACING_SECS,
            };
            if due {
                self.infer(now, rec, counters);
            }
        }
        let mut by_shipment: BTreeMap<(SiteId, Epoch), Vec<TagId>> = BTreeMap::new();
        for tr in &self.departures[start..self.departure_cursor] {
            if ctx.migrates_state {
                counters.ons_bytes += ONS_UPDATE_BYTES as u64;
                counters.ons_msgs += 1;
            }
            by_shipment
                .entry((tr.to_site, tr.arrive))
                .or_default()
                .push(tr.tag);
        }
        let from = self.id;
        for ((to, arrive), tags) in by_shipment {
            let to = to.0;
            let mut shipment_states: Vec<ObjectQueryState> = Vec::new();
            let mut group_attempts = 1u32;
            let mut shipped_readings: BTreeSet<RawReading> = BTreeSet::new();
            for &tag in &tags {
                let state = if !tag.is_object() {
                    MigrationState::None
                } else {
                    let engine = &self.engine;
                    match ctx.config.strategy {
                        MigrationStrategy::CollapsedWeights => {
                            rec.time(Op::CoreExport, from, || {
                                MigrationState::Collapsed(engine.export_collapsed(tag))
                            })
                        }
                        MigrationStrategy::CriticalRegionReadings => {
                            rec.time(Op::CoreExport, from, || {
                                let mut readings = engine.export_readings(tag);
                                readings.readings.retain(|r| shipped_readings.insert(*r));
                                MigrationState::Readings(readings)
                            })
                        }
                        MigrationStrategy::None | MigrationStrategy::Centralized => {
                            MigrationState::None
                        }
                    }
                };
                let mut inference = match state {
                    MigrationState::None => None,
                    state => {
                        let payload = rec.time(Op::WireEncodeMigration, from, || {
                            ctx.codec.encode_migration(&state)
                        });
                        counters.migration_bytes += payload.len() as u64;
                        counters.migration_msgs += 1;
                        Some(payload)
                    }
                };
                let query = if ctx.with_queries && ctx.migrates_state && tag.is_object() {
                    let processor = &self.processor;
                    rec.time(Op::QueryExportState, from, || processor.export_state(tag))
                } else {
                    Vec::new()
                };
                shipment_states.extend(query.iter().cloned());

                let mut delivered_at = arrive;
                let mut duplicated = false;
                if let Some(plan) = ctx.faults {
                    let delay = plan.shipment_delay_secs(from, to, tag, now);
                    delivered_at = Epoch(arrive.0.saturating_add(delay));
                    duplicated = plan.shipment_duplicated(from, to, tag, now);
                }
                let envelope = inference.is_some() || !query.is_empty();
                let mut arrivals = vec![delivered_at];
                let mut seq = 0;
                if envelope && ctx.mode.dedups() {
                    let counter = self.next_seq.entry(to).or_default();
                    seq = *counter;
                    *counter += 1;
                    if let Some(plan) = ctx.faults {
                        if plan.payload_corrupted(from, to, seq) {
                            if let Some(byte) = inference.as_mut().and_then(|p| p.first_mut()) {
                                *byte ^= 0x80;
                            }
                        }
                        if ctx.mode == TransportMode::Reliable {
                            let delivery = rec.time(Op::TransportPlanCompute, from, || {
                                DeliveryPlan::compute(
                                    plan,
                                    &ctx.config.transport,
                                    from,
                                    to,
                                    tag,
                                    now,
                                    delivered_at,
                                    Epoch(ctx.horizon),
                                )
                            });
                            if let Some(payload) = &inference {
                                let resent = u64::from(delivery.attempts.saturating_sub(1));
                                counters.migration_bytes += payload.len() as u64 * resent;
                                counters.migration_msgs += resent;
                            }
                            group_attempts = group_attempts.max(delivery.attempts);
                            arrivals = delivery.arrivals;
                        }
                    }
                }
                if duplicated {
                    if let Some(&first) = arrivals.first() {
                        arrivals.insert(0, first);
                    }
                }
                for at in arrivals {
                    out.push(Shipment {
                        depart: now,
                        from,
                        to,
                        tag,
                        arrive: at,
                        seq,
                        physical: arrive,
                        inference: inference.clone(),
                        query: query.clone(),
                    });
                }
            }
            let bundle = rec.time(Op::QueryShareStates, from, || {
                share_states_with(&shipment_states, |s| ctx.codec.state_payload(s))
            });
            if let Some(bundle) = bundle {
                let encoded = rec.time(Op::WireEncodeBundle, from, || {
                    ctx.codec.encode_bundle(&bundle)
                });
                // The driver ships the states themselves and only charges the
                // bundle; decoding it here is what a real receiver would pay.
                let decoded = rec.time(Op::WireDecodeBundle, from, || {
                    ctx.codec.decode_bundle(&encoded)
                });
                if decoded.is_err() {
                    counters.decode_errors += 1;
                }
                let unshared = unshared_bytes_with(&shipment_states, |s| {
                    ctx.codec.encode_query_state(s).len()
                });
                let shared = encoded.len().min(unshared) as u64;
                counters.bundle_bytes += shared * u64::from(group_attempts);
                counters.bundle_msgs += u64::from(group_attempts);
            }
            for &tag in &tags {
                let engine = &mut self.engine;
                rec.time(Op::CoreForget, from, || engine.forget(tag));
                self.processor.forget(tag);
                self.forgotten.insert(tag, now);
            }
        }
        rec.exit();
    }

    /// Periodic inference, then the enriched events of the objects this site
    /// has custody of, every `stride` seconds.
    fn step_and_feed(
        &mut self,
        ctx: &Ctx<'_>,
        now: Epoch,
        ons: &Ons,
        rec: &mut Recorder,
        counters: &mut Counters,
    ) {
        if self.down {
            return;
        }
        let feeds = ctx.with_queries && now.0.is_multiple_of(ctx.stride);
        if !self.engine.due(now) && !feeds {
            return;
        }
        rec.enter(Op::ReplayStep, self.id);
        if self.engine.due(now) {
            self.infer(now, rec, counters);
        }
        if feeds {
            let engine = &self.engine;
            let events = rec.time(Op::CoreEventsAt, self.id, || engine.events_at(now));
            let mine: Vec<ObjectEvent> = events
                .into_iter()
                .filter(|event| ons.site_of(event.tag, SiteId(0)).0 == self.id)
                .map(|mut event| {
                    event.property = ctx.config.product_properties.get(&event.tag).cloned();
                    event
                })
                .collect();
            counters.events_in += mine.len() as u64;
            let processor = &mut self.processor;
            rec.time(Op::QueryOnEvent, self.id, || {
                for event in &mine {
                    processor.on_event(event);
                }
            });
        }
        rec.exit();
    }

    /// Cut, encode and (as a restore would) decode a checkpoint at the
    /// policy boundary; keep only the newest.
    fn maybe_checkpoint(
        &mut self,
        ctx: &Ctx<'_>,
        now: Epoch,
        rec: &mut Recorder,
        counters: &mut Counters,
    ) {
        let Some(every) = ctx.config.checkpoint_every_secs.filter(|&k| k > 0) else {
            return;
        };
        if self.down || now.0 == 0 || !now.0.is_multiple_of(every) {
            return;
        }
        rec.enter(Op::ReplayCheckpoint, self.id);
        let engine = rec.time(Op::CoreSnapshot, self.id, || self.engine.snapshot());
        let mut pending: Vec<&Shipment> = self
            .inbox
            .values()
            .flatten()
            .filter(|msg| msg.depart <= now)
            .collect();
        pending.sort_by_key(|msg| msg.order_key());
        let checkpoint = SiteCheckpoint {
            site: self.id,
            at: now,
            engine,
            processor: self.processor.snapshot(),
            reading_cursor: self.reading_cursor as u64,
            sensor_cursor: self.sensor_cursor as u64,
            departure_cursor: self.departure_cursor as u64,
            inbox: pending
                .into_iter()
                .map(|msg| PendingShipment {
                    depart: msg.depart,
                    from: msg.from,
                    to: msg.to,
                    tag: msg.tag,
                    arrive: msg.arrive,
                    seq: msg.seq,
                    physical: msg.physical,
                    inference: msg.inference.clone(),
                    query: msg.query.clone(),
                })
                .collect(),
            comm_bytes: [0; 5],
            comm_messages: [0; 5],
            shared_bytes: 0,
            unshared_bytes: 0,
            inference_runs: 0,
            stats: InferenceStats::default(),
            inbox_seqs: Vec::new(),
            transport: TransportStats::default(),
            quarantine: Vec::new(),
            memory: MemoryStats::default(),
            ledgers: Vec::new(),
        };
        let bytes = rec.time(Op::WireEncodeCheckpoint, self.id, || {
            ctx.codec.encode_checkpoint(&checkpoint)
        });
        counters.checkpoint_bytes += bytes.len() as u64;
        counters.checkpoints += 1;
        self.last_checkpoint = Some(bytes);
        self.journal.retain(|msg| msg.depart > now);
        rec.exit();
    }

    /// Epoch-start fault hook: go down at the scheduled crash, and at the
    /// rejoin epoch restore from the newest checkpoint, replay the local
    /// tail up to the crash and skip what the site slept through.
    fn maybe_crash(
        &mut self,
        ctx: &Ctx<'_>,
        now: Epoch,
        rec: &mut Recorder,
        counters: &mut Counters,
    ) {
        let Some(crash) = self.crash else {
            return;
        };
        if crash.at == now {
            self.down_until = Some(crash.resume_at());
        }
        let Some(resume) = self.down_until else {
            self.down = false;
            return;
        };
        if now < resume {
            self.down = true;
            return;
        }
        self.down_until = None;
        self.down = false;
        rec.enter(Op::ReplayRestore, self.id);
        self.restore_and_replay(ctx, crash.at, rec, counters);
        self.fast_forward(ctx, resume, rec, counters);
        rec.exit();
    }

    fn restore_and_replay(
        &mut self,
        ctx: &Ctx<'_>,
        crash_at: Epoch,
        rec: &mut Recorder,
        counters: &mut Counters,
    ) {
        self.inbox.clear();
        let restored = self.last_checkpoint.as_ref().and_then(|bytes| {
            rec.time(Op::WireDecodeCheckpoint, self.id, || {
                ctx.codec.decode_checkpoint(bytes)
            })
            .ok()
        });
        let replay_from = match restored {
            Some(checkpoint) => {
                let engine = &mut self.engine;
                rec.time(Op::CoreRestore, self.id, || {
                    engine.restore(checkpoint.engine)
                });
                self.processor.restore(checkpoint.processor);
                self.reading_cursor = checkpoint.reading_cursor as usize;
                self.sensor_cursor = checkpoint.sensor_cursor as usize;
                self.departure_cursor = checkpoint.departure_cursor as usize;
                for p in checkpoint.inbox {
                    self.inbox.entry(p.arrive).or_default().push(Shipment {
                        depart: p.depart,
                        from: p.from,
                        to: p.to,
                        tag: p.tag,
                        arrive: p.arrive,
                        seq: p.seq,
                        physical: p.physical,
                        inference: p.inference,
                        query: p.query,
                    });
                }
                checkpoint.at.0 + 1
            }
            None => {
                let trace = &ctx.chain.sites[self.id as usize];
                self.engine =
                    InferenceEngine::new(ctx.config.inference.clone(), trace.read_rates.clone());
                self.processor = make_processor(ctx.config);
                self.reading_cursor = 0;
                self.sensor_cursor = 0;
                self.departure_cursor = 0;
                0
            }
        };
        // Sequence counters and the staleness guard are functions of the
        // already-processed departure prefix; dedup state is rebuilt by the
        // tail replay, since the journal holds every receive since the
        // checkpoint.
        self.next_seq.clear();
        self.forgotten.clear();
        for tr in &self.departures[..self.departure_cursor] {
            self.forgotten.insert(tr.tag, tr.depart);
            if ctx.mode.dedups() && ctx.migrates_state && tr.tag.is_object() {
                *self.next_seq.entry(tr.to_site.0).or_default() += 1;
            }
        }
        self.seen.clear();
        for msg in self.journal.clone() {
            self.inbox.entry(msg.arrive).or_default().push(msg);
        }
        let mut ons = OnsTracker::default();
        let mut discarded = Vec::new();
        // The tail's messages were already sent (and counted) in the
        // pre-crash timeline; only the work of redoing them is new.
        let mut tail = Counters::default();
        for t in replay_from..crash_at.0 {
            let now = Epoch(t);
            self.ingest(ctx, now, rec, &mut tail);
            self.deliver(ctx, now, false, rec, &mut tail);
            self.depart(ctx, now, &mut discarded, rec, &mut tail);
            discarded.clear();
            self.deliver(ctx, now, true, rec, &mut tail);
            ons.advance(&ctx.chain.transfers, now);
            self.step_and_feed(ctx, now, &ons.ons, rec, &mut tail);
        }
        counters.absorb_work(&tail);
    }

    fn fast_forward(
        &mut self,
        ctx: &Ctx<'_>,
        resume: Epoch,
        rec: &mut Recorder,
        counters: &mut Counters,
    ) {
        while self.reading_cursor < self.readings.len()
            && self.readings[self.reading_cursor]
                .time
                .0
                .saturating_add(self.skew_secs)
                < resume.0
        {
            self.reading_cursor += 1;
        }
        while self.sensor_cursor < self.sensors.len()
            && self.sensors[self.sensor_cursor].time < resume
        {
            self.sensor_cursor += 1;
        }
        while self.departure_cursor < self.departures.len()
            && self.departures[self.departure_cursor].depart < resume
        {
            self.departure_cursor += 1;
        }
        let stale: Vec<Epoch> = self.inbox.range(..resume).map(|(key, _)| *key).collect();
        let mut late = Vec::new();
        for key in stale {
            late.extend(self.inbox.remove(&key).unwrap_or_default());
        }
        self.import(ctx, late, rec, counters);
    }
}

/// Custody registry advanced from the static transfer schedule.
#[derive(Default)]
struct OnsTracker {
    ons: Ons,
    cursor: usize,
}

impl OnsTracker {
    fn advance(&mut self, transfers: &[ObjectTransfer], now: Epoch) {
        while self.cursor < transfers.len() && transfers[self.cursor].depart <= now {
            self.ons
                .register(transfers[self.cursor].tag, transfers[self.cursor].to_site);
            self.cursor += 1;
        }
    }
}

fn replay_federated(
    chain: &ChainTrace,
    config: &DistributedConfig,
    rec: &mut Recorder,
    counters: &mut Counters,
) {
    let ctx = Ctx {
        chain,
        config,
        codec: WireCodec::new(config.wire_format),
        horizon: chain.sites.first().map_or(0, |s| s.meta.length),
        migrates_state: config.strategy != MigrationStrategy::None,
        with_queries: !config.queries.is_empty(),
        stride: config.event_stride_secs.max(1),
        mode: TransportMode::resolve(config.faults.as_ref(), &config.transport),
        faults: config.faults.as_ref(),
    };
    let mut sites: Vec<Site> = (0..chain.sites.len())
        .map(|id| Site::new(&ctx, id))
        .collect();
    let mut ons = OnsTracker::default();
    let mut outbound: Vec<Shipment> = Vec::new();
    for t in 0..=ctx.horizon {
        let now = Epoch(t);
        for site in sites.iter_mut() {
            site.maybe_crash(&ctx, now, rec, counters);
            site.ingest(&ctx, now, rec, counters);
            site.deliver(&ctx, now, false, rec, counters);
        }
        for site in sites.iter_mut() {
            site.depart(&ctx, now, &mut outbound, rec, counters);
        }
        if !outbound.is_empty() {
            for msg in outbound.drain(..) {
                sites[msg.to as usize].receive(msg);
            }
            for site in sites.iter_mut() {
                site.deliver(&ctx, now, true, rec, counters);
            }
        }
        ons.advance(&chain.transfers, now);
        for site in sites.iter_mut() {
            site.step_and_feed(&ctx, now, &ons.ons, rec, counters);
            site.maybe_checkpoint(&ctx, now, rec, counters);
        }
    }
    let horizon = Epoch(ctx.horizon);
    for site in sites.iter_mut() {
        if site.engine.last_inference_at() != Some(horizon) {
            site.infer(horizon, rec, counters);
        }
        counters.tracked_states += site.processor.tracked_states() as u64;
    }
}

/// The Centralized path: every site forwards each epoch's readings as one
/// encoded batch to a single engine over the union of the location spaces.
fn replay_centralized(
    chain: &ChainTrace,
    config: &DistributedConfig,
    rec: &mut Recorder,
    counters: &mut Counters,
) {
    let num_sites = chain.sites.len();
    let horizon = chain.sites.first().map_or(0, |s| s.meta.length);
    let site_locs = chain.sites.first().map_or(0, |s| s.meta.num_locations);
    let with_queries = !config.queries.is_empty();
    let stride = config.event_stride_secs.max(1);

    // Block-diagonal global read-rate table, as the driver builds it.
    let background = (0..site_locs)
        .flat_map(|r| {
            let table = &chain.sites[0].read_rates;
            (0..site_locs).map(move |a| table.rate(LocationId(r as u16), LocationId(a as u16)))
        })
        .fold(f64::INFINITY, f64::min)
        .min(1e-4);
    let mut global = ReadRateTable::uniform(num_sites * site_locs, background);
    for (s, site) in chain.sites.iter().enumerate() {
        let offset = (s * site_locs) as u16;
        for r in 0..site_locs as u16 {
            for a in 0..site_locs as u16 {
                global.set(
                    LocationId(offset + r),
                    LocationId(offset + a),
                    site.read_rates.rate(LocationId(r), LocationId(a)),
                );
            }
        }
    }
    let mut engine = InferenceEngine::new(config.inference.clone(), global);
    let mut processor = make_processor(config);
    let codec = WireCodec::new(config.wire_format);

    let mut readings: Vec<RawReading> = Vec::new();
    for (s, site) in chain.sites.iter().enumerate() {
        let offset = (s * site_locs) as u16;
        for r in site.readings.readings_unordered() {
            readings.push(RawReading::new(
                r.time,
                r.tag,
                ReaderId(offset + r.reader.0),
            ));
        }
    }
    readings.sort_unstable();
    readings.dedup();
    let mut sensors: Vec<SensorReading> = Vec::new();
    if let (true, Some(model)) = (with_queries, &config.temperature) {
        for s in 0..num_sites {
            let offset = (s * site_locs) as u16;
            for reading in model.generate(site_locs, Epoch(horizon)) {
                sensors.push(SensorReading::new(
                    reading.time,
                    LocationId(offset + reading.location.0),
                    reading.value,
                ));
            }
        }
        sensors.sort_by_key(|r| (r.time, r.location));
    }

    let mut reading_cursor = 0usize;
    let mut sensor_cursor = 0usize;
    let mut site_batch: Vec<RawReading> = Vec::new();
    for t in 0..=horizon {
        let now = Epoch(t);
        let sensor_start = sensor_cursor;
        while sensor_cursor < sensors.len() && sensors[sensor_cursor].time <= now {
            sensor_cursor += 1;
        }
        if sensor_start < sensor_cursor {
            rec.time(Op::QueryOnSensor, NO_SITE, || {
                for reading in &sensors[sensor_start..sensor_cursor] {
                    processor.on_sensor(*reading);
                }
            });
        }
        let epoch_start = reading_cursor;
        while reading_cursor < readings.len() && readings[reading_cursor].time <= now {
            reading_cursor += 1;
        }
        let arrived = &readings[epoch_start..reading_cursor];
        for site in 0..num_sites {
            site_batch.clear();
            site_batch.extend(
                arrived
                    .iter()
                    .filter(|r| (r.reader.0 as usize) / site_locs.max(1) == site),
            );
            if site_batch.is_empty() {
                continue;
            }
            let id = site as u16;
            let payload = rec.time(Op::WireEncodeReadings, id, || {
                codec.encode_readings(&site_batch)
            });
            counters.readings_bytes += payload.len() as u64;
            counters.readings_msgs += 1;
            match rec.time(Op::WireDecodeReadings, id, || {
                codec.decode_readings(&payload)
            }) {
                Ok(decoded) => {
                    counters.readings_observed += decoded.len() as u64;
                    rec.time(Op::CoreObserve, id, || {
                        for reading in decoded {
                            engine.observe(reading);
                        }
                    });
                }
                Err(_) => counters.decode_errors += 1,
            }
        }
        if engine.due(now) {
            let report = rec.time(Op::CoreInfer, NO_SITE, || engine.run_inference(now));
            note_report(counters, &report);
        }
        counters.high_water_obs = counters
            .high_water_obs
            .max(engine.stored_observations() as u64);
        if with_queries && t % stride == 0 {
            let mut events = rec.time(Op::CoreEventsAt, NO_SITE, || engine.events_at(now));
            for event in events.iter_mut() {
                event.property = config.product_properties.get(&event.tag).cloned();
            }
            counters.events_in += events.len() as u64;
            rec.time(Op::QueryOnEvent, NO_SITE, || {
                for event in &events {
                    processor.on_event(event);
                }
            });
        }
    }
    if engine.last_inference_at() != Some(Epoch(horizon)) {
        let report = rec.time(Op::CoreInfer, NO_SITE, || {
            engine.run_inference(Epoch(horizon))
        });
        note_report(counters, &report);
    }
    counters.tracked_states = processor.tracked_states() as u64;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{prepare, Workload};
    use rfid::dist::DistributedDriver;

    /// On a fault-free workload the replay must put the driver's very
    /// messages on the wire — that is what entitles it to attribute the
    /// driver's time.
    #[test]
    fn fault_free_replay_sends_what_the_driver_sends() {
        for workload in [
            Workload::SteadyCollapsed,
            Workload::ReadingsHeavy,
            Workload::CentralizedUplink,
            Workload::MonitoringQueries,
        ] {
            let prepared = prepare(workload, 3, 600);
            let outcome = DistributedDriver::new(prepared.config.clone()).run(&prepared.chain);
            let replayed = replay(&prepared, false);
            assert_eq!(
                replayed.counters.comm_messages(),
                outcome.comm.total_messages() as u64,
                "{}: messages",
                workload.name()
            );
            assert_eq!(
                replayed.counters.comm_bytes(),
                outcome.comm.total_bytes() as u64,
                "{}: bytes",
                workload.name()
            );
            assert_eq!(
                replayed.counters.infer_runs,
                outcome.inference_runs as u64,
                "{}: inference runs",
                workload.name()
            );
            assert!(replayed.recorder.spans().is_empty());
        }
    }

    #[test]
    fn chaos_replay_survives_its_faults_and_exercises_durability() {
        let prepared = prepare(Workload::ChaosDurable, 3, 900);
        let first = replay(&prepared, true);
        let second = replay(&prepared, false);
        assert_eq!(first.counters.checkpoints, second.counters.checkpoints);
        assert_eq!(first.counters.comm_bytes(), second.counters.comm_bytes());
        assert!(first.counters.checkpoints > 0);
        assert!(first.counters.checkpoint_bytes > 0);
        let totals = first.recorder.self_times();
        assert!(totals.contains_key(&Op::WireEncodeCheckpoint));
        assert!(totals.contains_key(&Op::TransportPlanCompute));
    }
}
