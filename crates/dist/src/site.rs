//! The per-site state machine and its per-epoch protocol.
//!
//! A site is four parts: its *local streams*
//! ([`LocalStreams`]), its *inference unit* ([`InferenceUnit`]), the
//! *shipments* it exchanges with other sites ([`shipments`]) and its
//! *durability* ([`durability`]). Sites interact only through the
//! [`ShipmentMsg`] exchange, so the whole protocol of one epoch is two
//! methods — [`SiteState::before_exchange`] and
//! [`SiteState::after_exchange`] — and everything that replays a site (the
//! scheduler at any worker count, the tail replay after a crash) calls
//! exactly those two.
//!
//! A site owns only mutable state: its inputs and the custody index are
//! built once per run in [`RunCtx`](crate::driver::RunCtx) and borrowed, so a
//! crash restore rebuilds the state and nothing else.

mod durability;
mod shipments;

pub(crate) use shipments::ShipmentMsg;

use crate::driver::RunCtx;
use crate::inference::{InferenceUnit, Tally};
use crate::streams::LocalStreams;
use crate::transport::{EdgeSequencer, ReliableInbox};
use rfid_query::Alert;
use rfid_sim::{CrashFault, ObjectTransfer};
use rfid_types::{Epoch, TagId};
use std::collections::BTreeMap;

/// What one site contributes to the merged outcome.
pub(crate) struct SiteOutcome {
    pub(crate) site: usize,
    pub(crate) tally: Tally,
    pub(crate) alerts: Vec<Alert>,
    pub(crate) containment: Vec<(TagId, TagId)>,
}

/// One site of a federated run.
pub(crate) struct SiteState<'a> {
    ctx: &'a RunCtx<'a>,
    site: usize,
    streams: LocalStreams<'a>,
    unit: InferenceUnit,

    // Shipments.
    /// Transfers departing from this site, in global (depart, tag) order.
    departures: &'a [ObjectTransfer],
    departure_cursor: usize,
    /// Shipments awaiting their arrival epoch, keyed by it.
    inbox: BTreeMap<Epoch, Vec<ShipmentMsg>>,
    /// Outbound per-destination sequence counters.
    seqs: EdgeSequencer,
    /// Receiver-side dedup state, one [`ReliableInbox`] per inbound edge.
    dedup: BTreeMap<u16, ReliableInbox>,
    /// Last local departure epoch per tag — the staleness guard: transport
    /// copies carrying state older than the tag's last departure from this
    /// site are dropped instead of resurrecting a forwarded object.
    forgotten: BTreeMap<TagId, Epoch>,

    // Durability.
    /// Encoded bytes of the newest checkpoint — the durable artifact a crash
    /// restores from. Only the newest is retained (bounded memory); the
    /// journal covers everything after it.
    last_checkpoint: Option<Vec<u8>>,
    /// Durable receive log: every shipment accepted since the last
    /// checkpoint compaction. Only maintained when this site can crash.
    journal: Vec<ShipmentMsg>,
    /// This site's scheduled crash, extracted from the plan.
    crash: Option<CrashFault>,
    /// Set while the site is down after a crash with non-zero downtime.
    down_until: Option<Epoch>,
    /// Whether this epoch's processing is suppressed (down after a crash).
    down: bool,
}

impl<'a> SiteState<'a> {
    pub(crate) fn new(ctx: &'a RunCtx<'a>, site: usize) -> SiteState<'a> {
        let faults = ctx.config.faults.as_ref();
        let skew = faults.map_or(0, |plan| plan.clock_skew_secs(site as u16));
        SiteState {
            ctx,
            site,
            streams: LocalStreams::new(ctx, site, 0, skew),
            unit: InferenceUnit::new(
                ctx,
                ctx.chain.sites[site].read_rates.clone(),
                ctx.sites[site].threshold,
            ),
            departures: &ctx.sites[site].departures,
            departure_cursor: 0,
            inbox: BTreeMap::new(),
            seqs: EdgeSequencer::new(),
            dedup: BTreeMap::new(),
            forgotten: BTreeMap::new(),
            last_checkpoint: None,
            journal: Vec::new(),
            crash: faults.and_then(|plan| plan.crash(site as u16)),
            down_until: None,
            down: false,
        }
    }

    /// First half of epoch `now`, up to the cross-site exchange: feed the
    /// local streams, import the shipments that arrived from earlier epochs,
    /// then dispatch — every departing copy goes to `emit`. A no-op while
    /// the site is down.
    pub(crate) fn before_exchange(&mut self, now: Epoch, emit: impl FnMut(ShipmentMsg)) {
        if self.down {
            return;
        }
        self.ingest(now);
        self.deliver(now);
        self.depart(now, emit);
    }

    /// Second half of epoch `now`, once every shipment departing at `now`
    /// (from any site) has been [`received`](Self::receive): import the
    /// zero-transit ones, then run the periodic inference step and the event
    /// feed against custody as of this epoch's dispatches.
    pub(crate) fn after_exchange(&mut self, now: Epoch) {
        if self.down {
            return;
        }
        self.deliver_zero_transit(now);
        self.step_and_feed(now);
    }

    /// Feed this epoch's local sensor and RFID streams into the site.
    fn ingest(&mut self, now: Epoch) {
        let InferenceUnit {
            engine, processor, ..
        } = &mut self.unit;
        self.streams.drain(
            now,
            |sample| processor.on_sensor(sample),
            |reading| engine.observe(reading),
        );
    }

    /// The periodic inference step. Only the custody site feeds events for
    /// an object, so a departed object's stale estimates do not keep an
    /// abandoned automaton alive.
    fn step_and_feed(&mut self, now: Epoch) {
        let (site, custody) = (self.site, &self.ctx.custody);
        self.unit.tick(self.ctx, now, |tag| {
            usize::from(custody.custody_at(tag, now).0) == site
        });
    }

    /// Consume the site at the horizon, once every shipment bound for it
    /// has been [`received`](Self::receive), reporting the containment of
    /// the objects this site owns (per the final ONS), its alerts and its
    /// tally.
    pub(crate) fn into_outcome(mut self, objects: &[TagId]) -> SiteOutcome {
        let horizon = Epoch(self.ctx.horizon);
        self.unit.finalize(horizon);
        self.book_undelivered();
        let (engine, custody) = (&self.unit.engine, &self.ctx.custody);
        let containment = objects
            .iter()
            .filter(|&&object| usize::from(custody.custody_at(object, horizon).0) == self.site)
            .filter_map(|&object| Some((object, engine.container_of(object)?)))
            .collect();
        SiteOutcome {
            site: self.site,
            alerts: self.unit.processor.alerts().to_vec(),
            containment,
            tally: self.unit.tally,
        }
    }
}
