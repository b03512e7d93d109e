//! The Centralized baseline: every site forwards its raw readings to one
//! server running one inference over the disjoint union of the per-site
//! location spaces — the accuracy upper bound and the communication worst
//! case.
//!
//! It is composed from the same parts as a federated site: one
//! [`LocalStreams`] per site (remapped into the site's block of the global
//! location space) feeding encoded uplink batches into one
//! [`InferenceUnit`] over the block-diagonal read-rate table. Reader outages
//! and rogue-reader clones therefore injure it exactly as they injure the
//! federated sites. Crashes, shipment faults and clock skew do not apply —
//! there are no inter-site shipments, the central server is assumed durable,
//! and the uplink timestamps readings on ingestion rather than trusting the
//! site clock. Each site's uplink is one edge `site → server`, booked in its
//! own [`EdgeLedger`](rfid_wire::EdgeLedger) like a federated edge.
//!
//! It is deliberately *not* a [`SiteState`](crate::site::SiteState) role: a
//! server with no departures, no inbox and no checkpoint would make every
//! one of those paths branch on which caller it serves.

use crate::comm::MessageKind;
use crate::driver::{DistributedOutcome, RunCtx};
use crate::inference::InferenceUnit;
use crate::streams::LocalStreams;
use crate::transport::TransportMode;
use rfid_types::{ContainmentMap, Epoch, LocationId, RawReading, ReadRateTable};
use rfid_wire::ControlMsg;

/// Block-diagonal global read-rate table: within a site the measured
/// per-site table applies; across sites only stray background reads.
fn global_read_rates(ctx: &RunCtx<'_>, site_locs: usize) -> ReadRateTable {
    let sites = &ctx.chain.sites;
    let locs = || (0..site_locs as u16).map(LocationId);
    #[expect(
        clippy::disallowed_methods,
        reason = "a minimum, not a sum: no rounding to reassociate, and the nested ranges fix the visiting order"
    )]
    let background = locs()
        .flat_map(|r| locs().map(move |a| sites[0].read_rates.rate(r, a)))
        .fold(f64::INFINITY, f64::min)
        .min(1e-4);
    let mut global = ReadRateTable::uniform(sites.len() * site_locs, background);
    for (s, site) in sites.iter().enumerate() {
        let block = |l: LocationId| LocationId((s * site_locs) as u16 + l.0);
        for r in locs() {
            for a in locs() {
                global.set(block(r), block(a), site.read_rates.rate(r, a));
            }
        }
    }
    global
}

/// One uplink batch's delivery: how many times it was transmitted and the
/// epoch it got through, if it did.
///
/// The coordinator uplink runs the same reliable transport as the federated
/// edges when the fault plan can lose messages, with its own loss draw —
/// keyed by origin site, epoch and attempt; no round-trip term, no ack loss,
/// and partitions do not apply (the uplink is assumed multipath) — and the
/// shared backoff arithmetic. Otherwise every batch is one attempt that
/// arrives at once.
fn uplink_delivery(ctx: &RunCtx<'_>, site: u16, now: Epoch) -> (u32, Option<u32>) {
    let config = ctx.config;
    let Some(plan) = config
        .faults
        .as_ref()
        .filter(|_| ctx.transport_mode == TransportMode::Reliable)
    else {
        return (1, Some(now.0));
    };
    let (mut send, mut k) = (now.0, 0u32);
    loop {
        if send > ctx.horizon {
            return (k, None);
        }
        if !plan.forward_lost(site, now, k) {
            return (k + 1, Some(send));
        }
        if config.transport.max_retries.is_some_and(|max| k >= max) {
            return (k + 1, None);
        }
        send = send.saturating_add(config.transport.backoff_secs(k).max(1));
        k += 1;
    }
}

/// Replay the chain against the central server.
pub(crate) fn run(ctx: &RunCtx<'_>) -> DistributedOutcome {
    let chain = ctx.chain;
    let num_sites = chain.sites.len();
    let site_locs = chain.sites.first().map_or(0, |s| s.meta.num_locations);
    assert!(
        num_sites * site_locs <= u16::MAX as usize,
        "global location space exceeds u16"
    );
    let policy = ctx.config.inference.change_detection;
    let mut unit = InferenceUnit::new(ctx, global_read_rates(ctx, site_locs), policy);
    let mut streams: Vec<LocalStreams<'_>> = (0..num_sites)
        .map(|s| LocalStreams::new(ctx, s, (s * site_locs) as u16, 0))
        .collect();
    let acked = ctx.transport_mode == TransportMode::Reliable;
    // The server's id on the uplink edges, after the sites' own.
    let server = num_sites as u16;
    // Encoded batches with the epoch they reach the server and their origin,
    // in the order they were sent.
    let mut in_flight: Vec<(u32, u16, Vec<u8>)> = Vec::new();
    let mut batch: Vec<RawReading> = Vec::new();
    for t in 0..=ctx.horizon {
        let now = Epoch(t);
        // Raw-reading forwarding: each site sends the epoch's readings as
        // one encoded batch message — what actually crosses the network.
        // Delta encoding makes the batch far cheaper than per-reading
        // framing.
        for (site, stream) in streams.iter_mut().enumerate() {
            batch.clear();
            stream.drain(
                now,
                |sample| unit.processor.on_sensor(sample),
                |reading| batch.push(reading),
            );
            if batch.is_empty() {
                continue;
            }
            // The batch travels in `(time, tag, reader)` order with exact
            // duplicates removed: a rogue clone is drained right after its
            // original, and can coincide with a genuine reading.
            batch.sort_unstable();
            batch.dedup();
            let payload = ctx.codec.encode_readings(&batch);
            let site = site as u16;
            let (attempts, delivered) = uplink_delivery(ctx, site, now);
            let tally = &mut unit.tally;
            for _ in 0..attempts {
                tally.comm.record(MessageKind::RawReadings, payload.len());
            }
            let ledger = tally.ledger(site, server);
            ledger.envelopes += 1;
            ledger.transmissions += u64::from(attempts);
            // A delivered batch is ingested at its delivery epoch; an
            // abandoned one never reaches the engine, degrading the central
            // estimate.
            let Some(at) = delivered else {
                ledger.abandoned += 1;
                continue;
            };
            // The ack's sequence number: batches this site delivered before.
            let seq = ledger.sent_copies;
            ledger.sent_copies += 1;
            ledger.sent_bytes += payload.len() as u64;
            if acked {
                let ack = ControlMsg::Ack {
                    from: server,
                    to: site,
                    seq,
                };
                let bytes = ctx.codec.encode_control(&ack).len();
                tally.comm.record(MessageKind::Control, bytes);
            }
            in_flight.push((at, site, payload));
        }
        // The server ingests what reaches it now: batches retransmitted from
        // earlier epochs that finally got through land before this epoch's
        // fresh forwarding.
        for (_, site, payload) in in_flight.extract_if(.., |(at, ..)| *at == t) {
            // The server accepts and ingests every batch that reaches it.
            let ledger = unit.tally.ledger(site, server);
            ledger.recv_copies += 1;
            ledger.recv_bytes += payload.len() as u64;
            ledger.accepted += 1;
            ledger.imported += 1;
            let decoded = ctx
                .codec
                .decode_readings(&payload)
                .expect("in-process reading batch decodes");
            for reading in decoded {
                unit.engine.observe(reading);
            }
        }
        unit.tick(ctx, now, |_| true);
    }
    unit.finalize(Epoch(ctx.horizon));

    let mut containment = ContainmentMap::new();
    for object in chain.objects() {
        if let Some(container) = unit.engine.container_of(object) {
            containment.set(object, container);
        }
    }
    let alerts = unit.processor.alerts().to_vec();
    unit.tally.into_outcome(ctx, containment, alerts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DistributedConfig, MigrationStrategy};
    use rfid_core::{InferenceConfig, LikelihoodModel, ThresholdPolicy};
    use rfid_sim::presets;

    /// The server keeps `Calibrated` and calibrates the global table when its
    /// engine is built: its run is the run with that table's δ fixed up
    /// front, not a site's.
    #[test]
    fn the_server_calibrates_the_global_table() {
        let chain = presets::smoke_chain(900, 2, Some(60));
        let config = |inference| DistributedConfig {
            strategy: MigrationStrategy::Centralized,
            inference,
            ..Default::default()
        };
        let calibrated = config(InferenceConfig::default());
        let ctx = RunCtx::new(&calibrated, &chain);
        let global = global_read_rates(&ctx, chain.sites[0].meta.num_locations);
        let delta = ThresholdPolicy::Calibrated.resolve(&LikelihoodModel::new(global));
        let site = LikelihoodModel::new(chain.sites[0].read_rates.clone());
        let site_delta = ThresholdPolicy::Calibrated.resolve(&site);

        let fixed = |delta| {
            run(&RunCtx::new(
                &config(InferenceConfig::default().with_fixed_threshold(delta)),
                &chain,
            ))
        };
        let (server, at_global, at_site) = (run(&ctx), fixed(delta), fixed(site_delta));
        assert_eq!(server.containment, at_global.containment);
        assert_eq!(server.alerts, at_global.alerts);
        assert_eq!(server.inference_stats, at_global.inference_stats);
        assert_ne!(
            server.inference_stats, at_site.inference_stats,
            "δ {delta} vs {site_delta}"
        );
    }
}
