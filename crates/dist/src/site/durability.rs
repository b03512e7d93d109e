//! Durability: periodic checkpoints, the scheduled crash, restore plus
//! deterministic tail replay, and the fast-forward over a downtime window.

use super::shipments::order_key;
use super::{ShipmentMsg, SiteState};
use crate::inference::Tally;
use crate::transport::{ReliableInbox, TransportMode};
use rfid_types::Epoch;
use rfid_wire::SiteCheckpoint;

impl<'a> SiteState<'a> {
    /// Epoch-start fault hook, called by the scheduler before any other
    /// processing at `now`. Fires the scheduled crash: immediately restore
    /// and replay for a zero-downtime crash (lossless), or mark the site
    /// down and defer the restore to the rejoin epoch for a lossy one. Both
    /// phase methods are no-ops while the site is down.
    pub(crate) fn maybe_crash(&mut self, now: Epoch) {
        self.down = false;
        let Some(crash) = self.crash else {
            return;
        };
        if crash.at == now {
            if crash.downtime_secs == 0 {
                self.crash_and_restore(crash.at);
                return;
            }
            self.down_until = Some(crash.resume_at());
        }
        let Some(resume) = self.down_until else {
            return;
        };
        if now < resume {
            self.down = true;
            return;
        }
        // Rejoin: restore to the pre-crash state, then fast-forward through
        // the missed epochs — their local readings and departures are lost,
        // which is the lossy part. The down flag is already clear: the
        // replay inside `crash_and_restore` runs the regular phase methods,
        // which no-op while the site is down, and skipping it would leave
        // the outbound sequence counters at the checkpoint and re-issue live
        // sequence numbers for fresh envelopes — which the peer's dedup
        // window would then silently drop.
        self.down_until = None;
        self.crash_and_restore(crash.at);
        self.fast_forward(resume);
        // Anti-entropy resync: a rejoining site asks each peer that ships
        // to it to replay anything it missed while dark — one control round
        // per inbound edge, in ascending peer order. (The pending-inbox
        // replay itself is the `fast_forward` import above; only the request
        // bytes are new.)
        let ctx = self.ctx;
        if ctx.transport_mode == TransportMode::Reliable {
            for &peer in ctx.sites[self.site].inbound.keys() {
                self.request_resync(peer, resume);
            }
        }
    }

    /// Crash at the start of `crash_at`: rebuild the mutable state, restore
    /// from the newest checkpoint (or from scratch when none exists),
    /// re-enqueue the durable journal, and deterministically replay the
    /// local trace tail up to (excluding) `crash_at`. Replayed departures
    /// are discarded — their shipments already reached their destinations in
    /// the pre-crash timeline — but are still charged, which is exactly how
    /// the communication tally is rebuilt to match the uninterrupted run.
    fn crash_and_restore(&mut self, crash_at: Epoch) {
        // Only the journal and the newest checkpoint survive the crash —
        // and the inference time already spent, which is not durable state
        // but was spent all the same.
        let journal = std::mem::take(&mut self.journal);
        let checkpoint = self.last_checkpoint.take();
        let inference_wall = self.unit.tally.inference_wall;
        *self = SiteState::new(self.ctx, self.site);
        let replay_from = match &checkpoint {
            Some(bytes) => {
                let checkpoint = self
                    .ctx
                    .codec
                    .decode_checkpoint(bytes)
                    .expect("a site's own checkpoint decodes");
                self.unit.tally = Tally::from_checkpoint(&checkpoint);
                self.unit.engine.restore(checkpoint.engine);
                self.unit.processor.restore(checkpoint.processor);
                self.streams
                    .seek((checkpoint.reading_cursor, checkpoint.sensor_cursor));
                self.departure_cursor = checkpoint.departure_cursor as usize;
                self.dedup = checkpoint
                    .inbox_seqs
                    .iter()
                    .map(|seqs| (seqs.peer, ReliableInbox::from_seqs(seqs)))
                    .collect();
                for pending in checkpoint.inbox {
                    self.enqueue(pending);
                }
                checkpoint.at.0 + 1
            }
            None => 0,
        };
        self.unit.tally.inference_wall = inference_wall;
        self.last_checkpoint = checkpoint;
        // Outbound sequence counters and the staleness guard are not
        // persisted: both are pure functions of the already-processed
        // departure prefix (the envelope predicate asserted in `depart`), so
        // the restore recomputes them and the tail replay extends them.
        for tr in &self.departures[..self.departure_cursor] {
            self.forgotten.insert(tr.tag, tr.depart);
            if self.ctx.migrates_state && tr.tag.is_object() {
                self.seqs.next(tr.to_site.0);
            }
        }
        // Re-enqueue the durable receive log — everything accepted after the
        // checkpoint — without journaling it a second time.
        for msg in &journal {
            self.enqueue(msg.clone());
        }
        self.journal = journal;
        // Bounded replay of the local tail through the regular epoch
        // protocol; the departures it regenerates go nowhere.
        for t in replay_from..crash_at.0 {
            self.before_exchange(Epoch(t), drop);
            self.after_exchange(Epoch(t));
        }
    }

    /// Skip the cursors past everything the site slept through and import,
    /// in generation order, the shipments that arrived while it was down.
    fn fast_forward(&mut self, resume: Epoch) {
        self.streams.skip_to(resume);
        let slept = &self.departures[self.departure_cursor..];
        self.departure_cursor += slept.iter().take_while(|tr| tr.depart < resume).count();
        let mut late = Vec::new();
        while let Some(entry) = self.inbox.first_entry().filter(|e| *e.key() < resume) {
            late.extend(entry.remove());
        }
        self.import(late);
    }

    /// End-of-epoch durability hook: cut a checkpoint when the policy says
    /// so, retain only its encoded bytes, and compact the journal down to
    /// the receives the checkpoint does not already cover.
    pub(crate) fn maybe_checkpoint(&mut self, now: Epoch) {
        if self.down || self.ctx.next_checkpoint(now) != Some(now) {
            return;
        }
        let checkpoint = self.build_checkpoint(now);
        self.last_checkpoint = Some(self.ctx.codec.encode_checkpoint(&checkpoint));
        // The scheduler cuts a checkpoint only once every shipment departing
        // at or before `now` has been received, and each of those is now
        // either imported (inside the engine snapshot) or in the checkpoint
        // inbox; only shipments from later departures, which an inbound
        // neighbour running ahead may already have sent, remain journaled.
        self.journal.retain(|msg| msg.depart > now);
    }

    /// The site's durable state at the end of epoch `at`. The inbox section
    /// keeps only shipments departing at or before `at` — all of them, by
    /// the scheduler's checkpoint rule — sorted into generation order, so
    /// every worker count cuts byte-identical checkpoints however far ahead
    /// an inbound neighbour has already run.
    fn build_checkpoint(&self, at: Epoch) -> SiteCheckpoint {
        let mut pending: Vec<&ShipmentMsg> = self
            .inbox
            .values()
            .flatten()
            .filter(|msg| msg.depart <= at)
            .collect();
        pending.sort_by_key(|msg| order_key(msg));
        let tally = &self.unit.tally;
        let (comm_bytes, comm_messages) = tally.comm.to_parts();
        let (reading_cursor, sensor_cursor) = self.streams.cursors();
        SiteCheckpoint {
            site: self.site as u16,
            at,
            engine: self.unit.engine.snapshot(),
            processor: self.unit.processor.snapshot(),
            reading_cursor,
            sensor_cursor,
            departure_cursor: self.departure_cursor as u64,
            inbox: pending.into_iter().cloned().collect(),
            comm_bytes,
            comm_messages,
            shared_bytes: tally.shared_bytes as u64,
            unshared_bytes: tally.unshared_bytes as u64,
            inference_runs: tally.inference_runs as u64,
            stats: tally.inference_stats,
            inbox_seqs: self
                .dedup
                .iter()
                .map(|(&peer, inbox)| inbox.to_seqs(peer))
                .collect(),
            transport: tally.transport(self.ctx.transport_mode),
            quarantine: tally.quarantine.iter().map(|&(_, entry)| entry).collect(),
            memory: tally.memory,
            ledgers: tally.ledgers.values().copied().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DistributedConfig;
    use crate::driver::{DistributedDriver, RunCtx};
    use rfid_core::InferenceConfig;
    use rfid_sim::{presets, FaultPlan};
    use rfid_types::SiteId;
    use std::collections::BTreeSet;
    use std::time::Duration;

    /// Wall-clock is outside the determinism contract, but the inference
    /// time a site spent before it crashed was spent: a restore keeps it,
    /// and the tail replay adds to it.
    #[test]
    fn a_restore_keeps_the_inference_wall_spent_before_it() {
        let chain = presets::smoke_chain(300, 2, None);
        let config = DistributedConfig::default().with_checkpoints(60);
        let ctx = RunCtx::new(&config, &chain);
        let mut site = SiteState::new(&ctx, 0);
        for t in 0..200 {
            site.before_exchange(Epoch(t), drop);
            site.after_exchange(Epoch(t));
            site.maybe_checkpoint(Epoch(t));
        }
        let before = site.unit.tally.inference_wall;
        assert!(before > Duration::ZERO, "the site ran inference");
        site.crash_and_restore(Epoch(200));
        assert!(site.unit.tally.inference_wall >= before);
    }

    /// A rejoining site asks only the peers that ship to it for a resync:
    /// one request per inbound edge of the transfer schedule.
    #[test]
    fn a_rejoining_site_asks_only_its_inbound_peers() {
        let chain = presets::smoke_chain(900, 3, None);
        for site in 0..3u16 {
            let inbound: BTreeSet<u16> = (chain.transfers.iter())
                .filter(|tr| tr.to_site == SiteId(site))
                .map(|tr| tr.from_site.0)
                .collect();
            // The partition makes the run acked; nothing is corrupted, so
            // every resync is the rejoin's.
            let plan = FaultPlan::quiet(3)
                .with_partition(0, 1, Epoch(0), Epoch(0))
                .with_crash(site, Epoch(300), 60);
            let config = DistributedConfig {
                inference: InferenceConfig::default().without_change_detection(),
                ..DistributedConfig::default()
            };
            let outcome = DistributedDriver::new(config.with_faults(plan)).run(&chain);
            assert_eq!(outcome.quarantine, [], "site {site}");
            assert_eq!(
                outcome.transport.resyncs,
                inbound.len() as u64,
                "site {site}, inbound peers {inbound:?}"
            );
        }
    }
}
