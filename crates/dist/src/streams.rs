//! Local streams: one site's time-ordered RFID and sensor replay with the
//! fault plan's reader-side injuries applied at the source.
//!
//! A federated site drains its stream straight into its own engine; the
//! Centralized baseline drains the *same* stream, remapped into the global
//! location space, into an uplink batch. Reader outages, rogue-reader clones
//! and clock skew are all pure functions of the fault plan, so every replay
//! of a site — live, crash-tail or central — sees the identical stream.

use crate::driver::RunCtx;
use rfid_sim::FaultPlan;
use rfid_types::{Epoch, LocationId, RawReading, ReaderId, SensorReading};

/// The replay cursors over one site's readings and sensor samples, which it
/// borrows from the run's [`SiteInputs`](crate::driver::SiteInputs).
pub(crate) struct LocalStreams<'a> {
    site: u16,
    readings: &'a [RawReading],
    reading_cursor: usize,
    sensors: &'a [SensorReading],
    sensor_cursor: usize,
    faults: Option<&'a FaultPlan>,
    /// Added to every reader and sensor location: 0 at a federated site, the
    /// site's block in the global location space for the central server.
    offset: u16,
    /// Reader-clock skew: a reading timestamped `t` only becomes visible at
    /// epoch `t + skew` (timestamps are untouched — the evidence just
    /// surfaces late).
    skew_secs: u32,
    /// Reader slots at this site, the domain of rogue-reader draws.
    num_readers: u16,
}

impl<'a> LocalStreams<'a> {
    pub(crate) fn new(
        ctx: &'a RunCtx<'_>,
        site: usize,
        offset: u16,
        skew_secs: u32,
    ) -> LocalStreams<'a> {
        let inputs = &ctx.sites[site];
        LocalStreams {
            site: site as u16,
            readings: &inputs.readings,
            reading_cursor: 0,
            sensors: &inputs.sensors,
            sensor_cursor: 0,
            faults: ctx.config.faults.as_ref(),
            offset,
            skew_secs,
            num_readers: ctx.chain.sites[site].meta.num_locations as u16,
        }
    }

    /// The epoch at which the next undrained reading surfaces.
    fn next_surfaces_at(&self) -> Option<u32> {
        let next = self.readings.get(self.reading_cursor)?;
        Some(next.time.0.saturating_add(self.skew_secs))
    }

    /// Hand every sample that has surfaced by `now` to the sinks: sensors
    /// first, then readings in time order. A reading inside a scheduled
    /// reader outage is dropped, and a rogue-reader draw emits a clone at a
    /// deterministic second antenna right after its original.
    pub(crate) fn drain(
        &mut self,
        now: Epoch,
        mut on_sensor: impl FnMut(SensorReading),
        mut on_reading: impl FnMut(RawReading),
    ) {
        while let Some(sample) = self.sensors.get(self.sensor_cursor) {
            if sample.time > now {
                break;
            }
            on_sensor(SensorReading::new(
                sample.time,
                LocationId(self.offset + sample.location.0),
                sample.value,
            ));
            self.sensor_cursor += 1;
        }
        while self.next_surfaces_at().is_some_and(|at| at <= now.0) {
            let reading = self.readings[self.reading_cursor];
            self.reading_cursor += 1;
            if self
                .faults
                .is_some_and(|plan| plan.reading_dropped(self.site, reading.time))
            {
                continue;
            }
            let at = |reader: u16| {
                RawReading::new(reading.time, reading.tag, ReaderId(self.offset + reader))
            };
            on_reading(at(reading.reader.0));
            if let Some(slot) = self.faults.and_then(|plan| {
                plan.rogue_reader_slot(self.site, reading.time, reading.tag, self.num_readers)
            }) {
                on_reading(at(slot));
            }
        }
    }

    /// Skip past everything that surfaced before `resume` (the stretch a
    /// crashed site slept through).
    pub(crate) fn skip_to(&mut self, resume: Epoch) {
        while self.next_surfaces_at().is_some_and(|at| at < resume.0) {
            self.reading_cursor += 1;
        }
        while self
            .sensors
            .get(self.sensor_cursor)
            .is_some_and(|sample| sample.time < resume)
        {
            self.sensor_cursor += 1;
        }
    }

    /// `(reading, sensor)` cursors, the durable form of the stream position.
    pub(crate) fn cursors(&self) -> (u64, u64) {
        (self.reading_cursor as u64, self.sensor_cursor as u64)
    }

    /// Rewind to a checkpointed position.
    pub(crate) fn seek(&mut self, (reading, sensor): (u64, u64)) {
        self.reading_cursor = reading as usize;
        self.sensor_cursor = sensor as usize;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DistributedConfig;
    use rfid_query::ExposureQuery;
    use rfid_sim::{presets, FaultPlanConfig, TemperatureModel};
    use std::collections::BTreeMap;

    const HORIZON: u32 = 900;
    const SITES: u16 = 3;
    const OFFSET: u16 = 40;

    /// Every epoch's drained samples, keyed by the epoch they surfaced at.
    type Drained = BTreeMap<u32, (Vec<SensorReading>, Vec<RawReading>)>;

    fn drain_all(mut streams: LocalStreams<'_>) -> Drained {
        let mut drained = Drained::new();
        for t in 0..=HORIZON + 120 {
            let (mut sensors, mut readings) = (Vec::new(), Vec::new());
            streams.drain(Epoch(t), |s| sensors.push(s), |r| readings.push(r));
            if !(sensors.is_empty() && readings.is_empty()) {
                drained.insert(t, (sensors, readings));
            }
        }
        drained
    }

    #[test]
    fn a_site_streams_the_same_samples_to_its_own_engine_and_to_the_uplink() {
        let chain = presets::smoke_chain(HORIZON, u32::from(SITES), None);
        let plan = FaultPlan::generate(&FaultPlanConfig {
            outage_probability: 0.9,
            outage_max_secs: 120,
            rogue_probability: 0.05,
            clock_skew_max_secs: 45,
            ..FaultPlanConfig::quiet(23, SITES, HORIZON)
        });
        let config = DistributedConfig {
            queries: vec![ExposureQuery::q1([])],
            temperature: Some(TemperatureModel::new([])),
            ..Default::default()
        }
        .with_faults(plan.clone());
        let ctx = RunCtx::new(&config, &chain);
        let (mut dropped, mut cloned, mut skewed) = (0, 0, 0);
        for site in 0..usize::from(SITES) {
            let skew = plan.clock_skew_secs(site as u16);
            let federated = drain_all(LocalStreams::new(&ctx, site, 0, skew));
            let uplink = drain_all(LocalStreams::new(&ctx, site, OFFSET, 0));

            // Outage windows are silent, in either role.
            for (_, readings) in federated.values().chain(uplink.values()) {
                for r in readings {
                    assert!(!plan.reading_dropped(site as u16, r.time));
                }
            }
            let trace = chain.sites[site].readings.readings_unordered();
            let silenced = trace
                .iter()
                .filter(|r| plan.reading_dropped(site as u16, r.time))
                .count();
            let streamed: usize = federated.values().map(|(_, r)| r.len()).sum();
            dropped += silenced;
            cloned += streamed - (trace.len() - silenced);
            skewed += usize::from(skew > 0);

            // A federated site sees a reading `skew` late, the uplink on
            // time; nothing else differs but the location block.
            let mut relocated = Drained::new();
            for (&t, (sensors, readings)) in &uplink {
                for s in sensors {
                    let home = LocationId(s.location.0 - OFFSET);
                    let s = SensorReading::new(s.time, home, s.value);
                    relocated.entry(t).or_default().0.push(s);
                }
                for r in readings {
                    assert_eq!(r.time.0, t, "the uplink forwards on ingestion");
                    let r = RawReading::new(r.time, r.tag, ReaderId(r.reader.0 - OFFSET));
                    relocated.entry(t + skew).or_default().1.push(r);
                }
            }
            let multiset = |mut all: Drained| {
                for (_, readings) in all.values_mut() {
                    readings.sort_unstable();
                }
                all
            };
            assert_eq!(multiset(federated), multiset(relocated), "site {site}");
        }
        assert!(dropped > 0, "the plan must schedule an outage");
        assert!(cloned > 0, "the plan must draw a rogue clone");
        assert!(skewed > 0, "the plan must skew a site clock");
    }
}
