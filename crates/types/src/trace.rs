//! Traces: a batch of raw readings plus the ground truth needed to evaluate
//! inference (true per-epoch locations and the true containment timeline),
//! and metadata describing how the trace was generated.

use crate::containment::ContainmentTimeline;
use crate::ids::{Epoch, LocationId, TagId};
use crate::reading::ReadingBatch;
use crate::readrate::ReadRateTable;
use std::collections::BTreeMap;

/// Ground truth recorded by the simulator alongside the raw readings.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    /// For every tag, the time-ordered list of `(epoch, location)` segments:
    /// the tag is at `location` from that epoch until the next segment (or
    /// the end of the trace).
    locations: BTreeMap<TagId, Vec<(Epoch, LocationId)>>,
    /// True containment as a function of time, including injected anomalies.
    pub containment: ContainmentTimeline,
}

impl GroundTruth {
    /// Create ground truth with the given containment timeline and no
    /// location segments yet.
    pub fn new(containment: ContainmentTimeline) -> GroundTruth {
        GroundTruth {
            locations: BTreeMap::new(),
            containment,
        }
    }

    /// Record that `tag` is at `location` starting at `from` (until the next
    /// recorded segment). Segments must be appended in time order per tag.
    pub fn record_location(&mut self, tag: TagId, from: Epoch, location: LocationId) {
        let segs = self.locations.entry(tag).or_default();
        if let Some(&(last, loc)) = segs.last() {
            debug_assert!(from >= last, "location segments must be time-ordered");
            if loc == location {
                return; // no-op: already there
            }
        }
        segs.push((from, location));
    }

    /// The true location of `tag` at epoch `t`, if the tag had entered the
    /// system by then.
    pub fn location_at(&self, tag: TagId, t: Epoch) -> Option<LocationId> {
        let segs = self.locations.get(&tag)?;
        let mut current = None;
        for &(from, loc) in segs {
            if from <= t {
                current = Some(loc);
            } else {
                break;
            }
        }
        current
    }

    /// The true container of `tag` at epoch `t`.
    pub fn container_at(&self, tag: TagId, t: Epoch) -> Option<TagId> {
        self.containment.container_at(tag, t)
    }

    /// Tags with at least one recorded location segment.
    pub fn tags(&self) -> impl Iterator<Item = TagId> + '_ {
        self.locations.keys().copied()
    }

    /// Number of tags tracked.
    pub fn num_tags(&self) -> usize {
        self.locations.len()
    }
}

/// How a trace was generated: the knobs of Table 2 (and of the lab traces)
/// that experiments sweep over.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceMetadata {
    /// Human-readable trace name (e.g. `"warehouse-rr0.8"`, `"T3"`).
    pub name: String,
    /// Main read rate of readers (RR).
    pub read_rate: f64,
    /// Overlap rate for shelf readers (OR).
    pub overlap_rate: f64,
    /// Trace length in epochs (seconds).
    pub length: u32,
    /// Interval between injected containment anomalies in seconds
    /// (`None` = stable containment).
    pub anomaly_interval: Option<u32>,
    /// Number of reader locations in the deployment.
    pub num_locations: usize,
}

impl TraceMetadata {
    /// Construct metadata with no anomalies.
    pub fn stable(
        name: impl Into<String>,
        read_rate: f64,
        overlap_rate: f64,
        length: u32,
        num_locations: usize,
    ) -> TraceMetadata {
        TraceMetadata {
            name: name.into(),
            read_rate,
            overlap_rate,
            length,
            anomaly_interval: None,
            num_locations,
        }
    }
}

/// A complete trace: raw readings, ground truth, the deployment's read-rate
/// table, and generation metadata.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Raw RFID readings in (time, tag, reader) order.
    pub readings: ReadingBatch,
    /// Ground truth used only for evaluation, never by the inference engine.
    pub truth: GroundTruth,
    /// The deployment's read-rate table (what reference-tag calibration
    /// would have measured).
    pub read_rates: ReadRateTable,
    /// Generation parameters.
    pub meta: TraceMetadata,
}

impl Trace {
    /// The objects (item tags) that appear in the ground truth.
    pub fn objects(&self) -> Vec<TagId> {
        self.truth.tags().filter(|t| t.is_object()).collect()
    }

    /// The containers (case tags) that appear in the ground truth.
    pub fn containers(&self) -> Vec<TagId> {
        self.truth.tags().filter(|t| t.is_container()).collect()
    }

    /// Readings restricted to epochs `<= t`, preserving ground truth and
    /// metadata. Used to replay a trace incrementally.
    pub fn prefix(&self, t: Epoch) -> Trace {
        let mut readings = self.readings.clone();
        readings.retain_ranges(&[(Epoch::ZERO, t)]);
        Trace {
            readings,
            truth: self.truth.clone(),
            read_rates: self.read_rates.clone(),
            meta: self.meta.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::containment::ContainmentMap;
    use crate::reading::RawReading;
    use crate::ReaderId;

    fn truth_with_one_item() -> GroundTruth {
        let map: ContainmentMap = [(TagId::item(1), TagId::case(1))].into_iter().collect();
        let mut truth = GroundTruth::new(ContainmentTimeline::new(map));
        truth.record_location(TagId::item(1), Epoch(0), LocationId(0));
        truth.record_location(TagId::item(1), Epoch(10), LocationId(1));
        truth.record_location(TagId::case(1), Epoch(0), LocationId(0));
        truth
    }

    #[test]
    fn ground_truth_location_segments() {
        let truth = truth_with_one_item();
        assert_eq!(
            truth.location_at(TagId::item(1), Epoch(0)),
            Some(LocationId(0))
        );
        assert_eq!(
            truth.location_at(TagId::item(1), Epoch(9)),
            Some(LocationId(0))
        );
        assert_eq!(
            truth.location_at(TagId::item(1), Epoch(10)),
            Some(LocationId(1))
        );
        assert_eq!(
            truth.location_at(TagId::item(1), Epoch(500)),
            Some(LocationId(1))
        );
        assert_eq!(truth.location_at(TagId::item(9), Epoch(5)), None);
        assert_eq!(truth.num_tags(), 2);
    }

    #[test]
    fn ground_truth_duplicate_location_is_noop() {
        let mut truth = truth_with_one_item();
        truth.record_location(TagId::item(1), Epoch(20), LocationId(1));
        // still only two distinct segments for the item
        assert_eq!(
            truth.location_at(TagId::item(1), Epoch(25)),
            Some(LocationId(1))
        );
    }

    #[test]
    fn ground_truth_container_lookup() {
        let truth = truth_with_one_item();
        assert_eq!(
            truth.container_at(TagId::item(1), Epoch(5)),
            Some(TagId::case(1))
        );
        assert_eq!(truth.container_at(TagId::item(2), Epoch(5)), None);
    }

    #[test]
    fn trace_prefix_and_tag_classification() {
        let truth = truth_with_one_item();
        let readings: ReadingBatch = (0..20u32)
            .map(|t| RawReading::new(Epoch(t), TagId::item(1), ReaderId(0)))
            .collect();
        let trace = Trace {
            readings,
            truth,
            read_rates: ReadRateTable::diagonal(2, 0.8, 0.05),
            meta: TraceMetadata::stable("test", 0.8, 0.0, 20, 2),
        };
        assert_eq!(trace.objects(), vec![TagId::item(1)]);
        assert_eq!(trace.containers(), vec![TagId::case(1)]);
        let prefix = trace.prefix(Epoch(5));
        assert_eq!(prefix.readings.len(), 6);
        assert_eq!(prefix.meta.name, "test");
    }
}
