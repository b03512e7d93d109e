//! The per-site query processor.
//!
//! A monitoring query is registered with every site ("querying where an
//! object is located"). The processor consumes the enriched object-event
//! stream produced by the inference engine together with the site's sensor
//! streams, maintains per-object query state for every registered query, and
//! emits alerts. Per-object state can be exported when the object leaves the
//! site and imported at the next one; groups of states can be compressed with
//! centroid-based sharing before transfer.

use crate::exposure::{Alert, ExposureQuery};
use crate::pattern::ExposureAutomaton;
use crate::state::ObjectQueryState;
use crate::windows::LatestByLocation;
use rfid_types::{ObjectEvent, SensorReading, TagId};
use std::collections::BTreeMap;

/// The complete durable state of a [`QueryProcessor`], produced by
/// [`QueryProcessor::snapshot`] and consumed by
/// [`QueryProcessor::restore`].
///
/// A snapshot captures everything the processor accumulated at runtime — the
/// latest sensor reading per location, every per-object automaton, and the
/// alert log. It deliberately excludes the registered queries: a restore
/// target is constructed with the same registrations (the distributed driver
/// registers a site's queries before restoring its state), and automaton
/// durations are re-derived from them on restore.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessorSnapshot {
    /// The latest sensor reading of every location, in location order.
    pub temperatures: Vec<SensorReading>,
    /// Every per-object automaton, in `(query, tag)` order.
    pub automata: Vec<ObjectQueryState>,
    /// All alerts emitted so far.
    pub alerts: Vec<Alert>,
}

/// Per-site continuous query processor.
///
/// # Example
///
/// A minute of continuous warm exposure trips a (shortened) Q1:
///
/// ```
/// use rfid_query::{ExposureQuery, QueryProcessor};
/// use rfid_types::{Epoch, LocationId, ObjectEvent, SensorReading, TagId};
///
/// let mut processor = QueryProcessor::new();
/// processor.register(ExposureQuery { duration_secs: 60, ..ExposureQuery::q1([]) });
///
/// // The shelf at location 1 sits at 4 °C; the object stays there past the
/// // required minute of exposure.
/// processor.on_sensor(SensorReading::new(Epoch(0), LocationId(1), 4.0));
/// for t in (0..=70u32).step_by(10) {
///     let mut event = ObjectEvent::new(Epoch(t), TagId::item(1), LocationId(1), None);
///     event.property = Some("temperature-sensitive".to_string());
///     processor.on_event(&event);
/// }
/// assert_eq!(processor.alerts().len(), 1);
/// assert_eq!(processor.alerts()[0].query, "Q1");
/// ```
#[derive(Debug, Clone, Default)]
pub struct QueryProcessor {
    queries: Vec<ExposureQuery>,
    temperatures: LatestByLocation,
    /// Per-object automata by query name, then by tag. Every registered
    /// query has an entry from [`Self::register`] on, so the event path
    /// borrows its map by name; an imported state for a query this site does
    /// not run gets an entry of its own.
    automata: BTreeMap<String, BTreeMap<TagId, ExposureAutomaton>>,
    alerts: Vec<Alert>,
}

impl QueryProcessor {
    /// Create a processor with no registered queries.
    pub fn new() -> QueryProcessor {
        QueryProcessor::default()
    }

    /// Register a monitoring query.
    pub fn register(&mut self, query: ExposureQuery) {
        self.automata.entry(query.name.clone()).or_default();
        self.queries.push(query);
    }

    /// The registered queries.
    pub fn queries(&self) -> &[ExposureQuery] {
        &self.queries
    }

    /// Feed a sensor reading (local processing of the inner query block).
    pub fn on_sensor(&mut self, reading: SensorReading) {
        self.temperatures.insert(reading);
    }

    /// Feed one enriched object event; returns any alerts it triggered.
    pub fn on_event(&mut self, event: &ObjectEvent) -> Vec<Alert> {
        let mut fired = Vec::new();
        let temperature = self.temperatures.value_at(event.location);
        for query in &self.queries {
            if !query.applies_to(event) {
                continue;
            }
            let qualifies = query.qualifies(event, temperature);
            let automaton = self
                .automata
                .get_mut(query.name.as_str())
                .expect("register gives every query its automata")
                .entry(event.tag)
                .or_insert_with(|| ExposureAutomaton::new(query.duration_secs));
            if let Some(m) = automaton.feed(event.time, qualifies, temperature.unwrap_or(f64::NAN))
            {
                let alert = Alert {
                    query: query.name.clone(),
                    tag: event.tag,
                    since: m.since,
                    at: m.at,
                    readings: m.readings,
                };
                fired.push(alert.clone());
                self.alerts.push(alert);
            }
        }
        fired
    }

    /// All alerts emitted so far.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// Export the query state of one object for every registered query
    /// (only queries for which the object has state are returned), in query
    /// name order.
    pub fn export_state(&self, tag: TagId) -> Vec<ObjectQueryState> {
        self.automata
            .iter()
            .filter_map(|(query, by_tag)| {
                Some(ObjectQueryState {
                    query: query.clone(),
                    tag,
                    automaton: by_tag.get(&tag)?.state().clone(),
                })
            })
            .collect()
    }

    /// Import query state for an object arriving from another site.
    pub fn import_state(&mut self, states: Vec<ObjectQueryState>) {
        for state in states {
            let duration = self
                .queries
                .iter()
                .find(|q| q.name == state.query)
                .map(|q| q.duration_secs)
                .unwrap_or(0);
            let automaton = self
                .automata
                .entry(state.query)
                .or_default()
                .entry(state.tag)
                .or_insert_with(|| ExposureAutomaton::new(duration));
            automaton.restore(state.automaton);
        }
    }

    /// Drop the query state of an object that has left the site.
    pub fn forget(&mut self, tag: TagId) {
        for by_tag in self.automata.values_mut() {
            by_tag.remove(&tag);
        }
    }

    /// Capture the processor's complete durable state — see
    /// [`ProcessorSnapshot`] for what is (and is not) included.
    pub fn snapshot(&self) -> ProcessorSnapshot {
        ProcessorSnapshot {
            temperatures: self.temperatures.readings().copied().collect(),
            automata: self
                .automata
                .iter()
                .flat_map(|(query, by_tag)| {
                    by_tag.iter().map(|(&tag, automaton)| ObjectQueryState {
                        query: query.clone(),
                        tag,
                        automaton: automaton.state().clone(),
                    })
                })
                .collect(),
            alerts: self.alerts.clone(),
        }
    }

    /// Replace the processor's runtime state with a snapshot previously
    /// taken by [`Self::snapshot`], on this processor or on any processor
    /// with the same queries registered (automaton durations are re-derived
    /// from the registrations, exactly as [`Self::import_state`] does).
    pub fn restore(&mut self, snapshot: ProcessorSnapshot) {
        self.temperatures = LatestByLocation::new();
        for reading in snapshot.temperatures {
            self.temperatures.insert(reading);
        }
        for by_tag in self.automata.values_mut() {
            by_tag.clear();
        }
        self.import_state(snapshot.automata);
        self.alerts = snapshot.alerts;
    }

    /// Number of per-object automata currently maintained.
    pub fn tracked_states(&self) -> usize {
        self.automata.values().map(BTreeMap::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::AutomatonState;
    use rfid_types::{Epoch, LocationId};

    fn warm(loc: u16, t: u32) -> SensorReading {
        SensorReading::new(Epoch(t), LocationId(loc), 21.0)
    }

    fn cold(loc: u16, t: u32) -> SensorReading {
        SensorReading::new(Epoch(t), LocationId(loc), -18.0)
    }

    fn event(t: u32, loc: u16, container: Option<TagId>) -> ObjectEvent {
        ObjectEvent::new(Epoch(t), TagId::item(1), LocationId(loc), container)
            .with_property("temperature-sensitive")
    }

    fn q1_short(freezers: impl IntoIterator<Item = TagId>) -> ExposureQuery {
        ExposureQuery {
            duration_secs: 100,
            ..ExposureQuery::q1(freezers)
        }
    }

    #[test]
    fn q1_alert_fires_after_sustained_warm_exposure() {
        let mut qp = QueryProcessor::new();
        qp.register(q1_short([TagId::case(9)]));
        qp.on_sensor(warm(0, 0));
        let mut alerts = Vec::new();
        for t in (0..=120).step_by(10) {
            alerts.extend(qp.on_event(&event(t, 0, Some(TagId::case(1)))));
        }
        assert_eq!(alerts.len(), 1);
        let alert = &alerts[0];
        assert_eq!(alert.query, "Q1");
        assert_eq!(alert.tag, TagId::item(1));
        assert_eq!(alert.since, Epoch(0));
        assert!(alert.at.0 > 100);
        assert!(alert.readings.iter().all(|(_, v)| *v > 0.0));
        assert_eq!(qp.alerts(), alerts);
    }

    #[test]
    fn being_in_a_freezer_container_or_cold_location_prevents_the_alert() {
        let freezer = TagId::case(9);
        let mut qp = QueryProcessor::new();
        qp.register(q1_short([freezer]));
        qp.on_sensor(warm(0, 0));
        qp.on_sensor(cold(1, 0));
        for t in (0..=200).step_by(10) {
            // inside the freezer container at a warm location: no alert
            qp.on_event(&event(t, 0, Some(freezer)));
        }
        for t in (0..=200).step_by(10) {
            // outside any container but at a cold location: no alert
            qp.on_event(&event(t, 1, None));
        }
        assert!(qp.alerts().is_empty());
    }

    #[test]
    fn product_class_filter_excludes_other_objects() {
        let mut qp = QueryProcessor::new();
        qp.register(q1_short([]));
        qp.on_sensor(warm(0, 0));
        let other = ObjectEvent::new(Epoch(0), TagId::item(2), LocationId(0), None)
            .with_property("stationery");
        for t in (0..=200).step_by(10) {
            let mut e = other.clone();
            e.time = Epoch(t);
            qp.on_event(&e);
        }
        assert!(qp.alerts().is_empty());
        assert_eq!(qp.tracked_states(), 0, "non-matching objects get no state");
    }

    #[test]
    fn state_export_import_continues_the_run_at_another_site() {
        let mut site_a = QueryProcessor::new();
        site_a.register(q1_short([]));
        site_a.on_sensor(warm(0, 0));
        for t in (0..=60).step_by(10) {
            site_a.on_event(&event(t, 0, None));
        }
        assert!(site_a.alerts().is_empty(), "not exposed long enough yet");
        let state = site_a.export_state(TagId::item(1));
        assert_eq!(state.len(), 1);
        site_a.forget(TagId::item(1));
        assert_eq!(site_a.tracked_states(), 0);

        // The object arrives at site B, which imports the state; the exposure
        // run continues and crosses the threshold counting time from site A.
        let mut site_b = QueryProcessor::new();
        site_b.register(q1_short([]));
        site_b.on_sensor(warm(3, 70));
        let mut alerts = Vec::new();
        site_b.import_state(state);
        for t in (70..=120).step_by(10) {
            alerts.extend(
                site_b.on_event(
                    &ObjectEvent::new(Epoch(t), TagId::item(1), LocationId(3), None)
                        .with_property("temperature-sensitive"),
                ),
            );
        }
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].since, Epoch(0), "exposure started at site A");
    }

    /// Restoring a snapshot into a fresh processor (same registrations) and
    /// continuing must match the processor that never stopped.
    #[test]
    fn snapshot_restore_round_trips_bitwise() {
        let mut live = QueryProcessor::new();
        live.register(q1_short([]));
        live.on_sensor(warm(0, 0));
        for t in (0..=60).step_by(10) {
            live.on_event(&event(t, 0, None));
        }
        let snapshot = live.snapshot();
        assert_eq!(snapshot, live.snapshot(), "snapshot is a pure read");

        let mut restored = QueryProcessor::new();
        restored.register(q1_short([]));
        restored.restore(snapshot);
        assert_eq!(restored.tracked_states(), live.tracked_states());

        for qp in [&mut live, &mut restored] {
            for t in (70..=120).step_by(10) {
                qp.on_event(&event(t, 0, None));
            }
        }
        assert_eq!(live.alerts(), restored.alerts());
        assert_eq!(live.alerts().len(), 1, "exposure crossed the threshold");
        assert_eq!(live.snapshot(), restored.snapshot());
    }

    #[test]
    fn q1_and_q2_run_side_by_side() {
        let mut qp = QueryProcessor::new();
        qp.register(q1_short([]));
        qp.register(ExposureQuery {
            duration_secs: 50,
            temp_threshold: 10.0,
            product_class: Some("temperature-sensitive".to_string()),
            ..ExposureQuery::q2()
        });
        qp.on_sensor(warm(0, 0));
        for t in (0..=120).step_by(10) {
            qp.on_event(&event(t, 0, None));
        }
        let fired: Vec<&str> = qp.alerts().iter().map(|a| a.query.as_str()).collect();
        assert_eq!(
            fired,
            ["Q2", "Q1"],
            "one alert each, shorter duration first"
        );
        assert_eq!(qp.tracked_states(), 2);
        assert_eq!(qp.queries().len(), 2);
    }

    /// Snapshots list automata in `(query name, tag)` order and exports in
    /// query-name order, whatever the registration and arrival order;
    /// `forget` clears a tag from every query, and a state imported for a
    /// query this site does not run is kept, listed and forgotten like any
    /// other but never fed.
    #[test]
    fn automata_are_listed_by_query_name_then_tag() {
        let keys = |states: &[ObjectQueryState]| -> Vec<(String, TagId)> {
            states.iter().map(|s| (s.query.clone(), s.tag)).collect()
        };
        let key = |query: &str, serial: u64| (query.to_string(), TagId::item(serial));
        let mut qp = QueryProcessor::new();
        qp.register(ExposureQuery {
            product_class: None,
            ..ExposureQuery::q2()
        });
        qp.register(ExposureQuery {
            product_class: None,
            ..q1_short([])
        });
        qp.on_sensor(warm(0, 0));
        for serial in [3, 1, 2] {
            qp.on_event(&ObjectEvent::new(
                Epoch(0),
                TagId::item(serial),
                LocationId(0),
                None,
            ));
        }
        assert_eq!(qp.tracked_states(), 6);
        assert_eq!(
            keys(&qp.snapshot().automata),
            [
                key("Q1", 1),
                key("Q1", 2),
                key("Q1", 3),
                key("Q2", 1),
                key("Q2", 2),
                key("Q2", 3)
            ]
        );
        assert_eq!(
            keys(&qp.export_state(TagId::item(2))),
            [key("Q1", 2), key("Q2", 2)]
        );

        qp.forget(TagId::item(2));
        assert_eq!(qp.tracked_states(), 4);
        assert!(qp.export_state(TagId::item(2)).is_empty());
        assert_eq!(
            keys(&qp.snapshot().automata),
            [key("Q1", 1), key("Q1", 3), key("Q2", 1), key("Q2", 3)]
        );

        // "P0" is registered nowhere: its automaton sorts by name like the
        // others, and the events that advance Q1 and Q2 leave it alone.
        let foreign = AutomatonState::Accumulating {
            since: Epoch(0),
            readings: vec![(Epoch(0), 5.0)],
            fired: false,
        };
        qp.import_state(vec![ObjectQueryState {
            query: "P0".to_string(),
            tag: TagId::item(1),
            automaton: foreign.clone(),
        }]);
        qp.on_event(&ObjectEvent::new(
            Epoch(10),
            TagId::item(1),
            LocationId(0),
            None,
        ));
        assert_eq!(qp.tracked_states(), 5);
        let exported = qp.export_state(TagId::item(1));
        assert_eq!(keys(&exported), [key("P0", 1), key("Q1", 1), key("Q2", 1)]);
        assert_eq!(exported[0].automaton, foreign);
        assert_eq!(
            keys(&qp.snapshot().automata),
            [
                key("P0", 1),
                key("Q1", 1),
                key("Q1", 3),
                key("Q2", 1),
                key("Q2", 3)
            ]
        );

        // A restore rebuilds the same listing, the foreign automaton included.
        let mut restored = QueryProcessor::new();
        for query in qp.queries() {
            restored.register(query.clone());
        }
        restored.restore(qp.snapshot());
        assert_eq!(restored.snapshot(), qp.snapshot());

        qp.forget(TagId::item(1));
        assert_eq!(qp.tracked_states(), 2);
        assert_eq!(keys(&qp.snapshot().automata), [key("Q1", 3), key("Q2", 3)]);
    }
}
