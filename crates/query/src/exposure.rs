//! The paper's example monitoring queries, expressed as parameterised
//! *exposure queries*.
//!
//! * **Q1** (Section 2): "for any temperature-sensitive drug product, raise an
//!   alert if it has been placed outside a freezer and exposed to room
//!   temperature for 6 hours" — uses both inferred location (to join with the
//!   temperature stream) and inferred containment (to test the `IsA
//!   'freezer'` predicate).
//! * **Q2** (Section 5.4): "report the frozen food that has been exposed to
//!   temperature over 10 degrees for 10 hours" — uses inferred location only.

use rfid_types::{Epoch, ObjectEvent, TagId};
use std::collections::BTreeSet;

/// An alert produced by an exposure query.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// Name of the query that fired.
    pub query: String,
    /// The object the alert is about.
    pub tag: TagId,
    /// Start of the exposure run.
    pub since: Epoch,
    /// Time at which the duration threshold was crossed.
    pub at: Epoch,
    /// The temperature readings collected over the run (`A[].temp`).
    pub readings: Vec<(Epoch, f64)>,
}

/// A parameterised hybrid monitoring query over object events and a
/// temperature stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ExposureQuery {
    /// Query name used in alerts (e.g. `"Q1"`).
    pub name: String,
    /// Restrict the query to objects with this product property
    /// (`None` = all objects).
    pub product_class: Option<String>,
    /// Containers that count as freezers for the `IsA 'freezer'` predicate.
    /// Only consulted when `use_containment` is true.
    pub freezer_containers: BTreeSet<TagId>,
    /// Temperature threshold: an event qualifies when the temperature at the
    /// object's location exceeds this value.
    pub temp_threshold: f64,
    /// Required uninterrupted exposure duration in seconds.
    pub duration_secs: u32,
    /// Whether the query uses the inferred containment (Q1) or only the
    /// inferred location (Q2).
    pub use_containment: bool,
}

impl ExposureQuery {
    /// Query 1 of the paper: product outside a freezer, above 0 °C, for six
    /// hours.
    pub fn q1(freezer_containers: impl IntoIterator<Item = TagId>) -> ExposureQuery {
        ExposureQuery {
            name: "Q1".to_string(),
            product_class: Some("temperature-sensitive".to_string()),
            freezer_containers: freezer_containers.into_iter().collect(),
            temp_threshold: 0.0,
            duration_secs: 6 * 3600,
            use_containment: true,
        }
    }

    /// Query 2 of the paper: frozen food above 10 °C for ten hours.
    pub fn q2() -> ExposureQuery {
        ExposureQuery {
            name: "Q2".to_string(),
            product_class: Some("frozen-food".to_string()),
            freezer_containers: BTreeSet::new(),
            temp_threshold: 10.0,
            duration_secs: 10 * 3600,
            use_containment: false,
        }
    }

    /// Whether the query applies to this object at all (the product-class
    /// filter of the inner query block).
    pub fn applies_to(&self, event: &ObjectEvent) -> bool {
        match &self.product_class {
            None => true,
            Some(class) => event.is_a(class),
        }
    }

    /// Whether an event *qualifies* as exposure: the containment predicate
    /// (`!(container IsA 'freezer') or container = NULL`) and the temperature
    /// predicate both hold. `temperature` is the latest reading at the
    /// event's location (`None` = no reading yet, which never qualifies).
    pub fn qualifies(&self, event: &ObjectEvent, temperature: Option<f64>) -> bool {
        let container_ok = if self.use_containment {
            match event.container {
                None => true,
                Some(c) => !self.freezer_containers.contains(&c),
            }
        } else {
            true
        };
        let temp_ok = temperature
            .map(|t| t > self.temp_threshold)
            .unwrap_or(false);
        container_ok && temp_ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_types::LocationId;

    fn event(container: Option<TagId>, class: &str) -> ObjectEvent {
        ObjectEvent::new(Epoch(0), TagId::item(1), LocationId(0), container).with_property(class)
    }

    #[test]
    fn q1_parameters_match_the_paper() {
        let q1 = ExposureQuery::q1([TagId::case(9)]);
        assert_eq!(q1.duration_secs, 6 * 3600);
        assert_eq!(q1.temp_threshold, 0.0);
        assert!(q1.use_containment);
        let q2 = ExposureQuery::q2();
        assert_eq!(q2.duration_secs, 10 * 3600);
        assert_eq!(q2.temp_threshold, 10.0);
        assert!(!q2.use_containment);
    }

    #[test]
    fn product_class_filter() {
        let q1 = ExposureQuery::q1([]);
        assert!(q1.applies_to(&event(None, "temperature-sensitive")));
        assert!(!q1.applies_to(&event(None, "frozen-food")));
        let any = ExposureQuery {
            product_class: None,
            ..ExposureQuery::q2()
        };
        assert!(any.applies_to(&event(None, "whatever")));
    }

    #[test]
    fn q1_qualification_uses_container_and_temperature() {
        let freezer = TagId::case(9);
        let q1 = ExposureQuery::q1([freezer]);
        let outside = event(Some(TagId::case(1)), "temperature-sensitive");
        let inside = event(Some(freezer), "temperature-sensitive");
        let loose = event(None, "temperature-sensitive");
        assert!(q1.qualifies(&outside, Some(21.0)));
        assert!(
            q1.qualifies(&loose, Some(21.0)),
            "container = NULL qualifies"
        );
        assert!(
            !q1.qualifies(&inside, Some(21.0)),
            "inside a freezer never qualifies"
        );
        assert!(!q1.qualifies(&outside, Some(-5.0)), "cold enough is fine");
        assert!(!q1.qualifies(&outside, None), "no temperature reading yet");
    }

    #[test]
    fn q2_ignores_containment() {
        let q2 = ExposureQuery::q2();
        let inside = event(Some(TagId::case(9)), "frozen-food");
        assert!(q2.qualifies(&inside, Some(12.0)));
        assert!(!q2.qualifies(&inside, Some(9.0)));
    }
}
