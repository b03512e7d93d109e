//! Enriched event schemas produced by the inference module and consumed by
//! the stream query processor: [`ObjectEvent`] for RFID-derived events and
//! [`SensorReading`] for other sensor streams (e.g. temperature) used by the
//! hybrid queries of Section 2.

use crate::ids::{Epoch, LocationId, TagId};

/// One tuple of the enriched event stream `(time, tag id, location,
/// container)` (Section 2), plus an optional product-property attribute.
///
/// `container == None` means the inference engine believes the object is not
/// currently inside any container (or it is itself a top-level container).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectEvent {
    /// Epoch of the event.
    pub time: Epoch,
    /// The object (or container) the event describes.
    pub tag: TagId,
    /// Inferred (or true, when ground truth is used) location.
    pub location: LocationId,
    /// Inferred immediate container, if any.
    pub container: Option<TagId>,
    /// Optional product property from the manufacturer's database
    /// (e.g. `"frozen-food"`, `"flammable"`); used by query predicates such
    /// as `IsA 'freezer'`.
    pub property: Option<String>,
}

impl ObjectEvent {
    /// Construct an event without a property annotation.
    pub fn new(
        time: Epoch,
        tag: TagId,
        location: LocationId,
        container: Option<TagId>,
    ) -> ObjectEvent {
        ObjectEvent {
            time,
            tag,
            location,
            container,
            property: None,
        }
    }

    /// Attach a product property (builder style).
    pub fn with_property(mut self, property: impl Into<String>) -> ObjectEvent {
        self.property = Some(property.into());
        self
    }

    /// Whether the event's property matches the given class name, mirroring
    /// the `IsA` predicate of Query 1.
    pub fn is_a(&self, class: &str) -> bool {
        self.property.as_deref() == Some(class)
    }
}

/// One tuple of a generic sensor stream: `(time, sensor location, value)`.
///
/// Query 1 joins the RFID event stream with a temperature stream partitioned
/// by sensor; we identify a sensor with the location it measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorReading {
    /// Epoch of the measurement.
    pub time: Epoch,
    /// Location of the sensor (one sensor per reader location).
    pub location: LocationId,
    /// Measured value (degrees Celsius for temperature sensors).
    pub value: f64,
}

impl SensorReading {
    /// Construct a sensor reading.
    pub fn new(time: Epoch, location: LocationId, value: f64) -> SensorReading {
        SensorReading {
            time,
            location,
            value,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_event_property_builder_and_is_a() {
        let e = ObjectEvent::new(
            Epoch(1),
            TagId::item(1),
            LocationId(0),
            Some(TagId::case(1)),
        )
        .with_property("frozen-food");
        assert!(e.is_a("frozen-food"));
        assert!(!e.is_a("freezer"));
        let bare = ObjectEvent::new(Epoch(1), TagId::item(1), LocationId(0), None);
        assert!(!bare.is_a("frozen-food"));
        assert_eq!(bare.container, None);
    }

    #[test]
    fn sensor_reading_holds_fields() {
        let s = SensorReading::new(Epoch(10), LocationId(3), 21.5);
        assert_eq!(s.time, Epoch(10));
        assert_eq!(s.location, LocationId(3));
        assert!((s.value - 21.5).abs() < f64::EPSILON);
    }
}
