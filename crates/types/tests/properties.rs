//! Property-based tests of the shared data model.

use proptest::prelude::*;
use rfid_types::{
    ContainmentChange, ContainmentMap, ContainmentTimeline, Epoch, RawReading, ReaderId,
    ReadingBatch, TagId, TagKind,
};

fn arb_kind() -> impl Strategy<Value = TagKind> {
    prop_oneof![
        Just(TagKind::Item),
        Just(TagKind::Case),
        Just(TagKind::Pallet)
    ]
}

proptest! {
    /// Tag ids round-trip their kind and serial for any 62-bit serial.
    #[test]
    fn tag_id_roundtrip(kind in arb_kind(), serial in 0u64..(1 << 62)) {
        let tag = TagId::new(kind, serial);
        prop_assert_eq!(tag.kind(), kind);
        prop_assert_eq!(tag.serial(), serial);
        prop_assert_eq!(TagId::from_raw(tag.raw()), tag);
        prop_assert_eq!(tag.is_object(), kind == TagKind::Item);
        prop_assert_eq!(tag.is_container(), kind != TagKind::Item);
    }

    /// Epoch arithmetic never panics and respects ordering.
    #[test]
    fn epoch_arithmetic_is_total(a in 0u32..1_000_000, b in 0u32..1_000_000) {
        let e = Epoch(a);
        prop_assert_eq!(e.plus(b).since(e), b);
        prop_assert!(e.minus(b) <= e);
        prop_assert_eq!(Epoch(a).since(Epoch(b)), a.saturating_sub(b));
    }

    /// A reading batch is sorted and strictly de-duplicated by construction,
    /// and keeps every distinct reading it was built from.
    #[test]
    fn reading_batch_invariants(
        readings in prop::collection::vec((0u32..500, 0u64..20, 0u16..6), 0..200),
    ) {
        let raw: Vec<RawReading> = readings
            .iter()
            .map(|&(t, serial, reader)| RawReading::new(Epoch(t), TagId::item(serial), ReaderId(reader)))
            .collect();
        let batch = ReadingBatch::from_readings(raw.clone());
        let sorted = batch.readings();
        prop_assert!(sorted.windows(2).all(|w| w[0] < w[1]), "sorted and strictly deduped");
        prop_assert!(sorted.len() <= raw.len());
        prop_assert!(raw.iter().all(|r| sorted.binary_search(r).is_ok()));
    }

    /// The timeline's `at` snapshot always agrees with per-object
    /// `container_at`, for any (time-ordered) sequence of changes.
    #[test]
    fn timeline_snapshot_agrees_with_point_queries(
        initial in prop::collection::vec((0u64..10, 0u64..5), 0..10),
        changes in prop::collection::vec((0u32..300, 0u64..10, prop::option::of(0u64..5)), 0..20),
        query_at in 0u32..400,
    ) {
        let map: ContainmentMap = initial
            .iter()
            .map(|&(o, c)| (TagId::item(o), TagId::case(c)))
            .collect();
        let mut timeline = ContainmentTimeline::new(map);
        let mut ordered = changes.clone();
        ordered.sort_by_key(|&(t, _, _)| t);
        for (t, o, c) in ordered {
            let object = TagId::item(o);
            let old = timeline.container_at(object, Epoch(t));
            timeline.record(ContainmentChange {
                time: Epoch(t),
                object,
                old_container: old,
                new_container: c.map(TagId::case),
            });
        }
        let snapshot = timeline.at(Epoch(query_at));
        for o in 0u64..10 {
            let object = TagId::item(o);
            prop_assert_eq!(snapshot.container_of(object), timeline.container_at(object, Epoch(query_at)));
        }
    }

    /// Containment-map agreement is symmetric, bounded by [0, 1] and equals 1
    /// on identical maps.
    #[test]
    fn agreement_properties(
        a in prop::collection::vec((0u64..10, 0u64..5), 0..10),
        b in prop::collection::vec((0u64..10, 0u64..5), 0..10),
    ) {
        let ma: ContainmentMap = a.iter().map(|&(o, c)| (TagId::item(o), TagId::case(c))).collect();
        let mb: ContainmentMap = b.iter().map(|&(o, c)| (TagId::item(o), TagId::case(c))).collect();
        let ab = ma.agreement(&mb);
        let ba = mb.agreement(&ma);
        prop_assert!((ab - ba).abs() < 1e-12, "agreement is symmetric");
        prop_assert!((0.0..=1.0).contains(&ab));
        prop_assert!((ma.agreement(&ma) - 1.0).abs() < 1e-12);
    }
}
