//! Adversarial decoding: the wire decoder must treat every byte sequence —
//! truncated, bit-flipped, or outright random — as data, never as a reason
//! to panic. Valid encodings must additionally be *stable*: decoding and
//! re-encoding reproduces the original bytes.
//!
//! This is the runtime half of the panic-free-decode invariant (R2 in
//! docs/INVARIANTS.md); the static half is the set of clippy lints denied at
//! the top of `crates/wire/src/lib.rs`.

mod common;

use common::*;
use proptest::prelude::*;
use rfid_core::{MigrationState, ReaderSet};
use rfid_query::{AutomatonState, ObjectQueryState, SharedStateBundle};
use rfid_types::{Epoch, RawReading, ReaderId, TagId};
use rfid_wire::codec::KINDS;
use rfid_wire::primitives::{Reader, TagTable, Writer};
use rfid_wire::{SiteCheckpoint, WireError, WireErrorKind, WIRE_VERSION};

/// Run every decoder over `bytes`; the only acceptable outcomes are `Ok` and
/// `Err` — a panic fails the test by unwinding. A bundle that decodes is also
/// expanded: the decoder's contract is that whatever it lets through can be
/// applied to the centroid without a bounds check.
fn decode_everything(bytes: &[u8]) {
    let codec = codec();
    let _ = codec.decode_readings(bytes);
    let _ = codec.decode_migration(bytes);
    let _ = codec.decode_query_state(bytes);
    if let Ok(bundle) = codec.decode_bundle(bytes) {
        let _ = bundle.expand();
    }
    let _ = codec.decode_checkpoint(bytes);
    let _ = codec.decode_control(bytes);
    let _ = codec.state_from_payload(TagId::item(1), bytes);
}

/// Valid binary encodings of every payload family, for mutation.
fn arb_encoding() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        arb_readings().prop_map(|r| codec().encode_readings(&r)),
        arb_migration().prop_map(|s| codec().encode_migration(&s)),
        arb_query_state().prop_map(|s| codec().encode_query_state(&s)),
        arb_bundle().prop_map(|b| codec().encode_bundle(&b)),
        arb_checkpoint().prop_map(|c| codec().encode_checkpoint(&c)),
        arb_control().prop_map(|m| codec().encode_control(&m)),
    ]
}

proptest! {
    #[test]
    fn every_strict_prefix_errs_and_never_panics(bytes in arb_encoding()) {
        // Binary messages either promise more bytes (truncation mid-field)
        // or fail `expect_exhausted`; either way a strict prefix is an error,
        // and crucially never an abort.
        for cut in 0..bytes.len() {
            let prefix = &bytes[..cut];
            prop_assert!(codec().decode_readings(prefix).is_err());
            prop_assert!(codec().decode_migration(prefix).is_err());
            prop_assert!(codec().decode_query_state(prefix).is_err());
            prop_assert!(codec().decode_bundle(prefix).is_err());
            prop_assert!(codec().decode_checkpoint(prefix).is_err());
            prop_assert!(codec().decode_control(prefix).is_err());
        }
    }

    #[test]
    fn bit_flips_never_panic(bytes in arb_encoding(), idx in any::<u16>(), bit in 0u8..8) {
        // A single flipped bit may still decode (payload bits), may change
        // the message meaning, or may corrupt structure — all fine, as long
        // as no decoder panics.
        let mut mutated = bytes;
        if !mutated.is_empty() {
            let at = idx as usize % mutated.len();
            mutated[at] ^= 1 << bit;
        }
        decode_everything(&mutated);
    }

    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        decode_everything(&bytes);
    }

    #[test]
    fn decoding_then_reencoding_is_stable(state in arb_collapsed()) {
        let codec = codec();
        let bytes = codec.encode_migration(&MigrationState::Collapsed(state));
        let back = codec.decode_migration(&bytes).unwrap();
        prop_assert_eq!(codec.encode_migration(&back), bytes.clone());
    }

    #[test]
    fn reading_batches_reencode_stably(readings in arb_readings()) {
        let codec = codec();
        let bytes = codec.encode_readings(&readings);
        let back = codec.decode_readings(&bytes).unwrap();
        prop_assert_eq!(codec.encode_readings(&back), bytes.clone());
    }
}

/// Each epoch delta below is individually a legal zigzag varint, but their
/// running sum overflows `i64` — exactly the shape a hostile peer would send
/// to abort a site built with `overflow-checks`. Must be a clean error.
#[test]
fn zigzag_delta_sum_overflow_is_an_error_not_an_abort() {
    let tag = TagId::item(1);
    let table = TagTable::from_tags([tag]);
    let mut w = Writer::new();
    w.put_u8(WIRE_VERSION);
    w.put_u8(0x02); // KIND_READINGS
    table.encode(&mut w);
    w.put_varint(2); // two readings
    w.put_varint(0); // reading 1: tag index
    w.put_zigzag(i64::from(u32::MAX)); // epoch u32::MAX (valid)
    w.put_varint(0); // reader id
    w.put_varint(0); // reading 2: tag index
    w.put_zigzag(i64::MAX); // prev + delta wraps i64
    w.put_varint(0); // reader id
    let err = codec()
        .decode_readings(&w.into_bytes())
        .expect_err("overflowing epoch delta must be rejected");
    assert_eq!(err.kind(), WireErrorKind::LengthOverflow);
}

/// A declared byte-string length near `u64::MAX` used to wrap the
/// `pos + len` bounds check in release builds and panic on the slice; it is
/// now a typed `LengthOverflow`.
#[test]
fn huge_length_prefixes_are_length_overflow_errors() {
    let mut w = Writer::new();
    w.put_varint(u64::MAX);
    let bytes = w.into_bytes();
    let mut r = Reader::new(&bytes);
    let err = r.get_bytes().expect_err("length prefix exceeds any buffer");
    assert_eq!(err.kind(), WireErrorKind::LengthOverflow);
}

/// A bundle message with one hand-written delta against a three-byte
/// centroid: `len`, then either the full payload or `(edits, suffix)`.
fn bundle_with_delta(len: u64, full: Option<&[u8]>, edits: &[(i64, u8)], suffix: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(WIRE_VERSION);
    w.put_u8(0x04); // KIND_BUNDLE
    w.put_varint(TagId::item(1).raw());
    w.put_bytes(&[1, 2, 3]); // centroid
    w.put_varint(1); // one delta
    w.put_varint(TagId::item(2).raw());
    w.put_varint(len);
    match full {
        Some(full) => {
            w.put_u8(1);
            w.put_bytes(full);
        }
        None => {
            w.put_u8(0);
            w.put_varint(edits.len() as u64);
            let mut prev = 0;
            for &(pos, byte) in edits {
                w.put_zigzag(pos - prev);
                prev = pos;
                w.put_u8(byte);
            }
            w.put_bytes(suffix);
        }
    }
    w.into_bytes()
}

/// `SharedStateBundle::expand` resizes to `len`, indexes at every edit
/// position and copies the suffix into the tail without checking any of
/// them, so a delta the centroid cannot take has to die in the decoder: a
/// ten-byte message must not be able to allocate 4 GiB or panic a site.
#[test]
fn deltas_the_centroid_cannot_take_are_malformed() {
    let rejected = [
        (
            "a length with no bytes behind it",
            bundle_with_delta(u64::from(u32::MAX), None, &[], &[]),
        ),
        (
            "an edit past the reconstructed length",
            bundle_with_delta(2, None, &[(2, 9)], &[]),
        ),
        (
            "an edit past the centroid",
            bundle_with_delta(5, None, &[(3, 9)], &[7, 7]),
        ),
        (
            "an edit before the start",
            bundle_with_delta(3, None, &[(-1, 9)], &[]),
        ),
        (
            "a suffix longer than the payload",
            bundle_with_delta(2, None, &[], &[7, 7, 7]),
        ),
        (
            "a full payload of another length",
            bundle_with_delta(4, Some(&[9, 9]), &[], &[]),
        ),
    ];
    for (what, bytes) in rejected {
        let err = codec().decode_bundle(&bytes).expect_err(what);
        assert_eq!(err.kind(), WireErrorKind::Malformed, "{what}");
    }
    // The same builder with consistent fields decodes and expands.
    let bundle = codec()
        .decode_bundle(&bundle_with_delta(5, None, &[(0, 9), (2, 8)], &[7, 7]))
        .unwrap();
    assert_eq!(bundle.expand()[1], (TagId::item(2), vec![9, 2, 8, 7, 7]));
}

/// A hand-written checkpoint over the two-tag table `[case 1, item 1]`:
/// every section empty except the engine's five tag-keyed stores, whose
/// bodies the caller writes.
fn checkpoint_with_keyed_sections(sections: [&dyn Fn(&mut Writer); 5]) -> Vec<u8> {
    let [store, prior, containment, dirty, cache] = sections;
    let mut w = Writer::new();
    w.put_u8(WIRE_VERSION);
    w.put_u8(0x07); // KIND_CHECKPOINT
    w.put_varint(0); // site
    w.put_varint(0); // at
    TagTable::from_tags([TagId::case(1), TagId::item(1)]).encode(&mut w);
    store(&mut w);
    prior(&mut w);
    containment(&mut w);
    w.put_varint(0); // detected changes
    for _ in 0..2 {
        w.put_u8(0); // no outcome, no inference epoch
    }
    dirty(&mut w);
    cache(&mut w);
    // Processor (3), cursors (3), inbox, comm counters (10),
    // shared/unshared/runs (3), inference stats (5), edge seqs, transport
    // counters (10), quarantine, memory counters (4), ledgers: all empty or
    // zero.
    for _ in 0..42 {
        w.put_varint(0);
    }
    w.into_bytes()
}

/// A tag-keyed section that declares two entries must yield two: a repeated
/// key is `Malformed` in every section alike. The five stores that rebuild
/// through their own API used to let the second entry overwrite (or merge
/// into) the first. One directed case per section; the same bodies under
/// distinct keys decode.
#[test]
fn duplicate_keys_are_malformed_in_every_keyed_section() {
    type Section = fn(&mut Writer, u64);
    let empty: Section = |w, _| w.put_varint(0);
    let sections: [(&str, Section); 5] = [
        ("observation store", |w, second| {
            w.put_varint(2);
            for (key, epoch_delta) in [(0, 0), (second, 1)] {
                w.put_varint(key);
                w.put_varint(1); // one observation
                w.put_zigzag(epoch_delta);
                w.put_varint(1); // heard by one reader
                w.put_varint(0); // at location 0
            }
        }),
        ("prior weights", |w, second| {
            w.put_varint(2);
            for (key, weight) in [(0, 1.0), (second, 2.0)] {
                w.put_varint(key);
                w.put_varint(1); // one candidate container
                w.put_varint(0);
                w.put_f64(weight);
            }
        }),
        ("containment", |w, second| {
            w.put_varint(2);
            for key in [0, second] {
                w.put_varint(key);
                w.put_varint(0); // container
            }
        }),
        ("dirty journal", |w, second| {
            w.put_varint(2);
            for key in [0, second] {
                w.put_varint(key);
                w.put_varint(0); // marked, no epochs
            }
        }),
        ("evidence cache", |w, second| {
            w.put_varint(2);
            for key in [0, second] {
                w.put_varint(key);
                w.put_varint(0); // no variants
            }
        }),
    ];
    for (at, (what, section)) in sections.iter().enumerate() {
        let build = |second: u64| {
            let body = |w: &mut Writer| section(w, second);
            let blank = |w: &mut Writer| empty(w, 0);
            let mut bodies: [&dyn Fn(&mut Writer); 5] = [&blank; 5];
            bodies[at] = &body;
            checkpoint_with_keyed_sections(bodies)
        };
        codec().decode_checkpoint(&build(1)).expect(what);
        let err = codec().decode_checkpoint(&build(0)).expect_err(what);
        assert_eq!(err.kind(), WireErrorKind::Malformed, "{what}");
    }
}

/// Decode a checkpoint whose only non-empty section is the observation store
/// (`at` 0), the dirty journal (`at` 3) or the cache keys (`at` 4), written
/// by `body`.
fn decode_with_section(at: usize, body: &dyn Fn(&mut Writer)) -> Result<SiteCheckpoint, WireError> {
    let blank = |w: &mut Writer| w.put_varint(0);
    let mut bodies: [&dyn Fn(&mut Writer); 5] = [&blank; 5];
    bodies[at] = body;
    codec().decode_checkpoint(&checkpoint_with_keyed_sections(bodies))
}

/// A store section for the tag at table index 1: per observation its epoch
/// delta and its readers.
fn store_section<'a>(observations: &'a [(i64, &'a [u64])]) -> impl Fn(&mut Writer) + 'a {
    move |w| {
        w.put_varint(1);
        w.put_varint(1);
        w.put_varint(observations.len() as u64);
        for (delta, readers) in observations {
            w.put_zigzag(*delta);
            w.put_varint(readers.len() as u64);
            readers.iter().for_each(|&reader| w.put_varint(reader));
        }
    }
}

/// A store that names one `(tag, epoch, reader)` twice — a reader repeated
/// in one epoch's set, inline or past the spill, or one epoch listed twice —
/// is malformed: the encoder writes each reading once.
#[test]
fn duplicate_observations_are_malformed() {
    let spilled: Vec<u64> = (0..ReaderSet::INLINE as u64 + 2).collect();
    let mut spilled_dup = spilled.clone();
    spilled_dup.push(4);
    let accepted: [&[(i64, &[u64])]; 3] = [
        &[(5, &[0, 2])],
        &[(5, &[0]), (1, &[0])],
        &[(5, &spilled), (1, &[0])],
    ];
    for observations in accepted {
        decode_with_section(0, &store_section(observations)).expect("distinct readings");
    }
    let rejected: [&[(i64, &[u64])]; 4] = [
        &[(5, &[2, 2])],
        &[(5, &[2, 0, 2])],
        &[(5, &spilled_dup)],
        &[(5, &[0]), (0, &[1, 0])],
    ];
    for observations in rejected {
        let err = decode_with_section(0, &store_section(observations)).unwrap_err();
        assert_eq!(err.kind(), WireErrorKind::Malformed);
        assert!(
            err.to_string()
                .ends_with("duplicate observation in the store"),
            "{observations:?}: {err}"
        );
    }
}

/// A journal run that repeats an epoch is malformed; distinct epochs decode
/// in any order.
#[test]
fn duplicate_journal_epochs_are_malformed() {
    let journal = |deltas: &'static [i64]| {
        move |w: &mut Writer| {
            w.put_varint(1);
            w.put_varint(1);
            w.put_varint(deltas.len() as u64);
            deltas.iter().for_each(|&delta| w.put_zigzag(delta));
        }
    };
    for deltas in [&[4, 3][..], &[7, -3], &[]] {
        decode_with_section(3, &journal(deltas)).expect("distinct epochs");
    }
    for deltas in [&[4, 0][..], &[4, 3, -3], &[9, -5, 5]] {
        let err = decode_with_section(3, &journal(deltas)).unwrap_err();
        assert_eq!(err.kind(), WireErrorKind::Malformed);
        assert!(
            err.to_string()
                .ends_with("duplicate epoch in the dirty journal"),
            "{deltas:?}: {err}"
        );
    }
}

/// One object row of a hand-written outcome: its candidates in ranked order
/// and the tags its weights are keyed by.
#[derive(Clone)]
struct RowBody {
    object: TagId,
    /// A candidate count to declare instead of `candidates.len()`.
    declared: Option<u64>,
    candidates: Vec<TagId>,
    weights: Vec<TagId>,
}

/// A hand-written checkpoint whose engine holds one outcome over the table of
/// items 1–2 and cases 1–2 (items sort first): `containment` pairs, then
/// `rows`, then `runs` as `(tag, number of estimates)`. Every other section
/// is empty.
fn checkpoint_with_outcome(
    containment: &[(TagId, TagId)],
    rows: &[RowBody],
    runs: &[(TagId, u64)],
) -> Vec<u8> {
    let table = TagTable::from_tags([
        TagId::item(1),
        TagId::item(2),
        TagId::case(1),
        TagId::case(2),
    ]);
    let at = |tag: TagId| table.index_of(tag);
    let mut w = Writer::new();
    w.put_u8(WIRE_VERSION);
    w.put_u8(0x07); // KIND_CHECKPOINT
    w.put_varint(0); // site
    w.put_varint(0); // at
    table.encode(&mut w);
    for _ in 0..4 {
        w.put_varint(0); // store, prior, engine containment, detected changes
    }
    w.put_u8(1); // an outcome
    w.put_varint(containment.len() as u64);
    for &(object, container) in containment {
        w.put_varint(at(object));
        w.put_varint(at(container));
    }
    w.put_varint(rows.len() as u64);
    for row in rows {
        w.put_varint(at(row.object));
        w.put_varint(row.declared.unwrap_or(row.candidates.len() as u64));
        row.candidates.iter().for_each(|&c| w.put_varint(at(c)));
        w.put_varint(row.weights.len() as u64);
        for &c in &row.weights {
            w.put_varint(at(c));
            w.put_f64(-1.5);
        }
        w.put_varint(0); // not assigned
    }
    w.put_varint(runs.len() as u64);
    for &(tag, estimates) in runs {
        w.put_varint(at(tag));
        w.put_varint(estimates);
        for _ in 0..estimates {
            w.put_zigzag(1);
            w.put_varint(0); // location 0
        }
    }
    w.put_varint(3); // iterations
    w.put_varint(2); // locations
    w.put_u8(0); // no inference epoch
                 // Dirty journal and evidence cache, then the processor and accounting
                 // sections as in `checkpoint_with_keyed_sections`.
    for _ in 0..44 {
        w.put_varint(0);
    }
    w.into_bytes()
}

/// The outcome's arenas hold rows ascending by object, one weight per
/// candidate, location runs only where there is something to hold, and
/// containment only for objects with a row. A checkpoint breaking any of
/// those rules is a typed error — `Malformed` with the rule's name, or
/// `Truncated` where a count runs past the message — never a panic or a
/// silently reshaped outcome.
#[test]
fn outcomes_breaking_an_arena_rule_are_typed_errors() {
    let (item1, item2) = (TagId::item(1), TagId::item(2));
    let (case1, case2) = (TagId::case(1), TagId::case(2));
    let row = |object| RowBody {
        object,
        declared: None,
        candidates: vec![case2, case1],
        weights: vec![case1, case2],
    };
    let decode = |bytes: Vec<u8>| {
        codec()
            .decode_checkpoint(&bytes)
            .map(|c| c.engine.last_outcome)
    };

    let outcome = decode(checkpoint_with_outcome(
        &[(item1, case2)],
        &[row(item1), row(item2)],
        &[(item2, 1), (case1, 2)],
    ))
    .expect("a well-formed outcome decodes")
    .expect("the outcome is present");
    assert_eq!(outcome.objects().len(), 2);
    assert_eq!(outcome.container_of(item1), Some(case2));
    let row1 = outcome.object(item1).unwrap();
    assert_eq!(row1.candidates().collect::<Vec<_>>(), [case2, case1]);
    assert!(row1.epochs().is_empty(), "a checkpoint keeps no evidence");
    assert_eq!(outcome.locations_of(case1).len(), 2);

    let two = [row(item1), row(item2)];
    let malformed: Vec<(&str, Vec<u8>)> = vec![
        (
            "object rows out of order or repeated",
            checkpoint_with_outcome(&[], &[row(item2), row(item1)], &[]),
        ),
        (
            "object rows out of order or repeated",
            checkpoint_with_outcome(&[], &[row(item1), row(item1)], &[]),
        ),
        (
            "mismatched weight and candidate counts",
            checkpoint_with_outcome(
                &[],
                &[RowBody {
                    weights: vec![case1],
                    ..row(item1)
                }],
                &[],
            ),
        ),
        (
            "a weight for a tag that is not a candidate",
            checkpoint_with_outcome(
                &[],
                &[RowBody {
                    weights: vec![case1, item2],
                    ..row(item1)
                }],
                &[],
            ),
        ),
        (
            "a candidate listed twice",
            checkpoint_with_outcome(
                &[],
                &[RowBody {
                    candidates: vec![case1, case1],
                    ..row(item1)
                }],
                &[],
            ),
        ),
        (
            "containment names an object without a row",
            checkpoint_with_outcome(&[(item2, case1)], &[row(item1)], &[]),
        ),
        (
            "location runs out of order or repeated",
            checkpoint_with_outcome(&[], &two, &[(case1, 1), (item1, 1)]),
        ),
        (
            "an empty location run",
            checkpoint_with_outcome(&[], &two, &[(case1, 0)]),
        ),
    ];
    for (rule, bytes) in malformed {
        let err = decode(bytes).expect_err(rule);
        assert_eq!(err.kind(), WireErrorKind::Malformed, "{rule}: {err}");
        assert!(err.to_string().ends_with(rule), "{rule}: {err}");
    }

    // A candidate list declaring more entries than the message holds: the
    // decoder reads on to the end of the message and stops there.
    let candidates_past_the_end = RowBody {
        declared: Some(1 << 40),
        candidates: Vec::new(),
        weights: Vec::new(),
        ..row(item1)
    };
    let err = decode(checkpoint_with_outcome(
        &[],
        &[candidates_past_the_end],
        &[],
    ))
    .unwrap_err();
    assert_eq!(err.kind(), WireErrorKind::Truncated, "{err}");
}

/// One variant key of a hand-written cache section over the two-tag table of
/// [`checkpoint_with_keyed_sections`]: member and series-object references
/// as table indices (`2` is past the table), epochs as zigzag deltas.
struct KeyBody {
    members: &'static [u64],
    epoch_deltas: &'static [i64],
    objects: &'static [u64],
}

/// A cache section holding `variants` for the container at table index 0.
fn cache_section(variants: &[KeyBody]) -> impl Fn(&mut Writer) + '_ {
    move |w| {
        w.put_varint(1);
        w.put_varint(0);
        w.put_varint(variants.len() as u64);
        for key in variants {
            w.put_varint(key.members.len() as u64);
            key.members.iter().for_each(|&m| w.put_varint(m));
            w.put_varint(key.epoch_deltas.len() as u64);
            key.epoch_deltas.iter().for_each(|&d| w.put_zigzag(d));
            w.put_varint(key.objects.len() as u64);
            key.objects.iter().for_each(|&o| w.put_varint(o));
        }
    }
}

/// The evidence cache's keys are all a checkpoint keeps of it, and restore
/// recomputes the values under them, so a key no run could have cached is a
/// typed error at decode: posterior epochs unsorted or repeated, a member or
/// series object outside the tag table, more variants than a container
/// keeps. Keys that decode — however little they match the store — restore
/// and run without a panic.
#[test]
fn hostile_cache_keys_are_typed_errors() {
    let key = |epoch_deltas| KeyBody {
        members: &[1],
        epoch_deltas,
        objects: &[1],
    };
    let accepted: [&[KeyBody]; 3] = [
        &[key(&[5, 2])],
        &[KeyBody {
            members: &[],
            epoch_deltas: &[],
            objects: &[],
        }],
        &[key(&[5]), key(&[1, 1]), key(&[7]), key(&[2, 9, 4])],
    ];
    for variants in accepted {
        let checkpoint =
            decode_with_section(4, &cache_section(variants)).expect("keys a run caches");
        let mut engine = rfid_core::InferenceEngine::new(
            rfid_core::InferenceConfig::default().without_change_detection(),
            rfid_types::ReadRateTable::diagonal(2, 0.8, 1e-4),
        );
        engine.restore(checkpoint.engine);
        engine.observe(RawReading::new(Epoch(6), TagId::item(1), ReaderId(0)));
        engine.observe(RawReading::new(Epoch(6), TagId::case(1), ReaderId(0)));
        engine.run_inference(Epoch(10));
    }
    let rejected: [(&[KeyBody], &str); 6] = [
        (&[key(&[5, -2])], "posterior epochs unsorted or repeated"),
        (&[key(&[5, 0])], "posterior epochs unsorted or repeated"),
        (
            &[KeyBody {
                members: &[1, 1],
                ..key(&[5])
            }],
            "variant members unsorted or repeated",
        ),
        (
            &[KeyBody {
                members: &[2],
                ..key(&[5])
            }],
            "tag index out of table bounds",
        ),
        (
            &[KeyBody {
                objects: &[2],
                ..key(&[5])
            }],
            "tag index out of table bounds",
        ),
        (
            &[key(&[1]), key(&[2]), key(&[3]), key(&[4]), key(&[5])],
            "more cached variants than a container keeps",
        ),
    ];
    for (variants, rule) in rejected {
        let err = decode_with_section(4, &cache_section(variants)).unwrap_err();
        assert_eq!(err.kind(), WireErrorKind::Malformed, "{rule}: {err}");
        assert!(err.to_string().ends_with(rule), "{rule}: {err}");
    }
}

/// The chaos fault plan corrupts a poisoned envelope by flipping the high
/// bit of byte 0, which ruins the version byte. Every payload kind must turn
/// that into a typed [`WireError`] (quarantine input), never a panic and
/// never a silent mis-decode. One case per declared payload kind: the kind
/// bytes of the encodings below must be exactly [`KINDS`], so declaring a new
/// kind without adding its corrupted-bytes case here fails this test.
#[test]
fn corrupted_byte_zero_is_a_typed_error_for_every_kind() {
    let state = ObjectQueryState {
        query: "Q1".to_string(),
        tag: TagId::item(1),
        automaton: AutomatonState::Idle,
    };
    let codec = codec();
    let encodings: Vec<(&str, Vec<u8>)> = vec![
        (
            "KIND_MIGRATION",
            codec.encode_migration(&MigrationState::None),
        ),
        (
            "KIND_READINGS",
            codec.encode_readings(&[RawReading::new(Epoch(1), TagId::item(1), ReaderId(0))]),
        ),
        ("KIND_QUERY_STATE", codec.encode_query_state(&state)),
        (
            "KIND_BUNDLE",
            codec.encode_bundle(&SharedStateBundle {
                centroid_tag: TagId::item(1),
                centroid_bytes: vec![1, 2, 3],
                deltas: Vec::new(),
            }),
        ),
        ("KIND_STATE_PAYLOAD", codec.state_payload(&state)),
        (
            "KIND_CHECKPOINT",
            codec.encode_checkpoint(&empty_checkpoint()),
        ),
        (
            "KIND_CONTROL",
            codec.encode_control(&rfid_wire::ControlMsg::Ack {
                from: 0,
                to: 1,
                seq: 4,
            }),
        ),
    ];
    let covered: Vec<(&str, u8)> = encodings.iter().map(|(kind, b)| (*kind, b[1])).collect();
    assert_eq!(
        covered, KINDS,
        "one corrupted-bytes case per declared payload kind, in declaration order"
    );
    for (kind, bytes) in &encodings {
        let mut poisoned = bytes.clone();
        poisoned[0] ^= 0x80;
        decode_everything(&poisoned);
        assert!(
            codec.decode_migration(&poisoned).is_err()
                && codec.decode_readings(&poisoned).is_err()
                && codec.decode_query_state(&poisoned).is_err()
                && codec.decode_bundle(&poisoned).is_err()
                && codec.state_from_payload(TagId::item(1), &poisoned).is_err()
                && codec.decode_checkpoint(&poisoned).is_err()
                && codec.decode_control(&poisoned).is_err(),
            "poisoned {kind} must not decode as any payload"
        );
    }
}

/// Truncation and bad headers surface as their own machine-matchable kinds.
#[test]
fn error_kinds_classify_truncation_and_headers() {
    let valid = codec().encode_readings(&[RawReading::new(Epoch(3), TagId::item(1), ReaderId(0))]);
    let err = codec().decode_readings(&valid[..1]).unwrap_err();
    assert_eq!(err.kind(), WireErrorKind::Truncated);
    let mut wrong_version = valid.clone();
    wrong_version[0] = WIRE_VERSION + 1;
    let err = codec().decode_readings(&wrong_version).unwrap_err();
    assert_eq!(err.kind(), WireErrorKind::BadHeader);
    // Valid header of the wrong payload kind.
    let err = codec().decode_migration(&valid).unwrap_err();
    assert_eq!(err.kind(), WireErrorKind::BadHeader);
    // Checkpoints classify the same way: a readings payload is the wrong
    // kind, a truncated checkpoint is Truncated, a corrupted version byte is
    // BadHeader.
    let err = codec().decode_checkpoint(&valid).unwrap_err();
    assert_eq!(err.kind(), WireErrorKind::BadHeader);
    let err = codec().decode_checkpoint(&valid[..1]).unwrap_err();
    assert_eq!(err.kind(), WireErrorKind::Truncated);
}
