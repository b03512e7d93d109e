//! Property-based tests of the query layer: the pattern automaton and the
//! centroid-based sharing scheme, including its choice of centroid.

use proptest::prelude::*;
use rfid_query::{share_states_with, AutomatonState, ExposureAutomaton, ObjectQueryState};
use rfid_types::{Epoch, TagId};

fn arb_state() -> impl Strategy<Value = ObjectQueryState> {
    let automaton = prop_oneof![
        Just(AutomatonState::Idle),
        (
            0u32..10_000,
            prop::collection::vec((0u32..10_000, -30.0f64..40.0), 0..30),
            any::<bool>()
        )
            .prop_map(|(since, readings, fired)| AutomatonState::Accumulating {
                since: Epoch(since),
                readings: readings.into_iter().map(|(t, v)| (Epoch(t), v)).collect(),
                fired,
            }),
    ];
    (0u64..50, automaton, prop_oneof![Just("Q1"), Just("Q2")]).prop_map(
        |(tag, automaton, query)| ObjectQueryState {
            query: query.to_string(),
            tag: TagId::item(tag),
            automaton,
        },
    )
}

/// A stand-in payload encoder (the real one lives downstream in `rfid-wire`,
/// whose round-trip suite covers sharing over it): the diffing only needs
/// bytes that are deterministic per state.
fn payload(state: &ObjectQueryState) -> Vec<u8> {
    format!("{:?}", (&state.query, &state.automaton)).into_bytes()
}

/// The centroid by its definition: the first state whose payload has the
/// least total byte distance (differing common-prefix bytes plus the length
/// gap) to every payload of the group, compared byte by byte.
fn brute_force_centroid(states: &[ObjectQueryState]) -> TagId {
    let payloads: Vec<Vec<u8>> = states.iter().map(payload).collect();
    let distance = |a: &[u8], b: &[u8]| {
        let common = a.len().min(b.len());
        let diff = (0..common).filter(|&i| a[i] != b[i]).count();
        diff + a.len().max(b.len()) - common
    };
    let mut best = 0;
    let mut best_total = usize::MAX;
    for (i, a) in payloads.iter().enumerate() {
        let total: usize = payloads.iter().map(|b| distance(a, b)).sum();
        if total < best_total {
            best = i;
            best_total = total;
        }
    }
    states[best].tag
}

/// A group of states, each either one of three fixed states (so payloads
/// repeat and totals tie) or a fresh arbitrary one, with the tag made
/// distinct by position.
fn arb_group(size: std::ops::Range<usize>) -> impl Strategy<Value = Vec<ObjectQueryState>> {
    let pool = [
        AutomatonState::Idle,
        AutomatonState::Accumulating {
            since: Epoch(100),
            readings: vec![(Epoch(100), 21.0), (Epoch(110), 21.5)],
            fired: false,
        },
        AutomatonState::Accumulating {
            since: Epoch(100),
            readings: vec![(Epoch(100), 21.0), (Epoch(110), 22.5)],
            fired: true,
        },
    ];
    prop::collection::vec((0usize..5, arb_state()), size).prop_map(move |members| {
        members
            .into_iter()
            .enumerate()
            .map(|(position, (pick, mut state))| {
                if let Some(pooled) = pool.get(pick) {
                    state.query = "Q1".to_string();
                    state.automaton = pooled.clone();
                }
                state.tag = TagId::item(position as u64);
                state
            })
            .collect()
    })
}

proptest! {
    /// The bundle's centroid is the first minimum of the total-distance
    /// definition, over groups full of duplicate payloads and ties.
    #[test]
    fn centroid_is_the_first_minimum_of_total_distance(states in arb_group(1..16)) {
        let bundle = share_states_with(&states, payload).unwrap();
        prop_assert_eq!(bundle.centroid_tag, brute_force_centroid(&states));
    }

    /// In groups of one and two every total ties, so the first state is
    /// always the centroid.
    #[test]
    fn centroid_of_a_small_group_is_its_first_state(states in arb_group(1..3)) {
        let bundle = share_states_with(&states, payload).unwrap();
        prop_assert_eq!(bundle.centroid_tag, brute_force_centroid(&states));
        prop_assert_eq!(bundle.centroid_tag, states[0].tag);
        prop_assert_eq!(bundle.deltas.len(), states.len() - 1);
    }

    /// Centroid-based sharing is lossless for any group of states with
    /// distinct tags, and its size never exceeds the unshared total by more
    /// than a constant per-object overhead.
    #[test]
    fn sharing_is_lossless_and_bounded(
        states in prop::collection::btree_map(0u64..40, arb_state(), 1..15)
    ) {
        // make the tags distinct (keys of the map) so reconstruction is keyed
        let states: Vec<ObjectQueryState> = states
            .into_iter()
            .map(|(serial, mut s)| { s.tag = TagId::item(serial); s })
            .collect();
        let bundle = share_states_with(&states, payload).unwrap();
        let expanded = bundle.expand();
        prop_assert_eq!(expanded.len(), states.len());
        for original in &states {
            let (_, recovered) = expanded.iter().find(|(t, _)| *t == original.tag).unwrap();
            prop_assert_eq!(recovered, &payload(original));
        }
        let unshared: usize = states.iter().map(|s| payload(s).len()).sum();
        prop_assert!(bundle.wire_bytes() <= unshared + 32 * states.len());
    }

    /// The exposure automaton fires at most once per uninterrupted run, never
    /// fires before the duration threshold, and a non-qualifying event always
    /// resets it to Idle.
    #[test]
    fn automaton_duration_and_reset_invariants(
        duration in 1u32..500,
        events in prop::collection::vec((1u32..50, any::<bool>(), -30.0f64..40.0), 1..200),
    ) {
        let mut automaton = ExposureAutomaton::new(duration);
        let mut now = 0u32;
        let mut run_start: Option<u32> = None;
        let mut fired_this_run = false;
        for (gap, qualifies, value) in events {
            now += gap;
            let matched = automaton.feed(Epoch(now), qualifies, value);
            if !qualifies {
                prop_assert!(matched.is_none());
                prop_assert_eq!(automaton.state(), &AutomatonState::Idle);
                run_start = None;
                fired_this_run = false;
                continue;
            }
            if run_start.is_none() {
                run_start = Some(now);
            }
            if let Some(m) = matched {
                prop_assert!(!fired_this_run, "a run fires at most once");
                prop_assert_eq!(m.since, Epoch(run_start.unwrap()));
                prop_assert!(m.at.since(m.since) > duration, "fires only after the threshold");
                prop_assert!(!m.readings.is_empty());
                fired_this_run = true;
            } else if !fired_this_run {
                prop_assert!(now - run_start.unwrap() <= duration || fired_this_run,
                    "must fire as soon as the duration is exceeded");
            }
        }
    }
}
