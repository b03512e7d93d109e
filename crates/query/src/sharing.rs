//! Centroid-based sharing of query state across co-contained objects
//! (Section 4.2, Appendix B).
//!
//! At the exit point of a storage area, the objects of one container have the
//! same container and location and usually very similar query state. The
//! sharing scheme picks the most representative state (the *centroid*, the
//! one minimising the total byte-difference to the others) and stores every
//! other state as a delta against it, which the paper reports to shrink the
//! migrated query state by up to an order of magnitude.
//!
//! The object's tag id is carried outside the diffed payload (it is the
//! partition key, not shared content), and a delta that would be larger than
//! the state itself falls back to storing the full payload, so sharing never
//! makes migration more expensive.

use crate::state::ObjectQueryState;
use rfid_types::TagId;

/// A byte-level delta against the centroid payload.
#[derive(Debug, Clone, PartialEq)]
pub struct StateDelta {
    /// The object this delta reconstructs.
    pub tag: TagId,
    /// `(position, byte)` pairs where this payload differs from the centroid
    /// within the common prefix length. Empty when `full` is used.
    pub edits: Vec<(u32, u8)>,
    /// Bytes beyond the centroid's length (empty if the payload is not
    /// longer). Unused when `full` is set.
    pub suffix: Vec<u8>,
    /// The total length of the reconstructed payload.
    pub len: u32,
    /// Fallback: the full payload, used when a delta would not be smaller.
    pub full: Option<Vec<u8>>,
}

impl StateDelta {
    /// Size of the delta in bytes: 8 for the tag, 4 for the length, 5 per
    /// edit (4-byte position + byte) plus the suffix — or the full payload
    /// when the fallback is used.
    pub fn wire_bytes(&self) -> usize {
        match &self.full {
            Some(full) => 8 + 4 + full.len(),
            None => 8 + 4 + 5 * self.edits.len() + self.suffix.len(),
        }
    }
}

/// A bundle of query states compressed against a centroid.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedStateBundle {
    /// The centroid object's tag.
    pub centroid_tag: TagId,
    /// The centroid's full serialized payload.
    pub centroid_bytes: Vec<u8>,
    /// Deltas for every other object.
    pub deltas: Vec<StateDelta>,
}

impl SharedStateBundle {
    /// Total size of the bundle in bytes — what migration actually transfers.
    pub fn wire_bytes(&self) -> usize {
        8 + self.centroid_bytes.len()
            + self
                .deltas
                .iter()
                .map(StateDelta::wire_bytes)
                .sum::<usize>()
    }

    /// Reconstruct every `(tag, payload)` in the bundle (centroid first).
    ///
    /// Applies each delta on its word, so it panics on one that does not fit
    /// the centroid. Bundles built by [`share_states_with`] always fit, and
    /// the wire decoder rejects any that would not.
    pub fn expand(&self) -> Vec<(TagId, Vec<u8>)> {
        let mut out = vec![(self.centroid_tag, self.centroid_bytes.clone())];
        for delta in &self.deltas {
            if let Some(full) = &delta.full {
                out.push((delta.tag, full.clone()));
                continue;
            }
            let mut bytes = self.centroid_bytes.clone();
            bytes.resize(delta.len as usize, 0);
            for &(pos, byte) in &delta.edits {
                bytes[pos as usize] = byte;
            }
            let suffix_start = (delta.len as usize).saturating_sub(delta.suffix.len());
            bytes[suffix_start..].copy_from_slice(&delta.suffix);
            out.push((delta.tag, bytes));
        }
        out
    }

    /// Reconstruct the full [`ObjectQueryState`]s in the bundle using a
    /// caller-provided payload decoder — the inverse of the encoder the
    /// bundle was built with via [`share_states_with`].
    pub fn expand_states_with<E, F>(&self, decode: F) -> Result<Vec<ObjectQueryState>, E>
    where
        F: Fn(TagId, &[u8]) -> Result<ObjectQueryState, E>,
    {
        self.expand()
            .into_iter()
            .map(|(tag, payload)| decode(tag, &payload))
            .collect()
    }
}

/// Byte distance between two serialized payloads: differing positions within
/// the common prefix plus the length difference. The prefix is compared a
/// 64-bit word at a time.
fn distance(a: &[u8], b: &[u8]) -> usize {
    let common = a.len().min(b.len());
    let (a_words, b_words) = (a[..common].chunks_exact(8), b[..common].chunks_exact(8));
    let tail = a_words
        .remainder()
        .iter()
        .zip(b_words.remainder())
        .filter(|(x, y)| x != y)
        .count();
    let words: usize = a_words
        .zip(b_words)
        .map(|(x, y)| differing_bytes(word(x) ^ word(y)))
        .sum();
    words + tail + (a.len().max(b.len()) - common)
}

/// An 8-byte chunk as one word (the byte order is irrelevant to counting).
fn word(chunk: &[u8]) -> u64 {
    let mut bytes = [0u8; 8];
    bytes.copy_from_slice(chunk);
    u64::from_le_bytes(bytes)
}

/// The number of non-zero bytes in `x`: OR every byte's bits down into its
/// lowest bit, then count those.
fn differing_bytes(mut x: u64) -> usize {
    x |= x >> 4;
    x |= x >> 2;
    x |= x >> 1;
    (x & 0x0101_0101_0101_0101).count_ones() as usize
}

/// The index of the centroid: the payload minimising the total distance to
/// all others, the first one on a tie. The distance is symmetric, so each
/// pair is measured once and charged to both ends: n(n-1)/2 comparisons for
/// a group of n states.
fn centroid_index(payloads: &[Vec<u8>]) -> usize {
    let mut totals = vec![0usize; payloads.len()];
    for (i, a) in payloads.iter().enumerate() {
        for (j, b) in payloads.iter().enumerate().skip(i + 1) {
            let d = distance(a, b);
            totals[i] += d;
            totals[j] += d;
        }
    }
    // `min_by_key` keeps the first of equal minima.
    (0..totals.len()).min_by_key(|&i| totals[i]).unwrap_or(0)
}

/// Build a delta that reconstructs `payload` from `centroid`, falling back to
/// the full payload when the delta would not be smaller.
fn delta_against(centroid: &[u8], tag: TagId, payload: &[u8]) -> StateDelta {
    let common = centroid.len().min(payload.len());
    let edits: Vec<(u32, u8)> = (0..common)
        .filter(|&i| centroid[i] != payload[i])
        .map(|i| (i as u32, payload[i]))
        .collect();
    let suffix = if payload.len() > centroid.len() {
        payload[centroid.len()..].to_vec()
    } else {
        Vec::new()
    };
    let delta = StateDelta {
        tag,
        edits,
        suffix,
        len: payload.len() as u32,
        full: None,
    };
    if delta.wire_bytes() >= 8 + 4 + payload.len() {
        StateDelta {
            tag,
            edits: Vec::new(),
            suffix: Vec::new(),
            len: payload.len() as u32,
            full: Some(payload.to_vec()),
        }
    } else {
        delta
    }
}

/// Compress a group of per-object query states (typically the objects of one
/// container) with centroid-based sharing, serializing each state's diffable
/// payload — everything except the tag id — with a caller-provided encoder
/// (`rfid-wire`'s `WireCodec::state_payload` in the distributed layer). The
/// byte-level diffing is representation-agnostic: it only needs payloads
/// that are deterministic per state.
///
/// Returns `None` when the group is empty.
pub fn share_states_with<F>(states: &[ObjectQueryState], payload: F) -> Option<SharedStateBundle>
where
    F: Fn(&ObjectQueryState) -> Vec<u8>,
{
    if states.is_empty() {
        return None;
    }
    let mut payloads: Vec<Vec<u8>> = states.iter().map(payload).collect();
    let centroid_idx = centroid_index(&payloads);
    let centroid_bytes = std::mem::take(&mut payloads[centroid_idx]);
    let deltas = states
        .iter()
        .zip(&payloads)
        .enumerate()
        .filter(|(i, _)| *i != centroid_idx)
        .map(|(_, (state, bytes))| delta_against(&centroid_bytes, state.tag, bytes))
        .collect();
    Some(SharedStateBundle {
        centroid_tag: states[centroid_idx].tag,
        centroid_bytes,
        deltas,
    })
}

/// The total size of a group of states *without* sharing — the baseline the
/// paper's Section 5.4 table compares against — under a caller-provided
/// per-state size measure, so the with/without-sharing comparison is made in
/// the bytes migration actually ships.
pub fn unshared_bytes_with<F>(states: &[ObjectQueryState], size: F) -> usize
where
    F: Fn(&ObjectQueryState) -> usize,
{
    states.iter().map(size).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::AutomatonState;
    use rfid_types::Epoch;

    fn state(tag: TagId, since: u32, n: usize) -> ObjectQueryState {
        ObjectQueryState {
            query: "Q1".to_string(),
            tag,
            automaton: AutomatonState::Accumulating {
                since: Epoch(since),
                readings: (0..n)
                    .map(|i| (Epoch(since + i as u32 * 10), 21.0))
                    .collect(),
                fired: false,
            },
        }
    }

    /// A stand-in payload encoder (the real one lives downstream in
    /// `rfid-wire`): the diffing only needs bytes that are deterministic per
    /// state, and the `Debug` text of the tag-less part is.
    fn payload(state: &ObjectQueryState) -> Vec<u8> {
        format!("{:?}", (&state.query, &state.automaton)).into_bytes()
    }

    fn unshared(states: &[ObjectQueryState]) -> usize {
        unshared_bytes_with(states, |s| 8 + payload(s).len())
    }

    /// Every state's payload comes back out of the bundle byte for byte.
    fn assert_lossless(states: &[ObjectQueryState], bundle: &SharedStateBundle) {
        let expanded = bundle.expand();
        assert_eq!(expanded.len(), states.len());
        for original in states {
            let (_, recovered) = expanded.iter().find(|(t, _)| *t == original.tag).unwrap();
            assert_eq!(recovered, &payload(original));
        }
    }

    #[test]
    fn sharing_is_lossless() {
        let states: Vec<ObjectQueryState> = (0..10)
            .map(|i| state(TagId::item(i), 100 + (i as u32 % 3), 8))
            .collect();
        let bundle = share_states_with(&states, payload).unwrap();
        assert_lossless(&states, &bundle);
    }

    #[test]
    fn similar_states_compress_by_a_large_factor() {
        // 20 objects of the same case with identical exposure runs.
        let states: Vec<ObjectQueryState> =
            (0..20).map(|i| state(TagId::item(i), 100, 20)).collect();
        let bundle = share_states_with(&states, payload).unwrap();
        let shared = bundle.wire_bytes();
        let unshared = unshared(&states);
        assert!(
            shared * 5 < unshared,
            "sharing should give at least 5x reduction ({shared} vs {unshared})"
        );
    }

    #[test]
    fn dissimilar_states_still_round_trip_and_never_blow_up() {
        let states = vec![
            state(TagId::item(1), 0, 2),
            state(TagId::item(2), 5000, 40),
            ObjectQueryState {
                query: "Q2".to_string(),
                tag: TagId::item(3),
                automaton: AutomatonState::Idle,
            },
        ];
        let bundle = share_states_with(&states, payload).unwrap();
        assert_lossless(&states, &bundle);
        // the delta fallback caps the cost near the unshared size
        assert!(bundle.wire_bytes() <= unshared(&states) + 64);
    }

    #[test]
    fn empty_group_yields_none_and_single_state_has_no_deltas() {
        assert!(share_states_with(&[], payload).is_none());
        let one = [state(TagId::item(1), 0, 3)];
        let bundle = share_states_with(&one, payload).unwrap();
        assert!(bundle.deltas.is_empty());
        assert_eq!(bundle.centroid_tag, TagId::item(1));
        assert_eq!(bundle.expand().len(), 1);
    }

    #[test]
    fn distance_counts_differences_and_length_gap() {
        assert_eq!(distance(b"abcd", b"abcd"), 0);
        assert_eq!(distance(b"abcd", b"abxd"), 1);
        assert_eq!(distance(b"abcd", b"ab"), 2);
        assert_eq!(distance(b"ab", b"abcd"), 2);
    }

    /// The word-at-a-time count equals a byte-by-byte count across word
    /// boundaries, ragged tails and every position of a single difference.
    #[test]
    fn word_distance_matches_a_bytewise_count() {
        let bytewise = |a: &[u8], b: &[u8]| {
            let common = a.len().min(b.len());
            let diff = (0..common).filter(|&i| a[i] != b[i]).count();
            diff + a.len().max(b.len()) - common
        };
        let base: Vec<u8> = (0..40u8).map(|i| i.wrapping_mul(37)).collect();
        for len in 0..=base.len() {
            for flip in 0..len {
                for bit in [0x01, 0x80] {
                    let mut other = base[..len].to_vec();
                    other[flip] ^= bit;
                    assert_eq!(distance(&base[..len], &other), 1);
                    assert_eq!(distance(&base, &other), bytewise(&base, &other));
                }
            }
            let scrambled: Vec<u8> = base[..len].iter().map(|b| b ^ (b % 3)).collect();
            assert_eq!(distance(&base, &scrambled), bytewise(&base, &scrambled));
        }
        assert_eq!(differing_bytes(0), 0);
        assert_eq!(differing_bytes(u64::MAX), 8);
        assert_eq!(differing_bytes(0x8000_0000_0000_0001), 2);
    }
}
