//! SMURF-style adaptive-window smoothing of individual tag streams.
//!
//! SMURF treats each RFID tag's readings as a random sample of its true
//! presence: within a window of `w` interrogation epochs a tag present the
//! whole time should be read about `w * p` times, where `p` is the
//! empirically observed read rate. The window is sized adaptively — large
//! enough that a present-but-unlucky tag is unlikely to produce zero readings
//! (completeness), yet small enough to track transitions. Within the window
//! the tag's location is estimated as the reader that read it most often.

use rfid_types::{Epoch, LocationId, TagId};
use std::collections::BTreeMap;

/// Target failure probability δ of the completeness requirement: the window
/// must be large enough that a present tag is missed entirely with
/// probability at most δ.
const DELTA: f64 = 0.05;
/// Smallest window considered, in epochs.
const MIN_WINDOW: u32 = 5;
/// Largest window considered, in epochs.
const MAX_WINDOW: u32 = 120;

/// The window size SMURF's statistical model asks for given an observed
/// per-epoch read rate: `w* = ceil( 2 ln(1/δ) / p )`, clamped to
/// `[MIN_WINDOW, MAX_WINDOW]`.
fn required_window(read_rate: f64) -> u32 {
    let p = read_rate.clamp(1e-3, 1.0);
    let w = (2.0 * (1.0 / DELTA).ln() / p).ceil() as u32;
    w.clamp(MIN_WINDOW, MAX_WINDOW)
}

/// Per-tag smoothed estimates produced by [`SmurfSmoother`].
#[derive(Debug, Clone, Default)]
pub struct SmoothedTag {
    /// The adaptive window size chosen for the tag, in epochs.
    pub window: u32,
    /// Smoothed `(epoch, location)` estimates at every epoch in the span of
    /// the tag's readings (missed epochs are filled in from the surrounding
    /// window).
    pub locations: Vec<(Epoch, LocationId)>,
}

impl SmoothedTag {
    /// The smoothed location at epoch `t` (nearest estimate at or before `t`,
    /// falling back to the first one).
    pub fn location_at(&self, t: Epoch) -> Option<LocationId> {
        if self.locations.is_empty() {
            return None;
        }
        let idx = self.locations.partition_point(|&(e, _)| e <= t);
        let chosen = if idx == 0 {
            &self.locations[0]
        } else {
            &self.locations[idx - 1]
        };
        Some(chosen.1)
    }
}

/// The SMURF smoother: consumes per-tag raw observations and produces
/// per-epoch location estimates with adaptive windows.
#[derive(Debug, Clone, Default)]
pub struct SmurfSmoother;

impl SmurfSmoother {
    /// Create a smoother.
    pub fn new() -> SmurfSmoother {
        SmurfSmoother
    }

    /// Smooth one tag's observations. `obs` is the time-ordered list of
    /// `(epoch, readers that detected the tag)`.
    pub fn smooth_tag(&self, obs: &[(Epoch, Vec<LocationId>)]) -> SmoothedTag {
        if obs.is_empty() {
            return SmoothedTag::default();
        }
        let first = obs.first().unwrap().0;
        let last = obs.last().unwrap().0;
        let span = last.since(first) + 1;
        // Empirical read rate over the tag's active span.
        let observed_epochs = obs.len() as f64;
        let read_rate = (observed_epochs / span as f64).min(1.0);
        let window = required_window(read_rate);

        // For every epoch in the span, vote among the readings inside the
        // centred window and pick the most frequent reader.
        let mut locations = Vec::with_capacity(span as usize);
        for t in first.0..=last.0 {
            let t = Epoch(t);
            let lo = t.minus(window / 2);
            let hi = t.plus(window / 2);
            let mut votes: BTreeMap<LocationId, usize> = BTreeMap::new();
            for (e, readers) in obs {
                if *e < lo || *e > hi {
                    continue;
                }
                // weight readings closer to t slightly higher by counting the
                // exact epoch twice
                let weight = if *e == t { 2 } else { 1 };
                for r in readers {
                    *votes.entry(*r).or_insert(0) += weight;
                }
            }
            if let Some((&loc, _)) = votes.iter().max_by_key(|(_, &count)| count) {
                locations.push((t, loc));
            }
        }
        SmoothedTag { window, locations }
    }

    /// Smooth every tag in a per-tag observation map.
    pub fn smooth_all(
        &self,
        per_tag: &BTreeMap<TagId, Vec<(Epoch, Vec<LocationId>)>>,
    ) -> BTreeMap<TagId, SmoothedTag> {
        per_tag
            .iter()
            .map(|(tag, obs)| (*tag, self.smooth_tag(obs)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs_from(readings: &[(u32, u16)]) -> Vec<(Epoch, Vec<LocationId>)> {
        readings
            .iter()
            .map(|&(t, l)| (Epoch(t), vec![LocationId(l)]))
            .collect()
    }

    #[test]
    fn required_window_shrinks_with_higher_read_rate() {
        assert!(required_window(0.9) < required_window(0.3));
        assert!(required_window(0.001) <= MAX_WINDOW);
        assert!(required_window(1.0) >= MIN_WINDOW);
    }

    #[test]
    fn smoothing_fills_in_missed_epochs() {
        // The tag is at location 1 throughout but missed at epochs 2 and 3.
        let obs = obs_from(&[(0, 1), (1, 1), (4, 1), (5, 1)]);
        let smoothed = SmurfSmoother::new().smooth_tag(&obs);
        assert_eq!(smoothed.location_at(Epoch(2)), Some(LocationId(1)));
        assert_eq!(smoothed.location_at(Epoch(3)), Some(LocationId(1)));
        // estimates exist for every epoch in the span
        assert_eq!(smoothed.locations.len(), 6);
    }

    #[test]
    fn smoothing_tracks_a_location_transition() {
        let mut readings: Vec<(u32, u16)> = (0..30).map(|t| (t, 0)).collect();
        readings.extend((30..60).map(|t| (t, 2)));
        let smoothed = SmurfSmoother::new().smooth_tag(&obs_from(&readings));
        assert_eq!(smoothed.location_at(Epoch(5)), Some(LocationId(0)));
        assert_eq!(smoothed.location_at(Epoch(55)), Some(LocationId(2)));
    }

    #[test]
    fn empty_observations_yield_empty_estimate() {
        let smoothed = SmurfSmoother::new().smooth_tag(&[]);
        assert!(smoothed.locations.is_empty());
        assert_eq!(smoothed.location_at(Epoch(3)), None);
    }

    #[test]
    fn smooth_all_covers_every_tag() {
        let mut map = BTreeMap::new();
        map.insert(TagId::item(1), obs_from(&[(0, 0), (1, 0)]));
        map.insert(TagId::case(1), obs_from(&[(0, 1)]));
        let all = SmurfSmoother::new().smooth_all(&map);
        assert_eq!(all.len(), 2);
        assert_eq!(
            all[&TagId::case(1)].location_at(Epoch(0)),
            Some(LocationId(1))
        );
    }
}
