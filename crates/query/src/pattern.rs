//! The `SEQ(A+)` pattern automaton of Query 1.
//!
//! Query 1's outer block matches, per object, an uninterrupted sequence of
//! qualifying events (`A+`, all with the same tag id) whose total duration
//! exceeds a threshold (`A[A.len].time > A[1].time + 6 hrs`). An
//! automaton-based evaluator keeps, per object, (i) the current automaton
//! state, (ii) the minimum values needed for future evaluation (the time of
//! the first qualifying event), and (iii) the values the query returns (the
//! temperature readings collected so far) — exactly the three components of
//! query state enumerated in Appendix B.

use rfid_types::Epoch;

/// The state of one object's `SEQ(A+)` automaton.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum AutomatonState {
    /// No qualifying event seen since the last reset.
    #[default]
    Idle,
    /// An uninterrupted run of qualifying events is in progress.
    Accumulating {
        /// Time of the first qualifying event of the run (`A[1].time`).
        since: Epoch,
        /// Values collected so far (`A[].temp` for Query 1).
        readings: Vec<(Epoch, f64)>,
        /// Whether this run has already produced a match (so it is not
        /// reported again every subsequent event).
        fired: bool,
    },
}

/// A completed match of the pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternMatch {
    /// Time of the first qualifying event.
    pub since: Epoch,
    /// Time of the event that completed the match.
    pub at: Epoch,
    /// Collected readings, in time order.
    pub readings: Vec<(Epoch, f64)>,
}

/// Per-object evaluator of `SEQ(A+)` with a duration condition.
#[derive(Debug, Clone, PartialEq)]
pub struct ExposureAutomaton {
    /// Required duration between the first and last qualifying event.
    duration_secs: u32,
    /// Current state.
    state: AutomatonState,
}

impl ExposureAutomaton {
    /// Create an automaton requiring an uninterrupted qualifying run of at
    /// least `duration_secs` seconds.
    pub fn new(duration_secs: u32) -> ExposureAutomaton {
        ExposureAutomaton {
            duration_secs,
            state: AutomatonState::Idle,
        }
    }

    /// The current automaton state (exposed for state migration).
    pub fn state(&self) -> &AutomatonState {
        &self.state
    }

    /// Replace the automaton state (used when importing migrated state).
    pub fn restore(&mut self, state: AutomatonState) {
        self.state = state;
    }

    /// The configured duration threshold.
    pub fn duration_secs(&self) -> u32 {
        self.duration_secs
    }

    /// Feed one event. `qualifies` says whether the event satisfies the
    /// query's predicate (e.g. "outside a freezer and temperature > 0 °C");
    /// `value` is the value the query returns (the temperature).
    ///
    /// Returns a match the first time the run's duration crosses the
    /// threshold; further qualifying events extend the run without
    /// re-reporting it. A non-qualifying event resets the automaton.
    pub fn feed(&mut self, time: Epoch, qualifies: bool, value: f64) -> Option<PatternMatch> {
        if !qualifies {
            self.state = AutomatonState::Idle;
            return None;
        }
        match &mut self.state {
            AutomatonState::Idle => {
                self.state = AutomatonState::Accumulating {
                    since: time,
                    readings: vec![(time, value)],
                    fired: false,
                };
                None
            }
            AutomatonState::Accumulating {
                since,
                readings,
                fired,
            } => {
                readings.push((time, value));
                if !*fired && time.since(*since) > self.duration_secs {
                    *fired = true;
                    Some(PatternMatch {
                        since: *since,
                        at: time,
                        readings: readings.clone(),
                    })
                } else {
                    None
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn match_fires_only_after_the_duration_threshold() {
        let mut a = ExposureAutomaton::new(100);
        assert_eq!(a.feed(Epoch(0), true, 21.0), None);
        assert_eq!(a.feed(Epoch(50), true, 22.0), None);
        assert_eq!(
            a.feed(Epoch(100), true, 23.0),
            None,
            "not strictly greater yet"
        );
        let m = a.feed(Epoch(101), true, 24.0).expect("match");
        assert_eq!(m.since, Epoch(0));
        assert_eq!(m.at, Epoch(101));
        assert_eq!(m.readings.len(), 4);
        // the run keeps extending but does not re-fire
        assert_eq!(a.feed(Epoch(200), true, 25.0), None);
    }

    #[test]
    fn non_qualifying_event_resets_the_run() {
        let mut a = ExposureAutomaton::new(100);
        a.feed(Epoch(0), true, 21.0);
        a.feed(Epoch(90), true, 21.0);
        // back into the freezer: the run resets
        assert_eq!(a.feed(Epoch(95), false, -18.0), None);
        assert_eq!(*a.state(), AutomatonState::Idle);
        // a new run must accumulate the full duration again
        assert_eq!(a.feed(Epoch(100), true, 21.0), None);
        assert_eq!(a.feed(Epoch(150), true, 21.0), None);
        let m = a.feed(Epoch(201), true, 21.0).expect("new run matched");
        assert_eq!(m.since, Epoch(100));
    }

    #[test]
    fn state_can_be_exported_and_restored() {
        let mut a = ExposureAutomaton::new(1000);
        a.feed(Epoch(10), true, 20.0);
        a.feed(Epoch(500), true, 20.5);
        let exported = a.state().clone();
        // a fresh automaton restored from the exported state continues the
        // same run (this is what state migration does between sites)
        let mut b = ExposureAutomaton::new(1000);
        b.restore(exported);
        let m = b
            .feed(Epoch(1011), true, 21.0)
            .expect("run continues across migration");
        assert_eq!(m.since, Epoch(10));
        assert_eq!(m.readings.len(), 3);
    }

    #[test]
    fn idle_automaton_ignores_non_qualifying_events() {
        let mut a = ExposureAutomaton::new(10);
        assert_eq!(a.feed(Epoch(5), false, -20.0), None);
        assert_eq!(*a.state(), AutomatonState::Idle);
        assert_eq!(a.duration_secs(), 10);
    }
}
