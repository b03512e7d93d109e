//! Configuration of the streaming inference engine.

use crate::changepoint::calibrate;
use crate::likelihood::LikelihoodModel;
use crate::truncate::TruncationPolicy;

/// How the change-point detection threshold δ is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ThresholdPolicy {
    /// Use a fixed threshold value.
    Fixed(f64),
    /// Calibrate offline by sampling hypothetical observation sequences from
    /// the model (Section 3.3); an engine calibrates once, when it is built.
    #[default]
    Calibrated,
}

impl ThresholdPolicy {
    /// The threshold δ this policy sets for `model` — the one place δ is
    /// chosen. A calibration is a pure function of the model's read-rate
    /// table.
    ///
    /// # Panics
    ///
    /// If δ is NaN: no statistic compares `>=` to NaN, so it would silently
    /// turn detection off.
    pub fn resolve(self, model: &LikelihoodModel) -> f64 {
        let delta = match self {
            ThresholdPolicy::Fixed(delta) => delta,
            ThresholdPolicy::Calibrated => calibrate(model),
        };
        assert!(
            !delta.is_nan(),
            "change-detection threshold δ must be a number, got {delta}"
        );
        delta
    }
}

/// Configuration of the streaming [`InferenceEngine`](crate::InferenceEngine).
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceConfig {
    /// Seconds between two inference runs (the paper's default is 300 s).
    pub period_secs: u32,
    /// Length of the recent history `H̄` retained in addition to critical
    /// regions (the paper's default is 600 s).
    pub recent_history_secs: u32,
    /// History-truncation policy applied after every inference run.
    pub truncation: TruncationPolicy,
    /// How change-point detection sets its threshold; `None` disables it
    /// (stable-containment deployments).
    pub change_detection: Option<ThresholdPolicy>,
}

impl Default for InferenceConfig {
    fn default() -> InferenceConfig {
        InferenceConfig {
            period_secs: 300,
            recent_history_secs: 600,
            truncation: TruncationPolicy::default(),
            change_detection: Some(ThresholdPolicy::default()),
        }
    }
}

impl InferenceConfig {
    /// Builder-style setter for the inference period.
    pub fn with_period(mut self, secs: u32) -> Self {
        self.period_secs = secs;
        self
    }

    /// Builder-style setter for the recent-history length `H̄`.
    pub fn with_recent_history(mut self, secs: u32) -> Self {
        self.recent_history_secs = secs;
        self
    }

    /// Builder-style setter for the truncation policy.
    pub fn with_truncation(mut self, policy: TruncationPolicy) -> Self {
        self.truncation = policy;
        self
    }

    /// Disable change-point detection.
    pub fn without_change_detection(mut self) -> Self {
        self.change_detection = None;
        self
    }

    /// Use a fixed change-point threshold.
    pub fn with_fixed_threshold(mut self, delta: f64) -> Self {
        self.change_detection = Some(ThresholdPolicy::Fixed(delta));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = InferenceConfig::default();
        assert_eq!(c.period_secs, 300);
        assert_eq!(c.recent_history_secs, 600);
        assert_eq!(c.change_detection, Some(ThresholdPolicy::Calibrated));
        assert_eq!(c.truncation, TruncationPolicy::CriticalRegion);
    }

    #[test]
    fn builders_compose() {
        let c = InferenceConfig::default()
            .with_period(120)
            .with_recent_history(500)
            .with_truncation(TruncationPolicy::Full)
            .with_fixed_threshold(40.0);
        assert_eq!(c.period_secs, 120);
        assert_eq!(c.recent_history_secs, 500);
        assert_eq!(c.truncation, TruncationPolicy::Full);
        assert_eq!(c.change_detection, Some(ThresholdPolicy::Fixed(40.0)));
        let off = c.without_change_detection();
        assert!(off.change_detection.is_none());
    }

    #[test]
    #[should_panic(expected = "change-detection threshold δ must be a number, got NaN")]
    fn a_nan_threshold_is_rejected() {
        let model = LikelihoodModel::new(rfid_types::ReadRateTable::diagonal(4, 0.8, 1e-4));
        ThresholdPolicy::Fixed(f64::NAN).resolve(&model);
    }
}
