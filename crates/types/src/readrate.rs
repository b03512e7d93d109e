//! The read-rate table `pi(r, r̄)` of the paper's graphical model
//! (Section 3.1): the probability that the reader at location `r` detects a
//! tag that is physically at location `r̄`.
//!
//! In a deployment these probabilities are measured periodically with
//! reference tags fixed to known locations; both the simulator (to generate
//! readings) and the inference engine (to evaluate the likelihood) use this
//! same structure, which is exactly the assumption the paper makes.

use crate::ids::LocationId;

/// Dense `R × R` table of detection probabilities.
///
/// Entry `(r, a)` is the probability that the reader stationed at location
/// `r` reads a tag whose true location is `a` during one interrogation epoch.
/// Probabilities are clamped away from exactly 0 and 1 (±∞ included) so that
/// the log-likelihood terms `log pi` and `log (1 - pi)` stay finite; a NaN
/// rate has no place to clamp to and panics, naming its entry.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadRateTable {
    num_locations: usize,
    /// Row-major: `rates[r * num_locations + a]`.
    rates: Vec<f64>,
}

/// Smallest probability stored in the table; keeps `ln` finite.
pub const MIN_RATE: f64 = 1e-6;
/// Largest probability stored in the table; keeps `ln(1-p)` finite.
pub const MAX_RATE: f64 = 1.0 - 1e-6;

/// `p` clamped into `[MIN_RATE, MAX_RATE]`. `f64::clamp` passes NaN
/// through, and one NaN entry would reach every loglik row, so NaN panics
/// with the `entry` it was meant for.
fn clamp(p: f64, entry: impl FnOnce() -> String) -> f64 {
    assert!(!p.is_nan(), "read rate {} is NaN", entry());
    p.clamp(MIN_RATE, MAX_RATE)
}

impl ReadRateTable {
    /// Create a table for `num_locations` reader locations where every
    /// reader detects tags at any location with probability `background`
    /// (normally a value close to zero).
    ///
    /// # Panics
    /// Panics if `background` is NaN.
    pub fn uniform(num_locations: usize, background: f64) -> ReadRateTable {
        let rate = clamp(background, || "pi(reader, at) of every (reader, at)".into());
        ReadRateTable {
            num_locations,
            rates: vec![rate; num_locations * num_locations],
        }
    }

    /// Create the common deployment shape: every reader detects co-located
    /// tags with probability `own`, tags elsewhere with probability
    /// `background`.
    ///
    /// # Panics
    /// Panics if `own` or `background` is NaN.
    pub fn diagonal(num_locations: usize, own: f64, background: f64) -> ReadRateTable {
        let mut t = ReadRateTable::uniform(num_locations, background);
        for r in 0..num_locations {
            t.set(LocationId(r as u16), LocationId(r as u16), own);
        }
        t
    }

    /// Number of reader locations `R`.
    pub fn num_locations(&self) -> usize {
        self.num_locations
    }

    /// All locations covered by the table.
    pub fn locations(&self) -> impl Iterator<Item = LocationId> {
        (0..self.num_locations as u16).map(LocationId)
    }

    /// Set `pi(reader, at)`.
    ///
    /// # Panics
    /// Panics if either location index is out of range, or if `rate` is NaN.
    pub fn set(&mut self, reader: LocationId, at: LocationId, rate: f64) {
        let idx = self.index(reader, at);
        self.rates[idx] = clamp(rate, || format!("pi({reader}, {at})"));
    }

    /// `pi(reader, at)` — probability that the reader at `reader` detects a
    /// tag located at `at`.
    pub fn rate(&self, reader: LocationId, at: LocationId) -> f64 {
        self.rates[self.index(reader, at)]
    }

    /// `log pi(reader, at)`.
    pub fn log_hit(&self, reader: LocationId, at: LocationId) -> f64 {
        self.rate(reader, at).ln()
    }

    /// `log (1 - pi(reader, at))`.
    pub fn log_miss(&self, reader: LocationId, at: LocationId) -> f64 {
        (1.0 - self.rate(reader, at)).ln()
    }

    /// Sum over all readers of `log (1 - pi(r, at))`: the log-probability
    /// that a tag located at `at` is missed by every reader in one epoch.
    /// Precomputing this per location is the key E-step optimization in
    /// Appendix A.3.
    pub fn log_all_miss(&self, at: LocationId) -> f64 {
        (0..self.num_locations)
            .map(|r| self.log_miss(LocationId(r as u16), at))
            .sum()
    }

    fn index(&self, reader: LocationId, at: LocationId) -> usize {
        let (r, a) = (reader.index(), at.index());
        assert!(
            r < self.num_locations && a < self.num_locations,
            "location out of range: reader={r}, at={a}, R={}",
            self.num_locations
        );
        r * self.num_locations + a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_table_has_expected_rates() {
        let t = ReadRateTable::diagonal(3, 0.8, 0.05);
        assert_eq!(t.num_locations(), 3);
        assert!((t.rate(LocationId(1), LocationId(1)) - 0.8).abs() < 1e-12);
        assert!((t.rate(LocationId(1), LocationId(2)) - 0.05).abs() < 1e-12);
        assert_eq!(t.locations().count(), 3);
    }

    #[test]
    fn rates_are_clamped_to_open_unit_interval() {
        let mut t = ReadRateTable::uniform(2, 0.0);
        assert!(t.rate(LocationId(0), LocationId(1)) > 0.0);
        t.set(LocationId(0), LocationId(0), 1.0);
        assert!(t.rate(LocationId(0), LocationId(0)) < 1.0);
        assert!(t.log_hit(LocationId(0), LocationId(0)).is_finite());
        assert!(t.log_miss(LocationId(0), LocationId(0)).is_finite());
    }

    #[test]
    fn infinite_rates_clamp_to_the_bounds() {
        let mut t = ReadRateTable::uniform(2, f64::NEG_INFINITY);
        assert_eq!(t.rate(LocationId(1), LocationId(0)), MIN_RATE);
        t.set(LocationId(0), LocationId(1), f64::INFINITY);
        assert_eq!(t.rate(LocationId(0), LocationId(1)), MAX_RATE);
        assert!(t.log_miss(LocationId(0), LocationId(1)).is_finite());
    }

    #[test]
    #[should_panic(expected = "read rate pi(loc1, loc2) is NaN")]
    fn a_nan_rate_panics_naming_its_entry() {
        let mut t = ReadRateTable::diagonal(3, 0.8, 0.05);
        t.set(LocationId(1), LocationId(2), f64::NAN);
    }

    #[test]
    #[should_panic(expected = "read rate pi(loc0, loc0) is NaN")]
    fn a_nan_diagonal_rate_panics_naming_its_entry() {
        let _ = ReadRateTable::diagonal(2, f64::NAN, 0.05);
    }

    #[test]
    #[should_panic(expected = "read rate pi(reader, at) of every (reader, at) is NaN")]
    fn a_nan_background_rate_panics() {
        let _ = ReadRateTable::uniform(2, f64::NAN);
    }

    #[test]
    fn log_all_miss_sums_over_readers() {
        let t = ReadRateTable::diagonal(3, 0.5, 0.1);
        let a = LocationId(2);
        let manual: f64 = (0..3).map(|r| t.log_miss(LocationId(r), a)).sum();
        assert!((t.log_all_miss(a) - manual).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_location_panics() {
        let t = ReadRateTable::diagonal(2, 0.8, 0.1);
        let _ = t.rate(LocationId(5), LocationId(0));
    }
}
