//! Per-tag observation likelihoods under the paper's sensing model
//! (Section 3.1, Eq. 1).
//!
//! For a tag whose true location is `a`, every reader `r` independently
//! detects it with probability `pi(r, a)`. The log-probability of one epoch's
//! observations of that tag is therefore
//!
//! ```text
//! sum_r [ read(r) * log pi(r,a) + (1 - read(r)) * log (1 - pi(r,a)) ]
//! ```
//!
//! Evaluating that sum naively costs `O(R)` per (tag, epoch, location). The
//! optimization of Appendix A.3 applies here: precompute, per location, the
//! "missed by everyone" term `sum_r log (1 - pi(r,a))` once, and then correct
//! it only for the readers that actually fired — of which there are at most a
//! handful.

use rfid_types::{LocationId, ReadRateTable};

/// Precomputed log-likelihood helper bound to one read-rate table.
#[derive(Debug, Clone)]
pub struct LikelihoodModel {
    rates: ReadRateTable,
    /// `log_all_miss[a] = sum_r log (1 - pi(r, a))`.
    log_all_miss: Vec<f64>,
    /// Row-major correction rows, one per reader:
    /// `corr[r * R + a] = log pi(r, a) - log (1 - pi(r, a))`.
    ///
    /// Precomputing these once per model turns every loglik row fill into a
    /// copy of the all-miss row plus one elementwise row add per firing
    /// reader — no `ln` in any inner loop. Each entry is the same
    /// `log_hit - log_miss` subtraction [`Self::tag_loglik`] performs, so
    /// adding a correction row is bit-identical to the scalar loop.
    corr: Vec<f64>,
}

impl LikelihoodModel {
    /// Build the model from a read-rate table.
    pub fn new(rates: ReadRateTable) -> LikelihoodModel {
        let log_all_miss: Vec<f64> = rates.locations().map(|a| rates.log_all_miss(a)).collect();
        let mut corr = Vec::with_capacity(rates.num_locations() * rates.num_locations());
        for r in rates.locations() {
            for a in rates.locations() {
                corr.push(rates.log_hit(r, a) - rates.log_miss(r, a));
            }
        }
        LikelihoodModel {
            rates,
            log_all_miss,
            corr,
        }
    }

    /// The precomputed per-location correction row of one reader:
    /// `corr_row(r)[a] = log pi(r, a) - log (1 - pi(r, a))`.
    pub fn corr_row(&self, r: LocationId) -> &[f64] {
        let n = self.num_locations();
        &self.corr[r.index() * n..(r.index() + 1) * n]
    }

    /// The read-rate table the model was built from.
    pub fn rates(&self) -> &ReadRateTable {
        &self.rates
    }

    /// Number of discrete locations `R`.
    pub fn num_locations(&self) -> usize {
        self.rates.num_locations()
    }

    /// All locations.
    pub fn locations(&self) -> impl Iterator<Item = LocationId> {
        self.rates.locations()
    }

    /// Log-probability that a tag at location `at` is missed by every reader
    /// during one epoch.
    pub fn unread_loglik(&self, at: LocationId) -> f64 {
        self.log_all_miss[at.index()]
    }

    /// Log-probability of one epoch's observations of a tag, given that the
    /// tag is truly at `at` and was detected by exactly the readers in
    /// `readers` (readers not listed missed it).
    pub fn tag_loglik(&self, readers: &[LocationId], at: LocationId) -> f64 {
        let mut ll = self.log_all_miss[at.index()];
        for &r in readers {
            ll += self.rates.log_hit(r, at) - self.rates.log_miss(r, at);
        }
        ll
    }

    /// Log-probability of one epoch's observations where `readers` is `None`
    /// when the tag was not detected at all that epoch.
    pub fn tag_loglik_opt(&self, readers: Option<&[LocationId]>, at: LocationId) -> f64 {
        match readers {
            Some(rs) => self.tag_loglik(rs, at),
            None => self.unread_loglik(at),
        }
    }

    /// The precomputed "missed by every reader" row: `unread_loglik` for
    /// every location, in ascending location order. Row zero of the dense
    /// inference path's loglik table — the row every `None` reader set maps
    /// to.
    pub fn all_miss_row(&self) -> &[f64] {
        &self.log_all_miss
    }

    /// Fill a memoized `(reader set, location) → loglik` table for a run's
    /// interned reader sets (Appendix A.3 memoization lifted across epochs):
    /// row `i` of the result holds `tag_loglik(sets[i], a)` for every
    /// location `a` in ascending order, so an inference run evaluates each
    /// distinct reader set exactly once however many epochs repeat it.
    ///
    /// Each row starts as a copy of the all-miss row and gains one
    /// lane-parallel `kernels::add_assign_rows` of the firing reader's
    /// correction row, in reader order. Per location that is the same
    /// addition sequence as [`Self::tag_loglik`], so every entry is
    /// bit-identical to calling it.
    ///
    /// `rows` is cleared and refilled (capacity is reused across runs); use
    /// [`ReaderSetTable::row`] to index it.
    pub fn fill_reader_set_table_vector<'s>(
        &self,
        sets: impl IntoIterator<Item = &'s [LocationId]>,
        table: &mut ReaderSetTable,
    ) {
        let n = self.num_locations();
        table.rows.clear();
        table.num_locations = n;
        for readers in sets {
            let start = table.rows.len();
            table.rows.extend_from_slice(&self.log_all_miss);
            for &r in readers {
                crate::dense::kernels::add_assign_rows(
                    &mut table.rows[start..start + n],
                    self.corr_row(r),
                );
            }
        }
    }
}

/// A run-scoped memo of per-location log-likelihood rows, one row per
/// interned reader set — filled by
/// [`LikelihoodModel::fill_reader_set_table_vector`]
/// and held (capacity and all) in the engine's dense scratch across runs.
#[derive(Debug, Clone, Default)]
pub struct ReaderSetTable {
    rows: Vec<f64>,
    num_locations: usize,
}

impl ReaderSetTable {
    /// The loglik row of one interned reader set: `row(id)[a.index()]` is
    /// `tag_loglik(set_readers(id), a)`.
    pub fn row(&self, set: u32) -> &[f64] {
        let start = set as usize * self.num_locations;
        &self.rows[start..start + self.num_locations]
    }

    /// Number of interned reader sets currently tabulated.
    pub fn len(&self) -> usize {
        self.rows.len().checked_div(self.num_locations).unwrap_or(0)
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> LikelihoodModel {
        LikelihoodModel::new(ReadRateTable::diagonal(4, 0.8, 1e-4))
    }

    /// Naive reference implementation of the full sum over readers.
    fn naive_loglik(rates: &ReadRateTable, readers: &[LocationId], at: LocationId) -> f64 {
        rates
            .locations()
            .map(|r| {
                if readers.contains(&r) {
                    rates.log_hit(r, at)
                } else {
                    rates.log_miss(r, at)
                }
            })
            .sum()
    }

    #[test]
    fn optimized_loglik_matches_naive_sum() {
        let m = model();
        for at in m.locations().collect::<Vec<_>>() {
            for readers in [
                vec![],
                vec![LocationId(0)],
                vec![LocationId(1)],
                vec![at],
                vec![LocationId(0), LocationId(2)],
                vec![LocationId(0), LocationId(1), LocationId(2), LocationId(3)],
            ] {
                let fast = m.tag_loglik(&readers, at);
                let slow = naive_loglik(m.rates(), &readers, at);
                assert!(
                    (fast - slow).abs() < 1e-9,
                    "mismatch for readers {readers:?} at {at}: {fast} vs {slow}"
                );
            }
        }
    }

    #[test]
    fn being_read_at_own_location_is_most_likely() {
        let m = model();
        let at_true = m.tag_loglik(&[LocationId(2)], LocationId(2));
        let at_other = m.tag_loglik(&[LocationId(2)], LocationId(1));
        assert!(
            at_true > at_other,
            "a detection by reader 2 should favour location 2"
        );
    }

    #[test]
    fn missed_reading_slightly_penalises_the_own_location() {
        let m = model();
        // When a tag is not read at all, locations with high read rates are
        // less likely than they would be under a detection, but all
        // locations have the same own-read-rate here, so the unread
        // likelihood is identical across locations.
        let a = m.unread_loglik(LocationId(0));
        let b = m.unread_loglik(LocationId(3));
        assert!((a - b).abs() < 1e-12);
        assert!(a < 0.0);
        assert_eq!(m.tag_loglik_opt(None, LocationId(0)), a);
        assert_eq!(
            m.tag_loglik_opt(Some(&[LocationId(0)]), LocationId(0)),
            m.tag_loglik(&[LocationId(0)], LocationId(0))
        );
    }

    #[test]
    fn reader_set_table_memoizes_tag_logliks_exactly() {
        let m = model();
        let sets: Vec<Vec<LocationId>> = vec![
            vec![],
            vec![LocationId(0)],
            vec![LocationId(1), LocationId(3)],
        ];
        let mut table = ReaderSetTable::default();
        assert!(table.is_empty());
        m.fill_reader_set_table_vector(sets.iter().map(|s| s.as_slice()), &mut table);
        assert_eq!(table.len(), 3);
        assert!(!table.is_empty());
        for (i, set) in sets.iter().enumerate() {
            let row = table.row(i as u32);
            for at in m.locations() {
                // bit-identical, not merely close: the table is a memo of the
                // exact same computation
                assert_eq!(row[at.index()], m.tag_loglik(set, at));
            }
        }
        assert_eq!(m.all_miss_row(), table.row(0), "empty set == all-miss row");
        assert_eq!(m.all_miss_row().len(), m.num_locations());
        // refilling reuses the buffer and replaces the contents
        m.fill_reader_set_table_vector(std::iter::once(&sets[1][..]), &mut table);
        assert_eq!(table.len(), 1);
        assert_eq!(table.row(0)[0], m.tag_loglik(&sets[1], LocationId(0)));
    }

    #[test]
    fn asymmetric_rates_shift_the_unread_likelihood() {
        // A location covered by a high-rate reader is *less* likely when the
        // tag is never read.
        let mut rates = ReadRateTable::diagonal(2, 0.5, 1e-4);
        rates.set(LocationId(0), LocationId(0), 0.95);
        let m = LikelihoodModel::new(rates);
        assert!(m.unread_loglik(LocationId(0)) < m.unread_loglik(LocationId(1)));
    }
}
