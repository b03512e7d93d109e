//! The E-step of RFINFER: the posterior distribution over a container's
//! location at one epoch (Eq. 4 of the paper).
//!
//! ```text
//! p(l_tc = a | x, y)  ∝  Π_r p(x_trc | a)  ·  Π_{o ∈ c}  Π_r p(y_tro | a)
//! ```
//!
//! i.e. the prior over locations is uniform, and the evidence combines the
//! readings of the container itself with the readings of every object
//! currently believed to be inside it — this is "smoothing over containment".

use crate::likelihood::LikelihoodModel;
use rfid_types::LocationId;

/// A normalized distribution over the discrete set of locations.
#[derive(Debug, Clone, PartialEq)]
pub struct Posterior {
    probs: Vec<f64>,
}

impl Posterior {
    /// Build a posterior from unnormalized log-weights (one per location),
    /// normalizing in place (the input vector becomes the probability
    /// storage — no second allocation).
    ///
    /// Uses the log-sum-exp trick so that very negative log-likelihoods do
    /// not underflow.
    pub fn from_log_weights(mut log_weights: Vec<f64>) -> Posterior {
        normalize_log_weights(&mut log_weights);
        Posterior { probs: log_weights }
    }

    /// Rebuild a posterior from an already-normalized probability row — the
    /// arena layout of the cross-run cache stores rows flat, and inflating
    /// one back into a `Posterior` copies the bits verbatim.
    pub(crate) fn from_probs(probs: Vec<f64>) -> Posterior {
        Posterior { probs }
    }

    /// [`Self::map_location`] over a borrowed probability row (ascending
    /// location order), without materializing a `Posterior`: the same
    /// later-ties-win `max_by` scan, so the result is identical for any row
    /// a normalization kernel produced. Lets callers that only need the MAP
    /// location normalize into a reusable scratch buffer instead of
    /// allocating per epoch.
    pub fn map_location_of_row(probs: &[f64]) -> LocationId {
        let (idx, _) = probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .expect("non-empty");
        LocationId(idx as u16)
    }

    /// The uniform distribution over `n` locations.
    pub fn uniform(n: usize) -> Posterior {
        Posterior {
            probs: vec![1.0 / n as f64; n],
        }
    }

    /// Probability mass assigned to location `a`.
    pub fn prob(&self, a: LocationId) -> f64 {
        self.probs[a.index()]
    }

    /// Iterate over `(location, probability)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (LocationId, f64)> + '_ {
        self.probs
            .iter()
            .enumerate()
            .map(|(i, p)| (LocationId(i as u16), *p))
    }

    /// The maximum a-posteriori location.
    pub fn map_location(&self) -> LocationId {
        let (idx, _) = self
            .probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .expect("non-empty");
        LocationId(idx as u16)
    }

    /// The probability row itself, in ascending location order — the lane
    /// layout the dense kernels consume.
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Number of locations.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// Whether there are no locations (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// Expected value of an arbitrary per-location function under this
    /// posterior: `sum_a q(a) f(a)`. This is the inner sum of both the
    /// co-location weight (Eq. 5) and the point evidence (Eq. 7).
    pub fn expect<F: FnMut(LocationId) -> f64>(&self, mut f: F) -> f64 {
        self.iter().map(|(a, q)| q * f(a)).sum()
    }
}

/// Normalize a row of unnormalized log-weights in place (the body of
/// [`Posterior::from_log_weights`], usable on a slice of a posterior arena):
/// log-sum-exp shift, scalar `exp` per entry, sequential sum, divide — or the
/// uniform fallback when everything underflowed.
pub fn normalize_log_weights(log_weights: &mut [f64]) {
    assert!(!log_weights.is_empty(), "need at least one location");
    #[expect(
        clippy::disallowed_methods,
        reason = "this fold IS the scalar reference order that the dense kernels must reproduce; `f64::max` is order-independent here besides"
    )]
    let max = log_weights
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    for lw in log_weights.iter_mut() {
        *lw = (*lw - max).exp();
    }
    let probs = log_weights;
    let sum: f64 = probs.iter().sum();
    if sum > 0.0 {
        for p in probs.iter_mut() {
            *p /= sum;
        }
    } else {
        let uniform = 1.0 / probs.len() as f64;
        probs.iter_mut().for_each(|p| *p = uniform);
    }
}

/// Compute the E-step posterior for one container at one epoch.
///
/// * `container_readers` — readers that detected the container this epoch
///   (`None` = missed entirely).
/// * `member_readers` — for each object currently assigned to the container,
///   the readers that detected it this epoch (`None` = missed).
pub fn container_posterior(
    model: &LikelihoodModel,
    container_readers: Option<&[LocationId]>,
    member_readers: &[Option<&[LocationId]>],
) -> Posterior {
    let log_weights: Vec<f64> = model
        .locations()
        .map(|a| {
            let mut ll = model.tag_loglik_opt(container_readers, a);
            for member in member_readers {
                ll += model.tag_loglik_opt(*member, a);
            }
            ll
        })
        .collect();
    Posterior::from_log_weights(log_weights)
}

/// [`container_posterior`] over precomputed log-likelihood rows, writing its
/// normalized row onto the tail of a posterior arena instead of
/// materializing a `Posterior`: the base row is the container's loglik row
/// at this epoch (the all-miss row when it was not read) and each member
/// contributes its own row, accumulated in member order through the
/// lane-parallel `kernels::add_assign_rows`; the tail then normalizes in
/// place through `kernels::exp_normalize`. Per location that is the same
/// sequence of floating-point additions as the per-location loop of
/// [`container_posterior`], so the stored row is bit-identical to that
/// posterior's.
pub fn container_posterior_row_into_vector<'r>(
    base_row: &[f64],
    member_rows: impl Iterator<Item = &'r [f64]>,
    out: &mut Vec<f64>,
) {
    let start = out.len();
    out.extend_from_slice(base_row);
    let tail = &mut out[start..];
    for row in member_rows {
        crate::dense::kernels::add_assign_rows(tail, row);
    }
    crate::dense::kernels::exp_normalize(tail);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_types::ReadRateTable;

    fn model() -> LikelihoodModel {
        LikelihoodModel::new(ReadRateTable::diagonal(4, 0.8, 1e-4))
    }

    #[test]
    fn posterior_normalizes_and_finds_map() {
        let p = Posterior::from_log_weights(vec![-10.0, -1.0, -5.0, -20.0]);
        let total: f64 = p.iter().map(|(_, q)| q).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(p.map_location(), LocationId(1));
        assert!(p.prob(LocationId(1)) > p.prob(LocationId(0)));
        assert_eq!(p.len(), 4);
        assert!(!p.is_empty());
    }

    #[test]
    fn extreme_log_weights_do_not_underflow() {
        let p = Posterior::from_log_weights(vec![-1e6, -1e6 + 2.0, -1e6 - 50.0]);
        assert!(p.iter().all(|(_, q)| q.is_finite()));
        assert_eq!(p.map_location(), LocationId(1));
    }

    #[test]
    fn uniform_posterior_is_flat() {
        let p = Posterior::uniform(5);
        assert!((p.prob(LocationId(0)) - 0.2).abs() < 1e-12);
        assert!((p.prob(LocationId(4)) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn container_reading_dominates_when_members_unread() {
        let m = model();
        let p = container_posterior(&m, Some(&[LocationId(2)]), &[None, None]);
        assert_eq!(p.map_location(), LocationId(2));
        assert!(p.prob(LocationId(2)) > 0.9);
    }

    #[test]
    fn member_readings_locate_an_unread_container() {
        // The key property of smoothing over containment: at t=3 in Figure 1
        // the container is missed, but reading one of its objects places it.
        let m = model();
        let p = container_posterior(
            &m,
            None,
            &[Some(&[LocationId(1)]), None, Some(&[LocationId(1)])],
        );
        assert_eq!(p.map_location(), LocationId(1));
        assert!(p.prob(LocationId(1)) > 0.9);
    }

    #[test]
    fn conflicting_readings_split_the_posterior() {
        let m = model();
        let p = container_posterior(&m, Some(&[LocationId(0)]), &[Some(&[LocationId(3)])]);
        // Equal evidence on both sides: neither location should dominate the
        // other by much, and together they should hold almost all the mass.
        let p0 = p.prob(LocationId(0));
        let p3 = p.prob(LocationId(3));
        assert!((p0 - p3).abs() < 1e-6);
        assert!(p0 + p3 > 0.99);
    }

    #[test]
    fn expectation_weights_by_posterior_mass() {
        let p = Posterior::from_log_weights(vec![0.0, 0.0]);
        let e = p.expect(|a| if a == LocationId(0) { 2.0 } else { 4.0 });
        assert!((e - 3.0).abs() < 1e-12);
    }

    /// The rows-based posterior is bit-identical to the per-location loop of
    /// `container_posterior`, for every combination of read and missed
    /// container/members.
    #[test]
    fn posterior_from_rows_matches_container_posterior() {
        let m = model();
        let row_of = |readers: Option<&[LocationId]>| -> Vec<f64> {
            m.locations()
                .map(|a| m.tag_loglik_opt(readers, a))
                .collect()
        };
        let sets: Vec<Option<Vec<LocationId>>> = vec![
            None,
            Some(vec![LocationId(1)]),
            Some(vec![LocationId(0), LocationId(2)]),
        ];
        for container in &sets {
            for m1 in &sets {
                for m2 in &sets {
                    let reference = container_posterior(
                        &m,
                        container.as_deref(),
                        &[m1.as_deref(), m2.as_deref()],
                    );
                    let member_rows = [row_of(m1.as_deref()), row_of(m2.as_deref())];
                    // Onto a non-empty arena, so the tail offset is exercised.
                    let mut arena = vec![f64::NAN; 3];
                    container_posterior_row_into_vector(
                        &row_of(container.as_deref()),
                        member_rows.iter().map(|r| r.as_slice()),
                        &mut arena,
                    );
                    assert_eq!(&arena[3..], reference.probs());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one location")]
    fn empty_log_weights_panic() {
        let _ = Posterior::from_log_weights(vec![]);
    }
}
