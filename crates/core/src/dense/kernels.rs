//! Chunk-of-8 `f64` kernels behind the dense EM's inner loops.
//!
//! Every kernel here obeys one design rule, which is what keeps the dense
//! solver **bit-identical to the tree reference** (`crate::reference`):
//! lanes run *across locations or across whole dot products*, never across
//! the terms of a single accumulator. Elementwise operations (row adds, the
//! subtract-max before `exp`, the divide-by-sum) are embarrassingly lane
//! parallel; the set-max of the log-sum-exp trick is order-independent (see
//! [`max_log_weights`]); and [`dot_each`] interleaves independent dot
//! products, each in its own accumulator whose summation order over
//! locations is exactly that of
//! [`Posterior::expect`](crate::Posterior::expect) (spelled out here as
//! [`dot`]). Nothing here reassociates a single running sum — no dot product
//! or normalization sum is split into partial accumulators. Each kernel's
//! unit test pins it to the plain scalar loop it replaces, bit for bit, which
//! is what keeps it that way (docs/INVARIANTS.md, R4).
//!
//! Each kernel has one body, a fixed-width chunk loop that rustc
//! autovectorizes on stable; none dispatches on the CPU at runtime.

/// Lane width of the chunk loops.
pub const LANES: usize = 8;

// ---------------------------------------------------------------------------
// Elementwise row kernels (lane = location)
// ---------------------------------------------------------------------------

/// `dst[i] += src[i]` for every lane. Elementwise, so lane order is
/// irrelevant: bit-identical to the scalar loop for all inputs.
pub fn add_assign_rows(dst: &mut [f64], src: &[f64]) {
    debug_assert_eq!(dst.len(), src.len());
    let n = dst.len().min(src.len());
    let (dc, dr) = dst[..n].split_at_mut(n - n % LANES);
    let (sc, sr) = src[..n].split_at(n - n % LANES);
    for (d8, s8) in dc.chunks_exact_mut(LANES).zip(sc.chunks_exact(LANES)) {
        for l in 0..LANES {
            d8[l] += s8[l];
        }
    }
    for (d, s) in dr.iter_mut().zip(sr) {
        *d += s;
    }
}

/// `dst[i] = (dst[i] - max).exp()` for every lane. The subtraction is
/// elementwise (vectorizable); `exp` stays the scalar libm call per lane —
/// a polynomial SIMD `exp` differs in ULPs, which would break bit-identity.
pub fn sub_exp_rows(dst: &mut [f64], max: f64) {
    for lw in dst {
        *lw = (*lw - max).exp();
    }
}

/// `dst[i] /= divisor` for every lane. Must stay a true division — folding
/// it into a reciprocal multiply rounds differently.
pub fn div_assign_rows(dst: &mut [f64], divisor: f64) {
    let n = dst.len();
    let (chunks, rest) = dst.split_at_mut(n - n % LANES);
    for d8 in chunks.chunks_exact_mut(LANES) {
        for d in d8 {
            *d /= divisor;
        }
    }
    for d in rest {
        *d /= divisor;
    }
}

// ---------------------------------------------------------------------------
// Log-sum-exp normalization (the from_log_weights kernel)
// ---------------------------------------------------------------------------

/// Chunked maximum of a log-weight row, `NEG_INFINITY` when empty.
///
/// Bit-identical to the scalar `fold(NEG_INFINITY, f64::max)` for every
/// input: `f64::max` is associative and commutative over non-NaN values, a
/// NaN operand never survives against any non-NaN (including the
/// `NEG_INFINITY` each lane starts from), and a `-0.0`/`+0.0` ambiguity is
/// harmless downstream because the maximum only ever feeds a subtraction
/// whose result then runs through `exp` (and `exp(-0.0) == exp(0.0) == 1`).
pub fn max_log_weights(xs: &[f64]) -> f64 {
    let n = xs.len();
    let (chunks, rest) = xs.split_at(n - n % LANES);
    let mut lanes = [f64::NEG_INFINITY; LANES];
    for x8 in chunks.chunks_exact(LANES) {
        for l in 0..LANES {
            lanes[l] = lanes[l].max(x8[l]);
        }
    }
    #[expect(
        clippy::disallowed_methods,
        reason = "reduces the lane maxima; `f64::max` is order-independent for every reachable input (see the doc comment's argument)"
    )]
    let mut max = lanes.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    for &x in rest {
        max = max.max(x);
    }
    max
}

/// Normalize a row of unnormalized log-weights into probabilities in place:
/// the vector-path equivalent of
/// [`Posterior::from_log_weights`](crate::Posterior::from_log_weights),
/// bit-identical to it for every input. Chunked max, scalar libm `exp` per
/// lane, *sequential* sum (a single accumulator is never split), vectorized
/// divide; degenerate rows (total mass zero) fall back to uniform.
pub fn exp_normalize(row: &mut [f64]) {
    assert!(!row.is_empty(), "need at least one location");
    let max = max_log_weights(row);
    sub_exp_rows(row, max);
    let sum: f64 = row.iter().sum();
    if sum > 0.0 {
        div_assign_rows(row, sum);
    } else {
        let uniform = 1.0 / row.len() as f64;
        row.iter_mut().for_each(|p| *p = uniform);
    }
}

// ---------------------------------------------------------------------------
// Independent dot products (lane = one whole dot)
// ---------------------------------------------------------------------------

/// One point-evidence dot product, in the scalar reference order — the
/// summation order every lane of [`dot_each`] replicates.
pub fn dot(q: &[f64], row: &[f64]) -> f64 {
    q.iter().zip(row).map(|(q, v)| q * v).sum()
}

/// How many independent dots [`dot_each`] runs at once.
pub const DOT_BLOCK: usize = 4;

/// `put(i, dot(q, row))` for every `i in 0..len`, where `(q, row) = pair(i)`.
///
/// One dot is a chain of dependent adds, so computing dots one after the
/// other leaves the core waiting on the add latency. This kernel interleaves
/// [`DOT_BLOCK`] *independent* dots, each in its own accumulator started
/// from `-0.0` (where `Iterator::sum::<f64>()` starts) and summed term by term
/// in the scalar [`dot`] order, so every output is bit-identical to calling
/// [`dot`] on its pair. A block whose pairs differ in length, and the last
/// `len % DOT_BLOCK` pairs, run through [`dot`] itself.
pub fn dot_each<'a>(
    len: usize,
    pair: impl Fn(usize) -> (&'a [f64], &'a [f64]),
    mut put: impl FnMut(usize, f64),
) {
    let mut i = 0usize;
    while i + DOT_BLOCK <= len {
        let pairs: [(&[f64], &[f64]); DOT_BLOCK] = std::array::from_fn(|k| pair(i + k));
        let n = pairs[0].0.len();
        if pairs.iter().all(|(q, row)| q.len() == n && row.len() == n) {
            // Every slice re-cut to length `n`, so the loop needs no
            // bounds checks.
            let qs: [&[f64]; DOT_BLOCK] = std::array::from_fn(|k| &pairs[k].0[..n]);
            let rows: [&[f64]; DOT_BLOCK] = std::array::from_fn(|k| &pairs[k].1[..n]);
            let mut acc = [-0.0f64; DOT_BLOCK];
            for a in 0..n {
                for k in 0..DOT_BLOCK {
                    acc[k] += qs[k][a] * rows[k][a];
                }
            }
            for (k, &e) in acc.iter().enumerate() {
                put(i + k, e);
            }
        } else {
            for (k, (q, row)) in pairs.iter().enumerate() {
                put(i + k, dot(q, row));
            }
        }
        i += DOT_BLOCK;
    }
    for i in i..len {
        let (q, row) = pair(i);
        put(i, dot(q, row));
    }
}

// ---------------------------------------------------------------------------
// Argmax (lane = candidate)
// ---------------------------------------------------------------------------

/// Index of the maximum weight with **later ties winning** (`w >= best`),
/// `None` on an empty slice — the argmax rule of the reference M-step.
///
/// Chunks are only a fast *filter*: a chunk is skipped when no lane compares
/// `>=` the running best (every lane `< best`, and a NaN lane compares false
/// exactly as it would in the scalar scan), otherwise the chunk is rescanned
/// scalar from its first lane with the running best carried in. The selected
/// index is therefore identical to the scalar scan for every input,
/// including NaN weights and a NaN running best.
pub fn argmax_ties_last(ws: &[f64]) -> Option<usize> {
    if ws.is_empty() {
        return None;
    }
    let mut best = ws[0];
    let mut best_at = 0usize;
    let mut i = 1usize;
    while i < ws.len() {
        let end = (i + LANES).min(ws.len());
        let chunk = &ws[i..end];
        // A lane can only move the running best if it compares >= to the
        // best at chunk entry: the best is non-decreasing inside a chunk
        // (and a NaN best rejects every comparison, scalar and here alike).
        if chunk.iter().any(|&w| w >= best) {
            for (off, &w) in chunk.iter().enumerate() {
                if w >= best {
                    best = w;
                    best_at = i + off;
                }
            }
        }
        i = end;
    }
    Some(best_at)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test rows exercising every remainder-lane shape (`0..=17`) and the
    /// pathological values the posterior path can produce: `-inf` rows,
    /// NaN-adjacent mixes and `-1e6`-offset log weights.
    fn cases() -> Vec<Vec<f64>> {
        let mut rows: Vec<Vec<f64>> = Vec::new();
        for n in 0..=17usize {
            // Deterministic pseudo-random log weights with sign structure.
            let base: Vec<f64> = (0..n)
                .map(|i| -((i * 37 % 23) as f64) * 1.37 - 0.01 * i as f64)
                .collect();
            rows.push(base.clone());
            // All -inf.
            rows.push(vec![f64::NEG_INFINITY; n]);
            // -inf interleaved with finite lanes.
            rows.push(
                base.iter()
                    .enumerate()
                    .map(|(i, &x)| if i % 3 == 0 { f64::NEG_INFINITY } else { x })
                    .collect(),
            );
            // Deeply offset log weights (posterior.rs's -1e6 regime).
            rows.push(base.iter().map(|&x| x - 1e6).collect());
            // NaN-adjacent: NaN lanes scattered through finite weights.
            rows.push(
                base.iter()
                    .enumerate()
                    .map(|(i, &x)| if i % 4 == 1 { f64::NAN } else { x })
                    .collect(),
            );
            // Tiny magnitudes around the subnormal boundary.
            rows.push(base.iter().map(|&x| x * 1e-308).collect());
            // Signed-zero mixes: the -0.0/+0.0 pair compares equal but is
            // bitwise distinct, so any kernel that reorders a max or seeds an
            // accumulator from the wrong zero shows up here.
            rows.push(
                (0..n)
                    .map(|i| if i % 2 == 0 { -0.0 } else { 0.0 })
                    .collect(),
            );
            // Signed zeros against -inf and NaN lanes.
            rows.push(
                (0..n)
                    .map(|i| match i % 4 {
                        0 => -0.0,
                        1 => f64::NEG_INFINITY,
                        2 => 0.0,
                        _ => f64::NAN,
                    })
                    .collect(),
            );
        }
        rows
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "the scalar reference fold that `max_log_weights` is compared against, bitwise"
    )]
    fn scalar_max(xs: &[f64]) -> f64 {
        xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Scalar reference of the normalization, copied from
    /// `Posterior::from_log_weights`.
    fn scalar_normalize(row: &mut [f64]) {
        let max = scalar_max(row);
        for lw in row.iter_mut() {
            *lw = (*lw - max).exp();
        }
        let sum: f64 = row.iter().sum();
        if sum > 0.0 {
            for p in row.iter_mut() {
                *p /= sum;
            }
        } else {
            let uniform = 1.0 / row.len() as f64;
            row.iter_mut().for_each(|p| *p = uniform);
        }
    }

    #[test]
    fn max_matches_scalar_fold_bitwise() {
        for case in cases() {
            let got = max_log_weights(&case);
            let want = scalar_max(&case);
            assert_eq!(got.to_bits(), want.to_bits(), "case {case:?}");
        }
    }

    #[test]
    fn add_assign_matches_scalar_bitwise() {
        for case in cases() {
            let src: Vec<f64> = case.iter().map(|&x| x * 0.5 - 1.0).collect();
            let mut got = case.clone();
            add_assign_rows(&mut got, &src);
            let mut want = case.clone();
            for (d, s) in want.iter_mut().zip(&src) {
                *d += s;
            }
            for i in 0..want.len() {
                assert_eq!(got[i].to_bits(), want[i].to_bits(), "case {case:?}");
            }
        }
    }

    #[test]
    fn div_assign_matches_scalar_bitwise() {
        for case in cases() {
            for divisor in [3.0f64, 1e-12, 7.77e300] {
                let mut got = case.clone();
                div_assign_rows(&mut got, divisor);
                let mut want = case.clone();
                for d in want.iter_mut() {
                    *d /= divisor;
                }
                for i in 0..want.len() {
                    assert_eq!(got[i].to_bits(), want[i].to_bits(), "case {case:?}");
                }
            }
        }
    }

    #[test]
    fn exp_normalize_matches_from_log_weights_bitwise() {
        for case in cases() {
            if case.is_empty() {
                continue;
            }
            let mut got = case.clone();
            exp_normalize(&mut got);
            let mut want = case.clone();
            scalar_normalize(&mut want);
            for i in 0..want.len() {
                assert_eq!(
                    got[i].to_bits(),
                    want[i].to_bits(),
                    "lane {i} of case {case:?}"
                );
            }
        }
    }

    /// The copied `scalar_normalize` above could drift from the shipping
    /// reference without failing anything; pin the kernel (and the copy) to
    /// the real `posterior::normalize_log_weights`, bit for bit, on every
    /// case including the signed-zero and NaN mixes.
    #[test]
    fn exp_normalize_matches_real_posterior_reference_bitwise() {
        for case in cases() {
            if case.is_empty() {
                continue;
            }
            let mut got = case.clone();
            exp_normalize(&mut got);
            let mut want = case.clone();
            crate::posterior::normalize_log_weights(&mut want);
            let mut copy = case.clone();
            scalar_normalize(&mut copy);
            for i in 0..want.len() {
                assert_eq!(
                    got[i].to_bits(),
                    want[i].to_bits(),
                    "kernel vs posterior reference, lane {i} of case {case:?}"
                );
                assert_eq!(
                    copy[i].to_bits(),
                    want[i].to_bits(),
                    "copied test reference drifted from posterior::normalize_log_weights, lane {i} of case {case:?}"
                );
            }
        }
    }

    /// Run [`dot_each`] over `pairs` and require every output to equal the
    /// scalar [`dot`] of its pair bit for bit, each written exactly once.
    /// A NaN only has to meet a NaN: Rust leaves the sign and payload of a
    /// NaN result unspecified (the compiler may swap the operands of an
    /// add), so no two compilations of one sum promise the same NaN bits.
    fn assert_dot_each_matches_dot(pairs: &[(Vec<f64>, Vec<f64>)], what: &str) {
        let mut out = vec![None; pairs.len()];
        dot_each(
            pairs.len(),
            |i| (pairs[i].0.as_slice(), pairs[i].1.as_slice()),
            |i, e| {
                assert!(out[i].is_none(), "dot {i} written twice ({what})");
                out[i] = Some(e);
            },
        );
        for (i, (q, row)) in pairs.iter().enumerate() {
            let got = out[i].unwrap_or_else(|| panic!("dot {i} never written ({what})"));
            let want = dot(q, row);
            if want.is_nan() {
                assert!(got.is_nan(), "dot {i} of {what}: {got} for NaN");
            } else {
                assert_eq!(got.to_bits(), want.to_bits(), "dot {i} of {what}");
            }
        }
    }

    #[test]
    fn dot_each_matches_scalar_dots_bitwise() {
        // Entries a dot can meet: probabilities and log-likelihoods, signed
        // zeros, NaN, both infinities, subnormals and values whose products
        // underflow or overflow.
        let special = [
            -0.0,
            0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 8.0,
            -f64::MIN_POSITIVE / 3.0,
            1e-300,
            1e300,
        ];
        let entry = |seed: usize, a: usize| -> f64 {
            let x = (seed * 31 + a * 17) % 97;
            if x.is_multiple_of(11) {
                special[(x / 11) % special.len()]
            } else {
                ((x as f64) * 0.37 - 9.0) * if x.is_multiple_of(2) { 1.0 } else { 1e-3 }
            }
        };
        for width in 1..=96usize {
            for len in 1..=9usize {
                let pairs: Vec<(Vec<f64>, Vec<f64>)> = (0..len)
                    .map(|i| {
                        let q = (0..width).map(|a| entry(i * 2 + width, a)).collect();
                        let row = (0..width).map(|a| entry(i * 2 + 1 + len, a)).collect();
                        (q, row)
                    })
                    .collect();
                assert_dot_each_matches_dot(&pairs, &format!("width {width}, {len} dots"));
                // A row of all-negative-zero products: the sum must keep
                // the -0.0 the scalar dot starts from.
                let zeros: Vec<(Vec<f64>, Vec<f64>)> = (0..len)
                    .map(|i| {
                        (
                            vec![-0.0; width],
                            vec![if i % 2 == 0 { 1.0 } else { 0.5 }; width],
                        )
                    })
                    .collect();
                assert_dot_each_matches_dot(&zeros, &format!("-0.0, width {width}"));
            }
        }
        // Mixed lengths inside one block fall back to the scalar dot, which
        // stops at the shorter side; the pathological rows reach every
        // remainder shape.
        for case in cases().iter().filter(|c| !c.is_empty()) {
            let q: Vec<f64> = case.iter().map(|&x| (x * 0.01).exp()).collect();
            let short = q[..q.len() - 1].to_vec();
            let pairs = vec![
                (q.clone(), case.clone()),
                (short, case.clone()),
                (q.clone(), case.clone()),
                (case.clone(), q.clone()),
                (q, case.clone()),
            ];
            assert_dot_each_matches_dot(&pairs, &format!("case {case:?}"));
        }
    }

    #[test]
    fn argmax_matches_scalar_scan_for_all_inputs() {
        fn scalar_argmax(ws: &[f64]) -> Option<usize> {
            let mut best: Option<(usize, f64)> = None;
            for (i, &w) in ws.iter().enumerate() {
                if best.is_none_or(|(_, bw)| w >= bw) {
                    best = Some((i, w));
                }
            }
            best.map(|(i, _)| i)
        }
        for case in cases() {
            assert_eq!(argmax_ties_last(&case), scalar_argmax(&case), "{case:?}");
        }
        // Ties must pick the later lane, across chunk boundaries too.
        let mut tied = vec![1.0f64; 17];
        tied[3] = 5.0;
        tied[12] = 5.0;
        assert_eq!(argmax_ties_last(&tied), Some(12));
        // NaN running best sticks, exactly like the scalar scan.
        let nan_first = [f64::NAN, 3.0, 7.0];
        assert_eq!(argmax_ties_last(&nan_first), Some(0));
        // A NaN after a finite best never wins and never blocks later lanes.
        let nan_mid: Vec<f64> = (0..17)
            .map(|i| if i == 9 { f64::NAN } else { i as f64 })
            .collect();
        assert_eq!(argmax_ties_last(&nan_mid), Some(16));
    }
}
