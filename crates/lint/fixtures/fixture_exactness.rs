//# path: crates/core/src/dense/kernels.rs
//! Seeded violations for R4: no reassociating accumulation in dense kernels.

fn seeded_max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max) // EXPECT(float-exactness)
}

fn seeded_lane_sum(xs: &[f64]) -> f64 {
    let mut lanes = [0.0f64; 4];
    for (i, x) in xs.iter().enumerate() {
        lanes[i % 4] += x; // EXPECT(float-exactness)
    }
    lanes[0] + lanes[1] + lanes[2] + lanes[3]
}

fn integer_counts(slots: &[usize]) -> [u32; 4] {
    let mut fill = [0u32; 4];
    for &s in slots {
        fill[s % 4] += 1;
    }
    fill
}

fn waived_max(xs: &[f64]) -> f64 {
    // LINT-ALLOW(float-exactness): max is order-independent; seeded waiver-path fixture
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}
