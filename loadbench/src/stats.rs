//! Percentiles under the reporting rule: a percentile is reported only
//! when at least [`MIN_TAIL`] samples lie beyond it.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// A reported percentile with the sample counts behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the percentile's rank.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples ranked beyond it.
    pub beyond: usize,
}

/// The `p`-th percentile (nearest rank, `p` in `(0, 100)`) of `sorted`
/// (ascending), or `None` when fewer than [`MIN_TAIL`] samples would lie
/// beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<Percentile> {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || rank > n {
        return None;
    }
    let beyond = n - rank;
    (beyond >= MIN_TAIL).then(|| Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond,
    })
}

/// Median of a non-empty slice (mean of the middle pair for even
/// lengths).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
