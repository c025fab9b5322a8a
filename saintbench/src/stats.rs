//! Order statistics: medians, quartiles and the tail-percentile rule.

use serde::{Deserialize, Serialize};

/// Median of `values` (mean of the two middle values for even counts).
///
/// # Panics
/// Panics on an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        f64::midpoint(v[mid - 1], v[mid])
    }
}

/// First and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default `exclusive`
/// method), so a spread printed here is the spread an outside check
/// computes from the same values.
///
/// # Panics
/// Panics on an empty slice.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of nothing");
    let v = sorted(values);
    let ld = v.len();
    if ld == 1 {
        return (v[0], v[0]);
    }
    let n = 4usize;
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    (cut(1), cut(3))
}

/// Value at quantile `p` of an ascending slice, interpolating linearly
/// between the two nearest ranks.
///
/// # Panics
/// Panics on an empty slice.
#[must_use]
pub fn percentile(ascending: &[f64], p: f64) -> f64 {
    assert!(!ascending.is_empty(), "percentile of nothing");
    let pos = p.clamp(0.0, 1.0) * (ascending.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    ascending[lo] + (ascending[hi] - ascending[lo]) * (pos - lo as f64)
}

/// The highest standard quantile that leaves at least ten of `n`
/// samples beyond it: 0.99 needs 1,000 samples, 0.9 needs 100. Below
/// 20 samples no tail is resolvable and the median is returned.
#[must_use]
pub fn tail_quantile(n: usize) -> f64 {
    const CANDIDATES: [f64; 5] = [0.99, 0.95, 0.9, 0.75, 0.5];
    CANDIDATES
        .into_iter()
        .find(|p| (n as f64) * (1.0 - p) >= 10.0 - 1e-9)
        .unwrap_or(0.5)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median, quartiles and sample count of one metric across runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Band {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of values.
    pub n: usize,
}

impl Band {
    /// The band of `values`.
    ///
    /// # Panics
    /// Panics on an empty slice.
    #[must_use]
    pub fn of(values: &[f64]) -> Self {
        let (q1, q3) = quartiles(values);
        Band {
            median: median(values),
            q1,
            q3,
            n: values.len(),
        }
    }

    /// Interquartile distance as a share of the median (0 for a zero
    /// median with no spread).
    #[must_use]
    pub fn spread(&self) -> f64 {
        let width = self.q3 - self.q1;
        if width == 0.0 {
            0.0
        } else {
            width / self.median.abs().max(f64::MIN_POSITIVE)
        }
    }
}
