//! Descriptive statistics and interval estimation.
//!
//! Used by the SymBIST window calibration (σ of invariant signals over
//! Monte Carlo) and by the defect simulator's Likelihood-Weighted coverage
//! confidence intervals.

/// Summary statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Unbiased sample standard deviation (0 when `n < 2`).
    pub std: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

/// Computes [`Summary`] statistics in one pass (Welford's algorithm).
///
/// # Panics
///
/// Panics if `data` is empty or contains non-finite values.
///
/// # Examples
///
/// ```
/// use symbist_analysis::stats::summary;
///
/// let s = summary(&[1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(s.mean, 2.5);
/// assert!((s.std - 1.2909944487358056).abs() < 1e-12);
/// ```
pub fn summary(data: &[f64]) -> Summary {
    assert!(!data.is_empty(), "summary of an empty sample");
    assert!(data.iter().all(|x| x.is_finite()), "non-finite sample");
    let mut mean = 0.0;
    let mut m2 = 0.0;
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for (i, &x) in data.iter().enumerate() {
        let delta = x - mean;
        mean += delta / (i + 1) as f64;
        m2 += delta * (x - mean);
        min = min.min(x);
        max = max.max(x);
    }
    let std = if data.len() > 1 {
        (m2 / (data.len() - 1) as f64).sqrt()
    } else {
        0.0
    };
    Summary {
        n: data.len(),
        mean,
        std,
        min,
        max,
    }
}

/// Arithmetic mean.
///
/// # Panics
///
/// Panics if `data` is empty.
pub fn mean(data: &[f64]) -> f64 {
    summary(data).mean
}

/// Empirical quantile (linear interpolation between order statistics).
///
/// `q` must lie in `[0, 1]`.
///
/// # Panics
///
/// Panics if `data` is empty or `q` is outside `[0, 1]`.
pub fn quantile(data: &[f64], q: f64) -> f64 {
    assert!(!data.is_empty(), "quantile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile level must be in [0,1]");
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-finite sample"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Inverse standard normal CDF (Acklam's rational approximation,
/// |relative error| < 1.15e-9 over the full open interval).
///
/// # Panics
///
/// Panics if `p` is not strictly inside `(0, 1)`.
pub fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "normal quantile requires p in (0,1)");
    // Coefficients for the central and tail regions.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// Standard normal CDF via `erfc` (Abramowitz–Stegun 7.1.26 polynomial,
/// |error| < 1.5e-7 — ample for yield estimation).
pub fn normal_cdf(x: f64) -> f64 {
    let t = 1.0 / (1.0 + 0.3275911 * x.abs() / std::f64::consts::SQRT_2);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    let erf = 1.0 - poly * (-(x / std::f64::consts::SQRT_2).powi(2)).exp();
    if x >= 0.0 {
        0.5 * (1.0 + erf)
    } else {
        0.5 * (1.0 - erf)
    }
}

/// Two-sided confidence interval for a proportion, normal (Wald)
/// approximation with clamping — the form used for LWRS coverage reporting
/// in the defect simulator literature.
///
/// Returns `(half_width)` for confidence `level` (e.g. `0.95`).
///
/// # Panics
///
/// Panics if `n == 0` or `level` is not in `(0, 1)`.
pub fn proportion_ci_half_width(p_hat: f64, n: usize, level: f64) -> f64 {
    assert!(n > 0, "confidence interval needs at least one sample");
    assert!(
        level > 0.0 && level < 1.0,
        "confidence level must be in (0,1)"
    );
    let z = normal_quantile(0.5 + level / 2.0);
    let p = p_hat.clamp(0.0, 1.0);
    z * (p * (1.0 - p) / n as f64).sqrt()
}

/// Weighted mean of `values` with non-negative `weights`.
///
/// # Panics
///
/// Panics if lengths differ, all weights are zero, or any weight is
/// negative.
pub fn weighted_mean(values: &[f64], weights: &[f64]) -> f64 {
    assert_eq!(values.len(), weights.len(), "length mismatch");
    assert!(weights.iter().all(|w| *w >= 0.0), "negative weight");
    let wsum: f64 = weights.iter().sum();
    assert!(wsum > 0.0, "all weights are zero");
    values.iter().zip(weights).map(|(v, w)| v * w).sum::<f64>() / wsum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = summary(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Population sd is 2; sample sd = 2·sqrt(8/7).
        assert!((s.std - 2.0 * (8.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.n, 8);
    }

    #[test]
    fn single_sample_summary() {
        let s = summary(&[3.5]);
        assert_eq!(s.mean, 3.5);
        assert_eq!(s.std, 0.0);
    }

    #[test]
    fn quantiles() {
        let data: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(quantile(&data, 0.0), 1.0);
        assert_eq!(quantile(&data, 1.0), 100.0);
        assert!((quantile(&data, 0.5) - 50.5).abs() < 1e-12);
        assert!((quantile(&data, 0.25) - 25.75).abs() < 1e-12);
    }

    #[test]
    fn normal_quantile_known_values() {
        assert!(normal_quantile(0.5).abs() < 1e-9);
        assert!((normal_quantile(0.975) - 1.959964).abs() < 1e-5);
        assert!((normal_quantile(0.025) + 1.959964).abs() < 1e-5);
        assert!((normal_quantile(0.8413447) - 1.0).abs() < 1e-4);
        // Deep tail.
        assert!((normal_quantile(1e-6) + 4.753424).abs() < 1e-4);
    }

    #[test]
    fn normal_cdf_quantile_roundtrip() {
        for p in [0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99] {
            let x = normal_quantile(p);
            assert!((normal_cdf(x) - p).abs() < 1e-6, "p = {p}");
        }
    }

    #[test]
    fn ci_half_width_95() {
        // p=0.5, n=100: z·sqrt(0.25/100) = 1.96·0.05 ≈ 0.098.
        let hw = proportion_ci_half_width(0.5, 100, 0.95);
        assert!((hw - 0.098).abs() < 0.001);
        // Degenerate proportion: zero width.
        assert_eq!(proportion_ci_half_width(1.0, 50, 0.95), 0.0);
    }

    #[test]
    fn weighted_mean_matches_manual() {
        let v = [1.0, 2.0, 3.0];
        let w = [1.0, 0.0, 3.0];
        assert!((weighted_mean(&v, &w) - 2.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn empty_summary_panics() {
        summary(&[]);
    }

    #[test]
    #[should_panic]
    fn zero_weights_panic() {
        weighted_mean(&[1.0], &[0.0]);
    }
}
