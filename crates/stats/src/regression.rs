//! Linear regression over pluggable feature bases.
//!
//! §4.5 of the paper: "A linear regression model is used to model the
//! data" — the valuation of a location-monitoring query compares the
//! residuals of models trained on the desired sampling times versus the
//! actually-sampled times (Eq. 17). [`LinearModel::fit`] solves the ridge
//! normal equations through `ps-linalg`; underdetermined fits (fewer
//! samples than features) are regularized rather than rejected, because
//! early in a query's lifetime very few samples exist — the model then
//! simply has large residuals, which is exactly the signal Eq. 17 needs.

use ps_linalg::{solve_spd, Matrix};

/// A feature basis mapping a timestamp to a feature vector.
pub trait Basis {
    /// Number of features.
    fn dim(&self) -> usize;
    /// Writes the features of `t` into `out` (`out.len() == dim()`).
    fn features_into(&self, t: f64, out: &mut [f64]);

    /// Convenience allocation-returning variant.
    fn features(&self, t: f64) -> Vec<f64> {
        let mut out = vec![0.0; self.dim()];
        self.features_into(t, &mut out);
        out
    }
}

/// Polynomial basis `1, t, t², …, t^degree`.
#[derive(Debug, Clone, Copy)]
pub struct PolynomialBasis {
    /// Highest power of `t` included.
    pub degree: usize,
}

impl Basis for PolynomialBasis {
    fn dim(&self) -> usize {
        self.degree + 1
    }

    fn features_into(&self, t: f64, out: &mut [f64]) {
        let mut p = 1.0;
        for slot in out.iter_mut() {
            *slot = p;
            p *= t;
        }
    }
}

/// Diurnal basis: intercept, linear trend, and harmonic pairs of a daily
/// period — the natural linear model for ozone-style phenomena whose
/// day-over-day pattern the sampling-time selection of ref. \[19] exploits.
#[derive(Debug, Clone, Copy)]
pub struct DiurnalBasis {
    /// Length of one day in time-slot units.
    pub period: f64,
    /// Number of harmonic (sin, cos) pairs.
    pub harmonics: usize,
}

impl Basis for DiurnalBasis {
    fn dim(&self) -> usize {
        2 + 2 * self.harmonics
    }

    fn features_into(&self, t: f64, out: &mut [f64]) {
        out[0] = 1.0;
        out[1] = t / self.period; // scaled trend keeps the Gram matrix tame
        let omega = std::f64::consts::TAU / self.period;
        for h in 0..self.harmonics {
            let k = (h + 1) as f64;
            out[2 + 2 * h] = (k * omega * t).sin();
            out[3 + 2 * h] = (k * omega * t).cos();
        }
    }
}

/// A fitted linear model `y ≈ coeffs · features(t)`.
#[derive(Debug, Clone)]
pub struct LinearModel {
    coeffs: Vec<f64>,
}

impl LinearModel {
    /// Fits by ridge-regularized least squares on `(times, values)`.
    ///
    /// `ridge` is added to the Gram diagonal; `1e-8` is a good default.
    /// With zero samples, the model predicts 0 everywhere.
    ///
    /// # Panics
    /// Panics when `times.len() != values.len()`.
    pub fn fit<B: Basis>(basis: &B, times: &[f64], values: &[f64], ridge: f64) -> Self {
        assert_eq!(times.len(), values.len(), "times/values length mismatch");
        let d = basis.dim();
        if times.is_empty() {
            return Self {
                coeffs: vec![0.0; d],
            };
        }
        let x = design_matrix(basis, times);
        let mut gram = x.gram();
        gram.add_diagonal(ridge.max(1e-10));
        let rhs = x.matvec_transposed(values);
        let coeffs = solve_spd(&gram, &rhs).unwrap_or_else(|_| vec![0.0; d]);
        Self { coeffs }
    }

    /// Model coefficients.
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// Predicted value at time `t`.
    pub fn predict<B: Basis>(&self, basis: &B, t: f64) -> f64 {
        let mut feats = vec![0.0; basis.dim()];
        basis.features_into(t, &mut feats);
        ps_linalg::dot(&feats, &self.coeffs)
    }

    /// Residual sum of squares against `values` observed at the times
    /// whose feature rows `design` holds (one row per value, as
    /// [`design_matrix`] builds them) — the `Σ r²ᵢ` of Eq. 17. Eq. 17
    /// re-scores the whole history on every `G`, while the history's
    /// rows never change, so callers build `design` once and keep it.
    ///
    /// # Panics
    /// Panics when `design` has not one row per value.
    pub fn rss(&self, design: &Matrix, values: &[f64]) -> f64 {
        assert_eq!(design.rows(), values.len(), "one design row per value");
        values
            .iter()
            .enumerate()
            .map(|(i, &y)| {
                let r = y - ps_linalg::dot(design.row(i), &self.coeffs);
                r * r
            })
            .sum()
    }
}

/// The design matrix of `times` under `basis`: row `i` holds
/// `basis.features_into(times[i])`.
pub fn design_matrix<B: Basis>(basis: &B, times: &[f64]) -> Matrix {
    let mut x = Matrix::zeros(times.len(), basis.dim());
    for (i, &t) in times.iter().enumerate() {
        basis.features_into(t, x.row_mut(i));
    }
    x
}

/// The residual sum of squares as it was computed before the design
/// matrix was cached: the basis evaluated afresh for every time, one
/// feature buffer reused across the series. [`LinearModel::rss`] and
/// [`crate::sampling::HistoryDesign::rss_of_training_times`] must agree
/// with it bit for bit.
#[cfg(test)]
pub(crate) fn rss_per_call_features<B: Basis>(
    model: &LinearModel,
    basis: &B,
    times: &[f64],
    values: &[f64],
) -> f64 {
    assert_eq!(times.len(), values.len());
    let mut feats = vec![0.0; basis.dim()];
    times
        .iter()
        .zip(values)
        .map(|(&t, &y)| {
            basis.features_into(t, &mut feats);
            let r = y - ps_linalg::dot(&feats, model.coeffs());
            r * r
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rss<B: Basis>(model: &LinearModel, basis: &B, times: &[f64], values: &[f64]) -> f64 {
        model.rss(&design_matrix(basis, times), values)
    }

    #[test]
    fn fits_exact_line() {
        let basis = PolynomialBasis { degree: 1 };
        let times: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let values: Vec<f64> = times.iter().map(|t| 3.0 + 2.0 * t).collect();
        let m = LinearModel::fit(&basis, &times, &values, 1e-10);
        assert!((m.coeffs()[0] - 3.0).abs() < 1e-4);
        assert!((m.coeffs()[1] - 2.0).abs() < 1e-5);
        assert!(rss(&m, &basis, &times, &values) < 1e-6);
    }

    #[test]
    fn empty_fit_predicts_zero() {
        let basis = PolynomialBasis { degree: 2 };
        let m = LinearModel::fit(&basis, &[], &[], 1e-8);
        assert_eq!(m.predict(&basis, 5.0), 0.0);
    }

    #[test]
    fn underdetermined_fit_is_finite() {
        // One sample, three features: ridge keeps it solvable.
        let basis = PolynomialBasis { degree: 2 };
        let m = LinearModel::fit(&basis, &[2.0], &[8.0], 1e-6);
        let p = m.predict(&basis, 2.0);
        assert!(p.is_finite());
        // Ridge fit through one point should still pass near it.
        assert!((p - 8.0).abs() < 1.0);
    }

    #[test]
    fn diurnal_basis_recovers_sinusoid() {
        let basis = DiurnalBasis {
            period: 24.0,
            harmonics: 1,
        };
        let times: Vec<f64> = (0..96).map(|i| i as f64 * 0.5).collect();
        let values: Vec<f64> = times
            .iter()
            .map(|&t| 10.0 + 4.0 * (std::f64::consts::TAU * t / 24.0).sin())
            .collect();
        let m = LinearModel::fit(&basis, &times, &values, 1e-8);
        assert!(rss(&m, &basis, &times, &values) < 1e-6);
        // Predictions at unseen points are accurate.
        let t = 3.21;
        let want = 10.0 + 4.0 * (std::f64::consts::TAU * t / 24.0).sin();
        assert!((m.predict(&basis, t) - want).abs() < 1e-4);
    }

    #[test]
    fn rss_decreases_with_more_informative_training() {
        let basis = DiurnalBasis {
            period: 24.0,
            harmonics: 1,
        };
        let all_times: Vec<f64> = (0..48).map(|i| i as f64).collect();
        let values: Vec<f64> = all_times
            .iter()
            .map(|&t| 5.0 + 2.0 * (std::f64::consts::TAU * t / 24.0).cos())
            .collect();
        // Train on 4 vs 24 points.
        let few = LinearModel::fit(&basis, &all_times[..4], &values[..4], 1e-8);
        let many = LinearModel::fit(&basis, &all_times[..24], &values[..24], 1e-8);
        let rss_few = rss(&few, &basis, &all_times, &values);
        let rss_many = rss(&many, &basis, &all_times, &values);
        assert!(rss_many <= rss_few + 1e-9);
    }

    #[test]
    fn polynomial_features_shape() {
        let b = PolynomialBasis { degree: 3 };
        assert_eq!(b.dim(), 4);
        assert_eq!(b.features(2.0), vec![1.0, 2.0, 4.0, 8.0]);
    }

    #[test]
    fn diurnal_features_shape() {
        let b = DiurnalBasis {
            period: 24.0,
            harmonics: 2,
        };
        assert_eq!(b.dim(), 6);
        let f = b.features(0.0);
        assert_eq!(f[0], 1.0);
        assert_eq!(f[1], 0.0);
        assert_eq!(f[2], 0.0); // sin 0
        assert_eq!(f[3], 1.0); // cos 0
    }

    proptest! {
        /// The cached-rows RSS equals the per-call-feature reference bit
        /// for bit, for both bases and for fits on few or many points.
        #[test]
        fn cached_rows_rss_matches_per_call_features(
            period in 5.0..60.0f64,
            harmonics in 0usize..3,
            degree in 0usize..4,
            train in proptest::collection::vec(-100.0..100.0f64, 0..12),
            phase in -3.0..3.0f64,
        ) {
            let times: Vec<f64> = (0..80).map(|i| i as f64 * 1.7 - 90.0).collect();
            let signal = |t: f64| 20.0 + 5.0 * (t / 7.0 + phase).sin() + 0.01 * t;
            let values: Vec<f64> = times.iter().map(|&t| signal(t)).collect();
            let train_values: Vec<f64> = train.iter().map(|&t| signal(t)).collect();
            let diurnal = DiurnalBasis { period, harmonics };
            let m = LinearModel::fit(&diurnal, &train, &train_values, 1e-8);
            prop_assert_eq!(
                m.rss(&design_matrix(&diurnal, &times), &values).to_bits(),
                rss_per_call_features(&m, &diurnal, &times, &values).to_bits()
            );
            let poly = PolynomialBasis { degree };
            let m = LinearModel::fit(&poly, &train, &train_values, 1e-8);
            prop_assert_eq!(
                m.rss(&design_matrix(&poly, &times), &values).to_bits(),
                rss_per_call_features(&m, &poly, &times, &values).to_bits()
            );
        }

        #[test]
        fn fitted_line_rss_below_mean_model(
            slope in -3.0..3.0f64,
            icept in -5.0..5.0f64,
            noise_scale in 0.0..0.5f64,
        ) {
            let basis = PolynomialBasis { degree: 1 };
            let times: Vec<f64> = (0..20).map(|i| i as f64).collect();
            // Deterministic pseudo-noise keeps the test reproducible.
            let values: Vec<f64> = times
                .iter()
                .map(|&t| icept + slope * t + noise_scale * (t * 12.9898).sin())
                .collect();
            let m = LinearModel::fit(&basis, &times, &values, 1e-8);
            let mean = values.iter().sum::<f64>() / values.len() as f64;
            let rss_mean: f64 = values.iter().map(|v| (v - mean).powi(2)).sum();
            prop_assert!(rss(&m, &basis, &times, &values) <= rss_mean + 1e-6);
        }
    }
}
