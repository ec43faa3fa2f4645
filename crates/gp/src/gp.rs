//! Exact Gaussian-process regression.

use crate::kernel::Kernel;
use ps_geo::Point;
use ps_linalg::{Cholesky, Matrix};

/// A Gaussian process conditioned on noisy observations.
///
/// Standard textbook GP regression: with observations `y` at locations
/// `X`, noise variance `σ_n²`, and kernel `k`,
///
/// ```text
/// mean(x*) = k*ᵀ (K + σ_n² I)⁻¹ y
/// var(x*)  = k(x*,x*) − k*ᵀ (K + σ_n² I)⁻¹ k*
/// ```
///
/// Used for hyperparameter fitting (log marginal likelihood) and as the
/// reference implementation the fast incremental
/// [`crate::posterior::PosteriorField`] is validated against.
pub struct GaussianProcess<K: Kernel> {
    kernel: K,
    noise_variance: f64,
    locations: Vec<Point>,
    chol: Option<Cholesky>,
    alpha: Vec<f64>,
    observations: Vec<f64>,
}

impl<K: Kernel> GaussianProcess<K> {
    /// Conditions a GP on observations `y` at `locations`.
    ///
    /// # Panics
    /// Panics when `locations.len() != y.len()` or the noise variance is
    /// negative.
    pub fn fit(kernel: K, locations: Vec<Point>, y: Vec<f64>, noise_variance: f64) -> Self {
        assert_eq!(locations.len(), y.len(), "locations/observations mismatch");
        assert!(noise_variance >= 0.0, "noise variance must be non-negative");
        if locations.is_empty() {
            return Self {
                kernel,
                noise_variance,
                locations,
                chol: None,
                alpha: Vec::new(),
                observations: y,
            };
        }
        let n = locations.len();
        let mut k = Matrix::from_fn(n, n, |i, j| kernel.eval(locations[i], locations[j]));
        k.add_diagonal(noise_variance.max(1e-10));
        let (chol, _jitter) =
            Cholesky::factor_with_jitter(&k, 1e-8, 12).expect("kernel matrix must factor");
        let alpha = chol.solve(&y);
        Self {
            kernel,
            noise_variance,
            locations,
            chol: Some(chol),
            alpha,
            observations: y,
        }
    }

    /// Posterior mean at `x`.
    pub fn mean(&self, x: Point) -> f64 {
        if self.locations.is_empty() {
            return 0.0;
        }
        let kstar: Vec<f64> = self
            .locations
            .iter()
            .map(|&l| self.kernel.eval(x, l))
            .collect();
        ps_linalg::dot(&kstar, &self.alpha)
    }

    /// Posterior variance at `x` (never negative; clamped at 0).
    pub fn variance(&self, x: Point) -> f64 {
        let prior = self.kernel.variance_at(x);
        let Some(chol) = &self.chol else {
            return prior;
        };
        let kstar: Vec<f64> = self
            .locations
            .iter()
            .map(|&l| self.kernel.eval(x, l))
            .collect();
        let v = chol.forward_substitute(&kstar);
        let reduction: f64 = v.iter().map(|x| x * x).sum();
        (prior - reduction).max(0.0)
    }

    /// Log marginal likelihood of the conditioning observations — the
    /// objective maximized by hyperparameter fitting.
    pub fn log_marginal_likelihood(&self) -> f64 {
        let n = self.locations.len();
        if n == 0 {
            return 0.0;
        }
        let chol = self.chol.as_ref().expect("fitted with data");
        let data_fit: f64 = self
            .observations
            .iter()
            .zip(&self.alpha)
            .map(|(y, a)| y * a)
            .sum();
        -0.5 * data_fit - 0.5 * chol.log_det() - 0.5 * n as f64 * (std::f64::consts::TAU).ln()
    }

    /// The noise variance the process was conditioned with.
    pub fn noise_variance(&self) -> f64 {
        self.noise_variance
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::SquaredExponential;

    fn kernel() -> SquaredExponential {
        SquaredExponential::new(1.0, 1.5)
    }

    #[test]
    fn empty_gp_returns_prior() {
        let gp = GaussianProcess::fit(kernel(), vec![], vec![], 0.1);
        let p = Point::new(3.0, 4.0);
        assert_eq!(gp.mean(p), 0.0);
        assert_eq!(gp.variance(p), 1.0);
    }

    #[test]
    fn interpolates_observations_with_low_noise() {
        let locs = vec![Point::new(0.0, 0.0), Point::new(3.0, 0.0)];
        let y = vec![2.0, -1.0];
        let gp = GaussianProcess::fit(kernel(), locs.clone(), y.clone(), 1e-6);
        for (l, target) in locs.iter().zip(&y) {
            assert!((gp.mean(*l) - target).abs() < 1e-3);
            assert!(gp.variance(*l) < 1e-3);
        }
    }

    #[test]
    fn variance_shrinks_near_observations() {
        let gp = GaussianProcess::fit(kernel(), vec![Point::ORIGIN], vec![1.0], 0.01);
        let near = gp.variance(Point::new(0.5, 0.0));
        let far = gp.variance(Point::new(10.0, 0.0));
        assert!(near < far);
        assert!((far - 1.0).abs() < 1e-6); // prior regained far away
    }

    #[test]
    fn variance_is_value_independent() {
        let locs = vec![Point::new(1.0, 1.0), Point::new(2.0, 2.0)];
        let gp1 = GaussianProcess::fit(kernel(), locs.clone(), vec![0.0, 0.0], 0.1);
        let gp2 = GaussianProcess::fit(kernel(), locs, vec![100.0, -50.0], 0.1);
        let p = Point::new(1.5, 1.5);
        assert!((gp1.variance(p) - gp2.variance(p)).abs() < 1e-10);
    }

    #[test]
    fn more_observations_never_increase_variance() {
        let p = Point::new(2.0, 2.0);
        let few = GaussianProcess::fit(kernel(), vec![Point::ORIGIN], vec![1.0], 0.1);
        let more = GaussianProcess::fit(
            kernel(),
            vec![Point::ORIGIN, Point::new(2.5, 2.0)],
            vec![1.0, 0.5],
            0.1,
        );
        assert!(more.variance(p) <= few.variance(p) + 1e-10);
    }

    #[test]
    fn log_marginal_likelihood_prefers_true_noise() {
        // Data generated from a smooth function + tiny noise: a GP with
        // catastrophic noise assumptions should score worse.
        let locs: Vec<Point> = (0..8).map(|i| Point::new(i as f64, 0.0)).collect();
        let y: Vec<f64> = locs.iter().map(|p| (p.x * 0.5).sin()).collect();
        let good = GaussianProcess::fit(kernel(), locs.clone(), y.clone(), 0.01);
        let bad = GaussianProcess::fit(kernel(), locs, y, 25.0);
        assert!(good.log_marginal_likelihood() > bad.log_marginal_likelihood());
    }
}
