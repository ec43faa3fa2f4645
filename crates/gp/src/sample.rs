//! Sampling from GP priors: synthesizing spatially correlated fields.
//!
//! The Intel-Lab substitute dataset (`ps_data::intel`) needs ground-truth
//! phenomenon values with realistic spatial correlation. Drawing a sample
//! from a GP prior — `f = L z` with `K = L Lᵀ` and `z ~ N(0, I)` —
//! produces exactly the statistical structure the region-monitoring
//! valuation assumes.

use crate::kernel::Kernel;
use ps_geo::Point;
use ps_linalg::{Cholesky, Matrix};
use rand::Rng;

/// A reusable sampler for GP prior draws over a fixed location set.
///
/// Construction factors the kernel matrix once (O(n³)); each draw is then
/// an O(n²) triangular multiply. Useful for the AR(1)-evolved fields of
/// the Intel-Lab substitute, which draws one innovation field per slot.
pub struct FieldSampler {
    chol: Cholesky,
    mean: f64,
    n: usize,
}

impl FieldSampler {
    /// Prepares a sampler over `locations` with the given kernel and
    /// constant mean.
    pub fn new<K: Kernel>(kernel: &K, locations: &[Point], mean: f64) -> Self {
        let n = locations.len();
        let k = Matrix::from_fn(n, n, |i, j| kernel.eval(locations[i], locations[j]));
        let (chol, _jitter) =
            Cholesky::factor_with_jitter(&k, 1e-8, 14).expect("kernel matrix must factor");
        Self { chol, mean, n }
    }

    /// Number of locations.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the sampler covers no locations.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Draws one field realization.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> Vec<f64> {
        let z: Vec<f64> = (0..self.n).map(|_| standard_normal(rng)).collect();
        // f = mean + L z ; L is lower triangular.
        let l = self.chol.l();
        (0..self.n)
            .map(|i| {
                let row = l.row(i);
                let mut s = self.mean;
                for k in 0..=i {
                    s += row[k] * z[k];
                }
                s
            })
            .collect()
    }
}

/// One standard-normal draw via Box–Muller (the offline `rand` build has
/// no `rand_distr`).
pub fn standard_normal<R: Rng>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen::<f64>();
        return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::SquaredExponential;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn grid(n: usize) -> Vec<Point> {
        (0..n * n)
            .map(|i| Point::new((i % n) as f64, (i / n) as f64))
            .collect()
    }

    #[test]
    fn sample_has_requested_mean() {
        let locs = grid(6);
        let sampler = FieldSampler::new(&SquaredExponential::new(1.0, 2.0), &locs, 50.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut grand_mean = 0.0;
        let draws = 200;
        for _ in 0..draws {
            let field = sampler.sample(&mut rng);
            grand_mean += field.iter().sum::<f64>() / field.len() as f64;
        }
        grand_mean /= draws as f64;
        assert!(
            (grand_mean - 50.0).abs() < 1.0,
            "grand mean {grand_mean} far from 50"
        );
    }

    #[test]
    fn nearby_cells_are_correlated() {
        // Long length scale → neighbours nearly identical; far cells less so.
        let locs = grid(8);
        let sampler = FieldSampler::new(&SquaredExponential::new(1.0, 3.0), &locs, 0.0);
        let mut rng = StdRng::seed_from_u64(7);
        let mut near_cov = 0.0;
        let mut far_cov = 0.0;
        let draws = 300;
        for _ in 0..draws {
            let f = sampler.sample(&mut rng);
            near_cov += f[0] * f[1]; // distance 1
            far_cov += f[0] * f[63]; // distance ~9.9
        }
        near_cov /= draws as f64;
        far_cov /= draws as f64;
        assert!(
            near_cov > far_cov + 0.2,
            "near {near_cov} not more correlated than far {far_cov}"
        );
        assert!(near_cov > 0.5);
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.08, "variance {var}");
    }

    #[test]
    fn empty_location_set_is_fine() {
        let sampler = FieldSampler::new(&SquaredExponential::new(1.0, 1.0), &[], 0.0);
        let mut rng = StdRng::seed_from_u64(3);
        assert!(sampler.sample(&mut rng).is_empty());
        assert!(sampler.is_empty());
    }
}
