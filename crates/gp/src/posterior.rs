//! Incremental posterior-variance tracking: the fast engine behind the
//! expected-variance-reduction valuation `F(A)` of Eq. 6.
//!
//! Conditioning a Gaussian vector on one noisy observation at index `i`
//! updates its covariance by a rank-1 downdate:
//!
//! ```text
//! Σ' = Σ − Σ[:,i] Σ[i,:] / (Σ[i,i] + σ_n²)
//! ```
//!
//! Applying observations sequentially is exactly equivalent to batch
//! conditioning (tested against [`crate::gp::GaussianProcess`]), but gives
//! O(cells) *marginal* variance-reduction queries — which is what
//! Algorithm 4 evaluates in its inner loop for every `(sensor, time)`
//! pair.
//!
//! Planning asks many "what if these sensors were observed" questions
//! that are thrown away afterwards. A [`FieldOverlay`] answers them
//! without an O(cells²) covariance copy: it borrows the field, records
//! each hypothetical observation's pre-update column and quotients, and
//! replays [`PosteriorField::observe`]'s downdates entry by entry when a
//! column is read, so its answers equal a cloned-and-observed field's
//! bit for bit.

use crate::kernel::Kernel;
use ps_geo::Point;
use ps_linalg::Matrix;

/// Normalization constant for the paper-facing `F` value: removing this
/// fraction of the region's total prior variance yields `F = 1`.
///
/// Eq. 6's `F` is an unnormalized integral, and Fig. 9(b) of the paper
/// shows result qualities above 1 "most of the times", so `F` must exceed
/// 1 for well-instrumented regions. Normalizing by half the prior
/// variance (a region 50 %-explained scores F = 1) reproduces that
/// behaviour at the paper's budget range: a fully observed region scores
/// F = 2, so the Fig. 9(b) quality `v_q/B_q` can exceed 1, while a
/// sparsely observed one stays below it.
pub const F_NORMALIZATION: f64 = 0.5;

/// The paper-facing `F` from a total variance `reduction` and the
/// `prior_total` variance it is taken out of: `reduction` over
/// [`F_NORMALIZATION`] of the prior, and 0 for a (numerically) empty
/// prior.
pub fn normalized_f(reduction: f64, prior_total: f64) -> f64 {
    if prior_total <= 1e-12 {
        return 0.0;
    }
    reduction / (F_NORMALIZATION * prior_total)
}

/// `Σ_{v∈subset} max(prior(v) − variance(v), 0)` with `variance(v)` the
/// raw diagonal entry floored at 0.
fn reduction_over(prior_var: &[f64], raw_diag: impl Fn(usize) -> f64, subset: &[usize]) -> f64 {
    subset
        .iter()
        .map(|&i| (prior_var[i] - raw_diag(i).max(0.0)).max(0.0))
        .sum()
}

/// `Σ_{v∈subset} column(v)² / denom`, or 0 when `denom ≤ 1e-12`.
fn reduction_by_column(denom: f64, column: impl Fn(usize) -> f64, subset: &[usize]) -> f64 {
    if denom <= 1e-12 {
        return 0.0;
    }
    subset
        .iter()
        .map(|&v| {
            let c = column(v);
            c * c
        })
        .sum::<f64>()
        / denom
}

/// Posterior covariance over a fixed set of locations (grid cells),
/// updated incrementally as sensors are observed.
#[derive(Debug, Clone)]
pub struct PosteriorField {
    locations: Vec<Point>,
    cov: Matrix,
    prior_var: Vec<f64>,
    noise_variance: f64,
}

impl PosteriorField {
    /// Builds the prior field over `locations` with kernel `k` and
    /// observation-noise variance `noise_variance`.
    pub fn new<K: Kernel>(kernel: &K, locations: Vec<Point>, noise_variance: f64) -> Self {
        assert!(noise_variance >= 0.0, "noise variance must be non-negative");
        let n = locations.len();
        let cov = Matrix::from_fn(n, n, |i, j| kernel.eval(locations[i], locations[j]));
        let prior_var = (0..n).map(|i| cov[(i, i)]).collect();
        Self {
            locations,
            cov,
            prior_var,
            noise_variance,
        }
    }

    /// Number of tracked locations.
    pub fn len(&self) -> usize {
        self.locations.len()
    }

    /// True when no locations are tracked.
    pub fn is_empty(&self) -> bool {
        self.locations.is_empty()
    }

    /// The tracked locations.
    pub fn locations(&self) -> &[Point] {
        &self.locations
    }

    /// Current posterior variance at location index `i`.
    pub fn variance(&self, i: usize) -> f64 {
        self.cov[(i, i)].max(0.0)
    }

    /// Total posterior variance over a subset of location indices.
    pub fn total_variance(&self, subset: &[usize]) -> f64 {
        subset.iter().map(|&i| self.variance(i)).sum()
    }

    /// Total prior variance over a subset of location indices.
    pub fn prior_variance(&self, subset: &[usize]) -> f64 {
        subset.iter().map(|&i| self.prior_var[i]).sum()
    }

    /// Total variance reduction achieved so far over `subset`:
    /// `Σ_v prior(v) − post(v)`.
    pub fn total_reduction(&self, subset: &[usize]) -> f64 {
        reduction_over(&self.prior_var, |i| self.cov[(i, i)], subset)
    }

    /// Additional variance reduction over `subset` if a (noisy) sensor at
    /// location index `obs` were observed — without mutating the field.
    ///
    /// `Σ_{v∈subset} Σ[v,obs]² / (Σ[obs,obs] + σ_n²)`.
    pub fn reduction_if_observed(&self, obs: usize, subset: &[usize]) -> f64 {
        let denom = self.cov[(obs, obs)] + self.noise_variance;
        reduction_by_column(denom, |v| self.cov[(v, obs)], subset)
    }

    /// Conditions the field on a noisy observation at location index
    /// `obs` (rank-1 covariance downdate).
    pub fn observe(&mut self, obs: usize) {
        let n = self.len();
        let denom = self.cov[(obs, obs)] + self.noise_variance;
        if denom <= 1e-12 {
            return; // already fully determined
        }
        let col: Vec<f64> = (0..n).map(|i| self.cov[(i, obs)]).collect();
        for i in 0..n {
            let ci = col[i] / denom;
            if ci == 0.0 {
                continue;
            }
            let row = self.cov.row_mut(i);
            for (j, &cj) in col.iter().enumerate() {
                row[j] -= ci * cj;
            }
        }
        // Numerical hygiene: variances must not go (more than dust) negative.
        for i in 0..n {
            if self.cov[(i, i)] < 0.0 {
                self.cov[(i, i)] = 0.0;
            }
        }
    }

    /// Paper-facing `F` over `subset`: fraction of the subset's total
    /// prior variance removed so far, scaled by [`F_NORMALIZATION`] so a
    /// 50 %-explained region scores 1.0. Empty subsets score 0.
    pub fn f_value(&self, subset: &[usize]) -> f64 {
        normalized_f(self.total_reduction(subset), self.prior_variance(subset))
    }

    /// `F` after hypothetically also observing `obs`, without mutating.
    pub fn f_value_if_observed(&self, obs: usize, subset: &[usize]) -> f64 {
        normalized_f(
            self.total_reduction(subset) + self.reduction_if_observed(obs, subset),
            self.prior_variance(subset),
        )
    }

    /// A what-if view of this field that has observed nothing yet.
    pub fn overlay(&self) -> FieldOverlay<'_> {
        FieldOverlay {
            base: self,
            diag: (0..self.len()).map(|i| self.cov[(i, i)]).collect(),
            commits: 0,
            cols: Vec::new(),
            quotients: Vec::new(),
        }
    }
}

/// The field a [`PosteriorField`] would become after further
/// observations, computed on demand from the field it borrows: a
/// what-if that copies no covariance.
///
/// Each [`FieldOverlay::observe`] stores the observed column as it was
/// before the downdate and its quotient vector `column / denominator`,
/// and downdates a running diagonal. A covariance entry is rebuilt by
/// replaying [`PosteriorField::observe`] on it, one stored observation
/// after the other, with the same float operations: the quotient
/// (computed once per observation), the skip of a zero quotient, and the
/// clamp of a negative diagonal entry after every observation. Every
/// answer therefore equals the one a cloned field conditioned on the same
/// observations gives, bit for bit, at O(cells × observations) per
/// column instead of an O(cells²) clone and O(cells²) per observation.
#[derive(Debug)]
pub struct FieldOverlay<'a> {
    base: &'a PosteriorField,
    /// Raw (unfloored) diagonal of the overlaid covariance.
    diag: Vec<f64>,
    /// Observations that downdated the field (a no-op `observe` stores
    /// nothing).
    commits: usize,
    /// Pre-update observed column per observation, observation-major.
    cols: Vec<f64>,
    /// `cols / denominator` per observation, observation-major.
    quotients: Vec<f64>,
}

impl FieldOverlay<'_> {
    /// Covariance entry `(v, obs)` after every recorded observation.
    fn entry(&self, v: usize, obs: usize) -> f64 {
        let n = self.base.len();
        let mut x = self.base.cov[(v, obs)];
        for l in 0..self.commits {
            let q = self.quotients[l * n + v];
            if q != 0.0 {
                x -= q * self.cols[l * n + obs];
            }
            if v == obs && x < 0.0 {
                x = 0.0;
            }
        }
        x
    }

    /// [`PosteriorField::total_reduction`] of the overlaid field.
    pub fn total_reduction(&self, subset: &[usize]) -> f64 {
        reduction_over(&self.base.prior_var, |i| self.diag[i], subset)
    }

    /// [`PosteriorField::reduction_if_observed`] of the overlaid field.
    pub fn reduction_if_observed(&self, obs: usize, subset: &[usize]) -> f64 {
        let denom = self.diag[obs] + self.base.noise_variance;
        reduction_by_column(denom, |v| self.entry(v, obs), subset)
    }

    /// Records a noisy observation at location index `obs`, as
    /// [`PosteriorField::observe`] would apply it.
    pub fn observe(&mut self, obs: usize) {
        let denom = self.diag[obs] + self.base.noise_variance;
        if denom <= 1e-12 {
            return; // already fully determined
        }
        let start = self.cols.len();
        for v in 0..self.base.len() {
            let c = self.entry(v, obs);
            self.cols.push(c);
            self.quotients.push(c / denom);
        }
        let (col, quotients) = (&self.cols[start..], &self.quotients[start..]);
        for ((d, &q), &c) in self.diag.iter_mut().zip(quotients).zip(col) {
            if q != 0.0 {
                *d -= q * c;
            }
            if *d < 0.0 {
                *d = 0.0;
            }
        }
        self.commits += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gp::GaussianProcess;
    use crate::kernel::SquaredExponential;
    use proptest::prelude::*;

    fn grid_locations(w: usize, h: usize) -> Vec<Point> {
        let mut pts = Vec::new();
        for y in 0..h {
            for x in 0..w {
                pts.push(Point::new(x as f64 + 0.5, y as f64 + 0.5));
            }
        }
        pts
    }

    fn kernel() -> SquaredExponential {
        SquaredExponential::new(2.0, 1.8)
    }

    #[test]
    fn prior_field_has_kernel_variance() {
        let locs = grid_locations(4, 3);
        let f = PosteriorField::new(&kernel(), locs.clone(), 0.1);
        for i in 0..locs.len() {
            assert!((f.variance(i) - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn sequential_conditioning_matches_batch_gp() {
        let locs = grid_locations(5, 4);
        let noise = 0.25;
        let mut field = PosteriorField::new(&kernel(), locs.clone(), noise);
        let observed = [3usize, 11, 17];
        for &o in &observed {
            field.observe(o);
        }
        // Batch reference: GP conditioned on the same sensor locations.
        let obs_locs: Vec<Point> = observed.iter().map(|&o| locs[o]).collect();
        let gp = GaussianProcess::fit(kernel(), obs_locs, vec![0.0; observed.len()], noise);
        for (i, &loc) in locs.iter().enumerate() {
            let batch = gp.variance(loc);
            let inc = field.variance(i);
            assert!(
                (batch - inc).abs() < 1e-8,
                "cell {i}: batch {batch} vs incremental {inc}"
            );
        }
    }

    #[test]
    fn reduction_if_observed_matches_actual_observation() {
        let locs = grid_locations(6, 5);
        let subset: Vec<usize> = (0..locs.len()).collect();
        let mut field = PosteriorField::new(&kernel(), locs, 0.3);
        field.observe(7);
        let predicted = field.reduction_if_observed(20, &subset);
        let before = field.total_variance(&subset);
        field.observe(20);
        let after = field.total_variance(&subset);
        assert!((before - after - predicted).abs() < 1e-8);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // i indexes field and reference
    fn observing_never_increases_variance() {
        let locs = grid_locations(5, 5);
        let mut field = PosteriorField::new(&kernel(), locs.clone(), 0.2);
        let mut last: Vec<f64> = (0..locs.len()).map(|i| field.variance(i)).collect();
        for obs in [0usize, 12, 24, 6, 18] {
            field.observe(obs);
            for i in 0..locs.len() {
                let v = field.variance(i);
                assert!(v <= last[i] + 1e-9, "variance rose at {i}");
                last[i] = v;
            }
        }
    }

    #[test]
    fn f_value_zero_when_unobserved_and_grows() {
        let locs = grid_locations(4, 4);
        let subset: Vec<usize> = (0..8).collect();
        let mut field = PosteriorField::new(&kernel(), locs, 0.1);
        assert_eq!(field.f_value(&subset), 0.0);
        field.observe(2);
        let f1 = field.f_value(&subset);
        assert!(f1 > 0.0);
        field.observe(5);
        let f2 = field.f_value(&subset);
        assert!(f2 >= f1);
        // With normalization, near-complete coverage can exceed 1.
        for o in 0..16 {
            field.observe(o);
        }
        assert!(field.f_value(&subset) > 1.0);
    }

    #[test]
    fn f_value_if_observed_is_consistent() {
        let locs = grid_locations(4, 4);
        let subset: Vec<usize> = (4..12).collect();
        let mut field = PosteriorField::new(&kernel(), locs, 0.2);
        field.observe(0);
        let hyp = field.f_value_if_observed(9, &subset);
        field.observe(9);
        assert!((field.f_value(&subset) - hyp).abs() < 1e-9);
    }

    #[test]
    fn empty_subset_has_zero_f() {
        let locs = grid_locations(3, 3);
        let field = PosteriorField::new(&kernel(), locs, 0.1);
        assert_eq!(field.f_value(&[]), 0.0);
    }

    #[test]
    fn repeated_observation_of_same_cell_saturates() {
        let locs = grid_locations(3, 3);
        let subset: Vec<usize> = (0..9).collect();
        let mut field = PosteriorField::new(&kernel(), locs, 0.5);
        field.observe(4);
        let f1 = field.f_value(&subset);
        field.observe(4); // same cell again: only noise averaging remains
        let f2 = field.f_value(&subset);
        assert!(f2 >= f1);
        assert!(f2 - f1 < f1, "second observation must add less than first");
    }

    /// Asserts that `overlay` and `field` agree bit for bit: every
    /// covariance entry, the raw diagonal, and `total_reduction`,
    /// `reduction_if_observed` and `F` over the whole field and over
    /// `subset`.
    fn assert_overlay_matches(
        overlay: &FieldOverlay<'_>,
        field: &PosteriorField,
        subset: &[usize],
    ) {
        let n = field.len();
        let all: Vec<usize> = (0..n).collect();
        for o in 0..n {
            for v in 0..n {
                assert_eq!(
                    overlay.entry(v, o).to_bits(),
                    field.cov[(v, o)].to_bits(),
                    "covariance ({v}, {o})"
                );
            }
            assert_eq!(
                overlay.diag[o].to_bits(),
                field.cov[(o, o)].to_bits(),
                "diagonal {o}"
            );
            for s in [&all[..], subset] {
                assert_eq!(
                    overlay.reduction_if_observed(o, s).to_bits(),
                    field.reduction_if_observed(o, s).to_bits(),
                    "reduction if {o} were observed"
                );
            }
        }
        for s in [&all[..], subset] {
            assert_eq!(
                overlay.total_reduction(s).to_bits(),
                field.total_reduction(s).to_bits()
            );
            let f = normalized_f(overlay.total_reduction(s), field.prior_variance(s));
            assert_eq!(f.to_bits(), field.f_value(s).to_bits());
        }
    }

    /// Observes `picks` into an overlay over `base` and into a clone of
    /// `base`, comparing the two after every observation.
    fn check_overlay_against_clone(base: &PosteriorField, picks: &[usize], subset: &[usize]) {
        let mut overlay = base.overlay();
        let mut field = base.clone();
        assert_overlay_matches(&overlay, &field, subset);
        for &o in picks {
            overlay.observe(o);
            field.observe(o);
            assert_overlay_matches(&overlay, &field, subset);
        }
    }

    #[test]
    fn overlay_matches_cloned_field_bit_for_bit_on_seeded_fields() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2013);
        for round in 0..24 {
            let n = rng.gen_range(2..30usize);
            let locs: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.gen_range(0.0..8.0), rng.gen_range(0.0..8.0)))
                .collect();
            let kernel = SquaredExponential::new(rng.gen_range(0.5..3.0), rng.gen_range(0.5..3.0));
            let noise = [0.0, 1e-3, 0.1, 0.5][round % 4];
            let mut base = PosteriorField::new(&kernel, locs, noise);
            // Half the rounds overlay a field that has observed already,
            // as what-ifs over a monitor's accumulated state do.
            if round % 2 == 1 {
                for _ in 0..3 {
                    base.observe(rng.gen_range(0..n));
                }
            }
            // Repeats included: a cell observed again downdates again.
            let picks: Vec<usize> = (0..rng.gen_range(1..8))
                .map(|_| rng.gen_range(0..n))
                .collect();
            let subset: Vec<usize> = (0..n).filter(|_| rng.gen_bool(0.5)).collect();
            check_overlay_against_clone(&base, &picks, &subset);
        }
    }

    /// A field over a hand-built covariance (not a kernel's), so the
    /// edge cases of `observe` can be forced.
    fn field_from_rows(rows: &[&[f64]], noise_variance: f64) -> PosteriorField {
        let cov = Matrix::from_rows(rows);
        let n = cov.rows();
        PosteriorField {
            locations: vec![Point::new(0.0, 0.0); n],
            prior_var: (0..n).map(|i| cov[(i, i)]).collect(),
            cov,
            noise_variance,
        }
    }

    #[test]
    fn overlay_replays_the_zero_quotient_skip() {
        // Row 1 has a zero in the observed column 0, so its quotient is
        // +0 and `observe` skips the row. Without the skip its -0.0 entry
        // (1, 2) would become -0.0 − (+0 × −1) = +0.0.
        let field = field_from_rows(
            &[&[1.0, 0.0, -1.0], &[0.0, 2.0, -0.0], &[-1.0, -0.0, 3.0]],
            0.1,
        );
        let mut observed = field.clone();
        observed.observe(0);
        assert_eq!(observed.cov[(1, 2)].to_bits(), (-0.0f64).to_bits());
        check_overlay_against_clone(&field, &[0, 2, 0], &[1, 2]);
    }

    #[test]
    fn overlay_replays_the_negative_diagonal_clamp() {
        // Not positive semi-definite: observing 0 drives Σ[1,1] to
        // 1 − 2·2 = −3, which `observe` clamps to 0; every later read
        // of that entry and of the denominator sees the clamped value.
        let field = field_from_rows(
            &[&[1.0, 2.0, 0.5], &[2.0, 1.0, 0.25], &[0.5, 0.25, 2.0]],
            0.0,
        );
        let mut observed = field.clone();
        observed.observe(0);
        assert_eq!(observed.cov[(1, 1)], 0.0);
        check_overlay_against_clone(&field, &[0, 2, 1, 2], &[1]);
    }

    #[test]
    fn overlay_skips_a_fully_determined_observation() {
        // Σ[1,1] + σ_n² = 0 ≤ 1e-12: observing 1 changes nothing, and
        // the overlay records no downdate for it.
        let field = field_from_rows(&[&[1.0, 0.0], &[0.0, 0.0]], 0.0);
        let mut overlay = field.overlay();
        overlay.observe(1);
        assert_eq!(overlay.commits, 0);
        assert_eq!(overlay.reduction_if_observed(1, &[0, 1]), 0.0);
        check_overlay_against_clone(&field, &[1, 0, 1], &[0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn incremental_matches_batch_on_random_observation_sets(
            picks in proptest::collection::vec(0usize..20, 1..5),
        ) {
            let locs = grid_locations(5, 4);
            let noise = 0.4;
            let mut field = PosteriorField::new(&kernel(), locs.clone(), noise);
            let mut unique: Vec<usize> = Vec::new();
            for p in picks {
                if !unique.contains(&p) {
                    unique.push(p);
                    field.observe(p);
                }
            }
            let obs_locs: Vec<Point> = unique.iter().map(|&o| locs[o]).collect();
            let gp = GaussianProcess::fit(kernel(), obs_locs, vec![0.0; unique.len()], noise);
            for (i, &loc) in locs.iter().enumerate() {
                prop_assert!((gp.variance(loc) - field.variance(i)).abs() < 1e-7);
            }
        }
    }
}
