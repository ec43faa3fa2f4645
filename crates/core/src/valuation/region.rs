//! The GP-based region-monitoring valuation of Eqs. 6–7:
//!
//! ```text
//! v_q(S) = B_q · F(S) · (Σ_{s∈S} θ_s) / |S|
//! ```
//!
//! where `F` is the expected reduction in predictive variance over the
//! queried region when the phenomenon is modelled as a Gaussian process
//! (§2.3.1). `ps_gp::PosteriorField` supplies `F` incrementally.

use crate::model::SensorSnapshot;
use crate::valuation::SetValuation;
use ps_geo::{Point, Rect};
use ps_gp::kernel::Kernel;
use ps_gp::posterior::{normalized_f, FieldOverlay, PosteriorField};

/// The integer column and row ranges (inclusive) of the unit cells
/// `Rect::cells` enumerates for a region.
#[derive(Debug, Clone, Copy)]
struct CellRanges {
    col_lo: i64,
    col_hi: i64,
    row_lo: i64,
    row_hi: i64,
}

impl CellRanges {
    fn of(region: &Rect) -> Self {
        Self {
            col_lo: (region.min_x - 0.5).ceil().max(0.0) as i64,
            col_hi: (region.max_x - 0.5).floor() as i64,
            row_lo: (region.min_y - 0.5).ceil().max(0.0) as i64,
            row_hi: (region.max_y - 0.5).floor() as i64,
        }
    }
}

/// The running sums Eq. 7 reads: the field's total variance reduction
/// over the region's cells, `Σθ` and `|S|`.
#[derive(Debug, Clone, Copy)]
struct Sums {
    reduction: f64,
    sum_theta: f64,
    count: usize,
}

/// Incremental Eq. 7 valuation over a queried region.
///
/// Sensors observe the grid cell they stand in (the paper's Intel-Lab
/// grid-assignment rule); `F` is evaluated over all unit cells of the
/// queried region. The region's total prior variance is summed once and
/// its total variance reduction once per commit, so a marginal costs one
/// pass over the observed cell's covariance column.
#[derive(Debug, Clone)]
pub struct RegionValuation {
    budget: f64,
    region: Rect,
    cells: CellRanges,
    field: PosteriorField,
    /// All field indices (the region's cells) — the `V` of Eq. 6.
    all_cells: Vec<usize>,
    /// `Σ_{v∈V}` prior variance: the denominator of `F`.
    prior_total: f64,
    sums: Sums,
}

impl RegionValuation {
    /// Builds the valuation: the GP prior is instantiated over the unit
    /// cells of `region` with the given kernel and observation-noise
    /// variance.
    pub fn new<K: Kernel>(budget: f64, region: Rect, kernel: &K, noise_variance: f64) -> Self {
        let centers: Vec<Point> = region.cells().map(|c| c.center()).collect();
        let all_cells: Vec<usize> = (0..centers.len()).collect();
        let field = PosteriorField::new(kernel, centers, noise_variance);
        Self {
            budget,
            region,
            cells: CellRanges::of(&region),
            prior_total: field.prior_variance(&all_cells),
            sums: Sums {
                reduction: field.total_reduction(&all_cells),
                sum_theta: 0.0,
                count: 0,
            },
            field,
            all_cells,
        }
    }

    /// The queried region.
    pub fn region(&self) -> &Rect {
        &self.region
    }

    /// Current `F(S)` value.
    pub fn f_value(&self) -> f64 {
        normalized_f(self.sums.reduction, self.prior_total)
    }

    /// Number of committed sensors.
    pub fn committed_count(&self) -> usize {
        self.sums.count
    }

    /// Field index of the cell a sensor at `p` would observe, when inside
    /// the region.
    ///
    /// Cells were enumerated in `region.cells()` row-major order, so the
    /// nearest centre is found arithmetically: clamp the nearest integer
    /// grid centre to the region's cell ranges per axis and compare the
    /// (at most four) neighbouring candidates, breaking distance ties
    /// toward the smaller enumeration index exactly as the historical
    /// linear scan did. This runs per marginal in Algorithm 4's inner
    /// loop, where the former O(cells) scan dominated region planning.
    pub fn cell_index_of(&self, p: Point) -> Option<usize> {
        if !self.region.contains(p) {
            return None;
        }
        let CellRanges {
            col_lo,
            col_hi,
            row_lo,
            row_hi,
        } = self.cells;
        if col_hi < col_lo || row_hi < row_lo {
            return None;
        }
        let cols = (col_hi - col_lo + 1) as usize;
        let cand_axis = |v: f64, lo: i64, hi: i64| -> [i64; 2] {
            let a = ((v - 0.5).floor() as i64).clamp(lo, hi);
            let b = ((v - 0.5).ceil() as i64).clamp(lo, hi);
            [a.min(b), a.max(b)]
        };
        let col_cands = cand_axis(p.x, col_lo, col_hi);
        let row_cands = cand_axis(p.y, row_lo, row_hi);
        let mut best: Option<(usize, f64)> = None;
        for &row in &row_cands {
            for &col in &col_cands {
                let idx = (row - row_lo) as usize * cols + (col - col_lo) as usize;
                let c = Point::new(col as f64 + 0.5, row as f64 + 0.5);
                let d = c.distance_squared(p);
                match best {
                    Some((bi, bd)) if bd < d || (bd == d && bi <= idx) => {}
                    _ => best = Some((idx, d)),
                }
            }
        }
        best.filter(|&(_, d)| d <= 0.5000001).map(|(i, _)| i)
    }

    /// Eq. 7 at the running sums `s`.
    fn value_of(&self, s: &Sums) -> f64 {
        if s.count == 0 {
            return 0.0;
        }
        self.budget * normalized_f(s.reduction, self.prior_total) * (s.sum_theta / s.count as f64)
    }

    /// The Eq. 7 gain over the sums `s` of one more sensor of quality
    /// `theta` whose observation removes `extra` variance.
    fn gain_of(&self, s: &Sums, extra: f64, theta: f64) -> f64 {
        let with = Sums {
            reduction: s.reduction + extra,
            sum_theta: s.sum_theta + theta,
            count: s.count + 1,
        };
        self.value_of(&with) - self.value_of(s)
    }

    /// [`SetValuation::marginal`] of a sensor of quality `theta` that
    /// observes `cell` (`None`: outside the region's cells).
    pub(crate) fn marginal_at(&self, cell: Option<usize>, theta: f64) -> f64 {
        let Some(cell) = cell else {
            return 0.0;
        };
        let extra = self.field.reduction_if_observed(cell, &self.all_cells);
        self.gain_of(&self.sums, extra, theta)
    }

    /// A what-if copy of this valuation that borrows it instead of
    /// cloning its covariance.
    pub(crate) fn what_if(&self) -> RegionWhatIf<'_> {
        RegionWhatIf {
            base: self,
            field: self.field.overlay(),
            sums: self.sums,
        }
    }
}

/// A [`RegionValuation`] after hypothetical commits, over a
/// [`FieldOverlay`] of the valuation it borrows: planning's throwaway
/// "what if these sensors were observed" values, bit-identical to
/// committing them into a clone.
#[derive(Debug)]
pub(crate) struct RegionWhatIf<'a> {
    base: &'a RegionValuation,
    field: FieldOverlay<'a>,
    sums: Sums,
}

impl RegionWhatIf<'_> {
    /// [`RegionValuation::marginal_at`] after the hypothetical commits.
    pub(crate) fn marginal_at(&self, cell: Option<usize>, theta: f64) -> f64 {
        let Some(cell) = cell else {
            return 0.0;
        };
        let extra = self.field.reduction_if_observed(cell, &self.base.all_cells);
        self.base.gain_of(&self.sums, extra, theta)
    }

    /// Hypothetically commits a sensor of quality `theta` that observes
    /// `cell` (a no-op for `None`, as [`SetValuation::commit`] is).
    pub(crate) fn commit_at(&mut self, cell: Option<usize>, theta: f64) {
        let Some(cell) = cell else {
            return;
        };
        self.field.observe(cell);
        self.sums.reduction = self.field.total_reduction(&self.base.all_cells);
        self.sums.sum_theta += theta;
        self.sums.count += 1;
    }

    /// Eq. 7 after the hypothetical commits.
    pub(crate) fn current_value(&self) -> f64 {
        self.base.value_of(&self.sums)
    }
}

impl SetValuation for RegionValuation {
    fn current_value(&self) -> f64 {
        self.value_of(&self.sums)
    }

    fn marginal(&self, sensor: &SensorSnapshot) -> f64 {
        self.marginal_at(self.cell_index_of(sensor.loc), sensor.intrinsic_quality())
    }

    fn commit(&mut self, sensor: &SensorSnapshot) {
        let Some(cell) = self.cell_index_of(sensor.loc) else {
            return;
        };
        self.field.observe(cell);
        self.sums.reduction = self.field.total_reduction(&self.all_cells);
        self.sums.sum_theta += sensor.intrinsic_quality();
        self.sums.count += 1;
    }

    fn is_relevant(&self, sensor: &SensorSnapshot) -> bool {
        self.region.contains(sensor.loc)
    }

    fn max_value(&self) -> f64 {
        // F is normalized to exceed 1 on well-covered regions (see
        // `ps_gp::F_NORMALIZATION`), so the budget is the natural
        // denominator for the quality-of-results metric even though the
        // achieved value may exceed it — exactly as in Fig. 9(b).
        self.budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use ps_gp::kernel::SquaredExponential;

    fn sensor(id: usize, x: f64, y: f64, trust: f64) -> SensorSnapshot {
        SensorSnapshot {
            id,
            loc: Point::new(x, y),
            cost: 10.0,
            trust,
            inaccuracy: 0.0,
        }
    }

    fn valuation(budget: f64) -> RegionValuation {
        RegionValuation::new(
            budget,
            Rect::new(0.0, 0.0, 6.0, 5.0),
            &SquaredExponential::new(2.0, 2.0),
            0.1,
        )
    }

    #[test]
    fn empty_set_is_worthless() {
        assert_eq!(valuation(50.0).current_value(), 0.0);
    }

    #[test]
    fn observing_raises_value() {
        let mut v = valuation(50.0);
        let s = sensor(0, 3.0, 2.5, 1.0);
        let m = v.marginal(&s);
        assert!(m > 0.0);
        v.commit(&s);
        assert!((v.current_value() - m).abs() < 1e-9);
        assert_eq!(v.committed_count(), 1);
    }

    #[test]
    fn marginal_matches_commit_delta() {
        let mut v = valuation(50.0);
        v.commit(&sensor(0, 1.0, 1.0, 0.9));
        let s = sensor(1, 5.0, 4.0, 0.8);
        let m = v.marginal(&s);
        let before = v.current_value();
        v.commit(&s);
        assert!((v.current_value() - before - m).abs() < 1e-9);
    }

    #[test]
    fn out_of_region_sensor_is_irrelevant() {
        let mut v = valuation(50.0);
        let s = sensor(0, 10.0, 10.0, 1.0);
        assert!(!v.is_relevant(&s));
        assert_eq!(v.marginal(&s), 0.0);
        v.commit(&s); // must be a no-op
        assert_eq!(v.committed_count(), 0);
    }

    #[test]
    fn nearby_duplicate_sensor_adds_less() {
        let mut v = valuation(50.0);
        let a = sensor(0, 3.3, 2.5, 1.0);
        v.commit(&a);
        // Exactly the same location: re-observes the same (explained) cell.
        let duplicate = sensor(1, 3.3, 2.5, 1.0);
        let far = sensor(2, 0.5, 0.5, 1.0);
        assert!(v.marginal(&far) > v.marginal(&duplicate));
    }

    #[test]
    fn dense_coverage_can_exceed_budget_quality() {
        // Fig. 9(b): quality (= value / budget) above 1 is possible.
        let mut v = valuation(10.0);
        for (i, cell) in Rect::new(0.0, 0.0, 6.0, 5.0).cells().enumerate() {
            let c = cell.center();
            v.commit(&sensor(i, c.x, c.y, 1.0));
        }
        assert!(
            v.current_value() / v.max_value() > 1.0,
            "quality {} not above 1",
            v.current_value() / v.max_value()
        );
    }

    #[test]
    fn cell_index_roundtrip() {
        let v = valuation(10.0);
        let idx = v.cell_index_of(Point::new(2.3, 3.8));
        assert!(idx.is_some());
        assert!(v.cell_index_of(Point::new(-1.0, 0.0)).is_none());
    }

    /// Eq. 7 as it was computed before the sums were cached: `F`
    /// re-summed over every cell of the field on each call.
    fn reference_value(v: &RegionValuation, f: f64, sum_theta: f64, count: usize) -> f64 {
        if count == 0 {
            return 0.0;
        }
        v.budget * f * (sum_theta / count as f64)
    }

    fn reference_current(v: &RegionValuation) -> f64 {
        let f = v.field.f_value(&v.all_cells);
        reference_value(v, f, v.sums.sum_theta, v.sums.count)
    }

    fn reference_marginal(v: &RegionValuation, s: &SensorSnapshot) -> f64 {
        let Some(cell) = v.cell_index_of(s.loc) else {
            return 0.0;
        };
        let f_new = v.field.f_value_if_observed(cell, &v.all_cells);
        let theta = s.intrinsic_quality();
        reference_value(v, f_new, v.sums.sum_theta + theta, v.sums.count + 1) - reference_current(v)
    }

    #[test]
    fn cached_sums_and_what_ifs_match_full_field_sums_bit_for_bit() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..12 {
            let (x, y) = (rng.gen_range(0.0..5.0), rng.gen_range(0.0..5.0));
            let region = Rect::new(
                x,
                y,
                x + rng.gen_range(2.0..9.0),
                y + rng.gen_range(2.0..9.0),
            );
            let kernel = SquaredExponential::new(rng.gen_range(0.5..3.0), rng.gen_range(1.0..3.0));
            let mut v = RegionValuation::new(rng.gen_range(10.0..90.0), region, &kernel, 0.1);
            let sensors: Vec<SensorSnapshot> = (0..16)
                .map(|i| {
                    let p = (
                        rng.gen_range(x - 1.0..x + 10.0),
                        rng.gen_range(y - 1.0..y + 10.0),
                    );
                    sensor(i, p.0, p.1, rng.gen_range(0.3..1.0))
                })
                .collect();
            // Half the sensors go into the valuation for real, the other
            // half into a what-if over it and into a clone of it.
            for s in &sensors[..8] {
                assert_eq!(v.current_value().to_bits(), reference_current(&v).to_bits());
                for probe in &sensors {
                    assert_eq!(
                        v.marginal(probe).to_bits(),
                        reference_marginal(&v, probe).to_bits()
                    );
                }
                v.commit(s);
            }
            let mut what_if = v.what_if();
            let mut clone = v.clone();
            for s in &sensors[8..] {
                let cell = v.cell_index_of(s.loc);
                for probe in &sensors {
                    let probe_cell = v.cell_index_of(probe.loc);
                    assert_eq!(
                        what_if
                            .marginal_at(probe_cell, probe.intrinsic_quality())
                            .to_bits(),
                        clone.marginal(probe).to_bits()
                    );
                }
                what_if.commit_at(cell, s.intrinsic_quality());
                clone.commit(s);
                assert_eq!(
                    what_if.current_value().to_bits(),
                    clone.current_value().to_bits()
                );
                assert_eq!(
                    clone.current_value().to_bits(),
                    reference_current(&clone).to_bits()
                );
            }
        }
    }

    /// The historical nearest-centre linear scan `cell_index_of`
    /// replaced: same enumeration order, same `bd <= d` earliest-on-tie
    /// rule, same `≤ 0.5000001` acceptance.
    fn cell_index_by_scan(region: &Rect, p: Point) -> Option<usize> {
        if !region.contains(p) {
            return None;
        }
        let mut best: Option<(usize, f64)> = None;
        for (i, cell) in region.cells().enumerate() {
            let d = cell.center().distance_squared(p);
            match best {
                Some((_, bd)) if bd <= d => {}
                _ => best = Some((i, d)),
            }
        }
        best.filter(|&(_, d)| d <= 0.5000001).map(|(i, _)| i)
    }

    proptest! {
        /// The O(1) arithmetic `cell_index_of` must agree with the
        /// nearest-centre scan everywhere — including cell boundaries,
        /// region edges, and fractional region corners. Both engines
        /// share this function, so the end-to-end equivalence tests are
        /// blind to a regression here; this comparison is the guard.
        #[test]
        fn cell_index_matches_nearest_center_scan(
            corner in (0.0..6.0f64, 0.0..6.0f64),
            size in (1.0..7.0f64, 1.0..7.0f64),
            p in (-1.0..15.0f64, -1.0..15.0f64),
            on_boundary in proptest::prop::bool::ANY,
        ) {
            let region = Rect::new(corner.0, corner.1, corner.0 + size.0, corner.1 + size.1);
            // Half the probes snap onto exact cell-boundary coordinates,
            // where distance ties between neighbouring centres happen.
            let probe = if on_boundary {
                Point::new(p.0.floor(), p.1.floor())
            } else {
                Point::new(p.0, p.1)
            };
            let v = RegionValuation::new(10.0, region, &SquaredExponential::new(2.0, 2.0), 0.1);
            prop_assert_eq!(v.cell_index_of(probe), cell_index_by_scan(&region, probe));
        }
    }
}
