//! Coverage geometry for spatial aggregate queries (Eq. 5 of the paper).
//!
//! The example aggregate valuation function multiplies the query budget by
//! a *coverage* term `G_q(S_q)`: the fraction of the queried region that
//! lies within sensing range of at least one selected sensor. The greedy
//! selection of Algorithm 1 evaluates marginal coverage gains thousands of
//! times per time slot, so [`CoverageMap`] keeps only the centres of the
//! cells still uncovered: a marginal scans those alone, and every commit
//! compacts the newly covered ones away, so marginals get cheaper as the
//! region fills.

use crate::{Point, Rect};

/// Fraction of `region`'s unit cells whose centres are within `radius` of
/// at least one of `sensors`. Returns 0 for regions with no cells.
pub fn covered_fraction(region: &Rect, sensors: &[Point], radius: f64) -> f64 {
    let total = region.cell_count();
    if total == 0 {
        return 0.0;
    }
    let r2 = radius * radius;
    let covered = region
        .cells()
        .filter(|cell| {
            let c = cell.center();
            sensors.iter().any(|s| s.distance_squared(c) <= r2)
        })
        .count();
    covered as f64 / total as f64
}

/// Incremental coverage over the cells of a query region.
///
/// Cells are unit squares; a cell counts as covered when its centre is
/// within the sensing radius of a committed sensor. The map stores the
/// centres of the still-uncovered cells as two coordinate columns, so
/// [`CoverageMap::marginal_cells`] costs one distance test per uncovered
/// cell and [`CoverageMap::commit`] drops the cells it covers.
#[derive(Debug, Clone)]
pub struct CoverageMap {
    region: Rect,
    radius: f64,
    total: usize,
    open_x: Vec<f64>,
    open_y: Vec<f64>,
}

impl CoverageMap {
    /// Creates an empty coverage map over `region` with sensing `radius`.
    pub fn new(region: Rect, radius: f64) -> Self {
        let mut map = Self {
            region,
            radius,
            total: 0,
            open_x: Vec::new(),
            open_y: Vec::new(),
        };
        map.reset();
        map
    }

    /// The queried region.
    pub fn region(&self) -> &Rect {
        &self.region
    }

    /// Sensing radius used for coverage tests.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Number of currently covered cells.
    pub fn covered_cells(&self) -> usize {
        self.total - self.open_x.len()
    }

    /// Current covered fraction (`G_q` with the simple area-fraction
    /// coverage function of Eq. 5). Zero when the region has no cells.
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.covered_cells() as f64 / self.total as f64
        }
    }

    /// Whether a sensor at `p` covers the cell centred at `(x, y)`: the
    /// [`Point::distance_squared`] test from the centre, so a NaN point
    /// covers nothing.
    #[inline]
    fn covers(p: Point, r2: f64, x: f64, y: f64) -> bool {
        let dx = x - p.x;
        let dy = y - p.y;
        dx * dx + dy * dy <= r2
    }

    /// Number of *additional* cells a sensor at `p` would cover.
    pub fn marginal_cells(&self, p: Point) -> usize {
        let r2 = self.radius * self.radius;
        self.open_x
            .iter()
            .zip(&self.open_y)
            .map(|(&x, &y)| usize::from(Self::covers(p, r2, x, y)))
            .sum()
    }

    /// Coverage fraction after hypothetically adding a sensor at `p`,
    /// without mutating the map.
    pub fn fraction_with(&self, p: Point) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        (self.covered_cells() + self.marginal_cells(p)) as f64 / self.total as f64
    }

    /// Marks the cells within range of a sensor at `p` as covered and
    /// returns how many cells became newly covered.
    pub fn commit(&mut self, p: Point) -> usize {
        let r2 = self.radius * self.radius;
        let before = self.open_x.len();
        let mut kept = 0;
        for i in 0..before {
            let (x, y) = (self.open_x[i], self.open_y[i]);
            if !Self::covers(p, r2, x, y) {
                self.open_x[kept] = x;
                self.open_y[kept] = y;
                kept += 1;
            }
        }
        self.open_x.truncate(kept);
        self.open_y.truncate(kept);
        before - kept
    }

    /// Clears all coverage back to the empty state.
    pub fn reset(&mut self) {
        self.open_x.clear();
        self.open_y.clear();
        for cell in self.region.cells() {
            let c = cell.center();
            self.open_x.push(c.x);
            self.open_y.push(c.y);
        }
        self.total = self.open_x.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_sensor_set_covers_nothing() {
        let region = Rect::new(0.0, 0.0, 10.0, 10.0);
        assert_eq!(covered_fraction(&region, &[], 3.0), 0.0);
    }

    #[test]
    fn huge_radius_covers_everything() {
        let region = Rect::new(0.0, 0.0, 10.0, 10.0);
        let f = covered_fraction(&region, &[Point::new(5.0, 5.0)], 100.0);
        assert_eq!(f, 1.0);
    }

    #[test]
    fn single_sensor_covers_disk() {
        let region = Rect::new(0.0, 0.0, 10.0, 10.0);
        // Radius 1.6 around (5.5, 5.5) covers the centre cell and its four
        // orthogonal neighbours (distance 1) but not diagonals (√2 ≈ 1.41
        // is inside too) — compute expected by brute force.
        let f = covered_fraction(&region, &[Point::new(5.5, 5.5)], 1.6);
        let mut expected = 0;
        for cell in region.cells() {
            if cell.center().distance(Point::new(5.5, 5.5)) <= 1.6 {
                expected += 1;
            }
        }
        assert!((f - expected as f64 / 100.0).abs() < 1e-12);
        assert_eq!(expected, 9); // 3×3 block: max centre distance √2 < 1.6
    }

    #[test]
    fn coverage_map_matches_batch_function() {
        let region = Rect::new(2.0, 3.0, 12.0, 9.0);
        let sensors = [
            Point::new(4.0, 5.0),
            Point::new(10.0, 7.0),
            Point::new(0.0, 0.0),
        ];
        let mut map = CoverageMap::new(region, 2.5);
        for s in &sensors {
            map.commit(*s);
        }
        let expected = covered_fraction(&region, &sensors, 2.5);
        assert!((map.fraction() - expected).abs() < 1e-12);
    }

    #[test]
    fn marginal_matches_commit() {
        let region = Rect::new(0.0, 0.0, 8.0, 8.0);
        let mut map = CoverageMap::new(region, 2.0);
        map.commit(Point::new(2.0, 2.0));
        let p = Point::new(3.0, 3.0);
        let predicted = map.marginal_cells(p);
        let before = map.covered_cells();
        let added = map.commit(p);
        assert_eq!(predicted, added);
        assert_eq!(map.covered_cells(), before + added);
    }

    #[test]
    fn fraction_with_is_consistent() {
        let region = Rect::new(0.0, 0.0, 8.0, 8.0);
        let mut map = CoverageMap::new(region, 2.0);
        map.commit(Point::new(1.0, 1.0));
        let p = Point::new(6.0, 6.0);
        let hyp = map.fraction_with(p);
        map.commit(p);
        assert!((map.fraction() - hyp).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_coverage() {
        let region = Rect::new(0.0, 0.0, 5.0, 5.0);
        let mut map = CoverageMap::new(region, 2.0);
        map.commit(Point::new(2.5, 2.5));
        assert!(map.covered_cells() > 0);
        map.reset();
        assert_eq!(map.covered_cells(), 0);
        assert_eq!(map.fraction(), 0.0);
    }

    /// Cells of `region` that no point of `committed` covers and `p`
    /// does, counted straight from [`Rect::cells`] with
    /// [`Point::distance_squared`].
    fn brute_marginal(region: &Rect, radius: f64, committed: &[Point], p: Point) -> usize {
        let r2 = radius * radius;
        region
            .cells()
            .map(|cell| cell.center())
            .filter(|c| !committed.iter().any(|s| c.distance_squared(*s) <= r2))
            .filter(|c| c.distance_squared(p) <= r2)
            .count()
    }

    #[test]
    fn edge_cases_match_brute_force() {
        // An empty region: nothing to cover, fraction 0.
        let mut map = CoverageMap::new(Rect::new(1.2, 1.2, 1.3, 1.3), 3.0);
        let inside = Point::new(1.25, 1.25);
        assert_eq!(map.marginal_cells(inside), 0);
        assert_eq!(map.commit(inside), 0);
        assert_eq!(map.fraction(), 0.0);
        assert_eq!(map.fraction_with(inside), 0.0);

        // Radius 0: a point on a cell centre covers exactly that cell.
        let region = Rect::new(0.0, 0.0, 6.0, 4.0);
        let mut map = CoverageMap::new(region, 0.0);
        assert_eq!(map.marginal_cells(Point::new(2.5, 1.5)), 1);
        assert_eq!(map.marginal_cells(Point::new(2.4, 1.5)), 0);
        assert_eq!(map.commit(Point::new(2.5, 1.5)), 1);
        assert_eq!(map.marginal_cells(Point::new(2.5, 1.5)), 0);

        // A NaN point covers nothing, as a probe or as a commit.
        let nan = Point::new(f64::NAN, 2.0);
        let mut map = CoverageMap::new(region, 2.0);
        assert_eq!(map.marginal_cells(nan), 0);
        assert_eq!(map.commit(nan), 0);
        assert_eq!(map.covered_cells(), 0);
        map.commit(Point::new(1.0, 1.0));
        assert_eq!(map.marginal_cells(nan), 0);

        // Reset brings every cell back.
        map.reset();
        assert_eq!(map.covered_cells(), 0);
        let p = Point::new(3.0, 2.0);
        assert_eq!(map.marginal_cells(p), brute_marginal(&region, 2.0, &[], p));
    }

    proptest! {
        /// Coverage is monotone and submodular in the committed set:
        /// marginals never increase as the set grows.
        #[test]
        fn marginals_are_decreasing(
            pts in proptest::collection::vec((0.0..10.0f64, 0.0..10.0f64), 2..8),
            probe in (0.0..10.0f64, 0.0..10.0f64),
        ) {
            let region = Rect::new(0.0, 0.0, 10.0, 10.0);
            let mut map = CoverageMap::new(region, 2.0);
            let probe = Point::new(probe.0, probe.1);
            let mut last = map.marginal_cells(probe);
            for (x, y) in pts {
                map.commit(Point::new(x, y));
                let m = map.marginal_cells(probe);
                prop_assert!(m <= last);
                last = m;
            }
        }

        #[test]
        fn fraction_never_exceeds_one(
            pts in proptest::collection::vec((0.0..10.0f64, 0.0..10.0f64), 0..12),
        ) {
            let region = Rect::new(0.0, 0.0, 10.0, 10.0);
            let mut map = CoverageMap::new(region, 3.0);
            for (x, y) in pts {
                map.commit(Point::new(x, y));
            }
            prop_assert!(map.fraction() <= 1.0);
            prop_assert!(map.fraction() >= 0.0);
        }

        /// Committing sensors one by one covers exactly the fraction the
        /// batch function computes, on random layouts and regions.
        #[test]
        fn coverage_map_matches_batch_function_on_random_layouts(
            pts in proptest::collection::vec((0.0..30.0f64, 0.0..30.0f64), 0..15),
            region in (0.0..20.0f64, 0.0..20.0f64, 1.0..15.0f64, 1.0..15.0f64),
            radius in 0.0..8.0f64,
        ) {
            let sensors: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
            let rect = Rect::new(region.0, region.1, region.0 + region.2, region.1 + region.3);
            let mut map = CoverageMap::new(rect, radius);
            for s in &sensors {
                map.commit(*s);
            }
            prop_assert_eq!(map.fraction(), covered_fraction(&rect, &sensors, radius));
        }

        /// After every commit (NaN points and a zero radius included),
        /// each probe's marginal equals a brute-force count over the
        /// region's cells, and `reset` returns to the empty map.
        #[test]
        fn marginals_match_brute_force_after_commits(
            pts in proptest::collection::vec((-4.0..24.0f64, -4.0..24.0f64), 0..10),
            probes in proptest::collection::vec((-4.0..24.0f64, -4.0..24.0f64), 1..6),
            region in (0.0..15.0f64, 0.0..15.0f64, 0.0..10.0f64, 0.0..10.0f64),
            shape in (0.0..6.0f64, proptest::prop::bool::ANY, proptest::prop::bool::ANY, 0usize..12),
        ) {
            let (radius, zero_radius, on_centres, nan_at) = shape;
            let radius = if zero_radius { 0.0 } else { radius };
            // Snapped to cell centres, a zero radius still covers cells.
            let point = |(x, y): (f64, f64)| {
                if on_centres {
                    Point::new(x.floor() + 0.5, y.floor() + 0.5)
                } else {
                    Point::new(x, y)
                }
            };
            let rect = Rect::new(region.0, region.1, region.0 + region.2, region.1 + region.3);
            let mut probes: Vec<Point> = probes.into_iter().map(point).collect();
            probes.push(Point::new(f64::NAN, f64::NAN));
            let mut map = CoverageMap::new(rect, radius);
            let mut committed: Vec<Point> = Vec::new();
            for (i, &xy) in pts.iter().enumerate() {
                let p = if i == nan_at { Point::new(f64::NAN, xy.1) } else { point(xy) };
                let predicted = map.marginal_cells(p);
                prop_assert_eq!(map.commit(p), predicted);
                committed.push(p);
                for &q in &probes {
                    prop_assert_eq!(
                        map.marginal_cells(q),
                        brute_marginal(&rect, radius, &committed, q)
                    );
                }
            }
            map.reset();
            prop_assert_eq!(map.covered_cells(), 0);
            for &q in &probes {
                prop_assert_eq!(map.marginal_cells(q), brute_marginal(&rect, radius, &[], q));
            }
        }
    }
}
