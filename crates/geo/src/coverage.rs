//! Coverage geometry for spatial aggregate queries (Eq. 5 of the paper).
//!
//! The example aggregate valuation function multiplies the query budget by
//! a *coverage* term `G_q(S_q)`: the fraction of the queried region that
//! lies within sensing range of at least one selected sensor. The greedy
//! selection of Algorithm 1 evaluates marginal coverage gains thousands of
//! times per time slot, so [`CoverageMap`] supports O(covered-cells)
//! incremental marginals instead of full recomputation.

use crate::{Cell, Point, Rect};

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

/// Incremental coverage bitmap over the cells of a query region.
///
/// Cells are unit squares; a cell counts as covered when its centre is
/// within the sensing radius of a committed sensor.
#[derive(Debug, Clone)]
pub struct CoverageMap {
    region: Rect,
    radius: f64,
    cells: Vec<Cell>,
    covered: Vec<bool>,
    covered_count: usize,
}

impl CoverageMap {
    /// Creates an empty coverage map over `region` with sensing `radius`.
    pub fn new(region: Rect, radius: f64) -> Self {
        let cells: Vec<Cell> = region.cells().collect();
        let covered = vec![false; cells.len()];
        Self {
            region,
            radius,
            cells,
            covered,
            covered_count: 0,
        }
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
        self.covered_count
    }

    /// Current covered fraction (`G_q` with the simple area-fraction
    /// coverage function of Eq. 5). Zero when the region has no cells.
    pub fn fraction(&self) -> f64 {
        if self.cells.is_empty() {
            0.0
        } else {
            self.covered_count as f64 / self.cells.len() as f64
        }
    }

    /// Number of *additional* cells a sensor at `p` would cover.
    pub fn marginal_cells(&self, p: Point) -> usize {
        let r2 = self.radius * self.radius;
        self.cells
            .iter()
            .zip(&self.covered)
            .filter(|(cell, cov)| !**cov && cell.center().distance_squared(p) <= r2)
            .count()
    }

    /// Coverage fraction after hypothetically adding a sensor at `p`,
    /// without mutating the map.
    pub fn fraction_with(&self, p: Point) -> f64 {
        if self.cells.is_empty() {
            return 0.0;
        }
        (self.covered_count + self.marginal_cells(p)) as f64 / self.cells.len() as f64
    }

    /// Marks the cells within range of a sensor at `p` as covered and
    /// returns how many cells became newly covered.
    pub fn commit(&mut self, p: Point) -> usize {
        let r2 = self.radius * self.radius;
        let mut added = 0;
        for (cell, cov) in self.cells.iter().zip(self.covered.iter_mut()) {
            if !*cov && cell.center().distance_squared(p) <= r2 {
                *cov = true;
                added += 1;
            }
        }
        self.covered_count += added;
        added
    }

    /// Clears all coverage back to the empty state.
    pub fn reset(&mut self) {
        self.covered.iter_mut().for_each(|c| *c = false);
        self.covered_count = 0;
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
    }
}
