//! The coverage-based aggregate valuation of Eq. 5:
//!
//! ```text
//! v_q(S_q) = B_q · G_q(S_q) · (Σ_{s∈S_q} θ_s) / |S_q|
//! ```
//!
//! where `G_q` is the fraction of the queried region covered by the
//! selected sensors and `θ_s` is each sensor's intrinsic reading quality
//! `(1 − γ_s)·τ_s` (a sensor taking a measurement at its own location has
//! no distance penalty).
//!
//! The paper notes (§3.2) that although coverage alone is submodular,
//! "involving sensor quality in evaluation of a set of sensors destroys
//! the submodularity of the function" — a property our tests verify via
//! `ps_solver::submodular::verify_submodular`.

use crate::model::SensorSnapshot;
use crate::query::{AggregateQuery, TrajectoryQuery};
use crate::valuation::{SetValuation, SpatialSupport};
use ps_geo::{CoverageMap, Rect};

/// Incremental Eq. 5 valuation backed by a coverage bitmap.
#[derive(Debug, Clone)]
pub struct AggregateValuation {
    budget: f64,
    coverage: CoverageMap,
    sum_theta: f64,
    count: usize,
}

impl AggregateValuation {
    /// Builds the valuation for `query` with sensing radius
    /// `sensing_range` (10 units in §4.4).
    pub fn new(query: &AggregateQuery, sensing_range: f64) -> Self {
        Self {
            budget: query.budget,
            coverage: CoverageMap::new(query.region, sensing_range),
            sum_theta: 0.0,
            count: 0,
        }
    }

    /// Trajectory queries are "a special case of spatial aggregate query"
    /// (§2.2.3): the region of interest is the corridor around the path.
    pub fn for_trajectory(query: &TrajectoryQuery, sensing_range: f64) -> Self {
        Self {
            budget: query.budget,
            coverage: CoverageMap::new(query.trajectory.corridor(sensing_range), sensing_range),
            sum_theta: 0.0,
            count: 0,
        }
    }

    /// Number of committed sensors.
    pub fn committed_count(&self) -> usize {
        self.count
    }

    /// Current covered fraction `G_q`.
    pub fn coverage_fraction(&self) -> f64 {
        self.coverage.fraction()
    }

    fn value_parts(&self, fraction: f64, sum_theta: f64, count: usize) -> f64 {
        if count == 0 {
            return 0.0;
        }
        self.budget * fraction * (sum_theta / count as f64)
    }
}

impl SetValuation for AggregateValuation {
    fn current_value(&self) -> f64 {
        self.value_parts(self.coverage.fraction(), self.sum_theta, self.count)
    }

    fn marginal(&self, sensor: &SensorSnapshot) -> f64 {
        let new_fraction = self.coverage.fraction_with(sensor.loc);
        let theta = sensor.intrinsic_quality();
        let new_value = self.value_parts(new_fraction, self.sum_theta + theta, self.count + 1);
        new_value - self.current_value()
    }

    fn commit(&mut self, sensor: &SensorSnapshot) {
        self.coverage.commit(sensor.loc);
        self.sum_theta += sensor.intrinsic_quality();
        self.count += 1;
    }

    fn is_relevant(&self, sensor: &SensorSnapshot) -> bool {
        // A sensor can contribute coverage when within sensing range of
        // the region (it can also *reduce* the quality average from
        // further away, but Algorithm 1 only ever takes positive
        // marginals, so the coverage test is the right filter).
        self.coverage.region().distance_to_point(sensor.loc) <= self.coverage.radius()
    }

    fn support(&self) -> Option<SpatialSupport> {
        // The region expanded by the sensing radius contains (as a
        // Chebyshev superset of the Euclidean expansion) every sensor
        // `is_relevant` can accept; the exact distance test still runs on
        // the candidates.
        let region = self.coverage.region();
        let r = self.coverage.radius();
        Some(SpatialSupport::Rect(Rect::new(
            region.min_x - r,
            region.min_y - r,
            region.max_x + r,
            region.max_y + r,
        )))
    }

    fn max_value(&self) -> f64 {
        self.budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::QueryId;
    use crate::query::AggregateKind;
    use ps_geo::{Point, Rect, Trajectory};
    use ps_solver::submodular::verify_submodular;

    fn sensor(id: usize, x: f64, y: f64, trust: f64, gamma: f64) -> SensorSnapshot {
        SensorSnapshot {
            id,
            loc: Point::new(x, y),
            cost: 10.0,
            trust,
            inaccuracy: gamma,
        }
    }

    fn query(region: Rect, budget: f64) -> AggregateQuery {
        AggregateQuery {
            id: QueryId(7),
            region,
            budget,
            kind: AggregateKind::Average,
        }
    }

    #[test]
    fn empty_set_is_worthless() {
        let v = AggregateValuation::new(&query(Rect::new(0.0, 0.0, 10.0, 10.0), 30.0), 3.0);
        assert_eq!(v.current_value(), 0.0);
    }

    #[test]
    fn full_coverage_perfect_sensors_reach_budget() {
        let q = query(Rect::new(0.0, 0.0, 4.0, 4.0), 30.0);
        let mut v = AggregateValuation::new(&q, 10.0); // giant radius
        v.commit(&sensor(0, 2.0, 2.0, 1.0, 0.0));
        assert!((v.current_value() - 30.0).abs() < 1e-9);
        assert_eq!(v.coverage_fraction(), 1.0);
    }

    #[test]
    fn low_quality_sensor_drags_average_down() {
        let q = query(Rect::new(0.0, 0.0, 4.0, 4.0), 30.0);
        let mut v = AggregateValuation::new(&q, 10.0);
        v.commit(&sensor(0, 2.0, 2.0, 1.0, 0.0));
        let junk = sensor(1, 2.0, 2.0, 0.1, 0.0);
        // Coverage is already 1; the junk sensor only lowers avg quality.
        assert!(v.marginal(&junk) < 0.0);
    }

    #[test]
    fn marginal_matches_commit_delta() {
        let q = query(Rect::new(0.0, 0.0, 12.0, 8.0), 50.0);
        let mut v = AggregateValuation::new(&q, 3.0);
        v.commit(&sensor(0, 2.0, 2.0, 0.9, 0.1));
        let s = sensor(1, 8.0, 5.0, 0.8, 0.05);
        let m = v.marginal(&s);
        let before = v.current_value();
        v.commit(&s);
        assert!((v.current_value() - before - m).abs() < 1e-12);
    }

    #[test]
    fn relevance_uses_region_distance() {
        let q = query(Rect::new(0.0, 0.0, 10.0, 10.0), 30.0);
        let v = AggregateValuation::new(&q, 3.0);
        assert!(v.is_relevant(&sensor(0, 12.0, 5.0, 1.0, 0.0))); // 2 away
        assert!(!v.is_relevant(&sensor(0, 14.0, 5.0, 1.0, 0.0))); // 4 away
    }

    #[test]
    fn trajectory_valuation_covers_corridor() {
        let t = TrajectoryQuery {
            id: QueryId(9),
            trajectory: Trajectory::new(vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)]),
            budget: 20.0,
            kind: AggregateKind::Max,
        };
        let mut v = AggregateValuation::for_trajectory(&t, 2.0);
        assert_eq!(v.current_value(), 0.0);
        v.commit(&sensor(0, 5.0, 0.0, 1.0, 0.0));
        assert!(v.current_value() > 0.0);
        assert!(v.coverage_fraction() > 0.0);
    }

    /// The paper's §3.2 remark: Eq. 5 *with* the quality average is not
    /// submodular, even though pure coverage is.
    #[test]
    fn eq5_is_not_submodular_but_pure_coverage_is() {
        let region = Rect::new(0.0, 0.0, 8.0, 8.0);
        let sensors: Vec<SensorSnapshot> = vec![
            sensor(0, 1.0, 1.0, 1.0, 0.0),
            sensor(1, 7.0, 7.0, 0.3, 0.0),
            sensor(2, 4.0, 4.0, 0.2, 0.1),
            sensor(3, 1.0, 7.0, 0.9, 0.15),
        ];
        let q = query(region, 30.0);
        let eq5 = |set: &[usize]| {
            let mut v = AggregateValuation::new(&q, 3.0);
            for &i in set {
                v.commit(&sensors[i]);
            }
            v.current_value()
        };
        assert!(
            !verify_submodular(sensors.len(), eq5, 1e-9),
            "Eq. 5 looked submodular"
        );

        let coverage_only = |set: &[usize]| {
            let mut cov = CoverageMap::new(region, 3.0);
            for &i in set {
                cov.commit(sensors[i].loc);
            }
            cov.fraction()
        };
        assert!(
            verify_submodular(sensors.len(), coverage_only, 1e-9),
            "pure coverage must be submodular"
        );
    }
}
