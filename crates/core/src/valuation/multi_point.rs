//! Multiple-sensor point queries (§2.2.1, Fig. 1).
//!
//! "The number of samples required for finding the value of a phenomenon
//! depends on the phenomenon itself and the trustworthiness of the
//! sensors. For example, it might be necessary to take redundant
//! measurements to assess the trustworthiness of a particular sensor."
//!
//! [`MultiPointValuation`] implements the redundancy valuation the paper
//! sketches: a set of independent readings of qualities `θ₁ … θ_k`
//! confirms the phenomenon value with "confidence"
//! `1 − Π_i (1 − θ_i)` (each reading independently fails with probability
//! `1 − θ_i`), and the query pays its budget times that confidence:
//!
//! ```text
//! v_q(S) = B_q · ( 1 − Π_{s∈S} (1 − θ_{q,s}) )
//! ```
//!
//! This function is monotone submodular in the chosen set (diminishing
//! returns on redundancy), so Algorithm 1 handles it gracefully — our
//! tests verify submodularity with the brute-force checker.

use crate::model::SensorSnapshot;
use crate::query::PointQuery;
use crate::valuation::quality::QualityModel;
use crate::valuation::SetValuation;

/// Incremental redundancy valuation for a multiple-sensor point query.
#[derive(Debug, Clone)]
pub struct MultiPointValuation {
    query: PointQuery,
    quality_model: QualityModel,
    /// `Π (1 − θ_i)` over committed readings.
    miss_probability: f64,
    committed: usize,
    /// Optional cap on useful redundancy (extra sensors beyond this add
    /// nothing); `usize::MAX` disables the cap.
    max_sensors: usize,
}

impl MultiPointValuation {
    /// Wraps a point query; `max_sensors` caps useful redundancy.
    pub fn new(query: PointQuery, quality_model: QualityModel, max_sensors: usize) -> Self {
        Self {
            query,
            quality_model,
            miss_probability: 1.0,
            committed: 0,
            max_sensors: max_sensors.max(1),
        }
    }

    /// The underlying query.
    pub fn query(&self) -> &PointQuery {
        &self.query
    }

    /// Confidence achieved so far: `1 − Π (1 − θ_i)`.
    pub fn confidence(&self) -> f64 {
        1.0 - self.miss_probability
    }

    /// Number of committed readings.
    pub fn committed_count(&self) -> usize {
        self.committed
    }

    fn usable_quality(&self, sensor: &SensorSnapshot) -> f64 {
        let theta = self.quality_model.quality(sensor, self.query.loc);
        if theta >= self.query.theta_min {
            theta
        } else {
            0.0
        }
    }
}

impl SetValuation for MultiPointValuation {
    fn current_value(&self) -> f64 {
        self.query.budget * self.confidence()
    }

    fn marginal(&self, sensor: &SensorSnapshot) -> f64 {
        if self.committed >= self.max_sensors {
            return 0.0;
        }
        let theta = self.usable_quality(sensor);
        if theta <= 0.0 {
            return 0.0;
        }
        // Δv = B·[ (1 − m(1−θ)) − (1 − m) ] = B·m·θ.
        self.query.budget * self.miss_probability * theta
    }

    fn commit(&mut self, sensor: &SensorSnapshot) {
        if self.committed >= self.max_sensors {
            return;
        }
        let theta = self.usable_quality(sensor);
        if theta <= 0.0 {
            return;
        }
        self.miss_probability *= 1.0 - theta;
        self.committed += 1;
    }

    fn is_relevant(&self, sensor: &SensorSnapshot) -> bool {
        self.quality_model.in_range(sensor, self.query.loc)
    }

    fn max_value(&self) -> f64 {
        self.query.budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::QueryId;
    use crate::query::QueryOrigin;
    use ps_geo::Point;
    use ps_solver::submodular::{verify_monotone, verify_submodular};

    fn sensor(id: usize, x: f64, trust: f64) -> SensorSnapshot {
        SensorSnapshot {
            id,
            loc: Point::new(x, 0.0),
            cost: 10.0,
            trust,
            inaccuracy: 0.0,
        }
    }

    fn query(budget: f64) -> PointQuery {
        PointQuery {
            id: QueryId(1),
            loc: Point::ORIGIN,
            budget,
            offset: 0.0,
            theta_min: 0.2,
            origin: QueryOrigin::EndUser,
        }
    }

    fn valuation(budget: f64) -> MultiPointValuation {
        MultiPointValuation::new(query(budget), QualityModel::new(5.0), usize::MAX)
    }

    #[test]
    fn empty_set_has_zero_confidence() {
        let v = valuation(30.0);
        assert_eq!(v.confidence(), 0.0);
        assert_eq!(v.current_value(), 0.0);
    }

    #[test]
    fn single_perfect_reading_saturates() {
        let mut v = valuation(30.0);
        v.commit(&sensor(0, 0.0, 1.0)); // θ = 1
        assert!((v.confidence() - 1.0).abs() < 1e-12);
        assert!((v.current_value() - 30.0).abs() < 1e-12);
        // Nothing left to gain.
        assert_eq!(v.marginal(&sensor(1, 1.0, 1.0)), 0.0);
    }

    #[test]
    fn redundancy_has_diminishing_returns() {
        let mut v = valuation(30.0);
        let s = sensor(0, 2.5, 1.0); // θ = 0.5
        let m1 = v.marginal(&s);
        v.commit(&s);
        let m2 = v.marginal(&sensor(1, 2.5, 1.0));
        v.commit(&sensor(1, 2.5, 1.0));
        let m3 = v.marginal(&sensor(2, 2.5, 1.0));
        assert!(
            m1 > m2 && m2 > m3,
            "marginals not diminishing: {m1} {m2} {m3}"
        );
        // Confidence: 1 − 0.5³ after three identical readings.
        v.commit(&sensor(2, 2.5, 1.0));
        assert!((v.confidence() - (1.0 - 0.125)).abs() < 1e-12);
    }

    #[test]
    fn below_threshold_readings_are_worthless() {
        let mut v = valuation(30.0);
        let junk = sensor(0, 4.5, 1.0); // θ = 0.1 < θ_min
        assert_eq!(v.marginal(&junk), 0.0);
        v.commit(&junk);
        assert_eq!(v.committed_count(), 0);
    }

    #[test]
    fn max_sensors_caps_redundancy() {
        let mut v = MultiPointValuation::new(query(30.0), QualityModel::new(5.0), 2);
        for i in 0..4 {
            v.commit(&sensor(i, 2.5, 1.0));
        }
        assert_eq!(v.committed_count(), 2);
        assert_eq!(v.marginal(&sensor(9, 0.0, 1.0)), 0.0);
    }

    #[test]
    fn marginal_matches_commit_delta() {
        let mut v = valuation(45.0);
        v.commit(&sensor(0, 3.0, 0.8));
        let s = sensor(1, 1.0, 0.9);
        let m = v.marginal(&s);
        let before = v.current_value();
        v.commit(&s);
        assert!((v.current_value() - before - m).abs() < 1e-12);
    }

    #[test]
    fn redundancy_valuation_is_monotone_submodular() {
        let sensors: Vec<SensorSnapshot> = vec![
            sensor(0, 0.5, 1.0),
            sensor(1, 2.0, 0.7),
            sensor(2, 3.5, 0.9),
            sensor(3, 1.0, 0.4),
        ];
        let f = |set: &[usize]| {
            let mut v = valuation(30.0);
            for &i in set {
                v.commit(&sensors[i]);
            }
            v.current_value()
        };
        assert!(verify_monotone(sensors.len(), f, 1e-9));
        assert!(verify_submodular(sensors.len(), f, 1e-9));
    }
}
