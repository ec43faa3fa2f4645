//! The Local Search point scheduler (§3.1.2).
//!
//! Runs the Feige-et-al. deterministic local search on the Eq. 12 utility
//! — implemented incrementally in `ps_solver::ufl::solve_local_search` —
//! then derives assignments and Eq. 11 payments exactly like the optimal
//! scheduler. "It can be shown that u(·) is a (non-monotone) submodular
//! function", which our property tests confirm.

use crate::alloc::{schedule_eq9, PointAllocation, PointScheduler};
use crate::exec::Threads;
use crate::model::SensorSnapshot;
use crate::query::PointQuery;
use crate::valuation::quality::QualityModel;
use ps_geo::SensorIndex;
use ps_solver::ufl;

/// The Local Search scheduler of §3.1.2 (improvement threshold
/// `1 + ε/n²` with ε = 0.01).
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalSearchScheduler;

impl LocalSearchScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Self
    }
}

impl PointScheduler for LocalSearchScheduler {
    /// Shards the Eq. 9 problem build like the optimal scheduler; the
    /// deterministic local-search walk then runs serially on the
    /// identical problem, so the schedule is bit-identical for every
    /// thread count.
    fn schedule_sharded(
        &self,
        queries: &[PointQuery],
        sensors: &[SensorSnapshot],
        quality: &QualityModel,
        index: Option<&SensorIndex>,
        threads: Threads,
    ) -> PointAllocation {
        schedule_eq9(queries, sensors, quality, index, threads, |problem, _| {
            ufl::solve_local_search(problem)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::optimal::OptimalScheduler;
    use crate::model::QueryId;
    use crate::query::QueryOrigin;
    use ps_geo::Point;
    use ps_solver::submodular::verify_submodular;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn pq(id: u64, x: f64, y: f64, budget: f64) -> PointQuery {
        PointQuery {
            id: QueryId(id),
            loc: Point::new(x, y),
            budget,
            offset: 0.0,
            theta_min: 0.2,
            origin: QueryOrigin::EndUser,
        }
    }

    fn random_instance(
        rng: &mut StdRng,
        n_queries: usize,
        n_sensors: usize,
    ) -> (Vec<PointQuery>, Vec<SensorSnapshot>) {
        let queries = (0..n_queries)
            .map(|i| {
                pq(
                    i as u64,
                    rng.gen_range(0.0..20.0f64).floor() + 0.5,
                    rng.gen_range(0.0..20.0f64).floor() + 0.5,
                    rng.gen_range(7.0..35.0),
                )
            })
            .collect();
        let sensors = (0..n_sensors)
            .map(|id| SensorSnapshot {
                id,
                loc: Point::new(rng.gen_range(0.0..20.0), rng.gen_range(0.0..20.0)),
                cost: 10.0,
                trust: 1.0,
                inaccuracy: rng.gen_range(0.0..0.2),
            })
            .collect();
        (queries, sensors)
    }

    #[test]
    fn local_search_close_to_optimal_on_random_slots() {
        let mut rng = StdRng::seed_from_u64(2013);
        let quality = QualityModel::new(5.0);
        let mut ls_total = 0.0;
        let mut opt_total = 0.0;
        for _ in 0..10 {
            let (queries, sensors) = random_instance(&mut rng, 20, 12);
            let ls = LocalSearchScheduler::new().schedule(&queries, &sensors, &quality);
            let opt = OptimalScheduler::new().schedule(&queries, &sensors, &quality);
            assert!(
                ls.welfare <= opt.welfare + 1e-7,
                "LS {} beat optimal {}",
                ls.welfare,
                opt.welfare
            );
            ls_total += ls.welfare;
            opt_total += opt.welfare;
        }
        // Fig. 2(a): "the Local Search algorithm finds solutions close to
        // the optimal ones". Demand at least 80 % in aggregate.
        assert!(
            ls_total >= 0.8 * opt_total,
            "LS total {ls_total} below 80 % of optimal {opt_total}"
        );
    }

    #[test]
    fn payments_respect_individual_rationality() {
        let mut rng = StdRng::seed_from_u64(99);
        let quality = QualityModel::new(5.0);
        let (queries, sensors) = random_instance(&mut rng, 30, 15);
        let alloc = LocalSearchScheduler::new().schedule(&queries, &sensors, &quality);
        for a in alloc.assignments.iter().flatten() {
            assert!(
                a.payment <= a.value + 1e-9,
                "payment {} exceeds value {}",
                a.payment,
                a.value
            );
        }
        // Cost recovery: receipts match costs of used sensors.
        let mut receipts = vec![0.0; sensors.len()];
        for a in alloc.assignments.iter().flatten() {
            receipts[a.sensor] += a.payment;
        }
        for &f in &alloc.sensors_used {
            assert!((receipts[f] - sensors[f].cost).abs() < 1e-9);
        }
    }

    /// The paper's claim under Eq. 12: the point-schedule utility is a
    /// non-monotone submodular set function of the chosen sensors.
    #[test]
    fn eq12_utility_is_submodular_and_nonmonotone() {
        let mut rng = StdRng::seed_from_u64(7);
        let quality = QualityModel::new(5.0);
        let (queries, sensors) = random_instance(&mut rng, 12, 8);
        let groups = crate::alloc::group_by_location(&queries);
        let problem = crate::alloc::build_welfare_problem(
            &queries,
            &groups,
            &sensors,
            &quality,
            &crate::model::scan_all(&sensors),
            Threads::single(),
        );
        let f = |set: &[usize]| {
            let open: Vec<bool> = (0..sensors.len()).map(|i| set.contains(&i)).collect();
            problem.welfare_of(&open)
        };
        assert!(
            verify_submodular(sensors.len(), f, 1e-9),
            "Eq. 12 utility not submodular"
        );
        // Non-monotone: adding a useless costly sensor lowers u.
        // (With cost 10 > any marginal gain of a far sensor this holds by
        // construction whenever some sensor serves nothing.)
    }
}
