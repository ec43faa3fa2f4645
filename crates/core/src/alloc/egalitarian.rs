//! The egalitarian objective (§2): "Alternatively, an egalitarian
//! approach could be followed, where the number of users with positive
//! utility is maximized."
//!
//! The paper states the alternative but evaluates only welfare
//! maximization; this module implements it so the two objectives can be
//! compared (see the `ablation` experiment in `ps-sim`). The scheduler
//! greedily opens the sensor that *satisfies the most additional queries
//! per unit of cost*, subject to cost recovery (the queries sharing a
//! sensor must be able to pay for it within their values), then prunes
//! sensors that became redundant.

use crate::alloc::{schedule_eq9, LocationGroups, PointAllocation, PointScheduler};
use crate::exec::Threads;
use crate::model::SensorSnapshot;
use crate::query::PointQuery;
use crate::valuation::quality::QualityModel;
use ps_geo::SensorIndex;
use ps_solver::ufl::{WelfareProblem, WelfareSolution};

/// Point scheduler maximizing the *count* of positively served queries
/// instead of total welfare.
#[derive(Debug, Clone, Copy, Default)]
pub struct EgalitarianScheduler;

impl EgalitarianScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Self
    }
}

impl PointScheduler for EgalitarianScheduler {
    fn schedule_sharded(
        &self,
        queries: &[PointQuery],
        sensors: &[SensorSnapshot],
        quality: &QualityModel,
        index: Option<&SensorIndex>,
        threads: Threads,
    ) -> PointAllocation {
        schedule_eq9(queries, sensors, quality, index, threads, solve_by_count)
    }
}

/// Greedy set-cover-flavoured selection: per step, open the sensor
/// maximizing (#newly served queries) / cost among sensors whose served
/// value covers their cost (individual rationality must survive Eq. 11
/// payments).
///
/// Each sensor's clients are listed once up front, in ascending client
/// order with the client's first candidate entry for that sensor, so a
/// step walks every candidate edge once and sums values in the same
/// client order as a scan over all clients would.
fn solve_by_count(problem: &WelfareProblem, groups: &LocationGroups) -> WelfareSolution {
    let mut clients_of: Vec<Vec<(usize, f64)>> = vec![Vec::new(); problem.num_facilities()];
    for (client, cands) in problem.client_values.iter().enumerate() {
        for &(f, v) in cands {
            if clients_of[f].last().map(|&(c, _)| c) != Some(client) {
                clients_of[f].push((client, v));
            }
        }
    }
    let mut open = vec![false; problem.num_facilities()];
    let mut served = vec![false; problem.num_clients()];
    loop {
        let mut best: Option<(usize, f64)> = None;
        for (f, &cost) in problem.facility_cost.iter().enumerate() {
            if open[f] {
                continue;
            }
            let mut new_queries = 0usize;
            let mut value = 0.0;
            for &(client, v) in &clients_of[f] {
                if !served[client] {
                    new_queries += groups.groups[client].len();
                    value += v;
                }
            }
            if new_queries == 0 || value <= cost {
                continue; // cost recovery impossible or nothing new
            }
            let score = new_queries as f64 / cost.max(1e-9);
            match best {
                Some((_, s)) if s >= score => {}
                _ => best = Some((f, score)),
            }
        }
        let Some((f, _)) = best else { break };
        open[f] = true;
        for &(client, _) in &clients_of[f] {
            served[client] = true;
        }
    }
    problem.solution_from_open(&open)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::optimal::OptimalScheduler;
    use crate::model::QueryId;
    use crate::query::QueryOrigin;
    use ps_geo::Point;
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

    fn sensor(id: usize, x: f64, y: f64) -> SensorSnapshot {
        SensorSnapshot {
            id,
            loc: Point::new(x, y),
            cost: 10.0,
            trust: 1.0,
            inaccuracy: 0.0,
        }
    }

    #[test]
    fn prefers_many_cheap_satisfactions_over_one_lucrative() {
        // Sensor 0 serves three small queries; sensor 1 serves one big
        // query. Welfare prefers the big one when values differ; the
        // egalitarian count prefers the three.
        let queries = vec![
            pq(0, 0.0, 0.0, 6.0),
            pq(1, 1.0, 0.0, 6.0),
            pq(2, 0.0, 1.0, 6.0),
            pq(3, 30.0, 30.0, 100.0),
        ];
        let sensors = vec![sensor(0, 0.4, 0.4), sensor(1, 30.5, 30.0)];
        let quality = QualityModel::new(5.0);
        let alloc = EgalitarianScheduler::new().schedule(&queries, &sensors, &quality);
        // Both sensors recover costs here, so both open — but the scoring
        // must have picked sensor 0 first.
        assert!(alloc.satisfied_count() >= 3);
        assert!(alloc.assignments[0].is_some());
        assert!(alloc.assignments[1].is_some());
        assert!(alloc.assignments[2].is_some());
    }

    #[test]
    fn never_opens_cost_unrecoverable_sensors() {
        let queries = vec![pq(0, 0.0, 0.0, 7.0)]; // max value 7 < cost 10
        let sensors = vec![sensor(0, 0.0, 0.0)];
        let quality = QualityModel::new(5.0);
        let alloc = EgalitarianScheduler::new().schedule(&queries, &sensors, &quality);
        assert_eq!(alloc.satisfied_count(), 0);
        assert_eq!(alloc.welfare, 0.0);
    }

    #[test]
    fn satisfaction_at_least_welfare_optimal_on_spread_workloads() {
        // The design goal: on workloads where welfare maximization refuses
        // marginal queries, the egalitarian count does at least as well on
        // satisfaction (possibly worse on welfare).
        let mut rng = StdRng::seed_from_u64(12);
        let quality = QualityModel::new(5.0);
        let mut ega_sat = 0usize;
        let mut opt_sat = 0usize;
        let mut ega_welfare = 0.0;
        let mut opt_welfare = 0.0;
        for _ in 0..10 {
            let queries: Vec<PointQuery> = (0..25)
                .map(|i| {
                    pq(
                        i,
                        rng.gen_range(0.0..15.0f64).floor() + 0.5,
                        rng.gen_range(0.0..15.0f64).floor() + 0.5,
                        rng.gen_range(11.0..30.0),
                    )
                })
                .collect();
            let sensors: Vec<SensorSnapshot> = (0..8)
                .map(|id| sensor(id, rng.gen_range(0.0..15.0), rng.gen_range(0.0..15.0)))
                .collect();
            let ega = EgalitarianScheduler::new().schedule(&queries, &sensors, &quality);
            let opt = OptimalScheduler::new().schedule(&queries, &sensors, &quality);
            ega_sat += ega.satisfied_count();
            opt_sat += opt.satisfied_count();
            ega_welfare += ega.welfare;
            opt_welfare += opt.welfare;
            // The welfare optimum is an upper bound for any scheduler.
            assert!(ega.welfare <= opt.welfare + 1e-7);
        }
        // The greedy count heuristic should stay close to the welfare
        // optimum's satisfaction while never beating its welfare.
        assert!(
            ega_sat as f64 >= 0.85 * opt_sat as f64,
            "egalitarian satisfied {ega_sat} far below welfare-optimal {opt_sat}"
        );
        assert!(ega_welfare <= opt_welfare + 1e-7);
    }

    /// A slot with enough distinct locations to split the sharded Eq. 9
    /// build gets the serial schedule at 3 threads.
    #[test]
    fn schedule_is_thread_count_invariant() {
        let mut rng = StdRng::seed_from_u64(47);
        let queries: Vec<PointQuery> = (0..300)
            .map(|i| {
                pq(
                    i,
                    rng.gen_range(0.0..20.0f64).floor() + 0.5,
                    rng.gen_range(0.0..20.0f64).floor() + 0.5,
                    rng.gen_range(11.0..30.0),
                )
            })
            .collect();
        let sensors: Vec<SensorSnapshot> = (0..60)
            .map(|id| sensor(id, rng.gen_range(0.0..20.0), rng.gen_range(0.0..20.0)))
            .collect();
        assert!(crate::alloc::group_by_location(&queries).groups.len() >= 2 * 64);
        let quality = QualityModel::new(5.0);
        let schedule = |threads| {
            let alloc = EgalitarianScheduler::new().schedule_sharded(
                &queries,
                &sensors,
                &quality,
                None,
                Threads::new(threads),
            );
            format!("{alloc:?}")
        };
        assert_eq!(schedule(3), schedule(1));
    }

    #[test]
    fn payments_still_respect_individual_rationality() {
        let queries = vec![pq(0, 0.0, 0.0, 15.0), pq(1, 0.0, 0.0, 12.0)];
        let sensors = vec![sensor(0, 0.5, 0.0)];
        let quality = QualityModel::new(5.0);
        let alloc = EgalitarianScheduler::new().schedule(&queries, &sensors, &quality);
        for a in alloc.assignments.iter().flatten() {
            assert!(a.payment <= a.value + 1e-9);
        }
    }
}
