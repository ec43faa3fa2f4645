//! The exact point-query schedule of Eq. 9 (§3.1.1).
//!
//! Builds the facility-location welfare problem (sensors = facilities,
//! queried locations = clients) and solves it with the two-phase
//! simplex + branch-and-bound core of `ps_solver` — best-bound search
//! over LP relaxations per connected component, components spread over
//! the engine's worker threads, with Local Search and greedy solutions
//! seeding the incumbent so every solve is *anytime*. Payments follow
//! the proportionate cost allocation of Eq. 11.
//!
//! This module also hosts two companions built on the same problem
//! construction: [`GreedyPointScheduler`] (the marginal-gain opener as a
//! standalone point scheduler, used in ablations) and [`WithLpBound`]
//! (a wrapper that attaches the LP-relaxation bound to any scheduler's
//! allocation, so heuristic welfare can be reported with a certified
//! optimality gap).

use crate::alloc::{
    build_welfare_problem, group_by_location, schedule_eq9, PointAllocation, PointScheduler,
};
use crate::exec::Threads;
use crate::model::{index_or_scan_all, SensorSnapshot};
use crate::query::PointQuery;
use crate::valuation::quality::QualityModel;
use ps_geo::SensorIndex;
use ps_solver::ufl;
use ps_solver::SolveOptions;
use std::time::Duration;

/// The Optimal scheduler of §3.1.1, backed by the `ps_solver` simplex +
/// branch-and-bound core.
///
/// Resource knobs ([`Self::max_nodes`], [`Self::deadline`]) bound the
/// exact search; thanks to heuristic incumbent seeding the schedule is
/// always a feasible allocation at least as good as Local Search, with
/// [`PointAllocation::solve_status`] recording whether optimality was
/// proven. At default options the schedule is deterministic and
/// bit-identical for every thread count.
#[derive(Debug, Clone, Default)]
pub struct OptimalScheduler {
    /// Solver budgets and tolerances for each slot's solve.
    pub options: SolveOptions,
}

impl OptimalScheduler {
    /// Creates the scheduler with default solve limits.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the branch-and-bound node budget of each connected component
    /// of a slot's problem (components do not share it, so the schedule
    /// does not depend on the order in which workers solve them).
    pub fn max_nodes(mut self, nodes: usize) -> Self {
        self.options.max_nodes = nodes;
        self
    }

    /// Sets an anytime wall-clock deadline per slot: once it expires the
    /// solve returns its best incumbent (status `Feasible`) instead of
    /// searching on. Wall-clock-dependent, so schedules may differ run
    /// to run under load — leave unset for bit-reproducible experiments.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.options.deadline = Some(deadline);
        self
    }
}

impl PointScheduler for OptimalScheduler {
    /// The Eq. 9 problem build (per-location candidate collection and
    /// value sums) shards across `threads`, and so does the solve: the
    /// problem's connected components go to the same number of workers
    /// (`ufl::solve_exact`), each under its own node budget, and merge
    /// back in component order. Eq. 11 payments stay serial, so the
    /// schedule is bit-identical for every thread count.
    fn schedule_sharded(
        &self,
        queries: &[PointQuery],
        sensors: &[SensorSnapshot],
        quality: &QualityModel,
        index: Option<&SensorIndex>,
        threads: Threads,
    ) -> PointAllocation {
        schedule_eq9(queries, sensors, quality, index, threads, |problem, _| {
            ufl::solve_exact(problem, &self.options, threads)
        })
    }
}

/// The greedy marginal-gain opener (`ufl::solve_greedy`) as a standalone
/// point scheduler: repeatedly opens the sensor with the largest welfare
/// gain. Cheaper and weaker than Local Search; its role is the ablation
/// axis "how much does search buy over pure greed" in the solver grid.
///
/// Greedy runs on each connected component of the slot's Eq. 9 problem
/// (`WelfareProblem::components`), so an open rescans only its own
/// component, and the components spread over `threads`
/// (`ufl::map_components`). The merged open set is the one greedy opens
/// on the whole problem: a gain never depends on another component's
/// opens, and local ids keep the global order.
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyPointScheduler;

impl GreedyPointScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Self
    }
}

impl PointScheduler for GreedyPointScheduler {
    fn schedule_sharded(
        &self,
        queries: &[PointQuery],
        sensors: &[SensorSnapshot],
        quality: &QualityModel,
        index: Option<&SensorIndex>,
        threads: Threads,
    ) -> PointAllocation {
        schedule_eq9(queries, sensors, quality, index, threads, |problem, _| {
            let components = problem.components();
            let opens =
                ufl::map_components(&components, threads, |sub| ufl::solve_greedy(sub).open);
            let mut open = vec![false; problem.num_facilities()];
            for ((facilities, _), sub_open) in components.iter().zip(opens) {
                for (&f, o) in facilities.iter().zip(sub_open) {
                    open[f] = o;
                }
            }
            problem.solution_from_open(&open)
        })
    }
}

/// Decorates any point scheduler with the certified LP-relaxation bound
/// of each slot it schedules, so heuristic welfare can be reported as an
/// optimality gap instead of only relative to other heuristics.
///
/// The wrapped scheduler's allocation is unchanged except for
/// [`PointAllocation::lp_bound`], which is set to
/// `ufl::lp_relaxation_bound` of the slot's Eq. 9 problem (the same
/// problem the scheduler solved — built again here, which costs one
/// extra pass over candidates plus the root LPs, spread over `threads`).
#[derive(Debug, Clone, Default)]
pub struct WithLpBound<S> {
    /// The scheduler producing the actual allocation.
    pub inner: S,
}

impl<S> WithLpBound<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        Self { inner }
    }
}

impl<S: PointScheduler> PointScheduler for WithLpBound<S> {
    fn schedule_sharded(
        &self,
        queries: &[PointQuery],
        sensors: &[SensorSnapshot],
        quality: &QualityModel,
        index: Option<&SensorIndex>,
        threads: Threads,
    ) -> PointAllocation {
        let mut alloc = self
            .inner
            .schedule_sharded(queries, sensors, quality, index, threads);
        if queries.is_empty() || sensors.is_empty() {
            return alloc;
        }
        let groups = group_by_location(queries);
        let index = index_or_scan_all(index, sensors);
        let problem = build_welfare_problem(queries, &groups, sensors, quality, &index, threads);
        alloc.lp_bound = Some(ufl::lp_relaxation_bound(&problem, threads));
        alloc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::local_search::LocalSearchScheduler;
    use crate::model::QueryId;
    use crate::query::QueryOrigin;
    use ps_geo::Point;
    use ps_solver::SolveStatus;

    fn pq(id: u64, x: f64, budget: f64) -> PointQuery {
        PointQuery {
            id: QueryId(id),
            loc: Point::new(x, 0.0),
            budget,
            offset: 0.0,
            theta_min: 0.2,
            origin: QueryOrigin::EndUser,
        }
    }

    fn sensor(id: usize, x: f64, cost: f64) -> SensorSnapshot {
        SensorSnapshot {
            id,
            loc: Point::new(x, 0.0),
            cost,
            trust: 1.0,
            inaccuracy: 0.0,
        }
    }

    #[test]
    fn single_affordable_query_is_answered() {
        let queries = vec![pq(0, 0.0, 30.0)];
        let sensors = vec![sensor(0, 1.0, 10.0)]; // θ = 0.8, value 24 > 10
        let alloc = OptimalScheduler::new().schedule(&queries, &sensors, &QualityModel::new(5.0));
        let a = alloc.assignments[0].expect("answered");
        assert_eq!(a.sensor, 0);
        assert!((a.value - 24.0).abs() < 1e-9);
        assert!((a.payment - 10.0).abs() < 1e-9); // sole beneficiary pays all
        assert!((alloc.welfare - 14.0).abs() < 1e-9);
        assert_eq!(alloc.solve_status, Some(SolveStatus::Optimal));
        assert!(alloc.lp_bound.expect("exact solve certifies a bound") >= alloc.welfare - 1e-9);
    }

    #[test]
    fn unaffordable_query_is_refused() {
        // Budget 7 < cost 10: the paper's small-budget regime.
        let queries = vec![pq(0, 0.0, 7.0)];
        let sensors = vec![sensor(0, 0.0, 10.0)];
        let alloc = OptimalScheduler::new().schedule(&queries, &sensors, &QualityModel::new(5.0));
        assert!(alloc.assignments[0].is_none());
        assert_eq!(alloc.welfare, 0.0);
        assert_eq!(alloc.solve_status, Some(SolveStatus::Optimal));
    }

    #[test]
    fn sharing_across_same_location_queries_unlocks_answering() {
        // Two budget-7 queries at the same spot: 7 < 10 alone, 14 > 10 shared.
        let queries = vec![pq(0, 0.0, 7.0), pq(1, 0.0, 7.0)];
        let sensors = vec![sensor(0, 0.0, 10.0)];
        let alloc = OptimalScheduler::new().schedule(&queries, &sensors, &QualityModel::new(5.0));
        assert_eq!(alloc.satisfied_count(), 2);
        let a0 = alloc.assignments[0].unwrap();
        let a1 = alloc.assignments[1].unwrap();
        // Equal values → equal shares of the cost (Eq. 11).
        assert!((a0.payment - 5.0).abs() < 1e-9);
        assert!((a1.payment - 5.0).abs() < 1e-9);
        // Individual rationality.
        assert!(a0.payment < a0.value);
        assert!((alloc.welfare - 4.0).abs() < 1e-9);
    }

    #[test]
    fn picks_the_better_of_two_sensors() {
        let queries = vec![pq(0, 0.0, 30.0)];
        let sensors = vec![sensor(0, 3.0, 10.0), sensor(1, 1.0, 10.0)];
        let alloc = OptimalScheduler::new().schedule(&queries, &sensors, &QualityModel::new(5.0));
        assert_eq!(alloc.assignments[0].unwrap().sensor, 1);
        assert_eq!(alloc.sensors_used, vec![1]);
    }

    #[test]
    fn payments_cover_sensor_costs_exactly() {
        let queries = vec![pq(0, 0.0, 20.0), pq(1, 0.0, 30.0), pq(2, 4.0, 25.0)];
        let sensors = vec![sensor(0, 1.0, 10.0), sensor(1, 4.5, 10.0)];
        let alloc = OptimalScheduler::new().schedule(&queries, &sensors, &QualityModel::new(5.0));
        // Sum of payments to each used sensor equals its cost.
        let mut receipts = vec![0.0; sensors.len()];
        for a in alloc.assignments.iter().flatten() {
            receipts[a.sensor] += a.payment;
        }
        for &f in &alloc.sensors_used {
            assert!(
                (receipts[f] - sensors[f].cost).abs() < 1e-9,
                "sensor {f} receives {} for cost {}",
                receipts[f],
                sensors[f].cost
            );
        }
        // Every answered query keeps positive net benefit.
        for a in alloc.assignments.iter().flatten() {
            assert!(a.payment < a.value + 1e-12);
        }
    }

    #[test]
    fn empty_inputs_are_fine() {
        let alloc =
            OptimalScheduler::new().schedule(&[], &[sensor(0, 0.0, 10.0)], &QualityModel::new(5.0));
        assert!(alloc.assignments.is_empty());
        let alloc2 =
            OptimalScheduler::new().schedule(&[pq(0, 0.0, 10.0)], &[], &QualityModel::new(5.0));
        assert!(alloc2.assignments[0].is_none());
    }

    /// Satellite (silent-failure fix): a zero-node budget must surface
    /// `LimitReached` with a usable schedule, not collapse to "nothing
    /// allocatable".
    #[test]
    fn zero_node_budget_still_schedules() {
        let queries = vec![pq(0, 0.0, 30.0), pq(1, 2.0, 30.0)];
        let sensors = vec![sensor(0, 1.0, 10.0), sensor(1, 1.5, 10.0)];
        let alloc = OptimalScheduler::new().max_nodes(0).schedule(
            &queries,
            &sensors,
            &QualityModel::new(5.0),
        );
        // The heuristic incumbent still answers both queries.
        assert_eq!(alloc.satisfied_count(), 2);
        assert!(alloc.welfare > 0.0);
        assert!(matches!(
            alloc.solve_status,
            Some(SolveStatus::Optimal | SolveStatus::LimitReached)
        ));
    }

    #[test]
    fn deadline_zero_matches_heuristic_or_better_and_reports_feasible() {
        let queries = vec![pq(0, 0.0, 30.0), pq(1, 2.0, 30.0), pq(2, 7.0, 25.0)];
        let sensors = vec![sensor(0, 1.0, 10.0), sensor(1, 6.0, 10.0)];
        let quality = QualityModel::new(5.0);
        let ls = LocalSearchScheduler::new().schedule(&queries, &sensors, &quality);
        let alloc = OptimalScheduler::new()
            .deadline(Duration::ZERO)
            .schedule(&queries, &sensors, &quality);
        assert!(alloc.welfare >= ls.welfare - 1e-9);
        assert!(matches!(
            alloc.solve_status,
            Some(SolveStatus::Feasible | SolveStatus::Optimal)
        ));
        assert!(alloc.welfare <= alloc.lp_bound.unwrap() + 1e-9);
    }

    /// Nothing carries over between slots: a slot scheduled again after
    /// another one, or by a clone, gets the schedule it got first.
    #[test]
    fn schedules_carry_no_state_across_slots() {
        let slot_a = (
            [pq(0, 0.0, 30.0), pq(1, 2.0, 30.0)],
            [sensor(0, 1.0, 10.0), sensor(1, 1.5, 10.0)],
        );
        let slot_b = ([pq(2, 7.0, 25.0)], [sensor(0, 6.0, 10.0)]);
        let quality = QualityModel::new(5.0);
        let scheduler = OptimalScheduler::new();
        let run =
            |s: &OptimalScheduler| format!("{:?}", s.schedule(&slot_a.0, &slot_a.1, &quality));
        let first = run(&scheduler);
        scheduler.schedule(&slot_b.0, &slot_b.1, &quality);
        assert_eq!(first, run(&scheduler));
        assert_eq!(first, run(&scheduler.clone()));
    }

    /// `n` gap triangles 20 apart: three queried locations at the
    /// corners of an equilateral triangle of side 6 and a cost-4 sensor
    /// at each side's midpoint. A sensor serves the two ends of its side
    /// at θ = 0.4, worth 3 to a budget-7.5 query, so each triangle's root
    /// LP opens every sensor by half (welfare 3), above the integer
    /// optimum of 2 (one sensor).
    fn gap_triangles(n: usize) -> (Vec<PointQuery>, Vec<SensorSnapshot>) {
        let height = 3.0 * 3f64.sqrt();
        let (mut queries, mut sensors) = (Vec::new(), Vec::new());
        for k in 0..n {
            let x = 20.0 * k as f64;
            let corners = [
                Point::new(x, 0.0),
                Point::new(x + 6.0, 0.0),
                Point::new(x + 3.0, height),
            ];
            for (i, &loc) in corners.iter().enumerate() {
                let id = 3 * k + i;
                queries.push(PointQuery {
                    loc,
                    ..pq(id as u64, 0.0, 7.5)
                });
                let next = corners[(i + 1) % 3];
                sensors.push(SensorSnapshot {
                    loc: Point::new((loc.x + next.x) / 2.0, (loc.y + next.y) / 2.0),
                    ..sensor(id, 0.0, 4.0)
                });
            }
        }
        (queries, sensors)
    }

    /// A one-node budget belongs to each component: every one of 70 gap
    /// triangles branches once and closes its gap, and the schedule at 4
    /// threads, where the triangles spread over two workers, is the one
    /// at 1 thread. A budget shared by the slot would leave all but the
    /// first triangle `LimitReached`.
    #[test]
    fn node_budget_binds_per_component_at_every_thread_count() {
        let triangles = 70;
        assert!(triangles >= 2 * ufl::MIN_COMPONENTS_PER_WORKER);
        let (queries, sensors) = gap_triangles(triangles);
        let quality = QualityModel::new(5.0);
        let scheduler = OptimalScheduler::new().max_nodes(1);
        let schedule = |threads| {
            let alloc = scheduler.schedule_sharded(
                &queries,
                &sensors,
                &quality,
                None,
                Threads::new(threads),
            );
            format!("{alloc:?}")
        };
        let serial = scheduler.schedule(&queries, &sensors, &quality);
        assert_eq!(serial.solve_status, Some(SolveStatus::Optimal));
        assert!((serial.welfare - 2.0 * triangles as f64).abs() < 1e-9);
        assert!((serial.lp_bound.unwrap() - 3.0 * triangles as f64).abs() < 1e-9);
        assert_eq!(schedule(1), format!("{serial:?}"));
        assert_eq!(schedule(4), format!("{serial:?}"));
    }

    /// The greedy scheduler maps its components over the worker threads:
    /// on 70 gap triangles it opens one sensor per triangle (a second one
    /// gains 3 for a cost of 4) at 1 and at 4 threads alike.
    #[test]
    fn greedy_scheduler_is_thread_count_invariant() {
        let triangles = 70;
        assert!(triangles >= 2 * ufl::MIN_COMPONENTS_PER_WORKER);
        let (queries, sensors) = gap_triangles(triangles);
        let quality = QualityModel::new(5.0);
        let schedule = |threads| {
            GreedyPointScheduler::new().schedule_sharded(
                &queries,
                &sensors,
                &quality,
                None,
                Threads::new(threads),
            )
        };
        let serial = schedule(1);
        assert_eq!(serial.sensors_used.len(), triangles);
        assert!((serial.welfare - 2.0 * triangles as f64).abs() < 1e-9);
        assert_eq!(format!("{:?}", schedule(4)), format!("{serial:?}"));
    }

    /// The LP bound is summed over components in component order, so the
    /// wrapper attaches the same bits at every thread count.
    #[test]
    fn lp_bound_wrapper_is_thread_count_invariant() {
        let triangles = 70;
        let (queries, sensors) = gap_triangles(triangles);
        let quality = QualityModel::new(5.0);
        let bound = |threads| {
            WithLpBound::new(LocalSearchScheduler::new())
                .schedule_sharded(&queries, &sensors, &quality, None, Threads::new(threads))
                .lp_bound
                .expect("wrapper attaches the bound")
        };
        let serial = bound(1);
        assert!((serial - 3.0 * triangles as f64).abs() < 1e-9);
        assert_eq!(bound(4).to_bits(), serial.to_bits());
    }

    #[test]
    fn greedy_scheduler_is_feasible_and_bounded_by_optimal() {
        let queries = vec![pq(0, 0.0, 30.0), pq(1, 2.0, 30.0), pq(2, 7.0, 25.0)];
        let sensors = vec![sensor(0, 1.0, 10.0), sensor(1, 6.0, 10.0)];
        let quality = QualityModel::new(5.0);
        let greedy = GreedyPointScheduler::new().schedule(&queries, &sensors, &quality);
        let opt = OptimalScheduler::new().schedule(&queries, &sensors, &quality);
        assert!(greedy.welfare <= opt.welfare + 1e-9);
        for a in greedy.assignments.iter().flatten() {
            assert!(a.payment <= a.value + 1e-9);
        }
    }

    /// The `WithLpBound` wrapper leaves the schedule untouched and
    /// attaches a bound that dominates the exact optimum.
    #[test]
    fn lp_bound_wrapper_certifies_heuristics() {
        let queries = vec![pq(0, 0.0, 30.0), pq(1, 2.0, 30.0), pq(2, 7.0, 25.0)];
        let sensors = vec![sensor(0, 1.0, 10.0), sensor(1, 6.0, 10.0)];
        let quality = QualityModel::new(5.0);
        let plain = LocalSearchScheduler::new().schedule(&queries, &sensors, &quality);
        let bounded =
            WithLpBound::new(LocalSearchScheduler::new()).schedule(&queries, &sensors, &quality);
        assert_eq!(plain.welfare, bounded.welfare);
        assert_eq!(plain.sensors_used, bounded.sensors_used);
        let bound = bounded.lp_bound.expect("wrapper attaches the bound");
        let opt = OptimalScheduler::new().schedule(&queries, &sensors, &quality);
        assert!(bound >= opt.welfare - 1e-9);
        assert!(bounded.welfare <= bound + 1e-9);
    }
}
