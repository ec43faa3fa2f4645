//! Sensor-allocation engines for one time slot.
//!
//! * [`optimal`] — the exact BILP schedule of Eq. 9 (facility-location
//!   branch-and-bound).
//! * [`local_search`] — the Feige-et-al. Local Search heuristic (§3.1.2).
//! * [`baseline`] — the paper's baseline: sequential per-query execution
//!   with data buffering (§4.3, §4.4).
//! * [`greedy`] — Algorithm 1, greedy multi-query sensor selection over
//!   black-box set valuations.
//!
//! The point schedulers share the [`PointAllocation`] result type and the
//! facility-location construction in this module: queries are grouped by
//! queried location (`Q_l`), locations become clients, sensors become
//! facilities, and `v_l(s) = Σ_{q∈Q_l} v_q(s)` (Eq. 10's `v'` with
//! non-positive values dropped).

pub mod baseline;
pub mod egalitarian;
pub mod greedy;
pub mod local_search;
pub mod optimal;

use crate::exec::Threads;
use crate::model::{index_or_scan_all, SensorSnapshot};
use crate::query::PointQuery;
use crate::valuation::quality::QualityModel;
use ps_geo::SensorIndex;
use ps_solver::ufl::{WelfareProblem, WelfareSolution};
use std::collections::BTreeMap;

/// One query's share of the schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointAssignment {
    /// Index of the serving sensor in the slot's snapshot slice.
    pub sensor: usize,
    /// Reading quality θ for this query's location.
    pub quality: f64,
    /// The query's value `v_q(s)` for that reading.
    pub value: f64,
    /// The query's payment π (Eq. 11).
    pub payment: f64,
}

/// The outcome of scheduling one slot's point queries.
#[derive(Debug, Clone)]
pub struct PointAllocation {
    /// Per query (parallel to the input slice): its assignment, or `None`
    /// when unanswered.
    pub assignments: Vec<Option<PointAssignment>>,
    /// Total utility: answered value minus the cost of used sensors.
    pub welfare: f64,
    /// Snapshot indices of the sensors that provide measurements.
    pub sensors_used: Vec<usize>,
    /// Total cost paid out to sensors.
    pub total_sensor_cost: f64,
    /// Certified upper bound on the slot's optimal point welfare (LP
    /// relaxation), when the scheduler computed one. Reported raw, never
    /// raised to `welfare`: `welfare ≤ lp_bound` up to float noise, so
    /// `(lp_bound − welfare) / lp_bound` is the slot's optimality gap.
    pub lp_bound: Option<f64>,
    /// How the schedule was established: `Optimal` = proven by the exact
    /// solver; `Feasible` = a feasible point without proof (heuristics,
    /// or an exact solve cut short by its deadline); `LimitReached` = the
    /// exact solve ran out of node/pivot budget. `None` for schedulers
    /// that bypass the facility-location build entirely (baseline).
    pub solve_status: Option<ps_solver::SolveStatus>,
}

impl PointAllocation {
    /// An empty allocation for `n` queries.
    pub fn empty(n: usize) -> Self {
        Self {
            assignments: vec![None; n],
            welfare: 0.0,
            sensors_used: Vec::new(),
            total_sensor_cost: 0.0,
            lp_bound: None,
            solve_status: None,
        }
    }

    /// Number of queries answered with positive value.
    pub fn satisfied_count(&self) -> usize {
        self.assignments
            .iter()
            .flatten()
            .filter(|a| a.value > 0.0)
            .count()
    }
}

/// A scheduler of single-sensor point queries for one slot.
///
/// Implementations define [`PointScheduler::schedule_sharded`]; the
/// other two methods are conveniences that call it without an index
/// and on one thread. An implementation answers a `None` index through
/// a [`SensorIndex::scan_all`] over the slice, so its candidate lookups
/// take one path either way.
///
/// `Send + Sync` is a supertrait because engines owning a scheduler cross
/// thread boundaries in the federation layer (`ps_cluster` steps whole
/// `Aggregator`s on scoped worker threads). Every in-tree scheduler is a
/// plain stateless struct, so the bounds are free; custom schedulers with
/// interior state must make it thread-safe.
pub trait PointScheduler: Send + Sync {
    /// Chooses sensors for `queries` among `sensors`, computing values,
    /// payments, and welfare.
    ///
    /// `index`, when given, is a [`SensorIndex`] built over the same
    /// snapshot slice; implementations use it to prune candidate sensors
    /// (per queried location: the disk of radius `d_max`) **without
    /// changing the schedule**. `threads` is a budget for sharding the
    /// embarrassingly-parallel per-query work (candidate collection,
    /// value evaluation); the schedule must be **bit-identical** for
    /// every thread count — sharding is a wall-clock optimization, never
    /// a semantic one.
    fn schedule_sharded(
        &self,
        queries: &[PointQuery],
        sensors: &[SensorSnapshot],
        quality: &QualityModel,
        index: Option<&SensorIndex>,
        threads: Threads,
    ) -> PointAllocation;

    /// [`PointScheduler::schedule_sharded`] without an index, on one
    /// thread.
    fn schedule(
        &self,
        queries: &[PointQuery],
        sensors: &[SensorSnapshot],
        quality: &QualityModel,
    ) -> PointAllocation {
        self.schedule_sharded(queries, sensors, quality, None, Threads::single())
    }

    /// [`PointScheduler::schedule_sharded`] on one thread.
    fn schedule_indexed(
        &self,
        queries: &[PointQuery],
        sensors: &[SensorSnapshot],
        quality: &QualityModel,
        index: Option<&SensorIndex>,
    ) -> PointAllocation {
        self.schedule_sharded(queries, sensors, quality, index, Threads::single())
    }
}

impl<T: PointScheduler + ?Sized> PointScheduler for &T {
    fn schedule_sharded(
        &self,
        queries: &[PointQuery],
        sensors: &[SensorSnapshot],
        quality: &QualityModel,
        index: Option<&SensorIndex>,
        threads: Threads,
    ) -> PointAllocation {
        (**self).schedule_sharded(queries, sensors, quality, index, threads)
    }
}

impl<T: PointScheduler + ?Sized> PointScheduler for Box<T> {
    fn schedule_sharded(
        &self,
        queries: &[PointQuery],
        sensors: &[SensorSnapshot],
        quality: &QualityModel,
        index: Option<&SensorIndex>,
        threads: Threads,
    ) -> PointAllocation {
        (**self).schedule_sharded(queries, sensors, quality, index, threads)
    }
}

/// Queries grouped by queried location: the clients of the
/// facility-location formulation.
pub(crate) struct LocationGroups {
    /// For each distinct location: the indices of the queries at it.
    pub groups: Vec<Vec<usize>>,
}

/// Exact-coordinate key; queried locations in the experiments are drawn
/// from a discrete grid, so sharing only happens on exact collisions —
/// the paper's `Q_l` semantics.
fn location_key(p: ps_geo::Point) -> (u64, u64) {
    (p.x.to_bits(), p.y.to_bits())
}

pub(crate) fn group_by_location(queries: &[PointQuery]) -> LocationGroups {
    let mut map: BTreeMap<(u64, u64), Vec<usize>> = BTreeMap::new();
    for (i, q) in queries.iter().enumerate() {
        map.entry(location_key(q.loc)).or_default().push(i);
    }
    LocationGroups {
        groups: map.into_values().collect(),
    }
}

/// Builds the Eq. 9 welfare problem: clients are locations, facilities are
/// sensors, `v_l(s) = Σ_{q∈Q_l} v_q(θ(s, l))`.
///
/// Each location's candidate sensors come from the `d_max` disk around it
/// on `index` (built over the same snapshot slice), ascending, and pass
/// the exact `in_range` predicate — so the grid and
/// [`SensorIndex::scan_all`] build bit-identical problems. The per-client
/// evaluation is sharded across `threads` (contiguous client ranges,
/// partials concatenated in range order), which also leaves the problem
/// bit-identical for every thread count.
pub(crate) fn build_welfare_problem(
    queries: &[PointQuery],
    groups: &LocationGroups,
    sensors: &[SensorSnapshot],
    quality: &QualityModel,
    index: &SensorIndex,
    threads: Threads,
) -> WelfareProblem {
    let costs: Vec<f64> = sensors.iter().map(|s| s.cost).collect();
    // Floor: one disk query + a few multiplies per location — inline
    // below 64 distinct locations.
    let shards = threads.map_ranges_min(groups.groups.len(), 64, |range| {
        let mut buf: Vec<usize> = Vec::new();
        groups.groups[range]
            .iter()
            .map(|qs| {
                let loc = queries[qs[0]].loc;
                let value_of = |si: usize| -> Option<(usize, f64)> {
                    let s = &sensors[si];
                    if !quality.in_range(s, loc) {
                        return None;
                    }
                    let theta = quality.quality(s, loc);
                    let v: f64 = qs
                        .iter()
                        .map(|&qi| queries[qi].value_of_quality(theta))
                        .sum();
                    (v > 0.0).then_some((si, v))
                };
                index.query_disk_into(loc, quality.d_max, &mut buf);
                buf.iter().filter_map(|&si| value_of(si)).collect()
            })
            .collect::<Vec<Vec<(usize, f64)>>>()
    });
    let client_values: Vec<Vec<(usize, f64)>> = shards.into_iter().flatten().collect();
    WelfareProblem::new(costs, client_values)
}

/// The Eq. 9 pipeline the facility-location schedulers share: group the
/// queries by location, build the welfare problem (see
/// [`build_welfare_problem`] for how `index` — resolved to a scan when
/// `None` — and `threads` are used), pick the open sensors with `solve`,
/// and derive assignments and Eq. 11 payments.
pub(crate) fn schedule_eq9(
    queries: &[PointQuery],
    sensors: &[SensorSnapshot],
    quality: &QualityModel,
    index: Option<&SensorIndex>,
    threads: Threads,
    solve: impl FnOnce(&WelfareProblem, &LocationGroups) -> WelfareSolution,
) -> PointAllocation {
    if queries.is_empty() || sensors.is_empty() {
        return PointAllocation::empty(queries.len());
    }
    let groups = group_by_location(queries);
    let index = index_or_scan_all(index, sensors);
    let problem = build_welfare_problem(queries, &groups, sensors, quality, &index, threads);
    let solution = solve(&problem, &groups);
    allocation_from_solution(queries, &groups, sensors, quality, &problem, &solution)
}

/// Converts a facility-location solution into a [`PointAllocation`],
/// computing Eq. 11 payments and enforcing cost recovery.
///
/// Cost recovery: a used sensor whose total served value does not exceed
/// its cost would force some query to pay more than its value. The exact
/// solver never produces such a sensor, but Local Search can (via the
/// complement set); those sensors are dropped and their locations
/// reassigned until stable, which only increases welfare.
fn allocation_from_solution(
    queries: &[PointQuery],
    groups: &LocationGroups,
    sensors: &[SensorSnapshot],
    quality: &QualityModel,
    problem: &WelfareProblem,
    solution: &WelfareSolution,
) -> PointAllocation {
    let mut open = solution.open.clone();
    // Iteratively drop cost-unrecoverable sensors. The stable pass's
    // per-sensor served values are the Eq. 11 denominators.
    let (final_solution, served_value) = loop {
        let sol = problem.solution_from_open(&open);
        let mut served_value = vec![0.0f64; sensors.len()];
        for (client, assigned) in sol.assignment.iter().enumerate() {
            if let Some(f) = assigned {
                let loc = queries[groups.groups[client][0]].loc;
                let theta = quality.quality(&sensors[*f], loc);
                let v: f64 = groups.groups[client]
                    .iter()
                    .map(|&qi| queries[qi].value_of_quality(theta))
                    .sum();
                served_value[*f] += v;
            }
        }
        let mut dropped = false;
        for (f, is_open) in open.iter_mut().enumerate() {
            if *is_open && sol.open[f] && served_value[f] <= sensors[f].cost + 1e-12 {
                *is_open = false;
                dropped = true;
            }
            // Also sync pruned-dead facilities.
            if *is_open && !sol.open[f] {
                *is_open = false;
            }
        }
        if !dropped {
            break (sol, served_value);
        }
    };

    let mut assignments: Vec<Option<PointAssignment>> = vec![None; queries.len()];
    let mut total_value = 0.0;
    for (client, assigned) in final_solution.assignment.iter().enumerate() {
        let Some(f) = assigned else { continue };
        let loc = queries[groups.groups[client][0]].loc;
        let theta = quality.quality(&sensors[*f], loc);
        for &qi in &groups.groups[client] {
            let value = queries[qi].value_of_quality(theta);
            // Eq. 11: proportionate cost allocation.
            let payment = if value > 0.0 && served_value[*f] > 0.0 {
                value * sensors[*f].cost / served_value[*f]
            } else {
                0.0
            };
            total_value += value;
            assignments[qi] = Some(PointAssignment {
                sensor: *f,
                quality: theta,
                value,
                payment,
            });
        }
    }

    let sensors_used: Vec<usize> = final_solution
        .open
        .iter()
        .enumerate()
        .filter_map(|(f, &o)| o.then_some(f))
        .collect();
    let total_sensor_cost: f64 = sensors_used.iter().map(|&f| sensors[f].cost).sum();

    // The bound belongs to the *problem*, not the open set, so the
    // original solution's bound stays valid for the post-drop allocation
    // (dropping cost-unrecoverable sensors only changes the achieved
    // welfare). It is reported raw: a welfare above it is a finding.
    PointAllocation {
        assignments,
        welfare: total_value - total_sensor_cost,
        sensors_used,
        total_sensor_cost,
        lp_bound: solution.lp_bound,
        solve_status: Some(solution.status),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{scan_all, QueryId};
    use crate::query::QueryOrigin;
    use proptest::prelude::*;
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
    fn grouping_collects_same_location_queries() {
        let queries = vec![
            pq(0, 1.0, 1.0, 10.0),
            pq(1, 2.0, 2.0, 10.0),
            pq(2, 1.0, 1.0, 20.0),
        ];
        let groups = group_by_location(&queries);
        assert_eq!(groups.groups.len(), 2);
        let sizes: Vec<usize> = groups.groups.iter().map(Vec::len).collect();
        assert!(sizes.contains(&2) && sizes.contains(&1));
    }

    #[test]
    fn welfare_problem_sums_query_values_per_location() {
        let queries = vec![pq(0, 0.0, 0.0, 10.0), pq(1, 0.0, 0.0, 30.0)];
        let sensors = vec![sensor(0, 2.5, 0.0)];
        let quality = QualityModel::new(5.0);
        let groups = group_by_location(&queries);
        let p = build_welfare_problem(
            &queries,
            &groups,
            &sensors,
            &quality,
            &scan_all(&sensors),
            Threads::single(),
        );
        assert_eq!(p.num_clients(), 1);
        // θ = 0.5 → v = 0.5·10 + 0.5·30 = 20.
        assert_eq!(p.client_values[0], vec![(0, 20.0)]);
    }

    #[test]
    fn out_of_range_sensors_are_excluded() {
        let queries = vec![pq(0, 0.0, 0.0, 10.0)];
        let sensors = vec![sensor(0, 9.0, 0.0)];
        let quality = QualityModel::new(5.0);
        let groups = group_by_location(&queries);
        let p = build_welfare_problem(
            &queries,
            &groups,
            &sensors,
            &quality,
            &scan_all(&sensors),
            Threads::single(),
        );
        assert!(p.client_values[0].is_empty());
    }

    #[test]
    fn empty_allocation_shape() {
        let a = PointAllocation::empty(3);
        assert_eq!(a.assignments.len(), 3);
        assert_eq!(a.satisfied_count(), 0);
        assert_eq!(a.welfare, 0.0);
    }

    /// Records, per call, whether an index came in and the thread count.
    #[derive(Default)]
    struct Recorder(std::sync::Mutex<Vec<(bool, usize)>>);

    impl PointScheduler for Recorder {
        fn schedule_sharded(
            &self,
            queries: &[PointQuery],
            _: &[SensorSnapshot],
            _: &QualityModel,
            index: Option<&SensorIndex>,
            threads: Threads,
        ) -> PointAllocation {
            let mut calls = self.0.lock().unwrap();
            calls.push((index.is_some(), threads.get()));
            PointAllocation::empty(queries.len())
        }
    }

    #[test]
    fn provided_methods_call_schedule_sharded_on_one_thread() {
        let (rec, quality) = (Recorder::default(), QualityModel::new(5.0));
        let index = SensorIndex::build(&[Point::new(0.0, 0.0)]);
        rec.schedule(&[], &[], &quality);
        rec.schedule_indexed(&[], &[], &quality, Some(&index));
        assert_eq!(*rec.0.lock().unwrap(), vec![(false, 1), (true, 1)]);
    }

    #[test]
    fn reference_and_box_forward_index_and_threads() {
        fn call(s: impl PointScheduler, index: Option<&SensorIndex>, n: usize) {
            s.schedule_sharded(&[], &[], &QualityModel::new(5.0), index, Threads::new(n));
        }
        let rec = Recorder::default();
        let index = SensorIndex::build(&[Point::new(0.0, 0.0)]);
        call(&rec, Some(&index), 3);
        call(Box::new(&rec) as Box<dyn PointScheduler + '_>, None, 4);
        assert_eq!(*rec.0.lock().unwrap(), vec![(true, 3), (false, 4)]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        /// The index-pruned Eq. 9 build split across three workers is
        /// bit-identical to the brute-force serial build. 400 queries on a
        /// 20 × 20 grid land on more than 3 × 64 locations, so all three
        /// shards run.
        #[test]
        fn indexed_sharded_build_matches_brute_force(seed in 0u64..1000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let queries: Vec<PointQuery> = (0..400)
                .map(|i| {
                    let (x, y) = (rng.gen_range(0..20), rng.gen_range(0..20));
                    pq(i, x as f64, y as f64, rng.gen_range(5.0..40.0))
                })
                .collect();
            let sensors: Vec<SensorSnapshot> = (0..150)
                .map(|id| sensor(id, rng.gen_range(0.0..20.0), rng.gen_range(0.0..20.0)))
                .collect();
            let quality = QualityModel::new(3.0);
            let groups = group_by_location(&queries);
            prop_assert!(groups.groups.len() > 3 * 64);
            let index = SensorIndex::build(&sensors.iter().map(|s| s.loc).collect::<Vec<_>>());
            let scan = scan_all(&sensors);
            let build = |index, threads| {
                build_welfare_problem(&queries, &groups, &sensors, &quality, index, threads)
            };
            let brute = build(&scan, Threads::single());
            let fast = build(&index, Threads::new(3));
            prop_assert_eq!(format!("{brute:?}"), format!("{fast:?}"));
        }
    }
}
