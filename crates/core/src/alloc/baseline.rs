//! The paper's baseline algorithms: sequential per-query execution with
//! data buffering for the duration of a time slot.
//!
//! §4.3 (point queries): "in each time slot [the baseline] takes queries
//! one by one and for each query selects the sensor with maximum utility.
//! A sensor that is selected to answer a query at a certain location is
//! also assigned to all other queries at that location. The cost of the
//! selected sensors is set to zero for the remaining queries."
//!
//! §4.4 (aggregates): "It takes the queries one by one and for each query
//! selects the sensors that result in best utility. The cost of the
//! selected sensors is set to zero for the subsequent queries in the time
//! slot."

use crate::alloc::{PointAllocation, PointAssignment, PointScheduler};
use crate::exec::Threads;
use crate::model::SensorSnapshot;
use crate::query::PointQuery;
use crate::valuation::quality::QualityModel;
use crate::valuation::SetValuation;
use ps_geo::SensorIndex;
use std::collections::BTreeMap;

/// Baseline point scheduler (§4.3): execution on query arrival with data
/// buffering within the slot.
///
/// With a [`SensorIndex`] over the snapshot slice, per query only the
/// sensors in the `d_max` disk around its location are examined (the
/// exact `in_range` set, ascending), so the schedule is identical with
/// and without the index.
///
/// The candidate evaluation — disk query, Eq. 4 in-range filter and
/// quality θ — shards across `threads`, per **distinct queried
/// location** (θ depends only on the (sensor, location) pair, so
/// same-location queries share one candidate list; the §4.3 grid
/// workloads collide heavily, making this strictly less work than a
/// per-query scan). Only the state-free part parallelizes: which sensor
/// actually wins each query depends on what earlier queries bought
/// (that *is* the baseline's §4.3 semantics), so the argmax pass
/// consumes the precomputed candidates serially in query order,
/// evaluating each query's Eq. 3 value from the shared θ. Candidates are
/// kept in ascending sensor order, exactly like the serial scan, so the
/// schedule is bit-identical for every thread count.
///
/// Sensors bought earlier in the slot by other queries (the §4.7 mix's
/// aggregate stage) are passed in priced at 0: the scheduler then buys
/// them free and lists them in `sensors_used` like any other purchase.
#[derive(Debug, Clone, Copy, Default)]
pub struct BaselinePointScheduler;

impl BaselinePointScheduler {
    /// Creates the baseline scheduler.
    pub fn new() -> Self {
        Self
    }
}

impl PointScheduler for BaselinePointScheduler {
    fn schedule_sharded(
        &self,
        queries: &[PointQuery],
        sensors: &[SensorSnapshot],
        quality: &QualityModel,
        index: Option<&SensorIndex>,
        threads: Threads,
    ) -> PointAllocation {
        let mut selected = vec![false; sensors.len()];
        // State-free phase, per distinct location: the in-range sensors
        // as (sensor, θ), ascending by sensor.
        let mut loc_of_query: Vec<usize> = Vec::with_capacity(queries.len());
        let mut loc_index: BTreeMap<(u64, u64), usize> = BTreeMap::new();
        let mut locations: Vec<ps_geo::Point> = Vec::new();
        for q in queries {
            let key = (q.loc.x.to_bits(), q.loc.y.to_bits());
            let li = *loc_index.entry(key).or_insert_with(|| {
                locations.push(q.loc);
                locations.len() - 1
            });
            loc_of_query.push(li);
        }
        // Floor: one disk query + a θ evaluation per location — inline
        // below 64 distinct locations.
        let candidate_shards = threads.map_ranges_min(locations.len(), 64, |range| {
            let mut buf: Vec<usize> = Vec::new();
            locations[range]
                .iter()
                .map(|&loc| {
                    let mut cands: Vec<(usize, f64)> = Vec::new();
                    let mut consider = |si: usize| {
                        let s = &sensors[si];
                        if quality.in_range(s, loc) {
                            cands.push((si, quality.quality(s, loc)));
                        }
                    };
                    match index {
                        Some(idx) => {
                            idx.query_disk_into(loc, quality.d_max, &mut buf);
                            for &si in &buf {
                                consider(si);
                            }
                        }
                        None => {
                            for si in 0..sensors.len() {
                                consider(si);
                            }
                        }
                    }
                    cands
                })
                .collect::<Vec<_>>()
        });
        let candidates: Vec<Vec<(usize, f64)>> = candidate_shards.into_iter().flatten().collect();

        // Stateful phase, serial in query order (§4.3's arrival order).
        // location key → sensor already serving that location
        let mut location_sensor: BTreeMap<(u64, u64), usize> = BTreeMap::new();
        let mut assignments: Vec<Option<PointAssignment>> = vec![None; queries.len()];
        let mut newly_selected: Vec<usize> = Vec::new();
        let mut total_value = 0.0;
        let mut total_cost = 0.0;

        for (qi, q) in queries.iter().enumerate() {
            let key = (q.loc.x.to_bits(), q.loc.y.to_bits());
            // Buffered data at this location?
            if let Some(&si) = location_sensor.get(&key) {
                let theta = quality.quality(&sensors[si], q.loc);
                let value = q.value_of_quality(theta);
                if value > 0.0 {
                    total_value += value;
                    assignments[qi] = Some(PointAssignment {
                        sensor: si,
                        quality: theta,
                        value,
                        payment: 0.0, // cost already borne by the trigger query
                    });
                    continue;
                }
            }
            // Pick the sensor with maximum utility for this query alone;
            // already-selected sensors cost nothing extra.
            let mut best: Option<(usize, f64, f64, f64)> = None; // (si, utility, value, theta)
            for &(si, theta) in &candidates[loc_of_query[qi]] {
                let value = q.value_of_quality(theta);
                if value <= 0.0 {
                    continue;
                }
                let cost = if selected[si] { 0.0 } else { sensors[si].cost };
                let utility = value - cost;
                if utility > 0.0 {
                    match best {
                        Some((_, bu, _, _)) if bu >= utility => {}
                        _ => best = Some((si, utility, value, theta)),
                    }
                }
            }
            if let Some((si, _u, value, theta)) = best {
                let payment = if selected[si] { 0.0 } else { sensors[si].cost };
                if !selected[si] {
                    selected[si] = true;
                    newly_selected.push(si);
                    total_cost += sensors[si].cost;
                }
                location_sensor.insert(key, si);
                total_value += value;
                assignments[qi] = Some(PointAssignment {
                    sensor: si,
                    quality: theta,
                    value,
                    payment,
                });
            }
        }

        PointAllocation {
            assignments,
            welfare: total_value - total_cost,
            sensors_used: newly_selected,
            total_sensor_cost: total_cost,
            lp_bound: None,
            solve_status: None,
        }
    }
}

/// Outcome of the baseline multi-sensor execution for one query.
#[derive(Debug, Clone)]
pub struct BaselineSetOutcome {
    /// Snapshot indices of every sensor the query uses, in pick order.
    pub sensors: Vec<usize>,
    /// The picks no earlier query had bought: newly selected (and paid)
    /// for this query, in pick order.
    pub newly_selected: Vec<usize>,
    /// Value achieved for the query.
    pub value: f64,
    /// Cost this query paid (only newly selected sensors).
    pub cost: f64,
}

/// Baseline multi-sensor execution (§4.4): greedily grow this query's own
/// sensor set while utility improves, treating sensors in
/// `already_selected` as free, then mark the new picks as selected.
/// Free picks join the query's `sensors` but not its `newly_selected`,
/// so no sensor is paid twice in one slot.
///
/// With a [`SensorIndex`] over the snapshot slice, candidates come from
/// the valuation's [`SetValuation::support`] region (then the exact
/// `is_relevant` filter), so the outcome is identical with and without
/// the index.
pub fn baseline_select_for_query(
    valuation: &mut dyn SetValuation,
    sensors: &[SensorSnapshot],
    already_selected: &mut [bool],
    index: Option<&SensorIndex>,
) -> BaselineSetOutcome {
    assert_eq!(sensors.len(), already_selected.len());
    let candidates: Vec<usize> = match (index, valuation.support()) {
        (Some(idx), Some(support)) => {
            let mut out = Vec::new();
            support.candidates_into(idx, &mut out);
            out
        }
        _ => (0..sensors.len()).collect(),
    };
    let mut picked = Vec::new();
    let mut newly_selected = Vec::new();
    let mut cost = 0.0;
    loop {
        let mut best: Option<(usize, f64)> = None;
        for &si in &candidates {
            let s = &sensors[si];
            if !valuation.is_relevant(s) {
                continue;
            }
            if picked.contains(&si) {
                continue;
            }
            let marginal = valuation.marginal(s);
            let c = if already_selected[si] { 0.0 } else { s.cost };
            let gain = marginal - c;
            if gain > 1e-12 {
                match best {
                    Some((_, g)) if g >= gain => {}
                    _ => best = Some((si, gain)),
                }
            }
        }
        match best {
            Some((si, _)) => {
                valuation.commit(&sensors[si]);
                if !already_selected[si] {
                    cost += sensors[si].cost;
                    already_selected[si] = true;
                    newly_selected.push(si);
                }
                picked.push(si);
            }
            None => break,
        }
    }
    BaselineSetOutcome {
        value: valuation.current_value(),
        sensors: picked,
        newly_selected,
        cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::QueryId;
    use crate::query::{AggregateKind, AggregateQuery, QueryOrigin};
    use crate::valuation::aggregate::AggregateValuation;
    use ps_geo::{Point, Rect};

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
    fn baseline_cannot_afford_small_budgets() {
        // The paper's headline observation: with budget < C_s the baseline
        // answers nothing, because it never shares costs across queries.
        let queries = vec![pq(0, 0.0, 7.0), pq(1, 0.0, 7.0)];
        let sensors = vec![sensor(0, 0.0, 10.0)];
        let alloc =
            BaselinePointScheduler::new().schedule(&queries, &sensors, &QualityModel::new(5.0));
        assert_eq!(alloc.satisfied_count(), 0);
        assert_eq!(alloc.welfare, 0.0);
    }

    #[test]
    fn buffered_data_is_reused_at_same_location() {
        let queries = vec![pq(0, 0.0, 30.0), pq(1, 0.0, 7.0)];
        let sensors = vec![sensor(0, 1.0, 10.0)];
        let alloc =
            BaselinePointScheduler::new().schedule(&queries, &sensors, &QualityModel::new(5.0));
        // First query affords the sensor; second rides along free.
        assert_eq!(alloc.satisfied_count(), 2);
        assert!((alloc.assignments[0].unwrap().payment - 10.0).abs() < 1e-12);
        assert_eq!(alloc.assignments[1].unwrap().payment, 0.0);
        // Welfare: 0.8·30 + 0.8·7 − 10.
        assert!((alloc.welfare - (24.0 + 5.6 - 10.0)).abs() < 1e-9);
    }

    #[test]
    fn selected_sensor_is_free_for_other_locations() {
        let queries = vec![pq(0, 0.0, 30.0), pq(1, 2.0, 7.0)];
        let sensors = vec![sensor(0, 1.0, 10.0)];
        let alloc =
            BaselinePointScheduler::new().schedule(&queries, &sensors, &QualityModel::new(5.0));
        // Query 1 is at a different location but the sensor is already
        // paid for, so its 7-budget query can use it at zero cost.
        assert_eq!(alloc.satisfied_count(), 2);
        assert_eq!(alloc.assignments[1].unwrap().payment, 0.0);
    }

    #[test]
    fn order_dependence_is_the_baselines_weakness() {
        // Reversed order: the poor query comes first and cannot afford the
        // sensor, the rich one then pays — both still answered, but in the
        // all-poor case nothing ever gets bootstrapped.
        let queries = vec![pq(1, 2.0, 7.0), pq(0, 0.0, 30.0)];
        let sensors = vec![sensor(0, 1.0, 10.0)];
        let alloc =
            BaselinePointScheduler::new().schedule(&queries, &sensors, &QualityModel::new(5.0));
        assert!(alloc.assignments[0].is_none() || alloc.assignments[0].unwrap().payment == 0.0);
        assert_eq!(
            alloc.satisfied_count(),
            1 + usize::from(alloc.assignments[0].is_some())
        );
    }

    #[test]
    fn baseline_aggregate_greedily_grows_one_query() {
        let q = AggregateQuery {
            id: QueryId(5),
            region: Rect::new(0.0, 0.0, 10.0, 10.0),
            budget: 60.0,
            kind: AggregateKind::Average,
        };
        let mut v = AggregateValuation::new(&q, 6.0);
        let sensors = vec![
            SensorSnapshot {
                id: 0,
                loc: Point::new(2.0, 2.0),
                cost: 10.0,
                trust: 1.0,
                inaccuracy: 0.0,
            },
            SensorSnapshot {
                id: 1,
                loc: Point::new(8.0, 8.0),
                cost: 10.0,
                trust: 1.0,
                inaccuracy: 0.0,
            },
        ];
        let mut already = vec![false; 2];
        let out = baseline_select_for_query(&mut v, &sensors, &mut already, None);
        assert_eq!(out.newly_selected.len(), 2);
        assert!((out.cost - 20.0).abs() < 1e-12);
        assert!(out.value > out.cost);
        assert!(already.iter().all(|&s| s));
    }

    #[test]
    fn baseline_aggregate_reuses_free_sensors() {
        let q = AggregateQuery {
            id: QueryId(6),
            region: Rect::new(0.0, 0.0, 10.0, 10.0),
            budget: 20.0,
            kind: AggregateKind::Average,
        };
        let mut v = AggregateValuation::new(&q, 6.0);
        let sensors = vec![SensorSnapshot {
            id: 0,
            loc: Point::new(5.0, 5.0),
            cost: 1000.0, // unaffordable fresh…
            trust: 1.0,
            inaccuracy: 0.0,
        }];
        let mut already = vec![true; 1]; // …but already bought by another query
        let out = baseline_select_for_query(&mut v, &sensors, &mut already, None);
        assert_eq!(out.sensors, vec![0]);
        assert!(
            out.newly_selected.is_empty(),
            "a free sensor is not bought again"
        );
        assert_eq!(out.cost, 0.0);
        assert!(out.value > 0.0);
    }
}
