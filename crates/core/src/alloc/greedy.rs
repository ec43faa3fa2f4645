//! Algorithm 1: greedy sensor selection for multi-sensor query sets.
//!
//! Each iteration computes, for every remaining sensor `s`, the sum of its
//! positive marginal values over all queries minus its cost, selects the
//! best sensor while that quantity is positive, commits it to the queries
//! it improves, and charges them proportionally to their marginal gains:
//!
//! ```text
//! π_{q,a} = δv_{q,a} · c_a / Σ_q δv_{q,a}              (Alg. 1, line 10)
//! ```
//!
//! Theorem 1's properties — telescoping marginals, positive total utility,
//! individual rationality, and the `O(|Q||S|²)` call bound — are verified
//! by the tests below.
//!
//! Three scale mechanisms keep the loop fast without altering its
//! choices:
//!
//! * **Index-pruned relevance lists.** Each valuation's candidate
//!   sensors come from its [`SetValuation::support`] region on the
//!   slot's [`SensorIndex`] instead of a full `O(|Q||S|)` scan (a
//!   valuation without a support is tested against every sensor); the
//!   exact [`SetValuation::is_relevant`] filter still runs on the
//!   candidates, so the lists are identical on the grid and on
//!   [`SensorIndex::scan_all`].
//! * **A cached marginal per pair.** A marginal `δv_{q,s}` only changes
//!   when query `q` receives a commit, so the loop caches one marginal
//!   per relevant (sensor, query) pair, sensor-major, with a map from
//!   each query-major pair to its slot. After each selection it
//!   re-evaluates only the pairs of the queries it committed to, then
//!   re-sums each touched sensor's gain from its cached row in ascending
//!   query order — the order a full evaluation adds them in — and keeps
//!   all candidates in a max-heap (stale entries are version-stamped and
//!   discarded on pop). Every pop therefore sees current gains, to the
//!   bit — the same argmax, with the same smallest-index tie-break, as a
//!   full rescan (`matches_literal_algorithm_1_bit_for_bit`).
//! * **Sharded evaluation.** The two read-only phases — per-query
//!   relevance lists and the initial per-pair marginals — shard across a
//!   [`Threads`] scoped worker pool; each shard covers a contiguous
//!   range and partials merge in range order, so lists, marginals, and
//!   heap contents are bit-identical to the serial build. The adaptive
//!   selection loop itself stays serial: each pick conditions the next,
//!   and its per-pick refresh set is small.

use crate::exec::Threads;
use crate::model::SensorSnapshot;
use crate::valuation::SetValuation;
use ps_geo::SensorIndex;
use std::collections::BinaryHeap;

/// Result of one Algorithm 1 run.
#[derive(Debug, Clone)]
pub struct GreedySelection {
    /// Snapshot indices of selected sensors, in selection order.
    pub selected: Vec<usize>,
    /// Final `v_q(S_q)` per query.
    pub per_query_value: Vec<f64>,
    /// Payments per query: `(sensor snapshot index, π)` pairs.
    pub per_query_payments: Vec<Vec<(usize, f64)>>,
    /// Total utility `Σ_q v_q(S_q) − Σ_{s∈S'} c_s`.
    pub welfare: f64,
    /// Total cost of the selected sensors.
    pub total_cost: f64,
    /// Number of valuation-oracle (`marginal`) calls made: one per
    /// relevant pair up front, then one per pair of a query each pick
    /// committed to (Theorem 1 property 4 bounds it by `|Q||S|²`).
    pub oracle_calls: usize,
}

/// A max-heap entry: `(gain, sensor)` stamped with the sensor's cache
/// version at push time. Ordered by gain, ties broken toward the smaller
/// sensor index (the rescan argmax kept the first maximum).
struct Candidate {
    gain: f64,
    si: usize,
    stamp: u64,
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for Candidate {}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.gain
            .total_cmp(&other.gain)
            .then_with(|| other.si.cmp(&self.si))
    }
}

/// Runs Algorithm 1 over mutable black-box valuations.
///
/// `valuations[q]` accumulates the committed set `S_q`; sensor costs are
/// taken from the snapshots (callers wanting the Eq. 18 cost weighting
/// pass pre-weighted snapshots). `index` is a [`SensorIndex`] built over
/// the same snapshot slice (`index.len() == sensors.len()`), used to
/// prune each valuation's candidate sensors through its
/// [`SetValuation::support`]. The evaluate phases — per-query relevance
/// lists and the initial per-pair marginals — shard across `threads`
/// scoped workers, merged in ascending range order; the adaptive greedy
/// loop stays serial. Selections, payments, and welfare are **bit-identical**
/// on the grid and on [`SensorIndex::scan_all`] and for every thread
/// count (see the [module docs](self)).
pub fn greedy_select(
    valuations: &mut [&mut dyn SetValuation],
    sensors: &[SensorSnapshot],
    index: &SensorIndex,
    threads: Threads,
) -> GreedySelection {
    let nq = valuations.len();
    let ns = sensors.len();
    debug_assert_eq!(index.len(), ns, "index built over a different slot");
    // The CSR relevance lists below store u32 ids; fail loudly rather
    // than wrap into corrupted slices.
    assert!(
        nq <= u32::MAX as usize && ns <= u32::MAX as usize,
        "query/sensor counts exceed the u32 relevance layout"
    );
    let mut remaining: Vec<bool> = vec![true; ns];
    let mut selected = Vec::new();
    let mut per_query_payments: Vec<Vec<(usize, f64)>> = vec![Vec::new(); nq];
    let mut total_cost = 0.0;
    let mut oracle_calls = 0usize;

    // Relevance lists (the Q_{l_s} filter of line 5) and their inverses,
    // both in CSR layout — thousands of tiny per-sensor vectors showed up
    // as allocator traffic at city scale. Queries fill the
    // query→sensors side in submission order (sharded by contiguous
    // query range, partial flats concatenated in range order — the same
    // pair sequence the serial loop produces); the counting-sort
    // inversion below visits queries in ascending order per sensor, so
    // gain sums accumulate identically on the grid and on the scan.
    let views: Vec<&dyn SetValuation> = valuations.iter().map(|v| &**v as _).collect();
    // Floor: a relevance list costs one index query + a short filter
    // per query; don't spawn for fewer than 64 of them.
    let shards = threads.map_ranges_min(nq, 64, |range| {
        let mut flat: Vec<u32> = Vec::new();
        let mut ends: Vec<u32> = Vec::with_capacity(range.len());
        let mut buf: Vec<usize> = Vec::new();
        for v in &views[range] {
            match v.support() {
                Some(support) => support.candidates_into(index, &mut buf),
                None => {
                    buf.clear();
                    buf.extend(0..ns);
                }
            }
            for &si in &buf {
                if v.is_relevant(&sensors[si]) {
                    flat.push(si as u32);
                }
            }
            ends.push(flat.len() as u32);
        }
        (flat, ends)
    });
    let mut q_off: Vec<u32> = Vec::with_capacity(nq + 1);
    q_off.push(0);
    let mut q_flat: Vec<u32> = Vec::new();
    for (flat, ends) in shards {
        let base = q_flat.len();
        assert!(
            base + flat.len() <= u32::MAX as usize,
            "relevance pair count exceeds the u32 CSR layout"
        );
        q_off.extend(ends.iter().map(|&e| base as u32 + e));
        q_flat.extend_from_slice(&flat);
    }
    let mut s_off = vec![0u32; ns + 1];
    for &si in &q_flat {
        s_off[si as usize + 1] += 1;
    }
    for i in 0..ns {
        s_off[i + 1] += s_off[i];
    }
    let mut s_flat = vec![0u32; q_flat.len()];
    // Each query-major pair's sensor-major slot, where its marginal is
    // cached.
    let mut slot_of = vec![0u32; q_flat.len()];
    let mut cursor: Vec<u32> = s_off[..ns].to_vec();
    for qi in 0..nq {
        for p in q_off[qi] as usize..q_off[qi + 1] as usize {
            let si = q_flat[p] as usize;
            s_flat[cursor[si] as usize] = qi as u32;
            slot_of[p] = cursor[si];
            cursor[si] += 1;
        }
    }
    let row = |si: usize| s_off[si] as usize..s_off[si + 1] as usize;

    // One cached marginal δv_{q,s} per relevant pair, sensor-major. The
    // initial ones shard by contiguous sensor range: each is a pure
    // function of the (still unmutated) valuations, and the shards'
    // slots concatenate in range order.
    let shards = threads.map_ranges_min(ns, 256, |range| {
        let mut out: Vec<f64> =
            Vec::with_capacity((s_off[range.end] - s_off[range.start]) as usize);
        for si in range {
            for &qi in &s_flat[row(si)] {
                out.push(views[qi as usize].marginal(&sensors[si]));
            }
        }
        out
    });
    drop(views);
    let mut shards = shards.into_iter();
    let mut marginals: Vec<f64> = shards.next().unwrap_or_default();
    for shard in shards {
        marginals.extend_from_slice(&shard);
    }
    oracle_calls += marginals.len();

    // Sensors with no relevant query have gain −cost ≤ 0 and can never
    // be selected, so they never enter the heap; `stamp` versions each
    // sensor's gain so stale heap entries are discarded on pop.
    let mut stamp: Vec<u64> = vec![0; ns];
    let mut heap: BinaryHeap<Candidate> = BinaryHeap::new();
    for (si, s) in sensors.iter().enumerate() {
        let rel = row(si);
        if rel.is_empty() {
            continue;
        }
        let gain = gain(s.cost, &marginals[rel]);
        if gain > 1e-9 {
            heap.push(Candidate { gain, si, stamp: 0 });
        }
    }

    let mut committed: Vec<usize> = Vec::new();
    let mut touched: Vec<u64> = vec![0; ns];
    let mut touched_list: Vec<usize> = Vec::new();
    let mut round = 0u64;
    while let Some(top) = heap.pop() {
        let si = top.si;
        if !remaining[si] || top.stamp != stamp[si] {
            continue; // superseded by a later refresh, or already selected
        }
        let cost = sensors[si].cost;
        let delta_sum: f64 = marginals[row(si)].iter().filter(|&&d| d > 1e-12).sum();
        debug_assert!(delta_sum > cost);
        committed.clear();
        for p in row(si) {
            let delta = marginals[p];
            if delta > 1e-12 {
                let qi = s_flat[p] as usize;
                valuations[qi].commit(&sensors[si]);
                per_query_payments[qi].push((si, delta * cost / delta_sum));
                committed.push(qi);
            }
        }
        remaining[si] = false;
        selected.push(si);
        total_cost += cost;

        // A marginal changes only when its query receives a commit:
        // re-evaluate the pairs of the just-committed queries, then
        // re-sum the gains of the sensors they touch, so the heap
        // always holds current values.
        round += 1;
        touched_list.clear();
        for &qi in &committed {
            let v = &*valuations[qi];
            for p in q_off[qi] as usize..q_off[qi + 1] as usize {
                let sj = q_flat[p] as usize;
                if !remaining[sj] {
                    continue;
                }
                marginals[slot_of[p] as usize] = v.marginal(&sensors[sj]);
                oracle_calls += 1;
                if touched[sj] != round {
                    touched[sj] = round;
                    touched_list.push(sj);
                }
            }
        }
        for &sj in &touched_list {
            stamp[sj] += 1;
            let gain = gain(sensors[sj].cost, &marginals[row(sj)]);
            if gain > 1e-9 {
                heap.push(Candidate {
                    gain,
                    si: sj,
                    stamp: stamp[sj],
                });
            }
        }
    }

    let per_query_value: Vec<f64> = valuations.iter().map(|v| v.current_value()).collect();
    let total_value: f64 = per_query_value.iter().sum();
    GreedySelection {
        selected,
        per_query_value,
        per_query_payments,
        welfare: total_value - total_cost,
        total_cost,
        oracle_calls,
    }
}

/// A sensor's Algorithm 1 gain `Σ_q δv_{q,s} − c_s` from its cached
/// marginals in ascending query order, counting only those above the
/// `1e-12` noise floor.
fn gain(cost: f64, marginals: &[f64]) -> f64 {
    let mut gain = -cost;
    for &delta in marginals {
        if delta > 1e-12 {
            gain += delta;
        }
    }
    gain
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{scan_all, QueryId};
    use crate::query::{AggregateKind, AggregateQuery, PointQuery, QueryOrigin};
    use crate::valuation::aggregate::AggregateValuation;
    use crate::valuation::point::PointValuation;
    use crate::valuation::quality::QualityModel;
    use crate::valuation::FnValuation;
    use ps_geo::{Point, Rect};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sensor(id: usize, x: f64, y: f64, cost: f64, trust: f64) -> SensorSnapshot {
        SensorSnapshot {
            id,
            loc: Point::new(x, y),
            cost,
            trust,
            inaccuracy: 0.0,
        }
    }

    fn agg(id: u64, region: Rect, budget: f64) -> AggregateQuery {
        AggregateQuery {
            id: QueryId(id),
            region,
            budget,
            kind: AggregateKind::Average,
        }
    }

    #[test]
    fn selects_nothing_when_nothing_is_worth_it() {
        let q = agg(0, Rect::new(0.0, 0.0, 4.0, 4.0), 5.0);
        let mut v = AggregateValuation::new(&q, 10.0);
        let sensors = vec![sensor(0, 2.0, 2.0, 10.0, 1.0)];
        let mut vals: Vec<&mut dyn SetValuation> = vec![&mut v];
        let out = greedy_select(&mut vals, &sensors, &scan_all(&sensors), Threads::single());
        assert!(out.selected.is_empty());
        assert_eq!(out.welfare, 0.0);
    }

    #[test]
    fn sharing_across_overlapping_regions() {
        // Two overlapping aggregate queries; one central sensor serves
        // both even though neither alone would pay for it.
        let qa = agg(0, Rect::new(0.0, 0.0, 8.0, 8.0), 8.0);
        let qb = agg(1, Rect::new(4.0, 4.0, 12.0, 12.0), 8.0);
        let mut va = AggregateValuation::new(&qa, 10.0);
        let mut vb = AggregateValuation::new(&qb, 10.0);
        let sensors = vec![sensor(0, 6.0, 6.0, 10.0, 1.0)];
        let mut vals: Vec<&mut dyn SetValuation> = vec![&mut va, &mut vb];
        let out = greedy_select(&mut vals, &sensors, &scan_all(&sensors), Threads::single());
        assert_eq!(out.selected, vec![0]);
        assert!(out.welfare > 0.0);
        // Payments split in proportion to marginal value and cover cost.
        let paid: f64 = out
            .per_query_payments
            .iter()
            .flatten()
            .map(|&(_, p)| p)
            .sum();
        assert!((paid - 10.0).abs() < 1e-9);
    }

    /// Theorem 1, property 1: Σ_s δv_{q,s} = v_q(S_q) (telescoping).
    /// Property 2: total utility positive when any sensor selected.
    /// Property 3: individual utility non-negative.
    #[test]
    fn theorem_1_properties_hold_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..10 {
            let nq = 6;
            let queries: Vec<AggregateQuery> = (0..nq)
                .map(|i| {
                    let x = rng.gen_range(0.0..20.0);
                    let y = rng.gen_range(0.0..20.0);
                    agg(
                        i as u64,
                        Rect::new(
                            x,
                            y,
                            x + rng.gen_range(4.0..12.0),
                            y + rng.gen_range(4.0..12.0),
                        ),
                        rng.gen_range(20.0..80.0),
                    )
                })
                .collect();
            let mut vals_storage: Vec<AggregateValuation> = queries
                .iter()
                .map(|q| AggregateValuation::new(q, 5.0))
                .collect();
            let sensors: Vec<SensorSnapshot> = (0..15)
                .map(|id| {
                    sensor(
                        id,
                        rng.gen_range(0.0..25.0),
                        rng.gen_range(0.0..25.0),
                        10.0,
                        rng.gen_range(0.5..1.0),
                    )
                })
                .collect();
            let mut vals: Vec<&mut dyn SetValuation> = vals_storage
                .iter_mut()
                .map(|v| v as &mut dyn SetValuation)
                .collect();
            let out = greedy_select(&mut vals, &sensors, &scan_all(&sensors), Threads::single());

            // Property 1 (via payments → they were derived from the δs,
            // and values must telescope): recomputed value equals the
            // valuation's own current value. Also: per-query payments
            // never exceed the query's value (property 3).
            for (qi, v) in vals_storage.iter().enumerate() {
                let paid: f64 = out.per_query_payments[qi].iter().map(|&(_, p)| p).sum();
                assert!(
                    paid <= v.current_value() + 1e-9,
                    "trial {trial}: query {qi} paid {paid} for value {}",
                    v.current_value()
                );
            }
            // Property 2.
            if !out.selected.is_empty() {
                assert!(
                    out.welfare > -1e-9,
                    "trial {trial}: welfare {} negative",
                    out.welfare
                );
            }
            // Payments exactly cover each selected sensor's cost.
            let mut receipts = vec![0.0; sensors.len()];
            for pays in &out.per_query_payments {
                for &(si, p) in pays {
                    receipts[si] += p;
                }
            }
            for &si in &out.selected {
                assert!(
                    (receipts[si] - sensors[si].cost).abs() < 1e-9,
                    "trial {trial}: sensor {si} got {} for cost {}",
                    receipts[si],
                    sensors[si].cost
                );
            }
        }
    }

    /// Theorem 1, property 4: O(|Q||S|²) oracle calls.
    #[test]
    fn oracle_call_bound() {
        let mut rng = StdRng::seed_from_u64(5);
        let nq = 5;
        let ns = 12;
        let queries: Vec<AggregateQuery> = (0..nq)
            .map(|i| {
                agg(
                    i as u64,
                    Rect::new(0.0, 0.0, 20.0, 20.0),
                    rng.gen_range(50.0..150.0),
                )
            })
            .collect();
        let mut vals_storage: Vec<AggregateValuation> = queries
            .iter()
            .map(|q| AggregateValuation::new(q, 5.0))
            .collect();
        let sensors: Vec<SensorSnapshot> = (0..ns)
            .map(|id| {
                sensor(
                    id,
                    rng.gen_range(0.0..20.0),
                    rng.gen_range(0.0..20.0),
                    10.0,
                    1.0,
                )
            })
            .collect();
        let mut vals: Vec<&mut dyn SetValuation> = vals_storage
            .iter_mut()
            .map(|v| v as &mut dyn SetValuation)
            .collect();
        let out = greedy_select(&mut vals, &sensors, &scan_all(&sensors), Threads::single());
        assert!(
            out.oracle_calls <= nq * ns * ns,
            "oracle calls {} exceed |Q||S|² = {}",
            out.oracle_calls,
            nq * ns * ns
        );
    }

    #[test]
    fn point_queries_schedule_through_algorithm_1() {
        // Algorithm 5 feeds point queries into Algorithm 1; two same-spot
        // point queries share the sensor's cost.
        let quality = QualityModel::new(5.0);
        let q0 = PointQuery {
            id: QueryId(0),
            loc: Point::ORIGIN,
            budget: 7.0,
            offset: 0.0,
            theta_min: 0.2,
            origin: QueryOrigin::EndUser,
        };
        let q1 = PointQuery {
            id: QueryId(1),
            ..q0
        };
        let mut v0 = PointValuation::new(q0, quality);
        let mut v1 = PointValuation::new(q1, quality);
        let sensors = vec![sensor(0, 0.5, 0.0, 10.0, 1.0)];
        let mut vals: Vec<&mut dyn SetValuation> = vec![&mut v0, &mut v1];
        let out = greedy_select(&mut vals, &sensors, &scan_all(&sensors), Threads::single());
        assert_eq!(out.selected, vec![0]);
        assert!(out.welfare > 0.0);
        assert!(v0.best_sensor().is_some());
        assert!(v1.best_sensor().is_some());
    }

    /// Pruning candidates through a `SensorIndex` must not change a
    /// single selection, payment, or welfare bit.
    #[test]
    fn indexed_selection_is_identical_to_brute_force() {
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..8 {
            let queries: Vec<AggregateQuery> = (0..4)
                .map(|i| {
                    let x = rng.gen_range(0.0..30.0);
                    let y = rng.gen_range(0.0..30.0);
                    agg(
                        i as u64,
                        Rect::new(
                            x,
                            y,
                            x + rng.gen_range(3.0..9.0),
                            y + rng.gen_range(3.0..9.0),
                        ),
                        rng.gen_range(20.0..70.0),
                    )
                })
                .collect();
            let points: Vec<PointQuery> = (0..12)
                .map(|i| PointQuery {
                    id: QueryId(100 + i as u64),
                    loc: Point::new(rng.gen_range(0.0..35.0), rng.gen_range(0.0..35.0)),
                    budget: rng.gen_range(8.0..30.0),
                    offset: 0.0,
                    theta_min: 0.2,
                    origin: QueryOrigin::EndUser,
                })
                .collect();
            let sensors: Vec<SensorSnapshot> = (0..40)
                .map(|id| {
                    sensor(
                        id,
                        rng.gen_range(0.0..35.0),
                        rng.gen_range(0.0..35.0),
                        rng.gen_range(5.0..15.0),
                        rng.gen_range(0.5..1.0),
                    )
                })
                .collect();
            let quality = QualityModel::new(5.0);

            let run = |index: &SensorIndex| {
                let mut aggs: Vec<AggregateValuation> = queries
                    .iter()
                    .map(|q| AggregateValuation::new(q, 4.0))
                    .collect();
                let mut pts: Vec<PointValuation> = points
                    .iter()
                    .map(|q| PointValuation::new(*q, quality))
                    .collect();
                let mut vals: Vec<&mut dyn SetValuation> = Vec::new();
                for v in &mut aggs {
                    vals.push(v);
                }
                for v in &mut pts {
                    vals.push(v);
                }
                greedy_select(&mut vals, &sensors, index, Threads::single())
            };

            let positions: Vec<Point> = sensors.iter().map(|s| s.loc).collect();
            let idx = SensorIndex::build(&positions);
            let brute = run(&scan_all(&sensors));
            let indexed = run(&idx);
            assert_eq!(brute.selected, indexed.selected, "trial {trial}");
            assert_eq!(brute.welfare, indexed.welfare, "trial {trial}");
            assert_eq!(brute.total_cost, indexed.total_cost, "trial {trial}");
            assert_eq!(
                brute.per_query_payments, indexed.per_query_payments,
                "trial {trial}"
            );
            assert_eq!(brute.per_query_value, indexed.per_query_value);
        }
    }

    #[test]
    fn selection_order_is_by_best_gain() {
        // Whatever the geometry works out to, the first pick must be the
        // sensor with the largest total marginal gain minus cost.
        let qa = agg(0, Rect::new(0.0, 0.0, 6.0, 6.0), 30.0);
        let qb = agg(1, Rect::new(6.0, 0.0, 12.0, 6.0), 30.0);
        let shared = sensor(0, 6.0, 3.0, 10.0, 0.9);
        let solo = sensor(1, 3.0, 3.0, 10.0, 1.0);
        let sensors = vec![solo, shared];

        // Expected argmax computed independently on fresh valuations.
        let gains: Vec<f64> = sensors
            .iter()
            .map(|s| {
                let va = AggregateValuation::new(&qa, 4.0);
                let vb = AggregateValuation::new(&qb, 4.0);
                va.marginal(s).max(0.0) + vb.marginal(s).max(0.0) - s.cost
            })
            .collect();
        let expected_first = if gains[0] >= gains[1] { 0 } else { 1 };

        let mut va = AggregateValuation::new(&qa, 4.0);
        let mut vb = AggregateValuation::new(&qb, 4.0);
        let mut vals: Vec<&mut dyn SetValuation> = vec![&mut va, &mut vb];
        let out = greedy_select(&mut vals, &sensors, &scan_all(&sensors), Threads::single());
        assert_eq!(out.selected[0], expected_first);
    }

    /// Algorithm 1 as the paper states it: every round rescans every
    /// remaining sensor over every relevant query (line 5) with the
    /// production noise floors, lets the first maximum win, and charges
    /// the Eq. 11 payments.
    fn literal_greedy(
        valuations: &mut [&mut dyn SetValuation],
        sensors: &[SensorSnapshot],
    ) -> GreedySelection {
        let mut remaining = vec![true; sensors.len()];
        let mut selected = Vec::new();
        let mut per_query_payments: Vec<Vec<(usize, f64)>> = vec![Vec::new(); valuations.len()];
        let mut total_cost = 0.0;
        let mut oracle_calls = 0;
        loop {
            let mut best: Option<(usize, f64)> = None;
            let mut best_pos: Vec<(usize, f64)> = Vec::new();
            for (si, s) in sensors.iter().enumerate() {
                if !remaining[si] {
                    continue;
                }
                let mut gain = -s.cost;
                let mut pos = Vec::new();
                for (qi, v) in valuations.iter().enumerate() {
                    if v.is_relevant(s) {
                        let delta = v.marginal(s);
                        oracle_calls += 1;
                        if delta > 1e-12 {
                            pos.push((qi, delta));
                            gain += delta;
                        }
                    }
                }
                if gain > 1e-9 && best.is_none_or(|(_, b)| gain > b) {
                    best = Some((si, gain));
                    best_pos = pos;
                }
            }
            let Some((si, _)) = best else { break };
            let delta_sum: f64 = best_pos.iter().map(|&(_, d)| d).sum();
            for &(qi, delta) in &best_pos {
                valuations[qi].commit(&sensors[si]);
                per_query_payments[qi].push((si, delta * sensors[si].cost / delta_sum));
            }
            remaining[si] = false;
            selected.push(si);
            total_cost += sensors[si].cost;
        }
        let per_query_value: Vec<f64> = valuations.iter().map(|v| v.current_value()).collect();
        let total_value: f64 = per_query_value.iter().sum();
        GreedySelection {
            selected,
            per_query_value,
            per_query_payments,
            welfare: total_value - total_cost,
            total_cost,
            oracle_calls,
        }
    }

    /// A selection's outputs as raw bits, for exact comparison.
    type Bits = (Vec<usize>, Vec<Vec<(usize, u64)>>, Vec<u64>, u64);

    fn bits(out: &GreedySelection) -> Bits {
        (
            out.selected.clone(),
            out.per_query_payments
                .iter()
                .map(|pays| pays.iter().map(|&(si, p)| (si, p.to_bits())).collect())
                .collect(),
            out.per_query_value.iter().map(|v| v.to_bits()).collect(),
            out.welfare.to_bits(),
        )
    }

    /// A random slot: aggregates, one non-submodular custom valuation,
    /// then points — the engine's valuation order.
    struct Mix {
        aggregates: Vec<AggregateQuery>,
        custom: (Point, f64),
        points: Vec<PointQuery>,
        sensors: Vec<SensorSnapshot>,
    }

    impl Mix {
        /// Every 13th seed is large enough (≥ 512 sensors, ≥ 128
        /// queries) for both evaluate phases to shard at 4 threads.
        fn random(seed: u64) -> Self {
            let mut rng = StdRng::seed_from_u64(seed);
            let large = seed.is_multiple_of(13);
            let (side, ns, nagg, npts) = if large {
                (
                    70.0,
                    rng.gen_range(520..600),
                    rng.gen_range(3..7),
                    rng.gen_range(130..150),
                )
            } else {
                (
                    30.0,
                    rng.gen_range(8..80),
                    rng.gen_range(0..6),
                    rng.gen_range(0..25),
                )
            };
            let aggregates = (0..nagg)
                .map(|i| {
                    let x = rng.gen_range(0.0..side - 6.0);
                    let y = rng.gen_range(0.0..side - 6.0);
                    let w = rng.gen_range(2.0..10.0);
                    let h = rng.gen_range(2.0..10.0);
                    agg(i, Rect::new(x, y, x + w, y + h), rng.gen_range(10.0..80.0))
                })
                .collect();
            let custom = (
                Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)),
                rng.gen_range(10.0..60.0),
            );
            // Integer locations make some points share a spot.
            let points = (0..npts)
                .map(|i| PointQuery {
                    id: QueryId(100 + i as u64),
                    loc: Point::new(
                        rng.gen_range(0.0..side).floor(),
                        rng.gen_range(0.0..side).floor(),
                    ),
                    budget: rng.gen_range(6.0..30.0),
                    offset: 0.0,
                    theta_min: 0.2,
                    origin: QueryOrigin::EndUser,
                })
                .collect();
            // A few free sensors, as the online boundary pre-buys them.
            let sensors = (0..ns)
                .map(|id| SensorSnapshot {
                    id,
                    loc: Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)),
                    cost: if rng.gen_bool(0.05) {
                        0.0
                    } else {
                        rng.gen_range(2.0..15.0)
                    },
                    trust: rng.gen_range(0.4..1.0),
                    inaccuracy: rng.gen_range(0.0..0.2),
                })
                .collect();
            Mix {
                aggregates,
                custom,
                points,
                sensors,
            }
        }

        /// Runs `select` over fresh valuations.
        fn run(
            &self,
            select: impl FnOnce(&mut [&mut dyn SetValuation], &[SensorSnapshot]) -> GreedySelection,
        ) -> GreedySelection {
            let quality = QualityModel::new(5.0);
            let mut aggs: Vec<AggregateValuation> = self
                .aggregates
                .iter()
                .map(|q| AggregateValuation::new(q, 4.0))
                .collect();
            // Non-submodular: the square of the summed trust within 6
            // units of the centre, so a second nearby sensor adds more
            // than the first did.
            let (centre, budget) = self.custom;
            let mut custom = FnValuation::new(
                move |set: &[SensorSnapshot]| {
                    let near: f64 = set
                        .iter()
                        .filter(|s| s.loc.distance(centre) <= 6.0)
                        .map(|s| s.trust)
                        .sum();
                    budget * (near * near / 4.0).min(1.0)
                },
                budget,
            );
            let mut pts: Vec<PointValuation> = self
                .points
                .iter()
                .map(|q| PointValuation::new(*q, quality))
                .collect();
            let mut vals: Vec<&mut dyn SetValuation> = Vec::new();
            for v in &mut aggs {
                vals.push(v);
            }
            vals.push(&mut custom);
            for v in &mut pts {
                vals.push(v);
            }
            select(&mut vals, &self.sensors)
        }
    }

    /// The cached per-pair marginals must reproduce the literal
    /// algorithm bit for bit — selection order, payments, values and
    /// welfare — at 1 and 4 threads, on the grid and on `scan_all`.
    #[test]
    fn matches_literal_algorithm_1_bit_for_bit() {
        let mut selections = 0;
        for seed in 0..52u64 {
            let mix = Mix::random(seed);
            let reference = mix.run(literal_greedy);
            selections += reference.selected.len();
            let positions: Vec<Point> = mix.sensors.iter().map(|s| s.loc).collect();
            let grid = SensorIndex::build(&positions);
            let scan = scan_all(&mix.sensors);
            for index in [&grid, &scan] {
                for threads in [Threads::single(), Threads::new(4)] {
                    let out = mix.run(|vals, sensors| greedy_select(vals, sensors, index, threads));
                    assert_eq!(
                        bits(&out),
                        bits(&reference),
                        "seed {seed}, {} threads, scan_all: {}",
                        threads.get(),
                        std::ptr::eq(index, &scan)
                    );
                    assert!(out.oracle_calls <= reference.oracle_calls, "seed {seed}");
                }
            }
        }
        assert!(selections > 200, "mixes selected only {selections} sensors");
    }
}
