//! Algorithms 3 & 4: sensor selection for region monitoring queries.
//!
//! Each slot, a region-monitoring query consults its sampling-point
//! function `f_q` (Algorithm 4) to pick the most informative sensor
//! locations in its region given the remaining budget, turns them into
//! point queries whose value is the sensor's marginal contribution to the
//! query's Eq. 7 valuation, and — after the joint point-query execution —
//! additionally *contributes* up to `α(C_t − Ĉ_t)` toward sensors that
//! other queries already selected inside its region (free-riding on
//! shared measurements, Algorithm 3's `A_{r,t}` step).
//!
//! The Eq. 18 cost weighting lives here as [`sharing_weight`]; the paper
//! prints `w(k) = 11 − k (k < 10)` while defining `w` as a `[0, 1]`-valued
//! *reduction* factor, so we read it as `(11 − k)/10` — see DESIGN.md §3.

use crate::model::{index_or_scan_all, QueryId, SensorSnapshot, Slot};
use crate::query::{PointQuery, QueryOrigin};
use crate::valuation::region::RegionValuation;
use crate::valuation::SetValuation;
use ps_geo::{Rect, SensorIndex};

/// Eq. 18 cost-sharing weight: the factor applied to a sensor's cost when
/// `k` region-monitoring queries could share it.
pub fn sharing_weight(k: usize) -> f64 {
    match k {
        0 | 1 => 1.0,
        k if k < 10 => (11 - k) as f64 / 10.0,
        _ => 0.1,
    }
}

/// Output of `CreatePointQueries` for one region monitor at one slot.
#[derive(Debug, Clone)]
pub struct RegionPlan {
    /// Point queries to execute this slot, each at the location of the
    /// sensor its [`QueryOrigin::RegionMonitor`] names.
    pub queries: Vec<PointQuery>,
    /// Expected spend `C_t` (weighted costs of the planned sensors).
    pub expected_cost: f64,
}

impl RegionPlan {
    /// An empty plan.
    pub fn empty() -> Self {
        Self {
            queries: Vec::new(),
            expected_cost: 0.0,
        }
    }
}

/// State of one region-monitoring query across its lifetime.
#[derive(Debug, Clone)]
pub struct RegionMonitor {
    /// Query identifier.
    pub id: QueryId,
    /// Monitored region `r_q`.
    pub region: Rect,
    /// First active slot.
    pub t1: Slot,
    /// Last active slot (inclusive).
    pub t2: Slot,
    /// Opportunistic budget fraction α (0.5 in §4.6).
    pub alpha: f64,
    /// θ_min used for the generated point queries.
    pub theta_min: f64,
    /// Accumulated Eq. 7 valuation (observed sensors condition the GP).
    valuation: RegionValuation,
    /// Pristine prior for Algorithm 4's per-call fresh fields.
    prior: RegionValuation,
    spent: f64,
}

impl RegionMonitor {
    /// Creates the monitor around an Eq. 7 valuation.
    pub fn new(
        id: QueryId,
        t1: Slot,
        t2: Slot,
        alpha: f64,
        theta_min: f64,
        valuation: RegionValuation,
    ) -> Self {
        assert!(t1 <= t2, "empty monitoring window");
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0,1]");
        let region = *valuation.region();
        Self {
            id,
            region,
            t1,
            t2,
            alpha,
            theta_min,
            prior: valuation.clone(),
            valuation,
            spent: 0.0,
        }
    }

    /// True while the query is running at slot `t`.
    pub fn is_active(&self, t: Slot) -> bool {
        t >= self.t1 && t <= self.t2
    }

    /// Budget spent so far (`Ĉ`).
    pub fn spent(&self) -> f64 {
        self.spent
    }

    /// Remaining hard budget.
    pub fn remaining_budget(&self) -> f64 {
        (self.valuation.max_value() - self.spent).max(0.0)
    }

    /// Current Eq. 7 value of everything observed so far.
    pub fn value(&self) -> f64 {
        self.valuation.current_value()
    }

    /// Utility so far: value minus payments.
    pub fn utility(&self) -> f64 {
        self.value() - self.spent
    }

    /// Quality-of-results metric for Fig. 9(b): `v_q(S)/B_q` (not bounded
    /// by 1, since `F` is not).
    pub fn quality_of_results(&self) -> f64 {
        let b = self.valuation.max_value();
        if b <= 0.0 {
            0.0
        } else {
            self.value() / b
        }
    }

    /// `CreatePointQueries` (Algorithm 3) with `f_q` = Algorithm 4.
    ///
    /// `sensors` is the full snapshot slice; `weighted_cost[i]` is each
    /// sensor's cost after Eq. 18 weighting (callers pass plain costs when
    /// no sharing applies). `make_id` mints identifiers for the generated
    /// point queries; `monitor_index` routes results back. The `S_{r,t}`
    /// candidate set is a rectangle query on `index`, a [`SensorIndex`]
    /// over the snapshot slice (a [`SensorIndex::scan_all`] when `None`),
    /// filtered by [`Rect::contains`] and kept in ascending order, so the
    /// plan is identical with and without a grid index.
    pub fn plan_indexed(
        &self,
        t: Slot,
        sensors: &[SensorSnapshot],
        weighted_cost: &[f64],
        monitor_index: usize,
        make_id: &mut dyn FnMut() -> QueryId,
        index: Option<&SensorIndex>,
    ) -> RegionPlan {
        assert_eq!(sensors.len(), weighted_cost.len());
        if !self.is_active(t) {
            return RegionPlan::empty();
        }
        let budget = self.remaining_budget();
        if budget <= 1e-9 {
            return RegionPlan::empty();
        }

        // Candidates: sensors inside the region (S_{r,t}).
        let candidates: Vec<usize> = index_or_scan_all(index, sensors)
            .query_rect(&self.region)
            .into_iter()
            .filter(|&i| self.region.contains(sensors[i].loc))
            .collect();
        if candidates.is_empty() {
            return RegionPlan::empty();
        }

        // Algorithm 4: greedy (sensor, time) selection under the budget,
        // assuming current locations persist. One fresh-prior field per
        // future time τ, created lazily; the discount
        // (t2 − τ)/(t2 − t1) biases selections toward the present.
        //
        // Committing into τ* only changes that field, so each τ's
        // per-candidate marginals are cached and recomputed only after a
        // commit into it — the same GP values the full rescan produced,
        // at O(candidates) instead of O(candidates × horizon) marginal
        // evaluations per iteration. Fields are materialized (an
        // O(cells²) covariance clone) only for the τ that actually
        // receive a commit: an untouched field *is* the prior, so its
        // marginals come from one shared prior evaluation.
        let horizon = self.t2 - t + 1;
        let mut fields: Vec<Option<RegionValuation>> = vec![None; horizon];
        let mut chosen: Vec<Vec<usize>> = vec![Vec::new(); horizon]; // per τ-offset
        let mut gains: Vec<Option<Vec<f64>>> = vec![None; horizon]; // per τ-offset
        let mut prior_gains: Option<Vec<f64>> = None;
        let duration = (self.t2 - self.t1).max(1) as f64;
        let mut committed_cost = 0.0;

        while committed_cost < budget {
            for tau_off in 0..horizon {
                if gains[tau_off].is_none() {
                    gains[tau_off] = Some(match &fields[tau_off] {
                        Some(field) => candidates
                            .iter()
                            .map(|&si| field.marginal(&sensors[si]))
                            .collect(),
                        None => prior_gains
                            .get_or_insert_with(|| {
                                candidates
                                    .iter()
                                    .map(|&si| self.prior.marginal(&sensors[si]))
                                    .collect()
                            })
                            .clone(),
                    });
                }
            }
            let mut best: Option<(usize, usize, f64)> = None; // (cand, τ_off, δ)
            for (k, &si) in candidates.iter().enumerate() {
                for tau_off in 0..horizon {
                    if chosen[tau_off].contains(&si) {
                        continue;
                    }
                    let gain = gains[tau_off].as_ref().expect("refreshed above")[k];
                    if gain <= 0.0 {
                        continue;
                    }
                    let tau = t + tau_off;
                    // Algorithm 4 line 7: δ = ΔF · θ_s · (t2 − τ)/(t2 − t1);
                    // our `marginal` already folds θ in, so only the time
                    // discount remains. For τ = t2 the discount is 0 —
                    // keep a tiny floor so current-slot picks still win.
                    let discount = ((self.t2 - tau) as f64 / duration).max(1e-6);
                    let delta = gain * discount;
                    match best {
                        Some((_, _, b)) if b >= delta => {}
                        _ => best = Some((si, tau_off, delta)),
                    }
                }
            }
            let Some((si, tau_off, _delta)) = best else {
                break;
            };
            let field = fields[tau_off].get_or_insert_with(|| self.prior.clone());
            field.commit(&sensors[si]);
            chosen[tau_off].push(si);
            gains[tau_off] = None;
            committed_cost += weighted_cost[si];
        }

        // Point queries for the *current* slot's selections (S_tc), valued
        // at each sensor's marginal contribution within the chosen set,
        // evaluated against the query's accumulated state.
        let current = &chosen[0];
        let mut queries = Vec::new();
        let mut expected_cost = 0.0;
        let mut promised = 0.0;
        // v_q(S_t) is the same for every s — build it once.
        let v_all = {
            let mut with_all = self.valuation.clone();
            for &sj in current {
                with_all.commit(&sensors[sj]);
            }
            with_all.current_value()
        };
        for &si in current {
            let s = &sensors[si];
            // v_pq = v_q(S_t) − v_q(S_t \ {s}): recompute with the
            // accumulated valuation, committing all of S_t except s.
            let mut without = self.valuation.clone();
            for &sj in current {
                if sj != si {
                    without.commit(&sensors[sj]);
                }
            }
            let vp = (v_all - without.current_value()).max(0.0);
            // Promised point-query budgets are upper bounds on payments;
            // never promise beyond the remaining hard budget.
            let vp = vp.min((self.remaining_budget() - promised).max(0.0));
            if vp <= 1e-9 {
                continue;
            }
            promised += vp;
            expected_cost += weighted_cost[si];
            queries.push(PointQuery {
                id: make_id(),
                loc: s.loc,
                budget: vp,
                offset: 0.0,
                theta_min: self.theta_min,
                origin: QueryOrigin::RegionMonitor {
                    monitor: monitor_index,
                    sensor: si,
                },
            });
        }
        RegionPlan {
            queries,
            expected_cost,
        }
    }

    /// `ApplyResults` (Algorithm 3): records satisfied point queries and
    /// opportunistically contributes toward shared sensors.
    ///
    /// * `satisfied` — `(serving sensor snapshot, payment)` for each of
    ///   this monitor's satisfied point queries.
    /// * `plan` — the plan those queries came from (for `C_t`).
    /// * `shared_candidates` — sensors in the region selected this slot
    ///   for *other* queries (`A_{r,t}`), available for free-riding.
    ///
    /// Returns the per-sensor contributions paid from the α-budget, to be
    /// refunded to the other queries by the caller (Alg. 5's payment
    /// adjustment).
    pub fn apply_results(
        &mut self,
        satisfied: &[(SensorSnapshot, f64)],
        plan: &RegionPlan,
        shared_candidates: &[SensorSnapshot],
    ) -> Vec<(usize, f64)> {
        let mut spent_now = 0.0;
        for (sensor, payment) in satisfied {
            self.valuation.commit(sensor);
            spent_now += payment;
        }
        self.spent += spent_now;

        // Extra budget: α(C_t − Ĉ_t), never exceeding the hard budget.
        let mut cap = (self.alpha * (plan.expected_cost - spent_now))
            .max(0.0)
            .min(self.remaining_budget());
        let mut contributions = Vec::new();
        for s in shared_candidates {
            if cap <= 1e-9 {
                break;
            }
            let marginal = self.valuation.marginal(s);
            if marginal <= 1e-9 {
                continue;
            }
            // Pay up to the sensor's cost, the marginal value, and the cap.
            let pay = s.cost.min(marginal).min(cap);
            self.valuation.commit(s);
            self.spent += pay;
            cap -= pay;
            contributions.push((s.id, pay));
        }
        contributions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_geo::Point;
    use ps_gp::kernel::SquaredExponential;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sensor(id: usize, x: f64, y: f64) -> SensorSnapshot {
        SensorSnapshot {
            id,
            loc: Point::new(x, y),
            cost: 10.0,
            trust: 1.0,
            inaccuracy: 0.0,
        }
    }

    fn monitor(budget: f64, t1: Slot, t2: Slot) -> RegionMonitor {
        let valuation = RegionValuation::new(
            budget,
            Rect::new(0.0, 0.0, 8.0, 6.0),
            &SquaredExponential::new(2.0, 2.0),
            0.1,
        );
        RegionMonitor::new(QueryId(3), t1, t2, 0.5, 0.2, valuation)
    }

    /// Plans slot `t` at the sensors' plain costs.
    fn plan_at_cost(
        m: &RegionMonitor,
        t: Slot,
        sensors: &[SensorSnapshot],
        index: Option<&SensorIndex>,
    ) -> RegionPlan {
        let costs: Vec<f64> = sensors.iter().map(|s| s.cost).collect();
        let mut next_id = 0u64;
        let mut make_id = || {
            next_id += 1;
            QueryId(next_id)
        };
        m.plan_indexed(t, sensors, &costs, 0, &mut make_id, index)
    }

    #[test]
    fn sharing_weight_matches_eq18_interpretation() {
        assert_eq!(sharing_weight(0), 1.0);
        assert_eq!(sharing_weight(1), 1.0);
        assert_eq!(sharing_weight(2), 0.9);
        assert_eq!(sharing_weight(9), 0.2);
        assert_eq!(sharing_weight(10), 0.1);
        assert_eq!(sharing_weight(50), 0.1);
        for k in 0..60 {
            let w = sharing_weight(k);
            assert!((0.1..=1.0).contains(&w));
        }
    }

    #[test]
    fn plan_selects_sensors_inside_region() {
        let m = monitor(60.0, 0, 10);
        let sensors = vec![
            sensor(0, 2.0, 2.0),
            sensor(1, 6.0, 4.0),
            sensor(2, 20.0, 20.0), // outside
        ];
        let plan = plan_at_cost(&m, 0, &sensors, None);
        assert!(!plan.queries.is_empty());
        for q in &plan.queries {
            let QueryOrigin::RegionMonitor { sensor, .. } = q.origin else {
                panic!("a planned query names its monitor and sensor");
            };
            assert_ne!(sensor, 2, "outside sensor must not be planned");
            assert!(m.region.contains(q.loc));
            assert!(q.budget > 0.0);
        }
    }

    #[test]
    fn indexed_plan_matches_unindexed_plan() {
        let m = monitor(60.0, 0, 10);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..8 {
            let sensors: Vec<SensorSnapshot> = (0..30)
                .map(|i| sensor(i, rng.gen_range(-2.0..10.0), rng.gen_range(-2.0..8.0)))
                .collect();
            let index = SensorIndex::build(&sensors.iter().map(|s| s.loc).collect::<Vec<_>>());
            let indexed = plan_at_cost(&m, 0, &sensors, Some(&index));
            assert!(!indexed.queries.is_empty());
            let plain = plan_at_cost(&m, 0, &sensors, None);
            assert_eq!(format!("{plain:?}"), format!("{indexed:?}"));
        }
    }

    #[test]
    fn plan_respects_budget() {
        // Budget 15 with cost-10 sensors: at most ~1–2 sensors planned
        // across all horizon slots, so the current slot gets ≤ 2.
        let m = monitor(15.0, 0, 10);
        let sensors: Vec<SensorSnapshot> = (0..6).map(|i| sensor(i, 1.0 + i as f64, 3.0)).collect();
        let plan = plan_at_cost(&m, 0, &sensors, None);
        assert!(plan.queries.len() <= 2);
    }

    #[test]
    fn inactive_monitor_plans_nothing() {
        let m = monitor(60.0, 5, 10);
        let sensors = vec![sensor(0, 2.0, 2.0)];
        let plan = plan_at_cost(&m, 2, &sensors, None);
        assert!(plan.queries.is_empty());
    }

    #[test]
    fn apply_results_accumulates_value_and_spend() {
        let mut m = monitor(60.0, 0, 10);
        let s = sensor(0, 4.0, 3.0);
        let plan = RegionPlan {
            queries: Vec::new(),
            expected_cost: 10.0,
        };
        assert_eq!(m.value(), 0.0);
        m.apply_results(&[(s, 8.0)], &plan, &[]);
        assert!(m.value() > 0.0);
        assert_eq!(m.spent(), 8.0);
        assert!(m.utility() < m.value());
    }

    #[test]
    fn shared_sensors_consume_alpha_budget_only() {
        let mut m = monitor(60.0, 0, 10);
        let plan = RegionPlan {
            queries: Vec::new(),
            expected_cost: 20.0, // nothing satisfied → extra budget α·20 = 10
        };
        let shared = vec![sensor(5, 3.0, 3.0), sensor(6, 6.0, 4.0)];
        let contributions = m.apply_results(&[], &plan, &shared);
        let total: f64 = contributions.iter().map(|&(_, c)| c).sum();
        assert!(total > 0.0, "sharing should contribute something");
        assert!(total <= 10.0 + 1e-9, "contribution exceeded α(C_t − Ĉ_t)");
        assert!(m.value() > 0.0, "shared measurements must add value");
    }

    #[test]
    fn contributions_never_exceed_marginal_value() {
        let mut m = monitor(60.0, 0, 10);
        let plan = RegionPlan {
            queries: Vec::new(),
            expected_cost: 40.0,
        };
        let a = sensor(5, 3.0, 3.0);
        let duplicate = sensor(6, 3.0, 3.0); // nearly no marginal after a
        let contributions = m.apply_results(&[], &plan, &[a, duplicate]);
        if contributions.len() == 2 {
            assert!(contributions[1].1 < contributions[0].1);
        }
    }

    #[test]
    fn exhausted_budget_stops_planning() {
        let mut m = monitor(12.0, 0, 10);
        let s = sensor(0, 4.0, 3.0);
        let plan = RegionPlan {
            queries: Vec::new(),
            expected_cost: 12.0,
        };
        m.apply_results(&[(s, 12.0)], &plan, &[]);
        assert!(m.remaining_budget() < 1e-9);
        let sensors = vec![sensor(1, 2.0, 2.0)];
        let p2 = plan_at_cost(&m, 1, &sensors, None);
        assert!(p2.queries.is_empty());
    }
}
