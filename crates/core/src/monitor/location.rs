//! Algorithm 2: sensor selection for location monitoring queries.
//!
//! A location-monitoring query wants the phenomenon at location `l` over
//! `[t1, t2]`, ideally sampled at its desired times `T` (chosen by the
//! ref. \[19] technique). Because sensor availability is uncontrolled, the
//! algorithm (a) always issues a full-value point query at desired times,
//! after a miss, or past the last desired time, and (b) otherwise issues
//! an *opportunistic* point query worth at most a fraction `α` of the
//! query's accumulated extra budget (`v_q(T') − Ĉ`), keeping reserve for
//! uncertain future samples.

use crate::model::{QueryId, Slot};
use crate::query::{PointQuery, QueryOrigin};
use crate::valuation::monitoring::MonitoringValuation;
use ps_geo::Point;

/// State of one location-monitoring query across its lifetime.
#[derive(Debug, Clone)]
pub struct LocationMonitor {
    /// Query identifier.
    pub id: QueryId,
    /// Monitored location.
    pub loc: Point,
    /// First active slot.
    pub t1: Slot,
    /// Last active slot (inclusive).
    pub t2: Slot,
    /// Fraction of extra budget spent opportunistically (0.5 in §4.5).
    pub alpha: f64,
    /// Minimum acceptable reading quality for generated point queries.
    pub theta_min: f64,
    valuation: MonitoringValuation,
    sampled_times: Vec<f64>,
    qualities: Vec<f64>,
    spent: f64,
    /// Index into `valuation.desired_times()` of the next desired time not
    /// yet achieved (the `nst` pointer; `lst` is implicit).
    nst_idx: usize,
    /// `G(T')` for the current samples. Eq. 17 re-scores the full history
    /// on every evaluation, and `T'` only changes in
    /// [`LocationMonitor::apply_result`], so the engine-facing accessors
    /// reuse this cache instead of regressing per call.
    cached_g: f64,
    /// Eq. 16 value of the current samples (same caching rationale).
    cached_value: f64,
}

impl LocationMonitor {
    /// Creates the monitor. `valuation` carries the budget and the desired
    /// times `T` (sorted ascending).
    pub fn new(
        id: QueryId,
        loc: Point,
        t1: Slot,
        t2: Slot,
        alpha: f64,
        theta_min: f64,
        valuation: MonitoringValuation,
    ) -> Self {
        assert!(t1 <= t2, "empty monitoring window");
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0,1]");
        Self {
            id,
            loc,
            t1,
            t2,
            alpha,
            theta_min,
            valuation,
            sampled_times: Vec::new(),
            qualities: Vec::new(),
            spent: 0.0,
            nst_idx: 0,
            cached_g: 0.0,
            cached_value: 0.0,
        }
    }

    /// True while the query is running at slot `t`.
    pub fn is_active(&self, t: Slot) -> bool {
        t >= self.t1 && t <= self.t2
    }

    /// Achieved sampling times `T'`.
    pub fn sampled_times(&self) -> &[f64] {
        &self.sampled_times
    }

    /// Budget spent so far (`Ĉ`).
    pub fn spent(&self) -> f64 {
        self.spent
    }

    /// Current Eq. 16 value of the achieved samples (cached; recomputed
    /// only when a sample lands).
    pub fn value(&self) -> f64 {
        self.cached_value
    }

    /// Current utility: value minus payments.
    pub fn utility(&self) -> f64 {
        self.value() - self.spent
    }

    /// Quality-of-results metric for Fig. 8(b): `v_q(T',Θ)/B_q`, read
    /// off the cached value.
    pub fn quality_of_results(&self) -> f64 {
        let b = self.budget();
        if b <= 0.0 {
            0.0
        } else {
            self.cached_value / b
        }
    }

    /// The query's total budget.
    pub fn budget(&self) -> f64 {
        self.valuation.budget()
    }

    /// The exact Eq. 16 marginal of sampling at `t` as an affine function
    /// of the new reading's quality θ: `Δv(θ) = slope·θ + offset`.
    ///
    /// With `n` samples of total quality `ΣΘ` so far:
    ///
    /// ```text
    /// Δv(θ) = B·G(T'∪t)·(ΣΘ+θ)/(n+1) − B·G(T')·(ΣΘ/n)
    /// slope  = B·G(T'∪t)/(n+1)
    /// offset = B·( G(T'∪t)·ΣΘ/(n+1) − G(T')·ΣΘ/n )
    /// ```
    ///
    /// This is the "valuation function [that] considers the quality of the
    /// collected sensor readings" of §3.3: the point query's claimed value
    /// equals the monitor's true marginal at the assigned quality, so the
    /// scheduler never buys a sample that would lower the query's value.
    fn affine_marginal(&self, t: Slot) -> (f64, f64) {
        let b = self.budget();
        let n = self.qualities.len();
        let g_old = self.cached_g;
        let mut with_t = self.sampled_times.clone();
        with_t.push(t as f64);
        let g_new = self.valuation.g(&with_t);
        let slope = b * g_new / (n as f64 + 1.0);
        let offset = if n == 0 {
            0.0
        } else {
            let sum_theta: f64 = self.qualities.iter().sum();
            b * (g_new * sum_theta / (n as f64 + 1.0) - g_old * sum_theta / n as f64)
        };
        (slope, offset)
    }

    fn build_query(
        &self,
        t: Slot,
        id: QueryId,
        monitor_index: usize,
        cap: f64,
    ) -> Option<PointQuery> {
        let (slope, offset) = self.affine_marginal(t);
        let dv_max = slope + offset; // Δv at perfect quality
        if dv_max <= 1e-9 {
            return None;
        }
        // Never promise more than the cap or the remaining hard budget;
        // scale the affine valuation down so its maximum equals the grant.
        let grant = dv_max.min(cap).min(self.budget() - self.spent).max(0.0);
        if grant <= 1e-9 {
            return None;
        }
        let scale = grant / dv_max;
        // Quality floor: Eq. 16 averages reading qualities, so a sample
        // far below the collected average permanently dilutes every past
        // and future sample's contribution — a myopically positive but
        // long-run harmful trade. Demand at least 3/4 of the running
        // average ("the valuation function considers the quality of the
        // collected sensor readings", §3.3).
        let n = self.qualities.len();
        let avg_theta = if n == 0 {
            0.0
        } else {
            self.qualities.iter().sum::<f64>() / n as f64
        };
        let theta_floor = self.theta_min.max(0.75 * avg_theta);
        Some(PointQuery {
            id,
            loc: self.loc,
            budget: slope * scale,
            offset: offset * scale,
            theta_min: theta_floor,
            origin: QueryOrigin::LocationMonitor {
                monitor: monitor_index,
            },
        })
    }

    /// `CreatePointQuery` (Algorithm 2): the point query to issue at slot
    /// `t`, or `None` when no worthwhile budget can be allotted.
    ///
    /// `id` is the identifier for the generated query, `monitor_index` the
    /// caller's index for routing results back.
    pub fn create_point_query(
        &self,
        t: Slot,
        id: QueryId,
        monitor_index: usize,
    ) -> Option<PointQuery> {
        if !self.is_active(t) {
            return None;
        }
        let desired = self.valuation.desired_times();
        // Full-value conditions: t is a desired time or one was missed
        // (nst ≤ t), or all desired times have passed (nst = ∞).
        let full = match desired.get(self.nst_idx) {
            None => true,
            Some(&nst) => nst <= t as f64,
        };
        let cap = if full {
            f64::INFINITY
        } else {
            // Opportunistic: spend at most an α-fraction of the extra
            // budget accumulated so far.
            self.alpha * (self.value() - self.spent).max(0.0)
        };
        self.build_query(t, id, monitor_index, cap)
    }

    /// Baseline variant (§4.5): point queries only at the desired sampling
    /// times, always at full marginal value.
    pub fn create_point_query_baseline(
        &self,
        t: Slot,
        id: QueryId,
        monitor_index: usize,
    ) -> Option<PointQuery> {
        if !self.is_active(t) {
            return None;
        }
        let is_desired = self
            .valuation
            .desired_times()
            .iter()
            .any(|&d| (d - t as f64).abs() < 1e-9);
        if !is_desired {
            return None;
        }
        self.build_query(t, id, monitor_index, f64::INFINITY)
    }

    /// `ApplyResults` (Algorithm 2): records the outcome of this slot's
    /// point query. `result` is `Some((quality, payment))` when the point
    /// query was satisfied.
    pub fn apply_result(&mut self, t: Slot, result: Option<(f64, f64)>) {
        let Some((quality, payment)) = result else {
            return;
        };
        self.sampled_times.push(t as f64);
        self.qualities.push(quality);
        self.spent += payment;
        self.cached_g = self.valuation.g(&self.sampled_times);
        self.cached_value = self.valuation.value_with_g(self.cached_g, &self.qualities);
        // Advance nst past every desired time ≤ t (lst ← t implicitly).
        let desired = self.valuation.desired_times();
        while self.nst_idx < desired.len() && desired[self.nst_idx] <= t as f64 {
            self.nst_idx += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::valuation::monitoring::MonitoringContext;
    use ps_stats::regression::DiurnalBasis;
    use ps_stats::TimeSeries;
    use std::sync::Arc;

    fn context() -> Arc<MonitoringContext> {
        let times: Vec<f64> = (0..200).map(|i| i as f64 - 200.0).collect();
        let values: Vec<f64> = times
            .iter()
            .map(|&t| 30.0 + 8.0 * (std::f64::consts::TAU * t / 50.0).sin())
            .collect();
        Arc::new(MonitoringContext::new(
            DiurnalBasis {
                period: 50.0,
                harmonics: 1,
            },
            TimeSeries::new(times, values),
            None,
        ))
    }

    fn monitor(desired: Vec<f64>, budget: f64, alpha: f64) -> LocationMonitor {
        let valuation = MonitoringValuation::new(context(), budget, desired);
        LocationMonitor::new(
            QueryId(1),
            Point::new(5.0, 5.0),
            0,
            30,
            alpha,
            0.2,
            valuation,
        )
    }

    #[test]
    fn inactive_outside_window() {
        let m = monitor(vec![5.0, 15.0], 100.0, 0.5);
        assert!(!m.is_active(31));
        assert!(m.create_point_query(31, QueryId(9), 0).is_none());
    }

    #[test]
    fn full_value_at_desired_time() {
        let m = monitor(vec![5.0, 15.0], 100.0, 0.5);
        let pq = m
            .create_point_query(5, QueryId(9), 0)
            .expect("desired time");
        // Budget equals the full marginal Δv_t.
        assert!(pq.budget > 0.0);
        assert_eq!(pq.loc, m.loc);
        assert_eq!(pq.origin, QueryOrigin::LocationMonitor { monitor: 0 });
    }

    #[test]
    fn opportunistic_budget_is_zero_without_surplus() {
        // Before any sample the extra budget (value − spent) is 0, so an
        // off-schedule slot yields no point query.
        let m = monitor(vec![5.0, 15.0], 100.0, 0.5);
        assert!(m.create_point_query(2, QueryId(9), 0).is_none());
    }

    #[test]
    fn opportunistic_budget_appears_after_cheap_samples() {
        let mut m = monitor(vec![5.0, 15.0], 100.0, 0.5);
        // Satisfied at slot 5 with high quality, tiny payment → surplus.
        let pq = m.create_point_query(5, QueryId(9), 0).unwrap();
        assert!(pq.budget > 0.0);
        m.apply_result(5, Some((1.0, 1.0)));
        assert!(m.value() > 1.0);
        // Expected Δv_t computed independently from an identical valuation.
        let reference = MonitoringValuation::new(context(), 100.0, vec![5.0, 15.0]);
        let dv_t = reference.marginal(&[5.0], &[1.0], 7.0, 1.0);
        let cap = 0.5 * (m.value() - m.spent());
        match m.create_point_query(7, QueryId(10), 0) {
            Some(opp) => {
                assert!(dv_t > 0.0, "query issued despite non-positive marginal");
                // Capped by both α·(value − spent) and Δv_t.
                assert!(opp.budget <= cap + 1e-9);
                assert!(opp.budget <= dv_t + 1e-9);
            }
            None => {
                // Legitimate only when the marginal (or the cap) vanishes.
                assert!(
                    dv_t <= 1e-9 || cap <= 1e-9,
                    "no query despite Δv_t = {dv_t}, cap = {cap}"
                );
            }
        }
    }

    #[test]
    fn missed_desired_time_triggers_full_query() {
        let mut m = monitor(vec![5.0, 15.0], 100.0, 0.5);
        // Nothing sampled at slot 5 (failed); at slot 6 nst (=5) ≤ 6 → full.
        m.apply_result(5, None);
        let pq = m
            .create_point_query(6, QueryId(9), 0)
            .expect("recovery query");
        let full_dv = pq.budget;
        assert!(full_dv > 0.0);
    }

    #[test]
    fn nst_advances_on_success() {
        let mut m = monitor(vec![5.0, 15.0], 200.0, 0.5);
        m.apply_result(5, Some((0.9, 2.0)));
        assert_eq!(m.sampled_times(), &[5.0]);
        // Slot 6 is now off-schedule (nst = 15): only opportunistic.
        let pq = m.create_point_query(6, QueryId(9), 0);
        if let Some(pq) = pq {
            assert!(pq.max_value() <= 0.5 * (m.value() - m.spent()) + 1e-9);
        }
    }

    #[test]
    fn past_final_desired_time_is_full_value() {
        let mut m = monitor(vec![5.0], 100.0, 0.5);
        m.apply_result(5, Some((1.0, 1.0)));
        // nst exhausted → full-value opportunistic sampling.
        let pq = m.create_point_query(20, QueryId(9), 0);
        assert!(pq.is_some());
    }

    #[test]
    fn spending_never_exceeds_budget() {
        let mut m = monitor(vec![2.0, 4.0, 6.0], 10.0, 0.5);
        for t in 0..30 {
            if let Some(pq) = m.create_point_query(t, QueryId(t as u64), 0) {
                assert!(
                    pq.max_value() <= m.budget() - m.spent() + 1e-9,
                    "over-budget point query"
                );
                // Worst case: pay the full promised value.
                m.apply_result(t, Some((1.0, pq.max_value())));
            }
        }
        assert!(m.spent() <= m.budget() + 1e-9);
    }

    #[test]
    fn baseline_only_queries_desired_times() {
        let m = monitor(vec![5.0, 15.0], 100.0, 0.5);
        assert!(m.create_point_query_baseline(5, QueryId(9), 0).is_some());
        assert!(m.create_point_query_baseline(6, QueryId(9), 0).is_none());
        assert!(m.create_point_query_baseline(14, QueryId(9), 0).is_none());
        assert!(m.create_point_query_baseline(15, QueryId(9), 0).is_some());
    }

    #[test]
    fn cached_value_matches_the_valuation_bit_for_bit() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..4 {
            let mut m = monitor(vec![3.0, 9.0, 14.0, 22.0], rng.gen_range(20.0..200.0), 0.5);
            let mut samples = 0;
            for t in 0..=30 {
                let asked = m.create_point_query(t, QueryId(t as u64), 0);
                let result = asked.filter(|_| rng.gen_bool(0.8)).map(|pq| {
                    (
                        rng.gen_range(0.3..1.0),
                        pq.max_value() * rng.gen_range(0.1..1.0),
                    )
                });
                samples += usize::from(result.is_some());
                m.apply_result(t, result);
                let reference = m.valuation.value(&m.sampled_times, &m.qualities);
                assert_eq!(m.value().to_bits(), reference.to_bits(), "slot {t}");
                assert_eq!(
                    m.quality_of_results().to_bits(),
                    m.valuation
                        .quality_of_results(&m.sampled_times, &m.qualities)
                        .to_bits()
                );
            }
            assert!(samples >= 4, "only {samples} samples landed");
        }
    }

    #[test]
    fn utility_is_value_minus_spend() {
        let mut m = monitor(vec![5.0, 15.0], 100.0, 0.5);
        m.apply_result(5, Some((1.0, 3.0)));
        assert!((m.utility() - (m.value() - 3.0)).abs() < 1e-12);
        assert!(m.quality_of_results() > 0.0);
    }
}
