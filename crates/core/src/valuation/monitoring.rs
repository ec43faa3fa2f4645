//! The location-monitoring valuation of Eqs. 16–17:
//!
//! ```text
//! v_q(T', Θ) = B_q · G(T') · (Σ_{θ∈Θ} θ) / |Θ|
//! G(T') = Σ r²ᵢ|T / Σ r²ᵢ|T'
//! ```
//!
//! `T` is the set of desired sampling times (chosen by the ref. \[19]
//! technique in `ps_stats::sampling`), `T'` the achieved ones, and `Θ`
//! their reading qualities. Residuals come from a linear-regression model
//! over the phenomenon's historical trace.

use ps_stats::regression::DiurnalBasis;
use ps_stats::sampling::{g_ratio, HistoryDesign};
use ps_stats::TimeSeries;
use std::sync::Arc;

/// Shared regression context: one per monitored phenomenon.
///
/// The history's design matrix is computed once, at construction, and
/// every Eq. 17 residual sum of squares of every query sharing the
/// context is read against it.
#[derive(Debug, Clone)]
pub struct MonitoringContext {
    history: HistoryDesign<DiurnalBasis>,
    fold: Option<(f64, f64)>,
}

impl MonitoringContext {
    /// A context over the historical trace `history` (the "past days" of
    /// the ozone series) under the linear model's feature `basis`.
    ///
    /// `fold` is an optional day-folding `(period, anchor)`: simulation
    /// times are mapped to `anchor + (t mod period)` before regressing,
    /// implementing ref. \[19]'s assumption that "the data values for the
    /// current time interval are almost the same as the data values in
    /// the same time interval in the past". `None` uses times verbatim
    /// (history must then cover the query window).
    pub fn new(basis: DiurnalBasis, history: TimeSeries, fold: Option<(f64, f64)>) -> Self {
        Self {
            history: HistoryDesign::new(basis, history),
            fold,
        }
    }

    /// The historical trace and the linear model's basis, with the
    /// cached design matrix.
    pub fn design(&self) -> &HistoryDesign<DiurnalBasis> {
        &self.history
    }

    /// The day-folding `(period, anchor)`, if any.
    pub fn fold(&self) -> Option<(f64, f64)> {
        self.fold
    }

    /// Maps a simulation time into history coordinates.
    pub fn map_time(&self, t: f64) -> f64 {
        match self.fold {
            Some((period, anchor)) => anchor + t.rem_euclid(period),
            None => t,
        }
    }

    /// `Σ r²ᵢ|X` of Eq. 17 for training times given in simulation
    /// coordinates.
    fn rss_of(&self, times: &[f64]) -> f64 {
        let mapped: Vec<f64> = times.iter().map(|&t| self.map_time(t)).collect();
        self.history.rss_of_training_times(&mapped)
    }
}

/// Per-query Eq. 16 valuation with the desired-times residual cached
/// (`T` never changes over a query's lifetime, `T'` grows every slot).
#[derive(Debug, Clone)]
pub struct MonitoringValuation {
    ctx: Arc<MonitoringContext>,
    budget: f64,
    desired_times: Vec<f64>,
    rss_desired: f64,
}

impl MonitoringValuation {
    /// Builds the valuation; `desired_times` is the query's `T` in
    /// simulation coordinates.
    pub fn new(ctx: Arc<MonitoringContext>, budget: f64, desired_times: Vec<f64>) -> Self {
        let rss_desired = ctx.rss_of(&desired_times);
        Self {
            ctx,
            budget,
            desired_times,
            rss_desired,
        }
    }

    /// The query budget `B_q`.
    pub fn budget(&self) -> f64 {
        self.budget
    }

    /// The desired sampling times `T`.
    pub fn desired_times(&self) -> &[f64] {
        &self.desired_times
    }

    /// `G(T')` of Eq. 17 with the cached numerator. `sampled_times` are in
    /// simulation coordinates.
    pub fn g(&self, sampled_times: &[f64]) -> f64 {
        if sampled_times.is_empty() || self.ctx.history.is_empty() {
            return 0.0;
        }
        g_ratio(self.rss_desired, self.ctx.rss_of(sampled_times))
    }

    /// Eq. 16: the value of samples at `sampled_times` with reading
    /// qualities `qualities`.
    ///
    /// # Panics
    /// Panics when the two slices differ in length.
    pub fn value(&self, sampled_times: &[f64], qualities: &[f64]) -> f64 {
        assert_eq!(
            sampled_times.len(),
            qualities.len(),
            "every sample needs a quality"
        );
        if qualities.is_empty() {
            return 0.0;
        }
        self.value_with_g(self.g(sampled_times), qualities)
    }

    /// Eq. 16 from an already evaluated `g = G(T')`: what
    /// [`MonitoringValuation::value`] returns for samples whose `G` is
    /// `g`, without regressing again.
    pub fn value_with_g(&self, g: f64, qualities: &[f64]) -> f64 {
        if qualities.is_empty() {
            return 0.0;
        }
        let avg_theta: f64 = qualities.iter().sum::<f64>() / qualities.len() as f64;
        self.budget * g * avg_theta
    }

    /// The marginal value of adding a sample at `t` with expected quality
    /// `expected_quality` — the `Δv_t` of Algorithm 2's
    /// `CreatePointQuery`.
    pub fn marginal(
        &self,
        sampled_times: &[f64],
        qualities: &[f64],
        t: f64,
        expected_quality: f64,
    ) -> f64 {
        let mut with_t = sampled_times.to_vec();
        with_t.push(t);
        let mut with_q = qualities.to_vec();
        with_q.push(expected_quality);
        self.value(&with_t, &with_q) - self.value(sampled_times, qualities)
    }

    /// Quality-of-results metric: achieved value over budget, i.e.
    /// `G(T')·avgθ`.
    pub fn quality_of_results(&self, sampled_times: &[f64], qualities: &[f64]) -> f64 {
        if self.budget <= 0.0 {
            return 0.0;
        }
        self.value(sampled_times, qualities) / self.budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn no_samples_is_worthless() {
        let v = MonitoringValuation::new(context(), 100.0, vec![0.0, 10.0, 20.0]);
        assert_eq!(v.value(&[], &[]), 0.0);
        assert_eq!(v.g(&[]), 0.0);
    }

    #[test]
    fn achieving_desired_times_with_perfect_quality_reaches_budget() {
        let desired = vec![0.0, 10.0, 20.0, 30.0];
        let v = MonitoringValuation::new(context(), 100.0, desired.clone());
        let qualities = vec![1.0; desired.len()];
        let value = v.value(&desired, &qualities);
        assert!((value - 100.0).abs() < 1e-6, "value {value} != budget");
    }

    #[test]
    fn quality_discounts_value_linearly() {
        let desired = vec![0.0, 10.0, 20.0, 30.0];
        let v = MonitoringValuation::new(context(), 100.0, desired.clone());
        let value = v.value(&desired, &[0.5, 0.5, 0.5, 0.5]);
        assert!((value - 50.0).abs() < 1e-6);
    }

    #[test]
    fn fewer_samples_are_worth_less() {
        let desired = vec![0.0, 10.0, 20.0, 30.0];
        let v = MonitoringValuation::new(context(), 100.0, desired.clone());
        let partial = v.value(&desired[..2], &[1.0, 1.0]);
        let full = v.value(&desired, &[1.0; 4]);
        assert!(partial < full);
        assert!(partial > 0.0);
    }

    #[test]
    fn marginal_is_consistent_with_value() {
        let desired = vec![0.0, 10.0, 20.0, 30.0];
        let v = MonitoringValuation::new(context(), 100.0, desired);
        let sampled = vec![0.0, 10.0];
        let qualities = vec![0.9, 0.8];
        let m = v.marginal(&sampled, &qualities, 20.0, 0.85);
        let before = v.value(&sampled, &qualities);
        let after = v.value(&[0.0, 10.0, 20.0], &[0.9, 0.8, 0.85]);
        assert!((after - before - m).abs() < 1e-9);
    }

    #[test]
    fn g_is_capped() {
        let v = MonitoringValuation::new(context(), 100.0, vec![0.0]);
        let rich: Vec<f64> = (0..25).map(|i| i as f64 * 2.0).collect();
        assert!(v.g(&rich) <= 4.0 + 1e-12);
    }

    #[test]
    fn quality_of_results_is_value_over_budget() {
        let desired = vec![0.0, 10.0, 20.0];
        let v = MonitoringValuation::new(context(), 80.0, desired.clone());
        let q = v.quality_of_results(&desired, &[1.0, 1.0, 1.0]);
        assert!((q - 1.0).abs() < 1e-6);
    }
}
