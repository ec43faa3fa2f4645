//! Residual-driven sampling-time selection (OptiMos, ref. \[19]) and the
//! `G` quality factor of Eq. 17.
//!
//! The paper determines the *desired* sampling times `T` of a location
//! monitoring query by working "on the historical data and select\[ing] the
//! sampling times such that the residuals of the model based on the values
//! at the sampling times and the model given all the historical data is
//! minimized" — with the number of sampling times fixed in advance. The
//! valuation of the *achieved* samples `T'` is then the residual ratio
//!
//! ```text
//! G(T') = Σ r²ᵢ|T  /  Σ r²ᵢ|T'                                  (Eq. 17)
//! ```
//!
//! where `r_i|X` is the residual of the i-th historical item against a
//! model trained only on timestamps in `X`.

use crate::regression::{design_matrix, Basis, LinearModel};
use crate::series::TimeSeries;
use ps_linalg::Matrix;

const RIDGE: f64 = 1e-8;

/// Cap on the residual ratio `G` of Eq. 17.
pub const G_MAX: f64 = 4.0;

/// A phenomenon history ready for Eq. 17: the series, the regression
/// basis, and the history's design matrix (one feature row per
/// historical time), computed once. Every residual sum of squares is read
/// against those rows, so no `G` evaluates the basis over the history
/// again.
#[derive(Debug, Clone)]
pub struct HistoryDesign<B> {
    basis: B,
    series: TimeSeries,
    rows: Matrix,
}

impl<B: Basis> HistoryDesign<B> {
    /// Computes the design matrix of `series`'s times under `basis`.
    pub fn new(basis: B, series: TimeSeries) -> Self {
        let rows = design_matrix(&basis, series.times());
        Self {
            basis,
            series,
            rows,
        }
    }

    /// The regression basis.
    pub fn basis(&self) -> &B {
        &self.basis
    }

    /// The historical series.
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }

    /// True when the history has no observations.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Residual sum of squares of the whole history under a model
    /// trained only on the history's values at `training_times` — the
    /// `Σ r²ᵢ|X` of Eq. 17.
    ///
    /// With no training times, the model predicts 0 everywhere, so the
    /// RSS is the raw energy of the series (maximally bad), which is the
    /// desired behaviour for `G(∅)`.
    ///
    /// # Panics
    /// Panics when training times are given for an empty history.
    pub fn rss_of_training_times(&self, training_times: &[f64]) -> f64 {
        let values: Vec<f64> = training_times
            .iter()
            .map(|&t| self.series.value_at(t))
            .collect();
        let model = LinearModel::fit(&self.basis, training_times, &values, RIDGE);
        model.rss(&self.rows, self.series.values())
    }
}

/// Greedily picks `k` of `candidates` so that a model trained on (the
/// historical values at) the picked times minimizes the residual sum of
/// squares against the whole `history`, and returns the picked indices
/// into `candidates` in pick order.
///
/// Ties break toward the earlier candidate. Nothing is picked from an
/// empty history.
pub fn select_sampling_indices<B: Basis>(
    history: &HistoryDesign<B>,
    candidates: &[f64],
    k: usize,
) -> Vec<usize> {
    let k = k.min(candidates.len());
    if k == 0 || history.is_empty() {
        return Vec::new();
    }
    let mut chosen: Vec<usize> = Vec::with_capacity(k);
    let mut training: Vec<f64> = Vec::with_capacity(k);
    let mut remaining: Vec<usize> = (0..candidates.len()).collect();
    for _ in 0..k {
        let mut best: Option<(usize, f64)> = None;
        for (pos, &idx) in remaining.iter().enumerate() {
            training.push(candidates[idx]);
            let rss = history.rss_of_training_times(&training);
            training.pop();
            match best {
                Some((_, b)) if b <= rss => {}
                _ => best = Some((pos, rss)),
            }
        }
        let (pos, _) = best.expect("remaining non-empty while k not reached");
        let idx = remaining.remove(pos);
        training.push(candidates[idx]);
        chosen.push(idx);
    }
    chosen
}

/// [`select_sampling_indices`] returning the picked times, sorted.
pub fn select_sampling_times<B: Basis>(
    history: &HistoryDesign<B>,
    candidates: &[f64],
    k: usize,
) -> Vec<f64> {
    let mut chosen: Vec<f64> = select_sampling_indices(history, candidates, k)
        .into_iter()
        .map(|i| candidates[i])
        .collect();
    chosen.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    chosen
}

/// `G = rss_desired / rss_sampled`, capped at [`G_MAX`], which it also is
/// when `rss_sampled` vanishes (a perfect fit from the sampled times).
pub fn g_ratio(rss_desired: f64, rss_sampled: f64) -> f64 {
    if rss_sampled <= 1e-12 {
        return G_MAX;
    }
    (rss_desired / rss_sampled).min(G_MAX)
}

/// The quality factor `G(T') = RSS|desired / RSS|sampled` of Eq. 17.
///
/// * `G = 0` when nothing has been sampled (infinite denominator in
///   spirit: a model with no data explains nothing).
/// * `G ≈ 1` when the sampled times are as informative as the desired
///   ones, and `G > 1` when they happen to be *more* informative.
/// * Guards against a zero denominator (perfect fit from `T'`) through
///   [`g_ratio`].
pub fn g_factor<B: Basis>(
    history: &HistoryDesign<B>,
    desired_times: &[f64],
    sampled_times: &[f64],
) -> f64 {
    if sampled_times.is_empty() || history.is_empty() {
        return 0.0;
    }
    g_ratio(
        history.rss_of_training_times(desired_times),
        history.rss_of_training_times(sampled_times),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regression::DiurnalBasis;

    fn diurnal_history() -> HistoryDesign<DiurnalBasis> {
        let times: Vec<f64> = (0..96).map(|i| i as f64 * 0.5).collect();
        let values: Vec<f64> = times
            .iter()
            .map(|&t| 20.0 + 6.0 * (std::f64::consts::TAU * t / 24.0).sin())
            .collect();
        HistoryDesign::new(
            DiurnalBasis {
                period: 24.0,
                harmonics: 1,
            },
            TimeSeries::new(times, values),
        )
    }

    #[test]
    fn selects_requested_count() {
        let h = diurnal_history();
        let candidates: Vec<f64> = (0..48).map(|i| i as f64).collect();
        let times = select_sampling_times(&h, &candidates, 5);
        assert_eq!(times.len(), 5);
        assert!(times.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn zero_k_gives_empty() {
        let h = diurnal_history();
        assert!(select_sampling_times(&h, &[1.0, 2.0], 0).is_empty());
    }

    #[test]
    fn k_larger_than_candidates_is_clamped() {
        let h = diurnal_history();
        let times = select_sampling_times(&h, &[1.0, 5.0], 10);
        assert_eq!(times.len(), 2);
    }

    #[test]
    fn selected_times_beat_random_prefix() {
        // The greedy choice should be at least as informative as naively
        // taking the first k candidates.
        let h = diurnal_history();
        let candidates: Vec<f64> = (0..48).map(|i| i as f64).collect();
        let k = 4;
        let selected = select_sampling_times(&h, &candidates, k);
        let naive: Vec<f64> = candidates[..k].to_vec();
        let rss_selected = h.rss_of_training_times(&selected);
        let rss_naive = h.rss_of_training_times(&naive);
        assert!(rss_selected <= rss_naive + 1e-9);
    }

    /// Eq. 17's RSS as it was computed before the history's design
    /// matrix was cached: a fresh fit, then the basis evaluated at every
    /// historical time.
    fn rss_reference(h: &HistoryDesign<DiurnalBasis>, training_times: &[f64]) -> f64 {
        let values: Vec<f64> = training_times
            .iter()
            .map(|&t| h.series().value_at(t))
            .collect();
        let model = LinearModel::fit(h.basis(), training_times, &values, RIDGE);
        crate::regression::rss_per_call_features(
            &model,
            h.basis(),
            h.series().times(),
            h.series().values(),
        )
    }

    #[test]
    fn cached_history_rss_matches_per_call_reference() {
        let h = diurnal_history();
        let sets: [&[f64]; 5] = [
            &[],
            &[3.0],
            &[0.0, 6.0, 12.0, 18.0],
            &[0.25, 7.3, 19.9, 40.0, 47.5, 47.5],
            &[-5.0, 60.0],
        ];
        for training in sets {
            assert_eq!(
                h.rss_of_training_times(training).to_bits(),
                rss_reference(&h, training).to_bits(),
                "training times {training:?}"
            );
        }
    }

    #[test]
    fn indices_are_picked_in_greedy_order() {
        let h = diurnal_history();
        let candidates: Vec<f64> = (0..48).rev().map(|i| i as f64).collect();
        let picked = select_sampling_indices(&h, &candidates, 4);
        assert_eq!(picked.len(), 4);
        // The first pick alone beats every other single candidate.
        let first = h.rss_of_training_times(&[candidates[picked[0]]]);
        for &c in &candidates {
            assert!(first <= h.rss_of_training_times(&[c]));
        }
        let mut times: Vec<f64> = picked.iter().map(|&i| candidates[i]).collect();
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(times, select_sampling_times(&h, &candidates, 4));
    }

    #[test]
    fn g_factor_empty_sampled_is_zero() {
        let h = diurnal_history();
        assert_eq!(g_factor(&h, &[0.0, 6.0, 12.0], &[]), 0.0);
    }

    #[test]
    fn g_factor_of_same_set_is_one() {
        let h = diurnal_history();
        let t = vec![0.0, 6.0, 12.0, 18.0, 24.0];
        let g = g_factor(&h, &t, &t);
        assert!((g - 1.0).abs() < 1e-9);
    }

    #[test]
    fn g_factor_grows_with_more_samples() {
        let h = diurnal_history();
        let desired = vec![0.0, 6.0, 12.0, 18.0];
        let few = vec![0.0, 6.0];
        let more = vec![0.0, 6.0, 12.0, 18.0];
        let g_few = g_factor(&h, &desired, &few);
        let g_more = g_factor(&h, &desired, &more);
        assert!(g_more >= g_few - 1e-9);
        assert!((g_more - 1.0).abs() < 1e-9);
    }

    #[test]
    fn g_factor_is_clamped() {
        let h = diurnal_history();
        // Sampled set far richer than a deliberately poor desired set.
        let desired = vec![0.0];
        let sampled: Vec<f64> = (0..24).map(|i| i as f64).collect();
        let g = g_factor(&h, &desired, &sampled);
        assert!(g <= 4.0 + 1e-12);
        assert!(g >= 1.0);
    }
}
