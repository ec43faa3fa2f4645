//! Gaussian processes for region-monitoring valuation and field synthesis.
//!
//! §2.3.1 of the paper models the monitored phenomenon as a Gaussian
//! process and valuates a sensor set `A` by the **expected reduction in
//! variance** at unobserved locations (Eq. 6):
//!
//! ```text
//! F(A) = Var(X_V) − ∫ P(x_A) · Var(X_V | X_A = x_A) dx_A
//! ```
//!
//! For a GP the posterior variance does not depend on the *observed
//! values*, only on the observation *locations*, so the expectation is
//! exact and closed-form: `F(A) = Σ_v [prior_var(v) − post_var(v | A)]`.
//! [`posterior::PosteriorField`] maintains that quantity incrementally via
//! rank-1 conditioning updates, giving O(cells) marginal-gain queries —
//! the inner loop of Algorithm 4.
//!
//! The crate also provides exact GP regression ([`gp::GaussianProcess`]),
//! prior sampling for synthesizing Intel-Lab-style correlated fields
//! ([`sample`]), and marginal-likelihood hyperparameter fitting
//! ([`hyper`]) used to "learn the parameters of the Gaussian model from a
//! fraction of sensor readings" (§4.6).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gp;
pub mod hyper;
pub mod kernel;
pub mod posterior;
pub mod sample;

pub use gp::GaussianProcess;
pub use kernel::{Exponential, Kernel, Matern32, SquaredExponential};
pub use posterior::{normalized_f, FieldOverlay, PosteriorField, F_NORMALIZATION};
