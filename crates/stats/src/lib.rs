//! Statistics substrate: linear regression over pluggable bases,
//! residual-driven sampling-time selection, time series, and descriptive
//! statistics.
//!
//! The location-monitoring experiments (§4.5 of the paper) valuate sampled
//! time sets through a linear-regression model (Eqs. 16–17) and choose the
//! *desired* sampling times with the technique of OptiMos (ref. \[19]):
//! pick the `k` timestamps whose induced model minimizes residuals against
//! the full historical trace. Both live here, built on `ps-linalg`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod descriptive;
pub mod regression;
pub mod sampling;
pub mod series;

pub use descriptive::Summary;
pub use regression::{Basis, DiurnalBasis, LinearModel, PolynomialBasis};
pub use sampling::{g_factor, select_sampling_times, HistoryDesign};
pub use series::TimeSeries;
