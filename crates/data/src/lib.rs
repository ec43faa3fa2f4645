//! Synthetic phenomenon datasets standing in for the paper's proprietary
//! traces.
//!
//! Two of the paper's data sources cannot be redistributed:
//!
//! * the **Intel Lab** sensor readings used as region-monitoring ground
//!   truth (§4.6) — replaced by [`intel::IntelFieldDataset`], a GP-sampled
//!   spatially correlated field with AR(1) temporal evolution over the
//!   same 20×15 grid, with stationary "motes" for hyperparameter
//!   learning;
//! * the **OpenSense ozone** trace from Zürich used for location
//!   monitoring (§4.5) — replaced by [`ozone::OzoneTrace`], a diurnal
//!   series with trend and AR(1) noise exhibiting the day-over-day
//!   periodicity ref. \[19]'s sampling-time selection assumes.
//!
//! Each substitution keeps what the algorithms read from the original.
//! The region valuation reads only the field's spatial covariance, which a
//! GP sample has by construction and which hyperparameters learned from the
//! motes recover. Location monitoring reads only the residuals of a
//! diurnal regression and the day-over-day similarity ref. \[19] assumes,
//! which a periodic series with trend and AR(1) noise reproduces. Both
//! datasets are deterministic in their seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod intel;
pub mod ozone;

pub use intel::IntelFieldDataset;
pub use ozone::OzoneTrace;
