//! Facade over the participatory-sensing workspace — a from-scratch Rust
//! reproduction of Riahi, Papaioannou, Trummer & Aberer, *"Utility-driven
//! Data Acquisition in Participatory Sensing"*, EDBT 2013.
//!
//! Each subsystem lives in its own `ps_*` crate; this crate re-exports
//! them under one roof so downstream users can depend on a single package
//! and so the repository's `tests/` and `examples/` have a natural home.
//!
//! | Crate | Role |
//! |---|---|
//! | [`core`] (`ps_core`) | Queries, valuations, scheduling algorithms, payments (the paper's §2–§3) |
//! | [`cluster`] (`ps_cluster`) | Sharded federation: tiled multi-aggregator cluster, halo routing, settlement |
//! | [`intake`] (`ps_intake`) | Event-time admission control for mid-slot arrivals: one pending list, per-slot quotas |
//! | [`geo`] (`ps_geo`) | Grid geometry: points, rectangles, cells, trajectories, coverage |
//! | [`sim`] (`ps_sim`) | Time-slotted simulator + one experiment driver per figure (§4) |
//! | [`stats`] (`ps_stats`) | Regression, sampling-time selection, descriptive statistics |
//! | [`gp`] (`ps_gp`) | Gaussian processes: kernels, posterior variance fields, hyperfitting |
//! | [`solver`] (`ps_solver`) | Exact BILP/UFL branch-and-bound, Local Search, greedy engines; the deterministic fork-join (`exec`) every parallel phase runs on |
//! | [`mobility`] (`ps_mobility`) | RWM, synthetic campaign, and stationary mobility models |
//! | [`linalg`] (`ps_linalg`) | Dense matrices, Cholesky, linear solves |
//! | [`data`] (`ps_data`) | Synthetic stand-ins for the Intel-Lab and OpenSense ozone traces |
//!
//! See `ps_core`'s crate docs for the paper-element → module table, and
//! the repository `README.md` for build/bench commands.
//!
//! # Example
//!
//! Schedule one slot of point queries with the exact (Eq. 9) solver:
//!
//! ```rust
//! use participatory_sensing::core::alloc::optimal::OptimalScheduler;
//! use participatory_sensing::core::alloc::PointScheduler;
//! use participatory_sensing::core::model::{QueryId, SensorSnapshot};
//! use participatory_sensing::core::query::{PointQuery, QueryOrigin};
//! use participatory_sensing::core::valuation::quality::QualityModel;
//! use participatory_sensing::geo::Point;
//!
//! let sensors = vec![SensorSnapshot {
//!     id: 0,
//!     loc: Point::new(2.0, 2.0),
//!     cost: 10.0,
//!     trust: 1.0,
//!     inaccuracy: 0.05,
//! }];
//! let queries = vec![PointQuery {
//!     id: QueryId(0),
//!     loc: Point::new(2.5, 2.5),
//!     budget: 30.0,
//!     offset: 0.0,
//!     theta_min: 0.2,
//!     origin: QueryOrigin::EndUser,
//! }];
//! // Eq. 4 quality model: sensors serve locations within d_max = 5.
//! let allocation =
//!     OptimalScheduler::new().schedule(&queries, &sensors, &QualityModel::new(5.0));
//! assert!(allocation.welfare > 0.0);
//! assert_eq!(allocation.sensors_used, vec![0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ps_cluster as cluster;
pub use ps_core as core;
pub use ps_data as data;
pub use ps_geo as geo;
pub use ps_gp as gp;
pub use ps_intake as intake;
pub use ps_linalg as linalg;
pub use ps_mobility as mobility;
pub use ps_sim as sim;
pub use ps_solver as solver;
pub use ps_stats as stats;
