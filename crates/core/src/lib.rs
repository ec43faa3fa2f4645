//! Utility-driven data acquisition for participatory sensing — a
//! from-scratch reproduction of Riahi, Papaioannou, Trummer & Aberer,
//! *"Utility-driven Data Acquisition in Participatory Sensing"*,
//! EDBT 2013.
//!
//! An **aggregator** receives queries of heterogeneous types — one-shot
//! point queries, spatial aggregates, trajectory queries, and continuous
//! location/region-monitoring queries — and each time slot selects which
//! mobile, priced, imperfectly trusted sensors to task so that the *total
//! utility* (value to the queries minus payments to the sensors, Eq. 2)
//! is maximized, sharing sensors across queries wherever possible.
//!
//! Module map (paper element → module):
//!
//! | Paper | Module |
//! |---|---|
//! | sensor quality θ (Eq. 4) | [`valuation::quality`] |
//! | point valuation (Eq. 3) | [`valuation::point`] |
//! | aggregate valuation (Eq. 5) | [`valuation::aggregate`] |
//! | region-monitoring valuation (Eqs. 6–7) | [`valuation::region`] |
//! | location-monitoring valuation (Eqs. 16–17) | [`valuation::monitoring`] |
//! | energy + privacy costs (Eqs. 8, 14, 15) | [`cost`] |
//! | optimal BILP scheduling (Eq. 9) | [`alloc::optimal`] |
//! | Local Search scheduling (§3.1.2) | [`alloc::local_search`] |
//! | greedy multi-query selection (Alg. 1) | [`alloc::greedy`] |
//! | baselines (§4.3, §4.4, §4.7) | [`alloc::baseline`] |
//! | location monitoring (Alg. 2) | [`monitor::location`] |
//! | region monitoring (Algs. 3 + 4, Eq. 18) | [`monitor::region`] |
//! | query-mix orchestration (Alg. 5) | [`aggregator`] |
//! | proportionate cost sharing (Eq. 11) | [`payment`] |
//!
//! The public entry point is the stateful [`aggregator::Aggregator`]
//! engine: builder-configured, owning query intake, monitor lifecycle,
//! and running totals, with one [`aggregator::Aggregator::step`] per
//! time slot whose report carries that slot's ledger. (The deprecated
//! `mix` free-function shims were removed after one release;
//! `docs/MIGRATION.md` maps every removed symbol to its builder-API
//! replacement.)

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregator;
pub mod alloc;
pub mod cost;
pub mod model;
pub mod monitor;
pub mod payment;
pub mod query;
pub mod streaming;
pub mod valuation;

pub use aggregator::{Aggregator, AggregatorBuilder, MixStrategy, SlotReport};
pub use exec::Threads;
pub use model::{QueryId, SensorSnapshot, Slot};
pub use ps_solver::exec;
pub use query::{AggregateQuery, PointQuery, QueryOrigin, TrajectoryQuery};
pub use streaming::{ArrivalEvent, ArrivalPayload, StreamStats};
pub use valuation::quality::QualityModel;
