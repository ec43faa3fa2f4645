//! Continuous queries (§2.3, §3.3): location and region monitoring.
//!
//! Both monitor types translate themselves into *point queries* each time
//! slot (Algorithms 2 and 3), which are then scheduled jointly with all
//! other queries — that is how the paper shares sensors between one-shot
//! and continuous workloads. The monitors keep per-query state: samples
//! achieved so far (`T'`), budget spent (`Ĉ`), and the pacing bookkeeping
//! (`lst`, `nst`, and the α-fraction opportunistic budget).

pub mod event;
pub mod location;
pub mod region;

pub use event::{EventDetection, EventMonitor, EventQuerySpec};
pub use location::LocationMonitor;
pub use region::{sharing_weight, RegionMonitor, RegionPlan};
