//! Mobility models and traces for participatory-sensing simulations.
//!
//! The paper evaluates on two mobility datasets (§4.2): **RWM**, a
//! random-waypoint trace on an 80×80 grid, and **RNC**, a real campaign
//! trace from Lausanne (637×300 grid working area, ~120 sensors present in
//! the 100×100 working region per slot). RWM is fully specified in the
//! paper and implemented verbatim in [`rwm`]; the campaign trace is not
//! redistributable, so [`campaign`] synthesizes a behaviourally equivalent
//! substitute (trip-based movement around home anchors with staggered
//! presence sessions, reproducing the properties §4.2 reports that the
//! algorithms depend on; see the [`campaign`] module docs). [`stationary`]
//! models fixed deployments such as the Intel-Lab motes.
//!
//! All models are deterministic functions of their seed, producing a
//! [`MobilityTrace`]: per-slot optional positions for every agent.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod rwm;
pub mod stationary;
pub mod trace;

pub use campaign::CampaignModel;
pub use rwm::RandomWaypoint;
pub use stationary::StationaryModel;
pub use trace::{MobilityModel, MobilityTrace};
