//! Grid geometry primitives shared across the participatory-sensing workspace.
//!
//! The paper's simulations all take place on rectangular grids (80×80 for the
//! random-waypoint dataset, 237×300 for the campaign dataset, 20×15 for the
//! Intel-Lab-style region-monitoring experiments). Coordinates are continuous
//! (`f64`) in *grid units*; discrete cells are addressed by [`Cell`].
//!
//! The crate is dependency-light on purpose: everything downstream (mobility
//! models, the Gaussian-process engine, the core acquisition algorithms)
//! builds on these types.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coverage;
pub mod grid;
pub mod index;
pub mod point;
pub mod rect;
pub mod tiles;
pub mod trajectory;

pub use coverage::{covered_fraction, CoverageMap};
pub use grid::{Cell, Grid};
pub use index::SensorIndex;
pub use point::Point;
pub use rect::Rect;
pub use tiles::TileGrid;
pub use trajectory::Trajectory;
