//! Valuation functions: how queries price sensor readings.
//!
//! Applications attach a valuation function to every query (§2); the
//! aggregator treats them as black boxes. This module implements every
//! example valuation the paper evaluates with, behind the incremental
//! [`SetValuation`] interface Algorithm 1 consumes.

pub mod aggregate;
pub mod monitoring;
pub mod multi_point;
pub mod point;
pub mod quality;
pub mod region;

use crate::model::SensorSnapshot;
use ps_geo::{Point, Rect, SensorIndex};

/// The spatial region outside of which a valuation's sensors are
/// guaranteed irrelevant — the contract behind
/// [`SetValuation::support`].
///
/// A [`SensorIndex`] query over the support yields a *superset* of the
/// sensors for which [`SetValuation::is_relevant`] can return `true`;
/// the exact filter is still applied afterwards, so pruning with the
/// support never changes which sensors a valuation sees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpatialSupport {
    /// All relevant sensors lie within `radius` of `center` (single-point
    /// queries under a distance-bounded quality model, Eq. 4).
    Disk {
        /// Centre of the support disk.
        center: Point,
        /// Radius of the support disk.
        radius: f64,
    },
    /// All relevant sensors lie inside the rectangle (region-bounded
    /// queries; callers pre-expand by any sensing radius).
    Rect(Rect),
}

impl SpatialSupport {
    /// Queries `index` for the candidate sensors inside the support,
    /// appending ascending indices to `out` (cleared first).
    pub fn candidates_into(&self, index: &SensorIndex, out: &mut Vec<usize>) {
        match *self {
            SpatialSupport::Disk { center, radius } => index.query_disk_into(center, radius, out),
            SpatialSupport::Rect(rect) => index.query_rect_into(&rect, out),
        }
    }

    /// The support's anchor point — the disk centre or the rectangle
    /// centroid. This is the federation layer's routing key: a sharded
    /// cluster sends a query to the tile owning its support's anchor
    /// (`ps_cluster`), so the anchor must be a pure function of the
    /// support, independent of any sensor announcement.
    pub fn anchor(&self) -> Point {
        match *self {
            SpatialSupport::Disk { center, .. } => center,
            SpatialSupport::Rect(rect) => rect.center(),
        }
    }

    /// Whether the support lies entirely inside `rect` — the exactness
    /// test of the federation layer: a query whose support fits its
    /// shard's tile+halo rectangle sees its full candidate set.
    pub fn fits_within(&self, rect: &Rect) -> bool {
        match *self {
            SpatialSupport::Disk { center, radius } => {
                center.x - radius >= rect.min_x
                    && center.x + radius <= rect.max_x
                    && center.y - radius >= rect.min_y
                    && center.y + radius <= rect.max_y
            }
            SpatialSupport::Rect(r) => rect.contains_rect(&r),
        }
    }
}

/// A query's valuation over *sets* of sensors, consumed incrementally by
/// the greedy selection of Algorithm 1.
///
/// The contract mirrors the paper's black-box `v_q(·)`:
/// `marginal(s)` must equal `v(S ∪ {s}) − v(S)` for the committed set `S`,
/// and `commit(s)` moves `S ← S ∪ {s}`. Implementations keep whatever
/// incremental state makes `marginal` cheap (coverage bitmaps, GP
/// posteriors); [`FnValuation`] adapts an arbitrary closure for
/// applications with custom valuations.
///
/// `Send + Sync` is a supertrait because the engine's parallel evaluate
/// phase reads valuations (`is_relevant`, `support`, `marginal`) from
/// scoped worker threads; all mutation (`commit`) stays on the serial
/// select phase. Valuations are therefore plain data — no interior
/// mutability — which every in-tree implementation already satisfies.
pub trait SetValuation: Send + Sync {
    /// `v_q(S)` for the currently committed set.
    fn current_value(&self) -> f64;

    /// `v_q(S ∪ {s}) − v_q(S)` without committing.
    fn marginal(&self, sensor: &SensorSnapshot) -> f64;

    /// Commits `s` into the query's selected set.
    fn commit(&mut self, sensor: &SensorSnapshot);

    /// Fast pre-filter (the `Q_{l_s}` of Algorithm 1, line 5): sensors for
    /// which this returns `false` can never have a positive marginal.
    fn is_relevant(&self, sensor: &SensorSnapshot) -> bool;

    /// The spatial region outside of which [`SetValuation::is_relevant`]
    /// is guaranteed `false`, letting Algorithm 1 fetch candidate sensors
    /// from a [`SensorIndex`] instead of scanning the whole announcement.
    /// `None` (the default) means "anywhere" — every sensor is tested.
    fn support(&self) -> Option<SpatialSupport> {
        None
    }

    /// Upper bound of the valuation, used for the "average quality of
    /// results" metric (`v_q(S_q)` divided by this).
    fn max_value(&self) -> f64;
}

/// Adapter exposing an arbitrary closure `v(S)` as a [`SetValuation`], for
/// applications whose valuation has no incremental structure. Keeps the
/// committed snapshots and recomputes from scratch on every call.
pub struct FnValuation<F: Fn(&[SensorSnapshot]) -> f64 + Send + Sync> {
    f: F,
    committed: Vec<SensorSnapshot>,
    max_value: f64,
}

impl<F: Fn(&[SensorSnapshot]) -> f64 + Send + Sync> FnValuation<F> {
    /// Wraps `f`; `max_value` is the application-declared valuation cap.
    pub fn new(f: F, max_value: f64) -> Self {
        Self {
            f,
            committed: Vec::new(),
            max_value,
        }
    }

    /// The committed sensor set.
    pub fn committed(&self) -> &[SensorSnapshot] {
        &self.committed
    }
}

impl<F: Fn(&[SensorSnapshot]) -> f64 + Send + Sync> SetValuation for FnValuation<F> {
    fn current_value(&self) -> f64 {
        (self.f)(&self.committed)
    }

    fn marginal(&self, sensor: &SensorSnapshot) -> f64 {
        let mut with = self.committed.clone();
        with.push(*sensor);
        (self.f)(&with) - (self.f)(&self.committed)
    }

    fn commit(&mut self, sensor: &SensorSnapshot) {
        self.committed.push(*sensor);
    }

    fn is_relevant(&self, _sensor: &SensorSnapshot) -> bool {
        true
    }

    fn max_value(&self) -> f64 {
        self.max_value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_geo::Point;

    fn snap(id: usize, x: f64) -> SensorSnapshot {
        SensorSnapshot {
            id,
            loc: Point::new(x, 0.0),
            cost: 10.0,
            trust: 1.0,
            inaccuracy: 0.0,
        }
    }

    #[test]
    fn fn_valuation_marginals_are_consistent() {
        // v(S) = count of distinct x coordinates, capped at 2.
        let v = |s: &[SensorSnapshot]| -> f64 {
            let mut xs: Vec<i64> = s.iter().map(|s| s.loc.x as i64).collect();
            xs.sort_unstable();
            xs.dedup();
            (xs.len() as f64).min(2.0)
        };
        let mut val = FnValuation::new(v, 2.0);
        assert_eq!(val.current_value(), 0.0);
        assert_eq!(val.marginal(&snap(0, 1.0)), 1.0);
        val.commit(&snap(0, 1.0));
        assert_eq!(val.marginal(&snap(1, 1.0)), 0.0); // duplicate x
        assert_eq!(val.marginal(&snap(1, 2.0)), 1.0);
        val.commit(&snap(1, 2.0));
        assert_eq!(val.marginal(&snap(2, 3.0)), 0.0); // cap reached
        assert_eq!(val.current_value(), 2.0);
        assert_eq!(val.max_value(), 2.0);
    }

    #[test]
    fn fn_valuation_is_relevant_everywhere_without_a_support() {
        let mut val = FnValuation::new(|set: &[SensorSnapshot]| set.len() as f64, 5.0);
        assert!(val.support().is_none());
        assert!(val.is_relevant(&snap(0, 1e6)));
        val.commit(&snap(3, 1.0));
        val.commit(&snap(1, 2.0));
        let ids: Vec<usize> = val.committed().iter().map(|s| s.id).collect();
        assert_eq!(ids, [3, 1], "commit order");
        assert_eq!(val.current_value(), 2.0);
    }

    #[test]
    fn supports_anchor_at_the_disk_centre_and_the_rect_centroid() {
        let disk = SpatialSupport::Disk {
            center: Point::new(3.0, 4.0),
            radius: 5.0,
        };
        assert_eq!(disk.anchor(), Point::new(3.0, 4.0));
        let rect = SpatialSupport::Rect(Rect::new(0.0, 10.0, 4.0, 30.0));
        assert_eq!(rect.anchor(), Point::new(2.0, 20.0));
    }

    #[test]
    fn disk_support_fits_only_when_the_whole_disk_is_inside() {
        let tile = Rect::new(0.0, 0.0, 10.0, 10.0);
        let disk = |x, y, radius| SpatialSupport::Disk {
            center: Point::new(x, y),
            radius,
        };
        assert!(
            disk(5.0, 5.0, 5.0).fits_within(&tile),
            "touching every side"
        );
        assert!(!disk(5.0, 5.0, 5.5).fits_within(&tile));
        assert!(
            !disk(1.0, 5.0, 2.0).fits_within(&tile),
            "crosses the left side"
        );
        assert!(
            !disk(9.0, 5.0, 2.0).fits_within(&tile),
            "crosses the right side"
        );
        assert!(
            !disk(5.0, 1.0, 2.0).fits_within(&tile),
            "crosses the bottom side"
        );
        assert!(
            !disk(5.0, 9.0, 2.0).fits_within(&tile),
            "crosses the top side"
        );
        assert!(!disk(12.0, 5.0, 1.0).fits_within(&tile), "centre outside");
    }

    #[test]
    fn rect_support_fits_within_a_containing_rect_only() {
        let tile = Rect::new(0.0, 0.0, 10.0, 10.0);
        let rect = |x0, y0, x1, y1| SpatialSupport::Rect(Rect::new(x0, y0, x1, y1));
        assert!(rect(0.0, 0.0, 10.0, 10.0).fits_within(&tile));
        assert!(rect(2.0, 2.0, 8.0, 8.0).fits_within(&tile));
        assert!(
            !rect(8.0, 2.0, 12.0, 8.0).fits_within(&tile),
            "overlaps the side"
        );
        assert!(
            !rect(-5.0, -5.0, 15.0, 15.0).fits_within(&tile),
            "contains the tile"
        );
        assert!(!rect(20.0, 20.0, 30.0, 30.0).fits_within(&tile), "disjoint");
    }

    /// A grid index answers a support with exactly the sensors inside it,
    /// ascending, in place of whatever `out` held.
    #[test]
    fn candidates_into_lists_the_sensors_inside_the_support() {
        let points: Vec<Point> = (0..50)
            .map(|i| Point::new((i % 10) as f64 * 3.0, (i / 10) as f64 * 3.0))
            .collect();
        let index = SensorIndex::build(&points);
        let inside = |keep: &dyn Fn(Point) -> bool| -> Vec<usize> {
            (0..points.len()).filter(|&i| keep(points[i])).collect()
        };
        let mut out = vec![999, 998];
        let center = Point::new(9.0, 6.0);
        SpatialSupport::Disk {
            center,
            radius: 4.0,
        }
        .candidates_into(&index, &mut out);
        assert_eq!(out, inside(&|p| p.distance(center) <= 4.0));
        let region = Rect::new(0.0, 0.0, 6.0, 3.0);
        SpatialSupport::Rect(region).candidates_into(&index, &mut out);
        assert_eq!(out, inside(&|p| region.contains(p)));
        assert_eq!(out.len(), 6);
    }
}
