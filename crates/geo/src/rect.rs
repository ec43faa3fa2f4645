//! Axis-aligned rectangles: query regions, working regions, hotspots.

use crate::{Cell, Point};
use serde::{Deserialize, Serialize};

/// An axis-aligned rectangle `[min_x, max_x] × [min_y, max_y]` in grid
/// units. Used for query regions (spatial aggregates, region monitoring)
/// and for the "working region" the aggregator restricts itself to.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rect {
    /// Left edge.
    pub min_x: f64,
    /// Bottom edge.
    pub min_y: f64,
    /// Right edge (inclusive).
    pub max_x: f64,
    /// Top edge (inclusive).
    pub max_y: f64,
}

impl Rect {
    /// Creates a rectangle from its corner coordinates. Coordinates are
    /// normalized so `min_* <= max_*`.
    pub fn new(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Self {
        Self {
            min_x: min_x.min(max_x),
            min_y: min_y.min(max_y),
            max_x: min_x.max(max_x),
            max_y: min_y.max(max_y),
        }
    }

    /// A `width × height` rectangle anchored at the origin.
    pub fn with_size(width: f64, height: f64) -> Self {
        Self::new(0.0, 0.0, width, height)
    }

    /// Width of the rectangle.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max_x - self.min_x
    }

    /// Height of the rectangle.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max_y - self.min_y
    }

    /// Area in square grid units. This is the `A(r_q)` of the budget
    /// formulas in §4.4 and §4.6 of the paper.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Geometric centre.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new(
            (self.min_x + self.max_x) * 0.5,
            (self.min_y + self.max_y) * 0.5,
        )
    }

    /// True when `p` lies inside the rectangle (inclusive bounds).
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min_x && p.x <= self.max_x && p.y >= self.min_y && p.y <= self.max_y
    }

    /// True when `other` lies entirely inside `self`.
    pub fn contains_rect(&self, other: &Rect) -> bool {
        other.min_x >= self.min_x
            && other.max_x <= self.max_x
            && other.min_y >= self.min_y
            && other.max_y <= self.max_y
    }

    /// Intersection with `other`, or `None` when they are disjoint.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        let min_x = self.min_x.max(other.min_x);
        let min_y = self.min_y.max(other.min_y);
        let max_x = self.max_x.min(other.max_x);
        let max_y = self.max_y.min(other.max_y);
        if min_x <= max_x && min_y <= max_y {
            Some(Rect {
                min_x,
                min_y,
                max_x,
                max_y,
            })
        } else {
            None
        }
    }

    /// True when the rectangles overlap (share at least a boundary point).
    pub fn intersects(&self, other: &Rect) -> bool {
        self.intersection(other).is_some()
    }

    /// Clamps `p` to the closest point inside the rectangle.
    pub fn clamp_point(&self, p: Point) -> Point {
        p.clamp(self.min_x, self.min_y, self.max_x, self.max_y)
    }

    /// Euclidean distance from `p` to the rectangle (0 when inside).
    pub fn distance_to_point(&self, p: Point) -> f64 {
        p.distance(self.clamp_point(p))
    }

    /// Iterator over the integer cells whose centres fall inside the
    /// rectangle. Cells are unit squares with centres at
    /// `(col + 0.5, row + 0.5)`.
    pub fn cells(&self) -> impl Iterator<Item = Cell> + '_ {
        let col_lo = (self.min_x - 0.5).ceil().max(0.0) as usize;
        let col_hi = (self.max_x - 0.5).floor() as i64;
        let row_lo = (self.min_y - 0.5).ceil().max(0.0) as usize;
        let row_hi = (self.max_y - 0.5).floor() as i64;
        let cols = if col_hi < col_lo as i64 {
            0..0
        } else {
            col_lo..(col_hi as usize + 1)
        };
        let rows = if row_hi < row_lo as i64 {
            0..0
        } else {
            row_lo..(row_hi as usize + 1)
        };
        rows.flat_map(move |row| cols.clone().map(move |col| Cell { col, row }))
    }

    /// Number of unit cells whose centres fall inside the rectangle.
    pub fn cell_count(&self) -> usize {
        self.cells().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn new_normalizes_corners() {
        let r = Rect::new(5.0, 7.0, 1.0, 2.0);
        assert_eq!(r, Rect::new(1.0, 2.0, 5.0, 7.0));
    }

    #[test]
    fn area_and_center() {
        let r = Rect::new(0.0, 0.0, 4.0, 2.0);
        assert_eq!(r.area(), 8.0);
        assert_eq!(r.center(), Point::new(2.0, 1.0));
    }

    #[test]
    fn contains_boundary_points() {
        let r = Rect::new(0.0, 0.0, 10.0, 10.0);
        assert!(r.contains(Point::new(0.0, 0.0)));
        assert!(r.contains(Point::new(10.0, 10.0)));
        assert!(!r.contains(Point::new(10.01, 5.0)));
    }

    #[test]
    fn intersection_of_overlapping_rects() {
        let a = Rect::new(0.0, 0.0, 5.0, 5.0);
        let b = Rect::new(3.0, 3.0, 8.0, 8.0);
        let i = a.intersection(&b).unwrap();
        assert_eq!(i, Rect::new(3.0, 3.0, 5.0, 5.0));
    }

    #[test]
    fn disjoint_rects_do_not_intersect() {
        let a = Rect::new(0.0, 0.0, 1.0, 1.0);
        let b = Rect::new(2.0, 2.0, 3.0, 3.0);
        assert!(a.intersection(&b).is_none());
        assert!(!a.intersects(&b));
    }

    #[test]
    fn distance_to_point_inside_is_zero() {
        let r = Rect::new(0.0, 0.0, 4.0, 4.0);
        assert_eq!(r.distance_to_point(Point::new(2.0, 2.0)), 0.0);
        assert!((r.distance_to_point(Point::new(7.0, 8.0)) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn cells_enumerates_unit_squares() {
        let r = Rect::new(0.0, 0.0, 3.0, 2.0);
        let cells: Vec<Cell> = r.cells().collect();
        assert_eq!(cells.len(), 6);
        assert!(cells.contains(&Cell { col: 0, row: 0 }));
        assert!(cells.contains(&Cell { col: 2, row: 1 }));
        assert_eq!(r.cell_count(), 6);
    }

    #[test]
    fn degenerate_rect_has_no_cells() {
        let r = Rect::new(1.2, 1.2, 1.3, 1.3);
        assert_eq!(r.cell_count(), 0);
        assert!(r.area() > 0.0 && r.area() < 0.011);
    }

    proptest! {
        #[test]
        fn intersection_is_commutative(
            a in (0.0..20.0f64, 0.0..20.0f64, 0.0..20.0f64, 0.0..20.0f64),
            b in (0.0..20.0f64, 0.0..20.0f64, 0.0..20.0f64, 0.0..20.0f64),
        ) {
            let ra = Rect::new(a.0, a.1, a.2, a.3);
            let rb = Rect::new(b.0, b.1, b.2, b.3);
            prop_assert_eq!(ra.intersection(&rb), rb.intersection(&ra));
        }

        #[test]
        fn intersection_contained_in_both(
            a in (0.0..20.0f64, 0.0..20.0f64, 0.0..20.0f64, 0.0..20.0f64),
            b in (0.0..20.0f64, 0.0..20.0f64, 0.0..20.0f64, 0.0..20.0f64),
        ) {
            let ra = Rect::new(a.0, a.1, a.2, a.3);
            let rb = Rect::new(b.0, b.1, b.2, b.3);
            if let Some(i) = ra.intersection(&rb) {
                prop_assert!(ra.contains_rect(&i));
                prop_assert!(rb.contains_rect(&i));
            }
        }

        #[test]
        fn clamped_point_is_inside(
            r in (0.0..20.0f64, 0.0..20.0f64, 1.0..20.0f64, 1.0..20.0f64),
            p in (-50.0..50.0f64, -50.0..50.0f64),
        ) {
            let rect = Rect::new(r.0, r.1, r.0 + r.2, r.1 + r.3);
            let c = rect.clamp_point(Point::new(p.0, p.1));
            prop_assert!(rect.contains(c));
        }
    }
}
