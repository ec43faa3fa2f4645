//! A uniform bucket-grid index over sensor locations.
//!
//! The aggregator answers every query each slot against the full sensor
//! announcement, and all of the paper's spatial predicates — Eq. 4's
//! serving range, Eq. 5's sensing disks, the `S_{r,t}` candidate sets of
//! Algorithm 3 — are "which sensors lie in this disk / rectangle"
//! questions. At the paper's 80 sensors a linear scan is fine; at city
//! scale (10⁴–10⁶ announcements per slot) the O(queries × sensors) scans
//! dominate the slot. [`SensorIndex`] is the shared answer: built once
//! per slot from the announced locations (a counting-sort into a CSR
//! bucket grid, O(n)), then queried per predicate in
//! O(buckets touched + candidates).
//!
//! Grid queries are **exact**: `query_disk` returns precisely the points
//! with `distance² ≤ radius²` and `query_rect` precisely the points the
//! rectangle [`Rect::contains`] — the same inclusive predicates the
//! brute-force scans use — and both return indices in ascending order.
//! Downstream code can therefore substitute an index query for a scan
//! without changing any selection, which the property tests below pin
//! down. [`SensorIndex::scan_all`] puts the scan itself behind the same
//! interface: every query returns every index.

use crate::{Point, Rect};

/// Spatial index over a slice of points (one slot's sensor locations).
///
/// Point indices returned by queries refer to positions in the slice the
/// index was built from, so they can be used directly as snapshot
/// indices. Only the grid ([`SensorIndex::build`],
/// [`SensorIndex::with_cell_size`]) answers a query with exactly the
/// brute-force set; [`SensorIndex::scan_all`] answers with a superset
/// (all indices), which callers narrow with their own predicate.
///
/// Every query takes `&self` and the struct holds plain owned data, so
/// one index built per slot is shared freely across the engine's scoped
/// worker threads (`SensorIndex` is `Send + Sync` — asserted at compile
/// time below). Reusable buffers live with the *caller*
/// ([`SensorIndex::query_disk_into`] / [`SensorIndex::query_rect_into`]),
/// never inside the index.
///
/// # Examples
///
/// Build once per slot, then answer disk and rectangle predicates
/// exactly (inclusive bounds, ascending indices):
///
/// ```rust
/// use ps_geo::{Point, Rect, SensorIndex};
///
/// let announced = vec![
///     Point::new(1.0, 1.0),
///     Point::new(4.0, 1.0),
///     Point::new(9.0, 9.0),
/// ];
/// let index = SensorIndex::build(&announced);
///
/// // Eq. 4 serving disk: which sensors can serve a query at (2, 1)?
/// assert_eq!(index.query_disk(Point::new(2.0, 1.0), 2.0), vec![0, 1]);
///
/// // Algorithm 3's S_{r,t}: which sensors lie in a monitored region?
/// let region = Rect::new(0.0, 0.0, 5.0, 5.0);
/// assert_eq!(index.query_rect(&region), vec![0, 1]);
/// ```
///
/// The buffer-reusing variants avoid per-query allocation in hot loops:
///
/// ```rust
/// use ps_geo::{Point, SensorIndex};
///
/// let index = SensorIndex::build(&[Point::new(3.0, 4.0), Point::new(30.0, 40.0)]);
/// let mut buf = Vec::new();
/// index.query_disk_into(Point::ORIGIN, 5.0, &mut buf); // boundary inclusive
/// assert_eq!(buf, vec![0]);
/// index.query_disk_into(Point::new(30.0, 40.0), 1.0, &mut buf); // cleared first
/// assert_eq!(buf, vec![1]);
/// ```
#[derive(Debug, Clone)]
pub struct SensorIndex {
    bounds: Rect,
    /// Bucket side length in grid units.
    cell: f64,
    cols: usize,
    rows: usize,
    /// CSR offsets: bucket `b` holds `entries[starts[b]..starts[b + 1]]`.
    starts: Vec<u32>,
    /// Point indices, bucket by bucket, ascending within each bucket.
    entries: Vec<u32>,
    /// Copy of the indexed locations, for exact predicate evaluation.
    points: Vec<Point>,
    /// Built by [`SensorIndex::scan_all`]: every query answers `0..len`.
    scan_all: bool,
}

impl SensorIndex {
    /// Builds the index with an automatic bucket size: roughly two points
    /// per bucket, clamped to `[0.5, 64]` grid units, and — regardless of
    /// the clamp — never more than `O(len)` buckets. The memory bound is
    /// load-bearing: one outlier coordinate (a GPS glitch in a sensor
    /// announcement) stretches the bounding box arbitrarily, and bucket
    /// count must track the point count, not the squared extent.
    /// Degenerate inputs (empty slice, all points coincident) produce a
    /// single bucket.
    pub fn build(points: &[Point]) -> Self {
        let (bounds, area) = bounds_of(points);
        let n = points.len().max(1) as f64;
        let mut cell = if points.is_empty() || area <= 0.0 {
            1.0
        } else {
            (2.0 * area / n).sqrt().clamp(0.5, 64.0)
        };
        let buckets_at = |cell: f64| -> f64 {
            (bounds.width() / cell).ceil().max(1.0) * (bounds.height() / cell).ceil().max(1.0)
        };
        let max_buckets = (4.0 * n).max(64.0);
        if buckets_at(cell).is_finite() && buckets_at(cell) > max_buckets {
            // Grow the bucket side until the grid fits the budget (the
            // 1.001 headroom absorbs the per-axis ceil rounding).
            let scaled = cell * (buckets_at(cell) / max_buckets).sqrt() * 1.001;
            if scaled.is_finite() {
                cell = scaled;
            }
        }
        // Backstop for extents so large the scaling itself overflows
        // (~1e308-wide bounding boxes): doubling always terminates with a
        // finite cell once it exceeds the extent.
        while !buckets_at(cell).is_finite() || buckets_at(cell) > max_buckets {
            cell *= 2.0;
        }
        Self::with_cell_size(points, cell)
    }

    /// Builds the index with an explicit bucket side length.
    ///
    /// # Panics
    /// Panics when `cell` is not positive and finite, or when more than
    /// `u32::MAX` points are indexed.
    pub fn with_cell_size(points: &[Point], cell: f64) -> Self {
        assert!(
            cell.is_finite() && cell > 0.0,
            "bucket size must be positive"
        );
        assert!(
            points.len() <= u32::MAX as usize,
            "too many points for a u32-entry index"
        );
        let (bounds, _) = bounds_of(points);
        let cols = ((bounds.width() / cell).ceil() as usize).max(1);
        let rows = ((bounds.height() / cell).ceil() as usize).max(1);
        let nb = cols * rows;

        // Counting sort into CSR, preserving ascending point order within
        // each bucket.
        let mut counts = vec![0u32; nb];
        let bucket_of = |p: Point| -> usize {
            let cx = (((p.x - bounds.min_x) / cell) as usize).min(cols - 1);
            let cy = (((p.y - bounds.min_y) / cell) as usize).min(rows - 1);
            cy * cols + cx
        };
        for p in points {
            counts[bucket_of(*p)] += 1;
        }
        let mut starts = vec![0u32; nb + 1];
        for b in 0..nb {
            starts[b + 1] = starts[b] + counts[b];
        }
        let mut cursor = starts[..nb].to_vec();
        let mut entries = vec![0u32; points.len()];
        for (i, p) in points.iter().enumerate() {
            let b = bucket_of(*p);
            entries[cursor[b] as usize] = i as u32;
            cursor[b] += 1;
        }

        Self {
            bounds,
            cell,
            cols,
            rows,
            starts,
            entries,
            points: points.to_vec(),
            scan_all: false,
        }
    }

    /// An index whose every disk and rectangle query returns all indices
    /// `0..len` in ascending order, whatever the query or the points: a
    /// caller's own exact predicate then decides alone, as in a linear
    /// scan. This is the brute-force oracle the grid is checked against.
    pub fn scan_all(points: &[Point]) -> Self {
        Self {
            scan_all: true,
            // One bucket holding every point.
            ..Self::with_cell_size(points, f64::MAX)
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no points are indexed.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The bounding rectangle of the indexed points.
    pub fn bounds(&self) -> &Rect {
        &self.bounds
    }

    /// The bucket side length in use.
    pub fn cell_size(&self) -> f64 {
        self.cell
    }

    /// Bucket-coordinate ranges covering the world-coordinate box
    /// `[x0, x1] × [y0, y1]`, or `None` when it misses the indexed area.
    fn bucket_range(
        &self,
        x0: f64,
        y0: f64,
        x1: f64,
        y1: f64,
    ) -> Option<(usize, usize, usize, usize)> {
        if self.points.is_empty()
            || x1 < self.bounds.min_x
            || y1 < self.bounds.min_y
            || x0 > self.bounds.max_x
            || y0 > self.bounds.max_y
        {
            return None;
        }
        let cx0 = (((x0 - self.bounds.min_x) / self.cell).max(0.0) as usize).min(self.cols - 1);
        let cy0 = (((y0 - self.bounds.min_y) / self.cell).max(0.0) as usize).min(self.rows - 1);
        let cx1 = (((x1 - self.bounds.min_x) / self.cell).max(0.0) as usize).min(self.cols - 1);
        let cy1 = (((y1 - self.bounds.min_y) / self.cell).max(0.0) as usize).min(self.rows - 1);
        Some((cx0, cy0, cx1, cy1))
    }

    /// Appends to `out` the indices of all points with
    /// `distance²(center) ≤ radius²` (of all points, on
    /// [`SensorIndex::scan_all`]), in ascending order. `out` is cleared
    /// first, so a caller-owned buffer can be reused across queries
    /// without reallocating.
    pub fn query_disk_into(&self, center: Point, radius: f64, out: &mut Vec<usize>) {
        out.clear();
        if self.scan_all {
            out.extend(0..self.len());
            return;
        }
        if radius < 0.0 {
            return;
        }
        let r2 = radius * radius;
        let Some((cx0, cy0, cx1, cy1)) = self.bucket_range(
            center.x - radius,
            center.y - radius,
            center.x + radius,
            center.y + radius,
        ) else {
            return;
        };
        for cy in cy0..=cy1 {
            for cx in cx0..=cx1 {
                let b = cy * self.cols + cx;
                for &e in &self.entries[self.starts[b] as usize..self.starts[b + 1] as usize] {
                    if self.points[e as usize].distance_squared(center) <= r2 {
                        out.push(e as usize);
                    }
                }
            }
        }
        out.sort_unstable();
    }

    /// The indices of all points with `distance²(center) ≤ radius²`, in
    /// ascending order — on the grid, exactly the brute-force candidate
    /// set.
    pub fn query_disk(&self, center: Point, radius: f64) -> Vec<usize> {
        let mut out = Vec::new();
        self.query_disk_into(center, radius, &mut out);
        out
    }

    /// Appends to `out` the indices of all points `rect` contains
    /// (inclusive bounds, matching [`Rect::contains`]; all points, on
    /// [`SensorIndex::scan_all`]), in ascending order. `out` is cleared
    /// first.
    pub fn query_rect_into(&self, rect: &Rect, out: &mut Vec<usize>) {
        out.clear();
        if self.scan_all {
            out.extend(0..self.len());
            return;
        }
        let Some((cx0, cy0, cx1, cy1)) =
            self.bucket_range(rect.min_x, rect.min_y, rect.max_x, rect.max_y)
        else {
            return;
        };
        for cy in cy0..=cy1 {
            for cx in cx0..=cx1 {
                let b = cy * self.cols + cx;
                for &e in &self.entries[self.starts[b] as usize..self.starts[b + 1] as usize] {
                    if rect.contains(self.points[e as usize]) {
                        out.push(e as usize);
                    }
                }
            }
        }
        out.sort_unstable();
    }

    /// The indices of all points `rect` contains, in ascending order — on
    /// the grid, exactly the brute-force candidate set.
    pub fn query_rect(&self, rect: &Rect) -> Vec<usize> {
        let mut out = Vec::new();
        self.query_rect_into(rect, &mut out);
        out
    }
}

// The slot pipeline shares one index across its worker threads; losing
// `Send + Sync` (e.g. by caching a query buffer inside the struct) must
// fail the build, not the engine.
const _: () = {
    const fn assert_shareable<T: Send + Sync>() {}
    assert_shareable::<SensorIndex>();
};

/// Bounding box of the *finite* points (and its area). Non-finite
/// coordinates — NaN propagation, GPS glitches encoded as ±∞ — must not
/// poison the grid geometry: such points land in a clamped edge bucket
/// and are rejected by every query's exact predicate, exactly as the
/// brute-force scans reject them.
fn bounds_of(points: &[Point]) -> (Rect, f64) {
    let mut min_x = f64::INFINITY;
    let mut min_y = f64::INFINITY;
    let mut max_x = f64::NEG_INFINITY;
    let mut max_y = f64::NEG_INFINITY;
    for p in points.iter().filter(|p| p.is_finite()) {
        min_x = min_x.min(p.x);
        min_y = min_y.min(p.y);
        max_x = max_x.max(p.x);
        max_y = max_y.max(p.y);
    }
    if min_x > max_x || min_y > max_y {
        return (Rect::new(0.0, 0.0, 0.0, 0.0), 0.0);
    }
    let r = Rect::new(min_x, min_y, max_x, max_y);
    let area = r.area();
    (r, area)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn brute_disk(points: &[Point], center: Point, radius: f64) -> Vec<usize> {
        (0..points.len())
            .filter(|&i| points[i].distance_squared(center) <= radius * radius)
            .collect()
    }

    fn brute_rect(points: &[Point], rect: &Rect) -> Vec<usize> {
        (0..points.len())
            .filter(|&i| rect.contains(points[i]))
            .collect()
    }

    #[test]
    fn empty_index_answers_nothing() {
        let idx = SensorIndex::build(&[]);
        assert!(idx.is_empty());
        assert_eq!(idx.len(), 0);
        assert!(idx.query_disk(Point::new(1.0, 1.0), 5.0).is_empty());
        assert!(idx.query_rect(&Rect::new(0.0, 0.0, 10.0, 10.0)).is_empty());
    }

    #[test]
    fn single_point_round_trip() {
        let idx = SensorIndex::build(&[Point::new(3.0, 4.0)]);
        assert_eq!(idx.query_disk(Point::ORIGIN, 5.0), vec![0]); // boundary inclusive
        assert!(idx.query_disk(Point::ORIGIN, 4.99).is_empty());
        assert_eq!(idx.query_rect(&Rect::new(3.0, 4.0, 5.0, 5.0)), vec![0]);
    }

    #[test]
    fn coincident_points_all_returned() {
        let points = vec![Point::new(2.0, 2.0); 7];
        let idx = SensorIndex::build(&points);
        assert_eq!(idx.query_disk(Point::new(2.0, 2.0), 0.0).len(), 7);
        assert_eq!(
            idx.query_rect(&Rect::new(1.0, 1.0, 3.0, 3.0)),
            vec![0, 1, 2, 3, 4, 5, 6]
        );
    }

    #[test]
    fn disk_query_matches_brute_force_on_a_grid() {
        let points: Vec<Point> = (0..100)
            .map(|i| Point::new((i % 10) as f64, (i / 10) as f64))
            .collect();
        let idx = SensorIndex::build(&points);
        for &(cx, cy, r) in &[
            (4.5, 4.5, 2.0),
            (0.0, 0.0, 3.5),
            (9.0, 9.0, 1.0),
            (20.0, 20.0, 5.0),
        ] {
            let c = Point::new(cx, cy);
            assert_eq!(idx.query_disk(c, r), brute_disk(&points, c, r));
        }
    }

    #[test]
    fn explicit_cell_size_does_not_change_answers() {
        let points: Vec<Point> = (0..50)
            .map(|i| Point::new((i as f64 * 7.3) % 23.0, (i as f64 * 3.1) % 17.0))
            .collect();
        let auto = SensorIndex::build(&points);
        for cell in [0.5, 2.0, 9.0, 64.0] {
            let idx = SensorIndex::with_cell_size(&points, cell);
            let c = Point::new(11.0, 8.0);
            assert_eq!(idx.query_disk(c, 6.0), auto.query_disk(c, 6.0));
            let r = Rect::new(3.0, 2.0, 15.0, 12.0);
            assert_eq!(idx.query_rect(&r), auto.query_rect(&r));
        }
    }

    #[test]
    fn results_are_ascending() {
        let points: Vec<Point> = (0..40)
            .rev()
            .map(|i| Point::new((i % 7) as f64, (i % 5) as f64))
            .collect();
        let idx = SensorIndex::build(&points);
        let got = idx.query_disk(Point::new(3.0, 2.0), 3.0);
        assert!(got.windows(2).all(|w| w[0] < w[1]));
        let got = idx.query_rect(&Rect::new(0.0, 0.0, 4.0, 4.0));
        assert!(got.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    #[should_panic(expected = "bucket size must be positive")]
    fn zero_cell_size_rejected() {
        let _ = SensorIndex::with_cell_size(&[Point::ORIGIN], 0.0);
    }

    /// Non-finite announcements (NaN propagation, ±∞ GPS glitches) must
    /// neither panic the build nor appear in any query result — the same
    /// tolerance the brute-force scans have (their distance/containment
    /// predicates are simply false for such points).
    #[test]
    fn non_finite_coordinates_do_not_panic_or_match() {
        let points = vec![
            Point::new(0.0, 0.0),
            Point::new(f64::INFINITY, 5.0),
            Point::new(f64::NAN, f64::NAN),
            Point::new(3.0, 4.0),
            Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        ];
        let idx = SensorIndex::build(&points);
        assert_eq!(idx.len(), 5);
        assert_eq!(idx.query_disk(Point::ORIGIN, 5.0), vec![0, 3]);
        assert_eq!(idx.query_rect(&Rect::new(0.0, 0.0, 10.0, 10.0)), vec![0, 3]);
        // Even an everything-covering disk only matches finite points,
        // like the brute-force predicate (NaN/∞ distances are not ≤ r²).
        assert_eq!(idx.query_disk(Point::ORIGIN, 1.0e150), vec![0, 3]);
        // All-non-finite input degrades to an empty-answer index.
        let all_bad = SensorIndex::build(&[Point::new(f64::NAN, 1.0)]);
        assert!(all_bad.query_disk(Point::ORIGIN, 10.0).is_empty());
    }

    /// Huge-but-finite extents must not overflow the bucket budget math.
    #[test]
    fn extreme_finite_extent_builds_a_bounded_grid() {
        let points = vec![Point::new(0.0, 0.0), Point::new(1.0e308, 1.0e308)];
        let idx = SensorIndex::build(&points);
        assert!(idx.cell_size().is_finite());
        assert_eq!(idx.query_disk(Point::ORIGIN, 1.0), vec![0]);
        assert_eq!(idx.query_disk(Point::new(1.0e308, 1.0e308), 1.0), vec![1]);
    }

    /// A single outlier coordinate must not blow the bucket grid up to
    /// extent²-proportional memory (this test OOM-classed before the
    /// bucket budget existed).
    #[test]
    fn outlier_coordinates_keep_the_grid_small() {
        let points = vec![
            Point::new(0.0, 0.0),
            Point::new(3.0, 4.0),
            Point::new(1.0e6, 1.0e6), // GPS glitch
        ];
        let idx = SensorIndex::build(&points);
        // Queries stay exact despite the huge, sparse grid.
        assert_eq!(idx.query_disk(Point::ORIGIN, 5.0), vec![0, 1]);
        assert_eq!(idx.query_rect(&Rect::new(0.0, 0.0, 10.0, 10.0)), vec![0, 1]);
        assert_eq!(idx.query_disk(Point::new(1.0e6, 1.0e6), 1.0), vec![2]);
        // And the bucket side grew to keep the grid O(len): at most
        // ~4·len buckets means the 1e6-wide box needs cells ≥ ~2.8e5.
        assert!(
            idx.cell_size() > 1.0e5,
            "cell {} too small",
            idx.cell_size()
        );
    }

    /// `scan_all` leaves every decision to the caller: each disk and
    /// rectangle query returns `0..len` in ascending order, for a
    /// negative radius, a rectangle that misses every point, and
    /// non-finite points alike.
    #[test]
    fn scan_all_answers_every_query_with_every_index() {
        let points = vec![
            Point::new(0.0, 0.0),
            Point::new(f64::INFINITY, 5.0),
            Point::new(f64::NAN, f64::NAN),
            Point::new(3.0, 4.0),
            Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        ];
        let idx = SensorIndex::scan_all(&points);
        let all: Vec<usize> = (0..points.len()).collect();
        assert_eq!(idx.len(), points.len());
        assert_eq!(idx.query_disk(Point::ORIGIN, -1.0), all);
        assert_eq!(idx.query_disk(Point::new(f64::NAN, 0.0), 1.0), all);
        assert_eq!(idx.query_rect(&Rect::new(50.0, 50.0, 60.0, 60.0)), all);
        let mut buf = vec![9];
        idx.query_disk_into(Point::new(1.0e9, 1.0e9), 0.0, &mut buf);
        assert_eq!(buf, all);
        idx.query_rect_into(&Rect::new(-9.0, -9.0, -8.0, -8.0), &mut buf);
        assert_eq!(buf, all);
        assert!(SensorIndex::scan_all(&[])
            .query_disk(Point::ORIGIN, 1.0)
            .is_empty());
    }

    proptest! {
        /// Disk queries return exactly the brute-force candidate set.
        #[test]
        fn disk_equals_brute_force(
            pts in proptest::collection::vec((0.0..80.0f64, 0.0..80.0f64), 0..60),
            q in (-10.0..90.0f64, -10.0..90.0f64),
            r in 0.0..30.0f64,
        ) {
            let points: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
            let idx = SensorIndex::build(&points);
            let c = Point::new(q.0, q.1);
            prop_assert_eq!(idx.query_disk(c, r), brute_disk(&points, c, r));
        }

        /// Rect queries return exactly the brute-force candidate set.
        #[test]
        fn rect_equals_brute_force(
            pts in proptest::collection::vec((0.0..80.0f64, 0.0..80.0f64), 0..60),
            r in (-10.0..90.0f64, -10.0..90.0f64, 0.0..60.0f64, 0.0..60.0f64),
        ) {
            let points: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
            let idx = SensorIndex::build(&points);
            let rect = Rect::new(r.0, r.1, r.0 + r.2, r.1 + r.3);
            prop_assert_eq!(idx.query_rect(&rect), brute_rect(&points, &rect));
        }
    }
}
