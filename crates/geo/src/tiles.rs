//! Tiling an arena into a g×g grid of shard-owned rectangles.
//!
//! The federation layer (`ps_cluster`) partitions the working region into
//! equal tiles, runs one aggregator per tile, and routes queries to the
//! tile owning their spatial support's anchor. [`TileGrid`] is the pure
//! geometry underneath: tile lookup by point (with out-of-arena points
//! clamped to the nearest tile), per-tile rectangles, and the *halo*
//! expansion — the ring of width `h` around a tile from which boundary
//! queries may still draw candidate sensors.

use crate::{Point, Rect};

/// A g×g partition of an arena rectangle into equal tiles, numbered
/// row-major from the arena's min corner: tile `i = row · g + col`.
///
/// A coordinate's tile column is `((x − min_x) / w) as usize`, clamped to
/// `g − 1`, with the tile width `w` divided out once at construction
/// (rows alike). The saturating float-to-integer cast truncates toward
/// zero, sends NaN and every negative value to 0, and sends +∞ and
/// anything past `usize::MAX` to `usize::MAX`; so for every `f64`,
/// ±0.0, NaN, ±∞ and values beyond 2⁵³ included, it gives the same
/// index as `floor`, then `max(0.0)`, then the cast. On baseline x86-64
/// (SSE2 without SSE4.1's `roundsd`) `f64::floor` is a library call, and
/// the cast saves four of them per routed sensor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TileGrid {
    arena: Rect,
    g: usize,
    /// Tile width, `arena.width() / g`.
    w: f64,
    /// Tile height, `arena.height() / g`.
    h: f64,
}

impl TileGrid {
    /// Partitions `arena` into `g × g` equal tiles.
    ///
    /// # Panics
    /// Panics when `g` is zero or the arena is degenerate (zero width or
    /// height) with `g > 1` — a line cannot be tiled.
    pub fn new(arena: Rect, g: usize) -> Self {
        assert!(g > 0, "tile grid needs g >= 1");
        assert!(
            g == 1 || (arena.width() > 0.0 && arena.height() > 0.0),
            "cannot tile a degenerate arena into {g}x{g}"
        );
        Self {
            arena,
            g,
            w: arena.width() / g as f64,
            h: arena.height() / g as f64,
        }
    }

    /// The arena being tiled.
    pub fn arena(&self) -> &Rect {
        &self.arena
    }

    /// Tiles per side.
    pub fn g(&self) -> usize {
        self.g
    }

    /// Total number of tiles (`g²`).
    pub fn len(&self) -> usize {
        self.g * self.g
    }

    /// True only for the degenerate zero-tile grid (never constructible —
    /// kept for the conventional `len`/`is_empty` pairing).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Column of the tile owning `x`, clamping coordinates outside the
    /// arena to the nearest edge tile (the cast is `floor` for every
    /// `f64`; see [`TileGrid`]).
    fn col_of(&self, x: f64) -> usize {
        if self.w <= 0.0 {
            return 0;
        }
        (((x - self.arena.min_x) / self.w) as usize).min(self.g - 1)
    }

    /// Row of the tile owning `y` (clamped like [`TileGrid::col_of`]).
    fn row_of(&self, y: f64) -> usize {
        if self.h <= 0.0 {
            return 0;
        }
        (((y - self.arena.min_y) / self.h) as usize).min(self.g - 1)
    }

    /// Index of the tile owning `p` (row-major). Points outside the arena
    /// are clamped to the nearest tile, so every point routes somewhere.
    pub fn tile_of(&self, p: Point) -> usize {
        self.row_of(p.y) * self.g + self.col_of(p.x)
    }

    /// The tile's own rectangle (no halo).
    ///
    /// # Panics
    /// Panics when `i >= self.len()`.
    pub fn tile_rect(&self, i: usize) -> Rect {
        assert!(i < self.len(), "tile {i} out of range");
        let (row, col) = (i / self.g, i % self.g);
        Rect::new(
            self.arena.min_x + col as f64 * self.w,
            self.arena.min_y + row as f64 * self.h,
            self.arena.min_x + (col + 1) as f64 * self.w,
            self.arena.min_y + (row + 1) as f64 * self.h,
        )
    }

    /// The tile's rectangle expanded by the halo width `h` on every side
    /// — the region a shard draws candidate sensors from. Not clamped to
    /// the arena: sensors may announce from slightly outside it.
    pub fn halo_rect(&self, i: usize, h: f64) -> Rect {
        let r = self.tile_rect(i);
        Rect::new(r.min_x - h, r.min_y - h, r.max_x + h, r.max_y + h)
    }

    /// Indices of every tile that must see a sensor announced at `p`:
    /// the tiles whose halo-expanded rectangles contain `p`, computed
    /// with the same edge clamping as [`TileGrid::tile_of`]. For points
    /// inside the arena (or within `halo` of it) this is exactly
    /// halo-rect membership; points further out still map to the nearest
    /// edge tiles — deliberately, so a far-out sensor remains visible to
    /// the shard whose clamped queries could still be served by it,
    /// matching what a single un-tiled engine would do. Ascending
    /// (row-major) order; always contains `tile_of(p)`.
    pub fn tiles_seeing(&self, p: Point, halo: f64) -> impl Iterator<Item = usize> + '_ {
        let g = self.g;
        let (c0, c1) = (self.col_of(p.x - halo), self.col_of(p.x + halo));
        let (r0, r1) = (self.row_of(p.y - halo), self.row_of(p.y + halo));
        // Half-open ranges: a `RangeInclusive` inside `flat_map` carries an
        // exhaustion flag through every step. Both ends are at most
        // `g - 1`, so `+ 1` cannot overflow.
        let cols = c0.min(c1)..c0.max(c1) + 1;
        (r0.min(r1)..r0.max(r1) + 1).flat_map(move |row| cols.clone().map(move |col| row * g + col))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> TileGrid {
        TileGrid::new(Rect::new(0.0, 0.0, 100.0, 100.0), 2)
    }

    #[test]
    fn tiles_partition_the_arena() {
        let g = grid();
        assert_eq!(g.len(), 4);
        let total: f64 = (0..g.len()).map(|i| g.tile_rect(i).area()).sum();
        assert!((total - g.arena().area()).abs() < 1e-9);
        assert_eq!(g.tile_rect(0), Rect::new(0.0, 0.0, 50.0, 50.0));
        assert_eq!(g.tile_rect(3), Rect::new(50.0, 50.0, 100.0, 100.0));
    }

    #[test]
    fn tile_of_routes_row_major_and_clamps() {
        let g = grid();
        assert_eq!(g.tile_of(Point::new(10.0, 10.0)), 0);
        assert_eq!(g.tile_of(Point::new(60.0, 10.0)), 1);
        assert_eq!(g.tile_of(Point::new(10.0, 60.0)), 2);
        assert_eq!(g.tile_of(Point::new(60.0, 60.0)), 3);
        // Outside the arena: clamped to the nearest tile.
        assert_eq!(g.tile_of(Point::new(-5.0, -5.0)), 0);
        assert_eq!(g.tile_of(Point::new(200.0, 200.0)), 3);
        // The seam belongs to the higher tile (floor semantics).
        assert_eq!(g.tile_of(Point::new(50.0, 0.0)), 1);
    }

    #[test]
    fn halo_expands_every_side() {
        let g = grid();
        assert_eq!(g.halo_rect(0, 5.0), Rect::new(-5.0, -5.0, 55.0, 55.0));
    }

    #[test]
    fn tiles_seeing_matches_halo_rect_membership() {
        let g = TileGrid::new(Rect::new(0.0, 0.0, 90.0, 90.0), 3);
        let halo = 7.0;
        for &p in &[
            Point::new(1.0, 1.0),
            Point::new(29.0, 45.0),
            Point::new(30.0, 30.0),
            Point::new(88.0, 2.0),
            Point::new(45.0, 45.0),
            Point::new(-3.0, 95.0),
        ] {
            let seen: Vec<usize> = g.tiles_seeing(p, halo).collect();
            let expect: Vec<usize> = (0..g.len())
                .filter(|&i| g.halo_rect(i, halo).contains(p))
                .collect();
            assert_eq!(seen, expect, "at {p:?}");
            assert!(seen.contains(&g.tile_of(p)), "home tile missing at {p:?}");
            let mut sorted = seen.clone();
            sorted.sort_unstable();
            assert_eq!(seen, sorted, "ascending order at {p:?}");
        }
    }

    #[test]
    fn far_outside_points_clamp_to_their_edge_tile() {
        // Beyond the halo, membership degrades to tile_of's clamping:
        // the far corner sensor stays visible to the corner shard, as a
        // single un-tiled engine would keep it visible to clamped
        // queries.
        let g = grid();
        let p = Point::new(250.0, 250.0);
        let seen: Vec<usize> = g.tiles_seeing(p, 5.0).collect();
        assert_eq!(seen, vec![g.tile_of(p)]);
        assert_eq!(g.tile_of(p), 3);
    }

    /// The `floor`-based lookup the grid used before the cast, kept
    /// verbatim (`floor`, `max(0.0)`, a `RangeInclusive` per axis) as the
    /// reference the cast-based lookup must reproduce.
    mod floor_reference {
        use crate::{Point, Rect};

        fn col_of(arena: &Rect, g: usize, x: f64) -> usize {
            let w = arena.width() / g as f64;
            if w <= 0.0 {
                return 0;
            }
            let c = ((x - arena.min_x) / w).floor();
            (c.max(0.0) as usize).min(g - 1)
        }

        fn row_of(arena: &Rect, g: usize, y: f64) -> usize {
            let h = arena.height() / g as f64;
            if h <= 0.0 {
                return 0;
            }
            let r = ((y - arena.min_y) / h).floor();
            (r.max(0.0) as usize).min(g - 1)
        }

        pub fn tile_of(arena: &Rect, g: usize, p: Point) -> usize {
            row_of(arena, g, p.y) * g + col_of(arena, g, p.x)
        }

        pub fn tiles_seeing(arena: &Rect, g: usize, p: Point, halo: f64) -> Vec<usize> {
            let col_lo = col_of(arena, g, p.x + halo).min(col_of(arena, g, p.x - halo));
            let col_hi = col_of(arena, g, p.x + halo).max(col_of(arena, g, p.x - halo));
            let row_lo = row_of(arena, g, p.y + halo).min(row_of(arena, g, p.y - halo));
            let row_hi = row_of(arena, g, p.y + halo).max(row_of(arena, g, p.y - halo));
            (row_lo..=row_hi)
                .flat_map(move |row| (col_lo..=col_hi).map(move |col| row * g + col))
                .collect()
        }
    }

    /// SplitMix64: a seeded stream of test coordinates without an RNG
    /// dependency.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Coordinates on one axis that stress the lookup: every seam
    /// `lo + k·w`, its `next_up`/`next_down` neighbours, each of those
    /// shifted by ±`halo`, and the non-finite and huge values.
    fn seam_coordinates(lo: f64, w: f64, g: usize, halo: f64) -> Vec<f64> {
        let mut out = vec![
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e300,
            -1e300,
        ];
        for k in 0..=g {
            let seam = lo + k as f64 * w;
            for v in [seam.next_down(), seam, seam.next_up()] {
                out.extend([v, v - halo, v + halo]);
            }
        }
        out
    }

    #[test]
    fn cast_lookup_matches_the_floor_reference_bit_for_bit() {
        let mut rng = 0x5eed_u64;
        let mut checked = 0usize;
        // The last arena is one subnormal wide: for g > 1 its tile width
        // rounds to zero, where both lookups send everything to tile 0.
        for arena in [
            Rect::with_size(80.0, 80.0),
            Rect::new(-3.0, 2.0, 97.0, 55.5),
            Rect::with_size(5e-324, 5e-324),
        ] {
            for g in [1usize, 2, 3, 7] {
                let grid = TileGrid::new(arena, g);
                let (w, h) = (arena.width() / g as f64, arena.height() / g as f64);
                let wider = 2.0 * arena.width().max(arena.height()) + 1.0;
                for halo in [0.0, 5.0, w, wider] {
                    let xs = seam_coordinates(arena.min_x, w, g, halo);
                    let ys = seam_coordinates(arena.min_y, h, g, halo);
                    let mut points: Vec<Point> = xs
                        .iter()
                        .flat_map(|&x| ys.iter().map(move |&y| Point::new(x, y)))
                        .collect();
                    // Seeded points over the arena widened by half its
                    // size on every side, so some fall outside it.
                    let unit = |rng: &mut u64| (splitmix(rng) >> 11) as f64 / (1u64 << 53) as f64;
                    for _ in 0..2_000 {
                        let x = arena.min_x + (2.0 * unit(&mut rng) - 0.5) * arena.width();
                        let y = arena.min_y + (2.0 * unit(&mut rng) - 0.5) * arena.height();
                        points.push(Point::new(x, y));
                    }
                    for p in points {
                        let seen: Vec<usize> = grid.tiles_seeing(p, halo).collect();
                        let expect = floor_reference::tiles_seeing(&arena, g, p, halo);
                        assert_eq!(seen, expect, "g {g} halo {halo} arena {arena:?} at {p:?}");
                        assert_eq!(
                            grid.tile_of(p),
                            floor_reference::tile_of(&arena, g, p),
                            "g {g} arena {arena:?} at {p:?}"
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 50_000, "only {checked} points checked");
    }

    #[test]
    fn single_tile_grid_sees_everything() {
        let g = TileGrid::new(Rect::new(0.0, 0.0, 10.0, 10.0), 1);
        assert_eq!(g.len(), 1);
        assert_eq!(g.tile_of(Point::new(4.0, 4.0)), 0);
        assert_eq!(g.tiles_seeing(Point::new(4.0, 4.0), 3.0).count(), 1);
    }
}
