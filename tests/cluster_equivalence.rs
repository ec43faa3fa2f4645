//! The federation layer's contracts, end to end:
//!
//! 1. **Tile-local exactness** (proptested): when every query's support
//!    fits inside its home tile, a `ShardedAggregator` answers each
//!    query bit-identically to the plain engine — same values, payments,
//!    qualities, serving sensors, and per-sensor receipts — and slot
//!    welfare agrees up to floating-point summation order.
//! 2. **Grid determinism** (proptested): for a fixed grid, the cluster
//!    is bit-identical across fork-join widths (threads ∈ {1, 2, 7}).
//! 3. **Settlement money invariants**: on cross-tile workloads the
//!    merged ledger stays budget-balanced and cost-recovering even when
//!    halo sensors are bought by several shards.
//! 4. **Metro welfare gap**: the 2×2 cluster's welfare on the (cross-
//!    tile) metro standing mix stays within a stated bound of the
//!    1-shard engine's.

use proptest::prelude::*;
use ps_cluster::{ClusterBuilder, SlotEngine};
use ps_core::aggregator::{AggregatorBuilder, PointSpec, SlotReport};
use ps_core::model::SensorSnapshot;
use ps_core::valuation::quality::QualityModel;
use ps_geo::{Point, Rect, TileGrid};
use ps_gp::kernel::SquaredExponential;
use ps_sim::config::Scale;
use ps_sim::workload::{test_monitoring_ctx, StandingMixProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;

const D_MAX: f64 = 5.0;
const ARENA: f64 = 100.0;

fn quality() -> QualityModel {
    QualityModel::new(D_MAX)
}

/// Deterministic pseudo-random f64 in [0, 1) from a seed and counter —
/// keeps the proptest inputs independent of the vendored RNG.
fn unit(seed: u64, i: u64) -> f64 {
    let mut x = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    x ^= x >> 31;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 29;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// A workload whose queries and sensors all sit strictly inside tile
/// interiors: every query's `d_max` support fits its home tile, so the
/// cluster must match the plain engine exactly.
struct TileLocalWorkload {
    sensors: Vec<SensorSnapshot>,
    points: Vec<PointSpec>,
}

fn tile_local_workload(g: usize, seed: u64, sensors_per_tile: usize) -> TileLocalWorkload {
    let grid = TileGrid::new(Rect::with_size(ARENA, ARENA), g);
    let mut sensors = Vec::new();
    let mut points = Vec::new();
    let mut n = 0u64;
    let mut draw = |lo: f64, hi: f64| {
        n += 1;
        lo + (hi - lo) * unit(seed, n)
    };
    for tile in 0..grid.len() {
        let r = grid.tile_rect(tile);
        // Interior margin d_max keeps every support inside the tile.
        let (lo_x, hi_x) = (r.min_x + D_MAX, r.max_x - D_MAX);
        let (lo_y, hi_y) = (r.min_y + D_MAX, r.max_y - D_MAX);
        for _ in 0..sensors_per_tile {
            let loc = Point::new(draw(lo_x, hi_x), draw(lo_y, hi_y));
            sensors.push(SensorSnapshot {
                id: sensors.len(),
                loc,
                cost: 5.0 + 10.0 * draw(0.0, 1.0),
                trust: 0.7 + 0.3 * draw(0.0, 1.0),
                inaccuracy: 0.2 * draw(0.0, 1.0),
            });
            // A couple of queries near (but not on) each sensor, cheap
            // enough that sharing matters.
            for _ in 0..2 {
                let q = Point::new(
                    (loc.x + draw(-2.0, 2.0)).clamp(lo_x, hi_x),
                    (loc.y + draw(-2.0, 2.0)).clamp(lo_y, hi_y),
                );
                points.push(PointSpec {
                    loc: q,
                    budget: 8.0 + 20.0 * draw(0.0, 1.0),
                    theta_min: 0.2,
                });
            }
        }
    }
    TileLocalWorkload { sensors, points }
}

fn run_engine(engine: &mut dyn SlotEngine, w: &TileLocalWorkload, slots: usize) -> Vec<SlotReport> {
    (0..slots)
        .map(|t| {
            for spec in &w.points {
                engine.submit_point(*spec);
            }
            engine.step(t, &w.sensors)
        })
        .collect()
}

/// Per-query outputs must be bit-identical; welfare may differ only by
/// summation order.
fn assert_reports_match(plain: &[SlotReport], sharded: &[SlotReport], label: &str) {
    assert_eq!(plain.len(), sharded.len());
    for (a, b) in plain.iter().zip(sharded) {
        let t = a.slot;
        assert!(
            (a.welfare - b.welfare).abs() <= 1e-9 * a.welfare.abs().max(1.0),
            "{label}: welfare at slot {t}: {} vs {}",
            a.welfare,
            b.welfare
        );
        assert_eq!(
            a.breakdown.point_satisfied, b.breakdown.point_satisfied,
            "{label}: satisfaction at slot {t}"
        );
        // The cluster concatenates results in shard order; match queries
        // by submission order after sorting both sides by query id —
        // within one engine, ids are minted in submission order, and the
        // cluster's shard blocks keep shard-internal order. Sorting by
        // (value bits, paid bits, sensor) gives an order-free comparison.
        let key = |r: &ps_core::aggregator::PointResult| {
            (
                r.value.to_bits(),
                r.paid.to_bits(),
                r.quality.to_bits(),
                r.sensor,
            )
        };
        let mut pa: Vec<_> = a.point_results.iter().map(key).collect();
        let mut pb: Vec<_> = b.point_results.iter().map(key).collect();
        pa.sort_unstable();
        pb.sort_unstable();
        assert_eq!(pa, pb, "{label}: per-query point results at slot {t}");
        // Serving sensors (by stable id) and their receipts must agree
        // exactly.
        let used = |r: &SlotReport| {
            let mut v: Vec<usize> = r.sensors_used.clone();
            v.sort_unstable();
            v
        };
        assert_eq!(used(a), used(b), "{label}: selections at slot {t}");
        for &si in &a.sensors_used {
            let id = si; // snapshot index == stable id in this workload
            assert_eq!(
                a.ledger.sensor_receipt(id).to_bits(),
                b.ledger.sensor_receipt(id).to_bits(),
                "{label}: receipt of sensor {id} at slot {t}"
            );
        }
        assert_eq!(
            a.ledger.total_receipts().to_bits(),
            b.ledger.total_receipts().to_bits(),
            "{label}: total receipts at slot {t}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// ISSUE 5's exactness contract: a tile-local workload is answered
    /// identically by the g×g cluster and the plain engine.
    #[test]
    fn tile_local_workloads_match_the_plain_engine(
        seed in 0u64..10_000,
        g in 2usize..4,
        sensors_per_tile in 2usize..5,
    ) {
        let w = tile_local_workload(g, seed, sensors_per_tile);
        // The generator must actually satisfy the exactness
        // precondition: every query's d_max support inside its home tile.
        let grid = TileGrid::new(Rect::with_size(ARENA, ARENA), g);
        for spec in &w.points {
            let support = ps_core::valuation::SpatialSupport::Disk {
                center: spec.loc,
                radius: D_MAX,
            };
            prop_assert!(
                support.fits_within(&grid.tile_rect(grid.tile_of(spec.loc))),
                "generator leaked a cross-tile support at {:?}", spec.loc
            );
        }
        let mut plain = AggregatorBuilder::new(quality()).threads(1).build();
        let plain_reports = run_engine(&mut plain, &w, 2);
        let mut cluster = ClusterBuilder::new(quality(), Rect::with_size(ARENA, ARENA), g)
            .threads(2)
            .build();
        let cluster_reports = run_engine(&mut cluster, &w, 2);
        assert_reports_match(&plain_reports, &cluster_reports, &format!("g={g}"));
        // Tile-local ⇒ no cross-shard duplicates to settle.
        prop_assert_eq!(cluster.total_settlement().duplicates, 0);
        // The workload must actually exercise the engines.
        prop_assert!(plain_reports[0].breakdown.point_satisfied > 0);
    }

    /// For a fixed grid, the fork-join width can never change anything:
    /// threads ∈ {1, 2, 7} are bit-identical.
    #[test]
    fn shard_grid_is_deterministic_across_thread_counts(
        seed in 0u64..10_000,
        g in 1usize..4,
    ) {
        let run = |threads: usize| {
            let mut profile = StandingMixProfile::from_scale(&Scale::test());
            profile.arena = Rect::with_size(ARENA, ARENA);
            profile.sensors = 90;
            profile.points_per_slot = 30;
            profile.aggregates_mean = 3;
            profile.location_monitors = 5;
            profile.region_monitors = 3;
            let mut cluster = ClusterBuilder::new(quality(), profile.arena, g)
                .threads(threads)
                .build();
            let ctx = test_monitoring_ctx();
            let kernel = SquaredExponential::new(2.0, 2.0);
            let mut rng = StdRng::seed_from_u64(seed);
            let reports: Vec<SlotReport> = (0..2)
                .map(|t| {
                    profile.submit_slot(&mut rng, t, &mut cluster, &ctx, &kernel);
                    let sensors = profile.sensors(&mut rng);
                    cluster.step(t, &sensors)
                })
                .collect();
            (reports, cluster.total_settlement())
        };
        let (base, settle1) = run(1);
        for threads in [2usize, 7] {
            let (other, settle_n) = run(threads);
            for (a, b) in base.iter().zip(&other) {
                prop_assert_eq!(a.welfare.to_bits(), b.welfare.to_bits(),
                    "welfare bits at slot {} (threads={})", a.slot, threads);
                prop_assert_eq!(&a.sensors_used, &b.sensors_used);
                prop_assert_eq!(a.ledger.total_payments().to_bits(),
                    b.ledger.total_payments().to_bits());
                prop_assert_eq!(a.breakdown.monitor_samples, b.breakdown.monitor_samples);
            }
            prop_assert_eq!(settle1, settle_n);
        }
    }
}

/// Cross-tile workloads keep the merged money invariants: every paid
/// sensor recovers exactly its announced cost once, and receipts equal
/// payments, even with halo duplicates settled away.
#[test]
fn cross_tile_settlement_keeps_money_invariants() {
    let mut profile = StandingMixProfile::from_scale(&Scale::test());
    profile.arena = Rect::with_size(ARENA, ARENA);
    profile.sensors = 120;
    profile.points_per_slot = 60;
    profile.aggregates_mean = 4;
    profile.location_monitors = 6;
    profile.region_monitors = 4;
    let mut cluster = ClusterBuilder::new(quality(), profile.arena, 3)
        .threads(2)
        .build();
    let ctx = test_monitoring_ctx();
    let kernel = SquaredExponential::new(2.0, 2.0);
    let mut rng = StdRng::seed_from_u64(2013);
    let mut costs: std::collections::HashMap<usize, f64> = std::collections::HashMap::new();
    let seams = [ARENA / 3.0, 2.0 * ARENA / 3.0];
    for t in 0..4 {
        profile.submit_slot(&mut rng, t, &mut cluster, &ctx, &kernel);
        let mut sensors = profile.sensors(&mut rng);
        // Deterministic cross-tile pressure: a cheap, perfect sensor on
        // every vertical seam with a generous query on each side, so
        // adjacent shards keep buying the same halo sensor.
        for (i, &x) in seams.iter().enumerate() {
            for (j, &y) in [20.0, 50.0, 80.0].iter().enumerate() {
                sensors.push(SensorSnapshot {
                    id: profile.sensors + i * 3 + j,
                    loc: Point::new(x, y),
                    cost: 1.0,
                    trust: 1.0,
                    inaccuracy: 0.0,
                });
                for dx in [-2.0, 2.0] {
                    cluster.submit_point(PointSpec {
                        loc: Point::new(x + dx, y),
                        budget: 30.0,
                        theta_min: 0.2,
                    });
                }
            }
        }
        for s in &sensors {
            costs.insert(s.id, s.cost);
        }
        let report = cluster.step(t, &sensors);
        assert!(
            (report.ledger.total_receipts() - report.ledger.total_payments()).abs() < 1e-6,
            "slot {t}: merged ledger unbalanced"
        );
        report
            .ledger
            .verify_cost_recovery(|id| costs[&id], 1e-6)
            .unwrap_or_else(|e| panic!("slot {t}: {e}"));
    }
    // The workload must actually cross tiles for this test to bite.
    assert!(
        cluster.total_settlement().duplicates > 0,
        "expected halo duplicates on a cross-tile mix"
    );
    assert!(cluster.total_settlement().refunded > 0.0);
}

/// ISSUE 5 acceptance: the metro-profile welfare gap of the 2×2 cluster
/// vs the 1-shard engine stays within a stated bound. Populations are
/// kept at the metro floor (≥100k sensors) but the slot count is
/// trimmed for a debug-build test budget, mirroring
/// `tests/parallel_determinism.rs`.
#[test]
fn metro_welfare_gap_at_2x2_is_bounded() {
    let mut profile = StandingMixProfile::metro();
    assert!(profile.sensors >= 100_000);
    profile.region_monitors = 10;
    profile.location_monitors = 40;
    let slots = 1;
    let run = |g: usize| -> f64 {
        let mut engine: Box<dyn SlotEngine> = if g <= 1 {
            Box::new(AggregatorBuilder::new(quality()).build())
        } else {
            Box::new(ClusterBuilder::new(quality(), profile.arena, g).build())
        };
        let ctx = test_monitoring_ctx();
        let kernel = SquaredExponential::new(2.0, 2.0);
        let mut rng = StdRng::seed_from_u64(2013);
        let mut welfare = 0.0;
        for t in 0..slots {
            profile.submit_slot(&mut rng, t, engine.as_mut(), &ctx, &kernel);
            let sensors = profile.sensors(&mut rng);
            welfare += engine.step(t, &sensors).welfare;
        }
        welfare
    };
    let single = run(1);
    let sharded = run(2);
    assert!(single > 0.0, "metro slot must create welfare");
    let gap = (single - sharded) / single;
    // The partitioned greedy loses a little welfare to locally-optimal
    // choices on cross-tile queries — and can also *gain* a little,
    // since the global greedy is itself only an approximation. Pin the
    // gap to ±10 %.
    assert!(
        gap.abs() < 0.10,
        "metro 2×2 welfare gap {gap:.4} out of bounds (single {single:.1}, sharded {sharded:.1})"
    );
}
