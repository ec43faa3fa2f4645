//! The `threads` knob is a pure accelerator: an `Aggregator` stepped
//! with `threads(1)` and one stepped with `threads(N)` must produce
//! **bit-identical** results — same `SlotReport`s (welfare bits,
//! selections, per-query payments), same running welfare total, same
//! retired-monitor statistics — on the same seeded standing stream.
//! This mirrors the `spatial_index` equivalence contract of
//! `tests/index_equivalence.rs`, one abstraction layer up.

mod common;

use proptest::prelude::*;
use ps_core::aggregator::{Aggregator, AggregatorBuilder, SlotReport};
use ps_core::alloc::optimal::OptimalScheduler;
use ps_core::alloc::{PointAllocation, PointScheduler};
use ps_core::exec::Threads;
use ps_core::model::SensorSnapshot;
use ps_core::query::PointQuery;
use ps_core::valuation::quality::QualityModel;
use ps_geo::{Rect, SensorIndex};
use ps_gp::kernel::SquaredExponential;
use ps_sim::config::Scale;
use ps_sim::workload::{test_monitoring_ctx, StandingMixProfile};
use ps_solver::ufl::{self, WelfareProblem};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Small but genuinely mixed: every query type participates, bursts on.
fn small_profile() -> StandingMixProfile {
    let mut p = StandingMixProfile::from_scale(&Scale::test());
    p.sensors = 120;
    p.points_per_slot = 40;
    p.aggregates_mean = 3;
    p.location_monitors = 6;
    p.region_monitors = 4;
    p.burst_period = 2;
    p.burst_factor = 1.5;
    p
}

/// Distinct queried locations a shard must get before the Eq. 9 build
/// and the baseline's candidate phase split across workers; with fewer
/// than twice this many, every thread count runs the serial code.
const LOCATIONS_PER_SHARD: usize = 64;

/// [`small_profile`] grown until the scheduled paths actually shard.
/// - Per location: point locations are unit-cell centres of the arena,
///   at least ten cells per point, so nearly every point is a distinct
///   location and a slot clears `3 × LOCATIONS_PER_SHARD`.
/// - Per Eq. 9 component: 72 cells per point and half the paper's
///   sensor density (635 sensors on 80 × 80) split a slot's
///   facility/location graph into 117–136 components, past the work
///   floor of `ufl::map_components` at three workers (checked by
///   [`scheduled_paths_are_thread_count_invariant`]).
fn sharding_profile() -> StandingMixProfile {
    let mut p = small_profile();
    p.arena = Rect::with_size(120.0, 120.0);
    p.sensors = 700;
    p.points_per_slot = 200;
    assert!(p.points_per_slot >= 3 * LOCATIONS_PER_SHARD);
    assert!(p.arena.area() >= 10.0 * p.points_per_slot as f64);
    p
}

/// The exact scheduler, recording how many connected components each
/// slot's Eq. 9 problem has. It builds the problem again from the
/// scheduler's input: one client per distinct queried location, an edge
/// to each sensor in range that the location's queries value.
struct CountComponents(Mutex<Vec<usize>>);

impl PointScheduler for CountComponents {
    fn schedule_sharded(
        &self,
        queries: &[PointQuery],
        sensors: &[SensorSnapshot],
        quality: &QualityModel,
        index: Option<&SensorIndex>,
        threads: Threads,
    ) -> PointAllocation {
        let mut at: BTreeMap<(u64, u64), Vec<&PointQuery>> = BTreeMap::new();
        for q in queries {
            at.entry((q.loc.x.to_bits(), q.loc.y.to_bits()))
                .or_default()
                .push(q);
        }
        let clients = at
            .values()
            .map(|qs| {
                let loc = qs[0].loc;
                sensors
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| quality.in_range(s, loc))
                    .map(|(i, s)| {
                        let theta = quality.quality(s, loc);
                        (i, qs.iter().map(|q| q.value_of_quality(theta)).sum())
                    })
                    .collect()
            })
            .collect();
        let costs = sensors.iter().map(|s| s.cost).collect();
        let components = WelfareProblem::new(costs, clients).components().len();
        self.0.lock().unwrap().push(components);
        OptimalScheduler::new().schedule_sharded(queries, sensors, quality, index, threads)
    }
}

/// Everything one run produced, cumulative state included.
struct RunOutcome {
    reports: Vec<SlotReport>,
    total_welfare: f64,
    retired: Vec<(u64, f64, f64, f64)>, // (id, value, spent, quality)
    next_query_id: u64,
}

fn run(
    engine: &mut Aggregator<'_>,
    profile: &StandingMixProfile,
    seed: u64,
    slots: usize,
) -> RunOutcome {
    let ctx = test_monitoring_ctx();
    let kernel = SquaredExponential::new(2.0, 2.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let reports = (0..slots)
        .map(|t| {
            profile.submit_slot(&mut rng, t, engine, &ctx, &kernel);
            let sensors = profile.sensors(&mut rng);
            engine.step(t, &sensors)
        })
        .collect();
    RunOutcome {
        reports,
        total_welfare: engine.totals().welfare,
        retired: engine
            .retired_monitors()
            .iter()
            .map(|m| (m.id().0, m.value(), m.spent(), m.quality_of_results()))
            .collect(),
        next_query_id: engine.next_query_id(),
    }
}

/// Exact comparison — sharding must not perturb a single bit.
fn assert_outcomes_identical(a: &RunOutcome, b: &RunOutcome, label: &str) {
    assert_eq!(a.reports.len(), b.reports.len());
    for (x, y) in a.reports.iter().zip(&b.reports) {
        let t = x.slot;
        assert_eq!(
            x.welfare, y.welfare,
            "{label}: welfare diverged at slot {t}"
        );
        assert_eq!(
            x.sensors_used, y.sensors_used,
            "{label}: selections at slot {t}"
        );
        assert_eq!(
            x.breakdown.point_satisfied, y.breakdown.point_satisfied,
            "{label}: point satisfaction at slot {t}"
        );
        assert_eq!(
            x.breakdown.aggregate_answered, y.breakdown.aggregate_answered,
            "{label}: aggregates at slot {t}"
        );
        assert_eq!(
            x.breakdown.monitor_samples, y.breakdown.monitor_samples,
            "{label}: monitor samples at slot {t}"
        );
        assert_eq!(
            x.ledger.total_payments(),
            y.ledger.total_payments(),
            "{label}: payments at slot {t}"
        );
        assert_eq!(
            x.ledger.total_receipts(),
            y.ledger.total_receipts(),
            "{label}: receipts at slot {t}"
        );
        assert_eq!(x.point_results.len(), y.point_results.len());
        for (pa, pb) in x.point_results.iter().zip(&y.point_results) {
            assert_eq!(pa.id, pb.id, "{label}: point ids at slot {t}");
            assert_eq!(pa.value, pb.value, "{label}: point value at slot {t}");
            assert_eq!(pa.paid, pb.paid, "{label}: point payment at slot {t}");
            assert_eq!(pa.sensor, pb.sensor, "{label}: serving sensor at slot {t}");
        }
        assert_eq!(x.aggregate_results.len(), y.aggregate_results.len());
        for (aa, ab) in x.aggregate_results.iter().zip(&y.aggregate_results) {
            assert_eq!(aa.id, ab.id, "{label}: aggregate ids at slot {t}");
            assert_eq!(aa.value, ab.value, "{label}: aggregate value at slot {t}");
            assert_eq!(aa.paid, ab.paid, "{label}: aggregate payment at slot {t}");
            assert_eq!(
                aa.sensors, ab.sensors,
                "{label}: aggregate sensors at slot {t}"
            );
        }
    }
    assert_eq!(
        a.total_welfare, b.total_welfare,
        "{label}: cumulative welfare"
    );
    assert_eq!(a.retired.len(), b.retired.len(), "{label}: retired count");
    for (ra, rb) in a.retired.iter().zip(&b.retired) {
        assert_eq!(ra, rb, "{label}: retired-monitor stats");
    }
    assert_eq!(a.next_query_id, b.next_query_id, "{label}: id minting");
}

fn run_at_threads(
    profile: &StandingMixProfile,
    threads: usize,
    seed: u64,
    slots: usize,
) -> RunOutcome {
    let mut engine = AggregatorBuilder::new(QualityModel::new(5.0))
        .threads(threads)
        .build();
    run(&mut engine, profile, seed, slots)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// ISSUE 4's contract: identical seeded `StandingMixProfile` streams
    /// at `threads ∈ {1, 2, 7}` yield equal `SlotReport`s, ledgers, and
    /// retired-monitor stats — bit for bit.
    #[test]
    fn threads_1_2_7_are_bit_identical(seed in 0u64..10_000, slots in 2usize..5) {
        let profile = small_profile();
        let serial = run_at_threads(&profile, 1, seed, slots);
        for threads in [2usize, 7] {
            let sharded = run_at_threads(&profile, threads, seed, slots);
            assert_outcomes_identical(&serial, &sharded, &format!("threads={threads}"));
        }
        // The stream exercised the engine.
        prop_assert!(serial.reports.iter().any(|r| r.breakdown.point_satisfied > 0));
    }
}

#[test]
fn scheduled_paths_are_thread_count_invariant() {
    // The §4.5/§4.6 dedicated-scheduler paths shard the Eq. 9 problem
    // build and the baseline candidate evaluation, and spread the Eq. 9
    // components (exact solve, LP bound, greedy) over the workers; all
    // must stay exact.
    let profile = sharding_profile();
    // Below the component floor every thread count would run the serial
    // solve, and the comparison would test nothing.
    let counter = CountComponents(Mutex::new(Vec::new()));
    run(
        &mut AggregatorBuilder::new(QualityModel::new(5.0))
            .scheduler(&counter)
            .build(),
        &profile,
        42,
        3,
    );
    let components = counter.0.into_inner().unwrap();
    assert_eq!(components.len(), 3);
    assert!(
        components
            .iter()
            .all(|&n| n >= 2 * ufl::MIN_COMPONENTS_PER_WORKER),
        "components per slot: {components:?}"
    );
    for (label, scheduler) in common::all_schedulers() {
        let build = |threads: usize| {
            AggregatorBuilder::new(QualityModel::new(5.0))
                .threads(threads)
                .scheduler(&*scheduler)
                .build()
        };
        let mut serial = build(1);
        let mut sharded = build(5);
        let a = run(&mut serial, &profile, 42, 3);
        let b = run(&mut sharded, &profile, 42, 3);
        assert_outcomes_identical(&a, &b, label);
    }
}

#[test]
fn sequential_baseline_is_thread_count_invariant() {
    use ps_core::aggregator::MixStrategy;
    let profile = sharding_profile();
    let build = |threads: usize| {
        AggregatorBuilder::new(QualityModel::new(5.0))
            .strategy(MixStrategy::SequentialBaseline)
            .threads(threads)
            .build()
    };
    let mut serial = build(1);
    let mut sharded = build(3);
    let a = run(&mut serial, &profile, 7, 3);
    let b = run(&mut sharded, &profile, 7, 3);
    assert_outcomes_identical(&a, &b, "sequential-baseline");
}

/// The city scenario end to end (ISSUE 4 acceptance): ≥10k sensors and
/// ≥1k standing queries per slot, threads=1 vs threads=4 bit-identical.
#[test]
fn city_scenario_is_bit_identical_at_4_threads() {
    let mut profile = StandingMixProfile::from_scale(&Scale::city());
    assert!(profile.sensors >= 10_000 && profile.standing_queries() >= 1_000);
    // Debug builds are ~30× slower than release; trim the *slot count*,
    // never the populations — the scale floor is the point of the test.
    let slots = 2;
    // Keep monitor populations but skip the heaviest GP planning load.
    profile.region_monitors = 20;
    let serial = run_at_threads(&profile, 1, 2013, slots);
    let sharded = run_at_threads(&profile, 4, 2013, slots);
    assert_outcomes_identical(&serial, &sharded, "city");
    assert!(serial.reports[0].breakdown.point_satisfied > 0);
}

/// The metro scenario (ISSUE 4 tentpole): ≥100k sensors, ≥5k standing
/// queries, bursty mixed campaigns, threads=1 vs threads=4 bit-identical.
#[test]
fn metro_scenario_is_bit_identical_at_4_threads() {
    let mut profile = StandingMixProfile::metro();
    assert!(profile.sensors >= 100_000 && profile.standing_queries() >= 5_000);
    // One full-population slot is what fits a debug-build test budget;
    // the slot_engine bench drives the multi-slot release-build version.
    let slots = 1;
    profile.region_monitors = 10;
    profile.location_monitors = 40;
    let serial = run_at_threads(&profile, 1, 2013, slots);
    let sharded = run_at_threads(&profile, 4, 2013, slots);
    assert_outcomes_identical(&serial, &sharded, "metro");
    assert!(serial.reports[0].breakdown.point_satisfied > 0);
}
