//! Property tests for the `Aggregator` engine: drive it for N random
//! slots with mixed query intake and check the paper's §2.1 economic
//! invariants on every slot — under every `MixStrategy` and every
//! in-tree point scheduler — plus the Algorithm 5 vs sequential-baseline
//! welfare ordering on identical seeded streams.

mod common;

use proptest::prelude::*;
use ps_core::aggregator::{
    AggregateSpec, Aggregator, AggregatorBuilder, LocationMonitorSpec, MixStrategy, PointSpec,
    RegionMonitorSpec,
};
use ps_core::alloc::PointScheduler;
use ps_core::model::SensorSnapshot;
use ps_core::query::AggregateKind;
use ps_core::valuation::monitoring::{MonitoringContext, MonitoringValuation};
use ps_core::valuation::quality::QualityModel;
use ps_core::valuation::region::RegionValuation;
use ps_geo::{Point, Rect};
use ps_gp::kernel::SquaredExponential;
use ps_stats::regression::DiurnalBasis;
use ps_stats::TimeSeries;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn monitoring_ctx() -> Arc<MonitoringContext> {
    let times: Vec<f64> = (0..100).map(|i| i as f64 - 100.0).collect();
    let values: Vec<f64> = times
        .iter()
        .map(|&t| 20.0 + 5.0 * (std::f64::consts::TAU * t / 50.0).sin())
        .collect();
    Arc::new(MonitoringContext::new(
        DiurnalBasis {
            period: 50.0,
            harmonics: 1,
        },
        TimeSeries::new(times, values),
        None,
    ))
}

fn random_sensors(rng: &mut StdRng, count: usize) -> Vec<SensorSnapshot> {
    (0..count)
        .map(|id| SensorSnapshot {
            id,
            loc: Point::new(rng.gen_range(0.0..20.0), rng.gen_range(0.0..20.0)),
            cost: rng.gen_range(5.0..15.0),
            trust: rng.gen_range(0.5..1.0),
            inaccuracy: rng.gen_range(0.0..0.3),
        })
        .collect()
}

/// Random one-shot + continuous intake for one slot. `with_regions`
/// gates region monitors (the welfare-ordering property compares against
/// the §4.7 baseline, which the paper defines without them).
fn submit_random_workload(
    engine: &mut Aggregator,
    rng: &mut StdRng,
    slot: usize,
    ctx: &Arc<MonitoringContext>,
    with_regions: bool,
) {
    for _ in 0..rng.gen_range(0..6usize) {
        engine.submit_point(PointSpec {
            loc: Point::new(
                rng.gen_range(0..20) as f64 + 0.5,
                rng.gen_range(0..20) as f64 + 0.5,
            ),
            budget: rng.gen_range(5.0..30.0),
            theta_min: 0.2,
        });
    }
    // Up to two aggregates, which usually overlap: the second one can
    // use sensors the first bought.
    for _ in 0..rng.gen_range(0..3usize) {
        let w = rng.gen_range(5.0..15.0);
        let h = rng.gen_range(5.0..15.0);
        let x = rng.gen_range(0.0..(20.0 - w));
        let y = rng.gen_range(0.0..(20.0 - h));
        engine.submit_aggregate(AggregateSpec {
            region: Rect::new(x, y, x + w, y + h),
            budget: rng.gen_range(20.0..80.0),
            kind: AggregateKind::Average,
        });
    }
    if rng.gen_bool(0.4) {
        let duration = rng.gen_range(2..6usize);
        let desired: Vec<f64> = (slot..=slot + duration)
            .step_by(2)
            .map(|t| t as f64)
            .collect();
        engine.submit_location_monitor(LocationMonitorSpec {
            loc: Point::new(
                rng.gen_range(0..20) as f64 + 0.5,
                rng.gen_range(0..20) as f64 + 0.5,
            ),
            t1: slot,
            t2: slot + duration,
            alpha: 0.5,
            theta_min: 0.2,
            valuation: MonitoringValuation::new(ctx.clone(), rng.gen_range(30.0..120.0), desired),
        });
    }
    if with_regions && rng.gen_bool(0.3) {
        let w = rng.gen_range(4.0..10.0);
        let h = rng.gen_range(4.0..10.0);
        let x = rng.gen_range(0.0..(20.0 - w));
        let y = rng.gen_range(0.0..(20.0 - h));
        engine.submit_region_monitor(RegionMonitorSpec {
            t1: slot,
            t2: slot + rng.gen_range(2..6usize),
            alpha: 0.5,
            theta_min: 0.2,
            valuation: RegionValuation::new(
                rng.gen_range(30.0..90.0),
                Rect::new(x, y, x + w, y + h),
                &SquaredExponential::new(2.0, 2.0),
                0.1,
            ),
        });
    }
}

/// Drives one engine configuration through a random mixed stream and
/// checks the ledger invariants on every slot.
fn check_ledger_invariants(
    label: &str,
    strategy: MixStrategy,
    scheduler: Option<&dyn PointScheduler>,
    seed: u64,
    slots: usize,
) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let ctx = monitoring_ctx();
    let mut builder = AggregatorBuilder::new(QualityModel::new(5.0))
        .sensing_range(6.0)
        .strategy(strategy);
    if let Some(s) = scheduler {
        builder = builder.scheduler(s);
    }
    let mut engine = builder.build();
    for slot in 0..slots {
        submit_random_workload(&mut engine, &mut rng, slot, &ctx, true);
        let sensor_count = rng.gen_range(1..8usize);
        let sensors = random_sensors(&mut rng, sensor_count);
        let report = engine.step(slot, &sensors);

        prop_assert!(
            (report.ledger.total_receipts() - report.ledger.total_payments()).abs() < 1e-6,
            "{} slot {} unbalanced: receipts {} payments {}",
            label,
            slot,
            report.ledger.total_receipts(),
            report.ledger.total_payments()
        );
        let cost_of = |id: usize| -> f64 {
            sensors
                .iter()
                .find(|s| s.id == id)
                .map(|s| s.cost)
                .unwrap_or(0.0)
        };
        if let Err(e) = report.ledger.verify_cost_recovery(cost_of, 1e-6) {
            return Err(TestCaseError::fail(format!("{label} slot {slot}: {e}")));
        }
        for r in &report.point_results {
            prop_assert!(
                r.paid <= r.value + 1e-9,
                "{} IR violated: paid {} value {}",
                label,
                r.paid,
                r.value
            );
        }
        // Every answer reports what the ledger charged it.
        let paid = report
            .point_results
            .iter()
            .map(|r| (r.id, r.paid))
            .chain(report.aggregate_results.iter().map(|r| (r.id, r.paid)))
            .chain(report.custom_results.iter().map(|r| (r.id, r.paid)));
        for (id, paid) in paid {
            let charged = report.ledger.query_payment(id);
            prop_assert!(
                (paid - charged).abs() < 1e-9,
                "{} slot {}: query {:?} reports paid {} but the ledger charged {}",
                label,
                slot,
                id,
                paid,
                charged
            );
        }
        // A sensor that measured is listed once, however many queries
        // used it.
        let mut used = report.sensors_used.clone();
        used.sort_unstable();
        used.dedup();
        prop_assert_eq!(
            used.len(),
            report.sensors_used.len(),
            "{} slot {}: repeated sensors_used entry in {:?}",
            label,
            slot,
            &report.sensors_used
        );
        prop_assert!(report.welfare.is_finite());
        // The scheduler's welfare never beats the certified LP bound,
        // which is reported raw (not raised to the welfare).
        let b = &report.breakdown;
        if b.bound_known_slots > 0 {
            let tolerance = 1e-9 * b.point_lp_bound.abs().max(1.0);
            prop_assert!(
                b.point_sched_welfare <= b.point_lp_bound + tolerance,
                "{} slot {}: point welfare {} above the LP bound {}",
                label,
                slot,
                b.point_sched_welfare,
                b.point_lp_bound
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every slot of a random mixed stream keeps the ledger budget-
    /// balanced (receipts == payments, refunds included) and
    /// cost-recovering (each paid sensor receives exactly its announced
    /// cost), never charges an answered point query more than its value,
    /// reports each query's ledger payment as its `paid`, lists each
    /// measuring sensor once, and keeps a bound-carrying slot's point
    /// welfare at or below its raw LP bound — for every `MixStrategy` and
    /// every in-tree point scheduler.
    #[test]
    fn ledger_is_balanced_and_cost_recovering_every_slot(seed in 0u64..10_000, slots in 2usize..7) {
        for strategy in [MixStrategy::Alg5, MixStrategy::SequentialBaseline, MixStrategy::OnlineAuction] {
            check_ledger_invariants(&format!("{strategy:?}"), strategy, None, seed, slots)?;
        }
        for (label, scheduler) in common::all_schedulers() {
            check_ledger_invariants(label, MixStrategy::Alg5, Some(&*scheduler), seed, slots)?;
        }
    }

    /// On an identical seeded stream, the Algorithm 5 engine's cumulative
    /// welfare is at least the sequential baseline engine's. (Monitors
    /// evolve statefully across slots, so per-run dominance is not a
    /// theorem — the paper's Fig. 10 gap is ~70%; allow a small slack.)
    #[test]
    fn alg5_engine_dominates_baseline_engine(seed in 0u64..10_000, slots in 2usize..6) {
        let ctx = monitoring_ctx();
        let run = |strategy: MixStrategy| -> f64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut engine = AggregatorBuilder::new(QualityModel::new(5.0))
                .sensing_range(6.0)
                .strategy(strategy)
                .build();
            for slot in 0..slots {
                submit_random_workload(&mut engine, &mut rng, slot, &ctx, false);
                let sensor_count = rng.gen_range(1..8usize);
                let sensors = random_sensors(&mut rng, sensor_count);
                engine.step(slot, &sensors);
            }
            engine.totals().welfare
        };
        let alg5 = run(MixStrategy::Alg5);
        let baseline = run(MixStrategy::SequentialBaseline);
        let slack = 1e-6 + 0.02 * baseline.abs();
        prop_assert!(
            alg5 >= baseline - slack,
            "alg5 welfare {} below baseline {} (seed {}, {} slots)",
            alg5,
            baseline,
            seed,
            slots
        );
    }
}

/// A pinned stream on which a region monitor free-rides, in slot 2, on a
/// sensor a one-shot query paid for: Algorithm 5's refund to that query
/// must show in its result's `paid`, not only in the ledger.
#[test]
fn sharing_refunds_reach_the_results() {
    if let Err(e) = check_ledger_invariants("Alg5", MixStrategy::Alg5, None, 7481, 4) {
        panic!("{e}");
    }
}
