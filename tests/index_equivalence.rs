//! The spatial index is a pure accelerator: an `Aggregator` with
//! `spatial_index(true)` (bucket grids) and one with `spatial_index(false)`
//! (`SensorIndex::scan_all`) must produce **identical** `SlotReport`s —
//! same welfare bits, same selections, same payments — on the same seeded
//! mixed standing stream, under Algorithm 5, the §4.7 sequential baseline
//! and the online auction. The scheduled (§4.5/§4.6) path gets the same
//! treatment.

mod common;

use ps_core::aggregator::{Aggregator, AggregatorBuilder, MixStrategy, SlotReport};
use ps_core::valuation::quality::QualityModel;
use ps_gp::kernel::SquaredExponential;
use ps_sim::config::Scale;
use ps_sim::workload::{test_monitoring_ctx, StandingMixProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn profile() -> StandingMixProfile {
    let mut p = StandingMixProfile::from_scale(&Scale::test());
    // Small but genuinely mixed: every query type participates.
    p.sensors = 400;
    p.points_per_slot = 40;
    p.aggregates_mean = 3;
    p.location_monitors = 6;
    p.region_monitors = 4;
    p
}

/// Drives `slots` slots through an engine, collecting every report.
fn run(engine: &mut Aggregator<'_>, slots: usize) -> Vec<SlotReport> {
    let p = profile();
    let ctx = test_monitoring_ctx();
    let kernel = SquaredExponential::new(2.0, 2.0);
    let mut rng = StdRng::seed_from_u64(42);
    (0..slots)
        .map(|t| {
            p.submit_slot(&mut rng, t, engine, &ctx, &kernel);
            let sensors = p.sensors(&mut rng);
            engine.step(t, &sensors)
        })
        .collect()
}

/// Exact comparison — the index must not perturb a single bit.
fn assert_reports_identical(a: &[SlotReport], b: &[SlotReport], label: &str) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
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
        assert_eq!(x.point_results.len(), y.point_results.len(), "{label}");
        for (pa, pb) in x.point_results.iter().zip(&y.point_results) {
            assert_eq!(pa.id, pb.id, "{label}: point ids at slot {t}");
            assert_eq!(pa.value, pb.value, "{label}: point value at slot {t}");
            assert_eq!(pa.paid, pb.paid, "{label}: point payment at slot {t}");
            assert_eq!(pa.sensor, pb.sensor, "{label}: serving sensor at slot {t}");
        }
        for (aa, ab) in x.aggregate_results.iter().zip(&y.aggregate_results) {
            assert_eq!(aa.id, ab.id, "{label}: aggregate ids at slot {t}");
            assert_eq!(aa.value, ab.value, "{label}: aggregate value at slot {t}");
            assert_eq!(
                aa.sensors, ab.sensors,
                "{label}: aggregate sensors at slot {t}"
            );
        }
    }
}

#[test]
fn indexed_and_brute_force_steps_are_identical_on_a_mixed_stream() {
    // The knob picks every index the engine queries: the batch slot's,
    // and the online auction's arrival-matching pair. The sequential
    // baseline is the only path through `baseline_select_for_query`.
    for strategy in [
        MixStrategy::Alg5,
        MixStrategy::SequentialBaseline,
        MixStrategy::OnlineAuction,
    ] {
        let build = |spatial: bool| {
            AggregatorBuilder::new(QualityModel::new(5.0))
                .strategy(strategy)
                .spatial_index(spatial)
                .build()
        };
        let a = run(&mut build(true), 6);
        let b = run(&mut build(false), 6);
        assert_reports_identical(&a, &b, &format!("{strategy:?}"));
        // The stream actually exercised the engine.
        assert!(a.iter().any(|r| r.breakdown.point_satisfied > 0));
        assert!(a.iter().any(|r| r.breakdown.aggregate_answered > 0));
        assert!(a.iter().any(|r| r.breakdown.monitor_samples > 0));
    }
}

#[test]
fn indexed_and_brute_force_scheduled_paths_are_identical() {
    for (label, scheduler) in common::all_schedulers() {
        let build = |spatial: bool| {
            AggregatorBuilder::new(QualityModel::new(5.0))
                .spatial_index(spatial)
                .scheduler(&*scheduler)
                .build()
        };
        let mut indexed = build(true);
        let mut brute = build(false);
        let a = run(&mut indexed, 4);
        let b = run(&mut brute, 4);
        assert_reports_identical(&a, &b, label);
    }
}
