//! The spatial index is a pure accelerator: an `Aggregator` with
//! `spatial_index(true)` and one with `spatial_index(false)` must produce
//! **identical** `SlotReport`s — same welfare bits, same selections, same
//! payments — on the same seeded mixed standing stream, under Algorithm 5
//! and the online auction. The scheduled (§4.5/§4.6) path gets the same
//! treatment.

mod common;

use ps_core::aggregator::{
    Aggregator, AggregatorBuilder, MixStrategy, SlotReport, SPATIAL_INDEX_MIN_SENSORS,
};
use ps_core::valuation::monitoring::MonitoringContext;
use ps_core::valuation::quality::QualityModel;
use ps_gp::kernel::SquaredExponential;
use ps_sim::config::Scale;
use ps_sim::workload::StandingMixProfile;
use ps_stats::regression::DiurnalBasis;
use ps_stats::TimeSeries;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn monitoring_ctx() -> Arc<MonitoringContext> {
    let times: Vec<f64> = (0..120).map(|i| i as f64 - 120.0).collect();
    let values: Vec<f64> = times
        .iter()
        .map(|&t| 20.0 + 5.0 * (std::f64::consts::TAU * t / 50.0).sin())
        .collect();
    Arc::new(MonitoringContext {
        basis: DiurnalBasis {
            period: 50.0,
            harmonics: 1,
        },
        history: TimeSeries::new(times, values),
        fold: None,
    })
}

fn profile() -> StandingMixProfile {
    let mut p = StandingMixProfile::from_scale(&Scale::test());
    // Small but genuinely mixed: every query type participates. The
    // announcement must reach the engine's index cutover, or both
    // engines would run the brute-force scans.
    p.sensors = 400;
    assert!(p.sensors >= SPATIAL_INDEX_MIN_SENSORS);
    p.points_per_slot = 40;
    p.aggregates_mean = 3;
    p.location_monitors = 6;
    p.region_monitors = 4;
    p
}

/// Drives `slots` slots through an engine, collecting every report.
fn run(engine: &mut Aggregator<'_>, slots: usize) -> Vec<SlotReport> {
    let p = profile();
    let ctx = monitoring_ctx();
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
    // The online auction matches arrivals on its indexes either way; the
    // knob moves only its boundary Algorithm 5 clear.
    for strategy in [MixStrategy::Alg5, MixStrategy::OnlineAuction] {
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
