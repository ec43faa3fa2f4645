//! Economic end-to-end tests across the query mix: cost recovery,
//! individual rationality, and budget feasibility — the §2.1 requirements
//! "the total payment from the queries using that sensor is equal to c_s"
//! and "its utility must be positive" — driven through a long-running
//! `Aggregator` engine.

use ps_core::aggregator::{AggregateSpec, AggregatorBuilder, MixStrategy, PointSpec};
use ps_core::query::AggregateKind;
use ps_core::valuation::quality::QualityModel;
use ps_sim::config::Scale;
use ps_sim::experiments::point_queries::rnc_setting;
use ps_sim::sensors::{SensorPool, SensorPoolConfig};
use ps_sim::workload::{aggregate_queries, point_queries, BudgetScheme};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn scale() -> Scale {
    Scale {
        slots: 5,
        query_factor: 0.1,
        sensor_factor: 0.4,
        seed: 31337,
        threads: 0,
        shards: 1,
    }
}

#[test]
fn mix_ledger_recovers_costs_across_slots() {
    let scale = scale();
    let setting = rnc_setting(&scale, 3);
    let mut pool = SensorPool::new(setting.num_agents, &SensorPoolConfig::paper_default(50, 3));
    let mut rng = StdRng::seed_from_u64(11);
    let mut engine = AggregatorBuilder::new(setting.quality).build();

    for slot in 0..scale.slots {
        let sensors = pool.snapshots(slot, &setting.trace, &setting.working_region);
        for spec in point_queries(
            &mut rng,
            30,
            &setting.working_region,
            BudgetScheme::Fixed(20.0),
        ) {
            engine.submit_point(spec);
        }
        for spec in aggregate_queries(&mut rng, 5, &setting.working_region, 10.0, 15.0) {
            engine.submit_aggregate(spec);
        }
        let report = engine.step(slot, &sensors);
        // Each sensor with receipts is paid exactly its announced cost.
        let cost_of = |agent: usize| -> f64 {
            sensors
                .iter()
                .find(|s| s.id == agent)
                .map(|s| s.cost)
                .unwrap_or(0.0)
        };
        report
            .ledger
            .verify_cost_recovery(cost_of, 1e-6)
            .unwrap_or_else(|e| panic!("slot {slot}: {e}"));
        // Total receipts equal total payments (no money leaks).
        assert!(
            (report.ledger.total_receipts() - report.ledger.total_payments()).abs() < 1e-6,
            "slot {slot}: receipts {} != payments {}",
            report.ledger.total_receipts(),
            report.ledger.total_payments()
        );
        pool.record_measurements(slot, report.sensors_used.iter().map(|&si| sensors[si].id));
    }
}

#[test]
fn baseline_mix_never_loses_money_on_a_query() {
    let scale = scale();
    let setting = rnc_setting(&scale, 9);
    let pool = SensorPool::new(setting.num_agents, &SensorPoolConfig::paper_default(50, 9));
    let mut rng = StdRng::seed_from_u64(23);
    let sensors = pool.snapshots(0, &setting.trace, &setting.working_region);
    let mut engine = AggregatorBuilder::new(setting.quality)
        .strategy(MixStrategy::SequentialBaseline)
        .build();
    let point_ids: Vec<_> = point_queries(
        &mut rng,
        40,
        &setting.working_region,
        BudgetScheme::Fixed(25.0),
    )
    .into_iter()
    .map(|spec| (engine.submit_point(spec), spec.budget))
    .collect();
    for spec in aggregate_queries(&mut rng, 4, &setting.working_region, 10.0, 20.0) {
        engine.submit_aggregate(spec);
    }
    let report = engine.step(0, &sensors);
    // The baseline buys a sensor only when the triggering query's value
    // exceeds the cost, so no individual point query pays more than its
    // budget.
    for (id, budget) in point_ids {
        let paid = report.ledger.query_payment(id);
        assert!(
            paid <= budget + 1e-9,
            "query {id:?} paid {paid} over budget {budget}"
        );
    }
}

#[test]
fn unanswerable_slot_produces_zero_flows() {
    // No sensors at all: everything must be zero, nothing panics.
    let mut engine = AggregatorBuilder::new(QualityModel::new(5.0)).build();
    engine.submit_point(PointSpec {
        loc: ps_geo::Point::new(5.0, 5.0),
        budget: 30.0,
        theta_min: 0.2,
    });
    engine.submit_aggregate(AggregateSpec {
        region: ps_geo::Rect::new(0.0, 0.0, 10.0, 10.0),
        budget: 50.0,
        kind: AggregateKind::Average,
    });
    let report = engine.step(0, &[]);
    assert_eq!(report.welfare, 0.0);
    assert_eq!(report.ledger.total_payments(), 0.0);
    assert_eq!(report.breakdown.point_satisfied, 0);
    assert_eq!(report.breakdown.aggregate_answered, 0);
    assert!(report.point_results[0].sensor.is_none());
}
