//! Quickstart: one aggregator engine, one slot of point queries.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Five participants announce locations and prices; three applications ask
//! for the phenomenon at nearby spots with different budgets. The
//! `Aggregator` engine solves the Eq. 9 welfare maximization with the
//! exact scheduler, shares sensors across queries, and charges each query
//! proportionally to the value it gets (Eq. 11).

use ps_core::aggregator::{AggregatorBuilder, PointSpec};
use ps_core::alloc::optimal::OptimalScheduler;
use ps_core::model::SensorSnapshot;
use ps_core::valuation::quality::QualityModel;
use ps_geo::Point;

fn main() {
    // The aggregator's per-slot view of the participants.
    let sensors = vec![
        sensor(0, 2.0, 2.0, 10.0, 1.00, 0.05),
        sensor(1, 6.0, 2.5, 10.0, 0.90, 0.10),
        sensor(2, 4.0, 6.0, 10.0, 0.95, 0.02),
        sensor(3, 9.0, 9.0, 10.0, 0.80, 0.15),
        sensor(4, 1.0, 8.0, 10.0, 1.00, 0.00),
    ];

    // The whole aggregator loop in five lines: build the engine around
    // the Eq. 4 quality model (d_max = 5), submit queries, run the slot.
    let mut engine = AggregatorBuilder::new(QualityModel::new(5.0))
        .scheduler(OptimalScheduler::new())
        .build();
    // Three point queries; the two at (2.5, 2.5) share a location and can
    // split one sensor's cost.
    for (x, y, budget) in [(2.5, 2.5, 12.0), (2.5, 2.5, 9.0), (5.5, 3.0, 25.0)] {
        engine.submit_point(PointSpec {
            loc: Point::new(x, y),
            budget,
            theta_min: 0.2,
        });
    }
    let report = engine.step(0, &sensors);

    println!("slot welfare (total utility): {:.2}\n", report.welfare);
    for r in &report.point_results {
        match r.sensor {
            Some(si) => println!(
                "query {:?}: sensor {} → quality {:.2}, value {:.2}, pays {:.2}",
                r.id, sensors[si].id, r.quality, r.value, r.paid
            ),
            None => println!(
                "query {:?}: unanswered (not worth any sensor's price)",
                r.id
            ),
        }
    }
    println!(
        "\nsensors tasked: {:?} (receipts {:.2})",
        report
            .sensors_used
            .iter()
            .map(|&si| sensors[si].id)
            .collect::<Vec<_>>(),
        report.ledger.total_receipts()
    );
    let totals = engine.totals();
    println!(
        "engine totals after 1 slot: {} queries in, {} satisfied, welfare {:.2}",
        totals.breakdown.point_total, totals.breakdown.point_satisfied, totals.welfare
    );
}

fn sensor(id: usize, x: f64, y: f64, cost: f64, trust: f64, inaccuracy: f64) -> SensorSnapshot {
    SensorSnapshot {
        id,
        loc: Point::new(x, y),
        cost,
        trust,
        inaccuracy,
    }
}
