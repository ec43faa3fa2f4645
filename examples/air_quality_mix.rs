//! Air-quality scenario: the paper's motivating query mix, end to end.
//!
//! ```text
//! cargo run --release --example air_quality_mix
//! ```
//!
//! A city's participants move under a random-waypoint model. Each 5-minute
//! slot, commuters ask for CO₂ at street corners (point queries), a news
//! site wants district-wide averages (aggregate queries), and a clinic
//! continuously monitors the level outside its door (location monitoring).
//! Two `Aggregator` engines serve identical workloads: one runs
//! Algorithm 5 (joint selection, sensor sharing), the other the
//! sequential baseline. Watch the utility gap.

use ps_core::aggregator::{Aggregator, AggregatorBuilder, LocationMonitorSpec, MixStrategy};
use ps_core::valuation::monitoring::{MonitoringContext, MonitoringValuation};
use ps_core::valuation::quality::QualityModel;
use ps_data::ozone::{OzoneConfig, OzoneTrace};
use ps_geo::{Point, Rect};
use ps_mobility::{MobilityModel, RandomWaypoint};
use ps_sim::sensors::{SensorPool, SensorPoolConfig};
use ps_sim::workload::{aggregate_queries, point_queries, BudgetScheme};
use ps_stats::regression::DiurnalBasis;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const SLOTS: usize = 12;

fn main() {
    let city = Rect::new(0.0, 0.0, 40.0, 40.0);
    let trace = RandomWaypoint {
        width: 40.0,
        height: 40.0,
        num_agents: 80,
        max_speed_choices: vec![3.0, 4.0],
        seed: 7,
    }
    .generate(SLOTS);

    // The clinic's CO₂ history: a diurnal pattern from past days.
    let ozone = OzoneTrace::generate(
        &OzoneConfig {
            slots_per_day: 50,
            seed: 7,
            ..OzoneConfig::default()
        },
        SLOTS,
    );
    let ctx = Arc::new(MonitoringContext::new(
        DiurnalBasis {
            period: 50.0,
            harmonics: 2,
        },
        ozone.history(),
        Some((50.0, -100.0)),
    ));

    // Two identical worlds so the comparison is apples to apples.
    let mut alg5_world = World::new(&ctx, MixStrategy::Alg5);
    let mut base_world = World::new(&ctx, MixStrategy::SequentialBaseline);

    println!("slot |   Alg5 utility | Baseline utility | Alg5 pts | Base pts");
    println!("-----+----------------+------------------+----------+---------");
    for slot in 0..SLOTS {
        let (a_u, a_pts) = alg5_world.step(slot, &trace, &city);
        let (b_u, b_pts) = base_world.step(slot, &trace, &city);
        println!("{slot:>4} | {a_u:>14.1} | {b_u:>16.1} | {a_pts:>8} | {b_pts:>8}");
    }
    println!("-----+----------------+------------------+----------+---------");
    let alg5_total = alg5_world.engine.totals().welfare;
    let base_total = base_world.engine.totals().welfare;
    println!(
        "total utility: Alg5 {alg5_total:.1} vs Baseline {base_total:.1}  ({:.1}× better)",
        if base_total.abs() > 1e-9 {
            alg5_total / base_total
        } else {
            f64::INFINITY
        }
    );
    // The clinic monitor ran through slot SLOTS-1, so it retired at the
    // final step; its full state lives in the retired list.
    let (a_samples, a_quality) = clinic_stats(&alg5_world.engine);
    let (b_samples, b_quality) = clinic_stats(&base_world.engine);
    println!(
        "clinic monitor: Alg5 sampled {a_samples} times (quality {a_quality:.2}), \
         baseline {b_samples} times (quality {b_quality:.2})",
    );
}

fn clinic_stats(engine: &Aggregator) -> (usize, f64) {
    use ps_core::aggregator::RetiredMonitor;
    match engine.retired_monitors().first() {
        Some(RetiredMonitor::Location(m)) => (m.sampled_times().len(), m.quality_of_results()),
        _ => {
            let m = &engine.location_monitors()[0];
            (m.sampled_times().len(), m.quality_of_results())
        }
    }
}

struct World {
    engine: Aggregator<'static>,
    pool: SensorPool,
    rng: StdRng,
}

impl World {
    fn new(ctx: &Arc<MonitoringContext>, strategy: MixStrategy) -> Self {
        let mut engine = AggregatorBuilder::new(QualityModel::new(5.0))
            .sensing_range(8.0)
            .strategy(strategy)
            .build();
        // The clinic monitors (20, 20) for the whole run, sampling every
        // 4th slot by preference.
        let desired: Vec<f64> = (0..SLOTS).step_by(4).map(|t| t as f64).collect();
        engine.submit_location_monitor(LocationMonitorSpec {
            loc: Point::new(20.5, 20.5),
            t1: 0,
            t2: SLOTS - 1,
            alpha: 0.5,
            theta_min: 0.2,
            valuation: MonitoringValuation::new(ctx.clone(), 120.0, desired),
        });
        Self {
            engine,
            pool: SensorPool::new(80, &SensorPoolConfig::paper_default(SLOTS, 99)),
            rng: StdRng::seed_from_u64(1234),
        }
    }

    fn step(
        &mut self,
        slot: usize,
        trace: &ps_mobility::MobilityTrace,
        city: &Rect,
    ) -> (f64, usize) {
        let sensors = self.pool.snapshots(slot, trace, city);
        for spec in point_queries(&mut self.rng, 25, city, BudgetScheme::Fixed(14.0)) {
            self.engine.submit_point(spec);
        }
        for spec in aggregate_queries(&mut self.rng, 3, city, 8.0, 12.0) {
            self.engine.submit_aggregate(spec);
        }
        let report = self.engine.step(slot, &sensors);
        self.pool
            .record_measurements(slot, report.sensors_used.iter().map(|&si| sensors[si].id));
        (report.welfare, report.breakdown.point_satisfied)
    }
}
