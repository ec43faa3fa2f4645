//! Fig. 7: spatial aggregate queries (§4.4) — Algorithm 1 vs the
//! sequential baseline, on the RNC substitute.

use crate::config::Scale;
use crate::engine::engine_for;
use crate::metrics::FigureTable;
use crate::sensors::{SensorPool, SensorPoolConfig};
use crate::workload::aggregate_queries;
use ps_core::aggregator::MixStrategy;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::point_queries::{rnc_setting, PointSetting};
use super::sweep;

/// Sensing range of §4.4 ("the sensing range of sensors is set to 10
/// units").
const SENSING_RANGE: f64 = 10.0;
const BUDGET_FACTORS: [f64; 7] = [7.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AggAlgo {
    Greedy,
    Baseline,
}

#[derive(Debug, Clone, Copy)]
struct AggRunResult {
    avg_utility: f64,
    avg_quality: f64,
}

fn run_aggregate_simulation(
    setting: &PointSetting,
    scale: &Scale,
    pool_cfg: &SensorPoolConfig,
    mean_count: usize,
    budget_factor: f64,
    algo: AggAlgo,
    workload_seed: u64,
) -> AggRunResult {
    let mut engine = engine_for(scale, &setting.working_region, setting.quality, move |b| {
        b.sensing_range(SENSING_RANGE).strategy(match algo {
            AggAlgo::Greedy => MixStrategy::Alg5,
            AggAlgo::Baseline => MixStrategy::SequentialBaseline,
        })
    });
    let mut pool = SensorPool::new(setting.num_agents, pool_cfg);
    let mut rng = StdRng::seed_from_u64(workload_seed);

    for slot in 0..scale.slots {
        let sensors = pool.snapshots(slot, &setting.trace, &setting.working_region);
        for spec in aggregate_queries(
            &mut rng,
            mean_count,
            &setting.working_region,
            SENSING_RANGE,
            budget_factor,
        ) {
            engine.submit_aggregate(spec);
        }
        let report = engine.step(slot, &sensors);
        pool.record_measurements(slot, report.sensors_used.iter().map(|&si| sensors[si].id));
    }

    // Quality averaged over *all* issued queries (unanswered count as
    // zero), matching the baseline's collapse to ~0 at small budgets in
    // Fig. 7(b).
    let totals = engine.totals();
    AggRunResult {
        avg_utility: totals.welfare / scale.slots as f64,
        avg_quality: if totals.breakdown.aggregate_total == 0 {
            0.0
        } else {
            totals.breakdown.aggregate_quality_sum / totals.breakdown.aggregate_total as f64
        },
    }
}

/// Fig. 7: average utility per slot (a) and average quality of results (b)
/// versus the budget factor.
pub fn fig7(scale: &Scale) -> Vec<FigureTable> {
    let mean_count = scale.queries(30);
    let algos = [AggAlgo::Greedy, AggAlgo::Baseline];
    let grid = sweep(&algos, &BUDGET_FACTORS, |algo, xi, b| {
        let setting = rnc_setting(scale, scale.seed.wrapping_add(xi as u64));
        let cfg = SensorPoolConfig::paper_default(scale.slots, scale.seed ^ 0x77);
        run_aggregate_simulation(
            &setting,
            scale,
            &cfg,
            mean_count,
            b,
            *algo,
            scale.seed.wrapping_add(3000 + xi as u64),
        )
    });

    let mut ta = FigureTable::new(
        "fig7a",
        "Aggregate queries: average utility per time slot",
        "Budget factor",
        "Average utility",
        BUDGET_FACTORS.to_vec(),
    );
    let mut tb = FigureTable::new(
        "fig7b",
        "Aggregate queries: average quality of results",
        "Budget factor",
        "Average quality of results",
        BUDGET_FACTORS.to_vec(),
    );
    for (label, row) in ["Greedy", "Baseline"].iter().zip(&grid) {
        ta.push_series(label, row.iter().map(|r| r.avg_utility).collect());
        tb.push_series(label, row.iter().map(|r| r.avg_quality).collect());
    }
    vec![ta, tb]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn greedy_beats_baseline_at_small_budget() {
        let scale = Scale {
            slots: 3,
            query_factor: 0.2,
            sensor_factor: 0.4,
            seed: 5,
            threads: 0,
            shards: 1,
        };
        let setting = rnc_setting(&scale, 2);
        let cfg = SensorPoolConfig::paper_default(scale.slots, 2);
        let g = run_aggregate_simulation(&setting, &scale, &cfg, 6, 7.0, AggAlgo::Greedy, 9);
        let b = run_aggregate_simulation(&setting, &scale, &cfg, 6, 7.0, AggAlgo::Baseline, 9);
        assert!(
            g.avg_utility >= b.avg_utility - 1e-9,
            "greedy {} below baseline {}",
            g.avg_utility,
            b.avg_utility
        );
        assert!(g.avg_quality >= 0.0 && g.avg_quality <= 1.0 + 1e-9);
    }
}
