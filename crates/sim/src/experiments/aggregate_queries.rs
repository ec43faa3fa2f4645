//! Fig. 7: spatial aggregate queries (§4.4) — Algorithm 1 vs the
//! sequential baseline, on the RNC substitute.

use crate::config::Scale;
use crate::metrics::FigureTable;
use crate::sensors::SensorPoolConfig;
use crate::workload::aggregate_queries;
use ps_core::aggregator::MixStrategy;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::point_queries::{rnc_setting, PointSetting};
use super::{per_issued, run_campaign, sweep};

/// Sensing range of §4.4 ("the sensing range of sensors is set to 10
/// units").
const SENSING_RANGE: f64 = 10.0;
const BUDGET_FACTORS: [f64; 7] = [7.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0];

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
    strategy: MixStrategy,
    workload_seed: u64,
) -> AggRunResult {
    let mut rng = StdRng::seed_from_u64(workload_seed);
    let engine = run_campaign(
        scale,
        setting,
        pool_cfg,
        |b| b.sensing_range(SENSING_RANGE).strategy(strategy),
        |_, engine| {
            let region = &setting.working_region;
            for spec in
                aggregate_queries(&mut rng, mean_count, region, SENSING_RANGE, budget_factor)
            {
                engine.submit_aggregate(spec);
            }
        },
    );
    let totals = engine.totals();
    AggRunResult {
        avg_utility: totals.welfare / scale.slots as f64,
        avg_quality: per_issued(
            totals.breakdown.aggregate_quality_sum,
            totals.breakdown.aggregate_total,
        ),
    }
}

/// Fig. 7: average utility per slot (a) and average quality of results (b)
/// versus the budget factor.
pub fn fig7(scale: &Scale) -> Vec<FigureTable> {
    let mean_count = scale.queries(30);
    let strategies = [MixStrategy::Alg5, MixStrategy::SequentialBaseline];
    let grid = sweep(&strategies, &BUDGET_FACTORS, |strategy, xi, b| {
        let setting = rnc_setting(scale, scale.seed.wrapping_add(xi as u64));
        let cfg = SensorPoolConfig::paper_default(scale.slots, scale.seed ^ 0x77);
        run_aggregate_simulation(
            &setting,
            scale,
            &cfg,
            mean_count,
            b,
            *strategy,
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
        let run = |strategy| run_aggregate_simulation(&setting, &scale, &cfg, 6, 7.0, strategy, 9);
        let g = run(MixStrategy::Alg5);
        let b = run(MixStrategy::SequentialBaseline);
        assert!(
            g.avg_utility >= b.avg_utility - 1e-9,
            "greedy {} below baseline {}",
            g.avg_utility,
            b.avg_utility
        );
        assert!(g.avg_quality >= 0.0 && g.avg_quality <= 1.0 + 1e-9);
    }
}
