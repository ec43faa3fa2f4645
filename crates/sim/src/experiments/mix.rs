//! Fig. 10: the query mix (§4.7) — point + aggregate + location
//! monitoring queries on the RNC substitute, Algorithm 5 vs the sequential
//! baseline. Region monitoring is excluded exactly as in the paper ("due
//! to the lack of complete measurement data in RNC").

use crate::config::Scale;
use crate::metrics::FigureTable;
use crate::sensors::SensorPoolConfig;
use crate::workload::{aggregate_queries, point_queries, spawn_location_monitors, BudgetScheme};
use ps_core::aggregator::MixStrategy;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::monitoring::ozone_context;
use super::point_queries::rnc_setting;
use super::{monitor_quality, per_issued, run_campaign, sweep};

const BUDGET_FACTORS: [f64; 5] = [7.0, 10.0, 15.0, 20.0, 25.0];
const SENSING_RANGE: f64 = 10.0;

#[derive(Debug, Clone, Copy)]
struct MixRunResult {
    avg_utility: f64,
    point_quality: f64,
    aggregate_quality: f64,
    monitor_quality: f64,
}

fn run_mix_simulation(
    scale: &Scale,
    budget_factor: f64,
    strategy: MixStrategy,
    seed: u64,
) -> MixRunResult {
    let setting = rnc_setting(scale, seed);
    let region = &setting.working_region;
    let ctx = ozone_context(scale);
    // §4.7: lifetime 25, random PSL, linear energy with β ~ U[0, 4].
    let lifetime = (scale.slots / 2).max(1);
    let pool_cfg = SensorPoolConfig::privacy_energy(lifetime, seed ^ 0x4444);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(41));
    let points_per_slot = scale.queries(300);
    let agg_mean = scale.queries(30);
    let max_monitors = scale.queries(100);
    let monitor_spawn = scale.queries(5);

    let engine = run_campaign(
        scale,
        &setting,
        &pool_cfg,
        |b| b.sensing_range(SENSING_RANGE).strategy(strategy),
        |slot, engine| {
            for spec in spawn_location_monitors(
                &mut rng,
                slot,
                engine.location_monitor_count(),
                max_monitors,
                monitor_spawn,
                region,
                &ctx,
                budget_factor,
            ) {
                engine.submit_location_monitor(spec);
            }
            let budgets = BudgetScheme::Fixed(budget_factor);
            for spec in point_queries(&mut rng, points_per_slot, region, budgets) {
                engine.submit_point(spec);
            }
            for spec in aggregate_queries(&mut rng, agg_mean, region, SENSING_RANGE, budget_factor)
            {
                engine.submit_aggregate(spec);
            }
        },
    );

    let breakdown = &engine.totals().breakdown;
    MixRunResult {
        avg_utility: engine.totals().welfare / scale.slots as f64,
        point_quality: per_issued(breakdown.point_quality_sum, breakdown.point_total),
        aggregate_quality: per_issued(breakdown.aggregate_quality_sum, breakdown.aggregate_total),
        monitor_quality: monitor_quality(engine.as_ref()),
    }
}

/// Fig. 10: mix utility (a) and per-type quality of results (b: point,
/// c: aggregate, d: location monitoring) versus the budget factor.
pub fn fig10(scale: &Scale) -> Vec<FigureTable> {
    let strategies = [MixStrategy::Alg5, MixStrategy::SequentialBaseline];
    let results = sweep(&strategies, &BUDGET_FACTORS, |strategy, xi, b| {
        run_mix_simulation(scale, b, *strategy, scale.seed.wrapping_add(xi as u64))
    });

    type Extract = fn(&MixRunResult) -> f64;
    let panels: [(&str, &str, Extract); 4] = [
        ("fig10a", "Query mix: average utility per time slot", |r| {
            r.avg_utility
        }),
        (
            "fig10b",
            "Query mix: average quality of results, point queries",
            |r| r.point_quality,
        ),
        (
            "fig10c",
            "Query mix: average quality of results, aggregate queries",
            |r| r.aggregate_quality,
        ),
        (
            "fig10d",
            "Query mix: average quality of results, location monitoring",
            |r| r.monitor_quality,
        ),
    ];
    let labels = ["Alg5", "Baseline"];
    panels
        .iter()
        .map(|(id, title, extract)| {
            let mut t = FigureTable::new(
                id,
                title,
                "Budget factor",
                if *id == "fig10a" {
                    "Average utility"
                } else {
                    "Average quality of results"
                },
                BUDGET_FACTORS.to_vec(),
            );
            for (ai, label) in labels.iter().enumerate() {
                t.push_series(label, results[ai].iter().map(extract).collect());
            }
            t
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_simulation_runs_and_alg5_wins() {
        let scale = Scale {
            slots: 4,
            query_factor: 0.08,
            sensor_factor: 0.4,
            seed: 23,
            threads: 0,
            shards: 1,
        };
        let alg5 = run_mix_simulation(&scale, 15.0, MixStrategy::Alg5, 5);
        let base = run_mix_simulation(&scale, 15.0, MixStrategy::SequentialBaseline, 5);
        assert!(alg5.avg_utility.is_finite());
        assert!(base.avg_utility.is_finite());
        // Algorithm 1 is a heuristic and monitors evolve across slots, so
        // per-run dominance is not a theorem; at this tiny scale allow a
        // 2 % slack (the full-scale Fig. 10 gap is ~70 %).
        assert!(
            alg5.avg_utility >= 0.98 * base.avg_utility - 1e-6,
            "alg5 {} far below baseline {}",
            alg5.avg_utility,
            base.avg_utility
        );
    }
}
