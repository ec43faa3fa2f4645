//! Figs. 8 and 9: continuous queries — location monitoring on the ozone
//! substitute, region monitoring on the Intel-Lab substitute.

use crate::config::Scale;
use crate::metrics::FigureTable;
use crate::sensors::SensorPoolConfig;
use crate::workload::{spawn_location_monitors, spawn_region_monitor};
use ps_core::aggregator::MixStrategy;
use ps_core::alloc::baseline::BaselinePointScheduler;
use ps_core::alloc::local_search::LocalSearchScheduler;
use ps_core::alloc::optimal::OptimalScheduler;
use ps_core::alloc::PointScheduler;
use ps_core::valuation::monitoring::MonitoringContext;
use ps_core::valuation::quality::QualityModel;
use ps_data::intel::{IntelConfig, IntelFieldDataset};
use ps_data::ozone::{OzoneConfig, OzoneTrace};
use ps_geo::Rect;
use ps_gp::hyper::{fit_rbf, FittedHyperparams, HyperGrid};
use ps_mobility::{MobilityModel, RandomWaypoint};
use ps_stats::regression::DiurnalBasis;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

use super::point_queries::{rnc_setting, PointSetting};
use super::{monitor_quality, run_campaign, sweep};

const MONITOR_BUDGET_FACTORS: [f64; 5] = [7.0, 10.0, 15.0, 20.0, 25.0];

/// Builds the ozone monitoring context: four days of history, diurnal
/// basis, and a fold mapping simulation slots onto the second-to-last
/// historical day (ref. \[19]'s same-interval-yesterday assumption).
pub fn ozone_context(scale: &Scale) -> Arc<MonitoringContext> {
    let cfg = OzoneConfig {
        slots_per_day: 50,
        history_days: 4,
        seed: scale.seed,
        ..OzoneConfig::default()
    };
    let trace = OzoneTrace::generate(&cfg, scale.slots + 25);
    Arc::new(MonitoringContext::new(
        DiurnalBasis {
            period: 50.0,
            harmonics: 2,
        },
        trace.history(),
        Some((50.0, -100.0)),
    ))
}

/// The Intel-Lab substitute (§4.6): a 20×15 grid field generated from
/// `seed`, RBF hyperparameters fitted to half of the stationary motes'
/// readings at slot 0, and `scale.sensor_count(30)` imaginary mobile
/// sensors on a random-waypoint trace drawn from `trace_seed`, reading
/// with `d_max = r_s = 2`.
pub(super) fn intel_setting(
    scale: &Scale,
    seed: u64,
    trace_seed: u64,
) -> (PointSetting, FittedHyperparams) {
    let dataset = IntelFieldDataset::generate(
        &IntelConfig {
            seed,
            ..IntelConfig::default()
        },
        scale.slots.max(1),
    );
    let readings = dataset.mote_readings(0);
    let half = (readings.len() / 2).max(3).min(readings.len());
    let (locs, vals): (Vec<_>, Vec<_>) = readings[..half].iter().copied().unzip();
    let fitted = fit_rbf(&locs, &vals, &HyperGrid::default());
    let num_agents = scale.sensor_count(30);
    let trace = RandomWaypoint {
        width: 20.0,
        height: 15.0,
        num_agents,
        max_speed_choices: vec![2.0, 3.0],
        seed: trace_seed,
    }
    .generate(scale.slots);
    let setting = PointSetting {
        trace,
        working_region: Rect::new(0.0, 0.0, 20.0, 15.0),
        quality: QualityModel::new(2.0),
        num_agents,
    };
    (setting, fitted)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LocAlgo {
    Alg2Optimal,
    Alg2LocalSearch,
    Baseline,
}

impl LocAlgo {
    fn label(&self) -> &'static str {
        match self {
            LocAlgo::Alg2Optimal => "Alg2-O",
            LocAlgo::Alg2LocalSearch => "Alg2-LS",
            LocAlgo::Baseline => "Baseline",
        }
    }

    fn scheduler(&self) -> Box<dyn PointScheduler + Send + Sync> {
        match self {
            LocAlgo::Alg2Optimal => Box::new(OptimalScheduler::new()),
            LocAlgo::Alg2LocalSearch => Box::new(LocalSearchScheduler::new()),
            LocAlgo::Baseline => Box::new(BaselinePointScheduler::new()),
        }
    }

    fn strategy(&self) -> MixStrategy {
        match self {
            LocAlgo::Baseline => MixStrategy::SequentialBaseline,
            _ => MixStrategy::Alg5,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct MonitorRunResult {
    avg_utility: f64,
    avg_quality: f64,
}

fn run_location_simulation(
    scale: &Scale,
    budget_factor: f64,
    algo: LocAlgo,
    seed: u64,
) -> MonitorRunResult {
    let setting = rnc_setting(scale, seed);
    let ctx = ozone_context(scale);
    let pool_cfg = SensorPoolConfig::paper_default(scale.slots, seed ^ 0x1111);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(17));
    let max_concurrent = scale.queries(100);
    let spawn_mean = scale.queries(5);
    let engine = run_campaign(
        scale,
        &setting,
        &pool_cfg,
        move |b| b.scheduler(algo.scheduler()).strategy(algo.strategy()),
        |slot, engine| {
            // The engine retires expired monitors itself; spawn under the cap.
            for spec in spawn_location_monitors(
                &mut rng,
                slot,
                engine.location_monitor_count(),
                max_concurrent,
                spawn_mean,
                &setting.working_region,
                &ctx,
                budget_factor,
            ) {
                engine.submit_location_monitor(spec);
            }
        },
    );
    MonitorRunResult {
        avg_utility: engine.totals().welfare / scale.slots as f64,
        avg_quality: monitor_quality(engine.as_ref()),
    }
}

/// Fig. 8: location monitoring — average utility (a) and average quality
/// of results (b) versus the budget factor, for Alg2-O / Alg2-LS /
/// Baseline.
pub fn fig8(scale: &Scale) -> Vec<FigureTable> {
    let algos = [
        LocAlgo::Alg2Optimal,
        LocAlgo::Alg2LocalSearch,
        LocAlgo::Baseline,
    ];
    let grid = sweep(&algos, &MONITOR_BUDGET_FACTORS, |algo, xi, b| {
        run_location_simulation(scale, b, *algo, scale.seed.wrapping_add(xi as u64))
    });

    let mut ta = FigureTable::new(
        "fig8a",
        "Location monitoring queries: average utility per time slot",
        "Budget factor",
        "Average utility",
        MONITOR_BUDGET_FACTORS.to_vec(),
    );
    let mut tb = FigureTable::new(
        "fig8b",
        "Location monitoring queries: average quality of results",
        "Budget factor",
        "Average quality of results",
        MONITOR_BUDGET_FACTORS.to_vec(),
    );
    for (algo, row) in algos.iter().zip(&grid) {
        ta.push_series(algo.label(), row.iter().map(|r| r.avg_utility).collect());
        tb.push_series(algo.label(), row.iter().map(|r| r.avg_quality).collect());
    }
    vec![ta, tb]
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RegionAlgo {
    Alg3,
    Baseline,
}

fn run_region_simulation(
    scale: &Scale,
    budget_factor: f64,
    algo: RegionAlgo,
    seed: u64,
) -> MonitorRunResult {
    let (setting, fitted) = intel_setting(scale, seed, seed ^ 0x2222);
    let pool_cfg = SensorPoolConfig::paper_default(scale.slots, seed ^ 0x3333);
    let (weighting, sharing) = match algo {
        RegionAlgo::Alg3 => (true, true),
        RegionAlgo::Baseline => (false, false),
    };
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(29));
    let engine = run_campaign(
        scale,
        &setting,
        &pool_cfg,
        move |b| {
            let scheduler: Box<dyn PointScheduler> = match algo {
                RegionAlgo::Alg3 => Box::new(OptimalScheduler::new()),
                RegionAlgo::Baseline => Box::new(BaselinePointScheduler::new()),
            };
            b.scheduler(scheduler)
                .cost_weighting(weighting)
                .sensor_sharing(sharing)
        },
        |slot, engine| {
            // One new region query per slot (§4.6); the engine retires
            // expired ones at the end of each step.
            engine.submit_region_monitor(spawn_region_monitor(
                &mut rng,
                slot,
                &setting.working_region,
                &fitted.kernel,
                fitted.noise_variance,
                budget_factor,
            ));
        },
    );
    MonitorRunResult {
        avg_utility: engine.totals().welfare / scale.slots as f64,
        avg_quality: monitor_quality(engine.as_ref()),
    }
}

/// Fig. 9: region monitoring — average utility (a) and average quality of
/// results (b, not bounded by 1) versus the budget factor.
pub fn fig9(scale: &Scale) -> Vec<FigureTable> {
    let algos = [RegionAlgo::Alg3, RegionAlgo::Baseline];
    let grid = sweep(&algos, &MONITOR_BUDGET_FACTORS, |algo, xi, b| {
        run_region_simulation(scale, b, *algo, scale.seed.wrapping_add(xi as u64))
    });

    let mut ta = FigureTable::new(
        "fig9a",
        "Region monitoring queries: average utility per time slot",
        "Budget factor",
        "Average utility",
        MONITOR_BUDGET_FACTORS.to_vec(),
    );
    let mut tb = FigureTable::new(
        "fig9b",
        "Region monitoring queries: average quality of results",
        "Budget factor",
        "Average quality of results",
        MONITOR_BUDGET_FACTORS.to_vec(),
    );
    for (label, row) in ["Alg3", "Baseline"].iter().zip(&grid) {
        ta.push_series(label, row.iter().map(|r| r.avg_utility).collect());
        tb.push_series(label, row.iter().map(|r| r.avg_quality).collect());
    }
    vec![ta, tb]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> Scale {
        Scale {
            slots: 5,
            query_factor: 0.1,
            sensor_factor: 0.4,
            seed: 3,
            threads: 0,
            shards: 1,
        }
    }

    #[test]
    fn location_simulation_is_finite_and_ordered() {
        let scale = tiny_scale();
        let alg2 = run_location_simulation(&scale, 15.0, LocAlgo::Alg2Optimal, 7);
        let base = run_location_simulation(&scale, 15.0, LocAlgo::Baseline, 7);
        assert!(alg2.avg_utility.is_finite());
        assert!(base.avg_utility.is_finite());
        assert!(alg2.avg_quality >= 0.0);
    }

    #[test]
    fn region_simulation_accumulates_value() {
        let scale = tiny_scale();
        let alg3 = run_region_simulation(&scale, 15.0, RegionAlgo::Alg3, 11);
        assert!(alg3.avg_utility.is_finite());
        assert!(alg3.avg_quality >= 0.0);
    }

    #[test]
    fn intel_setting_is_the_lab_and_its_trace_follows_trace_seed() {
        let scale = tiny_scale();
        let (setting, _) = intel_setting(&scale, 11, 77);
        assert_eq!(setting.working_region, Rect::new(0.0, 0.0, 20.0, 15.0));
        assert_eq!(setting.quality.d_max, 2.0);
        assert_eq!(setting.num_agents, scale.sensor_count(30));
        assert_eq!(setting.trace.num_agents(), setting.num_agents);
        let positions = |trace: &ps_mobility::MobilityTrace| -> Vec<_> {
            (0..scale.slots)
                .flat_map(|t| (0..setting.num_agents).map(move |a| trace.position(t, a)))
                .collect()
        };
        let trace = positions(&setting.trace);
        // The field seed leaves the trace alone; the trace seed moves it.
        assert_eq!(positions(&intel_setting(&scale, 12, 77).0.trace), trace);
        assert_ne!(positions(&intel_setting(&scale, 11, 78).0.trace), trace);
    }

    #[test]
    fn ozone_context_folds_into_history_range() {
        let ctx = ozone_context(&tiny_scale());
        for t in 0..75 {
            let mapped = ctx.map_time(t as f64);
            assert!(
                (-100.0..-50.0).contains(&mapped),
                "slot {t} mapped to {mapped}"
            );
        }
    }
}
