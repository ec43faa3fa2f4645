//! Single-sensor point-query experiments: Figs. 2–6 and the §4.7 trust
//! sweep.

use super::{per_issued, run_campaign, sweep};
use crate::config::Scale;
use crate::metrics::FigureTable;
use crate::sensors::{SensorPoolConfig, TrustAssignment};
use crate::workload::{point_queries, BudgetScheme};
use ps_core::alloc::baseline::BaselinePointScheduler;
use ps_core::alloc::local_search::LocalSearchScheduler;
use ps_core::alloc::optimal::OptimalScheduler;
use ps_core::alloc::PointScheduler;
use ps_core::valuation::quality::QualityModel;
use ps_geo::Rect;
use ps_mobility::{CampaignModel, MobilityModel, MobilityTrace, RandomWaypoint};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The three point schedulers the figures compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointAlgo {
    /// Exact Eq. 9 schedule.
    Optimal,
    /// Feige-et-al. local search.
    LocalSearch,
    /// Sequential per-query baseline.
    Baseline,
}

impl PointAlgo {
    /// Legend label.
    pub fn label(&self) -> &'static str {
        match self {
            PointAlgo::Optimal => "Optimal",
            PointAlgo::LocalSearch => "LocalSearch",
            PointAlgo::Baseline => "Baseline",
        }
    }

    /// Instantiates the scheduler. The exact solver gets a per-slot node
    /// budget large enough to close the gap at paper scale while bounding
    /// worst-case latency; heuristic seeding keeps a budget strike
    /// anytime-safe (`LimitReached` with an incumbent, never a refusal).
    pub fn scheduler(&self) -> Box<dyn PointScheduler + Send + Sync> {
        match self {
            PointAlgo::Optimal => Box::new(OptimalScheduler::new().max_nodes(4000)),
            PointAlgo::LocalSearch => Box::new(LocalSearchScheduler::new()),
            PointAlgo::Baseline => Box::new(BaselinePointScheduler::new()),
        }
    }

    const ALL: [PointAlgo; 3] = [
        PointAlgo::Optimal,
        PointAlgo::LocalSearch,
        PointAlgo::Baseline,
    ];
}

/// One mobility environment: the agents' trace, the working region
/// their sensors report in, Eq. 4's quality model and the population
/// size. Every campaign of §4 runs in one.
pub struct PointSetting {
    /// Generated trace.
    pub trace: MobilityTrace,
    /// Aggregator working region ("hotspot").
    pub working_region: Rect,
    /// Eq. 4 quality model (`d_max`).
    pub quality: QualityModel,
    /// Agent population size.
    pub num_agents: usize,
}

/// The RWM environment (§4.2): 80×80 grid, central 50×50 working region,
/// 200 sensors, `d_max = 5`.
pub fn rwm_setting(scale: &Scale, seed: u64) -> PointSetting {
    let num_agents = scale.sensor_count(200);
    let model = RandomWaypoint {
        num_agents,
        ..RandomWaypoint::paper_default(seed)
    };
    PointSetting {
        trace: model.generate(scale.slots),
        working_region: Rect::new(15.0, 15.0, 65.0, 65.0),
        quality: QualityModel::new(5.0),
        num_agents,
    }
}

/// The RNC-substitute environment (§4.2): 237×300 world, central 100×100
/// working region, 635 sensors, `d_max = 10`.
pub fn rnc_setting(scale: &Scale, seed: u64) -> PointSetting {
    let num_agents = scale.sensor_count(635);
    let model = CampaignModel {
        num_agents,
        ..CampaignModel::rnc_like(seed)
    };
    let working_region = model.working_region;
    PointSetting {
        trace: model.generate(scale.slots),
        working_region,
        quality: QualityModel::new(10.0),
        num_agents,
    }
}

/// Result of one point-query campaign.
#[derive(Debug, Clone, Copy)]
pub struct PointRunResult {
    /// Mean welfare per slot — the paper's "average utility".
    pub avg_utility: f64,
    /// Fraction of queries answered — the "query satisfaction ratio".
    pub satisfaction: f64,
    /// Mean certified LP bound per bound-carrying slot (0 when none).
    pub avg_lp_bound: f64,
    /// The run's accumulated `(Σ bound − Σ welfare) / Σ bound` over the
    /// slots whose scheduler certified a bound (0 when none did).
    pub optimality_gap: f64,
}

/// Runs one point-query campaign: an [`engine_for`](crate::engine::engine_for)-selected
/// engine (single or sharded, per `scale.shards`) scheduling with
/// `scheduler` serves `scale.slots` slots, consuming freshly generated
/// query specs each slot and updating sensor lifetimes/privacy histories
/// with the chosen sensors. Trajectories diverge between schedulers
/// through that feedback, so a reported bound certifies the slots *this*
/// run solved.
pub fn run_point_simulation(
    setting: &PointSetting,
    scale: &Scale,
    pool_cfg: &SensorPoolConfig,
    queries_per_slot: usize,
    budgets: BudgetScheme,
    scheduler: &(dyn PointScheduler + Send + Sync),
    workload_seed: u64,
) -> PointRunResult {
    let mut rng = StdRng::seed_from_u64(workload_seed);
    let engine = run_campaign(
        scale,
        setting,
        pool_cfg,
        |b| b.scheduler(scheduler),
        |_, engine| {
            let region = &setting.working_region;
            for spec in point_queries(&mut rng, queries_per_slot, region, budgets) {
                engine.submit_point(spec);
            }
        },
    );
    let totals = engine.totals();
    let breakdown = &totals.breakdown;
    PointRunResult {
        avg_utility: totals.welfare / scale.slots as f64,
        satisfaction: per_issued(breakdown.point_satisfied as f64, breakdown.point_total),
        avg_lp_bound: per_issued(breakdown.point_lp_bound, breakdown.bound_known_slots),
        optimality_gap: breakdown.optimality_gap().unwrap_or(0.0),
    }
}

/// Sweep runner shared by Figs. 2–6: one (algorithm × x-value) grid, with
/// identical workloads across algorithms at each x (same seeds). Runs the
/// grid in parallel through `sweep`.
fn run_point_sweep(
    xs: &[f64],
    scale: &Scale,
    make_setting: impl Fn(u64) -> PointSetting + Sync,
    make_pool_cfg: impl Fn() -> SensorPoolConfig + Sync,
    queries_for_x: impl Fn(f64) -> usize + Sync,
    budgets_for_x: impl Fn(f64) -> BudgetScheme + Sync,
) -> Vec<Vec<PointRunResult>> {
    sweep(&PointAlgo::ALL, xs, |algo, xi, x| {
        // Same trace/workload seed across algorithms.
        let setting = make_setting(scale.seed.wrapping_add(xi as u64));
        run_point_simulation(
            &setting,
            scale,
            &make_pool_cfg(),
            queries_for_x(x),
            budgets_for_x(x),
            algo.scheduler().as_ref(),
            scale.seed.wrapping_add(1000 + xi as u64),
        )
    })
}

fn tables_from_grids(
    id_prefix: &str,
    title: &str,
    x_label: &str,
    xs: Vec<f64>,
    grid: Vec<Vec<PointRunResult>>,
) -> Vec<FigureTable> {
    let mut ta = FigureTable::new(
        &format!("{id_prefix}a"),
        &format!("{title}: average utility per time slot"),
        x_label,
        "Average utility",
        xs.clone(),
    );
    let mut tb = FigureTable::new(
        &format!("{id_prefix}b"),
        &format!("{title}: query satisfaction ratio"),
        x_label,
        "Query satisfaction ratio",
        xs,
    );
    for (algo, row) in PointAlgo::ALL.iter().zip(&grid) {
        ta.push_series(algo.label(), row.iter().map(|r| r.avg_utility).collect());
        tb.push_series(algo.label(), row.iter().map(|r| r.satisfaction).collect());
    }
    vec![ta, tb]
}

const BUDGETS: [f64; 7] = [7.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0];

/// Fig. 2: point queries on RWM, budget sweep.
pub fn fig2(scale: &Scale) -> Vec<FigureTable> {
    let queries = scale.queries(300);
    let grid = run_point_sweep(
        &BUDGETS,
        scale,
        |seed| rwm_setting(scale, seed),
        || SensorPoolConfig::paper_default(scale.slots, scale.seed ^ 0xA5),
        |_x| queries,
        BudgetScheme::Fixed,
    );
    tables_from_grids(
        "fig2",
        "Single-sensor point queries, RWM dataset",
        "Query budget",
        BUDGETS.to_vec(),
        grid,
    )
}

/// Fig. 3: point queries on the RNC substitute, budget sweep.
pub fn fig3(scale: &Scale) -> Vec<FigureTable> {
    let queries = scale.queries(300);
    let grid = run_point_sweep(
        &BUDGETS,
        scale,
        |seed| rnc_setting(scale, seed),
        || SensorPoolConfig::paper_default(scale.slots, scale.seed ^ 0xB6),
        |_x| queries,
        BudgetScheme::Fixed,
    );
    tables_from_grids(
        "fig3",
        "Single-sensor point queries, RNC dataset",
        "Query budget",
        BUDGETS.to_vec(),
        grid,
    )
}

/// Fig. 4: uniformly distributed budgets (mean ± 10) on RNC.
pub fn fig4(scale: &Scale) -> Vec<FigureTable> {
    let queries = scale.queries(300);
    let grid = run_point_sweep(
        &BUDGETS,
        scale,
        |seed| rnc_setting(scale, seed),
        || SensorPoolConfig::paper_default(scale.slots, scale.seed ^ 0xC7),
        |_x| queries,
        BudgetScheme::UniformAroundMean,
    );
    tables_from_grids(
        "fig4",
        "Uniformly distributed budget, RNC dataset",
        "Mean query budget",
        BUDGETS.to_vec(),
        grid,
    )
}

/// Fig. 5: query-count sweep at fixed budget 15 on RNC.
pub fn fig5(scale: &Scale) -> Vec<FigureTable> {
    let counts: Vec<f64> = [250.0, 500.0, 750.0, 1000.0].to_vec();
    let grid = run_point_sweep(
        &counts,
        scale,
        |seed| rnc_setting(scale, seed),
        || SensorPoolConfig::paper_default(scale.slots, scale.seed ^ 0xD8),
        |x| scale.queries(x as usize),
        |_x| BudgetScheme::Fixed(15.0),
    );
    tables_from_grids(
        "fig5",
        "Varying the number of queries (budget 15), RNC dataset",
        "Number of queries",
        counts,
        grid,
    )
}

/// Fig. 6: random PSL + linear energy cost, lifetimes 50 (a,b) and
/// 25 (c,d), on RNC.
pub fn fig6(scale: &Scale) -> Vec<FigureTable> {
    let queries = scale.queries(300);
    let mut out = Vec::new();
    for (panel, lifetime_frac) in [("fig6ab", 1.0f64), ("fig6cd", 0.5)] {
        let lifetime = ((scale.slots as f64 * lifetime_frac).round() as usize).max(1);
        let grid = run_point_sweep(
            &BUDGETS,
            scale,
            |seed| rnc_setting(scale, seed),
            || SensorPoolConfig::privacy_energy(lifetime, scale.seed ^ 0xE9),
            |_x| queries,
            BudgetScheme::Fixed,
        );
        let mut tables = tables_from_grids(
            panel,
            &format!("Random PSL + linear energy cost, lifetime {lifetime}, RNC"),
            "Query budget",
            BUDGETS.to_vec(),
            grid,
        );
        out.append(&mut tables);
    }
    out
}

/// §4.7 trust sweep (text only in the paper): the more trustworthy the
/// sensors, the more utility the queries obtain.
pub fn trust(scale: &Scale) -> Vec<FigureTable> {
    let queries = scale.queries(300);
    let distributions: [(f64, TrustAssignment); 3] = [
        (1.0, TrustAssignment::FullyTrusted),
        (0.75, TrustAssignment::Uniform { lo: 0.5, hi: 1.0 }),
        (0.5, TrustAssignment::Uniform { lo: 0.0, hi: 1.0 }),
    ];
    let means: Vec<f64> = distributions.iter().map(|&(m, _)| m).collect();
    let mut table = FigureTable::new(
        "trust",
        "Trust distributions (LocalSearch, budget 20), RNC dataset",
        "Mean sensor trust",
        "Average utility",
        means.clone(),
    );
    let scheduler = PointAlgo::LocalSearch.scheduler();
    let grid = sweep(&[()], &means, |_, i, _| {
        let setting = rnc_setting(scale, scale.seed.wrapping_add(i as u64));
        let cfg = SensorPoolConfig {
            trust: distributions[i].1,
            ..SensorPoolConfig::paper_default(scale.slots, scale.seed ^ 0xF1)
        };
        run_point_simulation(
            &setting,
            scale,
            &cfg,
            queries,
            BudgetScheme::Fixed(20.0),
            scheduler.as_ref(),
            scale.seed.wrapping_add(2000 + i as u64),
        )
        .avg_utility
    });
    table.push_series("LocalSearch", grid.concat());
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rwm_and_rnc_settings_have_paper_shape() {
        let scale = Scale::test();
        let rwm = rwm_setting(&scale, 1);
        assert_eq!(rwm.quality.d_max, 5.0);
        assert_eq!(rwm.working_region, Rect::new(15.0, 15.0, 65.0, 65.0));
        let rnc = rnc_setting(&scale, 1);
        assert_eq!(rnc.quality.d_max, 10.0);
        assert!(rnc.num_agents <= 635);
    }

    #[test]
    fn simulation_produces_finite_metrics() {
        let scale = Scale {
            slots: 3,
            query_factor: 0.05,
            sensor_factor: 0.3,
            seed: 7,
            threads: 0,
            shards: 1,
        };
        let setting = rwm_setting(&scale, 3);
        let cfg = SensorPoolConfig::paper_default(scale.slots, 3);
        for algo in PointAlgo::ALL {
            let r = run_point_simulation(
                &setting,
                &scale,
                &cfg,
                scale.queries(300),
                BudgetScheme::Fixed(20.0),
                algo.scheduler().as_ref(),
                11,
            );
            assert!(r.avg_utility.is_finite());
            assert!((0.0..=1.0).contains(&r.satisfaction));
        }
    }

    #[test]
    fn optimal_dominates_baseline_on_shared_workload() {
        let scale = Scale {
            slots: 4,
            query_factor: 0.1,
            sensor_factor: 0.5,
            seed: 99,
            threads: 0,
            shards: 1,
        };
        let setting = rwm_setting(&scale, 5);
        let cfg = SensorPoolConfig::paper_default(scale.slots, 5);
        let opt = run_point_simulation(
            &setting,
            &scale,
            &cfg,
            30,
            BudgetScheme::Fixed(15.0),
            PointAlgo::Optimal.scheduler().as_ref(),
            13,
        );
        let base = run_point_simulation(
            &setting,
            &scale,
            &cfg,
            30,
            BudgetScheme::Fixed(15.0),
            PointAlgo::Baseline.scheduler().as_ref(),
            13,
        );
        assert!(
            opt.avg_utility >= base.avg_utility - 1e-9,
            "optimal {} below baseline {}",
            opt.avg_utility,
            base.avg_utility
        );
    }
}
