//! Ablation studies of design choices the paper leaves open or this
//! reproduction had to make: each isolates one mechanism or solver.
//!
//! * **Region-monitoring ablation** (`ablation_region`): Algorithm 3 with
//!   the Eq. 18 cost weighting and the `A_{r,t}` sensor sharing toggled
//!   independently, isolating each mechanism's contribution to Fig. 9's
//!   gap over the baseline.
//! * **Objective ablation** (`ablation_objective`): the welfare-optimal
//!   schedule vs the egalitarian satisfied-count heuristic (§2 mentions
//!   the egalitarian alternative without evaluating it), reporting both
//!   metrics for both objectives plus each run's certified optimality
//!   gap.
//! * **Solver ablation** (`ablation_solver`): exact branch-and-bound vs
//!   Local Search vs greedy opening on identical point workloads, each
//!   run reporting its welfare **and** its LP-relaxation bound, so the
//!   heuristics' distance from optimal is a certified `optimality_gap`
//!   column instead of a heuristic-vs-heuristic comparison.

use crate::config::Scale;
use crate::engine::engine_for;
use crate::metrics::FigureTable;
use crate::sensors::{SensorPool, SensorPoolConfig};
use crate::workload::{point_queries, spawn_region_monitor, BudgetScheme};
use ps_core::alloc::egalitarian::EgalitarianScheduler;
use ps_core::alloc::local_search::LocalSearchScheduler;
use ps_core::alloc::optimal::{GreedyPointScheduler, OptimalScheduler, WithLpBound};
use ps_core::alloc::PointScheduler;
use ps_data::intel::{IntelConfig, IntelFieldDataset};
use ps_geo::Rect;
use ps_gp::hyper::{fit_rbf, HyperGrid};
use ps_mobility::{MobilityModel, RandomWaypoint};
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::point_queries::rnc_setting;
use super::sweep;

const BUDGET_FACTORS: [f64; 3] = [10.0, 15.0, 20.0];

/// One Alg-3 variant of the region-monitoring ablation.
#[derive(Debug, Clone, Copy)]
struct RegionVariant {
    label: &'static str,
    weighting: bool,
    sharing: bool,
}

const REGION_VARIANTS: [RegionVariant; 4] = [
    RegionVariant {
        label: "Alg3",
        weighting: true,
        sharing: true,
    },
    RegionVariant {
        label: "no-weighting",
        weighting: false,
        sharing: true,
    },
    RegionVariant {
        label: "no-sharing",
        weighting: true,
        sharing: false,
    },
    RegionVariant {
        label: "neither",
        weighting: false,
        sharing: false,
    },
];

fn run_region_variant(scale: &Scale, budget_factor: f64, variant: RegionVariant, seed: u64) -> f64 {
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

    let bounds = Rect::new(0.0, 0.0, 20.0, 15.0);
    let num_agents = scale.sensor_count(30);
    let trace = RandomWaypoint {
        width: 20.0,
        height: 15.0,
        num_agents,
        max_speed_choices: vec![2.0, 3.0],
        seed: seed ^ 0x5151,
    }
    .generate(scale.slots);
    let mut pool = SensorPool::new(
        num_agents,
        &SensorPoolConfig::paper_default(scale.slots, seed),
    );
    let quality = ps_core::valuation::quality::QualityModel::new(2.0);
    let mut engine = engine_for(scale, &bounds, quality, move |b| {
        b.scheduler(OptimalScheduler::new())
            .cost_weighting(variant.weighting)
            .sensor_sharing(variant.sharing)
    });

    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(3));
    for slot in 0..scale.slots {
        engine.submit_region_monitor(spawn_region_monitor(
            &mut rng,
            slot,
            &bounds,
            &fitted.kernel,
            fitted.noise_variance,
            budget_factor,
        ));
        let sensors = pool.snapshots(slot, &trace, &bounds);
        let report = engine.step(slot, &sensors);
        pool.record_measurements(slot, report.sensors_used.iter().map(|&si| sensors[si].id));
    }
    engine.totals().welfare / scale.slots as f64
}

/// Region-monitoring mechanism ablation: average utility per slot for the
/// four (weighting × sharing) variants.
pub fn ablation_region(scale: &Scale) -> Vec<FigureTable> {
    let mut table = FigureTable::new(
        "ablation_region",
        "Ablation: Eq. 18 cost weighting and A_{r,t} sharing in Algorithm 3",
        "Budget factor",
        "Average utility",
        BUDGET_FACTORS.to_vec(),
    );
    let grid = sweep(&REGION_VARIANTS, &BUDGET_FACTORS, |variant, xi, b| {
        run_region_variant(scale, b, *variant, scale.seed.wrapping_add(xi as u64))
    });
    for (variant, values) in REGION_VARIANTS.iter().zip(grid) {
        table.push_series(variant.label, values);
    }
    vec![table]
}

/// Point-workload run metrics shared by the objective and solver
/// ablations.
struct PointAblationRun {
    avg_utility: f64,
    satisfaction: f64,
    /// Mean certified LP bound per bound-carrying slot (0 when none).
    avg_lp_bound: f64,
    /// The run's accumulated `(Σ bound − Σ welfare) / Σ bound`, when the
    /// scheduler certified bounds.
    optimality_gap: Option<f64>,
}

/// Runs one scheduler over the shared RNC point workload at budget `b`.
/// Each scheduler sees an identical initial workload; trajectories then
/// diverge through sensor-pool feedback, so the reported bound certifies
/// the slots *this* run actually solved.
fn run_point_ablation(
    scale: &Scale,
    scheduler: &(dyn PointScheduler + Send + Sync),
    b: f64,
    xi: usize,
) -> PointAblationRun {
    let setting = rnc_setting(scale, scale.seed.wrapping_add(xi as u64));
    let mut pool = SensorPool::new(
        setting.num_agents,
        &SensorPoolConfig::paper_default(scale.slots, scale.seed ^ 0x66),
    );
    let mut rng = StdRng::seed_from_u64(scale.seed.wrapping_add(500 + xi as u64));
    let mut engine = engine_for(scale, &setting.working_region, setting.quality, |b| {
        b.scheduler(scheduler)
    });
    for slot in 0..scale.slots {
        let sensors = pool.snapshots(slot, &setting.trace, &setting.working_region);
        for spec in point_queries(
            &mut rng,
            scale.queries(300),
            &setting.working_region,
            BudgetScheme::Fixed(b),
        ) {
            engine.submit_point(spec);
        }
        let report = engine.step(slot, &sensors);
        pool.record_measurements(slot, report.sensors_used.iter().map(|&si| sensors[si].id));
    }
    let totals = engine.totals();
    let breakdown = &totals.breakdown;
    PointAblationRun {
        avg_utility: totals.welfare / scale.slots as f64,
        satisfaction: if breakdown.point_total == 0 {
            0.0
        } else {
            breakdown.point_satisfied as f64 / breakdown.point_total as f64
        },
        avg_lp_bound: if breakdown.bound_known_slots == 0 {
            0.0
        } else {
            breakdown.point_lp_bound / breakdown.bound_known_slots as f64
        },
        optimality_gap: breakdown.optimality_gap(),
    }
}

/// Objective ablation: welfare vs satisfied-count for the exact welfare
/// maximizer and the egalitarian heuristic on identical point workloads,
/// plus each run's certified optimality gap (the egalitarian scheduler
/// is wrapped in [`WithLpBound`] so its gap is measured against the same
/// LP relaxation the exact solver bounds with).
pub fn ablation_objective(scale: &Scale) -> Vec<FigureTable> {
    let budgets = [10.0, 15.0, 25.0];
    let mut welfare_t = FigureTable::new(
        "ablation_objective_welfare",
        "Ablation: welfare vs egalitarian objective — average utility",
        "Query budget",
        "Average utility",
        budgets.to_vec(),
    );
    let mut sat_t = FigureTable::new(
        "ablation_objective_satisfaction",
        "Ablation: welfare vs egalitarian objective — satisfaction ratio",
        "Query budget",
        "Query satisfaction ratio",
        budgets.to_vec(),
    );
    let mut gap_t = FigureTable::new(
        "ablation_objective_gap",
        "Ablation: welfare vs egalitarian objective — optimality gap",
        "Query budget",
        "Point-schedule optimality gap",
        budgets.to_vec(),
    );

    let schedulers: Vec<(&str, Box<dyn PointScheduler + Send + Sync>)> = vec![
        ("Optimal", Box::new(OptimalScheduler::new())),
        (
            "Egalitarian",
            Box::new(WithLpBound::new(EgalitarianScheduler::new())),
        ),
    ];
    for (name, scheduler) in &schedulers {
        let mut utilities = Vec::new();
        let mut satisfactions = Vec::new();
        let mut gaps = Vec::new();
        for (xi, &b) in budgets.iter().enumerate() {
            let run = run_point_ablation(scale, scheduler.as_ref(), b, xi);
            utilities.push(run.avg_utility);
            satisfactions.push(run.satisfaction);
            gaps.push(run.optimality_gap.unwrap_or(0.0));
        }
        welfare_t.push_series(name, utilities);
        sat_t.push_series(name, satisfactions);
        gap_t.push_series(name, gaps);
    }
    vec![welfare_t, sat_t, gap_t]
}

/// Solver ablation: exact branch-and-bound vs Local Search vs greedy on
/// identical point workloads. Every scheduler reports its welfare, the
/// certified LP bound of the slots it solved, and the resulting
/// `optimality_gap` — the heuristics get their bounds from
/// [`WithLpBound`], the exact scheduler certifies its own.
pub fn ablation_solver(scale: &Scale) -> Vec<FigureTable> {
    let budgets = [10.0, 15.0, 25.0];
    let mut welfare_t = FigureTable::new(
        "ablation_solver_welfare",
        "Solver ablation: exact vs local search vs greedy — average utility",
        "Query budget",
        "Average utility",
        budgets.to_vec(),
    );
    let mut bound_t = FigureTable::new(
        "ablation_solver_lp_bound",
        "Solver ablation: certified LP bound per slot",
        "Query budget",
        "Mean LP-relaxation bound",
        budgets.to_vec(),
    );
    let mut gap_t = FigureTable::new(
        "ablation_solver_gap",
        "Solver ablation: certified optimality gap",
        "Query budget",
        "Point-schedule optimality gap",
        budgets.to_vec(),
    );

    let schedulers: Vec<(&str, Box<dyn PointScheduler + Send + Sync>)> = vec![
        ("Optimal", Box::new(OptimalScheduler::new().max_nodes(4000))),
        (
            "LocalSearch",
            Box::new(WithLpBound::new(LocalSearchScheduler::new())),
        ),
        (
            "Greedy",
            Box::new(WithLpBound::new(GreedyPointScheduler::new())),
        ),
    ];
    let grid = sweep(&schedulers, &budgets, |(_, scheduler), xi, b| {
        run_point_ablation(scale, scheduler.as_ref(), b, xi)
    });
    for ((name, _), runs) in schedulers.iter().zip(&grid) {
        welfare_t.push_series(name, runs.iter().map(|r| r.avg_utility).collect());
        bound_t.push_series(name, runs.iter().map(|r| r.avg_lp_bound).collect());
        let gaps = runs.iter().map(|r| r.optimality_gap.unwrap_or(0.0));
        gap_t.push_series(name, gaps.collect());
    }
    vec![welfare_t, bound_t, gap_t]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            slots: 4,
            query_factor: 0.08,
            sensor_factor: 0.4,
            seed: 9,
            threads: 0,
            shards: 1,
        }
    }

    #[test]
    fn region_ablation_full_variant_is_best_overall() {
        let tables = ablation_region(&tiny());
        let t = &tables[0];
        let total = |name: &str| -> f64 { t.series_named(name).unwrap().values.iter().sum() };
        // Each mechanism should not hurt: the full variant beats "neither".
        assert!(
            total("Alg3") >= total("neither") - 1e-6,
            "full Alg3 {} below stripped variant {}",
            total("Alg3"),
            total("neither")
        );
        for s in &t.series {
            for v in &s.values {
                assert!(v.is_finite());
            }
        }
    }

    /// Satellite (gap columns): every solver-ablation run reports a gap
    /// in `[0, 1]` and a bound that dominates its own welfare — the
    /// acceptance shape for the bench solver grid, at test scale.
    #[test]
    fn solver_ablation_reports_certified_gaps() {
        let tables = ablation_solver(&tiny());
        let (welfare, bound, gap) = (&tables[0], &tables[1], &tables[2]);
        for name in ["Optimal", "LocalSearch", "Greedy"] {
            let w = &welfare.series_named(name).unwrap().values;
            let b = &bound.series_named(name).unwrap().values;
            let g = &gap.series_named(name).unwrap().values;
            for ((w, b), g) in w.iter().zip(b.iter()).zip(g.iter()) {
                assert!(w.is_finite() && b.is_finite());
                assert!((0.0..=1.0).contains(g), "{name} gap {g} out of range");
                assert!(*b >= 0.0, "{name} bound {b} negative");
            }
        }
        // The exact solver's own gap should be essentially closed at
        // test scale (it proves optimality on these tiny slots).
        for g in &gap.series_named("Optimal").unwrap().values {
            assert!(*g <= 0.05, "exact solver gap {g} unexpectedly large");
        }
    }

    #[test]
    fn objective_ablation_trades_welfare_for_satisfaction() {
        let tables = ablation_objective(&tiny());
        let welfare = &tables[0];
        let sat = &tables[1];
        let opt_w: f64 = welfare.series_named("Optimal").unwrap().values.iter().sum();
        let ega_w: f64 = welfare
            .series_named("Egalitarian")
            .unwrap()
            .values
            .iter()
            .sum();
        assert!(ega_w <= opt_w + 1e-6, "egalitarian welfare beats optimal");
        for s in &sat.series {
            for v in &s.values {
                assert!((0.0..=1.0).contains(v));
            }
        }
    }
}
