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
use crate::metrics::FigureTable;
use crate::sensors::SensorPoolConfig;
use crate::workload::{spawn_region_monitor, BudgetScheme};
use ps_core::alloc::egalitarian::EgalitarianScheduler;
use ps_core::alloc::local_search::LocalSearchScheduler;
use ps_core::alloc::optimal::{GreedyPointScheduler, OptimalScheduler, WithLpBound};
use ps_core::alloc::PointScheduler;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::monitoring::intel_setting;
use super::point_queries::{rnc_setting, run_point_simulation, PointRunResult};
use super::{run_campaign, sweep};

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
    let (setting, fitted) = intel_setting(scale, seed, seed ^ 0x5151);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(3));
    let engine = run_campaign(
        scale,
        &setting,
        &SensorPoolConfig::paper_default(scale.slots, seed),
        move |b| {
            b.scheduler(OptimalScheduler::new())
                .cost_weighting(variant.weighting)
                .sensor_sharing(variant.sharing)
        },
        |slot, engine| {
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

/// One table of a point ablation: its id, title, y label and the run
/// metric it plots.
type Panel = (
    &'static str,
    &'static str,
    &'static str,
    fn(&PointRunResult) -> f64,
);

/// Runs every scheduler over the shared RNC point workload at each budget
/// of `budgets` (one [`run_point_simulation`] per cell, through `sweep`)
/// and plots `panels` from the runs. Each scheduler sees an identical
/// initial workload at a budget.
fn point_ablation(
    scale: &Scale,
    budgets: &[f64],
    schedulers: &[(&str, Box<dyn PointScheduler + Send + Sync>)],
    panels: [Panel; 3],
) -> Vec<FigureTable> {
    let grid = sweep(schedulers, budgets, |(_, scheduler), xi, b| {
        run_point_simulation(
            &rnc_setting(scale, scale.seed.wrapping_add(xi as u64)),
            scale,
            &SensorPoolConfig::paper_default(scale.slots, scale.seed ^ 0x66),
            scale.queries(300),
            BudgetScheme::Fixed(b),
            scheduler.as_ref(),
            scale.seed.wrapping_add(500 + xi as u64),
        )
    });
    panels
        .iter()
        .map(|&(id, title, y_label, metric)| {
            let mut table = FigureTable::new(id, title, "Query budget", y_label, budgets.to_vec());
            for ((name, _), runs) in schedulers.iter().zip(&grid) {
                table.push_series(name, runs.iter().map(metric).collect());
            }
            table
        })
        .collect()
}

/// Objective ablation: welfare vs satisfied-count for the exact welfare
/// maximizer and the egalitarian heuristic on identical point workloads,
/// plus each run's certified optimality gap (the egalitarian scheduler
/// is wrapped in [`WithLpBound`] so its gap is measured against the same
/// LP relaxation the exact solver bounds with).
pub fn ablation_objective(scale: &Scale) -> Vec<FigureTable> {
    let schedulers: Vec<(&str, Box<dyn PointScheduler + Send + Sync>)> = vec![
        ("Optimal", Box::new(OptimalScheduler::new())),
        (
            "Egalitarian",
            Box::new(WithLpBound::new(EgalitarianScheduler::new())),
        ),
    ];
    point_ablation(
        scale,
        &[10.0, 15.0, 25.0],
        &schedulers,
        [
            (
                "ablation_objective_welfare",
                "Ablation: welfare vs egalitarian objective — average utility",
                "Average utility",
                |r| r.avg_utility,
            ),
            (
                "ablation_objective_satisfaction",
                "Ablation: welfare vs egalitarian objective — satisfaction ratio",
                "Query satisfaction ratio",
                |r| r.satisfaction,
            ),
            (
                "ablation_objective_gap",
                "Ablation: welfare vs egalitarian objective — optimality gap",
                "Point-schedule optimality gap",
                |r| r.optimality_gap,
            ),
        ],
    )
}

/// Solver ablation: exact branch-and-bound vs Local Search vs greedy on
/// identical point workloads. Every scheduler reports its welfare, the
/// certified LP bound of the slots it solved, and the resulting
/// `optimality_gap` — the heuristics get their bounds from
/// [`WithLpBound`], the exact scheduler certifies its own.
pub fn ablation_solver(scale: &Scale) -> Vec<FigureTable> {
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
    point_ablation(
        scale,
        &[10.0, 15.0, 25.0],
        &schedulers,
        [
            (
                "ablation_solver_welfare",
                "Solver ablation: exact vs local search vs greedy — average utility",
                "Average utility",
                |r| r.avg_utility,
            ),
            (
                "ablation_solver_lp_bound",
                "Solver ablation: certified LP bound per slot",
                "Mean LP-relaxation bound",
                |r| r.avg_lp_bound,
            ),
            (
                "ablation_solver_gap",
                "Solver ablation: certified optimality gap",
                "Point-schedule optimality gap",
                |r| r.optimality_gap,
            ),
        ],
    )
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
