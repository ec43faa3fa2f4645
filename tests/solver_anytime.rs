//! The anytime contract of the exact point scheduler, end to end.
//!
//! A deadline- or node-limited `Optimal` solve must always come back
//! with a *feasible incumbent* — never a panic, never a bogus
//! "infeasible" — whose Eq. 9 welfare sits inside its own LP-relaxation
//! bound and at or above what the §4.7 sequential baseline earns on the
//! identical seeded slot. That is what makes the node/pivot/deadline
//! knobs safe to turn at city scale: turning them down degrades the
//! schedule toward the heuristics, it never breaks the slot.

use ps_core::aggregator::{AggregatorBuilder, PointSpec, SlotReport};
use ps_core::alloc::baseline::BaselinePointScheduler;
use ps_core::alloc::optimal::OptimalScheduler;
use ps_core::alloc::PointScheduler;
use ps_core::exec::Threads;
use ps_core::model::SensorSnapshot;
use ps_core::valuation::quality::QualityModel;
use ps_geo::Point;
use ps_solver::ufl::{self, WelfareProblem};
use ps_solver::{SolveOptions, SolveStatus};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

const SEED: u64 = 2013;

/// A seeded one-slot instance: random sensors on a 40×40 arena and more
/// point queries than any one sensor can serve, so the schedule has real
/// sharing/packing structure.
fn seeded_slot(seed: u64) -> (Vec<SensorSnapshot>, Vec<PointSpec>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let sensors: Vec<SensorSnapshot> = (0..40)
        .map(|id| SensorSnapshot {
            id,
            loc: Point::new(rng.gen_range(0.0..40.0), rng.gen_range(0.0..40.0)),
            cost: rng.gen_range(6.0..14.0),
            trust: rng.gen_range(0.7..1.0),
            inaccuracy: rng.gen_range(0.0..0.1),
        })
        .collect();
    let specs: Vec<PointSpec> = (0..60)
        .map(|_| PointSpec {
            loc: Point::new(rng.gen_range(0.0..40.0), rng.gen_range(0.0..40.0)),
            budget: rng.gen_range(4.0..20.0),
            theta_min: 0.2,
        })
        .collect();
    (sensors, specs)
}

/// Runs the seeded slot through an engine built around the scheduler.
fn run_slot(
    scheduler: impl PointScheduler,
    sensors: &[SensorSnapshot],
    specs: &[PointSpec],
) -> SlotReport {
    let mut engine = AggregatorBuilder::new(QualityModel::new(5.0))
        .scheduler(scheduler)
        .build();
    for spec in specs {
        engine.submit_point(*spec);
    }
    engine.step(0, sensors)
}

/// A zero deadline is the harshest anytime setting: the branch-and-bound
/// gets no node budget at all and must fall back to its heuristic
/// incumbents. The slot must still complete, still carry an LP bound,
/// and still beat the sequential baseline on the identical instance.
#[test]
fn deadline_limited_engine_returns_feasible_incumbent() {
    let (sensors, specs) = seeded_slot(SEED);
    let limited = run_slot(
        OptimalScheduler::new().deadline(Duration::ZERO),
        &sensors,
        &specs,
    );
    let baseline = run_slot(BaselinePointScheduler::new(), &sensors, &specs);

    // The limited solve produced a scheduled, LP-bounded slot…
    assert_eq!(limited.breakdown.bound_known_slots, 1);
    assert!(limited.breakdown.point_sched_welfare.is_finite());
    // …whose welfare respects its own certificate…
    assert!(
        limited.breakdown.point_sched_welfare <= limited.breakdown.point_lp_bound + 1e-6,
        "incumbent welfare {} exceeded its LP bound {}",
        limited.breakdown.point_sched_welfare,
        limited.breakdown.point_lp_bound,
    );
    // …and at least matches the §4.7 baseline on the same instance (the
    // incumbent is seeded from Local Search and greedy, both of which
    // dominate the sequential pass on a shared-sensor workload).
    assert!(
        limited.welfare >= baseline.welfare - 1e-9,
        "deadline-limited welfare {} fell below the baseline's {}",
        limited.welfare,
        baseline.welfare,
    );
    // A harsh limit must degrade gracefully, never report an empty slot.
    assert!(limited.breakdown.point_satisfied > 0);
}

/// The same contract at the solver layer, across many seeds: a zero
/// deadline always yields a usable point whose objective is bracketed by
/// the greedy heuristic below and the LP relaxation above.
#[test]
fn deadline_limited_solves_stay_between_greedy_and_lp_bound() {
    for seed in 0..20 {
        let problem = random_welfare(24, 60, seed);
        let options = SolveOptions::default().with_deadline(Duration::ZERO);
        let solution = ufl::solve_exact(&problem, &options, Threads::single());
        assert_ne!(
            solution.status,
            SolveStatus::Infeasible,
            "seed {seed}: a welfare instance is never infeasible (closing \
             every facility is always feasible)"
        );
        let greedy = ufl::solve_greedy(&problem).welfare;
        let bound = solution
            .lp_bound
            .expect("anytime solves always carry a bound");
        assert!(
            solution.welfare >= greedy - 1e-9,
            "seed {seed}: incumbent {} below greedy {greedy}",
            solution.welfare
        );
        assert!(
            solution.welfare <= bound + 1e-6,
            "seed {seed}: incumbent {} above its LP bound {bound}",
            solution.welfare
        );
    }
}

/// A zero *node* budget exercises the other limit axis: the solver must
/// report `Feasible`/`LimitReached` (or `Optimal` when the root LP is
/// already integral) — never `Infeasible` — and hand back its incumbent.
#[test]
fn node_limited_solves_never_report_bogus_infeasible() {
    for seed in 100..120 {
        let problem = random_welfare(24, 60, seed);
        let options = SolveOptions::default().with_max_nodes(0);
        let solution = ufl::solve_exact(&problem, &options, Threads::single());
        assert!(
            matches!(
                solution.status,
                SolveStatus::Optimal | SolveStatus::Feasible | SolveStatus::LimitReached
            ),
            "seed {seed}: node-limited solve reported {:?}",
            solution.status
        );
        assert_eq!(solution.open.len(), problem.num_facilities());
        assert!(solution.welfare >= ufl::solve_greedy(&problem).welfare - 1e-9);
    }
}

/// A seeded facility-location instance shaped like one slot's point
/// schedule (cf. the micro benches): `nf` sensors, `nc` locations with a
/// handful of in-range candidates each.
fn random_welfare(nf: usize, nc: usize, seed: u64) -> WelfareProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let costs: Vec<f64> = (0..nf).map(|_| rng.gen_range(6.0..14.0)).collect();
    let clients: Vec<Vec<(usize, f64)>> = (0..nc)
        .map(|_| {
            let degree = rng.gen_range(2..6.min(nf + 1));
            let mut fs: Vec<usize> = (0..nf).collect();
            for i in 0..degree {
                let j = rng.gen_range(i..nf);
                fs.swap(i, j);
            }
            fs[..degree]
                .iter()
                .map(|&f| (f, rng.gen_range(2.0..18.0)))
                .collect()
        })
        .collect();
    WelfareProblem::new(costs, clients)
}
