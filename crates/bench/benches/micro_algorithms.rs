//! Micro-benchmarks and ablations of the core scheduling machinery:
//!
//! * exact branch-and-bound vs Local Search vs greedy on one slot's
//!   facility-location instance, across instance sizes (the paper's
//!   "Optimal … does not scale to large problem instances" claim);
//! * the LP-relaxation bound in isolation (the certificate the ablation
//!   drivers attach to heuristic schedules);
//! * GP posterior-field updates (Algorithm 4's inner loop);
//! * Algorithm 1 on overlapping aggregate queries.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ps_core::alloc::greedy::greedy_select;
use ps_core::exec::Threads;
use ps_core::model::SensorSnapshot;
use ps_core::query::{AggregateKind, AggregateQuery};
use ps_core::valuation::aggregate::AggregateValuation;
use ps_core::valuation::SetValuation;
use ps_core::QueryId;
use ps_geo::{Point, Rect, SensorIndex};
use ps_gp::kernel::SquaredExponential;
use ps_gp::posterior::PosteriorField;
use ps_solver::ufl::{self, WelfareProblem};
use ps_solver::SolveOptions;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// A random one-slot facility-location instance shaped like the paper's
/// point-query schedules: `nf` sensors at cost 10, `nc` locations with a
/// handful of in-range sensors each.
fn random_welfare(nf: usize, nc: usize, seed: u64) -> WelfareProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let costs = vec![10.0; nf];
    let clients: Vec<Vec<(usize, f64)>> = (0..nc)
        .map(|_| {
            let degree = rng.gen_range(2..8.min(nf + 1));
            let mut fs: Vec<usize> = (0..nf).collect();
            // partial shuffle
            for i in 0..degree {
                let j = rng.gen_range(i..nf);
                fs.swap(i, j);
            }
            fs[..degree]
                .iter()
                .map(|&f| (f, rng.gen_range(2.0..30.0)))
                .collect()
        })
        .collect();
    WelfareProblem::new(costs, clients)
}

fn bench_schedulers(c: &mut Criterion) {
    let mut group = c.benchmark_group("point_schedule");
    group.sample_size(10);
    for &(nf, nc) in &[(30usize, 60usize), (60, 150), (120, 300)] {
        let problem = random_welfare(nf, nc, 42);
        group.bench_with_input(
            BenchmarkId::new("exact", format!("{nf}s_{nc}l")),
            &problem,
            |b, p| b.iter(|| black_box(ufl::solve_exact(p, &SolveOptions::default()).welfare)),
        );
        group.bench_with_input(
            BenchmarkId::new("lp_bound", format!("{nf}s_{nc}l")),
            &problem,
            |b, p| b.iter(|| black_box(ufl::lp_relaxation_bound(p))),
        );
        group.bench_with_input(
            BenchmarkId::new("local_search", format!("{nf}s_{nc}l")),
            &problem,
            |b, p| b.iter(|| black_box(ufl::solve_local_search(p).welfare)),
        );
        group.bench_with_input(
            BenchmarkId::new("greedy", format!("{nf}s_{nc}l")),
            &problem,
            |b, p| b.iter(|| black_box(ufl::solve_greedy(p).welfare)),
        );
    }
    group.finish();
}

fn bench_posterior_field(c: &mut Criterion) {
    let mut group = c.benchmark_group("gp_posterior");
    let kernel = SquaredExponential::new(2.0, 2.5);
    for &cells in &[100usize, 300] {
        let side = (cells as f64).sqrt().ceil() as usize;
        let locs: Vec<Point> = (0..cells)
            .map(|i| Point::new((i % side) as f64 + 0.5, (i / side) as f64 + 0.5))
            .collect();
        let subset: Vec<usize> = (0..cells).collect();
        group.bench_with_input(BenchmarkId::new("observe", cells), &locs, |b, locs| {
            b.iter(|| {
                let mut field = PosteriorField::new(&kernel, locs.clone(), 0.1);
                for obs in (0..cells).step_by(cells / 10 + 1) {
                    field.observe(obs);
                }
                black_box(field.f_value(&subset))
            })
        });
        let mut field = PosteriorField::new(&kernel, locs.clone(), 0.1);
        field.observe(0);
        group.bench_with_input(
            BenchmarkId::new("marginal", cells),
            &(field, subset),
            |b, (field, subset)| {
                b.iter(|| black_box(field.reduction_if_observed(cells / 2, subset)))
            },
        );
    }
    group.finish();
}

fn bench_algorithm_1(c: &mut Criterion) {
    let mut group = c.benchmark_group("algorithm_1");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(7);
    let queries: Vec<AggregateQuery> = (0..20)
        .map(|i| {
            let x = rng.gen_range(0.0..80.0);
            let y = rng.gen_range(0.0..80.0);
            AggregateQuery {
                id: QueryId(i),
                region: Rect::new(x, y, x + 20.0, y + 15.0),
                budget: rng.gen_range(40.0..120.0),
                kind: AggregateKind::Average,
            }
        })
        .collect();
    let sensors: Vec<SensorSnapshot> = (0..80)
        .map(|id| SensorSnapshot {
            id,
            loc: Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)),
            cost: 10.0,
            trust: rng.gen_range(0.6..1.0),
            inaccuracy: rng.gen_range(0.0..0.2),
        })
        .collect();
    // Every sensor is a candidate, as in the paper's unindexed loop.
    let scan = SensorIndex::scan_all(&sensors.iter().map(|s| s.loc).collect::<Vec<_>>());
    group.bench_function("20_aggregates_80_sensors", |b| {
        b.iter(|| {
            let mut vals_storage: Vec<AggregateValuation> = queries
                .iter()
                .map(|q| AggregateValuation::new(q, 10.0))
                .collect();
            let mut vals: Vec<&mut dyn SetValuation> = vals_storage
                .iter_mut()
                .map(|v| v as &mut dyn SetValuation)
                .collect();
            black_box(greedy_select(&mut vals, &sensors, &scan, Threads::single()).welfare)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_schedulers,
    bench_posterior_field,
    bench_algorithm_1
);
criterion_main!(benches);
