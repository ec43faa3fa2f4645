//! Every paper figure (Figs. 2–10) regenerated at
//! [`Scale::bench`](ps_sim::config::Scale::bench) scale: one benchmark per
//! figure, each timing a full (algorithm × x-axis) sweep of
//! [`ExperimentId::run`]. Run `cargo run --release -p ps-sim --bin repro`
//! for the full-size numbers.

use criterion::{criterion_group, criterion_main, Criterion};
use ps_sim::config::Scale;
use ps_sim::experiments::ExperimentId;

fn bench(c: &mut Criterion) {
    let scale = Scale::bench();
    let mut group = c.benchmark_group("figures");
    group.sample_size(10);
    let figures = ExperimentId::ALL
        .into_iter()
        .filter(|id| id.name().starts_with("fig"));
    for id in figures {
        // `iter` black-boxes the returned tables, so the sweep cannot be elided.
        group.bench_function(id.name(), |b| b.iter(|| id.run(&scale)));
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
