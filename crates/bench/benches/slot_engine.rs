//! Aggregator engine throughput, the spatial-index scaling story, the
//! threads×scale parallel-pipeline grid, the shards×scale federation
//! grid, the streaming-intake latency/welfare part, and the solver grid.
//!
//! The bench is one table of **engine groups** (`groups`). A group is one
//! standing workload (`StandingMixProfile`) driven through a few engines
//! in lockstep (`measure`); in every grid but `paper` and `solver` the
//! first engine is the reference the others are checked against:
//!
//! | Grid | Engines per group | Aborts unless |
//! |---|---|---|
//! | `paper` | the plain engine at the paper's 80-sensor population, two query intensities (printed only) | — |
//! | `scaling` | brute force (`SensorIndex::scan_all`), indexed — per sensor tier | welfare trajectories bit-identical |
//! | `threads` | 1 / 2 / 4 workers — per scale (city, metro) | welfare trajectories bit-identical to threads=1 |
//! | `shards` | 1×1 / 2×2 `ps_cluster` federations — per scale | a tile-local workload is answered as by the plain engine |
//! | `streaming` | batch Alg5, the online auction — both through `step_streaming` on the bursty stream, per scale | p99 decision latency ≤ one slot |
//! | `solver` | `Optimal` (default node/pivot limits), Local Search, greedy — the heuristics wrapped in `WithLpBound` — at city scale | LP-bounded slots exist, welfare ≤ bound, gap in [0, 1] |
//!
//! Each row reports the median time of one `step` / `step_streaming`
//! call over the measured slots; workload generation is never timed. The
//! shards row adds the welfare gap of the partitioned greedy vs the 1×1
//! federation, the streaming row the decision-latency percentiles, the
//! matched-at-arrival fraction and the welfare gap vs batch Alg5 on the
//! identical stream, the solver row the summed Eq. 9 point welfare, LP
//! bound, certified `optimality_gap` and solver-limit strikes.
//!
//! All results are printed and written as machine-readable JSON to
//! `BENCH_slot_engine.json` at the repo root (override the path with
//! `BENCH_JSON_PATH`); `docs/PERFORMANCE.md` documents the schema.
//!
//! `SLOT_ENGINE_SMOKE=1` shrinks the scaling tiers, the threads grid
//! (threads 1 and 2), every scale to one small profile, and the slot
//! counts so CI can execute the whole pipeline end to end in seconds;
//! the emitted JSON then carries `"mode": "smoke"`, is *not* meant to be
//! committed, and defaults to a temp-dir path so it cannot clobber the
//! committed file. The committed file must come from a full run:
//!
//! ```text
//! cargo bench -p ps-bench --bench slot_engine
//! ```

use ps_cluster::{ClusterBuilder, SlotEngine};
use ps_core::aggregator::{AggregatorBuilder, MixBreakdown, MixStrategy, PointSpec};
use ps_core::alloc::local_search::LocalSearchScheduler;
use ps_core::alloc::optimal::{GreedyPointScheduler, OptimalScheduler, WithLpBound};
use ps_core::model::SensorSnapshot;
use ps_core::streaming::StreamStats;
use ps_core::valuation::monitoring::MonitoringContext;
use ps_core::valuation::quality::QualityModel;
use ps_geo::{Point, Rect, TileGrid};
use ps_gp::kernel::SquaredExponential;
use ps_sim::config::Scale;
use ps_sim::workload::StandingMixProfile;
use ps_stats::regression::DiurnalBasis;
use ps_stats::TimeSeries;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEED: u64 = 2013;
/// City query load (`Scale::city`'s factor): 1 200 end-user point
/// queries per slot before monitors and aggregates.
const QUERY_FACTOR: f64 = 4.0;
/// Scaling-tier monitor/aggregate populations (overriding the profile so
/// the workload is identical at every sensor tier).
const AGGREGATES_MEAN: usize = 8;
const LOCATION_MONITORS: usize = 50;
const REGION_MONITORS: usize = 20;
const FULL_TIERS: [usize; 3] = [100, 1_000, 10_000];
const FULL_MEASURED_SLOTS: usize = 5;
const FULL_WARMUP_SLOTS: usize = 2;
/// Worker counts measured by the threads×scale grid in full mode.
const FULL_THREADS_GRID: [usize; 3] = [1, 2, 4];
/// Tile-grid sides measured by the shards×scale grid (1 = one shard,
/// 2 = a 2×2 federation of 4 shards).
const FULL_SHARDS_GRID: [usize; 2] = [1, 2];
/// Point schedulers of the solver grid, in row order.
const SOLVER_SCHEDULERS: [&str; 3] = ["optimal", "local_search", "greedy"];
/// Event-time resolution of the streaming part (`ps_core`'s default).
const STREAMING_TICKS_PER_SLOT: u64 = ps_core::aggregator::DEFAULT_TICKS_PER_SLOT;
/// Burst cadence/height applied to the streaming scales that do not
/// already carry one (`StandingMixProfile::metro`'s shape).
const STREAMING_BURST_PERIOD: usize = 4;
const STREAMING_BURST_FACTOR: f64 = 1.5;
/// The paper canary's (points, aggregates, standing location monitors)
/// per slot, at the paper's 80-sensor population on its 40×40 arena.
const PAPER_INTENSITIES: [(usize, usize, usize); 2] = [(30, 3, 10), (120, 8, 30)];
/// Slots that warm the paper canary into a steady monitor population.
const PAPER_WARMUP_SLOTS: usize = 3;

fn monitoring_ctx() -> Arc<MonitoringContext> {
    let times: Vec<f64> = (0..200).map(|i| i as f64 - 200.0).collect();
    let values: Vec<f64> = times
        .iter()
        .map(|&t| 20.0 + 5.0 * (std::f64::consts::TAU * t / 50.0).sin())
        .collect();
    Arc::new(MonitoringContext::new(
        DiurnalBasis {
            period: 50.0,
            harmonics: 1,
        },
        TimeSeries::new(times, values),
        None,
    ))
}

/// The scaling workload at one sensor tier: the city query mix over an
/// arena sized for the tier's sensor count at the paper's density.
fn tier_profile(sensors: usize) -> StandingMixProfile {
    let scale = Scale {
        slots: 0,
        query_factor: QUERY_FACTOR,
        sensor_factor: sensors as f64 / 635.0,
        seed: SEED,
        threads: 0,
        shards: 1,
    };
    let mut profile = StandingMixProfile::from_scale(&scale);
    profile.sensors = sensors;
    profile.aggregates_mean = AGGREGATES_MEAN;
    profile.location_monitors = LOCATION_MONITORS;
    profile.region_monitors = REGION_MONITORS;
    profile
}

/// The bench's parts; every one but `Paper` is a section of the JSON file.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Grid {
    Paper,
    Scaling,
    Threads,
    Shards,
    Streaming,
    Solver,
}

impl Grid {
    /// The JSON file's sections, in file order.
    const SECTIONS: [Grid; 5] = [
        Grid::Scaling,
        Grid::Threads,
        Grid::Shards,
        Grid::Streaming,
        Grid::Solver,
    ];

    fn name(self) -> &'static str {
        match self {
            Grid::Paper => "paper",
            Grid::Scaling => "scaling",
            Grid::Threads => "threads",
            Grid::Shards => "shards",
            Grid::Streaming => "streaming",
            Grid::Solver => "solver",
        }
    }

    /// The JSON section's key (the scaling tiers predate the other grids
    /// and kept the name `results`).
    fn section(self) -> &'static str {
        match self {
            Grid::Scaling => "results",
            grid => grid.name(),
        }
    }
}

/// One engine configuration of a group.
#[derive(Debug, Clone, Copy)]
enum Engine {
    /// The plain `Aggregator` with `threads` workers (0 = auto) and the
    /// `spatial_index` knob.
    Plain { threads: usize, index: bool },
    /// A `g × g` `ps_cluster` federation of single-threaded shard engines.
    /// Every shards cell — g = 1 included — is one, so the grid isolates
    /// the sharding axis from the `threads` knob (the 1×1 cluster is
    /// bit-identical to the plain engine by the `ps_cluster` contract).
    Cluster { g: usize },
    /// Driven through `step_streaming`: the online double auction, or
    /// batch Alg5 clearing the same stream at the slot boundary.
    Stream { online: bool },
    /// Point queries through a dedicated scheduler (`SOLVER_SCHEDULERS`).
    Scheduler(&'static str),
}

impl Engine {
    fn build(self, arena: Rect) -> Box<dyn SlotEngine> {
        let quality = QualityModel::new(5.0);
        let builder = AggregatorBuilder::new(quality);
        let builder = match self {
            Engine::Cluster { g } => {
                return Box::new(ClusterBuilder::new(quality, arena, g).build())
            }
            Engine::Plain { threads, index } => builder.threads(threads).spatial_index(index),
            Engine::Stream { online: true } => builder.strategy(MixStrategy::OnlineAuction),
            Engine::Stream { online: false } => builder,
            // The claim is "Optimal completes a city slot under its
            // *default* node/pivot limits": no tuned budgets, no deadline.
            Engine::Scheduler("optimal") => builder.scheduler(OptimalScheduler::new()),
            Engine::Scheduler("local_search") => {
                builder.scheduler(WithLpBound::new(LocalSearchScheduler::new()))
            }
            Engine::Scheduler("greedy") => {
                builder.scheduler(WithLpBound::new(GreedyPointScheduler))
            }
            Engine::Scheduler(other) => panic!("unknown solver-grid scheduler {other}"),
        };
        Box::new(builder.build())
    }
}

/// One standing workload driven through `engines` in lockstep.
struct Group {
    grid: Grid,
    /// The rows' `scale`: "city", "metro", "smoke", a tier's sensor count
    /// or a paper intensity.
    scale: String,
    profile: StandingMixProfile,
    engines: Vec<Engine>,
    warmup: usize,
    measured: usize,
}

/// The bench's engine groups, in run order.
fn groups(smoke: bool) -> Vec<Group> {
    let (warmup, measured) = if smoke {
        (1, 2)
    } else {
        (FULL_WARMUP_SLOTS, FULL_MEASURED_SLOTS)
    };
    let (tiers, thread_counts, scales): (&[usize], &[usize], _) = if smoke {
        (&[100, 500], &[1, 2], vec![("smoke", tier_profile(500))])
    } else {
        (
            &FULL_TIERS,
            &FULL_THREADS_GRID,
            vec![
                ("city", StandingMixProfile::from_scale(&Scale::city())),
                ("metro", StandingMixProfile::metro()),
            ],
        )
    };
    let group = |grid, scale: &str, profile: &StandingMixProfile, engines: &[Engine]| Group {
        grid,
        scale: scale.to_string(),
        profile: profile.clone(),
        engines: engines.to_vec(),
        warmup,
        measured,
    };
    let mut groups = Vec::new();
    for (points, aggregates, monitors) in PAPER_INTENSITIES {
        let mut profile = tier_profile(80);
        profile.arena = Rect::with_size(40.0, 40.0);
        profile.points_per_slot = points;
        profile.aggregates_mean = aggregates;
        profile.location_monitors = monitors;
        profile.region_monitors = 0;
        let scale = format!("{points}p_{aggregates}a_{monitors}m");
        let engines = [Engine::Plain {
            threads: 0,
            index: true,
        }];
        groups.push(Group {
            warmup: PAPER_WARMUP_SLOTS,
            ..group(Grid::Paper, &scale, &profile, &engines)
        });
    }
    for &sensors in tiers {
        let engines = [false, true].map(|index| Engine::Plain { threads: 0, index });
        let (scale, profile) = (sensors.to_string(), tier_profile(sensors));
        groups.push(group(Grid::Scaling, &scale, &profile, &engines));
    }
    for (name, profile) in &scales {
        let engines: Vec<Engine> = thread_counts
            .iter()
            .map(|&threads| Engine::Plain {
                threads,
                index: true,
            })
            .collect();
        groups.push(group(Grid::Threads, name, profile, &engines));
    }
    for (name, profile) in &scales {
        let engines = FULL_SHARDS_GRID.map(|g| Engine::Cluster { g });
        groups.push(group(Grid::Shards, name, profile, &engines));
    }
    for (name, profile) in &scales {
        let mut profile = profile.clone();
        if profile.burst_period == 0 {
            profile.burst_period = STREAMING_BURST_PERIOD;
            profile.burst_factor = STREAMING_BURST_FACTOR;
        }
        let engines = [false, true].map(|online| Engine::Stream { online });
        groups.push(group(Grid::Streaming, name, &profile, &engines));
    }
    // The solver grid runs at the first scale only (city in full mode).
    let (name, profile) = &scales[0];
    let engines = SOLVER_SCHEDULERS.map(Engine::Scheduler);
    groups.push(group(Grid::Solver, name, profile, &engines));
    groups
}

/// What one engine of a group did over the group's slots.
#[derive(Default)]
struct Run {
    /// Time inside `step` / `step_streaming`, measured slots only.
    times: Vec<Duration>,
    /// Every slot's welfare, warm-up included.
    welfare: Vec<f64>,
    /// Breakdowns summed over the measured slots.
    breakdown: MixBreakdown,
    /// Decision latencies absorbed over the measured slots.
    stats: StreamStats,
}

impl Run {
    /// Median time of one measured step, in milliseconds.
    fn ms(&self) -> f64 {
        let mut times = self.times.clone();
        times.sort();
        times[times.len() / 2].as_secs_f64() * 1e3
    }

    fn total_welfare(&self) -> f64 {
        self.welfare.iter().sum()
    }
}

/// Steps every engine of `group` once per slot, rotating which goes
/// first. Each engine draws its workload from its own equally-seeded
/// RNG; the generator's draws depend only on the profile, the slot and
/// the engine's live monitor counts, so the per-slot assertion that all
/// engines hold the same counts guarantees they all see the identical
/// workload.
fn measure(group: &Group, ctx: &Arc<MonitoringContext>, kernel: &SquaredExponential) -> Vec<Run> {
    let profile = &group.profile;
    let mut engines: Vec<Box<dyn SlotEngine>> = group
        .engines
        .iter()
        .map(|e| e.build(profile.arena))
        .collect();
    let mut rngs = vec![StdRng::seed_from_u64(SEED); engines.len()];
    let mut runs: Vec<Run> = engines.iter().map(|_| Run::default()).collect();
    let monitors = |e: &dyn SlotEngine| (e.location_monitor_count(), e.region_monitor_count());
    for slot in 0..group.warmup + group.measured {
        let (locations, regions) = monitors(engines[0].as_ref());
        assert!(
            engines
                .iter()
                .all(|e| monitors(e.as_ref()) == (locations, regions)),
            "the {} {} engines hold different monitor populations at slot {slot}",
            group.grid.name(),
            group.scale,
        );
        for k in 0..engines.len() {
            let i = (slot + k) % engines.len();
            let (engine, rng) = (engines[i].as_mut(), &mut rngs[i]);
            let (report, elapsed) = if let Engine::Stream { .. } = group.engines[i] {
                let tps = STREAMING_TICKS_PER_SLOT;
                let events = profile.slot_events(rng, slot, tps, locations, regions, ctx, kernel);
                let start = Instant::now();
                (engine.step_streaming(slot, &events), start.elapsed())
            } else {
                profile.submit_slot(rng, slot, engine, ctx, kernel);
                let sensors = profile.sensors(rng);
                let start = Instant::now();
                (engine.step(slot, &sensors), start.elapsed())
            };
            engine.clear_retired();
            let run = &mut runs[i];
            run.welfare.push(report.welfare);
            if slot >= group.warmup {
                run.times.push(elapsed);
                run.breakdown.absorb(&report.breakdown);
                if let Some(stats) = &report.streaming {
                    run.stats.absorb(stats);
                }
            }
        }
    }
    runs
}

/// A row's `(key, JSON value)` fields, in the schema's order.
type Fields = Vec<(&'static str, String)>;

fn json_object(fields: &Fields) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{ {} }}", body.join(", "))
}

/// The `ps_cluster` exactness contract, checked explicitly: a workload
/// whose every query support fits its home tile must be answered
/// identically (per-sensor receipts bit for bit, welfare up to summation
/// order) by the `g × g` federation and the plain engine.
fn tile_local_identity(g: usize) -> bool {
    let arena = Rect::with_size(100.0, 100.0);
    let quality = QualityModel::new(5.0);
    let tiles = TileGrid::new(arena, g);
    let mut sensors: Vec<SensorSnapshot> = Vec::new();
    let mut specs: Vec<PointSpec> = Vec::new();
    for tile in 0..tiles.len() {
        let r = tiles.tile_rect(tile);
        for (i, &(fx, fy)) in [(0.3, 0.3), (0.7, 0.4), (0.4, 0.7), (0.65, 0.65)]
            .iter()
            .enumerate()
        {
            let loc = Point::new(r.min_x + fx * r.width(), r.min_y + fy * r.height());
            sensors.push(SensorSnapshot {
                id: sensors.len(),
                loc,
                cost: 8.0 + i as f64,
                trust: 1.0,
                inaccuracy: 0.0,
            });
            // Two co-located low-budget queries per sensor: they only
            // succeed by sharing, exercising the payment split.
            for _ in 0..2 {
                specs.push(PointSpec {
                    loc,
                    budget: 9.0,
                    theta_min: 0.2,
                });
            }
        }
    }
    // The workload must satisfy the exactness precondition it claims to
    // exercise: every query support inside its home tile.
    for spec in &specs {
        let support = ps_core::valuation::SpatialSupport::Disk {
            center: spec.loc,
            radius: 5.0,
        };
        assert!(
            support.fits_within(&tiles.tile_rect(tiles.tile_of(spec.loc))),
            "tile-local workload generator leaked a cross-tile support"
        );
    }
    // Per slot: welfare, sorted selections, and every sensor's receipt
    // bits — so a first-slot-only or money-shuffling regression cannot
    // hide behind a later slot or a preserved total.
    let run = |engine: &mut dyn SlotEngine| -> Vec<(f64, Vec<usize>, Vec<u64>)> {
        (0..2)
            .map(|t| {
                for spec in &specs {
                    engine.submit_point(*spec);
                }
                let report = engine.step(t, &sensors);
                let mut used = report.sensors_used.clone();
                used.sort_unstable();
                let receipts: Vec<u64> = sensors
                    .iter()
                    .map(|s| report.ledger.sensor_receipt(s.id).to_bits())
                    .collect();
                (report.welfare, used, receipts)
            })
            .collect()
    };
    let mut plain = AggregatorBuilder::new(quality).build();
    let plain_slots = run(&mut plain);
    let mut cluster = ClusterBuilder::new(quality, arena, g).build();
    let cluster_slots = run(&mut cluster);
    plain_slots.iter().zip(&cluster_slots).all(
        |((w1, used1, receipts1), (wg, usedg, receiptsg))| {
            (w1 - wg).abs() <= 1e-9 * w1.abs().max(1.0) && used1 == usedg && receipts1 == receiptsg
        },
    )
}

/// Renders engine `e`'s row of `group`, aborting the bench when the row
/// breaks its grid's contract. Returns the fields and whether the row
/// goes into the JSON file: the paper canary and the references of the
/// scaling and streaming grids (folded into their partners' rows) are
/// printed only.
fn row(group: &Group, runs: &[Run], e: usize) -> (Fields, bool) {
    let (run, reference) = (&runs[e], &runs[0]);
    let (ms, scale, profile) = (run.ms(), &group.scale, &group.profile);
    let sensors = profile.sensors;
    // The scaling tiers are told apart by their sensor count alone.
    let mut fields: Fields = Vec::new();
    if group.grid != Grid::Scaling {
        fields.push(("scale", format!("\"{scale}\"")));
    }
    fields.push(("sensors", sensors.to_string()));
    fields.push(("standing_queries", profile.standing_queries().to_string()));
    let fixed = |x: f64, digits: usize| format!("{x:.digits$}");
    // Bit-exact: neither the index nor the worker count may change a
    // single selection, warm-up slots included.
    let identical = run.welfare == reference.welfare;
    match (group.grid, group.engines[e]) {
        (Grid::Paper | Grid::Scaling | Grid::Streaming, _) if e == 0 => {
            fields.push(("ms_per_slot", fixed(ms, 3)));
            return (fields, false);
        }
        (Grid::Scaling, _) => {
            assert!(
                identical,
                "indexed and brute-force slots diverged at {sensors} sensors"
            );
            let brute_ms = reference.ms();
            fields.extend([
                ("indexed_ms_per_slot", fixed(ms, 3)),
                ("brute_force_ms_per_slot", fixed(brute_ms, 3)),
                ("speedup", fixed(brute_ms / ms, 2)),
                ("identical_selections", identical.to_string()),
            ]);
        }
        (Grid::Threads, Engine::Plain { threads, .. }) => {
            assert!(
                identical,
                "threads={threads} diverged from threads=1 on the {scale} scenario"
            );
            fields.extend([
                ("threads", threads.to_string()),
                ("ms_per_slot", fixed(ms, 3)),
                ("speedup_vs_1_thread", fixed(reference.ms() / ms, 2)),
                ("identical_to_1_thread", identical.to_string()),
            ]);
        }
        (Grid::Shards, Engine::Cluster { g }) => {
            let tile_local = g == 1 || tile_local_identity(g);
            assert!(
                tile_local,
                "tile-local workloads diverged from the plain engine at grid {g}x{g}"
            );
            // What the partitioned greedy loses (or gains, when negative)
            // to locally-optimal choices on cross-tile queries.
            let w1 = reference.total_welfare();
            let gap = (w1 - run.total_welfare()) / w1;
            fields.extend([
                ("grid", g.to_string()),
                ("shards", (g * g).to_string()),
                ("ms_per_slot", fixed(ms, 3)),
                ("welfare_gap_vs_1shard", fixed(gap, 4)),
                ("tile_local_identical", tile_local.to_string()),
            ]);
        }
        (Grid::Streaming, _) => {
            let stats = &run.stats;
            let p99 = stats.p99().unwrap_or(0);
            assert!(
                p99 <= STREAMING_TICKS_PER_SLOT,
                "no decision can wait past the slot boundary on the {scale} scenario"
            );
            // What arrival-time matching gives up to boundary-time Alg5
            // (negative when the online auction wins).
            let batch = reference.total_welfare();
            let gap = if batch.abs() > f64::EPSILON {
                (batch - run.total_welfare()) / batch.abs()
            } else {
                0.0
            };
            let matched =
                stats.matched_at_arrival as f64 / stats.decision_ticks.len().max(1) as f64;
            fields.extend([
                ("ms_per_slot", fixed(ms, 3)),
                ("p50_decision_ticks", stats.p50().unwrap_or(0).to_string()),
                ("p99_decision_ticks", p99.to_string()),
                ("matched_at_arrival_fraction", fixed(matched, 4)),
                ("welfare_gap_vs_batch_alg5", fixed(gap, 4)),
            ]);
        }
        (Grid::Solver, Engine::Scheduler(name)) => {
            // Every row must carry a real certificate: bound-known slots
            // present, welfare within its own bound, gap a valid ratio.
            let b = &run.breakdown;
            let gap = b.optimality_gap().unwrap_or(0.0);
            assert!(
                b.bound_known_slots > 0,
                "{name} produced no LP-bounded slots on the {scale} scenario"
            );
            assert!(
                b.point_sched_welfare <= b.point_lp_bound + 1e-6,
                "{name} welfare exceeded its LP bound on the {scale} scenario"
            );
            assert!(
                (0.0..=1.0).contains(&gap),
                "{name} reported a nonsensical optimality gap {gap} on {scale}"
            );
            fields.extend([
                ("scheduler", format!("\"{name}\"")),
                ("ms_per_slot", fixed(ms, 3)),
                ("point_welfare", fixed(b.point_sched_welfare, 3)),
                ("lp_bound", fixed(b.point_lp_bound, 3)),
                ("optimality_gap", fixed(gap, 4)),
                ("limited_slots", b.limited_slots.to_string()),
            ]);
        }
        (grid, engine) => unreachable!("{engine:?} in the {} grid", grid.name()),
    }
    (fields, true)
}

/// The schema-v5 file. The `config` object describes the *full-run*
/// workload constants and is emitted identically in smoke and full mode:
/// CI regenerates the file in smoke mode and fails when the committed
/// config no longer matches the bench source (a stale file).
fn bench_file(mode: &str, rows: &[(Grid, Fields)]) -> String {
    let mut sections = String::new();
    for grid in Grid::SECTIONS {
        let objects: Vec<String> = rows
            .iter()
            .filter(|(g, _)| *g == grid)
            .map(|(_, fields)| format!("    {}", json_object(fields)))
            .collect();
        let section = grid.section();
        sections += &format!("  \"{section}\": [\n{}\n  ],\n", objects.join(",\n"));
    }
    // Hardware context matters for the threads grid: a speedup of ~1.0
    // on a 1-core runner is the expected reading, not a regression.
    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Tiers ascend, so the last scaling row is the largest tier.
    let speedup_at_max_tier = rows
        .iter()
        .rev()
        .find(|(g, _)| *g == Grid::Scaling)
        .and_then(|(_, fields)| fields.iter().find(|(k, _)| *k == "speedup"))
        .map(|(_, v)| v.as_str())
        .expect("a scaling tier");
    format!(
        r#"{{
  "bench": "slot_engine",
  "schema_version": 5,
  "mode": "{mode}",
  "command": "cargo bench -p ps-bench --bench slot_engine",
  "config": {{
    "seed": {SEED},
    "query_factor": {QUERY_FACTOR},
    "aggregates_mean": {AGGREGATES_MEAN},
    "location_monitors": {LOCATION_MONITORS},
    "region_monitors": {REGION_MONITORS},
    "full_tiers": {FULL_TIERS:?},
    "full_measured_slots": {FULL_MEASURED_SLOTS},
    "full_warmup_slots": {FULL_WARMUP_SLOTS},
    "full_threads_grid_scales": ["city", "metro"],
    "full_threads_grid": {FULL_THREADS_GRID:?},
    "full_shards_grid_scales": ["city", "metro"],
    "full_shards_grid": {FULL_SHARDS_GRID:?},
    "full_streaming_scales": ["city", "metro"],
    "full_solver_scales": ["city"],
    "solver_schedulers": {SOLVER_SCHEDULERS:?},
    "streaming_ticks_per_slot": {STREAMING_TICKS_PER_SLOT},
    "streaming_burst_period": {STREAMING_BURST_PERIOD},
    "streaming_burst_factor": {STREAMING_BURST_FACTOR}
  }},
{sections}  "host_parallelism": {host_parallelism},
  "speedup_at_max_tier": {speedup_at_max_tier}
}}
"#
    )
}

/// Full runs default to the committed repo-root file; smoke runs default
/// to a scratch path so reproducing the CI step locally can never
/// clobber the committed full-run numbers with smoke data. Either can be
/// overridden with `BENCH_JSON_PATH`.
fn json_path(mode: &str) -> std::path::PathBuf {
    match std::env::var("BENCH_JSON_PATH") {
        Ok(p) => std::path::PathBuf::from(p),
        Err(_) if mode == "smoke" => std::env::temp_dir().join("BENCH_slot_engine.smoke.json"),
        Err(_) => std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("BENCH_slot_engine.json"),
    }
}

fn main() {
    let smoke = std::env::var("SLOT_ENGINE_SMOKE").is_ok_and(|v| v == "1");
    let mode = if smoke { "smoke" } else { "full" };
    let ctx = monitoring_ctx();
    let kernel = SquaredExponential::new(2.0, 2.0);
    let mut rows = Vec::new();
    for group in groups(smoke) {
        let runs = measure(&group, &ctx, &kernel);
        for (e, engine) in group.engines.iter().enumerate() {
            let (fields, written) = row(&group, &runs, e);
            println!(
                "slot_engine_{}/{} {engine:?}  {}",
                group.grid.name(),
                group.scale,
                json_object(&fields)
            );
            if written {
                rows.push((group.grid, fields));
            }
        }
    }
    let path = json_path(mode);
    std::fs::write(&path, bench_file(mode, &rows)).expect("write BENCH_slot_engine.json");
    println!("wrote {}", path.display());
}
