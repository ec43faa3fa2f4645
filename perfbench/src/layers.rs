//! The traced run: the same campaign, with spans around the calls into
//! each layer and work counters at the same boundaries.
//!
//! Inside the slot span only the benchmark's own calls are timed:
//! `ps_intake` admission, the engine step, and (on `city_exact`) the
//! engine's calls into its point scheduler through [`TimedScheduler`].
//! Everything else is replayed *after* the slot span closes, as root
//! spans tagged with the same slot, so traced and untraced slot times
//! stay comparable:
//!
//! * `ps_geo.index.build` — `SensorIndex::build` over each engine's
//!   announcement (each shard's routed sensors on `metro_cluster`);
//! * `ps_core.region.plan` — `RegionMonitor::plan_indexed` over the live
//!   region monitors, with Eq. 18 weighted costs;
//! * `ps_core.step` on `metro_cluster` — each shard's routed stream
//!   stepped through a replica `Aggregator` built like the cluster's
//!   shard engines (checked bit for bit against the cluster's welfare);
//! * `ps_core.online.shadow` on `city_online` — a batch Alg. 5 engine
//!   stepped on the identical admitted stream.
//!
//! [`TimedScheduler`]: crate::trace::TimedScheduler

use crate::campaign::{
    quality, query_shard, Campaign, Engine, SlotRun, Workload, CLUSTER_GRID, ENGINE_THREADS,
    SHARD_THREADS, WARMUP_SLOTS,
};
use crate::trace::{AllocLog, Tracer};
use ps_cluster::{ShardedAggregator, SHARD_ID_BLOCK};
use ps_core::aggregator::{Aggregator, AggregatorBuilder, MixBreakdown, MixStrategy};
use ps_core::exec::Threads;
use ps_core::model::{QueryId, SensorSnapshot, Slot};
use ps_core::monitor::region::{sharing_weight, RegionMonitor};
use ps_core::streaming::{ArrivalEvent, ArrivalPayload};
use ps_geo::{Point, SensorIndex};
use ps_solver::SolveStatus;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Replica engines stepped after the slot span closes.
enum Shadow {
    /// One `Aggregator` per cluster shard, configured like the cluster's.
    Shards(Vec<Aggregator<'static>>),
    /// Batch Alg. 5 on the online engine's admitted stream.
    Batch(Box<Aggregator<'static>>),
    None,
}

impl Shadow {
    fn for_workload(w: Workload) -> Self {
        match w {
            Workload::MetroCluster => Shadow::Shards(
                (0..CLUSTER_GRID * CLUSTER_GRID)
                    .map(|k| {
                        AggregatorBuilder::new(quality())
                            .threads(SHARD_THREADS)
                            .next_query_id(k as u64 * SHARD_ID_BLOCK)
                            .build()
                    })
                    .collect(),
            ),
            Workload::CityOnline => Shadow::Batch(Box::new(
                AggregatorBuilder::new(quality())
                    .strategy(MixStrategy::Alg5)
                    .threads(ENGINE_THREADS)
                    .build(),
            )),
            Workload::CityExact => Shadow::None,
        }
    }
}

/// Work counters of one measured slot.
#[derive(Debug, Default, Clone)]
struct SlotCounts {
    events: usize,
    backlog: usize,
    query_events: usize,
    query_outcomes: usize,
    admitted_queries: usize,
    deferred: usize,
    rejected: usize,
    sensors: usize,
    routed_sensors: usize,
    shard_skew: f64,
    duplicates: usize,
    cluster_self_ms: f64,
    sensors_bought: usize,
    answered: usize,
    point_total: usize,
    matched_at_arrival: usize,
    alloc_queries: usize,
    limited_solves: usize,
    index_points: usize,
    region_calls: usize,
    planned_queries: usize,
    user_ticks: usize,
    kernel_ticks: usize,
}

/// Everything the traced pass measured.
pub struct TracedPass {
    pub tracer: Tracer,
    counts: Vec<SlotCounts>,
    breakdown: MixBreakdown,
    pub slot_ms: Vec<f64>,
    pub input_fingerprint: u64,
    pub output_fingerprint: u64,
}

/// Runs `w` traced for [`WARMUP_SLOTS`] + `measured` slots.
pub fn run(w: Workload, seed: u64, measured: usize) -> Result<TracedPass, String> {
    let alloc_log: AllocLog = Arc::new(Mutex::new(Vec::new()));
    let mut campaign = Campaign::new(w, seed, Some(alloc_log.clone()));
    let mut shadow = Shadow::for_workload(w);
    let mut pass = TracedPass {
        tracer: Tracer::new(),
        counts: Vec::with_capacity(measured),
        breakdown: MixBreakdown::default(),
        slot_ms: Vec::with_capacity(measured),
        input_fingerprint: 0,
        output_fingerprint: 0,
    };
    for _ in 0..WARMUP_SLOTS + measured {
        let input = campaign.generate();
        let run = campaign.run_slot(input)?;
        let counts = trace_slot(&mut pass.tracer, &campaign, &mut shadow, &alloc_log, &run)?;
        if run.t >= WARMUP_SLOTS {
            pass.slot_ms.push(run.ms());
            pass.breakdown.absorb(&run.report.breakdown);
            pass.counts.push(counts);
        }
    }
    pass.input_fingerprint = campaign.input_fingerprint();
    pass.output_fingerprint = campaign.output_fingerprint();
    Ok(pass)
}

/// Records one slot's spans, runs its replays, and counts its work.
fn trace_slot(
    tracer: &mut Tracer,
    campaign: &Campaign,
    shadow: &mut Shadow,
    alloc_log: &AllocLog,
    run: &SlotRun,
) -> Result<SlotCounts, String> {
    let t = run.t;
    let report = &run.report;
    let slot = tracer.record("slot", t, run.start, run.end, None);
    tracer.record("ps_intake.admit", t, run.start, run.admitted_at, Some(slot));
    let step_name = match campaign.engine {
        Engine::Cluster(_) => "ps_cluster.step",
        Engine::Single(_) => "ps_core.step",
    };
    let step = tracer.record(step_name, t, run.admitted_at, run.end, Some(slot));

    let mut c = SlotCounts {
        events: run.events,
        backlog: run.backlog,
        query_events: run.query_events,
        admitted_queries: run.admitted_queries,
        deferred: run.batch.deferred(),
        rejected: run.batch.rejected(),
        sensors_bought: report.sensors_used.len(),
        answered: report.breakdown.point_satisfied
            + report.breakdown.aggregate_answered
            + report.breakdown.monitor_samples,
        point_total: report.breakdown.point_total,
        matched_at_arrival: report
            .streaming
            .as_ref()
            .map_or(0, |s| s.matched_at_arrival),
        user_ticks: run.cpu_ticks.0 as usize,
        kernel_ticks: run.cpu_ticks.1 as usize,
        ..SlotCounts::default()
    };
    c.query_outcomes = c.admitted_queries + c.deferred + c.rejected;
    for call in alloc_log
        .lock()
        .expect("no scheduler call panicked while holding the log")
        .drain(..)
    {
        tracer.record(
            "ps_core.alloc.schedule",
            t,
            call.start,
            call.end,
            Some(step),
        );
        c.alloc_queries += call.queries;
        c.limited_solves += usize::from(call.status != Some(SolveStatus::Optimal));
    }

    // Replays: root spans after the slot span closed.
    match (&campaign.engine, shadow) {
        (Engine::Cluster(cluster), Shadow::Shards(shards)) => {
            replay_cluster(tracer, t, cluster, shards, run, &mut c)?;
        }
        (Engine::Single(engine), shadow) => {
            if let Shadow::Batch(batch) = shadow {
                let start = Instant::now();
                black_box(batch.step_streaming(t, &run.batch.admitted));
                tracer.record("ps_core.online.shadow", t, start, Instant::now(), None);
                batch.clear_retired();
            }
            let sensors = sensors_of(&run.batch.admitted);
            c.sensors = sensors.len();
            replay_index_and_regions(tracer, t, &sensors, engine.region_monitors(), &mut c);
        }
        (Engine::Cluster(_), _) => unreachable!("the cluster workload always has shard replicas"),
    }
    Ok(c)
}

/// Routes the admitted stream exactly as `ShardedAggregator::step_streaming`
/// does, steps every shard replica on its sub-stream, and replays index
/// builds and region planning per shard.
fn replay_cluster(
    tracer: &mut Tracer,
    t: Slot,
    cluster: &ShardedAggregator<'static>,
    shards: &mut [Aggregator<'static>],
    run: &SlotRun,
    c: &mut SlotCounts,
) -> Result<(), String> {
    let n = shards.len();
    let mut local: Vec<Vec<ArrivalEvent>> = vec![Vec::new(); n];
    let mut load = vec![0usize; n];
    for ev in &run.batch.admitted {
        if let ArrivalPayload::Sensor(s) = &ev.payload {
            c.sensors += 1;
            for k in cluster.grid().tiles_seeing(s.loc, cluster.halo()) {
                local[k].push(ev.clone());
                load[k] += 1;
                c.routed_sensors += 1;
            }
        } else {
            let owner = query_shard(cluster, &ev.payload).expect("a query event");
            local[owner].push(ev.clone());
            load[owner] += 1;
        }
    }
    let mean = load.iter().sum::<usize>() as f64 / n as f64;
    c.shard_skew = load.iter().copied().max().unwrap_or(0) as f64 / mean.max(1.0);

    let mut shard_ms = vec![0.0; n];
    let mut welfare = 0.0;
    for (k, shard) in shards.iter_mut().enumerate() {
        let start = Instant::now();
        let report = shard.step_streaming(t, &local[k]);
        let end = Instant::now();
        tracer.record("ps_core.step", t, start, end, None);
        shard_ms[k] = (end - start).as_secs_f64() * 1e3;
        welfare += report.welfare;
        shard.clear_retired();
    }
    let settlement = cluster.last_settlement();
    welfare += settlement.cost_restored;
    if welfare.to_bits() != run.report.welfare.to_bits() {
        return Err(format!(
            "slot {t}: shard replicas give welfare {welfare}, the cluster {}",
            run.report.welfare
        ));
    }
    c.duplicates = settlement.duplicates;
    // The cluster steps contiguous shard ranges on its workers; the
    // slowest worker's shards are the step's critical path.
    let critical = Threads::new(ENGINE_THREADS.min(n))
        .shard_ranges(n)
        .into_iter()
        .map(|r| r.map(|k| shard_ms[k]).sum::<f64>())
        .fold(0.0, f64::max);
    c.cluster_self_ms = (run.end - run.admitted_at).as_secs_f64() * 1e3 - critical;

    for (k, events) in local.iter().enumerate() {
        let sensors = sensors_of(events);
        replay_index_and_regions(
            tracer,
            t,
            &sensors,
            cluster.shards()[k].region_monitors(),
            c,
        );
    }
    Ok(())
}

fn sensors_of(events: &[ArrivalEvent]) -> Vec<SensorSnapshot> {
    events
        .iter()
        .filter_map(|ev| match &ev.payload {
            ArrivalPayload::Sensor(s) => Some(*s),
            _ => None,
        })
        .collect()
}

/// Replays one engine's index build and its region monitors' planning.
fn replay_index_and_regions(
    tracer: &mut Tracer,
    t: Slot,
    sensors: &[SensorSnapshot],
    monitors: &[RegionMonitor],
    c: &mut SlotCounts,
) {
    let positions: Vec<Point> = sensors.iter().map(|s| s.loc).collect();
    let start = Instant::now();
    let index = SensorIndex::build(&positions);
    tracer.record("ps_geo.index.build", t, start, Instant::now(), None);
    c.index_points += positions.len();

    // Eq. 18 weighted costs, as the engine computes them (untimed).
    let mut sharing = vec![0usize; sensors.len()];
    let mut buf = Vec::new();
    for m in monitors.iter().filter(|m| m.is_active(t)) {
        index.query_rect_into(&m.region, &mut buf);
        for &si in &buf {
            sharing[si] += 1;
        }
    }
    let weighted: Vec<f64> = sensors
        .iter()
        .zip(&sharing)
        .map(|(s, &k)| s.cost * sharing_weight(k))
        .collect();

    let start = Instant::now();
    for (mi, m) in monitors.iter().enumerate() {
        let mut next = 0u64;
        let mut make_id = || {
            next += 1;
            QueryId(next)
        };
        let plan = m.plan_indexed(t, sensors, &weighted, mi, &mut make_id, Some(&index));
        c.planned_queries += plan.queries.len();
        black_box(plan);
    }
    tracer.record("ps_core.region.plan", t, start, Instant::now(), None);
    c.region_calls += monitors.len();
}

impl TracedPass {
    /// Query submissions and admission rejections over the measured
    /// slots.
    pub fn submissions(&self) -> (usize, usize) {
        let sum = |f: fn(&SlotCounts) -> usize| self.counts.iter().map(f).sum();
        (sum(|c| c.query_events), sum(|c| c.rejected))
    }

    /// The per-layer metrics, in `BENCHMARK.json` order, as
    /// `(name, unit, value)`.
    pub fn metrics(&self) -> Vec<(&'static str, &'static str, f64)> {
        let per_slot = self.tracer.per_slot();
        let slots: Vec<Slot> = (WARMUP_SLOTS..WARMUP_SLOTS + self.counts.len()).collect();
        let totals =
            |name: &'static str, t: Slot| per_slot.get(&(t, name)).copied().unwrap_or_default();
        let ms_p50 = |name| median(slots.iter().map(|&t| totals(name, t).ms).collect());
        let sum_ms = |name| slots.iter().map(|&t| totals(name, t).ms).sum::<f64>();
        let calls = |name| {
            slots.iter().map(|&t| totals(name, t).calls).sum::<usize>() as f64 / slots.len() as f64
        };
        let sum = |f: fn(&SlotCounts) -> usize| self.counts.iter().map(f).sum::<usize>() as f64;
        let mean = |f: fn(&SlotCounts) -> usize| sum(f) / self.counts.len() as f64;
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let cluster = calls("ps_cluster.step") > 0.0;
        let online = calls("ps_core.online.shadow") > 0.0;
        // The online auction's share of the step: its excess over batch
        // Alg. 5 on the identical admitted stream.
        let excess_at = |t: Slot| {
            if online {
                totals("ps_core.step", t).ms - totals("ps_core.online.shadow", t).ms
            } else {
                0.0
            }
        };
        let cluster_mean = |f: fn(&SlotCounts) -> f64| {
            self.counts.iter().map(f).sum::<f64>() / self.counts.len() as f64
        };

        vec![
            (
                "process.kernel_share",
                "ratio",
                ratio(
                    sum(|c| c.kernel_ticks),
                    sum(|c| c.user_ticks + c.kernel_ticks),
                ),
            ),
            ("ps_intake.admit_ms", "ms", ms_p50("ps_intake.admit")),
            ("ps_intake.events", "count", mean(|c| c.events)),
            ("ps_intake.backlog", "count", mean(|c| c.backlog)),
            (
                "ps_intake.admitted_ratio",
                "ratio",
                ratio(sum(|c| c.admitted_queries), sum(|c| c.query_outcomes)),
            ),
            (
                "ps_intake.deferred_fraction",
                "ratio",
                ratio(sum(|c| c.deferred), sum(|c| c.query_events)),
            ),
            (
                "ps_intake.rejected_fraction",
                "ratio",
                ratio(sum(|c| c.rejected), sum(|c| c.query_events)),
            ),
            ("ps_cluster.step_ms", "ms", ms_p50("ps_cluster.step")),
            ("ps_cluster.calls", "count", calls("ps_cluster.step")),
            (
                "ps_cluster.self_ms",
                "ms",
                if cluster {
                    median(self.counts.iter().map(|c| c.cluster_self_ms).collect())
                } else {
                    0.0
                },
            ),
            (
                "ps_cluster.replication",
                "ratio",
                if cluster {
                    ratio(sum(|c| c.routed_sensors), sum(|c| c.sensors))
                } else {
                    0.0
                },
            ),
            (
                "ps_cluster.shard_skew",
                "ratio",
                cluster_mean(|c| c.shard_skew),
            ),
            (
                "ps_cluster.halo_duplicates",
                "ratio",
                ratio(sum(|c| c.duplicates), sum(|c| c.sensors_bought)),
            ),
            ("ps_core.step_ms", "ms", ms_p50("ps_core.step")),
            (
                "ps_core.self_ms",
                "ms",
                median(
                    slots
                        .iter()
                        .map(|&t| totals("ps_core.step", t).self_ms - excess_at(t))
                        .collect(),
                ),
            ),
            ("ps_core.calls", "count", calls("ps_core.step")),
            (
                "ps_core.sensors_bought",
                "count",
                mean(|c| c.sensors_bought),
            ),
            (
                "ps_core.queries_per_sensor",
                "ratio",
                ratio(sum(|c| c.answered), sum(|c| c.sensors_bought)),
            ),
            (
                "ps_core.online.excess_ms",
                "ms",
                median(slots.iter().map(|&t| excess_at(t)).collect()),
            ),
            (
                "ps_core.online.calls",
                "count",
                calls("ps_core.online.shadow"),
            ),
            (
                "ps_core.online.matched_fraction",
                "ratio",
                if online {
                    ratio(sum(|c| c.matched_at_arrival), sum(|c| c.point_total))
                } else {
                    0.0
                },
            ),
            (
                "ps_core.alloc.schedule_ms",
                "ms",
                ms_p50("ps_core.alloc.schedule"),
            ),
            (
                "ps_core.alloc.calls",
                "count",
                calls("ps_core.alloc.schedule"),
            ),
            (
                "ps_core.alloc.share",
                "ratio",
                ratio(sum_ms("ps_core.alloc.schedule"), sum_ms("ps_core.step")),
            ),
            ("ps_core.alloc.queries", "count", mean(|c| c.alloc_queries)),
            (
                "ps_core.alloc.limited_solves",
                "count",
                sum(|c| c.limited_solves),
            ),
            (
                "ps_solver.optimality_gap",
                "ratio",
                self.breakdown.optimality_gap().unwrap_or(0.0),
            ),
            ("ps_geo.index.build_ms", "ms", ms_p50("ps_geo.index.build")),
            ("ps_geo.index.calls", "count", calls("ps_geo.index.build")),
            ("ps_geo.index.points", "count", mean(|c| c.index_points)),
            (
                "ps_core.region.plan_ms",
                "ms",
                ms_p50("ps_core.region.plan"),
            ),
            ("ps_core.region.calls", "count", mean(|c| c.region_calls)),
            (
                "ps_core.region.planned_queries",
                "count",
                mean(|c| c.planned_queries),
            ),
        ]
    }
}

/// Median (mean of the two middle values for an even count).
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
