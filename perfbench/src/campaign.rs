//! The three campaign workloads and the closed slot loop that drives one
//! of them: generator → `ps_intake` admission → engine
//! `step_streaming` → settled `SlotReport`, followed by the per-slot
//! correctness gate.

use crate::trace::{AllocLog, TimedScheduler};
use ps_cluster::{ClusterBuilder, ShardedAggregator, SlotEngine};
use ps_core::aggregator::{
    Aggregator, AggregatorBuilder, MixStrategy, SlotReport, DEFAULT_TICKS_PER_SLOT,
};
use ps_core::alloc::optimal::OptimalScheduler;
use ps_core::model::Slot;
use ps_core::streaming::{ArrivalEvent, ArrivalPayload};
use ps_core::valuation::monitoring::MonitoringContext;
use ps_core::valuation::quality::QualityModel;
use ps_core::valuation::SetValuation;
use ps_core::valuation::SpatialSupport;
use ps_geo::{Point, Rect};
use ps_gp::kernel::SquaredExponential;
use ps_intake::{Admission, AdmissionBatch, AdmissionController, AdmissionPolicy, Ticket};
use ps_sim::config::Scale;
use ps_sim::workload::{test_monitoring_ctx, StandingMixProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const TICKS_PER_SLOT: u64 = DEFAULT_TICKS_PER_SLOT;
/// Worker threads of every engine (`nproc` = 2 on the reference host;
/// pinned, never auto-detected).
pub const ENGINE_THREADS: usize = 2;
/// Worker threads inside each `metro_cluster` shard engine.
pub const SHARD_THREADS: usize = 1;
/// `metro_cluster` tile grid side (2×2 = 4 shards).
pub const CLUSTER_GRID: usize = 2;
/// Warm-up slots before the first measured one: one full maximum
/// monitor lifetime (durations are uniform in 5..=20 slots), so no
/// monitor of the synchronised slot-0 cohort is still alive.
pub const WARMUP_SLOTS: usize = 21;
/// Slots whose generated events the input fingerprint covers.
pub const INPUT_HASH_SLOTS: usize = 32;
/// Fewest measured slots of an untraced run: `slot_ms_p90` needs at
/// least ten samples beyond it.
pub const MIN_MEASURED_SLOTS: usize = 100;
/// Measured slots per requested second (about the `metro_cluster` rate
/// on a 2-core host).
pub const SLOTS_PER_SECOND: usize = 5;
/// Admission deferrals allowed before a query is rejected (as in
/// `ps_sim::streaming::run`).
pub const MAX_DEFER_SLOTS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MetroCluster,
    CityOnline,
    CityExact,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::MetroCluster,
        Workload::CityOnline,
        Workload::CityExact,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MetroCluster => "metro_cluster",
            Workload::CityOnline => "city_online",
            Workload::CityExact => "city_exact",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn profile(self) -> StandingMixProfile {
        match self {
            Workload::MetroCluster => StandingMixProfile::metro(),
            Workload::CityOnline => {
                let mut p = StandingMixProfile::from_scale(&Scale::city());
                p.burst_period = 4;
                p.burst_factor = 1.5;
                p
            }
            Workload::CityExact => StandingMixProfile::from_scale(&Scale::city()),
        }
    }

    /// Input fingerprint of the default seed (see [`INPUT_HASH_SLOTS`]).
    /// The generator lives outside the benchmark, so a drift here means
    /// the workload itself changed.
    pub fn recorded_input_fingerprint(self) -> u64 {
        match self {
            Workload::MetroCluster => 0x812c_9858_8b5f_90d8,
            Workload::CityOnline => 0x5746_8b96_9c1f_6176,
            Workload::CityExact => 0xcb67_b0af_63c6_5075,
        }
    }
}

/// Measured slots for `--seconds`: a fixed rate rather than a clock, so
/// every host measures the same slots.
pub fn measured_slots(seconds: u64) -> usize {
    (seconds as usize * SLOTS_PER_SECOND).max(MIN_MEASURED_SLOTS)
}

pub enum Engine {
    Cluster(Box<ShardedAggregator<'static>>),
    Single(Box<Aggregator<'static>>),
}

impl Engine {
    fn slot_engine(&mut self) -> &mut dyn SlotEngine {
        match self {
            Engine::Cluster(c) => c.as_mut(),
            Engine::Single(a) => a.as_mut(),
        }
    }
}

pub fn quality() -> QualityModel {
    QualityModel::new(5.0)
}

/// Builds `w`'s engine. With `alloc_log`, `city_exact`'s scheduler is
/// wrapped in a [`TimedScheduler`] that records into it.
pub fn build_engine(w: Workload, arena: Rect, alloc_log: Option<AllocLog>) -> Engine {
    match w {
        Workload::MetroCluster => Engine::Cluster(Box::new(
            ClusterBuilder::new(quality(), arena, CLUSTER_GRID)
                .threads(ENGINE_THREADS)
                .shard_threads(SHARD_THREADS)
                .build(),
        )),
        Workload::CityOnline => Engine::Single(Box::new(
            AggregatorBuilder::new(quality())
                .strategy(MixStrategy::OnlineAuction)
                .threads(ENGINE_THREADS)
                .build(),
        )),
        Workload::CityExact => {
            let builder = AggregatorBuilder::new(quality()).threads(ENGINE_THREADS);
            let builder = match alloc_log {
                Some(log) => builder.scheduler(TimedScheduler::new(OptimalScheduler::new(), log)),
                None => builder.scheduler(OptimalScheduler::new()),
            };
            Engine::Single(Box::new(builder.build()))
        }
    }
}

/// FNV-1a, 64 bit: a hash whose value is fixed by its definition, so a
/// recorded fingerprint stays comparable across toolchains.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn point(&mut self, p: Point) {
        self.f64(p.x);
        self.f64(p.y);
    }

    fn rect(&mut self, r: &Rect) {
        for v in [r.min_x, r.min_y, r.max_x, r.max_y] {
            self.f64(v);
        }
    }

    pub fn get(self) -> u64 {
        self.0
    }
}

fn hash_event(h: &mut Fnv, ev: &ArrivalEvent) {
    h.u64(ev.tick);
    match &ev.payload {
        ArrivalPayload::Sensor(s) => {
            h.u64(0);
            h.u64(s.id as u64);
            h.point(s.loc);
            for v in [s.cost, s.trust, s.inaccuracy] {
                h.f64(v);
            }
        }
        ArrivalPayload::Point(p) => {
            h.u64(1);
            h.point(p.loc);
            h.f64(p.budget);
            h.f64(p.theta_min);
        }
        ArrivalPayload::Aggregate(a) => {
            h.u64(2);
            h.rect(&a.region);
            h.f64(a.budget);
            h.bytes(format!("{:?}", a.kind).as_bytes());
        }
        ArrivalPayload::LocationMonitor(m) => {
            h.u64(3);
            h.point(m.loc);
            h.u64(m.t1 as u64);
            h.u64(m.t2 as u64);
            h.f64(m.alpha);
            h.f64(m.theta_min);
            h.f64(m.valuation.budget());
            for &d in m.valuation.desired_times() {
                h.f64(d);
            }
        }
        ArrivalPayload::RegionMonitor(m) => {
            h.u64(4);
            h.u64(m.t1 as u64);
            h.u64(m.t2 as u64);
            h.f64(m.alpha);
            h.f64(m.theta_min);
            h.rect(m.valuation.region());
            h.f64(m.valuation.max_value());
        }
    }
}

/// A query submission the benchmark follows through admission, so its
/// decision latency counts from when it was submitted.
#[derive(Debug, Clone, Copy)]
struct Submission {
    ticket: Ticket,
    slot: Slot,
    tick: u64,
    /// Point or aggregate: the queries `StreamStats` gives a decision
    /// tick (monitors live across slots and get none).
    one_shot: bool,
}

/// One slot of generated input, plus what the gate needs to know
/// about it.
pub struct SlotInput {
    pub t: Slot,
    pub events: Vec<ArrivalEvent>,
    /// Announced cost by sensor id (ids are `0..sensors`).
    pub costs: Vec<f64>,
    /// `(position in events, tick, one-shot)` of every query event.
    queries: Vec<(usize, u64, bool)>,
}

/// What one slot of the loop produced.
pub struct SlotRun {
    pub t: Slot,
    /// Events entering `submit`.
    pub start: Instant,
    /// `admit_slot` returned.
    pub admitted_at: Instant,
    /// The `SlotReport` returned.
    pub end: Instant,
    pub report: SlotReport,
    pub batch: AdmissionBatch,
    /// Events submitted this slot.
    pub events: usize,
    /// Fresh query submissions this slot.
    pub query_events: usize,
    /// Query events in the admitted stream.
    pub admitted_queries: usize,
    /// `pending()` after `admit_slot`.
    pub backlog: usize,
    /// Process CPU time spent in user and kernel mode during the timed
    /// region, in clock ticks.
    pub cpu_ticks: (u64, u64),
    /// Per admitted point or aggregate query: ticks from its submission
    /// to the engine's decision — the engine's own decision ticks
    /// (`SlotReport::streaming`) plus, for a query that admission deferred,
    /// the slots it waited.
    pub latencies: Vec<u64>,
}

impl SlotRun {
    pub fn elapsed(&self) -> Duration {
        self.end - self.start
    }

    pub fn ms(&self) -> f64 {
        self.elapsed().as_secs_f64() * 1e3
    }
}

/// A workload's generator, admission controller and engine, stepped in a
/// closed loop: slot `t + 1` is generated only after slot `t`'s report.
pub struct Campaign {
    workload: Workload,
    profile: StandingMixProfile,
    rng: StdRng,
    ctx: Arc<MonitoringContext>,
    kernel: SquaredExponential,
    intake: AdmissionController,
    pub engine: Engine,
    /// `t2` of every generated monitor still alive. Top-ups follow these
    /// counts, not the engine's, so the inputs depend on the seed and the
    /// generator alone.
    location_expiry: Vec<Slot>,
    region_expiry: Vec<Slot>,
    next_slot: Slot,
    /// Events submitted so far: tickets are submission sequence numbers.
    submitted: u64,
    /// The controller's deferred queries, in its carry-over order.
    carried: Vec<Submission>,
    input_hash: Fnv,
    output_hash: Fnv,
    /// Time to build the engine and the admission controller.
    construction: Duration,
}

impl Campaign {
    pub fn new(workload: Workload, seed: u64, alloc_log: Option<AllocLog>) -> Self {
        let profile = workload.profile();
        let start = Instant::now();
        let engine = build_engine(workload, profile.arena, alloc_log);
        let intake = AdmissionController::new(AdmissionPolicy {
            max_queries_per_slot: profile.standing_queries(),
            max_budget_per_slot: f64::INFINITY,
            max_defer_slots: MAX_DEFER_SLOTS,
        });
        let construction = start.elapsed();
        Campaign {
            workload,
            profile,
            rng: StdRng::seed_from_u64(seed),
            ctx: test_monitoring_ctx(),
            kernel: SquaredExponential::new(2.0, 2.0),
            intake,
            engine,
            location_expiry: Vec::new(),
            region_expiry: Vec::new(),
            next_slot: 0,
            submitted: 0,
            carried: Vec::new(),
            input_hash: Fnv::new(),
            output_hash: Fnv::new(),
            construction,
        }
    }

    /// Generates the next slot's events (never timed).
    pub fn generate(&mut self) -> SlotInput {
        let t = self.next_slot;
        self.next_slot += 1;
        // A monitor stepped at slot `s` retires when `t2 <= s`.
        self.location_expiry.retain(|&t2| t2 >= t);
        self.region_expiry.retain(|&t2| t2 >= t);
        let events = self.profile.slot_events(
            &mut self.rng,
            t,
            TICKS_PER_SLOT,
            self.location_expiry.len(),
            self.region_expiry.len(),
            &self.ctx,
            &self.kernel,
        );
        let mut costs = vec![f64::NAN; self.profile.sensors];
        let mut queries = Vec::new();
        for (i, ev) in events.iter().enumerate() {
            let one_shot = match &ev.payload {
                ArrivalPayload::Sensor(s) => {
                    costs[s.id] = s.cost;
                    None
                }
                ArrivalPayload::LocationMonitor(m) => {
                    self.location_expiry.push(m.t2);
                    Some(false)
                }
                ArrivalPayload::RegionMonitor(m) => {
                    self.region_expiry.push(m.t2);
                    Some(false)
                }
                ArrivalPayload::Point(_) | ArrivalPayload::Aggregate(_) => Some(true),
            };
            if let Some(one_shot) = one_shot {
                queries.push((i, ev.tick, one_shot));
            }
            if t < INPUT_HASH_SLOTS {
                hash_event(&mut self.input_hash, ev);
            }
        }
        SlotInput {
            t,
            events,
            costs,
            queries,
        }
    }

    /// Runs one slot through admission, the engine and settlement (the
    /// timed region), then gates its report and folds it into the output
    /// fingerprint (untimed).
    pub fn run_slot(&mut self, input: SlotInput) -> Result<SlotRun, String> {
        let SlotInput {
            t,
            events,
            costs,
            queries,
        } = input;
        let n_events = events.len();
        let query_events = queries.len();

        let cpu_before = cpu_ticks();
        let start = Instant::now();
        for ev in events {
            self.intake.submit(ev);
        }
        let batch = self.intake.admit_slot(t);
        let admitted_at = Instant::now();
        let report = self.engine.slot_engine().step_streaming(t, &batch.admitted);
        let end = Instant::now();
        let cpu_after = cpu_ticks();

        let backlog = self.intake.pending();
        self.engine.slot_engine().clear_retired();
        check_slot(self.workload, &report, &costs).map_err(|e| format!("slot {t}: {e}"))?;
        let latencies = self
            .latencies(t, n_events, &queries, &batch, &report)
            .map_err(|e| format!("slot {t}: {e}"))?;

        // Output fingerprint: welfare bits and the ids of bought sensors.
        let ids: Vec<usize> = batch
            .admitted
            .iter()
            .filter_map(|ev| match &ev.payload {
                ArrivalPayload::Sensor(s) => Some(s.id),
                _ => None,
            })
            .collect();
        let mut bought: Vec<usize> = report.sensors_used.iter().map(|&i| ids[i]).collect();
        bought.sort_unstable();
        self.output_hash.f64(report.welfare);
        self.output_hash.u64(bought.len() as u64);
        for id in bought {
            self.output_hash.u64(id as u64);
        }

        let admitted_queries = batch
            .admitted
            .iter()
            .filter(|ev| !matches!(ev.payload, ArrivalPayload::Sensor(_)))
            .count();
        Ok(SlotRun {
            t,
            start,
            admitted_at,
            end,
            report,
            batch,
            events: n_events,
            query_events,
            admitted_queries,
            backlog,
            cpu_ticks: (cpu_after.0 - cpu_before.0, cpu_after.1 - cpu_before.1),
            latencies,
        })
    }

    /// Submission-to-decision ticks of this slot's admitted point and
    /// aggregate queries. Mirrors the controller's stream order
    /// (carried queries first, then fresh ones in `(tick, ticket)`
    /// order, which is generation order) to pair each admitted query
    /// with its submission, then with its decision tick: the engine
    /// reports those in stream order, shard by shard on the cluster.
    fn latencies(
        &mut self,
        t: Slot,
        n_events: usize,
        queries: &[(usize, u64, bool)],
        batch: &AdmissionBatch,
        report: &SlotReport,
    ) -> Result<Vec<u64>, String> {
        let base = self.submitted;
        self.submitted += n_events as u64;
        let mut stream = std::mem::take(&mut self.carried);
        stream.extend(queries.iter().map(|&(i, tick, one_shot)| Submission {
            ticket: Ticket(base + i as u64),
            slot: t,
            tick,
            one_shot,
        }));
        let mut admitted = Vec::new();
        for sub in stream {
            match batch.outcome(sub.ticket) {
                Some(Admission::Admitted) => admitted.push(sub),
                Some(Admission::Deferred { .. }) => self.carried.push(sub),
                Some(Admission::Rejected { .. }) => {}
                None => return Err(format!("ticket {:?} got no admission outcome", sub.ticket)),
            }
        }

        let shards = match &self.engine {
            Engine::Cluster(c) => c.shards().len(),
            Engine::Single(_) => 1,
        };
        let mut per_shard: Vec<Vec<Submission>> = vec![Vec::new(); shards];
        let admitted_events = batch
            .admitted
            .iter()
            .filter(|ev| !matches!(ev.payload, ArrivalPayload::Sensor(_)));
        if admitted_events.clone().count() != admitted.len() {
            return Err("admitted stream and admission outcomes disagree".into());
        }
        for (ev, sub) in admitted_events.zip(admitted) {
            if !sub.one_shot {
                continue;
            }
            let shard = match &self.engine {
                Engine::Cluster(c) => query_shard(c, &ev.payload).expect("a query event"),
                Engine::Single(_) => 0,
            };
            per_shard[shard].push(sub);
        }

        let ticks = &report.streaming.as_ref().expect("gated").decision_ticks;
        let subs: Vec<Submission> = per_shard.into_iter().flatten().collect();
        if subs.len() != ticks.len() {
            return Err(format!(
                "{} admitted one-shot queries but {} decision ticks",
                subs.len(),
                ticks.len()
            ));
        }
        let batch_engine = self.workload != Workload::CityOnline;
        let mut out = Vec::with_capacity(subs.len());
        for (sub, &decided) in subs.iter().zip(ticks) {
            // The tick the engine saw: re-entrants come back at tick 0.
            let seen = if sub.slot == t { sub.tick } else { 0 };
            if batch_engine && decided != TICKS_PER_SLOT - seen {
                return Err(format!(
                    "decision ticks out of step with the admitted stream: {decided} for a \
                     query seen at tick {seen}"
                ));
            }
            out.push((t - sub.slot) as u64 * TICKS_PER_SLOT + seen + decided - sub.tick);
        }
        Ok(out)
    }

    /// Construction plus [`WARMUP_SLOTS`] slots, timed without the
    /// generator.
    pub fn warm_up(&mut self) -> Result<Duration, String> {
        let mut setup = self.construction;
        for _ in 0..WARMUP_SLOTS {
            let input = self.generate();
            setup += self.run_slot(input)?.elapsed();
        }
        Ok(setup)
    }

    /// Hash of the first [`INPUT_HASH_SLOTS`] slots' generated events.
    pub fn input_fingerprint(&self) -> u64 {
        assert!(
            self.next_slot >= INPUT_HASH_SLOTS,
            "the input fingerprint covers {INPUT_HASH_SLOTS} slots"
        );
        self.input_hash.get()
    }

    pub fn output_fingerprint(&self) -> u64 {
        self.output_hash.get()
    }
}

/// The shard `ShardedAggregator` routes a query event to (by the anchor
/// of its spatial support); `None` for a sensor announcement.
pub fn query_shard(
    cluster: &ShardedAggregator<'static>,
    payload: &ArrivalPayload,
) -> Option<usize> {
    let disk = |center: Point| SpatialSupport::Disk {
        center,
        radius: quality().d_max,
    };
    let support = match payload {
        ArrivalPayload::Sensor(_) => return None,
        ArrivalPayload::Point(p) => disk(p.loc),
        ArrivalPayload::Aggregate(a) => SpatialSupport::Rect(a.region),
        ArrivalPayload::LocationMonitor(m) => disk(m.loc),
        ArrivalPayload::RegionMonitor(m) => SpatialSupport::Rect(*m.valuation.region()),
    };
    Some(cluster.shard_of(&support))
}

/// This process's `(user, kernel)` CPU time so far, in clock ticks
/// (`utime` and `stime` of `/proc/self/stat`; zero where unavailable).
fn cpu_ticks() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return (0, 0);
    };
    // Fields after the parenthesised command name start at field 3.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or(Vec::new(), |(_, rest)| rest.split_whitespace().collect());
    let field = |n: usize| fields.get(n - 3).and_then(|v| v.parse().ok()).unwrap_or(0);
    (field(14), field(15))
}

/// The per-slot correctness gate: the paper's payment invariants and the
/// report's own consistency. Any violation fails the run.
fn check_slot(w: Workload, report: &SlotReport, costs: &[f64]) -> Result<(), String> {
    let receipts = report.ledger.total_receipts();
    let payments = report.ledger.total_payments();
    if (receipts - payments).abs() > 1e-6 * receipts.abs().max(1.0) {
        return Err(format!(
            "Eq. 11 budget balance: receipts {receipts} != payments {payments}"
        ));
    }
    report
        .ledger
        .verify_cost_recovery(|id| costs.get(id).copied().unwrap_or(f64::NAN), 1e-6)
        .map_err(|e| format!("cost recovery: {e}"))?;
    if let Some(r) = report
        .point_results
        .iter()
        .find(|r| r.paid > r.value + 1e-9)
    {
        return Err(format!(
            "query {:?} paid {} for value {}",
            r.id, r.paid, r.value
        ));
    }
    if !report.welfare.is_finite() {
        return Err(format!("welfare {} is not finite", report.welfare));
    }
    if w == Workload::CityExact {
        let b = &report.breakdown;
        if b.point_sched_welfare > b.point_lp_bound + 1e-6 * b.point_lp_bound.abs().max(1.0) {
            return Err(format!(
                "point welfare {} exceeds the LP bound {}",
                b.point_sched_welfare, b.point_lp_bound
            ));
        }
    }
    let stats = report
        .streaming
        .as_ref()
        .ok_or("step_streaming returned no decision statistics")?;
    if let Some(d) = stats.decision_ticks.iter().find(|&&d| d > TICKS_PER_SLOT) {
        return Err(format!(
            "decision tick {d} beyond the slot's {TICKS_PER_SLOT}"
        ));
    }
    Ok(())
}
