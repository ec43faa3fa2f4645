//! The stateful aggregator engine: a long-running service around
//! Algorithm 5.
//!
//! The paper's aggregator is not a batch of figure scripts — it is a
//! service. Queries arrive and persist, continuous queries live across
//! slots, and every tick the data-acquisition loop (Algorithm 5) runs
//! against whatever sensors announced themselves. [`Aggregator`] owns
//! that loop: query intake with internal [`QueryId`] minting, monitor
//! lifecycle (activation, expiry, retired-monitor statistics), running
//! [`Totals`], and a single [`Aggregator::step`] that executes one time
//! slot and returns a [`SlotReport`] carrying that slot's [`Ledger`].
//!
//! # Builder knobs → paper equations
//!
//! | Builder knob | Paper element |
//! |---|---|
//! | [`AggregatorBuilder::new`] (quality model) | Eq. 4 reading quality `θ_{q,s}` (`d_max`) |
//! | [`AggregatorBuilder::sensing_range`] | §4.4 sensing radius `r_s` for aggregate coverage `G_q` (Eq. 5) |
//! | [`AggregatorBuilder::strategy`] = [`MixStrategy::Alg5`] | Algorithm 5: joint selection via Algorithm 1, payments by Eq. 11 |
//! | [`AggregatorBuilder::strategy`] = [`MixStrategy::SequentialBaseline`] | §4.7 baseline: aggregates first, then point queries sequentially |
//! | [`AggregatorBuilder::scheduler`] | §3.1 point schedulers (Eq. 9 exact / Local Search / baseline) for Algorithms 2–3 |
//! | [`AggregatorBuilder::cost_weighting`] | Eq. 18 shared-cost weighting `w(k)` for region planning |
//! | [`AggregatorBuilder::sensor_sharing`] | Algorithm 3's `A_{r,t}` free-riding on sensors bought by other queries |
//! | [`AggregatorBuilder::spatial_index`] | grid or [`SensorIndex::scan_all`] for every per-slot [`SensorIndex`] (scaling only — output is identical either way) |
//! | [`AggregatorBuilder::threads`] | worker count for the parallel evaluate phases (scaling only — output is bit-identical for every count) |
//!
//! A batch slot takes one of two paths. Under [`MixStrategy::Alg5`] with
//! no dedicated scheduler, point queries of every origin are fed
//! *jointly* with the aggregates to Algorithm 1 (the full Algorithm 5
//! mix). Every other batch configuration takes the *staged* path: the
//! set-valued queries first, then the whole point workload through one
//! [`PointScheduler`] — the configured one, or the §4.7 baseline's
//! [`BaselinePointScheduler`]. This is how the monitoring experiments
//! (§4.5, §4.6) compare `Alg2-O`, `Alg2-LS`, and the desired-times-only
//! baseline, and how §4.7 runs its sequential baseline.
//!
//! # The slot pipeline: gather → evaluate ∥ → select → settle
//!
//! Every [`Aggregator::step`] runs four phases. Two are embarrassingly
//! parallel and shard across a [`Threads`] scoped worker pool; two own
//! shared state and stay serial, consuming pre-computed per-shard
//! inputs:
//!
//! 1. **gather** *(serial)* — drain pending one-shot queries, build the
//!    slot's [`SensorIndex`], translate location monitors into point
//!    queries (Algorithm 2).
//! 2. **evaluate** *(parallel)* — the per-query, read-only work: Eq. 18
//!    weighted-cost accumulation, per-monitor region planning
//!    (Algorithms 3–4), Algorithm 1 relevance lists and initial
//!    per-pair marginals, and the point schedulers' candidate/value
//!    evaluation. Shards cover contiguous ranges; partials merge in
//!    ascending range order.
//! 3. **select** *(serial)* — the adaptive greedy selection (Algorithm 1
//!    / the configured [`PointScheduler`] argmax), where each pick
//!    conditions the next.
//! 4. **settle** *(serial)* — payments into the [`Ledger`], monitor
//!    result application, the Algorithm 5 payment adjustment, expiry.
//!
//! The determinism contract: for a fixed input stream, the produced
//! [`SlotReport`]s, ledgers, and retired-monitor statistics are
//! **bit-identical** for every `threads` value (see [`crate::exec`];
//! property-tested end to end in `tests/parallel_determinism.rs`).
//!
//! # One slot in five lines
//!
//! ```rust
//! use ps_core::aggregator::{AggregatorBuilder, PointSpec};
//! use ps_core::model::SensorSnapshot;
//! use ps_core::valuation::quality::QualityModel;
//! use ps_geo::Point;
//!
//! let sensors = vec![SensorSnapshot {
//!     id: 0, loc: Point::new(5.0, 5.0), cost: 10.0, trust: 1.0, inaccuracy: 0.0,
//! }];
//! let mut engine = AggregatorBuilder::new(QualityModel::new(5.0)).build();
//! engine.submit_point(PointSpec { loc: Point::new(5.0, 5.0), budget: 12.0, theta_min: 0.2 });
//! let report = engine.step(0, &sensors);
//! assert_eq!(report.breakdown.point_satisfied, 1);
//! assert!(report.welfare > 0.0);
//! ```

use crate::alloc::baseline::{baseline_select_for_query, BaselinePointScheduler};
use crate::alloc::greedy::{greedy_select, GreedySelection};
use crate::alloc::PointScheduler;
use crate::exec::Threads;
use crate::model::{QueryId, SensorSnapshot, Slot};
use crate::monitor::location::LocationMonitor;
use crate::monitor::region::{sharing_weight, RegionMonitor, RegionPlan};
use crate::payment::Ledger;
use crate::query::{AggregateKind, AggregateQuery, PointQuery, QueryOrigin};
use crate::streaming::{ArrivalEvent, ArrivalPayload, StreamStats};
use crate::valuation::aggregate::AggregateValuation;
use crate::valuation::monitoring::MonitoringValuation;
use crate::valuation::point::PointValuation;
use crate::valuation::quality::QualityModel;
use crate::valuation::region::RegionValuation;
use crate::valuation::SetValuation;
use ps_geo::{Point, Rect, SensorIndex};
use std::collections::{HashMap, HashSet};

/// Intra-slot tick resolution of the streaming path: arrival ticks live
/// in `[0, DEFAULT_TICKS_PER_SLOT)`, and a boundary decision is recorded
/// at latency `DEFAULT_TICKS_PER_SLOT − arrival_tick`.
pub const DEFAULT_TICKS_PER_SLOT: u64 = 1_000;

/// Per-monitor `(serving sensor, payment)` lists paired with the slot's
/// region plans.
type RegionSlotState<'a> = (&'a [Vec<(SensorSnapshot, f64)>], &'a [RegionPlan]);

/// Per-query `(sensor index, payment)` lists paired with their query ids
/// — who gets refunded when a region monitor contributes.
type RefundSource<'a> = (&'a [Vec<(usize, f64)>], &'a [QueryId]);

/// How the engine acquires data each slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MixStrategy {
    /// Algorithm 5: monitors are translated into point queries, then all
    /// queries are selected *jointly* by Algorithm 1 (or the configured
    /// point scheduler), sharing sensors and splitting costs by Eq. 11.
    #[default]
    Alg5,
    /// The §4.7 sequential baseline: aggregates are executed one by one
    /// (buffering bought data), then point queries run through the
    /// baseline scheduler; location monitors only sample at their desired
    /// times.
    SequentialBaseline,
    /// The quality-adaptive online double auction (Mukhopadhyay et al.,
    /// arXiv:1608.04857): point queries and sensors are matched at
    /// arrival time by surplus (value of quality minus the sensor's
    /// remaining price — a sensor already bought this slot resells its
    /// buffered reading free), and whatever is still open at the slot
    /// boundary clears through the ordinary Algorithm 5 batch with the
    /// bought sensors cost-discounted. Batch [`Aggregator::step`] under
    /// this strategy is the degenerate stream in which every sensor
    /// arrives at tick 0; feed mid-slot [`ArrivalEvent`]s through
    /// [`Aggregator::step_streaming`] to see arrival-time clearing. A
    /// configured [`AggregatorBuilder::scheduler`] takes precedence over
    /// this strategy, exactly as it does over [`MixStrategy::Alg5`].
    OnlineAuction,
}

/// Intake spec for an end-user point query (§2.2.1, Eq. 3). The engine
/// mints the [`QueryId`].
#[derive(Debug, Clone, Copy)]
pub struct PointSpec {
    /// Queried location `l_q`.
    pub loc: Point,
    /// Budget `B_q` (willingness to pay per unit of quality).
    pub budget: f64,
    /// Minimum acceptable reading quality `θ_min`.
    pub theta_min: f64,
}

/// Intake spec for a spatial aggregate query (§2.2.2, Eq. 5).
#[derive(Debug, Clone)]
pub struct AggregateSpec {
    /// Queried region `r_q`.
    pub region: Rect,
    /// Budget `B_q`.
    pub budget: f64,
    /// Requested aggregate.
    pub kind: AggregateKind,
}

/// Intake spec for a location-monitoring query (§2.3.2, Eqs. 16–17).
#[derive(Debug, Clone)]
pub struct LocationMonitorSpec {
    /// Monitored location.
    pub loc: Point,
    /// First active slot.
    pub t1: Slot,
    /// Last active slot (inclusive).
    pub t2: Slot,
    /// Opportunistic budget fraction α (0.5 in §4.5).
    pub alpha: f64,
    /// θ_min for the generated point queries.
    pub theta_min: f64,
    /// Eq. 16 valuation carrying the budget and desired times.
    pub valuation: MonitoringValuation,
}

/// Intake spec for a region-monitoring query (§2.3.1, Eqs. 6–7).
#[derive(Debug, Clone)]
pub struct RegionMonitorSpec {
    /// First active slot.
    pub t1: Slot,
    /// Last active slot (inclusive).
    pub t2: Slot,
    /// Opportunistic budget fraction α (0.5 in §4.6).
    pub alpha: f64,
    /// θ_min for the generated point queries.
    pub theta_min: f64,
    /// Eq. 7 valuation carrying the budget and the region.
    pub valuation: RegionValuation,
}

/// Per-query-type results of one slot (the Fig. 10 metrics).
#[derive(Debug, Clone, Default)]
pub struct MixBreakdown {
    /// End-user point queries issued this slot.
    pub point_total: usize,
    /// …of which answered with positive value.
    pub point_satisfied: usize,
    /// Σ quality-of-results (`v/B` = θ) over satisfied point queries.
    pub point_quality_sum: f64,
    /// Aggregate queries issued this slot.
    pub aggregate_total: usize,
    /// …of which answered with positive value.
    pub aggregate_answered: usize,
    /// Σ quality-of-results (`v/B`) over answered aggregates.
    pub aggregate_quality_sum: f64,
    /// Number of location monitors that achieved a sample this slot.
    pub monitor_samples: usize,
    /// Σ point-schedule welfare over the slots counted by
    /// `bound_known_slots` (the scheduler's own Eq. 9 objective —
    /// end-user and monitor point queries alike — before monitors fold
    /// their shares into Eq. 2). Paired with `point_lp_bound` so the two
    /// sums always cover the same slots.
    pub point_sched_welfare: f64,
    /// Σ certified LP-relaxation bounds over the same slots.
    pub point_lp_bound: f64,
    /// Slots whose scheduler attached an LP bound to its allocation.
    pub bound_known_slots: usize,
    /// Slots whose exact solve ran out of node/pivot budget
    /// (`SolveStatus::LimitReached`) — the anytime incumbent was used.
    pub limited_slots: usize,
}

impl MixBreakdown {
    /// Adds `other`'s counts into this breakdown — slot-into-totals
    /// accumulation, and the federation layer's shard-order merge of
    /// per-shard breakdowns into one cluster breakdown.
    pub fn absorb(&mut self, other: &MixBreakdown) {
        self.point_total += other.point_total;
        self.point_satisfied += other.point_satisfied;
        self.point_quality_sum += other.point_quality_sum;
        self.aggregate_total += other.aggregate_total;
        self.aggregate_answered += other.aggregate_answered;
        self.aggregate_quality_sum += other.aggregate_quality_sum;
        self.monitor_samples += other.monitor_samples;
        self.point_sched_welfare += other.point_sched_welfare;
        self.point_lp_bound += other.point_lp_bound;
        self.bound_known_slots += other.bound_known_slots;
        self.limited_slots += other.limited_slots;
    }

    /// The point-schedule optimality gap accumulated so far:
    /// `(Σ lp_bound − Σ scheduler welfare) / Σ lp_bound` over the slots
    /// with a certified bound, or `None` when no slot had one (heuristic
    /// scheduler without the bound wrapper, or no point queries).
    pub fn optimality_gap(&self) -> Option<f64> {
        if self.bound_known_slots == 0 || self.point_lp_bound <= 0.0 {
            return None;
        }
        Some(((self.point_lp_bound - self.point_sched_welfare) / self.point_lp_bound).max(0.0))
    }
}

/// The answer the engine returns for one end-user point query.
#[derive(Debug, Clone, Copy)]
pub struct PointResult {
    /// The query (submission order is preserved in
    /// [`SlotReport::point_results`]).
    pub id: QueryId,
    /// Achieved value `v_q` (0 when unanswered).
    pub value: f64,
    /// Total payment charged to the query.
    pub paid: f64,
    /// Reading quality θ of the serving sensor (0 when unanswered).
    pub quality: f64,
    /// Snapshot index of the serving sensor, when answered.
    pub sensor: Option<usize>,
}

/// The answer the engine returns for one set-valued query (aggregate or
/// custom valuation).
#[derive(Debug, Clone)]
pub struct SetQueryResult {
    /// The query.
    pub id: QueryId,
    /// Achieved value `v_q(S_q)`.
    pub value: f64,
    /// Total payment charged to the query.
    pub paid: f64,
    /// Snapshot indices of the sensors acquired for it.
    pub sensors: Vec<usize>,
}

/// A continuous query that left the engine (its window `[t1, t2]`
/// elapsed). The full monitor state is retained so callers can audit
/// results; call [`Aggregator::clear_retired`] in long-running services.
#[derive(Debug, Clone)]
pub enum RetiredMonitor {
    /// A finished location-monitoring query.
    Location(Box<LocationMonitor>),
    /// A finished region-monitoring query.
    Region(Box<RegionMonitor>),
}

impl RetiredMonitor {
    /// The monitor's query identifier.
    pub fn id(&self) -> QueryId {
        match self {
            RetiredMonitor::Location(m) => m.id,
            RetiredMonitor::Region(m) => m.id,
        }
    }

    /// Final quality-of-results metric (`v/B`).
    pub fn quality_of_results(&self) -> f64 {
        match self {
            RetiredMonitor::Location(m) => m.quality_of_results(),
            RetiredMonitor::Region(m) => m.quality_of_results(),
        }
    }

    /// Final accumulated value.
    pub fn value(&self) -> f64 {
        match self {
            RetiredMonitor::Location(m) => m.value(),
            RetiredMonitor::Region(m) => m.value(),
        }
    }

    /// Total budget spent over the monitor's lifetime.
    pub fn spent(&self) -> f64 {
        match self {
            RetiredMonitor::Location(m) => m.spent(),
            RetiredMonitor::Region(m) => m.spent(),
        }
    }
}

/// Cumulative engine statistics since construction.
#[derive(Debug, Clone, Default)]
pub struct Totals {
    /// Number of slots stepped.
    pub slots: usize,
    /// Σ per-slot welfare (Eq. 2 total utility).
    pub welfare: f64,
    /// Summed per-type breakdowns.
    pub breakdown: MixBreakdown,
    /// Monitors retired so far.
    pub monitors_retired: usize,
}

impl Totals {
    /// Accumulates one (possibly merged) slot report into these totals:
    /// the engine's own report, or a federation's settled cross-shard
    /// one. `monitors_retired` is not derivable from a report and is
    /// tracked by the caller.
    pub fn absorb_report(&mut self, report: &SlotReport) {
        self.slots += 1;
        self.welfare += report.welfare;
        self.breakdown.absorb(&report.breakdown);
    }
}

/// Everything one [`Aggregator::step`] produced.
#[derive(Debug, Clone)]
pub struct SlotReport {
    /// The slot that was executed.
    pub slot: Slot,
    /// This slot's total utility: value created minus sensor costs.
    pub welfare: f64,
    /// This slot's per-type breakdown.
    pub breakdown: MixBreakdown,
    /// This slot's money flows. The paper settles every payment inside
    /// its slot, so the engine keeps no other ledger.
    pub ledger: Ledger,
    /// Snapshot indices of sensors that provided measurements.
    pub sensors_used: Vec<usize>,
    /// Per-query answers for this slot's end-user point queries, in
    /// submission order.
    pub point_results: Vec<PointResult>,
    /// Per-query answers for this slot's aggregate queries, in submission
    /// order.
    pub aggregate_results: Vec<SetQueryResult>,
    /// Per-query answers for this slot's custom set valuations, in
    /// submission order.
    pub custom_results: Vec<SetQueryResult>,
    /// Decision-latency statistics, present exactly when the slot was
    /// driven through a `step_streaming` entry point (this engine's
    /// [`Aggregator::step_streaming`], or a federation's, which merges
    /// its shards' statistics). `None` from every batch `step`, whatever
    /// the strategy — [`MixStrategy::OnlineAuction`]'s `step` runs the
    /// tick-0 stream internally but reports no latencies.
    pub streaming: Option<StreamStats>,
}

/// Configures and builds an [`Aggregator`].
///
/// The lifetime parameter bounds a borrowed [`PointScheduler`] (or custom
/// valuations submitted later); owned schedulers give `'static` and can be
/// elided.
///
/// The type is `#[must_use]`: every knob takes `self` and returns the
/// configured builder, so dropping the return value of a chain method
/// silently discards that configuration.
#[must_use = "builder methods take `self` — reassign or chain the result, or the configuration is dropped"]
pub struct AggregatorBuilder<'s> {
    quality: QualityModel,
    sensing_range: f64,
    strategy: MixStrategy,
    scheduler: Option<Box<dyn PointScheduler + 's>>,
    use_cost_weighting: bool,
    share_sensors: bool,
    spatial_index: bool,
    threads: Threads,
    next_query_id: u64,
}

impl<'s> AggregatorBuilder<'s> {
    /// Starts a builder around the Eq. 4 quality model. Defaults:
    /// sensing range 10 (§4.4), [`MixStrategy::Alg5`], joint Algorithm 1
    /// selection (no dedicated scheduler), Eq. 18 cost weighting on,
    /// `A_{r,t}` sensor sharing on, worker threads = available
    /// parallelism, query ids minted from 1.
    pub fn new(quality: QualityModel) -> Self {
        Self {
            quality,
            sensing_range: 10.0,
            strategy: MixStrategy::Alg5,
            scheduler: None,
            use_cost_weighting: true,
            share_sensors: true,
            spatial_index: true,
            threads: Threads::default(),
            next_query_id: 0,
        }
    }

    /// Sensing radius `r_s` used for aggregate coverage (Eq. 5).
    pub fn sensing_range(mut self, r: f64) -> Self {
        self.sensing_range = r;
        self
    }

    /// Selects Algorithm 5 or the §4.7 sequential baseline.
    pub fn strategy(mut self, s: MixStrategy) -> Self {
        self.strategy = s;
        self
    }

    /// Routes point queries (end-user and monitor-generated) through a
    /// dedicated [`PointScheduler`] instead of the joint Algorithm 1
    /// selection. Aggregates and custom valuations then run in a separate
    /// Algorithm 1 stage of their own; sensors that stage buys are free
    /// for the point stage (their data is buffered), so no sensor is
    /// charged twice in one slot.
    pub fn scheduler(mut self, s: impl PointScheduler + 's) -> Self {
        self.scheduler = Some(Box::new(s));
        self
    }

    /// Toggles the Eq. 18 cost weighting `w(k)` in region planning.
    pub fn cost_weighting(mut self, on: bool) -> Self {
        self.use_cost_weighting = on;
        self
    }

    /// Toggles Algorithm 3's `A_{r,t}` sharing (region monitors
    /// free-riding on sensors bought by other queries).
    pub fn sensor_sharing(mut self, on: bool) -> Self {
        self.share_sensors = on;
        self
    }

    /// Chooses what every per-slot [`SensorIndex`] is: a bucket grid (on,
    /// the default) or [`SensorIndex::scan_all`] (off). Every candidate
    /// lookup — the joint Algorithm 1 selection, the point schedulers,
    /// region planning, Eq. 18 cost weighting, and the online auction's
    /// arrival matching — asks the slot's index and applies its own exact
    /// predicate to the answer. Output is identical either way, so the
    /// scans this knob turns on serve as the oracle the grid is tested
    /// and benchmarked against.
    pub fn spatial_index(mut self, on: bool) -> Self {
        self.spatial_index = on;
        self
    }

    /// Worker threads for the parallel evaluate phases of the
    /// [slot pipeline](self#the-slot-pipeline-gather--evaluate---select--settle):
    /// `0` (the default) auto-detects via
    /// [`std::thread::available_parallelism`], any other value is taken
    /// literally. Purely a wall-clock knob — selections, payments,
    /// ledgers, and welfare are bit-identical for every thread count, so
    /// it exists for scaling and for benchmarking the serial path
    /// (`threads(1)`), never for correctness.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Threads::new(n);
        self
    }

    /// Seeds the id counter: the next minted id is `n + 1`.
    pub fn next_query_id(mut self, n: u64) -> Self {
        self.next_query_id = n;
        self
    }

    /// Builds the engine.
    #[must_use = "dropping the built engine discards all the configuration"]
    pub fn build(self) -> Aggregator<'s> {
        Aggregator {
            quality: self.quality,
            sensing_range: self.sensing_range,
            strategy: self.strategy,
            scheduler: self.scheduler,
            use_cost_weighting: self.use_cost_weighting,
            share_sensors: self.share_sensors,
            spatial_index: self.spatial_index,
            threads: self.threads,
            next_query_id: self.next_query_id,
            pending_points: Vec::new(),
            pending_aggregates: Vec::new(),
            pending_customs: Vec::new(),
            location_monitors: Vec::new(),
            region_monitors: Vec::new(),
            retired: Vec::new(),
            totals: Totals::default(),
        }
    }
}

/// The stateful aggregator service (see the [module docs](self)).
///
/// Submit queries at any slot; each [`Aggregator::step`] consumes the
/// pending one-shot queries, runs the continuous ones, and retires
/// monitors whose window has elapsed.
pub struct Aggregator<'s> {
    quality: QualityModel,
    sensing_range: f64,
    strategy: MixStrategy,
    scheduler: Option<Box<dyn PointScheduler + 's>>,
    use_cost_weighting: bool,
    share_sensors: bool,
    spatial_index: bool,
    threads: Threads,
    next_query_id: u64,
    pending_points: Vec<PointQuery>,
    pending_aggregates: Vec<AggregateQuery>,
    pending_customs: Vec<(QueryId, Box<dyn SetValuation + 's>)>,
    location_monitors: Vec<LocationMonitor>,
    region_monitors: Vec<RegionMonitor>,
    retired: Vec<RetiredMonitor>,
    totals: Totals,
}

impl<'s> Aggregator<'s> {
    fn mint(&mut self) -> QueryId {
        self.next_query_id += 1;
        QueryId(self.next_query_id)
    }

    /// Mints an id and builds the point query of `spec`: the one path
    /// from a point spec to a query, submitted or streamed.
    fn point_query(&mut self, spec: &PointSpec) -> PointQuery {
        PointQuery::new(self.mint(), spec.loc, spec.budget, spec.theta_min)
    }

    /// Mints an id and builds the aggregate query of `spec`: the one
    /// path from an aggregate spec to a query, submitted or streamed.
    fn aggregate_query(&mut self, spec: &AggregateSpec) -> AggregateQuery {
        AggregateQuery {
            id: self.mint(),
            region: spec.region,
            budget: spec.budget,
            kind: spec.kind,
        }
    }

    // ── Query intake ──────────────────────────────────────────────────

    /// Submits an end-user point query for the next slot.
    pub fn submit_point(&mut self, spec: PointSpec) -> QueryId {
        let query = self.point_query(&spec);
        self.pending_points.push(query);
        query.id
    }

    /// Submits a spatial aggregate query for the next slot.
    pub fn submit_aggregate(&mut self, spec: AggregateSpec) -> QueryId {
        let query = self.aggregate_query(&spec);
        let id = query.id;
        self.pending_aggregates.push(query);
        id
    }

    /// Submits a location-monitoring query; it activates at `spec.t1` and
    /// retires after `spec.t2`.
    pub fn submit_location_monitor(&mut self, spec: LocationMonitorSpec) -> QueryId {
        let id = self.mint();
        self.location_monitors.push(LocationMonitor::new(
            id,
            spec.loc,
            spec.t1,
            spec.t2,
            spec.alpha,
            spec.theta_min,
            spec.valuation,
        ));
        id
    }

    /// Submits a region-monitoring query; it activates at `spec.t1` and
    /// retires after `spec.t2`.
    pub fn submit_region_monitor(&mut self, spec: RegionMonitorSpec) -> QueryId {
        let id = self.mint();
        self.region_monitors.push(RegionMonitor::new(
            id,
            spec.t1,
            spec.t2,
            spec.alpha,
            spec.theta_min,
            spec.valuation,
        ));
        id
    }

    /// Submits an arbitrary black-box [`SetValuation`] for the next slot
    /// (the paper treats `v_q(·)` as opaque; Algorithm 1 schedules it
    /// jointly with everything else).
    pub fn submit_valuation(&mut self, v: impl SetValuation + 's) -> QueryId {
        let id = self.mint();
        self.pending_customs.push((id, Box::new(v)));
        id
    }

    // ── Introspection ─────────────────────────────────────────────────

    /// Live location monitors, in submission order.
    pub fn location_monitors(&self) -> &[LocationMonitor] {
        &self.location_monitors
    }

    /// Live region monitors, in submission order.
    pub fn region_monitors(&self) -> &[RegionMonitor] {
        &self.region_monitors
    }

    /// Monitors whose window has elapsed, in retirement order.
    pub fn retired_monitors(&self) -> &[RetiredMonitor] {
        &self.retired
    }

    /// Drops retained retired-monitor state (long-running services).
    pub fn clear_retired(&mut self) {
        self.retired.clear();
    }

    /// Cumulative statistics across all slots stepped so far.
    pub fn totals(&self) -> &Totals {
        &self.totals
    }

    /// Current value of the id counter (the next minted id is this +1).
    pub fn next_query_id(&self) -> u64 {
        self.next_query_id
    }

    /// The configured strategy.
    pub fn strategy(&self) -> MixStrategy {
        self.strategy
    }

    /// The configured Eq. 4 quality model.
    pub fn quality(&self) -> &QualityModel {
        &self.quality
    }

    /// The configured sensing range.
    pub fn sensing_range(&self) -> f64 {
        self.sensing_range
    }

    /// The resolved worker-thread count for the parallel evaluate phases
    /// (≥ 1; see [`AggregatorBuilder::threads`]).
    pub fn threads(&self) -> usize {
        self.threads.get()
    }

    // ── The tick ──────────────────────────────────────────────────────

    /// Runs one time slot against the announced sensors: consumes the
    /// pending one-shot queries, translates monitors into point queries
    /// (Algorithms 2–4), selects and pays sensors, applies monitor
    /// results and the Algorithm 5 payment adjustment, and retires
    /// monitors whose window ended at `slot`.
    pub fn step(&mut self, slot: Slot, sensors: &[SensorSnapshot]) -> SlotReport {
        // The online auction treats the batch announcement as the
        // degenerate stream where every sensor arrives at tick 0 — one
        // code path, so batch and all-arrivals-at-start streaming runs
        // are bit-identical by construction.
        if self.scheduler.is_none() && self.strategy == MixStrategy::OnlineAuction {
            let events: Vec<ArrivalEvent> = sensors
                .iter()
                .map(|&s| ArrivalEvent::sensor(0, s))
                .collect();
            let mut report = self.step_streaming(slot, &events);
            // Latency statistics are reported to `step_streaming` callers
            // only (see `SlotReport::streaming`).
            report.streaming = None;
            return report;
        }

        let points = std::mem::take(&mut self.pending_points);
        let aggregates = std::mem::take(&mut self.pending_aggregates);
        let customs = std::mem::take(&mut self.pending_customs);

        // One spatial index per slot, shared by every hot path below.
        let index = self.build_index(&sensors.iter().map(|s| s.loc).collect::<Vec<_>>());

        let report = if self.scheduler.is_none() && self.strategy == MixStrategy::Alg5 {
            let none = HashSet::new();
            self.step_alg5(slot, sensors, points, aggregates, customs, &index, &none)
        } else {
            self.step_staged(slot, sensors, points, aggregates, customs, &index)
        };
        self.finalize(slot, report)
    }

    /// Runs one time slot against a stream of intra-slot
    /// [`ArrivalEvent`]s instead of a boundary announcement. Under
    /// [`MixStrategy::OnlineAuction`] (and no dedicated scheduler),
    /// point queries are matched at arrival time by the online double
    /// auction and whatever remains open clears at the boundary; every
    /// other configuration replays the events into the ordinary intake
    /// in order and executes the batch pipeline, recording boundary
    /// decision latencies. Either way [`SlotReport::streaming`] is
    /// populated, and a stream whose events all carry tick 0 in
    /// submission order is bit-identical to the batch [`Aggregator::step`].
    ///
    /// The events are read by reference, in iteration order: a slice or
    /// `&Vec` of events, or the references a router collected for this
    /// engine without copying the events.
    pub fn step_streaming<'e>(
        &mut self,
        slot: Slot,
        events: impl IntoIterator<Item = &'e ArrivalEvent>,
    ) -> SlotReport {
        if self.scheduler.is_none() && self.strategy == MixStrategy::OnlineAuction {
            let report = self.step_online(slot, events);
            return self.finalize(slot, report);
        }

        // Batch fallback: replay the stream into the intake (preserving
        // event order, hence the minted id sequence) and resolve
        // everything at the boundary.
        let tps = DEFAULT_TICKS_PER_SLOT;
        let mut stats = StreamStats::default();
        let mut sensors: Vec<SensorSnapshot> = Vec::new();
        for ev in events {
            let tick = ev.tick.min(tps);
            match &ev.payload {
                ArrivalPayload::Point(spec) => {
                    self.submit_point(*spec);
                    stats.query_arrivals += 1;
                    stats.decision_ticks.push(tps - tick);
                }
                ArrivalPayload::Aggregate(spec) => {
                    self.submit_aggregate(spec.clone());
                    stats.query_arrivals += 1;
                    stats.decision_ticks.push(tps - tick);
                }
                ArrivalPayload::LocationMonitor(spec) => {
                    self.submit_location_monitor((**spec).clone());
                    stats.query_arrivals += 1;
                }
                ArrivalPayload::RegionMonitor(spec) => {
                    self.submit_region_monitor((**spec).clone());
                    stats.query_arrivals += 1;
                }
                ArrivalPayload::Sensor(s) => sensors.push(*s),
            }
        }
        stats.sensor_arrivals = sensors.len();
        let mut report = self.step(slot, &sensors);
        report.streaming = Some(stats);
        report
    }

    /// Builds a [`SensorIndex`] over `points`: the grid when the
    /// `spatial_index` knob is on, [`SensorIndex::scan_all`] when it is
    /// off. Every index the engine queries comes from here.
    fn build_index(&self, points: &[Point]) -> SensorIndex {
        if self.spatial_index {
            SensorIndex::build(points)
        } else {
            SensorIndex::scan_all(points)
        }
    }

    /// Post-dispatch bookkeeping shared by the batch and streaming
    /// paths: roll the totals and retire monitors whose window ended at
    /// `slot`.
    fn finalize(&mut self, slot: Slot, report: SlotReport) -> SlotReport {
        self.totals.absorb_report(&report);

        // Retire monitors that can never be active again, moved out in
        // ascending order: location monitors first, then region monitors.
        let before = self.retired.len();
        let location = self.location_monitors.extract_if(.., |m| m.t2 <= slot);
        self.retired
            .extend(location.map(|m| RetiredMonitor::Location(Box::new(m))));
        let region = self.region_monitors.extract_if(.., |m| m.t2 <= slot);
        self.retired
            .extend(region.map(|m| RetiredMonitor::Region(Box::new(m))));
        // Increment rather than read `retired.len()`: `clear_retired`
        // drops the retained state but must not reset the running count.
        self.totals.monitors_retired += self.retired.len() - before;
        report
    }

    /// Eq. 18 weighted sensor costs for region planning (raw costs when
    /// weighting is off or no region monitor is active). The per-sensor
    /// sharing degree `k` counts the active monitors whose region
    /// contains the sensor: a rectangle query per monitor, filtered by
    /// [`Rect::contains`].
    ///
    /// Part of the parallel evaluate phase: the accumulation shards by
    /// monitor range (per-shard integer count vectors, summed in shard
    /// order). Counts are integers and each weight is computed from the
    /// final count, so the result is bit-identical for every thread
    /// count.
    fn weighted_costs(&self, t: Slot, sensors: &[SensorSnapshot], index: &SensorIndex) -> Vec<f64> {
        if !self.use_cost_weighting || self.region_monitors.is_empty() {
            return sensors.iter().map(|s| s.cost).collect();
        }
        let monitors = &self.region_monitors;
        // Floor: one rectangle query + a short filter per monitor; don't
        // spawn for fewer than 64 of them.
        let shards = self.threads.map_ranges_min(monitors.len(), 64, |range| {
            let mut k = vec![0u32; sensors.len()];
            let mut buf: Vec<usize> = Vec::new();
            for m in monitors[range].iter().filter(|m| m.is_active(t)) {
                index.query_rect_into(&m.region, &mut buf);
                for &si in &buf {
                    if m.region.contains(sensors[si].loc) {
                        k[si] += 1;
                    }
                }
            }
            k
        });
        let mut k = vec![0u32; sensors.len()];
        for shard in shards {
            for (total, part) in k.iter_mut().zip(shard) {
                *total += part;
            }
        }
        sensors
            .iter()
            .zip(&k)
            .map(|(s, &k)| s.cost * sharing_weight(k as usize))
            .collect()
    }

    /// Stage 1 of every batch slot: the slot's whole point workload, in
    /// the order the selection paths consume it — the end-user `points`,
    /// then one Algorithm 2 query per location monitor that asks for a
    /// sample (each monitor mints an id whether or not it asks), then
    /// the queries of the Algorithm 3 plans, which are returned too.
    ///
    /// `desired_times_only` lets location monitors sample only at their
    /// desired times (the §4.7 baseline); `weighted` plans regions at
    /// Eq. 18 weighted costs rather than raw ones.
    ///
    /// Region planning runs one task per monitor, claimed by the workers
    /// from a shared counter, since plan costs vary widely between
    /// monitors; each monitor's plan is a pure function of its own state
    /// and the slot inputs. Workers mint *placeholder* ids from a
    /// per-monitor counter; the serial pass below then assigns real ids
    /// in monitor-then-query order, which is exactly the order a serial
    /// loop mints them in, so plans are bit-identical for every thread
    /// count.
    fn point_workload(
        &mut self,
        t: Slot,
        sensors: &[SensorSnapshot],
        mut queries: Vec<PointQuery>,
        index: &SensorIndex,
        desired_times_only: bool,
        weighted: bool,
    ) -> (Vec<PointQuery>, Vec<RegionPlan>) {
        for (mi, m) in self.location_monitors.iter().enumerate() {
            self.next_query_id += 1;
            let id = QueryId(self.next_query_id);
            queries.extend(if desired_times_only {
                m.create_point_query_baseline(t, id, mi)
            } else {
                m.create_point_query(t, id, mi)
            });
        }
        let costs = if weighted {
            self.weighted_costs(t, sensors, index)
        } else {
            sensors.iter().map(|s| s.cost).collect()
        };
        let monitors = &self.region_monitors;
        let mut plans: Vec<RegionPlan> = self.threads.map_tasks(monitors.len(), |mi| {
            let mut local = 0u64;
            let mut placeholder = || {
                local += 1;
                QueryId(local)
            };
            monitors[mi].plan_indexed(t, sensors, &costs, mi, &mut placeholder, Some(index))
        });
        for query in plans.iter_mut().flat_map(|plan| &mut plan.queries) {
            self.next_query_id += 1;
            query.id = QueryId(self.next_query_id);
            queries.push(*query);
        }
        (queries, plans)
    }

    /// Algorithm 1 over `aggregates`, then `customs`, then `points` —
    /// the valuation order that indexes the returned payments.
    fn select(
        &self,
        aggregates: &mut [AggregateValuation],
        customs: &mut [(QueryId, Box<dyn SetValuation + 's>)],
        points: &mut [PointValuation],
        sensors: &[SensorSnapshot],
        index: &SensorIndex,
    ) -> GreedySelection {
        let mut vals: Vec<&mut dyn SetValuation> =
            Vec::with_capacity(aggregates.len() + customs.len() + points.len());
        for v in aggregates {
            vals.push(v);
        }
        for (_, v) in customs {
            vals.push(v.as_mut());
        }
        for v in points {
            vals.push(v);
        }
        greedy_select(&mut vals, sensors, index, self.threads)
    }

    /// Records the set-valued results of an Algorithm 1 run whose
    /// valuations were ordered aggregates, then customs (`ids` in the
    /// same order): each query's Eq. 11 payments go into the ledger and
    /// its [`SetQueryResult`] into the report. Welfare is left to the
    /// caller, which owns its summation order.
    fn record_set_results(
        selection: &GreedySelection,
        sensors: &[SensorSnapshot],
        ids: &[QueryId],
        aggregates: &[AggregateValuation],
        customs: &[(QueryId, Box<dyn SetValuation + 's>)],
        report: &mut SlotReport,
    ) {
        let vals = aggregates
            .iter()
            .map(|v| v as &dyn SetValuation)
            .chain(customs.iter().map(|(_, v)| v.as_ref() as &dyn SetValuation));
        for (idx, v) in vals.enumerate() {
            let payments = &selection.per_query_payments[idx];
            let mut paid = 0.0;
            for &(si, pay) in payments {
                report.ledger.record(ids[idx], sensors[si].id, pay);
                paid += pay;
            }
            let result = SetQueryResult {
                id: ids[idx],
                value: v.current_value(),
                paid,
                sensors: payments.iter().map(|&(si, _)| si).collect(),
            };
            report.push_set_result(result, (idx < aggregates.len()).then(|| v.max_value()));
        }
    }

    /// Routes every point query's answer by the query's origin:
    /// end-user answers become the report's point results, with their
    /// values added to welfare; location monitors apply their samples,
    /// with the monitor's value change added to welfare — both in query
    /// order; region-monitor readings are returned per monitor, for
    /// [`Aggregator::apply_region_sharing`].
    fn route_points(
        &mut self,
        t: Slot,
        sensors: &[SensorSnapshot],
        queries: &[PointQuery],
        answers: impl Iterator<Item = PointResult>,
        report: &mut SlotReport,
    ) -> Vec<Vec<(SensorSnapshot, f64)>> {
        let mut rm_satisfied = vec![Vec::new(); self.region_monitors.len()];
        for (q, a) in queries.iter().zip(answers) {
            match q.origin {
                QueryOrigin::EndUser => {
                    report.welfare += a.value;
                    if a.value > 0.0 {
                        report.breakdown.point_satisfied += 1;
                        report.breakdown.point_quality_sum += a.value / q.max_value();
                    }
                    report.point_results.push(a);
                }
                QueryOrigin::LocationMonitor { monitor } => {
                    let m = &mut self.location_monitors[monitor];
                    let before = m.value();
                    if a.value > 0.0 {
                        m.apply_result(t, Some((a.quality, a.paid)));
                        report.breakdown.monitor_samples += 1;
                    }
                    report.welfare += m.value() - before;
                }
                QueryOrigin::RegionMonitor { monitor, .. } => {
                    if a.value > 0.0 {
                        let si = a.sensor.expect("an answered query has a serving sensor");
                        rm_satisfied[monitor].push((sensors[si], a.paid));
                    }
                }
            }
        }
        rm_satisfied
    }

    /// Applies each active region monitor's slot results and, when
    /// sharing is on, lets it free-ride on `candidates` (sensors bought
    /// for other queries, Algorithm 3's `A_{r,t}`), charging its
    /// contribution and refunding the original payers (Algorithm 5's
    /// payment adjustment) in the ledger and in their results' `paid`.
    /// Adds the monitors' welfare delta to the report.
    ///
    /// `rm` pairs the per-monitor satisfied lists with the slot plans;
    /// `refund_src` pairs the per-query payment lists with their query
    /// ids.
    fn apply_region_sharing(
        &mut self,
        t: Slot,
        sensors: &[SensorSnapshot],
        candidates: &[SensorSnapshot],
        rm: RegionSlotState<'_>,
        refund_src: RefundSource<'_>,
        report: &mut SlotReport,
    ) {
        let (rm_satisfied, rm_plans) = rm;
        let (per_query_payments, ids) = refund_src;
        let mut welfare = 0.0;
        let mut refunds: Vec<(QueryId, f64)> = Vec::new();
        for (mi, m) in self.region_monitors.iter_mut().enumerate() {
            if !m.is_active(t) {
                continue;
            }
            let before = m.value();
            let shared: Vec<SensorSnapshot> = if self.share_sensors {
                let served: HashSet<usize> = rm_satisfied[mi].iter().map(|(s, _)| s.id).collect();
                candidates
                    .iter()
                    .filter(|s| m.region.contains(s.loc) && !served.contains(&s.id))
                    .copied()
                    .collect()
            } else {
                Vec::new()
            };
            let contributions = m.apply_results(&rm_satisfied[mi], &rm_plans[mi], &shared);
            for (sensor_id, contribution) in contributions {
                // Sensor-attributed: if a settlement pass later unwinds
                // this sensor (`Ledger::strip_sensor`), the monitor's
                // contribution is refunded along with the payers' net
                // payments, keeping the merged ledger balanced per query.
                report.ledger.charge_for(m.id, sensor_id, contribution);
                let shares =
                    proportional_refunds(per_query_payments, ids, sensors, sensor_id, contribution);
                for (qid, amount) in shares {
                    report.ledger.refund_for(qid, sensor_id, amount);
                    refunds.push((qid, amount));
                }
            }
            welfare += m.value() - before;
        }
        report.welfare += welfare;
        report.apply_refunds(&refunds);
    }

    /// Algorithm 5 with joint Algorithm 1 selection over every query type.
    ///
    /// `prebought` lists snapshot indices the caller already bought this
    /// slot (the online auction's boundary stage): those sensors arrive
    /// here cost-discounted to 0, are excluded from the report's
    /// `sensors_used` (the caller owns them), and are not region-sharing
    /// candidates — a free-riding contribution must have payers to
    /// refund. The batch path passes an empty set, making every one of
    /// those filters a no-op.
    #[allow(clippy::too_many_arguments)]
    fn step_alg5(
        &mut self,
        t: Slot,
        sensors: &[SensorSnapshot],
        points: Vec<PointQuery>,
        aggregates: Vec<AggregateQuery>,
        mut customs: Vec<(QueryId, Box<dyn SetValuation + 's>)>,
        index: &SensorIndex,
        prebought: &HashSet<usize>,
    ) -> SlotReport {
        let mut report = SlotReport::blank(t, points.len(), aggregates.len());
        let (queries, rm_plans) = self.point_workload(t, sensors, points, index, false, true);

        // Joint sensor selection (Algorithm 1). Valuation order (and
        // payment indices): aggregates, customs, then point queries of
        // all origins.
        let mut agg_vals: Vec<AggregateValuation> = aggregates
            .iter()
            .map(|q| AggregateValuation::new(q, self.sensing_range))
            .collect();
        let mut point_vals: Vec<PointValuation> = queries
            .iter()
            .map(|&q| PointValuation::new(q, self.quality))
            .collect();
        let ids: Vec<QueryId> = aggregates
            .iter()
            .map(|q| q.id)
            .chain(customs.iter().map(|(id, _)| *id))
            .chain(queries.iter().map(|q| q.id))
            .collect();
        let selection = self.select(&mut agg_vals, &mut customs, &mut point_vals, sensors, index);

        report.welfare = -selection.total_cost;
        Self::record_set_results(&selection, sensors, &ids, &agg_vals, &customs, &mut report);
        let set_results = report
            .aggregate_results
            .iter()
            .chain(&report.custom_results);
        for r in set_results {
            report.welfare += r.value;
        }
        let point_payments = &selection.per_query_payments[agg_vals.len() + customs.len()..];
        for (q, payments) in queries.iter().zip(point_payments) {
            for &(si, pay) in payments {
                report.ledger.record(q.id, sensors[si].id, pay);
            }
        }

        // Algorithm 1 commits a point query only with a positive
        // marginal, and every such commit raises its value, so the last
        // payment entry (a 0 one for a pre-bought sensor) names the
        // serving sensor's snapshot index.
        let answers = point_vals.iter().zip(point_payments).map(|(v, payments)| {
            let sensor = payments.last().map(|&(si, _)| si);
            debug_assert_eq!(sensor.map(|si| sensors[si].id), v.best_sensor());
            PointResult {
                id: v.query().id,
                value: v.current_value(),
                paid: payments.iter().map(|&(_, p)| p).sum(),
                quality: v.best_quality(),
                sensor,
            }
        });
        let rm_satisfied = self.route_points(t, sensors, &queries, answers, &mut report);

        let selected_snapshots: Vec<SensorSnapshot> = selection
            .selected
            .iter()
            .filter(|si| !prebought.contains(si))
            .map(|&si| sensors[si])
            .collect();
        self.apply_region_sharing(
            t,
            sensors,
            &selected_snapshots,
            (&rm_satisfied, &rm_plans),
            (&selection.per_query_payments, &ids),
            &mut report,
        );
        report.sensors_used = selection
            .selected
            .into_iter()
            .filter(|si| !prebought.contains(si))
            .collect();
        report
    }

    /// The quality-adaptive online double auction over one slot's event
    /// stream (`MixStrategy::OnlineAuction`, no dedicated scheduler).
    ///
    /// Arrival-time clearing: an arriving point query is matched
    /// immediately to the in-range sensor offering the highest surplus
    /// (value of quality minus the sensor's remaining price — the first
    /// buyer pays the announced cost, later queries reuse the buffered
    /// reading free), or joins a waiting book; an arriving sensor is
    /// offered, in arrival order, to every waiting point in its `d_max`
    /// disk whose surplus with it is positive. Both disks are answered by
    /// the slot's two [`SensorIndex`]es, one over its sensors and one over
    /// its point queries; the Eq. 4 quality, zero past `d_max`, decides
    /// which answers can match. Aggregates, monitors, and custom valuations
    /// wait for the slot boundary, where everything still open — plus
    /// the unmatched points — clears through the ordinary Algorithm 5
    /// batch with the online-bought sensors cost-discounted to 0 (their
    /// data is buffered, exactly as in the staged path).
    ///
    /// Money stays conserved: the online ledger holds exactly one
    /// full-cost receipt per bought sensor, the boundary stage sees
    /// those sensors at cost 0 and excludes them from region sharing,
    /// and the merged slot ledger is budget-balanced and
    /// cost-recovering (proptested in `tests/streaming_equivalence.rs`).
    fn step_online<'e>(
        &mut self,
        t: Slot,
        events: impl IntoIterator<Item = &'e ArrivalEvent>,
    ) -> SlotReport {
        let tps = DEFAULT_TICKS_PER_SLOT;
        let mut online = OnlineOutcome::default();
        // One entry per point arrival: the waiter, until a sensor serves it.
        let mut waiting: Vec<Option<Waiter>> = Vec::new();
        let mut aggregates: Vec<AggregateQuery> = Vec::new();
        let mut stats = StreamStats::default();

        // Pending one-shot queries submitted before the slot started are
        // tick-0 arrivals preceding the event stream — this is what makes
        // the batch `step` (sensor-only events) literally this code path.
        let pending_points = std::mem::take(&mut self.pending_points);
        let pending_aggregates = std::mem::take(&mut self.pending_aggregates);
        enum Arrival {
            Point(PointQuery),
            Aggregate(AggregateQuery),
            Monitor,
            Sensor(SensorSnapshot),
        }
        let mut process: Vec<(u64, Arrival)> = Vec::new();
        for q in pending_points {
            process.push((0, Arrival::Point(q)));
        }
        for q in pending_aggregates {
            process.push((0, Arrival::Aggregate(q)));
        }
        for ev in events {
            let tick = ev.tick.min(tps);
            let arrival = match &ev.payload {
                ArrivalPayload::Point(spec) => Arrival::Point(self.point_query(spec)),
                ArrivalPayload::Aggregate(spec) => Arrival::Aggregate(self.aggregate_query(spec)),
                ArrivalPayload::LocationMonitor(spec) => {
                    self.submit_location_monitor((**spec).clone());
                    Arrival::Monitor
                }
                ArrivalPayload::RegionMonitor(spec) => {
                    self.submit_region_monitor((**spec).clone());
                    Arrival::Monitor
                }
                ArrivalPayload::Sensor(s) => Arrival::Sensor(*s),
            };
            process.push((tick, arrival));
        }

        // Every arrival is known up front: index the slot's sensors and
        // its point queries, each numbered in arrival order, for the
        // `d_max` disks below (Eq. 4 quality is 0 beyond `d_max`). The
        // sensors and their bought flags stay plain locals: kept inside
        // `OnlineOutcome`, they made perfbench's city_online slot 1.8×
        // slower.
        let (mut sensors, mut point_locs) = (Vec::new(), Vec::new());
        for (_, arrival) in &process {
            match arrival {
                Arrival::Point(q) => point_locs.push(q.loc),
                Arrival::Sensor(s) => sensors.push(*s),
                _ => {}
            }
        }
        let sensor_index = self.build_index(&sensors.iter().map(|s| s.loc).collect::<Vec<_>>());
        let point_index = self.build_index(&point_locs);
        let mut bought = vec![false; sensors.len()];
        let mut near: Vec<usize> = Vec::new();

        for (tick, arrival) in process {
            match arrival {
                Arrival::Point(q) => {
                    stats.query_arrivals += 1;
                    let w = Waiter {
                        query: q,
                        slot: online.results.len(),
                        oneshot: online.arrival_ticks.len(),
                    };
                    online.results.push(None);
                    online.arrival_ticks.push(tick);
                    online.decisions.push(None);
                    // Best-surplus match among the arrived sensors in the
                    // disk: it is ascending, so they are a prefix, and
                    // strict `>` gives ties to the earliest-arrived sensor.
                    sensor_index.query_disk_into(q.loc, self.quality.d_max, &mut near);
                    let mut best: Option<(f64, usize, f64)> = None;
                    for &si in near.iter().take_while(|&&si| si < stats.sensor_arrivals) {
                        let theta = self.quality.quality(&sensors[si], q.loc);
                        let value = q.value_of_quality(theta);
                        if value <= 0.0 {
                            continue;
                        }
                        let price = if bought[si] { 0.0 } else { sensors[si].cost };
                        let surplus = value - price;
                        if surplus > 1e-9 && best.is_none_or(|(b, _, _)| surplus > b) {
                            best = Some((surplus, si, theta));
                        }
                    }
                    waiting.push(match best {
                        Some((_, si, theta)) => {
                            online.commit(&w, tick, si, &sensors[si], &mut bought[si], theta);
                            None
                        }
                        None => Some(w),
                    });
                }
                Arrival::Aggregate(q) => {
                    stats.query_arrivals += 1;
                    online.arrival_ticks.push(tick);
                    online.decisions.push(None);
                    aggregates.push(q);
                }
                Arrival::Monitor => stats.query_arrivals += 1,
                Arrival::Sensor(s) => {
                    let si = stats.sensor_arrivals;
                    stats.sensor_arrivals += 1;
                    // Offer it to the arrived, still-waiting points in its
                    // disk in arrival order; earlier waiters buy first
                    // (and later ones then see the reading free).
                    point_index.query_disk_into(s.loc, self.quality.d_max, &mut near);
                    for &pi in &near {
                        if let Some(Some(w)) = waiting.get(pi) {
                            let theta = self.quality.quality(&s, w.query.loc);
                            let value = w.query.value_of_quality(theta);
                            let price = if bought[si] { 0.0 } else { s.cost };
                            if value > 0.0 && value - price > 1e-9 {
                                online.commit(w, tick, si, &s, &mut bought[si], theta);
                                waiting[pi] = None;
                            }
                        }
                    }
                }
            }
        }

        // ── Boundary: everything still open clears through Algorithm 5
        // with the online-bought sensors cost-discounted; repricing moves
        // no sensor, so the sensor index above serves this stage too. ──
        let customs = std::mem::take(&mut self.pending_customs);
        let mut sensors_used: Vec<usize> = (0..sensors.len()).filter(|&si| bought[si]).collect();
        let prebought: HashSet<usize> = sensors_used.iter().copied().collect();
        let boundary_sensors = priced_at_zero(&sensors, |si| bought[si]);
        let waiting: Vec<Waiter> = waiting.into_iter().flatten().collect();
        let leftover_points: Vec<PointQuery> = waiting.iter().map(|w| w.query).collect();
        let total_aggregates = aggregates.len();
        let mut report = self.step_alg5(
            t,
            &boundary_sensors,
            leftover_points,
            aggregates,
            customs,
            &sensor_index,
            &prebought,
        );

        // Merge the online phase into the boundary report.
        report.welfare += online.welfare;
        report.ledger.absorb(&online.ledger);
        let boundary_results = std::mem::take(&mut report.point_results);
        for (res, w) in boundary_results.into_iter().zip(&waiting) {
            online.results[w.slot] = Some(res);
        }
        report.breakdown.point_total = online.results.len();
        report.point_results = online
            .results
            .into_iter()
            .map(|r| r.expect("every point arrival has a result"))
            .collect();
        report.breakdown.point_satisfied += online.matched;
        report.breakdown.point_quality_sum += online.quality_sum;
        report.breakdown.aggregate_total = total_aggregates;
        sensors_used.append(&mut report.sensors_used);
        report.sensors_used = sensors_used;

        stats.matched_at_arrival = online.matched;
        stats.decision_ticks = online
            .decisions
            .into_iter()
            .zip(&online.arrival_ticks)
            .map(|(d, &arrived)| d.unwrap_or(tps - arrived))
            .collect();
        report.streaming = Some(stats);
        report
    }

    /// The staged path (§4.5–§4.7): the set-valued queries run first,
    /// then the whole point workload — end-user and monitor-generated —
    /// through one [`PointScheduler`], with the sensors the set stage
    /// bought priced at 0 (their data is buffered), so no sensor is
    /// charged twice in one slot.
    ///
    /// With a configured scheduler the set stage is one Algorithm 1 run
    /// over the aggregates and custom valuations. Without one this is
    /// the §4.7 baseline: the set stage takes those queries one at a
    /// time, the point scheduler is [`BaselinePointScheduler`], regions
    /// plan at raw cost, and no region monitor free-rides.
    fn step_staged(
        &mut self,
        t: Slot,
        sensors: &[SensorSnapshot],
        points: Vec<PointQuery>,
        aggregates: Vec<AggregateQuery>,
        mut customs: Vec<(QueryId, Box<dyn SetValuation + 's>)>,
        index: &SensorIndex,
    ) -> SlotReport {
        let baseline = self.scheduler.is_none();
        let mut report = SlotReport::blank(t, points.len(), aggregates.len());

        // Stage A: the set-valued queries.
        let mut agg_vals: Vec<AggregateValuation> = aggregates
            .iter()
            .map(|q| AggregateValuation::new(q, self.sensing_range))
            .collect();
        let ids: Vec<QueryId> = aggregates
            .iter()
            .map(|q| q.id)
            .chain(customs.iter().map(|(id, _)| *id))
            .collect();
        if baseline {
            let na = agg_vals.len();
            let mut bought = vec![false; sensors.len()];
            let vals = agg_vals
                .iter_mut()
                .map(|v| v as &mut dyn SetValuation)
                .chain(
                    customs
                        .iter_mut()
                        .map(|(_, v)| v.as_mut() as &mut dyn SetValuation),
                );
            for (idx, v) in vals.enumerate() {
                let out = baseline_select_for_query(&mut *v, sensors, &mut bought, index);
                report.welfare += out.value - out.cost;
                for &si in &out.newly_selected {
                    report
                        .ledger
                        .record(ids[idx], sensors[si].id, sensors[si].cost);
                    report.sensors_used.push(si);
                }
                let result = SetQueryResult {
                    id: ids[idx],
                    value: out.value,
                    paid: out.cost,
                    sensors: out.sensors,
                };
                report.push_set_result(result, (idx < na).then(|| v.max_value()));
            }
        } else if !ids.is_empty() {
            let selection = self.select(&mut agg_vals, &mut customs, &mut [], sensors, index);
            report.welfare += selection.welfare;
            Self::record_set_results(&selection, sensors, &ids, &agg_vals, &customs, &mut report);
            report.sensors_used = selection.selected;
        }

        // Stage B: the point workload through the point scheduler.
        let desired_times_only = self.strategy == MixStrategy::SequentialBaseline;
        let (queries, rm_plans) =
            self.point_workload(t, sensors, points, index, desired_times_only, !baseline);
        let prebought: HashSet<usize> = report.sensors_used.iter().copied().collect();
        let scheduler = self.scheduler.as_deref().unwrap_or(&BaselinePointScheduler);
        // Sensor locations are unchanged by the discount, so the slot's
        // index stays valid for both branches.
        let alloc = if prebought.is_empty() {
            scheduler.schedule_sharded(&queries, sensors, &self.quality, Some(index), self.threads)
        } else {
            let discounted = priced_at_zero(sensors, |si| prebought.contains(&si));
            scheduler.schedule_sharded(
                &queries,
                &discounted,
                &self.quality,
                Some(index),
                self.threads,
            )
        };
        report.welfare -= alloc.total_sensor_cost;

        // Solver metrics: welfare and bound are paired per slot so the
        // accumulated optimality gap compares like with like.
        if let Some(bound) = alloc.lp_bound {
            report.breakdown.point_sched_welfare += alloc.welfare;
            report.breakdown.point_lp_bound += bound;
            report.breakdown.bound_known_slots += 1;
        }
        if alloc.solve_status == Some(ps_solver::SolveStatus::LimitReached) {
            report.breakdown.limited_slots += 1;
        }

        let mut per_query_payments: Vec<Vec<(usize, f64)>> = Vec::with_capacity(queries.len());
        for (q, a) in queries.iter().zip(&alloc.assignments) {
            per_query_payments.push(match a {
                Some(a) if a.payment > 0.0 => {
                    report.ledger.record(q.id, sensors[a.sensor].id, a.payment);
                    vec![(a.sensor, a.payment)]
                }
                _ => Vec::new(),
            });
        }
        let answers = queries
            .iter()
            .zip(&alloc.assignments)
            .map(|(q, a)| match *a {
                Some(a) => PointResult {
                    id: q.id,
                    value: a.value,
                    paid: a.payment,
                    quality: a.quality,
                    sensor: Some(a.sensor),
                },
                None => PointResult {
                    id: q.id,
                    value: 0.0,
                    paid: 0.0,
                    quality: 0.0,
                    sensor: None,
                },
            });
        let rm_satisfied = self.route_points(t, sensors, &queries, answers, &mut report);

        // Region monitors: apply + optional A_{r,t} free-riding with the
        // Algorithm 5 payment adjustment. Only sensors the point stage
        // actually paid for are sharing candidates — a contribution must
        // have payers to refund (pre-bought sensors ride free already).
        let candidates: Vec<SensorSnapshot> = if baseline {
            Vec::new()
        } else {
            let paid: HashSet<usize> = per_query_payments
                .iter()
                .flatten()
                .map(|&(si, _)| si)
                .collect();
            alloc
                .sensors_used
                .iter()
                .filter(|si| paid.contains(si))
                .map(|&si| sensors[si])
                .collect()
        };
        let query_ids: Vec<QueryId> = queries.iter().map(|q| q.id).collect();
        self.apply_region_sharing(
            t,
            sensors,
            &candidates,
            (&rm_satisfied, &rm_plans),
            (&per_query_payments, &query_ids),
            &mut report,
        );
        report.sensors_used.extend(
            alloc
                .sensors_used
                .iter()
                .filter(|si| !prebought.contains(si))
                .copied(),
        );
        report
    }
}

impl SlotReport {
    /// An empty report for `slot` that counts its one-shot queries — the
    /// start of every batch path.
    fn blank(slot: Slot, point_total: usize, aggregate_total: usize) -> Self {
        SlotReport {
            slot,
            welfare: 0.0,
            breakdown: MixBreakdown {
                point_total,
                aggregate_total,
                ..MixBreakdown::default()
            },
            ledger: Ledger::new(),
            sensors_used: Vec::new(),
            point_results: Vec::new(),
            aggregate_results: Vec::new(),
            custom_results: Vec::new(),
            streaming: None,
        }
    }

    /// Subtracts `refunds` (query, amount) from the `paid` fields of the
    /// results they belong to, so each result keeps reporting its
    /// query's ledger payment. Ids without a result (monitor-generated
    /// queries, sharing contributors) live only in the ledger. The
    /// id → result map is built only when there are refunds, so this
    /// stays O(results + refunds).
    pub fn apply_refunds(&mut self, refunds: &[(QueryId, f64)]) {
        if refunds.is_empty() {
            return;
        }
        let mut slots: HashMap<QueryId, (u8, usize)> = HashMap::new();
        for (i, r) in self.point_results.iter().enumerate() {
            slots.insert(r.id, (0, i));
        }
        for (i, r) in self.aggregate_results.iter().enumerate() {
            slots.insert(r.id, (1, i));
        }
        for (i, r) in self.custom_results.iter().enumerate() {
            slots.insert(r.id, (2, i));
        }
        for &(qid, amount) in refunds {
            match slots.get(&qid) {
                Some(&(0, i)) => self.point_results[i].paid -= amount,
                Some(&(1, i)) => self.aggregate_results[i].paid -= amount,
                Some(&(2, i)) => self.custom_results[i].paid -= amount,
                _ => {}
            }
        }
    }

    /// Files a set-valued query's result: an aggregate's (counted in the
    /// breakdown against `aggregate_budget`) or a custom valuation's.
    fn push_set_result(&mut self, result: SetQueryResult, aggregate_budget: Option<f64>) {
        let Some(budget) = aggregate_budget else {
            self.custom_results.push(result);
            return;
        };
        if result.value > 0.0 {
            self.breakdown.aggregate_answered += 1;
            self.breakdown.aggregate_quality_sum += result.value / budget;
        }
        self.aggregate_results.push(result);
    }
}

/// A point query in the online auction's waiting book, with its result
/// slot and its index among the slot's one-shot arrivals.
struct Waiter {
    query: PointQuery,
    slot: usize,
    oneshot: usize,
}

/// What the online auction decided before the slot boundary.
#[derive(Default)]
struct OnlineOutcome {
    /// One full-cost receipt per sensor bought online.
    ledger: Ledger,
    welfare: f64,
    /// Point queries matched before the boundary.
    matched: usize,
    /// Σ quality-of-results (`v/B`) over the matched point queries.
    quality_sum: f64,
    /// One result per point arrival; the matched ones are filled online.
    results: Vec<Option<PointResult>>,
    /// Arrival tick of every one-shot query (points and aggregates)…
    arrival_ticks: Vec<u64>,
    /// …and its decision latency, when matched before the boundary.
    decisions: Vec<Option<u64>>,
}

impl OnlineOutcome {
    /// Matches `w` to snapshot `si` (`sensor`) at `tick` with reading
    /// quality `theta`: the first buyer pays the full cost and sets
    /// `bought`; later buyers reuse the buffered reading free.
    fn commit(
        &mut self,
        w: &Waiter,
        tick: u64,
        si: usize,
        sensor: &SensorSnapshot,
        bought: &mut bool,
        theta: f64,
    ) {
        let q = &w.query;
        let value = q.value_of_quality(theta);
        let price = if *bought { 0.0 } else { sensor.cost };
        if !*bought {
            *bought = true;
            self.welfare -= sensor.cost;
        }
        if price > 0.0 {
            self.ledger.record(q.id, sensor.id, price);
        }
        self.welfare += value;
        self.matched += 1;
        self.quality_sum += value / q.max_value();
        self.results[w.slot] = Some(PointResult {
            id: q.id,
            value,
            paid: price,
            quality: theta,
            sensor: Some(si),
        });
        self.decisions[w.oneshot] = Some(tick.saturating_sub(self.arrival_ticks[w.oneshot]));
    }
}

/// `sensors` with the ones `free` marks priced at 0: bought earlier in
/// the slot, their data is buffered.
fn priced_at_zero(sensors: &[SensorSnapshot], free: impl Fn(usize) -> bool) -> Vec<SensorSnapshot> {
    sensors
        .iter()
        .enumerate()
        .map(|(si, s)| SensorSnapshot {
            cost: if free(si) { 0.0 } else { s.cost },
            ..*s
        })
        .collect()
}

/// Splits `amount` back to the queries that paid for `sensor_id`,
/// proportionally to their payments. `ids[i]` is the query behind
/// `per_query_payments[i]`.
fn proportional_refunds(
    per_query_payments: &[Vec<(usize, f64)>],
    ids: &[QueryId],
    sensors: &[SensorSnapshot],
    sensor_id: usize,
    amount: f64,
) -> Vec<(QueryId, f64)> {
    let mut payers: Vec<(QueryId, f64)> = Vec::new();
    for (qi, pays) in per_query_payments.iter().enumerate() {
        for &(si, p) in pays {
            if sensors[si].id == sensor_id && p > 0.0 {
                payers.push((ids[qi], p));
            }
        }
    }
    let total: f64 = payers.iter().map(|&(_, p)| p).sum();
    if total <= 1e-12 {
        return Vec::new();
    }
    payers
        .into_iter()
        .map(|(qid, p)| (qid, amount * p / total))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::optimal::OptimalScheduler;
    use crate::valuation::monitoring::MonitoringContext;
    use ps_gp::kernel::SquaredExponential;
    use ps_stats::regression::DiurnalBasis;
    use ps_stats::TimeSeries;
    use std::sync::Arc;

    fn quality() -> QualityModel {
        QualityModel::new(5.0)
    }

    fn sensor(id: usize, x: f64, y: f64) -> SensorSnapshot {
        SensorSnapshot {
            id,
            loc: Point::new(x, y),
            cost: 10.0,
            trust: 1.0,
            inaccuracy: 0.0,
        }
    }

    fn point_spec(x: f64, y: f64, budget: f64) -> PointSpec {
        PointSpec {
            loc: Point::new(x, y),
            budget,
            theta_min: 0.2,
        }
    }

    fn monitoring_ctx() -> Arc<MonitoringContext> {
        let times: Vec<f64> = (0..100).map(|i| i as f64 - 100.0).collect();
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

    fn location_spec(loc: Point, budget: f64) -> LocationMonitorSpec {
        LocationMonitorSpec {
            loc,
            t1: 0,
            t2: 10,
            alpha: 0.5,
            theta_min: 0.2,
            valuation: MonitoringValuation::new(monitoring_ctx(), budget, vec![0.0, 3.0, 6.0]),
        }
    }

    fn region_spec(region: Rect, budget: f64) -> RegionMonitorSpec {
        RegionMonitorSpec {
            t1: 0,
            t2: 10,
            alpha: 0.5,
            theta_min: 0.2,
            valuation: RegionValuation::new(
                budget,
                region,
                &SquaredExponential::new(2.0, 2.0),
                0.1,
            ),
        }
    }

    #[test]
    fn minted_ids_are_unique_and_monotone() {
        let mut engine = AggregatorBuilder::new(quality()).next_query_id(100).build();
        let a = engine.submit_point(point_spec(1.0, 1.0, 10.0));
        let b = engine.submit_aggregate(AggregateSpec {
            region: Rect::new(0.0, 0.0, 5.0, 5.0),
            budget: 20.0,
            kind: AggregateKind::Average,
        });
        let c = engine.submit_location_monitor(location_spec(Point::new(1.0, 1.0), 50.0));
        assert_eq!(a, QueryId(101));
        assert_eq!(b, QueryId(102));
        assert_eq!(c, QueryId(103));
        assert_eq!(engine.next_query_id(), 103);
    }

    #[test]
    fn shared_point_queries_split_one_sensor() {
        let sensors = vec![sensor(0, 5.0, 5.0), sensor(1, 12.0, 5.0)];
        let mut engine = AggregatorBuilder::new(quality()).build();
        let q1 = engine.submit_point(point_spec(5.0, 5.0, 12.0));
        let q2 = engine.submit_point(point_spec(5.0, 5.0, 12.0));
        let report = engine.step(0, &sensors);
        assert_eq!(report.breakdown.point_satisfied, 2);
        assert_eq!(report.sensors_used.len(), 1);
        assert!(report.welfare > 0.0);
        // Both queries split the 10-cost sensor.
        let paid: f64 = report.ledger.query_payment(q1) + report.ledger.query_payment(q2);
        assert!((paid - 10.0).abs() < 1e-9);
        assert_eq!(report.point_results.len(), 2);
        assert_eq!(report.point_results[0].id, q1);
        assert_eq!(report.point_results[0].sensor, Some(0));
    }

    #[test]
    fn pending_queries_are_consumed_by_exactly_one_step() {
        let sensors = vec![sensor(0, 5.0, 5.0)];
        let mut engine = AggregatorBuilder::new(quality()).build();
        engine.submit_point(point_spec(5.0, 5.0, 20.0));
        let first = engine.step(0, &sensors);
        assert_eq!(first.breakdown.point_total, 1);
        let second = engine.step(1, &sensors);
        assert_eq!(second.breakdown.point_total, 0);
        assert_eq!(second.welfare, 0.0);
    }

    #[test]
    fn monitors_activate_sample_and_retire() {
        let sensors = vec![sensor(0, 5.0, 5.0)];
        let mut engine = AggregatorBuilder::new(quality()).build();
        let mut spec = location_spec(Point::new(5.0, 5.0), 100.0);
        spec.t2 = 3;
        let id = engine.submit_location_monitor(spec);
        for t in 0..=3 {
            engine.step(t, &sensors);
        }
        assert!(engine.location_monitors().is_empty(), "monitor must retire");
        assert_eq!(engine.retired_monitors().len(), 1);
        let retired = &engine.retired_monitors()[0];
        assert_eq!(retired.id(), id);
        assert!(retired.value() > 0.0);
        assert!(engine.totals().breakdown.monitor_samples >= 1);
        assert_eq!(engine.totals().monitors_retired, 1);
    }

    #[test]
    fn every_slot_ledger_recovers_sensor_costs() {
        let sensors: Vec<SensorSnapshot> = (0..4)
            .map(|i| sensor(i, 2.0 + 4.0 * i as f64, 5.0))
            .collect();
        let mut engine = AggregatorBuilder::new(quality()).build();
        for t in 0..3 {
            for i in 0..4 {
                engine.submit_point(point_spec(2.0 + 4.0 * i as f64, 5.0, 25.0));
            }
            let report = engine.step(t, &sensors);
            // Per-slot invariant: each used sensor recovers its cost.
            report
                .ledger
                .verify_cost_recovery(|_| 10.0, 1e-6)
                .unwrap_or_else(|e| panic!("slot {t}: {e}"));
        }
    }

    #[test]
    fn region_contributions_keep_the_ledger_balanced() {
        let region = Rect::new(0.0, 0.0, 8.0, 8.0);
        let sensors = vec![sensor(0, 4.0, 4.0), sensor(1, 2.0, 6.0)];
        let mut engine = AggregatorBuilder::new(quality()).build();
        engine.submit_region_monitor(region_spec(region, 80.0));
        engine.submit_region_monitor(region_spec(region, 80.0));
        for t in 0..3 {
            let report = engine.step(t, &sensors);
            assert!(
                (report.ledger.total_receipts() - report.ledger.total_payments()).abs() < 1e-6,
                "slot {t}: receipts {} != payments {}",
                report.ledger.total_receipts(),
                report.ledger.total_payments()
            );
            report
                .ledger
                .verify_cost_recovery(|_| 10.0, 1e-6)
                .expect("cost recovery with sharing contributions");
        }
        let total_value: f64 = engine.region_monitors().iter().map(|m| m.value()).sum();
        assert!(total_value > 0.0);
    }

    #[test]
    fn scheduler_path_matches_direct_scheduling() {
        let sensors: Vec<SensorSnapshot> = (0..3)
            .map(|i| sensor(i, 2.0 + 4.0 * i as f64, 5.0))
            .collect();
        let specs: Vec<PointSpec> = (0..5)
            .map(|i| point_spec(2.0 + 4.0 * (i % 3) as f64, 5.0, 18.0))
            .collect();
        let mut engine = AggregatorBuilder::new(quality())
            .scheduler(OptimalScheduler::new())
            .build();
        let queries: Vec<PointQuery> = specs
            .iter()
            .map(|s| {
                let id = engine.submit_point(*s);
                PointQuery {
                    id,
                    loc: s.loc,
                    budget: s.budget,
                    offset: 0.0,
                    theta_min: s.theta_min,
                    origin: QueryOrigin::EndUser,
                }
            })
            .collect();
        let report = engine.step(0, &sensors);
        let direct = OptimalScheduler::new().schedule(&queries, &sensors, &quality());
        assert!((report.welfare - direct.welfare).abs() < 1e-9);
        assert_eq!(report.breakdown.point_satisfied, direct.satisfied_count());
        assert_eq!(report.sensors_used.len(), direct.sensors_used.len());
    }

    #[test]
    fn scheduler_path_does_not_double_charge_aggregate_bought_sensors() {
        // One sensor serves both an aggregate (set-valued stage) and a
        // co-located point query (scheduler stage): the point stage must
        // treat it as already bought — one receipt, one cost in welfare.
        let sensors = vec![sensor(0, 5.0, 5.0)];
        let mut engine = AggregatorBuilder::new(quality())
            .scheduler(OptimalScheduler::new())
            .sensing_range(10.0)
            .build();
        engine.submit_aggregate(AggregateSpec {
            region: Rect::new(0.0, 0.0, 10.0, 10.0),
            budget: 50.0,
            kind: AggregateKind::Average,
        });
        engine.submit_point(point_spec(5.0, 5.0, 20.0));
        let report = engine.step(0, &sensors);
        report
            .ledger
            .verify_cost_recovery(|_| 10.0, 1e-6)
            .expect("sensor charged exactly once");
        assert_eq!(report.sensors_used, vec![0], "no duplicate usage entry");
        assert_eq!(report.breakdown.point_satisfied, 1);
        assert_eq!(report.point_results[0].paid, 0.0, "buffered data is free");
        // Welfare: aggregate value + point value − one sensor cost.
        let expected = report.aggregate_results[0].value + report.point_results[0].value - 10.0;
        assert!((report.welfare - expected).abs() < 1e-9);
    }

    #[test]
    fn clear_retired_keeps_the_cumulative_count() {
        let sensors = vec![sensor(0, 5.0, 5.0)];
        let mut engine = AggregatorBuilder::new(quality()).build();
        let mut short = location_spec(Point::new(5.0, 5.0), 50.0);
        short.t2 = 0;
        engine.submit_location_monitor(short);
        engine.step(0, &sensors);
        assert_eq!(engine.totals().monitors_retired, 1);
        engine.clear_retired();
        let mut short2 = location_spec(Point::new(5.0, 5.0), 50.0);
        short2.t1 = 1;
        short2.t2 = 1;
        engine.submit_location_monitor(short2);
        engine.step(1, &sensors);
        assert_eq!(
            engine.totals().monitors_retired,
            2,
            "clear_retired must not reset the running count"
        );
    }

    #[test]
    fn custom_valuation_is_scheduled_jointly() {
        use crate::valuation::FnValuation;
        let sensors = vec![sensor(0, 2.0, 2.0), sensor(1, 8.0, 8.0)];
        let mut engine = AggregatorBuilder::new(quality()).build();
        // Pays 15 per distinct sensor committed, up to two.
        let id = engine.submit_valuation(FnValuation::new(
            |set: &[SensorSnapshot]| 15.0 * set.len().min(2) as f64,
            30.0,
        ));
        let report = engine.step(0, &sensors);
        assert_eq!(report.custom_results.len(), 1);
        let r = &report.custom_results[0];
        assert_eq!(r.id, id);
        assert_eq!(r.sensors.len(), 2);
        assert!((r.value - 30.0).abs() < 1e-9);
        assert!((r.paid - 20.0).abs() < 1e-9, "pays both sensor costs");
        assert!((report.welfare - 10.0).abs() < 1e-9);
    }

    #[test]
    fn alg5_engine_beats_baseline_engine_on_a_shared_slot() {
        let sensors = vec![
            sensor(0, 5.0, 5.0),
            sensor(1, 12.0, 5.0),
            sensor(2, 5.0, 12.0),
        ];
        let run = |strategy: MixStrategy| -> SlotReport {
            let mut engine = AggregatorBuilder::new(quality()).strategy(strategy).build();
            for _ in 0..6 {
                engine.submit_point(point_spec(5.0, 5.0, 7.0));
            }
            engine.submit_aggregate(AggregateSpec {
                region: Rect::new(0.0, 0.0, 15.0, 15.0),
                budget: 60.0,
                kind: AggregateKind::Average,
            });
            engine.step(0, &sensors)
        };
        let alg5 = run(MixStrategy::Alg5);
        let baseline = run(MixStrategy::SequentialBaseline);
        assert!(
            alg5.welfare >= baseline.welfare - 1e-9,
            "alg5 {} below baseline {}",
            alg5.welfare,
            baseline.welfare
        );
        assert!(alg5.breakdown.point_satisfied >= baseline.breakdown.point_satisfied);
        assert!(alg5.breakdown.point_satisfied > 0);
    }

    #[test]
    fn totals_accumulate_across_slots() {
        let sensors = vec![sensor(0, 5.0, 5.0)];
        let mut engine = AggregatorBuilder::new(quality()).build();
        let mut welfare = 0.0;
        for t in 0..4 {
            engine.submit_point(point_spec(5.0, 5.0, 20.0));
            welfare += engine.step(t, &sensors).welfare;
        }
        assert_eq!(engine.totals().slots, 4);
        assert!((engine.totals().welfare - welfare).abs() < 1e-9);
        assert_eq!(engine.totals().breakdown.point_total, 4);
    }

    #[test]
    fn streaming_totals_are_the_reports_summed() {
        for strategy in [MixStrategy::Alg5, MixStrategy::OnlineAuction] {
            let mut engine = AggregatorBuilder::new(quality()).strategy(strategy).build();
            let mut monitor = location_spec(Point::new(5.0, 5.0), 100.0);
            monitor.t2 = 1;
            engine.submit_location_monitor(monitor);
            let mut welfare = 0.0;
            let (mut points, mut satisfied, mut samples) = (0, 0, 0);
            for t in 0..3 {
                let events = vec![
                    ArrivalEvent::point(50, point_spec(5.0, 5.0, 20.0)),
                    ArrivalEvent::sensor(100 * t as u64, sensor(0, 5.0, 5.0)),
                    ArrivalEvent::sensor(200, sensor(1, 12.0, 5.0)),
                    ArrivalEvent::point(300, point_spec(12.0, 5.0, 20.0)),
                ];
                let report = engine.step_streaming(t, &events);
                welfare += report.welfare;
                points += report.breakdown.point_total;
                satisfied += report.breakdown.point_satisfied;
                samples += report.breakdown.monitor_samples;
            }
            let totals = engine.totals();
            assert_eq!(totals.slots, 3, "{strategy:?}");
            assert_eq!(totals.welfare, welfare, "{strategy:?}: welfare");
            assert!(welfare > 0.0, "{strategy:?}: nothing was bought");
            assert_eq!(totals.breakdown.point_total, points, "{strategy:?}");
            assert_eq!(totals.breakdown.point_satisfied, satisfied, "{strategy:?}");
            assert!(satisfied > 0, "{strategy:?}: no point answered");
            assert_eq!(totals.breakdown.monitor_samples, samples, "{strategy:?}");
            assert_eq!(totals.monitors_retired, 1, "{strategy:?}");
            assert!(engine.location_monitors().is_empty(), "{strategy:?}");
        }
    }

    #[test]
    fn batch_streaming_decides_every_query_at_the_boundary() {
        let mut engine = AggregatorBuilder::new(quality()).build();
        let events = vec![
            ArrivalEvent::aggregate(
                0,
                AggregateSpec {
                    region: Rect::new(0.0, 0.0, 10.0, 10.0),
                    budget: 50.0,
                    kind: AggregateKind::Average,
                },
            ),
            ArrivalEvent::sensor(100, sensor(0, 5.0, 5.0)),
            ArrivalEvent::point(250, point_spec(5.0, 5.0, 20.0)),
            // Past the slot's end: clamped to the boundary itself.
            ArrivalEvent::point(DEFAULT_TICKS_PER_SLOT + 500, point_spec(5.0, 5.0, 20.0)),
        ];
        let report = engine.step_streaming(0, &events);
        let stats = report.streaming.as_ref().expect("streaming entry point");
        assert_eq!(
            stats.decision_ticks,
            vec![DEFAULT_TICKS_PER_SLOT, DEFAULT_TICKS_PER_SLOT - 250, 0]
        );
        assert_eq!(stats.matched_at_arrival, 0);
        assert_eq!((stats.query_arrivals, stats.sensor_arrivals), (3, 1));
        assert_eq!(report.breakdown.point_satisfied, 2);
    }

    #[test]
    fn online_auction_decides_at_arrival_or_at_the_boundary() {
        let mut engine = AggregatorBuilder::new(quality())
            .strategy(MixStrategy::OnlineAuction)
            .build();
        let events = vec![
            // Waits: no sensor has arrived yet.
            ArrivalEvent::point(100, point_spec(5.0, 5.0, 20.0)),
            // Bought on arrival by the waiting point.
            ArrivalEvent::sensor(300, sensor(0, 5.0, 5.0)),
            // Matched on arrival, reading the bought sensor free.
            ArrivalEvent::point(400, point_spec(5.0, 5.0, 20.0)),
            // Out of every sensor's range: unanswered at the boundary.
            ArrivalEvent::point(600, point_spec(50.0, 50.0, 20.0)),
        ];
        let report = engine.step_streaming(0, &events);
        let stats = report.streaming.as_ref().expect("streaming entry point");
        assert_eq!(
            stats.decision_ticks,
            vec![200, 0, DEFAULT_TICKS_PER_SLOT - 600]
        );
        assert_eq!(stats.matched_at_arrival, 2);
        let paid: Vec<f64> = report.point_results.iter().map(|r| r.paid).collect();
        assert_eq!(paid, vec![10.0, 0.0, 0.0]);
        assert_eq!(report.point_results[2].sensor, None);
        assert_eq!(
            report.ledger.query_payment(report.point_results[0].id),
            10.0
        );
        assert_eq!(report.ledger.sensor_receipt(0), 10.0);
        // Two perfect readings worth 20 each, one sensor costing 10.
        assert_eq!(report.welfare, 30.0);
    }
}
