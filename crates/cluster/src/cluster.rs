//! The tiled multi-aggregator cluster: builder, routing, parallel
//! stepping, and the global settlement pass (see the [crate docs](crate)).

use ps_core::aggregator::{
    AggregateSpec, Aggregator, AggregatorBuilder, LocationMonitorSpec, MixBreakdown, PointSpec,
    RegionMonitorSpec, RetiredMonitor, SlotReport, Totals,
};
use ps_core::exec::Threads;
use ps_core::model::{QueryId, SensorSnapshot, Slot};
use ps_core::monitor::location::LocationMonitor;
use ps_core::monitor::region::RegionMonitor;
use ps_core::payment::Ledger;
use ps_core::streaming::{ArrivalEvent, ArrivalPayload, StreamStats};
use ps_core::valuation::quality::QualityModel;
use ps_core::valuation::{SetValuation, SpatialSupport};
use ps_geo::{Point, Rect, TileGrid};
use std::{collections::HashSet, sync::Mutex};

/// Size of each shard's query-id block: shard `k` mints ids in
/// `[k · 2⁴⁰, (k + 1) · 2⁴⁰)`, so ids stay globally unique without any
/// cross-shard coordination (a shard would need to mint a trillion
/// queries to overrun its block; [`ShardedAggregator::step`] asserts it
/// never does).
pub const SHARD_ID_BLOCK: u64 = 1 << 40;

/// Per-shard builder configuration hook (applied to every shard's
/// [`AggregatorBuilder`] before the cluster overrides the thread count
/// and the id-block seed).
type ConfigureFn<'s> = Box<dyn Fn(AggregatorBuilder<'s>) -> AggregatorBuilder<'s> + 's>;

/// Configures and builds a [`ShardedAggregator`]. The type is
/// `#[must_use]` like [`AggregatorBuilder`]: chain methods take `self`,
/// so a dropped return value is dropped configuration.
///
/// # Example
///
/// ```rust
/// use ps_cluster::ClusterBuilder;
/// use ps_core::aggregator::PointSpec;
/// use ps_core::model::SensorSnapshot;
/// use ps_core::valuation::quality::QualityModel;
/// use ps_geo::{Point, Rect};
///
/// let sensors = vec![SensorSnapshot {
///     id: 0, loc: Point::new(20.0, 20.0), cost: 10.0, trust: 1.0, inaccuracy: 0.0,
/// }];
/// let mut cluster = ClusterBuilder::new(QualityModel::new(5.0), Rect::with_size(80.0, 80.0), 2)
///     .threads(2)
///     .build();
/// assert_eq!(cluster.shards().len(), 4);
/// cluster.submit_point(PointSpec { loc: Point::new(20.0, 20.0), budget: 15.0, theta_min: 0.2 });
/// let report = cluster.step(0, &sensors);
/// assert_eq!(report.breakdown.point_satisfied, 1);
/// assert_eq!(cluster.last_settlement().duplicates, 0);
/// ```
#[must_use = "builder methods take `self` — reassign or chain the result, or the configuration is dropped"]
pub struct ClusterBuilder<'s> {
    quality: QualityModel,
    arena: Rect,
    g: usize,
    threads: Threads,
    shard_threads: usize,
    configure: ConfigureFn<'s>,
}

impl<'s> ClusterBuilder<'s> {
    /// Starts a builder for a `g × g` cluster over `arena`, every shard
    /// running the Eq. 4 quality model. Defaults: cluster fork-join
    /// threads auto-detected, one worker thread inside each shard
    /// engine, and shard engines at [`AggregatorBuilder::new`]'s defaults
    /// (customize with [`ClusterBuilder::configure_shards`]).
    ///
    /// # Panics
    /// [`ClusterBuilder::build`] panics (via [`TileGrid::new`]) when `g`
    /// is zero — the same loud rejection `repro --shards` gives, rather
    /// than a silent clamp.
    pub fn new(quality: QualityModel, arena: Rect, g: usize) -> Self {
        Self {
            quality,
            arena,
            g,
            threads: Threads::default(),
            shard_threads: 1,
            configure: Box::new(|b| b),
        }
    }

    /// Worker threads for stepping shards in parallel (`0` = available
    /// parallelism). Purely a wall-clock knob: shards merge in ascending
    /// shard order, so every thread count produces bit-identical output.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Threads::new(n);
        self
    }

    /// Worker threads *inside* each shard engine (default 1: with the
    /// cluster already fanning out one thread per shard, serial shards
    /// avoid oversubscription). Any value keeps outputs bit-identical —
    /// the engine's own `threads` contract.
    pub fn shard_threads(mut self, n: usize) -> Self {
        self.shard_threads = n;
        self
    }

    /// Applies `f` to every shard's [`AggregatorBuilder`] — strategy,
    /// scheduler, sensing range, cost weighting, and so on. Called once
    /// per shard; the cluster then overrides the builder's `threads`
    /// (with [`ClusterBuilder::shard_threads`]) and `next_query_id` (the
    /// shard's id block), so those two knobs have no effect here.
    pub fn configure_shards(
        mut self,
        f: impl Fn(AggregatorBuilder<'s>) -> AggregatorBuilder<'s> + 's,
    ) -> Self {
        self.configure = Box::new(f);
        self
    }

    /// Builds the cluster: `g²` engines, one per tile, each minting query
    /// ids from its own [`SHARD_ID_BLOCK`]. The halo — the ring around
    /// each tile from which a shard still receives sensor announcements —
    /// is `max(d_max, sensing range)`, the widest distance at which a
    /// tile-interior query can value a sensor, which is what makes
    /// tile-local workloads exact (see the [crate docs](crate)).
    #[must_use = "dropping the built cluster discards all the configuration"]
    pub fn build(self) -> ShardedAggregator<'s> {
        let grid = TileGrid::new(self.arena, self.g);
        let shards: Vec<Aggregator<'s>> = (0..grid.len())
            .map(|k| {
                (self.configure)(AggregatorBuilder::new(self.quality))
                    .threads(self.shard_threads)
                    .next_query_id(k as u64 * SHARD_ID_BLOCK)
                    .build()
            })
            .collect();
        let halo = self.quality.d_max.max(shards[0].sensing_range());
        ShardedAggregator {
            quality: self.quality,
            grid,
            halo,
            threads: self.threads,
            shards,
            totals: Totals::default(),
            last_settlement: Settlement::default(),
            total_settlement: Settlement::default(),
        }
    }
}

/// What the global settlement pass did to one slot (or cumulatively).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Settlement {
    /// Halo sensors selected by more than one shard (one count per
    /// losing shard, so a sensor bought by three shards counts twice).
    pub duplicates: usize,
    /// Total announced cost restored to welfare by deduplication.
    pub cost_restored: f64,
    /// Total payments refunded to losing shards' queries.
    pub refunded: f64,
}

impl Settlement {
    fn absorb(&mut self, other: &Settlement) {
        self.duplicates += other.duplicates;
        self.cost_restored += other.cost_restored;
        self.refunded += other.refunded;
    }
}

/// A tiled cluster of [`Aggregator`]s behind the single-engine API (see
/// the [crate docs](crate) for routing, halo, settlement, and the
/// exactness contract).
pub struct ShardedAggregator<'s> {
    quality: QualityModel,
    grid: TileGrid,
    halo: f64,
    threads: Threads,
    shards: Vec<Aggregator<'s>>,
    totals: Totals,
    last_settlement: Settlement,
    total_settlement: Settlement,
}

impl<'s> ShardedAggregator<'s> {
    // ── Routing ───────────────────────────────────────────────────────

    /// The shard owning `support`'s anchor — where a query with that
    /// support is routed.
    pub fn shard_of(&self, support: &SpatialSupport) -> usize {
        self.grid.tile_of(support.anchor())
    }

    fn shard_of_point(&self, loc: Point) -> usize {
        self.shard_of(&SpatialSupport::Disk {
            center: loc,
            radius: self.quality.d_max,
        })
    }

    // ── Query intake (routed) ─────────────────────────────────────────

    /// Submits an end-user point query, routed by its `d_max`-disk
    /// support anchor (= its location).
    pub fn submit_point(&mut self, spec: PointSpec) -> QueryId {
        let k = self.shard_of_point(spec.loc);
        self.shards[k].submit_point(spec)
    }

    /// Submits a spatial aggregate query, routed by its expanded-rect
    /// support anchor (= its region centroid).
    pub fn submit_aggregate(&mut self, spec: AggregateSpec) -> QueryId {
        let k = self.shard_of(&SpatialSupport::Rect(spec.region));
        self.shards[k].submit_aggregate(spec)
    }

    /// Submits a location monitor, routed by the monitored location.
    pub fn submit_location_monitor(&mut self, spec: LocationMonitorSpec) -> QueryId {
        let k = self.shard_of_point(spec.loc);
        self.shards[k].submit_location_monitor(spec)
    }

    /// Submits a region monitor, routed by the monitored region's
    /// centroid.
    pub fn submit_region_monitor(&mut self, spec: RegionMonitorSpec) -> QueryId {
        let k = self.shard_of(&SpatialSupport::Rect(*spec.valuation.region()));
        self.shards[k].submit_region_monitor(spec)
    }

    /// Submits a custom [`SetValuation`], routed by its declared support.
    ///
    /// # Panics
    /// Panics when the valuation returns no
    /// [`support`](SetValuation::support): a support-less valuation is
    /// relevant everywhere and cannot be owned by one tile — run it on a
    /// single [`Aggregator`] instead.
    pub fn submit_valuation(&mut self, v: impl SetValuation + 's) -> QueryId {
        let support = v
            .support()
            .expect("cluster routing requires the valuation to declare a spatial support");
        let k = self.shard_of(&support);
        self.shards[k].submit_valuation(v)
    }

    // ── Introspection ─────────────────────────────────────────────────

    /// The tile grid shards are keyed by.
    pub fn grid(&self) -> &TileGrid {
        &self.grid
    }

    /// The halo width sensors are replicated by.
    pub fn halo(&self) -> f64 {
        self.halo
    }

    /// The per-tile engines, in shard (row-major tile) order.
    ///
    /// **Pre-settlement views.** Each shard rolls its own totals during
    /// its `step` — *before* the cluster's settlement strips duplicate
    /// halo purchases. On cross-tile workloads the shards' summed
    /// welfare therefore falls short of the cluster's settled
    /// [`ShardedAggregator::totals`] by one announced cost per settled
    /// duplicate. Reconcile against the cluster's totals (or the merged
    /// [`SlotReport`]s), never by summing shard state.
    pub fn shards(&self) -> &[Aggregator<'s>] {
        &self.shards
    }

    /// Cumulative merged statistics across all slots — settled: every
    /// measurement's cost counted once, unlike the per-shard totals
    /// behind [`ShardedAggregator::shards`].
    pub fn totals(&self) -> &Totals {
        &self.totals
    }

    /// What settlement did in the most recent slot.
    pub fn last_settlement(&self) -> Settlement {
        self.last_settlement
    }

    /// What settlement did across all slots.
    pub fn total_settlement(&self) -> Settlement {
        self.total_settlement
    }

    /// Number of live location monitors across all shards (O(shards),
    /// no collation — the workload top-up loops call this per spawn).
    pub fn location_monitor_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.location_monitors().len())
            .sum()
    }

    /// Number of live region monitors across all shards.
    pub fn region_monitor_count(&self) -> usize {
        self.shards.iter().map(|s| s.region_monitors().len()).sum()
    }

    /// Live location monitors, collated in shard order.
    pub fn location_monitors(&self) -> Vec<&LocationMonitor> {
        self.shards
            .iter()
            .flat_map(|s| s.location_monitors())
            .collect()
    }

    /// Live region monitors, collated in shard order.
    pub fn region_monitors(&self) -> Vec<&RegionMonitor> {
        self.shards
            .iter()
            .flat_map(|s| s.region_monitors())
            .collect()
    }

    /// Retired monitors, collated in shard order.
    pub fn retired_monitors(&self) -> Vec<&RetiredMonitor> {
        self.shards
            .iter()
            .flat_map(|s| s.retired_monitors())
            .collect()
    }

    /// Drops retained retired-monitor state in every shard.
    pub fn clear_retired(&mut self) {
        for s in &mut self.shards {
            s.clear_retired();
        }
    }

    // ── The tick ──────────────────────────────────────────────────────

    /// Runs one time slot: announces each sensor to its home tile plus
    /// every tile whose halo ring contains it, steps all shards in
    /// parallel, and settles the per-shard reports into one merged
    /// [`SlotReport`] (global snapshot indices, shard-order result
    /// concatenation, deduplicated sensors, budget-balanced merged
    /// ledger).
    pub fn step(&mut self, slot: Slot, sensors: &[SensorSnapshot]) -> SlotReport {
        let n = self.shards.len();
        // Route the announcement: per-shard snapshot slices plus the
        // local-index → (global index, snapshot) maps settlement needs
        // later.
        let mut local: Vec<Vec<SensorSnapshot>> = routing_buffers(n, sensors.len());
        let mut to_global: Vec<Vec<(usize, &SensorSnapshot)>> = routing_buffers(n, sensors.len());
        for (gi, s) in sensors.iter().enumerate() {
            for k in self.grid.tiles_seeing(s.loc, self.halo) {
                local[k].push(*s);
                to_global[k].push((gi, s));
            }
        }

        let reports = self.step_shards_with(&local, |shard, sensors| shard.step(slot, sensors));
        self.settle(slot, reports, &to_global)
    }

    /// Runs one time slot against a stream of intra-slot
    /// [`ArrivalEvent`]s: every query event is routed by the same
    /// support-anchor rule as the `submit_*` methods, every sensor event
    /// goes to its home tile plus the halo ring (stamped with its global
    /// arrival ordinal for settlement), and each shard consumes its
    /// sub-stream through [`Aggregator::step_streaming`]. A sub-stream
    /// holds references into `events`, and so do settlement's index maps,
    /// so routing copies no event and no snapshot.
    /// Settlement is the ordinary budget-balanced pass; the merged report
    /// carries the shard-order concatenation of the per-shard latency
    /// statistics. A stream whose events all carry tick 0 in submission
    /// order is bit-identical to routing the submissions up front and
    /// calling [`ShardedAggregator::step`].
    pub fn step_streaming(&mut self, slot: Slot, events: &[ArrivalEvent]) -> SlotReport {
        let n = self.shards.len();
        let mut local: Vec<Vec<&ArrivalEvent>> = routing_buffers(n, events.len());
        let mut to_global: Vec<Vec<(usize, &SensorSnapshot)>> = routing_buffers(n, events.len());
        let mut gi = 0;
        for ev in events {
            match &ev.payload {
                ArrivalPayload::Sensor(s) => {
                    for k in self.grid.tiles_seeing(s.loc, self.halo) {
                        local[k].push(ev);
                        to_global[k].push((gi, s));
                    }
                    gi += 1;
                }
                ArrivalPayload::Point(spec) => {
                    local[self.shard_of_point(spec.loc)].push(ev);
                }
                ArrivalPayload::Aggregate(spec) => {
                    let k = self.shard_of(&SpatialSupport::Rect(spec.region));
                    local[k].push(ev);
                }
                ArrivalPayload::LocationMonitor(spec) => {
                    local[self.shard_of_point(spec.loc)].push(ev);
                }
                ArrivalPayload::RegionMonitor(spec) => {
                    let k = self.shard_of(&SpatialSupport::Rect(*spec.valuation.region()));
                    local[k].push(ev);
                }
            }
        }

        let reports = self.step_shards_with(&local, |shard, events| {
            shard.step_streaming(slot, events.iter().copied())
        });
        self.settle(slot, reports, &to_global)
    }

    /// Applies `f` to every (shard, routed input) pair, behind
    /// [`ShardedAggregator::step`] and
    /// [`ShardedAggregator::step_streaming`]. Contiguous shard ranges go
    /// through [`Threads::map_ranges`], the calling thread stepping one of
    /// them, and the reports come back in ascending shard order whichever
    /// worker stepped each shard. That is the whole determinism argument:
    /// settlement never observes scheduling. Each shard sits behind its
    /// own lock, taken once by the worker its range goes to.
    fn step_shards_with<I: Sync>(
        &mut self,
        local: &[Vec<I>],
        f: impl Fn(&mut Aggregator<'s>, &[I]) -> SlotReport + Sync,
    ) -> Vec<SlotReport> {
        let shards: Vec<Mutex<&mut Aggregator<'s>>> =
            self.shards.iter_mut().map(Mutex::new).collect();
        self.threads
            .map_ranges(shards.len(), |range| {
                range
                    .map(|k| {
                        let mut shard = shards[k].lock().expect("a shard is locked only once");
                        f(&mut shard, &local[k])
                    })
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect()
    }

    /// The tail of every cluster slot: the global settlement pass, then
    /// the cluster's totals. Settlement remaps every per-shard result to
    /// global snapshot indices through `to_global` (shard `k`'s local
    /// index → the global index and the routed snapshot), merges reports
    /// (and any decision-latency statistics) in shard order, and
    /// resolves halo sensors selected by multiple shards — the lowest
    /// shard id keeps the purchase, each losing shard's ledger refunds
    /// its payers ([`Ledger::strip_sensor`]) and the duplicate's cost
    /// returns to welfare, so the merged ledger pays every measurement
    /// exactly once.
    fn settle(
        &mut self,
        slot: Slot,
        reports: Vec<SlotReport>,
        to_global: &[Vec<(usize, &SensorSnapshot)>],
    ) -> SlotReport {
        for (k, shard) in self.shards.iter().enumerate() {
            assert!(
                shard.next_query_id() < (k as u64 + 1) * SHARD_ID_BLOCK,
                "shard {k} overran its query-id block"
            );
        }
        let mut settlement = Settlement::default();
        let mut claimed: HashSet<usize> = HashSet::new();
        let mut welfare = 0.0;
        let mut breakdown = MixBreakdown::default();
        let mut ledger = Ledger::new();
        let mut sensors_used = Vec::new();
        let mut point_results = Vec::new();
        let mut aggregate_results = Vec::new();
        let mut custom_results = Vec::new();
        let mut streaming: Option<StreamStats> = None;

        for (k, mut rep) in reports.into_iter().enumerate() {
            if let Some(stats) = &rep.streaming {
                streaming
                    .get_or_insert_with(StreamStats::default)
                    .absorb(stats);
            }
            let map = &to_global[k];
            for r in &mut rep.point_results {
                r.sensor = r.sensor.map(|si| map[si].0);
            }
            for r in &mut rep.aggregate_results {
                for si in &mut r.sensors {
                    *si = map[*si].0;
                }
            }
            for r in &mut rep.custom_results {
                for si in &mut r.sensors {
                    *si = map[*si].0;
                }
            }

            let mut refunds: Vec<(QueryId, f64)> = Vec::new();
            for &si in &rep.sensors_used {
                let (gi, s) = map[si];
                if claimed.insert(gi) {
                    sensors_used.push(gi);
                } else {
                    // A lower shard already owns this measurement: undo
                    // this shard's purchase.
                    settlement.duplicates += 1;
                    settlement.cost_restored += s.cost;
                    refunds.extend(rep.ledger.sensor_payers(s.id));
                    settlement.refunded += rep.ledger.strip_sensor(s.id);
                }
            }
            // Keep the per-query `paid` fields consistent with the
            // settled ledger: a refunded query's result must not still
            // claim the pre-settlement payment. (Monitor-owned query ids
            // have no entry in the result lists; their refunds live only
            // in the ledger.)
            rep.apply_refunds(&refunds);

            welfare += rep.welfare;
            breakdown.absorb(&rep.breakdown);
            ledger.absorb(&rep.ledger);
            point_results.extend(rep.point_results);
            aggregate_results.extend(rep.aggregate_results);
            custom_results.extend(rep.custom_results);
        }
        welfare += settlement.cost_restored;

        self.last_settlement = settlement;
        self.total_settlement.absorb(&settlement);

        let report = SlotReport {
            slot,
            welfare,
            breakdown,
            ledger,
            sensors_used,
            point_results,
            aggregate_results,
            custom_results,
            streaming,
        };
        self.totals.absorb_report(&report);
        self.totals.monitors_retired = self
            .shards
            .iter()
            .map(|s| s.totals().monitors_retired)
            .sum();
        report
    }
}

/// One routing buffer per shard, each pre-sized for an even share of
/// `items` plus a quarter of slack for the halo copies (a sensor near a
/// tile edge is routed to every tile whose halo contains it), so a slot's
/// routing pass does not grow them by doubling from empty.
fn routing_buffers<T>(shards: usize, items: usize) -> Vec<Vec<T>> {
    let share = items / shards.max(1);
    (0..shards)
        .map(|_| Vec::with_capacity(share + share / 4))
        .collect()
}

// The cluster's whole reason to exist is stepping engines on worker
// threads; if `Aggregator` ever stops being `Send`, fail loudly at
// compile time rather than in a trait bound three layers up.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Aggregator<'static>>();
    assert_send::<ShardedAggregator<'static>>();
};

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ps_core::aggregator::MixStrategy;
    use ps_geo::Rect;

    pub(crate) fn quality() -> QualityModel {
        QualityModel::new(5.0)
    }

    pub(crate) fn arena() -> Rect {
        Rect::with_size(100.0, 100.0)
    }

    pub(crate) fn sensor(id: usize, x: f64, y: f64) -> SensorSnapshot {
        SensorSnapshot {
            id,
            loc: Point::new(x, y),
            cost: 10.0,
            trust: 1.0,
            inaccuracy: 0.0,
        }
    }

    pub(crate) fn point_spec(x: f64, y: f64, budget: f64) -> PointSpec {
        PointSpec {
            loc: Point::new(x, y),
            budget,
            theta_min: 0.2,
        }
    }

    /// A location monitor at `(x, y)` over slots `0..=t2` with a 40-unit
    /// budget, fitted to a sinusoidal 50-slot history.
    pub(crate) fn location_monitor(x: f64, y: f64, t2: Slot) -> LocationMonitorSpec {
        use ps_core::valuation::monitoring::{MonitoringContext, MonitoringValuation};
        use ps_stats::regression::DiurnalBasis;
        use ps_stats::TimeSeries;
        use std::sync::Arc;

        let times: Vec<f64> = (0..100).map(|i| i as f64 - 100.0).collect();
        let values = times
            .iter()
            .map(|&t| 20.0 + 5.0 * (std::f64::consts::TAU * t / 50.0).sin())
            .collect();
        let ctx = Arc::new(MonitoringContext::new(
            DiurnalBasis {
                period: 50.0,
                harmonics: 1,
            },
            TimeSeries::new(times, values),
            None,
        ));
        LocationMonitorSpec {
            loc: Point::new(x, y),
            t1: 0,
            t2,
            alpha: 0.5,
            theta_min: 0.2,
            valuation: MonitoringValuation::new(ctx, 40.0, vec![0.0, 1.0]),
        }
    }

    /// A region monitor over `region` for slots `0..=t2`.
    pub(crate) fn region_monitor(region: Rect, t2: Slot) -> RegionMonitorSpec {
        use ps_core::valuation::region::RegionValuation;
        use ps_gp::kernel::SquaredExponential;
        RegionMonitorSpec {
            t1: 0,
            t2,
            alpha: 0.5,
            theta_min: 0.2,
            valuation: RegionValuation::new(60.0, region, &SquaredExponential::new(2.0, 2.0), 0.1),
        }
    }

    #[test]
    fn queries_route_to_the_anchor_tile_with_disjoint_id_blocks() {
        let mut cluster = ClusterBuilder::new(quality(), arena(), 2).build();
        let a = cluster.submit_point(point_spec(10.0, 10.0, 15.0)); // tile 0
        let b = cluster.submit_point(point_spec(90.0, 10.0, 15.0)); // tile 1
        let c = cluster.submit_point(point_spec(10.0, 90.0, 15.0)); // tile 2
        let d = cluster.submit_point(point_spec(90.0, 90.0, 15.0)); // tile 3
        assert_eq!(a, QueryId(1));
        assert_eq!(b, QueryId(SHARD_ID_BLOCK + 1));
        assert_eq!(c, QueryId(2 * SHARD_ID_BLOCK + 1));
        assert_eq!(d, QueryId(3 * SHARD_ID_BLOCK + 1));
        let e = cluster.submit_aggregate(AggregateSpec {
            region: Rect::new(60.0, 60.0, 80.0, 80.0),
            budget: 40.0,
            kind: ps_core::query::AggregateKind::Average,
        });
        assert_eq!(e, QueryId(3 * SHARD_ID_BLOCK + 2), "centroid routes to 3");
    }

    #[test]
    fn one_by_one_cluster_is_the_plain_engine() {
        let sensors = vec![sensor(0, 5.0, 5.0), sensor(1, 60.0, 60.0)];
        let specs = [
            point_spec(5.0, 5.0, 12.0),
            point_spec(60.0, 60.0, 12.0),
            point_spec(7.0, 5.0, 9.0),
        ];
        // Two overlapping aggregates that both want sensor 0.
        let aggregates = [
            AggregateSpec {
                region: Rect::new(0.0, 0.0, 10.0, 10.0),
                budget: 50.0,
                kind: ps_core::query::AggregateKind::Average,
            },
            AggregateSpec {
                region: Rect::new(2.0, 2.0, 12.0, 12.0),
                budget: 50.0,
                kind: ps_core::query::AggregateKind::Average,
            },
        ];
        for strategy in [
            MixStrategy::Alg5,
            MixStrategy::SequentialBaseline,
            MixStrategy::OnlineAuction,
        ] {
            let mut plain = AggregatorBuilder::new(quality())
                .strategy(strategy)
                .threads(1)
                .build();
            let mut cluster = ClusterBuilder::new(quality(), arena(), 1)
                .configure_shards(move |b| b.strategy(strategy))
                .build();
            for t in 0..2 {
                for spec in specs {
                    let a = plain.submit_point(spec);
                    let b = cluster.submit_point(spec);
                    assert_eq!(a, b, "{strategy:?}: 1x1 cluster must mint the engine's ids");
                }
                for spec in &aggregates {
                    let a = plain.submit_aggregate(spec.clone());
                    let b = cluster.submit_aggregate(spec.clone());
                    assert_eq!(a, b, "{strategy:?}: 1x1 cluster must mint the engine's ids");
                }
                let a = plain.step(t, &sensors);
                let b = cluster.step(t, &sensors);
                assert_eq!(a.welfare, b.welfare, "{strategy:?}: welfare at slot {t}");
                assert_eq!(a.sensors_used, b.sensors_used, "{strategy:?}");
                assert_eq!(
                    a.ledger.total_payments(),
                    b.ledger.total_payments(),
                    "{strategy:?}"
                );
                let paid = |r: &SlotReport| -> Vec<(QueryId, u64)> {
                    let points = r.point_results.iter().map(|p| (p.id, p.paid.to_bits()));
                    let sets = r.aggregate_results.iter().map(|a| (a.id, a.paid.to_bits()));
                    points.chain(sets).collect()
                };
                assert_eq!(paid(&a), paid(&b), "{strategy:?}: per-query payments");
                // A batch `step` reports no decision latencies, on either
                // engine and under every strategy.
                assert!(a.streaming.is_none(), "{strategy:?}: engine");
                assert!(b.streaming.is_none(), "{strategy:?}: cluster");
            }
            assert_eq!(
                cluster.total_settlement(),
                Settlement::default(),
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn halo_duplicates_settle_to_one_payment() {
        // One sensor on the 2×2 seam, one generous query in tile 0 and
        // one in tile 3: each shard buys the sensor on its own, and
        // settlement must collapse the two purchases into one.
        let sensors = vec![sensor(7, 50.0, 50.0)];
        let build_cluster = |threads: usize| {
            ClusterBuilder::new(quality(), arena(), 2)
                .threads(threads)
                .build()
        };
        let mut cluster = build_cluster(1);
        cluster.submit_point(point_spec(48.0, 48.0, 30.0));
        cluster.submit_point(point_spec(52.0, 52.0, 30.0));
        let report = cluster.step(0, &sensors);

        assert_eq!(cluster.last_settlement().duplicates, 1);
        assert_eq!(cluster.last_settlement().cost_restored, 10.0);
        assert_eq!(report.sensors_used, vec![0], "one merged usage entry");
        assert_eq!(report.breakdown.point_satisfied, 2);
        report
            .ledger
            .verify_cost_recovery(|_| 10.0, 1e-9)
            .expect("the measurement is paid exactly once");
        assert!((report.ledger.total_receipts() - report.ledger.total_payments()).abs() < 1e-9);
        // Per-query `paid` fields are settled too, not just the ledger:
        // each result agrees with the merged ledger, and their sum is
        // the sensor's one cost.
        let paid_sum: f64 = report.point_results.iter().map(|r| r.paid).sum();
        assert!(
            (paid_sum - 10.0).abs() < 1e-9,
            "results double-count: {paid_sum}"
        );
        for r in &report.point_results {
            assert!(
                (r.paid - report.ledger.query_payment(r.id)).abs() < 1e-9,
                "result paid {} disagrees with ledger {}",
                r.paid,
                report.ledger.query_payment(r.id)
            );
        }

        // And the settled welfare equals the plain engine's on the same
        // slot (both queries value the sensor, its cost counted once).
        let mut plain = AggregatorBuilder::new(quality()).threads(1).build();
        plain.submit_point(point_spec(48.0, 48.0, 30.0));
        plain.submit_point(point_spec(52.0, 52.0, 30.0));
        let plain_report = plain.step(0, &sensors);
        assert!((report.welfare - plain_report.welfare).abs() < 1e-9);

        // Determinism: the same slot at a different fork-join width is
        // bit-identical.
        let mut wide = build_cluster(7);
        wide.submit_point(point_spec(48.0, 48.0, 30.0));
        wide.submit_point(point_spec(52.0, 52.0, 30.0));
        let wide_report = wide.step(0, &sensors);
        assert_eq!(report.welfare, wide_report.welfare);
        assert_eq!(
            report.ledger.total_payments(),
            wide_report.ledger.total_payments()
        );
    }

    #[test]
    fn totals_are_the_settled_reports_summed() {
        // The seam layout of `halo_duplicates_settle_to_one_payment` for
        // three slots, so every slot settles a duplicate, plus a location
        // monitor in tile 0 whose window ends at slot 1.
        let sensors = vec![sensor(7, 50.0, 50.0)];
        let mut cluster = ClusterBuilder::new(quality(), arena(), 2).build();
        cluster.submit_location_monitor(location_monitor(47.0, 47.0, 1));
        let mut welfare = 0.0;
        let (mut point_total, mut point_satisfied) = (0, 0);
        for t in 0..3 {
            cluster.submit_point(point_spec(48.0, 48.0, 30.0));
            cluster.submit_point(point_spec(52.0, 52.0, 30.0));
            let report = cluster.step(t, &sensors);
            assert_eq!(cluster.last_settlement().duplicates, 1, "slot {t}");
            welfare += report.welfare;
            point_total += report.breakdown.point_total;
            point_satisfied += report.breakdown.point_satisfied;
        }

        let totals = cluster.totals();
        assert_eq!(totals.slots, 3);
        assert_eq!(totals.welfare.to_bits(), welfare.to_bits());
        assert_eq!(totals.breakdown.point_total, point_total);
        assert_eq!(totals.breakdown.point_satisfied, point_satisfied);
        assert_eq!(totals.monitors_retired, 1);
        // The shards' own totals are pre-settlement: short of the
        // cluster's welfare by exactly the restored duplicate costs.
        let shard_welfare: f64 = cluster.shards().iter().map(|s| s.totals().welfare).sum();
        let restored = cluster.total_settlement().cost_restored;
        assert_eq!(restored, 30.0);
        assert!((totals.welfare - shard_welfare - restored).abs() < 1e-9);
    }

    #[test]
    fn boundary_query_sees_halo_sensors() {
        // Query in tile 0 near the seam; its only viable sensor sits in
        // tile 1. Without the halo the query would go unanswered.
        let sensors = vec![sensor(0, 52.0, 25.0)];
        let mut cluster = ClusterBuilder::new(quality(), arena(), 2).build();
        cluster.submit_point(point_spec(49.0, 25.0, 30.0));
        let report = cluster.step(0, &sensors);
        assert_eq!(report.breakdown.point_satisfied, 1);
        assert_eq!(report.point_results[0].sensor, Some(0));
    }

    #[test]
    #[should_panic(expected = "spatial support")]
    fn supportless_valuations_are_rejected() {
        use ps_core::valuation::FnValuation;
        let mut cluster = ClusterBuilder::new(quality(), arena(), 2).build();
        cluster.submit_valuation(FnValuation::new(|_: &[SensorSnapshot]| 0.0, 1.0));
    }

    /// Every tile sees only its own sensor, so each shard serves its query
    /// with local index 0; the merged report names the global snapshot
    /// indices, in shard order, at every fork-join width.
    #[test]
    fn reports_carry_global_snapshot_indices() {
        let sensors = vec![
            sensor(0, 90.0, 90.0), // tile 3
            sensor(1, 10.0, 90.0), // tile 2
            sensor(2, 10.0, 10.0), // tile 0
            sensor(3, 90.0, 10.0), // tile 1
        ];
        for threads in [1, 4] {
            let mut cluster = ClusterBuilder::new(quality(), arena(), 2)
                .threads(threads)
                .build();
            for s in &sensors {
                cluster.submit_point(point_spec(s.loc.x, s.loc.y, 30.0));
            }
            let report = cluster.step(0, &sensors);
            let served: Vec<_> = report.point_results.iter().map(|r| r.sensor).collect();
            assert_eq!(
                served,
                [Some(2), Some(3), Some(1), Some(0)],
                "{threads} threads"
            );
            assert_eq!(report.sensors_used, [2, 3, 1, 0], "{threads} threads");
            assert_eq!(cluster.last_settlement(), Settlement::default());
        }
    }

    #[test]
    fn monitors_collate_in_shard_order() {
        let mut cluster = ClusterBuilder::new(quality(), arena(), 2).build();
        let in_tile_3 = cluster.submit_location_monitor(location_monitor(80.0, 80.0, 5));
        let in_tile_0 = cluster.submit_location_monitor(location_monitor(20.0, 20.0, 5));
        let region =
            cluster.submit_region_monitor(region_monitor(Rect::new(60.0, 10.0, 70.0, 20.0), 5));
        assert_eq!(cluster.location_monitor_count(), 2);
        assert_eq!(cluster.region_monitor_count(), 1);
        let ids: Vec<QueryId> = cluster.location_monitors().iter().map(|m| m.id).collect();
        assert_eq!(ids, [in_tile_0, in_tile_3]);
        assert_eq!(cluster.region_monitors()[0].id, region);
        assert_eq!(
            cluster.shard_of(&SpatialSupport::Rect(cluster.region_monitors()[0].region)),
            1
        );
    }

    #[test]
    fn clear_retired_empties_every_shard() {
        let sensors = vec![sensor(0, 20.0, 20.0), sensor(1, 80.0, 80.0)];
        let mut cluster = ClusterBuilder::new(quality(), arena(), 2).build();
        let early = cluster.submit_location_monitor(location_monitor(80.0, 80.0, 0));
        let late = cluster.submit_location_monitor(location_monitor(20.0, 20.0, 0));
        cluster.step(0, &sensors);
        cluster.step(1, &sensors);
        assert_eq!(cluster.location_monitor_count(), 0);
        let retired: Vec<QueryId> = cluster.retired_monitors().iter().map(|m| m.id()).collect();
        assert_eq!(retired, [late, early], "shard order");
        cluster.clear_retired();
        assert!(cluster.retired_monitors().is_empty());
        assert!(cluster
            .shards()
            .iter()
            .all(|s| s.retired_monitors().is_empty()));
        assert_eq!(
            cluster.totals().monitors_retired,
            2,
            "the count is cumulative"
        );
    }

    /// The halo is the widest distance at which a tile-interior query can
    /// value a sensor: `d_max` for point queries, the sensing range for
    /// aggregates.
    #[test]
    fn halo_is_the_wider_of_d_max_and_the_sensing_range() {
        let halo = |range: f64| {
            ClusterBuilder::new(quality(), arena(), 2)
                .configure_shards(move |b| b.sensing_range(range))
                .build()
                .halo()
        };
        assert_eq!(halo(2.0), 5.0);
        assert_eq!(halo(12.0), 12.0);
        let default = ClusterBuilder::new(quality(), arena(), 2).build();
        assert_eq!(default.halo(), default.shards()[0].sensing_range().max(5.0));
    }

    /// Per-shard decision latencies concatenate in shard order, not in
    /// arrival order, and every arrival is counted once.
    #[test]
    fn streaming_statistics_merge_in_shard_order() {
        use ps_core::aggregator::DEFAULT_TICKS_PER_SLOT;
        let events = [
            ArrivalEvent::sensor(0, sensor(0, 20.0, 20.0)),
            ArrivalEvent::point(10, point_spec(80.0, 80.0, 30.0)), // tile 3
            ArrivalEvent::point(20, point_spec(20.0, 20.0, 30.0)), // tile 0
        ];
        for threads in [1, 4] {
            let mut cluster = ClusterBuilder::new(quality(), arena(), 2)
                .threads(threads)
                .build();
            let report = cluster.step_streaming(0, &events);
            let stats = report
                .streaming
                .expect("a streaming slot reports latencies");
            assert_eq!(stats.query_arrivals, 2);
            assert_eq!(stats.sensor_arrivals, 1);
            assert_eq!(
                stats.decision_ticks,
                [DEFAULT_TICKS_PER_SLOT - 20, DEFAULT_TICKS_PER_SLOT - 10],
                "{threads} threads"
            );
            assert_eq!(report.breakdown.point_satisfied, 1);
        }
    }

    #[test]
    fn an_empty_slot_settles_to_an_empty_report() {
        let mut cluster = ClusterBuilder::new(quality(), arena(), 3)
            .threads(4)
            .build();
        let report = cluster.step(0, &[]);
        assert_eq!(report.welfare, 0.0);
        assert!(report.sensors_used.is_empty());
        assert!(report.point_results.is_empty());
        assert_eq!(report.ledger.total_payments(), 0.0);
        assert!(report.streaming.is_none());
        let report = cluster.step_streaming(1, &[]);
        let stats = report
            .streaming
            .expect("a streaming slot reports latencies");
        assert_eq!((stats.query_arrivals, stats.sensor_arrivals), (0, 0));
        assert_eq!(cluster.totals().slots, 2);
        assert_eq!(cluster.total_settlement(), Settlement::default());
    }
}
