//! Query workload generators matching §4's experimental setups.
//!
//! Every generator returns engine *specs* —
//! [`ps_core::aggregator::PointSpec`] and friends — that an
//! [`ps_core::aggregator::Aggregator`] consumes through its `submit_*`
//! intake (which mints the query ids). No identifiers are pre-minted
//! here.

use crate::config::{Scale, THETA_MIN};
use ps_cluster::SlotEngine;
use ps_core::aggregator::{AggregateSpec, LocationMonitorSpec, PointSpec, RegionMonitorSpec};
use ps_core::model::SensorSnapshot;
use ps_core::query::AggregateKind;
use ps_core::streaming::{ArrivalEvent, ArrivalPayload};
use ps_core::valuation::monitoring::MonitoringContext;
use ps_core::valuation::monitoring::MonitoringValuation;
use ps_core::valuation::region::RegionValuation;
use ps_geo::{Point, Rect};
use ps_gp::kernel::SquaredExponential;
use ps_stats::sampling::select_sampling_indices;
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;

/// How point-query budgets are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BudgetScheme {
    /// Every query gets the same budget (most experiments).
    Fixed(f64),
    /// Budgets uniform in `[mean − 10, mean + 10]` (Fig. 4).
    UniformAroundMean(f64),
}

impl BudgetScheme {
    fn draw(&self, rng: &mut StdRng) -> f64 {
        match *self {
            BudgetScheme::Fixed(b) => b,
            BudgetScheme::UniformAroundMean(mean) => {
                rng.gen_range((mean - 10.0).max(0.5)..=mean + 10.0)
            }
        }
    }
}

/// A uniformly random unit-cell centre inside `region` — queried
/// locations live on the grid so that multiple queries can collide on a
/// location and share sensors, exactly as in the paper's setup.
pub fn random_cell_center(rng: &mut StdRng, region: &Rect) -> Point {
    let col = rng.gen_range(region.min_x.floor() as i64..region.max_x.floor() as i64);
    let row = rng.gen_range(region.min_y.floor() as i64..region.max_y.floor() as i64);
    Point::new(col as f64 + 0.5, row as f64 + 0.5)
}

/// Generates one slot's end-user point queries (§4.3: 300 per slot at
/// locations random over the working region).
pub fn point_queries(
    rng: &mut StdRng,
    count: usize,
    working_region: &Rect,
    budgets: BudgetScheme,
) -> Vec<PointSpec> {
    (0..count)
        .map(|_| PointSpec {
            loc: random_cell_center(rng, working_region),
            budget: budgets.draw(rng),
            theta_min: THETA_MIN,
        })
        .collect()
}

/// Generates one slot's aggregate queries (§4.4): the count is uniform
/// with the given mean, regions are random rectangles in the working
/// region, and budgets follow `A(r_q)/(1.5·r_s)·b`.
pub fn aggregate_queries(
    rng: &mut StdRng,
    mean_count: usize,
    working_region: &Rect,
    sensing_range: f64,
    budget_factor: f64,
) -> Vec<AggregateSpec> {
    let count = rng.gen_range((mean_count / 2).max(1)..=mean_count + mean_count / 2);
    (0..count)
        .map(|_| {
            let region = random_subregion(rng, working_region, 10.0, 40.0);
            let budget = region.area() / (1.5 * sensing_range) * budget_factor;
            AggregateSpec {
                region,
                budget,
                kind: AggregateKind::Average,
            }
        })
        .collect()
}

/// A random rectangle inside `bounds` with side lengths in
/// `[min_side, max_side]` (clamped to the bounds).
pub fn random_subregion(rng: &mut StdRng, bounds: &Rect, min_side: f64, max_side: f64) -> Rect {
    let max_w = (bounds.width()).min(max_side);
    let max_h = (bounds.height()).min(max_side);
    let w = rng.gen_range(min_side.min(max_w)..=max_w);
    let h = rng.gen_range(min_side.min(max_h)..=max_h);
    let x = rng.gen_range(bounds.min_x..=(bounds.max_x - w).max(bounds.min_x));
    let y = rng.gen_range(bounds.min_y..=(bounds.max_y - h).max(bounds.min_y));
    Rect::new(x, y, x + w, y + h)
}

/// Spawns new location monitors at slot `t` (§4.5): durations uniform in
/// `[5, 20]`, desired sampling times = duration/3 chosen by the ref. \[19]
/// technique against the phenomenon history, budget = duration × factor,
/// α = 0.5. Keeps the concurrent total under `max_concurrent`.
#[allow(clippy::too_many_arguments)]
pub fn spawn_location_monitors(
    rng: &mut StdRng,
    t: usize,
    active_now: usize,
    max_concurrent: usize,
    spawn_mean: usize,
    working_region: &Rect,
    ctx: &Arc<MonitoringContext>,
    budget_factor: f64,
) -> Vec<LocationMonitorSpec> {
    let headroom = max_concurrent.saturating_sub(active_now);
    let want = rng.gen_range(0..=spawn_mean * 2).min(headroom);
    (0..want)
        .map(|_| {
            let duration = rng.gen_range(5..=20usize);
            let t2 = t + duration;
            let candidates: Vec<f64> = (t..=t2).map(|s| s as f64).collect();
            let k = (duration / 3).max(1);
            let desired = select_desired_times(ctx, &candidates, k);
            let budget = duration as f64 * budget_factor;
            LocationMonitorSpec {
                loc: random_cell_center(rng, working_region),
                t1: t,
                t2,
                alpha: 0.5,
                theta_min: THETA_MIN,
                valuation: MonitoringValuation::new(ctx.clone(), budget, desired),
            }
        })
        .collect()
}

/// Ref. \[19] sampling-time selection in *simulation* coordinates: when the
/// context folds times onto a historical day, candidates are mapped before
/// scoring but the returned times stay in simulation coordinates.
pub fn select_desired_times(
    ctx: &Arc<MonitoringContext>,
    candidates_sim: &[f64],
    k: usize,
) -> Vec<f64> {
    let mapped: Vec<f64> = candidates_sim.iter().map(|&t| ctx.map_time(t)).collect();
    let mut out: Vec<f64> = select_sampling_indices(ctx.design(), &mapped, k)
        .into_iter()
        .map(|i| candidates_sim[i])
        .collect();
    out.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    out
}

/// Spawns one region monitor at slot `t` (§4.6): duration uniform in
/// `[5, 20]`, budget = `A(r_q)/(3π r_s²)·b` with `r_s = 2`, α = 0.5.
pub fn spawn_region_monitor(
    rng: &mut StdRng,
    t: usize,
    bounds: &Rect,
    kernel: &SquaredExponential,
    noise_variance: f64,
    budget_factor: f64,
) -> RegionMonitorSpec {
    let duration = rng.gen_range(5..=20usize);
    let region = random_subregion(rng, bounds, 4.0, 10.0);
    let r_s = 2.0f64;
    let budget = region.area() / (3.0 * std::f64::consts::PI * r_s * r_s) * budget_factor;
    RegionMonitorSpec {
        t1: t,
        t2: t + duration,
        alpha: 0.5,
        theta_min: THETA_MIN,
        valuation: RegionValuation::new(budget, region, kernel, noise_variance),
    }
}

/// A standing mixed workload for a long-running [`SlotEngine`]: fresh
/// point and aggregate queries every slot plus monitor populations that
/// are topped back up as members retire.
///
/// [`StandingMixProfile::from_scale`] sizes everything from a
/// [`Scale`] — per-slot query counts through `Scale::queries`, the
/// sensor population through `Scale::sensor_count`, and an arena grown to
/// keep the paper's RWM sensor *density* (635 sensors on the 80×80 grid)
/// rather than its absolute size, so `Scale::city` yields a city-sized
/// arena with ≥ 10k sensors and ≥ 1k standing mixed queries, and
/// [`StandingMixProfile::metro`] a metro-sized one with ≥ 100k sensors,
/// ≥ 5k standing queries, bursty arrivals, and mixed aggregate-campaign
/// kinds. Query footprints (aggregate regions, monitored regions) keep
/// their neighbourhood scale: city load means *more* queries, not
/// arena-sized ones.
///
/// # Example: one slot of the city mix
///
/// ```rust
/// use ps_core::aggregator::AggregatorBuilder;
/// use ps_core::valuation::quality::QualityModel;
/// use ps_sim::config::Scale;
/// use ps_sim::workload::{test_monitoring_ctx, StandingMixProfile};
/// use ps_gp::kernel::SquaredExponential;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// // The city profile meets the ROADMAP floors…
/// let city = StandingMixProfile::from_scale(&Scale::city());
/// assert!(city.sensors >= 10_000 && city.standing_queries() >= 1_000);
///
/// // …and drives an engine slot by slot. (Doctests build without
/// // optimization, so step a down-scaled clone of the same mix here;
/// // the bench and `repro --scale city` run it at full size.)
/// let mut mix = city.clone();
/// mix.sensors = 150;
/// mix.points_per_slot = 30;
/// mix.location_monitors = 4;
/// mix.region_monitors = 2;
/// let mut engine = AggregatorBuilder::new(QualityModel::new(5.0)).build();
/// let mut rng = StdRng::seed_from_u64(7);
/// let ctx = test_monitoring_ctx();
/// let kernel = SquaredExponential::new(2.0, 2.0);
/// let submitted = mix.submit_slot(&mut rng, 0, &mut engine, &ctx, &kernel);
/// assert!(submitted >= mix.points_per_slot);
/// let sensors = mix.sensors(&mut rng);
/// let report = engine.step(0, &sensors);
/// assert!(report.welfare.is_finite());
/// ```
#[derive(Debug, Clone)]
pub struct StandingMixProfile {
    /// The working region queries and sensors are drawn from.
    pub arena: Rect,
    /// Sensor population announced each slot.
    pub sensors: usize,
    /// End-user point queries submitted per slot.
    pub points_per_slot: usize,
    /// Mean number of aggregate queries per slot (§4.4 draws uniformly
    /// around the mean).
    pub aggregates_mean: usize,
    /// Standing location-monitor population (topped up on retirement).
    pub location_monitors: usize,
    /// Standing region-monitor population (topped up on retirement).
    pub region_monitors: usize,
    /// Point-query budget (§4.3 uses 15).
    pub point_budget: f64,
    /// Aggregate budget factor `b` of §4.4.
    pub aggregate_budget_factor: f64,
    /// Location-monitor budget per slot of duration.
    pub monitor_budget_factor: f64,
    /// Aggregate-region side lengths `[min, max]`.
    pub aggregate_side: (f64, f64),
    /// Region-monitor side lengths `[min, max]` (§4.6 uses 4–10).
    pub region_side: (f64, f64),
    /// Burst cadence: on every `burst_period`-th slot
    /// (`t % burst_period == burst_period − 1`) the point-query arrivals
    /// multiply by [`StandingMixProfile::burst_factor`] — the
    /// rush-hour/incident load spikes a metro aggregator must absorb.
    /// `0` (the default) disables bursts.
    pub burst_period: usize,
    /// Point-arrival multiplier applied on burst slots (≥ 1).
    pub burst_factor: f64,
    /// Campaign kinds cycled through by the per-slot aggregate queries
    /// (heterogeneous concurrent campaigns; the default is
    /// `[AggregateKind::Average]`, the §4.4 setup).
    pub aggregate_kinds: Vec<AggregateKind>,
}

impl StandingMixProfile {
    /// Sizes the profile from a [`Scale`] (see the type docs). Bursts
    /// are off and aggregates are all [`AggregateKind::Average`], as in
    /// §4.4; see [`StandingMixProfile::metro`] for the mixed-campaign
    /// bursty variant.
    pub fn from_scale(scale: &Scale) -> Self {
        let sensors = scale.sensor_count(635);
        // Paper density: 635 sensors on an 80×80 arena.
        let density = 635.0 / (80.0 * 80.0);
        let side = (sensors as f64 / density).sqrt().ceil().max(40.0);
        Self {
            arena: Rect::with_size(side, side),
            sensors,
            points_per_slot: scale.queries(300),
            aggregates_mean: scale.queries(8),
            location_monitors: scale.queries(40),
            region_monitors: scale.queries(25),
            point_budget: 15.0,
            aggregate_budget_factor: 15.0,
            monitor_budget_factor: 12.0,
            aggregate_side: (6.0, 18.0),
            region_side: (4.0, 10.0),
            burst_period: 0,
            burst_factor: 1.0,
            aggregate_kinds: vec![AggregateKind::Average],
        }
    }

    /// The metro workload: [`Scale::metro`]'s populations (≥ 100k
    /// sensors, ≥ 5k standing queries) plus the load shape that actually
    /// stresses a metropolitan aggregator — every 4th slot bursts to
    /// 1.5× point arrivals, and the aggregate campaigns cycle through
    /// all four [`AggregateKind`]s so concurrent heterogeneous campaigns
    /// coexist in one slot.
    pub fn metro() -> Self {
        let mut profile = Self::from_scale(&Scale::metro());
        profile.burst_period = 4;
        profile.burst_factor = 1.5;
        profile.aggregate_kinds = vec![
            AggregateKind::Average,
            AggregateKind::Max,
            AggregateKind::Min,
            AggregateKind::Sum,
        ];
        profile
    }

    /// Standing queries alive in a steady-state slot: the per-slot
    /// one-shots plus the monitor populations.
    pub fn standing_queries(&self) -> usize {
        self.points_per_slot + self.aggregates_mean + self.location_monitors + self.region_monitors
    }

    /// Point-query arrivals for slot `t`: the per-slot base, times
    /// [`StandingMixProfile::burst_factor`] on burst slots.
    pub fn point_arrivals(&self, t: usize) -> usize {
        if self.burst_period > 0 && t % self.burst_period == self.burst_period - 1 {
            (self.points_per_slot as f64 * self.burst_factor).round() as usize
        } else {
            self.points_per_slot
        }
    }

    /// One slot's sensor announcement: uniform locations over the arena,
    /// prices in `[5, 15]` around the paper's base price, imperfect trust
    /// and accuracy.
    pub fn sensors(&self, rng: &mut StdRng) -> Vec<SensorSnapshot> {
        (0..self.sensors)
            .map(|id| SensorSnapshot {
                id,
                loc: Point::new(
                    rng.gen_range(self.arena.min_x..self.arena.max_x),
                    rng.gen_range(self.arena.min_y..self.arena.max_y),
                ),
                cost: rng.gen_range(5.0..15.0),
                trust: rng.gen_range(0.6..1.0),
                inaccuracy: rng.gen_range(0.0..0.2),
            })
            .collect()
    }

    /// Submits one slot of workload into `engine` — any [`SlotEngine`]:
    /// the single `Aggregator` or a `ps_cluster::ShardedAggregator`.
    /// [`StandingMixProfile::point_arrivals`] point specs (the base rate,
    /// burst-scaled on burst slots), ~`aggregates_mean` aggregate specs
    /// cycling through [`StandingMixProfile::aggregate_kinds`], and
    /// enough new monitors (durations uniform in `[5, 20]`, desired
    /// times every 3rd slot, α = 0.5) to top the standing populations
    /// back up. Returns the number of queries submitted. The RNG draw
    /// sequence depends only on the profile and the monitor counts, so
    /// two engines fed from equally-seeded RNGs receive identical specs.
    pub fn submit_slot<E: SlotEngine + ?Sized>(
        &self,
        rng: &mut StdRng,
        t: usize,
        engine: &mut E,
        ctx: &Arc<MonitoringContext>,
        kernel: &SquaredExponential,
    ) -> usize {
        let mut submitted = 0;
        for spec in point_queries(
            rng,
            self.point_arrivals(t),
            &self.arena,
            BudgetScheme::Fixed(self.point_budget),
        ) {
            engine.submit_point(spec);
            submitted += 1;
        }
        for spec in self.aggregates(rng) {
            engine.submit_aggregate(spec);
            submitted += 1;
        }
        while engine.location_monitor_count() < self.location_monitors {
            engine.submit_location_monitor(self.location_monitor(rng, t, ctx));
            submitted += 1;
        }
        while engine.region_monitor_count() < self.region_monitors {
            engine.submit_region_monitor(self.region_monitor(rng, t, kernel));
            submitted += 1;
        }
        submitted
    }

    /// One slot's workload as a timestamped *event stream* for
    /// [`SlotEngine::step_streaming`]: the same populations
    /// [`StandingMixProfile::submit_slot`] would submit, but every query
    /// and sensor carries an arrival tick inside the slot instead of
    /// lining up at the boundary.
    ///
    /// Arrival shape:
    /// * **sensors** announce through the first half of the slot
    ///   (uniform ticks in `[0, ticks_per_slot/2]`), so early queries
    ///   see a thin market that fills in;
    /// * **base point arrivals** spread uniformly over the whole slot;
    ///   on burst slots the burst *extras* land clustered in a narrow
    ///   rush window (one tenth of the slot starting at 60 %) — the
    ///   spike the admission controller and online auction must absorb;
    /// * **aggregates** spread uniformly (they clear at the boundary
    ///   regardless);
    /// * **monitor top-ups** (up from the `active_*` counts to the
    ///   standing populations) arrive at tick 0 — monitors are
    ///   boundary-valued, so mid-slot arrival would only delay them.
    ///
    /// Events come back stably sorted by tick, ready to feed an intake
    /// queue or an engine directly. The draw sequence depends only on
    /// the profile, the slot, and the active-monitor counts, so
    /// equally-seeded RNGs replay the identical stream.
    #[allow(clippy::too_many_arguments)]
    pub fn slot_events(
        &self,
        rng: &mut StdRng,
        t: usize,
        ticks_per_slot: u64,
        active_location_monitors: usize,
        active_region_monitors: usize,
        ctx: &Arc<MonitoringContext>,
        kernel: &SquaredExponential,
    ) -> Vec<ArrivalEvent> {
        let tps = ticks_per_slot.max(1);
        let mut events = Vec::new();
        for s in self.sensors(rng) {
            events.push(ArrivalEvent::sensor(rng.gen_range(0..=tps / 2), s));
        }
        let base = self.points_per_slot;
        let specs = point_queries(
            rng,
            self.point_arrivals(t),
            &self.arena,
            BudgetScheme::Fixed(self.point_budget),
        );
        let rush_start = tps * 3 / 5;
        let rush_len = (tps / 10).max(1);
        for (i, spec) in specs.into_iter().enumerate() {
            let tick = if i < base {
                rng.gen_range(0..tps)
            } else {
                rush_start + rng.gen_range(0..rush_len)
            };
            events.push(ArrivalEvent::point(tick, spec));
        }
        for spec in self.aggregates(rng) {
            events.push(ArrivalEvent::aggregate(rng.gen_range(0..tps), spec));
        }
        for _ in active_location_monitors..self.location_monitors {
            let spec = self.location_monitor(rng, t, ctx);
            events.push(ArrivalEvent {
                tick: 0,
                payload: ArrivalPayload::LocationMonitor(Box::new(spec)),
            });
        }
        for _ in active_region_monitors..self.region_monitors {
            let spec = self.region_monitor(rng, t, kernel);
            events.push(ArrivalEvent {
                tick: 0,
                payload: ArrivalPayload::RegionMonitor(Box::new(spec)),
            });
        }
        events.sort_by_key(|e| e.tick);
        events
    }

    /// One location monitor starting at slot `t`: duration uniform in
    /// `[5, 20]`, desired times every 3rd slot, α = 0.5.
    fn location_monitor(
        &self,
        rng: &mut StdRng,
        t: usize,
        ctx: &Arc<MonitoringContext>,
    ) -> LocationMonitorSpec {
        let duration = rng.gen_range(5..=20usize);
        let desired: Vec<f64> = (t..t + duration).step_by(3).map(|s| s as f64).collect();
        LocationMonitorSpec {
            loc: random_cell_center(rng, &self.arena),
            t1: t,
            t2: t + duration,
            alpha: 0.5,
            theta_min: THETA_MIN,
            valuation: MonitoringValuation::new(
                ctx.clone(),
                duration as f64 * self.monitor_budget_factor,
                desired,
            ),
        }
    }

    /// One region monitor starting at slot `t`: duration uniform in
    /// `[5, 20]`, a region of this profile's side lengths, the §4.6
    /// budget `A(r_q)/(3π r_s²)·b` with `r_s = 2`, α = 0.5.
    fn region_monitor(
        &self,
        rng: &mut StdRng,
        t: usize,
        kernel: &SquaredExponential,
    ) -> RegionMonitorSpec {
        let duration = rng.gen_range(5..=20usize);
        let region = random_subregion(rng, &self.arena, self.region_side.0, self.region_side.1);
        let r_s = 2.0f64;
        let budget =
            region.area() / (3.0 * std::f64::consts::PI * r_s * r_s) * self.monitor_budget_factor;
        RegionMonitorSpec {
            t1: t,
            t2: t + duration,
            alpha: 0.5,
            theta_min: THETA_MIN,
            valuation: RegionValuation::new(budget, region, kernel, 0.1),
        }
    }

    /// One slot's aggregate specs (§4.4 with this profile's region sizes
    /// and campaign kinds, cycled in submission order).
    fn aggregates(&self, rng: &mut StdRng) -> Vec<AggregateSpec> {
        let mean = self.aggregates_mean.max(1);
        let count = rng.gen_range((mean / 2).max(1)..=mean + mean / 2);
        (0..count)
            .map(|i| {
                let region = random_subregion(
                    rng,
                    &self.arena,
                    self.aggregate_side.0,
                    self.aggregate_side.1,
                );
                let budget = region.area() / (1.5 * 10.0) * self.aggregate_budget_factor;
                AggregateSpec {
                    region,
                    budget,
                    kind: self.aggregate_kinds[i % self.aggregate_kinds.len()],
                }
            })
            .collect()
    }
}

/// A small synthetic phenomenon history for location monitors — a
/// diurnal sinusoid over 120 past slots. The doctests and equivalence/
/// determinism tests all need *a* [`MonitoringContext`] and none of
/// them cares which; sharing one here keeps their workloads comparable.
/// (The `slot_engine` bench keeps its own longer 200-slot history —
/// changing that would change the committed `BENCH_slot_engine.json`
/// workload.)
pub fn test_monitoring_ctx() -> Arc<MonitoringContext> {
    let times: Vec<f64> = (0..120).map(|i| i as f64 - 120.0).collect();
    let values: Vec<f64> = times
        .iter()
        .map(|&t| 20.0 + 5.0 * (std::f64::consts::TAU * t / 50.0).sin())
        .collect();
    Arc::new(MonitoringContext::new(
        ps_stats::regression::DiurnalBasis {
            period: 50.0,
            harmonics: 1,
        },
        ps_stats::TimeSeries::new(times, values),
        None,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_core::valuation::SetValuation;
    use ps_stats::regression::DiurnalBasis;
    use ps_stats::TimeSeries;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(3)
    }

    fn ctx() -> Arc<MonitoringContext> {
        let times: Vec<f64> = (0..100).map(|i| i as f64 - 100.0).collect();
        let values: Vec<f64> = times.iter().map(|&t| (t / 9.0).sin() + 20.0).collect();
        Arc::new(MonitoringContext::new(
            DiurnalBasis {
                period: 50.0,
                harmonics: 1,
            },
            TimeSeries::new(times, values),
            None,
        ))
    }

    /// `select_desired_times` as it was before both paths shared
    /// `select_sampling_indices`: a value-based greedy without folding,
    /// an index-based one with mapped candidates when folding.
    fn select_desired_times_reference(
        ctx: &Arc<MonitoringContext>,
        candidates_sim: &[f64],
        k: usize,
    ) -> Vec<f64> {
        let rss = |training: &[f64]| ctx.design().rss_of_training_times(training);
        if ctx.fold().is_none() {
            let k = k.min(candidates_sim.len());
            if k == 0 || ctx.design().is_empty() {
                return Vec::new();
            }
            let mut chosen: Vec<f64> = Vec::with_capacity(k);
            let mut remaining: Vec<f64> = candidates_sim.to_vec();
            for _ in 0..k {
                let mut best: Option<(usize, f64)> = None;
                for (idx, &cand) in remaining.iter().enumerate() {
                    chosen.push(cand);
                    let r = rss(&chosen);
                    chosen.pop();
                    match best {
                        Some((_, b)) if b <= r => {}
                        _ => best = Some((idx, r)),
                    }
                }
                let (idx, _) = best.expect("remaining non-empty");
                chosen.push(remaining.remove(idx));
            }
            chosen.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            return chosen;
        }
        let mapped: Vec<f64> = candidates_sim.iter().map(|&t| ctx.map_time(t)).collect();
        let k = k.min(candidates_sim.len());
        let mut chosen_idx: Vec<usize> = Vec::with_capacity(k);
        let mut remaining: Vec<usize> = (0..candidates_sim.len()).collect();
        for _ in 0..k {
            let mut best: Option<(usize, f64)> = None;
            for (pos, &idx) in remaining.iter().enumerate() {
                let mut training: Vec<f64> = chosen_idx.iter().map(|&i| mapped[i]).collect();
                training.push(mapped[idx]);
                let r = rss(&training);
                match best {
                    Some((_, b)) if b <= r => {}
                    _ => best = Some((pos, r)),
                }
            }
            let (pos, _) = best.expect("remaining non-empty");
            chosen_idx.push(remaining.remove(pos));
        }
        let mut out: Vec<f64> = chosen_idx.into_iter().map(|i| candidates_sim[i]).collect();
        out.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        out
    }

    #[test]
    fn desired_times_match_the_two_path_selection() {
        let folded = {
            let times: Vec<f64> = (0..150).map(|i| i as f64 - 150.0).collect();
            let values: Vec<f64> = times
                .iter()
                .map(|&t| (t / 8.0).cos() * 3.0 + 30.0)
                .collect();
            Arc::new(MonitoringContext::new(
                DiurnalBasis {
                    period: 50.0,
                    harmonics: 2,
                },
                TimeSeries::new(times, values),
                Some((50.0, -100.0)),
            ))
        };
        let candidates: Vec<f64> = (0..40).map(|i| i as f64 * 1.5).collect();
        for ctx in [ctx(), folded] {
            for k in [0, 1, 4, 9] {
                let got = select_desired_times(&ctx, &candidates, k);
                assert_eq!(got.len(), k);
                let want = select_desired_times_reference(&ctx, &candidates, k);
                assert_eq!(format!("{got:?}"), format!("{want:?}"), "k = {k}");
            }
        }
    }

    #[test]
    fn point_queries_land_on_cell_centers_inside_region() {
        let region = Rect::new(15.0, 15.0, 65.0, 65.0);
        let qs = point_queries(&mut rng(), 100, &region, BudgetScheme::Fixed(15.0));
        assert_eq!(qs.len(), 100);
        for q in &qs {
            assert!(region.contains(q.loc));
            assert_eq!(q.loc.x.fract(), 0.5);
            assert_eq!(q.loc.y.fract(), 0.5);
            assert_eq!(q.budget, 15.0);
        }
    }

    #[test]
    fn uniform_budgets_spread_around_mean() {
        let region = Rect::new(0.0, 0.0, 50.0, 50.0);
        let qs = point_queries(
            &mut rng(),
            500,
            &region,
            BudgetScheme::UniformAroundMean(20.0),
        );
        let min = qs.iter().map(|q| q.budget).fold(f64::INFINITY, f64::min);
        let max = qs.iter().map(|q| q.budget).fold(0.0, f64::max);
        assert!(min >= 10.0 - 1e-9 && max <= 30.0 + 1e-9);
        assert!(max - min > 10.0, "budgets not spread: {min}..{max}");
    }

    #[test]
    fn aggregate_budget_follows_area_formula() {
        let region = Rect::new(0.0, 0.0, 100.0, 100.0);
        let qs = aggregate_queries(&mut rng(), 30, &region, 10.0, 20.0);
        for q in &qs {
            let expected = q.region.area() / 15.0 * 20.0;
            assert!((q.budget - expected).abs() < 1e-9);
            assert!(region.contains_rect(&q.region));
        }
    }

    #[test]
    fn location_monitor_spawner_respects_cap() {
        let region = Rect::new(0.0, 0.0, 100.0, 100.0);
        let c = ctx();
        let ms = spawn_location_monitors(&mut rng(), 0, 98, 100, 5, &region, &c, 10.0);
        assert!(ms.len() <= 2);
        for m in &ms {
            assert!(m.t2 - m.t1 >= 5 && m.t2 - m.t1 <= 20);
            assert!(m.valuation.budget() > 0.0);
        }
    }

    #[test]
    fn standing_mix_tops_up_monitor_populations() {
        use ps_core::aggregator::AggregatorBuilder;
        use ps_core::valuation::quality::QualityModel;
        let profile = StandingMixProfile::from_scale(&Scale::test());
        let mut engine = AggregatorBuilder::new(QualityModel::new(5.0)).build();
        let c = ctx();
        let kernel = SquaredExponential::new(2.0, 2.0);
        let mut r = rng();
        let submitted = profile.submit_slot(&mut r, 0, &mut engine, &c, &kernel);
        assert!(submitted >= profile.points_per_slot);
        assert_eq!(engine.location_monitors().len(), profile.location_monitors);
        assert_eq!(engine.region_monitors().len(), profile.region_monitors);
        let sensors = profile.sensors(&mut r);
        assert_eq!(sensors.len(), profile.sensors);
        assert!(sensors.iter().all(|s| profile.arena.contains(s.loc)));
        // The slot executes end to end.
        let report = engine.step(0, &sensors);
        assert!(report.welfare.is_finite());
    }

    #[test]
    fn city_profile_hits_the_roadmap_floors() {
        let p = StandingMixProfile::from_scale(&Scale::city());
        assert!(
            p.sensors >= 10_000,
            "city needs ≥10k sensors, got {}",
            p.sensors
        );
        assert!(
            p.standing_queries() >= 1_000,
            "city needs ≥1k standing queries, got {}",
            p.standing_queries()
        );
        // Density stays at the paper's operating point (±20 %).
        let density = p.sensors as f64 / p.arena.area();
        let paper = 635.0 / 6400.0;
        assert!(
            (density / paper - 1.0).abs() < 0.2,
            "density {density} drifted"
        );
    }

    #[test]
    fn metro_profile_hits_the_roadmap_floors_with_bursts_and_mixed_campaigns() {
        let p = StandingMixProfile::metro();
        assert!(
            p.sensors >= 100_000,
            "metro needs ≥100k sensors, got {}",
            p.sensors
        );
        assert!(
            p.standing_queries() >= 5_000,
            "metro needs ≥5k standing queries, got {}",
            p.standing_queries()
        );
        // Density stays at the paper's operating point (±20 %).
        let density = p.sensors as f64 / p.arena.area();
        let paper = 635.0 / 6400.0;
        assert!(
            (density / paper - 1.0).abs() < 0.2,
            "density {density} drifted"
        );
        // Bursty arrivals: every 4th slot carries 1.5× the base load.
        assert_eq!(p.point_arrivals(0), p.points_per_slot);
        assert_eq!(
            p.point_arrivals(3),
            (p.points_per_slot as f64 * 1.5).round() as usize
        );
        assert_eq!(p.point_arrivals(4), p.points_per_slot);
        // Mixed campaign types: all four aggregate kinds cycle.
        assert_eq!(p.aggregate_kinds.len(), 4);
        let specs = p.aggregates(&mut rng());
        let kinds: std::collections::BTreeSet<String> =
            specs.iter().map(|s| format!("{:?}", s.kind)).collect();
        assert!(kinds.len() >= 2, "one slot should mix campaign kinds");
    }

    #[test]
    fn burst_free_profiles_are_flat() {
        let p = StandingMixProfile::from_scale(&Scale::test());
        for t in 0..10 {
            assert_eq!(p.point_arrivals(t), p.points_per_slot);
        }
        assert_eq!(p.aggregate_kinds, vec![AggregateKind::Average]);
    }

    #[test]
    fn region_monitor_budget_formula() {
        let bounds = Rect::new(0.0, 0.0, 20.0, 15.0);
        let kernel = SquaredExponential::new(2.0, 2.0);
        let m = spawn_region_monitor(&mut rng(), 3, &bounds, &kernel, 0.1, 15.0);
        let region = *m.valuation.region();
        let expected = region.area() / (3.0 * std::f64::consts::PI * 4.0) * 15.0;
        assert!((m.valuation.max_value() - expected).abs() < 1e-9);
        assert!(m.t1 <= 3 && m.t2 > 3);
        assert!(bounds.contains_rect(&region));
    }
}
