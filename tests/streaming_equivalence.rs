//! The streaming ↔ batch equivalence contract and the admission-control
//! money-conservation properties.
//!
//! * A stream whose events all carry tick 0 in submission order (queries
//!   first, then the slot's sensor announcement — exactly what "every
//!   arrival at the slot boundary" means) must be **bit-identical** to
//!   the batch `step`, for every `MixStrategy` and for a configured point
//!   scheduler, at threads ∈ {1, 2, 7} and federation grids {1×1, 2×2}.
//! * Queries the admission controller defers or rejects pay nothing —
//!   they never reach an engine — and the money that *does* flow stays
//!   budget-balanced (payments = receipts) and cost-recovering (every
//!   paid sensor recovers exactly its announced cost).
//! * The online auction's arrival rule — an arriving point takes the
//!   arrived sensor of highest surplus, an arriving sensor is offered to
//!   the waiting points in arrival order — agrees with a brute-force
//!   reference on every point.
//! * The admission controller's stream order — deferred queries first,
//!   in the order they were deferred, at tick 0, then fresh submissions
//!   by `(tick, ticket)` — and every ticket's outcome agree with a
//!   reference on random multi-slot submission sequences.
//! * A federated online auction fed mid-slot arrivals answers as its
//!   shards would alone on the sub-streams the routing rule gives them.

use proptest::prelude::*;
use ps_cluster::{ClusterBuilder, ShardedAggregator, SlotEngine, SHARD_ID_BLOCK};
use ps_core::aggregator::{
    Aggregator, AggregatorBuilder, MixStrategy, PointSpec, SlotReport, DEFAULT_TICKS_PER_SLOT,
};
use ps_core::alloc::local_search::LocalSearchScheduler;
use ps_core::model::{QueryId, SensorSnapshot};
use ps_core::query::PointQuery;
use ps_core::streaming::{ArrivalEvent, ArrivalPayload};
use ps_core::valuation::quality::QualityModel;
use ps_core::valuation::SpatialSupport;
use ps_geo::{Point, Rect};
use ps_gp::kernel::SquaredExponential;
use ps_intake::{Admission, AdmissionController, AdmissionPolicy, RejectReason, Ticket};
use ps_sim::config::Scale;
use ps_sim::workload::{test_monitoring_ctx, StandingMixProfile};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Small but genuinely mixed: every query type participates.
fn small_profile() -> StandingMixProfile {
    let mut p = StandingMixProfile::from_scale(&Scale::test());
    p.sensors = 90;
    p.points_per_slot = 30;
    p.aggregates_mean = 3;
    p.location_monitors = 5;
    p.region_monitors = 3;
    p.burst_period = 2;
    p.burst_factor = 1.5;
    p
}

/// One slot's arrivals, all at tick 0 in submission order: queries
/// first (the submissions that were waiting when the slot opened), then
/// the sensor announcement.
fn tick0_events(
    profile: &StandingMixProfile,
    rng: &mut StdRng,
    t: usize,
    active_lm: usize,
    active_rm: usize,
) -> Vec<ArrivalEvent> {
    let ctx = test_monitoring_ctx();
    let kernel = SquaredExponential::new(2.0, 2.0);
    let mut events = profile.slot_events(rng, t, 1_000, active_lm, active_rm, &ctx, &kernel);
    for ev in &mut events {
        ev.tick = 0;
    }
    // Stable: relative order within queries and within sensors survives.
    events.sort_by_key(|ev| matches!(ev.payload, ArrivalPayload::Sensor(_)));
    events
}

/// Feeds one slot's tick-0 events through the *batch* API: queries via
/// the submit intake in event order, sensors via `step`.
fn replay_batch(engine: &mut dyn SlotEngine, t: usize, events: &[ArrivalEvent]) -> SlotReport {
    let mut sensors = Vec::new();
    for ev in events {
        match &ev.payload {
            ArrivalPayload::Point(spec) => {
                engine.submit_point(*spec);
            }
            ArrivalPayload::Aggregate(spec) => {
                engine.submit_aggregate(spec.clone());
            }
            ArrivalPayload::LocationMonitor(spec) => {
                engine.submit_location_monitor((**spec).clone());
            }
            ArrivalPayload::RegionMonitor(spec) => {
                engine.submit_region_monitor((**spec).clone());
            }
            ArrivalPayload::Sensor(s) => sensors.push(*s),
        }
    }
    engine.step(t, &sensors)
}

/// Bit-exact report comparison — everything except the `streaming`
/// latency stats, which only the streaming entry point records.
fn assert_reports_identical(a: &SlotReport, b: &SlotReport, label: &str) {
    let t = a.slot;
    assert_eq!(a.slot, b.slot, "{label}: slot id");
    assert_eq!(a.welfare, b.welfare, "{label}: welfare at slot {t}");
    assert_eq!(
        a.sensors_used, b.sensors_used,
        "{label}: selections at slot {t}"
    );
    assert_eq!(
        a.ledger.total_payments(),
        b.ledger.total_payments(),
        "{label}: payments at slot {t}"
    );
    assert_eq!(
        a.ledger.total_receipts(),
        b.ledger.total_receipts(),
        "{label}: receipts at slot {t}"
    );
    assert_eq!(a.point_results.len(), b.point_results.len());
    for (pa, pb) in a.point_results.iter().zip(&b.point_results) {
        assert_eq!(pa.id, pb.id, "{label}: point ids at slot {t}");
        assert_eq!(pa.value, pb.value, "{label}: point value at slot {t}");
        assert_eq!(pa.paid, pb.paid, "{label}: point payment at slot {t}");
        assert_eq!(pa.sensor, pb.sensor, "{label}: serving sensor at slot {t}");
    }
    assert_eq!(a.aggregate_results.len(), b.aggregate_results.len());
    for (aa, ab) in a.aggregate_results.iter().zip(&b.aggregate_results) {
        assert_eq!(aa.id, ab.id, "{label}: aggregate ids at slot {t}");
        assert_eq!(aa.value, ab.value, "{label}: aggregate value at slot {t}");
        assert_eq!(aa.paid, ab.paid, "{label}: aggregate payment at slot {t}");
    }
    assert_eq!(
        a.breakdown.point_satisfied, b.breakdown.point_satisfied,
        "{label}: point satisfaction at slot {t}"
    );
    assert_eq!(
        a.breakdown.monitor_samples, b.breakdown.monitor_samples,
        "{label}: monitor samples at slot {t}"
    );
}

/// One engine configuration under test: a strategy, optionally with a
/// configured point scheduler (which takes precedence over it).
#[derive(Debug, Clone, Copy)]
struct Config {
    strategy: MixStrategy,
    scheduled: bool,
}

impl Config {
    fn strategy(strategy: MixStrategy) -> Self {
        Config {
            strategy,
            scheduled: false,
        }
    }

    fn apply(self, b: AggregatorBuilder<'static>) -> AggregatorBuilder<'static> {
        let b = b.strategy(self.strategy);
        if self.scheduled {
            b.scheduler(LocalSearchScheduler::new())
        } else {
            b
        }
    }
}

/// Builds the engine under test: a plain aggregator when `grid == 1`
/// (with the worker knob), a `grid × grid` federation otherwise.
fn build_engine(
    config: Config,
    threads: usize,
    grid: usize,
    arena: Rect,
) -> Box<dyn SlotEngine + 'static> {
    if grid <= 1 {
        Box::new(
            config
                .apply(AggregatorBuilder::new(QualityModel::new(5.0)))
                .threads(threads)
                .build(),
        )
    } else {
        Box::new(
            ClusterBuilder::new(QualityModel::new(5.0), arena, grid)
                .threads(threads)
                .configure_shards(move |b| config.apply(b))
                .build(),
        )
    }
}

/// Runs the batch leg, recording each slot's event list so the
/// streaming leg replays the *identical* input.
fn run_batch(
    config: Config,
    threads: usize,
    grid: usize,
    profile: &StandingMixProfile,
    seed: u64,
    slots: usize,
) -> (Vec<Vec<ArrivalEvent>>, Vec<SlotReport>) {
    let mut engine = build_engine(config, threads, grid, profile.arena);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut streams = Vec::with_capacity(slots);
    let mut reports = Vec::with_capacity(slots);
    for t in 0..slots {
        let events = tick0_events(
            profile,
            &mut rng,
            t,
            engine.location_monitor_count(),
            engine.region_monitor_count(),
        );
        reports.push(replay_batch(engine.as_mut(), t, &events));
        streams.push(events);
    }
    (streams, reports)
}

fn assert_streaming_matches_batch(
    config: Config,
    threads: usize,
    grid: usize,
    seed: u64,
    slots: usize,
) {
    let profile = small_profile();
    let label = format!("{config:?} threads={threads} grid={grid}x{grid}");
    let (streams, batch_reports) = run_batch(config, threads, grid, &profile, seed, slots);
    let mut engine = build_engine(config, threads, grid, profile.arena);
    for (t, events) in streams.iter().enumerate() {
        let report = engine.step_streaming(t, events);
        assert!(
            report.streaming.is_some(),
            "{label}: streaming entry point must report latency stats"
        );
        assert_reports_identical(&batch_reports[t], &report, &label);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The tentpole contract: an all-arrivals-at-slot-start stream is
    /// bit-identical to the batch `step` — for every strategy and for a
    /// configured scheduler, across the threads grid and the federation.
    fn tick0_streaming_is_bit_identical_to_batch(seed in 0u64..10_000, slots in 2usize..4) {
        let configs = [
            Config::strategy(MixStrategy::Alg5),
            Config::strategy(MixStrategy::SequentialBaseline),
            Config::strategy(MixStrategy::OnlineAuction),
            Config { strategy: MixStrategy::Alg5, scheduled: true },
        ];
        for config in configs {
            for threads in [1usize, 2, 7] {
                assert_streaming_matches_batch(config, threads, 1, seed, slots);
            }
            for grid in [1usize, 2] {
                assert_streaming_matches_batch(config, 0, grid, seed, slots);
            }
        }
    }

    /// Money conservation through admission control: deferred and
    /// rejected queries pay nothing (they never reach the engine), and
    /// the admitted flows stay budget-balanced and cost-recovering.
    fn admission_outcomes_conserve_money(
        seed in 0u64..10_000,
        max_queries in 1usize..6,
        max_budget in 20.0f64..120.0,
        max_defer in 0usize..3,
    ) {
        let profile = small_profile();
        let mut intake = AdmissionController::new(AdmissionPolicy {
            max_queries_per_slot: max_queries,
            max_budget_per_slot: max_budget,
            max_defer_slots: max_defer,
        });
        let mut engine = AggregatorBuilder::new(QualityModel::new(5.0))
            .strategy(MixStrategy::OnlineAuction)
            .build();
        let ctx = test_monitoring_ctx();
        let kernel = SquaredExponential::new(2.0, 2.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut submitted_queries = 0usize;
        let mut admitted_queries = 0usize;
        let mut decided = 0usize; // admitted ∪ rejected, queries only
        for t in 0..4 {
            let events = profile.slot_events(
                &mut rng,
                t,
                1_000,
                engine.location_monitors().len(),
                engine.region_monitors().len(),
                &ctx,
                &kernel,
            );
            let mut costs = std::collections::HashMap::new();
            let mut tickets = Vec::new();
            for ev in events {
                if let ArrivalPayload::Sensor(s) = &ev.payload {
                    costs.insert(s.id, s.cost);
                } else {
                    submitted_queries += 1;
                }
                tickets.push(intake.submit(ev));
            }
            let batch = intake.admit_slot(t);
            for (_, outcome) in batch.outcomes() {
                match outcome {
                    Admission::Admitted => {}
                    Admission::Deferred { until_slot } => {
                        prop_assert_eq!(*until_slot, t + 1, "deferral targets the next slot");
                    }
                    Admission::Rejected { .. } => {}
                }
            }
            let slot_admitted = batch
                .admitted
                .iter()
                .filter(|ev| !matches!(ev.payload, ArrivalPayload::Sensor(_)))
                .count();
            admitted_queries += slot_admitted;
            decided += slot_admitted + batch.rejected();
            let report = engine.step_streaming(t, &batch.admitted);
            engine.clear_retired();
            // Budget balance: every unit paid lands with a sensor.
            prop_assert!(
                (report.ledger.total_payments() - report.ledger.total_receipts()).abs() < 1e-9,
                "slot {} not budget-balanced", t
            );
            // Cost recovery: each paid sensor recovers its announced cost.
            if let Err(e) = report
                .ledger
                .verify_cost_recovery(|s| costs.get(&s).copied().unwrap_or(0.0), 1e-9)
            {
                prop_assert!(false, "slot {} cost recovery: {}", t, e);
            }
            // The engine sees exactly the one-shot queries admission
            // let in — deferred and rejected ones never reach it.
            let one_shots = batch
                .admitted
                .iter()
                .filter(|ev| {
                    matches!(
                        ev.payload,
                        ArrivalPayload::Point(_) | ArrivalPayload::Aggregate(_)
                    )
                })
                .count();
            prop_assert_eq!(
                report.breakdown.point_total + report.breakdown.aggregate_total,
                one_shots,
                "slot {}: engine query count must match admissions", t
            );
            let _ = tickets;
        }
        // Every submitted query is eventually admitted, still deferred,
        // or rejected — none vanish, and the deferred remainder is
        // bounded by what the final slots could not seat.
        prop_assert!(decided <= submitted_queries);
        prop_assert!(admitted_queries <= submitted_queries);
        prop_assert!(
            submitted_queries - decided <= intake.pending(),
            "undecided queries must still be pending"
        );
    }
}

/// Monitors retire identically through either entry point (windows are
/// slot-based, so latency stats must not perturb retirement).
#[test]
fn retirement_matches_across_entry_points() {
    let profile = small_profile();
    let online = Config::strategy(MixStrategy::OnlineAuction);
    let (streams, _) = run_batch(online, 1, 1, &profile, 99, 3);
    let run = |use_streaming: bool| {
        let mut engine = build_engine(online, 1, 1, profile.arena);
        for (t, events) in streams.iter().enumerate() {
            if use_streaming {
                engine.step_streaming(t, events);
            } else {
                replay_batch(engine.as_mut(), t, events);
            }
        }
        engine
            .retired_monitors()
            .iter()
            .map(|m| (m.id().0, m.value().to_bits(), m.spent().to_bits()))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(false), run(true));
}

/// One slot of point queries and sensors for the arrival-rule reference,
/// interleaved at random ticks. Locations are integer points of a
/// 30 × 30 field, so many pairs sit exactly at `d_max` = 5, and about
/// one sensor in five copies an earlier one's location and price, so
/// co-located sensors tie.
fn arrival_rule_stream(seed: u64) -> Vec<ArrivalEvent> {
    let mut rng = StdRng::seed_from_u64(seed);
    let at = |rng: &mut StdRng| {
        Point::new(
            rng.gen_range(0..=30u32) as f64,
            rng.gen_range(0..=30u32) as f64,
        )
    };
    let mut sensors: Vec<SensorSnapshot> = Vec::new();
    let mut events = Vec::new();
    for _ in 0..rng.gen_range(20..80usize) {
        let tick = rng.gen_range(0..200u64);
        if rng.gen_bool(0.5) {
            let s = if !sensors.is_empty() && rng.gen_bool(0.2) {
                SensorSnapshot {
                    id: sensors.len(),
                    ..sensors[rng.gen_range(0..sensors.len())]
                }
            } else {
                SensorSnapshot {
                    id: sensors.len(),
                    loc: at(&mut rng),
                    cost: rng.gen_range(1..=8u32) as f64,
                    trust: if rng.gen_bool(0.5) { 1.0 } else { 0.6 },
                    inaccuracy: if rng.gen_bool(0.5) { 0.0 } else { 0.2 },
                }
            };
            sensors.push(s);
            events.push(ArrivalEvent::sensor(tick, s));
        } else {
            let spec = PointSpec {
                loc: at(&mut rng),
                budget: rng.gen_range(2..=30u32) as f64,
                theta_min: if rng.gen_bool(0.5) { 0.0 } else { 0.3 },
            };
            events.push(ArrivalEvent::point(tick, spec));
        }
    }
    // Stable: events of one tick keep their random interleaving.
    events.sort_by_key(|ev| ev.tick);
    events
}

/// The online auction's arrival rule by brute force. An arriving point
/// scans every arrived sensor for the highest surplus (value minus the
/// price: the cost for the first buyer, 0 after), ties to the earliest;
/// an arriving sensor scans every waiting point in arrival order. Per
/// point: the serving sensor and payment, or `None` for a point left to
/// the slot boundary, and the decision tick.
fn arrival_rule_reference(
    events: &[ArrivalEvent],
    quality: &QualityModel,
) -> Vec<(Option<(usize, f64)>, u64)> {
    let surplus = |q: &PointQuery, s: &SensorSnapshot, bought: bool| {
        let value = q.value_of_quality(quality.quality(s, q.loc));
        let price = if bought { 0.0 } else { s.cost };
        (value > 0.0 && value - price > 1e-9).then_some((value - price, price))
    };
    let mut sensors: Vec<(SensorSnapshot, bool)> = Vec::new();
    let mut points: Vec<(PointQuery, u64)> = Vec::new();
    let mut decided: Vec<(Option<(usize, f64)>, u64)> = Vec::new();
    for ev in events {
        match &ev.payload {
            ArrivalPayload::Point(spec) => {
                let q = PointQuery::new(QueryId(0), spec.loc, spec.budget, spec.theta_min);
                let mut best: Option<(f64, usize, f64)> = None;
                for (si, (s, bought)) in sensors.iter().enumerate() {
                    if let Some((gain, price)) = surplus(&q, s, *bought) {
                        if best.is_none_or(|(b, _, _)| gain > b) {
                            best = Some((gain, si, price));
                        }
                    }
                }
                decided.push(match best {
                    Some((_, si, price)) => {
                        sensors[si].1 = true;
                        (Some((si, price)), 0)
                    }
                    None => (None, DEFAULT_TICKS_PER_SLOT - ev.tick),
                });
                points.push((q, ev.tick));
            }
            ArrivalPayload::Sensor(s) => {
                let si = sensors.len();
                sensors.push((*s, false));
                for (pi, (q, arrived)) in points.iter().enumerate() {
                    if decided[pi].0.is_some() {
                        continue;
                    }
                    if let Some((_, price)) = surplus(q, s, sensors[si].1) {
                        sensors[si].1 = true;
                        decided[pi] = (Some((si, price)), ev.tick - arrived);
                    }
                }
            }
            _ => unreachable!("the reference streams carry points and sensors only"),
        }
    }
    decided
}

/// Every point's arrival-time decision — serving sensor, payment and
/// decision tick — and the count matched before the boundary agree with
/// the brute-force reference over 200 seeded streams, matched on the
/// grid indexes and on `SensorIndex::scan_all` alike.
#[test]
fn online_arrival_rule_matches_brute_force_reference() {
    let quality = QualityModel::new(5.0);
    let (mut at_once, mut later, mut free, mut boundary) = (0, 0, 0, 0);
    for (seed, spatial) in (0..200).flat_map(|seed| [(seed, true), (seed, false)]) {
        let events = arrival_rule_stream(seed);
        let expected = arrival_rule_reference(&events, &quality);
        let mut engine = AggregatorBuilder::new(quality)
            .strategy(MixStrategy::OnlineAuction)
            .spatial_index(spatial)
            .build();
        let report = engine.step_streaming(0, &events);
        let stats = report.streaming.as_ref().expect("streaming entry point");
        let case = format!("seed {seed}, spatial_index({spatial})");
        assert_eq!(report.point_results.len(), expected.len(), "{case}");
        for (pi, &(served, ticks)) in expected.iter().enumerate() {
            let got = &report.point_results[pi];
            let label = format!("{case} point {pi}");
            assert_eq!(stats.decision_ticks[pi], ticks, "{label}: decision tick");
            let Some((si, paid)) = served else {
                boundary += 1;
                continue;
            };
            assert_eq!(got.sensor, Some(si), "{label}: sensor");
            assert_eq!(got.paid, paid, "{label}: paid");
            at_once += usize::from(ticks == 0);
            later += usize::from(ticks > 0);
            free += usize::from(paid == 0.0);
        }
        let matched = expected
            .iter()
            .filter(|(served, _)| served.is_some())
            .count();
        assert_eq!(stats.matched_at_arrival, matched, "{case}: matched count");
    }
    // The streams exercise every branch of the rule.
    assert!(at_once > 0 && later > 0 && free > 0 && boundary > 0);
}

/// The admission rule kept apart from the controller: carried
/// (deferred) queries re-enter first, in the order they were deferred,
/// at tick 0; fresh submissions follow sorted by `(tick, ticket)`. The
/// quotas are walked in that order.
#[derive(Default)]
struct ReferenceIntake {
    carried: Vec<(Ticket, ArrivalEvent, usize)>,
    fresh: Vec<(Ticket, ArrivalEvent)>,
}

impl ReferenceIntake {
    /// The slot's admitted stream and the outcome of every ticket that
    /// was pending, in stream order.
    fn admit_slot(
        &mut self,
        policy: &AdmissionPolicy,
        slot: usize,
    ) -> (Vec<ArrivalEvent>, Vec<(Ticket, Admission)>) {
        let mut fresh = std::mem::take(&mut self.fresh);
        fresh.sort_by_key(|(ticket, event)| (event.tick, *ticket));
        let mut carried = std::mem::take(&mut self.carried);
        for (_, event, _) in &mut carried {
            event.tick = 0;
        }
        let stream = carried
            .into_iter()
            .chain(fresh.into_iter().map(|(t, e)| (t, e, 0)));
        let mut admitted = Vec::new();
        let mut outcomes = Vec::new();
        let mut queries = 0usize;
        let mut budget = 0.0f64;
        for (ticket, event, defers) in stream {
            let cost = match &event.payload {
                ArrivalPayload::Point(spec) => spec.budget,
                ArrivalPayload::Sensor(_) => {
                    admitted.push(event);
                    outcomes.push((ticket, Admission::Admitted));
                    continue;
                }
                other => unreachable!("the sequences hold points and sensors, not {other:?}"),
            };
            let outcome = if cost > policy.max_budget_per_slot {
                Admission::Rejected {
                    reason: RejectReason::BudgetExceedsSlotQuota,
                }
            } else if queries < policy.max_queries_per_slot
                && budget + cost <= policy.max_budget_per_slot
            {
                queries += 1;
                budget += cost;
                admitted.push(event);
                Admission::Admitted
            } else if defers < policy.max_defer_slots {
                self.carried.push((ticket, event, defers + 1));
                Admission::Deferred {
                    until_slot: slot + 1,
                }
            } else {
                Admission::Rejected {
                    reason: RejectReason::DeferralsExhausted,
                }
            };
            outcomes.push((ticket, outcome));
        }
        (admitted, outcomes)
    }
}

/// 200 seeded multi-slot submission sequences with ticks from a small
/// range (ties are common), sensors mixed in, and quotas small enough
/// to defer and reject: per slot, the controller's admitted stream
/// (tick and payload), every ticket's outcome and its pending count
/// match [`ReferenceIntake`], and tickets number the submissions.
#[test]
fn admission_order_matches_reference() {
    let (mut deferred, mut rejected, mut re_admitted) = (0usize, 0usize, 0usize);
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let policy = AdmissionPolicy {
            max_queries_per_slot: rng.gen_range(0..6usize),
            max_budget_per_slot: if rng.gen_bool(0.3) {
                f64::INFINITY
            } else {
                rng.gen_range(5.0..40.0)
            },
            max_defer_slots: rng.gen_range(0..4usize),
        };
        let mut intake = AdmissionController::new(policy);
        let mut reference = ReferenceIntake::default();
        let mut submitted = 0u64;
        for slot in 0..rng.gen_range(2..7usize) {
            let carried = reference.carried.len();
            for _ in 0..rng.gen_range(0..50usize) {
                let tick = rng.gen_range(0..5u64);
                // A distinct location or id per submission, so payloads
                // tell the events apart.
                let event = if rng.gen_bool(0.25) {
                    ArrivalEvent::sensor(
                        tick,
                        SensorSnapshot {
                            id: submitted as usize,
                            loc: Point::new(0.0, 0.0),
                            cost: 1.0,
                            trust: 1.0,
                            inaccuracy: 0.1,
                        },
                    )
                } else {
                    ArrivalEvent::point(
                        tick,
                        PointSpec {
                            loc: Point::new(submitted as f64, 0.0),
                            budget: rng.gen_range(1.0..12.0),
                            theta_min: 0.2,
                        },
                    )
                };
                let ticket = intake.submit(event.clone());
                assert_eq!(ticket, Ticket(submitted), "seed {seed}: ticket numbering");
                submitted += 1;
                reference.fresh.push((ticket, event));
            }
            let batch = intake.admit_slot(slot);
            let (admitted, outcomes) = reference.admit_slot(&policy, slot);
            let label = format!("seed {seed} slot {slot}");
            let key = |e: &ArrivalEvent| format!("{} {:?}", e.tick, e.payload);
            assert_eq!(
                batch.admitted.iter().map(key).collect::<Vec<_>>(),
                admitted.iter().map(key).collect::<Vec<_>>(),
                "{label}: admitted stream"
            );
            assert_eq!(batch.outcomes().count(), outcomes.len(), "{label}");
            for (ticket, outcome) in &outcomes {
                assert_eq!(batch.outcome(*ticket), Some(outcome), "{label}: {ticket:?}");
            }
            assert_eq!(
                intake.pending(),
                reference.carried.len(),
                "{label}: pending"
            );
            deferred += batch.deferred();
            rejected += batch.rejected();
            re_admitted += outcomes[..carried]
                .iter()
                .filter(|(_, o)| *o == Admission::Admitted)
                .count();
        }
    }
    // The sequences defer, re-admit and reject.
    assert!(deferred > 0 && rejected > 0 && re_admitted > 0);
}

/// The shards an event reaches under the cluster's routing rule: a
/// sensor its home tile plus every tile whose halo ring holds it, a
/// query the shard owning its support's anchor.
fn routed_shards(cluster: &ShardedAggregator<'_>, ev: &ArrivalEvent, d_max: f64) -> Vec<usize> {
    let disk = |center: Point| SpatialSupport::Disk {
        center,
        radius: d_max,
    };
    let support = match &ev.payload {
        ArrivalPayload::Sensor(s) => {
            return cluster.grid().tiles_seeing(s.loc, cluster.halo()).collect();
        }
        ArrivalPayload::Point(spec) => disk(spec.loc),
        ArrivalPayload::Aggregate(spec) => SpatialSupport::Rect(spec.region),
        ArrivalPayload::LocationMonitor(spec) => disk(spec.loc),
        ArrivalPayload::RegionMonitor(spec) => SpatialSupport::Rect(*spec.valuation.region()),
    };
    vec![cluster.shard_of(&support)]
}

/// 50 seeded three-slot streams with sensors and queries interleaved at
/// mid-slot ticks, through a 2×2 cluster of online-auction shards and,
/// beside it, four standalone engines configured alike, each fed its
/// routed sub-stream in stream order. Per slot, the cluster's welfare is
/// the replicas' welfare summed in shard order plus the cost settlement
/// restored, bit for bit, and its decision ticks are the replicas'
/// concatenated in shard order.
#[test]
fn cluster_streaming_matches_standalone_shards() {
    let profile = small_profile();
    let quality = QualityModel::new(5.0);
    let online = |b: AggregatorBuilder<'static>| b.strategy(MixStrategy::OnlineAuction);
    let ctx = test_monitoring_ctx();
    let kernel = SquaredExponential::new(2.0, 2.0);
    let (mut duplicates, mut matched) = (0usize, 0usize);
    for seed in 0..50u64 {
        let mut cluster = ClusterBuilder::new(quality, profile.arena, 2)
            .threads(2)
            .configure_shards(online)
            .build();
        let mut replicas: Vec<Aggregator<'static>> = (0..cluster.shards().len())
            .map(|k| {
                online(AggregatorBuilder::new(quality))
                    .threads(1)
                    .next_query_id(k as u64 * SHARD_ID_BLOCK)
                    .build()
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for t in 0..3 {
            let events = profile.slot_events(
                &mut rng,
                t,
                DEFAULT_TICKS_PER_SLOT,
                cluster.location_monitor_count(),
                cluster.region_monitor_count(),
                &ctx,
                &kernel,
            );
            let mut routed: Vec<Vec<&ArrivalEvent>> = vec![Vec::new(); replicas.len()];
            for ev in &events {
                for k in routed_shards(&cluster, ev, quality.d_max) {
                    routed[k].push(ev);
                }
            }
            let report = cluster.step_streaming(t, &events);
            let mut welfare = 0.0;
            let mut ticks = Vec::new();
            for (replica, stream) in replicas.iter_mut().zip(&routed) {
                let r = replica.step_streaming(t, stream.iter().copied());
                welfare += r.welfare;
                let stats = r.streaming.expect("streaming entry point");
                matched += stats.matched_at_arrival;
                ticks.extend(stats.decision_ticks);
            }
            let settlement = cluster.last_settlement();
            welfare += settlement.cost_restored;
            duplicates += settlement.duplicates;
            let label = format!("seed {seed} slot {t}");
            assert_eq!(
                report.welfare.to_bits(),
                welfare.to_bits(),
                "{label}: welfare {} vs the shards' {welfare}",
                report.welfare
            );
            let stats = report.streaming.expect("streaming entry point");
            assert_eq!(stats.decision_ticks, ticks, "{label}: decision ticks");
        }
    }
    // Halo sensors were bought twice and settled, and points matched at
    // arrival, so both the routing and the auction did work.
    assert!(duplicates > 0 && matched > 0);
}
