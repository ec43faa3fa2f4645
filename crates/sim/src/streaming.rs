//! The streaming-intake scenario: bursty mid-slot arrivals through an
//! admission controller into the online double auction, raced against
//! batch Algorithm 5 on the *identical* admitted stream.
//!
//! Each slot:
//!
//! 1. [`StandingMixProfile::slot_events`] generates one slot of
//!    timestamped arrivals (sensors filling in over the first half,
//!    point queries spread over the slot with burst extras clustered in
//!    a rush window, boundary-valued monitors at tick 0);
//! 2. every arrival goes through an [`AdmissionController`] whose
//!    query quota sits at the *base* (non-burst) arrival rate, so burst
//!    slots visibly defer their overflow to the next slot instead of
//!    silently absorbing it;
//! 3. the admitted stream drives two engines slot-locked together: one
//!    with [`MixStrategy::OnlineAuction`] (point queries match at
//!    arrival time) and one with batch Algorithm 5 (everything waits
//!    for the boundary). Same events, same order, same seeds.
//!
//! The summary reports the online auction's welfare gap against batch
//! (how much welfare arrival-time matching gives up by committing
//! early) and its decision-latency percentiles (how much sooner
//! submitters hear an answer). `repro --streaming` runs this scenario
//! and writes `results/streaming.csv`.

use crate::config::Scale;
use crate::engine::engine_for;
use crate::metrics::FigureTable;
use crate::workload::{test_monitoring_ctx, StandingMixProfile};
use ps_core::aggregator::{MixStrategy, DEFAULT_TICKS_PER_SLOT};
use ps_core::streaming::StreamStats;
use ps_core::valuation::quality::QualityModel;
use ps_gp::kernel::SquaredExponential;
use ps_intake::{AdmissionController, AdmissionPolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// What one streaming run measured, aggregated over all slots.
#[derive(Debug, Clone)]
pub struct StreamingSummary {
    /// Slots simulated.
    pub slots: usize,
    /// Cumulative welfare of the online-auction engine.
    pub streaming_welfare: f64,
    /// Cumulative welfare of the batch Alg5 engine on the same stream.
    pub batch_welfare: f64,
    /// `(batch − streaming) / |batch|` — what arrival-time matching
    /// gives up (negative when the online auction wins).
    pub welfare_gap: f64,
    /// Median per-query decision latency, in ticks.
    pub p50_decision_ticks: u64,
    /// 99th-percentile per-query decision latency, in ticks.
    pub p99_decision_ticks: u64,
    /// Point queries matched mid-slot (before the boundary).
    pub matched_at_arrival: usize,
    /// Query arrivals that reached the engine.
    pub query_arrivals: usize,
    /// Submissions admitted across all slots (queries and sensors).
    pub admitted: usize,
    /// Query submissions deferred to a later slot at least once.
    pub deferred: usize,
    /// Query submissions dropped after exhausting their deferrals.
    pub rejected: usize,
}

/// Runs the streaming scenario at `scale` (burst shape from
/// [`StandingMixProfile::metro`], populations from the scale) and
/// returns the aggregate summary plus a per-slot figure table.
pub fn run(scale: &Scale) -> (StreamingSummary, FigureTable) {
    let mut profile = StandingMixProfile::from_scale(scale);
    profile.burst_period = 4;
    profile.burst_factor = 1.5;

    let quality = QualityModel::new(5.0);
    let mut online = engine_for(scale, &profile.arena, quality, |b| {
        b.strategy(MixStrategy::OnlineAuction)
    });
    let mut batch = engine_for(scale, &profile.arena, quality, |b| {
        b.strategy(MixStrategy::Alg5)
    });

    // Quota at the base (non-burst) query arrival rate: burst slots
    // overflow and defer, quiet slots admit the deferred queries.
    let mut intake = AdmissionController::new(AdmissionPolicy {
        max_queries_per_slot: profile.standing_queries(),
        max_budget_per_slot: f64::INFINITY,
        max_defer_slots: 2,
    });

    let ctx = test_monitoring_ctx();
    let kernel = SquaredExponential::new(2.0, 2.0);
    let mut rng = StdRng::seed_from_u64(scale.seed ^ 0x5a17);

    let mut stats = StreamStats::default();
    let mut summary = StreamingSummary {
        slots: scale.slots,
        streaming_welfare: 0.0,
        batch_welfare: 0.0,
        welfare_gap: 0.0,
        p50_decision_ticks: 0,
        p99_decision_ticks: 0,
        matched_at_arrival: 0,
        query_arrivals: 0,
        admitted: 0,
        deferred: 0,
        rejected: 0,
    };
    let mut table = FigureTable::new(
        "streaming",
        "Streaming intake: online auction vs batch Alg5 under bursty arrivals",
        "Slot",
        "Welfare / latency / backpressure",
        (0..scale.slots).map(|t| t as f64).collect(),
    );
    let mut online_series = Vec::with_capacity(scale.slots);
    let mut batch_series = Vec::with_capacity(scale.slots);
    let mut p99_series = Vec::with_capacity(scale.slots);
    let mut deferred_series = Vec::with_capacity(scale.slots);

    for t in 0..scale.slots {
        // Both engines see identical admitted monitors, so their
        // standing populations (and thus the top-up draws) agree.
        let events = profile.slot_events(
            &mut rng,
            t,
            DEFAULT_TICKS_PER_SLOT,
            online.location_monitor_count(),
            online.region_monitor_count(),
            &ctx,
            &kernel,
        );
        for ev in events {
            intake.submit(ev);
        }
        let admitted = intake.admit_slot(t);
        summary.admitted += admitted.admitted.len();
        summary.deferred += admitted.deferred();
        summary.rejected += admitted.rejected();

        let online_report = online.step_streaming(t, &admitted.admitted);
        let batch_report = batch.step_streaming(t, &admitted.admitted);
        online.clear_retired();
        batch.clear_retired();

        summary.streaming_welfare += online_report.welfare;
        summary.batch_welfare += batch_report.welfare;
        online_series.push(online_report.welfare);
        batch_series.push(batch_report.welfare);
        deferred_series.push(admitted.deferred() as f64);
        if let Some(slot_stats) = &online_report.streaming {
            p99_series.push(slot_stats.p99().unwrap_or(0) as f64);
            stats.absorb(slot_stats);
        } else {
            p99_series.push(0.0);
        }
    }

    summary.welfare_gap = if summary.batch_welfare.abs() > f64::EPSILON {
        (summary.batch_welfare - summary.streaming_welfare) / summary.batch_welfare.abs()
    } else {
        0.0
    };
    summary.p50_decision_ticks = stats.p50().unwrap_or(0);
    summary.p99_decision_ticks = stats.p99().unwrap_or(0);
    summary.matched_at_arrival = stats.matched_at_arrival;
    summary.query_arrivals = stats.query_arrivals;

    table.push_series("online welfare", online_series);
    table.push_series("batch welfare", batch_series);
    table.push_series("p99 ticks", p99_series);
    table.push_series("deferred", deferred_series);
    (summary, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_reports_latency_and_backpressure() {
        let mut scale = Scale::smoke();
        scale.slots = 5; // cover one burst slot (t % 4 == 3)
        let (summary, table) = run(&scale);
        assert_eq!(table.xs.len(), 5);
        assert_eq!(table.series.len(), 4);
        assert!(summary.streaming_welfare.is_finite());
        assert!(summary.batch_welfare.is_finite());
        assert!(summary.query_arrivals > 0, "queries must reach the engine");
        assert!(
            summary.p99_decision_ticks >= summary.p50_decision_ticks,
            "percentiles out of order"
        );
        assert!(
            summary.p99_decision_ticks <= DEFAULT_TICKS_PER_SLOT,
            "no decision can wait past the boundary"
        );
        // The burst slot overflows the base-rate quota.
        assert!(summary.deferred > 0, "burst overflow should defer");
    }
}
