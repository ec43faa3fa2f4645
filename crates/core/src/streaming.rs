//! Event-time arrivals for the streaming intake path.
//!
//! The batch [`Aggregator::step`](crate::aggregator::Aggregator::step)
//! assumes every query and sensor is present at the slot boundary. The
//! streaming entry point
//! [`Aggregator::step_streaming`](crate::aggregator::Aggregator::step_streaming)
//! instead consumes a slot's worth of [`ArrivalEvent`]s — queries and
//! sensor announcements stamped with an intra-slot *tick* — and, under
//! [`MixStrategy::OnlineAuction`](crate::aggregator::MixStrategy::OnlineAuction),
//! clears sensor–query matches at arrival time instead of at the slot
//! boundary.
//!
//! # The equivalence contract
//!
//! For every engine configuration, a streaming run whose events all
//! arrive at tick 0 in submission order is **bit-identical** to the
//! batch `step` over the same queries and sensors. Non-auction
//! strategies replay the events into the ordinary intake and execute the
//! batch pipeline; the online auction *is* the batch path (batch `step`
//! delegates to `step_streaming` with every sensor arriving at tick 0),
//! so the contract holds by construction on a shared code path. It is
//! property-tested end to end in `tests/streaming_equivalence.rs`.

use crate::aggregator::{AggregateSpec, LocationMonitorSpec, PointSpec, RegionMonitorSpec};
use crate::model::SensorSnapshot;

/// What arrived: a query submission or a sensor announcement.
///
/// Query payloads carry the same intake specs the `submit_*` methods
/// take; the engine mints the [`QueryId`](crate::model::QueryId) when
/// the event is processed, so replaying events in submission order
/// reproduces the batch id sequence exactly.
///
/// The two monitor specs are boxed: they are rare in a stream and up to
/// 208 bytes inline, while every event is moved through admission and
/// sorted, so inline they would set the size of every sensor
/// announcement too. Boxed, an [`ArrivalEvent`] is 64 bytes.
#[derive(Debug, Clone)]
pub enum ArrivalPayload {
    /// An end-user point query (§2.2.1).
    Point(PointSpec),
    /// A spatial aggregate query (§2.2.2).
    Aggregate(AggregateSpec),
    /// A location-monitoring query (§2.3.2); continuous queries activate
    /// on arrival and are driven at slot boundaries.
    LocationMonitor(Box<LocationMonitorSpec>),
    /// A region-monitoring query (§2.3.1).
    RegionMonitor(Box<RegionMonitorSpec>),
    /// A sensor announcing itself mid-slot: location, price, and trust
    /// become visible (and matchable) from this tick onward.
    Sensor(SensorSnapshot),
}

/// One timestamped arrival within a slot.
#[derive(Debug, Clone)]
pub struct ArrivalEvent {
    /// Intra-slot arrival time in `[0, DEFAULT_TICKS_PER_SLOT)` (see
    /// [`DEFAULT_TICKS_PER_SLOT`](crate::aggregator::DEFAULT_TICKS_PER_SLOT));
    /// ticks at or past the slot length are clamped to the boundary.
    pub tick: u64,
    /// The arriving query or sensor.
    pub payload: ArrivalPayload,
}

impl ArrivalEvent {
    /// A sensor announcement at `tick`.
    pub fn sensor(tick: u64, s: SensorSnapshot) -> Self {
        ArrivalEvent {
            tick,
            payload: ArrivalPayload::Sensor(s),
        }
    }

    /// A point-query submission at `tick`.
    pub fn point(tick: u64, spec: PointSpec) -> Self {
        ArrivalEvent {
            tick,
            payload: ArrivalPayload::Point(spec),
        }
    }

    /// An aggregate-query submission at `tick`.
    pub fn aggregate(tick: u64, spec: AggregateSpec) -> Self {
        ArrivalEvent {
            tick,
            payload: ArrivalPayload::Aggregate(spec),
        }
    }
}

/// Per-slot decision-latency statistics of a streaming run, attached to
/// the [`SlotReport`](crate::aggregator::SlotReport) as
/// [`SlotReport::streaming`](crate::aggregator::SlotReport).
///
/// A *decision tick* is the number of ticks between a one-shot query's
/// arrival and the engine deciding its fate: 0 for a point matched the
/// instant it arrived, `match_tick − arrival_tick` for a waiting point
/// matched by a later sensor arrival, and `DEFAULT_TICKS_PER_SLOT −
/// arrival_tick` for anything resolved at the slot boundary (the batch
/// fallback resolves *every* query at the boundary). Continuous
/// monitors and custom valuations are counted as arrivals but get no
/// decision tick — they live across slots.
#[derive(Debug, Clone, Default)]
pub struct StreamStats {
    /// One-shot and continuous query submissions seen this slot.
    pub query_arrivals: usize,
    /// Sensor announcements seen this slot.
    pub sensor_arrivals: usize,
    /// Point queries matched by the online auction *before* the slot
    /// boundary (at their own arrival or a later sensor's).
    pub matched_at_arrival: usize,
    /// Decision latency of every one-shot (point or aggregate) query,
    /// in arrival order.
    pub decision_ticks: Vec<u64>,
}

impl StreamStats {
    /// The `p`-th percentile (nearest-rank on the sorted latencies) of
    /// the decision ticks, or `None` when no one-shot query arrived.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.decision_ticks.is_empty() {
            return None;
        }
        let mut sorted = self.decision_ticks.clone();
        sorted.sort_unstable();
        let rank = ((sorted.len() - 1) as f64 * p / 100.0).round() as usize;
        Some(sorted[rank])
    }

    /// Median decision latency in ticks.
    pub fn p50(&self) -> Option<u64> {
        self.percentile(50.0)
    }

    /// 99th-percentile decision latency in ticks.
    pub fn p99(&self) -> Option<u64> {
        self.percentile(99.0)
    }

    /// Merges another shard's statistics into this one (the federation
    /// layer's shard-order merge). Latencies concatenate.
    pub fn absorb(&mut self, other: &StreamStats) {
        self.query_arrivals += other.query_arrivals;
        self.sensor_arrivals += other.sensor_arrivals;
        self.matched_at_arrival += other.matched_at_arrival;
        self.decision_ticks.extend_from_slice(&other.decision_ticks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every event is moved through admission, sorted and routed, so its
    /// size is the size of every copy: a payload stored inline instead
    /// of boxed fails here rather than silently tripling each one.
    #[test]
    fn arrival_event_fits_in_64_bytes() {
        assert!(
            std::mem::size_of::<ArrivalEvent>() <= 64,
            "ArrivalEvent is {} bytes",
            std::mem::size_of::<ArrivalEvent>()
        );
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let s = StreamStats {
            decision_ticks: (0..100).collect(),
            ..StreamStats::default()
        };
        assert_eq!(s.p50(), Some(50));
        assert_eq!(s.p99(), Some(98));
        assert_eq!(s.percentile(0.0), Some(0));
        assert_eq!(s.percentile(100.0), Some(99));
    }

    /// Latencies are kept in arrival order; a percentile ranks a sorted
    /// copy.
    #[test]
    fn percentiles_do_not_depend_on_arrival_order() {
        let s = StreamStats {
            decision_ticks: vec![900, 0, 40, 7, 300],
            ..StreamStats::default()
        };
        assert_eq!(s.p50(), Some(40));
        assert_eq!(s.percentile(0.0), Some(0));
        assert_eq!(s.p99(), Some(900));
        assert_eq!(s.decision_ticks, [900, 0, 40, 7, 300]);
    }

    #[test]
    fn empty_stats_have_no_percentiles() {
        let s = StreamStats::default();
        assert_eq!(s.p50(), None);
        assert_eq!(s.p99(), None);
    }

    #[test]
    fn absorb_concatenates_and_sums() {
        let mut a = StreamStats::default();
        let b = StreamStats {
            query_arrivals: 3,
            sensor_arrivals: 2,
            matched_at_arrival: 1,
            decision_ticks: vec![5, 7],
        };
        a.absorb(&b);
        a.absorb(&b);
        assert_eq!(a.query_arrivals, 6);
        assert_eq!(a.sensor_arrivals, 4);
        assert_eq!(a.matched_at_arrival, 2);
        assert_eq!(a.decision_ticks, vec![5, 7, 5, 7]);
    }
}
