//! The common slot-engine surface: one trait both the single
//! [`Aggregator`] and the sharded cluster implement.

use crate::cluster::ShardedAggregator;
use ps_core::aggregator::{
    AggregateSpec, Aggregator, LocationMonitorSpec, PointSpec, RegionMonitorSpec, RetiredMonitor,
    SlotReport, Totals,
};
use ps_core::model::{QueryId, SensorSnapshot, Slot};
use ps_core::monitor::location::LocationMonitor;
use ps_core::monitor::region::RegionMonitor;
use ps_core::streaming::ArrivalEvent;

/// What a slot-stepped acquisition engine looks like from the outside:
/// query intake, one [`SlotEngine::step`] per tick, and running
/// [`Totals`]. Implemented by [`Aggregator`] (one engine, the paper's
/// service) and [`ShardedAggregator`] (a tiled cluster of them), so
/// workload generators and experiment drivers run unchanged against
/// either.
///
/// The trait is object-safe: drivers typically hold a
/// `Box<dyn SlotEngine + 's>` chosen at runtime from a shard-count knob.
pub trait SlotEngine {
    /// Submits an end-user point query for the next slot.
    fn submit_point(&mut self, spec: PointSpec) -> QueryId;

    /// Submits a spatial aggregate query for the next slot.
    fn submit_aggregate(&mut self, spec: AggregateSpec) -> QueryId;

    /// Submits a location-monitoring query (active `[t1, t2]`).
    fn submit_location_monitor(&mut self, spec: LocationMonitorSpec) -> QueryId;

    /// Submits a region-monitoring query (active `[t1, t2]`).
    fn submit_region_monitor(&mut self, spec: RegionMonitorSpec) -> QueryId;

    /// Executes one time slot against the announced sensors. The report
    /// carries no decision latencies ([`SlotReport::streaming`] is
    /// `None`), whatever the strategy.
    fn step(&mut self, slot: Slot, sensors: &[SensorSnapshot]) -> SlotReport;

    /// Executes one time slot against a stream of intra-slot arrival
    /// events (queries and sensors stamped with ticks). A stream whose
    /// events all carry tick 0 in submission order is bit-identical to
    /// the batch [`SlotEngine::step`]; the report carries decision
    /// latencies in [`SlotReport::streaming`].
    fn step_streaming(&mut self, slot: Slot, events: &[ArrivalEvent]) -> SlotReport;

    /// Cumulative statistics since construction.
    fn totals(&self) -> &Totals;

    /// Live location monitors (cluster: collated in shard order).
    fn location_monitors(&self) -> Vec<&LocationMonitor>;

    /// Live region monitors (cluster: collated in shard order).
    fn region_monitors(&self) -> Vec<&RegionMonitor>;

    /// Number of live location monitors.
    fn location_monitor_count(&self) -> usize {
        self.location_monitors().len()
    }

    /// Number of live region monitors.
    fn region_monitor_count(&self) -> usize {
        self.region_monitors().len()
    }

    /// Monitors whose window has elapsed (cluster: shard order).
    fn retired_monitors(&self) -> Vec<&RetiredMonitor>;

    /// Drops retained retired-monitor state (long-running services).
    fn clear_retired(&mut self);
}

impl<'s> SlotEngine for Aggregator<'s> {
    fn submit_point(&mut self, spec: PointSpec) -> QueryId {
        Aggregator::submit_point(self, spec)
    }

    fn submit_aggregate(&mut self, spec: AggregateSpec) -> QueryId {
        Aggregator::submit_aggregate(self, spec)
    }

    fn submit_location_monitor(&mut self, spec: LocationMonitorSpec) -> QueryId {
        Aggregator::submit_location_monitor(self, spec)
    }

    fn submit_region_monitor(&mut self, spec: RegionMonitorSpec) -> QueryId {
        Aggregator::submit_region_monitor(self, spec)
    }

    fn step(&mut self, slot: Slot, sensors: &[SensorSnapshot]) -> SlotReport {
        Aggregator::step(self, slot, sensors)
    }

    fn step_streaming(&mut self, slot: Slot, events: &[ArrivalEvent]) -> SlotReport {
        Aggregator::step_streaming(self, slot, events)
    }

    fn totals(&self) -> &Totals {
        Aggregator::totals(self)
    }

    fn location_monitors(&self) -> Vec<&LocationMonitor> {
        Aggregator::location_monitors(self).iter().collect()
    }

    fn region_monitors(&self) -> Vec<&RegionMonitor> {
        Aggregator::region_monitors(self).iter().collect()
    }

    fn location_monitor_count(&self) -> usize {
        Aggregator::location_monitors(self).len()
    }

    fn region_monitor_count(&self) -> usize {
        Aggregator::region_monitors(self).len()
    }

    fn retired_monitors(&self) -> Vec<&RetiredMonitor> {
        Aggregator::retired_monitors(self).iter().collect()
    }

    fn clear_retired(&mut self) {
        Aggregator::clear_retired(self)
    }
}

impl<'s> SlotEngine for ShardedAggregator<'s> {
    fn submit_point(&mut self, spec: PointSpec) -> QueryId {
        ShardedAggregator::submit_point(self, spec)
    }

    fn submit_aggregate(&mut self, spec: AggregateSpec) -> QueryId {
        ShardedAggregator::submit_aggregate(self, spec)
    }

    fn submit_location_monitor(&mut self, spec: LocationMonitorSpec) -> QueryId {
        ShardedAggregator::submit_location_monitor(self, spec)
    }

    fn submit_region_monitor(&mut self, spec: RegionMonitorSpec) -> QueryId {
        ShardedAggregator::submit_region_monitor(self, spec)
    }

    fn step(&mut self, slot: Slot, sensors: &[SensorSnapshot]) -> SlotReport {
        ShardedAggregator::step(self, slot, sensors)
    }

    fn step_streaming(&mut self, slot: Slot, events: &[ArrivalEvent]) -> SlotReport {
        ShardedAggregator::step_streaming(self, slot, events)
    }

    fn totals(&self) -> &Totals {
        ShardedAggregator::totals(self)
    }

    fn location_monitors(&self) -> Vec<&LocationMonitor> {
        ShardedAggregator::location_monitors(self)
    }

    fn region_monitors(&self) -> Vec<&RegionMonitor> {
        ShardedAggregator::region_monitors(self)
    }

    fn location_monitor_count(&self) -> usize {
        ShardedAggregator::location_monitor_count(self)
    }

    fn region_monitor_count(&self) -> usize {
        ShardedAggregator::region_monitor_count(self)
    }

    fn retired_monitors(&self) -> Vec<&RetiredMonitor> {
        ShardedAggregator::retired_monitors(self)
    }

    fn clear_retired(&mut self) {
        ShardedAggregator::clear_retired(self)
    }
}
