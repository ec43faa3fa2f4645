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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::tests::{
        arena, location_monitor, point_spec, quality, region_monitor, sensor,
    };
    use crate::ClusterBuilder;
    use ps_core::query::AggregateKind;
    use ps_geo::Rect;

    /// One workload driven through a `dyn SlotEngine` and through the
    /// cluster's own methods gets the same ids, reports, monitor views and
    /// totals: every trait method reaches its namesake.
    #[test]
    fn trait_calls_reach_the_clusters_own_methods() {
        let build = || ClusterBuilder::new(quality(), arena(), 2).build();
        let mut direct = build();
        let mut boxed: Box<dyn SlotEngine> = Box::new(build());
        let aggregate = AggregateSpec {
            region: Rect::new(10.0, 10.0, 30.0, 30.0),
            budget: 40.0,
            kind: AggregateKind::Average,
        };
        let region = Rect::new(60.0, 10.0, 70.0, 20.0);
        let ids = [
            (
                direct.submit_point(point_spec(20.0, 20.0, 30.0)),
                boxed.submit_point(point_spec(20.0, 20.0, 30.0)),
            ),
            (
                direct.submit_aggregate(aggregate.clone()),
                boxed.submit_aggregate(aggregate),
            ),
            (
                direct.submit_location_monitor(location_monitor(80.0, 80.0, 0)),
                boxed.submit_location_monitor(location_monitor(80.0, 80.0, 0)),
            ),
            (
                direct.submit_region_monitor(region_monitor(region, 0)),
                boxed.submit_region_monitor(region_monitor(region, 0)),
            ),
        ];
        for (a, b) in ids {
            assert_eq!(a, b);
        }
        assert_eq!(boxed.location_monitor_count(), 1);
        assert_eq!(boxed.region_monitor_count(), 1);
        assert_eq!(boxed.location_monitors()[0].id, ids[2].0);
        assert_eq!(boxed.region_monitors()[0].id, ids[3].0);

        let sensors = [sensor(0, 20.0, 20.0), sensor(1, 80.0, 80.0)];
        let (a, b) = (direct.step(0, &sensors), boxed.step(0, &sensors));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let events = [
            ArrivalEvent::sensor(0, sensors[0]),
            ArrivalEvent::point(5, point_spec(20.0, 20.0, 30.0)),
        ];
        let (a, b) = (
            direct.step_streaming(1, &events),
            boxed.step_streaming(1, &events),
        );
        assert_eq!(format!("{a:?}"), format!("{b:?}"));

        let retired: Vec<QueryId> = boxed.retired_monitors().iter().map(|m| m.id()).collect();
        assert_eq!(
            retired,
            [ids[3].0, ids[2].0],
            "tile 1's region monitor, then tile 3's"
        );
        boxed.clear_retired();
        assert!(boxed.retired_monitors().is_empty());
        assert_eq!(
            (boxed.location_monitor_count(), boxed.region_monitor_count()),
            (0, 0)
        );
        assert_eq!(
            format!("{:?}", boxed.totals()),
            format!("{:?}", direct.totals())
        );
    }
}
