//! Per-slot admission control with explicit outcomes.

use std::collections::HashMap;

use ps_core::model::Slot;
use ps_core::streaming::{ArrivalEvent, ArrivalPayload};
use ps_core::valuation::SetValuation;

/// Receipt for one submission, unique per [`AdmissionController`] for
/// its whole lifetime. Tickets are how submitters look up their
/// [`Admission`] outcome after the slot closes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ticket(pub u64);

/// Per-slot quotas the controller enforces on query arrivals. Sensor
/// announcements are capacity, not load — they are always admitted and
/// never counted against either quota.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionPolicy {
    /// Maximum number of queries admitted into one slot.
    pub max_queries_per_slot: usize,
    /// Maximum total submitted budget admitted into one slot.
    pub max_budget_per_slot: f64,
    /// How many slots a query may be deferred before it is rejected.
    /// `0` means over-quota queries are rejected immediately.
    pub max_defer_slots: usize,
}

impl AdmissionPolicy {
    /// A policy that admits everything (useful as a pass-through).
    pub fn unlimited() -> Self {
        AdmissionPolicy {
            max_queries_per_slot: usize::MAX,
            max_budget_per_slot: f64::INFINITY,
            max_defer_slots: 0,
        }
    }
}

/// The explicit outcome of one submission for one slot. Backpressure is
/// visible, never silent: a query that does not run this slot is either
/// deferred (with the slot it will retry in) or rejected (with a
/// reason), and in both cases it pays nothing because it never reaches
/// the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum Admission {
    /// The event entered this slot's admitted stream.
    Admitted,
    /// Over quota; the query retries in `until_slot` ahead of fresh
    /// arrivals (effective tick 0, in the order it was deferred in).
    Deferred {
        /// Slot the query will re-enter admission in.
        until_slot: Slot,
    },
    /// Dropped for good; the submitter must resubmit if still wanted.
    Rejected {
        /// Human-readable reason the query was dropped.
        reason: RejectReason,
    },
}

/// Why a query was rejected rather than deferred again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The query was deferred `max_defer_slots` times and still did not
    /// fit the quota.
    DeferralsExhausted,
    /// The query's own budget exceeds `max_budget_per_slot`, so no
    /// amount of deferral can ever admit it.
    BudgetExceedsSlotQuota,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::DeferralsExhausted => write!(f, "deferrals exhausted"),
            RejectReason::BudgetExceedsSlotQuota => {
                write!(f, "budget exceeds per-slot quota")
            }
        }
    }
}

/// The result of closing admission for one slot: the admitted event
/// stream (ready for `step_streaming`) plus the outcome of every ticket
/// that was pending when the slot closed.
#[derive(Debug)]
pub struct AdmissionBatch {
    /// The slot these outcomes are for.
    pub slot: Slot,
    /// Admitted events in deterministic stream order: deferred
    /// re-entrants first (in the order they were deferred, effective
    /// tick 0), then fresh arrivals sorted by `(tick, ticket)`.
    pub admitted: Vec<ArrivalEvent>,
    outcomes: HashMap<Ticket, Admission>,
}

impl AdmissionBatch {
    /// The outcome for `ticket` in this slot, if it was pending here.
    pub fn outcome(&self, ticket: Ticket) -> Option<&Admission> {
        self.outcomes.get(&ticket)
    }

    /// Iterates every `(ticket, outcome)` pair in this slot.
    pub fn outcomes(&self) -> impl Iterator<Item = (Ticket, &Admission)> {
        self.outcomes.iter().map(|(t, a)| (*t, a))
    }

    /// Number of queries deferred to a later slot.
    pub fn deferred(&self) -> usize {
        self.outcomes
            .values()
            .filter(|a| matches!(a, Admission::Deferred { .. }))
            .count()
    }

    /// Number of queries rejected outright.
    pub fn rejected(&self) -> usize {
        self.outcomes
            .values()
            .filter(|a| matches!(a, Admission::Rejected { .. }))
            .count()
    }
}

/// Front door to the streaming engine: accepts timestamped submissions
/// at any time, then [`admit_slot`](AdmissionController::admit_slot)
/// closes one slot's intake and applies the quotas.
///
/// Determinism contract: outcomes depend only on the submission
/// sequence (order and ticks), never on wall-clock time, so a replayed
/// seeded arrival process admits the exact same stream.
#[derive(Debug)]
pub struct AdmissionController {
    policy: AdmissionPolicy,
    /// Every submission waiting for the next slot, with the number of
    /// times it was deferred: deferred queries (restamped to tick 0)
    /// first, then fresh submissions in ticket order.
    pending: Vec<(Ticket, ArrivalEvent, usize)>,
    next_ticket: u64,
}

impl AdmissionController {
    /// A controller enforcing `policy`, with nothing pending; the first
    /// ticket issued is `Ticket(0)`.
    pub fn new(policy: AdmissionPolicy) -> Self {
        AdmissionController {
            policy,
            pending: Vec::new(),
            next_ticket: 0,
        }
    }

    /// Submits one arrival for the next slot that closes; returns the
    /// ticket used to look up its outcome in that slot's
    /// [`AdmissionBatch`]. Tickets number submissions in order, and the
    /// number breaks ties between events sharing a tick.
    pub fn submit(&mut self, event: ArrivalEvent) -> Ticket {
        let ticket = Ticket(self.next_ticket);
        self.next_ticket += 1;
        self.pending.push((ticket, event, 0));
        ticket
    }

    /// Number of submissions waiting for the next slot (fresh plus
    /// deferred).
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Closes intake for `slot`: every pending submission gets an
    /// explicit [`Admission`] outcome, and the admitted events come
    /// back in deterministic stream order.
    ///
    /// Quota accounting walks queries in stream order (deferred
    /// re-entrants first, then fresh arrivals by `(tick, ticket)`)
    /// and admits each query that keeps both the count and the budget
    /// totals within the policy. Sensor announcements are always
    /// admitted and skip the accounting entirely.
    pub fn admit_slot(&mut self, slot: Slot) -> AdmissionBatch {
        // A stable sort by tick is the whole stream order: re-entrants
        // sit at tick 0 ahead of every later submission, and the list
        // holds fresh submissions in ticket order.
        let mut pending = std::mem::take(&mut self.pending);
        pending.sort_by_key(|(_, event, _)| event.tick);
        let mut admitted = Vec::new();
        let mut outcomes = HashMap::new();
        let mut queries = 0usize;
        let mut budget = 0.0f64;

        for (ticket, mut event, defers) in pending {
            let Some(cost) = query_budget(&event.payload) else {
                // Sensors are capacity, not load.
                admitted.push(event);
                outcomes.insert(ticket, Admission::Admitted);
                continue;
            };
            if cost > self.policy.max_budget_per_slot {
                outcomes.insert(
                    ticket,
                    Admission::Rejected {
                        reason: RejectReason::BudgetExceedsSlotQuota,
                    },
                );
                continue;
            }
            let fits = queries < self.policy.max_queries_per_slot
                && budget + cost <= self.policy.max_budget_per_slot;
            if fits {
                queries += 1;
                budget += cost;
                admitted.push(event);
                outcomes.insert(ticket, Admission::Admitted);
            } else if defers < self.policy.max_defer_slots {
                outcomes.insert(
                    ticket,
                    Admission::Deferred {
                        until_slot: slot + 1,
                    },
                );
                // Re-enters the next slot at effective tick 0.
                event.tick = 0;
                self.pending.push((ticket, event, defers + 1));
            } else {
                outcomes.insert(
                    ticket,
                    Admission::Rejected {
                        reason: RejectReason::DeferralsExhausted,
                    },
                );
            }
        }

        AdmissionBatch {
            slot,
            admitted,
            outcomes,
        }
    }
}

/// The budget a query arrival puts against the slot quota; `None` for
/// sensor announcements.
fn query_budget(payload: &ArrivalPayload) -> Option<f64> {
    match payload {
        ArrivalPayload::Point(spec) => Some(spec.budget),
        ArrivalPayload::Aggregate(spec) => Some(spec.budget),
        ArrivalPayload::LocationMonitor(spec) => Some(spec.valuation.budget()),
        ArrivalPayload::RegionMonitor(spec) => Some(spec.valuation.max_value()),
        ArrivalPayload::Sensor(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_core::aggregator::PointSpec;
    use ps_core::model::SensorSnapshot;
    use ps_geo::Point;

    fn point(tick: u64, budget: f64) -> ArrivalEvent {
        ArrivalEvent::point(
            tick,
            PointSpec {
                loc: Point::new(1.0, 1.0),
                budget,
                theta_min: 0.2,
            },
        )
    }

    fn sensor(tick: u64) -> ArrivalEvent {
        ArrivalEvent::sensor(
            tick,
            SensorSnapshot {
                id: 7,
                loc: Point::new(2.0, 2.0),
                cost: 1.0,
                trust: 1.0,
                inaccuracy: 0.1,
            },
        )
    }

    fn policy(max_queries: usize, max_budget: f64, max_defers: usize) -> AdmissionPolicy {
        AdmissionPolicy {
            max_queries_per_slot: max_queries,
            max_budget_per_slot: max_budget,
            max_defer_slots: max_defers,
        }
    }

    #[test]
    fn admits_by_tick_then_submission_order() {
        let mut ctl = AdmissionController::new(AdmissionPolicy::unlimited());
        ctl.submit(point(9, 1.0));
        ctl.submit(point(3, 2.0));
        ctl.submit(point(3, 3.0));
        let batch = ctl.admit_slot(0);
        let order: Vec<(u64, Option<f64>)> = batch
            .admitted
            .iter()
            .map(|e| (e.tick, query_budget(&e.payload)))
            .collect();
        assert_eq!(order, [(3, Some(2.0)), (3, Some(3.0)), (9, Some(1.0))]);
        assert_eq!(ctl.pending(), 0);
    }

    #[test]
    fn tickets_stay_unique_across_slots() {
        let mut ctl = AdmissionController::new(AdmissionPolicy::unlimited());
        let a = ctl.submit(point(0, 1.0));
        ctl.admit_slot(0);
        let b = ctl.submit(point(0, 1.0));
        assert_ne!(a, b);
        assert_eq!(ctl.pending(), 1);
    }

    #[test]
    fn sensors_bypass_quotas() {
        let mut ctl = AdmissionController::new(policy(0, 0.0, 0));
        let s = ctl.submit(sensor(5));
        let batch = ctl.admit_slot(0);
        assert_eq!(batch.admitted.len(), 1);
        assert_eq!(batch.outcome(s), Some(&Admission::Admitted));
    }

    #[test]
    fn budget_quota_defers_then_rejects() {
        let mut ctl = AdmissionController::new(policy(10, 15.0, 1));
        let a = ctl.submit(point(0, 10.0));
        let b = ctl.submit(point(1, 10.0));
        let batch = ctl.admit_slot(0);
        assert_eq!(batch.outcome(a), Some(&Admission::Admitted));
        assert_eq!(
            batch.outcome(b),
            Some(&Admission::Deferred { until_slot: 1 })
        );
        assert_eq!(batch.deferred(), 1);

        // Next slot is crowded again: b has exhausted its one deferral.
        let c = ctl.submit(point(0, 10.0));
        let batch = ctl.admit_slot(1);
        // b re-enters ahead of c, so b is admitted and c is deferred.
        assert_eq!(batch.outcome(b), Some(&Admission::Admitted));
        assert_eq!(
            batch.outcome(c),
            Some(&Admission::Deferred { until_slot: 2 })
        );

        // A query that can never fit is rejected immediately.
        let d = ctl.submit(point(0, 20.0));
        let batch = ctl.admit_slot(2);
        assert_eq!(
            batch.outcome(d),
            Some(&Admission::Rejected {
                reason: RejectReason::BudgetExceedsSlotQuota
            })
        );
        assert_eq!(batch.outcome(c), Some(&Admission::Admitted));
    }

    #[test]
    fn exhausted_deferrals_reject() {
        let mut ctl = AdmissionController::new(policy(1, f64::INFINITY, 1));
        let _winner = ctl.submit(point(0, 1.0));
        let second = ctl.submit(point(1, 1.0));
        let third = ctl.submit(point(2, 1.0));
        let batch = ctl.admit_slot(0);
        assert_eq!(
            batch.outcome(second),
            Some(&Admission::Deferred { until_slot: 1 })
        );
        assert_eq!(
            batch.outcome(third),
            Some(&Admission::Deferred { until_slot: 1 })
        );
        // Slot 1: re-entrants compete for the single seat in their
        // original order; third is out of deferrals and is dropped.
        let batch = ctl.admit_slot(1);
        assert_eq!(batch.outcome(second), Some(&Admission::Admitted));
        assert!(matches!(
            batch.outcome(third),
            Some(&Admission::Rejected {
                reason: RejectReason::DeferralsExhausted
            })
        ));
    }

    #[test]
    fn deferred_re_enter_at_tick_zero_keeping_order() {
        let mut ctl = AdmissionController::new(policy(1, f64::INFINITY, 2));
        let _first = ctl.submit(point(0, 1.0));
        let b = ctl.submit(point(700, 1.0));
        let c = ctl.submit(point(600, 1.0));
        ctl.admit_slot(0);
        // c arrived at an earlier tick than b, so c was deferred ahead
        // of b in stream order... but deferral order follows the slot-0
        // stream order (tick, seq): c (tick 600) before b (tick 700).
        let batch = ctl.admit_slot(1);
        assert_eq!(batch.outcome(c), Some(&Admission::Admitted));
        assert_eq!(
            batch.outcome(b),
            Some(&Admission::Deferred { until_slot: 2 })
        );
        assert_eq!(batch.admitted[0].tick, 0, "re-entrants run at tick 0");
    }

    #[test]
    fn unlimited_policy_admits_everything() {
        let mut ctl = AdmissionController::new(AdmissionPolicy::unlimited());
        let tickets: Vec<Ticket> = (0..20).map(|i| ctl.submit(point(i, 50.0))).collect();
        let batch = ctl.admit_slot(3);
        assert_eq!(batch.admitted.len(), 20);
        for t in tickets {
            assert_eq!(batch.outcome(t), Some(&Admission::Admitted));
        }
        assert_eq!(batch.rejected(), 0);
    }
}
