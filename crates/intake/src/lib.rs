//! Event-time intake for the streaming aggregator: an admission
//! controller that accepts mid-slot query submissions and sensor
//! announcements, then applies per-slot compute and budget quotas
//! *before* work reaches the engine.
//!
//! Production participatory-sensing traffic does not line up at slot
//! boundaries: queries and sensors arrive continuously, and bursty load
//! can exceed what one slot's selection pass should absorb.
//! [`AdmissionController`] sits in front of
//! [`Aggregator::step_streaming`](ps_core::aggregator::Aggregator::step_streaming):
//!
//! * **Deterministic order.** Every submission gets a [`Ticket`] and
//!   waits in one pending list. The slot's stream runs by tick, ties in
//!   submission order (submissions that already came in tick order are
//!   not sorted), so replaying the same (seeded) arrival process always
//!   produces the same stream, and the slot's outcomes list in ticket
//!   order.
//! * **Quotas with explicit outcomes.** Per-slot caps on query count and
//!   submitted budget, each ticket getting an [`Admission`]. Over-quota
//!   work is **deferred** to the next slot (bounded retries) or
//!   **rejected**, never silently delayed: backpressure is visible to
//!   the submitter, and deferred or rejected queries pay nothing
//!   because they never reach the engine at all. A query whose budget
//!   is NaN, infinite or negative is rejected at once
//!   ([`RejectReason::InvalidBudget`]).
//! * **Work per query.** Only queries are walked and given a stored
//!   outcome; a sensor announcement is admitted as it stands. The quota
//!   walk costs in proportion to the slot's queries, not its events,
//!   and each admitted event moves once, into the admitted stream.
//!
//! ```rust
//! use ps_core::aggregator::PointSpec;
//! use ps_core::streaming::ArrivalEvent;
//! use ps_intake::{Admission, AdmissionController, AdmissionPolicy};
//! use ps_geo::Point;
//!
//! let mut intake = AdmissionController::new(AdmissionPolicy {
//!     max_queries_per_slot: 1,
//!     max_budget_per_slot: f64::INFINITY,
//!     max_defer_slots: 1,
//! });
//! let spec = PointSpec { loc: Point::new(1.0, 1.0), budget: 10.0, theta_min: 0.2 };
//! let first = intake.submit(ArrivalEvent::point(10, spec));
//! let second = intake.submit(ArrivalEvent::point(20, spec));
//! let batch = intake.admit_slot(0);
//! assert_eq!(batch.admitted.len(), 1, "one query fits the quota");
//! assert_eq!(batch.outcome(first), Some(&Admission::Admitted));
//! assert!(matches!(batch.outcome(second), Some(&Admission::Deferred { until_slot: 1 })));
//! // Next slot the deferred query re-enters ahead of fresh arrivals.
//! let batch = intake.admit_slot(1);
//! assert_eq!(batch.outcome(second), Some(&Admission::Admitted));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;

pub use admission::{
    Admission, AdmissionBatch, AdmissionController, AdmissionPolicy, RejectReason, Ticket,
};
