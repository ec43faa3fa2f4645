//! Optimization engines for utility-driven sensor scheduling.
//!
//! The paper needs three optimization primitives:
//!
//! 1. **An exact solver for the single-sensor point-query BILP (Eq. 9).**
//!    The program is an uncapacitated-facility-location-style welfare
//!    maximization: opening sensor `i` costs `c_i`, and each queried
//!    location `l` collects the value of the best open sensor. The solver
//!    core is layered: [`simplex`] is a two-phase (phase-I feasibility /
//!    phase-II optimize) dense-tableau simplex with Bland's-rule
//!    anti-cycling and pivot budgets; [`bilp`] is a best-bound
//!    branch-and-bound over its LP relaxations (most-fractional
//!    branching, incumbent tracking, so every solve is *anytime*); and
//!    [`ufl`] specializes both to Eq. 9 via connected-component
//!    decomposition, with the components spread over worker threads
//!    and heuristic incumbent seeding.
//! 2. **The Local Search approximation of Feige, Mirrokni & Vondrák
//!    (FOCS'07)** for non-monotone submodular maximization, which the paper
//!    uses as its scalable heuristic for point-query scheduling
//!    ([`ufl::solve_local_search`], an incremental variant specialized to
//!    Eq. 9).
//! 3. **Greedy marginal-gain selection** (Algorithm 1's engine), as the
//!    facility-opening heuristic [`ufl::solve_greedy`].
//!
//! [`submodular`] holds the brute-force set-function property checks
//! the valuation tests use.
//!
//! Every solve surfaces a [`SolveStatus`] — `Optimal`, `Feasible`
//! (incumbent under a deadline), `Infeasible`, `Unbounded`, or
//! `LimitReached` (node/pivot budget) — and resource limits flow through
//! [`SolveOptions`], so callers can always distinguish "proven
//! infeasible" from "ran out of budget with a usable incumbent".
//!
//! Everything here is deterministic at default options: ties break on the
//! lowest index, and parallel solves merge in component order, so
//! simulations are reproducible bit-for-bit at any worker count. They
//! fork through [`exec::Threads`], the one fork-join of the workspace:
//! this is the lowest crate that forks work, and `ps_core::exec`
//! re-exports the module.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bilp;
pub mod exec;
pub mod simplex;
pub mod submodular;
pub mod ufl;

pub use bilp::{BilpProblem, BilpSolution, SolveOptions, SolveStatus};
pub use simplex::{Constraint, ConstraintOp, LpOutcome, LpProblem, LpStatus};
pub use ufl::{WelfareProblem, WelfareSolution};
