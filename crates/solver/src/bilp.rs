//! Binary integer linear programming by LP-relaxation branch-and-bound.
//!
//! Implements the exact solver the paper invokes for the single-sensor
//! point-query schedule (Eq. 9): "Instances of the optimization problem
//! (9) can be solved optimally by an ILP solver as long as the input size
//! is not very large." Variables are 0/1; bounds come from the two-phase
//! simplex of [`crate::simplex`] on the relaxation; nodes are explored in
//! **best-bound order** and branch on the **most fractional** variable.
//!
//! Every solve is *anytime*: an incumbent is tracked from the first
//! integral point on (or from a caller-supplied seed), so exhausting the node
//! budget, the pivot budget, or the wall-clock deadline still returns the
//! best feasible solution found — with a status
//! ([`SolveStatus::LimitReached`] / [`SolveStatus::Feasible`]) that is
//! always distinguishable from a proven [`SolveStatus::Infeasible`].

use crate::simplex::{self, Constraint, ConstraintOp, LpProblem, LpStatus};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

/// A 0/1 integer program: maximize `objective · x` with binary `x`,
/// subject to linear `constraints`.
#[derive(Debug, Clone)]
pub struct BilpProblem {
    /// Objective coefficients (maximization).
    pub objective: Vec<f64>,
    /// Linear constraints over the binary variables.
    pub constraints: Vec<Constraint>,
}

impl BilpProblem {
    /// Creates a maximization BILP with the given objective.
    pub fn maximize(objective: Vec<f64>) -> Self {
        Self {
            objective,
            constraints: Vec::new(),
        }
    }

    /// Adds a constraint (builder style).
    pub fn with(mut self, c: Constraint) -> Self {
        self.constraints.push(c);
        self
    }

    /// Number of binary variables.
    pub fn num_vars(&self) -> usize {
        self.objective.len()
    }

    /// Objective value of a 0/1 assignment.
    pub fn objective_of(&self, x: &[bool]) -> f64 {
        x.iter()
            .zip(&self.objective)
            .filter(|(&on, _)| on)
            .map(|(_, &c)| c)
            .sum()
    }

    /// Whether a 0/1 assignment satisfies every constraint (to a small
    /// tolerance).
    pub fn is_feasible(&self, x: &[bool]) -> bool {
        self.constraints.iter().all(|c| {
            let lhs: f64 = c
                .coeffs
                .iter()
                .filter(|&&(var, _)| x[var])
                .map(|&(_, coef)| coef)
                .sum();
            match c.op {
                ConstraintOp::Le => lhs <= c.rhs + 1e-7,
                ConstraintOp::Ge => lhs >= c.rhs - 1e-7,
                ConstraintOp::Eq => (lhs - c.rhs).abs() <= 1e-7,
            }
        })
    }

    /// The LP relaxation at the root (no fixings): the same program over
    /// `0 ≤ x ≤ 1`. Solving it with [`crate::simplex`] yields the
    /// `lp_bound` reported by [`solve`].
    ///
    /// The feasible region is exactly `{0 ≤ x ≤ 1}` intersected with the
    /// constraints, but the box row `x_j ≤ 1` is omitted where a
    /// constraint already implies it: a `≤` row whose coefficients are all
    /// non-negative and whose right-hand side lies in `[0, a_j]` bounds
    /// `a_j·x_j` by `a_j`. For Eq. 9 that drops the box row of every
    /// assignment variable (`Σ_e y_{l,e} ≤ 1`) and keeps the opens'.
    pub fn lp_relaxation(&self) -> LpProblem {
        relax(self, &vec![None; self.num_vars()])
    }
}

/// How a solve terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveStatus {
    /// The incumbent is proven optimal.
    Optimal,
    /// The wall-clock deadline expired; the incumbent is feasible but not
    /// proven optimal.
    Feasible,
    /// No feasible 0/1 assignment exists (proven).
    Infeasible,
    /// The relaxation is unbounded (only possible with non-box side
    /// constraints interacting numerically; never for well-posed 0/1
    /// programs).
    Unbounded,
    /// The node or pivot budget ran out; the incumbent — when one was
    /// found — is feasible but not proven optimal.
    LimitReached,
}

impl SolveStatus {
    /// True when the solve proved optimality.
    pub fn proven_optimal(self) -> bool {
        matches!(self, SolveStatus::Optimal)
    }
}

/// A relaxation value within this distance of an integer counts as
/// integral.
const INT_TOLERANCE: f64 = 1e-6;

/// Resource limits for a solve.
#[derive(Debug, Clone)]
pub struct SolveOptions {
    /// Branch-and-bound node budget (LP relaxations solved beyond the
    /// root). [`crate::ufl::solve_exact`] gives every connected component
    /// this budget of its own, so the order in which components are
    /// solved cannot change what any of them spends.
    pub max_nodes: usize,
    /// Wall-clock budget for the whole solve; `None` runs to the node
    /// and pivot limits. Deadline-limited solves return the incumbent
    /// with [`SolveStatus::Feasible`] — the anytime contract.
    /// [`crate::ufl::solve_exact`] shares one deadline across all
    /// components.
    pub deadline: Option<Duration>,
}

impl Default for SolveOptions {
    fn default() -> Self {
        Self {
            max_nodes: 50_000,
            deadline: None,
        }
    }
}

impl SolveOptions {
    /// Sets the node budget (builder style).
    pub fn with_max_nodes(mut self, n: usize) -> Self {
        self.max_nodes = n;
        self
    }

    /// Sets the wall-clock deadline (builder style).
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }
}

/// Result of a BILP solve.
#[derive(Debug, Clone)]
pub struct BilpSolution {
    /// Termination status.
    pub status: SolveStatus,
    /// Best feasible 0/1 assignment found, `None` when the solve ended
    /// without ever reaching one (proven infeasible, or limits struck
    /// first — the status tells which).
    pub x: Option<Vec<bool>>,
    /// Objective of `x` (`NEG_INFINITY` when `x` is `None`).
    pub objective: f64,
    /// Root LP-relaxation value: a valid upper bound on any feasible
    /// objective (`INFINITY` when the root relaxation itself hit the
    /// pivot budget).
    pub lp_bound: f64,
    /// Tightest upper bound proven by the time the solve stopped
    /// (equals `objective` on [`SolveStatus::Optimal`]).
    pub best_bound: f64,
    /// LP relaxations solved, root included.
    pub nodes: usize,
    /// Total simplex pivots spent.
    pub pivots: usize,
}

/// A solved-but-fractional node awaiting branching, keyed by its own
/// LP bound (max-heap ⇒ best-bound order; ties break on insertion order
/// for determinism).
struct OpenNode {
    bound: f64,
    seq: u64,
    fixing: Vec<Option<bool>>,
    x: Vec<f64>,
}

impl PartialEq for OpenNode {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for OpenNode {}
impl PartialOrd for OpenNode {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OpenNode {
    fn cmp(&self, other: &Self) -> Ordering {
        self.bound
            .total_cmp(&other.bound)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Shared mutable search state.
struct Search<'p> {
    problem: &'p BilpProblem,
    deadline_at: Option<Instant>,
    heap: BinaryHeap<OpenNode>,
    best: Option<(f64, Vec<bool>)>,
    nodes: usize,
    pivots: usize,
    seq: u64,
    limit_hit: bool,
}

impl Search<'_> {
    fn best_objective(&self) -> f64 {
        self.best.as_ref().map_or(f64::NEG_INFINITY, |(o, _)| *o)
    }

    fn offer_incumbent(&mut self, x: Vec<bool>) {
        debug_assert!(self.problem.is_feasible(&x));
        let obj = self.problem.objective_of(&x);
        if self.best.as_ref().is_none_or(|(b, _)| obj > *b) {
            self.best = Some((obj, x));
        }
    }

    fn deadline_expired(&self) -> bool {
        self.deadline_at.is_some_and(|at| Instant::now() >= at)
    }

    /// Solves one node's relaxation and either records an incumbent
    /// (integral) or pushes an open node (fractional).
    fn process(&mut self, fixing: Vec<Option<bool>>) -> Option<LpNode> {
        self.nodes += 1;
        let lp = relax(self.problem, &fixing);
        let out = simplex::solve(&lp);
        self.pivots += out.pivots;
        match out.status {
            LpStatus::Infeasible => None,
            LpStatus::Unbounded => Some(LpNode::Unbounded),
            LpStatus::PivotLimit => {
                // Feasibility at this node is unknown (phase-I strike) or
                // the bound is unproven (phase-II strike): either way the
                // subtree can't be searched exactly.
                self.limit_hit = true;
                if out.feasible {
                    if let Some(x) = integral(&out.x, &fixing, INT_TOLERANCE) {
                        if self.problem.is_feasible(&x) {
                            self.offer_incumbent(x);
                        }
                    }
                }
                None
            }
            LpStatus::Optimal => {
                if out.objective <= self.best_objective() + 1e-9 {
                    return Some(LpNode::Solved(out.objective));
                }
                match integral(&out.x, &fixing, INT_TOLERANCE) {
                    Some(x) => {
                        debug_assert!(self.problem.is_feasible(&x));
                        self.offer_incumbent(x);
                    }
                    None => {
                        self.seq += 1;
                        self.heap.push(OpenNode {
                            bound: out.objective,
                            seq: self.seq,
                            fixing,
                            x: out.x,
                        });
                    }
                }
                Some(LpNode::Solved(out.objective))
            }
        }
    }
}

enum LpNode {
    Solved(f64),
    Unbounded,
}

/// Solves the BILP by best-bound branch-and-bound over the simplex
/// relaxation. See the module docs for the anytime contract.
///
/// `incumbent` yields a known 0/1 point that seeds the search, so pruning
/// starts before the first integral relaxation; a point is ignored unless
/// it has one entry per variable and satisfies every constraint. It is
/// called at most once, right after the root relaxation, and only when
/// that relaxation leaves the search open (fractional, infeasible,
/// unbounded, or cut short by the pivot budget): an optimal integral root
/// is the answer without it. An integral root point (possible under a
/// pivot-budget strike) is offered first, so the seed replaces it only
/// when strictly better.
pub fn solve(
    problem: &BilpProblem,
    options: &SolveOptions,
    incumbent: impl FnOnce() -> Option<Vec<bool>>,
) -> BilpSolution {
    let n = problem.num_vars();
    let deadline_at = options.deadline.map(|d| Instant::now() + d);
    let mut search = Search {
        problem,
        deadline_at,
        heap: BinaryHeap::new(),
        best: None,
        nodes: 0,
        pivots: 0,
        seq: 0,
        limit_hit: false,
    };

    // Root relaxation (not counted against `max_nodes`).
    let root = search.process(vec![None; n]);
    search.nodes -= 1;
    // Only an optimal integral root leaves a point, no open node and no
    // limit strike.
    let closed = search.heap.is_empty() && search.best.is_some() && !search.limit_hit;
    if !closed {
        if let Some(seed) = incumbent().filter(|x| x.len() == n && problem.is_feasible(x)) {
            search.offer_incumbent(seed);
        }
    }
    let lp_bound = match root {
        Some(LpNode::Solved(bound)) => bound,
        Some(LpNode::Unbounded) => {
            return finish(search, SolveStatus::Unbounded, f64::INFINITY);
        }
        None if search.limit_hit => {
            // Root pivot budget struck: no bound proven at all.
            return finish(search, SolveStatus::LimitReached, f64::INFINITY);
        }
        None => {
            // Relaxation proven infeasible ⇒ the integer program is too.
            return finish(search, SolveStatus::Infeasible, f64::NEG_INFINITY);
        }
    };

    let status = loop {
        let Some(node) = search.heap.pop() else {
            // Search space exhausted.
            break if search.limit_hit {
                SolveStatus::LimitReached
            } else if search.best.is_some() {
                SolveStatus::Optimal
            } else {
                SolveStatus::Infeasible
            };
        };
        if node.bound <= search.best_objective() + 1e-9 {
            // Best-bound order: every remaining node is no better.
            break if search.limit_hit {
                SolveStatus::LimitReached
            } else {
                SolveStatus::Optimal
            };
        }
        if search.deadline_expired() {
            break SolveStatus::Feasible;
        }
        if search.nodes >= options.max_nodes {
            break SolveStatus::LimitReached;
        }

        // Most fractional free variable of this node's relaxation.
        let mut branch: Option<(usize, f64)> = None;
        for (j, &v) in node.x.iter().enumerate() {
            if node.fixing[j].is_some() {
                continue;
            }
            let frac = (v - v.round()).abs();
            if frac > INT_TOLERANCE {
                let dist_to_half = (v.fract() - 0.5).abs();
                match branch {
                    Some((_, best)) if best <= dist_to_half => {}
                    _ => branch = Some((j, dist_to_half)),
                }
            }
        }
        let Some((j, _)) = branch else {
            // Numerically integral after all (within tolerance): the
            // rounded point is the subtree's candidate.
            if let Some(x) = integral(&node.x, &node.fixing, 0.5) {
                if problem.is_feasible(&x) {
                    search.offer_incumbent(x);
                }
            }
            continue;
        };

        // The 1-branch first: it tends to find good incumbents early in
        // facility-location-style programs.
        for value in [true, false] {
            let mut fixing = node.fixing.clone();
            fixing[j] = Some(value);
            if let Some(LpNode::Unbounded) = search.process(fixing) {
                return finish(search, SolveStatus::Unbounded, lp_bound);
            }
        }
    };

    finish(search, status, lp_bound)
}

fn finish(search: Search<'_>, status: SolveStatus, lp_bound: f64) -> BilpSolution {
    let best_objective = search.best_objective();
    // Tightest proven bound: the best open-node bound, or the incumbent
    // when the search closed (min'd with the root bound for safety).
    let open_bound = search.heap.iter().map(|n| n.bound).fold(
        match status {
            SolveStatus::Optimal => best_objective,
            _ => lp_bound,
        },
        f64::max,
    );
    let best_bound = open_bound.min(lp_bound).max(best_objective);
    let (objective, x) = match search.best {
        Some((o, x)) => (o, Some(x)),
        None => (f64::NEG_INFINITY, None),
    };
    // A deadline strike before any incumbent shows as LimitReached, not
    // Feasible: `Feasible` always carries a usable point.
    let status = if status == SolveStatus::Feasible && x.is_none() {
        SolveStatus::LimitReached
    } else {
        status
    };
    BilpSolution {
        status,
        x,
        objective,
        lp_bound,
        best_bound,
        nodes: search.nodes,
        pivots: search.pivots,
    }
}

/// Rounds a relaxation point to 0/1 when every free coordinate is within
/// `tol` of an integer; fixed coordinates take their fixed value.
fn integral(x: &[f64], fixing: &[Option<bool>], tol: f64) -> Option<Vec<bool>> {
    let mut out = Vec::with_capacity(x.len());
    for (j, &v) in x.iter().enumerate() {
        match fixing[j] {
            Some(b) => out.push(b),
            None => {
                if (v - v.round()).abs() > tol {
                    return None;
                }
                out.push(v.round() > 0.5);
            }
        }
    }
    Some(out)
}

/// Builds the LP relaxation with the 0/1 box and current fixings:
/// the original constraints first, then one fixing row per fixed variable
/// and one box row per free variable whose `x_j ≤ 1` the constraints do
/// not already imply (see [`BilpProblem::lp_relaxation`]).
fn relax(problem: &BilpProblem, fixing: &[Option<bool>]) -> LpProblem {
    let implied = implied_unit_bounds(problem);
    let mut lp = LpProblem::maximize(problem.objective.clone());
    lp.constraints = problem.constraints.clone();
    for (j, fix) in fixing.iter().enumerate() {
        match fix {
            None if implied[j] => {}
            None => lp.constraints.push(Constraint::le(vec![(j, 1.0)], 1.0)),
            Some(true) => lp.constraints.push(Constraint::eq(vec![(j, 1.0)], 1.0)),
            Some(false) => lp.constraints.push(Constraint::eq(vec![(j, 1.0)], 0.0)),
        }
    }
    lp
}

/// Marks each variable whose `x_j ≤ 1` follows from one constraint: a
/// `≤` row with only non-negative coefficients and `0 ≤ rhs ≤ a_j`, where
/// `a_j > 0` is the variable's coefficient, gives `a_j·x_j ≤ rhs ≤ a_j` at
/// every non-negative point that satisfies it.
fn implied_unit_bounds(problem: &BilpProblem) -> Vec<bool> {
    let mut implied = vec![false; problem.num_vars()];
    for c in &problem.constraints {
        let bounds =
            c.op == ConstraintOp::Le && c.rhs >= 0.0 && c.coeffs.iter().all(|&(_, a)| a >= 0.0);
        if bounds {
            for &(j, a) in &c.coeffs {
                // An out-of-range `j` is left to the tableau's assert.
                if a > 0.0 && c.rhs <= a && j < implied.len() {
                    implied[j] = true;
                }
            }
        }
    }
    implied
}

/// Exhaustively solves a small BILP (≤ ~20 vars) — the test oracle.
pub fn solve_exhaustive(problem: &BilpProblem) -> Option<(f64, Vec<bool>)> {
    let n = problem.num_vars();
    assert!(n <= 24, "exhaustive solve limited to 24 variables");
    let mut best: Option<(f64, Vec<bool>)> = None;
    for mask in 0u64..(1 << n) {
        let x: Vec<bool> = (0..n).map(|j| mask & (1 << j) != 0).collect();
        if !problem.is_feasible(&x) {
            continue;
        }
        let obj = problem.objective_of(&x);
        if best.as_ref().is_none_or(|(b, _)| obj > *b) {
            best = Some((obj, x));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn solve_default(p: &BilpProblem) -> BilpSolution {
        solve(p, &SolveOptions::default(), || None)
    }

    /// max 10a + 13b + 7c  s.t.  3a + 4b + 2c <= 6: the root relaxation
    /// is fractional, so a zero-node solve stops before any integral point.
    fn fractional_knapsack() -> BilpProblem {
        BilpProblem::maximize(vec![10.0, 13.0, 7.0])
            .with(Constraint::le(vec![(0, 3.0), (1, 4.0), (2, 2.0)], 6.0))
    }

    #[test]
    fn knapsack_is_solved_exactly() {
        // b + c = 20 is optimal.
        let p = fractional_knapsack();
        let s = solve_default(&p);
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!((s.objective - 20.0).abs() < 1e-9);
        assert_eq!(s.x, Some(vec![false, true, true]));
        assert!(s.lp_bound >= s.objective - 1e-9);
        assert!((s.best_bound - s.objective).abs() < 1e-9);
    }

    #[test]
    fn infeasible_bilp_detected() {
        // x1 + x2 = 3 cannot hold for binaries.
        let p = BilpProblem::maximize(vec![1.0, 1.0])
            .with(Constraint::eq(vec![(0, 1.0), (1, 1.0)], 3.0));
        let s = solve_default(&p);
        assert_eq!(s.status, SolveStatus::Infeasible);
        assert!(s.x.is_none());
    }

    #[test]
    fn unconstrained_takes_positive_coefficients() {
        let p = BilpProblem::maximize(vec![2.0, -3.0, 0.5, -0.1]);
        let s = solve_default(&p);
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!((s.objective - 2.5).abs() < 1e-9);
        assert_eq!(s.x, Some(vec![true, false, true, false]));
    }

    #[test]
    fn facility_location_instance_matches_paper_structure() {
        // Eq. 9 shape: two sensors (cost 3 each), two locations.
        // v[l][i]: location 0: s0=5, s1=4 ; location 1: s0=1, s1=4.
        // Open both: 5+4-6 = 3; open s0: 5+1-3 = 3; open s1: 4+4-3 = 5.
        let p = BilpProblem::maximize(vec![-3.0, -3.0, 5.0, 4.0, 1.0, 4.0])
            .with(Constraint::le(vec![(2, 1.0), (0, -1.0)], 0.0)) // y00 <= x0
            .with(Constraint::le(vec![(3, 1.0), (1, -1.0)], 0.0)) // y01 <= x1
            .with(Constraint::le(vec![(4, 1.0), (0, -1.0)], 0.0)) // y10 <= x0
            .with(Constraint::le(vec![(5, 1.0), (1, -1.0)], 0.0)) // y11 <= x1
            .with(Constraint::le(vec![(2, 1.0), (3, 1.0)], 1.0)) // one per loc
            .with(Constraint::le(vec![(4, 1.0), (5, 1.0)], 1.0));
        let s = solve_default(&p);
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!((s.objective - 5.0).abs() < 1e-9);
        let x = s.x.unwrap();
        assert!(!x[0] && x[1]);
    }

    /// Satellite: a limit strike with an incumbent is `LimitReached`
    /// with `x = Some(..)` — never a bogus `Infeasible`.
    #[test]
    fn node_limit_with_incumbent_is_distinguishable_from_infeasible() {
        let p = fractional_knapsack();
        let opts = SolveOptions::default().with_max_nodes(0);
        let s = solve(&p, &opts, || None);
        assert_eq!(s.status, SolveStatus::LimitReached);
        // A feasible point is never visited with zero nodes; seed one and
        // the limited solve must surface it (or something at least as
        // good).
        let s = solve(&p, &opts, || Some(vec![false, true, false]));
        assert_eq!(s.status, SolveStatus::LimitReached);
        let x = s.x.expect("incumbent must survive the node limit");
        assert!(p.is_feasible(&x));
        assert!(s.objective >= 13.0 - 1e-9);
        assert!(s.objective <= s.lp_bound + 1e-9);
    }

    #[test]
    fn zero_deadline_returns_feasible_incumbent() {
        let p = fractional_knapsack();
        let opts = SolveOptions::default().with_deadline(Duration::ZERO);
        let s = solve(&p, &opts, || Some(vec![true, false, false]));
        // Deadline already expired when the loop starts: the seeded
        // incumbent (possibly improved by the root LP) comes back with a
        // non-Infeasible status.
        assert!(
            matches!(s.status, SolveStatus::Feasible | SolveStatus::Optimal),
            "status {:?}",
            s.status
        );
        let x = s.x.expect("anytime contract: incumbent present");
        assert!(p.is_feasible(&x));
        assert!(s.objective >= 10.0 - 1e-9);
    }

    /// A seed of the wrong length or one that breaks a constraint is
    /// dropped: the zero-node solve ends exactly as an unseeded one.
    #[test]
    fn unusable_incumbents_are_ignored() {
        let p = fractional_knapsack();
        let opts = SolveOptions::default().with_max_nodes(0);
        let overweight = vec![true, true, true]; // 3 + 4 + 2 > 6
        assert!(!p.is_feasible(&overweight));
        for seed in [
            vec![false, true],
            vec![false, true, false, true],
            overweight,
        ] {
            let s = solve(&p, &opts, || Some(seed.clone()));
            assert_eq!(s.status, SolveStatus::LimitReached, "seed {seed:?}");
            assert_eq!(s.x, None, "seed {seed:?} was accepted");
            assert_eq!(s.objective, f64::NEG_INFINITY);
        }
    }

    /// The seed is built only when the root relaxation leaves the search
    /// open, and an optimal integral root is the answer even where the
    /// seed would tie it (both points below are worth 2).
    #[test]
    fn seed_is_built_only_when_the_root_leaves_the_search_open() {
        let calls = std::cell::Cell::new(0);
        let counted = |x: Vec<bool>| {
            let calls = &calls;
            move || {
                calls.set(calls.get() + 1);
                Some(x)
            }
        };
        let opts = SolveOptions::default();
        let s = solve(
            &fractional_knapsack(),
            &opts,
            counted(vec![false, true, false]),
        );
        assert_eq!((calls.get(), s.status), (1, SolveStatus::Optimal));
        let s = solve(
            &BilpProblem::maximize(vec![2.0, 0.0]),
            &opts,
            counted(vec![true, true]),
        );
        assert_eq!((calls.get(), s.status), (1, SolveStatus::Optimal));
        assert_eq!(s.x, Some(vec![true, false]));
    }

    fn random_instance(rng: &mut StdRng, n: usize, m: usize) -> BilpProblem {
        let obj: Vec<f64> = (0..n)
            .map(|_| (rng.gen_range(-50..50) as f64) / 10.0)
            .collect();
        let mut p = BilpProblem::maximize(obj);
        for _ in 0..m {
            let mut coeffs: Vec<(usize, f64)> = Vec::new();
            for j in 0..n {
                if rng.gen_bool(0.6) {
                    coeffs.push((j, (rng.gen_range(1..10) as f64) / 2.0));
                }
            }
            if coeffs.is_empty() {
                continue;
            }
            let total: f64 = coeffs.iter().map(|&(_, c)| c).sum();
            let rhs = total * rng.gen_range(0.3..0.9);
            p.constraints.push(Constraint::le(coeffs, rhs));
        }
        p
    }

    #[test]
    fn matches_exhaustive_on_random_knapsacks() {
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..30 {
            let p = random_instance(&mut rng, 8, 3);
            let bb = solve_default(&p);
            let ex = solve_exhaustive(&p).expect("all-false is feasible for <= with rhs >= 0");
            assert_eq!(bb.status, SolveStatus::Optimal, "trial {trial}");
            assert!(
                (bb.objective - ex.0).abs() < 1e-6,
                "trial {trial}: bb={} exhaustive={}",
                bb.objective,
                ex.0
            );
            assert!(bb.lp_bound >= ex.0 - 1e-7, "trial {trial}: bound invalid");
        }
    }

    /// The variables whose `x_j ≤ 1` box row `lp_relaxation` appends,
    /// after checking that it keeps the problem's own rows first and
    /// appends nothing else.
    fn box_rows(p: &BilpProblem) -> Vec<usize> {
        let lp = p.lp_relaxation();
        assert_eq!(lp.objective, p.objective);
        let (own, appended) = lp.constraints.split_at(p.constraints.len());
        for (a, b) in own.iter().zip(&p.constraints) {
            assert_eq!((&a.coeffs, a.op, a.rhs), (&b.coeffs, b.op, b.rhs));
        }
        appended
            .iter()
            .map(|c| {
                assert_eq!((c.coeffs.len(), c.coeffs[0].1), (1, 1.0));
                assert_eq!((c.op, c.rhs), (ConstraintOp::Le, 1.0));
                c.coeffs[0].0
            })
            .collect()
    }

    /// A `≤` row with non-negative coefficients and `0 ≤ rhs ≤ a_j`
    /// implies `x_j ≤ 1`; anything else keeps the box row.
    #[test]
    fn lp_relaxation_omits_only_implied_box_rows() {
        let implied = |n| {
            BilpProblem::maximize(vec![1.0; n])
                .with(Constraint::le(vec![(0, 1.0), (1, 1.0)], 1.0))
                .with(Constraint::le(vec![(2, 1.0)], 1.0))
        };
        assert_eq!(box_rows(&implied(3)), Vec::<usize>::new());
        // 2·x3 ≤ 3 allows x3 = 1.5; x4 − x5 ≤ 0 has a negative
        // coefficient; x6 appears in no row.
        let p = implied(7)
            .with(Constraint::le(vec![(3, 2.0)], 3.0))
            .with(Constraint::le(vec![(4, 1.0), (5, -1.0)], 0.0));
        assert_eq!(box_rows(&p), vec![3, 4, 5, 6]);
    }

    /// `p` with `x_j ≤ 1` among its own constraints for every variable:
    /// its root relaxation lists every box row after `p`'s rows, in
    /// variable order, and `relax` appends none of its own.
    fn with_every_box_row(p: &BilpProblem) -> BilpProblem {
        let mut full = p.clone();
        full.constraints
            .extend((0..p.num_vars()).map(|j| Constraint::le(vec![(j, 1.0)], 1.0)));
        full
    }

    /// Omitting implied box rows leaves the root bound and the integer
    /// solve of seeded Eq. 9 instances (random and clustered) unchanged.
    #[test]
    fn implied_box_rows_change_no_eq9_bound_or_solve() {
        use crate::ufl::tests::{clustered_instance, random_instance};
        let mut rng = StdRng::seed_from_u64(9);
        let mut instances: Vec<BilpProblem> = (0..60)
            .map(|k| random_instance(&mut rng, 6 + k % 4, 8 + k % 6).to_bilp())
            .collect();
        instances.extend((0..20).map(|_| clustered_instance(&mut rng, 8, 12).to_bilp()));
        let mut branched = 0;
        for (k, p) in instances.iter().enumerate() {
            let full = with_every_box_row(p);
            let lean = simplex::solve(&p.lp_relaxation());
            let every = simplex::solve(&full.lp_relaxation());
            assert_eq!(lean.status, LpStatus::Optimal, "instance {k}");
            assert_eq!(every.status, LpStatus::Optimal, "instance {k}");
            assert!(
                (lean.objective - every.objective).abs() <= 1e-9,
                "instance {k}: {} vs {}",
                lean.objective,
                every.objective
            );
            let lean = solve_default(p);
            let every = solve_default(&full);
            branched += usize::from(lean.nodes > 0);
            assert_eq!(lean.status, every.status, "instance {k}");
            assert!(
                (lean.objective - every.objective).abs() <= 1e-9,
                "instance {k}: {} vs {}",
                lean.objective,
                every.objective
            );
        }
        assert!(branched >= 5, "{branched} instances branched");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// Satellite: the simplex+B&B stack agrees with the exhaustive
        /// oracle on random small BILPs (≤ 12 vars).
        #[test]
        fn branch_and_bound_matches_exhaustive(seed in 0u64..1000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 7 + (seed as usize % 6); // 7..=12 variables
            let p = random_instance(&mut rng, n, 3);
            let bb = solve_default(&p);
            let ex = solve_exhaustive(&p).unwrap();
            prop_assert_eq!(bb.status, SolveStatus::Optimal);
            prop_assert!((bb.objective - ex.0).abs() < 1e-6,
                "bb={} exhaustive={}", bb.objective, ex.0);
            let x = bb.x.unwrap();
            prop_assert!(p.is_feasible(&x));
            prop_assert!(bb.lp_bound >= ex.0 - 1e-7);
        }

        /// Satellite: phase I correctly flags infeasible systems — an
        /// equality demanding more than the variables can add up to.
        #[test]
        fn phase_one_flags_infeasible_systems(seed in 0u64..500) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 3 + (seed as usize % 5);
            let obj: Vec<f64> = (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect();
            // Σ x_i = n + 1 is unsatisfiable even fractionally in [0,1]^n.
            let coeffs: Vec<(usize, f64)> = (0..n).map(|j| (j, 1.0)).collect();
            let p = BilpProblem::maximize(obj)
                .with(Constraint::eq(coeffs, n as f64 + 1.0));
            let s = solve_default(&p);
            prop_assert_eq!(s.status, SolveStatus::Infeasible);
            prop_assert!(s.x.is_none());
        }
    }
}
