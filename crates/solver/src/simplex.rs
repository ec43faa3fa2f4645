//! Dense two-phase simplex: the LP core of the solver subsystem.
//!
//! Phase I drives artificial variables out of the basis to find a basic
//! feasible solution; phase II optimizes the real objective over the
//! structural columns. Dantzig pricing with an automatic switch to
//! Bland's rule guards against cycling, and every pivot is counted
//! against a caller-supplied budget so the solve is interruptible.
//!
//! The tableau's column layout is
//!
//! ```text
//! [ decision vars | slack/surplus | artificials | rhs ]
//! ```

/// Relational operator of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintOp {
    /// `Σ aᵢxᵢ ≤ b`
    Le,
    /// `Σ aᵢxᵢ ≥ b`
    Ge,
    /// `Σ aᵢxᵢ = b`
    Eq,
}

/// One linear constraint over the problem's variables.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// Sparse coefficients as `(variable index, coefficient)` pairs.
    pub coeffs: Vec<(usize, f64)>,
    /// Relational operator.
    pub op: ConstraintOp,
    /// Right-hand side.
    pub rhs: f64,
}

impl Constraint {
    /// Convenience constructor for a `≤` constraint.
    pub fn le(coeffs: Vec<(usize, f64)>, rhs: f64) -> Self {
        Self {
            coeffs,
            op: ConstraintOp::Le,
            rhs,
        }
    }

    /// Convenience constructor for a `≥` constraint.
    pub fn ge(coeffs: Vec<(usize, f64)>, rhs: f64) -> Self {
        Self {
            coeffs,
            op: ConstraintOp::Ge,
            rhs,
        }
    }

    /// Convenience constructor for an `=` constraint.
    pub fn eq(coeffs: Vec<(usize, f64)>, rhs: f64) -> Self {
        Self {
            coeffs,
            op: ConstraintOp::Eq,
            rhs,
        }
    }
}

/// A linear program: maximize `objective · x` subject to `constraints`,
/// with all variables non-negative.
#[derive(Debug, Clone)]
pub struct LpProblem {
    /// Objective coefficients (maximization).
    pub objective: Vec<f64>,
    /// Constraint rows.
    pub constraints: Vec<Constraint>,
}

impl LpProblem {
    /// Creates a maximization problem with the given objective.
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

    /// Number of decision variables.
    pub fn num_vars(&self) -> usize {
        self.objective.len()
    }
}

/// How a simplex solve terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// Proven optimal; `x` and `objective` are the optimum.
    Optimal,
    /// No feasible point satisfies the constraints.
    Infeasible,
    /// The objective is unbounded above on the feasible region.
    Unbounded,
    /// The pivot budget ran out. When `feasible` is set on the outcome,
    /// `x` is a primal-feasible (but not proven optimal) point.
    PivotLimit,
}

/// Outcome of a simplex solve.
#[derive(Debug, Clone)]
pub struct LpOutcome {
    /// Termination status.
    pub status: LpStatus,
    /// Objective value of `x`. Meaningful when `feasible`; `NEG_INFINITY`
    /// on [`LpStatus::Infeasible`], `INFINITY` on [`LpStatus::Unbounded`].
    pub objective: f64,
    /// Decision-variable assignment (zeros when no feasible point was
    /// reached).
    pub x: Vec<f64>,
    /// True when `x` is primal feasible — always on
    /// [`LpStatus::Optimal`], and on a [`LpStatus::PivotLimit`] that
    /// struck during phase II (the tableau stays feasible there).
    pub feasible: bool,
    /// Pivots spent.
    pub pivots: usize,
}

/// Per-solve pivot budget, ample for the small dense programs this
/// crate builds (component relaxations of Eq. 9).
const MAX_PIVOTS: usize = 10_000;

const EPS: f64 = 1e-9;

/// Solves the LP within the crate's pivot budget.
pub fn solve(problem: &LpProblem) -> LpOutcome {
    solve_with(problem, MAX_PIVOTS)
}

/// Solves the LP with an explicit pivot budget.
fn solve_with(problem: &LpProblem, max_pivots: usize) -> LpOutcome {
    Tableau::build(problem, max_pivots).run()
}

/// Internal simplex tableau. See the module docs for the column layout.
struct Tableau {
    /// rows[i] has width `cols`; the last column is the RHS.
    rows: Vec<Vec<f64>>,
    /// Objective coefficients (phase II), length `cols - 1`.
    objective: Vec<f64>,
    /// Basis variable per row.
    basis: Vec<usize>,
    num_decision: usize,
    num_structural: usize, // decision + slack/surplus
    cols: usize,           // total columns incl. rhs
    artificial_start: usize,
    pivots: usize,
    max_pivots: usize,
}

/// What `Tableau::optimize` ran into.
enum Phase {
    Done(f64),
    Unbounded,
    PivotLimit,
}

impl Tableau {
    fn build(problem: &LpProblem, max_pivots: usize) -> Self {
        let n = problem.num_vars();
        let m = problem.constraints.len();

        // Count slack (Le/Ge) columns; artificials get one column per
        // row in the worst case.
        let mut num_slack = 0;
        for c in &problem.constraints {
            match effective_op(c) {
                ConstraintOp::Le | ConstraintOp::Ge => num_slack += 1,
                ConstraintOp::Eq => {}
            }
        }
        let num_structural = n + num_slack;
        let cols = num_structural + m + 1;
        let artificial_start = num_structural;

        let mut rows = vec![vec![0.0; cols]; m];
        let mut basis = vec![usize::MAX; m];
        let mut slack_idx = n;
        let mut art_idx = artificial_start;

        for (i, c) in problem.constraints.iter().enumerate() {
            // Normalize to non-negative rhs.
            let flip = c.rhs < 0.0;
            let sign = if flip { -1.0 } else { 1.0 };
            for &(var, coef) in &c.coeffs {
                assert!(var < n, "constraint references variable {var} >= {n}");
                rows[i][var] += sign * coef;
            }
            rows[i][cols - 1] = sign * c.rhs;
            let op = effective_op_raw(c.op, flip);
            match op {
                ConstraintOp::Le => {
                    rows[i][slack_idx] = 1.0;
                    basis[i] = slack_idx;
                    slack_idx += 1;
                }
                ConstraintOp::Ge => {
                    rows[i][slack_idx] = -1.0; // surplus
                    slack_idx += 1;
                    rows[i][art_idx] = 1.0;
                    basis[i] = art_idx;
                    art_idx += 1;
                }
                ConstraintOp::Eq => {
                    rows[i][art_idx] = 1.0;
                    basis[i] = art_idx;
                    art_idx += 1;
                }
            }
        }

        let mut objective = vec![0.0; cols - 1];
        objective[..n].copy_from_slice(&problem.objective);

        Tableau {
            rows,
            objective,
            basis,
            num_decision: n,
            num_structural,
            cols,
            artificial_start,
            pivots: 0,
            max_pivots,
        }
    }

    /// Runs the solve: phase I when the starting basis holds
    /// artificials, then phase II.
    fn run(mut self) -> LpOutcome {
        let m = self.rows.len();
        let has_artificials = self.basis.iter().any(|&b| b >= self.artificial_start);

        #[allow(clippy::needless_range_loop)]
        if has_artificials {
            // Phase I: minimize the artificial sum == maximize -(sum).
            let mut phase1 = vec![0.0; self.cols - 1];
            for j in self.artificial_start..(self.cols - 1) {
                phase1[j] = -1.0;
            }
            match self.optimize(&phase1, self.cols - 1) {
                Phase::Done(value) => {
                    if value < -1e-7 {
                        return self.outcome(LpStatus::Infeasible, f64::NEG_INFINITY, false);
                    }
                }
                // Phase I can't be unbounded (the objective is ≤ 0).
                Phase::Unbounded | Phase::PivotLimit => {
                    return self.outcome(LpStatus::PivotLimit, f64::NEG_INFINITY, false);
                }
            }
            // Pivot remaining basic artificials out where possible.
            for i in 0..m {
                if self.basis[i] >= self.artificial_start {
                    if let Some(j) = (0..self.num_structural).find(|&j| self.rows[i][j].abs() > EPS)
                    {
                        self.pivot(i, j);
                    }
                    // A row with no structural pivot is all-zero
                    // (redundant constraint); its artificial stays basic
                    // at value 0, harmless in phase II because
                    // artificial columns are barred from entering.
                }
            }
        }

        // Phase II over structural columns only.
        let objective = self.objective.clone();
        match self.optimize(&objective, self.num_structural) {
            Phase::Done(value) => self.outcome(LpStatus::Optimal, value, true),
            Phase::Unbounded => self.outcome(LpStatus::Unbounded, f64::INFINITY, false),
            // Phase II pivots preserve feasibility: the current point is
            // a usable (suboptimal) primal solution.
            Phase::PivotLimit => {
                let value = self.current_value(&objective);
                self.outcome(LpStatus::PivotLimit, value, true)
            }
        }
    }

    fn outcome(&self, status: LpStatus, objective: f64, feasible: bool) -> LpOutcome {
        let mut x = vec![0.0; self.num_decision];
        if feasible {
            for (i, &b) in self.basis.iter().enumerate() {
                if b < self.num_decision {
                    x[b] = self.rows[i][self.cols - 1];
                }
            }
        }
        LpOutcome {
            status,
            objective,
            x,
            feasible,
            pivots: self.pivots,
        }
    }

    fn current_value(&self, obj: &[f64]) -> f64 {
        let rhs_col = self.cols - 1;
        self.basis
            .iter()
            .zip(&self.rows)
            .map(|(&b, row)| obj[b] * row[rhs_col])
            .sum()
    }

    /// Runs simplex iterations maximizing `obj`, restricted to entering
    /// columns `< col_limit`.
    fn optimize(&mut self, obj: &[f64], col_limit: usize) -> Phase {
        let m = self.rows.len();
        let bland_after = 50 * (m + self.cols);
        let mut iter = 0usize;

        loop {
            let use_bland = iter > bland_after;
            iter += 1;
            // Pricing: reduced cost r_j = c_j - c_B · column_j.
            let mut entering: Option<(usize, f64)> = None;
            for j in 0..col_limit {
                if self.basis.contains(&j) {
                    continue;
                }
                let mut r = obj[j];
                for i in 0..m {
                    let cb = obj[self.basis[i]];
                    if cb != 0.0 {
                        r -= cb * self.rows[i][j];
                    }
                }
                if r > EPS {
                    if use_bland {
                        entering = Some((j, r));
                        break;
                    }
                    match entering {
                        Some((_, best)) if best >= r => {}
                        _ => entering = Some((j, r)),
                    }
                }
            }
            let Some((enter, _)) = entering else {
                return Phase::Done(self.current_value(obj));
            };

            // Ratio test; ties break on the lowest basis index
            // (deterministic, and the second half of Bland's rule).
            let rhs_col = self.cols - 1;
            let mut leave: Option<(usize, f64)> = None;
            for i in 0..m {
                let a = self.rows[i][enter];
                if a > EPS {
                    let ratio = self.rows[i][rhs_col] / a;
                    match leave {
                        Some((li, lr)) => {
                            if ratio < lr - EPS
                                || (ratio < lr + EPS && self.basis[i] < self.basis[li])
                            {
                                leave = Some((i, ratio));
                            }
                        }
                        None => leave = Some((i, ratio)),
                    }
                }
            }
            let Some((leave_row, _)) = leave else {
                return Phase::Unbounded;
            };
            if self.pivots >= self.max_pivots {
                return Phase::PivotLimit;
            }
            self.pivot(leave_row, enter);
        }
    }

    fn pivot(&mut self, row: usize, col: usize) {
        let m = self.rows.len();
        let pivot = self.rows[row][col];
        debug_assert!(pivot.abs() > 1e-12, "pivot too small");
        let inv = 1.0 / pivot;
        for v in &mut self.rows[row] {
            *v *= inv;
        }
        for i in 0..m {
            if i == row {
                continue;
            }
            let factor = self.rows[i][col];
            if factor == 0.0 {
                continue;
            }
            let (pivot_row, target_row) = if i < row {
                let (a, b) = self.rows.split_at_mut(row);
                (&b[0], &mut a[i])
            } else {
                let (a, b) = self.rows.split_at_mut(i);
                (&a[row], &mut b[0])
            };
            for (t, p) in target_row.iter_mut().zip(pivot_row) {
                *t -= factor * p;
            }
            // Clean numerical dust on the pivot column.
            target_row[col] = 0.0;
        }
        self.basis[row] = col;
        self.pivots += 1;
    }
}

fn effective_op(c: &Constraint) -> ConstraintOp {
    effective_op_raw(c.op, c.rhs < 0.0)
}

fn effective_op_raw(op: ConstraintOp, flipped: bool) -> ConstraintOp {
    if !flipped {
        return op;
    }
    match op {
        ConstraintOp::Le => ConstraintOp::Ge,
        ConstraintOp::Ge => ConstraintOp::Le,
        ConstraintOp::Eq => ConstraintOp::Eq,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    fn opt(p: &LpProblem) -> LpOutcome {
        let out = solve(p);
        assert_eq!(out.status, LpStatus::Optimal);
        assert!(out.feasible);
        out
    }

    #[test]
    fn textbook_two_variable_lp() {
        // max 3x + 2y  s.t.  x + y <= 4, x <= 2  → x=2, y=2, obj=10.
        let p = LpProblem::maximize(vec![3.0, 2.0])
            .with(Constraint::le(vec![(0, 1.0), (1, 1.0)], 4.0))
            .with(Constraint::le(vec![(0, 1.0)], 2.0));
        let s = opt(&p);
        assert_close(s.objective, 10.0);
        assert_close(s.x[0], 2.0);
        assert_close(s.x[1], 2.0);
    }

    #[test]
    fn lp_with_ge_constraint() {
        // max -x - y  s.t. x + y >= 3, x,y >= 0 → obj = -3.
        let p = LpProblem::maximize(vec![-1.0, -1.0])
            .with(Constraint::ge(vec![(0, 1.0), (1, 1.0)], 3.0));
        let s = opt(&p);
        assert_close(s.objective, -3.0);
        assert_close(s.x[0] + s.x[1], 3.0);
    }

    #[test]
    fn lp_with_equality_constraint() {
        // max 2x + 3y  s.t. x + y = 5, y <= 2 → x=3, y=2, obj=12.
        let p = LpProblem::maximize(vec![2.0, 3.0])
            .with(Constraint::eq(vec![(0, 1.0), (1, 1.0)], 5.0))
            .with(Constraint::le(vec![(1, 1.0)], 2.0));
        let s = opt(&p);
        assert_close(s.objective, 12.0);
        assert_close(s.x[0], 3.0);
        assert_close(s.x[1], 2.0);
    }

    #[test]
    fn infeasible_lp_detected() {
        // x <= 1 and x >= 2 simultaneously.
        let p = LpProblem::maximize(vec![1.0])
            .with(Constraint::le(vec![(0, 1.0)], 1.0))
            .with(Constraint::ge(vec![(0, 1.0)], 2.0));
        let s = solve(&p);
        assert_eq!(s.status, LpStatus::Infeasible);
        assert!(!s.feasible);
    }

    #[test]
    fn unbounded_lp_detected() {
        let p = LpProblem::maximize(vec![1.0, 0.0]).with(Constraint::ge(vec![(0, 1.0)], 1.0));
        assert_eq!(solve(&p).status, LpStatus::Unbounded);
    }

    #[test]
    fn negative_rhs_is_normalized() {
        // max x  s.t.  -x <= -2  (i.e. x >= 2), x <= 5 → obj=5.
        let p = LpProblem::maximize(vec![1.0])
            .with(Constraint::le(vec![(0, -1.0)], -2.0))
            .with(Constraint::le(vec![(0, 1.0)], 5.0));
        let s = opt(&p);
        assert_close(s.objective, 5.0);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Multiple constraints active at the optimum.
        let p = LpProblem::maximize(vec![1.0, 1.0])
            .with(Constraint::le(vec![(0, 1.0)], 1.0))
            .with(Constraint::le(vec![(1, 1.0)], 1.0))
            .with(Constraint::le(vec![(0, 1.0), (1, 1.0)], 2.0))
            .with(Constraint::le(vec![(0, 1.0), (1, -1.0)], 0.0));
        let s = opt(&p);
        assert_close(s.objective, 2.0);
    }

    #[test]
    fn redundant_equality_rows_are_tolerated() {
        // x + y = 2 listed twice.
        let p = LpProblem::maximize(vec![1.0, 0.0])
            .with(Constraint::eq(vec![(0, 1.0), (1, 1.0)], 2.0))
            .with(Constraint::eq(vec![(0, 1.0), (1, 1.0)], 2.0));
        let s = opt(&p);
        assert_close(s.objective, 2.0);
        assert_close(s.x[0], 2.0);
    }

    #[test]
    fn facility_location_relaxation_integral_example() {
        // Tiny UFL: 1 facility (cost 1), 2 clients worth 2 each when open.
        // Variables: x0 = open, y1, y2 = assignments.
        // max 2y1 + 2y2 - x0  s.t. y1 <= x0, y2 <= x0, x0 <= 1.
        let p = LpProblem::maximize(vec![-1.0, 2.0, 2.0])
            .with(Constraint::le(vec![(1, 1.0), (0, -1.0)], 0.0))
            .with(Constraint::le(vec![(2, 1.0), (0, -1.0)], 0.0))
            .with(Constraint::le(vec![(0, 1.0)], 1.0));
        let s = opt(&p);
        assert_close(s.objective, 3.0);
        assert_close(s.x[0], 1.0);
    }

    #[test]
    fn zero_objective_feasible() {
        let p = LpProblem::maximize(vec![0.0]).with(Constraint::le(vec![(0, 1.0)], 3.0));
        let s = opt(&p);
        assert_close(s.objective, 0.0);
    }

    #[test]
    fn pivot_limit_reports_feasible_point() {
        // An easy feasible program with the budget too small to finish:
        // phase II starts feasible at the origin, so the partial point
        // must still satisfy the constraints.
        let p = LpProblem::maximize(vec![3.0, 2.0, 1.0])
            .with(Constraint::le(vec![(0, 1.0), (1, 1.0)], 4.0))
            .with(Constraint::le(vec![(1, 1.0), (2, 1.0)], 3.0))
            .with(Constraint::le(vec![(0, 1.0), (2, 1.0)], 5.0));
        let s = solve_with(&p, 1);
        assert_eq!(s.status, LpStatus::PivotLimit);
        assert!(s.feasible);
        assert!(s.x[0] + s.x[1] <= 4.0 + 1e-9);
        let full = opt(&p);
        assert!(s.objective <= full.objective + 1e-9);
    }
}
