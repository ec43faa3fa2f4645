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
//!
//! Each row is first normalised to a non-negative right-hand side. Then
//! every `≤` and `≥` row gets a slack or surplus column, and only `≥` and
//! `=` rows get an artificial column. A program whose rows are all `≤`
//! with `rhs ≥ 0` has no artificial column and skips phase I; the root
//! relaxation of Eq. 9 is such a program.
//!
//! Pricing sweeps the tableau row by row, accumulating every reduced cost
//! into one buffer, and skips basic columns through a per-column flag
//! that each pivot keeps current.

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
    /// Whether each column (rhs excluded) is in `basis`.
    is_basic: Vec<bool>,
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

        // One slack/surplus column per Le/Ge row and one artificial
        // column per Ge/Eq row, after rhs normalisation.
        let (mut num_slack, mut num_artificial) = (0, 0);
        for c in &problem.constraints {
            match effective_op(c) {
                ConstraintOp::Le => num_slack += 1,
                ConstraintOp::Ge => {
                    num_slack += 1;
                    num_artificial += 1;
                }
                ConstraintOp::Eq => num_artificial += 1,
            }
        }
        let num_structural = n + num_slack;
        let cols = num_structural + num_artificial + 1;
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
        let mut is_basic = vec![false; cols - 1];
        for &b in &basis {
            is_basic[b] = true;
        }

        Tableau {
            rows,
            objective,
            basis,
            is_basic,
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

        // Every artificial column starts basic.
        #[allow(clippy::needless_range_loop)]
        if self.artificial_start < self.cols - 1 {
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
        // Bland's rule takes over after 50 · (rows + columns) of a
        // tableau with an artificial column per row, so the switch point
        // does not depend on how many artificial columns a program needs.
        let bland_after = 50 * (2 * m + self.num_structural + 1);
        let mut iter = 0usize;
        let mut reduced = vec![0.0; col_limit];

        loop {
            let use_bland = iter > bland_after;
            iter += 1;
            // Pricing: reduced cost r_j = c_j - c_B · column_j, summed row
            // by row; each column sees the same subtractions in the same
            // order as a column-by-column sum.
            reduced.copy_from_slice(&obj[..col_limit]);
            for (row, &b) in self.rows.iter().zip(&self.basis) {
                let cb = obj[b];
                if cb != 0.0 {
                    for (r, &a) in reduced.iter_mut().zip(row) {
                        *r -= cb * a;
                    }
                }
            }
            let mut entering: Option<(usize, f64)> = None;
            for (j, &r) in reduced.iter().enumerate() {
                if self.is_basic[j] {
                    continue;
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
        self.is_basic[self.basis[row]] = false;
        self.is_basic[col] = true;
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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// FNV-1a over the little-endian bytes of `word`.
    fn fnv1a(hash: u64, word: u64) -> u64 {
        word.to_le_bytes().iter().fold(hash, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// A small LP mixing `≤`, `≥` and `=` rows whose right-hand sides
    /// take both signs, so most programs start with artificials in the
    /// basis. Rows are drawn around a random non-negative point, so most
    /// programs are feasible; one in eight shifts a right-hand side at
    /// random instead. Most programs get a `Σ x ≤ 10` cap, the rest may
    /// be unbounded. Every third program repeats one of its rows as an
    /// equality scaled by 2, which leaves an artificial basic at zero
    /// after phase I for the pivot-out to handle.
    fn mixed_lp(rng: &mut StdRng) -> LpProblem {
        let n = rng.gen_range(2..=7usize);
        let objective = (0..n).map(|_| rng.gen_range(-4.0..4.0)).collect();
        let point: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..2.0)).collect();
        let mut p = LpProblem::maximize(objective);
        for _ in 0..rng.gen_range(1..=6usize) {
            let mut coeffs = Vec::new();
            for j in 0..n {
                if rng.gen_bool(0.6) {
                    coeffs.push((j, rng.gen_range(-3.0..3.0)));
                }
            }
            let at_point: f64 = coeffs.iter().map(|&(j, a)| a * point[j]).sum();
            let shift = if rng.gen_range(0..8u32) == 0 {
                rng.gen_range(-4.0..4.0)
            } else {
                0.0
            };
            let slack = rng.gen_range(0.0..2.0);
            p.constraints.push(match rng.gen_range(0..3u32) {
                0 => Constraint::le(coeffs, at_point + slack + shift),
                1 => Constraint::ge(coeffs, at_point - slack + shift),
                _ => Constraint::eq(coeffs, at_point + shift),
            });
        }
        if rng.gen_bool(0.7) {
            p.constraints
                .push(Constraint::le((0..n).map(|j| (j, 1.0)).collect(), 10.0));
        }
        if rng.gen_range(0..3u32) == 0 {
            let c = &p.constraints[rng.gen_range(0..p.constraints.len())];
            let coeffs = c.coeffs.iter().map(|&(j, a)| (j, 2.0 * a)).collect();
            let doubled = Constraint::eq(coeffs, 2.0 * c.rhs);
            p.constraints.push(doubled);
        }
        p
    }

    /// Pins every pivot of the two-phase path: 200 seeded mixed programs
    /// (phase I, the artificial pivot-out, phase II, and a pivot budget
    /// on every fifth) hash their status, objective, `x` and pivot count
    /// bit for bit. A change to the tableau's layout or pricing that is
    /// meant to keep each pivot must keep this hash.
    #[test]
    fn mixed_programs_keep_every_pivot() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut seen = [0usize; 4];
        for k in 0..200 {
            let p = mixed_lp(&mut rng);
            let out = if k % 5 == 4 {
                solve_with(&p, k % 7)
            } else {
                solve(&p)
            };
            let status = match out.status {
                LpStatus::Optimal => 0,
                LpStatus::Infeasible => 1,
                LpStatus::Unbounded => 2,
                LpStatus::PivotLimit => 3,
            };
            seen[status] += 1;
            hash = fnv1a(hash, status as u64);
            hash = fnv1a(hash, out.objective.to_bits());
            for v in &out.x {
                hash = fnv1a(hash, v.to_bits());
            }
            hash = fnv1a(hash, out.pivots as u64);
        }
        assert!(seen.iter().all(|&s| s > 0), "statuses seen {seen:?}");
        assert_eq!(
            hash, 0xb577_954f_7af0_b0da,
            "hash {hash:#018x}, statuses {seen:?}"
        );
    }
}
