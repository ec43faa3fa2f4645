//! Welfare-maximizing facility location: the engine behind the paper's
//! *Optimal* and *LocalSearch* point-query schedulers.
//!
//! Eq. 9 of the paper assigns sensors to queried locations: opening sensor
//! `i` costs `c_i` once, each location `l` collects the value `v_{l,i}` of
//! the single sensor assigned to it, and the objective is total value minus
//! total cost. Given the set `W` of open sensors, the optimal assignment is
//! trivially "each location takes its best open sensor", so the program
//! collapses to maximizing
//!
//! ```text
//! u(W) = Σ_l max(0, max_{i∈W} v_{l,i}) − Σ_{i∈W} c_i          (Eq. 12)
//! ```
//!
//! — an uncapacitated-facility-location (UFL) welfare problem. This module
//! provides:
//!
//! * [`solve_exact`] — the literal Eq. 9 BILP per connected component of
//!   the sensor/location bipartite graph (sensors only interact through
//!   shared locations, so components solve independently), handed to the
//!   best-bound branch-and-bound of [`crate::bilp`] with the Local
//!   Search / greedy solutions seeding the incumbent. Node budgets and
//!   the wall-clock deadline are **global across components**, so the
//!   whole solve honours [`SolveOptions`] and is anytime: a limited solve
//!   still returns a feasible open set at least as good as Local Search.
//! * [`lp_relaxation_bound`] — the root LP-relaxation value, a certified
//!   upper bound on Eq. 12 welfare (used for `optimality_gap` reporting
//!   against heuristic schedulers).
//! * [`solve_local_search`] — the Feige-et-al. Local Search of §3.1.2,
//!   specialized with incremental best/second-best bookkeeping so that a
//!   full add-pass costs `O(edges)` instead of `O(n · oracle)`.
//! * [`solve_greedy`] — greedy marginal-gain opening (used as a primal
//!   heuristic and as an extra baseline in ablation benches).

use crate::bilp::{self, BilpProblem, SolveOptions, SolveStatus};
use crate::simplex::{self, Constraint, LpStatus};
use std::time::Instant;

/// A welfare-maximization facility-location instance.
#[derive(Debug, Clone)]
pub struct WelfareProblem {
    /// Opening cost per facility (sensor), `c_i ≥ 0`.
    pub facility_cost: Vec<f64>,
    /// Per client (queried location): candidate facilities and the value
    /// the client derives from each, `v > 0`. Facilities absent from the
    /// list yield value 0 for this client.
    pub client_values: Vec<Vec<(usize, f64)>>,
}

impl WelfareProblem {
    /// Creates an instance, dropping non-positive candidate values (they
    /// can never be chosen by a welfare maximizer, exactly like the `−1`
    /// trick in the paper's Eq. 10).
    pub fn new(facility_cost: Vec<f64>, mut client_values: Vec<Vec<(usize, f64)>>) -> Self {
        let nf = facility_cost.len();
        for list in &mut client_values {
            list.retain(|&(f, v)| {
                assert!(f < nf, "facility index {f} out of range");
                v > 0.0
            });
            // Deterministic order.
            list.sort_by_key(|&(f, _)| f);
        }
        Self {
            facility_cost,
            client_values,
        }
    }

    /// Number of facilities (sensors).
    pub fn num_facilities(&self) -> usize {
        self.facility_cost.len()
    }

    /// Number of clients (queried locations).
    pub fn num_clients(&self) -> usize {
        self.client_values.len()
    }

    /// Eq. 12 utility of an open set: best-open value per client minus the
    /// cost of *every* open facility (including useless ones).
    pub fn welfare_of(&self, open: &[bool]) -> f64 {
        assert_eq!(open.len(), self.num_facilities());
        let value: f64 = self
            .client_values
            .iter()
            .map(|cands| {
                cands
                    .iter()
                    .filter(|&&(f, _)| open[f])
                    .map(|&(_, v)| v)
                    .fold(0.0, f64::max)
            })
            .sum();
        let cost: f64 = open
            .iter()
            .zip(&self.facility_cost)
            .filter(|(&o, _)| o)
            .map(|(_, &c)| c)
            .sum();
        value - cost
    }

    /// Builds the final allocation from an open set: every client takes
    /// its best open facility (ties to the lowest index); facilities that
    /// end up serving no client are pruned, so the reported welfare never
    /// pays for dead sensors. Pruning can only increase Eq. 12 utility, and
    /// an optimal open set is unaffected (it never contains dead sensors).
    pub fn solution_from_open(&self, open: &[bool]) -> WelfareSolution {
        let mut assignment: Vec<Option<usize>> = Vec::with_capacity(self.num_clients());
        let mut used = vec![false; self.num_facilities()];
        for cands in &self.client_values {
            let mut best: Option<(usize, f64)> = None;
            for &(f, v) in cands {
                if !open[f] {
                    continue;
                }
                match best {
                    Some((_, bv)) if bv >= v => {}
                    _ => best = Some((f, v)),
                }
            }
            if let Some((f, _)) = best {
                used[f] = true;
            }
            assignment.push(best.map(|(f, _)| f));
        }
        let welfare = self.welfare_of(&used);
        WelfareSolution {
            open: used,
            assignment,
            welfare,
            status: SolveStatus::Feasible,
            lp_bound: None,
            nodes: 0,
        }
    }

    /// The literal Eq. 9 BILP over `[X_i | Y_{l,e}]`: open variables
    /// `X_i` (objective `−c_i`), one assignment variable per candidate
    /// edge (objective `v_{l,i}`), coupled by `Y ≤ X` and "at most one
    /// assignment per location". Basic solutions are integral in `Y` once
    /// `X` is, so branch-and-bound effectively only branches on opens.
    pub fn to_bilp(&self) -> BilpProblem {
        let nf = self.num_facilities();
        let mut obj: Vec<f64> = self.facility_cost.iter().map(|&c| -c).collect();
        let mut constraints = Vec::new();
        let mut y = nf;
        for cands in &self.client_values {
            let mut row = Vec::new();
            for &(f, v) in cands {
                obj.push(v);
                constraints.push(Constraint::le(vec![(y, 1.0), (f, -1.0)], 0.0));
                row.push((y, 1.0));
                y += 1;
            }
            if !row.is_empty() {
                constraints.push(Constraint::le(row, 1.0));
            }
        }
        let mut bp = BilpProblem::maximize(obj);
        bp.constraints = constraints;
        bp
    }

    /// Lifts a facility open set into a feasible `[X | Y]` point of
    /// [`Self::to_bilp`]: each client's `Y` picks its best open candidate.
    fn bilp_point(&self, open: &[bool]) -> Vec<bool> {
        let nf = self.num_facilities();
        let ny: usize = self.client_values.iter().map(Vec::len).sum();
        let mut x = vec![false; nf + ny];
        x[..nf].copy_from_slice(open);
        let mut y = nf;
        for cands in &self.client_values {
            let mut best: Option<(usize, f64)> = None;
            for (e, &(f, v)) in cands.iter().enumerate() {
                if open[f] {
                    match best {
                        Some((_, bv)) if bv >= v => {}
                        _ => best = Some((e, v)),
                    }
                }
            }
            if let Some((e, _)) = best {
                x[y + e] = true;
            }
            y += cands.len();
        }
        x
    }

    /// Splits the instance into the connected components of the
    /// bipartite facility/client graph that serve at least one client,
    /// each as its facilities' global indices and its sub-problem.
    ///
    /// Components come in ascending order of their lowest facility (the
    /// DSU root); inside one, facilities and clients keep their global
    /// order, and candidate lists use the component's local facility ids.
    /// Every facility belongs to one component, so a single global→local
    /// map serves them all and every buffer is `O(facilities + edges)`.
    fn components(&self) -> Vec<(Vec<usize>, WelfareProblem)> {
        let nf = self.num_facilities();
        let mut dsu = Dsu::new(nf);
        for cands in &self.client_values {
            if let Some(&(first, _)) = cands.first() {
                for &(f, _) in &cands[1..] {
                    dsu.union(first, f);
                }
            }
        }
        let mut served = vec![false; nf];
        for cands in &self.client_values {
            if let Some(&(f, _)) = cands.first() {
                served[dsu.find(f)] = true;
            }
        }
        // Visiting facilities in ascending order numbers each component
        // at its lowest facility, so components come out in root order.
        let mut comp_of_root = vec![usize::MAX; nf];
        let mut local = vec![usize::MAX; nf];
        let mut facilities: Vec<Vec<usize>> = Vec::new();
        for (f, local_f) in local.iter_mut().enumerate() {
            let root = dsu.find(f);
            if !served[root] {
                continue;
            }
            if comp_of_root[root] == usize::MAX {
                comp_of_root[root] = facilities.len();
                facilities.push(Vec::new());
            }
            let members = &mut facilities[comp_of_root[root]];
            *local_f = members.len();
            members.push(f);
        }
        let mut clients: Vec<Vec<Vec<(usize, f64)>>> = vec![Vec::new(); facilities.len()];
        for cands in &self.client_values {
            if let Some(&(f, _)) = cands.first() {
                let list = cands.iter().map(|&(f, v)| (local[f], v)).collect();
                clients[comp_of_root[dsu.find(f)]].push(list);
            }
        }
        facilities
            .into_iter()
            .zip(clients)
            .map(|(members, client_values)| {
                let cost = members.iter().map(|&f| self.facility_cost[f]).collect();
                (members, WelfareProblem::new(cost, client_values))
            })
            .collect()
    }
}

/// Result of a facility-location solve.
#[derive(Debug, Clone)]
pub struct WelfareSolution {
    /// Which facilities are open (after pruning dead ones).
    pub open: Vec<bool>,
    /// Per client: the facility serving it, if any.
    pub assignment: Vec<Option<usize>>,
    /// Achieved Eq. 12 welfare.
    pub welfare: f64,
    /// How the solve terminated. Heuristics ([`solve_greedy`],
    /// [`solve_local_search`]) always report [`SolveStatus::Feasible`];
    /// [`solve_exact`] reports [`SolveStatus::Optimal`] when every
    /// component closed its search, and never `Infeasible` (the empty
    /// open set is always feasible with welfare 0).
    pub status: SolveStatus,
    /// Certified upper bound on the optimal Eq. 12 welfare, when one was
    /// computed (LP relaxation per component; the `O(edges)`
    /// dual-feasible bound for components whose LP was skipped for size
    /// or cut short).
    pub lp_bound: Option<f64>,
    /// Branch-and-bound nodes spent across all components.
    pub nodes: usize,
}

impl WelfareSolution {
    /// True when the solve proved optimality.
    pub fn proven_optimal(&self) -> bool {
        self.status == SolveStatus::Optimal
    }
}

const EPS: f64 = 1e-9;

/// Largest Eq. 9 BILP (opens + assignment edges) a single component may
/// put through the dense-tableau simplex. The tableau is
/// `O(rows × cols)` memory with both factors linear in the variable
/// count, so a city-scale giant component (tens of thousands of edges)
/// would allocate billions of cells. Components past this threshold keep
/// their heuristic seed, charge the `O(edges)` dual-feasible bound
/// (`fast_dual_bound`), and surface [`SolveStatus::LimitReached`] so
/// callers know optimality was not proven. 600 variables keeps the
/// worst-case tableau around a few megabytes and a component solve in
/// the low milliseconds.
pub const MAX_EXACT_VARS: usize = 600;

/// Greedy marginal-gain facility opening (test baseline + primal warm
/// start): repeatedly open the facility with the best welfare gain while
/// positive, ties to the lowest index. Gains come from the Local Search
/// state's incremental per-client bests.
pub fn solve_greedy(p: &WelfareProblem) -> WelfareSolution {
    let fac_clients = facility_adjacency(p);
    let mut state = LsState::new(p, &fac_clients);
    loop {
        let mut best: Option<(usize, f64)> = None;
        for f in (0..p.num_facilities()).filter(|&f| !state.open[f]) {
            let gain = state.add_gain(f);
            if gain > EPS && best.is_none_or(|(_, g)| gain > g) {
                best = Some((f, gain));
            }
        }
        let Some((f, _)) = best else { break };
        state.open_facility(f);
    }
    p.solution_from_open(&state.open)
}

/// The ε of Local Search's `(1 + ε/n²)` improvement threshold.
const LOCAL_SEARCH_EPSILON: f64 = 0.01;

/// Specialized Feige-et-al. Local Search over Eq. 12 (see §3.1.2 of the
/// paper): add/delete passes with a `(1 + ε/n²)` improvement threshold
/// (ε = 0.01), returning the best of the local optimum, its complement,
/// and ∅.
pub fn solve_local_search(p: &WelfareProblem) -> WelfareSolution {
    let nf = p.num_facilities();
    if nf == 0 {
        return p.solution_from_open(&[]);
    }
    let fac_clients = facility_adjacency(p);
    let mut state = LsState::new(p, &fac_clients);

    // Best singleton start.
    let mut best_single: Option<(usize, f64)> = None;
    for f in 0..nf {
        let gain = state.add_gain(f);
        let val = gain; // u(∅) = 0
        match best_single {
            Some((_, b)) if b >= val => {}
            _ => best_single = Some((f, val)),
        }
    }
    let (start, _) = best_single.expect("nf > 0");
    state.open_facility(start);

    let factor = 1.0 + LOCAL_SEARCH_EPSILON / ((nf * nf) as f64);
    let threshold = |cur: f64| -> f64 {
        if cur > 0.0 {
            cur * factor
        } else {
            cur + 1e-9
        }
    };

    let max_moves = 200 * nf * nf + 1000;
    let mut moves = 0;
    'outer: while moves < max_moves {
        // Add pass.
        loop {
            let mut best: Option<(usize, f64)> = None;
            for f in 0..nf {
                if state.open[f] {
                    continue;
                }
                let val = state.utility + state.add_gain(f);
                if val > threshold(state.utility) {
                    match best {
                        Some((_, b)) if b >= val => {}
                        _ => best = Some((f, val)),
                    }
                }
            }
            match best {
                Some((f, _)) => {
                    state.open_facility(f);
                    moves += 1;
                    if moves >= max_moves {
                        break 'outer;
                    }
                }
                None => break,
            }
        }
        // Delete pass: first improving deletion restarts adding.
        for f in 0..nf {
            if !state.open[f] {
                continue;
            }
            let val = state.utility + state.remove_gain(f);
            if val > threshold(state.utility) {
                state.close_facility(f);
                moves += 1;
                continue 'outer;
            }
        }
        break;
    }

    // Candidates: W, complement, ∅ (Eq. 12 semantics for the comparison).
    let w_val = state.utility;
    let complement: Vec<bool> = state.open.iter().map(|&o| !o).collect();
    let comp_val = p.welfare_of(&complement);
    let (chosen, _val) = if w_val >= comp_val && w_val >= 0.0 {
        (state.open.clone(), w_val)
    } else if comp_val >= 0.0 {
        (complement, comp_val)
    } else {
        (vec![false; nf], 0.0)
    };
    p.solution_from_open(&chosen)
}

/// Incremental Eq. 12 bookkeeping for local search: per-client best and
/// second-best open values.
struct LsState<'a> {
    p: &'a WelfareProblem,
    fac_clients: &'a [Vec<(usize, f64)>],
    open: Vec<bool>,
    /// best open value per client (0 when unserved)
    best: Vec<f64>,
    /// facility providing `best` (usize::MAX when unserved)
    best_fac: Vec<usize>,
    /// second-best open value per client
    second: Vec<f64>,
    utility: f64,
}

impl<'a> LsState<'a> {
    fn new(p: &'a WelfareProblem, fac_clients: &'a [Vec<(usize, f64)>]) -> Self {
        Self {
            p,
            fac_clients,
            open: vec![false; p.num_facilities()],
            best: vec![0.0; p.num_clients()],
            best_fac: vec![usize::MAX; p.num_clients()],
            second: vec![0.0; p.num_clients()],
            utility: 0.0,
        }
    }

    /// Δu from opening facility `f`.
    fn add_gain(&self, f: usize) -> f64 {
        self.fac_clients[f]
            .iter()
            .map(|&(l, v)| (v - self.best[l]).max(0.0))
            .sum::<f64>()
            - self.p.facility_cost[f]
    }

    /// Δu from closing facility `f`.
    fn remove_gain(&self, f: usize) -> f64 {
        let lost: f64 = self.fac_clients[f]
            .iter()
            .filter(|&&(l, _)| self.best_fac[l] == f)
            .map(|&(l, _)| self.best[l] - self.second[l])
            .sum();
        self.p.facility_cost[f] - lost
    }

    fn open_facility(&mut self, f: usize) {
        debug_assert!(!self.open[f]);
        self.utility += self.add_gain(f);
        self.open[f] = true;
        for &(l, v) in &self.fac_clients[f] {
            if v > self.best[l] {
                self.second[l] = self.best[l];
                self.best[l] = v;
                self.best_fac[l] = f;
            } else if v > self.second[l] {
                self.second[l] = v;
            }
        }
    }

    fn close_facility(&mut self, f: usize) {
        debug_assert!(self.open[f]);
        self.utility += self.remove_gain(f);
        self.open[f] = false;
        for &(l, _) in &self.fac_clients[f] {
            self.recompute_client(l);
        }
    }

    fn recompute_client(&mut self, l: usize) {
        let mut best = 0.0f64;
        let mut best_fac = usize::MAX;
        let mut second = 0.0f64;
        for &(f, v) in &self.p.client_values[l] {
            if !self.open[f] {
                continue;
            }
            if v > best {
                second = best;
                best = v;
                best_fac = f;
            } else if v > second {
                second = v;
            }
        }
        self.best[l] = best;
        self.best_fac[l] = best_fac;
        self.second[l] = second;
    }
}

/// Exact solve through the new solver core: connected-component
/// decomposition, then the Eq. 9 BILP of each component handed to the
/// best-bound branch-and-bound of [`crate::bilp`].
///
/// The anytime contract: the better of the Local Search and greedy
/// solutions seeds every component's incumbent *before* any LP is solved,
/// so a deadline- or budget-limited solve always returns a feasible open
/// set at least as good as Local Search, with a status
/// ([`SolveStatus::Feasible`] / [`SolveStatus::LimitReached`]) that is
/// never confusable with infeasibility. `options.max_nodes` and
/// `options.deadline` are global across components, spent in the order
/// the components come (ascending lowest facility).
///
/// Components whose Eq. 9 BILP would exceed [`MAX_EXACT_VARS`] variables
/// never touch the tableau: they keep the heuristic seed and a certified
/// `O(edges)` dual bound, and the solve reports
/// [`SolveStatus::LimitReached`]. This is what keeps city-scale slots —
/// where the facility/location graph collapses into one giant connected
/// component — inside the per-slot time budget.
///
/// The reported `lp_bound` is the sum of the per-component bounds,
/// unclamped: at default options it equals [`lp_relaxation_bound`] bit
/// for bit.
pub fn solve_exact(p: &WelfareProblem, options: &SolveOptions) -> WelfareSolution {
    let mut open = vec![false; p.num_facilities()];
    let mut lp_bound = 0.0f64;
    let mut nodes = 0usize;
    let mut any_limit = false;
    let mut any_unproven = false;
    let deadline_at = options.deadline.map(|d| Instant::now() + d);

    for (facilities, sub) in p.components() {
        // Fast path: one facility — the open/closed comparison is exact.
        if sub.num_facilities() == 1 {
            let gain = sub.welfare_of(&[true]);
            open[facilities[0]] = gain > EPS;
            lp_bound += gain.max(0.0);
            continue;
        }

        // Seed: the better of local search and greedy. Dead facilities
        // are pruned, so the seed's welfare is the pruned Eq. 12 value.
        let mut seed = solve_local_search(&sub);
        let gr = solve_greedy(&sub);
        if gr.welfare > seed.welfare {
            seed = gr;
        }

        // Out of time, or too big for the dense tableau: keep the
        // heuristic seed and charge the O(edges) dual bound. A size
        // strike is a limit (the search was cut short by size, not
        // proven).
        let expired = deadline_at.is_some_and(|at| Instant::now() >= at);
        let sub_open = if expired || bilp_vars(&sub) > MAX_EXACT_VARS {
            if expired {
                any_unproven = true;
            } else {
                any_limit = true;
            }
            lp_bound += fast_dual_bound(&sub);
            seed.open
        } else {
            let comp_opts = SolveOptions {
                max_nodes: options.max_nodes.saturating_sub(nodes),
                deadline: deadline_at.map(|at| at.saturating_duration_since(Instant::now())),
            };
            let sol = bilp::solve(&sub.to_bilp(), &comp_opts, Some(sub.bilp_point(&seed.open)));
            nodes += sol.nodes;
            match sol.status {
                SolveStatus::Optimal => {}
                SolveStatus::Feasible => any_unproven = true,
                // Infeasible/Unbounded cannot occur for Eq. 9 programs;
                // treat them like a limit strike and keep the heuristic
                // seed.
                _ => any_limit = true,
            }
            lp_bound += if sol.lp_bound.is_finite() {
                sol.lp_bound.max(0.0)
            } else {
                fast_dual_bound(&sub)
            };
            // The incumbent is always at least the seed (it was offered
            // first); fall back to the seed defensively anyway.
            match sol.x {
                Some(mut x) if sol.objective >= seed.welfare - 1e-9 => {
                    x.truncate(sub.num_facilities());
                    x
                }
                _ => seed.open,
            }
        };
        for (&f, o) in facilities.iter().zip(sub_open) {
            open[f] = o;
        }
    }

    let mut sol = p.solution_from_open(&open);
    sol.status = if any_limit {
        SolveStatus::LimitReached
    } else if any_unproven {
        SolveStatus::Feasible
    } else {
        SolveStatus::Optimal
    };
    sol.lp_bound = Some(lp_bound);
    sol.nodes = nodes;
    sol
}

/// Certified upper bound on the optimal Eq. 12 welfare via the root LP
/// relaxation of each component (no branching). Components past
/// [`MAX_EXACT_VARS`], or whose LP exhausts the pivot budget,
/// fall back to an `O(edges)` dual-feasible bound (`fast_dual_bound`).
/// Used to report `optimality_gap` for heuristic schedulers without
/// running the full branch-and-bound.
pub fn lp_relaxation_bound(p: &WelfareProblem) -> f64 {
    let mut bound = 0.0f64;
    for (_, sub) in p.components() {
        bound += if sub.num_facilities() == 1 {
            sub.welfare_of(&[true]).max(0.0)
        } else if bilp_vars(&sub) > MAX_EXACT_VARS {
            fast_dual_bound(&sub)
        } else {
            let out = simplex::solve(&sub.to_bilp().lp_relaxation());
            match out.status {
                LpStatus::Optimal => out.objective.max(0.0),
                _ => fast_dual_bound(&sub),
            }
        };
    }
    bound
}

/// Number of variables the Eq. 9 BILP of [`WelfareProblem::to_bilp`]
/// would carry: one open per facility plus one assignment per candidate
/// edge.
fn bilp_vars(p: &WelfareProblem) -> usize {
    p.num_facilities() + p.client_values.iter().map(Vec::len).sum::<usize>()
}

/// `O(edges)` dual-feasible upper bound on Eq. 12 welfare, for components
/// too large to put through the dense tableau. In the LP dual of Eq. 9
/// (`α_l` per location, `β_{l,e}` per candidate edge) feasibility needs
/// `α_l + β_{l,e} ≥ v_{l,e}` and `Σ_{edges of i} β ≤ c_i`; splitting each
/// facility's cost over its edges in proportion to value
/// (`β = c_i · v / Σ v`) and setting `α_l = max_e (v − β)⁺` is feasible
/// by construction, so `Σ_l α_l` bounds the LP — and hence the integer —
/// optimum by weak duality. The `β = 0` choice recovers the trivial
/// value-sum bound `Σ_l max_e v`, so this is never looser than that.
fn fast_dual_bound(p: &WelfareProblem) -> f64 {
    let mut value_mass = vec![0.0f64; p.num_facilities()];
    for cands in &p.client_values {
        for &(f, v) in cands {
            value_mass[f] += v;
        }
    }
    p.client_values
        .iter()
        .map(|cands| {
            cands
                .iter()
                .map(|&(f, v)| {
                    let beta = if value_mass[f] > 0.0 {
                        p.facility_cost[f] * v / value_mass[f]
                    } else {
                        0.0
                    };
                    (v - beta).max(0.0)
                })
                .fold(0.0, f64::max)
        })
        .sum()
}

/// facility → [(client, value)] adjacency.
fn facility_adjacency(p: &WelfareProblem) -> Vec<Vec<(usize, f64)>> {
    let mut adj = vec![Vec::new(); p.num_facilities()];
    for (l, cands) in p.client_values.iter().enumerate() {
        for &(f, v) in cands {
            adj[f].push((l, v));
        }
    }
    adj
}

/// Disjoint-set union for component decomposition.
struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            // Deterministic: smaller root wins.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo;
        }
    }
}

/// Exhaustive welfare maximization for tests (≤ 20 facilities).
pub fn solve_exhaustive(p: &WelfareProblem) -> WelfareSolution {
    let nf = p.num_facilities();
    assert!(nf <= 20, "exhaustive limited to 20 facilities");
    let mut best_open = vec![false; nf];
    let mut best = 0.0f64; // empty set welfare
    for mask in 1u64..(1 << nf) {
        let open: Vec<bool> = (0..nf).map(|f| mask & (1 << f) != 0).collect();
        let w = p.welfare_of(&open);
        if w > best {
            best = w;
            best_open = open;
        }
    }
    let mut sol = p.solution_from_open(&best_open);
    sol.status = SolveStatus::Optimal;
    sol
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::time::Duration;

    fn tiny_instance() -> WelfareProblem {
        // 2 facilities (cost 3), 2 clients.
        // client 0: f0=5, f1=4 ; client 1: f0=1, f1=4.
        WelfareProblem::new(
            vec![3.0, 3.0],
            vec![vec![(0, 5.0), (1, 4.0)], vec![(0, 1.0), (1, 4.0)]],
        )
    }

    /// The classic integrality-gap triangle: three facilities covering
    /// pairs of three clients. Integer optimum 2 (one open facility), LP
    /// optimum 3 (all three at x = ½) — guaranteed fractional root.
    fn gap_triangle() -> WelfareProblem {
        WelfareProblem::new(
            vec![4.0, 4.0, 4.0],
            vec![
                vec![(0, 3.0), (2, 3.0)],
                vec![(0, 3.0), (1, 3.0)],
                vec![(1, 3.0), (2, 3.0)],
            ],
        )
    }

    #[test]
    fn welfare_of_matches_manual() {
        let p = tiny_instance();
        assert_eq!(p.welfare_of(&[true, false]), 5.0 + 1.0 - 3.0);
        assert_eq!(p.welfare_of(&[false, true]), 4.0 + 4.0 - 3.0);
        assert_eq!(p.welfare_of(&[true, true]), 5.0 + 4.0 - 6.0);
        assert_eq!(p.welfare_of(&[false, false]), 0.0);
    }

    #[test]
    fn exact_solves_tiny_instance() {
        let p = tiny_instance();
        let sol = solve_exact(&p, &SolveOptions::default());
        assert!(sol.proven_optimal());
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert_eq!(sol.welfare, 5.0);
        assert_eq!(sol.open, vec![false, true]);
        assert_eq!(sol.assignment, vec![Some(1), Some(1)]);
        assert!(sol.lp_bound.expect("bound computed") >= 5.0 - 1e-9);
    }

    #[test]
    fn local_search_matches_optimum_on_tiny() {
        let p = tiny_instance();
        let sol = solve_local_search(&p);
        assert_eq!(sol.welfare, 5.0);
    }

    #[test]
    fn greedy_reaches_positive_welfare() {
        let p = tiny_instance();
        let sol = solve_greedy(&p);
        assert!(sol.welfare > 0.0);
    }

    #[test]
    fn unaffordable_sensors_yield_empty_solution() {
        // All values below cost → best is to select nothing (the paper's
        // baseline observation at budgets 7–10 with C_s = 10).
        let p = WelfareProblem::new(vec![10.0, 10.0], vec![vec![(0, 6.0)], vec![(1, 7.0)]]);
        let exact = solve_exact(&p, &SolveOptions::default());
        assert_eq!(exact.welfare, 0.0);
        assert!(exact.open.iter().all(|&o| !o));
        let ls = solve_local_search(&p);
        assert_eq!(ls.welfare, 0.0);
    }

    #[test]
    fn heuristics_open_one_of_two_redundant_sensors() {
        // Facilities 0 and 1 serve the same client, facility 2 another:
        // the optimum opens one of {0, 1} plus 2 → 4 + 3 − 2·2 = 3.
        let p = WelfareProblem::new(vec![2.0; 3], vec![vec![(0, 4.0), (1, 4.0)], vec![(2, 3.0)]]);
        for sol in [solve_greedy(&p), solve_local_search(&p)] {
            assert!((sol.welfare - 3.0).abs() < 1e-9);
            assert_eq!(sol.open.iter().filter(|&&o| o).count(), 2);
            assert!(sol.open[2]);
        }
    }

    #[test]
    fn sharing_makes_unaffordable_sensors_affordable() {
        // Two clients, each worth 6 < cost 10, but together 12 > 10.
        let p = WelfareProblem::new(vec![10.0], vec![vec![(0, 6.0)], vec![(0, 6.0)]]);
        let exact = solve_exact(&p, &SolveOptions::default());
        assert_eq!(exact.welfare, 2.0);
        assert_eq!(exact.open, vec![true]);
    }

    #[test]
    fn dead_facilities_are_pruned_from_solutions() {
        let p = WelfareProblem::new(vec![1.0, 1.0], vec![vec![(0, 5.0), (1, 4.0)]]);
        // Force both open through welfare_of vs solution_from_open.
        let sol = p.solution_from_open(&[true, true]);
        assert_eq!(sol.open, vec![true, false]);
        assert_eq!(sol.welfare, 4.0);
    }

    #[test]
    fn components_solve_independently() {
        // Two disjoint copies of the tiny instance.
        let p = WelfareProblem::new(
            vec![3.0, 3.0, 3.0, 3.0],
            vec![
                vec![(0, 5.0), (1, 4.0)],
                vec![(0, 1.0), (1, 4.0)],
                vec![(2, 5.0), (3, 4.0)],
                vec![(2, 1.0), (3, 4.0)],
            ],
        );
        let sol = solve_exact(&p, &SolveOptions::default());
        assert!(sol.proven_optimal());
        assert_eq!(sol.welfare, 10.0);
        assert_eq!(sol.open, vec![false, true, false, true]);
    }

    /// Satellite: a node-limited solve is `LimitReached` with a feasible
    /// incumbent — never confusable with `Infeasible` or an empty bogus
    /// answer.
    #[test]
    fn node_limited_solve_keeps_heuristic_incumbent() {
        let p = gap_triangle();
        let sol = solve_exact(&p, &SolveOptions::default().with_max_nodes(0));
        assert_eq!(sol.status, SolveStatus::LimitReached);
        assert!(!sol.proven_optimal());
        // Local search already finds the single-facility optimum (2.0);
        // the limited solve must preserve it.
        assert!((sol.welfare - 2.0).abs() < 1e-9);
        assert_eq!(sol.open.iter().filter(|&&o| o).count(), 1);
        // And the fractional root bound (3.0) is reported.
        let bound = sol.lp_bound.expect("bound present");
        assert!((bound - 3.0).abs() < 1e-6, "bound {bound}");
    }

    #[test]
    fn full_budget_closes_the_gap_triangle() {
        let p = gap_triangle();
        let sol = solve_exact(&p, &SolveOptions::default());
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!((sol.welfare - 2.0).abs() < 1e-9);
    }

    /// Satellite (anytime contract): an expired deadline still returns a
    /// feasible solution at least as good as local search.
    #[test]
    fn expired_deadline_returns_local_search_quality() {
        let mut rng = StdRng::seed_from_u64(2024);
        for _ in 0..10 {
            let p = random_instance(&mut rng, 10, 12);
            let ls = solve_local_search(&p);
            let opts = SolveOptions::default().with_deadline(Duration::ZERO);
            let sol = solve_exact(&p, &opts);
            assert!(
                matches!(sol.status, SolveStatus::Feasible | SolveStatus::Optimal),
                "status {:?}",
                sol.status
            );
            assert!(sol.welfare >= ls.welfare - 1e-9);
            assert!(sol.welfare <= sol.lp_bound.unwrap() + 1e-9);
        }
    }

    fn random_instance(rng: &mut StdRng, nf: usize, nc: usize) -> WelfareProblem {
        let costs: Vec<f64> = (0..nf).map(|_| rng.gen_range(2.0..12.0)).collect();
        let clients: Vec<Vec<(usize, f64)>> = (0..nc)
            .map(|_| {
                let mut list = Vec::new();
                for f in 0..nf {
                    if rng.gen_bool(0.5) {
                        list.push((f, rng.gen_range(0.5..9.0)));
                    }
                }
                list
            })
            .collect();
        WelfareProblem::new(costs, clients)
    }

    /// Clients draw 1–3 candidates inside one block of 4 facilities, and
    /// only even blocks are ever drawn: many components, isolated
    /// facilities, and single-facility components.
    fn clustered_instance(rng: &mut StdRng, blocks: usize, nc: usize) -> WelfareProblem {
        let costs: Vec<f64> = (0..4 * blocks).map(|_| rng.gen_range(2.0..12.0)).collect();
        let clients: Vec<Vec<(usize, f64)>> = (0..nc)
            .map(|_| {
                let base = 8 * rng.gen_range(0..blocks / 2);
                let mut list: Vec<(usize, f64)> = (0..rng.gen_range(1..=3usize))
                    .map(|_| (base + rng.gen_range(0..4usize), rng.gen_range(0.5..9.0)))
                    .collect();
                list.sort_by_key(|&(f, _)| f);
                list.dedup_by_key(|&mut (f, _)| f);
                list
            })
            .collect();
        WelfareProblem::new(costs, clients)
    }

    /// Capacity of every buffer `components()` hands back.
    fn footprint(comps: &[(Vec<usize>, WelfareProblem)]) -> usize {
        comps
            .iter()
            .map(|(members, sub)| {
                members.capacity()
                    + sub.facility_cost.capacity()
                    + sub.client_values.capacity()
                    + sub.client_values.iter().map(Vec::capacity).sum::<usize>()
            })
            .sum()
    }

    /// Most announced sensors serve no query: the decomposition returns
    /// only the components that serve a client, and all it returns fits
    /// in facilities + edges (one global→local map, not one per
    /// component).
    #[test]
    fn components_return_only_served_facilities_in_linear_space() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut p = clustered_instance(&mut rng, 250, 60);
        p.client_values.push(Vec::new()); // an unservable client
        let nf = p.num_facilities();
        let edges: usize = p.client_values.iter().map(Vec::len).sum();
        let mut served = vec![false; nf];
        for &(f, _) in p.client_values.iter().flatten() {
            served[f] = true;
        }
        let served_count = served.iter().filter(|&&s| s).count();
        assert!(2 * served_count < nf, "most facilities must be unserved");

        let comps = p.components();
        let mut members: Vec<usize> = comps.iter().flat_map(|(m, _)| m.clone()).collect();
        members.sort_unstable();
        let expected: Vec<usize> = (0..nf).filter(|&f| served[f]).collect();
        assert_eq!(members, expected, "exactly the served facilities");
        for (m, sub) in &comps {
            assert!(
                !sub.client_values.is_empty(),
                "component {m:?} serves no client"
            );
            assert_eq!(sub.num_facilities(), m.len());
        }
        let returned_edges: usize = comps
            .iter()
            .map(|(_, sub)| sub.client_values.iter().map(Vec::len).sum::<usize>())
            .sum();
        assert_eq!(returned_edges, edges);
        let size = footprint(&comps);
        assert!(size <= nf + edges, "footprint {size} > {nf} + {edges}");
    }

    /// Components come in ascending lowest-facility order, facilities and
    /// clients ascending inside each: the order the node budget, the
    /// deadline and the bound's float sum follow.
    #[test]
    fn components_keep_ascending_order() {
        let mut rng = StdRng::seed_from_u64(23);
        for trial in 0..10 {
            let p = clustered_instance(&mut rng, 16, 24);
            let comps = p.components();
            assert!(comps.len() > 1, "trial {trial}: one component");
            let lows: Vec<usize> = comps.iter().map(|(m, _)| m[0]).collect();
            assert!(
                lows.windows(2).all(|w| w[0] < w[1]),
                "trial {trial}: {lows:?}"
            );
            let mut comp_of = vec![usize::MAX; p.num_facilities()];
            for (c, (m, _)) in comps.iter().enumerate() {
                assert!(m.windows(2).all(|w| w[0] < w[1]), "trial {trial}: {m:?}");
                for &f in m {
                    comp_of[f] = c;
                }
            }
            // Handing the global clients out in order rebuilds every
            // component's client list in order.
            let mut want: Vec<Vec<Vec<(usize, f64)>>> = vec![Vec::new(); comps.len()];
            for cands in p.client_values.iter().filter(|c| !c.is_empty()) {
                want[comp_of[cands[0].0]].push(cands.clone());
            }
            for ((m, sub), want) in comps.iter().zip(want) {
                let global: Vec<Vec<(usize, f64)>> = sub
                    .client_values
                    .iter()
                    .map(|list| list.iter().map(|&(f, v)| (m[f], v)).collect())
                    .collect();
                assert_eq!(global, want, "trial {trial}");
                let cost: Vec<f64> = m.iter().map(|&f| p.facility_cost[f]).collect();
                assert_eq!(sub.facility_cost, cost, "trial {trial}");
            }
        }
    }

    /// The exact solve's bound is the sum of the same per-component
    /// bounds `lp_relaxation_bound` takes, in the same order, unclamped.
    #[test]
    fn exact_bound_equals_lp_relaxation_bound_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(2013);
        let (mut singles, mut isolated) = (0, 0);
        for trial in 0..20 {
            let p = clustered_instance(&mut rng, 12, 14);
            let comps = p.components();
            singles += comps.iter().filter(|(m, _)| m.len() == 1).count();
            isolated += p.num_facilities() - comps.iter().map(|(m, _)| m.len()).sum::<usize>();
            let exact = solve_exact(&p, &SolveOptions::default());
            assert_eq!(
                exact.lp_bound.map(f64::to_bits),
                Some(lp_relaxation_bound(&p).to_bits()),
                "trial {trial}"
            );
        }
        assert!(
            singles > 0 && isolated > 0,
            "{singles} singles, {isolated} isolated"
        );
    }

    #[test]
    fn exact_matches_exhaustive_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..40 {
            let p = random_instance(&mut rng, 8, 10);
            let ex = solve_exhaustive(&p);
            let bb = solve_exact(&p, &SolveOptions::default());
            assert!(bb.proven_optimal(), "trial {trial} not proven");
            assert!(
                (bb.welfare - ex.welfare).abs() < 1e-7,
                "trial {trial}: bb={} exhaustive={}",
                bb.welfare,
                ex.welfare
            );
            assert!(
                bb.lp_bound.unwrap() >= ex.welfare - 1e-7,
                "trial {trial}: bound below optimum"
            );
        }
    }

    #[test]
    fn exact_matches_general_bilp_formulation() {
        // Cross-validate the component path against a monolithic solve of
        // the literal Eq. 9 BILP over [X_i | Y_{l,e}].
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10 {
            let p = random_instance(&mut rng, 5, 6);
            let bp = p.to_bilp();
            let bilp_sol = bilp::solve(&bp, &SolveOptions::default(), None);
            let ufl_sol = solve_exact(&p, &SolveOptions::default());
            assert!(
                (bilp_sol.objective.max(0.0) - ufl_sol.welfare).abs() < 1e-6,
                "bilp={} ufl={}",
                bilp_sol.objective,
                ufl_sol.welfare
            );
        }
    }

    #[test]
    fn fast_dual_bound_is_valid_and_beats_value_sum() {
        let mut rng = StdRng::seed_from_u64(4242);
        for trial in 0..60 {
            let p = random_instance(&mut rng, 8, 10);
            let dual = fast_dual_bound(&p);
            let value_sum: f64 = p
                .client_values
                .iter()
                .map(|cands| cands.iter().map(|&(_, v)| v).fold(0.0, f64::max))
                .sum();
            let opt = solve_exhaustive(&p);
            assert!(
                dual >= opt.welfare - 1e-7,
                "trial {trial}: dual bound {dual} below optimum {}",
                opt.welfare
            );
            assert!(
                dual <= value_sum + 1e-9,
                "trial {trial}: dual bound {dual} looser than value sum {value_sum}"
            );
        }
    }

    /// The size guard: a single giant connected component past
    /// `MAX_EXACT_VARS` must bypass the tableau (fast), keep a feasible
    /// incumbent no worse than local search, report `LimitReached`, and
    /// still carry a certified bound.
    #[test]
    fn oversized_component_bypasses_tableau() {
        let mut rng = StdRng::seed_from_u64(77);
        let nf = 60;
        let costs: Vec<f64> = (0..nf).map(|_| rng.gen_range(2.0..12.0)).collect();
        // Dense enough that nf + edges ≫ MAX_EXACT_VARS and the graph is
        // one component with overwhelming probability.
        let clients: Vec<Vec<(usize, f64)>> = (0..200)
            .map(|_| {
                let mut list = Vec::new();
                for f in 0..nf {
                    if rng.gen_bool(0.2) {
                        list.push((f, rng.gen_range(0.5..9.0)));
                    }
                }
                list
            })
            .collect();
        let p = WelfareProblem::new(costs, clients);
        assert!(bilp_vars(&p) > MAX_EXACT_VARS, "instance not oversized");

        let start = Instant::now();
        let sol = solve_exact(&p, &SolveOptions::default());
        let elapsed = start.elapsed();
        assert_eq!(sol.status, SolveStatus::LimitReached);
        let ls = solve_local_search(&p);
        assert!(sol.welfare >= ls.welfare - 1e-9);
        assert!(sol.welfare <= sol.lp_bound.expect("bound present") + 1e-9);
        assert!(
            elapsed < Duration::from_secs(5),
            "guarded solve took {elapsed:?}"
        );

        // The standalone bound path takes the same shortcut and stays
        // consistent with the achieved welfare.
        let bound = lp_relaxation_bound(&p);
        assert!(sol.welfare <= bound + 1e-9);
    }

    #[test]
    fn lp_relaxation_bound_is_valid_upper_bound() {
        let mut rng = StdRng::seed_from_u64(1234);
        for _ in 0..60 {
            let p = random_instance(&mut rng, 7, 9);
            let bound = lp_relaxation_bound(&p);
            let opt = solve_exhaustive(&p);
            assert!(
                bound >= opt.welfare - 1e-7,
                "bound {bound} below optimum {}",
                opt.welfare
            );
        }
    }

    #[test]
    fn local_search_never_beats_exact_and_is_nonnegative() {
        let mut rng = StdRng::seed_from_u64(5150);
        for _ in 0..30 {
            let p = random_instance(&mut rng, 10, 12);
            let ls = solve_local_search(&p);
            let ex = solve_exact(&p, &SolveOptions::default());
            assert!(ls.welfare <= ex.welfare + 1e-7);
            assert!(ls.welfare >= 0.0);
        }
    }

    #[test]
    fn assignments_point_to_open_facilities() {
        let mut rng = StdRng::seed_from_u64(31337);
        let p = random_instance(&mut rng, 12, 15);
        let sol = solve_exact(&p, &SolveOptions::default());
        for (l, a) in sol.assignment.iter().enumerate() {
            if let Some(f) = a {
                assert!(sol.open[*f], "client {l} assigned to closed facility");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20))]
        #[test]
        fn exact_at_least_local_search(seed in 0u64..1000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let p = random_instance(&mut rng, 9, 11);
            let ls = solve_local_search(&p);
            let ex = solve_exact(&p, &SolveOptions::default());
            prop_assert!(ex.welfare + 1e-7 >= ls.welfare);
            let brute = solve_exhaustive(&p);
            prop_assert!((ex.welfare - brute.welfare).abs() < 1e-6);
        }

        #[test]
        fn greedy_is_nonnegative_and_never_beats_exhaustive(seed in 0u64..1000) {
            let p = random_instance(&mut StdRng::seed_from_u64(seed), 9, 11);
            let greedy = solve_greedy(&p);
            prop_assert!(greedy.welfare >= 0.0);
            prop_assert!(greedy.welfare <= solve_exhaustive(&p).welfare + 1e-7);
        }

        /// With one private facility per client the welfare is modular,
        /// and greedy opens exactly the facilities worth their cost.
        #[test]
        fn greedy_is_exact_on_modular_instances(
            values in proptest::collection::vec(0.5..20.0f64, 1..10),
        ) {
            let clients = values.iter().enumerate().map(|(f, &v)| vec![(f, v)]).collect();
            let p = WelfareProblem::new(vec![10.0; values.len()], clients);
            let best: f64 = values.iter().map(|v| (v - 10.0).max(0.0)).sum();
            prop_assert!((solve_greedy(&p).welfare - best).abs() < 1e-6);
        }
    }
}
