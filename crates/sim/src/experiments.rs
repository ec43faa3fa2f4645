//! One driver per figure of §4, each returning the [`FigureTable`]s the
//! paper plots.
//!
//! | Driver | Paper figure | Workload |
//! |---|---|---|
//! | [`fig2`] | Fig. 2(a,b) | point queries on RWM |
//! | [`fig3`] | Fig. 3(a,b) | point queries on the RNC substitute |
//! | [`fig4`] | Fig. 4(a,b) | uniformly distributed budgets |
//! | [`fig5`] | Fig. 5(a,b) | varying query counts |
//! | [`fig6`] | Fig. 6(a–d) | privacy + linear energy, lifetimes 50/25 |
//! | [`fig7`] | Fig. 7(a,b) | spatial aggregate queries |
//! | [`fig8`] | Fig. 8(a,b) | location monitoring on the ozone substitute |
//! | [`fig9`] | Fig. 9(a,b) | region monitoring on the Intel substitute |
//! | [`fig10`] | Fig. 10(a–d) | the query mix |
//! | [`trust`] | §4.7 (text) | trust-distribution sweep |

pub mod ablation;
pub mod aggregate_queries;
pub mod mix;
pub mod monitoring;
pub mod point_queries;

pub use ablation::{ablation_objective, ablation_region, ablation_solver};
pub use aggregate_queries::fig7;
pub use mix::fig10;
pub use monitoring::{fig8, fig9};
pub use point_queries::{fig2, fig3, fig4, fig5, fig6, trust};

use crate::config::Scale;
use crate::metrics::FigureTable;
use ps_core::exec::Threads;

/// Identifier of a runnable experiment (CLI surface of the repro binary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentId {
    /// Fig. 2 — point queries, RWM.
    Fig2,
    /// Fig. 3 — point queries, RNC substitute.
    Fig3,
    /// Fig. 4 — uniform budgets.
    Fig4,
    /// Fig. 5 — query-count sweep.
    Fig5,
    /// Fig. 6 — privacy/energy, lifetimes 50 and 25.
    Fig6,
    /// Fig. 7 — aggregates.
    Fig7,
    /// Fig. 8 — location monitoring.
    Fig8,
    /// Fig. 9 — region monitoring.
    Fig9,
    /// Fig. 10 — query mix.
    Fig10,
    /// §4.7 trust sweep (no figure in the paper).
    Trust,
    /// Ablation of Algorithm 3's cost weighting + sensor sharing.
    AblationRegion,
    /// Ablation of the welfare vs egalitarian objective (§2).
    AblationObjective,
    /// Solver ablation: exact vs local search vs greedy with certified
    /// LP bounds and optimality gaps.
    AblationSolver,
}

impl ExperimentId {
    /// Every experiment, in paper order.
    pub const ALL: [ExperimentId; 13] = [
        ExperimentId::Fig2,
        ExperimentId::Fig3,
        ExperimentId::Fig4,
        ExperimentId::Fig5,
        ExperimentId::Fig6,
        ExperimentId::Fig7,
        ExperimentId::Fig8,
        ExperimentId::Fig9,
        ExperimentId::Fig10,
        ExperimentId::Trust,
        ExperimentId::AblationRegion,
        ExperimentId::AblationObjective,
        ExperimentId::AblationSolver,
    ];

    /// Parses a CLI name such as `fig2` or `trust`.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "fig2" => Some(Self::Fig2),
            "fig3" => Some(Self::Fig3),
            "fig4" => Some(Self::Fig4),
            "fig5" => Some(Self::Fig5),
            "fig6" => Some(Self::Fig6),
            "fig7" => Some(Self::Fig7),
            "fig8" => Some(Self::Fig8),
            "fig9" => Some(Self::Fig9),
            "fig10" => Some(Self::Fig10),
            "trust" => Some(Self::Trust),
            "ablation-region" | "ablation_region" => Some(Self::AblationRegion),
            "ablation-objective" | "ablation_objective" => Some(Self::AblationObjective),
            "ablation-solver" | "ablation_solver" => Some(Self::AblationSolver),
            _ => None,
        }
    }

    /// CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Fig2 => "fig2",
            Self::Fig3 => "fig3",
            Self::Fig4 => "fig4",
            Self::Fig5 => "fig5",
            Self::Fig6 => "fig6",
            Self::Fig7 => "fig7",
            Self::Fig8 => "fig8",
            Self::Fig9 => "fig9",
            Self::Fig10 => "fig10",
            Self::Trust => "trust",
            Self::AblationRegion => "ablation-region",
            Self::AblationObjective => "ablation-objective",
            Self::AblationSolver => "ablation-solver",
        }
    }

    /// Runs the experiment at the given scale.
    pub fn run(&self, scale: &Scale) -> Vec<FigureTable> {
        match self {
            Self::Fig2 => fig2(scale),
            Self::Fig3 => fig3(scale),
            Self::Fig4 => fig4(scale),
            Self::Fig5 => fig5(scale),
            Self::Fig6 => fig6(scale),
            Self::Fig7 => fig7(scale),
            Self::Fig8 => fig8(scale),
            Self::Fig9 => fig9(scale),
            Self::Fig10 => fig10(scale),
            Self::Trust => trust(scale),
            Self::AblationRegion => ablation_region(scale),
            Self::AblationObjective => ablation_objective(scale),
            Self::AblationSolver => ablation_solver(scale),
        }
    }
}

/// Runs `run(row, xi, x)` for every cell of a (row × x) grid, one worker
/// per cell ([`Threads::map_tasks`]), and returns the results as
/// `[row][x]`. The drivers derive every seed from the cell, never from
/// the thread schedule, so the grid is the same however its workers
/// interleave.
fn sweep<A: Sync, R: Send>(
    rows: &[A],
    xs: &[f64],
    run: impl Fn(&A, usize, f64) -> R + Sync,
) -> Vec<Vec<R>> {
    let cells = rows.len() * xs.len();
    let mut results = Threads::new(cells.max(1))
        .map_tasks(cells, |cell| {
            let xi = cell % xs.len();
            run(&rows[cell / xs.len()], xi, xs[xi])
        })
        .into_iter();
    rows.iter()
        .map(|_| results.by_ref().take(xs.len()).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_names() {
        for id in ExperimentId::ALL {
            assert_eq!(ExperimentId::parse(id.name()), Some(id));
        }
        assert_eq!(ExperimentId::parse("nope"), None);
        assert_eq!(ExperimentId::parse("FIG2"), Some(ExperimentId::Fig2));
    }

    #[test]
    fn sweep_returns_rows_of_cells_in_x_order() {
        let rows = ["a", "b", "c"];
        let xs = [7.0, 10.0, 15.0, 20.0];
        let grid = sweep(&rows, &xs, |row, xi, x| format!("{row}{xi}:{x}"));
        let expected: Vec<Vec<String>> = rows
            .iter()
            .map(|row| {
                xs.iter()
                    .enumerate()
                    .map(|(xi, x)| format!("{row}{xi}:{x}"))
                    .collect()
            })
            .collect();
        assert_eq!(grid, expected);
    }

    #[test]
    fn sweep_of_an_empty_grid_runs_nothing() {
        let no_xs = sweep(&["a", "b"], &[], |_, xi, _| -> usize {
            panic!("cell {xi} ran")
        });
        assert_eq!(no_xs, vec![Vec::<usize>::new(); 2]);
        let no_rows = sweep(&[] as &[&str], &[1.0, 2.0], |row, _, _| -> usize {
            panic!("row {row} ran")
        });
        assert!(no_rows.is_empty());
    }

    /// One worker per cell: six cells that each wait for all six to start
    /// finish only if all six run at once.
    #[test]
    fn sweep_gives_every_cell_its_own_worker() {
        use std::sync::{Condvar, Mutex};
        use std::time::Duration;
        let started = (Mutex::new(0), Condvar::new());
        let grid = sweep(&[0, 1], &[1.0, 2.0, 3.0], |_, _, _| {
            let (count, all_in) = &started;
            let mut count = count.lock().unwrap();
            *count += 1;
            all_in.notify_all();
            let (count, timeout) = all_in
                .wait_timeout_while(count, Duration::from_secs(10), |count| *count < 6)
                .unwrap();
            assert!(
                !timeout.timed_out(),
                "only {} of 6 cells ran at once",
                *count
            );
            std::thread::current().id()
        });
        let ids: std::collections::HashSet<_> = grid.iter().flatten().collect();
        assert_eq!(ids.len(), 6);
    }
}
