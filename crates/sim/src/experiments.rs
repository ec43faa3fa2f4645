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
//! | [`ablation_region`], [`ablation_objective`], [`ablation_solver`] | — | design ablations |
//!
//! Every run is one campaign of §4's time-slotted loop: each slot the
//! driver submits its queries, the sensors inside the working region
//! announce their prices, the engine steps, and every sensor it used is
//! charged one measurement (lifetime and privacy history, Eqs. 8, 14–15).
//! One private function owns that loop; the drivers differ only in the
//! engine they configure, the queries they submit and what they read
//! from the engine afterwards.

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
use crate::engine::engine_for;
use crate::metrics::FigureTable;
use crate::sensors::{SensorPool, SensorPoolConfig};
use point_queries::PointSetting;
use ps_cluster::SlotEngine;
use ps_core::aggregator::AggregatorBuilder;
use ps_core::exec::Threads;
use ps_core::model::Slot;

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

    /// Parses a CLI name such as `fig2` or `trust`, ignoring case and
    /// accepting `_` for `-` (`ablation_region`).
    pub fn parse(s: &str) -> Option<Self> {
        let name = s.to_ascii_lowercase().replace('_', "-");
        Self::ALL.into_iter().find(|id| id.name() == name)
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

/// Runs one campaign: `scale.slots` slots of the engine [`engine_for`]
/// builds with `configure`, over a [`SensorPool`] drawn from `pool_cfg`
/// whose agents follow `setting`'s trace. Each slot, `submit(slot,
/// engine)` submits the slot's queries; then the agents inside the
/// working region announce their prices, the engine steps, and the pool
/// charges every sensor the step used one measurement. Returns the
/// engine for the driver to read.
fn run_campaign<'s>(
    scale: &Scale,
    setting: &PointSetting,
    pool_cfg: &SensorPoolConfig,
    configure: impl Fn(AggregatorBuilder<'s>) -> AggregatorBuilder<'s> + 's,
    mut submit: impl FnMut(Slot, &mut dyn SlotEngine),
) -> Box<dyn SlotEngine + 's> {
    let mut engine = engine_for(scale, &setting.working_region, setting.quality, configure);
    let mut pool = SensorPool::new(setting.num_agents, pool_cfg);
    for slot in 0..scale.slots {
        submit(slot, engine.as_mut());
        let sensors = pool.snapshots(slot, &setting.trace, &setting.working_region);
        let report = engine.step(slot, &sensors);
        pool.record_measurements(slot, report.sensors_used.iter().map(|&si| sensors[si].id));
    }
    engine
}

/// `sum` averaged over `count` issued items, 0 when none were issued.
/// Averaging over *issued* queries lets an unanswered one count as 0,
/// which is what collapses the baselines' quality curves at small
/// budgets (Figs. 7(b) and 10(b–d)).
fn per_issued(sum: f64, count: usize) -> f64 {
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// Average quality of results over every monitor the engine ever ran
/// (retired ones plus those still live at the end of the campaign).
fn monitor_quality(engine: &dyn SlotEngine) -> f64 {
    let retired = engine
        .retired_monitors()
        .into_iter()
        .map(|m| m.quality_of_results());
    let location = engine
        .location_monitors()
        .into_iter()
        .map(|m| m.quality_of_results());
    let region = engine
        .region_monitors()
        .into_iter()
        .map(|m| m.quality_of_results());
    let qualities: Vec<f64> = retired.chain(location).chain(region).collect();
    per_issued(qualities.iter().sum(), qualities.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_core::aggregator::PointSpec;
    use ps_core::valuation::quality::QualityModel;
    use ps_geo::{Point, Rect};
    use ps_mobility::MobilityTrace;

    const SPOT: Point = Point { x: 5.0, y: 5.0 };

    /// `slots` single-threaded slots.
    fn slots(slots: usize) -> Scale {
        Scale {
            slots,
            threads: 1,
            ..Scale::smoke()
        }
    }

    /// One agent standing at [`SPOT`], inside a 10×10 working region.
    fn one_agent(slots: usize) -> PointSetting {
        PointSetting {
            trace: MobilityTrace::new(vec![vec![Some(SPOT)]; slots]),
            working_region: Rect::new(0.0, 0.0, 10.0, 10.0),
            quality: QualityModel::new(5.0),
            num_agents: 1,
        }
    }

    #[test]
    fn campaign_submits_once_a_slot_in_order_before_its_step() {
        let mut submitted = Vec::new();
        let engine = run_campaign(
            &slots(5),
            &one_agent(5),
            &SensorPoolConfig::paper_default(5, 1),
            |b| b,
            |slot, engine| submitted.push((slot, engine.totals().slots)),
        );
        // Slot t's submit sees exactly the t slots stepped before it.
        assert_eq!(submitted, (0..5).map(|t| (t, t)).collect::<Vec<_>>());
        assert_eq!(engine.totals().slots, 5);
    }

    /// The agent answers the query at its feet whenever it is listed, so
    /// the answered count shows which slots listed it: under lifetime 1
    /// the measurement slot 0 charges leaves it out of every later slot.
    #[test]
    fn campaign_charges_every_sensor_a_step_used() {
        let answered = |lifetime| {
            let engine = run_campaign(
                &slots(4),
                &one_agent(4),
                &SensorPoolConfig::paper_default(lifetime, 1),
                |b| b,
                |_, engine| {
                    engine.submit_point(PointSpec {
                        loc: SPOT,
                        budget: 100.0,
                        theta_min: 0.2,
                    });
                },
            );
            let breakdown = &engine.totals().breakdown;
            (breakdown.point_satisfied, breakdown.point_total)
        };
        assert_eq!(answered(4), (4, 4));
        assert_eq!(answered(1), (1, 4));
    }

    #[test]
    fn per_issued_averages_and_is_zero_when_nothing_was_issued() {
        assert_eq!(per_issued(3.0, 4), 0.75);
        assert_eq!(per_issued(3.0, 0), 0.0);
        assert_eq!(per_issued(0.0, 0), 0.0);
    }

    #[test]
    fn parse_roundtrips_names() {
        for id in ExperimentId::ALL {
            assert_eq!(ExperimentId::parse(id.name()), Some(id));
        }
        assert_eq!(ExperimentId::parse("nope"), None);
        assert_eq!(ExperimentId::parse("FIG2"), Some(ExperimentId::Fig2));
        assert_eq!(
            ExperimentId::parse("Ablation_Region"),
            Some(ExperimentId::AblationRegion)
        );
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
