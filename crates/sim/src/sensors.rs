//! Persistent sensor population: economics, trust, inaccuracy, lifetime.
//!
//! Each participant is one agent of a mobility trace plus a
//! [`ps_core::cost::SensorEconomics`] state. Per slot, the pool produces
//! the aggregator's view — [`SensorSnapshot`]s for agents that are alive
//! (lifetime not exhausted) and inside the working region — with prices
//! from Eq. 8 (energy + privacy).

use ps_core::cost::{EnergyModel, PrivacySensitivity, SensorEconomics};
use ps_core::model::{SensorSnapshot, Slot};
use ps_geo::Rect;
use ps_mobility::MobilityTrace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::{BASE_PRICE, PRIVACY_WINDOW};

/// How sensor trust values are assigned at pool creation (§4.1: "we
/// assume that there is a trust assessment mechanism in place which
/// assigns trustworthiness values to the sensors upon initialization").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrustAssignment {
    /// All sensors fully trusted (the default in the experiments).
    FullyTrusted,
    /// Trust drawn uniformly from `[lo, hi]` (the §4.7 trust sweep).
    Uniform {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
}

/// How energy cost models are assigned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EnergyAssignment {
    /// Fixed cost model for everyone.
    Fixed,
    /// Linear model with β drawn uniformly from `[0, beta_max]` (§4.3
    /// uses `beta_max = 4`).
    LinearRandomBeta {
        /// Upper bound of the β draw.
        beta_max: f64,
    },
}

/// How privacy sensitivity levels are assigned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PslAssignment {
    /// Everyone at PSL Zero (the default).
    AllZero,
    /// Uniformly random over the five levels (§4.3, Fig. 6).
    UniformRandom,
}

/// Pool configuration.
#[derive(Debug, Clone)]
pub struct SensorPoolConfig {
    /// Maximum readings per sensor ("lifetime", §4.1).
    pub lifetime: usize,
    /// Energy model assignment.
    pub energy: EnergyAssignment,
    /// PSL assignment.
    pub psl: PslAssignment,
    /// Trust assignment.
    pub trust: TrustAssignment,
    /// Inaccuracy is drawn from `U[0, inaccuracy_max]` (0.2 in §4.1).
    pub inaccuracy_max: f64,
    /// RNG seed for per-sensor attribute draws.
    pub seed: u64,
}

impl SensorPoolConfig {
    /// The default §4.1 configuration: fixed energy, PSL Zero, fully
    /// trusted, γ ~ U[0, 0.2], lifetime equal to the simulation period.
    pub fn paper_default(lifetime: usize, seed: u64) -> Self {
        Self {
            lifetime,
            energy: EnergyAssignment::Fixed,
            psl: PslAssignment::AllZero,
            trust: TrustAssignment::FullyTrusted,
            inaccuracy_max: 0.2,
            seed,
        }
    }

    /// The Fig. 6 / §4.7 configuration: random PSL and linear energy with
    /// β ~ U[0, 4].
    pub fn privacy_energy(lifetime: usize, seed: u64) -> Self {
        Self {
            lifetime,
            energy: EnergyAssignment::LinearRandomBeta { beta_max: 4.0 },
            psl: PslAssignment::UniformRandom,
            trust: TrustAssignment::FullyTrusted,
            inaccuracy_max: 0.2,
            seed,
        }
    }
}

struct SensorState {
    econ: SensorEconomics,
    trust: f64,
    inaccuracy: f64,
}

/// The persistent sensor population.
pub struct SensorPool {
    states: Vec<SensorState>,
}

impl SensorPool {
    /// Creates `num_agents` sensors with attributes drawn per `config`.
    pub fn new(num_agents: usize, config: &SensorPoolConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let states = (0..num_agents)
            .map(|_| {
                let energy = match config.energy {
                    EnergyAssignment::Fixed => EnergyModel::Fixed,
                    EnergyAssignment::LinearRandomBeta { beta_max } => EnergyModel::Linear {
                        beta: rng.gen_range(0.0..=beta_max),
                    },
                };
                let psl = match config.psl {
                    PslAssignment::AllZero => PrivacySensitivity::Zero,
                    PslAssignment::UniformRandom => {
                        PrivacySensitivity::ALL[rng.gen_range(0..PrivacySensitivity::ALL.len())]
                    }
                };
                let trust = match config.trust {
                    TrustAssignment::FullyTrusted => 1.0,
                    TrustAssignment::Uniform { lo, hi } => rng.gen_range(lo..=hi),
                };
                SensorState {
                    econ: SensorEconomics::new(
                        BASE_PRICE,
                        energy,
                        psl,
                        config.lifetime,
                        PRIVACY_WINDOW,
                    ),
                    trust,
                    inaccuracy: rng.gen_range(0.0..=config.inaccuracy_max),
                }
            })
            .collect();
        Self { states }
    }

    /// Number of agents in the pool (alive or not).
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True when the pool has no agents.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The aggregator's view at `slot`: every alive agent inside
    /// `working_region`, with its announced Eq. 8 price. Snapshot `id`s
    /// are agent indices, stable across slots.
    pub fn snapshots(
        &self,
        slot: Slot,
        trace: &MobilityTrace,
        working_region: &Rect,
    ) -> Vec<SensorSnapshot> {
        let mut out = Vec::new();
        for (agent, state) in self.states.iter().enumerate() {
            if state.econ.is_exhausted() {
                continue;
            }
            let Some(loc) = trace.position(slot, agent) else {
                continue;
            };
            if !working_region.contains(loc) {
                continue;
            }
            out.push(SensorSnapshot {
                id: agent,
                loc,
                cost: state.econ.price(slot),
                trust: state.trust,
                inaccuracy: state.inaccuracy,
            });
        }
        out
    }

    /// Records that the given agents provided measurements at `slot`
    /// (consumes lifetime, extends privacy histories).
    pub fn record_measurements(&mut self, slot: Slot, agents: impl IntoIterator<Item = usize>) {
        for agent in agents {
            self.states[agent].econ.record_measurement(slot);
        }
    }

    /// Number of agents whose lifetime is exhausted.
    pub fn exhausted_count(&self) -> usize {
        self.states.iter().filter(|s| s.econ.is_exhausted()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_mobility::{MobilityModel, RandomWaypoint};

    fn trace() -> MobilityTrace {
        RandomWaypoint {
            width: 20.0,
            height: 20.0,
            num_agents: 30,
            max_speed_choices: vec![2.0],
            seed: 9,
        }
        .generate(10)
    }

    #[test]
    fn snapshots_respect_working_region() {
        let pool = SensorPool::new(30, &SensorPoolConfig::paper_default(10, 1));
        let region = Rect::new(5.0, 5.0, 15.0, 15.0);
        let snaps = pool.snapshots(0, &trace(), &region);
        for s in &snaps {
            assert!(region.contains(s.loc));
            assert_eq!(s.cost, BASE_PRICE); // fixed energy, PSL zero
            assert_eq!(s.trust, 1.0);
            assert!((0.0..=0.2).contains(&s.inaccuracy));
        }
    }

    #[test]
    fn exhausted_sensors_disappear() {
        let mut pool = SensorPool::new(30, &SensorPoolConfig::paper_default(2, 1));
        let region = Rect::new(0.0, 0.0, 20.0, 20.0);
        let before = pool.snapshots(0, &trace(), &region).len();
        assert!(before > 0);
        // Exhaust agent 0.
        pool.record_measurements(0, [0]);
        pool.record_measurements(1, [0]);
        assert_eq!(pool.exhausted_count(), 1);
        let after = pool.snapshots(2, &trace(), &region);
        assert!(after.iter().all(|s| s.id != 0), "exhausted sensor listed");
    }

    #[test]
    fn privacy_energy_config_raises_prices() {
        let mut pool = SensorPool::new(30, &SensorPoolConfig::privacy_energy(10, 1));
        let region = Rect::new(0.0, 0.0, 20.0, 20.0);
        let t = trace();
        let n_before = pool.snapshots(0, &t, &region).len() as f64;
        let before: f64 = pool.snapshots(0, &t, &region).iter().map(|s| s.cost).sum();
        // Everyone measures for three consecutive slots.
        for slot in 0..3 {
            let ids: Vec<usize> = pool
                .snapshots(slot, &t, &region)
                .iter()
                .map(|s| s.id)
                .collect();
            pool.record_measurements(slot, ids);
        }
        let snaps = pool.snapshots(3, &t, &region);
        let after: f64 = snaps.iter().map(|s| s.cost).sum();
        let n_after = snaps.len() as f64;
        // Average price must have risen (energy drain + privacy pressure).
        assert!(
            after / n_after > before / n_before,
            "average price did not rise under load"
        );
    }

    /// A pool is a pure function of its config: the same seed draws the
    /// same sensors, another seed different ones.
    #[test]
    fn same_seed_draws_the_same_pool() {
        let region = Rect::new(0.0, 0.0, 20.0, 20.0);
        let t = trace();
        let draw = |seed| {
            let cfg = SensorPoolConfig {
                trust: TrustAssignment::Uniform { lo: 0.2, hi: 1.0 },
                ..SensorPoolConfig::privacy_energy(10, seed)
            };
            SensorPool::new(30, &cfg).snapshots(0, &t, &region)
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
    }

    /// Snapshot ids are agent indices, ascending, each at the agent's
    /// trace position for the slot.
    #[test]
    fn snapshots_place_agents_at_their_trace_positions() {
        let pool = SensorPool::new(30, &SensorPoolConfig::paper_default(10, 1));
        let region = Rect::new(0.0, 0.0, 20.0, 20.0);
        let t = trace();
        for slot in [0, 4, 9] {
            let snaps = pool.snapshots(slot, &t, &region);
            assert_eq!(snaps.len(), t.count_in(slot, &region));
            assert!(snaps.windows(2).all(|w| w[0].id < w[1].id));
            for s in &snaps {
                assert_eq!(t.position(slot, s.id), Some(s.loc));
            }
        }
    }

    #[test]
    fn trust_assignment_uniform_band() {
        let cfg = SensorPoolConfig {
            trust: TrustAssignment::Uniform { lo: 0.4, hi: 0.6 },
            ..SensorPoolConfig::paper_default(10, 7)
        };
        let pool = SensorPool::new(30, &cfg);
        let region = Rect::new(0.0, 0.0, 20.0, 20.0);
        for s in pool.snapshots(0, &trace(), &region) {
            assert!((0.4..=0.6).contains(&s.trust));
        }
    }
}
