//! One static trial: the loop behind every static `slb sweep` cell, every
//! `slb validate` ladder point and `slb simulate`.
//!
//! A [`Trial`] owns the two decisions those commands share:
//!
//! 1. **How the instance is built from the trial seed.** The seed is
//!    split into a scenario stream (speeds / weights / placement sampling,
//!    fed to [`scenario::build`]) and a simulation stream, so engine choice
//!    and scenario construction cannot alias.
//! 2. **Which engine runs it**, a pure function of the protocol: the
//!    count engine [`CountSim`] — per-(node, weight class) multinomials
//!    under the protocol's [`CountRule`](slb_core::engine::count::CountRule),
//!    continuous weight distributions quantized via [`WeightClasses`] —
//!    for every randomized protocol (Algorithms 1 and 2, the \[6\]
//!    baseline), and the sequential [`Simulation`] for the deterministic
//!    ones (diffusion, best response). [`EngineKind`] names the choice in
//!    the CSV `engine` column.
//!
//! [`Trial::run`] then runs the engine to a [`StopCondition`] and reads
//! off the final state's `Ψ₀` and Nash gap. "Unit weights" is a property
//! of the *spec*, not of the sampled values: a weighted distribution that
//! happens to draw all-1.0 weights (e.g. `bimodal:1:1:0.5`) still runs the
//! weighted engine under the lightest-task Nash threshold.

use rand::rngs::StdRng;
use rand::SeedableRng;
use slb_core::engine::count::{ClassCountState, CountSim};
use slb_core::engine::{RunOutcome, Simulation, StopCondition};
use slb_core::equilibrium::{self, Threshold};
use slb_core::model::TaskId;
use slb_core::potential;
use slb_core::protocol::{Alpha, BestResponse, Diffusion};
use slb_core::rng::{derive_seed, streams};
use slb_graphs::generators::Family;
use slb_graphs::NodeId;
use slb_workloads::placement::Placement;
use slb_workloads::speeds::SpeedDistribution;
use slb_workloads::sweep::{CellSpec, ProtocolKind, StopRule};
use slb_workloads::weight_classes::WeightClasses;
use slb_workloads::weights::WeightDistribution;
use slb_workloads::{scenario, BuiltScenario, ScenarioError};

/// Which configuration a trial runs, as the CSV `engine` column names
/// it. Every variant but `Sequential` is the count engine [`CountSim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Algorithm 1 on unit tasks (one class of weight 1).
    UniformFast,
    /// Algorithm 1's weighted rule on weight classes (continuous weight
    /// distributions are quantized).
    WeightedFast,
    /// Algorithm 2 or the \[6\] baseline on weight classes; same
    /// quantization caveat as `WeightedFast`.
    SpeedFast,
    /// The per-task sequential engine (diffusion, best response).
    Sequential,
    /// Any randomized protocol under arrivals/completions/churn/speed
    /// dynamics; runs a fixed horizon instead of a stop rule.
    Dynamic,
}

impl EngineKind {
    /// The label used in the CSV `engine` column.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::UniformFast => "uniform-fast",
            EngineKind::WeightedFast => "weighted-fast",
            EngineKind::SpeedFast => "speed-fast",
            EngineKind::Sequential => "sequential",
            EngineKind::Dynamic => "dynamic",
        }
    }

    /// The engine a sweep cell dispatches to (a pure function of the
    /// cell): [`EngineKind::Dynamic`] for any active dynamic axis, else
    /// the static choice of [`EngineKind::for_static`].
    pub fn for_cell(cell: &CellSpec) -> EngineKind {
        if cell.is_dynamic() {
            // Validation rejects dynamic × sequential protocols.
            return EngineKind::Dynamic;
        }
        EngineKind::for_static(cell.protocol, cell.is_uniform_tasks())
    }

    /// The engine a static trial of `protocol` runs on, given whether its
    /// spec has unit weights. Every randomized protocol runs count-based
    /// ([`slb_core::engine::parallel::ParallelSimulation`] stays the
    /// reference the χ² equivalence tests pin the count engine against).
    pub fn for_static(protocol: ProtocolKind, unit_weights: bool) -> EngineKind {
        match protocol {
            ProtocolKind::Alg1 if unit_weights => EngineKind::UniformFast,
            ProtocolKind::Alg1 => EngineKind::WeightedFast,
            ProtocolKind::Alg2 | ProtocolKind::Bhs => EngineKind::SpeedFast,
            ProtocolKind::Diffusion | ProtocolKind::BestResponse => EngineKind::Sequential,
        }
    }
}

/// One trial's instance: the scenario built from its trial seed, whether
/// its spec has unit weights, and the seed its engine runs on.
#[derive(Debug, Clone)]
pub struct Trial {
    /// The instance and its initial state.
    pub(crate) built: BuiltScenario,
    /// Whether the spec's weight distribution is `unit` (picks the engine
    /// and the Nash threshold).
    pub(crate) unit_weights: bool,
    /// Seed of the engine's round randomness.
    pub(crate) sim_seed: u64,
}

/// What a static trial ended with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialOutcome {
    /// Rounds, migrations and why the run stopped.
    pub run: RunOutcome,
    /// `Ψ₀` of the final state.
    pub psi0: f64,
    /// Nash gap of the final state under the trial's threshold
    /// (count-based on the count engine).
    pub nash_gap: f64,
}

impl Trial {
    /// Builds the trial with seed `trial_seed`: the scenario from its
    /// scenario stream, the engine seed from its simulation stream.
    ///
    /// # Errors
    ///
    /// Propagates scenario construction failures.
    pub fn build(
        graph: Family,
        speeds: SpeedDistribution,
        weights: WeightDistribution,
        placement: Placement,
        tasks_per_node: usize,
        trial_seed: u64,
    ) -> Result<Trial, ScenarioError> {
        let mut rng = StdRng::seed_from_u64(derive_seed(trial_seed, 0, streams::trial::SCENARIO));
        let built = scenario::build(
            graph.build(),
            speeds,
            weights,
            placement,
            tasks_per_node,
            &mut rng,
        )?;
        Ok(Trial {
            built,
            unit_weights: weights == WeightDistribution::Unit,
            sim_seed: derive_seed(trial_seed, 0, streams::trial::SIM),
        })
    }

    /// [`Trial::build`] on a sweep cell's scenario axes.
    ///
    /// # Errors
    ///
    /// Propagates scenario construction failures.
    pub fn of_cell(cell: &CellSpec, trial_seed: u64) -> Result<Trial, ScenarioError> {
        Trial::build(
            cell.graph,
            cell.speeds,
            cell.weights,
            cell.placement,
            cell.tasks_per_node,
            trial_seed,
        )
    }

    /// The instance and its initial state.
    pub fn built(&self) -> &BuiltScenario {
        &self.built
    }

    /// The Nash threshold of the trial's task mode:
    /// [`Threshold::UnitWeight`] for unit weights,
    /// [`Threshold::LightestTask`] otherwise.
    pub fn threshold(&self) -> Threshold {
        if self.unit_weights {
            Threshold::UnitWeight
        } else {
            Threshold::LightestTask
        }
    }

    /// The engine stop condition of a sweep stop rule.
    pub fn condition(&self, stop: StopRule) -> StopCondition {
        match stop {
            StopRule::Nash => StopCondition::Nash(self.threshold()),
            StopRule::Quiescent(k) => StopCondition::Quiescent(k),
            StopRule::Psi0Below(b) => StopCondition::Psi0Below(b),
        }
    }

    /// The count engine's starting state. A unit-weight spec has one class
    /// of weight 1, counted straight off the placement; a weighted one
    /// collapses its sampled per-task weights into classes (lossless for
    /// finite-support distributions, quantized for continuous ones — the
    /// engine's documented approximation).
    pub fn class_state(&self) -> ClassCountState {
        let system = &self.built.system;
        if self.unit_weights {
            return ClassCountState::unit(
                (0..system.node_count())
                    .map(|v| self.built.initial.node_task_count(NodeId(v)) as u64)
                    .collect(),
            );
        }
        let task_weights: Vec<f64> = system.tasks().iter().map(|(_, w)| w).collect();
        let task_nodes: Vec<usize> = (0..system.task_count())
            .map(|t| self.built.initial.task_node(TaskId(t)).index())
            .collect();
        let classes =
            WeightClasses::from_samples(&task_weights, WeightClasses::DEFAULT_MAX_CLASSES);
        let counts = classes.node_class_counts(&task_weights, &task_nodes, system.node_count());
        ClassCountState::new(classes.weights().to_vec(), counts)
    }

    /// Runs `protocol` until `condition` holds or `max_rounds` elapse: on
    /// the count engine under the protocol's rule, or per task for the
    /// deterministic protocols. `shard_threads` caps the *within-round*
    /// worker fan-out of the count engine (its sharded kernel); it never
    /// changes results.
    pub fn run(
        self,
        protocol: ProtocolKind,
        condition: StopCondition,
        max_rounds: u64,
        shard_threads: usize,
    ) -> TrialOutcome {
        let threshold = self.threshold();
        let system = &self.built.system;
        let (run, psi0, nash_gap) = match protocol.count_rule() {
            Some(rule) => {
                let state = self.class_state();
                let mut sim =
                    CountSim::for_system(system, rule, Alpha::Approximate, state, self.sim_seed)
                        .with_threads(shard_threads);
                let run = sim.run_until(condition, max_rounds);
                (run, sim.psi0(), sim.nash_gap(threshold))
            }
            None => {
                let initial = self.built.initial;
                let (run, state) = if protocol == ProtocolKind::Diffusion {
                    let mut sim = Simulation::new(system, Diffusion::new(), initial, self.sim_seed);
                    (sim.run_until(condition, max_rounds), sim.into_state())
                } else {
                    let mut sim =
                        Simulation::new(system, BestResponse::new(), initial, self.sim_seed);
                    (sim.run_until(condition, max_rounds), sim.into_state())
                };
                let total = system.tasks().total_weight();
                let psi0 = potential::psi0(state.node_weights(), system.speeds(), total);
                (run, psi0, equilibrium::nash_gap(system, &state, threshold))
            }
        };
        TrialOutcome {
            run,
            psi0,
            nash_gap,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_trial(weights: WeightDistribution, seed: u64) -> Trial {
        Trial::build(
            Family::Ring { n: 6 },
            SpeedDistribution::Alternating { classes: 2 },
            weights,
            Placement::AllOnNode(0),
            8,
            seed,
        )
        .unwrap()
    }

    #[test]
    fn task_mode_comes_from_the_spec_not_the_samples() {
        // `bimodal:1:1:0.5` samples nothing but 1.0 weights; it still is a
        // weighted spec: weighted engine, lightest-task threshold.
        let all_ones = WeightDistribution::Bimodal {
            light: 1.0,
            heavy: 1.0,
            heavy_fraction: 0.5,
        };
        let trial = ring_trial(all_ones, 3);
        assert!(trial.built.system.tasks().is_uniform());
        assert!(!trial.unit_weights);
        assert_eq!(trial.threshold(), Threshold::LightestTask);
        assert_eq!(
            EngineKind::for_static(ProtocolKind::Alg1, trial.unit_weights),
            EngineKind::WeightedFast
        );
        let trial = ring_trial(WeightDistribution::Unit, 3);
        assert_eq!(trial.threshold(), Threshold::UnitWeight);
        assert_eq!(
            trial.condition(StopRule::Nash),
            StopCondition::Nash(Threshold::UnitWeight)
        );
    }

    #[test]
    fn every_protocol_reaches_quiescence_and_reports_its_final_state() {
        for weights in [
            WeightDistribution::Unit,
            WeightDistribution::UniformRange { lo: 0.2, hi: 0.9 },
        ] {
            for protocol in ProtocolKind::ALL {
                let trial = ring_trial(weights, 5);
                let condition = trial.condition(StopRule::Quiescent(20));
                let out = trial.clone().run(protocol, condition, 20_000, 1);
                assert!(out.run.reached(), "{protocol} on {weights:?}");
                assert!(out.run.migrations > 0, "the hot start must move");
                assert!(out.psi0.is_finite() && out.psi0 >= 0.0);
                assert!((0.0..=1.0).contains(&out.nash_gap), "{protocol}");
                // Same trial, same seed: the run is a pure function of it.
                assert_eq!(trial.run(protocol, condition, 20_000, 4), out);
            }
        }
        // Reaching an exact NE leaves no gap.
        let trial = ring_trial(WeightDistribution::Unit, 8);
        let condition = trial.condition(StopRule::Nash);
        let out = trial.run(ProtocolKind::Alg1, condition, 100_000, 1);
        assert!(out.run.reached());
        assert_eq!(out.nash_gap, 0.0);
    }
}
