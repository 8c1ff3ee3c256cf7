//! The replay's only calls into the count engines.
//!
//! `slb sweep` and `slb validate` dispatch every randomized protocol to
//! one of three count engines; [`Engine`] makes the same choice and
//! forwards `new` / `step` / `is_nash` / `psi0`, so a change to the
//! engines' API is re-pointed here and nowhere else in the replay.

use slb_core::engine::speed_fast::{SpeedFastRule, SpeedFastSim};
use slb_core::engine::uniform_fast::{CountState, UniformFastSim};
use slb_core::engine::weighted_fast::{ClassCountState, WeightedFastSim};
use slb_core::equilibrium::Threshold;
use slb_core::model::{System, TaskId};
use slb_core::protocol::Alpha;
use slb_graphs::NodeId;
use slb_workloads::{BuiltScenario, ProtocolKind, WeightClasses};

/// The engine's starting state, built from a scenario's per-task placement.
pub enum Start {
    /// Per-node task counts (Algorithm 1 on unit weights).
    Counts(CountState),
    /// Per-(node, weight class) counts.
    Classes(ClassCountState),
}

impl Start {
    /// The state the CLI builds for `protocol`: plain counts for
    /// Algorithm 1 on unit weights, weight classes otherwise (the
    /// collapse `class_state_of` performs in `slb_analysis::sweep`).
    pub fn of(built: &BuiltScenario, protocol: ProtocolKind, uniform: bool) -> Start {
        let system = &built.system;
        if protocol == ProtocolKind::Alg1 && uniform {
            let counts = (0..system.node_count())
                .map(|v| built.initial.node_task_count(NodeId(v)) as u64)
                .collect();
            return Start::Counts(CountState::new(counts));
        }
        let weights: Vec<f64> = system.tasks().iter().map(|(_, w)| w).collect();
        let nodes: Vec<usize> = (0..system.task_count())
            .map(|t| built.initial.task_node(TaskId(t)).index())
            .collect();
        let classes = WeightClasses::from_samples(&weights, WeightClasses::DEFAULT_MAX_CLASSES);
        let counts = classes.node_class_counts(&weights, &nodes, system.node_count());
        Start::Classes(ClassCountState::new(classes.weights().to_vec(), counts))
    }
}

/// One count engine, chosen as the CLI chooses it.
pub enum Engine<'a> {
    Uniform(UniformFastSim<'a>),
    Weighted(WeightedFastSim<'a>, Threshold),
    Speed(SpeedFastSim<'a>, Threshold),
}

impl<'a> Engine<'a> {
    /// # Panics
    ///
    /// Panics for the deterministic protocols, which have no count engine.
    pub fn new(
        system: &'a System,
        protocol: ProtocolKind,
        start: Start,
        threshold: Threshold,
        seed: u64,
    ) -> Self {
        let alpha = Alpha::Approximate;
        match (protocol, start) {
            (ProtocolKind::Alg1, Start::Counts(counts)) => {
                Engine::Uniform(UniformFastSim::new(system, alpha, counts, seed))
            }
            (ProtocolKind::Alg1, Start::Classes(classes)) => Engine::Weighted(
                WeightedFastSim::new(system, alpha, classes, seed),
                threshold,
            ),
            (ProtocolKind::Alg2 | ProtocolKind::Bhs, Start::Classes(classes)) => {
                let rule = if protocol == ProtocolKind::Alg2 {
                    SpeedFastRule::Alg2
                } else {
                    SpeedFastRule::Bhs
                };
                Engine::Speed(
                    SpeedFastSim::new(system, rule, alpha, classes, seed),
                    threshold,
                )
            }
            (other, _) => panic!("no count engine replays protocol {other:?}"),
        }
    }

    /// One round; returns the tasks it moved.
    pub fn step(&mut self) -> u64 {
        match self {
            Engine::Uniform(sim) => sim.step(),
            Engine::Weighted(sim, _) => sim.step().migrations,
            Engine::Speed(sim, _) => sim.step().migrations,
        }
    }

    pub fn is_nash(&self) -> bool {
        match self {
            Engine::Uniform(sim) => sim.is_nash(),
            Engine::Weighted(sim, threshold) => sim.is_nash(*threshold),
            Engine::Speed(sim, threshold) => sim.is_nash(*threshold),
        }
    }

    pub fn psi0(&self) -> f64 {
        match self {
            Engine::Uniform(sim) => sim.psi0(),
            Engine::Weighted(sim, _) => sim.psi0(),
            Engine::Speed(sim, _) => sim.psi0(),
        }
    }
}
