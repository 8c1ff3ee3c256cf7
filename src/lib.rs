//! # Distributed Selfish Load Balancing with Weights and Speeds
//!
//! A full reproduction of *Adolphs & Berenbrink, "Distributed Selfish Load
//! Balancing with Weights and Speeds"* (PODC 2012, arXiv:1109.6925) as a
//! Rust workspace: the paper's protocols, every substrate they depend on
//! (graphs, spectral theory, workloads), and the experiment harness that
//! regenerates its evaluation.
//!
//! This umbrella crate re-exports the workspace's public API under one
//! root:
//!
//! * [`graphs`] — networks: representation, Table 1 families, traversal,
//!   Cheeger constants ([`slb_graphs`]),
//! * [`spectral`] — Laplacians, `λ₂`, the generalized Laplacian `L·S⁻¹`
//!   and the bounds of Appendix A ([`slb_spectral`]),
//! * [`core`](mod@core) — the model, Algorithms 1 & 2, the \[6\] baseline,
//!   diffusion, potentials, equilibria, and the simulation engines
//!   ([`slb_core`]),
//! * [`workloads`] — placements, weight/speed distributions, scenario
//!   presets, traffic specs ([`slb_workloads`]),
//! * [`serve`] — the in-process service harness behind `slb serve`:
//!   virtual-clock event loop, routing policies ([`slb_serve`]),
//! * [`analysis`] — statistics, the paper's bounds as code, experiment
//!   runners and table rendering ([`slb_analysis`]).
//!
//! # Quickstart
//!
//! ```
//! use selfish_load_balancing::prelude::*;
//!
//! // 16 machines in a torus, two speed classes, 320 unit tasks dumped on
//! // one node; run Algorithm 1 until an exact Nash equilibrium.
//! let system = System::new(
//!     generators::torus(4, 4),
//!     SpeedVector::integer(vec![1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2])?,
//!     TaskSet::uniform(320),
//! )?;
//! let initial = TaskState::all_on_node(&system, NodeId(0));
//! let mut sim = Simulation::new(&system, SelfishUniform::new(), initial, 7);
//! let outcome = sim.run_until(StopCondition::Nash(Threshold::UnitWeight), 1_000_000);
//! assert_eq!(outcome.reason, StopReason::ConditionMet);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See `examples/` for runnable scenarios, `slb validate` for the paper's
//! Table 1 and theorem bounds, and `crates/bench/src/bin` for its figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use slb_analysis as analysis;
pub use slb_core as core;
pub use slb_graphs as graphs;
pub use slb_serve as serve;
pub use slb_spectral as spectral;
pub use slb_workloads as workloads;

/// The most commonly used items, importable with one `use`.
pub mod prelude {
    pub use slb_analysis::runner::{
        measure_uniform_convergence, run_cell_trials, run_trials, Target, TrialConfig,
    };
    pub use slb_analysis::sweep::{run_sweep, CellResult, SweepConfig, SweepOutcome};
    pub use slb_analysis::theory;
    pub use slb_analysis::validate::{run_validate, RowResult, ValidateConfig, ValidateOutcome};
    pub use slb_core::engine::{
        count::{ClassCountState, CountRule, CountSim},
        parallel::ParallelSimulation,
        recorder::Trace,
        RunOutcome, Simulation, StopCondition, StopReason,
    };
    pub use slb_core::equilibrium::{self, Threshold};
    pub use slb_core::model::{ModelError, Move, SpeedVector, System, TaskId, TaskSet, TaskState};
    pub use slb_core::potential;
    pub use slb_core::protocol::{
        Alpha, BestResponse, BhsBaseline, Diffusion, ErrorFeedbackDiffusion, Protocol,
        SelfishUniform, SelfishWeighted, WeightedRule,
    };
    pub use slb_graphs::{generators, Graph, NodeId};
    pub use slb_serve::{PolicyKind, RoutePolicy, ServeConfig, ServeOutcome};
    pub use slb_spectral::{closed_form, laplacian};
    pub use slb_workloads::placement::Placement;
    pub use slb_workloads::scenario;
    pub use slb_workloads::sweep::{CellSpec, ProtocolKind, StopRule, SweepSpec};
    pub use slb_workloads::validate::{FamilyShape, LoadRule, Regime, RowSpec, ValidateSpec};
}
