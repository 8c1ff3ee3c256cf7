//! Selfish load-balancing protocols, potentials, equilibria, and simulation
//! engines — the core of the reproduction of *Adolphs & Berenbrink,
//! "Distributed Selfish Load Balancing with Weights and Speeds"*
//! (PODC 2012).
//!
//! # The model
//!
//! A network of `n` processors (an arbitrary undirected graph from
//! [`slb_graphs`]) with speeds `s_i` hosts `m` selfish tasks, uniform or
//! weighted with `w_ℓ ∈ (0, 1]`. In each synchronous round every task
//! samples one random neighbor of its current machine and migrates with a
//! carefully damped probability if that would reduce its perceived load.
//! The paper proves convergence-time bounds to approximate and exact Nash
//! equilibria in terms of the network's algebraic connectivity `λ₂`.
//!
//! # Crate layout
//!
//! * [`model`] — speeds, tasks, the [`System`](model::System) instance and
//!   the [`TaskState`](model::TaskState) assignment,
//! * [`protocol`] — Algorithm 1, Algorithm 2 and the SODA'11 baseline as
//!   one per-task protocol ([`Selfish`](protocol::Selfish)) under one
//!   threshold rule ([`MigrationRule`](protocol::MigrationRule)), and
//!   discrete diffusion ([`Diffusion`](protocol::Diffusion)),
//! * [`potential`] — `Φ₀, Φ₁, Ψ₀, Ψ₁, L_Δ`,
//! * [`equilibrium`] — Nash / ε-Nash predicates and gap measurement,
//! * [`engine`] — the per-task and the count-based simulators,
//! * [`rng`] — deterministic seed derivation.
//!
//! # Quickstart
//!
//! ```
//! use slb_core::engine::{Simulation, StopCondition, StopReason};
//! use slb_core::equilibrium::Threshold;
//! use slb_core::model::{SpeedVector, System, TaskSet, TaskState};
//! use slb_core::protocol::{MigrationRule, Selfish};
//! use slb_graphs::{generators, NodeId};
//!
//! // 16 machines in a 4x4 torus, 160 unit tasks, all starting on node 0.
//! let system = System::new(
//!     generators::torus(4, 4),
//!     SpeedVector::uniform(16),
//!     TaskSet::uniform(160),
//! )?;
//! let state = TaskState::all_on_node(&system, NodeId(0));
//! let mut sim = Simulation::new(&system, Selfish::new(MigrationRule::Relaxed), state, 0xC0FFEE);
//! let outcome = sim.run_until(StopCondition::Nash(Threshold::UnitWeight), 100_000);
//! assert_eq!(outcome.reason, StopReason::ConditionMet);
//! # Ok::<(), slb_core::model::ModelError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Curated pedantic hardening (promoted to errors by CI's `-D warnings`):
// engine index math must not truncate silently, hot-path APIs must not
// clone-by-value, float equality must be a deliberate act, and a panic
// must state its invariant (`expect`, never `unwrap`). Scoped to library
// code — tests compare exact deterministic outputs all the time.
#![cfg_attr(
    not(test),
    warn(
        clippy::needless_pass_by_value,
        clippy::cast_possible_truncation,
        clippy::float_cmp,
        clippy::unwrap_used
    )
)]

pub mod engine;
pub mod equilibrium;
pub mod model;
pub mod potential;
pub mod protocol;
pub mod rng;
