//! Workload generators for selfish load-balancing experiments.
//!
//! The paper's theorems are worst-case over initial states, weights, and
//! speeds; its experimental reproduction therefore needs controlled
//! generators for each axis:
//!
//! * [`placement`] — initial task placements, from the adversarial
//!   "everything on one node" start (the `Ψ₀(X₀) ≤ m²` worst case used in
//!   Lemma 3.15) to random and near-balanced starts,
//! * [`weights`] — task-weight distributions on `(0, 1]` (uniform, ranges,
//!   bounded power laws, bimodal mixes),
//! * [`weight_classes`] — quantization of sampled weights into the small
//!   class sets consumed by the count engine
//!   (`slb_core::engine::count::CountSim`),
//! * [`speeds`] — machine-speed distributions, including the
//!   integer-granularity families required by Theorem 1.2,
//! * [`scenario`] — named presets bundling a topology, speeds, weights and
//!   placement into a ready-to-run [`System`](slb_core::model::System), or
//!   straight into the per-(node, class) counts of a [`CountInstance`],
//! * [`sweep`] — declarative experiment grids ([`SweepSpec`]) with the
//!   `key=a,b,c` grid syntax consumed by `slb sweep` and the analysis
//!   layer's sweep runner,
//! * [`traffic`] — synthetic open/closed-loop traffic specifications
//!   ([`TrafficSpec`]) for the `slb serve` harness,
//! * [`faults`] — fault-injection, signal-degradation, and retry
//!   specifications ([`FaultSpec`], [`SignalSpec`], [`RetrySpec`]) for
//!   the `slb serve` harness's degraded modes,
//! * [`validate`] — declarative theorem-validation ladders
//!   ([`ValidateSpec`]): sizeless graph families × geometric `n` and
//!   `m/n` ladders, consumed by `slb validate` and the analysis layer's
//!   conformance runner.
//!
//! # Example
//!
//! ```
//! use rand::SeedableRng;
//! use slb_workloads::{placement::Placement, scenario};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let built = scenario::heterogeneous_torus(4, 4, 10, &mut rng)?;
//! assert_eq!(built.system.node_count(), 16);
//! assert_eq!(built.system.task_count(), 160);
//! # Ok::<(), slb_workloads::ScenarioError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
pub mod placement;
pub mod scenario;
pub mod speeds;
pub mod sweep;
pub mod traffic;
pub mod validate;
pub mod weight_classes;
pub mod weights;

pub use faults::{FaultSpec, RetrySpec, SignalSpec};
pub use scenario::{BuiltScenario, CountInstance, ScenarioError};
pub use sweep::{CellSpec, ProtocolKind, StopRule, SweepParseError, SweepSpec};
pub use traffic::{ClosedLoop, OpenLoop, TrafficSpec};
pub use validate::{FamilyShape, LoadRule, Regime, RowSpec, ValidateSpec};
pub use weight_classes::WeightClasses;
