//! Experiment analysis for the PODC 2012 reproduction: statistics, the
//! paper's bounds as code, multi-trial runners, and table rendering.
//!
//! The crate sits between the simulator ([`slb_core`]) and the `slb` CLI:
//! it owns everything needed to turn raw convergence measurements into
//! the sweep artifacts of `slb sweep` and the Table 1 conformance reports
//! of `slb validate` (README, "Validating the paper").
//!
//! * [`stats`] — summaries with confidence intervals; log-log power-law
//!   fits for scaling exponents,
//! * [`theory`] — `γ`, `ψ_c`, `T = 2γ·ln(m/n)`, Theorems 1.1–1.3, the
//!   Table 1 bound shapes of this paper and of the \[6\] baseline,
//! * [`runner`] — seeded multi-trial execution (optionally parallel) and
//!   the canonical uniform-task convergence measurement,
//! * [`trial`] — the one static trial runner: builds a trial's instance
//!   from its seed, picks its engine from (protocol, task mode), and runs
//!   it to a stop condition (shared by sweep, validate and `slb
//!   simulate`),
//! * [`sweep`] — the protocol-generic sweep engine: executes declarative
//!   [`SweepSpec`](slb_workloads::SweepSpec) grids across all five
//!   protocols and renders deterministic CSV/JSON artifacts,
//! * [`validate`] — the theorem-validation runner: executes the scaling
//!   ladders of a [`ValidateSpec`](slb_workloads::ValidateSpec) on the
//!   fast count-based engines, fits empirical exponents with confidence
//!   intervals, and renders conformance reports against Table 1,
//! * [`tables`] — markdown/CSV rendering and `target/experiments/`
//!   artifact handling.
//!
//! # Example: one Table 1 cell
//!
//! ```
//! use slb_analysis::runner::{measure_uniform_convergence, Target, TrialConfig};
//! use slb_analysis::theory;
//! use slb_graphs::generators::Family;
//!
//! let cell = measure_uniform_convergence(
//!     Family::Hypercube { d: 3 },
//!     16,                      // m = 16·n
//!     Target::ApproxPsi0,      // first round with Ψ₀ ≤ 4ψ_c
//!     TrialConfig::sequential(3, 42),
//!     100_000,
//! );
//! // The paper's Theorem 1.1 bound for the same instance:
//! let bound = theory::thm11_expected_rounds(&cell.instance);
//! assert!(cell.rounds.mean <= bound, "measured exceeds the paper bound");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod convergence;
pub mod runner;
pub mod serve;
pub mod stats;
pub mod sweep;
pub mod tables;
pub mod theory;
pub mod trial;
pub mod validate;
