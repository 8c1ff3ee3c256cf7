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
//! * [`runner`] — seeded multi-trial execution (optionally parallel),
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
//! # Example: one Table 1 ladder
//!
//! ```
//! use slb_analysis::validate::{run_validate, ValidateConfig};
//! use slb_workloads::ValidateSpec;
//!
//! // Algorithm 1 from the hot spot to Ψ₀ ≤ 4ψ_c on hypercubes of 8 and 16
//! // nodes, m = 16·n, checked against Theorem 1.1's bound at factor 1.
//! let spec = ValidateSpec::parse(&[
//!     "family=hypercube",
//!     "n=8,16",
//!     "load=16",
//!     "trials=3",
//!     "factor=1",
//!     "max-rounds=100000",
//! ])?;
//! let report = run_validate(&spec, ValidateConfig::sequential(42))?;
//! let row = &report.rows[0];
//! assert!(!row.censored());
//! assert_eq!(row.bound_ok, Some(true), "measured exceeds the paper bound");
//! # Ok::<(), Box<dyn std::error::Error>>(())
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
