//! The spectral quantities behind the selfish load-balancing bounds.
//!
//! The convergence bounds of *Adolphs & Berenbrink (PODC 2012)* are driven
//! by the second-smallest eigenvalue `λ₂` of the network's Laplacian
//! (the *algebraic connectivity*, Fiedler \[16\]) and, for machines with
//! speeds, by the second-smallest eigenvalue `µ₂` of the generalized
//! Laplacian `L·S⁻¹` (Elsässer et al. \[11\]). This crate implements, from
//! scratch:
//!
//! * [`laplacian`] — the sparse Laplacian operator (Definition 1.1), the
//!   quadratic form `xᵀLx = Σ_{(i,j)∈E}(x_i − x_j)²` (Lemma 1.2), and
//!   [`laplacian::lambda2`], the one `λ₂` entry point,
//! * [`lanczos`] — the shift-invert Lanczos solver behind `λ₂` at every
//!   `n`, and [`lanczos::mu2`], the one `µ₂` entry point (on the
//!   symmetrization `S^{-1/2}·L·S^{-1/2}` of Lemma 1.13),
//! * [`bounds`] — Fiedler's bound (Lemma 1.7), Mohar's diameter bound
//!   (Lemma 1.5) and `λ₂ ≤ 2Δ`, as printed by `slb spectral`,
//! * [`closed_form`] — exact `λ₂` for every Table 1 family.
//!
//! # Example
//!
//! ```
//! use slb_graphs::generators;
//! use slb_spectral::{closed_form, laplacian};
//!
//! let g = generators::hypercube(4);
//! let lambda2 = laplacian::lambda2(&g)?;
//! assert!((lambda2 - 2.0).abs() < 1e-8); // λ₂(Q_d) = 2 exactly
//! assert_eq!(closed_form::lambda2_hypercube(4), 2.0);
//! # Ok::<(), slb_spectral::SpectralError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod closed_form;
pub mod lanczos;
pub mod laplacian;

use std::fmt;

/// Errors produced by the spectral solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum SpectralError {
    /// `λ₂` was requested for a graph with fewer than 2 nodes.
    TooSmall {
        /// Node count of the offending graph.
        nodes: usize,
    },
    /// A speed vector had the wrong length or non-positive entries.
    BadSpeeds {
        /// Human-readable description of the violation.
        reason: &'static str,
    },
    /// Lanczos broke down before producing enough Ritz values.
    LanczosBreakdown {
        /// Krylov dimension reached before breakdown.
        dim: usize,
    },
}

impl fmt::Display for SpectralError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpectralError::TooSmall { nodes } => {
                write!(f, "spectral quantities need at least 2 nodes, got {nodes}")
            }
            SpectralError::BadSpeeds { reason } => write!(f, "invalid speed vector: {reason}"),
            SpectralError::LanczosBreakdown { dim } => {
                write!(f, "lanczos iteration broke down at krylov dimension {dim}")
            }
        }
    }
}

impl std::error::Error for SpectralError {}
