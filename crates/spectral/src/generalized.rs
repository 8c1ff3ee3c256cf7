//! The generalized Laplacian `L·S⁻¹` and the `⟨·,·⟩_S` inner product.
//!
//! Section A.2 of the paper: for machines with speeds `s_i` (collected in
//! the diagonal speed matrix `S`), migration dynamics are governed by the
//! generalized Laplacian `L·S⁻¹` (after Elsässer, Monien & Preis \[11\]).
//! `L·S⁻¹` is not symmetric, but `S^{-1/2}·L·S^{-1/2}` is, shares its
//! spectrum (Lemma 1.13), and its kernel is spanned by `S^{1/2}·1`. The
//! key estimate used in the convergence proof (Lemma 1.14) is
//! `⟨e, L·S⁻¹·e⟩_S ≥ µ₂·⟨e, e⟩_S` for every `e` with `⟨e, s⟩_S = 0`.

use crate::eigen::{self, EigenDecomposition};
use crate::{lanczos, SpectralError, SymmetricMatrix};
use slb_graphs::Graph;

/// Validates a speed vector against a graph: positive, finite, matching
/// length.
///
/// # Errors
///
/// Returns [`SpectralError::BadSpeeds`] describing the violation.
pub fn validate_speeds(g: &Graph, speeds: &[f64]) -> Result<(), SpectralError> {
    if speeds.len() != g.node_count() {
        return Err(SpectralError::BadSpeeds {
            reason: "speed vector length must equal node count",
        });
    }
    if speeds
        .iter()
        .any(|&s| s <= 0.0 || s.is_nan() || !s.is_finite())
    {
        return Err(SpectralError::BadSpeeds {
            reason: "speeds must be positive and finite",
        });
    }
    Ok(())
}

/// The generalized dot product `⟨x, y⟩_S = xᵀ·S⁻¹·y = Σ_i x_i·y_i/s_i`
/// (Definition 1.11).
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn sdot(x: &[f64], y: &[f64], speeds: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "vector length mismatch");
    assert_eq!(x.len(), speeds.len(), "speed vector length mismatch");
    x.iter()
        .zip(y.iter())
        .zip(speeds.iter())
        .map(|((a, b), s)| a * b / s)
        .sum()
}

/// Applies the generalized Laplacian: `y = L·S⁻¹·x` (sparse, O(n + m)).
///
/// # Panics
///
/// Panics if lengths mismatch.
pub fn apply(g: &Graph, speeds: &[f64], x: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), g.node_count(), "vector length mismatch");
    assert_eq!(speeds.len(), g.node_count(), "speed vector length mismatch");
    let scaled: Vec<f64> = x.iter().zip(speeds.iter()).map(|(v, s)| v / s).collect();
    crate::laplacian::apply(g, &scaled)
}

/// The dense symmetrization `S^{-1/2}·L·S^{-1/2}`, which shares the
/// spectrum of `L·S⁻¹` (proof of Lemma 1.13).
///
/// # Errors
///
/// Returns [`SpectralError::BadSpeeds`] for invalid speeds.
pub fn symmetrized_dense(g: &Graph, speeds: &[f64]) -> Result<SymmetricMatrix, SpectralError> {
    validate_speeds(g, speeds)?;
    let l = crate::laplacian::dense(g);
    let inv_sqrt: Vec<f64> = speeds.iter().map(|s| 1.0 / s.sqrt()).collect();
    let n = g.node_count();
    Ok(SymmetricMatrix::from_fn(n, |i, j| {
        l.get(i, j) * inv_sqrt[i] * inv_sqrt[j]
    }))
}

/// Full eigendecomposition of the symmetrized generalized Laplacian.
///
/// The eigenvalues are exactly the eigenvalues `µ_i` of `L·S⁻¹`; the
/// right-eigenvectors of `L·S⁻¹` are recovered as `S^{1/2}·y_k`
/// (Lemma 1.13(3)) but are not needed by the simulator, so the raw
/// orthonormal basis is returned.
///
/// # Errors
///
/// Propagates speed validation and solver errors.
pub fn eigendecomposition(g: &Graph, speeds: &[f64]) -> Result<EigenDecomposition, SpectralError> {
    eigen::decompose(&symmetrized_dense(g, speeds)?)
}

/// The second-smallest eigenvalue `µ₂` of `L·S⁻¹`.
///
/// Dense Jacobi below [`crate::laplacian::DENSE_LIMIT`] nodes, Lanczos
/// beyond.
///
/// # Errors
///
/// Returns [`SpectralError::TooSmall`] for `n < 2`, speed-validation
/// errors, and solver failures.
pub fn mu2(g: &Graph, speeds: &[f64]) -> Result<f64, SpectralError> {
    let n = g.node_count();
    if n < 2 {
        return Err(SpectralError::TooSmall { nodes: n });
    }
    validate_speeds(g, speeds)?;
    if n <= crate::laplacian::DENSE_LIMIT {
        Ok(eigendecomposition(g, speeds)?.lambda2())
    } else {
        lanczos::mu2(g, speeds)
    }
}

/// Verifies Lemma 1.14 numerically for a deviation vector `e` orthogonal to
/// the speed vector under `⟨·,·⟩_S`: returns the pair
/// `(⟨e, L·S⁻¹·e⟩_S, µ₂·⟨e, e⟩_S)`.
///
/// The first component must dominate the second; the test suites assert
/// this on random inputs, and the simulator's convergence diagnostics use
/// it to sanity-check measured potential drops.
///
/// # Errors
///
/// Propagates errors from [`mu2`].
pub fn lemma_1_14_sides(g: &Graph, speeds: &[f64], e: &[f64]) -> Result<(f64, f64), SpectralError> {
    let m2 = mu2(g, speeds)?;
    let lse = apply(g, speeds, e);
    Ok((sdot(e, &lse, speeds), m2 * sdot(e, e, speeds)))
}

/// Projects `x` onto the `⟨·,·⟩_S`-orthogonal complement of the speed
/// vector, i.e. returns `x − (⟨x,s⟩_S/⟨s,s⟩_S)·s`.
///
/// Deviation vectors `e = w − w̄` satisfy `⟨e, s⟩_S = Σe_i = 0` by
/// construction; this helper builds such vectors for tests and experiments.
///
/// # Panics
///
/// Panics if lengths mismatch.
pub fn project_off_speed(x: &[f64], speeds: &[f64]) -> Vec<f64> {
    let num = sdot(x, speeds, speeds);
    let den = sdot(speeds, speeds, speeds);
    x.iter()
        .zip(speeds.iter())
        .map(|(xi, si)| xi - num / den * si)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use slb_graphs::generators;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn sdot_is_an_inner_product() {
        let speeds = [1.0, 2.0, 4.0];
        let x = [1.0, -1.0, 2.0];
        let y = [0.5, 3.0, -1.0];
        // Symmetry.
        assert_close(sdot(&x, &y, &speeds), sdot(&y, &x, &speeds), 1e-12);
        // Linearity in first argument.
        let ax: Vec<f64> = x.iter().map(|v| 2.5 * v).collect();
        assert_close(sdot(&ax, &y, &speeds), 2.5 * sdot(&x, &y, &speeds), 1e-12);
        // Positive definiteness.
        assert!(sdot(&x, &x, &speeds) > 0.0);
        assert_close(sdot(&[0.0; 3], &[0.0; 3], &speeds), 0.0, 1e-15);
    }

    #[test]
    fn cauchy_schwarz_holds() {
        let speeds = [1.0, 3.0, 2.0, 5.0];
        let x = [1.0, 2.0, -1.0, 0.5];
        let y = [-2.0, 1.0, 4.0, 1.5];
        let lhs = sdot(&x, &y, &speeds).powi(2);
        let rhs = sdot(&x, &x, &speeds) * sdot(&y, &y, &speeds);
        assert!(lhs <= rhs + 1e-12);
    }

    #[test]
    fn speed_vector_in_kernel() {
        // L·S⁻¹·s = L·1 = 0 (Lemma 1.13(1)).
        let g = generators::torus(3, 4);
        let speeds: Vec<f64> = (0..12).map(|i| 1.0 + (i % 3) as f64).collect();
        let out = apply(&g, &speeds, &speeds);
        for v in out {
            assert_close(v, 0.0, 1e-12);
        }
    }

    #[test]
    fn symmetrized_matches_operator() {
        let g = generators::mesh(3, 3);
        let speeds: Vec<f64> = (0..9).map(|i| 1.0 + i as f64 * 0.5).collect();
        let m = symmetrized_dense(&g, &speeds).unwrap();
        // M·y where y = S^{1/2}x must equal S^{1/2}... more directly:
        // S^{-1/2} L S^{-1/2} y == S^{-1/2} · (L S^{-1} · (S^{1/2} y)).
        let y: Vec<f64> = (0..9).map(|i| (i as f64).cos()).collect();
        let my = m.matvec(&y);
        let sy: Vec<f64> = y
            .iter()
            .zip(speeds.iter())
            .map(|(v, s)| v * s.sqrt())
            .collect();
        let lsy = apply(&g, &speeds, &sy);
        let expected: Vec<f64> = lsy
            .iter()
            .zip(speeds.iter())
            .map(|(v, s)| v / s.sqrt())
            .collect();
        for (a, b) in my.iter().zip(expected.iter()) {
            assert_close(*a, *b, 1e-10);
        }
    }

    #[test]
    fn mu2_positive_for_connected() {
        let g = generators::ring(10);
        let speeds: Vec<f64> = (0..10).map(|i| 1.0 + (i % 2) as f64 * 3.0).collect();
        let m = mu2(&g, &speeds).unwrap();
        assert!(m > 0.0);
    }

    #[test]
    fn interlacing_corollary_1_16() {
        let g = generators::complete(8);
        let speeds: Vec<f64> = (0..8).map(|i| 1.0 + i as f64).collect();
        let m = mu2(&g, &speeds).unwrap();
        let l = crate::laplacian::lambda2(&g).unwrap();
        let (smin, smax) = (1.0, 8.0);
        assert!(m >= l / smax - 1e-9);
        assert!(m <= l / smin + 1e-9);
    }

    #[test]
    fn lemma_1_14_numerically() {
        let g = generators::hypercube(4);
        let speeds: Vec<f64> = (0..16).map(|i| 1.0 + (i % 5) as f64 * 0.7).collect();
        let raw: Vec<f64> = (0..16).map(|i| ((i * 31 % 7) as f64) - 3.0).collect();
        let e = project_off_speed(&raw, &speeds);
        assert_close(sdot(&e, &speeds, &speeds), 0.0, 1e-9);
        let (lhs, rhs) = lemma_1_14_sides(&g, &speeds, &e).unwrap();
        assert!(
            lhs >= rhs - 1e-8,
            "Lemma 1.14 violated: ⟨e,LS⁻¹e⟩_S = {lhs} < µ₂⟨e,e⟩_S = {rhs}"
        );
    }

    #[test]
    fn projection_removes_speed_component() {
        let speeds = [2.0, 1.0, 3.0];
        let x = [1.0, 5.0, -2.0];
        let p = project_off_speed(&x, &speeds);
        assert_close(sdot(&p, &speeds, &speeds), 0.0, 1e-12);
        // Note ⟨e,s⟩_S = Σ e_i: projection zeroes the plain sum too.
        assert_close(p.iter().sum::<f64>(), 0.0, 1e-12);
    }

    #[test]
    fn validation_errors() {
        let g = generators::path(3);
        assert!(matches!(
            mu2(&g, &[1.0]),
            Err(SpectralError::BadSpeeds { .. })
        ));
        assert!(matches!(
            symmetrized_dense(&g, &[1.0, 0.0, 1.0]),
            Err(SpectralError::BadSpeeds { .. })
        ));
        let tiny = slb_graphs::Graph::from_edges(1, []).unwrap();
        assert!(matches!(
            mu2(&tiny, &[1.0]),
            Err(SpectralError::TooSmall { .. })
        ));
    }
}
