//! Graph Laplacians and the algebraic connectivity `λ₂`.
//!
//! Definition 1.1 of the paper: `L(G)` has `L_ii = deg(i)` and
//! `L_ij = −1` for `(i, j) ∈ E`. Lemma 1.2 gives the quadratic form
//! `xᵀLx = Σ_{(i,j)∈E}(x_i − x_j)²` and positive semi-definiteness (both
//! checked against [`apply`] in the tests); Lemma
//! 1.4 identifies the kernel with the connected components. The paper's
//! convergence bounds all run through `λ₂`, computed here by sparse
//! shift-invert Lanczos (see [`crate::lanczos`]) at every `n`.

use crate::{lanczos, SpectralError};
use slb_graphs::Graph;

/// Sparse application `y = L·x` without materializing the matrix:
/// `y_i = deg(i)·x_i − Σ_{j ∈ N(i)} x_j`.
///
/// # Panics
///
/// Panics if `x.len() != n`.
pub fn apply(g: &Graph, x: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), g.node_count(), "vector length mismatch");
    let mut y = vec![0.0; x.len()];
    for v in g.nodes() {
        let mut acc = g.degree(v) as f64 * x[v.index()];
        for &u in g.neighbors(v) {
            acc -= x[u.index()];
        }
        y[v.index()] = acc;
    }
    y
}

/// The algebraic connectivity `λ₂(G)`: Lanczos on the sparse Laplacian
/// with the all-ones kernel deflated. For a connected graph `λ₂ > 0`; for a
/// disconnected graph this returns (numerically) 0 in accordance with
/// Lemma 1.4(2).
///
/// # Errors
///
/// Returns [`SpectralError::TooSmall`] for `n < 2` and propagates Lanczos
/// breakdowns.
pub fn lambda2(g: &Graph) -> Result<f64, SpectralError> {
    let n = g.node_count();
    if n < 2 {
        return Err(SpectralError::TooSmall { nodes: n });
    }
    let kernel: Vec<f64> = vec![1.0 / (n as f64).sqrt(); n];
    lanczos::smallest_deflated_refined(n, |x| apply(g, x), &kernel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closed_form;
    use crate::lanczos::tests::eigenvalues_below;
    use slb_graphs::generators;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    /// The edge sum `Σ_{(i,j)∈E}(x_i − x_j)²` of Lemma 1.2(1).
    fn quadratic_form(g: &Graph, x: &[f64]) -> f64 {
        g.edges()
            .iter()
            .map(|(a, b)| {
                let d = x[a.index()] - x[b.index()];
                d * d
            })
            .sum()
    }

    #[test]
    fn laplacian_rows_sum_to_zero() {
        // Row i of the symmetric L is L·e_i.
        let g = generators::torus(3, 4);
        for i in 0..g.node_count() {
            let mut e = vec![0.0; g.node_count()];
            e[i] = 1.0;
            assert_close(apply(&g, &e).iter().sum(), 0.0, 1e-12);
        }
    }

    #[test]
    fn apply_matches_dense() {
        // The dense L of Definition 1.1: deg(i) on the diagonal, −1 per edge.
        let g = generators::hypercube(3);
        let mut l = vec![vec![0.0; 8]; 8];
        for v in g.nodes() {
            l[v.index()][v.index()] = g.degree(v) as f64;
            for &u in g.neighbors(v) {
                l[v.index()][u.index()] = -1.0;
            }
        }
        let x: Vec<f64> = (0..8).map(|i| (i as f64).sin()).collect();
        for (a, row) in apply(&g, &x).iter().zip(&l) {
            let dense: f64 = row.iter().zip(&x).map(|(l, x)| l * x).sum();
            assert_close(*a, dense, 1e-12);
        }
    }

    #[test]
    fn quadratic_form_matches_lemma_1_2() {
        let g = generators::mesh(3, 3);
        let x: Vec<f64> = (0..9).map(|i| (i * i) as f64 * 0.1).collect();
        let by_edges = quadratic_form(&g, &x);
        let by_operator: f64 = x.iter().zip(apply(&g, &x)).map(|(a, b)| a * b).sum();
        assert_close(by_edges, by_operator, 1e-9);
        assert!(by_edges >= 0.0, "L is PSD (Lemma 1.2(2))");
    }

    #[test]
    fn all_ones_in_kernel() {
        let g = generators::ring(9);
        let ones = vec![1.0; 9];
        for v in apply(&g, &ones) {
            assert_close(v, 0.0, 1e-12);
        }
    }

    #[test]
    fn smallest_eigenvalue_is_zero() {
        let g = generators::complete(7);
        let ones = vec![1.0; 7];
        assert_eq!(eigenvalues_below(&g, &ones, -1e-9), 0, "L is PSD");
        assert_eq!(eigenvalues_below(&g, &ones, 1e-9), 1, "0 is simple");
    }

    #[test]
    fn kernel_multiplicity_counts_components() {
        // Two disjoint triangles: eigenvalue 0 with multiplicity 2.
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]).unwrap();
        assert_eq!(eigenvalues_below(&g, &[1.0; 6], 1e-9), 2);
        // λ₂ of a disconnected graph is 0 (Lemma 1.4(2)).
        assert_close(lambda2(&g).unwrap(), 0.0, 1e-9);
    }

    #[test]
    fn lambda2_matches_closed_forms() {
        assert_close(
            lambda2(&generators::complete(10)).unwrap(),
            closed_form::lambda2_complete(10),
            1e-8,
        );
        assert_close(
            lambda2(&generators::ring(12)).unwrap(),
            closed_form::lambda2_ring(12),
            1e-8,
        );
        assert_close(
            lambda2(&generators::path(11)).unwrap(),
            closed_form::lambda2_path(11),
            1e-8,
        );
        assert_close(
            lambda2(&generators::hypercube(4)).unwrap(),
            closed_form::lambda2_hypercube(4),
            1e-8,
        );
        assert_close(
            lambda2(&generators::star(8)).unwrap(),
            closed_form::lambda2_star(8),
            1e-8,
        );
        assert_close(
            lambda2(&generators::mesh(4, 5)).unwrap(),
            closed_form::lambda2_mesh(4, 5),
            1e-8,
        );
        assert_close(
            lambda2(&generators::torus(4, 5)).unwrap(),
            closed_form::lambda2_torus(4, 5),
            1e-8,
        );
    }

    #[test]
    fn too_small_rejected() {
        let g = Graph::from_edges(1, []).unwrap();
        assert_eq!(lambda2(&g), Err(SpectralError::TooSmall { nodes: 1 }));
    }

    use slb_graphs::Graph;
}
