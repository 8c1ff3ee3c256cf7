//! Exact algebraic connectivity for the named graph families of Table 1.
//!
//! These closed forms serve two purposes: they validate the Lanczos
//! solver in the test suites, and they let the experiment harness
//! evaluate the paper's bounds without paying an eigensolve for every
//! topology size in a sweep.
//!
//! Derivations are classical (see Fan Chung's *Spectral Graph Theory* \[9\]):
//! the spectra of `K_n`, `C_n`, `P_n`, `S_n`, and `Q_d` are
//! explicit, and the Laplacian spectrum of a Cartesian product `G □ H` is
//! the pairwise sum `{λ_i(G) + λ_j(H)}` — which covers the mesh
//! (`P_r □ P_c`) and torus (`C_r □ C_c`).

use slb_graphs::generators::Family;
use std::f64::consts::PI;

/// `λ₂(K_n) = n`.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn lambda2_complete(n: usize) -> f64 {
    assert!(n >= 2, "need at least two nodes");
    n as f64
}

/// `λ₂(C_n) = 2·(1 − cos(2π/n))`.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn lambda2_ring(n: usize) -> f64 {
    assert!(n >= 3, "ring needs at least three nodes");
    2.0 * (1.0 - (2.0 * PI / n as f64).cos())
}

/// `λ₂(P_n) = 2·(1 − cos(π/n)) = 4·sin²(π/2n)`.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn lambda2_path(n: usize) -> f64 {
    assert!(n >= 2, "path needs at least two nodes");
    2.0 * (1.0 - (PI / n as f64).cos())
}

/// `λ₂(Q_d) = 2` for every dimension `d ≥ 1`.
///
/// # Panics
///
/// Panics if `d == 0`.
pub fn lambda2_hypercube(d: u32) -> f64 {
    assert!(d >= 1, "hypercube needs dimension at least 1");
    2.0
}

/// `λ₂(S_n) = 1` for `n ≥ 3` (spectrum `{0, 1^(n−2), n}`); the degenerate
/// `S_2 = K_2` has spectrum `{0, 2}`, so `λ₂ = 2`.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn lambda2_star(n: usize) -> f64 {
    assert!(n >= 2, "star needs at least two nodes");
    if n == 2 {
        2.0
    } else {
        1.0
    }
}

/// `λ₂(mesh r×c) = min(λ₂(P_r), λ₂(P_c))` by the Cartesian product rule
/// (degenerating to the path value when one dimension is 1).
///
/// # Panics
///
/// Panics if `rows·cols < 2` or either dimension is 0.
pub fn lambda2_mesh(rows: usize, cols: usize) -> f64 {
    assert!(rows > 0 && cols > 0, "dimensions must be positive");
    assert!(rows * cols >= 2, "mesh needs at least two nodes");
    match (rows, cols) {
        (1, c) => lambda2_path(c),
        (r, 1) => lambda2_path(r),
        (r, c) => lambda2_path(r).min(lambda2_path(c)),
    }
}

/// `λ₂(torus r×c) = min(λ₂(C_r), λ₂(C_c))`.
///
/// # Panics
///
/// Panics if either dimension is `< 3`.
pub fn lambda2_torus(rows: usize, cols: usize) -> f64 {
    assert!(
        rows >= 3 && cols >= 3,
        "torus dimensions must be at least 3"
    );
    lambda2_ring(rows).min(lambda2_ring(cols))
}

/// Closed-form `λ₂` for a [`Family`] value, when one is known.
pub fn lambda2_family(family: Family) -> f64 {
    match family {
        Family::Complete { n } => lambda2_complete(n),
        Family::Ring { n } => lambda2_ring(n),
        Family::Path { n } => lambda2_path(n),
        Family::Mesh { rows, cols } => lambda2_mesh(rows, cols),
        Family::Torus { rows, cols } => lambda2_torus(rows, cols),
        Family::Hypercube { d } => lambda2_hypercube(d),
        Family::Star { n } => lambda2_star(n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laplacian;
    use slb_graphs::{generators, traversal, Graph, GraphBuilder};

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    /// The complete bipartite graph `K_{a,b}` (`a, b > 0`): a family with
    /// a closed-form `λ₂` outside Table 1, a second check of the solver.
    fn complete_bipartite(a: usize, b: usize) -> Graph {
        let mut builder = GraphBuilder::with_edge_capacity(a + b, a * b);
        for i in 0..a {
            for j in 0..b {
                builder.add_edge(i, a + j);
            }
        }
        builder
            .build()
            .expect("complete bipartite construction is valid")
    }

    /// `λ₂(K_{a,b})` from the spectrum `{0, a^(b−1), b^(a−1), a+b}`: the
    /// second-smallest is `min(a, b)` whenever the corresponding
    /// multiplicity is positive, i.e. unless `a = b = 1` (a single edge,
    /// `λ₂ = 2`).
    fn lambda2_complete_bipartite(a: usize, b: usize) -> f64 {
        if a == 1 && b == 1 {
            2.0
        } else {
            a.min(b) as f64
        }
    }

    #[test]
    fn complete_bipartite_counts() {
        let g = complete_bipartite(3, 4);
        assert_eq!(g.node_count(), 7);
        assert_eq!(g.edge_count(), 12);
        assert_eq!(traversal::diameter(&g), Some(2));
    }

    #[test]
    fn closed_forms_match_numerics() {
        assert_close(
            lambda2_complete(9),
            laplacian::lambda2(&generators::complete(9)).unwrap(),
            1e-8,
        );
        assert_close(
            lambda2_ring(15),
            laplacian::lambda2(&generators::ring(15)).unwrap(),
            1e-8,
        );
        assert_close(
            lambda2_path(14),
            laplacian::lambda2(&generators::path(14)).unwrap(),
            1e-8,
        );
        assert_close(
            lambda2_star(11),
            laplacian::lambda2(&generators::star(11)).unwrap(),
            1e-8,
        );
        assert_close(
            lambda2_complete_bipartite(3, 5),
            laplacian::lambda2(&complete_bipartite(3, 5)).unwrap(),
            1e-8,
        );
        assert_close(
            lambda2_complete_bipartite(1, 1),
            laplacian::lambda2(&complete_bipartite(1, 1)).unwrap(),
            1e-8,
        );
        assert_close(
            lambda2_star(2),
            laplacian::lambda2(&generators::star(2)).unwrap(),
            1e-8,
        );
        assert_close(
            lambda2_mesh(3, 6),
            laplacian::lambda2(&generators::mesh(3, 6)).unwrap(),
            1e-8,
        );
        assert_close(
            lambda2_mesh(1, 7),
            laplacian::lambda2(&generators::mesh(1, 7)).unwrap(),
            1e-8,
        );
        assert_close(
            lambda2_torus(3, 7),
            laplacian::lambda2(&generators::torus(3, 7)).unwrap(),
            1e-8,
        );
        assert_close(
            lambda2_hypercube(3),
            laplacian::lambda2(&generators::hypercube(3)).unwrap(),
            1e-8,
        );
    }

    #[test]
    fn family_dispatch() {
        use Family::*;
        for (fam, expected) in [
            (Complete { n: 6 }, 6.0),
            (Hypercube { d: 7 }, 2.0),
            (Star { n: 9 }, 1.0),
        ] {
            assert_close(lambda2_family(fam), expected, 1e-12);
        }
        assert_close(
            lambda2_family(Family::Torus { rows: 4, cols: 9 }),
            lambda2_ring(9),
            1e-12,
        );
        assert_close(
            lambda2_family(Family::Mesh { rows: 2, cols: 9 }),
            lambda2_path(9),
            1e-12,
        );
        assert_close(
            lambda2_family(Family::Ring { n: 10 }),
            lambda2_ring(10),
            1e-12,
        );
        assert_close(
            lambda2_family(Family::Path { n: 10 }),
            lambda2_path(10),
            1e-12,
        );
    }

    #[test]
    fn product_spectrum_is_pairwise_sum() {
        // λ(G □ H) = {λ_i(G) + λ_j(H)} — the identity behind the mesh and
        // torus closed forms, checked on an irregular product. Each
        // spectrum is certified with multiplicities by the inertia count,
        // at ±10⁻³: the eigenvalues are integers, and a repeated one makes
        // the unpivoted LDLᵀ too inexact at a closer shift.
        use crate::lanczos::tests::eigenvalues_below;
        use slb_graphs::Graph;
        let has_spectrum = |g: &Graph, values: &[f64]| {
            let ones = vec![1.0; g.node_count()];
            values.len() == g.node_count()
                && values.iter().enumerate().all(|(k, &v)| {
                    eigenvalues_below(g, &ones, v - 1e-3) <= k
                        && eigenvalues_below(g, &ones, v + 1e-3) > k
                })
        };
        let (g, h) = (generators::star(4), generators::path(3));
        let (dg, dh) = ([0.0, 1.0, 1.0, 4.0], [0.0, 1.0, 3.0]);
        assert!(has_spectrum(&g, &dg) && has_spectrum(&h, &dh));
        // Node (a, b) of the product is a·|H| + b.
        let m = h.node_count();
        let mut edges = Vec::new();
        for (a, b) in g.edges() {
            edges.extend((0..m).map(|j| (a.index() * m + j, b.index() * m + j)));
        }
        for (a, b) in h.edges() {
            edges.extend((0..g.node_count()).map(|i| (i * m + a.index(), i * m + b.index())));
        }
        let p = Graph::from_edges(g.node_count() * m, edges).unwrap();
        let mut expected: Vec<f64> = dg
            .iter()
            .flat_map(|a| dh.iter().map(move |b| a + b))
            .collect();
        expected.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(has_spectrum(&p, &expected), "{expected:?}");
    }

    #[test]
    fn small_angle_asymptotics() {
        // λ₂(C_n) ≈ (2π/n)² for large n.
        let n = 1000;
        let exact = lambda2_ring(n);
        let approx = (2.0 * PI / n as f64).powi(2);
        assert!((exact - approx).abs() / approx < 1e-3);
    }

    #[test]
    #[should_panic(expected = "ring needs at least three nodes")]
    fn ring_too_small() {
        let _ = lambda2_ring(2);
    }
}
