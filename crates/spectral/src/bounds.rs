//! The spectral bounds of Appendix A that `slb spectral` prints.
//!
//! Each function returns the bound value; the test suites (here and in the
//! integration tests) verify the corresponding inequality on concrete
//! graphs, which is exactly how the paper employs them:
//!
//! * Lemma 1.5 (Mohar): `diam(G) ≥ 4/(n·λ₂)`.
//! * Lemma 1.7 (Fiedler): `λ₂ ≤ n/(n−1)·min_deg ≤ n/(n−1)·Δ`.
//! * The proof of Theorem 1.2 also uses `2Δ/λ₂ ≥ 1`, i.e. `λ₂ ≤ 2Δ`.

use slb_graphs::Graph;

/// Fiedler's upper bound (Lemma 1.7): `λ₂ ≤ n/(n−1) · min_deg(G)`.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn fiedler_upper(g: &Graph) -> f64 {
    let n = g.node_count();
    assert!(n >= 2, "bound needs at least two nodes");
    n as f64 / (n as f64 - 1.0) * g.min_degree() as f64
}

/// Mohar's diameter lower bound (Lemma 1.5) rearranged for `λ₂`:
/// `λ₂ ≥ 4/(n · diam(G))`.
///
/// # Panics
///
/// Panics if `diam == 0`.
pub fn mohar_lambda2_lower(n: usize, diam: usize) -> f64 {
    assert!(diam > 0, "diameter must be positive");
    4.0 / (n as f64 * diam as f64)
}

/// The `λ₂ ≤ 2Δ` fact used in the proof of Theorem 1.2 (via Lemma 1.7 it is
/// implied whenever `n ≥ 2`); returns the bound `2Δ`.
pub fn two_delta_upper(g: &Graph) -> f64 {
    2.0 * g.max_degree() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laplacian;
    use slb_graphs::{generators, traversal};

    #[test]
    fn all_bounds_hold_on_table1_families() {
        let graphs = vec![
            generators::complete(8),
            generators::ring(12),
            generators::path(9),
            generators::mesh(3, 4),
            generators::torus(3, 4),
            generators::hypercube(3),
            generators::star(10),
        ];
        for g in graphs {
            let l2 = laplacian::lambda2(&g).unwrap();
            let diam = traversal::diameter(&g).unwrap();
            let n = g.node_count();
            assert!(l2 <= fiedler_upper(&g) + 1e-8, "Fiedler, n={n}");
            assert!(l2 <= two_delta_upper(&g) + 1e-8, "2Δ, n={n}");
            assert!(l2 >= mohar_lambda2_lower(n, diam) - 1e-8, "Mohar, n={n}");
        }
    }

    #[test]
    fn fiedler_tight_on_complete_graph() {
        // λ₂(K_n) = n and bound = n/(n−1)·(n−1) = n: tight.
        let g = generators::complete(6);
        let l2 = laplacian::lambda2(&g).unwrap();
        assert!((fiedler_upper(&g) - l2).abs() < 1e-8);
    }

    #[test]
    fn mohar_bound_values() {
        assert!((mohar_lambda2_lower(10, 5) - 4.0 / 50.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "diameter must be positive")]
    fn zero_diameter_panics() {
        let _ = mohar_lambda2_lower(5, 0);
    }
}
