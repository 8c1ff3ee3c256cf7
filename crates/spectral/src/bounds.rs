//! The spectral bounds quoted in Appendix A of the paper.
//!
//! Each function returns the bound value; the test suites (here and in the
//! integration tests) verify the corresponding inequality on concrete
//! graphs, which is exactly how the paper employs them:
//!
//! * Lemma 1.5 (Mohar): `diam(G) ≥ 4/(n·λ₂)`.
//! * Corollary 1.6: `λ₂ ≥ 4/n²`.
//! * Lemma 1.7 (Fiedler): `λ₂ ≤ n/(n−1)·min_deg ≤ n/(n−1)·Δ`.
//! * Lemma 1.10 (Mohar/Cheeger): `i(G)²/(2Δ) ≤ λ₂ ≤ 2·i(G)`.
//! * Corollary 1.16 (speed interlacing): `λ₂/s_max ≤ µ₂ ≤ λ₂/s_min`.
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

/// Corollary 1.6: `λ₂ ≥ 4/n²` (from `diam(G) ≤ n`).
pub fn corollary_1_6_lower(n: usize) -> f64 {
    4.0 / (n as f64 * n as f64)
}

/// Cheeger-constant sandwich (Lemma 1.10): returns
/// `(i²/(2Δ), 2i)` such that `lower ≤ λ₂ ≤ upper`.
///
/// # Panics
///
/// Panics if `max_degree == 0`.
pub fn cheeger_sandwich(isoperimetric: f64, max_degree: usize) -> (f64, f64) {
    assert!(max_degree > 0, "max degree must be positive");
    (
        isoperimetric * isoperimetric / (2.0 * max_degree as f64),
        2.0 * isoperimetric,
    )
}

/// Corollary 1.16: bounds on `µ₂` of the generalized Laplacian from `λ₂`
/// of the plain Laplacian: `(λ₂/s_max, λ₂/s_min)`.
///
/// # Panics
///
/// Panics if speeds are not positive.
pub fn speed_interlacing(lambda2: f64, s_min: f64, s_max: f64) -> (f64, f64) {
    assert!(s_min > 0.0 && s_max >= s_min, "invalid speed range");
    (lambda2 / s_max, lambda2 / s_min)
}

/// The `λ₂ ≤ 2Δ` fact used in the proof of Theorem 1.2 (via Lemma 1.7 it is
/// implied whenever `n ≥ 2`); returns the bound `2Δ`.
pub fn two_delta_upper(g: &Graph) -> f64 {
    2.0 * g.max_degree() as f64
}

/// Verifies every bound of this module against a numerically computed `λ₂`
/// and returns the violated-bound names (empty when all hold).
///
/// This powers the property tests: random graphs are thrown at the full
/// bound suite at once.
pub fn check_all(
    g: &Graph,
    lambda2: f64,
    diam: Option<usize>,
    isoperimetric: Option<f64>,
) -> Vec<&'static str> {
    let mut violations = Vec::new();
    let tol = 1e-8;
    if lambda2 > fiedler_upper(g) + tol {
        violations.push("fiedler_upper");
    }
    if lambda2 > two_delta_upper(g) + tol {
        violations.push("two_delta_upper");
    }
    if g.is_connected() {
        if let Some(d) = diam {
            if d > 0 && lambda2 < mohar_lambda2_lower(g.node_count(), d) - tol {
                violations.push("mohar_lower");
            }
        }
        if lambda2 < corollary_1_6_lower(g.node_count()) - tol {
            violations.push("corollary_1_6");
        }
        if let Some(i) = isoperimetric {
            let (lo, hi) = cheeger_sandwich(i, g.max_degree());
            if lambda2 < lo - tol {
                violations.push("cheeger_lower");
            }
            if lambda2 > hi + tol {
                violations.push("cheeger_upper");
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laplacian;
    use slb_graphs::{cheeger, generators, traversal};

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
            let diam = traversal::diameter(&g);
            let iso = if g.node_count() <= cheeger::EXACT_LIMIT {
                Some(cheeger::isoperimetric_number(&g).0)
            } else {
                None
            };
            let violations = check_all(&g, l2, diam, iso);
            assert!(
                violations.is_empty(),
                "violations {violations:?} on graph with n={}",
                g.node_count()
            );
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
        assert!((corollary_1_6_lower(10) - 0.04).abs() < 1e-15);
    }

    #[test]
    fn cheeger_sandwich_values() {
        let (lo, hi) = cheeger_sandwich(1.0, 4);
        assert!((lo - 0.125).abs() < 1e-15);
        assert!((hi - 2.0).abs() < 1e-15);
    }

    #[test]
    fn speed_interlacing_values() {
        let (lo, hi) = speed_interlacing(2.0, 1.0, 4.0);
        assert!((lo - 0.5).abs() < 1e-15);
        assert!((hi - 2.0).abs() < 1e-15);
    }

    #[test]
    fn barbell_cheeger_bounds_are_respected() {
        let g = generators::barbell(5, 0);
        let l2 = laplacian::lambda2(&g).unwrap();
        let (i, _) = cheeger::isoperimetric_number(&g);
        let (lo, hi) = cheeger_sandwich(i, g.max_degree());
        assert!(l2 >= lo - 1e-9, "λ₂={l2} < lower={lo}");
        assert!(l2 <= hi + 1e-9, "λ₂={l2} > upper={hi}");
    }

    #[test]
    #[should_panic(expected = "diameter must be positive")]
    fn zero_diameter_panics() {
        let _ = mohar_lambda2_lower(5, 0);
    }
}
