//! Sparse `λ₂` and `µ₂` via shift-invert Lanczos with kernel deflation.
//!
//! `λ₂` is obtained by running the Lanczos process on the sparse Laplacian
//! operator restricted to the orthogonal complement of the kernel vector
//! `1` (Lemma 1.4: `L·1 = 0`). On that subspace the smallest eigenvalue of
//! `L` *is* `λ₂`, and Lanczos with full reorthogonalization recovers
//! extreme Ritz values rapidly. [`crate::laplacian::lambda2`] is its entry
//! point.
//!
//! The same machinery serves the generalized Laplacian: for machines with
//! speeds, the symmetrized operator `S^{-1/2}·L·S^{-1/2}` has kernel vector
//! `S^{1/2}·1` (proof of Lemma 1.13), and its second-smallest eigenvalue is
//! `µ₂` of `L·S⁻¹` ([`mu2`]).

use crate::SpectralError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use slb_graphs::Graph;

/// Fixed seed for the (deterministic) random start vector.
const START_SEED: u64 = 0x5eed_1a2c_05f1;

fn normalize(v: &mut [f64]) -> f64 {
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
    norm
}

fn orthogonalize_against(v: &mut [f64], basis: &[Vec<f64>]) {
    for b in basis {
        let dot: f64 = v.iter().zip(b.iter()).map(|(a, c)| a * c).sum();
        for (x, y) in v.iter_mut().zip(b.iter()) {
            *x -= dot * y;
        }
    }
}

/// Number of eigenvalues of the symmetric tridiagonal matrix
/// `T = tridiag(beta, alpha, beta)` strictly below `x`, via the Sturm
/// sequence of the `LDLᵀ` pivots.
fn sturm_count_below(alpha: &[f64], beta: &[f64], x: f64) -> usize {
    let mut count = 0usize;
    let mut d = 1.0f64;
    for (i, &a) in alpha.iter().enumerate() {
        let b2 = if i == 0 {
            0.0
        } else {
            beta[i - 1] * beta[i - 1]
        };
        d = a - x - b2 / d;
        if d == 0.0 {
            d = 1e-300;
        }
        if d < 0.0 {
            count += 1;
        }
    }
    count
}

/// Smallest eigenvalue of a symmetric tridiagonal matrix by bisection with
/// Sturm counts; `alpha` is the diagonal (length `k`), `beta` the
/// off-diagonal (length `k − 1`). O(k) per bisection step.
pub(crate) fn tridiagonal_smallest(alpha: &[f64], beta: &[f64]) -> f64 {
    debug_assert_eq!(beta.len(), alpha.len().saturating_sub(1));
    // Gershgorin bounds.
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for (i, &a) in alpha.iter().enumerate() {
        let mut radius = 0.0;
        if i > 0 {
            radius += beta[i - 1].abs();
        }
        if i < beta.len() {
            radius += beta[i].abs();
        }
        lo = lo.min(a - radius);
        hi = hi.max(a + radius);
    }
    if !lo.is_finite() || !hi.is_finite() {
        return f64::NAN;
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if sturm_count_below(alpha, beta, mid) >= 1 {
            hi = mid;
        } else {
            lo = mid;
        }
        if hi - lo <= 1e-14 * hi.abs().max(1.0) {
            break;
        }
    }
    0.5 * (lo + hi)
}

/// Conjugate-gradient solve of `A·y = b` on the orthogonal complement of
/// `kernel` (where the PSD operator `A` is positive definite). Iterates
/// until the residual drops below `tol·‖b‖` or `max_iter` steps.
fn cg_solve_deflated<F>(
    n: usize,
    apply: &F,
    b: &[f64],
    kernel: &[f64],
    tol: f64,
    max_iter: usize,
) -> Vec<f64>
where
    F: Fn(&[f64]) -> Vec<f64>,
{
    let proj = |v: &mut Vec<f64>| {
        let dot: f64 = v.iter().zip(kernel.iter()).map(|(a, k)| a * k).sum();
        for (x, k) in v.iter_mut().zip(kernel.iter()) {
            *x -= dot * k;
        }
    };
    let mut x = vec![0.0f64; n];
    let mut r = b.to_vec();
    proj(&mut r);
    let bnorm = r.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-300);
    let mut p = r.clone();
    let mut rs_old: f64 = r.iter().map(|v| v * v).sum();
    for _ in 0..max_iter {
        if rs_old.sqrt() <= tol * bnorm {
            break;
        }
        let mut ap = apply(&p);
        proj(&mut ap);
        let p_ap: f64 = p.iter().zip(ap.iter()).map(|(a, c)| a * c).sum();
        if p_ap <= 0.0 {
            break; // lost positive definiteness (e.g. hidden kernel)
        }
        let alpha = rs_old / p_ap;
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        let rs_new: f64 = r.iter().map(|v| v * v).sum();
        let beta = rs_new / rs_old;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
        rs_old = rs_new;
    }
    proj(&mut x);
    x
}

/// Largest eigenvalue of a symmetric tridiagonal matrix (negate-and-reuse
/// of [`tridiagonal_smallest`]).
fn tridiagonal_largest(alpha: &[f64], beta: &[f64]) -> f64 {
    let neg: Vec<f64> = alpha.iter().map(|a| -a).collect();
    -tridiagonal_smallest(&neg, beta)
}

/// Smallest eigenvalue of the deflated operator by **shift-invert Lanczos**:
/// the Lanczos process runs on `A⁻¹` (each application is a deflated CG
/// solve), whose *largest* eigenvalue `1/λ_min` is an extreme, well
/// separated Ritz target.
///
/// Plain Lanczos on `A` converges slowly when the small eigenvalues cluster
/// (ring/path/torus Laplacians have `λ₂/λ₃` close to 1); on `A⁻¹` the same
/// cluster sits at the *top* of the spectrum where Lanczos' Chebyshev
/// acceleration applies, giving machine precision in a few dozen
/// iterations.
///
/// # Errors
///
/// Returns [`SpectralError::LanczosBreakdown`] if the start vector
/// degenerates.
pub(crate) fn smallest_deflated_refined<F>(
    n: usize,
    apply: F,
    kernel: &[f64],
) -> Result<f64, SpectralError>
where
    F: Fn(&[f64]) -> Vec<f64>,
{
    let mut rng = StdRng::seed_from_u64(START_SEED ^ 0x9e37_79b9_7f4a_7c15);
    let mut v: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    orthogonalize_against(&mut v, std::slice::from_ref(&kernel.to_vec()));
    if normalize(&mut v) == 0.0 {
        return Err(SpectralError::LanczosBreakdown { dim: 0 });
    }

    let mut q: Vec<Vec<f64>> = vec![v];
    let mut alpha: Vec<f64> = Vec::new();
    let mut beta: Vec<f64> = Vec::new();
    let mut last = f64::INFINITY;
    let kmax = 90usize.min(n.saturating_sub(1)).max(1);
    for k in 0..kmax {
        // w = A⁻¹ q_k by deflated CG.
        let mut w = cg_solve_deflated(n, &apply, &q[k], kernel, 1e-13, 20 * n + 200);
        let a: f64 = w.iter().zip(q[k].iter()).map(|(x, y)| x * y).sum();
        alpha.push(a);
        for (x, y) in w.iter_mut().zip(q[k].iter()) {
            *x -= a * y;
        }
        if k > 0 {
            let b = beta[k - 1];
            for (x, y) in w.iter_mut().zip(q[k - 1].iter()) {
                *x -= b * y;
            }
        }
        orthogonalize_against(&mut w, std::slice::from_ref(&kernel.to_vec()));
        orthogonalize_against(&mut w, &q);

        let theta = tridiagonal_largest(&alpha, &beta);
        let lambda = if theta.abs() > 1e-300 {
            1.0 / theta
        } else {
            0.0
        };
        let converged =
            (last - lambda).abs() <= 1e-13 * lambda.abs().max(1e-12) && alpha.len() >= 6;
        last = lambda;
        if converged {
            return Ok(lambda);
        }
        let b = normalize(&mut w);
        if b <= 1e-13 {
            return Ok(lambda); // Krylov space exhausted: exact.
        }
        beta.push(b);
        q.push(w);
    }
    Ok(last)
}

/// `µ₂` of the generalized Laplacian `L·S⁻¹` via Lanczos on the symmetrized
/// operator `S^{-1/2}·L·S^{-1/2}` with kernel `S^{1/2}·1` deflated.
///
/// # Errors
///
/// Returns [`SpectralError::BadSpeeds`] for invalid speeds,
/// [`SpectralError::TooSmall`] for `n < 2`, and propagates breakdowns.
pub fn mu2(g: &Graph, speeds: &[f64]) -> Result<f64, SpectralError> {
    let n = g.node_count();
    if n < 2 {
        return Err(SpectralError::TooSmall { nodes: n });
    }
    if speeds.len() != n {
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
    let sqrt_s: Vec<f64> = speeds.iter().map(|s| s.sqrt()).collect();
    let mut kernel: Vec<f64> = sqrt_s.clone();
    normalize(&mut kernel);
    let apply = |x: &[f64]| {
        let scaled: Vec<f64> = x.iter().zip(sqrt_s.iter()).map(|(v, s)| v / s).collect();
        let lx = crate::laplacian::apply(g, &scaled);
        lx.iter().zip(sqrt_s.iter()).map(|(v, s)| v / s).collect()
    };
    smallest_deflated_refined(n, apply, &kernel)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::closed_form;
    use crate::laplacian::lambda2;
    use proptest::prelude::*;
    use slb_graphs::generators;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    /// The number of eigenvalues of `L·S⁻¹` strictly below `x`, an exact
    /// reference independent of Lanczos. `L − x·S = S^{1/2}·(S^{-1/2}·L·
    /// S^{-1/2} − x·I)·S^{1/2}` is congruent to the shifted symmetrization,
    /// so by Sylvester's law of inertia the count is the number of
    /// negative pivots of its `LDLᵀ` factorization (dense, O(n³)).
    pub(crate) fn eigenvalues_below(g: &Graph, speeds: &[f64], x: f64) -> usize {
        let n = g.node_count();
        let mut a = vec![vec![0.0; n]; n];
        for v in g.nodes() {
            let i = v.index();
            a[i][i] = g.degree(v) as f64 - x * speeds[i];
            for &u in g.neighbors(v) {
                a[i][u.index()] = -1.0;
            }
        }
        let mut negative = 0;
        for k in 0..n {
            let pivot_row = a[k].clone();
            negative += usize::from(pivot_row[k] < 0.0);
            for row in &mut a[k + 1..] {
                let factor = row[k] / pivot_row[k];
                for (r, p) in row[k + 1..].iter_mut().zip(&pivot_row[k + 1..]) {
                    *r -= factor * p;
                }
            }
        }
        negative
    }

    /// Whether the inertia count certifies `estimate` as the second-smallest
    /// eigenvalue of `L·S⁻¹` within `δ = 10⁻⁸·(1 + estimate)`: exactly one
    /// eigenvalue (the kernel's 0) lies below `estimate − δ`, and at least
    /// two lie below `estimate + δ` (more when `λ₂` is repeated, as on K₃).
    fn certified(g: &Graph, speeds: &[f64], estimate: f64) -> bool {
        let delta = 1e-8 * (1.0 + estimate);
        eigenvalues_below(g, speeds, estimate - delta) == 1
            && eigenvalues_below(g, speeds, estimate + delta) >= 2
    }

    /// Strategy: a random connected graph (Gnp patched to connectivity).
    fn arb_connected_graph() -> impl Strategy<Value = Graph> {
        (2usize..24, 0u64..500).prop_map(|(n, seed)| {
            generators::gnp_connected(n, 0.3, &mut StdRng::seed_from_u64(seed))
        })
    }

    fn random_speeds(n: usize, seed: u64, hi: f64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(1.0..hi)).collect()
    }

    #[test]
    fn tridiagonal_smallest_known_values() {
        // diag(3, 1, 2) → smallest is 1.
        assert_close(
            tridiagonal_smallest(&[3.0, 1.0, 2.0], &[0.0, 0.0]),
            1.0,
            1e-12,
        );
        // [[2,1],[1,2]] → eigenvalues {1, 3}.
        assert_close(tridiagonal_smallest(&[2.0, 2.0], &[1.0]), 1.0, 1e-10);
        // Laplacian of P_3 as tridiagonal: diag(1,2,1), off(-1,-1) → 0.
        assert_close(
            tridiagonal_smallest(&[1.0, 2.0, 1.0], &[-1.0, -1.0]),
            0.0,
            1e-10,
        );
        // 1x1 matrix.
        assert_close(tridiagonal_smallest(&[5.0], &[]), 5.0, 1e-12);
    }

    #[test]
    fn sturm_counts_are_monotone() {
        let alpha = [1.0, 2.0, 3.0, 4.0];
        let beta = [0.5, 0.5, 0.5];
        let mut last = 0;
        for x in [-1.0, 0.5, 1.5, 2.5, 3.5, 5.0] {
            let c = sturm_count_below(&alpha, &beta, x);
            assert!(c >= last, "count must be nondecreasing in x");
            last = c;
        }
        assert_eq!(sturm_count_below(&alpha, &beta, 10.0), 4);
        assert_eq!(sturm_count_below(&alpha, &beta, -10.0), 0);
    }

    #[test]
    fn lanczos_matches_closed_form_small() {
        assert_close(
            lambda2(&generators::ring(16)).unwrap(),
            closed_form::lambda2_ring(16),
            1e-7,
        );
        assert_close(
            lambda2(&generators::hypercube(4)).unwrap(),
            closed_form::lambda2_hypercube(4),
            1e-7,
        );
    }

    #[test]
    fn lanczos_matches_closed_form_large() {
        // A 1024-node hypercube, a 600-node ring and a 600-node torus.
        assert_close(lambda2(&generators::hypercube(10)).unwrap(), 2.0, 1e-6);
        assert_close(
            lambda2(&generators::ring(600)).unwrap(),
            closed_form::lambda2_ring(600),
            1e-8,
        );
        assert_close(
            lambda2(&generators::torus(24, 25)).unwrap(),
            closed_form::lambda2_torus(24, 25),
            1e-7,
        );
    }

    #[test]
    fn refined_handles_path_clustering() {
        // Path Laplacians have λ₂ ≈ λ₃/4 → the hard case for plain Lanczos.
        let g = generators::path(500);
        assert_close(lambda2(&g).unwrap(), closed_form::lambda2_path(500), 1e-10);
    }

    #[test]
    fn lambda2_is_inertia_certified_on_irregular_graph() {
        let g = generators::gnp_connected(60, 0.1, &mut StdRng::seed_from_u64(3));
        assert!(certified(&g, &[1.0; 60], lambda2(&g).unwrap()));
    }

    #[test]
    fn inertia_check_rejects_a_perturbed_estimate() {
        let g = generators::gnp_connected(40, 0.15, &mut StdRng::seed_from_u64(9));
        let speeds = random_speeds(40, 9, 6.0);
        for (s, estimate) in [
            (vec![1.0; 40], lambda2(&g).unwrap()),
            (speeds.clone(), mu2(&g, &speeds).unwrap()),
        ] {
            assert!(certified(&g, &s, estimate));
            for factor in [1.0 - 1e-3, 1.0 + 1e-3] {
                assert!(!certified(&g, &s, estimate * factor), "{factor}");
            }
        }
    }

    #[test]
    fn mu2_equals_lambda2_for_unit_speeds() {
        let g = generators::mesh(5, 5);
        let speeds = vec![1.0; 25];
        let m = mu2(&g, &speeds).unwrap();
        let l = lambda2(&g).unwrap();
        assert_close(m, l, 1e-7);
    }

    #[test]
    fn mu2_scales_inversely_with_uniform_speeds() {
        // With S = s·I, L·S⁻¹ = L/s, so µ₂ = λ₂/s.
        let g = generators::ring(20);
        let s = 4.0;
        let speeds = vec![s; 20];
        let m = mu2(&g, &speeds).unwrap();
        let l = lambda2(&g).unwrap();
        assert_close(m, l / s, 1e-8);
    }

    #[test]
    fn mu2_respects_corollary_1_16() {
        // λ₂/s_max ≤ µ₂ ≤ λ₂/s_min.
        let g = generators::hypercube(5);
        let speeds: Vec<f64> = (0..32).map(|i| 1.0 + (i % 4) as f64).collect();
        let m = mu2(&g, &speeds).unwrap();
        let l = lambda2(&g).unwrap();
        assert!(m >= l / 4.0 - 1e-8, "µ₂={m} < λ₂/s_max={}", l / 4.0);
        assert!(m <= l / 1.0 + 1e-8, "µ₂={m} > λ₂/s_min={l}");
    }

    #[test]
    fn bad_speeds_rejected() {
        let g = generators::path(4);
        assert!(matches!(
            mu2(&g, &[1.0, 1.0]),
            Err(SpectralError::BadSpeeds { .. })
        ));
        assert!(matches!(
            mu2(&g, &[1.0, -2.0, 1.0, 1.0]),
            Err(SpectralError::BadSpeeds { .. })
        ));
        assert!(matches!(
            mu2(&g, &[1.0, f64::NAN, 1.0, 1.0]),
            Err(SpectralError::BadSpeeds { .. })
        ));
    }

    #[test]
    fn too_small_rejected() {
        let g = Graph::from_edges(1, []).unwrap();
        assert!(matches!(lambda2(&g), Err(SpectralError::TooSmall { .. })));
        assert!(matches!(
            mu2(&g, &[1.0]),
            Err(SpectralError::TooSmall { .. })
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn lambda2_is_inertia_certified_on_random_graphs(g in arb_connected_graph()) {
            let n = g.node_count();
            let ones = vec![1.0; n];
            let l2 = lambda2(&g).unwrap();
            prop_assert!(certified(&g, &ones, l2), "λ₂ = {l2} not certified");
            // PSD (Lemma 1.2(2)), so the one eigenvalue below λ₂ is the
            // kernel's 0, and a connected graph has λ₂ > 0 (Lemma 1.4(2)).
            prop_assert_eq!(eigenvalues_below(&g, &ones, -1e-9), 0);
            prop_assert!(l2 > 1e-10);
        }

        #[test]
        fn mu2_is_inertia_certified_on_random_graphs(g in arb_connected_graph(), seed in 0u64..100) {
            let speeds = random_speeds(g.node_count(), seed, 6.0);
            let m2 = mu2(&g, &speeds).unwrap();
            prop_assert!(certified(&g, &speeds, m2), "µ₂ = {m2} not certified");
        }
    }
}
