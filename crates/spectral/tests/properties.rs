//! Property-based tests for the spectral crate's public entry points.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use slb_graphs::{generators, Graph};
use slb_spectral::{bounds, closed_form, lanczos, laplacian};

/// Strategy: a random connected graph (Gnp patched to connectivity).
fn arb_connected_graph() -> impl Strategy<Value = Graph> {
    (2usize..24, 0u64..500).prop_map(|(n, seed)| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        generators::gnp_connected(n, 0.3, &mut rng)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn laplacian_psd_and_kernel(g in arb_connected_graph()) {
        let n = g.node_count();
        // L·1 = 0, so 0 is an eigenvalue (Lemma 1.4).
        prop_assert!(laplacian::apply(&g, &vec![1.0; n]).iter().all(|v| v.abs() < 1e-12));
        // Connected ⇒ λ₂ > 0 (Lemma 1.4(2)).
        prop_assert!(laplacian::lambda2(&g).unwrap() > 1e-10);
        // The quadratic form is the edge sum (Lemma 1.2(1)), hence ≥ 0 (PSD).
        let x: Vec<f64> = (0..n).map(|i| ((i * 37 % 11) as f64) - 5.0).collect();
        let qf: f64 = g
            .edges()
            .iter()
            .map(|(a, b)| (x[a.index()] - x[b.index()]).powi(2))
            .sum();
        let xlx: f64 = x.iter().zip(laplacian::apply(&g, &x)).map(|(a, b)| a * b).sum();
        prop_assert!((qf - xlx).abs() < 1e-7 * (1.0 + qf.abs()));
        prop_assert!(qf >= 0.0, "PSD");
    }

    #[test]
    fn all_spectral_bounds_hold(g in arb_connected_graph()) {
        // Lemma 1.7, λ₂ ≤ 2Δ and Lemma 1.5, as `slb spectral` prints them.
        let l2 = laplacian::lambda2(&g).unwrap();
        let diam = slb_graphs::traversal::diameter(&g).unwrap();
        prop_assert!(l2 <= bounds::fiedler_upper(&g) + 1e-8);
        prop_assert!(l2 <= bounds::two_delta_upper(&g) + 1e-8);
        prop_assert!(l2 >= bounds::mohar_lambda2_lower(g.node_count(), diam) - 1e-8);
    }

    #[test]
    fn generalized_interlacing(g in arb_connected_graph(), seed in 0u64..100) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let speeds: Vec<f64> = (0..g.node_count()).map(|_| rng.gen_range(1.0..6.0)).collect();
        let smin = speeds.iter().cloned().fold(f64::MAX, f64::min);
        let smax = speeds.iter().cloned().fold(f64::MIN, f64::max);
        let l2 = laplacian::lambda2(&g).unwrap();
        let m2 = lanczos::mu2(&g, &speeds).unwrap();
        // Corollary 1.16: λ₂/s_max ≤ µ₂ ≤ λ₂/s_min.
        prop_assert!(m2 >= l2 / smax - 1e-7, "µ₂ {m2} < λ₂/s_max {}", l2 / smax);
        prop_assert!(m2 <= l2 / smin + 1e-7, "µ₂ {m2} > λ₂/s_min {}", l2 / smin);
    }

    #[test]
    fn lemma_1_14_on_random_deviations(g in arb_connected_graph(), seed in 0u64..100) {
        // ⟨e, L·S⁻¹·e⟩_S ≥ µ₂·⟨e, e⟩_S for every e with ⟨e, s⟩_S = Σe_i = 0,
        // where ⟨x, y⟩_S = Σ x_i·y_i/s_i (Definition 1.11).
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = g.node_count();
        let speeds: Vec<f64> = (0..n).map(|_| rng.gen_range(1.0..4.0)).collect();
        let raw: Vec<f64> = (0..n).map(|_| rng.gen_range(-10.0..10.0)).collect();
        let shift = raw.iter().sum::<f64>() / speeds.iter().sum::<f64>();
        let e: Vec<f64> = raw.iter().zip(&speeds).map(|(x, s)| x - shift * s).collect();
        let scaled: Vec<f64> = e.iter().zip(&speeds).map(|(x, s)| x / s).collect();
        let lhs: f64 = scaled.iter().zip(laplacian::apply(&g, &scaled)).map(|(a, b)| a * b).sum();
        let ee: f64 = e.iter().zip(&scaled).map(|(a, b)| a * b).sum();
        let rhs = lanczos::mu2(&g, &speeds).unwrap() * ee;
        prop_assert!(lhs >= rhs - 1e-6 * (1.0 + rhs.abs()), "⟨e,LS⁻¹e⟩_S {lhs} < µ₂⟨e,e⟩_S {rhs}");
    }

    #[test]
    fn closed_forms_match_numerics_for_sized_families(
        n in 3usize..16,
        d in 1u32..5,
    ) {
        let pairs: Vec<(f64, Graph)> = vec![
            (closed_form::lambda2_complete(n), generators::complete(n)),
            (closed_form::lambda2_ring(n), generators::ring(n)),
            (closed_form::lambda2_path(n), generators::path(n)),
            (closed_form::lambda2_star(n), generators::star(n)),
            (closed_form::lambda2_hypercube(d), generators::hypercube(d)),
        ];
        for (closed, g) in pairs {
            let numeric = laplacian::lambda2(&g).unwrap();
            prop_assert!((closed - numeric).abs() < 1e-7, "{closed} vs {numeric}");
        }
    }
}
