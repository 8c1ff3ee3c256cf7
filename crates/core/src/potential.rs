//! The potential functions driving the paper's convergence analysis.
//!
//! * `Φ_r(x) = Σ_i W_i(x)·(W_i(x) + r)/s_i` for `r = 0, 1` (Definition 3.2),
//! * `Ψ₀(x) = Φ₀(x) − W²/S = Σ_i e_i²/s_i = ⟨e, e⟩_S` (Definition 3.3,
//!   Lemma 3.6(2)),
//! * `Ψ₁(x) = Σ_i (e_i + ½)²/s_i − n/(4·s̄_a)` (Definition 3.19 via
//!   Observation 3.20(1)); non-negative by Observation 3.20(2),
//! * `L_Δ(x) = max_i |e_i/s_i|`, the maximum load deviation
//!   (Definition 3.4), sandwiched by `L_Δ² ≤ Ψ₀ ≤ S·L_Δ²`
//!   (Observation 3.16).
//!
//! All functions have two entry points: a raw-array form (used by the
//! count engine, which has no [`TaskState`]) and a convenience
//! wrapper over `(System, TaskState)`.

use crate::model::{SpeedVector, System, TaskState};

/// `Φ_r(x) = Σ_i W_i·(W_i + r)/s_i` from raw node weights.
///
/// # Panics
///
/// Panics if `node_weights.len() != speeds.len()`.
pub fn phi_r(node_weights: &[f64], speeds: &SpeedVector, r: f64) -> f64 {
    assert_eq!(
        node_weights.len(),
        speeds.len(),
        "weights/speeds length mismatch"
    );
    node_weights
        .iter()
        .zip(speeds.as_slice())
        .map(|(w, s)| w * (w + r) / s)
        .sum()
}

/// `Φ₀(x)` from raw node weights.
pub fn phi0(node_weights: &[f64], speeds: &SpeedVector) -> f64 {
    phi_r(node_weights, speeds, 0.0)
}

/// `Φ₁(x)` from raw node weights.
pub fn phi1(node_weights: &[f64], speeds: &SpeedVector) -> f64 {
    phi_r(node_weights, speeds, 1.0)
}

/// `Ψ₀(x) = Σ_i e_i²/s_i` computed directly from deviations (numerically
/// preferable to `Φ₀ − W²/S`, which cancels catastrophically near balance).
///
/// # Panics
///
/// Panics if lengths mismatch.
pub fn psi0(node_weights: &[f64], speeds: &SpeedVector, total_weight: f64) -> f64 {
    assert_eq!(
        node_weights.len(),
        speeds.len(),
        "weights/speeds length mismatch"
    );
    let per_capacity = total_weight / speeds.total();
    node_weights
        .iter()
        .zip(speeds.as_slice())
        .map(|(w, s)| {
            let e = w - per_capacity * s;
            e * e / s
        })
        .sum()
}

/// `Ψ₁(x) = Σ_i (e_i + ½)²/s_i − n/(4·s̄_a)` (Observation 3.20(1)).
///
/// # Panics
///
/// Panics if lengths mismatch.
pub fn psi1(node_weights: &[f64], speeds: &SpeedVector, total_weight: f64) -> f64 {
    assert_eq!(
        node_weights.len(),
        speeds.len(),
        "weights/speeds length mismatch"
    );
    let per_capacity = total_weight / speeds.total();
    let sum: f64 = node_weights
        .iter()
        .zip(speeds.as_slice())
        .map(|(w, s)| {
            let e = w - per_capacity * s + 0.5;
            e * e / s
        })
        .sum();
    sum - speeds.len() as f64 / (4.0 * speeds.arithmetic_mean())
}

/// `L_Δ(x) = max_i |W_i/s_i − W/S|` (Definition 3.4).
///
/// # Panics
///
/// Panics if lengths mismatch.
pub fn max_load_deviation(node_weights: &[f64], speeds: &SpeedVector, total_weight: f64) -> f64 {
    assert_eq!(
        node_weights.len(),
        speeds.len(),
        "weights/speeds length mismatch"
    );
    let avg = total_weight / speeds.total();
    node_weights
        .iter()
        .zip(speeds.as_slice())
        .map(|(w, s)| (w / s - avg).abs())
        .fold(0.0, f64::max)
}

/// A snapshot of every potential at one state, as recorded by the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PotentialReport {
    /// `Φ₀(x)`.
    pub phi0: f64,
    /// `Φ₁(x)`.
    pub phi1: f64,
    /// `Ψ₀(x)`.
    pub psi0: f64,
    /// `Ψ₁(x)`.
    pub psi1: f64,
    /// `L_Δ(x)`.
    pub max_load_deviation: f64,
}

/// Evaluates every potential on a `(System, TaskState)` pair.
pub fn report(system: &System, state: &TaskState) -> PotentialReport {
    report_from_weights(
        state.node_weights(),
        system.speeds(),
        system.tasks().total_weight(),
    )
}

/// Evaluates every potential from raw node weights.
pub fn report_from_weights(
    node_weights: &[f64],
    speeds: &SpeedVector,
    total_weight: f64,
) -> PotentialReport {
    PotentialReport {
        phi0: phi0(node_weights, speeds),
        phi1: phi1(node_weights, speeds),
        psi0: psi0(node_weights, speeds, total_weight),
        psi1: psi1(node_weights, speeds, total_weight),
        max_load_deviation: max_load_deviation(node_weights, speeds, total_weight),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{TaskSet, TaskState};
    use slb_graphs::generators;
    use slb_graphs::NodeId;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    fn system(speeds: Vec<f64>, m: usize) -> System {
        System::new(
            generators::complete(speeds.len()),
            SpeedVector::new(speeds).unwrap(),
            TaskSet::uniform(m),
        )
        .unwrap()
    }

    #[test]
    fn phi_definitions() {
        let speeds = SpeedVector::new(vec![1.0, 2.0]).unwrap();
        let w = [3.0, 4.0];
        assert_close(phi0(&w, &speeds), 9.0 + 16.0 / 2.0, 1e-12);
        assert_close(phi1(&w, &speeds), 12.0 + 20.0 / 2.0, 1e-12);
        assert_close(phi_r(&w, &speeds, 1.0), phi1(&w, &speeds), 1e-12);
    }

    #[test]
    fn psi0_equals_phi0_minus_constant() {
        // Definition 3.3: Ψ₀ = Φ₀ − W²/S.
        let speeds = SpeedVector::new(vec![1.0, 2.0, 1.0]).unwrap();
        let w = [5.0, 2.0, 1.0];
        let total = 8.0;
        let lhs = psi0(&w, &speeds, total);
        let rhs = phi0(&w, &speeds) - total * total / speeds.total();
        assert_close(lhs, rhs, 1e-9);
    }

    #[test]
    fn psi0_is_zero_at_balance_and_positive_otherwise() {
        let speeds = SpeedVector::new(vec![1.0, 3.0]).unwrap();
        // Balanced: W_i = (W/S)·s_i with W = 8: (2, 6).
        assert_close(psi0(&[2.0, 6.0], &speeds, 8.0), 0.0, 1e-12);
        assert!(psi0(&[3.0, 5.0], &speeds, 8.0) > 0.0);
        assert!(psi0(&[8.0, 0.0], &speeds, 8.0) > 0.0);
    }

    #[test]
    fn psi0_worst_case_bound() {
        // Ψ₀(X₀) ≤ m² (used in Lemma 3.15): all tasks on the slowest node.
        let sys = system(vec![1.0, 1.0, 1.0, 1.0], 100);
        let st = TaskState::all_on_node(&sys, NodeId(0));
        let p = report(&sys, &st);
        assert!(p.psi0 <= 100.0 * 100.0 + 1e-9);
        assert!(p.psi0 > 0.0);
    }

    #[test]
    fn psi1_matches_definition_3_19() {
        // Ψ₁ = Φ₁ − W²/S − W·n/S + n/4·(1/s̄_h − 1/s̄_a).
        let speeds = SpeedVector::new(vec![1.0, 2.0, 4.0]).unwrap();
        let w = [4.0, 1.0, 2.0];
        let total = 7.0;
        let n = 3.0;
        let s = speeds.total();
        let via_obs = psi1(&w, &speeds, total);
        let via_def = phi1(&w, &speeds) - total * total / s - total * n / s
            + n / 4.0 * (1.0 / speeds.harmonic_mean() - 1.0 / speeds.arithmetic_mean());
        assert_close(via_obs, via_def, 1e-9);
    }

    #[test]
    fn psi1_relation_observation_3_20_3() {
        // Ψ₁ = Ψ₀ + Σ e_i/s_i + n/4·(1/s̄_h − 1/s̄_a).
        let speeds = SpeedVector::new(vec![2.0, 1.0, 1.0, 4.0]).unwrap();
        let w = [3.0, 0.0, 5.0, 2.0];
        let total = 10.0;
        let per_cap = total / speeds.total();
        let e: Vec<f64> = w
            .iter()
            .zip(speeds.as_slice())
            .map(|(wi, si)| wi - per_cap * si)
            .collect();
        let correction: f64 = e
            .iter()
            .zip(speeds.as_slice())
            .map(|(ei, si)| ei / si)
            .sum();
        let lhs = psi1(&w, &speeds, total);
        let rhs = psi0(&w, &speeds, total)
            + correction
            + 4.0 / 4.0 * (1.0 / speeds.harmonic_mean() - 1.0 / speeds.arithmetic_mean());
        assert_close(lhs, rhs, 1e-9);
    }

    #[test]
    fn psi1_nonnegative_on_integer_states() {
        // Observation 3.20(2): Ψ₁ ≥ 0 (deviations summing to zero).
        let speeds = SpeedVector::new(vec![1.0, 1.0, 2.0]).unwrap();
        for w in [
            [4.0, 0.0, 0.0],
            [0.0, 0.0, 4.0],
            [1.0, 1.0, 2.0],
            [2.0, 1.0, 1.0],
        ] {
            let v = psi1(&w, &speeds, 4.0);
            assert!(v >= -1e-9, "Ψ₁ = {v} < 0 for {w:?}");
        }
    }

    #[test]
    fn observation_3_16_sandwich() {
        // L_Δ² ≤ Ψ₀ ≤ S·L_Δ².
        let speeds = SpeedVector::new(vec![1.0, 2.0, 1.0, 3.0]).unwrap();
        let w = [6.0, 1.0, 0.0, 0.0];
        let total = 7.0;
        let ld = max_load_deviation(&w, &speeds, total);
        let p0 = psi0(&w, &speeds, total);
        assert!(ld * ld <= p0 + 1e-9);
        assert!(p0 <= speeds.total() * ld * ld + 1e-9);
    }

    #[test]
    fn report_consistency() {
        let sys = system(vec![1.0, 2.0, 1.0], 9);
        let st = TaskState::from_assignment(&sys, &[0, 0, 0, 0, 1, 1, 2, 2, 2]).unwrap();
        let r = report(&sys, &st);
        assert_close(r.phi0, phi0(st.node_weights(), sys.speeds()), 1e-12);
        assert_close(r.psi0, psi0(st.node_weights(), sys.speeds(), 9.0), 1e-12);
        assert_close(
            r.max_load_deviation,
            max_load_deviation(st.node_weights(), sys.speeds(), 9.0),
            1e-12,
        );
        assert!(r.phi1 > r.phi0);
        assert!(r.psi1 >= -1e-9);
    }

    #[test]
    fn potential_drop_invariant_under_shift() {
        // Lemma 3.6(1): ΔΨ₀ = ΔΦ₀ — both differ by the same constant at
        // fixed (W, S).
        let speeds = SpeedVector::new(vec![1.0, 2.0]).unwrap();
        let before = [5.0, 1.0];
        let after = [4.0, 2.0];
        let total = 6.0;
        let d_phi = phi0(&before, &speeds) - phi0(&after, &speeds);
        let d_psi = psi0(&before, &speeds, total) - psi0(&after, &speeds, total);
        assert_close(d_phi, d_psi, 1e-9);
        // Same for Φ₁/Ψ₁ (Observation 3.20(4)).
        let d_phi1 = phi1(&before, &speeds) - phi1(&after, &speeds);
        let d_psi1 = psi1(&before, &speeds, total) - psi1(&after, &speeds, total);
        assert_close(d_phi1, d_psi1, 1e-9);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let speeds = SpeedVector::uniform(2);
        let _ = phi0(&[1.0], &speeds);
    }
}
