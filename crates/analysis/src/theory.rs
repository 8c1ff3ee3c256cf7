//! The paper's bounds, evaluated numerically.
//!
//! This module turns Theorems 1.1–1.3 (and the Table 1 comparison against
//! the bounds of \[6\]) into functions of the instance parameters
//! `(n, m, Δ, λ₂, s_min, s_max, S, ε)`, so experiments can print *measured
//! vs. predicted* side by side.
//!
//! Conventions:
//!
//! * `ψ_c` uses the Theorem 1.1 constant `16·n·Δ·s_max/λ₂`; the
//!   Definition 3.12 variant (`8·…`) is exposed separately, because the
//!   paper states the two constants inconsistently.
//! * Explicit constants are used where the paper derives them
//!   (`γ = 32·Δ·s_max²/λ₂` from Lemma 3.11, `T = 2γ·ln(m/n)` from Lemma
//!   3.15, `607` from the proof of Theorem 1.2); the \[6\] bounds of Table 1
//!   are asymptotic shapes, reported without constants.

use slb_graphs::generators::Family;

/// Instance parameters every bound is evaluated against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Instance {
    /// Number of processors `n`.
    pub n: usize,
    /// Total work: task count `m` for uniform tasks, total weight `W` for
    /// weighted ones.
    pub total_work: f64,
    /// Maximum degree `Δ`.
    pub max_degree: usize,
    /// Algebraic connectivity `λ₂` of the network Laplacian.
    pub lambda2: f64,
    /// Smallest speed `s_min` (1 after the paper's normalization).
    pub s_min: f64,
    /// Largest speed `s_max`.
    pub s_max: f64,
    /// Total capacity `S = Σ s_i`.
    pub s_total: f64,
    /// Speed granularity `ε` (`None` when speeds are not on a grid).
    pub granularity: Option<f64>,
}

impl Instance {
    /// Instance with uniform speeds (all 1) for a graph described by
    /// `(n, Δ, λ₂)` and `m` tasks.
    pub fn uniform_speeds(n: usize, m: usize, max_degree: usize, lambda2: f64) -> Self {
        Instance {
            n,
            total_work: m as f64,
            max_degree,
            lambda2,
            s_min: 1.0,
            s_max: 1.0,
            s_total: n as f64,
            granularity: Some(1.0),
        }
    }
}

/// `γ = 32·Δ·s_max²/λ₂` (Lemma 3.11: the multiplicative-drop time scale).
pub fn gamma(inst: &Instance) -> f64 {
    32.0 * inst.max_degree as f64 * inst.s_max * inst.s_max / inst.lambda2
}

/// `ψ_c = 16·n·Δ·s_max/λ₂` (Theorem 1.1 form).
pub fn psi_c(inst: &Instance) -> f64 {
    16.0 * inst.n as f64 * inst.max_degree as f64 * inst.s_max / inst.lambda2
}

/// `ψ_c = 8·n·Δ·s_max/λ₂` (the Definition 3.12 variant).
pub fn psi_c_def312(inst: &Instance) -> f64 {
    8.0 * inst.n as f64 * inst.max_degree as f64 * inst.s_max / inst.lambda2
}

/// The weighted-case `ψ_c = 16·n·Δ·s_max/(λ₂·s_min²)` (Theorem 1.3).
pub fn psi_c_weighted(inst: &Instance) -> f64 {
    16.0 * inst.n as f64 * inst.max_degree as f64 * inst.s_max
        / (inst.lambda2 * inst.s_min * inst.s_min)
}

/// `T = 2γ·ln(m/n)` (Lemma 3.15): rounds after which
/// `Pr[Ψ₀ ≤ 4ψ_c] ≥ 3/4`, clamped below at 1.
pub fn t_block(inst: &Instance) -> f64 {
    let ratio = (inst.total_work / inst.n as f64).max(std::f64::consts::E);
    (2.0 * gamma(inst) * ratio.ln()).max(1.0)
}

/// Theorem 1.1: expected rounds to reach `Ψ₀ ≤ 4ψ_c` is at most `2·T`.
pub fn thm11_expected_rounds(inst: &Instance) -> f64 {
    2.0 * t_block(inst)
}

/// Theorem 1.1's `δ` for a given `m`: `δ = m/(8·s_max·S·n²)`. The reached
/// state is a `2/(1+δ)`-approximate NE when `δ > 1`.
pub fn delta_of_instance(inst: &Instance) -> f64 {
    inst.total_work / (8.0 * inst.s_max * inst.s_total * (inst.n * inst.n) as f64)
}

/// `ε = 2/(1 + δ)` (Theorems 1.1/1.3).
pub fn eps_of_delta(delta: f64) -> f64 {
    2.0 / (1.0 + delta)
}

/// The task threshold `m ≥ 8·δ·s_max·S·n²` of Theorem 1.1 for a target
/// `δ`.
pub fn m_threshold(inst: &Instance, delta: f64) -> f64 {
    8.0 * delta * inst.s_max * inst.s_total * (inst.n * inst.n) as f64
}

/// Theorem 1.2: expected rounds to an exact NE,
/// `607·Δ²·s_max⁴/ε²·n/λ₂` (the explicit constant from the proof).
///
/// Returns `None` when the instance declares no granularity (the theorem
/// does not apply; convergence can be arbitrarily slow).
pub fn thm12_expected_rounds(inst: &Instance) -> Option<f64> {
    let eps = inst.granularity?;
    let d = inst.max_degree as f64;
    Some(607.0 * d * d * inst.s_max.powi(4) / (eps * eps) * inst.n as f64 / inst.lambda2)
}

/// Theorem 1.3 (weighted tasks): rounds to `Ψ₀ ≤ 4ψ_c^w`, in the paper's
/// asymptotic form `ln(W/n)·Δ/λ₂·s_max²/s_min` with the Lemma 3.15
/// constants carried over (`2·2γ/s_min`).
pub fn thm13_expected_rounds(inst: &Instance) -> f64 {
    2.0 * t_block(inst) / inst.s_min
}

/// Theorem 1.3's weight threshold `W > 8·δ·(s_max/s_min)·S·n²`.
pub fn w_threshold_weighted(inst: &Instance, delta: f64) -> f64 {
    8.0 * delta * (inst.s_max / inst.s_min) * inst.s_total * (inst.n * inst.n) as f64
}

/// Which bound column of Table 1 to evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table1Column {
    /// ε-approximate Nash equilibrium.
    ApproximateNash,
    /// Exact Nash equilibrium.
    ExactNash,
}

/// This paper's Table 1 asymptotic bound (no constant factors), for the
/// four graph-family rows. Speeds are omitted exactly as in the table.
///
/// Returns `None` for families not in the table.
pub fn table1_this_paper(family: Family, n: usize, m: usize, column: Table1Column) -> Option<f64> {
    let nf = n as f64;
    let log_ratio = ((m as f64 / nf).max(std::f64::consts::E)).ln();
    let ln_n = nf.max(std::f64::consts::E).ln();
    Some(match (family, column) {
        (Family::Complete { .. }, Table1Column::ApproximateNash) => log_ratio,
        (Family::Complete { .. }, Table1Column::ExactNash) => nf * nf,
        (Family::Ring { .. } | Family::Path { .. }, Table1Column::ApproximateNash) => {
            nf * nf * log_ratio
        }
        (Family::Ring { .. } | Family::Path { .. }, Table1Column::ExactNash) => nf * nf * nf,
        (Family::Mesh { .. } | Family::Torus { .. }, Table1Column::ApproximateNash) => {
            nf * log_ratio
        }
        (Family::Mesh { .. } | Family::Torus { .. }, Table1Column::ExactNash) => nf * nf,
        (Family::Hypercube { .. }, Table1Column::ApproximateNash) => ln_n * log_ratio,
        (Family::Hypercube { .. }, Table1Column::ExactNash) => nf * ln_n * ln_n,
        (Family::Star { .. }, _) => return None,
    })
}

/// The \[6\] bound from Table 1 (with the paper's `S → n` substitution).
///
/// Returns `None` for families not in the table.
pub fn table1_bhs(family: Family, n: usize, m: usize, column: Table1Column) -> Option<f64> {
    let nf = n as f64;
    let ln_m = (m as f64).max(std::f64::consts::E).ln();
    let ln_n = nf.max(std::f64::consts::E).ln();
    Some(match (family, column) {
        (Family::Complete { .. }, Table1Column::ApproximateNash) => nf * nf * ln_m,
        (Family::Complete { .. }, Table1Column::ExactNash) => nf.powi(6),
        (Family::Ring { .. } | Family::Path { .. }, Table1Column::ApproximateNash) => {
            nf.powi(3) * ln_m
        }
        (Family::Ring { .. } | Family::Path { .. }, Table1Column::ExactNash) => nf.powi(5),
        (Family::Mesh { .. } | Family::Torus { .. }, Table1Column::ApproximateNash) => {
            nf * nf * ln_m
        }
        (Family::Mesh { .. } | Family::Torus { .. }, Table1Column::ExactNash) => nf.powi(4),
        (Family::Hypercube { .. }, Table1Column::ApproximateNash) => nf * ln_n.powi(3) * ln_m,
        (Family::Hypercube { .. }, Table1Column::ExactNash) => nf.powi(3) * ln_n.powi(5),
        (Family::Star { .. }, _) => return None,
    })
}

/// The asymptotic scaling exponent in `n` that this paper's Table 1 row
/// predicts for the fitted `T ∝ n^k` (ignoring the `ln` factors); used to
/// annotate the empirical exponent fits.
pub fn table1_exponent_this_paper(family: Family, column: Table1Column) -> Option<f64> {
    Some(match (family, column) {
        (Family::Complete { .. }, Table1Column::ApproximateNash) => 0.0,
        (Family::Complete { .. }, Table1Column::ExactNash) => 2.0,
        (Family::Ring { .. } | Family::Path { .. }, Table1Column::ApproximateNash) => 2.0,
        (Family::Ring { .. } | Family::Path { .. }, Table1Column::ExactNash) => 3.0,
        (Family::Mesh { .. } | Family::Torus { .. }, Table1Column::ApproximateNash) => 1.0,
        (Family::Mesh { .. } | Family::Torus { .. }, Table1Column::ExactNash) => 2.0,
        (Family::Hypercube { .. }, Table1Column::ApproximateNash) => 0.0,
        (Family::Hypercube { .. }, Table1Column::ExactNash) => 1.0,
        (Family::Star { .. }, _) => return None,
    })
}

/// The asymptotic scaling exponent in `n` of the \[6\] bound row of
/// Table 1 (ignoring the `ln` factors) — the prediction the `bhs`
/// baseline protocol's empirical exponents are annotated with, as
/// [`table1_exponent_this_paper`] annotates this paper's protocols.
pub fn table1_exponent_bhs(family: Family, column: Table1Column) -> Option<f64> {
    Some(match (family, column) {
        (Family::Complete { .. }, Table1Column::ApproximateNash) => 2.0,
        (Family::Complete { .. }, Table1Column::ExactNash) => 6.0,
        (Family::Ring { .. } | Family::Path { .. }, Table1Column::ApproximateNash) => 3.0,
        (Family::Ring { .. } | Family::Path { .. }, Table1Column::ExactNash) => 5.0,
        (Family::Mesh { .. } | Family::Torus { .. }, Table1Column::ApproximateNash) => 2.0,
        (Family::Mesh { .. } | Family::Torus { .. }, Table1Column::ExactNash) => 4.0,
        (Family::Hypercube { .. }, Table1Column::ApproximateNash) => 1.0,
        (Family::Hypercube { .. }, Table1Column::ExactNash) => 3.0,
        (Family::Star { .. }, _) => return None,
    })
}

/// Observation 3.28: the \[6\] exact-NE bound exceeds this paper's by at
/// least `Ω(Δ·diam(G))`; returns that factor for reporting.
pub fn observation_3_28_factor(max_degree: usize, diameter: usize) -> f64 {
    (max_degree * diameter) as f64
}

/// Lemma 3.10: a lower bound on the expected one-round drop of `Ψ₀` from a
/// state with potential `psi0`:
/// `E[ΔΨ₀] ≥ λ₂/(16Δ)·Ψ₀/s_max² − n/(4·s_max)`.
///
/// Can be negative near balance — the reason the analysis switches to `Ψ₁`
/// for exact convergence (§3.2).
pub fn lemma_3_10_drop_bound(inst: &Instance, psi0: f64) -> f64 {
    inst.lambda2 / (16.0 * inst.max_degree as f64) * psi0 / (inst.s_max * inst.s_max)
        - inst.n as f64 / (4.0 * inst.s_max)
}

/// Lemma 3.22: the constant expected drop of `Ψ₁` outside Nash equilibria
/// with speed granularity `ε`: `E[ΔΨ₁] ≥ ε²/(8·Δ·s_max³)`.
///
/// Returns `None` when no granularity is declared.
pub fn lemma_3_22_drop_bound(inst: &Instance) -> Option<f64> {
    let eps = inst.granularity?;
    Some(eps * eps / (8.0 * inst.max_degree as f64 * inst.s_max.powi(3)))
}

/// Lemma 3.23: `Ψ₁ ≤ Ψ₀ + √(Ψ₀·n/s̄_h) + n/4·(1/s̄_h − 1/s̄_a)`,
/// given the two speed means.
pub fn lemma_3_23_psi1_upper(psi0: f64, n: usize, harmonic_mean: f64, arithmetic_mean: f64) -> f64 {
    psi0 + (psi0 * n as f64 / harmonic_mean).sqrt()
        + n as f64 / 4.0 * (1.0 / harmonic_mean - 1.0 / arithmetic_mean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    fn ring_instance(n: usize, m: usize) -> Instance {
        let lambda2 = slb_spectral::closed_form::lambda2_ring(n);
        Instance::uniform_speeds(n, m, 2, lambda2)
    }

    #[test]
    fn gamma_and_psi_c_forms() {
        let inst = Instance {
            n: 10,
            total_work: 1000.0,
            max_degree: 4,
            lambda2: 0.5,
            s_min: 1.0,
            s_max: 2.0,
            s_total: 15.0,
            granularity: Some(1.0),
        };
        assert_close(gamma(&inst), 32.0 * 4.0 * 4.0 / 0.5, 1e-9);
        assert_close(psi_c(&inst), 16.0 * 10.0 * 4.0 * 2.0 / 0.5, 1e-9);
        assert_close(psi_c_def312(&inst), psi_c(&inst) / 2.0, 1e-9);
        assert_close(psi_c_weighted(&inst), psi_c(&inst), 1e-9); // s_min = 1
        assert_close(thm11_expected_rounds(&inst), 2.0 * t_block(&inst), 1e-9);
    }

    #[test]
    fn t_block_scales_with_log_ratio() {
        let a = ring_instance(16, 16 * 8);
        let b = ring_instance(16, 16 * 64);
        assert!(t_block(&b) > t_block(&a));
        // Same m/n, same γ → same T.
        let c = ring_instance(16, 16 * 8);
        assert_close(t_block(&a), t_block(&c), 1e-9);
    }

    #[test]
    fn delta_eps_roundtrip() {
        let inst = ring_instance(8, 8 * 8 * 8 * 64);
        let d = delta_of_instance(&inst);
        assert_close(
            m_threshold(&inst, d),
            inst.total_work,
            1e-6 * inst.total_work,
        );
        assert_close(eps_of_delta(1.0), 1.0, 1e-12);
        assert_close(eps_of_delta(3.0), 0.5, 1e-12);
    }

    #[test]
    fn thm12_requires_granularity() {
        let mut inst = ring_instance(8, 64);
        assert!(thm12_expected_rounds(&inst).is_some());
        inst.granularity = None;
        assert!(thm12_expected_rounds(&inst).is_none());
    }

    #[test]
    fn thm12_explicit_constant() {
        let inst = ring_instance(8, 64);
        let expected = 607.0 * 4.0 * 1.0 * 8.0 / inst.lambda2;
        assert_close(thm12_expected_rounds(&inst).unwrap(), expected, 1e-6);
    }

    #[test]
    fn thm12_grows_with_smax_fourth_power() {
        let mut a = ring_instance(8, 64);
        a.s_max = 1.0;
        let mut b = a;
        b.s_max = 2.0;
        let ta = thm12_expected_rounds(&a).unwrap();
        let tb = thm12_expected_rounds(&b).unwrap();
        assert_close(tb / ta, 16.0, 1e-9);
    }

    #[test]
    fn table1_shapes_ordering() {
        // For every family and both columns, the [6] bound dominates ours
        // (that is the paper's claim) once n is nontrivial.
        let m = 64 * 64;
        for family in [
            Family::Complete { n: 64 },
            Family::Ring { n: 64 },
            Family::Path { n: 64 },
            Family::Mesh { rows: 8, cols: 8 },
            Family::Torus { rows: 8, cols: 8 },
            Family::Hypercube { d: 6 },
        ] {
            let n = family.node_count();
            for col in [Table1Column::ApproximateNash, Table1Column::ExactNash] {
                let ours = table1_this_paper(family, n, m, col).unwrap();
                let bhs = table1_bhs(family, n, m, col).unwrap();
                assert!(
                    bhs > ours,
                    "{family}: [6] bound {bhs} should dominate ours {ours} ({col:?})"
                );
            }
        }
    }

    #[test]
    fn table1_star_not_in_table() {
        assert!(table1_this_paper(Family::Star { n: 8 }, 8, 64, Table1Column::ExactNash).is_none());
        assert!(table1_bhs(Family::Star { n: 8 }, 8, 64, Table1Column::ExactNash).is_none());
        assert!(
            table1_exponent_this_paper(Family::Star { n: 8 }, Table1Column::ExactNash).is_none()
        );
    }

    #[test]
    fn exponents_match_bound_shapes() {
        // Evaluate the bound at two sizes and check the log-log slope
        // matches the declared exponent (log factors perturb it slightly).
        for family_at in [
            |n: usize| Family::Ring { n },
            |n: usize| Family::Complete { n },
        ] {
            for col in [Table1Column::ApproximateNash, Table1Column::ExactNash] {
                let n1 = 64;
                let n2 = 128;
                let m_ratio = 64;
                let b1 = table1_this_paper(family_at(n1), n1, n1 * m_ratio, col).unwrap();
                let b2 = table1_this_paper(family_at(n2), n2, n2 * m_ratio, col).unwrap();
                let slope = (b2 / b1).ln() / 2.0f64.ln();
                let declared = table1_exponent_this_paper(family_at(n1), col).unwrap();
                assert!(
                    (slope - declared).abs() < 0.15,
                    "{:?} {col:?}: slope {slope} vs declared {declared}",
                    family_at(n1)
                );
            }
        }
    }

    #[test]
    fn bhs_exponents_match_bhs_bound_shapes_and_dominate_ours() {
        // Polynomial-dominated families: the log-log slope of the bound
        // itself approximates the declared exponent (log factors perturb
        // it slightly; the hypercube's ln³n factor dominates at testable
        // sizes, so it is covered by the dominance check only).
        for family in [
            Family::Complete { n: 64 },
            Family::Ring { n: 64 },
            Family::Mesh { rows: 8, cols: 8 },
        ] {
            let n1 = family.node_count();
            for col in [Table1Column::ApproximateNash, Table1Column::ExactNash] {
                let declared = table1_exponent_bhs(family, col).unwrap();
                let grown = match family {
                    Family::Complete { n } => Family::Complete { n: 2 * n },
                    Family::Ring { n } => Family::Ring { n: 2 * n },
                    Family::Mesh { rows, cols } => Family::Mesh {
                        rows: 2 * rows,
                        cols,
                    },
                    _ => unreachable!(),
                };
                let n2 = grown.node_count();
                let b1 = table1_bhs(family, n1, n1 * 64, col).unwrap();
                let b2 = table1_bhs(grown, n2, n2 * 64, col).unwrap();
                let slope = (b2 / b1).ln() / 2.0f64.ln();
                assert!(
                    (slope - declared).abs() < 0.45,
                    "{family:?} {col:?}: slope {slope} vs declared {declared}"
                );
            }
        }
        // The baseline's exponent always dominates this paper's, for
        // every family in the table.
        for family in [
            Family::Complete { n: 64 },
            Family::Ring { n: 64 },
            Family::Path { n: 64 },
            Family::Mesh { rows: 8, cols: 8 },
            Family::Torus { rows: 8, cols: 8 },
            Family::Hypercube { d: 6 },
        ] {
            for col in [Table1Column::ApproximateNash, Table1Column::ExactNash] {
                let bhs = table1_exponent_bhs(family, col).unwrap();
                let ours = table1_exponent_this_paper(family, col).unwrap();
                assert!(bhs > ours, "{family:?} {col:?}");
            }
        }
        assert!(table1_exponent_bhs(Family::Star { n: 8 }, Table1Column::ExactNash).is_none());
    }

    #[test]
    fn observation_factor() {
        assert_close(observation_3_28_factor(4, 10), 40.0, 1e-12);
    }

    #[test]
    fn lemma_3_10_bound_signs() {
        let inst = ring_instance(8, 512);
        // Far from balance: positive guaranteed drop.
        let big = lemma_3_10_drop_bound(&inst, 1e9);
        assert!(big > 0.0);
        // At balance: the additive term dominates (negative bound).
        let small = lemma_3_10_drop_bound(&inst, 0.0);
        assert_close(small, -2.0, 1e-12); // −n/(4·s_max) = −8/4
                                          // Linear in Ψ₀.
        let a = lemma_3_10_drop_bound(&inst, 100.0);
        let b = lemma_3_10_drop_bound(&inst, 200.0);
        let c = lemma_3_10_drop_bound(&inst, 300.0);
        assert_close(c - b, b - a, 1e-9);
    }

    #[test]
    fn lemma_3_22_bound() {
        let mut inst = ring_instance(8, 64);
        // ε = 1, Δ = 2, s_max = 1: 1/(8·2·1) = 1/16.
        assert_close(lemma_3_22_drop_bound(&inst).unwrap(), 1.0 / 16.0, 1e-12);
        inst.granularity = Some(0.5);
        assert_close(lemma_3_22_drop_bound(&inst).unwrap(), 0.25 / 16.0, 1e-12);
        inst.granularity = None;
        assert!(lemma_3_22_drop_bound(&inst).is_none());
    }

    #[test]
    fn lemma_3_23_upper_bound_holds_numerically() {
        // Compare against actual Ψ₀/Ψ₁ from the potential module on a
        // concrete state.
        use slb_core::model::{SpeedVector, System, TaskSet, TaskState};
        use slb_graphs::{generators, NodeId};
        let speeds = SpeedVector::new(vec![1.0, 2.0, 4.0, 1.0]).unwrap();
        let (h, a) = (speeds.harmonic_mean(), speeds.arithmetic_mean());
        let system = System::new(generators::ring(4), speeds, TaskSet::uniform(12)).unwrap();
        let state = TaskState::all_on_node(&system, NodeId(0));
        let rep = slb_core::potential::report(&system, &state);
        let upper = lemma_3_23_psi1_upper(rep.psi0, 4, h, a);
        assert!(
            rep.psi1 <= upper + 1e-9,
            "Ψ₁ {} exceeds Lemma 3.23 bound {upper}",
            rep.psi1
        );
    }

    #[test]
    fn weighted_threshold_scales_with_speed_ratio() {
        let mut inst = ring_instance(8, 64);
        inst.s_max = 4.0;
        inst.s_min = 2.0;
        let w = w_threshold_weighted(&inst, 1.0);
        assert_close(w, 8.0 * (4.0 / 2.0) * inst.s_total * 64.0, 1e-9);
    }
}
