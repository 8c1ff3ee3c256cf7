//! Shared protocol arithmetic: `α`, migration probabilities, and expected
//! flows.
//!
//! Algorithm 1 (p. 5) migrates a task from `i` to a randomly chosen
//! neighbor `j` with probability
//!
//! ```text
//! p_ij = deg(i)/d_ij · (ℓ_i − ℓ_j) / (α · (1/s_i + 1/s_j) · W_i)
//! ```
//!
//! whenever `ℓ_i − ℓ_j > 1/s_j`, with `α = 4·s_max` (§3) — raised to
//! `4·s_max/ε` for the exact-convergence phase when the speed granularity
//! is `ε < 1` (§3.2). Combined with the uniform neighbor choice
//! (probability `1/deg(i)` each), the expected weight crossing edge
//! `(i, j)` is exactly the flow of Definition 3.1/4.1:
//!
//! ```text
//! f_ij = (ℓ_i − ℓ_j) / (α · d_ij · (1/s_i + 1/s_j))
//! ```
//!
//! `p_ij ≤ 1/4` always: `ℓ_i − ℓ_j ≤ ℓ_i = W_i/s_i ≤ W_i·(1/s_i + 1/s_j)`,
//! `deg(i) ≤ d_ij`, and `α ≥ 4` — asserted in debug builds.

use crate::model::{SpeedVector, System};

/// The damping constant `α`.
///
/// The paper fixes `α = 4·s_max` for the approximate phase and
/// `α = 4·s_max/ε` for convergence to an exact NE with speed granularity
/// `ε` (§3.2). `Custom` exists for ablation experiments on the damping
/// (larger `α` slows convergence, smaller risks oscillation).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Alpha {
    /// `α = 4·s_max` (default of Algorithm 1/2).
    #[default]
    Approximate,
    /// `α = 4·s_max/ε`; requires the speed vector to carry a granularity.
    Exact,
    /// An explicit value (must be ≥ `4·s_max` to keep `p_ij ≤ 1/4`).
    Custom(f64),
}

impl Alpha {
    /// Resolves the numeric value of `α` for a system.
    ///
    /// # Panics
    ///
    /// Panics if `Exact` is requested but the speed vector has no declared
    /// granularity, or if a `Custom` value is below `4·s_max`.
    pub fn resolve(self, speeds: &SpeedVector) -> f64 {
        match self {
            Alpha::Approximate => 4.0 * speeds.max(),
            Alpha::Exact => {
                let eps = speeds
                    .granularity()
                    .expect("Alpha::Exact requires a speed granularity (Theorem 1.2)");
                4.0 * speeds.max() / eps
            }
            Alpha::Custom(a) => {
                assert!(
                    a >= 4.0 * speeds.max(),
                    "custom α = {a} must be at least 4·s_max = {}",
                    4.0 * speeds.max()
                );
                a
            }
        }
    }
}

/// The migration probability of Algorithms 1 and 2 (general,
/// Definition-4.1-consistent form).
///
/// Returns 0 when the load gap is non-positive; the *condition*
/// (`ℓ_i − ℓ_j > θ/s_j`) is checked by the caller, since `θ` differs
/// between protocols ([`MigrationRule`](crate::protocol::MigrationRule)).
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn migration_probability(
    deg_i: usize,
    d_ij: usize,
    load_i: f64,
    load_j: f64,
    s_i: f64,
    s_j: f64,
    node_weight_i: f64,
    alpha: f64,
) -> f64 {
    let gap = load_i - load_j;
    if gap <= 0.0 || node_weight_i <= 0.0 {
        return 0.0;
    }
    let p = (deg_i as f64 / d_ij as f64) * gap / (alpha * (1.0 / s_i + 1.0 / s_j) * node_weight_i);
    debug_assert!(
        (0.0..=0.25 + 1e-12).contains(&p),
        "p_ij = {p} outside [0, 1/4]"
    );
    p
}

/// The printed Algorithm 2 probability `deg(i)/d_ij · (W_i − W_j)/(2α·W_i)`
/// — the uniform-speed special case kept for exact reproduction. The
/// paper's pseudocode prints it without the speed terms of Definition 4.1;
/// the two forms coincide on uniform speeds.
#[inline]
pub fn migration_probability_printed(
    deg_i: usize,
    d_ij: usize,
    weight_i: f64,
    weight_j: f64,
    alpha: f64,
) -> f64 {
    if weight_i <= weight_j || weight_i <= 0.0 {
        return 0.0;
    }
    let p = (deg_i as f64 / d_ij as f64) * (weight_i - weight_j) / (2.0 * alpha * weight_i);
    debug_assert!(
        (0.0..=1.0).contains(&p),
        "printed p_ij = {p} outside [0, 1]"
    );
    p
}

/// The expected flow `f_ij` of Definition 3.1 / 4.1 over a directed edge,
/// including the migration condition `ℓ_i − ℓ_j > 1/s_j`.
#[inline]
pub fn expected_flow(d_ij: usize, load_i: f64, load_j: f64, s_i: f64, s_j: f64, alpha: f64) -> f64 {
    let gap = load_i - load_j;
    if gap <= 1.0 / s_j {
        return 0.0;
    }
    gap / (alpha * d_ij as f64 * (1.0 / s_i + 1.0 / s_j))
}

/// All directed expected flows in a state: entries `(i, j, f_ij)` for the
/// non-Nash edges `Ẽ(x)` (Definition 3.7).
pub fn expected_flows(system: &System, loads: &[f64], alpha: f64) -> Vec<(usize, usize, f64)> {
    let g = system.graph();
    let s = system.speeds();
    let mut flows = Vec::new();
    for &(a, b) in g.edges() {
        for (i, j) in [(a.index(), b.index()), (b.index(), a.index())] {
            let f = expected_flow(
                g.d_max_endpoint(slb_graphs::NodeId(i), slb_graphs::NodeId(j)),
                loads[i],
                loads[j],
                s.speed(i),
                s.speed(j),
                alpha,
            );
            if f > 0.0 {
                flows.push((i, j, f));
            }
        }
    }
    flows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TaskSet;
    use slb_graphs::generators;

    #[test]
    fn alpha_resolution() {
        let s = SpeedVector::new(vec![1.0, 3.0]).unwrap();
        assert_eq!(Alpha::Approximate.resolve(&s), 12.0);
        assert_eq!(Alpha::Custom(20.0).resolve(&s), 20.0);
        assert_eq!(Alpha::default(), Alpha::Approximate);
        let gs = SpeedVector::with_granularity(vec![0.5, 1.5], 0.5).unwrap();
        assert_eq!(Alpha::Exact.resolve(&gs), 4.0 * 1.5 / 0.5);
        let unit = SpeedVector::uniform(4);
        assert_eq!(Alpha::Exact.resolve(&unit), 4.0);
    }

    #[test]
    #[should_panic(expected = "requires a speed granularity")]
    fn exact_alpha_without_granularity_panics() {
        let s = SpeedVector::new(vec![1.0, std::f64::consts::PI]).unwrap();
        let _ = Alpha::Exact.resolve(&s);
    }

    #[test]
    #[should_panic(expected = "must be at least 4·s_max")]
    fn too_small_custom_alpha_panics() {
        let s = SpeedVector::new(vec![1.0, 3.0]).unwrap();
        let _ = Alpha::Custom(1.0).resolve(&s);
    }

    #[test]
    fn probability_is_at_most_quarter() {
        // Worst case: all weight on i, empty j, equal unit speeds, d=deg.
        let p = migration_probability(4, 4, 10.0, 0.0, 1.0, 1.0, 10.0, 4.0);
        assert!(p <= 0.25 + 1e-12);
        assert!((p - 10.0 / (4.0 * 2.0 * 10.0)).abs() < 1e-12);
        // Degree asymmetry shrinks it.
        let p2 = migration_probability(2, 4, 10.0, 0.0, 1.0, 1.0, 10.0, 4.0);
        assert!((p2 - p / 2.0).abs() < 1e-12);
        // Non-positive gap gives zero.
        assert_eq!(
            migration_probability(2, 2, 1.0, 1.0, 1.0, 1.0, 1.0, 4.0),
            0.0
        );
        assert_eq!(
            migration_probability(2, 2, 1.0, 2.0, 1.0, 1.0, 1.0, 4.0),
            0.0
        );
    }

    #[test]
    fn printed_probability_uniform_speed_agreement() {
        // With s_i = s_j = 1 and α shared, the printed form equals the
        // Definition-4.1 form: (W_i−W_j)/(2αW_i) vs gap/(α·2·W_i).
        let (wi, wj) = (8.0, 2.0);
        let a = migration_probability(3, 3, wi, wj, 1.0, 1.0, wi, 4.0);
        let b = migration_probability_printed(3, 3, wi, wj, 4.0);
        assert!((a - b).abs() < 1e-12);
        assert_eq!(migration_probability_printed(3, 3, 2.0, 8.0, 4.0), 0.0);
    }

    #[test]
    fn expected_flow_threshold() {
        // Gap exactly 1/s_j → no flow; just above → positive.
        assert_eq!(expected_flow(2, 2.0, 1.0, 1.0, 1.0, 4.0), 0.0);
        let f = expected_flow(2, 2.1, 1.0, 1.0, 1.0, 4.0);
        assert!((f - 1.1 / (4.0 * 2.0 * 2.0)).abs() < 1e-12);
    }

    #[test]
    fn expected_flow_matches_rate_times_probability() {
        // f_ij = W_i · (1/deg i) · p_ij.
        let (deg_i, d_ij) = (3usize, 5usize);
        let (li, lj, si, sj, wi, alpha) = (4.0, 1.0, 1.0, 2.0, 4.0, 8.0);
        let p = migration_probability(deg_i, d_ij, li, lj, si, sj, wi, alpha);
        let f = expected_flow(d_ij, li, lj, si, sj, alpha);
        assert!((f - wi / deg_i as f64 * p).abs() < 1e-12);
    }

    #[test]
    fn flows_collects_non_nash_edges_only() {
        let system = crate::model::System::new(
            generators::path(3),
            SpeedVector::uniform(3),
            TaskSet::uniform(6),
        )
        .unwrap();
        // Loads (6, 0, 0): only edge 0→1 has flow.
        let flows = expected_flows(&system, &[6.0, 0.0, 0.0], 4.0);
        assert_eq!(flows.len(), 1);
        assert_eq!((flows[0].0, flows[0].1), (0, 1));
        assert!(flows[0].2 > 0.0);
        // Balanced loads: no flows.
        assert!(expected_flows(&system, &[2.0, 2.0, 2.0], 4.0).is_empty());
    }
}
