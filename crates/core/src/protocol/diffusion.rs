//! Discrete diffusive load balancing with rounded expected flows.
//!
//! §1 of the paper notes that its techniques "apply to discrete diffusive
//! load balancing where each node sends the rounded expected flow of the
//! randomized protocol to its neighbors" (the companion manuscript \[2\]).
//! [`Diffusion`] implements exactly that deterministic protocol: per
//! directed edge `(i, j)` it computes the expected flow `f_ij` of
//! Definition 3.1/4.1 and ships `round(f_ij)` worth of tasks from `i` to
//! `j`, selecting concrete tasks first-fit in task order.
//!
//! [`continuous_step`] additionally exposes the idealized *continuous*
//! diffusion on divisible load (the classical dynamics of Cybenko \[10\] and
//! Elsässer et al. \[11\] that the randomized protocol mimics in
//! expectation), which the experiment harness uses as the ground-truth
//! envelope in figure F5.

use crate::model::{Move, System, TaskState};
use crate::protocol::common::{expected_flow, Alpha};
use crate::protocol::{commit, Protocol, RoundReport};
use rand::rngs::StdRng;
use std::sync::{Mutex, PoisonError};

/// How the expected flow is discretized into whole tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Rounding {
    /// Send `⌊f_ij⌋` (conservative; never overshoots the expectation).
    Floor,
    /// Send `⌊f_ij⌉` (nearest; the rounding of \[2\]).
    #[default]
    Nearest,
}

/// Deterministic discrete diffusion protocol.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use slb_core::model::{SpeedVector, System, TaskSet, TaskState};
/// use slb_core::protocol::{Diffusion, Protocol};
/// use slb_graphs::{generators, NodeId};
///
/// let system = System::new(
///     generators::ring(4),
///     SpeedVector::uniform(4),
///     TaskSet::uniform(400),
/// )?;
/// let mut state = TaskState::all_on_node(&system, NodeId(0));
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0); // unused: deterministic
/// let r = Diffusion::new().round(&system, &mut state, &mut rng);
/// assert!(r.migrations > 0);
/// # Ok::<(), slb_core::model::ModelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Diffusion {
    rounding: Rounding,
    alpha: Alpha,
}

impl Diffusion {
    /// Diffusion with nearest rounding and `α = 4·s_max`.
    pub fn new() -> Self {
        Diffusion::default()
    }

    /// Diffusion with an explicit rounding mode.
    pub fn with_rounding(rounding: Rounding) -> Self {
        Diffusion {
            rounding,
            alpha: Alpha::Approximate,
        }
    }

    /// Overrides the damping constant.
    pub fn with_alpha(mut self, alpha: Alpha) -> Self {
        self.alpha = alpha;
        self
    }
}

impl Protocol for Diffusion {
    fn name(&self) -> &'static str {
        "diffusion"
    }

    fn round(&self, system: &System, state: &mut TaskState, _rng: &mut StdRng) -> RoundReport {
        let g = system.graph();
        let speeds = system.speeds();
        let alpha = self.alpha.resolve(speeds);
        let loads = state.loads(system);
        let by_node = state.tasks_by_node(system);
        // Cursor into each node's task list so successive edges of the same
        // source take disjoint tasks.
        let mut cursor = vec![0usize; system.node_count()];
        let mut moves: Vec<Move> = Vec::new();

        for &(a, b) in g.edges() {
            for (i, j) in [(a, b), (b, a)] {
                let f = expected_flow(
                    g.d_max_endpoint(i, j),
                    loads[i.index()],
                    loads[j.index()],
                    speeds.speed(i.index()),
                    speeds.speed(j.index()),
                    alpha,
                );
                if f <= 0.0 {
                    continue;
                }
                let target = match self.rounding {
                    Rounding::Floor => f.floor(),
                    Rounding::Nearest => f.round(),
                };
                if target <= 0.0 {
                    continue;
                }
                // Ship tasks first-fit until the shipped weight would
                // exceed the target.
                let tasks = &by_node[i.index()];
                let mut shipped = 0.0f64;
                while cursor[i.index()] < tasks.len() {
                    let task = tasks[cursor[i.index()]];
                    let w = system.tasks().weight(task);
                    if shipped + w > target + 1e-12 {
                        break;
                    }
                    moves.push(Move { task, to: j });
                    shipped += w;
                    cursor[i.index()] += 1;
                }
            }
        }
        commit(system, state, &moves)
    }
}

/// Discrete diffusion with **error feedback**: the rounding remainder of
/// every directed edge is carried into the next round, so the *cumulative*
/// shipped weight tracks the cumulative expected flow within ±½ task.
///
/// This is the idea behind the improved discrete-diffusion bounds of the
/// companion manuscript \[2\] (and of Rabani–Sinclair–Wanka-style analyses):
/// plain nearest-rounding stalls once every per-round flow rounds to zero,
/// while error feedback keeps draining sub-unit flows. The F5 experiment
/// contrasts the two.
///
/// The per-edge carry is interior state (the [`Protocol`] trait takes
/// `&self`), guarded by a mutex; one value per directed edge, indexed by
/// `2·edge + direction`.
#[derive(Debug, Default)]
pub struct ErrorFeedbackDiffusion {
    alpha: Alpha,
    carry: Mutex<Vec<f64>>,
}

impl ErrorFeedbackDiffusion {
    /// Error-feedback diffusion with `α = 4·s_max`.
    pub fn new() -> Self {
        ErrorFeedbackDiffusion::default()
    }

    /// Overrides the damping constant.
    pub fn with_alpha(alpha: Alpha) -> Self {
        ErrorFeedbackDiffusion {
            alpha,
            carry: Mutex::new(Vec::new()),
        }
    }

    /// Clears the accumulated per-edge carries (e.g. when reusing the
    /// protocol value on a fresh state).
    pub fn reset(&self) {
        self.carry
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }
}

impl Protocol for ErrorFeedbackDiffusion {
    fn name(&self) -> &'static str {
        "diffusion-error-feedback"
    }

    fn round(&self, system: &System, state: &mut TaskState, _rng: &mut StdRng) -> RoundReport {
        let g = system.graph();
        let speeds = system.speeds();
        let alpha = self.alpha.resolve(speeds);
        let loads = state.loads(system);
        let by_node = state.tasks_by_node(system);
        let mut cursor = vec![0usize; system.node_count()];
        let mut moves: Vec<Move> = Vec::new();

        let mut carry = self.carry.lock().unwrap_or_else(PoisonError::into_inner);
        carry.resize(2 * g.edge_count(), 0.0);

        for (edge_idx, &(a, b)) in g.edges().iter().enumerate() {
            for (dir, (i, j)) in [(a, b), (b, a)].into_iter().enumerate() {
                let f = expected_flow(
                    g.d_max_endpoint(i, j),
                    loads[i.index()],
                    loads[j.index()],
                    speeds.speed(i.index()),
                    speeds.speed(j.index()),
                    alpha,
                );
                let slot = 2 * edge_idx + dir;
                let budget = f + carry[slot];
                let target = budget.floor();
                if target <= 0.0 {
                    carry[slot] = budget.min(1.0); // cap: stale credit must not explode
                    continue;
                }
                let tasks = &by_node[i.index()];
                let mut shipped = 0.0f64;
                while cursor[i.index()] < tasks.len() {
                    let task = tasks[cursor[i.index()]];
                    let w = system.tasks().weight(task);
                    if shipped + w > target + 1e-12 {
                        break;
                    }
                    moves.push(Move { task, to: j });
                    shipped += w;
                    cursor[i.index()] += 1;
                }
                carry[slot] = (budget - shipped).min(1.0);
            }
        }
        drop(carry);
        commit(system, state, &moves)
    }
}

/// One round of *continuous* diffusion on divisible load: returns the new
/// weight vector after every directed edge `(i, j)` ships its full
/// (unrounded) expected flow `f_ij`.
///
/// # Panics
///
/// Panics if `weights.len()` differs from the node count.
pub fn continuous_step(system: &System, weights: &[f64], alpha: Alpha) -> Vec<f64> {
    assert_eq!(
        weights.len(),
        system.node_count(),
        "weight vector length mismatch"
    );
    let g = system.graph();
    let speeds = system.speeds();
    let a = alpha.resolve(speeds);
    let loads: Vec<f64> = weights
        .iter()
        .zip(speeds.as_slice())
        .map(|(w, s)| w / s)
        .collect();
    let mut out = weights.to_vec();
    for &(x, y) in g.edges() {
        for (i, j) in [(x, y), (y, x)] {
            let f = expected_flow(
                g.d_max_endpoint(i, j),
                loads[i.index()],
                loads[j.index()],
                speeds.speed(i.index()),
                speeds.speed(j.index()),
                a,
            );
            if f > 0.0 {
                out[i.index()] -= f;
                out[j.index()] += f;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equilibrium::{self, Threshold};
    use crate::model::{SpeedVector, TaskSet};
    use crate::potential;
    use rand::SeedableRng;
    use slb_graphs::{generators, NodeId};

    fn sys(n: usize, m: usize) -> System {
        System::new(
            generators::ring(n),
            SpeedVector::uniform(n),
            TaskSet::uniform(m),
        )
        .unwrap()
    }

    #[test]
    fn deterministic_regardless_of_rng() {
        let s = sys(6, 120);
        let mut a = TaskState::all_on_node(&s, NodeId(0));
        let mut b = TaskState::all_on_node(&s, NodeId(0));
        let d = Diffusion::new();
        let mut r1 = StdRng::seed_from_u64(1);
        let mut r2 = StdRng::seed_from_u64(999);
        for _ in 0..30 {
            d.round(&s, &mut a, &mut r1);
            d.round(&s, &mut b, &mut r2);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn conserves_tasks_and_reduces_potential() {
        let s = sys(8, 240);
        let mut st = TaskState::all_on_node(&s, NodeId(3));
        let before = potential::report(&s, &st).psi0;
        let d = Diffusion::new();
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..200 {
            d.round(&s, &mut st, &mut rng);
        }
        st.check_invariants(&s).unwrap();
        let after = potential::report(&s, &st).psi0;
        assert!(after < before / 10.0, "Ψ₀: {before} → {after}");
    }

    #[test]
    fn floor_rounding_never_moves_below_unit_flow() {
        let s = sys(4, 4);
        // Loads (2, ..): expected flows < 1 on this small instance, so
        // floor-rounding freezes everything.
        let mut st = TaskState::from_assignment(&s, &[0, 0, 1, 2]).unwrap();
        let d = Diffusion::with_rounding(Rounding::Floor);
        let mut rng = StdRng::seed_from_u64(0);
        let r = d.round(&s, &mut st, &mut rng);
        // f_ij = gap/(α·d_ij·2) = 2/(4·2·2) = 0.125 → floor 0.
        assert_eq!(r.migrations, 0);
    }

    #[test]
    fn reaches_stable_near_balanced_state() {
        let s = sys(5, 500);
        let mut st = TaskState::all_on_node(&s, NodeId(0));
        let d = Diffusion::new();
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..5000 {
            if d.round(&s, &mut st, &mut rng).migrations == 0 {
                break;
            }
        }
        // Once frozen, every *adjacent* gap satisfies f_ij < 0.5, i.e.
        // gap < 0.5·α·d_ij·(1/s_i + 1/s_j) = 0.5·4·2·2 = 8; across the ring
        // the spread can accumulate up to diam(C_5)·8 = 16.
        let gap = equilibrium::nash_gap(&s, &st, Threshold::UnitWeight);
        let loads = st.loads(&s);
        let spread = loads.iter().cloned().fold(f64::MIN, f64::max)
            - loads.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread < 16.0 + 1e-9, "load spread {spread} too large");
        // Relative to the mean load of 100, the Nash gap is small.
        assert!(gap < 0.5, "nash gap {gap}");
    }

    #[test]
    fn weighted_diffusion_conserves_weight() {
        let s = System::new(
            generators::torus(3, 3),
            SpeedVector::integer(vec![1, 1, 2, 1, 3, 1, 2, 1, 1]).unwrap(),
            TaskSet::weighted((0..90).map(|i| 0.05 + (i % 20) as f64 * 0.0475).collect()).unwrap(),
        )
        .unwrap();
        let mut st = TaskState::all_on_node(&s, NodeId(4));
        let d = Diffusion::new();
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            d.round(&s, &mut st, &mut rng);
        }
        st.check_invariants(&s).unwrap();
    }

    #[test]
    fn error_feedback_outperforms_plain_rounding() {
        // On an instance where plain nearest-rounding stalls with high
        // residual, error feedback keeps draining sub-unit flows.
        let s = sys(8, 400);
        let run = |plain: bool| {
            let mut st = TaskState::all_on_node(&s, NodeId(0));
            let mut rng = StdRng::seed_from_u64(0);
            if plain {
                let d = Diffusion::new();
                for _ in 0..3000 {
                    d.round(&s, &mut st, &mut rng);
                }
            } else {
                let d = ErrorFeedbackDiffusion::new();
                for _ in 0..3000 {
                    d.round(&s, &mut st, &mut rng);
                }
            }
            potential::report(&s, &st).psi0
        };
        let plain = run(true);
        let fed = run(false);
        assert!(
            fed < plain,
            "error feedback should reach lower Ψ₀: {fed} vs plain {plain}"
        );
    }

    #[test]
    fn error_feedback_conserves_and_is_deterministic() {
        let s = sys(6, 120);
        let run = |seed: u64| {
            let d = ErrorFeedbackDiffusion::new();
            let mut st = TaskState::all_on_node(&s, NodeId(2));
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..100 {
                d.round(&s, &mut st, &mut rng);
            }
            st
        };
        let a = run(1);
        let b = run(42);
        assert_eq!(a, b, "must ignore the RNG");
        a.check_invariants(&s).unwrap();
    }

    #[test]
    fn error_feedback_reset_clears_carries() {
        let s = sys(5, 100);
        let d = ErrorFeedbackDiffusion::with_alpha(Alpha::Approximate);
        let mut st = TaskState::all_on_node(&s, NodeId(0));
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..10 {
            d.round(&s, &mut st, &mut rng);
        }
        d.reset();
        // After reset the protocol behaves like a fresh instance on the
        // same state.
        let fresh = ErrorFeedbackDiffusion::new();
        let mut st_a = st.clone();
        let mut st_b = st.clone();
        for _ in 0..20 {
            d.round(&s, &mut st_a, &mut rng);
            fresh.round(&s, &mut st_b, &mut rng);
        }
        assert_eq!(st_a, st_b);
    }

    #[test]
    fn continuous_step_conserves_and_contracts() {
        let s = sys(6, 60);
        let mut w: Vec<f64> = vec![60.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        for _ in 0..500 {
            w = continuous_step(&s, &w, Alpha::Approximate);
        }
        let total: f64 = w.iter().sum();
        assert!((total - 60.0).abs() < 1e-9, "mass conserved");
        // Continuous diffusion (with the 1/s_j dead-zone) flattens
        // *adjacent* loads to within the dead-zone; across the ring the
        // spread can accumulate up to diam(C_6)·1 = 3.
        let spread =
            w.iter().cloned().fold(f64::MIN, f64::max) - w.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread <= 3.0 + 1e-9, "spread {spread}");
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(Diffusion::new().name(), "diffusion");
    }
}
