//! The baseline protocol of Berenbrink, Hoefer & Sauerwald (SODA'11),
//! reference \[6\] of the paper.
//!
//! The paper describes the relevant difference in §4: *"In the original
//! protocol, a load difference of more than `w_ℓ/s_j` would suffice for
//! task `ℓ` to have an incentive to migrate."* Each task therefore applies
//! its **own** weight as the migration threshold — light tasks keep moving
//! long after Algorithm 2's uniform threshold has frozen the edge, which is
//! precisely why the analysis of \[6\] is harder and its bounds weaker
//! (Table 1), and why \[6\] converges to an *exact* NE while Algorithm 2
//! targets an approximate one.
//!
//! For uniform tasks (`w_ℓ = 1`), this protocol coincides with Algorithm 1
//! — the paper's improvement there is purely analytical (Observation 3.28),
//! which the Table 1 harness reflects by comparing *bounds*, not protocols.
//!
//! The migration probability is kept in the expected-flow form shared by
//! this paper's protocols (the quantity the quoted [6, Lemma 3.3] bound is
//! stated in).

use crate::model::{Move, System, TaskState};
use crate::protocol::common::{migration_probability, Alpha};
use crate::protocol::{Snapshot, TaskProtocol};
use rand::rngs::StdRng;
use rand::Rng;
use std::ops::Range;

/// The \[6\] baseline: per-task migration threshold `w_ℓ/s_j`.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use slb_core::model::{SpeedVector, System, TaskSet, TaskState};
/// use slb_core::protocol::{BhsBaseline, Protocol};
/// use slb_graphs::{generators, NodeId};
///
/// let system = System::new(
///     generators::path(4),
///     SpeedVector::uniform(4),
///     TaskSet::weighted(vec![0.1; 40])?,
/// )?;
/// let mut state = TaskState::all_on_node(&system, NodeId(0));
/// let mut rng = rand::rngs::StdRng::seed_from_u64(9);
/// BhsBaseline::new().round(&system, &mut state, &mut rng);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BhsBaseline {
    alpha: Alpha,
}

impl BhsBaseline {
    /// The baseline with `α = 4·s_max`.
    pub fn new() -> Self {
        BhsBaseline {
            alpha: Alpha::Approximate,
        }
    }

    /// Overrides the damping constant.
    pub fn with_alpha(alpha: Alpha) -> Self {
        BhsBaseline { alpha }
    }
}

impl TaskProtocol for BhsBaseline {
    fn protocol_name(&self) -> &'static str {
        "bhs-baseline"
    }

    fn decide(
        &self,
        system: &System,
        snapshot: &Snapshot,
        state: &TaskState,
        range: Range<usize>,
        rng: &mut StdRng,
        out: &mut Vec<Move>,
    ) {
        let g = system.graph();
        let speeds = system.speeds();
        let alpha = self.alpha.resolve(speeds);
        for t in range {
            let task = crate::model::TaskId(t);
            let i = state.task_node(task);
            let neighbors = g.neighbors(i);
            if neighbors.is_empty() {
                continue;
            }
            let j = neighbors[rng.gen_range(0..neighbors.len())];
            let (ii, jj) = (i.index(), j.index());
            let s_j = speeds.speed(jj);
            // Per-task condition of [6]: ℓ_i − ℓ_j > w_ℓ/s_j.
            let w = system.tasks().weight(task);
            if snapshot.loads[ii] - snapshot.loads[jj] <= w / s_j {
                continue;
            }
            let p = migration_probability(
                g.degree(i),
                g.d_max_endpoint(i, j),
                snapshot.loads[ii],
                snapshot.loads[jj],
                speeds.speed(ii),
                s_j,
                snapshot.node_weights[ii],
                alpha,
            );
            if p > 0.0 && rng.gen_bool(p.min(1.0)) {
                out.push(Move { task, to: j });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equilibrium::{self, Threshold};
    use crate::model::{SpeedVector, TaskSet};
    use crate::protocol::{Protocol, SelfishUniform};
    use rand::SeedableRng;
    use slb_graphs::{generators, NodeId};

    #[test]
    fn coincides_with_algorithm_1_on_uniform_tasks() {
        // Same thresholds, same probabilities, same RNG consumption order
        // → identical trajectories under the same seed.
        let sys = System::new(
            generators::hypercube(3),
            SpeedVector::uniform(8),
            TaskSet::uniform(80),
        )
        .unwrap();
        let mut a = TaskState::all_on_node(&sys, NodeId(0));
        let mut b = TaskState::all_on_node(&sys, NodeId(0));
        let mut ra = StdRng::seed_from_u64(21);
        let mut rb = StdRng::seed_from_u64(21);
        let alg1 = SelfishUniform::new();
        let bhs = BhsBaseline::new();
        for _ in 0..50 {
            alg1.round(&sys, &mut a, &mut ra);
            bhs.round(&sys, &mut b, &mut rb);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn keeps_moving_light_tasks_where_algorithm_2_freezes() {
        // Loads (0.9, 0) with ten 0.09-weight tasks: relaxed threshold says
        // stop (0.9 ≤ 1) but each task still gains (0.9 > 0.09).
        let sys = System::new(
            generators::path(2),
            SpeedVector::uniform(2),
            TaskSet::weighted(vec![0.09; 10]).unwrap(),
        )
        .unwrap();
        let mut st = TaskState::all_on_node(&sys, NodeId(0));
        assert!(equilibrium::is_nash(&sys, &st, Threshold::UnitWeight));
        let mut rng = StdRng::seed_from_u64(5);
        let bhs = BhsBaseline::new();
        let mut total_moves = 0;
        for _ in 0..2000 {
            total_moves += bhs.round(&sys, &mut st, &mut rng).migrations;
            if equilibrium::is_nash(&sys, &st, Threshold::LightestTask) {
                break;
            }
        }
        assert!(total_moves > 0, "baseline should migrate light tasks");
        assert!(
            equilibrium::is_nash(&sys, &st, Threshold::LightestTask),
            "baseline should reach the exact weighted NE"
        );
        st.check_invariants(&sys).unwrap();
    }

    #[test]
    fn exact_weighted_nash_is_absorbing() {
        let sys = System::new(
            generators::path(2),
            SpeedVector::uniform(2),
            TaskSet::weighted(vec![0.5, 0.5, 0.5, 0.5]).unwrap(),
        )
        .unwrap();
        // Loads (1.0, 1.0): balanced → exact NE.
        let mut st = TaskState::from_assignment(&sys, &[0, 0, 1, 1]).unwrap();
        assert!(equilibrium::is_nash(&sys, &st, Threshold::LightestTask));
        let before = st.clone();
        let mut rng = StdRng::seed_from_u64(6);
        let bhs = BhsBaseline::new();
        for _ in 0..200 {
            assert_eq!(bhs.round(&sys, &mut st, &mut rng).migrations, 0);
        }
        assert_eq!(st, before);
    }

    #[test]
    fn conserves_weight_with_speeds() {
        let sys = System::new(
            generators::torus(3, 3),
            SpeedVector::integer(vec![1, 2, 3, 1, 2, 3, 1, 2, 3]).unwrap(),
            TaskSet::weighted((0..45).map(|i| 0.1 + 0.02 * (i % 10) as f64).collect()).unwrap(),
        )
        .unwrap();
        let mut st = TaskState::all_on_node(&sys, NodeId(0));
        let mut rng = StdRng::seed_from_u64(7);
        let bhs = BhsBaseline::with_alpha(Alpha::Approximate);
        for _ in 0..100 {
            bhs.round(&sys, &mut st, &mut rng);
        }
        st.check_invariants(&sys).unwrap();
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(BhsBaseline::new().name(), "bhs-baseline");
    }
}
