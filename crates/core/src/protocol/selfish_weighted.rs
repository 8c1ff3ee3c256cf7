//! **Algorithm 2**: distributed selfish load balancing for weighted tasks
//! (p. 11 of the paper).
//!
//! The paper's key modification relative to \[6\]: a task's migration
//! decision *does not depend on its own weight*. Every task on `i` checks
//! the same condition `ℓ_i − ℓ_j > 1/s_j` — the threshold of the
//! heaviest-possible task (`w ≤ 1`) — so on any edge either all tasks of
//! `i` have an incentive to move or none do. This yields convergence to a
//! state with `ℓ_i − ℓ_j ≤ 1/s_j` on every edge, which Theorem 1.3 shows
//! is a `2/(1+δ)`-approximate Nash equilibrium when
//! `W > 8·δ·(s_max/s_min)·S·n²`.
//!
//! The migration probability follows the expected flow of Definition 4.1
//! (`WeightedRule::Definition41`, the default); the pseudocode as printed
//! in the paper omits the speed terms and is available as
//! [`WeightedRule::PrintedUniformSpeed`] — the two coincide exactly on
//! uniform speeds, and under heterogeneous speeds the printed form can
//! stall before the relaxed equilibrium (`fig_weighted_comparison` shows
//! it).

use crate::model::{Move, System, TaskState};
use crate::protocol::common::{migration_probability, migration_probability_printed, Alpha};
use crate::protocol::{Snapshot, TaskProtocol};
use rand::rngs::StdRng;
use rand::Rng;
use std::ops::Range;

/// Which published form of the Algorithm 2 migration probability to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WeightedRule {
    /// `p_ij = deg(i)/d_ij · (ℓ_i − ℓ_j)/(α·(1/s_i + 1/s_j)·W_i)` —
    /// consistent with the expected flow `f_ij` of Definition 4.1, which
    /// the analysis (Lemmas 4.2–4.4) is carried out in.
    #[default]
    Definition41,
    /// `p_ij = deg(i)/d_ij · (W_i − W_j)/(2α·W_i)` as printed in the
    /// Algorithm 2 box; the uniform-speed special case of the above.
    PrintedUniformSpeed,
}

/// Algorithm 2 with a configurable probability rule and damping constant.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use slb_core::model::{SpeedVector, System, TaskSet, TaskState};
/// use slb_core::protocol::{Protocol, SelfishWeighted};
/// use slb_graphs::{generators, NodeId};
///
/// let system = System::new(
///     generators::ring(6),
///     SpeedVector::uniform(6),
///     TaskSet::weighted(vec![0.5; 48])?,
/// )?;
/// let mut state = TaskState::all_on_node(&system, NodeId(0));
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let report = SelfishWeighted::new().round(&system, &mut state, &mut rng);
/// assert!(report.migrated_weight > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SelfishWeighted {
    rule: WeightedRule,
    alpha: Alpha,
}

impl SelfishWeighted {
    /// Algorithm 2 with the Definition-4.1 rule and `α = 4·s_max`.
    pub fn new() -> Self {
        SelfishWeighted::default()
    }

    /// Algorithm 2 with an explicit probability rule.
    pub fn with_rule(rule: WeightedRule) -> Self {
        SelfishWeighted {
            rule,
            alpha: Alpha::Approximate,
        }
    }

    /// Overrides the damping constant.
    pub fn with_alpha(mut self, alpha: Alpha) -> Self {
        self.alpha = alpha;
        self
    }

    /// The configured probability rule.
    pub fn rule(&self) -> WeightedRule {
        self.rule
    }
}

impl TaskProtocol for SelfishWeighted {
    fn protocol_name(&self) -> &'static str {
        match self.rule {
            WeightedRule::Definition41 => "selfish-weighted",
            WeightedRule::PrintedUniformSpeed => "selfish-weighted-printed",
        }
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
            // Weight-independent condition: ℓ_i − ℓ_j > 1/s_j.
            if snapshot.loads[ii] - snapshot.loads[jj] <= 1.0 / s_j {
                continue;
            }
            let p = match self.rule {
                WeightedRule::Definition41 => migration_probability(
                    g.degree(i),
                    g.d_max_endpoint(i, j),
                    snapshot.loads[ii],
                    snapshot.loads[jj],
                    speeds.speed(ii),
                    s_j,
                    snapshot.node_weights[ii],
                    alpha,
                ),
                WeightedRule::PrintedUniformSpeed => migration_probability_printed(
                    g.degree(i),
                    g.d_max_endpoint(i, j),
                    snapshot.node_weights[ii],
                    snapshot.node_weights[jj],
                    alpha,
                ),
            };
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
    use crate::potential;
    use crate::protocol::Protocol;
    use rand::SeedableRng;
    use slb_graphs::{generators, NodeId};

    fn weighted_tasks(m: usize, seed: u64) -> TaskSet {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        TaskSet::weighted((0..m).map(|_| rng.gen_range(0.05..=1.0)).collect()).unwrap()
    }

    #[test]
    fn conserves_weight() {
        let sys = System::new(
            generators::torus(3, 3),
            SpeedVector::uniform(9),
            weighted_tasks(90, 1),
        )
        .unwrap();
        let total = sys.tasks().total_weight();
        let mut st = TaskState::all_on_node(&sys, NodeId(4));
        let mut rng = StdRng::seed_from_u64(2);
        let p = SelfishWeighted::new();
        for _ in 0..60 {
            p.round(&sys, &mut st, &mut rng);
        }
        st.check_invariants(&sys).unwrap();
        let sum: f64 = st.node_weights().iter().sum();
        assert!((sum - total).abs() < 1e-6);
    }

    #[test]
    fn reaches_relaxed_equilibrium() {
        let sys = System::new(
            generators::ring(5),
            SpeedVector::uniform(5),
            weighted_tasks(50, 3),
        )
        .unwrap();
        let mut st = TaskState::all_on_node(&sys, NodeId(0));
        let mut rng = StdRng::seed_from_u64(4);
        let p = SelfishWeighted::new();
        let mut reached = false;
        for _ in 0..20000 {
            p.round(&sys, &mut st, &mut rng);
            // Algorithm 2's target: ℓ_i − ℓ_j ≤ 1/s_j on every edge.
            if equilibrium::is_nash(&sys, &st, Threshold::UnitWeight) {
                reached = true;
                break;
            }
        }
        assert!(reached, "relaxed equilibrium not reached");
    }

    #[test]
    fn relaxed_equilibrium_is_absorbing() {
        // Once ℓ_i − ℓ_j ≤ 1/s_j everywhere, no task migrates: the
        // condition is weight-independent (the §4 design point).
        let sys = System::new(
            generators::path(2),
            SpeedVector::uniform(2),
            TaskSet::weighted(vec![0.3, 0.3, 0.3]).unwrap(),
        )
        .unwrap();
        // Loads (0.9, 0): gap 0.9 ≤ 1 → relaxed-Nash, though not exact NE.
        let mut st = TaskState::from_assignment(&sys, &[0, 0, 0]).unwrap();
        assert!(equilibrium::is_nash(&sys, &st, Threshold::UnitWeight));
        assert!(!equilibrium::is_nash(&sys, &st, Threshold::LightestTask));
        let before = st.clone();
        let mut rng = StdRng::seed_from_u64(5);
        let p = SelfishWeighted::new();
        for _ in 0..300 {
            let r = p.round(&sys, &mut st, &mut rng);
            assert_eq!(r.migrations, 0);
        }
        assert_eq!(st, before);
    }

    #[test]
    fn potential_drops_on_weighted_instance() {
        let sys = System::new(
            generators::hypercube(3),
            SpeedVector::new((0..8).map(|i| 1.0 + (i % 3) as f64).collect()).unwrap(),
            weighted_tasks(120, 7),
        )
        .unwrap();
        let mut st = TaskState::all_on_node(&sys, NodeId(0));
        let before = potential::report(&sys, &st).psi0;
        let mut rng = StdRng::seed_from_u64(8);
        let p = SelfishWeighted::new();
        for _ in 0..150 {
            p.round(&sys, &mut st, &mut rng);
        }
        let after = potential::report(&sys, &st).psi0;
        assert!(after < before / 4.0, "Ψ₀: {before} → {after}");
    }

    #[test]
    fn printed_rule_matches_def41_on_uniform_speeds() {
        // On uniform speeds the two rules are the same function, so with
        // the same seed they produce identical trajectories.
        let sys = System::new(
            generators::ring(6),
            SpeedVector::uniform(6),
            weighted_tasks(36, 9),
        )
        .unwrap();
        let mut a = TaskState::all_on_node(&sys, NodeId(0));
        let mut b = TaskState::all_on_node(&sys, NodeId(0));
        let pa = SelfishWeighted::with_rule(WeightedRule::Definition41);
        let pb = SelfishWeighted::with_rule(WeightedRule::PrintedUniformSpeed);
        let mut ra = StdRng::seed_from_u64(10);
        let mut rb = StdRng::seed_from_u64(10);
        for _ in 0..40 {
            pa.round(&sys, &mut a, &mut ra);
            pb.round(&sys, &mut b, &mut rb);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn rules_have_distinct_names() {
        assert_eq!(SelfishWeighted::new().name(), "selfish-weighted");
        assert_eq!(
            SelfishWeighted::with_rule(WeightedRule::PrintedUniformSpeed).name(),
            "selfish-weighted-printed"
        );
        assert_eq!(SelfishWeighted::new().rule(), WeightedRule::Definition41);
    }

    #[test]
    fn works_with_uniform_tasks_too() {
        // Algorithm 2 on weight-1 tasks degenerates to Algorithm 1.
        let sys = System::new(
            generators::path(3),
            SpeedVector::uniform(3),
            TaskSet::uniform(9),
        )
        .unwrap();
        let mut st = TaskState::all_on_node(&sys, NodeId(1));
        let mut rng = StdRng::seed_from_u64(12);
        let p = SelfishWeighted::new();
        let mut reached = false;
        for _ in 0..5000 {
            p.round(&sys, &mut st, &mut rng);
            if equilibrium::is_nash(&sys, &st, Threshold::UnitWeight) {
                reached = true;
                break;
            }
        }
        assert!(reached);
    }
}
