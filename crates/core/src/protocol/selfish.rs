//! The paper's randomized protocols — **Algorithm 1** (uniform tasks,
//! p. 5), **Algorithm 2** (weighted tasks, p. 11) and the baseline of
//! Berenbrink, Hoefer & Sauerwald (SODA'11, reference \[6\]) — as one
//! per-task protocol, [`Selfish`].
//!
//! One round, for every task `ℓ` of weight `w` on machine `i`, in
//! parallel:
//!
//! 1. choose a neighbor `j` of `i` uniformly at random;
//! 2. if `ℓ_i − ℓ_j > θ/s_j` (the task would strictly lower its perceived
//!    load, accounting for its own arrival at `j`),
//! 3. migrate with probability
//!    `p_ij = deg(i)/d_ij · (ℓ_i − ℓ_j)/(α·(1/s_i + 1/s_j)·W_i)`.
//!
//! The protocols differ only in the threshold numerator `θ`, chosen by
//! [`MigrationRule`]:
//!
//! * `θ = 1` ([`MigrationRule::Relaxed`]): Algorithms 1 and 2. The paper's
//!   §4 design point is that a task's decision *does not depend on its
//!   own weight* — every task checks the threshold of the heaviest
//!   possible task (`w ≤ 1`), so on any edge either all tasks of `i` have
//!   an incentive to move or none do. On unit weights this is Algorithm 1:
//!   with `α = 4·s_max` it reaches `Ψ₀ ≤ 4ψ_c` in expected
//!   `O(ln(m/n)·Δ/λ₂·s_max²)` rounds (Theorem 1.1), and with
//!   `α = 4·s_max/ε` an exact Nash equilibrium in expected
//!   `O(n·Δ²/λ₂·s_max⁴/ε²)` rounds (Theorem 1.2). On weights it is
//!   Algorithm 2, which converges to a state with `ℓ_i − ℓ_j ≤ 1/s_j` on
//!   every edge — a `2/(1+δ)`-approximate Nash equilibrium when
//!   `W > 8·δ·(s_max/s_min)·S·n²` (Theorem 1.3).
//! * `θ = w` ([`MigrationRule::OwnWeight`]): the \[6\] baseline. In the
//!   paper's words (§4), *"in the original protocol, a load difference of
//!   more than `w_ℓ/s_j` would suffice for task `ℓ` to have an incentive
//!   to migrate."* Light tasks keep moving long after the relaxed rule has
//!   frozen the edge, which is why \[6\] converges to an *exact* NE and
//!   why its analysis is harder and its bounds weaker (Table 1). On unit
//!   weights it coincides with Algorithm 1 — the paper's improvement there
//!   is purely analytical (Observation 3.28).
//!
//! The probability is the expected-flow form of Definition 4.1 for every
//! rule. The Algorithm 2 box as printed omits the speed terms
//! ([`Selfish::printed`]); the two coincide exactly on uniform speeds, and
//! under heterogeneous speeds the printed form can stall before the
//! relaxed equilibrium (`fig_weighted_comparison` shows it).

use crate::model::{Move, System, TaskId, TaskState};
use crate::protocol::common::{migration_probability, migration_probability_printed, Alpha};
use crate::protocol::{commit, Protocol, RoundReport, Snapshot};
use rand::rngs::StdRng;
use rand::Rng;
use std::ops::Range;

/// The migration threshold of a randomized protocol: on edge `(i, j)` a
/// task of weight `w` has an incentive to move iff `ℓ_i − ℓ_j > θ(w)/s_j`.
/// The migration *probability* `p_ij` never depends on the rule, so this
/// one number is the whole difference between the protocols — per task
/// ([`Selfish`]), per weight class (the count engine) and per job (the
/// service harness's selfish policies).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationRule {
    /// `θ = 1`, the heaviest possible task: the weight-independent rule
    /// of Algorithms 1 and 2, under which the relaxed equilibrium is
    /// absorbing.
    Relaxed,
    /// `θ = w`, the task's own weight: the \[6\] baseline, which keeps
    /// moving light tasks until the exact NE.
    ///
    /// ```
    /// use rand::SeedableRng;
    /// use slb_core::model::{SpeedVector, System, TaskSet, TaskState};
    /// use slb_core::protocol::{MigrationRule, Protocol, Selfish};
    /// use slb_graphs::{generators, NodeId};
    ///
    /// let system = System::new(
    ///     generators::path(4),
    ///     SpeedVector::uniform(4),
    ///     TaskSet::weighted(vec![0.1; 40])?,
    /// )?;
    /// let mut state = TaskState::all_on_node(&system, NodeId(0));
    /// let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    /// Selfish::new(MigrationRule::OwnWeight).round(&system, &mut state, &mut rng);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    OwnWeight,
}

impl MigrationRule {
    /// Threshold numerator `θ(w)` for a task of weight `w`.
    #[inline]
    pub fn threshold(self, weight: f64) -> f64 {
        match self {
            MigrationRule::Relaxed => 1.0,
            MigrationRule::OwnWeight => weight,
        }
    }

    /// Whether `θ` depends on the task's weight. `false` lets the count
    /// kernel share one destination row between all classes of a node.
    pub fn is_class_dependent(self) -> bool {
        self == MigrationRule::OwnWeight
    }
}

/// One randomized per-task protocol: a [`MigrationRule`] and a damping
/// constant [`Alpha`].
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use slb_core::model::{SpeedVector, System, TaskSet, TaskState};
/// use slb_core::protocol::{MigrationRule, Protocol, Selfish};
/// use slb_graphs::{generators, NodeId};
///
/// let system = System::new(
///     generators::ring(8),
///     SpeedVector::uniform(8),
///     TaskSet::uniform(64),
/// )?;
/// let mut state = TaskState::all_on_node(&system, NodeId(0));
/// let protocol = Selfish::new(MigrationRule::Relaxed);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let report = protocol.round(&system, &mut state, &mut rng);
/// assert!(report.migrations > 0); // tasks spread out from the hot node
/// # Ok::<(), slb_core::model::ModelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Selfish {
    rule: MigrationRule,
    alpha: Alpha,
    /// Price moves with the printed Algorithm 2 probability (only ever set
    /// with the relaxed rule).
    printed: bool,
}

impl Selfish {
    /// The protocol of `rule` with the paper's default `α = 4·s_max`.
    ///
    /// # Example
    ///
    /// ```
    /// use rand::SeedableRng;
    /// use slb_core::model::{SpeedVector, System, TaskSet, TaskState};
    /// use slb_core::protocol::{MigrationRule, Protocol, Selfish};
    /// use slb_graphs::{generators, NodeId};
    ///
    /// let system = System::new(
    ///     generators::ring(6),
    ///     SpeedVector::uniform(6),
    ///     TaskSet::weighted(vec![0.5; 48])?,
    /// )?;
    /// let mut state = TaskState::all_on_node(&system, NodeId(0));
    /// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    /// let report = Selfish::new(MigrationRule::Relaxed).round(&system, &mut state, &mut rng);
    /// assert!(report.migrated_weight > 0.0);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn new(rule: MigrationRule) -> Self {
        Selfish {
            rule,
            alpha: Alpha::Approximate,
            printed: false,
        }
    }

    /// Algorithm 2 with the probability as printed in its box,
    /// `p_ij = deg(i)/d_ij · (W_i − W_j)/(2α·W_i)` — the uniform-speed
    /// special case of the Definition-4.1 form.
    pub fn printed() -> Self {
        Selfish {
            printed: true,
            ..Selfish::new(MigrationRule::Relaxed)
        }
    }

    /// Overrides the damping constant.
    pub fn with_alpha(mut self, alpha: Alpha) -> Self {
        self.alpha = alpha;
        self
    }

    /// The migration rule.
    pub fn rule(&self) -> MigrationRule {
        self.rule
    }

    /// The configured damping policy.
    pub fn alpha(&self) -> Alpha {
        self.alpha
    }

    /// Appends the migrations of tasks `range` to `out`, deciding against
    /// the round-start `snapshot`.
    ///
    /// Determinism contract: randomness comes only from `rng` (one
    /// neighbor draw per task, then one coin per task that passes the
    /// condition), and no task outside `range` is read, so splitting the
    /// task range across calls with independently seeded generators
    /// draws from the same distribution as one call.
    pub fn decide(
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
            let task = TaskId(t);
            let i = state.task_node(task);
            let neighbors = g.neighbors(i);
            if neighbors.is_empty() {
                continue;
            }
            let j = neighbors[rng.gen_range(0..neighbors.len())];
            let (ii, jj) = (i.index(), j.index());
            let s_j = speeds.speed(jj);
            let theta = self.rule.threshold(system.tasks().weight(task));
            if snapshot.loads[ii] - snapshot.loads[jj] <= theta / s_j {
                continue;
            }
            let p = if self.printed {
                migration_probability_printed(
                    g.degree(i),
                    g.d_max_endpoint(i, j),
                    snapshot.node_weights[ii],
                    snapshot.node_weights[jj],
                    alpha,
                )
            } else {
                migration_probability(
                    g.degree(i),
                    g.d_max_endpoint(i, j),
                    snapshot.loads[ii],
                    snapshot.loads[jj],
                    speeds.speed(ii),
                    s_j,
                    snapshot.node_weights[ii],
                    alpha,
                )
            };
            if p > 0.0 && rng.gen_bool(p.min(1.0)) {
                out.push(Move { task, to: j });
            }
        }
    }
}

impl Protocol for Selfish {
    fn name(&self) -> &'static str {
        match (self.rule, self.printed) {
            (MigrationRule::Relaxed, false) => "selfish-relaxed",
            (MigrationRule::Relaxed, true) => "selfish-relaxed-printed",
            (MigrationRule::OwnWeight, _) => "selfish-own-weight",
        }
    }

    fn round(&self, system: &System, state: &mut TaskState, rng: &mut StdRng) -> RoundReport {
        let snapshot = Snapshot::capture(system, state);
        let mut moves = Vec::new();
        self.decide(
            system,
            &snapshot,
            state,
            0..system.task_count(),
            rng,
            &mut moves,
        );
        commit(system, state, &moves)
    }
}

#[cfg(test)]
mod tests {
    use super::MigrationRule::{OwnWeight, Relaxed};
    use super::*;
    use crate::engine::Simulation;
    use crate::equilibrium::{self, Threshold};
    use crate::model::{SpeedVector, TaskSet};
    use crate::potential;
    use rand::SeedableRng;
    use slb_graphs::{generators, NodeId};

    fn run_rounds(
        system: &System,
        state: &mut TaskState,
        protocol: &Selfish,
        rounds: usize,
        seed: u64,
    ) -> usize {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut migrations = 0;
        for _ in 0..rounds {
            migrations += protocol.round(system, state, &mut rng).migrations;
        }
        migrations
    }

    fn weighted_tasks(m: usize, seed: u64) -> TaskSet {
        let mut rng = StdRng::seed_from_u64(seed);
        TaskSet::weighted((0..m).map(|_| rng.gen_range(0.05..=1.0)).collect()).unwrap()
    }

    /// Runs `protocol` from a hot start until the state is a Nash
    /// equilibrium under `threshold`, or `budget` rounds elapse.
    fn reaches_nash(
        system: &System,
        state: &mut TaskState,
        protocol: &Selfish,
        threshold: Threshold,
        budget: usize,
        seed: u64,
    ) -> bool {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..budget {
            protocol.round(system, state, &mut rng);
            if equilibrium::is_nash(system, state, threshold) {
                return true;
            }
        }
        false
    }

    /// Final per-node task counts and total migrations after 30 rounds
    /// from node 0 of a hypercube with alternating speeds, under
    /// `Simulation` (seed 17), as the three per-task protocol types this
    /// one replaced produced them: `SelfishUniform` on unit tasks, and on
    /// 240 weights drawn from `U[0.05, 1]` `SelfishWeighted` (whose
    /// decisions `SelfishUniform` shared on weighted tasks) under both
    /// probability rules and `BhsBaseline`.
    #[test]
    fn pinned_trajectories_of_the_former_protocols() {
        type Run = ([usize; 8], u64);
        let cases: [(&str, Selfish, bool, Run); 4] = [
            (
                "SelfishUniform",
                Selfish::new(Relaxed),
                false,
                ([50, 52, 28, 23, 29, 28, 20, 10], 281),
            ),
            (
                "SelfishWeighted",
                Selfish::new(Relaxed),
                true,
                ([52, 51, 25, 21, 35, 28, 17, 11], 276),
            ),
            (
                "SelfishWeighted (printed)",
                Selfish::printed(),
                true,
                ([67, 36, 35, 19, 34, 20, 21, 8], 249),
            ),
            (
                "BhsBaseline",
                Selfish::new(OwnWeight),
                true,
                ([56, 48, 30, 17, 31, 28, 20, 10], 269),
            ),
        ];
        for (label, protocol, weighted, expected) in cases {
            let tasks = if weighted {
                weighted_tasks(240, 2024)
            } else {
                TaskSet::uniform(240)
            };
            let s = System::new(
                generators::hypercube(3),
                SpeedVector::integer(vec![1, 2, 1, 2, 1, 2, 1, 2]).unwrap(),
                tasks,
            )
            .unwrap();
            let counts = |st: &TaskState| std::array::from_fn(|i| st.node_task_count(NodeId(i)));
            let start = TaskState::all_on_node(&s, NodeId(0));
            let mut sim = Simulation::new(&s, protocol, start, 17);
            let moved = sim.run(30);
            assert_eq!((counts(sim.state()), moved), expected, "{label}");
        }
    }

    #[test]
    fn alg1_conserves_tasks() {
        let sys = System::new(
            generators::ring(6),
            SpeedVector::uniform(6),
            TaskSet::uniform(60),
        )
        .unwrap();
        let mut st = TaskState::all_on_node(&sys, NodeId(0));
        run_rounds(&sys, &mut st, &Selfish::new(Relaxed), 50, 7);
        st.check_invariants(&sys).unwrap();
        let total: usize = (0..6).map(|i| st.node_task_count(NodeId(i))).sum();
        assert_eq!(total, 60);
    }

    #[test]
    fn alg1_potential_decreases_from_hot_start() {
        let sys = System::new(
            generators::torus(4, 4),
            SpeedVector::uniform(16),
            TaskSet::uniform(160),
        )
        .unwrap();
        let mut st = TaskState::all_on_node(&sys, NodeId(0));
        let before = potential::report(&sys, &st).psi0;
        run_rounds(&sys, &mut st, &Selfish::new(Relaxed), 100, 3);
        let after = potential::report(&sys, &st).psi0;
        assert!(
            after < before / 4.0,
            "Ψ₀ should drop substantially: {before} → {after}"
        );
    }

    #[test]
    fn alg1_converges_to_nash_on_small_ring() {
        let sys = System::new(
            generators::ring(4),
            SpeedVector::uniform(4),
            TaskSet::uniform(16),
        )
        .unwrap();
        let mut st = TaskState::all_on_node(&sys, NodeId(2));
        let p = Selfish::new(Relaxed);
        assert!(
            reaches_nash(&sys, &mut st, &p, Threshold::UnitWeight, 5000, 11),
            "no Nash equilibrium within 5000 rounds"
        );
        st.check_invariants(&sys).unwrap();
    }

    #[test]
    fn alg1_nash_states_are_absorbing() {
        // In a Nash state no task satisfies the migration condition, so no
        // round can ever move anything.
        let sys = System::new(
            generators::path(3),
            SpeedVector::uniform(3),
            TaskSet::uniform(6),
        )
        .unwrap();
        let mut st = TaskState::from_assignment(&sys, &[0, 0, 1, 1, 2, 2]).unwrap();
        assert!(equilibrium::is_nash(&sys, &st, Threshold::UnitWeight));
        let before = st.clone();
        let moved = run_rounds(&sys, &mut st, &Selfish::new(Relaxed), 200, 5);
        assert_eq!(moved, 0);
        assert_eq!(st, before);
    }

    #[test]
    fn alg1_respects_speeds_direction() {
        // Tasks should drain towards the fast machine, not away from it.
        let sys = System::new(
            generators::path(2),
            SpeedVector::new(vec![1.0, 8.0]).unwrap(),
            TaskSet::uniform(90),
        )
        .unwrap();
        let mut st = TaskState::all_on_node(&sys, NodeId(0));
        run_rounds(&sys, &mut st, &Selfish::new(Relaxed), 400, 9);
        // Balanced would be (10, 80).
        assert!(
            st.node_task_count(NodeId(1)) > 50,
            "fast node got only {} of 90 tasks",
            st.node_task_count(NodeId(1))
        );
    }

    #[test]
    fn alg1_deterministic_given_seed() {
        let sys = System::new(
            generators::hypercube(3),
            SpeedVector::uniform(8),
            TaskSet::uniform(64),
        )
        .unwrap();
        let p = Selfish::new(Relaxed);
        let mut a = TaskState::all_on_node(&sys, NodeId(0));
        let mut b = TaskState::all_on_node(&sys, NodeId(0));
        run_rounds(&sys, &mut a, &p, 30, 42);
        run_rounds(&sys, &mut b, &p, 30, 42);
        assert_eq!(a, b);
        let mut c = TaskState::all_on_node(&sys, NodeId(0));
        run_rounds(&sys, &mut c, &p, 30, 43);
        assert_ne!(a, c, "different seeds should (a.s.) differ");
    }

    #[test]
    fn alg1_exact_alpha_still_converges() {
        let sys = System::new(
            generators::path(3),
            SpeedVector::integer(vec![1, 2, 1]).unwrap(),
            TaskSet::uniform(12),
        )
        .unwrap();
        let mut st = TaskState::all_on_node(&sys, NodeId(0));
        let p = Selfish::new(Relaxed).with_alpha(Alpha::Exact);
        assert_eq!(p.alpha(), Alpha::Exact);
        assert!(reaches_nash(
            &sys,
            &mut st,
            &p,
            Threshold::UnitWeight,
            20000,
            4
        ));
    }

    #[test]
    fn alg1_name_is_stable() {
        assert_eq!(Selfish::new(Relaxed).name(), "selfish-relaxed");
    }

    #[test]
    fn alg2_conserves_weight() {
        let sys = System::new(
            generators::torus(3, 3),
            SpeedVector::uniform(9),
            weighted_tasks(90, 1),
        )
        .unwrap();
        let total = sys.tasks().total_weight();
        let mut st = TaskState::all_on_node(&sys, NodeId(4));
        run_rounds(&sys, &mut st, &Selfish::new(Relaxed), 60, 2);
        st.check_invariants(&sys).unwrap();
        let sum: f64 = st.node_weights().iter().sum();
        assert!((sum - total).abs() < 1e-6);
    }

    #[test]
    fn alg2_reaches_relaxed_equilibrium() {
        // Algorithm 2's target: ℓ_i − ℓ_j ≤ 1/s_j on every edge.
        let sys = System::new(
            generators::ring(5),
            SpeedVector::uniform(5),
            weighted_tasks(50, 3),
        )
        .unwrap();
        let mut st = TaskState::all_on_node(&sys, NodeId(0));
        let p = Selfish::new(Relaxed);
        assert!(
            reaches_nash(&sys, &mut st, &p, Threshold::UnitWeight, 20000, 4),
            "relaxed equilibrium not reached"
        );
    }

    #[test]
    fn alg2_relaxed_equilibrium_is_absorbing() {
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
        let p = Selfish::new(Relaxed);
        for _ in 0..300 {
            let r = p.round(&sys, &mut st, &mut rng);
            assert_eq!(r.migrations, 0);
        }
        assert_eq!(st, before);
    }

    #[test]
    fn alg2_potential_drops_on_weighted_instance() {
        let sys = System::new(
            generators::hypercube(3),
            SpeedVector::new((0..8).map(|i| 1.0 + (i % 3) as f64).collect()).unwrap(),
            weighted_tasks(120, 7),
        )
        .unwrap();
        let mut st = TaskState::all_on_node(&sys, NodeId(0));
        let before = potential::report(&sys, &st).psi0;
        run_rounds(&sys, &mut st, &Selfish::new(Relaxed), 150, 8);
        let after = potential::report(&sys, &st).psi0;
        assert!(after < before / 4.0, "Ψ₀: {before} → {after}");
    }

    #[test]
    fn alg2_printed_rule_matches_def41_on_uniform_speeds() {
        // On uniform speeds the two probabilities are the same function,
        // so with the same seed they produce identical trajectories.
        let sys = System::new(
            generators::ring(6),
            SpeedVector::uniform(6),
            weighted_tasks(36, 9),
        )
        .unwrap();
        let mut a = TaskState::all_on_node(&sys, NodeId(0));
        let mut b = TaskState::all_on_node(&sys, NodeId(0));
        run_rounds(&sys, &mut a, &Selfish::new(Relaxed), 40, 10);
        run_rounds(&sys, &mut b, &Selfish::printed(), 40, 10);
        assert_eq!(a, b);
    }

    #[test]
    fn alg2_rules_have_distinct_names() {
        assert_eq!(Selfish::new(Relaxed).name(), "selfish-relaxed");
        assert_eq!(Selfish::printed().name(), "selfish-relaxed-printed");
        assert_eq!(Selfish::printed().rule(), Relaxed);
        assert_eq!(Selfish::printed().alpha(), Alpha::Approximate);
    }

    #[test]
    fn alg2_works_with_uniform_tasks_too() {
        // Algorithm 2 on weight-1 tasks degenerates to Algorithm 1.
        let sys = System::new(
            generators::path(3),
            SpeedVector::uniform(3),
            TaskSet::uniform(9),
        )
        .unwrap();
        let mut st = TaskState::all_on_node(&sys, NodeId(1));
        let p = Selfish::new(Relaxed);
        assert!(reaches_nash(
            &sys,
            &mut st,
            &p,
            Threshold::UnitWeight,
            5000,
            12
        ));
    }

    #[test]
    fn bhs_coincides_with_algorithm_1_on_uniform_tasks() {
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
        run_rounds(&sys, &mut a, &Selfish::new(Relaxed), 50, 21);
        run_rounds(&sys, &mut b, &Selfish::new(OwnWeight), 50, 21);
        assert_eq!(a, b);
    }

    #[test]
    fn bhs_keeps_moving_light_tasks_where_algorithm_2_freezes() {
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
        let bhs = Selfish::new(OwnWeight);
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
    fn bhs_exact_weighted_nash_is_absorbing() {
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
        let bhs = Selfish::new(OwnWeight);
        for _ in 0..200 {
            assert_eq!(bhs.round(&sys, &mut st, &mut rng).migrations, 0);
        }
        assert_eq!(st, before);
    }

    #[test]
    fn bhs_conserves_weight_with_speeds() {
        let sys = System::new(
            generators::torus(3, 3),
            SpeedVector::integer(vec![1, 2, 3, 1, 2, 3, 1, 2, 3]).unwrap(),
            TaskSet::weighted((0..45).map(|i| 0.1 + 0.02 * (i % 10) as f64).collect()).unwrap(),
        )
        .unwrap();
        let mut st = TaskState::all_on_node(&sys, NodeId(0));
        let bhs = Selfish::new(OwnWeight).with_alpha(Alpha::Approximate);
        run_rounds(&sys, &mut st, &bhs, 100, 7);
        st.check_invariants(&sys).unwrap();
    }

    #[test]
    fn bhs_name_is_stable() {
        assert_eq!(Selfish::new(OwnWeight).name(), "selfish-own-weight");
        assert_eq!(Selfish::new(OwnWeight).rule(), OwnWeight);
    }
}
