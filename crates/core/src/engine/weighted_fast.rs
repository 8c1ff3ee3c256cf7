//! Fast count-based simulation of the weighted selfish protocol
//! (Algorithm 1's dynamics under the Definition-4.1 weighted rule).
//!
//! The §4 design point of the paper — a task's migration decision *does
//! not depend on its own weight* — is exactly an exchangeability
//! statement: every task on node `i` faces the same threshold
//! `ℓ_i − ℓ_j > 1/s_j` and the same migration probability `p_ij`
//! ([`migration_probability`](crate::protocol::migration_probability),
//! the Definition-4.1-consistent rule of
//! [`crate::protocol::SelfishWeighted`]). Tasks of equal weight on the
//! same node are therefore interchangeable, and a round is fully described
//! by, for every (node, weight class), how many of its tasks move to each
//! neighbor — a **multinomial** with per-destination probabilities
//! `q_j = p_ij/deg(i)`, sampled via the chained conditional binomials of
//! [`crate::engine::sampling`]. This generalizes
//! [`UniformFastSim`](crate::engine::uniform_fast::UniformFastSim) (the
//! one-class case) to weighted tasks and heterogeneous speeds: `O(|E| +
//! n·k)` work per round for `k` weight classes instead of `O(m)` per-task
//! sampling — distributionally identical, and a large win on the paper's
//! headline `alg1 × weighted` regime where `m/n` is large.
//!
//! Finite-support weight distributions (unit, bimodal) map to classes
//! losslessly; continuous ones are quantized by the workloads layer
//! (`slb_workloads::weight_classes`) — the documented approximation for
//! this engine, alongside the shared normal-approximation substitution of
//! the binomial sampler.
//!
//! The round itself is executed by the shared count kernel
//! ([`crate::engine::kernel`]) under the weight-independent
//! [`RelaxedThreshold`] rule;
//! [`SpeedFastSim`](crate::engine::speed_fast::SpeedFastSim) runs the
//! same kernel for Algorithm 2 and the \[6\] baseline.

use crate::engine::kernel::{self, CountKernel, RelaxedThreshold, StepTotals};
use crate::engine::{run_loop, RunOutcome, StopCondition};
use crate::equilibrium::{self, Threshold};
use crate::model::{SpeedVector, System};
use crate::potential;
use crate::protocol::Alpha;

/// The count-based state of the weight-class engine:
/// `counts[node][class]` tasks of weight `class_weights[class]`.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassCountState {
    class_weights: Vec<f64>,
    /// Node-major: `counts[node * classes + class]`.
    counts: Vec<u64>,
    nodes: usize,
}

impl ClassCountState {
    /// Builds from per-node class counts.
    ///
    /// # Panics
    ///
    /// Panics if `class_weights` is empty or contains a weight outside
    /// `(0, 1]`, if `per_node` is empty, or if any row's length differs
    /// from the class count.
    pub fn new(class_weights: Vec<f64>, per_node: Vec<Vec<u64>>) -> Self {
        assert!(!class_weights.is_empty(), "need at least one weight class");
        assert!(
            class_weights
                .iter()
                .all(|&w| w > 0.0 && w <= 1.0 && w.is_finite()),
            "class weights must lie in (0, 1]"
        );
        assert!(!per_node.is_empty(), "need at least one node");
        let k = class_weights.len();
        let nodes = per_node.len();
        let mut counts = Vec::with_capacity(nodes * k);
        for row in per_node {
            assert_eq!(row.len(), k, "one count per class per node");
            counts.extend_from_slice(&row);
        }
        ClassCountState {
            class_weights,
            counts,
            nodes,
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Number of weight classes `k`.
    pub fn classes(&self) -> usize {
        self.class_weights.len()
    }

    /// The class weights.
    pub fn class_weights(&self) -> &[f64] {
        &self.class_weights
    }

    /// The per-class counts of one node.
    pub fn counts(&self, node: usize) -> &[u64] {
        let k = self.classes();
        &self.counts[node * k..(node + 1) * k]
    }

    /// Split borrow for the count kernel: the class weights alongside the
    /// mutable node-major counts.
    pub(crate) fn kernel_view(&mut self) -> (&[f64], &mut [u64]) {
        (&self.class_weights, &mut self.counts)
    }

    /// Tasks hosted on one node (all classes).
    pub fn node_task_count(&self, node: usize) -> u64 {
        self.counts(node).iter().sum()
    }

    /// Total number of tasks.
    pub fn total_tasks(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total tasks of one class across all nodes.
    pub fn class_total(&self, class: usize) -> u64 {
        (0..self.nodes).map(|v| self.counts(v)[class]).sum()
    }

    /// `W_i = Σ_c counts[i][c] · w_c` for one node.
    pub fn node_weight(&self, node: usize) -> f64 {
        self.counts(node)
            .iter()
            .zip(&self.class_weights)
            .map(|(&c, &w)| c as f64 * w)
            .sum()
    }

    /// All node weights.
    pub fn node_weights(&self) -> Vec<f64> {
        (0..self.nodes).map(|v| self.node_weight(v)).collect()
    }

    /// Total weight `W`.
    pub fn total_weight(&self) -> f64 {
        (0..self.nodes).map(|v| self.node_weight(v)).sum()
    }

    /// Loads `ℓ_i = W_i/s_i`.
    pub fn loads(&self, speeds: &SpeedVector) -> Vec<f64> {
        (0..self.nodes)
            .map(|v| self.node_weight(v) / speeds.speed(v))
            .collect()
    }

    /// The lightest class weight present on a node, if any task is hosted.
    pub fn min_weight_present(&self, node: usize) -> Option<f64> {
        self.counts(node)
            .iter()
            .zip(&self.class_weights)
            .filter(|(&c, _)| c > 0)
            .map(|(_, &w)| w)
            .fold(None, |acc, w| Some(acc.map_or(w, |a: f64| a.min(w))))
    }
}

/// Count-based simulator of the **weighted selfish protocol** (the
/// Definition-4.1 rule Algorithm 2 executes per task).
///
/// The state's class weights may be a quantization of the system's task
/// weights, so only the task *count* is checked against the system; `Ψ₀`
/// and equilibrium predicates are evaluated against the state's own
/// (possibly quantized) weights.
#[derive(Debug)]
pub struct WeightedFastSim<'a> {
    system: &'a System,
    alpha: f64,
    state: ClassCountState,
    /// Master seed; each round's shards derive their streams from
    /// `(seed, round, shard)`, so the trajectory is thread-invariant.
    seed: u64,
    /// Worker cap for the sharded round (result-invariant).
    threads: usize,
    round: u64,
    /// The shared count kernel (reusable round scratch).
    kernel: CountKernel,
}

impl<'a> WeightedFastSim<'a> {
    /// Creates the simulator.
    ///
    /// # Panics
    ///
    /// Panics if the state's node count or total task count does not match
    /// the system's.
    pub fn new(system: &'a System, alpha: Alpha, state: ClassCountState, seed: u64) -> Self {
        assert_eq!(
            state.nodes(),
            system.node_count(),
            "state node count must match the system"
        );
        assert_eq!(
            state.total_tasks(),
            system.task_count() as u64,
            "state total must match the system's task count"
        );
        WeightedFastSim {
            system,
            alpha: alpha.resolve(system.speeds()),
            state,
            seed,
            threads: 1,
            round: 0,
            kernel: CountKernel::new(),
        }
    }

    /// Caps the worker fan-out of the sharded round. The trajectory is
    /// identical at any value (shard streams depend only on
    /// `(seed, round, shard)`); only wall-clock changes.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The current counts.
    pub fn state(&self) -> &ClassCountState {
        &self.state
    }

    /// Rounds executed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Executes one round (one step of the shared count kernel under the
    /// weight-independent §4 rule).
    pub fn step(&mut self) -> StepTotals {
        let (class_weights, counts) = self.state.kernel_view();
        let totals = self.kernel.step(
            self.system.graph(),
            self.system.speeds(),
            self.alpha,
            &RelaxedThreshold,
            class_weights,
            counts,
            self.seed,
            self.round,
            self.threads,
        );
        self.round += 1;
        totals
    }

    /// `Ψ₀` of the current state (against the state's class weights).
    pub fn psi0(&self) -> f64 {
        potential::psi0(
            &self.state.node_weights(),
            self.system.speeds(),
            self.state.total_weight(),
        )
    }

    /// Whether the current state is a Nash equilibrium under `threshold`
    /// ([`Threshold::UnitWeight`] is Algorithm 2's relaxed absorbing
    /// condition; [`Threshold::LightestTask`] uses the lightest *class*
    /// present on each node).
    pub fn is_nash(&self, threshold: Threshold) -> bool {
        let speeds = self.system.speeds();
        let (loads, thresholds, occupied) = self.equilibrium_inputs(threshold);
        equilibrium::is_nash_loads(self.system.graph(), speeds, &loads, &thresholds, &occupied)
    }

    /// Whether the current state is an ε-approximate Nash equilibrium
    /// under `threshold`, evaluated count-based against the state's own
    /// (possibly quantized) class weights — agrees exactly with
    /// [`equilibrium::is_eps_nash`] on the expanded per-task state when
    /// the classes are lossless.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ ε ≤ 1`.
    pub fn is_eps_nash(&self, threshold: Threshold, eps: f64) -> bool {
        let speeds = self.system.speeds();
        let (loads, thresholds, occupied) = self.equilibrium_inputs(threshold);
        equilibrium::is_eps_nash_loads(
            self.system.graph(),
            speeds,
            &loads,
            &thresholds,
            &occupied,
            eps,
        )
    }

    /// The smallest `ε` for which the current state is an ε-approximate
    /// NE under `threshold` (0 at an exact NE), evaluated count-based —
    /// agrees exactly with [`equilibrium::nash_gap`] on the expanded
    /// per-task state when the classes are lossless.
    pub fn nash_gap(&self, threshold: Threshold) -> f64 {
        let speeds = self.system.speeds();
        let (loads, thresholds, occupied) = self.equilibrium_inputs(threshold);
        equilibrium::nash_gap_loads(self.system.graph(), speeds, &loads, &thresholds, &occupied)
    }

    /// Loads, per-node threshold weights and occupancy for the equilibrium
    /// predicates (shared by the exact, ε and gap forms).
    fn equilibrium_inputs(&self, threshold: Threshold) -> (Vec<f64>, Vec<f64>, Vec<bool>) {
        kernel::class_equilibrium_inputs(&self.state, self.system.speeds(), threshold)
    }

    /// Whether the stop condition currently holds (always `false` for
    /// [`StopCondition::Quiescent`], which needs the run's history).
    fn condition_met(&self, condition: StopCondition) -> bool {
        match condition {
            StopCondition::Nash(threshold) => self.is_nash(threshold),
            StopCondition::Psi0Below(bound) => self.psi0() <= bound,
            StopCondition::EpsNash { threshold, eps } => self.is_eps_nash(threshold, eps),
            StopCondition::Quiescent(_) => false,
        }
    }

    /// Runs until `condition` holds (checked before every round, so a
    /// satisfied initial state costs zero rounds) or `max_rounds` elapse —
    /// the run loop of [`Simulation::run_until`](crate::engine::Simulation::run_until).
    ///
    /// # Panics
    ///
    /// Panics on an ε-Nash condition unless `0 ≤ ε ≤ 1`.
    pub fn run_until(&mut self, condition: StopCondition, max_rounds: u64) -> RunOutcome {
        run_loop(self, condition, max_rounds, Self::condition_met, |sim| {
            sim.step().migrations
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TaskSet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use slb_graphs::generators;

    /// A 2-class system: `m` tasks alternating between weights 0.25 and 1.
    fn two_class_sys(graph: slb_graphs::Graph, m: usize) -> System {
        let n = graph.node_count();
        let weights: Vec<f64> = (0..m)
            .map(|t| if t % 2 == 0 { 0.25 } else { 1.0 })
            .collect();
        System::new(
            graph,
            SpeedVector::uniform(n),
            TaskSet::weighted(weights).unwrap(),
        )
        .unwrap()
    }

    fn hot_state(n: usize, per_class: &[u64]) -> ClassCountState {
        let k = per_class.len();
        let mut per_node = vec![vec![0u64; k]; n];
        per_node[0] = per_class.to_vec();
        ClassCountState::new(vec![0.25, 1.0][..k].to_vec(), per_node)
    }

    #[test]
    fn class_count_state_accessors() {
        let st = ClassCountState::new(vec![0.5, 1.0], vec![vec![2, 1], vec![0, 0], vec![4, 0]]);
        assert_eq!(st.nodes(), 3);
        assert_eq!(st.classes(), 2);
        assert_eq!(st.counts(0), &[2, 1]);
        assert_eq!(st.node_task_count(0), 3);
        assert_eq!(st.total_tasks(), 7);
        assert_eq!(st.class_total(0), 6);
        assert_eq!(st.class_total(1), 1);
        assert!((st.node_weight(0) - 2.0).abs() < 1e-12);
        assert!((st.node_weight(2) - 2.0).abs() < 1e-12);
        assert!((st.total_weight() - 4.0).abs() < 1e-12);
        assert_eq!(st.min_weight_present(0), Some(0.5));
        assert_eq!(st.min_weight_present(1), None);
        assert_eq!(st.min_weight_present(2), Some(0.5));
        let speeds = SpeedVector::new(vec![1.0, 1.0, 4.0]).unwrap();
        let loads = st.loads(&speeds);
        assert!((loads[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "class weights must lie in (0, 1]")]
    fn bad_class_weight_rejected() {
        let _ = ClassCountState::new(vec![1.5], vec![vec![1]]);
    }

    #[test]
    #[should_panic(expected = "one count per class per node")]
    fn ragged_counts_rejected() {
        let _ = ClassCountState::new(vec![0.5, 1.0], vec![vec![1, 2], vec![3]]);
    }

    #[test]
    #[should_panic(expected = "state total must match")]
    fn total_mismatch_rejected() {
        let sys = two_class_sys(generators::path(2), 6);
        let _ = WeightedFastSim::new(&sys, Alpha::Approximate, hot_state(2, &[1, 1]), 1);
    }

    #[test]
    fn conserves_per_class_totals() {
        let sys = two_class_sys(generators::torus(3, 3), 900);
        let mut sim = WeightedFastSim::new(&sys, Alpha::Approximate, hot_state(9, &[450, 450]), 5);
        for _ in 0..100 {
            sim.step();
        }
        assert_eq!(sim.round(), 100);
        assert_eq!(sim.state().class_total(0), 450);
        assert_eq!(sim.state().class_total(1), 450);
        assert!((sim.state().total_weight() - (450.0 * 0.25 + 450.0)).abs() < 1e-6);
    }

    #[test]
    fn reaches_relaxed_equilibrium_from_hot_start() {
        let sys = two_class_sys(generators::ring(6), 120);
        let mut sim = WeightedFastSim::new(&sys, Alpha::Approximate, hot_state(6, &[60, 60]), 6);
        let out = sim.run_until(StopCondition::Nash(Threshold::UnitWeight), 100_000);
        assert!(out.reached(), "no relaxed NE within budget");
        assert!(out.migrations > 0, "the hot start must move tasks");
        assert!(sim.is_nash(Threshold::UnitWeight));
        // ℓ_i − ℓ_j ≤ 1/s_j on every edge at the absorbing state.
        let loads = sim.state().loads(sys.speeds());
        for &(a, b) in sys.graph().edges() {
            let gap = (loads[a.index()] - loads[b.index()]).abs();
            assert!(gap <= 1.0 + 1e-9, "edge gap {gap} exceeds 1");
        }
    }

    #[test]
    fn relaxed_equilibrium_is_absorbing() {
        // Loads (0.9, 0) on a path: gap ≤ 1 → the weight-independent rule
        // moves nothing, ever (the §4 design point, count-based).
        let weights = vec![0.3; 3];
        let sys = System::new(
            generators::path(2),
            SpeedVector::uniform(2),
            TaskSet::weighted(weights).unwrap(),
        )
        .unwrap();
        let state = ClassCountState::new(vec![0.3], vec![vec![3], vec![0]]);
        let mut sim = WeightedFastSim::new(&sys, Alpha::Approximate, state, 7);
        assert!(sim.is_nash(Threshold::UnitWeight));
        assert!(!sim.is_nash(Threshold::LightestTask));
        for _ in 0..200 {
            let report = sim.step();
            assert_eq!(report.migrations, 0);
            assert_eq!(report.migrated_weight, 0.0);
        }
        assert_eq!(sim.state().counts(0), &[3]);
    }

    #[test]
    fn psi0_decreases_like_task_level_protocol() {
        let sys = two_class_sys(generators::hypercube(4), 1600);
        let mut sim = WeightedFastSim::new(&sys, Alpha::Approximate, hot_state(16, &[800, 800]), 8);
        let before = sim.psi0();
        for _ in 0..60 {
            sim.step();
        }
        assert!(sim.psi0() < before / 4.0, "Ψ₀ barely moved");
    }

    #[test]
    fn heterogeneous_speeds_balance_by_load_not_count() {
        // Speeds (1, 4) on a path: at the relaxed equilibrium the fast
        // node must carry most of the weight.
        let m = 200;
        let weights: Vec<f64> = (0..m).map(|t| if t % 2 == 0 { 0.5 } else { 1.0 }).collect();
        let sys = System::new(
            generators::path(2),
            SpeedVector::integer(vec![1, 4]).unwrap(),
            TaskSet::weighted(weights).unwrap(),
        )
        .unwrap();
        let state = ClassCountState::new(vec![0.5, 1.0], vec![vec![100, 100], vec![0, 0]]);
        let mut sim = WeightedFastSim::new(&sys, Alpha::Approximate, state, 9);
        let out = sim.run_until(StopCondition::Nash(Threshold::UnitWeight), 100_000);
        assert!(out.reached());
        let w_fast = sim.state().node_weight(1);
        assert!(
            w_fast > 0.7 * sim.state().total_weight(),
            "fast node carries only {w_fast}"
        );
    }

    #[test]
    fn first_round_outflow_matches_task_level_mean() {
        use crate::model::TaskState;
        use crate::protocol::{Protocol, SelfishWeighted};
        let sys = two_class_sys(generators::ring(4), 400);
        let trials = 300u64;
        let mut fast_total = 0u64;
        for t in 0..trials {
            let mut sim = WeightedFastSim::new(
                &sys,
                Alpha::Approximate,
                hot_state(4, &[200, 200]),
                1000 + t,
            );
            fast_total += sim.step().migrations;
        }
        let mut task_total = 0u64;
        for t in 0..trials {
            let mut st = TaskState::all_on_node(&sys, slb_graphs::NodeId(0));
            let mut rng = StdRng::seed_from_u64(5000 + t);
            task_total += SelfishWeighted::new()
                .round(&sys, &mut st, &mut rng)
                .migrations as u64;
        }
        let fast_mean = fast_total as f64 / trials as f64;
        let task_mean = task_total as f64 / trials as f64;
        assert!(
            (fast_mean - task_mean).abs() < 0.15 * task_mean.max(1.0),
            "fast {fast_mean} vs task-level {task_mean}"
        );
    }

    #[test]
    fn eps_nash_and_gap_match_expanded_state() {
        use crate::model::{TaskSet, TaskState};
        // Dyadic weights: per-node sums are exact in f64, so the expanded
        // per-task evaluation is bit-identical to the count-based one.
        let n = 4;
        let per_node = [[3u64, 1], [0, 2], [5, 0], [0, 0]];
        let class_weights = [0.25f64, 1.0];
        let mut task_weights = Vec::new();
        let mut assignment = Vec::new();
        for (node, row) in per_node.iter().enumerate() {
            for (c, &count) in row.iter().enumerate() {
                for _ in 0..count {
                    task_weights.push(class_weights[c]);
                    assignment.push(node);
                }
            }
        }
        let sys = System::new(
            generators::ring(n),
            SpeedVector::integer(vec![1, 2, 1, 4]).unwrap(),
            TaskSet::weighted(task_weights).unwrap(),
        )
        .unwrap();
        let st = TaskState::from_assignment(&sys, &assignment).unwrap();
        let state = ClassCountState::new(
            class_weights.to_vec(),
            per_node.iter().map(|r| r.to_vec()).collect(),
        );
        let sim = WeightedFastSim::new(&sys, Alpha::Approximate, state, 1);
        for threshold in [Threshold::UnitWeight, Threshold::LightestTask] {
            assert_eq!(
                sim.nash_gap(threshold),
                equilibrium::nash_gap(&sys, &st, threshold)
            );
            for eps in [0.0, 0.3, 1.0] {
                assert_eq!(
                    sim.is_eps_nash(threshold, eps),
                    equilibrium::is_eps_nash(&sys, &st, threshold, eps)
                );
            }
        }
    }

    #[test]
    fn eps_nash_stop_halts_no_later_than_exact() {
        let sys = two_class_sys(generators::ring(6), 240);
        let run = |condition: StopCondition| {
            let mut sim =
                WeightedFastSim::new(&sys, Alpha::Approximate, hot_state(6, &[120, 120]), 21);
            let out = sim.run_until(condition, 100_000);
            assert!(out.reached());
            out.rounds
        };
        let approx = run(StopCondition::EpsNash {
            threshold: Threshold::UnitWeight,
            eps: 0.5,
        });
        let exact = run(StopCondition::Nash(Threshold::UnitWeight));
        assert!(approx <= exact, "ε-NE ({approx}) after exact NE ({exact})");
    }

    #[test]
    fn run_until_psi0_stops() {
        let sys = two_class_sys(generators::complete(8), 800);
        let mut sim = WeightedFastSim::new(&sys, Alpha::Approximate, hot_state(8, &[400, 400]), 10);
        let start = sim.psi0();
        let out = sim.run_until(StopCondition::Psi0Below(start / 100.0), 100_000);
        assert!(out.reached());
        assert!(sim.psi0() <= start / 100.0);
    }

    #[test]
    fn observer_sees_every_round() {
        // `run_until` accounts for every round it executes: a twin on the
        // same seed, stepped `rounds` times by hand, sees the same
        // migrations and lands on the same state.
        let sys = two_class_sys(generators::ring(6), 120);
        let sim = || WeightedFastSim::new(&sys, Alpha::Approximate, hot_state(6, &[60, 60]), 11);
        let mut run = sim();
        let out = run.run_until(StopCondition::Nash(Threshold::UnitWeight), 50_000);
        assert!(out.reached());
        assert_eq!(run.round(), out.rounds);
        let mut twin = sim();
        let (mut migrations, mut weight) = (0, 0.0);
        for _ in 0..out.rounds {
            let r = twin.step();
            migrations += r.migrations;
            weight += r.migrated_weight;
            assert_eq!(twin.state().total_tasks(), 120);
        }
        assert_eq!(migrations, out.migrations);
        assert!(weight > 0.0);
        assert_eq!(twin.state(), run.state());
    }

    #[test]
    fn single_class_reduces_to_uniform_engine_semantics() {
        // One class of weight 1 is exactly the uniform-task setting; the
        // engines run different protocol *rules* (own-weight vs relaxed
        // threshold) which coincide at w = 1, so both must quiesce to the
        // same equilibrium condition.
        let n = 6;
        let m = 120usize;
        let sys = System::new(
            generators::ring(n),
            SpeedVector::uniform(n),
            TaskSet::weighted(vec![1.0; m]).unwrap(),
        )
        .unwrap();
        let state = ClassCountState::new(
            vec![1.0],
            (0..n)
                .map(|v| vec![if v == 0 { m as u64 } else { 0 }])
                .collect(),
        );
        let mut sim = WeightedFastSim::new(&sys, Alpha::Approximate, state, 12);
        let out = sim.run_until(StopCondition::Nash(Threshold::UnitWeight), 100_000);
        assert!(out.reached());
        let loads = sim.state().loads(sys.speeds());
        for &(a, b) in sys.graph().edges() {
            assert!((loads[a.index()] - loads[b.index()]).abs() <= 1.0 + 1e-9);
        }
    }
}
