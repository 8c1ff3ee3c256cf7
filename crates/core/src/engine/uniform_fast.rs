//! Fast count-based simulation of Algorithm 1 for uniform tasks.
//!
//! With uniform tasks, task identity is irrelevant to the dynamics: a round
//! of Algorithm 1 is fully described by how many of node `i`'s `w_i` tasks
//! move to each neighbor. Each task independently picks neighbor `j` with
//! probability `1/deg(i)` and then migrates with probability `p_ij`, so the
//! vector of per-neighbor counts is **multinomial** with success
//! probabilities `q_j = p_ij/deg(i)` (and "stay" probability `1 − Σq_j`).
//! Sampling that multinomial directly — via chained conditional binomials —
//! replaces `O(m)` per-task work with `O(Σ_i deg(i)) = O(|E|)` plus the
//! sampled counts, a large constant-factor win for the Table 1 sweeps where
//! `m/n` is large.
//!
//! The round itself is executed by the shared count kernel
//! ([`crate::engine::kernel`]) as its one-class instantiation under the
//! weight-independent threshold rule. The binomial sampler
//! ([`crate::engine::sampling`], shared with the weight-class engines) is
//! exact (inverse-transform CDF walk) up to a mean of
//! [`NORMAL_APPROX_THRESHOLD`], beyond which a clamped normal
//! approximation takes over; at those counts the relative error is far
//! below the run-to-run variance of the protocol itself (the documented
//! substitution of `docs/ARCHITECTURE.md` § Engines).

use crate::engine::kernel::{CountKernel, RelaxedThreshold};
use crate::engine::{run_loop, RunOutcome, StopCondition};
use crate::equilibrium;
use crate::model::{SpeedVector, System};
use crate::potential;
use crate::protocol::Alpha;

pub use crate::engine::sampling::NORMAL_APPROX_THRESHOLD;

/// The count-based state: `counts[i]` tasks on node `i`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountState {
    counts: Vec<u64>,
}

impl CountState {
    /// Builds from explicit counts.
    ///
    /// # Panics
    ///
    /// Panics if `counts` is empty.
    pub fn new(counts: Vec<u64>) -> Self {
        assert!(!counts.is_empty(), "need at least one node");
        CountState { counts }
    }

    /// All `m` tasks on one node.
    ///
    /// # Panics
    ///
    /// Panics if `node >= n`.
    pub fn all_on_node(n: usize, node: usize, m: u64) -> Self {
        assert!(node < n, "node out of range");
        let mut counts = vec![0u64; n];
        counts[node] = m;
        CountState { counts }
    }

    /// The per-node counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Mutable node-major view for the count kernel (one class per node).
    pub(crate) fn counts_mut(&mut self) -> &mut [u64] {
        &mut self.counts
    }

    /// Total number of tasks.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Node weights as `f64` (uniform tasks: weight = count).
    pub fn node_weights(&self) -> Vec<f64> {
        self.counts.iter().map(|&c| c as f64).collect()
    }

    /// Loads `ℓ_i = w_i/s_i`.
    pub fn loads(&self, speeds: &SpeedVector) -> Vec<f64> {
        self.counts
            .iter()
            .zip(speeds.as_slice())
            .map(|(&c, s)| c as f64 / s)
            .collect()
    }
}

/// Count-based simulator of **Algorithm 1** (uniform tasks): the
/// single-class instantiation of the shared
/// [`CountKernel`](crate::engine::kernel) under the weight-independent
/// [`RelaxedThreshold`] rule.
#[derive(Debug)]
pub struct UniformFastSim<'a> {
    system: &'a System,
    alpha: f64,
    state: CountState,
    /// Master seed; each round's shards derive their streams from
    /// `(seed, round, shard)`, so the trajectory is thread-invariant.
    seed: u64,
    /// Worker cap for the sharded round (result-invariant).
    threads: usize,
    round: u64,
    /// The shared count kernel (reusable round scratch).
    kernel: CountKernel,
    /// Cached all-ones per-node threshold weights (uniform tasks), so the
    /// ε-Nash predicates — evaluated before every round when used as a
    /// stop rule — do not re-allocate a constant vector each call.
    unit_thresholds: Vec<f64>,
}

/// The one weight class of the uniform engine (`w = 1`).
const UNIT_CLASS: [f64; 1] = [1.0];

impl<'a> UniformFastSim<'a> {
    /// Creates the simulator.
    ///
    /// # Panics
    ///
    /// Panics if the system's tasks are not uniform, or the state total
    /// does not match the system's `m`.
    pub fn new(system: &'a System, alpha: Alpha, state: CountState, seed: u64) -> Self {
        assert!(
            system.tasks().is_uniform(),
            "fast path requires uniform tasks"
        );
        assert_eq!(
            state.total(),
            system.task_count() as u64,
            "state total must match the system's task count"
        );
        assert_eq!(
            state.counts().len(),
            system.node_count(),
            "state length must match the node count"
        );
        let nodes = state.counts().len();
        UniformFastSim {
            system,
            alpha: alpha.resolve(system.speeds()),
            state,
            seed,
            threads: 1,
            round: 0,
            kernel: CountKernel::new(),
            unit_thresholds: vec![1.0; nodes],
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
    pub fn state(&self) -> &CountState {
        &self.state
    }

    /// Rounds executed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Executes one round; returns the number of migrations.
    pub fn step(&mut self) -> u64 {
        let totals = self.kernel.step(
            self.system.graph(),
            self.system.speeds(),
            self.alpha,
            &RelaxedThreshold,
            &UNIT_CLASS,
            self.state.counts_mut(),
            self.seed,
            self.round,
            self.threads,
        );
        self.round += 1;
        totals.migrations
    }

    /// `Ψ₀` of the current state.
    pub fn psi0(&self) -> f64 {
        potential::psi0(
            &self.state.node_weights(),
            self.system.speeds(),
            self.system.tasks().total_weight(),
        )
    }

    /// Whether the current state is a (uniform-task) Nash equilibrium.
    pub fn is_nash(&self) -> bool {
        equilibrium::is_nash_uniform_loads(
            self.system.graph(),
            self.system.speeds(),
            &self.state.loads(self.system.speeds()),
            self.state.counts(),
        )
    }

    /// Whether the current state is an ε-approximate (uniform-task) Nash
    /// equilibrium, evaluated count-based — agrees exactly with
    /// [`equilibrium::is_eps_nash`] on the expanded per-task state.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ ε ≤ 1`.
    pub fn is_eps_nash(&self, eps: f64) -> bool {
        let speeds = self.system.speeds();
        equilibrium::is_eps_nash_loads(
            self.system.graph(),
            speeds,
            &self.state.loads(speeds),
            &self.unit_thresholds,
            &self.occupied(),
            eps,
        )
    }

    /// The smallest `ε` for which the current state is an ε-approximate
    /// NE (0 at an exact NE), evaluated count-based — agrees exactly with
    /// [`equilibrium::nash_gap`] on the expanded per-task state.
    pub fn nash_gap(&self) -> f64 {
        let speeds = self.system.speeds();
        equilibrium::nash_gap_loads(
            self.system.graph(),
            speeds,
            &self.state.loads(speeds),
            &self.unit_thresholds,
            &self.occupied(),
        )
    }

    fn occupied(&self) -> Vec<bool> {
        self.state.counts().iter().map(|&c| c > 0).collect()
    }

    /// Whether the stop condition currently holds (always `false` for
    /// [`StopCondition::Quiescent`], which needs the run's history). The
    /// Nash thresholds are ignored: on unit tasks both rules coincide.
    fn condition_met(&self, condition: StopCondition) -> bool {
        match condition {
            StopCondition::Nash(_) => self.is_nash(),
            StopCondition::Psi0Below(bound) => self.psi0() <= bound,
            StopCondition::EpsNash { eps, .. } => self.is_eps_nash(eps),
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
        run_loop(self, condition, max_rounds, Self::condition_met, Self::step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equilibrium::Threshold;
    use crate::model::TaskSet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use slb_graphs::generators;

    fn sys(n_graph: slb_graphs::Graph, m: usize) -> System {
        let n = n_graph.node_count();
        System::new(n_graph, SpeedVector::uniform(n), TaskSet::uniform(m)).unwrap()
    }

    #[test]
    fn count_state_accessors() {
        let cs = CountState::all_on_node(4, 1, 100);
        assert_eq!(cs.total(), 100);
        assert_eq!(cs.counts(), &[0, 100, 0, 0]);
        assert_eq!(cs.node_weights(), vec![0.0, 100.0, 0.0, 0.0]);
        let speeds = SpeedVector::new(vec![1.0, 2.0, 1.0, 1.0]).unwrap();
        assert_eq!(cs.loads(&speeds), vec![0.0, 50.0, 0.0, 0.0]);
    }

    #[test]
    fn conserves_tasks() {
        let s = sys(generators::torus(3, 3), 900);
        let mut sim = UniformFastSim::new(
            &s,
            Alpha::Approximate,
            CountState::all_on_node(9, 0, 900),
            5,
        );
        for _ in 0..100 {
            sim.step();
        }
        assert_eq!(sim.state().total(), 900);
        assert_eq!(sim.round(), 100);
    }

    #[test]
    fn converges_to_nash() {
        let s = sys(generators::ring(6), 120);
        let mut sim = UniformFastSim::new(
            &s,
            Alpha::Approximate,
            CountState::all_on_node(6, 0, 120),
            6,
        );
        let out = sim.run_until(StopCondition::Nash(Threshold::UnitWeight), 100_000);
        assert!(out.reached(), "no NE within budget");
        assert!(
            out.migrations > 0,
            "reaching NE from the hot start moves tasks"
        );
        // Nash bounds *adjacent* load gaps by 1/s_j = 1; across the ring
        // the spread can accumulate up to diam(C_6) = 3.
        assert!(sim.is_nash());
        let loads = sim.state().loads(s.speeds());
        let spread = loads.iter().cloned().fold(f64::MIN, f64::max)
            - loads.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread <= 3.0 + 1e-9, "spread {spread} exceeds diam bound");
    }

    #[test]
    fn psi0_decreases_like_task_level_protocol() {
        let s = sys(generators::hypercube(4), 1600);
        let mut sim = UniformFastSim::new(
            &s,
            Alpha::Approximate,
            CountState::all_on_node(16, 0, 1600),
            7,
        );
        let before = sim.psi0();
        for _ in 0..50 {
            sim.step();
        }
        assert!(sim.psi0() < before / 4.0);
    }

    #[test]
    fn matches_task_level_distribution_statistically() {
        // First-round expected outflow from the hot node must match
        // between the fast path and the per-task protocol: both should
        // move ~ Σ_j f_0j tasks on average.
        use crate::protocol::{Protocol, SelfishUniform};
        let s = sys(generators::ring(4), 400);
        let trials = 300;
        let mut fast_total = 0u64;
        for t in 0..trials {
            let mut sim = UniformFastSim::new(
                &s,
                Alpha::Approximate,
                CountState::all_on_node(4, 0, 400),
                1000 + t,
            );
            fast_total += sim.step();
        }
        let mut task_total = 0u64;
        for t in 0..trials {
            let mut st = crate::model::TaskState::all_on_node(&s, slb_graphs::NodeId(0));
            let mut rng = StdRng::seed_from_u64(5000 + t);
            task_total += SelfishUniform::new()
                .round(&s, &mut st, &mut rng)
                .migrations as u64;
        }
        let fast_mean = fast_total as f64 / trials as f64;
        let task_mean = task_total as f64 / trials as f64;
        // Both estimate the same expectation; allow generous sampling slack.
        assert!(
            (fast_mean - task_mean).abs() < 0.15 * task_mean.max(1.0),
            "fast {fast_mean} vs task-level {task_mean}"
        );
    }

    #[test]
    fn run_until_psi0_stops() {
        let s = sys(generators::complete(8), 800);
        let mut sim = UniformFastSim::new(
            &s,
            Alpha::Approximate,
            CountState::all_on_node(8, 0, 800),
            8,
        );
        let start = sim.psi0();
        let out = sim.run_until(StopCondition::Psi0Below(start / 100.0), 100_000);
        assert!(out.reached());
        assert!(sim.psi0() <= start / 100.0);
    }

    #[test]
    fn eps_nash_and_gap_match_expanded_state() {
        use crate::model::TaskState;
        let s = sys(generators::ring(5), 60);
        let mut sim =
            UniformFastSim::new(&s, Alpha::Approximate, CountState::all_on_node(5, 0, 60), 3);
        for _ in 0..10 {
            // Expand the counts into an explicit per-task assignment and
            // compare the predicates exactly.
            let mut assignment = Vec::with_capacity(60);
            for (node, &c) in sim.state().counts().iter().enumerate() {
                assignment.extend(std::iter::repeat_n(node, c as usize));
            }
            let st = TaskState::from_assignment(&s, &assignment).unwrap();
            assert_eq!(
                sim.nash_gap(),
                equilibrium::nash_gap(&s, &st, Threshold::UnitWeight)
            );
            for eps in [0.0, 0.1, 0.5, 1.0] {
                assert_eq!(
                    sim.is_eps_nash(eps),
                    equilibrium::is_eps_nash(&s, &st, Threshold::UnitWeight, eps)
                );
            }
            sim.step();
        }
    }

    #[test]
    fn run_until_eps_nash_stops_before_exact() {
        let s = sys(generators::ring(6), 240);
        let run = |condition: StopCondition| {
            let mut sim = UniformFastSim::new(
                &s,
                Alpha::Approximate,
                CountState::all_on_node(6, 0, 240),
                17,
            );
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
    fn observer_sees_every_round() {
        // `run_until` accounts for every round it executes: a twin on the
        // same seed, stepped `rounds` times by hand, sees the same
        // migrations and lands on the same state.
        let s = sys(generators::ring(6), 120);
        let sim = || {
            UniformFastSim::new(
                &s,
                Alpha::Approximate,
                CountState::all_on_node(6, 0, 120),
                19,
            )
        };
        let mut run = sim();
        let out = run.run_until(StopCondition::Nash(Threshold::UnitWeight), 50_000);
        assert!(out.reached());
        assert_eq!(run.round(), out.rounds);
        let mut twin = sim();
        let mut migrations = 0;
        for _ in 0..out.rounds {
            migrations += twin.step();
            assert_eq!(twin.state().total(), 120);
        }
        assert_eq!(migrations, out.migrations);
        assert_eq!(twin.state(), run.state());
    }

    #[test]
    #[should_panic(expected = "fast path requires uniform tasks")]
    fn weighted_tasks_rejected() {
        let s = System::new(
            generators::path(2),
            SpeedVector::uniform(2),
            TaskSet::weighted(vec![0.5, 0.5]).unwrap(),
        )
        .unwrap();
        let _ = UniformFastSim::new(&s, Alpha::Approximate, CountState::new(vec![2, 0]), 1);
    }

    #[test]
    #[should_panic(expected = "state total must match")]
    fn total_mismatch_rejected() {
        let s = sys(generators::path(2), 5);
        let _ = UniformFastSim::new(&s, Alpha::Approximate, CountState::new(vec![2, 2]), 1);
    }
}
