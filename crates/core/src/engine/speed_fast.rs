//! Fast count-based simulation of the **speed-aware per-task protocols**:
//! Algorithm 2 (`SelfishWeighted`, the Definition-4.1 rule) and the \[6\]
//! baseline (`BhsBaseline`), on arbitrary speed vectors.
//!
//! These are the protocols the paper's headline results (Theorems
//! 1.2/1.3) are about, and they admit the same exchangeability collapse
//! as the Algorithm 1 engines: the migration probability `p_ij`
//! ([`crate::protocol::migration_probability`]) depends only on
//! `(ℓ_i, ℓ_j, s_i, s_j, W_i, α)` — never on task identity — and the
//! migration condition depends on a task only through its weight class
//! (`θ = 1` for Algorithm 2's weight-independent rule, `θ = w` for the
//! \[6\] per-task rule). Equal-weight tasks on a node are therefore
//! exchangeable, and a round is one multinomial per `(node, weight
//! class)`: `O(|E| + n·k)` work instead of the per-task engines' `O(m)`.
//!
//! Both rules run on the shared [`crate::engine::kernel`]; the \[6\]
//! baseline additionally filters each node's destination row per class
//! (light classes can use edges the heavy ones cannot). The engine reuses
//! the weight-class state [`ClassCountState`] of
//! [`weighted_fast`](crate::engine::weighted_fast), and stops on the
//! shared [`StopCondition`] like every engine.
//!
//! Approximations (both documented, both shared with the other count
//! engines): continuous weight distributions are quantized into classes
//! by the workloads layer — for the \[6\] rule this also quantizes the
//! per-task *threshold* to the class weight — and the binomial sampler
//! substitutes a clamped normal above mean
//! [`NORMAL_APPROX_THRESHOLD`](crate::engine::sampling::NORMAL_APPROX_THRESHOLD).

use crate::engine::kernel::{self, CountKernel, OwnWeightThreshold, RelaxedThreshold, StepTotals};
use crate::engine::weighted_fast::ClassCountState;
use crate::engine::{run_loop, RunOutcome, StopCondition};
use crate::equilibrium::{self, Threshold};
use crate::model::System;
use crate::potential;
use crate::protocol::Alpha;

/// Which speed-aware per-task protocol the engine simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpeedFastRule {
    /// Algorithm 2 (`selfish-weighted`): the weight-independent threshold
    /// `ℓ_i − ℓ_j > 1/s_j` shared by every task on a node.
    Alg2,
    /// The \[6\] baseline (`bhs-baseline`): each task's own weight as the
    /// threshold, `ℓ_i − ℓ_j > w/s_j`.
    Bhs,
}

impl SpeedFastRule {
    /// The matching per-task protocol's name (for reports and CSV).
    pub fn protocol_name(self) -> &'static str {
        match self {
            SpeedFastRule::Alg2 => "selfish-weighted",
            SpeedFastRule::Bhs => "bhs-baseline",
        }
    }
}

/// Count-based simulator of **Algorithm 2** and the **\[6\] baseline** on
/// weighted tasks and heterogeneous speeds.
///
/// The state's class weights may be a quantization of the system's task
/// weights, so only the task *count* is checked against the system; `Ψ₀`
/// and the equilibrium predicates are evaluated against the state's own
/// (possibly quantized) weights — exactly as in
/// [`WeightedFastSim`](crate::engine::weighted_fast::WeightedFastSim).
///
/// # Example
///
/// ```
/// use slb_core::engine::speed_fast::{SpeedFastRule, SpeedFastSim};
/// use slb_core::engine::weighted_fast::ClassCountState;
/// use slb_core::engine::StopCondition;
/// use slb_core::equilibrium::Threshold;
/// use slb_core::model::{SpeedVector, System, TaskSet};
/// use slb_core::protocol::Alpha;
/// use slb_graphs::generators;
///
/// let weights: Vec<f64> = (0..60).map(|t| if t % 2 == 0 { 0.25 } else { 1.0 }).collect();
/// let system = System::new(
///     generators::ring(6),
///     SpeedVector::integer(vec![1, 2, 1, 2, 1, 2])?,
///     TaskSet::weighted(weights)?,
/// )?;
/// let mut per_node = vec![vec![0u64; 2]; 6];
/// per_node[0] = vec![30, 30];
/// let state = ClassCountState::new(vec![0.25, 1.0], per_node);
/// let mut sim = SpeedFastSim::new(&system, SpeedFastRule::Alg2, Alpha::Approximate, state, 7);
/// let out = sim.run_until(StopCondition::Nash(Threshold::UnitWeight), 100_000);
/// assert!(out.reached() && out.migrations > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct SpeedFastSim<'a> {
    system: &'a System,
    rule: SpeedFastRule,
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

impl<'a> SpeedFastSim<'a> {
    /// Creates the simulator.
    ///
    /// # Panics
    ///
    /// Panics if the state's node count or total task count does not match
    /// the system's.
    pub fn new(
        system: &'a System,
        rule: SpeedFastRule,
        alpha: Alpha,
        state: ClassCountState,
        seed: u64,
    ) -> Self {
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
        SpeedFastSim {
            system,
            rule,
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

    /// The simulated protocol rule.
    pub fn rule(&self) -> SpeedFastRule {
        self.rule
    }

    /// Rounds executed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Executes one round (one step of the shared count kernel under this
    /// engine's threshold rule).
    pub fn step(&mut self) -> StepTotals {
        let (class_weights, counts) = self.state.kernel_view();
        let totals = match self.rule {
            SpeedFastRule::Alg2 => self.kernel.step(
                self.system.graph(),
                self.system.speeds(),
                self.alpha,
                &RelaxedThreshold,
                class_weights,
                counts,
                self.seed,
                self.round,
                self.threads,
            ),
            SpeedFastRule::Bhs => self.kernel.step(
                self.system.graph(),
                self.system.speeds(),
                self.alpha,
                &OwnWeightThreshold,
                class_weights,
                counts,
                self.seed,
                self.round,
                self.threads,
            ),
        };
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
    /// condition; [`Threshold::LightestTask`] is the exact weighted NE the
    /// \[6\] baseline converges to).
    pub fn is_nash(&self, threshold: Threshold) -> bool {
        let (loads, thresholds, occupied) =
            kernel::class_equilibrium_inputs(&self.state, self.system.speeds(), threshold);
        equilibrium::is_nash_loads(
            self.system.graph(),
            self.system.speeds(),
            &loads,
            &thresholds,
            &occupied,
        )
    }

    /// Whether the current state is an ε-approximate Nash equilibrium
    /// under `threshold`, evaluated count-based against the state's own
    /// (possibly quantized) class weights.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ ε ≤ 1`.
    pub fn is_eps_nash(&self, threshold: Threshold, eps: f64) -> bool {
        let (loads, thresholds, occupied) =
            kernel::class_equilibrium_inputs(&self.state, self.system.speeds(), threshold);
        equilibrium::is_eps_nash_loads(
            self.system.graph(),
            self.system.speeds(),
            &loads,
            &thresholds,
            &occupied,
            eps,
        )
    }

    /// The smallest `ε` for which the current state is an ε-approximate
    /// NE under `threshold` (0 at an exact NE), evaluated count-based.
    pub fn nash_gap(&self, threshold: Threshold) -> f64 {
        let (loads, thresholds, occupied) =
            kernel::class_equilibrium_inputs(&self.state, self.system.speeds(), threshold);
        equilibrium::nash_gap_loads(
            self.system.graph(),
            self.system.speeds(),
            &loads,
            &thresholds,
            &occupied,
        )
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
    use crate::model::{SpeedVector, TaskSet, TaskState};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use slb_graphs::generators;

    /// A 2-class system: `m` tasks alternating between weights 0.25 and 1,
    /// on alternating speeds 1 and 2.
    fn two_class_sys(graph: slb_graphs::Graph, m: usize) -> System {
        let n = graph.node_count();
        let weights: Vec<f64> = (0..m)
            .map(|t| if t % 2 == 0 { 0.25 } else { 1.0 })
            .collect();
        System::new(
            graph,
            SpeedVector::integer((0..n as u64).map(|i| 1 + i % 2).collect()).unwrap(),
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
    #[should_panic(expected = "state total must match")]
    fn total_mismatch_rejected() {
        let sys = two_class_sys(generators::path(2), 6);
        let _ = SpeedFastSim::new(
            &sys,
            SpeedFastRule::Alg2,
            Alpha::Approximate,
            hot_state(2, &[1, 1]),
            1,
        );
    }

    #[test]
    fn rule_and_name_accessors() {
        let sys = two_class_sys(generators::path(2), 4);
        let sim = SpeedFastSim::new(
            &sys,
            SpeedFastRule::Bhs,
            Alpha::Approximate,
            hot_state(2, &[2, 2]),
            1,
        );
        assert_eq!(sim.rule(), SpeedFastRule::Bhs);
        assert_eq!(sim.round(), 0);
        assert_eq!(SpeedFastRule::Alg2.protocol_name(), "selfish-weighted");
        assert_eq!(SpeedFastRule::Bhs.protocol_name(), "bhs-baseline");
    }

    #[test]
    fn conserves_per_class_totals_under_both_rules() {
        for rule in [SpeedFastRule::Alg2, SpeedFastRule::Bhs] {
            let sys = two_class_sys(generators::torus(3, 3), 900);
            let mut sim =
                SpeedFastSim::new(&sys, rule, Alpha::Approximate, hot_state(9, &[450, 450]), 5);
            for _ in 0..100 {
                sim.step();
            }
            assert_eq!(sim.round(), 100);
            assert_eq!(sim.state().class_total(0), 450, "{rule:?}");
            assert_eq!(sim.state().class_total(1), 450, "{rule:?}");
        }
    }

    #[test]
    fn alg2_rule_matches_weighted_fast_engine_exactly() {
        // Algorithm 2's weight-independent rule is the rule the
        // weight-class engine already simulates: under the same seed the
        // two engines must produce bit-identical trajectories.
        use crate::engine::weighted_fast::WeightedFastSim;
        let sys = two_class_sys(generators::ring(6), 240);
        let mut a = SpeedFastSim::new(
            &sys,
            SpeedFastRule::Alg2,
            Alpha::Approximate,
            hot_state(6, &[120, 120]),
            99,
        );
        let mut b = WeightedFastSim::new(&sys, Alpha::Approximate, hot_state(6, &[120, 120]), 99);
        for _ in 0..200 {
            let ra = a.step();
            let rb = b.step();
            assert_eq!(ra, rb);
        }
        assert_eq!(a.state(), b.state());
    }

    #[test]
    fn alg2_reaches_relaxed_equilibrium_and_it_absorbs() {
        let sys = two_class_sys(generators::ring(6), 240);
        let mut sim = SpeedFastSim::new(
            &sys,
            SpeedFastRule::Alg2,
            Alpha::Approximate,
            hot_state(6, &[120, 120]),
            6,
        );
        let out = sim.run_until(StopCondition::Nash(Threshold::UnitWeight), 100_000);
        assert!(out.reached(), "no relaxed NE within budget");
        assert!(out.migrations > 0);
        // ℓ_i − ℓ_j ≤ 1/s_j on every edge at the absorbing state, and the
        // weight-independent rule then never moves again.
        let loads = sim.state().loads(sys.speeds());
        for &(a, b) in sys.graph().edges() {
            for (i, j) in [(a.index(), b.index()), (b.index(), a.index())] {
                assert!(loads[i] - loads[j] <= 1.0 / sys.speeds().speed(j) + 1e-9);
            }
        }
        for _ in 0..200 {
            assert_eq!(sim.step().migrations, 0);
        }
    }

    #[test]
    fn bhs_keeps_moving_light_tasks_where_alg2_freezes() {
        // Loads (0.9, 0) with ten 0.09-weight tasks on a unit-speed path:
        // Algorithm 2's relaxed threshold says stop (0.9 ≤ 1), but each
        // task still gains under its own-weight threshold (0.9 > 0.09) —
        // the count-based engines must reproduce the §4 distinction.
        let sys = System::new(
            generators::path(2),
            SpeedVector::uniform(2),
            TaskSet::weighted(vec![0.09; 10]).unwrap(),
        )
        .unwrap();
        let state = ClassCountState::new(vec![0.09], vec![vec![10], vec![0]]);
        let mut alg2 = SpeedFastSim::new(
            &sys,
            SpeedFastRule::Alg2,
            Alpha::Approximate,
            state.clone(),
            5,
        );
        assert!(alg2.is_nash(Threshold::UnitWeight));
        for _ in 0..500 {
            assert_eq!(alg2.step().migrations, 0, "alg2 must be frozen");
        }
        let mut bhs = SpeedFastSim::new(&sys, SpeedFastRule::Bhs, Alpha::Approximate, state, 5);
        assert!(!bhs.is_nash(Threshold::LightestTask));
        let out = bhs.run_until(StopCondition::Nash(Threshold::LightestTask), 100_000);
        assert!(out.reached(), "bhs must reach the exact weighted NE");
        assert!(out.migrations > 0, "bhs must migrate light tasks");
    }

    #[test]
    fn bhs_light_class_uses_edges_the_heavy_class_cannot() {
        // Unit-speed path, node 0 at load 0.3 (6 light), node 1 at load
        // 1.05 (2 light + 1 heavy). The 1→0 gap starts at 0.75 and only
        // shrinks as light tasks drain, so the heavy class's own-weight
        // threshold (0.95) never passes while the light one (0.05) does:
        // the \[6\] rule must migrate light tasks off node 1 and never
        // move the heavy task — the per-class destination filtering the
        // relaxed rule never exercises.
        let weights: Vec<f64> = [vec![0.05; 8], vec![0.95; 1]].concat();
        let sys = System::new(
            generators::path(2),
            SpeedVector::uniform(2),
            TaskSet::weighted(weights).unwrap(),
        )
        .unwrap();
        let state = ClassCountState::new(vec![0.05, 0.95], vec![vec![6, 0], vec![2, 1]]);
        let mut sim = SpeedFastSim::new(&sys, SpeedFastRule::Bhs, Alpha::Approximate, state, 3);
        let heavy_home = sim.state().counts(1)[1];
        assert_eq!(heavy_home, 1);
        let mut light_moved = 0u64;
        for _ in 0..5000 {
            light_moved += sim.step().migrations;
            assert_eq!(
                sim.state().counts(0)[1],
                0,
                "heavy class crossed an edge its own-weight threshold forbids"
            );
        }
        assert_eq!(sim.state().counts(1)[1], 1);
        assert!(light_moved > 0, "light class never moved");
    }

    #[test]
    fn first_round_outflow_matches_task_level_mean_bhs() {
        use crate::protocol::{BhsBaseline, Protocol};
        let sys = two_class_sys(generators::ring(4), 400);
        let trials = 300u64;
        let mut fast_total = 0u64;
        for t in 0..trials {
            let mut sim = SpeedFastSim::new(
                &sys,
                SpeedFastRule::Bhs,
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
            task_total += BhsBaseline::new().round(&sys, &mut st, &mut rng).migrations as u64;
        }
        let fast_mean = fast_total as f64 / trials as f64;
        let task_mean = task_total as f64 / trials as f64;
        assert!(
            (fast_mean - task_mean).abs() < 0.15 * task_mean.max(1.0),
            "fast {fast_mean} vs task-level {task_mean}"
        );
    }

    #[test]
    fn heterogeneous_speeds_balance_by_load_not_count() {
        // Speeds (1, 4): at equilibrium the fast node must carry most of
        // the weight under either rule.
        for rule in [SpeedFastRule::Alg2, SpeedFastRule::Bhs] {
            let m = 200;
            let weights: Vec<f64> = (0..m).map(|t| if t % 2 == 0 { 0.5 } else { 1.0 }).collect();
            let sys = System::new(
                generators::path(2),
                SpeedVector::integer(vec![1, 4]).unwrap(),
                TaskSet::weighted(weights).unwrap(),
            )
            .unwrap();
            let state = ClassCountState::new(vec![0.5, 1.0], vec![vec![100, 100], vec![0, 0]]);
            let mut sim = SpeedFastSim::new(&sys, rule, Alpha::Approximate, state, 9);
            let threshold = match rule {
                SpeedFastRule::Alg2 => Threshold::UnitWeight,
                SpeedFastRule::Bhs => Threshold::LightestTask,
            };
            let out = sim.run_until(StopCondition::Nash(threshold), 200_000);
            assert!(out.reached(), "{rule:?} did not reach its equilibrium");
            let w_fast = sim.state().node_weight(1);
            assert!(
                w_fast > 0.7 * sim.state().total_weight(),
                "{rule:?}: fast node carries only {w_fast}"
            );
        }
    }

    #[test]
    fn psi0_decreases_and_stop_rules_work() {
        for rule in [SpeedFastRule::Alg2, SpeedFastRule::Bhs] {
            let sys = two_class_sys(generators::complete(8), 800);
            let mut sim = SpeedFastSim::new(
                &sys,
                rule,
                Alpha::Approximate,
                hot_state(8, &[400, 400]),
                10,
            );
            let start = sim.psi0();
            let out = sim.run_until(StopCondition::Psi0Below(start / 100.0), 100_000);
            assert!(out.reached(), "{rule:?}");
            assert!(sim.psi0() <= start / 100.0);
        }
    }

    #[test]
    fn eps_nash_stop_halts_no_later_than_exact() {
        let sys = two_class_sys(generators::ring(6), 240);
        let run = |condition: StopCondition| {
            let mut sim = SpeedFastSim::new(
                &sys,
                SpeedFastRule::Bhs,
                Alpha::Approximate,
                hot_state(6, &[120, 120]),
                21,
            );
            let out = sim.run_until(condition, 200_000);
            assert!(out.reached());
            out.rounds
        };
        let approx = run(StopCondition::EpsNash {
            threshold: Threshold::LightestTask,
            eps: 0.5,
        });
        let exact = run(StopCondition::Nash(Threshold::LightestTask));
        assert!(approx <= exact, "ε-NE ({approx}) after exact NE ({exact})");
    }

    #[test]
    fn observer_sees_every_round() {
        // `run_until` accounts for every round it executes: a twin on the
        // same seed, stepped `rounds` times by hand, sees the same
        // migrations and lands on the same state.
        let sys = two_class_sys(generators::ring(6), 120);
        let sim = || {
            SpeedFastSim::new(
                &sys,
                SpeedFastRule::Alg2,
                Alpha::Approximate,
                hot_state(6, &[60, 60]),
                11,
            )
        };
        let mut run = sim();
        let out = run.run_until(StopCondition::Nash(Threshold::UnitWeight), 50_000);
        assert!(out.reached());
        assert_eq!(run.round(), out.rounds);
        let mut twin = sim();
        let mut migrations = 0;
        for _ in 0..out.rounds {
            migrations += twin.step().migrations;
            assert_eq!(twin.state().total_tasks(), 120);
        }
        assert_eq!(migrations, out.migrations);
        assert_eq!(twin.state(), run.state());
    }

    #[test]
    fn million_task_stress_under_bhs() {
        // The per-class multinomial path must stay stable through the
        // normal-approximation regime under the class-filtered rule too.
        let n = 5;
        let m = 1_000_000usize;
        let sys = two_class_sys(generators::ring(n), m);
        let mut sim = SpeedFastSim::new(
            &sys,
            SpeedFastRule::Bhs,
            Alpha::Approximate,
            hot_state(n, &[m as u64 / 2, m as u64 / 2]),
            11,
        );
        for _ in 0..200 {
            sim.step();
        }
        assert_eq!(sim.state().total_tasks(), m as u64);
        assert_eq!(sim.state().class_total(0), m as u64 / 2);
        assert!(sim.state().node_weight(0) < sim.state().total_weight() / 2.0);
    }
}
