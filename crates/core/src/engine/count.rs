//! The count engine: every randomized protocol as one multinomial per
//! `(node, weight class)`, optionally under arrivals, completions, churn
//! and drifting speeds.
//!
//! The paper's §4 migration rule never reads a task's identity, and reads
//! its weight only through the threshold numerator `θ` of the condition
//! `ℓ_i − ℓ_j > θ/s_j`. Tasks of equal weight on a node are therefore
//! exchangeable, and a round of Algorithm 1 (uniform or weighted),
//! Algorithm 2, or the \[6\] baseline is fully described by how many of a
//! node's class-`c` tasks move to each neighbor — a multinomial with
//! per-destination probabilities `q_j = p_ij/deg(i)`
//! ([`migration_probability`](crate::protocol::migration_probability)).
//! The four protocols differ in one number, chosen by [`MigrationRule`]:
//! `θ = 1` ([`MigrationRule::Relaxed`], Algorithms 1 and 2) or `θ = w`
//! ([`MigrationRule::OwnWeight`], the \[6\] baseline). The uniform case is
//! one class of weight 1 ([`ClassCountState::unit`]).
//!
//! [`CountSim`] runs the shared sharded [`kernel`](crate::engine::kernel)
//! over a [`ClassCountState`]: for `k` classes, `O(n·k)` work per round
//! plus `O(deg_i)` for each node `i` whose destination row is stale — its
//! counts or a neighbor's moved in the last round, or events ran — instead
//! of the per-task engine's `O(m)`; `O(|E| + n·k)` when every row is. It
//! is distributionally identical to the per-task engine (the χ² tests of
//! `tests/engine_stress.rs` pin it against the per-task
//! [`Simulation`](crate::engine::Simulation)).
//!
//! Its [`DynamicConfig`] adds a between-round event layer — arrivals,
//! completions, node churn and speed dynamics, see the `events` submodule
//! — whose `Default` is the static instance. Events run before each kernel
//! round in a fixed order (speeds → churn → completions → arrivals), each
//! family on its own RNG stream of the round, and the ones not configured
//! return at once. Until churn or speed dynamics change them, the graph
//! and the speed vector stay borrowed from the caller.
//!
//! `CountSim` keeps a snapshot of its current state's node weights, loads,
//! occupancy and lightest present class, refreshed after the kernel merge
//! at the nodes whose counts it changed, and everywhere after a round's
//! events. The stop checks and the next kernel round both read it, so a
//! round computes them once and a check allocates nothing. The kernel's
//! per-run tables (speeds, degrees, thresholds) are rebuilt where their
//! inputs change: a new speed vector and the churn rebuild of the live
//! topology; each rebuild, and each round's events, mark every cached
//! destination row stale.
//!
//! Documented approximations, both shared by every configuration:
//! continuous weight distributions are quantized into classes by the
//! workloads layer (`slb_workloads::weight_classes`; for the \[6\] rule
//! this also quantizes the per-task threshold), and the binomial sampler
//! substitutes a clamped normal above mean
//! [`NORMAL_APPROX_THRESHOLD`](crate::engine::sampling::NORMAL_APPROX_THRESHOLD).
//!
//! # Determinism
//!
//! The kernel draws from the sharded streams
//! `derive_seed_sharded(seed, round, 0, shard)`; the event families draw
//! from the unsharded `derive_seed(seed, round, stream)` with their own
//! [`streams::round`](crate::rng::streams::round) constants, which never
//! alias a kernel shard. Events are applied on one thread in fixed node
//! order, so the whole trajectory is a pure function of the seed at any
//! `--threads`.

mod events;

pub use events::{ArrivalProcess, ChurnProcess, CompletionProcess, DynamicConfig, SpeedDynamics};

use crate::engine::kernel::{CountKernel, StepTotals};
use crate::engine::{run_loop, RunOutcome, StopCondition};
use crate::equilibrium::{self, Threshold};
use crate::model::{SpeedVector, System};
use crate::potential;
use crate::protocol::{Alpha, MigrationRule};
use slb_graphs::Graph;
use std::borrow::Cow;

/// The count-based state: `counts[node][class]` tasks of weight
/// `class_weights[class]`.
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
        let k = class_weights.len();
        let mut counts = Vec::with_capacity(per_node.len() * k);
        for row in per_node {
            assert_eq!(row.len(), k, "one count per class per node");
            counts.extend_from_slice(&row);
        }
        ClassCountState::node_major(class_weights, counts)
    }

    /// Builds from node-major counts: `counts[node · k + class]` tasks of
    /// weight `class_weights[class]`, for `k` classes.
    ///
    /// # Panics
    ///
    /// Panics if `class_weights` is empty or contains a weight outside
    /// `(0, 1]`, or if `counts` is empty or not a whole number of rows.
    pub fn node_major(class_weights: Vec<f64>, counts: Vec<u64>) -> Self {
        assert!(!class_weights.is_empty(), "need at least one weight class");
        assert!(
            class_weights
                .iter()
                .all(|&w| w > 0.0 && w <= 1.0 && w.is_finite()),
            "class weights must lie in (0, 1]"
        );
        assert!(!counts.is_empty(), "need at least one node");
        let k = class_weights.len();
        assert_eq!(counts.len() % k, 0, "one count per class per node");
        ClassCountState {
            nodes: counts.len() / k,
            class_weights,
            counts,
        }
    }

    /// Uniform tasks: one class of weight 1, `counts[i]` tasks on node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `counts` is empty.
    pub fn unit(counts: Vec<u64>) -> Self {
        assert!(!counts.is_empty(), "need at least one node");
        ClassCountState {
            class_weights: vec![1.0],
            nodes: counts.len(),
            counts,
        }
    }

    /// `m` uniform tasks, all on `node` of `n`.
    ///
    /// # Panics
    ///
    /// Panics if `node >= n`.
    pub fn all_on_node(n: usize, node: usize, m: u64) -> Self {
        assert!(node < n, "node out of range");
        let mut counts = vec![0u64; n];
        counts[node] = m;
        ClassCountState::unit(counts)
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

    /// Split borrow for the count kernel and the event layer: the class
    /// weights alongside the mutable node-major counts.
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

    /// The per-class count rows of all nodes, in node order.
    fn rows(&self) -> std::slice::ChunksExact<'_, u64> {
        self.counts.chunks_exact(self.classes())
    }

    /// `Σ_c row[c] · w_c`.
    fn row_weight(&self, row: &[u64]) -> f64 {
        row.iter()
            .zip(&self.class_weights)
            .map(|(&c, &w)| c as f64 * w)
            .sum()
    }

    /// The weight of the only class, if there is one class. Its per-node
    /// maps below give the same values as the one-term sums, as plain
    /// loops over the counts: the stop checks of unit-weight runs read
    /// them every round.
    fn single_class(&self) -> Option<f64> {
        (self.classes() == 1).then(|| self.class_weights[0])
    }

    /// `W_i = Σ_c counts[i][c] · w_c` for one node.
    pub fn node_weight(&self, node: usize) -> f64 {
        self.row_weight(self.counts(node))
    }

    /// All node weights.
    pub fn node_weights(&self) -> Vec<f64> {
        let mut weights = Vec::new();
        self.write_node_weights(&mut weights);
        weights
    }

    /// Overwrites `out` with all node weights.
    fn write_node_weights(&self, out: &mut Vec<f64>) {
        out.clear();
        match self.single_class() {
            // A plain map, so that it vectorizes: unit-weight runs refresh
            // it every round.
            Some(w) => out.extend(self.counts.iter().map(|&c| c as f64 * w)),
            None => out.extend(self.rows().map(|row| self.row_weight(row))),
        }
    }

    /// Total weight `W`.
    pub fn total_weight(&self) -> f64 {
        self.rows().map(|row| self.row_weight(row)).sum()
    }

    /// Loads `ℓ_i = W_i/s_i`.
    pub fn loads(&self, speeds: &SpeedVector) -> Vec<f64> {
        let speeds = speeds.as_slice();
        match self.single_class() {
            Some(w) => (self.counts.iter().zip(speeds))
                .map(|(&c, &s)| c as f64 * w / s)
                .collect(),
            None => (self.rows().zip(speeds))
                .map(|(row, &s)| self.row_weight(row) / s)
                .collect(),
        }
    }

    /// Overwrites `occupied` with whether each node hosts a task, and
    /// `lightest` with the lightest class weight present on it (`+∞` on
    /// an empty node): the per-node thresholds of
    /// [`Threshold::LightestTask`].
    fn write_presence(&self, occupied: &mut Vec<bool>, lightest: &mut Vec<f64>) {
        occupied.clear();
        lightest.clear();
        match self.single_class() {
            Some(w) => {
                occupied.extend(self.counts.iter().map(|&c| c > 0));
                lightest.extend(
                    self.counts
                        .iter()
                        .map(|&c| if c > 0 { w } else { f64::INFINITY }),
                );
            }
            None => {
                for row in self.rows() {
                    let min = self.row_lightest(row);
                    occupied.push(min < f64::INFINITY);
                    lightest.push(min);
                }
            }
        }
    }

    /// The lightest class weight present in `row` (`+∞` if none).
    fn row_lightest(&self, row: &[u64]) -> f64 {
        let mut min = f64::INFINITY;
        for (&c, &w) in row.iter().zip(&self.class_weights) {
            if c > 0 && w < min {
                min = w;
            }
        }
        min
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

/// The round-start aggregates of a [`CountSim`]'s current state, against
/// the speeds the protocol currently sees. The stop checks and the kernel
/// round read them; `CountSim` refreshes them after every change to the
/// counts or the speeds (the kernel merge, the events), so they always
/// equal what [`ClassCountState`] computes for the current state.
#[derive(Debug, Default)]
struct Snapshot {
    /// `W_i` ([`ClassCountState::node_weights`]).
    node_weights: Vec<f64>,
    /// `ℓ_i = W_i/s_i` ([`ClassCountState::loads`]).
    loads: Vec<f64>,
    /// Whether node `i` hosts a task.
    occupied: Vec<bool>,
    /// The lightest class weight present on node `i` (`+∞` if none).
    lightest: Vec<f64>,
}

impl Snapshot {
    /// Recomputes every aggregate of `state` under `speeds`, in place.
    fn refresh(&mut self, state: &ClassCountState, speeds: &SpeedVector) {
        state.write_node_weights(&mut self.node_weights);
        self.loads.clear();
        self.loads.extend(
            self.node_weights
                .iter()
                .zip(speeds.as_slice())
                .map(|(&w, &s)| w / s),
        );
        state.write_presence(&mut self.occupied, &mut self.lightest);
    }

    /// Recomputes the aggregates of `nodes` only, in place: the values
    /// [`Snapshot::refresh`] computes there (a one-class row's weight is
    /// its one product, as in the plain map), for a state that changed
    /// nowhere else since the last refresh.
    fn refresh_nodes(&mut self, state: &ClassCountState, speeds: &SpeedVector, nodes: &[u32]) {
        for &v in nodes {
            let v = v as usize;
            let row = state.counts(v);
            let weight = state.row_weight(row);
            self.node_weights[v] = weight;
            self.loads[v] = weight / speeds.speed(v);
            let lightest = state.row_lightest(row);
            self.occupied[v] = lightest < f64::INFINITY;
            self.lightest[v] = lightest;
        }
    }
}

/// The count engine: the sharded kernel over a [`ClassCountState`] under
/// one [`MigrationRule`], with the event layer of a [`DynamicConfig`].
///
/// The state's class weights may be a quantization of the instance's
/// task weights; `Ψ₀` and the equilibrium predicates are evaluated
/// against the state's own weights, on the current (churn-induced)
/// topology and the speeds the protocol currently sees. Dead nodes keep
/// their slot in every per-node array (degree 0, no tasks), so the
/// node-major count layout never changes shape.
///
/// # Example
///
/// ```
/// use slb_core::engine::count::{ClassCountState, CountSim};
/// use slb_core::engine::StopCondition;
/// use slb_core::equilibrium::Threshold;
/// use slb_core::model::SpeedVector;
/// use slb_core::protocol::{Alpha, MigrationRule};
/// use slb_graphs::generators;
///
/// let graph = generators::ring(6);
/// let speeds = SpeedVector::integer(vec![1, 2, 1, 2, 1, 2])?;
/// let mut per_node = vec![vec![0u64; 2]; 6];
/// per_node[0] = vec![30, 30];
/// let state = ClassCountState::new(vec![0.25, 1.0], per_node);
/// let mut sim = CountSim::new(&graph, &speeds, MigrationRule::Relaxed, Alpha::Approximate, state, 7);
/// let out = sim.run_until(StopCondition::Nash(Threshold::UnitWeight), 100_000);
/// assert!(out.reached() && out.migrations > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct CountSim<'a> {
    /// The topology the run started on; churn induces `graph` from it.
    base_graph: &'a Graph,
    /// The live topology (owned once churn has changed it).
    graph: Cow<'a, Graph>,
    /// The speeds the protocol sees (owned once speed dynamics moved them).
    speeds: Cow<'a, SpeedVector>,
    alive: Vec<bool>,
    live_count: usize,
    state: ClassCountState,
    rule: MigrationRule,
    alpha_spec: Alpha,
    /// `α` resolved against the current speeds.
    alpha: f64,
    cfg: DynamicConfig,
    /// `θ = 1` for every node: the thresholds of [`Threshold::UnitWeight`].
    unit_thresholds: Vec<f64>,
    /// True speeds under speed dynamics (feedback estimation shows the
    /// protocol a blend of them); empty otherwise.
    true_speeds: Vec<f64>,
    drift_floor: f64,
    drift_cap: f64,
    /// Arrival class mix: the initial global class distribution.
    class_mix: Vec<f64>,
    scratch_counts: Vec<u64>,
    /// Master seed; each round's shards derive their streams from
    /// `(seed, round, shard)`, so the trajectory is thread-invariant.
    seed: u64,
    /// Worker cap for the sharded round (result-invariant).
    threads: usize,
    round: u64,
    kernel: CountKernel,
    /// The round-start aggregates of `state` under `speeds`.
    snapshot: Snapshot,
}

impl<'a> CountSim<'a> {
    /// A static run of `rule` on `graph` and `speeds` from `state`.
    ///
    /// # Panics
    ///
    /// Panics if the state's or the speeds' node count differs from the
    /// graph's.
    pub fn new(
        graph: &'a Graph,
        speeds: &'a SpeedVector,
        rule: MigrationRule,
        alpha: Alpha,
        state: ClassCountState,
        seed: u64,
    ) -> Self {
        let n = graph.node_count();
        assert_eq!(state.nodes(), n, "state node count must match the graph");
        assert_eq!(speeds.len(), n, "one speed per node");
        let alpha_value = alpha.resolve(speeds);
        let kernel = CountKernel::new(graph, speeds, alpha_value, rule, state.class_weights());
        let mut snapshot = Snapshot::default();
        snapshot.refresh(&state, speeds);
        CountSim {
            base_graph: graph,
            graph: Cow::Borrowed(graph),
            speeds: Cow::Borrowed(speeds),
            alive: vec![true; n],
            live_count: n,
            state,
            rule,
            alpha_spec: alpha,
            alpha: alpha_value,
            cfg: DynamicConfig::default(),
            unit_thresholds: vec![1.0; n],
            true_speeds: Vec::new(),
            drift_floor: 0.0,
            drift_cap: 0.0,
            class_mix: Vec::new(),
            scratch_counts: Vec::new(),
            seed,
            threads: 1,
            round: 0,
            kernel,
            snapshot,
        }
    }

    /// [`CountSim::new`] on a system's graph and speeds, for a state that
    /// holds exactly the system's tasks (its class weights may quantize
    /// theirs).
    ///
    /// # Panics
    ///
    /// Panics if the state's node count or total task count does not
    /// match the system's, or if the state is [`ClassCountState::unit`]
    /// counts while the system's tasks are not all of weight 1.
    pub fn for_system(
        system: &'a System,
        rule: MigrationRule,
        alpha: Alpha,
        state: ClassCountState,
        seed: u64,
    ) -> Self {
        assert_eq!(
            state.total_tasks(),
            system.task_count() as u64,
            "state total must match the system's task count"
        );
        assert!(
            state.class_weights() != [1.0] || system.tasks().is_uniform(),
            "unit counts require unit-weight tasks"
        );
        CountSim::new(system.graph(), system.speeds(), rule, alpha, state, seed)
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

    /// The threshold rule the run migrates under.
    pub fn rule(&self) -> MigrationRule {
        self.rule
    }

    /// The event configuration of the run.
    pub fn config(&self) -> &DynamicConfig {
        &self.cfg
    }

    /// Rounds executed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Executes one round: the configured events, then one kernel round
    /// on the updated state.
    pub fn step(&mut self) -> StepTotals {
        let mut totals = self.apply_events();
        let moved = self.kernel_round();
        totals.migrations = moved.migrations;
        totals.migrated_weight = moved.migrated_weight;
        totals
    }

    /// The kernel round of [`CountSim::step`], against the snapshot, which
    /// it then refreshes at the nodes whose counts the round changed.
    fn kernel_round(&mut self) -> StepTotals {
        let (class_weights, counts) = self.state.kernel_view();
        let moved = self.kernel.step(
            &self.graph,
            &self.snapshot.node_weights,
            &self.snapshot.loads,
            class_weights,
            counts,
            self.seed,
            self.round,
            self.threads,
        );
        self.snapshot
            .refresh_nodes(&self.state, &self.speeds, self.kernel.changed());
        self.round += 1;
        moved
    }

    /// `Ψ₀` over the live nodes: the squared speed-normalized deviation
    /// from the balanced allocation of the current population over the
    /// current live capacity (against the state's class weights).
    pub fn psi0(&self) -> f64 {
        let weights = &self.snapshot.node_weights;
        if self.live_count == self.alive.len() {
            // Every node is live: the live capacity is the speeds' total.
            let total = weights.iter().sum();
            return potential::psi0(weights, &self.speeds, total);
        }
        let live = || (0..weights.len()).filter(|&v| self.alive[v]);
        let s_live: f64 = live().map(|v| self.speeds.speed(v)).sum();
        if s_live <= 0.0 {
            return 0.0;
        }
        let per_capacity = weights.iter().sum::<f64>() / s_live;
        live()
            .map(|v| {
                let s = self.speeds.speed(v);
                let e = weights[v] - per_capacity * s;
                e * e / s
            })
            .sum()
    }

    /// Whether the current state is a Nash equilibrium under `threshold`
    /// ([`Threshold::UnitWeight`] is the relaxed absorbing condition of
    /// Algorithms 1/2; [`Threshold::LightestTask`] uses the lightest
    /// *class* present on each node — the exact NE the \[6\] baseline
    /// converges to).
    pub fn is_nash(&self, threshold: Threshold) -> bool {
        let (loads, thresholds, occupied) = self.equilibrium_inputs(threshold);
        equilibrium::is_nash_loads(&self.graph, &self.speeds, loads, thresholds, occupied)
    }

    /// Whether the current state is an ε-approximate Nash equilibrium
    /// under `threshold` — agrees exactly with
    /// [`equilibrium::is_eps_nash`] on the expanded per-task state when
    /// the classes are lossless.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ ε ≤ 1`.
    pub fn is_eps_nash(&self, threshold: Threshold, eps: f64) -> bool {
        let (loads, thresholds, occupied) = self.equilibrium_inputs(threshold);
        equilibrium::is_eps_nash_loads(&self.graph, &self.speeds, loads, thresholds, occupied, eps)
    }

    /// The smallest `ε` for which the current state is an ε-approximate
    /// NE under `threshold` (0 at an exact NE) — agrees exactly with
    /// [`equilibrium::nash_gap`] on the expanded per-task state when the
    /// classes are lossless. Dead nodes are isolated and empty, so they
    /// constrain nothing.
    pub fn nash_gap(&self, threshold: Threshold) -> f64 {
        let (loads, thresholds, occupied) = self.equilibrium_inputs(threshold);
        equilibrium::nash_gap_loads(&self.graph, &self.speeds, loads, thresholds, occupied)
    }

    /// Loads, per-node threshold weights and occupancy for the exact, ε
    /// and gap forms of the equilibrium predicates. The stop checks run
    /// before every round, so all three are borrowed, never built.
    fn equilibrium_inputs(&self, threshold: Threshold) -> (&[f64], &[f64], &[bool]) {
        let thresholds = match threshold {
            Threshold::UnitWeight => &self.unit_thresholds,
            Threshold::LightestTask => &self.snapshot.lightest,
        };
        (&self.snapshot.loads, thresholds, &self.snapshot.occupied)
    }

    /// Recomputes the snapshot after a change to the counts or the speeds.
    fn refresh_snapshot(&mut self) {
        self.snapshot.refresh(&self.state, &self.speeds);
    }

    /// Rebuilds the kernel's tables after a change to the speeds, `α` or
    /// the live topology.
    fn rebuild_kernel_tables(&mut self) {
        self.kernel.rebuild_tables(
            &self.graph,
            &self.speeds,
            self.alpha,
            self.rule,
            self.state.class_weights(),
        );
    }

    /// Whether the last [`CountSim::step`]'s kernel round drew any
    /// multinomial (`false` before the first round).
    pub(crate) fn last_round_drew(&self) -> bool {
        self.kernel.drew()
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
    /// A static run whose kernel round drew nothing is at a fixed point:
    /// no (node, class) has a destination, so every later round is the
    /// same no-op. The run loop then finishes the budget without stepping
    /// and returns the outcome stepping would have given, with
    /// [`RunOutcome::absorbed_at`] set; [`CountSim::round`] advances to
    /// match. Runs under events never fast-forward: the next round's
    /// events can change the state.
    ///
    /// # Panics
    ///
    /// Panics on an ε-Nash condition unless `0 ≤ ε ≤ 1`.
    pub fn run_until(&mut self, condition: StopCondition, max_rounds: u64) -> RunOutcome {
        let start = self.round;
        let out = run_loop(self, condition, max_rounds, Self::condition_met, |sim| {
            let migrations = sim.step().migrations;
            (migrations, !sim.cfg.is_dynamic() && !sim.last_round_drew())
        });
        self.round = start + out.rounds;
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::engine::kernel::KernelTables;
    use crate::model::{TaskSet, TaskState};
    use crate::protocol::{Protocol, Selfish};
    use crate::rng::{rng_for, streams};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use slb_graphs::generators;

    /// `m` unit tasks on uniform speeds.
    fn unit_sys(graph: Graph, m: usize) -> System {
        let n = graph.node_count();
        System::new(graph, SpeedVector::uniform(n), TaskSet::uniform(m)).unwrap()
    }

    /// `m` tasks alternating between weights 0.25 and 1, on uniform speeds
    /// or on speeds alternating between 1 and 2.
    fn two_class_sys(graph: Graph, m: usize, alternating_speeds: bool) -> System {
        let n = graph.node_count();
        let weights: Vec<f64> = (0..m)
            .map(|t| if t % 2 == 0 { 0.25 } else { 1.0 })
            .collect();
        let speeds = if alternating_speeds {
            SpeedVector::integer((0..n as u64).map(|i| 1 + i % 2).collect()).unwrap()
        } else {
            SpeedVector::uniform(n)
        };
        System::new(graph, speeds, TaskSet::weighted(weights).unwrap()).unwrap()
    }

    /// Classes 0.25 and 1 (the first `per_class.len()` of them), all on
    /// node 0.
    fn hot_classes(n: usize, per_class: &[u64]) -> ClassCountState {
        let k = per_class.len();
        let mut per_node = vec![vec![0u64; k]; n];
        per_node[0] = per_class.to_vec();
        ClassCountState::new(vec![0.25, 1.0][..k].to_vec(), per_node)
    }

    /// The equilibrium each rule converges to.
    fn target(rule: MigrationRule) -> Threshold {
        match rule {
            MigrationRule::Relaxed => Threshold::UnitWeight,
            MigrationRule::OwnWeight => Threshold::LightestTask,
        }
    }

    /// The configurations the count engine covers from a hot start:
    /// Algorithm 1 on unit tasks (`k = 1`), its weighted form on two
    /// classes, and Algorithm 2 and the \[6\] baseline on two classes and
    /// alternating speeds.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub(crate) enum Case {
        Unit,
        Weighted,
        Alg2,
        Bhs,
    }

    /// A case's instance, rule and starting state.
    struct HotStart {
        sys: System,
        rule: MigrationRule,
        state: ClassCountState,
    }

    impl HotStart {
        fn sim(&self, seed: u64) -> CountSim<'_> {
            CountSim::for_system(
                &self.sys,
                self.rule,
                Alpha::Approximate,
                self.state.clone(),
                seed,
            )
        }
    }

    impl Case {
        fn rule(self) -> MigrationRule {
            match self {
                Case::Bhs => MigrationRule::OwnWeight,
                Case::Unit | Case::Weighted | Case::Alg2 => MigrationRule::Relaxed,
            }
        }

        /// `m` tasks on `graph`, all on node 0 (half of each class for two
        /// classes).
        fn hot_start(self, graph: Graph, m: usize) -> HotStart {
            let n = graph.node_count();
            let half = m as u64 / 2;
            let (sys, state) = match self {
                Case::Unit => (
                    unit_sys(graph, m),
                    ClassCountState::all_on_node(n, 0, m as u64),
                ),
                Case::Weighted => (
                    two_class_sys(graph, m, false),
                    hot_classes(n, &[half, half]),
                ),
                Case::Alg2 | Case::Bhs => {
                    (two_class_sys(graph, m, true), hot_classes(n, &[half, half]))
                }
            };
            HotStart {
                sys,
                rule: self.rule(),
                state,
            }
        }
    }

    #[test]
    fn count_state_accessors() {
        let cs = ClassCountState::all_on_node(4, 1, 100);
        assert_eq!(cs, ClassCountState::unit(vec![0, 100, 0, 0]));
        assert_eq!(cs.class_weights(), &[1.0]);
        assert_eq!(cs.total_tasks(), 100);
        assert_eq!(cs.counts(1), &[100]);
        assert_eq!(cs.node_weights(), vec![0.0, 100.0, 0.0, 0.0]);
        let speeds = SpeedVector::new(vec![1.0, 2.0, 1.0, 1.0]).unwrap();
        assert_eq!(cs.loads(&speeds), vec![0.0, 50.0, 0.0, 0.0]);
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
    #[should_panic(expected = "unit counts require unit-weight tasks")]
    fn weighted_tasks_rejected() {
        let sys = System::new(
            generators::path(2),
            SpeedVector::uniform(2),
            TaskSet::weighted(vec![0.5, 0.5]).unwrap(),
        )
        .unwrap();
        let state = ClassCountState::unit(vec![2, 0]);
        let _ = CountSim::for_system(&sys, MigrationRule::Relaxed, Alpha::Approximate, state, 1);
    }

    #[test]
    fn relaxed_equilibrium_is_absorbing() {
        // Loads (0.9, 0) on a path: gap ≤ 1 → the weight-independent rule
        // moves nothing, ever (the §4 design point, count-based).
        let sys = System::new(
            generators::path(2),
            SpeedVector::uniform(2),
            TaskSet::weighted(vec![0.3; 3]).unwrap(),
        )
        .unwrap();
        let state = ClassCountState::new(vec![0.3], vec![vec![3], vec![0]]);
        let mut sim =
            CountSim::for_system(&sys, MigrationRule::Relaxed, Alpha::Approximate, state, 7);
        assert!(sim.is_nash(Threshold::UnitWeight));
        assert!(!sim.is_nash(Threshold::LightestTask));
        for _ in 0..200 {
            let report = sim.step();
            assert_eq!(report.migrations, 0);
            assert_eq!(report.migrated_weight, 0.0);
        }
        assert_eq!(sim.state().counts(0), &[3]);
    }

    // The per-case checks below run, under the test names of the engines
    // `CountSim` replaced and with those tests' seeds, round counts and
    // budgets, in the `tests` modules of `engine::{uniform_fast,
    // weighted_fast, speed_fast}`: `Case::Unit` in the first,
    // `Case::Weighted` (and `Case::Alg2`'s first-round outflow) in the
    // second, `Case::Alg2` and `Case::Bhs` in the third.

    /// The case's system of 6 tasks with a state of 4: must panic.
    pub(crate) fn total_mismatch_rejected(case: Case) {
        let six = case.hot_start(generators::path(2), 6);
        let four = case.hot_start(generators::path(2), 4);
        let _ = CountSim::for_system(&six.sys, six.rule, Alpha::Approximate, four.state, 1);
    }

    pub(crate) fn conserves_per_class_totals(case: Case) {
        let start = case.hot_start(generators::torus(3, 3), 900);
        let mut sim = start.sim(5);
        assert_eq!((sim.rule(), sim.round()), (start.rule, 0), "{case:?}");
        for _ in 0..100 {
            sim.step();
        }
        assert_eq!(sim.round(), 100);
        for c in 0..start.state.classes() {
            let total = start.state.class_total(c);
            assert_eq!(sim.state().class_total(c), total, "{case:?}");
        }
        let weight = start.state.total_weight();
        assert!((sim.state().total_weight() - weight).abs() < 1e-6);
    }

    /// On uniform speeds (`Case::Unit` or `Case::Weighted`).
    pub(crate) fn reaches_relaxed_equilibrium_from_hot_start(case: Case) {
        let start = case.hot_start(generators::ring(6), 120);
        let mut sim = start.sim(6);
        let out = sim.run_until(StopCondition::Nash(Threshold::UnitWeight), 100_000);
        assert!(out.reached(), "{case:?}: no relaxed NE within budget");
        assert!(out.migrations > 0, "the hot start must move tasks");
        assert!(sim.is_nash(Threshold::UnitWeight));
        // ℓ_i − ℓ_j ≤ 1/s_j = 1 on every edge at the absorbing state
        // (so across the ring the spread is at most diam(C_6) = 3).
        let loads = sim.state().loads(start.sys.speeds());
        for &(a, b) in start.sys.graph().edges() {
            let gap = (loads[a.index()] - loads[b.index()]).abs();
            assert!(gap <= 1.0 + 1e-9, "{case:?}: edge gap {gap} exceeds 1");
        }
    }

    pub(crate) fn psi0_decreases_like_task_level_protocol(case: Case, seed: u64, rounds: u64) {
        let start = case.hot_start(generators::hypercube(4), 1600);
        let mut sim = start.sim(seed);
        let before = sim.psi0();
        for _ in 0..rounds {
            sim.step();
        }
        assert!(sim.psi0() < before / 4.0, "{case:?}: Ψ₀ barely moved");
    }

    /// Speeds (1, 4): at `rule`'s equilibrium, reached within
    /// `max_rounds`, the fast node must carry most of the weight.
    pub(crate) fn heterogeneous_speeds_balance_by_load_not_count(
        rule: MigrationRule,
        max_rounds: u64,
    ) {
        let m = 200;
        let weights: Vec<f64> = (0..m).map(|t| if t % 2 == 0 { 0.5 } else { 1.0 }).collect();
        let sys = System::new(
            generators::path(2),
            SpeedVector::integer(vec![1, 4]).unwrap(),
            TaskSet::weighted(weights).unwrap(),
        )
        .unwrap();
        let state = ClassCountState::new(vec![0.5, 1.0], vec![vec![100, 100], vec![0, 0]]);
        let mut sim = CountSim::for_system(&sys, rule, Alpha::Approximate, state, 9);
        let out = sim.run_until(StopCondition::Nash(target(rule)), max_rounds);
        assert!(out.reached(), "{rule:?} did not reach its equilibrium");
        let w_fast = sim.state().node_weight(1);
        assert!(
            w_fast > 0.7 * sim.state().total_weight(),
            "{rule:?}: fast node carries only {w_fast}"
        );
    }

    /// First-round expected outflow from the hot node must match between
    /// the count engine and the per-task protocol it stands for: both
    /// move ~ Σ_j f_0j tasks on average.
    pub(crate) fn first_round_outflow_matches_task_level_mean(case: Case) {
        let trials = 300u64;
        let start = case.hot_start(generators::ring(4), 400);
        let protocol = Selfish::new(case.rule());
        let count_total: u64 = (0..trials)
            .map(|t| start.sim(1000 + t).step().migrations)
            .sum();
        let mut task_total = 0u64;
        for t in 0..trials {
            let mut st = TaskState::all_on_node(&start.sys, slb_graphs::NodeId(0));
            let mut rng = StdRng::seed_from_u64(5000 + t);
            task_total += protocol.round(&start.sys, &mut st, &mut rng).migrations as u64;
        }
        let count_mean = count_total as f64 / trials as f64;
        let task_mean = task_total as f64 / trials as f64;
        // Both estimate the same expectation; allow generous slack.
        assert!(
            (count_mean - task_mean).abs() < 0.15 * task_mean.max(1.0),
            "{case:?}: count {count_mean} vs task-level {task_mean}"
        );
    }

    /// Unit tasks along a trajectory: expand the counts into an explicit
    /// per-task assignment and compare the predicates exactly.
    pub(crate) fn eps_nash_and_gap_match_expanded_unit_state() {
        let start = Case::Unit.hot_start(generators::ring(5), 60);
        let mut sim = start.sim(3);
        for _ in 0..10 {
            let assignment: Vec<usize> = (0..5)
                .flat_map(|v| std::iter::repeat_n(v, sim.state().node_task_count(v) as usize))
                .collect();
            let st = TaskState::from_assignment(&start.sys, &assignment).unwrap();
            let threshold = Threshold::UnitWeight;
            assert_eq!(
                sim.nash_gap(threshold),
                equilibrium::nash_gap(&start.sys, &st, threshold)
            );
            for eps in [0.0, 0.1, 0.5, 1.0] {
                assert_eq!(
                    sim.is_eps_nash(threshold, eps),
                    equilibrium::is_eps_nash(&start.sys, &st, threshold, eps)
                );
            }
            sim.step();
        }
    }

    /// Two classes under both thresholds. Dyadic weights: per-node sums
    /// are exact in f64, so the expanded per-task evaluation is
    /// bit-identical to the count-based one.
    pub(crate) fn eps_nash_and_gap_match_expanded_class_state() {
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
            generators::ring(4),
            SpeedVector::integer(vec![1, 2, 1, 4]).unwrap(),
            TaskSet::weighted(task_weights).unwrap(),
        )
        .unwrap();
        let st = TaskState::from_assignment(&sys, &assignment).unwrap();
        let state = ClassCountState::new(
            class_weights.to_vec(),
            per_node.iter().map(|r| r.to_vec()).collect(),
        );
        let sim = CountSim::for_system(&sys, MigrationRule::Relaxed, Alpha::Approximate, state, 1);
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

    /// The ε-Nash stop (threshold of the case's rule) comes no later than
    /// the exact one on the same seed, both within `max_rounds`.
    pub(crate) fn eps_nash_stop_halts_no_later_than_exact(case: Case, seed: u64, max_rounds: u64) {
        let start = case.hot_start(generators::ring(6), 240);
        let threshold = target(start.rule);
        let run = |condition: StopCondition| {
            let out = start.sim(seed).run_until(condition, max_rounds);
            assert!(out.reached(), "{case:?}");
            out.rounds
        };
        let approx = run(StopCondition::EpsNash {
            threshold,
            eps: 0.5,
        });
        let exact = run(StopCondition::Nash(threshold));
        assert!(
            approx <= exact,
            "{case:?}: ε-NE ({approx}) after exact NE ({exact})"
        );
    }

    pub(crate) fn run_until_psi0_stops(case: Case, seed: u64) {
        let start = case.hot_start(generators::complete(8), 800);
        let mut sim = start.sim(seed);
        let psi0 = sim.psi0();
        let out = sim.run_until(StopCondition::Psi0Below(psi0 / 100.0), 100_000);
        assert!(out.reached(), "{case:?}");
        assert!(sim.psi0() <= psi0 / 100.0);
    }

    /// `run_until` accounts for every round it executes: a twin on the
    /// same seed, stepped `rounds` times by hand, sees the same
    /// migrations and lands on the same state.
    pub(crate) fn observer_sees_every_round(case: Case, seed: u64) {
        let start = case.hot_start(generators::ring(6), 120);
        let mut run = start.sim(seed);
        let out = run.run_until(StopCondition::Nash(target(start.rule)), 50_000);
        assert!(out.reached(), "{case:?}");
        assert_eq!(run.round(), out.rounds);
        let mut twin = start.sim(seed);
        let (mut migrations, mut weight) = (0, 0.0);
        for _ in 0..out.rounds {
            let r = twin.step();
            migrations += r.migrations;
            weight += r.migrated_weight;
            assert_eq!(twin.state().total_tasks(), 120);
        }
        assert_eq!(migrations, out.migrations, "{case:?}");
        assert!(weight > 0.0);
        assert_eq!(twin.state(), run.state(), "{case:?}");
    }

    #[test]
    fn alg2_reaches_relaxed_equilibrium_and_it_absorbs() {
        let start = Case::Alg2.hot_start(generators::ring(6), 240);
        let mut sim = start.sim(6);
        let out = sim.run_until(StopCondition::Nash(Threshold::UnitWeight), 100_000);
        assert!(out.reached(), "no relaxed NE within budget");
        assert!(out.migrations > 0);
        // ℓ_i − ℓ_j ≤ 1/s_j on every edge at the absorbing state, and the
        // weight-independent rule then never moves again.
        let sys = &start.sys;
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
        // the relaxed threshold says stop (0.9 ≤ 1), but each task still
        // gains under its own-weight threshold (0.9 > 0.09) — the count
        // engine must reproduce the §4 distinction.
        let sys = System::new(
            generators::path(2),
            SpeedVector::uniform(2),
            TaskSet::weighted(vec![0.09; 10]).unwrap(),
        )
        .unwrap();
        let state = ClassCountState::new(vec![0.09], vec![vec![10], vec![0]]);
        let mut alg2 = CountSim::for_system(
            &sys,
            MigrationRule::Relaxed,
            Alpha::Approximate,
            state.clone(),
            5,
        );
        assert!(alg2.is_nash(Threshold::UnitWeight));
        for _ in 0..500 {
            assert_eq!(alg2.step().migrations, 0, "alg2 must be frozen");
        }
        let mut bhs =
            CountSim::for_system(&sys, MigrationRule::OwnWeight, Alpha::Approximate, state, 5);
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
        let mut sim =
            CountSim::for_system(&sys, MigrationRule::OwnWeight, Alpha::Approximate, state, 3);
        assert_eq!(sim.state().counts(1)[1], 1);
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
    fn million_task_stress_under_bhs() {
        // The per-class multinomial path must stay stable through the
        // normal-approximation regime under the class-filtered rule too.
        let n = 5;
        let m = 1_000_000usize;
        let sys = two_class_sys(generators::ring(n), m, true);
        let half = m as u64 / 2;
        let state = hot_classes(n, &[half, half]);
        let mut sim = CountSim::for_system(
            &sys,
            MigrationRule::OwnWeight,
            Alpha::Approximate,
            state,
            11,
        );
        for _ in 0..200 {
            sim.step();
        }
        assert_eq!(sim.state().total_tasks(), m as u64);
        assert_eq!(sim.state().class_total(0), half);
        assert!(sim.state().node_weight(0) < sim.state().total_weight() / 2.0);
    }

    // The event layer.

    /// A ring of `n` nodes with the given speeds.
    fn ring(n: usize, speeds: Vec<f64>) -> (Graph, SpeedVector) {
        (generators::ring(n), SpeedVector::new(speeds).unwrap())
    }

    /// A relaxed-rule run of `m` unit tasks on node 0 under `cfg`.
    fn dynamic<'a>(
        (graph, speeds): &'a (Graph, SpeedVector),
        m: u64,
        cfg: DynamicConfig,
        seed: u64,
    ) -> CountSim<'a> {
        let state = ClassCountState::all_on_node(graph.node_count(), 0, m);
        CountSim::new(
            graph,
            speeds,
            MigrationRule::Relaxed,
            Alpha::Approximate,
            state,
            seed,
        )
        .with_dynamics(cfg)
    }

    /// The kernel's tables equal a fresh build from the current graph,
    /// speeds and `α`, the snapshot equals what the state computes, and
    /// every destination row the kernel has not marked stale equals one
    /// priced from scratch against them.
    fn assert_derived_state_is_current(sim: &CountSim<'_>, context: &str) {
        let fresh = KernelTables::build(
            &sim.graph,
            &sim.speeds,
            sim.alpha,
            sim.rule,
            sim.state.class_weights(),
        );
        assert!(
            *sim.kernel.tables() == fresh,
            "{context}: stale kernel tables"
        );
        let state = &sim.state;
        assert_eq!(sim.snapshot.node_weights, state.node_weights(), "{context}");
        assert_eq!(sim.snapshot.loads, state.loads(&sim.speeds), "{context}");
        for v in 0..state.nodes() {
            assert_eq!(
                sim.snapshot.occupied[v],
                state.node_task_count(v) > 0,
                "{context}"
            );
            let lightest = state.min_weight_present(v).unwrap_or(f64::INFINITY);
            assert_eq!(sim.snapshot.lightest[v], lightest, "{context}");
        }
        let outdated = sim.kernel.outdated_rows(
            &sim.graph,
            &sim.snapshot.node_weights,
            &sim.snapshot.loads,
            state.class_weights(),
            &state.counts,
        );
        assert!(
            outdated.is_empty(),
            "{context}: cached rows of nodes {outdated:?} are outdated"
        );
    }

    #[test]
    fn kernel_tables_and_snapshot_follow_every_event() {
        // Static runs and every event mix — each speed dynamic or none,
        // with or without churn, with or without arrivals and completions
        // — on a star, a path and a mesh (unequal degrees, which churn
        // changes), for both rules, one class and two: after each half of
        // every step the derived state must be current. A static run also
        // has its speeds changed by hand mid-run, the one table rebuild
        // that no event round follows.
        let speed_dynamics = [
            None,
            Some(SpeedDynamics::Drift { sigma: 0.2 }),
            Some(SpeedDynamics::Shock {
                round: 3,
                fraction: 0.5,
            }),
            Some(SpeedDynamics::Feedback { eta: 0.3 }),
        ];
        for graph in [
            generators::star(9),
            generators::path(8),
            generators::mesh(3, 4),
        ] {
            let n = graph.node_count();
            let speeds = SpeedVector::new((0..n).map(|v| 1.0 + (v % 3) as f64).collect()).unwrap();
            for (dynamics, churn, flow) in speed_dynamics
                .iter()
                .flat_map(|&d| [(d, false), (d, true)])
                .flat_map(|(d, c)| [(d, c, false), (d, c, true)])
            {
                let cfg = DynamicConfig {
                    arrivals: flow.then_some(ArrivalProcess::Poisson { rate: 0.5 }),
                    completions: flow.then_some(CompletionProcess::Rate { mu: 0.05 }),
                    churn: churn.then_some(ChurnProcess { rate: 0.2 }),
                    speed_dynamics: dynamics,
                };
                for rule in [MigrationRule::Relaxed, MigrationRule::OwnWeight] {
                    for state in [
                        ClassCountState::all_on_node(n, 0, 80),
                        hot_classes(n, &[40, 40]),
                    ] {
                        let k = state.classes();
                        let mut sim =
                            CountSim::new(&graph, &speeds, rule, Alpha::Approximate, state, 3)
                                .with_dynamics(cfg);
                        let run = format!("n={n} {cfg:?} {rule:?} k={k}");
                        assert_derived_state_is_current(&sim, &format!("{run} start"));
                        let mut left = 0;
                        for round in 0..30 {
                            if round == 10 && !cfg.is_dynamic() {
                                let faster =
                                    sim.speeds.as_slice().iter().map(|s| 2.0 * s).collect();
                                sim.set_speeds(faster);
                                sim.refresh_snapshot();
                                let context = format!("{run} round {round}, new speeds");
                                assert_derived_state_is_current(&sim, &context);
                            }
                            // `step` in its two halves: the kernel round
                            // reads what the events leave.
                            left += sim.apply_events().left;
                            let context = format!("{run} round {round}");
                            assert_derived_state_is_current(&sim, &format!("{context}, events"));
                            sim.kernel_round();
                            assert_derived_state_is_current(&sim, &format!("{context}, kernel"));
                        }
                        assert_eq!(left > 0, churn, "{run}: churn must change the topology");
                    }
                }
            }
        }
    }

    #[test]
    fn trajectory_is_thread_invariant() {
        let inst = ring(24, (0..24).map(|i| 1.0 + (i % 3) as f64).collect());
        let cfg = DynamicConfig {
            arrivals: Some(ArrivalProcess::Poisson { rate: 0.4 }),
            completions: Some(CompletionProcess::Rate { mu: 0.05 }),
            churn: Some(ChurnProcess { rate: 0.05 }),
            speed_dynamics: Some(SpeedDynamics::Drift { sigma: 0.1 }),
        };
        let run = |threads: usize| {
            let mut sim = dynamic(&inst, 480, cfg, 7).with_threads(threads);
            let log: Vec<_> = (0..60)
                .map(|_| (sim.step(), sim.state().total_tasks()))
                .collect();
            (log, sim.state().clone())
        };
        let one = run(1);
        assert_eq!(one, run(8));
        assert_eq!(one, run(64));
    }

    #[test]
    fn population_accounting_balances_every_step() {
        let inst = ring(12, vec![1.0; 12]);
        let cfg = DynamicConfig {
            arrivals: Some(ArrivalProcess::Poisson { rate: 1.0 }),
            completions: Some(CompletionProcess::Rate { mu: 0.1 }),
            churn: Some(ChurnProcess { rate: 0.1 }),
            speed_dynamics: None,
        };
        let mut sim = dynamic(&inst, 120, cfg, 13);
        let mut population = sim.state().total_tasks();
        for round in 0..200 {
            let rep = sim.step();
            let expected = population + rep.arrived - rep.completed;
            assert_eq!(sim.state().total_tasks(), expected, "round {round}");
            population = expected;
            // Dead nodes hold nothing: churn re-scatters before the round.
            for v in 0..12 {
                if !sim.alive[v] {
                    assert_eq!(
                        sim.state().node_task_count(v),
                        0,
                        "dead node {v} holds tasks"
                    );
                }
            }
        }
    }

    #[test]
    fn count_based_completions_remove_exactly_the_requested_count() {
        let inst = ring(8, vec![1.0; 8]);
        let cfg = DynamicConfig {
            completions: Some(CompletionProcess::PerRound { count: 7 }),
            ..DynamicConfig::default()
        };
        let mut sim = dynamic(&inst, 400, cfg, 5);
        let mut expect = 400u64;
        while expect > 0 {
            let rep = sim.step();
            assert_eq!(rep.completed, 7.min(expect));
            expect -= rep.completed;
            assert_eq!(sim.state().total_tasks(), expect);
        }
        // Empty system stays empty and quiet.
        let rep = sim.step();
        assert_eq!(rep.completed, 0);
        assert_eq!(rep.migrations, 0);
    }

    #[test]
    fn batch_arrivals_fire_on_the_period() {
        let inst = ring(6, vec![1.0; 6]);
        let cfg = DynamicConfig {
            arrivals: Some(ArrivalProcess::Batch {
                size: 30,
                period: 5,
            }),
            ..DynamicConfig::default()
        };
        let mut sim = dynamic(&inst, 0, cfg, 3);
        for round in 0..20u64 {
            let rep = sim.step();
            let expected = if round % 5 == 0 { 30 } else { 0 };
            assert_eq!(rep.arrived, expected, "round {round}");
        }
        assert_eq!(sim.state().total_tasks(), 4 * 30);
    }

    #[test]
    fn churn_leaves_rescatter_to_live_neighbors_and_remap_the_graph() {
        // Force every node to attempt to leave: the engine must keep one
        // node alive, park the whole population on it, and empty the
        // induced edge set.
        let inst = ring(6, vec![1.0; 6]);
        let cfg = DynamicConfig {
            churn: Some(ChurnProcess { rate: 1.0 }),
            ..DynamicConfig::default()
        };
        let mut sim = dynamic(&inst, 60, cfg, 11);
        let rep = sim.step();
        assert_eq!(rep.left, 5);
        assert_eq!(sim.live_count, 1);
        assert_eq!(sim.state().total_tasks(), 60, "re-scatter conserves tasks");
        assert_eq!(sim.graph.edge_count(), 0, "lone survivor has no edges");
        let survivor = sim.alive.iter().position(|&a| a).unwrap();
        assert_eq!(sim.state().node_task_count(survivor), 60);
        // Next round (rate 1 again) every dead node rejoins with zero
        // tasks while the old survivor leaves, scattering its hoard to
        // its freshly-revived ring neighbors. The induced topology is the
        // 6-ring minus one node: a 5-path.
        let rep = sim.step();
        assert_eq!(rep.joined, 5);
        assert_eq!(rep.left, 1);
        assert_eq!(sim.live_count, 5);
        assert_eq!(sim.graph.edge_count(), 4);
        assert_eq!(sim.state().total_tasks(), 60);
    }

    #[test]
    fn shock_quadruples_the_sampled_fraction_once() {
        let inst = ring(32, vec![2.0; 32]);
        let cfg = DynamicConfig {
            speed_dynamics: Some(SpeedDynamics::Shock {
                round: 3,
                fraction: 0.5,
            }),
            ..DynamicConfig::default()
        };
        let mut sim = dynamic(&inst, 64, cfg, 17);
        for _ in 0..3 {
            sim.step();
            assert!(sim.speeds.as_slice().iter().all(|&s| s == 2.0));
        }
        sim.step();
        let seen = sim.speeds.as_slice();
        let hit = seen.iter().filter(|&&s| s == 8.0).count();
        let unhit = seen.iter().filter(|&&s| s == 2.0).count();
        assert_eq!(hit + unhit, 32);
        assert!(hit > 0, "an expected half of 32 nodes can't all miss");
        // The shock is one-shot.
        let snapshot = seen.to_vec();
        sim.step();
        assert_eq!(sim.speeds.as_slice(), &snapshot[..]);
    }

    #[test]
    fn feedback_estimates_converge_to_the_true_speeds() {
        let truth: Vec<f64> = (0..8).map(|i| 1.0 + i as f64).collect();
        let inst = ring(8, truth.clone());
        let cfg = DynamicConfig {
            speed_dynamics: Some(SpeedDynamics::Feedback { eta: 0.2 }),
            ..DynamicConfig::default()
        };
        let mut sim = dynamic(&inst, 80, cfg, 23);
        assert_eq!(sim.true_speeds, truth);
        assert!(sim.speeds.as_slice().iter().all(|&s| s == 1.0));
        for _ in 0..60 {
            sim.step();
        }
        for (est, t) in sim.speeds.as_slice().iter().zip(&truth) {
            assert!((est - t).abs() < 1e-4, "estimate {est} vs true {t}");
        }
    }

    #[test]
    fn drift_keeps_speeds_inside_the_band_and_alpha_valid() {
        let inst = ring(16, vec![1.0; 16]);
        let cfg = DynamicConfig {
            speed_dynamics: Some(SpeedDynamics::Drift { sigma: 0.5 }),
            ..DynamicConfig::default()
        };
        let mut sim = dynamic(&inst, 160, cfg, 29);
        for _ in 0..100 {
            sim.step();
            let seen = sim.speeds.as_slice();
            let s_max = seen.iter().cloned().fold(0.0f64, f64::max);
            assert!(seen.iter().all(|&s| s > 0.0));
            assert!(s_max <= 16.0 + 1e-12, "cap breached: {s_max}");
            // α tracks the moving maximum (p_ij ≤ 1/4 needs α ≥ 4·s_max).
            assert!(sim.alpha >= 4.0 * s_max - 1e-9);
        }
        // Speeds actually moved.
        assert!(sim
            .speeds
            .as_slice()
            .iter()
            .any(|&s| (s - 1.0).abs() > 1e-3));
    }

    #[test]
    fn arrival_injection_matches_per_task_reference_chi_squared() {
        // The injection path places a round's arrivals via sequential
        // conditional binomials; the reference semantics is `total`
        // independent uniform node choices. Both are Multinomial(A,
        // uniform), so a χ² goodness-of-fit against the uniform
        // expectation must accept BOTH at the same (generous) critical
        // value — mirroring the sharded-vs-per-task kernel conformance
        // tests.
        let n = 8usize;
        let rounds = 400u64;
        let per_round = 64u64;
        let (graph, speeds) = ring(n, vec![1.0; n]);
        let cfg = DynamicConfig {
            arrivals: Some(ArrivalProcess::Batch {
                size: per_round,
                period: 1,
            }),
            ..DynamicConfig::default()
        };
        // One fresh run per seed, read after its first step. The kernel
        // round that follows the injection could blur the placement, so
        // α is huge enough (p_ij ~ 1/α) that the chance of any migration
        // in the whole test is below 1e-9.
        let mut tally = vec![0u64; n];
        for seed in 0..rounds {
            let state = ClassCountState::all_on_node(n, 0, 0);
            let mut sim = CountSim::new(
                &graph,
                &speeds,
                MigrationRule::Relaxed,
                Alpha::Custom(1e12),
                state,
                seed,
            )
            .with_dynamics(cfg);
            sim.step();
            for (v, t) in tally.iter_mut().enumerate() {
                *t += sim.state().node_task_count(v);
            }
        }
        // Per-task reference: the same number of independent uniform
        // draws, tallied directly.
        let mut reference = vec![0u64; n];
        let mut rng = rng_for(0xfeed, 0, streams::round::ARRIVAL);
        for _ in 0..rounds * per_round {
            reference[rng.gen_range(0..n)] += 1;
        }
        let total = (rounds * per_round) as f64;
        let expected = total / n as f64;
        let chi2 = |tallies: &[u64]| -> f64 {
            tallies
                .iter()
                .map(|&o| {
                    let d = o as f64 - expected;
                    d * d / expected
                })
                .sum()
        };
        // df = 7; the 99.9% quantile is 24.3. Both paths must sit far
        // below it for these sample sizes if they realize the same
        // distribution.
        let injected = chi2(&tally);
        let per_task = chi2(&reference);
        assert!(injected < 24.3, "injection path χ² = {injected}");
        assert!(per_task < 24.3, "reference path χ² = {per_task}");
        assert_eq!(tally.iter().sum::<u64>(), rounds * per_round);
    }

    #[test]
    fn weighted_arrivals_follow_the_initial_class_mix() {
        // Two classes seeded 3:1 — arrivals must keep that mix.
        let (graph, speeds) = ring(8, vec![1.0; 8]);
        let mut per_node = vec![vec![0u64, 0u64]; 8];
        per_node[0] = vec![300, 100];
        let state = ClassCountState::new(vec![1.0, 0.5], per_node);
        let cfg = DynamicConfig {
            arrivals: Some(ArrivalProcess::Batch {
                size: 1000,
                period: 1,
            }),
            ..DynamicConfig::default()
        };
        let mut sim = CountSim::new(
            &graph,
            &speeds,
            MigrationRule::Relaxed,
            Alpha::Approximate,
            state,
            31,
        )
        .with_dynamics(cfg);
        for _ in 0..20 {
            sim.step();
        }
        let arrived = sim.state().total_tasks() - 400;
        assert_eq!(arrived, 20_000);
        let heavy = sim.state().class_total(0) - 300;
        let share = heavy as f64 / arrived as f64;
        assert!(
            (share - 0.75).abs() < 0.02,
            "heavy-class share {share} vs mix 0.75"
        );
    }
}
