//! Multi-trial experiment execution.
//!
//! Every reported number — sweep rows, validation ladders — is a mean
//! over independent seeded trials;
//! [`run_cell_trials`] executes whole grids of them
//! (optionally across threads — trials are embarrassingly parallel) with
//! seeds derived per `(cell, trial)` pair from a base seed,
//! [`run_trials`] is its single-cell convenience form, and
//! [`measure_uniform_convergence`] is the core Table 1 measurement on the
//! shared [`Trial`] runner: rounds until `Ψ₀ ≤ 4ψ_c` or until an exact
//! Nash equilibrium, for a graph family at a given size.

use crate::stats::Summary;
use crate::theory::{self, Instance};
use crate::trial::Trial;
use slb_core::engine::StopCondition;
use slb_core::equilibrium::Threshold;
use slb_core::model::{SpeedVector, System, TaskSet, TaskState};
use slb_core::rng::derive_seed;
use slb_graphs::generators::Family;
use slb_graphs::NodeId;
use slb_workloads::{BuiltScenario, ProtocolKind};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How trials are executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialConfig {
    /// Number of independent trials.
    pub trials: usize,
    /// Base seed; trial `t` uses `derive_seed(base_seed, 0, t)`.
    pub base_seed: u64,
    /// Worker threads (1 = sequential).
    pub threads: usize,
}

impl TrialConfig {
    /// A sequential configuration.
    pub fn sequential(trials: usize, base_seed: u64) -> Self {
        TrialConfig {
            trials,
            base_seed,
            threads: 1,
        }
    }

    /// A parallel configuration using the available cores.
    pub fn parallel(trials: usize, base_seed: u64) -> Self {
        TrialConfig {
            trials,
            base_seed,
            threads: std::thread::available_parallelism().map_or(1, |p| p.get()),
        }
    }
}

/// Execution parameters of a sweep or validation run (everything *not*
/// in its spec).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// Base seed; trial `t` of cell `c` — a sweep cell, a validation
    /// ladder point — runs on [`trial_seed`]`(base_seed, c, t)`.
    pub base_seed: u64,
    /// Worker threads for the trial fan-out (1 = sequential). Results do
    /// not depend on this value.
    pub threads: usize,
}

impl RunConfig {
    /// A sequential configuration.
    pub fn sequential(base_seed: u64) -> Self {
        RunConfig {
            base_seed,
            threads: 1,
        }
    }

    /// A parallel configuration using the available cores.
    pub fn parallel(base_seed: u64) -> Self {
        RunConfig {
            base_seed,
            threads: std::thread::available_parallelism().map_or(1, |p| p.get()),
        }
    }
}

/// The seed of trial `trial` of the cell with key `cell_key`, as
/// [`run_cell_trials`] derives it: a pure function of the
/// `(base seed, cell key, trial)` triple.
pub fn trial_seed(base_seed: u64, cell_key: u64, trial: usize) -> u64 {
    derive_seed(base_seed, cell_key, trial as u64)
}

/// Runs `trials` independent evaluations of `f` for every cell in
/// `cell_keys`, fanning the flattened `(cell, trial)` work items out
/// across `threads` worker threads. Trial `t` of the cell with key `k`
/// receives the seed [`trial_seed`]`(base_seed, k, t)`, so results are
/// independent of the thread count and of how work items interleave.
///
/// `f` is called as `f(cell_position, trial, seed)` where `cell_position`
/// indexes into `cell_keys`; results come back grouped per cell, in trial
/// order.
///
/// # Panics
///
/// Panics if `trials == 0` or `threads == 0`, or if a worker panics.
pub fn run_cell_trials<R, F>(
    cell_keys: &[u64],
    trials: usize,
    base_seed: u64,
    threads: usize,
    f: F,
) -> Vec<Vec<R>>
where
    F: Fn(usize, usize, u64) -> R + Sync,
    R: Send,
{
    assert!(trials > 0, "need at least one trial");
    assert!(threads > 0, "need at least one thread");
    let total = cell_keys.len() * trials;
    let slots: Vec<Mutex<Option<R>>> = (0..total).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let f_ref = &f;
    let slots_ref = &slots;
    let next_ref = &next;
    crossbeam::thread::scope(|scope| {
        for _ in 0..threads.min(total.max(1)) {
            scope.spawn(move |_| loop {
                let item = next_ref.fetch_add(1, Ordering::Relaxed);
                if item >= total {
                    break;
                }
                let (cell, trial) = (item / trials, item % trials);
                let seed = trial_seed(base_seed, cell_keys[cell], trial);
                *slots_ref[item].lock().expect("no poisoned trial slot") =
                    Some(f_ref(cell, trial, seed));
            });
        }
    })
    .expect("trial worker panicked");
    let mut flat: Vec<R> = slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("no poisoned trial slot")
                .expect("every work item was executed")
        })
        .collect();
    let mut grouped = Vec::with_capacity(cell_keys.len());
    for _ in 0..cell_keys.len() {
        let rest = flat.split_off(trials);
        grouped.push(flat);
        flat = rest;
    }
    grouped
}

/// Runs `config.trials` independent evaluations of `f` (one per derived
/// seed) and returns the observations in trial order.
///
/// Single-cell convenience wrapper over [`run_cell_trials`] (cell key 0,
/// so trial `t` keeps its historical seed `derive_seed(base_seed, 0, t)`).
///
/// # Panics
///
/// Panics if `config.trials == 0` or `config.threads == 0`, or if a worker
/// panics.
pub fn run_trials<F>(config: TrialConfig, f: F) -> Vec<f64>
where
    F: Fn(u64) -> f64 + Sync,
{
    run_cell_trials(
        &[0],
        config.trials,
        config.base_seed,
        config.threads,
        |_, _, seed| f(seed),
    )
    .pop()
    .expect("one cell was requested")
}

/// Convergence target for [`measure_uniform_convergence`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Target {
    /// First round with `Ψ₀ ≤ 4ψ_c` (Theorem 1.1/1.3's intermediate
    /// state).
    ApproxPsi0,
    /// First round in an exact Nash equilibrium (Theorem 1.2's state).
    ExactNash,
}

/// One measured configuration of the Table 1 experiment.
#[derive(Debug, Clone)]
pub struct ConvergenceMeasurement {
    /// The graph family measured.
    pub family: Family,
    /// Nodes.
    pub n: usize,
    /// Tasks.
    pub m: usize,
    /// Rounds-to-target across trials (budget value when not reached).
    pub rounds: Summary,
    /// Fraction of trials that reached the target within the budget.
    pub reached_fraction: f64,
    /// The instance parameters used for the theory columns.
    pub instance: Instance,
}

/// How the task count `m` scales with the topology size in a sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TaskScaling {
    /// `m = k·n` — fixed average load; the natural reading of the *exact*
    /// NE column (Theorem 1.2's bound is `m`-free).
    PerNode(usize),
    /// `m = ⌈8·δ·s_max·S·n²⌉` — fixed `δ` per Theorem 1.1, so the reached
    /// `Ψ₀ ≤ 4ψ_c` state is always a `2/(1+δ)`-approximate NE; the natural
    /// reading of the ε-approximate column.
    DeltaFixed(f64),
}

impl TaskScaling {
    /// Resolves the task count for `n` uniform-speed machines.
    pub fn resolve(self, n: usize) -> usize {
        match self {
            TaskScaling::PerNode(k) => n * k,
            TaskScaling::DeltaFixed(delta) => {
                // s_max = 1, S = n on uniform machines.
                (8.0 * delta * n as f64 * (n * n) as f64).ceil() as usize
            }
        }
    }
}

/// Measures Algorithm 1 on uniform machines for one `(family, m/n)` point
/// on the shared [`Trial`] runner (the count engine on one unit class),
/// starting from the adversarial all-on-node-0 state.
///
/// # Panics
///
/// Panics on degenerate configurations (`tasks_per_node == 0`,
/// `max_rounds == 0`).
pub fn measure_uniform_convergence(
    family: Family,
    tasks_per_node: usize,
    target: Target,
    config: TrialConfig,
    max_rounds: u64,
) -> ConvergenceMeasurement {
    assert!(tasks_per_node > 0, "need at least one task per node");
    measure_uniform_convergence_scaled(
        family,
        TaskScaling::PerNode(tasks_per_node),
        target,
        config,
        max_rounds,
    )
}

/// As [`measure_uniform_convergence`] but with an explicit [`TaskScaling`].
///
/// # Panics
///
/// Panics if `max_rounds == 0` or the scaling resolves to zero tasks.
pub fn measure_uniform_convergence_scaled(
    family: Family,
    scaling: TaskScaling,
    target: Target,
    config: TrialConfig,
    max_rounds: u64,
) -> ConvergenceMeasurement {
    assert!(max_rounds > 0, "need a positive round budget");
    let graph = family.build();
    let n = graph.node_count();
    let m = scaling.resolve(n);
    assert!(m > 0, "task scaling resolved to zero tasks");
    let lambda2 = slb_spectral::closed_form::lambda2_family(family);
    let instance = Instance::uniform_speeds(n, m, graph.max_degree(), lambda2);
    let psi_target = 4.0 * theory::psi_c(&instance);

    let condition = match target {
        Target::ApproxPsi0 => StopCondition::Psi0Below(psi_target),
        Target::ExactNash => StopCondition::Nash(Threshold::UnitWeight),
    };

    let rounds: Vec<f64> = run_trials(config, move |seed| {
        let system = System::new(family.build(), SpeedVector::uniform(n), TaskSet::uniform(m))
            .expect("uniform instance is valid");
        let initial = TaskState::all_on_node(&system, NodeId(0));
        let trial = Trial {
            built: BuiltScenario {
                system,
                initial,
                description: String::new(),
            },
            unit_weights: true,
            sim_seed: seed,
        };
        // A censored trial ran the whole budget: its rounds are
        // `max_rounds`, a lower bound.
        trial
            .run(ProtocolKind::Alg1, condition, max_rounds, 1)
            .run
            .rounds as f64
    });

    let reached =
        rounds.iter().filter(|&&r| (r as u64) < max_rounds).count() as f64 / rounds.len() as f64;
    ConvergenceMeasurement {
        family,
        n,
        m,
        rounds: Summary::of(&rounds),
        reached_fraction: reached,
        instance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trials_are_deterministic_and_ordered() {
        let config = TrialConfig::sequential(8, 99);
        let a = run_trials(config, |seed| (seed % 1000) as f64);
        let b = run_trials(config, |seed| (seed % 1000) as f64);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        // Different base seed changes the sample.
        let c = run_trials(TrialConfig::sequential(8, 100), |seed| (seed % 1000) as f64);
        assert_ne!(a, c);
    }

    #[test]
    fn cell_trials_group_and_seed_stably() {
        let f = |cell: usize, trial: usize, seed: u64| (cell, trial, seed);
        let keys = [3u64, 9, 27];
        let a = run_cell_trials(&keys, 4, 11, 1, f);
        let b = run_cell_trials(&keys, 4, 11, 8, f);
        assert_eq!(a, b, "thread count must not change results");
        assert_eq!(a.len(), 3);
        for (cell, group) in a.iter().enumerate() {
            assert_eq!(group.len(), 4);
            for (trial, &(c, t, seed)) in group.iter().enumerate() {
                assert_eq!((c, t), (cell, trial));
                assert_eq!(seed, derive_seed(11, keys[cell], trial as u64));
            }
        }
        // All (cell, trial) seeds are distinct.
        let seeds: std::collections::HashSet<u64> =
            a.iter().flatten().map(|&(_, _, s)| s).collect();
        assert_eq!(seeds.len(), 12);
        // No cells at all is a valid (empty) request.
        assert!(run_cell_trials(&[], 2, 1, 2, f).is_empty());
    }

    #[test]
    fn parallel_trials_match_sequential() {
        let work = |seed: u64| ((seed >> 3) % 97) as f64;
        let seq = run_trials(TrialConfig::sequential(16, 5), work);
        let par = run_trials(
            TrialConfig {
                trials: 16,
                base_seed: 5,
                threads: 4,
            },
            work,
        );
        assert_eq!(seq, par);
    }

    #[test]
    fn measures_ring_convergence() {
        let m = measure_uniform_convergence(
            Family::Ring { n: 8 },
            16,
            Target::ApproxPsi0,
            TrialConfig::sequential(3, 1),
            200_000,
        );
        assert_eq!(m.n, 8);
        assert_eq!(m.m, 128);
        assert_eq!(m.reached_fraction, 1.0, "small ring must converge");
        assert!(m.rounds.mean >= 0.0);
        assert!(m.rounds.max < 200_000.0);
    }

    #[test]
    fn exact_nash_takes_at_least_as_long_as_approx() {
        let cfg = TrialConfig::sequential(3, 2);
        let approx = measure_uniform_convergence(
            Family::Complete { n: 8 },
            32,
            Target::ApproxPsi0,
            cfg,
            500_000,
        );
        let exact = measure_uniform_convergence(
            Family::Complete { n: 8 },
            32,
            Target::ExactNash,
            cfg,
            500_000,
        );
        assert_eq!(exact.reached_fraction, 1.0);
        assert!(exact.rounds.mean >= approx.rounds.mean);
    }

    #[test]
    fn censoring_reports_budget() {
        // Budget of 1 round cannot reach exact Nash from the hot start.
        let m = measure_uniform_convergence(
            Family::Ring { n: 8 },
            64,
            Target::ExactNash,
            TrialConfig::sequential(2, 3),
            1,
        );
        assert_eq!(m.reached_fraction, 0.0);
        assert_eq!(m.rounds.mean, 1.0);
    }

    #[test]
    #[should_panic(expected = "need at least one trial")]
    fn zero_trials_panics() {
        let _ = run_trials(TrialConfig::sequential(0, 1), |_| 0.0);
    }

    #[test]
    fn task_scaling_resolution() {
        assert_eq!(TaskScaling::PerNode(32).resolve(8), 256);
        // 8·δ·n³ with δ = 2, n = 4 → 1024.
        assert_eq!(TaskScaling::DeltaFixed(2.0).resolve(4), 1024);
    }

    #[test]
    fn delta_fixed_scaling_converges_and_is_eps_nash_ready() {
        let m = measure_uniform_convergence_scaled(
            Family::Ring { n: 4 },
            TaskScaling::DeltaFixed(2.0),
            Target::ApproxPsi0,
            TrialConfig::sequential(2, 5),
            2_000_000,
        );
        assert_eq!(m.m, 1024);
        assert_eq!(m.reached_fraction, 1.0);
        // δ recovered from the instance must match.
        let delta = crate::theory::delta_of_instance(&m.instance);
        assert!((delta - 2.0).abs() < 0.01, "δ = {delta}");
    }
}
