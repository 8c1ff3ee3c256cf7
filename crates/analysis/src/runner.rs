//! Multi-trial experiment execution.
//!
//! Every reported number — sweep rows, validation ladders, figure
//! points — is a mean over independent seeded trials;
//! [`run_cell_trials`] executes whole grids of them
//! (optionally across threads — trials are embarrassingly parallel) with
//! seeds derived per `(cell, trial)` pair from a base seed, and
//! [`run_trials`] is its single-cell convenience form. What one trial
//! runs is the caller's: sweeps and validation ladders run a
//! [`Trial`](crate::trial::Trial).

use slb_core::rng::derive_seed;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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
    std::thread::scope(|scope| {
        for _ in 0..threads.min(total.max(1)) {
            scope.spawn(move || loop {
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
    });
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

/// Runs `trials` independent evaluations of `f` (one per derived seed)
/// and returns the observations in trial order.
///
/// Single-cell convenience wrapper over [`run_cell_trials`] (cell key 0,
/// so trial `t` runs on `derive_seed(config.base_seed, 0, t)`).
///
/// # Panics
///
/// Panics if `trials == 0` or `config.threads == 0`, or if a worker
/// panics.
pub fn run_trials<F>(trials: usize, config: RunConfig, f: F) -> Vec<f64>
where
    F: Fn(u64) -> f64 + Sync,
{
    run_cell_trials(
        &[0],
        trials,
        config.base_seed,
        config.threads,
        |_, _, seed| f(seed),
    )
    .pop()
    .expect("one cell was requested")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::theory::{self, Instance};
    use crate::trial::Trial;
    use slb_core::engine::{RunOutcome, StopCondition};
    use slb_core::equilibrium::Threshold;
    use slb_graphs::generators::Family;
    use slb_workloads::placement::Placement;
    use slb_workloads::speeds::SpeedDistribution;
    use slb_workloads::weights::WeightDistribution;
    use slb_workloads::{LoadRule, ProtocolKind};

    #[test]
    fn trials_are_deterministic_and_ordered() {
        let config = RunConfig::sequential(99);
        let a = run_trials(8, config, |seed| (seed % 1000) as f64);
        let b = run_trials(8, config, |seed| (seed % 1000) as f64);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        // Different base seed changes the sample.
        let c = run_trials(8, RunConfig::sequential(100), |seed| (seed % 1000) as f64);
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
        let seeds: std::collections::BTreeSet<u64> =
            a.iter().flatten().map(|&(_, _, s)| s).collect();
        assert_eq!(seeds.len(), 12);
        // No cells at all is a valid (empty) request.
        assert!(run_cell_trials(&[], 2, 1, 2, f).is_empty());
    }

    #[test]
    fn parallel_trials_match_sequential() {
        let work = |seed: u64| ((seed >> 3) % 97) as f64;
        let seq = run_trials(16, RunConfig::sequential(5), work);
        let par = run_trials(
            16,
            RunConfig {
                base_seed: 5,
                threads: 4,
            },
            work,
        );
        assert_eq!(seq, par);
    }

    /// A worker's panic leaves the thread scope once the other workers
    /// drain the queue: no hang, and no result slot left to the
    /// `every work item was executed` check.
    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn a_panicking_trial_propagates_across_threads() {
        run_cell_trials(&[0, 1, 2], 4, 3, 4, |cell, trial, _| {
            assert!(cell * 4 + trial != 5, "trial 5 fails");
            trial
        });
    }

    /// Unit-weight Algorithm 1 from the hot spot on `trials` [`Trial`]s
    /// seeded as cell 0, stopping at `Ψ₀ ≤ 4ψ_c` or, with `exact`, at an
    /// exact Nash equilibrium — an `slb validate` ladder point of regime
    /// `approx`/`exact`. Returns the instance and every trial's run.
    fn hot_spot_alg1(
        family: Family,
        tasks_per_node: usize,
        exact: bool,
        trials: usize,
        base_seed: u64,
        max_rounds: u64,
    ) -> (Instance, Vec<RunOutcome>) {
        let graph = family.build();
        let n = graph.node_count();
        let lambda2 = slb_spectral::closed_form::lambda2_family(family);
        let inst = Instance::uniform_speeds(n, n * tasks_per_node, graph.max_degree(), lambda2);
        let condition = if exact {
            StopCondition::Nash(Threshold::UnitWeight)
        } else {
            StopCondition::Psi0Below(4.0 * theory::psi_c(&inst))
        };
        let mut runs = run_cell_trials(&[0], trials, base_seed, 1, |_, _, seed| {
            Trial::build(
                family,
                SpeedDistribution::Uniform,
                WeightDistribution::Unit,
                Placement::AllOnNode(0),
                tasks_per_node,
                seed,
            )
            .expect("a unit hot-spot trial builds")
            .run(ProtocolKind::Alg1, condition, max_rounds, 1)
            .run
        });
        (inst, runs.pop().expect("one cell was requested"))
    }

    fn mean_rounds(runs: &[RunOutcome]) -> f64 {
        runs.iter().map(|r| r.rounds as f64).sum::<f64>() / runs.len() as f64
    }

    #[test]
    fn measures_ring_convergence() {
        let (inst, runs) = hot_spot_alg1(Family::Ring { n: 8 }, 16, false, 3, 1, 200_000);
        assert_eq!(inst.n, 8);
        assert_eq!(inst.total_work, 128.0);
        assert!(
            runs.iter().all(RunOutcome::reached),
            "small ring must converge"
        );
        assert!(runs.iter().all(|r| r.rounds < 200_000));
    }

    #[test]
    fn exact_nash_takes_at_least_as_long_as_approx() {
        let complete = Family::Complete { n: 8 };
        let (_, approx) = hot_spot_alg1(complete, 32, false, 3, 2, 500_000);
        let (_, exact) = hot_spot_alg1(complete, 32, true, 3, 2, 500_000);
        assert!(exact.iter().all(RunOutcome::reached));
        assert!(mean_rounds(&exact) >= mean_rounds(&approx));
    }

    #[test]
    fn censoring_reports_budget() {
        // Budget of 1 round cannot reach exact Nash from the hot start.
        let (_, runs) = hot_spot_alg1(Family::Ring { n: 8 }, 64, true, 2, 3, 1);
        assert!(runs.iter().all(|r| !r.reached()));
        assert_eq!(mean_rounds(&runs), 1.0);
    }

    #[test]
    #[should_panic(expected = "need at least one trial")]
    fn zero_trials_panics() {
        let _ = run_trials(0, RunConfig::sequential(1), |_| 0.0);
    }

    #[test]
    fn delta_fixed_scaling_converges_and_is_eps_nash_ready() {
        let per_node = LoadRule::DeltaFixed(2.0).tasks_per_node(4);
        let (inst, runs) = hot_spot_alg1(Family::Ring { n: 4 }, per_node, false, 2, 5, 2_000_000);
        assert_eq!(inst.total_work, 1024.0);
        assert!(runs.iter().all(RunOutcome::reached));
        // δ recovered from the instance must match.
        let delta = theory::delta_of_instance(&inst);
        assert!((delta - 2.0).abs() < 0.01, "δ = {delta}");
    }
}
