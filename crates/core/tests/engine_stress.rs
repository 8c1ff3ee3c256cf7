//! Stress and failure-injection tests for the simulation engines: long
//! runs, aggregate-rebuild consistency, degenerate topologies, and
//! adversarial workloads.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use slb_core::engine::count::{ClassCountState, CountRule, CountSim};
use slb_core::engine::kernel::{shard_range, ROUND_SHARDS};
use slb_core::engine::parallel::{ParallelSimulation, DEFAULT_CHUNK_SIZE};
use slb_core::engine::{Simulation, StopCondition, StopReason};
use slb_core::equilibrium::{self, Threshold};
use slb_core::model::{SpeedVector, System, TaskId, TaskSet, TaskState};
use slb_core::protocol::{Alpha, BhsBaseline, SelfishUniform, SelfishWeighted};
use slb_graphs::{generators, NodeId};

#[test]
fn long_run_incremental_aggregates_match_rebuild() {
    // 50k rounds of weighted churn: incremental node weights must agree
    // with a from-scratch rebuild to floating-point tolerance.
    let mut wrng = StdRng::seed_from_u64(1);
    let n = 9;
    let m = 450;
    let weights: Vec<f64> = (0..m).map(|_| wrng.gen_range(0.01..=1.0)).collect();
    let system = System::new(
        generators::torus(3, 3),
        SpeedVector::integer((0..n as u64).map(|i| 1 + i % 2).collect()).unwrap(),
        TaskSet::weighted(weights).unwrap(),
    )
    .unwrap();
    let mut sim = Simulation::new(
        &system,
        SelfishWeighted::new(),
        TaskState::all_on_node(&system, NodeId(0)),
        2,
    );
    sim.run(50_000);
    let mut rebuilt = sim.state().clone();
    rebuilt.rebuild_aggregates(&system);
    for v in 0..n {
        let a = sim.state().node_weight(NodeId(v));
        let b = rebuilt.node_weight(NodeId(v));
        assert!(
            (a - b).abs() < 1e-7 * b.abs().max(1.0),
            "node {v}: incremental {a} vs rebuilt {b}"
        );
    }
    sim.state().check_invariants(&system).unwrap();
}

#[test]
fn two_node_degenerate_topology() {
    // The smallest possible network: one edge. Everything must still hold.
    let system = System::new(
        generators::path(2),
        SpeedVector::integer(vec![1, 5]).unwrap(),
        TaskSet::uniform(101),
    )
    .unwrap();
    let mut sim = Simulation::new(
        &system,
        SelfishUniform::new(),
        TaskState::all_on_node(&system, NodeId(0)),
        3,
    );
    let o = sim.run_until(StopCondition::Nash(Threshold::UnitWeight), 200_000);
    assert_eq!(o.reason, StopReason::ConditionMet);
    // Nash split on speeds {1, 5}: fast node carries most of the load.
    let fast = sim.state().node_task_count(NodeId(1));
    assert!(fast > 70, "fast node holds only {fast} of 101");
    sim.state().check_invariants(&system).unwrap();
}

#[test]
fn star_hub_drains_through_bottleneck() {
    // The star maximizes the d_ij asymmetry: hub degree n−1, leaves 1.
    let n = 17;
    let system = System::new(
        generators::star(n),
        SpeedVector::uniform(n),
        TaskSet::uniform(16 * n),
    )
    .unwrap();
    let mut sim = Simulation::new(
        &system,
        SelfishUniform::new(),
        TaskState::all_on_node(&system, NodeId(0)),
        5,
    );
    let o = sim.run_until(StopCondition::Nash(Threshold::UnitWeight), 500_000);
    assert_eq!(o.reason, StopReason::ConditionMet);
    sim.state().check_invariants(&system).unwrap();
}

#[test]
fn heavy_tasks_on_slow_machines_unwind() {
    // Adversarial weighted start: all the heavy tasks on the slowest node.
    let n = 6;
    let mut weights: Vec<f64> = vec![1.0; 30];
    weights.extend(std::iter::repeat_n(0.05, 60));
    let system = System::new(
        generators::ring(n),
        SpeedVector::integer(vec![1, 4, 4, 4, 4, 4]).unwrap(),
        TaskSet::weighted(weights).unwrap(),
    )
    .unwrap();
    // Heavy tasks (ids 0..30) on node 0 (the slow one), light spread.
    let assignment: Vec<usize> = (0..90)
        .map(|t| if t < 30 { 0 } else { 1 + (t % 5) })
        .collect();
    let initial = TaskState::from_assignment(&system, &assignment).unwrap();
    let mut sim = Simulation::new(&system, BhsBaseline::new(), initial, 6);
    sim.run_until(StopCondition::Quiescent(3_000), 300_000);
    // The slow node must shed most heavy weight.
    let slow_load = sim.state().load(&system, NodeId(0));
    let max_load = equilibrium::makespan(&system, sim.state());
    assert!(
        slow_load <= max_load + 1e-9 && slow_load < 30.0 / 2.0,
        "slow node still at load {slow_load}"
    );
    sim.state().check_invariants(&system).unwrap();
}

#[test]
fn parallel_engine_survives_tiny_and_huge_chunking() {
    let system = System::new(
        generators::hypercube(5),
        SpeedVector::uniform(32),
        TaskSet::uniform(3200),
    )
    .unwrap();
    for (chunk, threads) in [(1usize, 7usize), (17, 2), (100_000, 5)] {
        let mut sim = ParallelSimulation::with_layout(
            &system,
            SelfishUniform::new(),
            TaskState::all_on_node(&system, NodeId(0)),
            9,
            chunk,
            threads,
        );
        sim.run(10);
        sim.state().check_invariants(&system).unwrap();
    }
}

#[test]
fn parallel_trajectories_invariant_across_thread_counts_weighted() {
    // The determinism contract behind `slb sweep`: a chunk-seeded parallel
    // run is a pure function of (seed, chunk size) — the thread count must
    // not change a single state, even for weighted tasks on heterogeneous
    // speeds where commit order alters floating-point aggregates.
    let mut wrng = StdRng::seed_from_u64(7);
    let n = 16;
    let m = 4_000;
    let weights: Vec<f64> = (0..m).map(|_| wrng.gen_range(0.01..=1.0)).collect();
    let system = System::new(
        generators::torus(4, 4),
        SpeedVector::integer((0..n as u64).map(|i| 1 + i % 3).collect()).unwrap(),
        TaskSet::weighted(weights).unwrap(),
    )
    .unwrap();
    let run = |threads: usize| {
        let mut sim = ParallelSimulation::with_layout(
            &system,
            SelfishWeighted::new(),
            TaskState::all_on_node(&system, NodeId(0)),
            31,
            256,
            threads,
        );
        let migrations = sim.run(20);
        (migrations, sim.into_state())
    };
    let (m1, s1) = run(1);
    let (m4, s4) = run(4);
    let (m13, s13) = run(13);
    assert_eq!(m1, m4);
    assert_eq!(m4, m13);
    assert_eq!(s1, s4);
    assert_eq!(s4, s13);
    s1.check_invariants(&system).unwrap();

    // Same contract for the BHS baseline.
    let run_bhs = |threads: usize| {
        let mut sim = ParallelSimulation::with_layout(
            &system,
            BhsBaseline::new(),
            TaskState::all_on_node(&system, NodeId(5)),
            77,
            512,
            threads,
        );
        sim.run(15);
        sim.into_state()
    };
    assert_eq!(run_bhs(1), run_bhs(8));
}

#[test]
fn fast_sim_extreme_imbalance_and_large_counts() {
    // A million tasks on one node of a small ring: the binomial sampler
    // must stay stable through the normal-approximation regime.
    let n = 5;
    let m = 1_000_000u64;
    let system = System::new(
        generators::ring(n),
        SpeedVector::uniform(n),
        TaskSet::uniform(m as usize),
    )
    .unwrap();
    let mut sim = CountSim::for_system(
        &system,
        CountRule::Relaxed,
        Alpha::Approximate,
        ClassCountState::all_on_node(n, 0, m),
        11,
    );
    for _ in 0..200 {
        sim.step();
    }
    assert_eq!(sim.state().total_tasks(), m);
    // After 200 rounds the hot node must have shed a large fraction.
    assert!(
        sim.state().node_task_count(0) < m / 2,
        "hot node still holds {}",
        sim.state().node_task_count(0)
    );
}

/// Distributional equivalence of the two weighted engines: on a 2-class
/// instance (lossless class mapping), the round-1 migration *count
/// distribution* of the weight-class fast path must match the per-task
/// [`ParallelSimulation`] under `SelfishWeighted` — not just in mean, but
/// bin by bin under the same two-sample χ²-style statistic as the
/// uniform-engine test (fixed seeds; fully deterministic).
#[test]
fn weighted_fast_and_parallel_task_migration_distributions_agree() {
    let graph = generators::ring(4);
    let n = graph.node_count();
    let m = 400usize;
    // Exact 2-class weights: half 0.25, half 1.0, all on node 0.
    let weights: Vec<f64> = (0..m)
        .map(|t| if t % 2 == 0 { 0.25 } else { 1.0 })
        .collect();
    let system = System::new(
        graph,
        SpeedVector::uniform(n),
        TaskSet::weighted(weights).unwrap(),
    )
    .unwrap();
    let trials = 600u64;

    let fast: Vec<u64> = (0..trials)
        .map(|seed| {
            let mut per_node = vec![vec![0u64; 2]; n];
            per_node[0] = vec![200, 200];
            let state = ClassCountState::new(vec![0.25, 1.0], per_node);
            // Run the fast side with the sharded round fanned across 8
            // workers: the χ² check then certifies the threaded schedule,
            // and thread-invariance extends it to every other count.
            let mut sim =
                CountSim::for_system(&system, CountRule::Relaxed, Alpha::Approximate, state, seed)
                    .with_threads(8);
            sim.step().migrations
        })
        .collect();
    let task: Vec<u64> = (0..trials)
        .map(|seed| {
            let mut sim = ParallelSimulation::with_layout(
                &system,
                SelfishWeighted::new(),
                TaskState::all_on_node(&system, NodeId(0)),
                0xfeed_0000 + seed,
                DEFAULT_CHUNK_SIZE,
                1,
            );
            sim.step().migrations as u64
        })
        .collect();

    assert_distributions_agree(&fast, &task, "weighted");
}

/// Two-sample χ²-style homogeneity check shared by the fast-vs-per-task
/// equivalence tests: width-2 bins over the shared range, under-filled
/// bins (< 5 combined observations) merged into their successor to keep
/// the statistic Σ (a_i − b_i)²/(a_i + b_i) well-behaved, and a 3·dof
/// ceiling — χ²(dof) has mean dof and std dev √(2·dof), so 3·dof is a
/// ≫ 5σ bound: a real mismatch (shifted mean, wrong variance) fails while
/// seed noise passes.
fn assert_distributions_agree(fast: &[u64], task: &[u64], label: &str) {
    let max_seen = fast.iter().chain(task).copied().max().unwrap();
    let width = 2u64;
    let bins = (max_seen / width + 1) as usize;
    let mut a = vec![0f64; bins];
    let mut b = vec![0f64; bins];
    for &x in fast {
        a[(x / width) as usize] += 1.0;
    }
    for &x in task {
        b[(x / width) as usize] += 1.0;
    }
    let mut chi2 = 0.0;
    let mut dof = 0usize;
    let (mut acc_a, mut acc_b) = (0.0, 0.0);
    for i in 0..bins {
        acc_a += a[i];
        acc_b += b[i];
        if acc_a + acc_b >= 5.0 {
            chi2 += (acc_a - acc_b) * (acc_a - acc_b) / (acc_a + acc_b);
            dof += 1;
            acc_a = 0.0;
            acc_b = 0.0;
        }
    }
    if acc_a + acc_b > 0.0 {
        chi2 += (acc_a - acc_b) * (acc_a - acc_b) / (acc_a + acc_b);
        dof += 1;
    }
    assert!(dof >= 3, "{label}: degenerate binning: {dof} bins");
    let ceiling = 3.0 * dof as f64;
    assert!(
        chi2 < ceiling,
        "{label}: χ² = {chi2:.1} over {dof} bins exceeds {ceiling:.1}: engines disagree in \
         distribution"
    );
}

/// Distributional equivalence of the speed-aware count engine against the
/// per-task reference on a **non-uniform speed vector**: for both of its
/// rules (Algorithm 2's relaxed threshold and the \[6\] own-weight
/// threshold), the round-1 migration count distribution of
/// [`CountSim`] must match the per-task [`ParallelSimulation`] bin by
/// bin — the same χ²-style statistic as the weighted-engine test. This is
/// the test that keeps the sweep/validate dispatch honest now that no
/// alg2/bhs cell runs per-task.
#[test]
fn speed_fast_and_parallel_task_migration_distributions_agree() {
    let n = 4;
    let m = 400usize;
    // Exact 2-class weights on speeds (1, 3, 1, 3): lossless class
    // mapping, real speed asymmetry in both the thresholds and p_ij.
    let weights: Vec<f64> = (0..m)
        .map(|t| if t % 2 == 0 { 0.25 } else { 1.0 })
        .collect();
    let system = System::new(
        generators::ring(n),
        SpeedVector::integer(vec![1, 3, 1, 3]).unwrap(),
        TaskSet::weighted(weights).unwrap(),
    )
    .unwrap();
    let trials = 600u64;

    let fast_run = |rule: CountRule, seed: u64| {
        let mut per_node = vec![vec![0u64; 2]; n];
        per_node[0] = vec![200, 200];
        let state = ClassCountState::new(vec![0.25, 1.0], per_node);
        // Sharded rounds across 8 workers (see the weighted test above).
        let mut sim =
            CountSim::for_system(&system, rule, Alpha::Approximate, state, seed).with_threads(8);
        sim.step().migrations
    };
    let fast_alg2: Vec<u64> = (0..trials)
        .map(|seed| fast_run(CountRule::Relaxed, seed))
        .collect();
    let fast_bhs: Vec<u64> = (0..trials)
        .map(|seed| fast_run(CountRule::OwnWeight, 100_000 + seed))
        .collect();

    let task_alg2: Vec<u64> = (0..trials)
        .map(|seed| {
            let mut sim = ParallelSimulation::with_layout(
                &system,
                SelfishWeighted::new(),
                TaskState::all_on_node(&system, NodeId(0)),
                0xfeed_0000 + seed,
                DEFAULT_CHUNK_SIZE,
                1,
            );
            sim.step().migrations as u64
        })
        .collect();
    let task_bhs: Vec<u64> = (0..trials)
        .map(|seed| {
            let mut sim = ParallelSimulation::with_layout(
                &system,
                BhsBaseline::new(),
                TaskState::all_on_node(&system, NodeId(0)),
                0xbeef_0000 + seed,
                DEFAULT_CHUNK_SIZE,
                1,
            );
            sim.step().migrations as u64
        })
        .collect();

    assert_distributions_agree(&fast_alg2, &task_alg2, "alg2 × speeds");
    assert_distributions_agree(&fast_bhs, &task_bhs, "bhs × speeds");
}

#[test]
fn weighted_fast_extreme_imbalance_and_large_counts() {
    // A million 2-class tasks on one node of a small ring: the shared
    // binomial sampler must stay stable through the normal-approximation
    // regime, and per-class totals must hold exactly.
    let n = 5;
    let m = 1_000_000usize;
    let weights: Vec<f64> = (0..m).map(|t| if t % 2 == 0 { 0.5 } else { 1.0 }).collect();
    let system = System::new(
        generators::ring(n),
        SpeedVector::uniform(n),
        TaskSet::weighted(weights).unwrap(),
    )
    .unwrap();
    let mut per_node = vec![vec![0u64; 2]; n];
    per_node[0] = vec![m as u64 / 2, m as u64 / 2];
    let state = ClassCountState::new(vec![0.5, 1.0], per_node);
    let mut sim = CountSim::for_system(&system, CountRule::Relaxed, Alpha::Approximate, state, 11);
    for _ in 0..200 {
        sim.step();
    }
    assert_eq!(sim.state().total_tasks(), m as u64);
    assert_eq!(sim.state().class_total(0), m as u64 / 2);
    assert_eq!(sim.state().class_total(1), m as u64 / 2);
    assert!(
        sim.state().node_weight(0) < sim.state().total_weight() / 2.0,
        "hot node still holds {} of {}",
        sim.state().node_weight(0),
        sim.state().total_weight()
    );
}

#[test]
fn protocols_are_stateless_between_runs() {
    // Reusing one protocol value across simulations must not leak state.
    let system = System::new(
        generators::ring(5),
        SpeedVector::uniform(5),
        TaskSet::uniform(50),
    )
    .unwrap();
    let protocol = SelfishUniform::new();
    let run = |p: &SelfishUniform, seed: u64| {
        let mut sim = Simulation::new(
            &system,
            *p,
            TaskState::all_on_node(&system, NodeId(0)),
            seed,
        );
        sim.run(100);
        sim.into_state()
    };
    let a1 = run(&protocol, 42);
    let _other = run(&protocol, 99);
    let a2 = run(&protocol, 42);
    assert_eq!(a1, a2, "protocol must be pure");
}

#[test]
fn every_task_is_tracked_individually() {
    // Spot-check task-level trajectories stay coherent: a task's recorded
    // node always matches the per-node index.
    let system = System::new(
        generators::mesh(3, 3),
        SpeedVector::uniform(9),
        TaskSet::uniform(45),
    )
    .unwrap();
    let mut sim = Simulation::new(
        &system,
        SelfishUniform::new(),
        TaskState::all_on_node(&system, NodeId(4)),
        13,
    );
    for _ in 0..50 {
        sim.step();
        let by_node = sim.state().tasks_by_node(&system);
        for (node, tasks) in by_node.iter().enumerate() {
            for t in tasks {
                assert_eq!(sim.state().task_node(*t), NodeId(node));
            }
        }
        let listed: usize = by_node.iter().map(|v| v.len()).sum();
        assert_eq!(listed, 45);
    }
}

#[test]
fn quiescent_stop_does_not_false_trigger_mid_balancing() {
    // With a hot start and plenty of imbalance, 5 consecutive quiet rounds
    // must not occur before real convergence on this instance.
    let system = System::new(
        generators::ring(6),
        SpeedVector::uniform(6),
        TaskSet::uniform(600),
    )
    .unwrap();
    let mut sim = Simulation::new(
        &system,
        SelfishUniform::new(),
        TaskState::all_on_node(&system, NodeId(0)),
        17,
    );
    let o = sim.run_until(StopCondition::Quiescent(5), 100_000);
    assert_eq!(o.reason, StopReason::ConditionMet);
    // At quiescence the state is (at least nearly) a Nash equilibrium:
    // adjacent load gaps within 2 of the threshold.
    let gap = equilibrium::nash_gap(&system, sim.state(), Threshold::UnitWeight);
    assert!(gap < 0.05, "quiesced far from equilibrium (gap {gap})");
}

/// Distributional equivalence of the **sharded** Algorithm 1 round against
/// the per-task reference on non-uniform speeds: the count kernel prices
/// every (node, class) row against speed-scaled loads, so this is the
/// test that certifies the shard decomposition did not bend the migration
/// distribution where the thresholds actually bite. Same χ²-style
/// statistic as the weighted/speed tests; the fast side runs with 8
/// workers so the threaded schedule itself is under test.
#[test]
fn uniform_fast_sharded_and_task_engine_distributions_agree() {
    let n = 4;
    let m = 400u64;
    let system = System::new(
        generators::ring(n),
        SpeedVector::integer(vec![1, 3, 1, 3]).unwrap(),
        TaskSet::uniform(m as usize),
    )
    .unwrap();
    let trials = 600u64;

    let fast: Vec<u64> = (0..trials)
        .map(|seed| {
            let mut sim = CountSim::for_system(
                &system,
                CountRule::Relaxed,
                Alpha::Approximate,
                ClassCountState::all_on_node(n, 0, m),
                seed,
            )
            .with_threads(8);
            sim.step().migrations
        })
        .collect();
    let task: Vec<u64> = (0..trials)
        .map(|seed| {
            let mut sim = ParallelSimulation::with_layout(
                &system,
                SelfishUniform::new(),
                TaskState::all_on_node(&system, NodeId(0)),
                0xfeed_0000 + seed,
                DEFAULT_CHUNK_SIZE,
                1,
            );
            sim.step().migrations as u64
        })
        .collect();

    assert_distributions_agree(&fast, &task, "alg1 × speeds");
}

/// The sharded round is a pure function of `(seed, round)` — the worker
/// count must never change a single count, for any of the three fast
/// engines. This is the in-crate half of the byte-identity contract the
/// CLI golden tests pin end-to-end.
#[test]
fn sharded_rounds_are_byte_identical_at_any_thread_count() {
    let n = 256;
    let m = 256 * 40u64;
    let speeds: Vec<u64> = (0..n as u64).map(|i| 1 + i % 3).collect();
    let uniform_system = System::new(
        generators::ring(n),
        SpeedVector::uniform(n),
        TaskSet::uniform(m as usize),
    )
    .unwrap();
    let speed_system = System::new(
        generators::ring(n),
        SpeedVector::integer(speeds).unwrap(),
        TaskSet::weighted(
            (0..m)
                .map(|t| if t % 2 == 0 { 0.25 } else { 1.0 })
                .collect(),
        )
        .unwrap(),
    )
    .unwrap();

    let run_uniform = |threads: usize| {
        let mut sim = CountSim::for_system(
            &uniform_system,
            CountRule::Relaxed,
            Alpha::Approximate,
            ClassCountState::all_on_node(n, 0, m),
            29,
        )
        .with_threads(threads);
        let moved: u64 = (0..10).map(|_| sim.step().migrations).sum();
        (moved, sim.state().clone())
    };
    let run_speed = |rule: CountRule, threads: usize| {
        let mut per_node = vec![vec![0u64; 2]; n];
        per_node[0] = vec![m / 2, m / 2];
        let state = ClassCountState::new(vec![0.25, 1.0], per_node);
        let mut sim = CountSim::for_system(&speed_system, rule, Alpha::Approximate, state, 31)
            .with_threads(threads);
        let moved: u64 = (0..10).map(|_| sim.step().migrations).sum();
        (moved, sim.state().clone())
    };
    let run_weighted = |threads: usize| {
        let mut per_node = vec![vec![0u64; 2]; n];
        per_node[0] = vec![m / 2, m / 2];
        let state = ClassCountState::new(vec![0.25, 1.0], per_node);
        let mut sim = CountSim::for_system(
            &speed_system,
            CountRule::Relaxed,
            Alpha::Approximate,
            state,
            37,
        )
        .with_threads(threads);
        let moved: u64 = (0..10).map(|_| sim.step().migrations).sum();
        (moved, sim.state().clone())
    };

    assert_eq!(run_uniform(1), run_uniform(8));
    assert_eq!(run_uniform(8), run_uniform(64));
    assert_eq!(run_weighted(1), run_weighted(8));
    assert_eq!(run_weighted(8), run_weighted(64));
    for rule in [CountRule::Relaxed, CountRule::OwnWeight] {
        assert_eq!(run_speed(rule, 1), run_speed(rule, 8));
        assert_eq!(run_speed(rule, 8), run_speed(rule, 64));
    }
}

/// The tentpole stress target: one sharded round at n = 2²⁰ nodes and
/// m ≈ 10⁸ tasks. Asserts (a) byte-identical results at 1, 8, and 64
/// worker threads, (b) exact global task conservation, and (c) per-shard
/// conservation — on a ring, tasks can only enter or leave a shard across
/// its two boundary edges, so no shard's total may drift by more than the
/// boundary nodes could carry.
#[test]
fn million_node_single_round_conserves_tasks_per_shard() {
    let n = 1usize << 20;
    let per_hot = 190u64;
    // Alternating hot/cold so every node has an imbalanced neighbor and
    // the whole round does real sampling work.
    let counts: Vec<u64> = (0..n)
        .map(|v| if v % 2 == 0 { per_hot } else { 0 })
        .collect();
    let m: u64 = counts.iter().sum();
    assert!(m > 99_000_000, "m = {m} is not ~10⁸");
    let system = System::new(
        generators::ring(n),
        SpeedVector::uniform(n),
        TaskSet::uniform(m as usize),
    )
    .unwrap();

    let run = |threads: usize| {
        let mut sim = CountSim::for_system(
            &system,
            CountRule::Relaxed,
            Alpha::Approximate,
            ClassCountState::unit(counts.clone()),
            23,
        )
        .with_threads(threads);
        let moved = sim.step().migrations;
        let counts: Vec<u64> = (0..n).map(|v| sim.state().node_task_count(v)).collect();
        (moved, counts)
    };
    let (moved1, after1) = run(1);
    let (moved8, after8) = run(8);
    assert_eq!(moved1, moved8, "migration total differs at 1 vs 8 threads");
    assert_eq!(after1, after8, "counts differ at 1 vs 8 threads");
    let (moved64, after64) = run(64);
    assert_eq!(moved8, moved64);
    assert_eq!(after8, after64);

    assert_eq!(after1.iter().sum::<u64>(), m, "global task conservation");
    assert!(moved1 > 0, "a maximally imbalanced round must migrate");
    for shard in 0..ROUND_SHARDS {
        let range = shard_range(shard, n);
        let before: u64 = counts[range.clone()].iter().sum();
        let after: u64 = after1[range.clone()].iter().sum();
        // Each shard boundary is one ring edge; the flow across it is
        // bounded by what the two endpoint nodes held (≤ per_hot each).
        let drift = before.abs_diff(after);
        assert!(
            drift <= 2 * per_hot,
            "shard {shard} ({range:?}) drifted by {drift} tasks — more than its \
             boundary edges could carry"
        );
    }
}

/// Regression for the chained-binomial underflow cap *through the sharded
/// kernel*: two huge nearly-balanced nodes give a migration probability
/// of ~10⁻⁹ on a ~5·10⁷ count, i.e. a small mean where the pmf underflows
/// and only the mean+10σ cap keeps the inverse-CDF walk from scanning
/// tens of millions of support points. Before the cap (PR 3) this
/// configuration hung; now it must finish instantly and conserve.
#[test]
fn kernel_huge_count_tiny_probability_stays_capped() {
    let a = 50_000_032u64;
    let b = 50_000_000u64;
    let system = System::new(
        generators::path(2),
        SpeedVector::uniform(2),
        TaskSet::uniform((a + b) as usize),
    )
    .unwrap();
    let mut sim = CountSim::for_system(
        &system,
        CountRule::Relaxed,
        Alpha::Approximate,
        ClassCountState::unit(vec![a, b]),
        3,
    )
    .with_threads(8);
    let mut moved_total = 0u64;
    for _ in 0..5 {
        moved_total += sim.step().migrations;
    }
    assert_eq!(sim.state().total_tasks(), a + b);
    // The per-round mean is ≈ α·gap/2, so five rounds stay far under the
    // gap itself; anything large means the sampler escaped its cap.
    assert!(
        moved_total <= 1_000,
        "moved {moved_total} tasks across a gap of 32 — sampler escaped the underflow cap"
    );
}

#[test]
fn single_task_instance() {
    let system = System::new(
        generators::ring(4),
        SpeedVector::uniform(4),
        TaskSet::uniform(1),
    )
    .unwrap();
    let mut sim = Simulation::new(
        &system,
        SelfishUniform::new(),
        TaskState::all_on_node(&system, NodeId(2)),
        19,
    );
    let o = sim.run_until(StopCondition::Nash(Threshold::UnitWeight), 100);
    assert_eq!(o.rounds, 0, "one task anywhere is already a NE");
    assert_eq!(sim.state().task_node(TaskId(0)), NodeId(2));
}
