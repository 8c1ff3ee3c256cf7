//! Cross-crate integration: end-to-end protocol runs on every Table 1
//! family, checked against the model invariants and the theory layer.

use selfish_load_balancing::analysis::trial::Trial;
use selfish_load_balancing::core::protocol::MigrationRule::{OwnWeight, Relaxed};
use selfish_load_balancing::prelude::*;
use selfish_load_balancing::workloads::speeds::SpeedDistribution;
use selfish_load_balancing::workloads::weights::WeightDistribution;

fn uniform_instance(family: generators::Family, tasks_per_node: usize) -> (System, TaskState) {
    let graph = family.build();
    let n = graph.node_count();
    let system = System::new(
        graph,
        SpeedVector::uniform(n),
        TaskSet::uniform(n * tasks_per_node),
    )
    .expect("valid instance");
    let initial = TaskState::all_on_node(&system, NodeId(0));
    (system, initial)
}

/// Rounds to `Ψ₀ ≤ 4ψ_c` of `trials` unit-weight Algorithm 1 trials from
/// the hot spot on the count engine, as an `slb validate` approx ladder
/// point runs them (trial `t` on the seed of cell 0). Returns the
/// Theorem 1.1 instance and each trial's rounds.
fn approx_rounds(
    family: generators::Family,
    tasks_per_node: usize,
    trials: usize,
    base_seed: u64,
    max_rounds: u64,
) -> (theory::Instance, Vec<f64>) {
    let graph = family.build();
    let n = graph.node_count();
    let lambda2 = closed_form::lambda2_family(family);
    let inst = theory::Instance::uniform_speeds(n, n * tasks_per_node, graph.max_degree(), lambda2);
    let target = StopCondition::Psi0Below(4.0 * theory::psi_c(&inst));
    let rounds = run_trials(trials, RunConfig::sequential(base_seed), |seed| {
        let trial = Trial::build(
            family,
            SpeedDistribution::Uniform,
            WeightDistribution::Unit,
            Placement::AllOnNode(0),
            tasks_per_node,
            seed,
        )
        .expect("a unit hot-spot trial builds");
        let run = trial.run(ProtocolKind::Alg1, target, max_rounds, 1).run;
        assert!(run.reached(), "{family} did not converge");
        run.rounds as f64
    });
    (inst, rounds)
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

#[test]
fn algorithm_1_reaches_nash_on_every_table1_family() {
    for family in [
        generators::Family::Complete { n: 8 },
        generators::Family::Ring { n: 8 },
        generators::Family::Path { n: 8 },
        generators::Family::Mesh { rows: 3, cols: 3 },
        generators::Family::Torus { rows: 3, cols: 3 },
        generators::Family::Hypercube { d: 3 },
    ] {
        let (system, initial) = uniform_instance(family, 10);
        let mut sim = Simulation::new(&system, Selfish::new(Relaxed), initial, 0xAB);
        let outcome = sim.run_until(StopCondition::Nash(Threshold::UnitWeight), 200_000);
        assert_eq!(
            outcome.reason,
            StopReason::ConditionMet,
            "{family}: no Nash equilibrium within budget"
        );
        sim.state().check_invariants(&system).unwrap();
        assert!(equilibrium::is_nash(
            &system,
            sim.state(),
            Threshold::UnitWeight
        ));
    }
}

#[test]
fn measured_approx_time_respects_theorem_1_1_bound() {
    for family in [
        generators::Family::Ring { n: 16 },
        generators::Family::Hypercube { d: 4 },
        generators::Family::Complete { n: 16 },
    ] {
        let (inst, rounds) = approx_rounds(family, 32, 3, 7, 1_000_000);
        let bound = theory::thm11_expected_rounds(&inst);
        assert!(
            mean(&rounds) <= bound,
            "{family}: measured {} exceeds Theorem 1.1 bound {bound}",
            mean(&rounds)
        );
    }
}

#[test]
fn exact_nash_time_respects_theorem_1_2_bound_with_speeds() {
    use selfish_load_balancing::core::engine::count::{ClassCountState, CountSim};
    use selfish_load_balancing::core::protocol::MigrationRule;
    let family = generators::Family::Ring { n: 8 };
    let graph = family.build();
    let n = graph.node_count();
    let m = 24 * n;
    let speeds = SpeedVector::integer((0..n as u64).map(|i| 1 + i % 3).collect()).unwrap();
    let inst = theory::Instance {
        n,
        total_work: m as f64,
        max_degree: graph.max_degree(),
        lambda2: closed_form::lambda2_family(family),
        s_min: speeds.min(),
        s_max: speeds.max(),
        s_total: speeds.total(),
        granularity: Some(1.0),
    };
    let bound = theory::thm12_expected_rounds(&inst).unwrap();
    let system = System::new(graph, speeds, TaskSet::uniform(m)).unwrap();
    let mut sim = CountSim::for_system(
        &system,
        MigrationRule::Relaxed,
        Alpha::Exact,
        ClassCountState::all_on_node(n, 0, m as u64),
        3,
    );
    let outcome = sim.run_until(StopCondition::Nash(Threshold::UnitWeight), bound as u64 + 1);
    assert!(outcome.reached(), "exceeded the Theorem 1.2 bound");
    assert!((outcome.rounds as f64) < bound);
}

#[test]
fn weighted_protocols_agree_on_conservation_and_targets() {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let graph = generators::torus(3, 3);
    let n = graph.node_count();
    let m = 30 * n;
    let weights: Vec<f64> = (0..m).map(|_| rng.gen_range(0.1..=1.0)).collect();
    let total: f64 = weights.iter().sum();
    let system = System::new(
        graph,
        SpeedVector::integer(vec![1, 2, 1, 2, 1, 2, 1, 2, 1]).unwrap(),
        TaskSet::weighted(weights).unwrap(),
    )
    .unwrap();
    let initial = TaskState::all_on_node(&system, NodeId(4));

    for seed in [1u64, 2, 3] {
        for rule in [Relaxed, OwnWeight] {
            let mut sim = Simulation::new(&system, Selfish::new(rule), initial.clone(), seed);
            sim.run(500);
            sim.state().check_invariants(&system).unwrap();
            let sum: f64 = sim.state().node_weights().iter().sum();
            assert!((sum - total).abs() < 1e-6, "{rule:?}");
        }
    }
}

#[test]
fn fast_path_and_task_level_hit_similar_convergence_times() {
    // Same protocol, two implementations: the count-based path's mean
    // convergence time must sit near the task-level one.
    let family = generators::Family::Ring { n: 8 };
    let tasks_per_node = 32;
    let (inst, fast) = approx_rounds(family, tasks_per_node, 5, 11, 1_000_000);

    let (system, initial) = uniform_instance(family, tasks_per_node);
    let psi_target = 4.0 * theory::psi_c(&inst);
    let mut task_rounds = Vec::new();
    for seed in 0..5u64 {
        let mut sim = Simulation::new(&system, Selfish::new(Relaxed), initial.clone(), seed);
        let o = sim.run_until(StopCondition::Psi0Below(psi_target), 1_000_000);
        assert_eq!(o.reason, StopReason::ConditionMet);
        task_rounds.push(o.rounds as f64);
    }
    let task_mean = mean(&task_rounds);
    let ratio = mean(&fast) / task_mean;
    assert!(
        (0.5..=2.0).contains(&ratio),
        "fast path {} vs task level {task_mean} (ratio {ratio})",
        mean(&fast)
    );
}

#[test]
fn diffusion_is_deterministic_and_conserving_end_to_end() {
    let (system, initial) = uniform_instance(generators::Family::Torus { rows: 4, cols: 4 }, 64);
    let run = |seed: u64| {
        let mut sim = Simulation::new(&system, Diffusion::new(), initial.clone(), seed);
        sim.run(300);
        sim.into_state()
    };
    let a = run(1);
    let b = run(999);
    assert_eq!(a, b, "diffusion must ignore the RNG");
    a.check_invariants(&system).unwrap();
}

#[test]
fn scenario_presets_run_end_to_end() {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(12);
    let built = scenario::p2p_overlay(16, 12, &mut rng).unwrap();
    let mut sim = Simulation::new(
        &built.system,
        Selfish::new(Relaxed),
        built.initial.clone(),
        3,
    );
    let o = sim.run_until(StopCondition::Nash(Threshold::UnitWeight), 100_000);
    assert_eq!(o.reason, StopReason::ConditionMet);

    let mut rng = rand::rngs::StdRng::seed_from_u64(13);
    let built = scenario::adversarial_ring(8, 3, 20, &mut rng).unwrap();
    let mut sim = Simulation::new(
        &built.system,
        Selfish::new(Relaxed),
        built.initial.clone(),
        4,
    );
    let o = sim.run_until(
        StopCondition::EpsNash {
            threshold: Threshold::UnitWeight,
            eps: 0.5,
        },
        200_000,
    );
    assert_eq!(o.reason, StopReason::ConditionMet);
}
