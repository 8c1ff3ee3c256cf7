//! Cross-crate integration: end-to-end protocol runs on every Table 1
//! family, checked against the model invariants and the theory layer.

use selfish_load_balancing::prelude::*;

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
        let mut sim = Simulation::new(&system, SelfishUniform::new(), initial, 0xAB);
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
        let cell = measure_uniform_convergence(
            family,
            32,
            Target::ApproxPsi0,
            TrialConfig::sequential(3, 7),
            1_000_000,
        );
        assert_eq!(cell.reached_fraction, 1.0, "{family} did not converge");
        let bound = theory::thm11_expected_rounds(&cell.instance);
        assert!(
            cell.rounds.mean <= bound,
            "{family}: measured {} exceeds Theorem 1.1 bound {bound}",
            cell.rounds.mean
        );
    }
}

#[test]
fn exact_nash_time_respects_theorem_1_2_bound_with_speeds() {
    use selfish_load_balancing::core::engine::count::{ClassCountState, CountRule, CountSim};
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
        CountRule::Relaxed,
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
        let mut alg2 = Simulation::new(&system, SelfishWeighted::new(), initial.clone(), seed);
        alg2.run(500);
        alg2.state().check_invariants(&system).unwrap();
        let sum: f64 = alg2.state().node_weights().iter().sum();
        assert!((sum - total).abs() < 1e-6);

        let mut bhs = Simulation::new(&system, BhsBaseline::new(), initial.clone(), seed);
        bhs.run(500);
        bhs.state().check_invariants(&system).unwrap();
    }
}

#[test]
fn sequential_and_parallel_engines_agree_with_chunked_reference() {
    use selfish_load_balancing::core::engine::parallel::sequential_chunked_round;
    let (system, initial) = uniform_instance(generators::Family::Hypercube { d: 4 }, 50);
    let mut par = ParallelSimulation::with_layout(
        &system,
        SelfishUniform::new(),
        initial.clone(),
        99,
        1024,
        3,
    );
    let mut reference = initial;
    for round in 0..15u64 {
        par.step();
        sequential_chunked_round(
            &system,
            &SelfishUniform::new(),
            &mut reference,
            99,
            round,
            1024,
        );
    }
    assert_eq!(par.state(), &reference);
}

#[test]
fn fast_path_and_task_level_hit_similar_convergence_times() {
    // Same protocol, two implementations: the count-based path's mean
    // convergence time must sit near the task-level one.
    let family = generators::Family::Ring { n: 8 };
    let tasks_per_node = 32;
    let fast = measure_uniform_convergence(
        family,
        tasks_per_node,
        Target::ApproxPsi0,
        TrialConfig::sequential(5, 11),
        1_000_000,
    );

    let (system, initial) = uniform_instance(family, tasks_per_node);
    let psi_target = 4.0 * theory::psi_c(&fast.instance);
    let mut task_rounds = Vec::new();
    for seed in 0..5u64 {
        let mut sim = Simulation::new(&system, SelfishUniform::new(), initial.clone(), seed);
        let o = sim.run_until(StopCondition::Psi0Below(psi_target), 1_000_000);
        assert_eq!(o.reason, StopReason::ConditionMet);
        task_rounds.push(o.rounds as f64);
    }
    let task_mean = task_rounds.iter().sum::<f64>() / task_rounds.len() as f64;
    let ratio = fast.rounds.mean / task_mean;
    assert!(
        (0.5..=2.0).contains(&ratio),
        "fast path {} vs task level {task_mean} (ratio {ratio})",
        fast.rounds.mean
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
        SelfishUniform::new(),
        built.initial.clone(),
        3,
    );
    let o = sim.run_until(StopCondition::Nash(Threshold::UnitWeight), 100_000);
    assert_eq!(o.reason, StopReason::ConditionMet);

    let mut rng = rand::rngs::StdRng::seed_from_u64(13);
    let built = scenario::adversarial_ring(8, 3, 20, &mut rng).unwrap();
    let mut sim = Simulation::new(
        &built.system,
        SelfishUniform::new(),
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
