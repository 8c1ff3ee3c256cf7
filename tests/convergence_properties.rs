//! Property-based integration tests: protocol invariants over randomized
//! instances, spanning all crates.

use proptest::prelude::*;
use rand::SeedableRng;
use selfish_load_balancing::core::protocol::MigrationRule::{OwnWeight, Relaxed};
use selfish_load_balancing::prelude::*;

/// Strategy: a small connected graph from the named families.
fn arb_family() -> impl Strategy<Value = generators::Family> {
    prop_oneof![
        (3usize..10).prop_map(|n| generators::Family::Ring { n }),
        (2usize..10).prop_map(|n| generators::Family::Path { n }),
        (2usize..8).prop_map(|n| generators::Family::Complete { n }),
        (1u32..4).prop_map(|d| generators::Family::Hypercube { d }),
        ((1usize..4), (2usize..4)).prop_map(|(r, c)| generators::Family::Mesh {
            rows: r,
            cols: c + 1
        }),
        (2usize..9).prop_map(|n| generators::Family::Star { n }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn task_conservation_across_protocol_and_seeds(
        family in arb_family(),
        tasks_per_node in 1usize..20,
        seed in 0u64..1000,
        rounds in 1u64..60,
    ) {
        let graph = family.build();
        let n = graph.node_count();
        let m = n * tasks_per_node;
        let system = System::new(graph, SpeedVector::uniform(n), TaskSet::uniform(m)).unwrap();
        let initial = TaskState::all_on_node(&system, NodeId(0));
        let mut sim = Simulation::new(&system, Selfish::new(Relaxed), initial, seed);
        sim.run(rounds);
        sim.state().check_invariants(&system).unwrap();
        let total: usize = (0..n).map(|i| sim.state().node_task_count(NodeId(i))).sum();
        prop_assert_eq!(total, m);
    }

    #[test]
    fn psi0_nonnegative_and_zero_only_at_balance(
        family in arb_family(),
        seed in 0u64..500,
    ) {
        let graph = family.build();
        let n = graph.node_count();
        let m = 4 * n;
        let system = System::new(graph, SpeedVector::uniform(n), TaskSet::uniform(m)).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let state = Placement::UniformRandom.state(&system, &mut rng);
        let p = potential::report(&system, &state);
        prop_assert!(p.psi0 >= -1e-9);
        prop_assert!(p.psi1 >= -1e-9, "Observation 3.20(2)");
        // Observation 3.16 sandwich.
        prop_assert!(p.max_load_deviation.powi(2) <= p.psi0 + 1e-9);
        prop_assert!(p.psi0 <= system.speeds().total() * p.max_load_deviation.powi(2) + 1e-9);
        // Balanced state has Ψ₀ = 0.
        let balanced: Vec<usize> = (0..m).map(|t| t % n).collect();
        let b = TaskState::from_assignment(&system, &balanced).unwrap();
        let pb = potential::report(&system, &b);
        prop_assert!(pb.psi0 <= p.psi0 + 1e-9);
    }

    #[test]
    fn nash_states_absorb_all_protocols(
        family in arb_family(),
        seed in 0u64..200,
    ) {
        let graph = family.build();
        let n = graph.node_count();
        // Perfectly balanced uniform instance: always a Nash equilibrium.
        let m = 3 * n;
        let system = System::new(graph, SpeedVector::uniform(n), TaskSet::uniform(m)).unwrap();
        let balanced: Vec<usize> = (0..m).map(|t| t % n).collect();
        let state = TaskState::from_assignment(&system, &balanced).unwrap();
        prop_assert!(equilibrium::is_nash(&system, &state, Threshold::UnitWeight));
        let mut sim = Simulation::new(&system, Selfish::new(Relaxed), state.clone(), seed);
        let report_total = sim.run(30);
        prop_assert_eq!(report_total, 0, "Nash states must be absorbing");
        prop_assert_eq!(sim.state(), &state);
    }

    #[test]
    fn potential_never_increases_in_expectation_over_runs(
        family in arb_family(),
        seed in 0u64..200,
    ) {
        // Ψ₀ is a supermartingale-ish quantity for the protocol while far
        // from equilibrium; over a full run from the hot start the *final*
        // value must be below the initial one (statistically certain at
        // these sizes).
        let graph = family.build();
        let n = graph.node_count();
        if n < 2 {
            return Ok(());
        }
        let m = 20 * n;
        let system = System::new(graph, SpeedVector::uniform(n), TaskSet::uniform(m)).unwrap();
        let initial = TaskState::all_on_node(&system, NodeId(0));
        let before = potential::report(&system, &initial).psi0;
        let mut sim = Simulation::new(&system, Selfish::new(Relaxed), initial, seed);
        sim.run(300);
        let after = potential::report(&system, sim.state()).psi0;
        prop_assert!(after <= before + 1e-9, "Ψ₀ rose from {before} to {after}");
    }

    #[test]
    fn weighted_conservation_with_speeds(
        tasks_per_node in 1usize..12,
        seed in 0u64..300,
    ) {
        let graph = generators::torus(3, 3);
        let n = graph.node_count();
        let m = n * tasks_per_node;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        use rand::Rng;
        let weights: Vec<f64> = (0..m).map(|_| rng.gen_range(0.01..=1.0)).collect();
        let total: f64 = weights.iter().sum();
        let speeds = SpeedVector::integer((0..n as u64).map(|i| 1 + i % 4).collect()).unwrap();
        let system = System::new(graph, speeds, TaskSet::weighted(weights).unwrap()).unwrap();
        let initial = TaskState::all_on_node(&system, NodeId(0));
        for rule in [Relaxed, OwnWeight] {
            let mut sim = Simulation::new(&system, Selfish::new(rule), initial.clone(), seed);
            sim.run(50);
            let final_state = sim.into_state();
            final_state.check_invariants(&system).unwrap();
            let sum: f64 = final_state.node_weights().iter().sum();
            prop_assert!((sum - total).abs() < 1e-6 * total.max(1.0));
        }
    }

    #[test]
    fn eps_nash_hierarchy(
        family in arb_family(),
        seed in 0u64..200,
    ) {
        // Exact NE ⇒ ε-NE for every ε; larger ε is always weaker.
        let graph = family.build();
        let n = graph.node_count();
        let m = 5 * n;
        let system = System::new(graph, SpeedVector::uniform(n), TaskSet::uniform(m)).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let state = Placement::UniformRandom.state(&system, &mut rng);
        let gap = equilibrium::nash_gap(&system, &state, Threshold::UnitWeight);
        prop_assert!(equilibrium::is_eps_nash(&system, &state, Threshold::UnitWeight, (gap + 1e-9).min(1.0)));
        if equilibrium::is_nash(&system, &state, Threshold::UnitWeight) {
            prop_assert!(gap <= 1e-9);
            for eps in [0.0, 0.1, 0.5, 1.0] {
                prop_assert!(equilibrium::is_eps_nash(&system, &state, Threshold::UnitWeight, eps));
            }
        } else {
            prop_assert!(!equilibrium::is_eps_nash(&system, &state, Threshold::UnitWeight, (gap - 1e-6).max(0.0)));
        }
    }

    #[test]
    fn lambda2_spectral_bounds_hold_on_all_families(family in arb_family()) {
        use selfish_load_balancing::spectral::bounds;
        use selfish_load_balancing::graphs::traversal;
        let graph = family.build();
        let n = graph.node_count();
        if n < 2 {
            return Ok(());
        }
        let l2 = laplacian::lambda2(&graph).unwrap();
        // Closed form agrees with the numeric solver.
        let closed = closed_form::lambda2_family(family);
        prop_assert!((l2 - closed).abs() < 1e-6, "λ₂ {l2} vs closed {closed}");
        // Lemma 1.7, λ₂ ≤ 2Δ and Lemma 1.5, as `slb spectral` prints them.
        let diam = traversal::diameter(&graph).unwrap();
        prop_assert!(l2 <= bounds::fiedler_upper(&graph) + 1e-8, "Fiedler: λ₂ {l2}");
        prop_assert!(l2 <= bounds::two_delta_upper(&graph) + 1e-8, "2Δ: λ₂ {l2}");
        prop_assert!(l2 >= bounds::mohar_lambda2_lower(n, diam) - 1e-8, "Mohar: λ₂ {l2}");
    }
}
