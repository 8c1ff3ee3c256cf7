//! Theory-vs-simulation consistency: the quantities the paper's proofs
//! manipulate, cross-checked numerically end to end.

use rand::SeedableRng;
use selfish_load_balancing::core::protocol::MigrationRule::Relaxed;
use selfish_load_balancing::prelude::*;
use selfish_load_balancing::spectral::lanczos;

/// Lemma 3.6(2): `Ψ₀(x) = ⟨e, e⟩_S` — the potential equals the generalized
/// self-inner-product of the deviation vector.
#[test]
fn psi0_equals_generalized_inner_product() {
    let graph = generators::torus(3, 4);
    let n = graph.node_count();
    let speeds = SpeedVector::integer((0..n as u64).map(|i| 1 + i % 3).collect()).unwrap();
    let system = System::new(graph, speeds, TaskSet::uniform(60)).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let state = Placement::UniformRandom.state(&system, &mut rng);

    let psi0 = potential::report(&system, &state).psi0;
    let e = state.deviations(&system);
    let speeds = system.speeds().as_slice();
    // ⟨x, y⟩_S = Σ x_i·y_i/s_i (Definition 1.11).
    let sdot = |x: &[f64], y: &[f64]| -> f64 {
        x.iter()
            .zip(y)
            .zip(speeds)
            .map(|((a, b), s)| a * b / s)
            .sum()
    };
    let e_e = sdot(&e, &e);
    assert!((psi0 - e_e).abs() < 1e-9, "{psi0} vs {e_e}");
    // ⟨e, s⟩_S = Σ e_i = 0 (the proof of Lemma 3.10's precondition).
    let against_speed = sdot(&e, speeds);
    assert!(against_speed.abs() < 1e-9);
}

/// The expected drop bound of Lemma 3.10, checked empirically: averaging
/// the one-round drop of Ψ₀ over many seeds from a fixed state must
/// dominate `λ₂/(16Δ)·Ψ₀/s_max² − n/(4·s_max)`.
#[test]
fn lemma_3_10_expected_drop_bound() {
    let graph = generators::ring(8);
    let n = graph.node_count();
    let system = System::new(graph, SpeedVector::uniform(n), TaskSet::uniform(200)).unwrap();
    let initial = TaskState::all_on_node(&system, NodeId(0));
    let psi_before = potential::report(&system, &initial).psi0;

    let trials = 400;
    let mut total_after = 0.0;
    for seed in 0..trials {
        let mut sim = Simulation::new(&system, Selfish::new(Relaxed), initial.clone(), seed);
        sim.step();
        total_after += potential::report(&system, sim.state()).psi0;
    }
    let mean_drop = psi_before - total_after / trials as f64;

    let lambda2 = closed_form::lambda2_ring(n);
    let delta = 2.0;
    let s_max = 1.0;
    let bound = lambda2 / (16.0 * delta) * psi_before / (s_max * s_max) - n as f64 / (4.0 * s_max);
    assert!(
        mean_drop >= bound,
        "Lemma 3.10 violated: drop {mean_drop} < bound {bound}"
    );
}

/// Lemma 3.21: with granularity ε, any edge violating the migration
/// condition violates it by the quantized margin `1/s_j + ε/(s_i·s_j)`.
#[test]
fn lemma_3_21_quantized_margin() {
    let speeds = SpeedVector::integer(vec![2, 3]).unwrap();
    let graph = generators::path(2);
    let system = System::new(graph, speeds, TaskSet::uniform(9)).unwrap();
    for k in 0..=9usize {
        let assignment: Vec<usize> = (0..9).map(|t| usize::from(t >= k)).collect();
        let state = TaskState::from_assignment(&system, &assignment).unwrap();
        let loads = state.loads(&system);
        for (i, j) in [(0usize, 1usize), (1, 0)] {
            let (s_i, s_j) = (system.speeds().speed(i), system.speeds().speed(j));
            let gap = loads[i] - loads[j];
            if gap > 1.0 / s_j + 1e-12 {
                assert!(
                    gap >= 1.0 / s_j + 1.0 / (s_i * s_j) - 1e-9,
                    "margin violated at split {k}: gap {gap}"
                );
            }
        }
    }
}

/// The expected flow over an edge matches `f_ij` of Definition 3.1 when
/// estimated by Monte Carlo over one round.
#[test]
fn expected_flow_matches_monte_carlo() {
    use selfish_load_balancing::core::protocol::expected_flow;
    let graph = generators::ring(4);
    let system = System::new(graph, SpeedVector::uniform(4), TaskSet::uniform(80)).unwrap();
    let initial = TaskState::from_assignment(
        &system,
        &(0..80).map(|t| usize::from(t >= 60)).collect::<Vec<_>>(),
    )
    .unwrap();
    // Loads: node0 = 60, node1 = 20; edge (0,1) flow expected:
    let alpha = 4.0;
    let d01 = 2;
    let f = expected_flow(d01, 60.0, 20.0, 1.0, 1.0, alpha);

    let trials = 2000;
    let mut moved = 0u64;
    for seed in 0..trials {
        let mut sim = Simulation::new(&system, Selfish::new(Relaxed), initial.clone(), seed);
        sim.step();
        // Tasks that ended up on node 1 that started on node 0.
        for t in 0..60 {
            if sim.state().task_node(TaskId(t)) == NodeId(1) {
                moved += 1;
            }
        }
    }
    let empirical = moved as f64 / trials as f64;
    let rel_err = (empirical - f).abs() / f;
    assert!(
        rel_err < 0.1,
        "empirical flow {empirical} vs f_ij {f} (rel err {rel_err})"
    );
}

/// Theorem 1.1's ε-approximate claim, end to end: run to `Ψ₀ ≤ 4ψ_c` on an
/// instance with `δ = 2` and verify the reached state is a `2/(1+δ)`-NE.
#[test]
fn theorem_1_1_eps_claim_end_to_end() {
    let family = generators::Family::Ring { n: 6 };
    let graph = family.build();
    let n = graph.node_count();
    let mut inst = theory::Instance::uniform_speeds(
        n,
        0,
        graph.max_degree(),
        closed_form::lambda2_family(family),
    );
    let delta = 2.0;
    let m = theory::m_threshold(&inst, delta).ceil() as usize;
    inst.total_work = m as f64;
    let eps = theory::eps_of_delta(delta);
    let target = 4.0 * theory::psi_c(&inst);

    let system = System::new(graph, SpeedVector::uniform(n), TaskSet::uniform(m)).unwrap();
    let initial = TaskState::all_on_node(&system, NodeId(0));
    let mut sim = Simulation::new(&system, Selfish::new(Relaxed), initial, 77);
    let o = sim.run_until(StopCondition::Psi0Below(target), 2_000_000);
    assert_eq!(o.reason, StopReason::ConditionMet);
    assert!(
        equilibrium::is_eps_nash(&system, sim.state(), Threshold::UnitWeight, eps),
        "reached state is not a {eps}-approximate NE"
    );
}

/// The count-based fast path and the task-level engine sample the same
/// per-round migration distribution (mean migration count over many
/// one-round trials from the same state).
#[test]
fn fast_path_first_round_distribution() {
    use selfish_load_balancing::core::engine::count::{ClassCountState, CountSim};
    use selfish_load_balancing::core::protocol::MigrationRule;
    let family = generators::Family::Torus { rows: 3, cols: 3 };
    let graph = family.build();
    let n = graph.node_count();
    let m = 45 * n;
    let system = System::new(graph, SpeedVector::uniform(n), TaskSet::uniform(m)).unwrap();
    let initial = TaskState::all_on_node(&system, NodeId(0));

    let trials = 300u64;
    let mut task_total = 0u64;
    for seed in 0..trials {
        let mut sim = Simulation::new(&system, Selfish::new(Relaxed), initial.clone(), seed);
        task_total += sim.step().migrations as u64;
    }
    let mut fast_total = 0u64;
    for seed in 0..trials {
        let mut sim = CountSim::for_system(
            &system,
            MigrationRule::Relaxed,
            Alpha::Approximate,
            ClassCountState::all_on_node(n, 0, m as u64),
            seed + 10_000,
        );
        fast_total += sim.step().migrations;
    }
    let task_mean = task_total as f64 / trials as f64;
    let fast_mean = fast_total as f64 / trials as f64;
    assert!(
        (task_mean - fast_mean).abs() < 0.1 * task_mean.max(1.0),
        "task-level {task_mean} vs fast {fast_mean}"
    );
}

/// `µ₂` interlacing (Corollary 1.16) holds on the simulation instances and
/// is consistent with the plain `λ₂` used in the theory calculator.
#[test]
fn generalized_spectrum_interlacing_on_instances() {
    for family in [
        generators::Family::Ring { n: 12 },
        generators::Family::Hypercube { d: 4 },
        generators::Family::Complete { n: 10 },
    ] {
        let graph = family.build();
        let n = graph.node_count();
        let speeds: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
        let mu2 = lanczos::mu2(&graph, &speeds).unwrap();
        let l2 = closed_form::lambda2_family(family);
        let (smin, smax) = (1.0, 5.0);
        assert!(mu2 >= l2 / smax - 1e-8, "{family}: µ₂ {mu2} < λ₂/s_max");
        assert!(mu2 <= l2 / smin + 1e-8, "{family}: µ₂ {mu2} > λ₂/s_min");
    }
}
