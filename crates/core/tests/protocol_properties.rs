//! Property-based tests of the protocol layer: migration probabilities,
//! snapshot semantics, and distributional identities, on randomized
//! instances.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use slb_core::engine::count::{ClassCountState, CountRule, CountSim};
use slb_core::model::{SpeedVector, System, TaskSet, TaskState};
use slb_core::protocol::{
    expected_flow, migration_probability, Alpha, Protocol, SelfishUniform, SelfishWeighted,
    Snapshot, TaskProtocol,
};
use slb_graphs::{generators, NodeId};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `p_ij ∈ [0, 1/4]` over the full legal parameter space (the paper's
    /// damping guarantee).
    #[test]
    fn migration_probability_in_quarter(
        deg_i in 1usize..64,
        extra in 0usize..64,
        s_i in 1.0f64..16.0,
        s_j in 1.0f64..16.0,
        w_i in 0.1f64..1e6,
        gap_frac in 0.0f64..1.0,
        alpha_mult in 1.0f64..8.0,
    ) {
        let d_ij = deg_i + extra;
        // Legal gap: ℓ_i − ℓ_j ≤ ℓ_i ≤ W_i/s_i.
        let load_i = w_i / s_i;
        let load_j = load_i * (1.0 - gap_frac);
        let s_max = s_i.max(s_j);
        let alpha = 4.0 * s_max * alpha_mult;
        let p = migration_probability(deg_i, d_ij, load_i, load_j, s_i, s_j, w_i, alpha);
        prop_assert!(p >= 0.0);
        prop_assert!(p <= 0.25 + 1e-12, "p = {p}");
    }

    /// The flow identity `f_ij = W_i/deg(i) · p_ij` (Definition 3.1) over
    /// random legal parameters whenever the migration condition is met.
    #[test]
    fn flow_probability_identity(
        deg_i in 1usize..32,
        extra in 0usize..32,
        s_i in 1.0f64..8.0,
        s_j in 1.0f64..8.0,
        w_i in 1.0f64..1e4,
        load_j_frac in 0.0f64..0.5,
    ) {
        let d_ij = deg_i + extra;
        let load_i = w_i / s_i;
        let load_j = load_i * load_j_frac;
        let alpha = 4.0 * s_i.max(s_j);
        if load_i - load_j > 1.0 / s_j {
            let p = migration_probability(deg_i, d_ij, load_i, load_j, s_i, s_j, w_i, alpha);
            let f = expected_flow(d_ij, load_i, load_j, s_i, s_j, alpha);
            let reconstructed = w_i / deg_i as f64 * p;
            prop_assert!((f - reconstructed).abs() < 1e-9 * (1.0 + f.abs()));
        }
    }

    /// Snapshot semantics: decisions never depend on moves committed in
    /// the same round — decide() over the full range equals decide() over
    /// split ranges with the same per-range RNG streams re-seeded.
    #[test]
    fn decide_is_range_local(
        n in 3usize..8,
        tasks_per_node in 1usize..10,
        seed in 0u64..200,
        split_at_frac in 0.1f64..0.9,
    ) {
        let graph = generators::ring(n);
        let m = n * tasks_per_node;
        let system = System::new(graph, SpeedVector::uniform(n), TaskSet::uniform(m)).unwrap();
        let state = TaskState::all_on_node(&system, NodeId(0));
        let snapshot = Snapshot::capture(&system, &state);
        let protocol = SelfishUniform::new();
        let split = ((m as f64 * split_at_frac) as usize).clamp(1, m - 1);

        // Split decision with independent RNGs per range.
        let mut split_moves = Vec::new();
        let mut rng_a = StdRng::seed_from_u64(seed);
        protocol.decide(&system, &snapshot, &state, 0..split, &mut rng_a, &mut split_moves);
        let before_second = split_moves.len();
        let mut rng_b = StdRng::seed_from_u64(seed ^ 0xdead);
        protocol.decide(&system, &snapshot, &state, split..m, &mut rng_b, &mut split_moves);

        // Every move's task lies in its range: range locality.
        for (i, mv) in split_moves.iter().enumerate() {
            if i < before_second {
                prop_assert!(mv.task.index() < split);
            } else {
                prop_assert!(mv.task.index() >= split);
            }
        }
        // And all moves target neighbors of the hot node.
        for mv in &split_moves {
            prop_assert!(system.graph().has_edge(NodeId(0), mv.to));
        }
    }

    /// One committed round never moves a task more than one hop.
    #[test]
    fn rounds_move_tasks_at_most_one_hop(
        n in 4usize..10,
        seed in 0u64..300,
    ) {
        let graph = generators::ring(n);
        let m = 10 * n;
        let system = System::new(graph, SpeedVector::uniform(n), TaskSet::uniform(m)).unwrap();
        let mut state = TaskState::all_on_node(&system, NodeId(0));
        let mut rng = StdRng::seed_from_u64(seed);
        let protocol = SelfishUniform::new();
        for _ in 0..20 {
            let before: Vec<NodeId> = (0..m).map(|t| state.task_node(slb_core::model::TaskId(t))).collect();
            protocol.round(&system, &mut state, &mut rng);
            for (t, prev) in before.iter().enumerate() {
                let now = state.task_node(slb_core::model::TaskId(t));
                prop_assert!(
                    now == *prev || system.graph().has_edge(*prev, now),
                    "task {t} jumped {prev} → {now}"
                );
            }
        }
    }

    /// Count-based `is_eps_nash`/`nash_gap` on unit-class `CountSim` states
    /// agree **exactly** (bit for bit) with the task-based
    /// `equilibrium.rs` predicates on the expanded per-task state, across
    /// random systems, speeds and trajectories. Unit weights sum exactly
    /// in f64, so no tolerance is needed.
    #[test]
    fn uniform_count_predicates_match_expanded_state(
        n in 3usize..9,
        tasks_per_node in 1usize..12,
        speed_seed in 0u64..100,
        sim_seed in 0u64..500,
        rounds in 0usize..12,
        eps_steps in 0u32..5,
    ) {
        use slb_core::equilibrium::{self, Threshold};
        let graph = generators::ring(n);
        let m = n * tasks_per_node;
        let mut srng = StdRng::seed_from_u64(speed_seed);
        let speeds = SpeedVector::integer(
            (0..n).map(|_| 1 + srng.next_u64() % 4).collect(),
        ).unwrap();
        let system = System::new(graph, speeds, TaskSet::uniform(m)).unwrap();
        let state = ClassCountState::all_on_node(n, 0, m as u64);
        let mut sim =
            CountSim::for_system(&system, CountRule::Relaxed, Alpha::Approximate, state, sim_seed);
        for _ in 0..rounds {
            sim.step();
        }
        // Expand the counts into an explicit per-task assignment.
        let mut assignment = Vec::with_capacity(m);
        for node in 0..n {
            let c = sim.state().node_task_count(node);
            assignment.extend(std::iter::repeat_n(node, c as usize));
        }
        let st = TaskState::from_assignment(&system, &assignment).unwrap();
        let eps = f64::from(eps_steps) * 0.25;
        prop_assert_eq!(
            sim.is_eps_nash(Threshold::UnitWeight, eps),
            equilibrium::is_eps_nash(&system, &st, Threshold::UnitWeight, eps)
        );
        prop_assert_eq!(
            sim.nash_gap(Threshold::UnitWeight),
            equilibrium::nash_gap(&system, &st, Threshold::UnitWeight)
        );
        prop_assert_eq!(
            sim.is_nash(Threshold::UnitWeight),
            equilibrium::is_nash(&system, &st, Threshold::UnitWeight)
        );
    }

    /// The same exact agreement for two-class `CountSim` states under both
    /// threshold rules. Class weights are dyadic (k/8), so per-node
    /// weight sums are exact in f64 and the count-based and expanded
    /// evaluations are bit-identical.
    #[test]
    fn weighted_count_predicates_match_expanded_state(
        n in 3usize..8,
        per_class in 1usize..8,
        speed_seed in 0u64..100,
        sim_seed in 0u64..500,
        rounds in 0usize..12,
        light_eighths in 1u32..8,
    ) {
        use slb_core::equilibrium::{self, Threshold};
        let graph = generators::ring(n);
        let light = f64::from(light_eighths) / 8.0;
        let class_weights = vec![light, 1.0];
        let m = n * per_class * 2;
        let mut srng = StdRng::seed_from_u64(speed_seed);
        let speeds = SpeedVector::integer(
            (0..n).map(|_| 1 + srng.next_u64() % 4).collect(),
        ).unwrap();
        // Tasks in class-major order per node, matching the expansion
        // below.
        let mut task_weights = Vec::with_capacity(m);
        for _ in 0..n {
            for &w in &class_weights {
                task_weights.extend(std::iter::repeat_n(w, per_class));
            }
        }
        let system = System::new(graph, speeds, TaskSet::weighted(task_weights).unwrap()).unwrap();
        let per_node: Vec<Vec<u64>> =
            (0..n).map(|_| vec![per_class as u64, per_class as u64]).collect();
        let mut sim = CountSim::for_system(&system, CountRule::Relaxed, Alpha::Approximate, ClassCountState::new(class_weights.clone(), per_node), sim_seed);
        for _ in 0..rounds {
            sim.step();
        }
        // Expand counts into per-task assignments: tasks of node `v` are
        // `v·2k .. (v+1)·2k` (light first, heavy second), and within a
        // class any placement matching the counts is equivalent — build
        // one greedily.
        let mut assignment = vec![0usize; m];
        let mut next_of_class: Vec<Vec<usize>> = vec![Vec::new(); 2];
        for v in 0..n {
            for (c, pool) in next_of_class.iter_mut().enumerate() {
                let base = v * per_class * 2 + c * per_class;
                pool.extend(base..base + per_class);
            }
        }
        for v in 0..n {
            for (c, pool) in next_of_class.iter_mut().enumerate() {
                let count = sim.state().counts(v)[c] as usize;
                for _ in 0..count {
                    assignment[pool.pop().unwrap()] = v;
                }
            }
        }
        let st = TaskState::from_assignment(&system, &assignment).unwrap();
        for threshold in [Threshold::UnitWeight, Threshold::LightestTask] {
            prop_assert_eq!(
                sim.nash_gap(threshold),
                equilibrium::nash_gap(&system, &st, threshold),
                "gap mismatch under {:?}", threshold
            );
            for eps in [0.0, 0.25, 0.75, 1.0] {
                prop_assert_eq!(
                    sim.is_eps_nash(threshold, eps),
                    equilibrium::is_eps_nash(&system, &st, threshold, eps),
                    "eps-NE mismatch under {:?} at ε = {}", threshold, eps
                );
            }
            prop_assert_eq!(
                sim.is_nash(threshold),
                equilibrium::is_nash(&system, &st, threshold),
                "exact-NE mismatch under {:?}", threshold
            );
        }
    }

    /// Weighted protocol: migrations only ever flow "downhill" (source
    /// load strictly above destination load at round start).
    #[test]
    fn weighted_moves_are_downhill(
        seed in 0u64..300,
        tasks_per_node in 2usize..12,
    ) {
        let graph = generators::torus(3, 3);
        let n = graph.node_count();
        let m = n * tasks_per_node;
        let mut wrng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let weights: Vec<f64> = (0..m).map(|_| wrng.gen_range(0.05..=1.0)).collect();
        let system = System::new(
            graph,
            SpeedVector::integer((0..n as u64).map(|i| 1 + i % 3).collect()).unwrap(),
            TaskSet::weighted(weights).unwrap(),
        ).unwrap();
        let state = TaskState::all_on_node(&system, NodeId(0));
        let snapshot = Snapshot::capture(&system, &state);
        let mut moves = Vec::new();
        let mut rng = StdRng::seed_from_u64(seed ^ 77);
        SelfishWeighted::new().decide(&system, &snapshot, &state, 0..m, &mut rng, &mut moves);
        for mv in &moves {
            let from = state.task_node(mv.task);
            prop_assert!(
                snapshot.loads[from.index()] > snapshot.loads[mv.to.index()],
                "move from load {} to {}",
                snapshot.loads[from.index()],
                snapshot.loads[mv.to.index()]
            );
        }
    }

    /// The fast count-based path conserves tasks under arbitrary initial
    /// count distributions (not just the hot start).
    #[test]
    fn fast_path_conserves_arbitrary_states(
        counts in proptest::collection::vec(0u64..200, 4..12),
        seed in 0u64..200,
    ) {
        let n = counts.len();
        let total: u64 = counts.iter().sum();
        prop_assume!(total > 0);
        let graph = generators::ring(n.max(3).min(n)); // ring needs ≥ 3
        prop_assume!(n >= 3);
        let system = System::new(
            graph,
            SpeedVector::uniform(n),
            TaskSet::uniform(total as usize),
        ).unwrap();
        let state = ClassCountState::unit(counts);
        let mut sim =
            CountSim::for_system(&system, CountRule::Relaxed, Alpha::Approximate, state, seed);
        for _ in 0..30 {
            sim.step();
        }
        prop_assert_eq!(sim.state().total_tasks(), total);
    }

    /// The weight-class engine conserves the task total of every class —
    /// and hence the total weight per class — every round, under arbitrary
    /// initial splits of a 2-class population.
    #[test]
    fn weighted_fast_conserves_per_class_totals(
        light in proptest::collection::vec(0u64..120, 4..10),
        heavy_on_hot in 1u64..80,
        seed in 0u64..200,
    ) {
        let n = light.len();
        let light_total: u64 = light.iter().sum();
        let m = (light_total + heavy_on_hot) as usize;
        let class_weights = [0.25f64, 1.0];
        let mut weights = vec![class_weights[0]; light_total as usize];
        weights.extend(std::iter::repeat_n(class_weights[1], heavy_on_hot as usize));
        let system = System::new(
            generators::ring(n),
            SpeedVector::integer((0..n as u64).map(|i| 1 + i % 2).collect()).unwrap(),
            TaskSet::weighted(weights).unwrap(),
        ).unwrap();
        let per_node: Vec<Vec<u64>> = (0..n)
            .map(|v| vec![light[v], if v == 0 { heavy_on_hot } else { 0 }])
            .collect();
        let state = ClassCountState::new(class_weights.to_vec(), per_node);
        let expected_weight = state.total_weight();
        let mut sim = CountSim::for_system(&system, CountRule::Relaxed, Alpha::Approximate, state, seed);
        for _ in 0..30 {
            sim.step();
            prop_assert_eq!(sim.state().class_total(0), light_total);
            prop_assert_eq!(sim.state().class_total(1), heavy_on_hot);
            prop_assert_eq!(sim.state().total_tasks(), m as u64);
            // Weight is a pure function of the (conserved) class counts,
            // so it is conserved exactly, not just to rounding.
            prop_assert_eq!(sim.state().total_weight(), expected_weight);
        }
    }
}

/// Distributional equivalence of the two Algorithm 1 engines: on a small
/// uniform instance, the first-round migration *count distribution* of
/// the count-based fast path must match the per-task engine's — not just
/// in mean, but bin by bin under a two-sample χ²-style statistic
/// (fixed seeds; the test is fully deterministic).
#[test]
fn fast_and_task_level_migration_distributions_agree() {
    use slb_core::protocol::SelfishUniform;
    let graph = generators::ring(4);
    let n = graph.node_count();
    let m = 40u64;
    let system = System::new(graph, SpeedVector::uniform(n), TaskSet::uniform(m as usize)).unwrap();
    let trials = 600u64;

    // Sample the round-1 outflow from the hot node under both engines.
    let fast: Vec<u64> = (0..trials)
        .map(|seed| {
            let mut sim = CountSim::for_system(
                &system,
                CountRule::Relaxed,
                Alpha::Approximate,
                ClassCountState::all_on_node(n, 0, m),
                seed,
            );
            sim.step().migrations
        })
        .collect();
    let task: Vec<u64> = (0..trials)
        .map(|seed| {
            let mut st = TaskState::all_on_node(&system, NodeId(0));
            let mut rng = StdRng::seed_from_u64(0xfeed_0000 + seed);
            SelfishUniform::new()
                .round(&system, &mut st, &mut rng)
                .migrations as u64
        })
        .collect();

    // Both sample Binomial-ish counts around the same expectation; bin the
    // counts (width 2, shared range) and compare the two histograms with
    // the two-sample homogeneity statistic Σ (a_i − b_i)²/(a_i + b_i)
    // (equal sample sizes). Bins with fewer than 5 combined observations
    // merge into their neighbor to keep the statistic well-behaved.
    let max_seen = fast.iter().chain(&task).copied().max().unwrap();
    let width = 2u64;
    let bins = (max_seen / width + 1) as usize;
    let mut a = vec![0f64; bins];
    let mut b = vec![0f64; bins];
    for &x in &fast {
        a[(x / width) as usize] += 1.0;
    }
    for &x in &task {
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
    assert!(dof >= 3, "degenerate binning: {dof} bins");
    // For χ²(dof) the mean is dof and the std dev √(2·dof); 3·dof is a
    // generous ≫ 5σ ceiling, so a real distributional mismatch (e.g. a
    // shifted mean or halved variance) fails while seed noise passes.
    let ceiling = 3.0 * dof as f64;
    assert!(
        chi2 < ceiling,
        "χ² = {chi2:.1} over {dof} bins exceeds {ceiling:.1}: engines disagree in distribution"
    );
    // Sanity: the same statistic between disjoint halves of the *same*
    // engine's sample stays under the ceiling too (the test is calibrated,
    // not trivially loose).
    let mut c = vec![0f64; bins];
    let mut d = vec![0f64; bins];
    for &x in &fast[..(trials / 2) as usize] {
        c[(x / width) as usize] += 1.0;
    }
    for &x in &fast[(trials / 2) as usize..] {
        d[(x / width) as usize] += 1.0;
    }
    let mut self_chi2 = 0.0;
    for i in 0..bins {
        if c[i] + d[i] >= 5.0 {
            self_chi2 += (c[i] - d[i]) * (c[i] - d[i]) / (c[i] + d[i]);
        }
    }
    assert!(self_chi2 < ceiling, "self-comparison χ² = {self_chi2:.1}");
}

/// Deterministic distributional check (not proptest — fixed statistics):
/// the per-destination expected counts of the fast path match the
/// expected flows on an asymmetric instance with speeds.
#[test]
fn fast_path_per_edge_flow_matches_definition() {
    let graph = generators::star(5);
    let n = graph.node_count();
    let m = 500u64;
    let speeds = SpeedVector::integer(vec![1, 2, 2, 1, 1]).unwrap();
    let system = System::new(graph, speeds, TaskSet::uniform(m as usize)).unwrap();
    // All tasks on the hub (node 0), which has degree 4.
    let trials = 2000u64;
    let mut to_node = vec![0u64; n];
    for seed in 0..trials {
        let mut sim = CountSim::for_system(
            &system,
            CountRule::Relaxed,
            Alpha::Approximate,
            ClassCountState::all_on_node(n, 0, m),
            seed,
        );
        sim.step();
        for (v, slot) in to_node.iter_mut().enumerate().skip(1) {
            *slot += sim.state().node_task_count(v);
        }
    }
    // Expected flow hub → leaf j: (ℓ_0 − ℓ_j)/(α·d_0j·(1/s_0 + 1/s_j)).
    let alpha = 4.0 * 2.0;
    let load0 = m as f64 / 1.0;
    for (v, &count) in to_node.iter().enumerate().skip(1) {
        let s_j = system.speeds().speed(v);
        let f = expected_flow(4, load0, 0.0, 1.0, s_j, alpha);
        let empirical = count as f64 / trials as f64;
        let rel = (empirical - f).abs() / f;
        assert!(
            rel < 0.05,
            "leaf {v}: empirical {empirical} vs f {f} (rel {rel})"
        );
    }
}
