//! Integration tests for the analysis layer: trial runner ↔ validation
//! ladders ↔ theory ↔ simulator consistency at small scale.

use slb_analysis::convergence;
use slb_analysis::runner::{run_trials, RunConfig};
use slb_analysis::stats::Summary;
use slb_analysis::tables::Table;
use slb_analysis::theory::{self, Table1Column};
use slb_analysis::trial::Trial;
use slb_analysis::validate::{run_validate, RowResult, ValidateConfig};
use slb_core::engine::StopCondition;
use slb_graphs::generators::Family;
use slb_workloads::placement::Placement;
use slb_workloads::speeds::SpeedDistribution;
use slb_workloads::weights::WeightDistribution;
use slb_workloads::{LoadRule, ProtocolKind, ValidateSpec};

/// The one row of the `slb validate` ladder `tokens` at base seed `seed`.
fn ladder_row(tokens: &[&str], seed: u64) -> RowResult {
    let spec = ValidateSpec::parse(tokens).expect("a valid ladder");
    let mut report = run_validate(&spec, ValidateConfig::sequential(seed)).expect("a ladder run");
    assert_eq!(report.rows.len(), 1);
    report.rows.pop().expect("one row")
}

/// A unit-weight trial with every task on node 0.
fn hot_spot_trial(family: Family, tasks_per_node: usize, seed: u64) -> Trial {
    Trial::build(
        family,
        SpeedDistribution::Uniform,
        WeightDistribution::Unit,
        Placement::AllOnNode(0),
        tasks_per_node,
        seed,
    )
    .expect("a unit hot-spot trial builds")
}

/// The Theorem 1.1 instance and its `4ψ_c` target for `m` unit tasks on
/// uniform machines.
fn approx_target(family: Family, m: usize) -> (theory::Instance, f64) {
    let graph = family.build();
    let lambda2 = slb_spectral::closed_form::lambda2_family(family);
    let inst = theory::Instance::uniform_speeds(graph.node_count(), m, graph.max_degree(), lambda2);
    (inst, 4.0 * theory::psi_c(&inst))
}

#[test]
fn ring_scaling_exponent_matches_paper_at_small_scale() {
    // Mini Table 1 row: ring approx-NE with δ fixed must scale ≈ n², and
    // stay below the Theorem 1.1 bound (factor 1) at every size.
    let row = ladder_row(
        &[
            "family=ring",
            "n=6,12,24",
            "load=delta:2",
            "trials=3",
            "factor=1",
            "max-rounds=5000000",
        ],
        0xA11CE,
    );
    assert!(!row.censored(), "a ring ladder point did not converge");
    assert_eq!(row.bound_ok, Some(true));
    assert!(
        (1.6..=2.9).contains(&row.fit.exponent),
        "ring approx exponent {} outside the n²(·log) band",
        row.fit.exponent
    );
}

#[test]
fn complete_graph_is_effectively_size_independent() {
    let row = ladder_row(
        &[
            "family=complete",
            "n=8,16,32",
            "load=delta:2",
            "trials=3",
            "max-rounds=1000000",
        ],
        0xB0B,
    );
    assert!(!row.censored());
    let ts: Vec<f64> = row.points.iter().map(|p| p.rounds.mean).collect();
    // Growth from n=8 to n=32 stays within the log factor (< 4x).
    assert!(
        ts[2] / ts[0] < 4.0,
        "complete-graph times grew too fast: {ts:?}"
    );
}

#[test]
fn bound_hierarchy_measured_ours_bhs() {
    // The Table 1 claim as a strict numeric hierarchy on one mid-size
    // instance: measured < this paper's bound < [6]'s shape (evaluated
    // with constant 1, so the comparison is conservative).
    let family = Family::Ring { n: 16 };
    let per_node = LoadRule::DeltaFixed(2.0).tasks_per_node(16);
    let (inst, target) = approx_target(family, 16 * per_node);
    let rounds = run_trials(3, RunConfig::sequential(0xCAFE), |seed| {
        let trial = hot_spot_trial(family, per_node, seed);
        let run = trial.run(
            ProtocolKind::Alg1,
            StopCondition::Psi0Below(target),
            10_000_000,
            1,
        );
        assert!(run.run.reached(), "ring:16 did not converge");
        run.run.rounds as f64
    });
    let measured = Summary::of(&rounds).mean;
    let ours = theory::thm11_expected_rounds(&inst);
    let bhs = theory::table1_bhs(family, 16, 16 * per_node, Table1Column::ApproximateNash).unwrap();
    assert!(measured < ours, "{measured} !< {ours}");
    assert!(ours < bhs, "{ours} !< {bhs}");
}

#[test]
fn trial_runner_integrates_with_summary_and_tables() {
    let values = run_trials(12, RunConfig::parallel(7), |seed| (seed % 17) as f64);
    let summary = Summary::of(&values);
    assert_eq!(summary.count, 12);
    let mut table = Table::new("t", &["mean", "std"]);
    table.push_row(vec![summary.mean.to_string(), summary.std_dev.to_string()]);
    let md = table.to_markdown();
    assert!(md.contains("mean"));
    let csv = table.to_csv();
    assert_eq!(csv.lines().count(), 2);
}

#[test]
fn convergence_extractors_agree_with_runner_hits() {
    // Build a Ψ₀ series with the count engine a trial runs on (its
    // instance, its simulation stream) and check that first_hit of the
    // 4ψ_c target equals the trial's measured rounds.
    use slb_core::engine::count::CountSim;
    use slb_core::protocol::{Alpha, MigrationRule};
    use slb_core::rng::{derive_seed, streams};

    let family = Family::Hypercube { d: 3 };
    let (_, target) = approx_target(family, 256);
    let seed = 0xFEED;
    let trial = hot_spot_trial(family, 32, seed);

    // Series sampled every round.
    let counts = trial.instance();
    let mut sim = CountSim::new(
        &counts.graph,
        &counts.speeds,
        MigrationRule::Relaxed,
        Alpha::Approximate,
        counts.state.clone(),
        derive_seed(seed, 0, streams::trial::SIM),
    );
    let mut series = Vec::new();
    for round in 0..5000u64 {
        series.push((round, sim.psi0()));
        sim.step();
    }
    let hit = convergence::first_hit(&series, target).expect("must hit");

    let run = trial.run(
        ProtocolKind::Alg1,
        StopCondition::Psi0Below(target),
        5000,
        1,
    );
    assert!(run.run.reached());
    assert_eq!(run.run.rounds, hit);
}

#[test]
fn theorem_bound_functions_are_monotone_in_hardness() {
    // Sanity of the theory layer itself: bounds increase with worse λ₂,
    // larger Δ, larger s_max, finer ε.
    let base = theory::Instance {
        n: 32,
        total_work: 1024.0,
        max_degree: 4,
        lambda2: 0.5,
        s_min: 1.0,
        s_max: 2.0,
        s_total: 40.0,
        granularity: Some(1.0),
    };
    let worse_lambda = theory::Instance {
        lambda2: 0.1,
        ..base
    };
    let worse_degree = theory::Instance {
        max_degree: 8,
        ..base
    };
    let worse_speed = theory::Instance { s_max: 4.0, ..base };
    let finer_grid = theory::Instance {
        granularity: Some(0.25),
        ..base
    };
    assert!(theory::thm11_expected_rounds(&worse_lambda) > theory::thm11_expected_rounds(&base));
    assert!(theory::thm11_expected_rounds(&worse_degree) > theory::thm11_expected_rounds(&base));
    assert!(theory::thm11_expected_rounds(&worse_speed) > theory::thm11_expected_rounds(&base));
    assert!(
        theory::thm12_expected_rounds(&finer_grid).unwrap()
            > theory::thm12_expected_rounds(&base).unwrap()
    );
    assert!(theory::psi_c(&worse_lambda) > theory::psi_c(&base));
    assert!(theory::gamma(&worse_degree) > theory::gamma(&base));
}
