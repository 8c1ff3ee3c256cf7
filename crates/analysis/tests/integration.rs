//! Integration tests for the analysis layer: runner ↔ theory ↔ simulator
//! consistency at small scale.

use slb_analysis::convergence;
use slb_analysis::runner::{
    measure_uniform_convergence, measure_uniform_convergence_scaled, run_trials, Target,
    TaskScaling, TrialConfig,
};
use slb_analysis::stats::{power_law_fit, Summary};
use slb_analysis::tables::Table;
use slb_analysis::theory::{self, Table1Column};
use slb_graphs::generators::Family;

#[test]
fn ring_scaling_exponent_matches_paper_at_small_scale() {
    // Mini Table 1 row: ring approx-NE with δ fixed must scale ≈ n².
    let mut ns = Vec::new();
    let mut ts = Vec::new();
    for n in [6usize, 12, 24] {
        let m = measure_uniform_convergence_scaled(
            Family::Ring { n },
            TaskScaling::DeltaFixed(2.0),
            Target::ApproxPsi0,
            TrialConfig::sequential(3, 0xA11CE),
            5_000_000,
        );
        assert_eq!(m.reached_fraction, 1.0, "ring n={n} did not converge");
        // Always below the Theorem 1.1 bound.
        let bound = theory::thm11_expected_rounds(&m.instance);
        assert!(m.rounds.mean <= bound);
        ns.push(n as f64);
        ts.push(m.rounds.mean);
    }
    let fit = power_law_fit(&ns, &ts, 1.0);
    assert!(
        (1.6..=2.9).contains(&fit.slope),
        "ring approx exponent {} outside the n²(·log) band",
        fit.slope
    );
}

#[test]
fn complete_graph_is_effectively_size_independent() {
    let mut ts = Vec::new();
    for n in [8usize, 16, 32] {
        let m = measure_uniform_convergence_scaled(
            Family::Complete { n },
            TaskScaling::DeltaFixed(2.0),
            Target::ApproxPsi0,
            TrialConfig::sequential(3, 0xB0B),
            1_000_000,
        );
        assert_eq!(m.reached_fraction, 1.0);
        ts.push(m.rounds.mean);
    }
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
    let m_tasks = TaskScaling::DeltaFixed(2.0).resolve(16);
    let cell = measure_uniform_convergence_scaled(
        family,
        TaskScaling::DeltaFixed(2.0),
        Target::ApproxPsi0,
        TrialConfig::sequential(3, 0xCAFE),
        10_000_000,
    );
    let ours = theory::thm11_expected_rounds(&cell.instance);
    let bhs = theory::table1_bhs(family, 16, m_tasks, Table1Column::ApproximateNash).unwrap();
    assert!(cell.rounds.mean < ours, "{} !< {ours}", cell.rounds.mean);
    assert!(ours < bhs, "{ours} !< {bhs}");
}

#[test]
fn trial_runner_integrates_with_summary_and_tables() {
    let values = run_trials(TrialConfig::parallel(12, 7), |seed| (seed % 17) as f64);
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
    // Build a Ψ₀ series with the fast simulator and check that first_hit
    // of the 4ψ_c target equals the runner's measured rounds for the same
    // seed.
    use slb_core::engine::count::{ClassCountState, CountRule, CountSim};
    use slb_core::model::{SpeedVector, System, TaskSet};
    use slb_core::protocol::Alpha;

    let family = Family::Hypercube { d: 3 };
    let n = 8;
    let m = 256;
    let lambda2 = slb_spectral::closed_form::lambda2_family(family);
    let inst = theory::Instance::uniform_speeds(n, m, 3, lambda2);
    let target = 4.0 * theory::psi_c(&inst);
    let system = System::new(family.build(), SpeedVector::uniform(n), TaskSet::uniform(m)).unwrap();

    let seed = slb_core::rng::derive_seed(0xFEED, 0, 0);
    // Series sampled every round.
    let mut sim = CountSim::for_system(
        &system,
        CountRule::Relaxed,
        Alpha::Approximate,
        ClassCountState::all_on_node(n, 0, m as u64),
        seed,
    );
    let mut series = Vec::new();
    for round in 0..5000u64 {
        series.push((round, sim.psi0()));
        sim.step();
    }
    let hit = convergence::first_hit(&series, target).expect("must hit");

    // Runner measurement with the same derived seed (trial 0).
    let cell = measure_uniform_convergence(
        family,
        m / n,
        Target::ApproxPsi0,
        TrialConfig::sequential(1, 0xFEED),
        5000,
    );
    assert_eq!(cell.rounds.mean as u64, hit);
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
