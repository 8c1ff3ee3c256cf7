//! **THM11 / THM12 / THM13** — measured convergence vs. the paper's
//! theorem bounds.
//!
//! * Theorem 1.1: rounds to `Ψ₀ ≤ 4ψ_c` vs `2·T = 4γ·ln(m/n)` on uniform
//!   machines, plus the ε-approximate-NE check with `ε = 2/(1+δ)`.
//! * Theorem 1.2: rounds to an exact NE on machines with integer speeds
//!   (granularity 1) vs `607·Δ²·s_max⁴·n/λ₂`.
//! * Theorem 1.3: weighted tasks — rounds to `Ψ₀ ≤ 4ψ_c^w` under
//!   Algorithm 2 vs the weighted bound.
//!
//! Run: `cargo run -p slb-bench --release --bin theorem_bounds [-- --quick]`

use rand::Rng;
use slb_analysis::runner::{run_trials, TrialConfig};
use slb_analysis::stats::Summary;
use slb_analysis::tables::{fmt_value, write_artifact, Table};
use slb_analysis::theory::{self, Instance};
use slb_bench::{is_quick, rounds_until, setup_rng};
use slb_core::engine::uniform_fast::{CountState, UniformFastSim};
use slb_core::engine::StopCondition;
use slb_core::equilibrium::{self, Threshold};
use slb_core::model::{SpeedVector, System, TaskSet, TaskState};
use slb_core::potential;
use slb_core::protocol::{Alpha, SelfishUniform, SelfishWeighted};
use slb_graphs::generators::{self, Family};
use slb_graphs::NodeId;

fn thm11(quick: bool, out: &mut Table) {
    let trials = if quick { 3 } else { 10 };
    // m chosen so δ > 1: m ≥ 8·δ·s_max·S·n² with S = n, s_max = 1.
    let cases: &[(Family, usize)] = if quick {
        &[(Family::Ring { n: 8 }, 2), (Family::Hypercube { d: 3 }, 2)]
    } else {
        &[
            (Family::Ring { n: 16 }, 2),
            (Family::Torus { rows: 4, cols: 4 }, 2),
            (Family::Hypercube { d: 4 }, 2),
            (Family::Complete { n: 16 }, 2),
        ]
    };
    for &(family, delta) in cases {
        let graph = family.build();
        let n = graph.node_count();
        let lambda2 = slb_spectral::closed_form::lambda2_family(family);
        let mut inst = Instance::uniform_speeds(n, 0, graph.max_degree(), lambda2);
        let m = theory::m_threshold(&inst, delta as f64).ceil() as usize;
        inst.total_work = m as f64;
        let psi_target = 4.0 * theory::psi_c(&inst);
        let bound = theory::thm11_expected_rounds(&inst);
        let eps = theory::eps_of_delta(delta as f64);

        let system = System::new(family.build(), SpeedVector::uniform(n), TaskSet::uniform(m))
            .expect("valid uniform instance");
        let system_ref = &system;
        let budget = ((bound * 4.0) as u64).max(10_000);
        let rounds = run_trials(TrialConfig::parallel(trials, 0x111 + n as u64), |seed| {
            let mut sim = UniformFastSim::new(
                system_ref,
                Alpha::Approximate,
                CountState::all_on_node(n, 0, m as u64),
                seed,
            );
            let o = sim.run_until(StopCondition::Psi0Below(psi_target), budget);
            // Verify the ε-approximate-NE claim of Theorem 1.1 on the
            // reached state: (1−ε)ℓ_i − ℓ_j ≤ 1/s_j must hold everywhere.
            if o.reached() {
                let loads = sim.state().loads(system_ref.speeds());
                for &(a, b) in system_ref.graph().edges() {
                    for (i, j) in [(a, b), (b, a)] {
                        if sim.state().counts()[i.index()] == 0 {
                            continue;
                        }
                        assert!(
                            (1.0 - eps) * loads[i.index()] - loads[j.index()] <= 1.0 + 1e-9,
                            "Theorem 1.1 ε-NE claim violated on {family}"
                        );
                    }
                }
            }
            o.rounds as f64
        });
        let s = Summary::of(&rounds);
        out.push_row(vec![
            "1.1".into(),
            family.to_string(),
            m.to_string(),
            fmt_value(s.mean),
            fmt_value(s.std_dev),
            fmt_value(bound),
            fmt_value(s.mean / bound),
            format!("ε={eps:.3} ok"),
        ]);
    }
}

fn thm12(quick: bool, out: &mut Table) {
    let trials = if quick { 3 } else { 10 };
    let cases: &[(Family, u64)] = if quick {
        &[(Family::Ring { n: 8 }, 2)]
    } else {
        &[
            (Family::Ring { n: 8 }, 2),
            (Family::Ring { n: 16 }, 2),
            (Family::Hypercube { d: 4 }, 2),
            (Family::Torus { rows: 4, cols: 4 }, 3),
        ]
    };
    for &(family, s_max) in cases {
        let graph = family.build();
        let n = graph.node_count();
        let m = 32 * n;
        // Deterministic alternating integer speeds 1..s_max.
        let speeds: Vec<u64> = (0..n).map(|i| 1 + (i as u64 % s_max)).collect();
        let speed_vec = SpeedVector::integer(speeds).expect("integer speeds valid");
        let lambda2 = slb_spectral::closed_form::lambda2_family(family);
        let inst = Instance {
            n,
            total_work: m as f64,
            max_degree: graph.max_degree(),
            lambda2,
            s_min: speed_vec.min(),
            s_max: speed_vec.max(),
            s_total: speed_vec.total(),
            granularity: Some(1.0),
        };
        let bound = theory::thm12_expected_rounds(&inst).expect("granularity declared");
        let system =
            System::new(family.build(), speed_vec, TaskSet::uniform(m)).expect("valid instance");
        let system_ref = &system;
        let budget = ((bound * 2.0) as u64).clamp(100_000, 50_000_000);
        let rounds = run_trials(TrialConfig::parallel(trials, 0x222 + n as u64), |seed| {
            let mut sim = UniformFastSim::new(
                system_ref,
                Alpha::Exact,
                CountState::all_on_node(n, 0, m as u64),
                seed,
            );
            let o = sim.run_until(StopCondition::Nash(Threshold::UnitWeight), budget);
            assert!(o.reached(), "Theorem 1.2 budget exceeded on {family}");
            o.rounds as f64
        });
        let s = Summary::of(&rounds);
        out.push_row(vec![
            "1.2".into(),
            format!("{family}, s_max={s_max}"),
            m.to_string(),
            fmt_value(s.mean),
            fmt_value(s.std_dev),
            fmt_value(bound),
            fmt_value(s.mean / bound),
            "exact NE".into(),
        ]);
    }
}

fn thm13(quick: bool, out: &mut Table) {
    let trials = if quick { 2 } else { 6 };
    let cases: &[(Family, u64, usize)] = if quick {
        &[(Family::Ring { n: 6 }, 2, 200)]
    } else {
        &[
            (Family::Ring { n: 8 }, 2, 400),
            (Family::Hypercube { d: 3 }, 2, 400),
            (Family::Torus { rows: 3, cols: 3 }, 3, 300),
        ]
    };
    for &(family, s_max, tasks_per_node) in cases {
        let graph = family.build();
        let n = graph.node_count();
        let m = tasks_per_node * n;
        let speeds: Vec<u64> = (0..n).map(|i| 1 + (i as u64 % s_max)).collect();
        let speed_vec = SpeedVector::integer(speeds).expect("integer speeds valid");
        let lambda2 = slb_spectral::closed_form::lambda2_family(family);

        let mut wrng = setup_rng(0x333 + n as u64);
        let weights: Vec<f64> = (0..m).map(|_| wrng.gen_range(0.1..=1.0)).collect();
        let total_w: f64 = weights.iter().sum();
        let inst = Instance {
            n,
            total_work: total_w,
            max_degree: graph.max_degree(),
            lambda2,
            s_min: speed_vec.min(),
            s_max: speed_vec.max(),
            s_total: speed_vec.total(),
            granularity: Some(1.0),
        };
        let psi_target = 4.0 * theory::psi_c_weighted(&inst);
        let bound = theory::thm13_expected_rounds(&inst);
        let system = System::new(
            family.build(),
            speed_vec,
            TaskSet::weighted(weights).expect("weights in (0,1]"),
        )
        .expect("valid instance");
        let system_ref = &system;
        let budget = ((bound * 4.0) as u64).max(20_000);
        let rounds = run_trials(TrialConfig::parallel(trials, 0x444 + n as u64), |seed| {
            let initial = TaskState::all_on_node(system_ref, NodeId(0));
            let (r, reached) = rounds_until(
                system_ref,
                SelfishWeighted::new(),
                initial,
                seed,
                StopCondition::Psi0Below(psi_target),
                budget,
            );
            assert!(reached, "Theorem 1.3 budget exceeded on {family}");
            r as f64
        });
        let s = Summary::of(&rounds);
        out.push_row(vec![
            "1.3".into(),
            format!("{family}, s_max={s_max}, W={total_w:.0}"),
            m.to_string(),
            fmt_value(s.mean),
            fmt_value(s.std_dev),
            fmt_value(bound),
            fmt_value(s.mean / bound),
            "Ψ₀ ≤ 4ψ_c^w".into(),
        ]);
    }
}

fn observation_3_28(out: &mut Table) {
    // The Ω(Δ·diam) improvement factor of Observation 3.28, evaluated on
    // the Table 1 families at n = 64.
    for family in [
        Family::Complete { n: 64 },
        Family::Ring { n: 64 },
        Family::Torus { rows: 8, cols: 8 },
        Family::Hypercube { d: 6 },
    ] {
        let graph = family.build();
        let diam = slb_graphs::traversal::diameter(&graph).expect("connected");
        let factor = theory::observation_3_28_factor(graph.max_degree(), diam);
        out.push_row(vec![
            "Obs 3.28".into(),
            family.to_string(),
            "-".into(),
            "-".into(),
            "-".into(),
            fmt_value(factor),
            "-".into(),
            "Δ·diam improvement".into(),
        ]);
    }
}

fn main() {
    let quick = is_quick();
    println!(
        "# Theorem bounds: measured vs predicted{}\n",
        if quick { " (quick mode)" } else { "" }
    );
    let mut table = Table::new(
        "Theorems 1.1–1.3",
        &[
            "thm",
            "instance",
            "m",
            "measured",
            "std",
            "paper bound",
            "ratio",
            "note",
        ],
    );
    thm11(quick, &mut table);
    thm12(quick, &mut table);
    thm13(quick, &mut table);
    observation_3_28(&mut table);
    println!("{}", table.to_markdown());
    println!(
        "(ratio < 1 everywhere: the paper's bounds are upper bounds with\n\
         worst-case constants; the shape claim is that measured times stay\n\
         below them and scale no faster.)"
    );
    match write_artifact("theorem_bounds.csv", &table.to_csv()) {
        Ok(path) => println!("raw data: {}", path.display()),
        Err(e) => eprintln!("could not write artifact: {e}"),
    }

    // Consistency guard: Ψ₀ of a hot start is ≤ m²
    // (used in Lemma 3.15's proof) — checked on one instance here so the
    // binary doubles as a sanity test.
    let system = System::new(
        generators::ring(8),
        SpeedVector::uniform(8),
        TaskSet::uniform(64),
    )
    .expect("valid instance");
    let st = TaskState::all_on_node(&system, NodeId(0));
    let p = potential::report(&system, &st);
    assert!(p.psi0 <= 64.0 * 64.0);
    assert!(!equilibrium::is_nash(&system, &st, Threshold::UnitWeight));
    let _ = SelfishUniform::new();
}
