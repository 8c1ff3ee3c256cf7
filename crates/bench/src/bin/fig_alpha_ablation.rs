//! **Ablation** — the damping constant `α`.
//!
//! `α = 4·s_max` is the protocol's central design constant: the
//! migration probability scales as `1/α`, so larger `α` means gentler
//! rounds. The analysis needs `α ≥ 4·s_max` to control the
//! variance term in Lemma 4.1 (and the exact-NE phase raises it to
//! `4·s_max/ε`). This ablation sweeps multiples of the default on a fixed
//! instance and also contrasts the coordinated sequential best-response
//! dynamics — quantifying what the concurrency-safe damping costs.
//!
//! Expected shape: time-to-target grows ≈ linearly in `α` (the expected
//! flow is `∝ 1/α`), while the best-response baseline needs orders of
//! magnitude fewer (but centrally coordinated) rounds.
//!
//! Run: `cargo run -p slb-bench --release --bin fig_alpha_ablation [-- --quick]`

use slb_analysis::runner::{run_trials, TrialConfig};
use slb_analysis::stats::Summary;
use slb_analysis::tables::{fmt_value, write_artifact, Table};
use slb_analysis::theory::{self, Instance};
use slb_bench::is_quick;
use slb_core::engine::count::{ClassCountState, CountRule, CountSim};
use slb_core::engine::{Simulation, StopCondition, StopReason};
use slb_core::model::{SpeedVector, System, TaskSet, TaskState};
use slb_core::protocol::{Alpha, BestResponse};
use slb_graphs::generators::Family;
use slb_graphs::NodeId;

fn main() {
    let quick = is_quick();
    let trials = if quick { 3 } else { 10 };
    let family = Family::Torus {
        rows: if quick { 3 } else { 5 },
        cols: if quick { 3 } else { 5 },
    };
    let tasks_per_node = 64usize;

    let graph = family.build();
    let n = graph.node_count();
    let m = n * tasks_per_node;
    let lambda2 = slb_spectral::closed_form::lambda2_family(family);
    let inst = Instance::uniform_speeds(n, m, graph.max_degree(), lambda2);
    let psi_target = 4.0 * theory::psi_c(&inst);
    let system = System::new(family.build(), SpeedVector::uniform(n), TaskSet::uniform(m))
        .expect("valid instance");
    let system_ref = &system;

    println!(
        "# Ablation: damping constant α on {family} (m={m}, target Ψ₀ ≤ {})\n",
        fmt_value(psi_target)
    );
    let mut table = Table::new(
        "α sweep (randomized protocol) + coordinated baseline",
        &[
            "dynamics",
            "α / 4·s_max",
            "mean rounds",
            "std",
            "rounds × (4·s_max/α)",
        ],
    );

    let base = 4.0 * system.speeds().max();
    for multiple in [1.0, 2.0, 4.0, 8.0, 16.0] {
        let alpha = Alpha::Custom(base * multiple);
        let rounds = run_trials(
            TrialConfig::parallel(trials, 0xAB1A + multiple as u64),
            move |seed| {
                let mut sim = CountSim::for_system(
                    system_ref,
                    CountRule::Relaxed,
                    alpha,
                    ClassCountState::all_on_node(n, 0, m as u64),
                    seed,
                );
                let o = sim.run_until(StopCondition::Psi0Below(psi_target), 10_000_000);
                assert!(o.reached(), "α ablation exceeded budget");
                o.rounds as f64
            },
        );
        let s = Summary::of(&rounds);
        table.push_row(vec![
            "selfish (alg 1)".into(),
            format!("{multiple}x"),
            fmt_value(s.mean),
            fmt_value(s.std_dev),
            fmt_value(s.mean / multiple),
        ]);
    }

    // Coordinated baseline: sequential best response (deterministic).
    {
        let initial = TaskState::all_on_node(&system, NodeId(0));
        let mut sim = Simulation::new(&system, BestResponse::new(), initial, 0);
        let o = sim.run_until(StopCondition::Psi0Below(psi_target), 100_000);
        let rounds = if o.reason == StopReason::ConditionMet {
            o.rounds as f64
        } else {
            f64::INFINITY
        };
        table.push_row(vec![
            "best-response (coordinated)".into(),
            "-".into(),
            fmt_value(rounds),
            "0".into(),
            "-".into(),
        ]);
    }

    println!("{}", table.to_markdown());
    println!(
        "(the last column is ~constant: convergence time scales linearly in α,\n\
         the price of concurrency-safe damping; sequential best response needs\n\
         far fewer rounds but each round is m centrally ordered moves.)"
    );
    match write_artifact("fig_alpha_ablation.csv", &table.to_csv()) {
        Ok(path) => println!("raw data: {}", path.display()),
        Err(e) => eprintln!("could not write artifact: {e}"),
    }
}
