//! **F5** — the randomized selfish protocol vs rounded-flow discrete
//! diffusion (§1's remark on \[2\]).
//!
//! On the same instances, compares three dynamics from the same hot start:
//!
//! * Algorithm 1 (randomized, selfish),
//! * discrete diffusion (deterministic rounded expected flows),
//! * continuous diffusion (idealized divisible load — the expectation the
//!   randomized protocol mimics).
//!
//! Reports rounds to `Ψ₀ ≤ 4ψ_c`, the residual Ψ₀ at quiescence, and the
//! Ψ₀ trajectories as CSV.
//!
//! Run: `cargo run -p slb-bench --release --bin fig_diffusion [-- --quick]`

use slb_analysis::tables::{fmt_value, write_artifact, Table};
use slb_analysis::theory::{self, Instance};
use slb_bench::is_quick;
use slb_core::engine::{Simulation, StopCondition, StopReason};
use slb_core::model::{SpeedVector, System, TaskSet, TaskState};
use slb_core::potential;
use slb_core::protocol::{
    diffusion, Alpha, Diffusion, ErrorFeedbackDiffusion, MigrationRule, Selfish,
};
use slb_graphs::generators::Family;
use slb_graphs::NodeId;
use std::fmt::Write as _;

fn main() {
    let quick = is_quick();
    let families = if quick {
        vec![Family::Ring { n: 8 }]
    } else {
        vec![
            Family::Ring { n: 16 },
            Family::Torus { rows: 5, cols: 5 },
            Family::Hypercube { d: 4 },
        ]
    };
    let tasks_per_node = if quick { 64 } else { 128 };
    let budget: u64 = if quick { 100_000 } else { 500_000 };

    println!("# F5: selfish protocol vs discrete & continuous diffusion\n");
    let mut table = Table::new(
        "Selfish vs diffusion",
        &[
            "family",
            "dynamics",
            "rounds to Ψ₀ ≤ 4ψ_c",
            "Ψ₀ at quiescence",
            "note",
        ],
    );
    let mut csv = String::from("family,dynamics,round,psi0\n");

    for family in families {
        let graph = family.build();
        let n = graph.node_count();
        let m = n * tasks_per_node;
        let lambda2 = slb_spectral::closed_form::lambda2_family(family);
        let inst = Instance::uniform_speeds(n, m, graph.max_degree(), lambda2);
        let psi_target = 4.0 * theory::psi_c(&inst);
        let system = System::new(family.build(), SpeedVector::uniform(n), TaskSet::uniform(m))
            .expect("valid instance");
        let initial = TaskState::all_on_node(&system, NodeId(0));
        let trajectory_rounds = if quick { 2_000 } else { 8_000 };
        let cadence = (trajectory_rounds / 100).max(1);

        // Randomized selfish protocol.
        {
            let alg1 = Selfish::new(MigrationRule::Relaxed);
            let mut sim = Simulation::new(&system, alg1, initial.clone(), 0xF5);
            let o = sim.run_until(StopCondition::Psi0Below(psi_target), budget);
            let hit = if o.reason == StopReason::ConditionMet {
                fmt_value(o.rounds as f64)
            } else {
                format!("> {budget}")
            };
            sim.run_until(StopCondition::Quiescent(200), budget);
            let residual = potential::report(&system, sim.state()).psi0;
            table.push_row(vec![
                family.to_string(),
                "selfish (alg 1)".into(),
                hit,
                fmt_value(residual),
                "randomized".into(),
            ]);
            let mut sim = Simulation::new(&system, alg1, initial.clone(), 0xF5);
            for row in sim.run_with_trace(trajectory_rounds, cadence).rows() {
                let _ = writeln!(csv, "{family},selfish,{},{}", row.round, row.psi0);
            }
        }

        // Discrete diffusion.
        {
            let mut sim = Simulation::new(&system, Diffusion::new(), initial.clone(), 0);
            let o = sim.run_until(StopCondition::Psi0Below(psi_target), budget);
            let hit = if o.reason == StopReason::ConditionMet {
                fmt_value(o.rounds as f64)
            } else {
                format!("> {budget}")
            };
            sim.run_until(StopCondition::Quiescent(10), budget);
            let residual = potential::report(&system, sim.state()).psi0;
            table.push_row(vec![
                family.to_string(),
                "discrete diffusion".into(),
                hit,
                fmt_value(residual),
                "deterministic".into(),
            ]);
            let mut sim = Simulation::new(&system, Diffusion::new(), initial.clone(), 0);
            for row in sim.run_with_trace(trajectory_rounds, cadence).rows() {
                let _ = writeln!(
                    csv,
                    "{family},discrete-diffusion,{},{}",
                    row.round, row.psi0
                );
            }
        }

        // Error-feedback diffusion (the [2] companion idea): carry the
        // rounding remainder per directed edge between rounds.
        {
            let mut sim =
                Simulation::new(&system, ErrorFeedbackDiffusion::new(), initial.clone(), 0);
            let o = sim.run_until(StopCondition::Psi0Below(psi_target), budget);
            let hit = if o.reason == StopReason::ConditionMet {
                fmt_value(o.rounds as f64)
            } else {
                format!("> {budget}")
            };
            sim.run_until(StopCondition::Quiescent(50), budget);
            let residual = potential::report(&system, sim.state()).psi0;
            table.push_row(vec![
                family.to_string(),
                "error-feedback diffusion".into(),
                hit,
                fmt_value(residual),
                "deterministic + carry".into(),
            ]);
            let mut sim =
                Simulation::new(&system, ErrorFeedbackDiffusion::new(), initial.clone(), 0);
            for row in sim.run_with_trace(trajectory_rounds, cadence).rows() {
                let _ = writeln!(csv, "{family},error-feedback,{},{}", row.round, row.psi0);
            }
        }

        // Continuous diffusion on divisible load.
        {
            let mut w = initial.node_weights().to_vec();
            let total = system.tasks().total_weight();
            let mut hit: Option<u64> = None;
            for round in 0..=trajectory_rounds {
                let psi = potential::psi0(&w, system.speeds(), total);
                if round % cadence == 0 {
                    let _ = writeln!(csv, "{family},continuous-diffusion,{round},{psi}");
                }
                if hit.is_none() && psi <= psi_target {
                    hit = Some(round);
                }
                w = diffusion::continuous_step(&system, &w, Alpha::Approximate);
            }
            let residual = potential::psi0(&w, system.speeds(), total);
            table.push_row(vec![
                family.to_string(),
                "continuous diffusion".into(),
                hit.map_or_else(|| format!("> {trajectory_rounds}"), |r| fmt_value(r as f64)),
                fmt_value(residual),
                "idealized envelope".into(),
            ]);
        }
    }

    println!("{}", table.to_markdown());
    println!(
        "(the randomized protocol tracks the continuous-diffusion envelope in\n\
         expectation; discrete diffusion stalls earlier due to flow rounding.)"
    );
    match write_artifact("fig_diffusion.csv", &csv) {
        Ok(path) => println!("series: {}", path.display()),
        Err(e) => eprintln!("could not write artifact: {e}"),
    }
}
