//! **F1** — the multiplicative potential drop (Lemmas 3.13/3.14).
//!
//! Records `Ψ₀(t)` from the adversarial hot start on each Table 1 family
//! and compares the decay against the paper's envelope
//! `E[Ψ₀(X_t)] ≤ (1 − 1/γ)^t·Ψ₀(X₀)` — valid while `E[Ψ₀] ≥ ψ_c`. The
//! printed table reports the measured one-e-folding time (rounds for Ψ₀ to
//! drop by e×) next to `γ`; the claim is `measured ≤ γ`.
//!
//! Run: `cargo run -p slb-bench --release --bin fig_potential_decay [-- --quick]`

use slb_analysis::tables::{fmt_value, write_artifact, Table};
use slb_analysis::theory::{self, Instance};
use slb_bench::is_quick;
use slb_core::engine::count::{ClassCountState, CountRule, CountSim};
use slb_core::model::{SpeedVector, System, TaskSet};
use slb_core::protocol::Alpha;
use slb_graphs::generators::Family;
use std::fmt::Write as _;

fn main() {
    let quick = is_quick();
    let tasks_per_node = if quick { 64 } else { 256 };
    let families = if quick {
        vec![Family::Ring { n: 8 }, Family::Hypercube { d: 3 }]
    } else {
        vec![
            Family::Complete { n: 32 },
            Family::Ring { n: 32 },
            Family::Torus { rows: 6, cols: 6 },
            Family::Hypercube { d: 5 },
        ]
    };
    println!("# F1: Ψ₀ decay vs the (1 − 1/γ)^t envelope\n");
    let mut summary = Table::new(
        "Multiplicative drop",
        &[
            "family",
            "γ (envelope e-folding)",
            "measured e-folding",
            "ratio",
            "ψ_c",
            "fitted decay rate",
        ],
    );
    let mut csv = String::from("family,round,psi0,envelope\n");

    for family in families {
        let graph = family.build();
        let n = graph.node_count();
        let m = n * tasks_per_node;
        let lambda2 = slb_spectral::closed_form::lambda2_family(family);
        let inst = Instance::uniform_speeds(n, m, graph.max_degree(), lambda2);
        let gamma = theory::gamma(&inst);
        let psi_c = theory::psi_c(&inst);

        let system = System::new(family.build(), SpeedVector::uniform(n), TaskSet::uniform(m))
            .expect("valid instance");
        let mut sim = CountSim::for_system(
            &system,
            CountRule::Relaxed,
            Alpha::Approximate,
            ClassCountState::all_on_node(n, 0, m as u64),
            0xF161 + n as u64,
        );
        let psi0_start = sim.psi0();
        let total_rounds = ((4.0 * gamma) as u64).clamp(100, 2_000_000);
        let sample_every = (total_rounds / 200).max(1);

        let mut series: Vec<(u64, f64)> = Vec::new();
        for round in 0..=total_rounds {
            if round % sample_every == 0 {
                let psi = sim.psi0();
                let envelope = (1.0 - 1.0 / gamma).powf(round as f64) * psi0_start;
                let _ = writeln!(csv, "{family},{round},{psi},{envelope}");
                series.push((round, psi));
                if psi <= psi_c {
                    break; // the envelope only applies while Ψ₀ ≥ ψ_c
                }
            }
            sim.step();
        }
        // Shared extractors (tested in slb-analysis::convergence):
        // measured e-folding, fitted geometric rate, and a hard check that
        // the Lemma 3.13 envelope is never violated above ψ_c.
        let measured =
            slb_analysis::convergence::e_folding_round(&series).map_or(f64::INFINITY, |r| r as f64);
        if let Some(round) =
            slb_analysis::convergence::envelope_violation(&series, gamma, psi_c, 0.05)
        {
            panic!("Lemma 3.13 envelope violated on {family} at round {round}");
        }
        let rate =
            slb_analysis::convergence::geometric_rate(&series, psi_c).map_or(f64::NAN, |rho| rho);
        summary.push_row(vec![
            family.to_string(),
            fmt_value(gamma),
            fmt_value(measured),
            fmt_value(measured / gamma),
            fmt_value(psi_c),
            format!("ρ={rate:.4} ≤ {:.4}", 1.0 - 1.0 / gamma),
        ]);
    }

    println!("{}", summary.to_markdown());
    println!(
        "(the paper guarantees an e-folding within γ rounds while Ψ₀ ≥ ψ_c;\n\
         measured e-foldings are faster — the bound is worst-case.)"
    );
    match write_artifact("fig_potential_decay.csv", &csv) {
        Ok(path) => println!("series: {}", path.display()),
        Err(e) => eprintln!("could not write artifact: {e}"),
    }
}
