//! **Extension** — expanders beyond Table 1.
//!
//! The paper's bounds are stated in terms of `Δ/λ₂`; Table 1 instantiates
//! them for four named families. Random `d`-regular graphs are expanders
//! with high probability (`λ₂ = Θ(1)` independent of `n`, by Cheeger /
//! Lemma 1.10), so the bounds predict `O(ln(m/n))` convergence to the
//! approximate state — as good as the complete graph at constant degree.
//! This experiment verifies that prediction empirically: convergence time
//! on random 4-regular graphs stays flat as `n` grows, with `λ₂` measured
//! by the in-tree Lanczos solver (no closed form exists).
//!
//! Run: `cargo run -p slb-bench --release --bin fig_expander [-- --quick]`

use rand::SeedableRng;
use slb_analysis::runner::{run_trials, RunConfig};
use slb_analysis::stats::{power_law_fit, Summary};
use slb_analysis::tables::{fmt_value, write_artifact, Table};
use slb_analysis::theory::{self, Instance};
use slb_bench::is_quick;
use slb_core::engine::count::{ClassCountState, CountSim};
use slb_core::engine::StopCondition;
use slb_core::model::{SpeedVector, System, TaskSet};
use slb_core::protocol::Alpha;
use slb_core::protocol::MigrationRule;
use slb_graphs::generators;

fn main() {
    let quick = is_quick();
    let trials = if quick { 3 } else { 8 };
    let tasks_per_node = 64usize;
    let sizes: &[usize] = if quick {
        &[16, 32]
    } else {
        &[16, 32, 64, 128, 256]
    };
    let degree = 4usize;

    println!("# Extension: random {degree}-regular expanders\n");
    let mut table = Table::new(
        "Approximate convergence on expanders",
        &[
            "n",
            "λ₂ (lanczos)",
            "γ",
            "mean rounds",
            "std",
            "thm 1.1 bound",
        ],
    );

    let mut ns = Vec::new();
    let mut ts = Vec::new();
    for &n in sizes {
        let mut grng = rand::rngs::StdRng::seed_from_u64(0xE4 + n as u64);
        let graph = generators::random_regular(n, degree, &mut grng);
        let lambda2 = slb_spectral::laplacian::lambda2(&graph).expect("connected expander");
        let m = n * tasks_per_node;
        let inst = Instance::uniform_speeds(n, m, degree, lambda2);
        let psi_target = 4.0 * theory::psi_c(&inst);
        let bound = theory::thm11_expected_rounds(&inst);
        let system = System::new(graph, SpeedVector::uniform(n), TaskSet::uniform(m))
            .expect("valid instance");
        let system_ref = &system;
        let rounds = run_trials(trials, RunConfig::parallel(0xE4F + n as u64), |seed| {
            let mut sim = CountSim::for_system(
                system_ref,
                MigrationRule::Relaxed,
                Alpha::Approximate,
                ClassCountState::all_on_node(n, 0, m as u64),
                seed,
            );
            let o = sim.run_until(
                StopCondition::Psi0Below(psi_target),
                (bound * 4.0) as u64 + 1000,
            );
            assert!(o.reached(), "expander run exceeded budget");
            o.rounds as f64
        });
        let s = Summary::of(&rounds);
        table.push_row(vec![
            n.to_string(),
            format!("{lambda2:.4}"),
            fmt_value(theory::gamma(&inst)),
            fmt_value(s.mean),
            fmt_value(s.std_dev),
            fmt_value(bound),
        ]);
        ns.push(n as f64);
        ts.push(s.mean);
    }

    println!("{}", table.to_markdown());
    let fit = power_law_fit(&ns, &ts, 1.0);
    println!(
        "fitted T ∝ n^{:.2} (R² {:.3}) — flat, matching the expander prediction\n\
         (λ₂ = Θ(1) ⇒ O(ln(m/n)) rounds regardless of n; contrast the ring's n²).",
        fit.slope, fit.r_squared
    );
    // At quick-mode sizes λ₂ still drifts with n (finite-size effects);
    // the flatness claim is asserted on the full sweep only.
    if !quick {
        assert!(
            fit.slope < 0.6,
            "expander convergence should be nearly size-independent, got n^{:.2}",
            fit.slope
        );
    }
    match write_artifact("fig_expander.csv", &table.to_csv()) {
        Ok(path) => println!("raw data: {}", path.display()),
        Err(e) => eprintln!("could not write artifact: {e}"),
    }
}
