//! **F2** — Lemma 3.15(2): `Pr[Ψ₀ ≤ 4ψ_c by T] ≥ 3/4` at
//! `T = 2γ·ln(m/n)`.
//!
//! Runs many independent trials, records each trial's first round hitting
//! `Ψ₀ ≤ 4ψ_c`, and prints the empirical success CDF at fractions of `T`.
//! The lemma's claim is checked at `t = T`; Corollary 3.18's amplification
//! (probability `≥ 1 − 1/4^k` after `k` blocks) is checked at `2T` and
//! `3T`.
//!
//! Run: `cargo run -p slb-bench --release --bin fig_success_probability [-- --quick]`

use slb_analysis::runner::{run_trials, TrialConfig};
use slb_analysis::tables::{fmt_value, write_artifact, Table};
use slb_analysis::theory::{self, Instance};
use slb_bench::is_quick;
use slb_core::engine::count::{ClassCountState, CountRule, CountSim};
use slb_core::engine::StopCondition;
use slb_core::model::{SpeedVector, System, TaskSet};
use slb_core::protocol::Alpha;
use slb_graphs::generators::Family;
use std::fmt::Write as _;

fn main() {
    let quick = is_quick();
    let trials = if quick { 40 } else { 200 };
    let family = Family::Ring { n: 16 };
    let tasks_per_node = 64usize;

    let graph = family.build();
    let n = graph.node_count();
    let m = n * tasks_per_node;
    let lambda2 = slb_spectral::closed_form::lambda2_family(family);
    let inst = Instance::uniform_speeds(n, m, graph.max_degree(), lambda2);
    let psi_target = 4.0 * theory::psi_c(&inst);
    let t_block = theory::t_block(&inst);

    println!(
        "# F2: success probability of reaching Ψ₀ ≤ 4ψ_c ({family}, m={m}, {trials} trials)\n"
    );
    println!("T = 2γ·ln(m/n) = {}\n", fmt_value(t_block));

    let system = System::new(family.build(), SpeedVector::uniform(n), TaskSet::uniform(m))
        .expect("valid instance");
    let system_ref = &system;
    let budget = (4.0 * t_block) as u64 + 10;

    let hit_rounds = run_trials(TrialConfig::parallel(trials, 0xF2), |seed| {
        let mut sim = CountSim::for_system(
            system_ref,
            CountRule::Relaxed,
            Alpha::Approximate,
            ClassCountState::all_on_node(n, 0, m as u64),
            seed,
        );
        let o = sim.run_until(StopCondition::Psi0Below(psi_target), budget);
        if o.reached() {
            o.rounds as f64
        } else {
            f64::INFINITY
        }
    });

    // Empirical hit-time quantiles first: T is a worst-case bound, so the
    // whole distribution typically sits far to its left.
    let mut sorted = hit_rounds.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN hit times"));
    let quantile = |q: f64| sorted[((q * (trials - 1) as f64).round() as usize).min(trials - 1)];
    let mut quantiles = Table::new(
        "Empirical hit-time quantiles (rounds)",
        &["min", "p50", "p90", "p99", "max", "T (bound)"],
    );
    quantiles.push_row(vec![
        fmt_value(quantile(0.0)),
        fmt_value(quantile(0.5)),
        fmt_value(quantile(0.9)),
        fmt_value(quantile(0.99)),
        fmt_value(quantile(1.0)),
        fmt_value(t_block),
    ]);
    println!("{}", quantiles.to_markdown());

    let mut table = Table::new(
        "Empirical CDF of the hit time",
        &["t / T", "t (rounds)", "Pr[hit by t]", "paper guarantee"],
    );
    let mut csv = String::from("t_over_T,t,probability\n");
    for frac in [
        0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 3.0,
    ] {
        let t = frac * t_block;
        let p = hit_rounds.iter().filter(|&&h| h <= t).count() as f64 / trials as f64;
        let guarantee = if frac == 1.0 {
            "≥ 0.75 (Lemma 3.15)".to_string()
        } else if frac == 2.0 {
            format!("≥ {:.3} (Cor 3.18, k=2)", 1.0 - 0.25f64.powi(2))
        } else if frac == 3.0 {
            format!("≥ {:.3} (Cor 3.18, k=3)", 1.0 - 0.25f64.powi(3))
        } else {
            "-".to_string()
        };
        table.push_row(vec![
            format!("{frac:.3}"),
            fmt_value(t),
            format!("{p:.3}"),
            guarantee,
        ]);
        let _ = writeln!(csv, "{frac},{t},{p}");
    }
    println!("{}", table.to_markdown());

    let p_at_t = hit_rounds.iter().filter(|&&h| h <= t_block).count() as f64 / trials as f64;
    assert!(
        p_at_t >= 0.75,
        "Lemma 3.15 violated empirically: Pr[hit by T] = {p_at_t}"
    );
    println!("Lemma 3.15 check: Pr[hit by T] = {p_at_t:.3} ≥ 0.75 ✓");
    match write_artifact("fig_success_probability.csv", &csv) {
        Ok(path) => println!("series: {}", path.display()),
        Err(e) => eprintln!("could not write artifact: {e}"),
    }
}
