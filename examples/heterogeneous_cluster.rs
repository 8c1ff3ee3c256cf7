//! A heterogeneous datacenter scenario with weighted jobs.
//!
//! Uses the `slb-workloads` presets: a torus of racks with two machine
//! classes, heavy-tailed job weights, and everything queued on one ingest
//! node. Compares Algorithm 2 against the [6] baseline on the same
//! instance — the experiment motivating §4 of the paper.
//!
//! Run: `cargo run --release --example heterogeneous_cluster`

use rand::SeedableRng;
use selfish_load_balancing::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 400 tasks per node: enough total weight that Ψ₀ ≤ 4ψ_c^w is a real
    // target (the paper's Theorem 1.3 needs W large — with few tasks the
    // start state can satisfy the potential bound trivially).
    let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
    let built = scenario::heterogeneous_torus(5, 5, 400, &mut rng)?;
    println!("scenario: {}", built.description);

    let system = &built.system;
    let w = system.tasks().total_weight();
    println!(
        "instance: n = {}, m = {}, W = {:.1}, s_max = {}\n",
        system.node_count(),
        system.task_count(),
        w,
        system.speeds().max()
    );

    // The weighted-case critical potential of Theorem 1.3.
    let lambda2 = laplacian::lambda2(system.graph())?;
    let inst = theory::Instance {
        n: system.node_count(),
        total_work: w,
        max_degree: system.graph().max_degree(),
        lambda2,
        s_min: system.speeds().min(),
        s_max: system.speeds().max(),
        s_total: system.speeds().total(),
        granularity: system.speeds().granularity(),
    };
    let target = 4.0 * theory::psi_c_weighted(&inst);
    println!("target  : Ψ₀ ≤ 4ψ_c^w = {target:.1} (Theorem 1.3)\n");

    // Algorithm 2 (the paper's weighted protocol), then the [6] baseline,
    // whose per-task thresholds keep polishing light tasks.
    for (label, rule) in [
        ("algorithm 2  ", MigrationRule::Relaxed),
        ("bhs baseline ", MigrationRule::OwnWeight),
    ] {
        let mut sim = Simulation::new(system, Selfish::new(rule), built.initial.clone(), 1);
        let o = sim.run_until(StopCondition::Psi0Below(target), 500_000);
        println!(
            "{label} : reached in {:>6} rounds ({} migrations)",
            o.rounds, o.migrations
        );
        sim.run_until(StopCondition::Quiescent(300), 500_000);
        let gap = equilibrium::nash_gap(system, sim.state(), Threshold::LightestTask);
        println!("                at quiescence: exact-NE gap = {gap:.4}");
    }

    println!(
        "\nAlgorithm 2 stops at the relaxed `1/s_j` equilibrium (gap may stay\n\
         positive); the [6] baseline keeps migrating light tasks and drives\n\
         the exact gap toward zero — the §4 trade-off."
    );
    Ok(())
}
