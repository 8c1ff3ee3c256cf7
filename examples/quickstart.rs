//! Quickstart: Algorithm 1 on a small heterogeneous torus.
//!
//! Builds a 4×4 torus of machines (one in four is 4× faster), dumps all
//! tasks on one node, runs the paper's Algorithm 1 until an exact Nash
//! equilibrium, and prints what happened round by round.
//!
//! Run: `cargo run --release --example quickstart`

use selfish_load_balancing::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The network: a 4x4 torus (Table 1's mesh/torus row).
    let graph = generators::torus(4, 4);
    let n = graph.node_count();

    // Machines: every fourth node is 4x faster (integer speeds keep the
    // granularity ε = 1, so Theorem 1.2's exact-NE bound applies).
    let speeds = SpeedVector::integer((0..n).map(|i| if i % 4 == 0 { 4 } else { 1 }).collect())?;
    println!(
        "network : torus 4x4, Δ = {}, λ₂ = {:.4}",
        graph.max_degree(),
        closed_form::lambda2_torus(4, 4),
    );
    println!(
        "machines: n = {n}, s_max = {}, total capacity S = {}",
        speeds.max(),
        speeds.total()
    );

    // Workload: 20 unit tasks per node, all initially on node 0.
    let system = System::new(graph, speeds, TaskSet::uniform(20 * n))?;
    let initial = TaskState::all_on_node(&system, NodeId(0));
    let start = potential::report(&system, &initial);
    println!(
        "start   : m = {} tasks on node 0, Ψ₀ = {:.1}, L_Δ = {:.2}\n",
        system.task_count(),
        start.psi0,
        start.max_load_deviation
    );

    // Run Algorithm 1, sampling the potential every 50 rounds.
    let mut sim = Simulation::new(&system, Selfish::new(MigrationRule::Relaxed), initial, 42);
    let mut trace = Trace::new(50);
    let outcome = sim.run_until_observed(
        StopCondition::Nash(Threshold::UnitWeight),
        100_000,
        &mut trace,
    );

    for row in trace.rows().iter().take(8) {
        println!(
            "round {:>5}: Ψ₀ = {:>9.1}, L_Δ = {:>6.2}, migrations = {}",
            row.round, row.psi0, row.max_load_deviation, row.migrations
        );
    }
    if !outcome.reached() {
        return Err("no Nash equilibrium within the budget".into());
    }
    let end = potential::report(&system, sim.state());
    println!("\nNash equilibrium after {} rounds", outcome.rounds);
    println!(
        "final   : Ψ₀ = {:.2}, L_Δ = {:.3}",
        end.psi0, end.max_load_deviation
    );

    // Every machine's load sits within 1/s_j of its neighbors' — no task
    // can improve by migrating (the paper's equilibrium condition).
    let loads = sim.state().loads(&system);
    println!(
        "loads   : min {:.2}, max {:.2}",
        loads.iter().cloned().fold(f64::MAX, f64::min),
        loads.iter().cloned().fold(f64::MIN, f64::max),
    );
    Ok(())
}
