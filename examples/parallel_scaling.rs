//! The deterministic parallel engine on a large instance.
//!
//! Runs the same 100k-task simulation on 1 thread and on all available
//! cores, verifies the trajectories are bit-identical (the engine's
//! chunk-seeded determinism contract), and reports the wall-clock ratio.
//!
//! Run: `cargo run --release --example parallel_scaling`

use selfish_load_balancing::prelude::*;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let graph = generators::torus(16, 16);
    let n = graph.node_count();
    let m = 400 * n; // 102,400 tasks
    let system = System::new(graph, SpeedVector::uniform(n), TaskSet::uniform(m))?;
    let initial = TaskState::all_on_node(&system, NodeId(0));
    let rounds = 40u64;
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!("instance: torus 16x16, m = {m} tasks, {rounds} rounds, {cores} cores\n");

    let run = |threads: usize| {
        let mut sim = ParallelSimulation::with_layout(
            &system,
            Selfish::new(MigrationRule::Relaxed),
            initial.clone(),
            0xFEED,
            4096,
            threads,
        );
        let start = Instant::now();
        sim.run(rounds);
        (start.elapsed(), sim.into_state())
    };

    let (t1, s1) = run(1);
    println!("1 thread  : {t1:?}");
    let (tn, sn) = run(cores);
    println!("{cores} threads: {tn:?}");

    assert_eq!(s1, sn, "thread count must not change the trajectory");
    println!(
        "\ntrajectories identical across thread counts ✓ (speedup {:.2}x)",
        t1.as_secs_f64() / tn.as_secs_f64()
    );

    let p = potential::report(&system, &sn);
    println!(
        "after {rounds} rounds: Ψ₀ = {:.3e} (from {:.3e} at start)",
        p.psi0,
        potential::report(&system, &initial).psi0
    );
    Ok(())
}
