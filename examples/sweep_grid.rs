//! Run a declarative experiment grid from Rust and inspect the results.
//!
//! The same grid is reachable from the command line:
//!
//! ```console
//! slb sweep graph=ring:8,torus:3x3 protocol=alg1,bhs,diffusion \
//!           speeds=uniform,alternating:2 until=quiescent:30 \
//!           --trials 3 --seed 7
//! ```
//!
//! Run with: `cargo run --release --example sweep_grid`

use selfish_load_balancing::prelude::*;

fn main() {
    // A 2 × 3 × 2 grid: topology × protocol × speeds, three seeded trials
    // per cell.
    let spec = SweepSpec::parse(&[
        "graph=ring:8,torus:3x3",
        "tasks-per-node=8",
        "protocol=alg1,bhs,diffusion",
        "speeds=uniform,alternating:2",
        "until=quiescent:30",
        "trials=3",
        "max-rounds=50000",
    ])
    .expect("grid parses");

    // Fan the 12 cells × 3 trials out over the available cores; the
    // artifact is byte-identical no matter how many threads run it.
    let outcome = run_sweep(&spec, SweepConfig::parallel(7)).expect("grid is buildable");

    println!(
        "{} cells, {} trials each\n",
        outcome.cells.len(),
        outcome.trials
    );
    for cell in &outcome.cells {
        let stats = &cell.stats;
        println!(
            "cell {:2}: {:22} {:13} n={:3} m={:4} → {:7.1} rounds (±{:6.1}), {:6.1} migrations",
            cell.index,
            format!("{}", cell.spec.graph),
            cell.spec.protocol.grid_label(),
            cell.n,
            cell.m,
            stats.rounds.mean,
            stats.rounds.ci95_half_width(),
            stats.migrations.mean,
        );
    }

    // The artifact the figure scripts and regression tests consume.
    let csv = outcome.to_csv();
    println!("\nCSV artifact: {} rows", csv.lines().count() - 1);
    println!("{}", csv.lines().next().unwrap());
}
