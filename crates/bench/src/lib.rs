//! Shared harness code for the experiment binaries.
//!
//! The `fig_*` binaries in `src/bin` regenerate the paper's figure-style
//! experiments F1–F5 and two extensions (the README's "Regenerating
//! Table 1 and the figures" lists them; Table 1 and Theorems 1.1–1.3
//! come from `slb validate` ladders). All of them print markdown tables
//! to stdout and drop CSVs under `target/experiments/`.
//!
//! Every binary accepts `--quick` to shrink sizes and trial counts for
//! smoke runs; without it they run the full settings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use slb_core::engine::Simulation;
use slb_core::model::{System, TaskState};
use slb_core::protocol::Protocol;

/// Whether the current invocation asked for a quick smoke run.
pub fn is_quick() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Records the `Ψ₀` trajectory of a task-level protocol every
/// `sample_every` rounds for `total_rounds` rounds (round 0 included).
pub fn psi0_trajectory<P: Protocol>(
    system: &System,
    protocol: P,
    initial: TaskState,
    seed: u64,
    total_rounds: u64,
    sample_every: u64,
) -> Vec<(u64, f64)> {
    assert!(sample_every > 0, "sampling cadence must be positive");
    let mut sim = Simulation::new(system, protocol, initial, seed);
    let psi = |sim: &Simulation<P>| slb_core::potential::report(system, sim.state()).psi0;
    let mut out = vec![(0u64, psi(&sim))];
    for round in 1..=total_rounds {
        sim.step();
        if round % sample_every == 0 {
            out.push((round, psi(&sim)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use slb_core::model::{SpeedVector, TaskSet};
    use slb_core::protocol::{MigrationRule, Selfish};
    use slb_graphs::{generators, NodeId};

    fn sys() -> System {
        System::new(
            generators::ring(4),
            SpeedVector::uniform(4),
            TaskSet::uniform(16),
        )
        .unwrap()
    }

    #[test]
    fn trajectory_is_sampled_and_decaying() {
        let s = sys();
        let traj = psi0_trajectory(
            &s,
            Selfish::new(MigrationRule::Relaxed),
            TaskState::all_on_node(&s, NodeId(0)),
            7,
            100,
            10,
        );
        assert_eq!(traj.len(), 11); // 0, 10, ..., 100
        assert!(traj.last().unwrap().1 <= traj[0].1);
    }

    #[test]
    fn quick_flag_detection_is_safe() {
        // The test harness args don't include --quick.
        let _ = is_quick();
    }
}
