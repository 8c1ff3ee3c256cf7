//! The load-balancing protocols: Algorithm 1, Algorithm 2, the baseline of
//! \[6\], and discrete diffusion.
//!
//! All randomized protocols share the synchronous-round semantics of the
//! paper: every task decides against the *round-start* snapshot (loads and
//! node weights), decisions are independent given the snapshot, and all
//! migrations commit simultaneously. They differ only in the threshold of
//! the migration condition, a [`MigrationRule`], so they are one per-task
//! protocol, [`Selfish`]. [`Selfish::decide`] scores an arbitrary sub-range
//! of the task population; a round passes `0..m`.
//!
//! [`Protocol`] is the engine-facing trait (one committed round), which
//! [`Selfish`], the deterministic [`diffusion::Diffusion`] and the
//! sequential [`BestResponse`] implement.

mod best_response;
mod common;
pub mod diffusion;
mod selfish;

pub use best_response::BestResponse;
pub use common::{
    expected_flow, expected_flows, migration_probability, migration_probability_printed, Alpha,
};
pub use diffusion::{Diffusion, ErrorFeedbackDiffusion};
pub use selfish::{MigrationRule, Selfish};

use crate::model::{Move, System, TaskState};
use rand::rngs::StdRng;

/// The round-start snapshot against which all migration decisions of one
/// round are evaluated.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Loads `ℓ_i = W_i/s_i` at round start.
    pub loads: Vec<f64>,
    /// Node weights `W_i` at round start.
    pub node_weights: Vec<f64>,
}

impl Snapshot {
    /// Captures the snapshot of a state.
    pub fn capture(system: &System, state: &TaskState) -> Self {
        Snapshot {
            loads: state.loads(system),
            node_weights: state.node_weights().to_vec(),
        }
    }
}

/// Statistics of one committed round.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RoundReport {
    /// Number of tasks that migrated.
    pub migrations: usize,
    /// Total weight that migrated.
    pub migrated_weight: f64,
}

/// A protocol that can execute one synchronous round.
pub trait Protocol {
    /// Short label for reports and CSV output.
    fn name(&self) -> &'static str;

    /// Executes one round: decide against the round-start snapshot, commit
    /// all moves, and report.
    fn round(&self, system: &System, state: &mut TaskState, rng: &mut StdRng) -> RoundReport;
}

/// Commits a batch of moves and summarizes it.
pub(crate) fn commit(system: &System, state: &mut TaskState, moves: &[Move]) -> RoundReport {
    let mut migrated_weight = 0.0;
    let mut migrations = 0usize;
    for m in moves {
        if state.task_node(m.task) != m.to {
            migrations += 1;
            migrated_weight += system.tasks().weight(m.task);
        }
    }
    state.apply_moves(system, moves);
    RoundReport {
        migrations,
        migrated_weight,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{SpeedVector, TaskId, TaskSet};
    use slb_graphs::{generators, NodeId};

    #[test]
    fn snapshot_captures_loads_and_weights() {
        let sys = System::new(
            generators::path(2),
            SpeedVector::new(vec![1.0, 2.0]).unwrap(),
            TaskSet::uniform(4),
        )
        .unwrap();
        let st = TaskState::from_assignment(&sys, &[0, 0, 0, 1]).unwrap();
        let snap = Snapshot::capture(&sys, &st);
        assert_eq!(snap.node_weights, vec![3.0, 1.0]);
        assert_eq!(snap.loads, vec![3.0, 0.5]);
    }

    #[test]
    fn commit_counts_real_moves_only() {
        let sys = System::new(
            generators::path(2),
            SpeedVector::uniform(2),
            TaskSet::uniform(3),
        )
        .unwrap();
        let mut st = TaskState::all_on_node(&sys, NodeId(0));
        let report = commit(
            &sys,
            &mut st,
            &[
                Move {
                    task: TaskId(0),
                    to: NodeId(1),
                },
                Move {
                    task: TaskId(1),
                    to: NodeId(0), // no-op: already there
                },
            ],
        );
        assert_eq!(report.migrations, 1);
        assert_eq!(report.migrated_weight, 1.0);
        assert_eq!(st.node_task_count(NodeId(1)), 1);
    }
}
