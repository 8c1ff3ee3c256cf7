//! Trajectory recording for figure-style experiments.
//!
//! The experiment harness wants `Ψ₀(t)`, `Ψ₁(t)`, `L_Δ(t)` and migration
//! counts of per-task runs as time series (figures F4 and F5, listed in
//! the README's "Regenerating Table 1 and the figures", read
//! [`Simulation::run_with_trace`](crate::engine::Simulation::run_with_trace)).
//! [`Trace`] samples those at a configurable cadence to keep long runs
//! cheap, and renders itself as CSV.

use crate::model::{System, TaskState};
use crate::potential;
use crate::protocol::RoundReport;
use std::fmt::Write as _;

/// A per-round metrics hook for observed simulation runs
/// ([`Simulation::run_until_observed`](crate::engine::Simulation::run_until_observed)).
///
/// Observers see every committed round (and the initial state as round 0
/// with `report = None`); what they extract — potentials, migration
/// activity, custom counters — is up to them. [`Trace`] implements the
/// trait by sampling on its cadence, so trajectory recording and
/// stop-condition-driven runs compose without a second run loop.
pub trait RoundObserver {
    /// Called after each committed round (and once for the initial state).
    fn observe(
        &mut self,
        round: u64,
        system: &System,
        state: &TaskState,
        report: Option<RoundReport>,
    );
}

/// The no-op observer: `run_until_observed` with `()` is `run_until`.
impl RoundObserver for () {
    fn observe(&mut self, _: u64, _: &System, _: &TaskState, _: Option<RoundReport>) {}
}

impl RoundObserver for Trace {
    fn observe(
        &mut self,
        round: u64,
        system: &System,
        state: &TaskState,
        report: Option<RoundReport>,
    ) {
        self.record(round, system, state, report);
    }
}

/// One sampled row of a trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRow {
    /// Round index (0 = initial state, before any round).
    pub round: u64,
    /// `Ψ₀(x)` at that round.
    pub psi0: f64,
    /// `Ψ₁(x)` at that round.
    pub psi1: f64,
    /// `L_Δ(x)` at that round.
    pub max_load_deviation: f64,
    /// Migrations in the round that *led* to this state (0 for round 0).
    pub migrations: u64,
    /// Migrated weight in that round.
    pub migrated_weight: f64,
}

/// A sampled trajectory of potentials and migration activity.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    every: u64,
    rows: Vec<TraceRow>,
}

impl Trace {
    /// A trace sampling every `every`-th round (and always round 0).
    ///
    /// # Panics
    ///
    /// Panics if `every == 0`.
    pub fn new(every: u64) -> Self {
        assert!(every > 0, "sampling cadence must be positive");
        Trace {
            every,
            rows: Vec::new(),
        }
    }

    /// Records the state if `round` falls on the cadence (or is 0).
    /// Returns whether a row was recorded.
    pub fn record(
        &mut self,
        round: u64,
        system: &System,
        state: &TaskState,
        report: Option<RoundReport>,
    ) -> bool {
        if !round.is_multiple_of(self.every) && !self.rows.is_empty() {
            return false;
        }
        let p = potential::report(system, state);
        self.rows.push(TraceRow {
            round,
            psi0: p.psi0,
            psi1: p.psi1,
            max_load_deviation: p.max_load_deviation,
            migrations: report.map_or(0, |r| r.migrations as u64),
            migrated_weight: report.map_or(0.0, |r| r.migrated_weight),
        });
        true
    }

    /// Unconditionally records the state (used for the final round).
    pub fn record_forced(
        &mut self,
        round: u64,
        system: &System,
        state: &TaskState,
        report: Option<RoundReport>,
    ) {
        let p = potential::report(system, state);
        self.rows.push(TraceRow {
            round,
            psi0: p.psi0,
            psi1: p.psi1,
            max_load_deviation: p.max_load_deviation,
            migrations: report.map_or(0, |r| r.migrations as u64),
            migrated_weight: report.map_or(0.0, |r| r.migrated_weight),
        });
    }

    /// The sampled rows, in round order.
    pub fn rows(&self) -> &[TraceRow] {
        &self.rows
    }

    /// The sampling cadence.
    pub fn cadence(&self) -> u64 {
        self.every
    }

    /// Renders the trace as CSV with a header row.
    pub fn to_csv(&self) -> String {
        let mut out =
            String::from("round,psi0,psi1,max_load_deviation,migrations,migrated_weight\n");
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{}",
                r.round, r.psi0, r.psi1, r.max_load_deviation, r.migrations, r.migrated_weight
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{SpeedVector, TaskSet};
    use crate::protocol::{MigrationRule, Protocol, Selfish};
    use rand::SeedableRng;
    use slb_graphs::{generators, NodeId};

    #[test]
    fn records_on_cadence() {
        let sys = crate::model::System::new(
            generators::ring(4),
            SpeedVector::uniform(4),
            TaskSet::uniform(16),
        )
        .unwrap();
        let mut st = TaskState::all_on_node(&sys, NodeId(0));
        let mut trace = Trace::new(5);
        assert!(trace.record(0, &sys, &st, None));
        let p = Selfish::new(MigrationRule::Relaxed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for round in 1..=20u64 {
            let report = p.round(&sys, &mut st, &mut rng);
            trace.record(round, &sys, &st, Some(report));
        }
        // Rounds 0, 5, 10, 15, 20.
        assert_eq!(trace.rows().len(), 5);
        assert_eq!(trace.rows()[0].round, 0);
        assert_eq!(trace.rows()[4].round, 20);
        assert_eq!(trace.cadence(), 5);
        // Potential decays along the trace from the hot start.
        assert!(trace.rows()[4].psi0 < trace.rows()[0].psi0);
    }

    #[test]
    fn forced_record_ignores_cadence() {
        let sys = crate::model::System::new(
            generators::path(2),
            SpeedVector::uniform(2),
            TaskSet::uniform(2),
        )
        .unwrap();
        let st = TaskState::all_on_node(&sys, NodeId(0));
        let mut trace = Trace::new(1000);
        trace.record(0, &sys, &st, None);
        trace.record_forced(7, &sys, &st, None);
        assert_eq!(trace.rows().len(), 2);
        assert_eq!(trace.rows()[1].round, 7);
    }

    #[test]
    fn csv_shape() {
        let sys = crate::model::System::new(
            generators::path(2),
            SpeedVector::uniform(2),
            TaskSet::uniform(4),
        )
        .unwrap();
        let st = TaskState::all_on_node(&sys, NodeId(1));
        let mut trace = Trace::new(1);
        trace.record(0, &sys, &st, None);
        let csv = trace.to_csv();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "round,psi0,psi1,max_load_deviation,migrations,migrated_weight"
        );
        assert!(lines.next().unwrap().starts_with("0,"));
    }

    #[test]
    #[should_panic(expected = "sampling cadence must be positive")]
    fn zero_cadence_panics() {
        let _ = Trace::new(0);
    }
}
