//! Simulation engines: sequential, deterministic-parallel, and the count
//! engine.
//!
//! [`Simulation`] drives any [`Protocol`] round by round over a
//! [`TaskState`]. Every engine stops on the one [`StopCondition`] — the
//! quantities the paper's theorems are stated in (exact NE, `Ψ₀ ≤ 4ψ_c`,
//! ε-approximate NE) plus quiescence — through the same run loop, and
//! reports the one [`RunOutcome`].
//! [`ParallelSimulation`](parallel::ParallelSimulation) executes the
//! decision phase of [`TaskProtocol`](crate::protocol::TaskProtocol)s
//! across threads deterministically.
//! The **count engine** [`CountSim`](count::CountSim) replaces `O(m)`
//! per-task sampling with per-(node, weight class) multinomials —
//! distributionally identical and `O(|E| + n·k)` per round — for every
//! randomized protocol: Algorithm 1 on unit or weighted tasks,
//! Algorithm 2 and the \[6\] baseline, optionally under arrivals,
//! completions, churn and speed dynamics. It runs the shared round kernel
//! of [`kernel`] — the per-protocol surface is one threshold rule — over
//! the samplers of [`sampling`].

pub mod count;
pub mod kernel;
mod legacy;
pub mod parallel;
pub mod recorder;
pub mod sampling;

// The former count engines' paths: the hidden shim's API, plus tests
// that run `CountSim` on the cases each engine covered.
#[doc(hidden)]
pub mod uniform_fast {
    pub use super::legacy::uniform_fast::*;
    #[cfg(test)]
    mod tests;
}
#[doc(hidden)]
pub mod weighted_fast {
    pub use super::legacy::weighted_fast::*;
    #[cfg(test)]
    mod tests;
}
#[doc(hidden)]
pub mod speed_fast {
    pub use super::legacy::speed_fast::*;
    #[cfg(test)]
    mod tests;
}

use crate::equilibrium::{self, Threshold};
use crate::model::{System, TaskState};
use crate::potential;
use crate::protocol::{Protocol, RoundReport};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// When to stop a `run_until` loop — of [`Simulation`] or of the count
/// engine [`CountSim`](count::CountSim).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StopCondition {
    /// The state is an exact Nash equilibrium under the given threshold
    /// (Theorem 1.2's target with [`Threshold::UnitWeight`] for uniform
    /// tasks, [`Threshold::LightestTask`] for weighted ones).
    Nash(Threshold),
    /// `Ψ₀(x) ≤ bound` (Theorem 1.1/1.3's target with `bound = 4ψ_c`).
    Psi0Below(f64),
    /// The state is an ε-approximate NE.
    EpsNash {
        /// Improvement threshold rule.
        threshold: Threshold,
        /// The ε of the approximate equilibrium.
        eps: f64,
    },
    /// No task migrated for this many consecutive rounds.
    Quiescent(u64),
}

/// Why a `run_until` loop returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The stop condition was satisfied.
    ConditionMet,
    /// The round budget was exhausted first.
    BudgetExhausted,
}

/// Result of a `run_until` call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOutcome {
    /// Rounds executed by this call.
    pub rounds: u64,
    /// Whether the condition was met or the budget ran out.
    pub reason: StopReason,
    /// Total migrations performed during this call.
    pub migrations: u64,
}

impl RunOutcome {
    /// Whether the stop condition was met within the budget.
    pub fn reached(&self) -> bool {
        self.reason == StopReason::ConditionMet
    }
}

/// The one run loop of every engine. `condition` is checked before every
/// round, so a satisfied initial state costs zero rounds; `Quiescent`
/// counts the streak of rounds without a migration, every other condition
/// asks `met`; and the condition is rechecked once when the budget runs
/// out. `step` executes one round and returns its migrations.
pub(crate) fn run_loop<S>(
    sim: &mut S,
    condition: StopCondition,
    max_rounds: u64,
    met: impl Fn(&S, StopCondition) -> bool,
    mut step: impl FnMut(&mut S) -> u64,
) -> RunOutcome {
    let holds = |sim: &S, quiet_streak: u64| match condition {
        StopCondition::Quiescent(need) => quiet_streak >= need,
        c => met(sim, c),
    };
    let mut quiet_streak = 0u64;
    let mut migrations = 0u64;
    for executed in 0..max_rounds {
        if holds(sim, quiet_streak) {
            return RunOutcome {
                rounds: executed,
                reason: StopReason::ConditionMet,
                migrations,
            };
        }
        let moved = step(sim);
        migrations += moved;
        quiet_streak = if moved == 0 { quiet_streak + 1 } else { 0 };
    }
    RunOutcome {
        rounds: max_rounds,
        reason: if holds(sim, quiet_streak) {
            StopReason::ConditionMet
        } else {
            StopReason::BudgetExhausted
        },
        migrations,
    }
}

/// A sequential round-by-round simulation of one protocol on one system.
///
/// # Example
///
/// ```
/// use slb_core::engine::{Simulation, StopCondition, StopReason};
/// use slb_core::equilibrium::Threshold;
/// use slb_core::model::{SpeedVector, System, TaskSet, TaskState};
/// use slb_core::protocol::SelfishUniform;
/// use slb_graphs::{generators, NodeId};
///
/// let system = System::new(
///     generators::ring(4),
///     SpeedVector::uniform(4),
///     TaskSet::uniform(20),
/// )?;
/// let state = TaskState::all_on_node(&system, NodeId(0));
/// let mut sim = Simulation::new(&system, SelfishUniform::new(), state, 42);
/// let outcome = sim.run_until(StopCondition::Nash(Threshold::UnitWeight), 10_000);
/// assert_eq!(outcome.reason, StopReason::ConditionMet);
/// # Ok::<(), slb_core::model::ModelError>(())
/// ```
#[derive(Debug)]
pub struct Simulation<'a, P> {
    system: &'a System,
    protocol: P,
    state: TaskState,
    rng: StdRng,
    round: u64,
}

impl<'a, P: Protocol> Simulation<'a, P> {
    /// Creates a simulation from an initial state and a master seed.
    pub fn new(system: &'a System, protocol: P, state: TaskState, seed: u64) -> Self {
        Simulation {
            system,
            protocol,
            state,
            rng: StdRng::seed_from_u64(seed),
            round: 0,
        }
    }

    /// The system under simulation.
    pub fn system(&self) -> &System {
        self.system
    }

    /// The current state.
    pub fn state(&self) -> &TaskState {
        &self.state
    }

    /// Consumes the simulation, returning the final state.
    pub fn into_state(self) -> TaskState {
        self.state
    }

    /// Rounds executed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The protocol driving this simulation.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Executes one round.
    pub fn step(&mut self) -> RoundReport {
        let report = self
            .protocol
            .round(self.system, &mut self.state, &mut self.rng);
        self.round += 1;
        report
    }

    /// Executes exactly `rounds` rounds, returning total migrations.
    pub fn run(&mut self, rounds: u64) -> u64 {
        let mut migrations = 0u64;
        for _ in 0..rounds {
            migrations += self.step().migrations as u64;
        }
        migrations
    }

    /// Executes `rounds` rounds while recording the trajectory into a
    /// [`recorder::Trace`] sampled every `sample_every` rounds (round 0 and
    /// the final round are always recorded).
    ///
    /// # Panics
    ///
    /// Panics if `sample_every == 0`.
    pub fn run_with_trace(&mut self, rounds: u64, sample_every: u64) -> recorder::Trace {
        let mut trace = recorder::Trace::new(sample_every);
        trace.record(self.round, self.system, &self.state, None);
        let mut last_report = None;
        for _ in 0..rounds {
            let report = self.step();
            last_report = Some(report);
            trace.record(self.round, self.system, &self.state, Some(report));
        }
        if !self.round.is_multiple_of(sample_every) {
            trace.record_forced(self.round, self.system, &self.state, last_report);
        }
        trace
    }

    /// Whether the stop condition currently holds (always `false` for
    /// [`StopCondition::Quiescent`], which needs the run's history).
    pub fn condition_met(&self, condition: StopCondition) -> bool {
        match condition {
            StopCondition::Nash(threshold) => {
                equilibrium::is_nash(self.system, &self.state, threshold)
            }
            StopCondition::Psi0Below(bound) => {
                potential::psi0(
                    self.state.node_weights(),
                    self.system.speeds(),
                    self.system.tasks().total_weight(),
                ) <= bound
            }
            StopCondition::EpsNash { threshold, eps } => {
                equilibrium::is_eps_nash(self.system, &self.state, threshold, eps)
            }
            StopCondition::Quiescent(_) => false,
        }
    }

    /// Runs until `condition` holds (checked before every round, so a
    /// satisfied initial state costs zero rounds) or `max_rounds` elapse.
    pub fn run_until(&mut self, condition: StopCondition, max_rounds: u64) -> RunOutcome {
        self.run_until_observed(condition, max_rounds, &mut ())
    }

    /// As [`Simulation::run_until`], but feeds every round (and the
    /// initial state, with `report = None`) through a
    /// [`recorder::RoundObserver`] — the hook for collecting per-round
    /// metrics (a [`recorder::Trace`], a custom tally) from a
    /// stop-condition-driven run without writing a second run loop.
    pub fn run_until_observed<O: recorder::RoundObserver>(
        &mut self,
        condition: StopCondition,
        max_rounds: u64,
        observer: &mut O,
    ) -> RunOutcome {
        observer.observe(self.round, self.system, &self.state, None);
        run_loop(self, condition, max_rounds, Self::condition_met, |sim| {
            let report = sim.step();
            observer.observe(sim.round, sim.system, &sim.state, Some(report));
            report.migrations as u64
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{SpeedVector, TaskSet};
    use crate::protocol::SelfishUniform;
    use slb_graphs::{generators, NodeId};

    fn sys() -> System {
        System::new(
            generators::ring(5),
            SpeedVector::uniform(5),
            TaskSet::uniform(25),
        )
        .unwrap()
    }

    #[test]
    fn step_advances_round_counter() {
        let s = sys();
        let st = TaskState::all_on_node(&s, NodeId(0));
        let mut sim = Simulation::new(&s, SelfishUniform::new(), st, 1);
        assert_eq!(sim.round(), 0);
        sim.step();
        sim.step();
        assert_eq!(sim.round(), 2);
        assert_eq!(sim.system().node_count(), 5);
        assert_eq!(sim.protocol().name(), "selfish-uniform");
    }

    #[test]
    fn run_until_nash_terminates() {
        let s = sys();
        let st = TaskState::all_on_node(&s, NodeId(0));
        let mut sim = Simulation::new(&s, SelfishUniform::new(), st, 2);
        let out = sim.run_until(StopCondition::Nash(Threshold::UnitWeight), 50_000);
        assert_eq!(out.reason, StopReason::ConditionMet);
        assert!(out.migrations > 0);
        assert!(equilibrium::is_nash(&s, sim.state(), Threshold::UnitWeight));
    }

    #[test]
    fn satisfied_condition_costs_zero_rounds() {
        let s = sys();
        let st = TaskState::from_assignment(
            &s,
            &[
                0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4,
            ],
        )
        .unwrap();
        let mut sim = Simulation::new(&s, SelfishUniform::new(), st, 3);
        let out = sim.run_until(StopCondition::Nash(Threshold::UnitWeight), 100);
        assert_eq!(out.rounds, 0);
        assert_eq!(out.reason, StopReason::ConditionMet);
        assert_eq!(out.migrations, 0);
    }

    #[test]
    fn budget_exhaustion_reported() {
        let s = sys();
        let st = TaskState::all_on_node(&s, NodeId(0));
        let mut sim = Simulation::new(&s, SelfishUniform::new(), st, 4);
        let out = sim.run_until(StopCondition::Psi0Below(0.0), 3);
        assert_eq!(out.rounds, 3);
        assert_eq!(out.reason, StopReason::BudgetExhausted);
    }

    #[test]
    fn psi0_condition_stops_early() {
        let s = sys();
        let st = TaskState::all_on_node(&s, NodeId(0));
        let psi_start = potential::report(&s, &st).psi0;
        let mut sim = Simulation::new(&s, SelfishUniform::new(), st, 5);
        let out = sim.run_until(StopCondition::Psi0Below(psi_start / 10.0), 100_000);
        assert_eq!(out.reason, StopReason::ConditionMet);
        let now = potential::report(&s, sim.state()).psi0;
        assert!(now <= psi_start / 10.0);
    }

    #[test]
    fn quiescence_detected_at_equilibrium() {
        let s = sys();
        let st = TaskState::all_on_node(&s, NodeId(0));
        let mut sim = Simulation::new(&s, SelfishUniform::new(), st, 6);
        let out = sim.run_until(StopCondition::Quiescent(20), 100_000);
        assert_eq!(out.reason, StopReason::ConditionMet);
    }

    #[test]
    fn eps_nash_weaker_than_exact() {
        let s = sys();
        let st = TaskState::all_on_node(&s, NodeId(0));
        let mut exact = Simulation::new(&s, SelfishUniform::new(), st.clone(), 7);
        let mut approx = Simulation::new(&s, SelfishUniform::new(), st, 7);
        let t_exact = exact.run_until(StopCondition::Nash(Threshold::UnitWeight), 100_000);
        let t_approx = approx.run_until(
            StopCondition::EpsNash {
                threshold: Threshold::UnitWeight,
                eps: 0.5,
            },
            100_000,
        );
        assert_eq!(t_exact.reason, StopReason::ConditionMet);
        assert_eq!(t_approx.reason, StopReason::ConditionMet);
        assert!(t_approx.rounds <= t_exact.rounds);
    }

    #[test]
    fn run_fixed_rounds() {
        let s = sys();
        let st = TaskState::all_on_node(&s, NodeId(0));
        let mut sim = Simulation::new(&s, SelfishUniform::new(), st, 8);
        sim.run(17);
        assert_eq!(sim.round(), 17);
        let final_state = sim.into_state();
        final_state.check_invariants(&s).unwrap();
    }

    #[test]
    fn run_until_observed_feeds_every_round() {
        struct Tally {
            calls: u64,
            migrations: u64,
        }
        impl recorder::RoundObserver for Tally {
            fn observe(
                &mut self,
                _round: u64,
                _system: &System,
                _state: &TaskState,
                report: Option<RoundReport>,
            ) {
                self.calls += 1;
                self.migrations += report.map_or(0, |r| r.migrations as u64);
            }
        }
        let s = sys();
        let st = TaskState::all_on_node(&s, NodeId(0));
        let mut sim = Simulation::new(&s, SelfishUniform::new(), st, 21);
        let mut tally = Tally {
            calls: 0,
            migrations: 0,
        };
        let out = sim.run_until_observed(
            StopCondition::Nash(Threshold::UnitWeight),
            50_000,
            &mut tally,
        );
        assert_eq!(out.reason, StopReason::ConditionMet);
        // Initial observation plus one per executed round.
        assert_eq!(tally.calls, out.rounds + 1);
        assert_eq!(tally.migrations, out.migrations);
        // A Trace is itself an observer: sampled rows appear without a
        // second run loop.
        let mut sim2 = Simulation::new(
            &s,
            SelfishUniform::new(),
            TaskState::all_on_node(&s, NodeId(0)),
            21,
        );
        let mut trace = recorder::Trace::new(10);
        let out2 = sim2.run_until_observed(
            StopCondition::Nash(Threshold::UnitWeight),
            50_000,
            &mut trace,
        );
        assert_eq!(out2.rounds, out.rounds, "same seed, same trajectory");
        assert!(!trace.rows().is_empty());
        assert_eq!(trace.rows()[0].round, 0);
        assert!(trace.rows().last().unwrap().psi0 <= trace.rows()[0].psi0);
    }

    #[test]
    fn run_loop_contract_holds_for_every_engine() {
        use crate::engine::count::{
            ChurnProcess, ClassCountState, CompletionProcess, CountRule, CountSim, DynamicConfig,
            SpeedDynamics,
        };
        use crate::protocol::Alpha;

        // 32 unit tasks on a 4-ring: the balanced start (8 per node) is
        // absorbing for every engine, the hot start needs many rounds.
        let n = 4;
        let s = System::new(
            generators::ring(n),
            SpeedVector::uniform(n),
            TaskSet::uniform(32),
        )
        .unwrap();
        let counts = |hot: bool| -> Vec<u64> {
            (0..n)
                .map(|v| match (hot, v) {
                    (true, 0) => 32,
                    (true, _) => 0,
                    (false, _) => 8,
                })
                .collect()
        };
        // The same weight 8 per node in two classes (8 of 0.5, 4 of 1).
        let two_classes = |hot: bool| {
            let row = |v: usize| match (hot, v) {
                (true, 0) => vec![32, 16],
                (true, _) => vec![0, 0],
                (false, _) => vec![8, 4],
            };
            ClassCountState::new(vec![0.5, 1.0], (0..n).map(row).collect())
        };
        // Events that run their draws every round but leave a balanced
        // state absorbing: zero-rate churn and completions, and a shock
        // past every budget.
        let quiet_events = DynamicConfig {
            churn: Some(ChurnProcess { rate: 0.0 }),
            completions: Some(CompletionProcess::Rate { mu: 0.0 }),
            speed_dynamics: Some(SpeedDynamics::Shock {
                round: u64::MAX,
                fraction: 1.0,
            }),
            ..DynamicConfig::default()
        };
        // Each engine runs `condition` from the balanced or the hot start
        // and, to pin the migration tally, a twin steps the same seed
        // `outcome.rounds` times by hand.
        type Run<'a> = Box<dyn Fn(bool, StopCondition, u64) -> (RunOutcome, u64) + 'a>;
        let mut engines: Vec<(String, Run)> = vec![(
            "simulation".into(),
            Box::new(|hot, condition, budget| {
                let assignment: Vec<usize> = counts(hot)
                    .iter()
                    .enumerate()
                    .flat_map(|(v, &c)| std::iter::repeat_n(v, c as usize))
                    .collect();
                let st = TaskState::from_assignment(&s, &assignment).unwrap();
                let mut sim = Simulation::new(&s, SelfishUniform::new(), st.clone(), 5);
                let out = sim.run_until(condition, budget);
                let mut twin = Simulation::new(&s, SelfishUniform::new(), st, 5);
                (out, twin.run(out.rounds))
            }),
        )];
        for rule in [CountRule::Relaxed, CountRule::OwnWeight] {
            for k in [1, 2] {
                for cfg in [DynamicConfig::default(), quiet_events] {
                    let name = format!("count {rule:?} k={k} dynamic={}", cfg.is_dynamic());
                    let (counts, two_classes) = (&counts, &two_classes);
                    let s = &s;
                    let run: Run = Box::new(move |hot, condition, budget| {
                        let sim = || {
                            let state = if k == 1 {
                                ClassCountState::unit(counts(hot))
                            } else {
                                two_classes(hot)
                            };
                            CountSim::new(s.graph(), s.speeds(), rule, Alpha::Approximate, state, 5)
                                .with_dynamics(cfg)
                        };
                        let out = sim().run_until(condition, budget);
                        let mut twin = sim();
                        (out, (0..out.rounds).map(|_| twin.step().migrations).sum())
                    });
                    engines.push((name, run));
                }
            }
        }
        let nash = StopCondition::Nash(Threshold::UnitWeight);
        let eps_nash = StopCondition::EpsNash {
            threshold: Threshold::UnitWeight,
            eps: 0.1,
        };
        for (name, run) in &engines {
            // A satisfied start costs zero rounds.
            for condition in [nash, StopCondition::Psi0Below(0.5), eps_nash] {
                let (out, _) = run(false, condition, 100);
                assert_eq!(out.rounds, 0, "{name} {condition:?}");
                assert!(out.reached(), "{name} {condition:?}");
                assert_eq!(out.migrations, 0, "{name} {condition:?}");
            }
            // On an absorbed state, Quiescent(k) stops after exactly k
            // rounds.
            for k in [0, 1, 7] {
                let (out, _) = run(false, StopCondition::Quiescent(k), 100);
                assert_eq!(out.rounds, k, "{name} Quiescent({k})");
                assert_eq!(out.reason, StopReason::ConditionMet, "{name}");
            }
            // From the hot start no condition holds within three rounds:
            // the budget runs out, and every executed round is counted.
            for condition in [
                nash,
                StopCondition::Psi0Below(0.5),
                eps_nash,
                StopCondition::Quiescent(5),
            ] {
                let (out, stepped) = run(true, condition, 3);
                assert_eq!(out.rounds, 3, "{name} {condition:?}");
                assert_eq!(out.reason, StopReason::BudgetExhausted, "{name}");
                assert_eq!(out.migrations, stepped, "{name} {condition:?}");
                assert!(out.migrations > 0, "{name}: the hot start must move tasks");
            }
        }
    }

    #[test]
    fn run_with_trace_records_endpoints() {
        let s = sys();
        let st = TaskState::all_on_node(&s, NodeId(0));
        let mut sim = Simulation::new(&s, SelfishUniform::new(), st, 9);
        let trace = sim.run_with_trace(23, 10);
        // Rounds 0, 10, 20, plus the forced final 23.
        let rounds: Vec<u64> = trace.rows().iter().map(|r| r.round).collect();
        assert_eq!(rounds, vec![0, 10, 20, 23]);
        assert!(trace.rows().last().unwrap().psi0 <= trace.rows()[0].psi0);
        // A run length on the cadence has no duplicate final row.
        let mut sim2 = Simulation::new(
            &s,
            SelfishUniform::new(),
            TaskState::all_on_node(&s, NodeId(0)),
            9,
        );
        let trace2 = sim2.run_with_trace(20, 10);
        let rounds2: Vec<u64> = trace2.rows().iter().map(|r| r.round).collect();
        assert_eq!(rounds2, vec![0, 10, 20]);
    }
}
