//! The count engines' former per-protocol API, kept only for the
//! benchmark's traced replay (`perfbench/tracer`), which builds against
//! it. Every method delegates to [`CountSim`]; nothing else may use it.
#![allow(missing_docs)]

use crate::engine::count::{ClassCountState, CountSim};
use crate::engine::kernel::StepTotals;
use crate::equilibrium::Threshold;
use crate::model::System;
use crate::protocol::Alpha;
use crate::protocol::MigrationRule::{OwnWeight, Relaxed};

/// Algorithm 1 on uniform tasks.
pub mod uniform_fast {
    use super::*;

    pub struct CountState(Vec<u64>);

    impl CountState {
        pub fn new(counts: Vec<u64>) -> Self {
            CountState(counts)
        }
    }

    pub struct UniformFastSim<'a>(CountSim<'a>);

    impl<'a> UniformFastSim<'a> {
        pub fn new(system: &'a System, alpha: Alpha, state: CountState, seed: u64) -> Self {
            let state = ClassCountState::unit(state.0);
            UniformFastSim(CountSim::for_system(system, Relaxed, alpha, state, seed))
        }

        pub fn step(&mut self) -> u64 {
            self.0.step().migrations
        }

        pub fn is_nash(&self) -> bool {
            self.0.is_nash(Threshold::UnitWeight)
        }

        pub fn psi0(&self) -> f64 {
            self.0.psi0()
        }
    }
}

/// Algorithm 1 on weight classes.
pub mod weighted_fast {
    use super::*;
    pub use crate::engine::count::ClassCountState;

    pub struct WeightedFastSim<'a>(CountSim<'a>);

    impl<'a> WeightedFastSim<'a> {
        pub fn new(system: &'a System, alpha: Alpha, state: ClassCountState, seed: u64) -> Self {
            WeightedFastSim(CountSim::for_system(system, Relaxed, alpha, state, seed))
        }

        pub fn step(&mut self) -> StepTotals {
            self.0.step()
        }

        pub fn is_nash(&self, threshold: Threshold) -> bool {
            self.0.is_nash(threshold)
        }

        pub fn psi0(&self) -> f64 {
            self.0.psi0()
        }
    }
}

/// Algorithm 2 and the \[6\] baseline on weight classes.
pub mod speed_fast {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum SpeedFastRule {
        Alg2,
        Bhs,
    }

    pub struct SpeedFastSim<'a>(CountSim<'a>);

    impl<'a> SpeedFastSim<'a> {
        pub fn new(
            system: &'a System,
            rule: SpeedFastRule,
            alpha: Alpha,
            state: ClassCountState,
            seed: u64,
        ) -> Self {
            let rule = match rule {
                SpeedFastRule::Alg2 => Relaxed,
                SpeedFastRule::Bhs => OwnWeight,
            };
            SpeedFastSim(CountSim::for_system(system, rule, alpha, state, seed))
        }

        pub fn step(&mut self) -> StepTotals {
            self.0.step()
        }

        pub fn is_nash(&self, threshold: Threshold) -> bool {
            self.0.is_nash(threshold)
        }

        pub fn psi0(&self) -> f64 {
            self.0.psi0()
        }
    }
}
