//! [`CountSim`](crate::engine::count::CountSim) on weight classes under
//! the relaxed rule: `Case::Weighted` of the count engine's checks
//! (uniform speeds), and `Case::Alg2` (alternating speeds) where only a
//! per-task protocol can cross-check it.

use crate::engine::count::tests::{self as check, Case};
use crate::engine::count::CountRule;

#[test]
#[should_panic(expected = "state total must match")]
fn total_mismatch_rejected() {
    check::total_mismatch_rejected(Case::Weighted);
}

#[test]
fn conserves_per_class_totals() {
    check::conserves_per_class_totals(Case::Weighted);
}

#[test]
fn reaches_relaxed_equilibrium_from_hot_start() {
    check::reaches_relaxed_equilibrium_from_hot_start(Case::Weighted);
}

#[test]
fn psi0_decreases_like_task_level_protocol() {
    check::psi0_decreases_like_task_level_protocol(Case::Weighted, 8, 60);
}

#[test]
fn heterogeneous_speeds_balance_by_load_not_count() {
    check::heterogeneous_speeds_balance_by_load_not_count(CountRule::Relaxed, 100_000);
}

#[test]
fn first_round_outflow_matches_task_level_mean() {
    check::first_round_outflow_matches_task_level_mean(Case::Weighted);
    check::first_round_outflow_matches_task_level_mean(Case::Alg2);
}

#[test]
fn eps_nash_and_gap_match_expanded_state() {
    check::eps_nash_and_gap_match_expanded_class_state();
}

#[test]
fn eps_nash_stop_halts_no_later_than_exact() {
    check::eps_nash_stop_halts_no_later_than_exact(Case::Weighted, 21, 100_000);
}

#[test]
fn run_until_psi0_stops() {
    check::run_until_psi0_stops(Case::Weighted, 10);
}

#[test]
fn observer_sees_every_round() {
    check::observer_sees_every_round(Case::Weighted, 11);
}
