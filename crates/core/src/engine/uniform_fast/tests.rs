//! [`CountSim`](crate::engine::count::CountSim) on one unit class
//! (`k = 1`) under Algorithm 1: `Case::Unit` of the count engine's checks.

use crate::engine::count::tests::{self as check, Case};

#[test]
#[should_panic(expected = "state total must match")]
fn total_mismatch_rejected() {
    check::total_mismatch_rejected(Case::Unit);
}

#[test]
fn conserves_tasks() {
    check::conserves_per_class_totals(Case::Unit);
}

#[test]
fn converges_to_nash() {
    check::reaches_relaxed_equilibrium_from_hot_start(Case::Unit);
}

#[test]
fn psi0_decreases_like_task_level_protocol() {
    check::psi0_decreases_like_task_level_protocol(Case::Unit, 7, 50);
}

#[test]
fn matches_task_level_distribution_statistically() {
    check::first_round_outflow_matches_task_level_mean(Case::Unit);
}

#[test]
fn run_until_psi0_stops() {
    check::run_until_psi0_stops(Case::Unit, 8);
}

#[test]
fn eps_nash_and_gap_match_expanded_state() {
    check::eps_nash_and_gap_match_expanded_unit_state();
}

#[test]
fn run_until_eps_nash_stops_before_exact() {
    check::eps_nash_stop_halts_no_later_than_exact(Case::Unit, 17, 100_000);
}

#[test]
fn observer_sees_every_round() {
    check::observer_sees_every_round(Case::Unit, 19);
}
