//! [`CountSim`](crate::engine::count::CountSim) on two weight classes and
//! alternating speeds under both rules: `Case::Alg2` (relaxed) and
//! `Case::Bhs` (own-weight) of the count engine's checks.

use crate::engine::count::tests::{self as check, Case};
use crate::engine::count::{ClassCountState, CountRule, CountSim};
use crate::model::SpeedVector;
use crate::protocol::Alpha;
use slb_graphs::generators;

const BOTH_RULES: [Case; 2] = [Case::Alg2, Case::Bhs];

#[test]
#[should_panic(expected = "state total must match")]
fn total_mismatch_rejected() {
    check::total_mismatch_rejected(Case::Alg2);
}

#[test]
fn rule_and_name_accessors() {
    let graph = generators::path(2);
    let speeds = SpeedVector::uniform(2);
    let state = ClassCountState::new(vec![0.25, 1.0], vec![vec![2, 2], vec![0, 0]]);
    let sim = CountSim::new(
        &graph,
        &speeds,
        CountRule::OwnWeight,
        Alpha::Approximate,
        state,
        1,
    );
    assert_eq!(sim.rule(), CountRule::OwnWeight);
    assert_eq!(sim.round(), 0);
    assert_eq!(sim.state().total_tasks(), 4);
}

#[test]
fn conserves_per_class_totals_under_both_rules() {
    for case in BOTH_RULES {
        check::conserves_per_class_totals(case);
    }
}

#[test]
fn first_round_outflow_matches_task_level_mean_bhs() {
    check::first_round_outflow_matches_task_level_mean(Case::Bhs);
}

#[test]
fn heterogeneous_speeds_balance_by_load_not_count() {
    // The relaxed rule's run is `weighted_fast`'s test of this name.
    check::heterogeneous_speeds_balance_by_load_not_count(CountRule::OwnWeight, 200_000);
}

#[test]
fn psi0_decreases_and_stop_rules_work() {
    for case in BOTH_RULES {
        check::run_until_psi0_stops(case, 10);
    }
}

#[test]
fn eps_nash_stop_halts_no_later_than_exact() {
    check::eps_nash_stop_halts_no_later_than_exact(Case::Bhs, 21, 200_000);
}

#[test]
fn observer_sees_every_round() {
    check::observer_sees_every_round(Case::Alg2, 11);
}
