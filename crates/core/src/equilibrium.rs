//! Nash and approximate-Nash equilibrium predicates.
//!
//! §2 of the paper: a state is a *Nash equilibrium* when no single task can
//! lower its perceived load by migrating to a neighbor; for a task of
//! weight `w` on node `i` considering neighbor `j`, the improvement
//! condition is `ℓ_i − ℓ_j > w/s_j` (the task compares its current load
//! with the load of `j` *after* its own arrival). A state is an
//! *ε-approximate* Nash equilibrium when no task can improve by a factor
//! `(1 − ε)`: `(1 − ε)·ℓ_i − ℓ_j ≤ w/s_j` for all edges and tasks.
//!
//! For **uniform** tasks (`w = 1`) the per-edge condition is
//! `ℓ_i − ℓ_j ≤ 1/s_j`. For **weighted** tasks, the binding constraint on
//! an edge is the *lightest* task on the source node, so the check uses the
//! per-node minimum weight. Algorithm 2 intentionally only converges to the
//! relaxed condition `ℓ_i − ℓ_j ≤ 1/s_j` (threshold `1 ≥ w_ℓ`), which §4
//! shows is an ε-approximate NE for large enough `W`.

use crate::model::{System, TaskState};
use slb_graphs::NodeId;

/// Which improvement threshold an equilibrium check uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Threshold {
    /// `1/s_j` — uniform tasks, and the relaxed target of Algorithm 2.
    UnitWeight,
    /// `w_min(i)/s_j` — the exact game-theoretic condition for weighted
    /// tasks (lightest task on the source node is the binding one).
    LightestTask,
}

/// A directed edge on which some task has an incentive to migrate, with its
/// violation magnitude (`ℓ_i − ℓ_j − w/s_j > 0`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Violation {
    /// Overloaded source node.
    pub from: NodeId,
    /// Underloaded neighbor.
    pub to: NodeId,
    /// `ℓ_i − ℓ_j − threshold` (positive).
    pub excess: f64,
}

fn min_weight_per_node(system: &System, state: &TaskState) -> Vec<f64> {
    let mut min_w = vec![f64::INFINITY; system.node_count()];
    for (task, weight) in system.tasks().iter() {
        let node = state.task_node(task).index();
        if weight < min_w[node] {
            min_w[node] = weight;
        }
    }
    min_w
}

fn threshold_weights(system: &System, state: &TaskState, threshold: Threshold) -> Vec<f64> {
    match threshold {
        Threshold::UnitWeight => vec![1.0; system.node_count()],
        Threshold::LightestTask => min_weight_per_node(system, state),
    }
}

/// Collects every directed violation of the (exact) equilibrium condition
/// `ℓ_i − ℓ_j ≤ w/s_j`.
///
/// Nodes hosting no task produce no violations (there is no task to move).
pub fn violations(system: &System, state: &TaskState, threshold: Threshold) -> Vec<Violation> {
    let loads = state.loads(system);
    let w = threshold_weights(system, state, threshold);
    let mut out = Vec::new();
    for &(a, b) in system.graph().edges() {
        for (i, j) in [(a, b), (b, a)] {
            if state.node_task_count(i) == 0 {
                continue;
            }
            let sj = system.speeds().speed(j.index());
            let excess = loads[i.index()] - loads[j.index()] - w[i.index()] / sj;
            if excess > 1e-12 {
                out.push(Violation {
                    from: i,
                    to: j,
                    excess,
                });
            }
        }
    }
    out
}

/// Whether the state is an exact Nash equilibrium under `threshold`.
pub fn is_nash(system: &System, state: &TaskState, threshold: Threshold) -> bool {
    let loads = state.loads(system);
    let w = threshold_weights(system, state, threshold);
    for &(a, b) in system.graph().edges() {
        for (i, j) in [(a, b), (b, a)] {
            if state.node_task_count(i) == 0 {
                continue;
            }
            let sj = system.speeds().speed(j.index());
            if loads[i.index()] - loads[j.index()] > w[i.index()] / sj + 1e-12 {
                return false;
            }
        }
    }
    true
}

/// Whether the state is an ε-approximate Nash equilibrium:
/// `(1 − ε)·ℓ_i − ℓ_j ≤ w/s_j` on every directed edge with tasks at the
/// source.
///
/// # Panics
///
/// Panics unless `0 ≤ ε ≤ 1`.
pub fn is_eps_nash(system: &System, state: &TaskState, threshold: Threshold, eps: f64) -> bool {
    let loads = state.loads(system);
    let w = threshold_weights(system, state, threshold);
    let occupied = occupied_of_state(system, state);
    is_eps_nash_loads(system.graph(), system.speeds(), &loads, &w, &occupied, eps)
}

/// The smallest `ε` for which the state is an ε-approximate NE (0 when it
/// is an exact NE); a scalar "distance from equilibrium" for experiment
/// reporting.
pub fn nash_gap(system: &System, state: &TaskState, threshold: Threshold) -> f64 {
    let loads = state.loads(system);
    let w = threshold_weights(system, state, threshold);
    let occupied = occupied_of_state(system, state);
    nash_gap_loads(system.graph(), system.speeds(), &loads, &w, &occupied)
}

fn occupied_of_state(system: &System, state: &TaskState) -> Vec<bool> {
    (0..system.node_count())
        .map(|v| state.node_task_count(NodeId(v)) > 0)
        .collect()
}

/// The makespan `max_i ℓ_i(x)` — the social cost classically used in
/// selfish load-balancing (Vöcking \[27\]).
pub fn makespan(system: &System, state: &TaskState) -> f64 {
    state.loads(system).into_iter().fold(0.0, f64::max)
}

/// Edge condition `ℓ_i − ℓ_j ≤ w_i/s_j` on raw load arrays with explicit
/// per-node threshold weights — the form shared by the count-based
/// simulators (no [`TaskState`]). `threshold_weights[i]` is the binding
/// weight on node `i` (1 for the relaxed rule, the lightest hosted weight
/// for the exact weighted rule); nodes hosting no task
/// (`occupied[i] == false`) produce no violations.
pub fn is_nash_loads(
    graph: &slb_graphs::Graph,
    speeds: &crate::model::SpeedVector,
    loads: &[f64],
    threshold_weights: &[f64],
    occupied: &[bool],
) -> bool {
    for &(a, b) in graph.edges() {
        for (i, j) in [(a, b), (b, a)] {
            if !occupied[i.index()] {
                continue;
            }
            let sj = speeds.speed(j.index());
            if loads[i.index()] - loads[j.index()] > threshold_weights[i.index()] / sj + 1e-12 {
                return false;
            }
        }
    }
    true
}

/// ε-approximate edge condition `(1 − ε)·ℓ_i − ℓ_j ≤ w_i/s_j` on raw load
/// arrays — the form shared by the count-based simulators (no
/// [`TaskState`]). The [`TaskState`] form [`is_eps_nash`] delegates here,
/// so the two evaluations agree *exactly* (bit for bit) on matching
/// loads/thresholds — the contract the count-based validation ladders rely
/// on.
///
/// # Panics
///
/// Panics unless `0 ≤ ε ≤ 1`.
pub fn is_eps_nash_loads(
    graph: &slb_graphs::Graph,
    speeds: &crate::model::SpeedVector,
    loads: &[f64],
    threshold_weights: &[f64],
    occupied: &[bool],
    eps: f64,
) -> bool {
    assert!((0.0..=1.0).contains(&eps), "ε must lie in [0, 1]");
    for &(a, b) in graph.edges() {
        for (i, j) in [(a, b), (b, a)] {
            if !occupied[i.index()] {
                continue;
            }
            let sj = speeds.speed(j.index());
            if (1.0 - eps) * loads[i.index()] - loads[j.index()]
                > threshold_weights[i.index()] / sj + 1e-12
            {
                return false;
            }
        }
    }
    true
}

/// The smallest `ε` for which the loads form an ε-approximate NE, on raw
/// load arrays — the count-based counterpart of [`nash_gap`], which
/// delegates here (so the two agree exactly on matching inputs).
pub fn nash_gap_loads(
    graph: &slb_graphs::Graph,
    speeds: &crate::model::SpeedVector,
    loads: &[f64],
    threshold_weights: &[f64],
    occupied: &[bool],
) -> f64 {
    let mut eps = 0.0f64;
    for &(a, b) in graph.edges() {
        for (i, j) in [(a, b), (b, a)] {
            if !occupied[i.index()] {
                continue;
            }
            let li = loads[i.index()];
            if li <= 0.0 {
                continue;
            }
            let sj = speeds.speed(j.index());
            // (1−ε)·ℓ_i ≤ ℓ_j + w/s_j  ⇔  ε ≥ 1 − (ℓ_j + w/s_j)/ℓ_i.
            let needed = 1.0 - (loads[j.index()] + threshold_weights[i.index()] / sj) / li;
            eps = eps.max(needed);
        }
    }
    eps.max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{SpeedVector, TaskSet};
    use slb_graphs::generators;

    fn uniform_system(n: usize, m: usize) -> System {
        System::new(
            generators::path(n),
            SpeedVector::uniform(n),
            TaskSet::uniform(m),
        )
        .unwrap()
    }

    #[test]
    fn balanced_state_is_nash() {
        let sys = uniform_system(3, 6);
        let st = TaskState::from_assignment(&sys, &[0, 0, 1, 1, 2, 2]).unwrap();
        assert!(is_nash(&sys, &st, Threshold::UnitWeight));
        assert!(violations(&sys, &st, Threshold::UnitWeight).is_empty());
        assert!((nash_gap(&sys, &st, Threshold::UnitWeight)).abs() < 1e-12);
    }

    #[test]
    fn discrepancy_one_is_still_nash() {
        // Loads (2, 1): ℓ_0 − ℓ_1 = 1 = 1/s_1 → no strict improvement.
        let sys = uniform_system(2, 3);
        let st = TaskState::from_assignment(&sys, &[0, 0, 1]).unwrap();
        assert!(is_nash(&sys, &st, Threshold::UnitWeight));
    }

    #[test]
    fn all_on_one_node_is_not_nash() {
        let sys = uniform_system(3, 9);
        let st = TaskState::all_on_node(&sys, slb_graphs::NodeId(0));
        assert!(!is_nash(&sys, &st, Threshold::UnitWeight));
        let v = violations(&sys, &st, Threshold::UnitWeight);
        assert_eq!(v.len(), 1); // only edge (0,1) is violated; node 1 holds no tasks
        assert_eq!(v[0].from, NodeId(0));
        assert_eq!(v[0].to, NodeId(1));
        assert!((v[0].excess - 8.0).abs() < 1e-9); // 9 − 0 − 1
        let gap = nash_gap(&sys, &st, Threshold::UnitWeight);
        assert!((gap - (1.0 - 1.0 / 9.0)).abs() < 1e-9);
    }

    #[test]
    fn empty_source_produces_no_violation() {
        // Overload can only "flow" from nodes that actually hold tasks.
        let sys = uniform_system(2, 4);
        let st = TaskState::from_assignment(&sys, &[1, 1, 1, 1]).unwrap();
        let v = violations(&sys, &st, Threshold::UnitWeight);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].from, NodeId(1));
    }

    #[test]
    fn speeds_affect_the_threshold() {
        // Fast neighbor: moving to j with s_j = 4 only needs load gap 1/4.
        let sys = System::new(
            generators::path(2),
            SpeedVector::new(vec![1.0, 4.0]).unwrap(),
            TaskSet::uniform(3),
        )
        .unwrap();
        // Loads: (2, 0.25); gap 1.75 > 1/4 → not Nash.
        let st = TaskState::from_assignment(&sys, &[0, 0, 1]).unwrap();
        assert!(!is_nash(&sys, &st, Threshold::UnitWeight));
        // Loads: (1, 0.5): gap 0.5 > 0.25 → still not Nash.
        let st = TaskState::from_assignment(&sys, &[0, 1, 1]).unwrap();
        assert!(!is_nash(&sys, &st, Threshold::UnitWeight));
        // All on the fast node: loads (0, 0.75); reverse gap 0.75 ≤ 1/1 → Nash.
        let st = TaskState::from_assignment(&sys, &[1, 1, 1]).unwrap();
        assert!(is_nash(&sys, &st, Threshold::UnitWeight));
    }

    #[test]
    fn weighted_lightest_task_threshold() {
        let sys = System::new(
            generators::path(2),
            SpeedVector::uniform(2),
            TaskSet::weighted(vec![1.0, 0.1]).unwrap(),
        )
        .unwrap();
        // Both on node 0: loads (1.1, 0). Lightest task is 0.1:
        // 1.1 − 0 > 0.1 → not Nash under LightestTask...
        let st = TaskState::from_assignment(&sys, &[0, 0]).unwrap();
        assert!(!is_nash(&sys, &st, Threshold::LightestTask));
        // ...but under the relaxed unit threshold it is (1.1 ≤ 1 fails!).
        assert!(!is_nash(&sys, &st, Threshold::UnitWeight));
        // Split heavy/light: loads (1.0, 0.1), gap 0.9 ≤ min-weight 1.0 on
        // node 0 → Nash exactly; also ≤ 1 under the unit rule.
        let st = TaskState::from_assignment(&sys, &[0, 1]).unwrap();
        assert!(is_nash(&sys, &st, Threshold::LightestTask));
        assert!(is_nash(&sys, &st, Threshold::UnitWeight));
    }

    #[test]
    fn relaxed_vs_exact_weighted_gap() {
        // A state that satisfies Algorithm 2's relaxed condition but is not
        // an exact weighted NE (the situation §4 discusses).
        let sys = System::new(
            generators::path(2),
            SpeedVector::uniform(2),
            TaskSet::weighted(vec![0.2, 0.2, 0.2, 0.2]).unwrap(),
        )
        .unwrap();
        // Loads (0.8, 0): gap 0.8 ≤ 1 (relaxed OK) but > 0.2 (exact NO).
        let st = TaskState::from_assignment(&sys, &[0, 0, 0, 0]).unwrap();
        assert!(is_nash(&sys, &st, Threshold::UnitWeight));
        assert!(!is_nash(&sys, &st, Threshold::LightestTask));
    }

    #[test]
    fn eps_nash_monotone_in_eps() {
        let sys = uniform_system(3, 30);
        let st = TaskState::from_assignment(
            &sys,
            &(0..30)
                .map(|t| if t < 20 { 0 } else { 1 })
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let gap = nash_gap(&sys, &st, Threshold::UnitWeight);
        assert!(gap > 0.0);
        assert!(!is_eps_nash(&sys, &st, Threshold::UnitWeight, gap * 0.5));
        assert!(is_eps_nash(&sys, &st, Threshold::UnitWeight, gap + 1e-9));
        assert!(is_eps_nash(&sys, &st, Threshold::UnitWeight, 1.0));
    }

    #[test]
    fn exact_nash_iff_gap_zero() {
        let sys = uniform_system(4, 8);
        let st = TaskState::from_assignment(&sys, &[0, 0, 1, 1, 2, 2, 3, 3]).unwrap();
        assert!(is_nash(&sys, &st, Threshold::UnitWeight));
        assert_eq!(nash_gap(&sys, &st, Threshold::UnitWeight), 0.0);
        assert!(is_eps_nash(&sys, &st, Threshold::UnitWeight, 0.0));
    }

    #[test]
    fn loads_form_matches_state_form() {
        let sys = uniform_system(4, 12);
        let st = TaskState::from_assignment(&sys, &[0; 12]).unwrap();
        let loads = st.loads(&sys);
        let occupied: Vec<bool> = (0..4).map(|i| st.node_task_count(NodeId(i)) > 0).collect();
        assert_eq!(
            is_nash(&sys, &st, Threshold::UnitWeight),
            is_nash_loads(sys.graph(), sys.speeds(), &loads, &[1.0; 4], &occupied)
        );
    }

    #[test]
    fn eps_loads_forms_match_state_forms_exactly() {
        let sys = System::new(
            generators::ring(5),
            SpeedVector::integer(vec![1, 2, 1, 4, 1]).unwrap(),
            TaskSet::weighted(vec![0.25, 0.5, 1.0, 0.25, 0.5, 1.0, 0.25]).unwrap(),
        )
        .unwrap();
        let st = TaskState::from_assignment(&sys, &[0, 0, 0, 1, 2, 2, 4]).unwrap();
        let loads = st.loads(&sys);
        let occupied: Vec<bool> = (0..5).map(|i| st.node_task_count(NodeId(i)) > 0).collect();
        for threshold in [Threshold::UnitWeight, Threshold::LightestTask] {
            let w = threshold_weights(&sys, &st, threshold);
            assert_eq!(
                nash_gap(&sys, &st, threshold),
                nash_gap_loads(sys.graph(), sys.speeds(), &loads, &w, &occupied),
            );
            for eps in [0.0, 0.25, 0.5, 1.0] {
                assert_eq!(
                    is_eps_nash(&sys, &st, threshold, eps),
                    is_eps_nash_loads(sys.graph(), sys.speeds(), &loads, &w, &occupied, eps),
                );
            }
        }
    }

    #[test]
    fn nash_gap_loads_skips_empty_and_zero_load_sources() {
        // Node 1 hosts nothing, node 2 hosts a zero-ish source via
        // occupied-but-zero-load (cannot happen with positive weights, but
        // the predicate must not divide by zero).
        let sys = uniform_system(3, 3);
        let loads = [3.0, 0.0, 0.0];
        let w = [1.0, 1.0, 1.0];
        let occupied = [true, false, true];
        let gap = nash_gap_loads(sys.graph(), sys.speeds(), &loads, &w, &occupied);
        assert!((gap - (1.0 - 1.0 / 3.0)).abs() < 1e-12, "gap {gap}");
    }

    #[test]
    #[should_panic(expected = "ε must lie in [0, 1]")]
    fn bad_eps_loads_panics() {
        let sys = uniform_system(2, 2);
        let _ = is_eps_nash_loads(
            sys.graph(),
            sys.speeds(),
            &[1.0, 1.0],
            &[1.0, 1.0],
            &[true, true],
            -0.1,
        );
    }

    #[test]
    #[should_panic(expected = "ε must lie in [0, 1]")]
    fn bad_eps_panics() {
        let sys = uniform_system(2, 2);
        let st = TaskState::all_on_node(&sys, NodeId(0));
        let _ = is_eps_nash(&sys, &st, Threshold::UnitWeight, 1.5);
    }

    #[test]
    fn makespan_and_ratio() {
        let sys = System::new(
            generators::path(2),
            SpeedVector::new(vec![1.0, 3.0]).unwrap(),
            TaskSet::uniform(8),
        )
        .unwrap();
        // Loads: (6, 2/3); average load = 8/4 = 2.
        let st = TaskState::from_assignment(&sys, &[0, 0, 0, 0, 0, 0, 1, 1]).unwrap();
        assert!((makespan(&sys, &st) - 6.0).abs() < 1e-12);
        // Perfectly balanced: W_i = 2·s_i → loads (2, 2): the average load.
        let st = TaskState::from_assignment(&sys, &[0, 0, 1, 1, 1, 1, 1, 1]).unwrap();
        assert!((makespan(&sys, &st) - sys.average_load()).abs() < 1e-12);
    }

    #[test]
    fn nash_states_have_bounded_makespan_ratio() {
        // At a uniform-speed Nash equilibrium adjacent loads differ by at
        // most 1, so the makespan ratio is at most 1 + n·(diam/avg)-ish;
        // verify it is modest on a balanced-ish ring NE.
        let sys = uniform_system(4, 40);
        let st =
            TaskState::from_assignment(&sys, &(0..40).map(|t| t % 4).collect::<Vec<_>>()).unwrap();
        assert!(is_nash(&sys, &st, Threshold::UnitWeight));
        assert!((makespan(&sys, &st) / sys.average_load() - 1.0).abs() < 1e-12);
    }
}
