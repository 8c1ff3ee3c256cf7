//! Initial task placements.
//!
//! The placement fixes the initial state `X₀` of a run. The paper's
//! convergence bounds hold from *any* start; experiments use the
//! adversarial single-node start for worst-case measurements (it maximizes
//! `Ψ₀(X₀)` up to the choice of node) and random starts for average-case
//! curves.

use rand::Rng;
use slb_core::model::{SpeedVector, System, TaskState};
use slb_graphs::NodeId;

/// An initial-placement policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Placement {
    /// Every task on one explicit node.
    AllOnNode(usize),
    /// Every task on the slowest node (ties → smallest index): the
    /// worst-case start for `Ψ₀` noted in the proof of Lemma 3.15.
    AllOnSlowest,
    /// Each task on an independent uniformly random node.
    UniformRandom,
    /// Each task on a random node chosen proportionally to speed — the
    /// "already roughly balanced" start (deviations are
    /// `O(√(m/n))`-scale).
    SpeedProportional,
    /// Deterministic round-robin over nodes in index order.
    RoundRobin,
}

impl Placement {
    /// Generates an assignment vector (`result[ℓ]` = node of task `ℓ`):
    /// one node per task from the policy's per-task form, which the
    /// counts-first scenario builder streams instead.
    ///
    /// # Panics
    ///
    /// Panics if `AllOnNode(v)` has `v` out of range.
    pub fn assign<R: Rng + ?Sized>(self, system: &System, rng: &mut R) -> Vec<usize> {
        let placer = self.placer(system.speeds());
        (0..system.task_count())
            .map(|t| placer.node(t, rng))
            .collect()
    }

    /// The per-task form of the policy on machines of speeds `speeds`.
    ///
    /// # Panics
    ///
    /// Panics if `AllOnNode(v)` has `v` out of range.
    pub(crate) fn placer(self, speeds: &SpeedVector) -> Placer<'_> {
        let n = speeds.len();
        let fixed = match self {
            Placement::AllOnNode(v) => {
                assert!(v < n, "placement node {v} out of range for {n} nodes");
                v
            }
            Placement::AllOnSlowest => (0..n)
                .min_by(|&a, &b| {
                    speeds
                        .speed(a)
                        .partial_cmp(&speeds.speed(b))
                        .expect("speeds are finite")
                })
                .expect("at least one node"),
            _ => 0,
        };
        Placer {
            placement: self,
            speeds,
            fixed,
        }
    }

    /// Generates the [`TaskState`] directly.
    ///
    /// # Panics
    ///
    /// Panics as in [`Placement::assign`].
    pub fn state<R: Rng + ?Sized>(self, system: &System, rng: &mut R) -> TaskState {
        let assignment = self.assign(system, rng);
        TaskState::from_assignment(system, &assignment)
            .expect("generated assignments are always valid")
    }

    /// A short label for CSV output.
    pub fn label(self) -> &'static str {
        match self {
            Placement::AllOnNode(_) => "all-on-node",
            Placement::AllOnSlowest => "all-on-slowest",
            Placement::UniformRandom => "uniform-random",
            Placement::SpeedProportional => "speed-proportional",
            Placement::RoundRobin => "round-robin",
        }
    }
}

/// The node of each task in turn under a [`Placement`].
/// [`Placement::assign`] collects `m` of them and the counts-first
/// scenario builder streams them, so both consume the same random numbers
/// in the same order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Placer<'a> {
    placement: Placement,
    speeds: &'a SpeedVector,
    /// The node of the single-node policies.
    fixed: usize,
}

impl Placer<'_> {
    /// The per-node task counts of `m` tasks, in closed form for the
    /// policies that draw no randomness (`None` for the random ones).
    pub(crate) fn fixed_counts(&self, m: usize) -> Option<Vec<u64>> {
        let n = self.speeds.len();
        match self.placement {
            Placement::AllOnNode(_) | Placement::AllOnSlowest => {
                let mut counts = vec![0; n];
                counts[self.fixed] = m as u64;
                Some(counts)
            }
            Placement::RoundRobin => Some(
                (0..n)
                    .map(|v| (m / n + usize::from(v < m % n)) as u64)
                    .collect(),
            ),
            Placement::UniformRandom | Placement::SpeedProportional => None,
        }
    }

    /// The node of task `t` (the random policies draw once per call).
    #[inline]
    pub(crate) fn node<R: Rng + ?Sized>(&self, t: usize, rng: &mut R) -> usize {
        let n = self.speeds.len();
        match self.placement {
            Placement::AllOnNode(_) | Placement::AllOnSlowest => self.fixed,
            Placement::UniformRandom => rng.gen_range(0..n),
            Placement::SpeedProportional => {
                let mut x = rng.gen_range(0.0..self.speeds.total());
                for v in 0..n {
                    let s = self.speeds.speed(v);
                    if x < s {
                        return v;
                    }
                    x -= s;
                }
                n - 1
            }
            Placement::RoundRobin => t % n,
        }
    }
}

/// Convenience: the adversarial hot-spot state on node 0.
pub fn hot_spot(system: &System) -> TaskState {
    TaskState::all_on_node(system, NodeId(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use slb_core::model::{SpeedVector, TaskSet};
    use slb_core::potential;
    use slb_graphs::generators;

    fn system(speeds: Vec<f64>, m: usize) -> System {
        System::new(
            generators::ring(speeds.len()),
            SpeedVector::new(speeds).unwrap(),
            TaskSet::uniform(m),
        )
        .unwrap()
    }

    #[test]
    fn all_on_node_places_everything() {
        let sys = system(vec![1.0; 5], 50);
        let mut rng = StdRng::seed_from_u64(1);
        let st = Placement::AllOnNode(3).state(&sys, &mut rng);
        assert_eq!(st.node_task_count(NodeId(3)), 50);
        st.check_invariants(&sys).unwrap();
    }

    #[test]
    fn all_on_slowest_finds_the_slow_node() {
        let sys = system(vec![2.0, 1.0, 4.0, 1.0, 3.0], 10);
        let mut rng = StdRng::seed_from_u64(2);
        let a = Placement::AllOnSlowest.assign(&sys, &mut rng);
        assert!(a.iter().all(|&v| v == 1), "ties break to smallest index");
    }

    #[test]
    fn uniform_random_covers_nodes() {
        let sys = system(vec![1.0; 8], 4000);
        let mut rng = StdRng::seed_from_u64(3);
        let st = Placement::UniformRandom.state(&sys, &mut rng);
        for v in 0..8 {
            let c = st.node_task_count(NodeId(v));
            assert!(c > 300, "node {v} got only {c} of ~500 expected");
        }
    }

    #[test]
    fn speed_proportional_tracks_speeds() {
        let sys = system(vec![1.0, 1.0, 8.0, 1.0, 1.0], 6000);
        let mut rng = StdRng::seed_from_u64(4);
        let st = Placement::SpeedProportional.state(&sys, &mut rng);
        // Node 2 has 8/12 of capacity → ~4000 tasks.
        let c = st.node_task_count(NodeId(2));
        assert!((3600..4400).contains(&c), "fast node got {c}");
        // The start is near balance: Ψ₀ far below the hot-spot start.
        let hot = potential::report(&sys, &hot_spot(&sys)).psi0;
        let prop = potential::report(&sys, &st).psi0;
        assert!(prop < hot / 100.0);
    }

    #[test]
    fn round_robin_is_deterministic_and_even() {
        let sys = system(vec![1.0; 4], 10);
        let mut rng = StdRng::seed_from_u64(5);
        let a = Placement::RoundRobin.assign(&sys, &mut rng);
        assert_eq!(a, vec![0, 1, 2, 3, 0, 1, 2, 3, 0, 1]);
    }

    #[test]
    fn labels_are_distinct() {
        let labels = [
            Placement::AllOnNode(0).label(),
            Placement::AllOnSlowest.label(),
            Placement::UniformRandom.label(),
            Placement::SpeedProportional.label(),
            Placement::RoundRobin.label(),
        ];
        let set: std::collections::BTreeSet<_> = labels.iter().collect();
        assert_eq!(set.len(), labels.len());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_node_panics() {
        let sys = system(vec![1.0; 3], 3);
        let mut rng = StdRng::seed_from_u64(6);
        let _ = Placement::AllOnNode(9).assign(&sys, &mut rng);
    }
}
