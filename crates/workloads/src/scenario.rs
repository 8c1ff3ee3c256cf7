//! Named scenario presets: topology × speeds × weights × placement.
//!
//! The examples and the experiment harness want "give me a realistic
//! instance" one-liners; these presets are the motivating workloads of the
//! paper's introduction (large heterogeneous compute networks with locality
//! constraints) rendered concrete.
//!
//! A scenario is built two ways from the same random stream: per task
//! ([`build`]: a [`System`] and an `m`-entry [`TaskState`], for the
//! per-task engine) or as counts ([`build_counts`]: a [`CountInstance`]
//! of per-(node, weight class) counts, for the count engine, in
//! `O(n·k)` memory). Both draw the speeds, then all `m` weights, then the
//! placement, through the same per-draw samplers.

use crate::placement::Placement;
use crate::speeds::SpeedDistribution;
use crate::weight_classes::WeightClasses;
use crate::weights::WeightDistribution;
use rand::Rng;
use slb_core::engine::count::ClassCountState;
use slb_core::model::{ModelError, SpeedError, SpeedVector, System, TaskError, TaskSet, TaskState};
use slb_graphs::Graph;
use std::fmt;

/// Errors from building a scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// Model assembly failed.
    Model(ModelError),
    /// Task construction failed.
    Task(TaskError),
    /// Speed construction failed.
    Speed(SpeedError),
    /// `m = tasks_per_node · n` does not fit in a `usize`.
    TooManyTasks {
        /// Number of nodes `n`.
        nodes: usize,
        /// Tasks per node.
        tasks_per_node: usize,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Model(e) => write!(f, "scenario model error: {e}"),
            ScenarioError::Task(e) => write!(f, "scenario task error: {e}"),
            ScenarioError::Speed(e) => write!(f, "scenario speed error: {e}"),
            ScenarioError::TooManyTasks {
                nodes,
                tasks_per_node,
            } => write!(
                f,
                "scenario has {nodes} nodes × {tasks_per_node} tasks per node, more tasks than \
                 a usize counts"
            ),
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Model(e) => Some(e),
            ScenarioError::Task(e) => Some(e),
            ScenarioError::Speed(e) => Some(e),
            ScenarioError::TooManyTasks { .. } => None,
        }
    }
}

impl From<ModelError> for ScenarioError {
    fn from(e: ModelError) -> Self {
        ScenarioError::Model(e)
    }
}
impl From<TaskError> for ScenarioError {
    fn from(e: TaskError) -> Self {
        ScenarioError::Task(e)
    }
}
impl From<SpeedError> for ScenarioError {
    fn from(e: SpeedError) -> Self {
        ScenarioError::Speed(e)
    }
}

/// A fully built scenario: the instance and its initial state.
#[derive(Debug, Clone)]
pub struct BuiltScenario {
    /// The immutable instance.
    pub system: System,
    /// The initial state `X₀`.
    pub initial: TaskState,
    /// Human-readable description (topology, speeds, weights, placement).
    pub description: String,
}

/// Generic scenario assembly from the four axes.
///
/// `tasks_per_node` scales `m = tasks_per_node · n`.
///
/// # Errors
///
/// Propagates model/task/speed construction failures.
pub fn build<R: Rng + ?Sized>(
    graph: Graph,
    speed_dist: SpeedDistribution,
    weight_dist: WeightDistribution,
    placement: Placement,
    tasks_per_node: usize,
    rng: &mut R,
) -> Result<BuiltScenario, ScenarioError> {
    let n = graph.node_count();
    let m = task_count(n, tasks_per_node)?;
    let speeds = speed_dist.sample(n, rng);
    let tasks = match weight_dist {
        WeightDistribution::Unit => TaskSet::uniform(m),
        other => TaskSet::weighted(other.sample(m, rng))?,
    };
    let description = format!(
        "n={n}, m={m}, speeds={}, weights={}, placement={}",
        speed_dist.label(),
        weight_dist.label(),
        placement.label()
    );
    let system = System::new(graph, speeds, tasks)?;
    let initial = placement.state(&system, rng);
    Ok(BuiltScenario {
        system,
        initial,
        description,
    })
}

/// `m = tasks_per_node · n`, unless it overflows.
fn task_count(n: usize, tasks_per_node: usize) -> Result<usize, ScenarioError> {
    tasks_per_node
        .checked_mul(n)
        .ok_or(ScenarioError::TooManyTasks {
            nodes: n,
            tasks_per_node,
        })
}

/// A scenario as the count engine reads it: the instance and its initial
/// state as per-(node, weight class) counts, without per-task vectors.
#[derive(Debug, Clone)]
pub struct CountInstance {
    /// The network.
    pub graph: Graph,
    /// The machine speeds.
    pub speeds: SpeedVector,
    /// The class weights and the initial per-(node, class) counts.
    pub state: ClassCountState,
    /// Number of tasks `m`.
    pub task_count: usize,
    /// The lightest drawn weight (1 for unit weights).
    pub lightest: f64,
    /// The total drawn weight, summed in draw order as
    /// [`TaskSet::weighted`] sums it.
    pub total_work: f64,
}

/// [`build`] straight into counts: the same draws from `rng`, the same
/// classes as [`WeightClasses::from_samples`] over the drawn weights and
/// the same per-(node, class) counts as
/// [`WeightClasses::node_class_counts`] over them and the placement, in
/// `O(n·k)` memory for `k` classes.
///
/// After the speeds, the stream holds all `m` weight draws, then the
/// placement draws. Two copies of it are read side by side: one from the
/// first weight draw, one from the first placement draw, which it reaches
/// by drawing the `m` weights ahead. A continuous spec finds its classes
/// on that first pass; a finite-support spec knows them up front, keeps
/// only the drawn ones, and skips the pass when the placement draws
/// nothing. `total_work` and the lightest weight are read off the weight
/// copy in draw order. Unit weights under a placement that draws nothing
/// are counted in closed form.
///
/// # Errors
///
/// Returns [`ScenarioError::TooManyTasks`] if `m` overflows and
/// [`TaskError::Empty`] if it is zero.
///
/// # Panics
///
/// Panics on invalid distribution parameters or an out-of-range
/// placement node, as [`build`] does.
pub fn build_counts<R: Rng + Clone>(
    graph: Graph,
    speed_dist: SpeedDistribution,
    weight_dist: WeightDistribution,
    placement: Placement,
    tasks_per_node: usize,
    mut rng: R,
) -> Result<CountInstance, ScenarioError> {
    let n = graph.node_count();
    let m = task_count(n, tasks_per_node)?;
    if m == 0 {
        return Err(TaskError::Empty.into());
    }
    let speeds = speed_dist.sample(n, &mut rng);
    let sampler = weight_dist.sampler();
    let placer = placement.placer(&speeds);
    let fixed = placer.fixed_counts(m);
    if let (WeightDistribution::Unit, Some(counts)) = (weight_dist, &fixed) {
        return Ok(CountInstance {
            state: ClassCountState::unit(counts.clone()),
            graph,
            speeds,
            task_count: m,
            lightest: 1.0,
            total_work: m as f64,
        });
    }
    let support = weight_dist.support();
    let mut weights = rng.clone();
    let mut places = rng;
    let classes = match &support {
        Some(support) => {
            if fixed.is_none() {
                for _ in 0..m {
                    sampler.draw(&mut places);
                }
            }
            WeightClasses::from_stream(support.iter().copied(), support.len())
        }
        None => WeightClasses::from_stream(
            (0..m).map(|_| sampler.draw(&mut places)),
            WeightClasses::DEFAULT_MAX_CLASSES,
        ),
    };
    let k = classes.len();
    let mut counts = vec![0u64; n * k];
    let (mut total_work, mut lightest) = (0.0f64, f64::INFINITY);
    for t in 0..m {
        let w = sampler.draw(&mut weights);
        total_work += w;
        lightest = lightest.min(w);
        counts[placer.node(t, &mut places) * k + classes.class_of(w)] += 1;
    }
    let mut class_weights = classes.weights().to_vec();
    if support.is_some() {
        // Support points never drawn get no class, as in `from_samples`.
        let drawn: Vec<usize> = (0..k)
            .filter(|&c| counts[c..].iter().step_by(k).any(|&x| x > 0))
            .collect();
        if drawn.len() < k {
            class_weights = drawn.iter().map(|&c| class_weights[c]).collect();
            counts = counts
                .chunks(k)
                .flat_map(|row| drawn.iter().map(move |&c| row[c]))
                .collect();
        }
    }
    Ok(CountInstance {
        graph,
        speeds,
        state: ClassCountState::node_major(class_weights, counts),
        task_count: m,
        lightest,
        total_work,
    })
}

/// A heterogeneous datacenter rack row: `rows × cols` torus, two machine
/// classes (25% of nodes 4× faster), heavy-tailed job sizes, everything
/// initially queued on one ingest node.
///
/// # Errors
///
/// Propagates construction failures.
pub fn heterogeneous_torus<R: Rng + ?Sized>(
    rows: usize,
    cols: usize,
    tasks_per_node: usize,
    rng: &mut R,
) -> Result<BuiltScenario, ScenarioError> {
    build(
        slb_graphs::generators::torus(rows, cols),
        SpeedDistribution::TwoClass {
            fast: 4,
            fast_fraction: 0.25,
        },
        WeightDistribution::BoundedPowerLaw {
            alpha: 1.2,
            min: 0.05,
        },
        Placement::AllOnNode(0),
        tasks_per_node,
        rng,
    )
}

/// A peer-to-peer overlay: random 4-regular expander, uniform machines,
/// unit tasks scattered randomly.
///
/// # Errors
///
/// Propagates construction failures.
pub fn p2p_overlay<R: Rng + ?Sized>(
    n: usize,
    tasks_per_node: usize,
    rng: &mut R,
) -> Result<BuiltScenario, ScenarioError> {
    let graph = slb_graphs::generators::random_regular(n, 4, rng);
    build(
        graph,
        SpeedDistribution::Uniform,
        WeightDistribution::Unit,
        Placement::UniformRandom,
        tasks_per_node,
        rng,
    )
}

/// The worst-case theory instance: a ring (smallest `λ₂` per node count
/// among the Table 1 families), integer speeds up to `s_max`, unit tasks,
/// all on the slowest node.
///
/// # Errors
///
/// Propagates construction failures.
pub fn adversarial_ring<R: Rng + ?Sized>(
    n: usize,
    s_max: u64,
    tasks_per_node: usize,
    rng: &mut R,
) -> Result<BuiltScenario, ScenarioError> {
    build(
        slb_graphs::generators::ring(n),
        SpeedDistribution::IntegerUniform { max: s_max },
        WeightDistribution::Unit,
        Placement::AllOnSlowest,
        tasks_per_node,
        rng,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use slb_graphs::NodeId;

    #[test]
    fn heterogeneous_torus_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let b = heterogeneous_torus(3, 4, 20, &mut rng).unwrap();
        assert_eq!(b.system.node_count(), 12);
        assert_eq!(b.system.task_count(), 240);
        assert!(!b.system.tasks().is_uniform());
        assert_eq!(b.initial.node_task_count(NodeId(0)), 240);
        assert!(b.description.contains("two-class"));
        b.initial.check_invariants(&b.system).unwrap();
    }

    #[test]
    fn p2p_overlay_shape() {
        let mut rng = StdRng::seed_from_u64(2);
        let b = p2p_overlay(20, 8, &mut rng).unwrap();
        assert_eq!(b.system.node_count(), 20);
        assert_eq!(b.system.graph().regularity(), Some(4));
        assert!(b.system.tasks().is_uniform());
        assert!(b.system.speeds().is_uniform());
    }

    #[test]
    fn adversarial_ring_shape() {
        let mut rng = StdRng::seed_from_u64(3);
        let b = adversarial_ring(10, 5, 50, &mut rng).unwrap();
        assert_eq!(b.system.node_count(), 10);
        assert_eq!(b.system.speeds().min(), 1.0);
        assert_eq!(b.system.speeds().granularity(), Some(1.0));
        // All tasks on one (slowest) node.
        let counts: Vec<usize> = (0..10)
            .map(|i| b.initial.node_task_count(NodeId(i)))
            .collect();
        assert_eq!(counts.iter().sum::<usize>(), 500);
        assert_eq!(counts.iter().filter(|&&c| c > 0).count(), 1);
    }

    #[test]
    fn generic_build_with_weighted_tasks() {
        let mut rng = StdRng::seed_from_u64(4);
        let b = build(
            slb_graphs::generators::hypercube(3),
            SpeedDistribution::Ramp {
                max: 3.0,
                granularity: 0.5,
            },
            WeightDistribution::UniformRange { lo: 0.1, hi: 0.9 },
            Placement::SpeedProportional,
            10,
            &mut rng,
        )
        .unwrap();
        assert_eq!(b.system.task_count(), 80);
        assert_eq!(b.system.speeds().granularity(), Some(0.5));
        b.initial.check_invariants(&b.system).unwrap();
    }

    #[test]
    fn determinism_under_seed() {
        let build_once = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            heterogeneous_torus(3, 3, 10, &mut rng).unwrap()
        };
        let a = build_once(9);
        let b = build_once(9);
        assert_eq!(a.initial, b.initial);
        assert_eq!(a.system.speeds(), b.system.speeds());
        let c = build_once(10);
        assert_ne!(
            (a.initial, a.system.speeds().clone()),
            (c.initial, c.system.speeds().clone())
        );
    }

    /// The per-task reference for [`build_counts`]: [`build`], then the
    /// classes, counts, total and lightest weight of its tasks.
    fn counted_per_task(
        weights: WeightDistribution,
        placement: Placement,
        tasks_per_node: usize,
        seed: u64,
    ) -> (Vec<f64>, Vec<u64>, usize, f64, f64, SpeedVector) {
        let b = build(
            slb_graphs::generators::torus(3, 3),
            SpeedDistribution::TwoClass {
                fast: 3,
                fast_fraction: 0.4,
            },
            weights,
            placement,
            tasks_per_node,
            &mut StdRng::seed_from_u64(seed),
        )
        .unwrap();
        let tasks = b.system.tasks();
        let task_weights: Vec<f64> = tasks.iter().map(|(_, w)| w).collect();
        let task_nodes: Vec<usize> = tasks
            .iter()
            .map(|(t, _)| b.initial.task_node(t).index())
            .collect();
        let classes =
            WeightClasses::from_samples(&task_weights, WeightClasses::DEFAULT_MAX_CLASSES);
        let counts = classes.node_class_counts(&task_weights, &task_nodes, 9);
        (
            classes.weights().to_vec(),
            counts.concat(),
            tasks.len(),
            tasks.min_weight(),
            tasks.total_weight(),
            b.system.speeds().clone(),
        )
    }

    #[test]
    fn build_counts_matches_the_per_task_build_bit_for_bit() {
        let bimodal = |light, heavy, heavy_fraction| WeightDistribution::Bimodal {
            light,
            heavy,
            heavy_fraction,
        };
        let uniform = WeightDistribution::UniformRange { lo: 0.2, hi: 0.9 };
        let power_law = WeightDistribution::BoundedPowerLaw {
            alpha: 1.2,
            min: 0.05,
        };
        // (weights, tasks per node): 9 nodes × 1 task draws at most 9
        // distinct continuous weights, which stay lossless classes.
        let specs = [
            (WeightDistribution::Unit, 7),
            (uniform, 7),
            (uniform, 1),
            (WeightDistribution::UniformRange { lo: 0.5, hi: 0.5 }, 7),
            (power_law, 7),
            (power_law, 1),
            (bimodal(0.25, 1.0, 0.5), 7),
            (bimodal(0.25, 1.0, 0.0), 7),
            (bimodal(0.25, 1.0, 1.0), 7),
            (bimodal(1.0, 1.0, 0.5), 7),
            (bimodal(0.9, 0.3, 0.2), 7),
        ];
        let placements = [
            Placement::AllOnNode(4),
            Placement::AllOnSlowest,
            Placement::UniformRandom,
            Placement::SpeedProportional,
            Placement::RoundRobin,
        ];
        for (weights, tasks_per_node) in specs {
            for placement in placements {
                for seed in [1, 2] {
                    let (class_weights, counts, m, lightest, total, speeds) =
                        counted_per_task(weights, placement, tasks_per_node, seed);
                    let c = build_counts(
                        slb_graphs::generators::torus(3, 3),
                        SpeedDistribution::TwoClass {
                            fast: 3,
                            fast_fraction: 0.4,
                        },
                        weights,
                        placement,
                        tasks_per_node,
                        StdRng::seed_from_u64(seed),
                    )
                    .unwrap();
                    let case = format!("{weights:?} × {placement:?}, seed {seed}");
                    let bits = |v: &[f64]| v.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(c.state.class_weights()),
                        bits(&class_weights),
                        "{case}"
                    );
                    let got: Vec<u64> = (0..9).flat_map(|v| c.state.counts(v).to_vec()).collect();
                    assert_eq!(got, counts, "{case}");
                    assert_eq!(c.task_count, m, "{case}");
                    assert_eq!(c.lightest.to_bits(), lightest.to_bits(), "{case}");
                    assert_eq!(c.total_work.to_bits(), total.to_bits(), "{case}");
                    assert_eq!(c.speeds, speeds, "{case}");
                    assert_eq!(c.graph.node_count(), 9, "{case}");
                }
            }
        }
    }

    #[test]
    fn build_counts_rejects_empty_and_overflowing_populations() {
        let counts = |tasks_per_node| {
            build_counts(
                slb_graphs::generators::ring(4),
                SpeedDistribution::Uniform,
                WeightDistribution::Unit,
                Placement::AllOnNode(0),
                tasks_per_node,
                StdRng::seed_from_u64(1),
            )
        };
        assert!(matches!(
            counts(0),
            Err(ScenarioError::Task(TaskError::Empty))
        ));
        let err = counts(usize::MAX / 2).unwrap_err();
        assert_eq!(
            err,
            ScenarioError::TooManyTasks {
                nodes: 4,
                tasks_per_node: usize::MAX / 2
            }
        );
        assert!(err.to_string().contains("more tasks than a usize counts"));
        // Unit weights on one node are counted in closed form.
        let c = counts(1 << 40).unwrap();
        assert_eq!(c.state.counts(0), [1 << 42]);
        assert_eq!(c.total_work, (1u64 << 42) as f64);
    }

    #[test]
    fn error_display_chains() {
        let e = ScenarioError::Task(TaskError::Empty);
        assert!(e.to_string().contains("task error"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
