//! Criterion micro-benchmarks: one protocol round across protocols,
//! topologies, and the fast count-based paths.
//!
//! The `round/*` group × id naming is load-bearing:
//! `scripts/bench_baseline.sh` parses this harness's stdout into
//! `BENCH_baseline.json` (per-engine round throughput at m/n ∈ {10, 100,
//! 1000}), the recorded baseline future perf PRs diff against.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use slb_core::engine::count::{ClassCountState, CountRule, CountSim};
use slb_core::model::{SpeedVector, System, TaskSet, TaskState};
use slb_core::protocol::{
    Alpha, BhsBaseline, Diffusion, Protocol, SelfishUniform, SelfishWeighted,
};
use slb_graphs::generators;

fn uniform_system(graph: slb_graphs::Graph, tasks_per_node: usize) -> System {
    let n = graph.node_count();
    System::new(
        graph,
        SpeedVector::uniform(n),
        TaskSet::uniform(n * tasks_per_node),
    )
    .expect("valid instance")
}

fn weighted_system(graph: slb_graphs::Graph, tasks_per_node: usize) -> System {
    let n = graph.node_count();
    let mut rng = StdRng::seed_from_u64(1);
    let weights = (0..n * tasks_per_node)
        .map(|_| rng.gen_range(0.05..=1.0))
        .collect();
    System::new(
        graph,
        SpeedVector::uniform(n),
        TaskSet::weighted(weights).expect("weights valid"),
    )
    .expect("valid instance")
}

/// Benchmarks one round of a task-level protocol on a mid-balancing state
/// (run a few warm-up rounds first so the measured round does real work).
fn bench_task_protocol<P: Protocol>(
    c: &mut Criterion,
    group_name: &str,
    id: &str,
    system: &System,
    protocol: P,
) {
    let mut rng = StdRng::seed_from_u64(7);
    let mut state = TaskState::all_on_node(system, slb_graphs::NodeId(0));
    for _ in 0..5 {
        protocol.round(system, &mut state, &mut rng);
    }
    let mut group = c.benchmark_group(group_name);
    group.bench_function(BenchmarkId::from_parameter(id), |b| {
        b.iter(|| {
            let mut s = state.clone();
            protocol.round(system, &mut s, &mut rng)
        })
    });
    group.finish();
}

fn protocol_benches(c: &mut Criterion) {
    let ring = uniform_system(generators::ring(64), 100);
    bench_task_protocol(
        c,
        "round/selfish-uniform",
        "ring64-m6400",
        &ring,
        SelfishUniform::new(),
    );

    let torus = uniform_system(generators::torus(8, 8), 100);
    bench_task_protocol(
        c,
        "round/selfish-uniform",
        "torus8x8-m6400",
        &torus,
        SelfishUniform::new(),
    );

    let weighted = weighted_system(generators::ring(64), 100);
    bench_task_protocol(
        c,
        "round/selfish-weighted",
        "ring64-m6400",
        &weighted,
        SelfishWeighted::new(),
    );
    bench_task_protocol(
        c,
        "round/bhs-baseline",
        "ring64-m6400",
        &weighted,
        BhsBaseline::new(),
    );
    bench_task_protocol(
        c,
        "round/diffusion",
        "ring64-m6400",
        &ring,
        Diffusion::new(),
    );
}

fn fast_path_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("round/uniform-fast");
    for (label, graph, m) in [
        ("ring64-mpn10", generators::ring(64), 640u64),
        ("ring64-mpn100", generators::ring(64), 6_400u64),
        ("ring64-mpn1000", generators::ring(64), 64_000u64),
        ("ring64-m640k", generators::ring(64), 640_000u64),
        ("torus16x16-m25k", generators::torus(16, 16), 25_600u64),
    ] {
        let n = graph.node_count();
        let system = System::new(graph, SpeedVector::uniform(n), TaskSet::uniform(m as usize))
            .expect("valid instance");
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            let mut sim = CountSim::for_system(
                &system,
                CountRule::Relaxed,
                Alpha::Approximate,
                ClassCountState::all_on_node(n, 0, m),
                3,
            );
            for _ in 0..5 {
                sim.step();
            }
            b.iter(|| sim.step())
        });
    }
    group.finish();
}

/// The 2-class weighted scenario shared by the count-vs-per-task engine
/// comparisons: half weight 0.25, half weight 1.0, alternating speeds 1
/// and 2 on ring:64 (a genuinely non-uniform speed vector).
fn two_class_speed_system(tasks_per_node: usize) -> System {
    let graph = generators::ring(64);
    let n = graph.node_count();
    let m = n * tasks_per_node;
    let weights: Vec<f64> = (0..m)
        .map(|t| if t % 2 == 0 { 0.25 } else { 1.0 })
        .collect();
    System::new(
        graph,
        SpeedVector::integer((0..n as u64).map(|i| 1 + i % 2).collect()).expect("valid"),
        TaskSet::weighted(weights).expect("weights valid"),
    )
    .expect("valid instance")
}

fn two_class_hot_state(n: usize, m: usize) -> ClassCountState {
    let mut per_node = vec![vec![0u64; 2]; n];
    per_node[0] = vec![m as u64 / 2, m as u64 / 2];
    ClassCountState::new(vec![0.25, 1.0], per_node)
}

/// The count-based engines against the per-task parallel engine on the
/// same 2-class, two-speed scenario across `m/n` ∈ {10, 100, 1000} — the
/// paper's headline regimes. The count-based round is `O(|E| + n·k)`
/// versus the per-task engine's `O(m)`, so the gap widens with `m/n`;
/// the acceptance target is `round/speed-fast` ≥ 100× over
/// `round/parallel-task-*` at m/n = 1000.
fn count_engine_benches(c: &mut Criterion) {
    use slb_core::engine::parallel::ParallelSimulation;
    for (label, tasks_per_node) in [
        ("ring64-mpn10", 10usize),
        ("ring64-mpn100", 100),
        ("ring64-mpn1000", 1000),
    ] {
        let system = two_class_speed_system(tasks_per_node);
        let n = system.node_count();
        let m = system.task_count();

        let mut group = c.benchmark_group("round/weighted-fast");
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            let mut sim = CountSim::for_system(
                &system,
                CountRule::Relaxed,
                Alpha::Approximate,
                two_class_hot_state(n, m),
                3,
            );
            for _ in 0..5 {
                sim.step();
            }
            b.iter(|| sim.step())
        });
        group.finish();

        let mut group = c.benchmark_group("round/speed-fast");
        for (rule, rule_label) in [(CountRule::Relaxed, "alg2"), (CountRule::OwnWeight, "bhs")] {
            group.bench_function(
                BenchmarkId::from_parameter(format!("{rule_label}-{label}")),
                |b| {
                    let mut sim = CountSim::for_system(
                        &system,
                        rule,
                        Alpha::Approximate,
                        two_class_hot_state(n, m),
                        3,
                    );
                    for _ in 0..5 {
                        sim.step();
                    }
                    b.iter(|| sim.step())
                },
            );
        }
        group.finish();

        let mut group = c.benchmark_group("round/parallel-task-weighted");
        group.sample_size(20);
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            let mut sim = ParallelSimulation::with_layout(
                &system,
                SelfishWeighted::new(),
                TaskState::all_on_node(&system, slb_graphs::NodeId(0)),
                3,
                4096,
                1,
            );
            for _ in 0..5 {
                sim.step();
            }
            b.iter(|| sim.step())
        });
        group.finish();

        let mut group = c.benchmark_group("round/parallel-task-bhs");
        group.sample_size(20);
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            let mut sim = ParallelSimulation::with_layout(
                &system,
                BhsBaseline::new(),
                TaskState::all_on_node(&system, slb_graphs::NodeId(0)),
                3,
                4096,
                1,
            );
            for _ in 0..5 {
                sim.step();
            }
            b.iter(|| sim.step())
        });
        group.finish();
    }
}

/// Alternating hot/cold counts: every node has an imbalanced neighbor,
/// so a measured round keeps doing real threshold checks *and* real
/// sampling work even after the initial transient levels out (random
/// fluctuations of order √load keep adjacent gaps above the threshold).
fn alternating_counts(n: usize, per_hot: u64) -> Vec<u64> {
    (0..n)
        .map(|v| if v % 2 == 0 { per_hot } else { 0 })
        .collect()
}

/// The tentpole scaling ladder: one sharded round per engine at
/// n ∈ {2¹⁰, 2¹⁶, 2²⁰}. At n = 2²⁰ the uniform instance carries
/// m ≈ 10⁸ tasks (the ISSUE acceptance target: well under a second per
/// round), measured on ring, torus, and hypercube (the expander family),
/// plus an 8-worker variant of the ring.
/// `scripts/bench_baseline.sh` parses the `-n<size>` ids into the
/// committed BENCH snapshots, so the naming is load-bearing.
fn scale_benches(c: &mut Criterion) {
    let per_hot = 190u64; // ≈ 10⁸ tasks at n = 2²⁰

    let mut group = c.benchmark_group("round/uniform-fast-scale");
    group.sample_size(10);
    let mut cases: Vec<(String, slb_graphs::Graph)> = vec![
        ("ring-n1024".into(), generators::ring(1 << 10)),
        ("ring-n65536".into(), generators::ring(1 << 16)),
        ("ring-n1048576".into(), generators::ring(1 << 20)),
        ("torus-n1048576".into(), generators::torus(1 << 10, 1 << 10)),
        ("hypercube-n1048576".into(), generators::hypercube(20)),
    ];
    for (label, graph) in cases.drain(..) {
        let n = graph.node_count();
        let counts = alternating_counts(n, per_hot);
        let m: u64 = counts.iter().sum();
        let system = System::new(graph, SpeedVector::uniform(n), TaskSet::uniform(m as usize))
            .expect("valid instance");
        for threads in if n == 1 << 20 && label.starts_with("ring") {
            vec![1usize, 8]
        } else {
            vec![1usize]
        } {
            let id = if threads == 1 {
                label.clone()
            } else {
                format!("{label}-t{threads}")
            };
            group.bench_function(BenchmarkId::from_parameter(id), |b| {
                let mut sim = CountSim::for_system(
                    &system,
                    CountRule::Relaxed,
                    Alpha::Approximate,
                    ClassCountState::unit(counts.clone()),
                    3,
                )
                .with_threads(threads);
                for _ in 0..3 {
                    sim.step();
                }
                b.iter(|| sim.step())
            });
        }
    }
    group.finish();

    // The 2-class engines on the same ladder: counts split evenly across
    // the two classes, alternating speeds 1/2 for the speed-aware rules.
    let two_class_state = |n: usize| {
        let per_node: Vec<Vec<u64>> = (0..n)
            .map(|v| {
                if v % 2 == 0 {
                    vec![per_hot / 2, per_hot / 2]
                } else {
                    vec![0, 0]
                }
            })
            .collect();
        ClassCountState::new(vec![0.25, 1.0], per_node)
    };
    let two_class_system = |n: usize| {
        let m = (n as u64 / 2) * per_hot;
        // The count engine reads class weights from `ClassCountState`, not
        // from the task set (only the total count is cross-checked), so a
        // uniform carrier avoids materializing 10⁸ per-task weights.
        System::new(
            generators::ring(n),
            SpeedVector::integer((0..n as u64).map(|i| 1 + i % 2).collect()).expect("valid"),
            TaskSet::uniform(m as usize),
        )
        .expect("valid instance")
    };

    let sizes = [1usize << 10, 1 << 16, 1 << 20];

    let mut group = c.benchmark_group("round/weighted-fast-scale");
    group.sample_size(10);
    for n in sizes {
        let system = two_class_system(n);
        group.bench_function(BenchmarkId::from_parameter(format!("ring-n{n}")), |b| {
            let mut sim = CountSim::for_system(
                &system,
                CountRule::Relaxed,
                Alpha::Approximate,
                two_class_state(n),
                3,
            );
            for _ in 0..3 {
                sim.step();
            }
            b.iter(|| sim.step())
        });
    }
    group.finish();

    let mut group = c.benchmark_group("round/speed-fast-scale");
    group.sample_size(10);
    for n in sizes {
        let system = two_class_system(n);
        for (rule, rule_label) in [(CountRule::Relaxed, "alg2"), (CountRule::OwnWeight, "bhs")] {
            if rule == CountRule::OwnWeight && n < 1 << 20 {
                continue; // bhs scales identically; record the top size only
            }
            group.bench_function(
                BenchmarkId::from_parameter(format!("{rule_label}-ring-n{n}")),
                |b| {
                    let mut sim = CountSim::for_system(
                        &system,
                        rule,
                        Alpha::Approximate,
                        two_class_state(n),
                        3,
                    );
                    for _ in 0..3 {
                        sim.step();
                    }
                    b.iter(|| sim.step())
                },
            );
        }
    }
    group.finish();
}

/// Arrival-injection overhead: one dynamic round with Poisson arrivals
/// vs one static round of the same engine, both measured from a freshly
/// warmed state on the same ring × hot-count instances as
/// `round/uniform-fast-scale` ring-n1024 / ring-n65536. The setup (sim
/// construction + 3 warm-up rounds) is excluded from the timing, so the
/// `poisson-…` / `static-…` id pair diffs to the per-round cost of
/// injecting ~rate·n arrivals (acceptance: under 2× the static round).
fn dynamic_benches(c: &mut Criterion) {
    use slb_core::engine::count::{ArrivalProcess, DynamicConfig};

    let per_hot = 190u64;
    let mut group = c.benchmark_group("round/dynamic");
    group.sample_size(10);
    for n in [1usize << 10, 1 << 16] {
        let counts = alternating_counts(n, per_hot);
        let m: u64 = counts.iter().sum();
        let system = System::new(
            generators::ring(n),
            SpeedVector::uniform(n),
            TaskSet::uniform(m as usize),
        )
        .expect("valid instance");
        for (label, cfg) in [
            ("static", DynamicConfig::default()),
            (
                "poisson",
                DynamicConfig {
                    arrivals: Some(ArrivalProcess::Poisson { rate: 0.5 }),
                    ..DynamicConfig::default()
                },
            ),
        ] {
            group.bench_function(
                BenchmarkId::from_parameter(format!("{label}-ring-n{n}")),
                |b| {
                    b.iter_batched(
                        || {
                            let mut sim = CountSim::for_system(
                                &system,
                                CountRule::Relaxed,
                                Alpha::Approximate,
                                ClassCountState::unit(counts.clone()),
                                3,
                            )
                            .with_dynamics(cfg);
                            for _ in 0..3 {
                                sim.step();
                            }
                            sim
                        },
                        |mut sim| {
                            sim.step();
                            sim
                        },
                        BatchSize::LargeInput,
                    )
                },
            );
        }
    }
    group.finish();
}

fn parallel_engine_benches(c: &mut Criterion) {
    use slb_core::engine::parallel::ParallelSimulation;
    let system = uniform_system(generators::torus(16, 16), 200); // m = 51200
    let mut group = c.benchmark_group("round/parallel-engine");
    group.sample_size(20);
    for threads in [1usize, 2, 4] {
        group.bench_function(
            BenchmarkId::from_parameter(format!("threads{threads}")),
            |b| {
                let mut sim = ParallelSimulation::with_layout(
                    &system,
                    SelfishUniform::new(),
                    TaskState::all_on_node(&system, slb_graphs::NodeId(0)),
                    5,
                    4096,
                    threads,
                );
                for _ in 0..3 {
                    sim.step();
                }
                b.iter(|| sim.step())
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    protocol_benches,
    fast_path_benches,
    count_engine_benches,
    scale_benches,
    dynamic_benches,
    parallel_engine_benches
);
criterion_main!(benches);
