//! The workloads replayed in-process through the crates' public
//! functions, with the same seeds, dispatch and stop rules as `slb
//! validate`, `slb sweep` and one-policy `slb serve` invocations, so the
//! replay's rounds, migrations and job counts equal the CLI artifacts'.
//! Trials run one after another on one thread; results do not depend on
//! the thread count.

use crate::engine::{Engine, Start};
use crate::trace::{Layer, Tracer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use slb_analysis::serve::{run_serve, ServeSpec};
use slb_analysis::sweep::EngineKind;
use slb_analysis::theory::{self, Instance};
use slb_core::equilibrium::Threshold;
use slb_core::model::System;
use slb_core::rng::{derive_seed, rng_for, streams};
use slb_graphs::generators::Family;
use slb_serve::{PolicyKind, ServeConfig};
use slb_workloads::placement::Placement;
use slb_workloads::speeds::SpeedDistribution;
use slb_workloads::weights::WeightDistribution;
use slb_workloads::{
    scenario, BuiltScenario, ProtocolKind, Regime, StopRule, SweepSpec, ValidateSpec,
};

/// One trial: `group` is the sweep cell or the ladder point
/// (`row · sizes + point`), as in the CLI's seed derivation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialRecord {
    pub group: usize,
    pub rounds: u64,
    pub reached: bool,
    pub migrations: u64,
}

/// One policy's serve run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyRecord {
    pub policy: PolicyKind,
    pub offered: u64,
    pub completed: u64,
    pub failed: u64,
    pub retries: u64,
}

/// The target a trial runs to.
#[derive(Debug, Clone, Copy)]
enum Stop {
    Psi0Below(f64),
    Nash,
}

/// Builds a trial's topology and scenario from its scenario seed.
fn build(
    tr: &mut Tracer,
    family: Family,
    speeds: SpeedDistribution,
    weights: WeightDistribution,
    placement: Placement,
    tasks_per_node: usize,
    trial_seed: u64,
) -> BuiltScenario {
    let graph = tr.time(Layer::GraphBuild, || family.build(), |_| 0);
    let mut rng = StdRng::seed_from_u64(derive_seed(trial_seed, 0, streams::trial::SCENARIO));
    tr.time(
        Layer::Scenario,
        || scenario::build(graph, speeds, weights, placement, tasks_per_node, &mut rng),
        |_| 0,
    )
    .expect("validated specs build")
}

/// Runs one trial to `stop`, checking it before every round and once more
/// when the budget runs out (the CLI's run loop); censored trials report
/// the budget as their rounds.
#[allow(clippy::too_many_arguments)]
fn run_trial(
    tr: &mut Tracer,
    built: &BuiltScenario,
    protocol: ProtocolKind,
    uniform: bool,
    threshold: Threshold,
    stop: Stop,
    max_rounds: u64,
    trial_seed: u64,
    group: usize,
) -> TrialRecord {
    let start = tr.time(
        Layer::ClassState,
        || Start::of(built, protocol, uniform),
        |_| 0,
    );
    let sim_seed = derive_seed(trial_seed, 0, streams::trial::SIM);
    let mut engine = Engine::new(&built.system, protocol, start, threshold, sim_seed);
    let met = |tr: &mut Tracer, engine: &Engine| {
        tr.time(
            Layer::StopCheck,
            || match stop {
                Stop::Psi0Below(bound) => engine.psi0() <= bound,
                Stop::Nash => engine.is_nash(),
            },
            |_| 0,
        )
    };
    let mut migrations = 0;
    for executed in 0..max_rounds {
        if met(tr, &engine) {
            return TrialRecord {
                group,
                rounds: executed,
                reached: true,
                migrations,
            };
        }
        migrations += tr.time(Layer::Step, || engine.step(), |&moved| moved);
    }
    TrialRecord {
        group,
        rounds: max_rounds,
        reached: met(tr, &engine),
        migrations,
    }
}

/// The Theorem 1.1/1.3 target `Ψ₀ ≤ 4ψ_c` of one built instance, as `slb
/// validate` computes it for the `approx` regime.
fn psi_target(system: &System, family: Family, uniform: bool) -> f64 {
    let speeds = system.speeds();
    let inst = Instance {
        n: system.node_count(),
        total_work: system.tasks().total_weight(),
        max_degree: system.graph().max_degree(),
        lambda2: slb_spectral::closed_form::lambda2_family(family),
        s_min: speeds.min(),
        s_max: speeds.max(),
        s_total: speeds.total(),
        granularity: speeds.granularity(),
    };
    4.0 * if uniform {
        theory::psi_c(&inst)
    } else {
        theory::psi_c_weighted(&inst)
    }
}

/// Replays `slb validate` (the `approx` regime, count-engine protocols).
pub fn validate(
    spec: &ValidateSpec,
    base_seed: u64,
    tr: &mut Tracer,
) -> Result<Vec<TrialRecord>, String> {
    slb_analysis::validate::validate(spec).map_err(|e| e.to_string())?;
    if spec.regimes != [Regime::Approx] {
        return Err("the replay covers the approx regime only".into());
    }
    let uniform = spec.weights == WeightDistribution::Unit;
    let threshold = if uniform {
        Threshold::UnitWeight
    } else {
        Threshold::LightestTask
    };
    let points = spec.sizes.len();
    let mut records = Vec::new();
    for (r, row) in spec.rows().iter().enumerate() {
        require_count_engine(row.protocol)?;
        for (p, &n) in spec.sizes.iter().enumerate() {
            let group = r * points + p;
            let family = row.family.resolve(n).expect("validated rows resolve");
            for t in 0..spec.trials {
                let seed = derive_seed(base_seed, group as u64, t as u64);
                let trial = tr.enter(Layer::Trial);
                let built = build(
                    tr,
                    family,
                    spec.speeds,
                    spec.weights,
                    spec.placement,
                    row.load.tasks_per_node(n),
                    seed,
                );
                let stop = Stop::Psi0Below(psi_target(&built.system, family, uniform));
                let record = run_trial(
                    tr,
                    &built,
                    row.protocol,
                    uniform,
                    threshold,
                    stop,
                    spec.max_rounds,
                    seed,
                    group,
                );
                tr.exit(trial, record.rounds);
                records.push(record);
            }
        }
    }
    Ok(records)
}

/// Replays `slb sweep` (static cells of the count engines, `until=nash`).
pub fn sweep(
    spec: &SweepSpec,
    base_seed: u64,
    tr: &mut Tracer,
) -> Result<Vec<TrialRecord>, String> {
    slb_analysis::sweep::validate(spec).map_err(|e| e.to_string())?;
    let cells = spec.cells();
    for cell in &cells {
        if !matches!(
            EngineKind::for_cell(cell),
            EngineKind::UniformFast | EngineKind::WeightedFast | EngineKind::SpeedFast
        ) {
            return Err("the replay covers static cells of alg1, alg2 and bhs only".into());
        }
        if cell.stop != StopRule::Nash {
            return Err("the replay covers the nash stop rule only".into());
        }
    }
    let mut records = Vec::new();
    for (c, cell) in cells.iter().enumerate() {
        for t in 0..spec.trials {
            let seed = derive_seed(base_seed, c as u64, t as u64);
            let trial = tr.enter(Layer::Trial);
            let built = build(
                tr,
                cell.graph,
                cell.speeds,
                cell.weights,
                cell.placement,
                cell.tasks_per_node,
                seed,
            );
            let threshold = if built.system.tasks().is_uniform() {
                Threshold::UnitWeight
            } else {
                Threshold::LightestTask
            };
            let record = run_trial(
                tr,
                &built,
                cell.protocol,
                cell.is_uniform_tasks(),
                threshold,
                Stop::Nash,
                spec.max_rounds,
                seed,
                c,
            );
            tr.exit(trial, record.rounds);
            records.push(record);
        }
    }
    Ok(records)
}

fn require_count_engine(protocol: ProtocolKind) -> Result<(), String> {
    match protocol {
        ProtocolKind::Alg1 | ProtocolKind::Alg2 | ProtocolKind::Bhs => Ok(()),
        other => Err(format!(
            "protocol `{}` has no count engine",
            other.grid_label()
        )),
    }
}

/// Replays one `slb serve … policy=<p> --threads 1` invocation per policy
/// of `spec` (each the only policy of its invocation, so each runs on the
/// policy seed of index 0), then one `run_serve` of the first policy, and
/// checks that every run conserves jobs.
pub fn serve(
    spec: &ServeSpec,
    base_seed: u64,
    tr: &mut Tracer,
) -> Result<Vec<PolicyRecord>, String> {
    let graph = tr.time(Layer::GraphBuild, || spec.family.build(), |_| 0);
    let mut scenario_rng = rng_for(base_seed, 0, streams::trial::SCENARIO);
    let speeds = tr.time(
        Layer::Scenario,
        || spec.speeds.sample(graph.node_count(), &mut scenario_rng),
        |_| 0,
    );
    let config = ServeConfig {
        graph: &graph,
        speeds: &speeds,
        traffic: spec.traffic,
        weights: spec.weights,
        faults: spec.faults,
        signal: spec.signal,
        retry: spec.retry,
        horizon: spec.horizon,
        scenario_seed: derive_seed(base_seed, 0, streams::trial::SCENARIO),
        policy_seed: derive_seed(base_seed, 0, streams::trial::SIM),
    };
    let mut records = Vec::new();
    for (i, &policy) in spec.policies.iter().enumerate() {
        let outcome = tr.time(
            Layer::ServeRun(i),
            || slb_serve::run(&config, policy),
            |o| o.jobs_offered,
        );
        let completed = outcome.jobs.len() as u64;
        if completed + outcome.failed_jobs != outcome.jobs_offered {
            return Err(format!(
                "{}: {completed} completed + {} failed jobs != {} offered",
                policy.label(),
                outcome.failed_jobs,
                outcome.jobs_offered
            ));
        }
        records.push(PolicyRecord {
            policy,
            offered: outcome.jobs_offered,
            completed,
            failed: outcome.failed_jobs,
            retries: outcome.retries_total,
        });
    }
    let single = ServeSpec {
        policies: spec.policies[..1].to_vec(),
        ..spec.clone()
    };
    let report = tr.time(Layer::RunServe, || run_serve(&single, base_seed, 1), |_| 0);
    let row = &report.rows[0];
    if (row.jobs_offered, row.failed_jobs) != (records[0].offered, records[0].failed) {
        return Err(format!(
            "run_serve and slb_serve::run disagree for {}",
            row.policy.label()
        ));
    }
    Ok(records)
}
