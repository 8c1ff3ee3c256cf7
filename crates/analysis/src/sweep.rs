//! The protocol-generic sweep engine: executes a declarative
//! [`SweepSpec`] grid end-to-end and renders schema-stable CSV/JSON.
//!
//! For every cell of the grid the engine
//!
//! 1. runs each static trial through the shared [`Trial`] runner — the
//!    scenario built from a per-trial seed derived with
//!    [`derive_seed`](slb_core::rng::derive_seed)`(base_seed, cell_index,
//!    trial)`, the engine picked by [`EngineKind::for_cell`] — and each
//!    dynamic trial (arrivals / completions / churn / speed dynamics) on
//!    the count engine [`CountSim`] with the cell's event layer, for a
//!    fixed horizon,
//! 2. fans the flattened `(cell, trial)` work items out across threads via
//!    [`run_cell_trials`], and
//! 3. aggregates per-cell [`Summary`] rows.
//!
//! Because every trial's randomness is a pure function of
//! `(base seed, cell index, trial)` and each trial runs on one thread,
//! the sweep artifact is **byte-identical for the same seed regardless of
//! the thread count** — the property the golden-file tests pin down.

use crate::runner::run_cell_trials;
pub use crate::runner::RunConfig as SweepConfig;
use crate::stats::Summary;
pub use crate::trial::EngineKind;
use crate::trial::Trial;
use slb_core::engine::count::{ArrivalProcess, CountSim, SpeedDynamics};
use slb_core::equilibrium::Threshold;
use slb_core::protocol::Alpha;
use slb_workloads::placement::Placement;
use slb_workloads::sweep::{
    arrivals_grid_label, churn_grid_label, completions_grid_label, family_grid_label,
    placement_grid_label, speed_dyn_grid_label, speeds_grid_label, weights_grid_label, CellSpec,
    SweepSpec,
};
use std::fmt;
use std::fmt::Write as _;

/// Aggregated metrics of one executed cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellStats {
    /// Fraction of trials that met the stop rule within the budget.
    pub reached_fraction: f64,
    /// Rounds to the stop rule (budget value for censored trials).
    pub rounds: Summary,
    /// Total migrations per trial.
    pub migrations: Summary,
    /// `Ψ₀` of the final state per trial.
    pub psi0_final: Summary,
    /// Time-averaged Nash gap over the horizon (dynamic cells; 0 for
    /// static cells, whose quality metric is the stop rule itself).
    pub nash_gap_tavg: Summary,
    /// Rounds from the speed shock until the Nash gap first returns to
    /// its pre-shock level, over the trials that *did* recover (dynamic
    /// cells with `speed-dyn=shock:…`; 0 otherwise). Trials whose gap
    /// never re-entered the band are censored: excluded from this
    /// summary and counted in [`CellStats::unrecovered_trials`] instead
    /// of being folded in at horizon − shock (which was
    /// indistinguishable from a genuine recovery of that length).
    pub recovery_rounds: Summary,
    /// Trials censored out of `recovery_rounds`: the shock fired but the
    /// gap never returned to the 5% band within the horizon.
    pub unrecovered_trials: usize,
}

/// One row of the sweep artifact.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Cell index in grid order (also the seed-derivation key).
    pub index: usize,
    /// The configuration measured.
    pub spec: CellSpec,
    /// Nodes of the built topology.
    pub n: usize,
    /// Tasks (`tasks_per_node · n`).
    pub m: usize,
    /// Engine the cell dispatched to.
    pub engine: EngineKind,
    /// Metrics.
    pub stats: CellStats,
}

/// A fully executed sweep: per-cell rows plus the run parameters that a
/// schema-stable artifact must echo.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Base seed of the run.
    pub base_seed: u64,
    /// Trials per cell.
    pub trials: usize,
    /// Round budget per trial.
    pub max_rounds: u64,
    /// Per-cell results, in grid order.
    pub cells: Vec<CellResult>,
}

/// An error preparing a sweep (the grid parsed, but a cell cannot be
/// built).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepRunError(String);

impl fmt::Display for SweepRunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sweep error: {}", self.0)
    }
}

impl std::error::Error for SweepRunError {}

/// The largest population whose loads stay exact: `f64` represents every
/// integer only up to 2⁵³.
const MAX_EXACT_POPULATION: f64 = 9_007_199_254_740_992.0;

/// Validates that every cell of the spec can actually be built (graph
/// sizes respect family minimums, placement nodes are in range, arrivals
/// keep the population exact within the round budget).
///
/// # Errors
///
/// Returns a [`SweepRunError`] naming the first invalid cell.
pub fn validate(spec: &SweepSpec) -> Result<(), SweepRunError> {
    for cell in spec.cells() {
        cell.graph.check_size().map_err(|e| {
            SweepRunError(format!(
                "graph `{}` is below the family's minimum size: {e}",
                family_grid_label(cell.graph)
            ))
        })?;
        let n = cell.graph.node_count();
        if let Placement::AllOnNode(v) = cell.placement {
            if v >= n {
                return Err(SweepRunError(format!(
                    "placement `node:{v}` is out of range for `{}` ({n} nodes)",
                    family_grid_label(cell.graph)
                )));
            }
        }
        if cell.is_dynamic() && cell.protocol.count_rule().is_none() {
            return Err(SweepRunError(format!(
                "protocol `{}` has no dynamic-scenario engine (the arrivals/completions/churn/\
                 speed-dyn axes run count-based: use alg1|alg2|bhs)",
                cell.protocol.grid_label()
            )));
        }
        if let Some(arrivals) = cell.arrivals {
            // Churn only shrinks the live set, so `n` nodes bound the
            // Poisson total of every round.
            let rounds = spec.max_rounds as f64;
            let arrived = match arrivals {
                ArrivalProcess::Poisson { rate } => rate * n as f64 * rounds,
                ArrivalProcess::Batch { size, period } => {
                    size as f64 * spec.max_rounds.div_ceil(period.max(1)) as f64
                }
            };
            let population = (n * cell.tasks_per_node) as f64 + arrived;
            if population > MAX_EXACT_POPULATION {
                return Err(SweepRunError(format!(
                    "arrivals `{}` can grow the population to {population:.3e} tasks within \
                     --max-rounds {}, past 2^53 (loads are exact only up to 2^53 tasks): lower \
                     the arrival rate or the round budget",
                    arrivals_grid_label(Some(arrivals)),
                    spec.max_rounds
                )));
            }
        }
    }
    Ok(())
}

/// One trial's raw observations.
#[derive(Debug, Clone, Copy)]
struct RawTrial {
    rounds: u64,
    reached: bool,
    migrations: u64,
    psi0_final: f64,
    /// Time-averaged Nash gap (dynamic trials; 0 for static trials).
    nash_gap_tavg: f64,
    /// Post-shock recovery rounds: `Some(r)` when observed (0 for
    /// trials without a shock), `None` when censored — the shock fired
    /// but the gap never re-entered the band within the horizon.
    recovery_rounds: Option<f64>,
}

/// Runs one dynamic trial: exactly `max_rounds` rounds of the event
/// layer + kernel, tracking the per-round Nash gap for the steady-state
/// metrics. There is no stop rule — a system under load has nothing to
/// converge *to*; the horizon itself is the experiment.
fn run_dynamic(sim: &mut CountSim, threshold: Threshold, max_rounds: u64) -> RawTrial {
    let shock_round = match sim.config().speed_dynamics {
        Some(SpeedDynamics::Shock { round, .. }) if round < max_rounds => Some(round),
        _ => None,
    };
    let mut migrations = 0u64;
    let mut gap_sum = 0.0f64;
    let mut baseline: Option<f64> = None;
    let mut recovery: Option<u64> = None;
    for r in 0..max_rounds {
        if Some(r) == shock_round {
            baseline = Some(sim.nash_gap(threshold));
        }
        let report = sim.step();
        migrations += report.migrations;
        let gap = sim.nash_gap(threshold);
        gap_sum += gap;
        if let (Some(b), None, Some(sr)) = (baseline, recovery, shock_round) {
            if gap <= b * 1.05 + 1e-12 {
                recovery = Some(r + 1 - sr);
            }
        }
    }
    let recovery_rounds = match (shock_round, recovery) {
        (None, _) => Some(0.0),
        (Some(_), Some(rounds)) => Some(rounds as f64),
        // Censored: the gap never came back within the horizon. Folding
        // `horizon − shock` into the mean here made a never-recovered
        // trial indistinguishable from one that genuinely recovered at
        // the horizon's edge; censored trials are excluded from the
        // summary and surface in `unrecovered_trials` instead.
        (Some(_), None) => None,
    };
    RawTrial {
        rounds: max_rounds,
        reached: true,
        migrations,
        psi0_final: sim.psi0(),
        nash_gap_tavg: gap_sum / max_rounds as f64,
        recovery_rounds,
    }
}

/// Executes one trial of one cell: static cells on the shared [`Trial`]
/// runner, dynamic cells on [`CountSim`] with the cell's event layer.
/// `shard_threads` caps the *within-round* worker fan-out of the count
/// engine (its sharded kernel); it never changes results.
fn run_trial(cell: &CellSpec, trial_seed: u64, max_rounds: u64, shard_threads: usize) -> RawTrial {
    let trial = Trial::of_cell(cell, trial_seed).expect("validated cells build");
    if cell.is_dynamic() {
        let rule = cell
            .protocol
            .count_rule()
            .expect("validation rejects dynamic × sequential protocols");
        let state = trial.class_state();
        let mut sim = CountSim::for_system(
            &trial.built.system,
            rule,
            Alpha::Approximate,
            state,
            trial.sim_seed,
        )
        .with_dynamics(cell.dynamic_config())
        .with_threads(shard_threads);
        return run_dynamic(&mut sim, trial.threshold(), max_rounds);
    }
    let condition = trial.condition(cell.stop);
    let outcome = trial.run(cell.protocol, condition, max_rounds, shard_threads);
    RawTrial {
        rounds: outcome.run.rounds,
        reached: outcome.run.reached(),
        migrations: outcome.run.migrations,
        psi0_final: outcome.psi0,
        nash_gap_tavg: 0.0,
        recovery_rounds: Some(0.0),
    }
}

/// Executes a sweep: every cell of the grid, `spec.trials` seeded trials
/// each, fanned out over `config.threads` threads.
///
/// # Errors
///
/// Returns a [`SweepRunError`] if a cell cannot be built (see
/// [`validate`]).
///
/// # Panics
///
/// Panics if `config.threads == 0` or `spec.trials == 0`.
pub fn run_sweep(spec: &SweepSpec, config: SweepConfig) -> Result<SweepOutcome, SweepRunError> {
    validate(spec)?;
    let cells = spec.cells();
    let keys: Vec<u64> = (0..cells.len() as u64).collect();
    // One thread budget covers both parallelism levels: trial workers get
    // the whole budget; whatever cannot be used across `(cell, trial)`
    // work items flows down into each trial's sharded rounds. Results
    // depend on neither knob.
    let work_items = cells.len() * spec.trials;
    let shard_threads = (config.threads / work_items.max(1)).max(1);
    let trials = run_cell_trials(
        &keys,
        spec.trials,
        config.base_seed,
        config.threads,
        |pos, _trial, seed| run_trial(&cells[pos], seed, spec.max_rounds, shard_threads),
    );

    let results = cells
        .iter()
        .zip(trials)
        .enumerate()
        .map(|(index, (&cell, raw))| {
            let engine = EngineKind::for_cell(&cell);
            let n = cell.graph.node_count();
            let rounds: Vec<f64> = raw.iter().map(|t| t.rounds as f64).collect();
            let migrations: Vec<f64> = raw.iter().map(|t| t.migrations as f64).collect();
            let psi0: Vec<f64> = raw.iter().map(|t| t.psi0_final).collect();
            let gaps: Vec<f64> = raw.iter().map(|t| t.nash_gap_tavg).collect();
            // Censored trials (shock fired, gap never re-entered the
            // band) are excluded from the recovery summary and counted
            // separately; a cell whose every trial was censored renders
            // the empty summary rather than a fabricated mean.
            let recoveries: Vec<f64> = raw.iter().filter_map(|t| t.recovery_rounds).collect();
            let unrecovered_trials = raw.iter().filter(|t| t.recovery_rounds.is_none()).count();
            let stats = CellStats {
                reached_fraction: raw.iter().filter(|t| t.reached).count() as f64
                    / raw.len() as f64,
                rounds: Summary::of(&rounds),
                migrations: Summary::of(&migrations),
                psi0_final: Summary::of(&psi0),
                nash_gap_tavg: Summary::of(&gaps),
                recovery_rounds: if recoveries.is_empty() {
                    Summary::empty()
                } else {
                    Summary::of(&recoveries)
                },
                unrecovered_trials,
            };
            CellResult {
                index,
                spec: cell,
                n,
                m: n * cell.tasks_per_node,
                engine,
                stats,
            }
        })
        .collect();
    Ok(SweepOutcome {
        base_seed: config.base_seed,
        trials: spec.trials,
        max_rounds: spec.max_rounds,
        cells: results,
    })
}

/// The exact header line of the sweep CSV artifact (schema-stable; the
/// golden-file tests and external figure scripts both key on it).
pub const CSV_HEADER: &str = "cell,graph,n,m,protocol,engine,speeds,weights,placement,until,\
                              arrivals,completions,churn,speed-dyn,trials,base_seed,max_rounds,\
                              reached_fraction,rounds_mean,rounds_std,rounds_min,rounds_median,\
                              rounds_max,migrations_mean,psi0_final_mean,nash_gap_tavg_mean,\
                              recovery_rounds_mean,unrecovered_trials";

impl SweepOutcome {
    /// Renders the sweep as deterministic CSV: [`CSV_HEADER`] followed by
    /// one row per cell in grid order. Floats use Rust's shortest
    /// round-trip formatting, so the artifact is byte-stable across runs,
    /// thread counts, and platforms.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(CSV_HEADER);
        out.push('\n');
        for cell in &self.cells {
            let s = &cell.stats;
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                cell.index,
                family_grid_label(cell.spec.graph),
                cell.n,
                cell.m,
                cell.spec.protocol.grid_label(),
                cell.engine.label(),
                speeds_grid_label(cell.spec.speeds),
                weights_grid_label(cell.spec.weights),
                placement_grid_label(cell.spec.placement),
                cell.spec.stop.grid_label(),
                arrivals_grid_label(cell.spec.arrivals),
                completions_grid_label(cell.spec.completions),
                churn_grid_label(cell.spec.churn),
                speed_dyn_grid_label(cell.spec.speed_dyn),
                self.trials,
                self.base_seed,
                self.max_rounds,
                s.reached_fraction,
                s.rounds.mean,
                s.rounds.std_dev,
                s.rounds.min,
                s.rounds.median,
                s.rounds.max,
                s.migrations.mean,
                s.psi0_final.mean,
                s.nash_gap_tavg.mean,
                s.recovery_rounds.mean,
                s.unrecovered_trials,
            );
        }
        out
    }

    /// Renders the sweep as a JSON array: one object per cell with the
    /// same fields as the CSV columns (plus nested round statistics), and
    /// an identical schema for every object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, cell) in self.cells.iter().enumerate() {
            let _ = write!(
                out,
                "  {{\"cell\":{},\"graph\":\"{}\",\"n\":{},\"m\":{},\"protocol\":\"{}\",\
                 \"engine\":\"{}\",\"speeds\":\"{}\",\"weights\":\"{}\",\"placement\":\"{}\",\
                 \"until\":\"{}\",\"arrivals\":\"{}\",\"completions\":\"{}\",\"churn\":\"{}\",\
                 \"speed_dyn\":\"{}\",\"trials\":{},\"base_seed\":{},\"max_rounds\":{}",
                cell.index,
                family_grid_label(cell.spec.graph),
                cell.n,
                cell.m,
                cell.spec.protocol.grid_label(),
                cell.engine.label(),
                speeds_grid_label(cell.spec.speeds),
                weights_grid_label(cell.spec.weights),
                placement_grid_label(cell.spec.placement),
                cell.spec.stop.grid_label(),
                arrivals_grid_label(cell.spec.arrivals),
                completions_grid_label(cell.spec.completions),
                churn_grid_label(cell.spec.churn),
                speed_dyn_grid_label(cell.spec.speed_dyn),
                self.trials,
                self.base_seed,
                self.max_rounds,
            );
            let s = &cell.stats;
            let _ = write!(
                out,
                ",\"reached_fraction\":{},\"rounds\":{{\"mean\":{},\"std\":{},\"min\":{},\
                 \"median\":{},\"max\":{}}},\"migrations_mean\":{},\"psi0_final_mean\":{},\
                 \"nash_gap_tavg_mean\":{},\"recovery_rounds_mean\":{},\
                 \"unrecovered_trials\":{}",
                s.reached_fraction,
                s.rounds.mean,
                s.rounds.std_dev,
                s.rounds.min,
                s.rounds.median,
                s.rounds.max,
                s.migrations.mean,
                s.psi0_final.mean,
                s.nash_gap_tavg.mean,
                s.recovery_rounds.mean,
                s.unrecovered_trials,
            );
            out.push('}');
            if i + 1 < self.cells.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slb_workloads::sweep::ProtocolKind;

    fn small_spec(tokens: &[&str]) -> SweepSpec {
        SweepSpec::parse(tokens).unwrap()
    }

    #[test]
    fn engine_dispatch_table() {
        let spec = small_spec(&[
            "protocol=alg1,alg2,bhs,diffusion,best-response",
            "weights=unit,uniform:0.2..0.9",
        ]);
        let engines: Vec<EngineKind> = spec.cells().iter().map(EngineKind::for_cell).collect();
        // Weights is an outer axis relative to protocol: all five
        // protocols on unit weights first, then on weighted tasks. Every
        // randomized protocol runs count-based — alg2/bhs on the
        // speed-aware engine in both task modes.
        assert_eq!(
            engines,
            vec![
                EngineKind::UniformFast,
                EngineKind::SpeedFast,
                EngineKind::SpeedFast,
                EngineKind::Sequential,
                EngineKind::Sequential,
                EngineKind::WeightedFast,
                EngineKind::SpeedFast,
                EngineKind::SpeedFast,
                EngineKind::Sequential,
                EngineKind::Sequential,
            ]
        );
    }

    #[test]
    fn default_sweep_runs_and_reaches_nash() {
        let spec = SweepSpec {
            tasks_per_node: vec![8],
            trials: 2,
            max_rounds: 100_000,
            ..SweepSpec::default()
        };
        let out = run_sweep(&spec, SweepConfig::sequential(7)).unwrap();
        assert_eq!(out.cells.len(), 1);
        let stats = out.cells[0].stats;
        assert_eq!(stats.reached_fraction, 1.0);
        assert!(stats.rounds.max < 100_000.0);
        assert!(stats.migrations.min > 0.0, "hot start must move tasks");
        assert_eq!(out.cells[0].engine, EngineKind::UniformFast);
    }

    #[test]
    fn all_five_protocols_and_both_modes_in_one_grid() {
        let spec = small_spec(&[
            "graph=ring:6",
            "tasks-per-node=6",
            "protocol=alg1,alg2,bhs,diffusion,best-response",
            "weights=unit,uniform:0.2..0.9",
            "until=quiescent:20",
            "trials=2",
            "max-rounds=20000",
        ]);
        let out = run_sweep(&spec, SweepConfig::parallel(3)).unwrap();
        assert_eq!(out.cells.len(), 10);
        for cell in &out.cells {
            let s = cell.stats;
            assert_eq!(
                s.reached_fraction, 1.0,
                "cell {} did not quiesce: {:?}",
                cell.index, cell.spec
            );
        }
        // The alg1 × weighted cell runs on the weight-class engine and
        // carries real statistics.
        let alg1_weighted = out
            .cells
            .iter()
            .find(|c| c.spec.protocol == ProtocolKind::Alg1 && !c.spec.is_uniform_tasks())
            .expect("grid contains alg1 × weighted");
        assert_eq!(alg1_weighted.engine, EngineKind::WeightedFast);
        let s = alg1_weighted.stats;
        assert!(s.migrations.min > 0.0, "hot start must move tasks");
        assert!(s.psi0_final.mean.is_finite());
        // The CSV has one row per cell, header first.
        let csv = out.to_csv();
        assert_eq!(csv.lines().count(), 11);
        assert_eq!(csv.lines().next().unwrap(), CSV_HEADER);
        assert!(csv.contains(",weighted-fast,"));
        assert!(csv.contains(",speed-fast,"));
        // No alg2/bhs cell falls back to a per-task engine.
        for line in csv
            .lines()
            .filter(|l| l.contains(",alg2,") || l.contains(",bhs,"))
        {
            assert!(line.contains(",speed-fast,"), "row: {line}");
        }
        // Every JSON object carries the full field set (homogeneous
        // schema).
        let json = out.to_json();
        let objects = json.lines().filter(|l| l.trim_start().starts_with('{'));
        let mut count = 0;
        for line in objects {
            count += 1;
            for field in [
                "reached_fraction",
                "rounds",
                "migrations_mean",
                "psi0_final_mean",
            ] {
                assert!(line.contains(field), "JSON row misses `{field}`: {line}");
            }
        }
        assert_eq!(count, 10);
    }

    #[test]
    fn csv_is_byte_identical_across_thread_counts() {
        let spec = small_spec(&[
            "graph=ring:5,complete:5",
            "tasks-per-node=8",
            "protocol=alg1,bhs",
            "weights=unit,uniform:0.3..1",
            "until=quiescent:10",
            "trials=3",
            "max-rounds=5000",
        ]);
        let one = run_sweep(&spec, SweepConfig::sequential(11)).unwrap();
        let eight = run_sweep(
            &spec,
            SweepConfig {
                base_seed: 11,
                threads: 8,
            },
        )
        .unwrap();
        assert_eq!(one.to_csv(), eight.to_csv());
        assert_eq!(one.to_json(), eight.to_json());
        // A different seed genuinely changes the artifact.
        let other = run_sweep(
            &spec,
            SweepConfig {
                base_seed: 12,
                threads: 8,
            },
        )
        .unwrap();
        assert_ne!(one.to_csv(), other.to_csv());
    }

    #[test]
    fn psi0_stop_rule_reaches_the_bound() {
        let spec = small_spec(&[
            "graph=complete:6",
            "tasks-per-node=16",
            "until=psi0:50",
            "trials=2",
            "max-rounds=50000",
        ]);
        let out = run_sweep(&spec, SweepConfig::sequential(5)).unwrap();
        let s = out.cells[0].stats;
        assert_eq!(s.reached_fraction, 1.0);
        assert!(s.psi0_final.max <= 50.0);
    }

    #[test]
    fn validation_rejects_unbuildable_cells() {
        let spec = small_spec(&["graph=ring:3", "placement=node:7"]);
        let err = run_sweep(&spec, SweepConfig::sequential(1)).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        let spec = small_spec(&["graph=ring:2"]);
        let err = run_sweep(&spec, SweepConfig::sequential(1)).unwrap_err();
        assert!(err.to_string().contains("minimum size"), "{err}");
        let spec = small_spec(&["graph=torus:2x5"]);
        assert!(validate(&spec).is_err());
    }

    #[test]
    fn weighted_cells_use_lightest_task_threshold_and_converge() {
        let spec = small_spec(&[
            "graph=ring:5",
            "tasks-per-node=6",
            "protocol=bhs",
            "weights=bimodal:0.2:1:0.3",
            "speeds=alternating:2",
            "until=quiescent:30",
            "trials=2",
            "max-rounds=30000",
        ]);
        let out = run_sweep(&spec, SweepConfig::sequential(9)).unwrap();
        let s = out.cells[0].stats;
        assert_eq!(s.reached_fraction, 1.0);
        assert!(s.psi0_final.mean.is_finite());
    }

    #[test]
    fn alg1_weighted_runs_on_every_weight_distribution() {
        // Finite-support (bimodal) maps to exact classes; continuous
        // (uniform range, power law) quantizes — all three must produce
        // engine-executed, non-zero rows under heterogeneous speeds.
        let spec = small_spec(&[
            "graph=ring:6",
            "tasks-per-node=8",
            "protocol=alg1",
            "speeds=alternating:2",
            "weights=bimodal:0.2:1:0.3,uniform:0.2..0.9,power-law:1.2:0.05",
            "until=quiescent:20",
            "trials=2",
            "max-rounds=20000",
        ]);
        let out = run_sweep(&spec, SweepConfig::sequential(13)).unwrap();
        assert_eq!(out.cells.len(), 3);
        for cell in &out.cells {
            assert_eq!(cell.engine, EngineKind::WeightedFast);
            let s = cell.stats;
            assert_eq!(s.reached_fraction, 1.0, "cell {:?}", cell.spec);
            assert!(s.migrations.min > 0.0);
            assert!(s.rounds.mean > 0.0);
        }
    }

    #[test]
    fn dynamic_cells_run_fixed_horizon_and_emit_steady_state_metrics() {
        let spec = small_spec(&[
            "graph=ring:8",
            "tasks-per-node=8",
            "protocol=alg1,alg2,bhs",
            "weights=unit,uniform:0.2..0.9",
            "arrivals=poisson:0.5",
            "completions=rate:0.05",
            "churn=rate:0.02",
            "speed-dyn=shock:40:0.25",
            "trials=2",
            "max-rounds=120",
        ]);
        let out = run_sweep(&spec, SweepConfig::sequential(21)).unwrap();
        assert_eq!(out.cells.len(), 6);
        for cell in &out.cells {
            assert_eq!(cell.engine, EngineKind::Dynamic, "cell {:?}", cell.spec);
            let s = cell.stats;
            // The horizon is the run: every trial "reaches" it exactly.
            assert_eq!(s.reached_fraction, 1.0);
            assert_eq!(s.rounds.mean, 120.0);
            assert!(s.migrations.min > 0.0, "a loaded system must migrate");
            assert!(s.nash_gap_tavg.mean > 0.0, "arrivals keep the gap open");
            assert!(s.nash_gap_tavg.mean.is_finite());
            // The shock fires inside the horizon: every trial is either
            // a measured recovery (≥ 1 round, within horizon − shock =
            // 80) or censored into the unrecovered count.
            assert_eq!(
                s.recovery_rounds.count + s.unrecovered_trials,
                2,
                "recovered + censored must partition the trials"
            );
            if s.recovery_rounds.count > 0 {
                assert!(s.recovery_rounds.min >= 1.0);
                assert!(s.recovery_rounds.max <= 80.0);
            }
        }
        let csv = out.to_csv();
        assert_eq!(csv.lines().next().unwrap(), CSV_HEADER);
        assert!(csv.contains(",dynamic,"));
        assert!(csv.contains(",poisson:0.5,rate:0.05,rate:0.02,shock:40:0.25,"));
        let json = out.to_json();
        assert!(json.contains("\"nash_gap_tavg_mean\":"));
        assert!(json.contains("\"recovery_rounds_mean\":"));
        assert!(json.contains("\"arrivals\":\"poisson:0.5\""));
    }

    #[test]
    fn dynamic_sweep_is_byte_identical_across_thread_counts() {
        let spec = small_spec(&[
            "graph=ring:16",
            "tasks-per-node=8",
            "protocol=alg2",
            "arrivals=poisson:0.5",
            "churn=rate:0.05",
            "speed-dyn=drift:0.1",
            "trials=2",
            "max-rounds=150",
        ]);
        let one = run_sweep(&spec, SweepConfig::sequential(4)).unwrap();
        let many = run_sweep(
            &spec,
            SweepConfig {
                base_seed: 4,
                threads: 8,
            },
        )
        .unwrap();
        assert_eq!(one.to_csv(), many.to_csv());
        assert_eq!(one.to_json(), many.to_json());
    }

    #[test]
    fn static_cells_keep_zero_dynamic_metrics_and_none_labels() {
        let spec = small_spec(&[
            "graph=ring:5",
            "tasks-per-node=8",
            "until=quiescent:10",
            "trials=2",
            "max-rounds=5000",
        ]);
        let out = run_sweep(&spec, SweepConfig::sequential(3)).unwrap();
        let s = out.cells[0].stats;
        assert_eq!(s.nash_gap_tavg.mean, 0.0);
        assert_eq!(s.recovery_rounds.mean, 0.0);
        assert_eq!(s.unrecovered_trials, 0);
        let row = out.to_csv().lines().nth(1).unwrap().to_string();
        assert!(row.contains(",none,none,none,none,"), "row: {row}");
        assert!(row.ends_with(",0,0,0"), "row: {row}");
    }

    #[test]
    fn unrecoverable_shock_is_censored_not_averaged() {
        // Regression: a shock one round before the horizon's edge leaves
        // the kernel a single round to re-balance a 4× capacity jolt on
        // half the ring — the gap cannot re-enter the 5% band, so every
        // trial is censored. The old aggregation folded such trials into
        // `recovery_rounds_mean` at horizon − shock (here 1), passing a
        // never-recovered cell off as one that recovered in exactly one
        // round.
        let spec = small_spec(&[
            "graph=ring:8",
            "tasks-per-node=8",
            "protocol=alg1",
            "speed-dyn=shock:40:0.5",
            "trials=3",
            "max-rounds=41",
        ]);
        let out = run_sweep(&spec, SweepConfig::sequential(21)).unwrap();
        let s = out.cells[0].stats;
        assert_eq!(s.unrecovered_trials, 3, "every trial must be censored");
        assert_eq!(s.recovery_rounds.count, 0);
        assert_eq!(
            s.recovery_rounds.mean, 0.0,
            "censored trials must not fabricate a recovery mean"
        );
        let row = out.to_csv().lines().nth(1).unwrap().to_string();
        assert!(row.ends_with(",0,3"), "row: {row}");
    }

    #[test]
    fn validation_rejects_dynamic_sequential_protocols() {
        for protocol in ["diffusion", "best-response"] {
            let spec = small_spec(&[&format!("protocol={protocol}"), "arrivals=poisson:0.5"]);
            let err = validate(&spec).unwrap_err();
            assert!(
                err.to_string().contains("no dynamic-scenario engine"),
                "{err}"
            );
        }
        // The same protocols stay valid on static cells.
        let spec = small_spec(&["protocol=diffusion,best-response"]);
        assert!(validate(&spec).is_ok());
    }
}
