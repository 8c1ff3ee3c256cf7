//! The theorem-validation runner: empirical convergence scaling vs the
//! paper's bounds.
//!
//! This module closes the loop between the sweep subsystem (which can run
//! every protocol × workload cell) and [`theory`] (which encodes the
//! paper's bounds): it executes the scaling ladders of a
//! [`ValidateSpec`], fits the empirical exponent `T ∝ n^k` per
//! `(protocol, family, regime, load)` row, and renders a conformance
//! report with three checks per row:
//!
//! * **exponent_ok** — the fitted exponent's 95% CI (from
//!   [`power_law_fit_ci`]) does not lie above the Table 1 prediction
//!   (plus the spec's `exp_tol`): the entries are *upper* bounds, so
//!   growing significantly faster refutes them while growing slower does
//!   not. Predictions come from [`theory::table1_exponent_this_paper`]
//!   for this paper's protocols (`alg1`, `alg2`) and
//!   [`theory::table1_exponent_bhs`] for the \[6\] baseline (`bhs`), with
//!   the check itself run against the bound shape's *ladder slope* (see
//!   `pred_ladder` below); the deterministic baselines (`diffusion`,
//!   `best-response`) are measured but carry no prediction,
//! * **bound_ok** — mean rounds stay within the spec's declared constant
//!   factor of the theorem bounds
//!   ([`theory::thm11_expected_rounds`]/[`theory::thm12_expected_rounds`]/
//!   [`theory::thm13_expected_rounds`]), and
//! * **gap_ok** — the ε-quality half of Theorems 1.1/1.3: the state
//!   reached at `Ψ₀ ≤ 4ψ_c` is a `2/(1+δ)`-approximate NE, measured with
//!   the count-based [`nash_gap`](slb_core::equilibrium::nash_gap_loads)
//!   predicates (vacuous when `δ ≤ 1`, matching the theorems' own
//!   applicability).
//!
//! The three regimes map onto the theorem statements: `approx` stops at
//! the theorems' own `Ψ₀ ≤ 4ψ_c` target (whose hitting time Table 1's
//! ε-approximate column bounds), `exact` at an exact NE (Theorem 1.2),
//! and `eps` at a *fixed*-ε approximate NE — a direct relative-balance
//! hitting time that is reported without a Table 1 annotation, because at
//! reachable sizes it is dominated by the early spreading phase rather
//! than the asymptotic mixing the table describes (an empirical finding
//! this subsystem makes visible).
//!
//! Every ladder point runs through the shared [`Trial`] runner, so each
//! randomized protocol runs on the count engine (one unit class for
//! unit weights, weight classes otherwise, under the protocol's threshold
//! rule) with the count-based ε-Nash/gap predicates —
//! which is what lets alg2/bhs ladders reach depths the per-task
//! `O(m)`-per-round engines could not; only the deterministic baselines
//! run per-task. As with sweeps, every trial's randomness is a pure
//! function of `(base seed, row, point, trial)`, so reports are
//! **byte-identical at any thread count**.
//!
//! Caveat (also rendered into every report): the Table 1 entries are
//! *asymptotic* bounds. The fitted exponents carry the dropped `log`
//! factors and small-`n` transients, which is why conformance is a CI
//! bracket, not an equality — and why the absolute check is "within a
//! declared constant factor", not a tight comparison.

pub use crate::runner::RunConfig as ValidateConfig;
use crate::stats::{power_law_fit_ci, ExponentFit, Summary};
use crate::tables::{fmt_value, Table};
use crate::theory::{self, Instance, Table1Column};
use crate::trial::Trial;
use slb_core::engine::StopCondition;
use slb_core::equilibrium::Threshold;
use slb_core::rng::{derive_seed, streams};
use slb_workloads::sweep::ProtocolKind;
use slb_workloads::validate::{Regime, RowSpec, ValidateSpec};
use slb_workloads::CountInstance;
use std::fmt;
use std::fmt::Write as _;

/// An error preparing a validation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidateRunError(String);

impl fmt::Display for ValidateRunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "validate error: {}", self.0)
    }
}

impl std::error::Error for ValidateRunError {}

/// One ladder point of one row: the measured convergence at size `n`.
#[derive(Debug, Clone)]
pub struct PointResult {
    /// Nodes.
    pub n: usize,
    /// Tasks (`load · n`).
    pub m: usize,
    /// Rounds-to-target across trials (budget value for censored trials).
    pub rounds: Summary,
    /// Fraction of trials that reached the target within the budget.
    pub reached_fraction: f64,
    /// Nash gap of the final state across trials (count-based for the
    /// count engine) — for the `approx` regime, the empirical side of the
    /// theorems' "the reached state is an ε-approximate NE" claim.
    pub gap: Summary,
    /// The theorems' quality guarantee `min(1, 2/(1+δ))`, averaged over
    /// the per-trial instances (vacuous when `δ ≤ 1`, exactly as in the
    /// paper).
    pub eps_delta: f64,
    /// Whether every trial's final gap stayed within *that trial's*
    /// `2/(1+δ)` guarantee (per-trial instances, so randomly sampled
    /// speeds/weights are scored against their own δ).
    pub gap_within_guarantee: bool,
    /// The applicable theorem bound on expected rounds, averaged over the
    /// per-trial instances, if the paper states one for this protocol ×
    /// regime.
    pub bound: Option<f64>,
    /// Mean over trials of `rounds_t / bound_t` (each trial against its
    /// own instance's bound).
    pub bound_ratio: Option<f64>,
}

/// One row of the conformance report: an exponent fitted over the size
/// ladder for a fixed `(protocol, family, regime, load)`.
#[derive(Debug, Clone)]
pub struct RowResult {
    /// Row index in spec order (also the seed-derivation key base).
    pub index: usize,
    /// The configuration measured.
    pub spec: RowSpec,
    /// Per-size measurements, in ladder order.
    pub points: Vec<PointResult>,
    /// The fitted exponent with its 95% CI.
    pub fit: ExponentFit,
    /// The Table 1 *asymptotic* exponent prediction for this row's
    /// protocol (`table1_exponent_this_paper` / `table1_exponent_bhs`).
    pub predicted: Option<f64>,
    /// The *finite-size* prediction: the log–log slope of the Table 1
    /// bound shape over the actual ladder (carries the `log` factors the
    /// asymptotic exponent drops).
    pub predicted_shape: Option<f64>,
    /// Which column of predictions applies (`this-paper`, `bhs[6]`, `-`).
    pub predicted_source: &'static str,
    /// Whether the measured scaling stays consistent with the bound:
    /// `ci_lo ≤ predicted_shape + exp_tol` — Table 1 entries are *upper*
    /// bounds, so growing significantly **faster** refutes them while
    /// growing slower does not; the spec's `exp_tol` absorbs finite-size
    /// transients (`None`: no prediction, or censored trials make the fit
    /// unreliable).
    pub exponent_ok: Option<bool>,
    /// Whether every bounded point stayed within `factor ×` its theorem
    /// bound (`None`: no bound applies, or censored trials).
    pub bound_ok: Option<bool>,
    /// Whether the reached state's mean Nash gap stayed within the
    /// theorems' `2/(1+δ)` quality guarantee at every point (`approx`
    /// regime on the paper's protocols only; vacuously true when `δ ≤ 1`,
    /// exactly as in the theorem statements).
    pub gap_ok: Option<bool>,
}

impl RowResult {
    /// The smallest fraction of trials that reached the target at any
    /// ladder point (the report's `reached_min`).
    pub fn reached_min(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.reached_fraction)
            .fold(f64::INFINITY, f64::min)
    }

    /// Whether any ladder point had censored (budget-exhausted) trials.
    pub fn censored(&self) -> bool {
        self.reached_min() < 1.0
    }

    /// Whether the row carries at least one conformance check.
    pub fn checked(&self) -> bool {
        self.exponent_ok.is_some() || self.bound_ok.is_some() || self.gap_ok.is_some()
    }

    /// Whether the row conforms: it is checked and no check failed.
    pub fn conforms(&self) -> bool {
        self.checked()
            && self.exponent_ok != Some(false)
            && self.bound_ok != Some(false)
            && self.gap_ok != Some(false)
    }
}

/// A fully executed validation: per-row results plus the run parameters a
/// schema-stable artifact must echo.
#[derive(Debug, Clone)]
pub struct ValidateOutcome {
    /// The executed spec.
    pub spec: ValidateSpec,
    /// Base seed of the run.
    pub base_seed: u64,
    /// Per-row results, in spec order.
    pub rows: Vec<RowResult>,
}

/// One trial's raw observations. The theory columns are computed *per
/// trial* from the instance that trial actually ran (its own sampled
/// speeds and weights), so random distributions are scored against their
/// own bounds rather than trial 0's.
#[derive(Debug, Clone, Copy)]
struct RawTrial {
    rounds: u64,
    reached: bool,
    /// Nash gap of the final state (count-based on the count engine).
    gap: f64,
    /// This trial's theorem bound on expected rounds, if one applies.
    bound: Option<f64>,
    /// This trial's `min(1, 2/(1+δ))` quality guarantee.
    eps_delta: f64,
}

/// Validates that every `(family, size)` pair of the spec resolves and
/// placements stay in range (delegates to the spec's own validation).
///
/// # Errors
///
/// Returns a [`ValidateRunError`] naming the first invalid combination.
pub fn validate(spec: &ValidateSpec) -> Result<(), ValidateRunError> {
    spec.validate().map_err(|e| ValidateRunError(e.to_string()))
}

/// The paper's `4ψ_c` potential target for one concrete instance: the
/// Theorem 1.1 form for uniform tasks, the Theorem 1.3 form (`ψ_c^w`,
/// with the `1/s_min²` correction) for weighted ones.
fn psi_target(inst: &Instance, uniform: bool) -> f64 {
    4.0 * if uniform {
        theory::psi_c(inst)
    } else {
        theory::psi_c_weighted(inst)
    }
}

/// The [`Instance`] parameters of one concrete built instance (`λ₂` from
/// the family's closed form, speeds from the sampled vector).
fn instance_of(built: &CountInstance, family: slb_graphs::generators::Family) -> Instance {
    let speeds = &built.speeds;
    Instance {
        n: built.graph.node_count(),
        total_work: built.total_work,
        max_degree: built.graph.max_degree(),
        lambda2: slb_spectral::closed_form::lambda2_family(family),
        s_min: speeds.min(),
        s_max: speeds.max(),
        s_total: speeds.total(),
        granularity: speeds.granularity(),
    }
}

/// Executes one trial of one ladder point on the shared [`Trial`] runner.
/// `shard_threads` caps the *within-round* worker fan-out of the count
/// engines (their sharded kernel); it never changes results.
fn run_trial(
    row: &RowSpec,
    spec: &ValidateSpec,
    n: usize,
    trial_seed: u64,
    shard_threads: usize,
) -> RawTrial {
    let family = row.family.resolve(n).expect("validated rows resolve");
    let trial = Trial::build(
        family,
        spec.speeds,
        spec.weights,
        spec.placement,
        row.load.tasks_per_node(n),
        trial_seed,
    )
    .expect("validated rows build");
    // The ψ_c form and the theorem columns follow the spec's task mode,
    // as the engine and the Nash threshold do.
    let uniform = trial.unit_weights();
    let inst = instance_of(trial.instance(), family);
    let bound = theory_bound(row, &inst, uniform);
    let eps_delta = theory::eps_of_delta(theory::delta_of_instance(&inst)).min(1.0);
    let condition = stop_of(
        row.regime,
        spec.eps,
        psi_target(&inst, uniform),
        trial.threshold(),
    );
    let outcome = trial.run(row.protocol, condition, spec.max_rounds, shard_threads);
    RawTrial {
        rounds: outcome.run.rounds,
        reached: outcome.run.reached(),
        gap: outcome.nash_gap,
        bound,
        eps_delta,
    }
}

/// The engine-level stop condition of a regime.
fn stop_of(regime: Regime, eps: f64, psi_bound: f64, threshold: Threshold) -> StopCondition {
    match regime {
        Regime::Approx => StopCondition::Psi0Below(psi_bound),
        Regime::Eps => StopCondition::EpsNash { threshold, eps },
        Regime::Exact => StopCondition::Nash(threshold),
    }
}

/// The theorem bound on expected rounds applicable to one row at one
/// instance, if the paper states one (only this paper's protocols carry
/// constants; the \[6\] column is asymptotic-only, and the fixed-ε regime
/// has no theorem of its own).
fn theory_bound(row: &RowSpec, inst: &Instance, uniform: bool) -> Option<f64> {
    match (row.protocol, row.regime) {
        (ProtocolKind::Alg1 | ProtocolKind::Alg2, Regime::Approx) if uniform => {
            Some(theory::thm11_expected_rounds(inst))
        }
        (ProtocolKind::Alg1 | ProtocolKind::Alg2, Regime::Approx) => {
            Some(theory::thm13_expected_rounds(inst))
        }
        (ProtocolKind::Alg1 | ProtocolKind::Alg2, Regime::Exact) if uniform => {
            theory::thm12_expected_rounds(inst)
        }
        _ => None,
    }
}

/// The Table 1 *asymptotic* exponent prediction applicable to one row.
/// The fixed-ε regime carries none: its hitting time is a
/// relative-balance measure that the table's asymptotic exponents do not
/// describe.
fn predicted_exponent(row: &RowSpec, smallest_n: usize) -> (Option<f64>, &'static str) {
    let column = match row.regime {
        Regime::Approx => Table1Column::ApproximateNash,
        Regime::Eps => return (None, "-"),
        Regime::Exact => Table1Column::ExactNash,
    };
    let Ok(family) = row.family.resolve(smallest_n) else {
        return (None, "-");
    };
    match row.protocol {
        ProtocolKind::Alg1 | ProtocolKind::Alg2 => (
            theory::table1_exponent_this_paper(family, column),
            "this-paper",
        ),
        ProtocolKind::Bhs => (theory::table1_exponent_bhs(family, column), "bhs[6]"),
        ProtocolKind::Diffusion | ProtocolKind::BestResponse => (None, "-"),
    }
}

/// The *finite-size* Table 1 prediction for one row: the log–log slope of
/// the applicable bound shape ([`theory::table1_this_paper`] /
/// [`theory::table1_bhs`]) evaluated over the actual ladder `(n, m)`
/// points. Unlike the asymptotic exponent it carries the table's `log`
/// factors, so it is the honest comparison target at reachable sizes (it
/// converges to the asymptotic exponent as `n → ∞`).
fn predicted_shape(row: &RowSpec, sizes: &[usize]) -> Option<f64> {
    let column = match row.regime {
        Regime::Approx => Table1Column::ApproximateNash,
        Regime::Eps => return None,
        Regime::Exact => Table1Column::ExactNash,
    };
    let mut ns = Vec::with_capacity(sizes.len());
    let mut bounds = Vec::with_capacity(sizes.len());
    for &n in sizes {
        let family = row.family.resolve(n).ok()?;
        let m = n * row.load.tasks_per_node(n);
        let bound = match row.protocol {
            ProtocolKind::Alg1 | ProtocolKind::Alg2 => {
                theory::table1_this_paper(family, n, m, column)?
            }
            ProtocolKind::Bhs => theory::table1_bhs(family, n, m, column)?,
            ProtocolKind::Diffusion | ProtocolKind::BestResponse => return None,
        };
        ns.push(n as f64);
        bounds.push(bound);
    }
    Some(crate::stats::power_law_fit(&ns, &bounds, 1e-12).slope)
}

/// Bootstrap refits per row (deterministic; part of the artifact
/// contract, so bumping it changes golden files).
pub const BOOTSTRAP_RESAMPLES: usize = 200;

/// Executes a validation: every row of the spec over the full size
/// ladder, `spec.trials` seeded trials per point, fanned out over
/// `config.threads` threads. Ladder point `p` of row `r` is cell
/// `r·|sizes| + p` of the [`ValidateConfig`] seed derivation.
///
/// # Errors
///
/// Returns a [`ValidateRunError`] if a `(family, size)` pair cannot be
/// built (see [`validate`]).
///
/// # Panics
///
/// Panics if `config.threads == 0` or `spec.trials == 0`.
pub fn run_validate(
    spec: &ValidateSpec,
    config: ValidateConfig,
) -> Result<ValidateOutcome, ValidateRunError> {
    validate(spec)?;
    let rows = spec.rows();
    let points_per_row = spec.sizes.len();
    let keys: Vec<u64> = (0..(rows.len() * points_per_row) as u64).collect();
    // One thread budget covers both parallelism levels: trial workers get
    // the whole budget; whatever cannot be used across `(row, point,
    // trial)` work items flows down into each trial's sharded rounds.
    // Results depend on neither knob.
    let work_items = keys.len() * spec.trials;
    let shard_threads = (config.threads / work_items.max(1)).max(1);
    let trials = crate::runner::run_cell_trials(
        &keys,
        spec.trials,
        config.base_seed,
        config.threads,
        |pos, _trial, seed| {
            let row = &rows[pos / points_per_row];
            let n = spec.sizes[pos % points_per_row];
            run_trial(row, spec, n, seed, shard_threads)
        },
    );

    let results = rows
        .iter()
        .enumerate()
        .map(|(index, row)| {
            let mut points = Vec::with_capacity(points_per_row);
            let mut fit_n: Vec<f64> = Vec::new();
            let mut fit_t: Vec<f64> = Vec::new();
            for (p, &n) in spec.sizes.iter().enumerate() {
                let raw = &trials[index * points_per_row + p];
                // A censored trial ran the whole budget: its rounds are
                // `max_rounds`, a lower bound.
                let rounds: Vec<f64> = raw.iter().map(|t| t.rounds as f64).collect();
                for &r in &rounds {
                    fit_n.push(n as f64);
                    fit_t.push(r);
                }
                let reached = raw.iter().filter(|t| t.reached).count() as f64 / raw.len() as f64;
                let gaps: Vec<f64> = raw.iter().map(|t| t.gap).collect();
                let summary = Summary::of(&rounds);
                // Theory columns come per trial from the instance each
                // trial actually ran (its own sampled speeds/weights), so
                // random distributions are scored against their own
                // bounds: the displayed bound/ε are trial means, the
                // ratio is the mean of per-trial ratios, and the gap
                // guarantee is checked trial by trial.
                let bound = raw
                    .iter()
                    .map(|t| t.bound)
                    .collect::<Option<Vec<f64>>>()
                    .map(|bs| bs.iter().sum::<f64>() / bs.len() as f64);
                let bound_ratio = bound.is_some().then(|| {
                    raw.iter()
                        .zip(&rounds)
                        .map(|(t, &r)| r / t.bound.expect("all bounds present"))
                        .sum::<f64>()
                        / raw.len() as f64
                });
                let eps_delta = raw.iter().map(|t| t.eps_delta).sum::<f64>() / raw.len() as f64;
                let gap_within_guarantee = raw.iter().all(|t| t.gap <= t.eps_delta + 1e-9);
                points.push(PointResult {
                    n,
                    m: n * row.load.tasks_per_node(n),
                    rounds: summary,
                    reached_fraction: reached,
                    gap: Summary::of(&gaps),
                    eps_delta,
                    gap_within_guarantee,
                    bound,
                    bound_ratio,
                });
            }
            let fit = power_law_fit_ci(
                &fit_n,
                &fit_t,
                1.0,
                BOOTSTRAP_RESAMPLES,
                derive_seed(config.base_seed, index as u64, streams::analysis::BOOTSTRAP),
            );
            let (predicted, predicted_source) = predicted_exponent(row, spec.sizes[0]);
            let shape = predicted_shape(row, &spec.sizes);
            let censored = points.iter().any(|p| p.reached_fraction < 1.0);
            let exponent_ok = match shape {
                Some(s) if !censored => Some(fit.ci_lo <= s + spec.exp_tol + 1e-9),
                _ => None,
            };
            let bound_ok = if censored || points.iter().all(|p| p.bound.is_none()) {
                None
            } else {
                Some(
                    points
                        .iter()
                        .filter_map(|p| p.bound_ratio)
                        .all(|r| r <= spec.factor),
                )
            };
            // The ε-quality half of Theorems 1.1/1.3: the state reached at
            // Ψ₀ ≤ 4ψ_c must be a 2/(1+δ)-approximate NE (vacuous when
            // δ ≤ 1 — the gap never exceeds 1 — matching the theorems'
            // own applicability threshold).
            let paper_protocol = matches!(row.protocol, ProtocolKind::Alg1 | ProtocolKind::Alg2);
            let gap_ok = if row.regime == Regime::Approx && paper_protocol && !censored {
                Some(points.iter().all(|p| p.gap_within_guarantee))
            } else {
                None
            };
            RowResult {
                index,
                spec: *row,
                points,
                fit,
                predicted,
                predicted_shape: shape,
                predicted_source,
                exponent_ok,
                bound_ok,
                gap_ok,
            }
        })
        .collect();

    Ok(ValidateOutcome {
        spec: spec.clone(),
        base_seed: config.base_seed,
        rows: results,
    })
}

/// The exact header line of the per-row validation CSV artifact
/// (schema-stable; golden-file tests and figure scripts key on it).
/// Rendered through [`Table::to_csv`], so cells never contain commas.
pub const CSV_HEADER: &str = "row,protocol,family,regime,load,n_ladder,trials,base_seed,\
                              max_rounds,eps,factor,exp_tol,exponent,ci_lo,ci_hi,r_squared,\
                              pred_ladder,pred_asym,source,exponent_ok,max_bound_ratio,bound_ok,\
                              gap_ok,reached_min";

fn check_label(check: Option<bool>) -> &'static str {
    match check {
        Some(true) => "yes",
        Some(false) => "NO",
        None => "-",
    }
}

impl ValidateOutcome {
    /// Rows that carry at least one conformance check.
    pub fn checked_rows(&self) -> usize {
        self.rows.iter().filter(|r| r.checked()).count()
    }

    /// Checked rows whose checks all pass.
    pub fn conforming_rows(&self) -> usize {
        self.rows.iter().filter(|r| r.conforms()).count()
    }

    fn max_bound_ratio(row: &RowResult) -> Option<f64> {
        row.points
            .iter()
            .filter_map(|p| p.bound_ratio)
            .fold(None, |acc, r| Some(acc.map_or(r, |a: f64| a.max(r))))
    }

    /// The per-row conformance table (shared by the markdown and CSV
    /// renderings), with the [`CSV_HEADER`] columns.
    fn rows_table(&self, title: &str) -> Table {
        let headers: Vec<&str> = CSV_HEADER.split(',').collect();
        let mut t = Table::new(title, &headers);
        for row in &self.rows {
            t.push_row(vec![
                row.index.to_string(),
                row.spec.protocol.grid_label().to_string(),
                row.spec.family.label().to_string(),
                row.spec.regime.label().to_string(),
                row.spec.load.to_string(),
                self.spec.sizes_label(),
                self.spec.trials.to_string(),
                self.base_seed.to_string(),
                self.spec.max_rounds.to_string(),
                fmt_value(self.spec.eps),
                fmt_value(self.spec.factor),
                fmt_value(self.spec.exp_tol),
                format!("{:.3}", row.fit.exponent),
                format!("{:.3}", row.fit.ci_lo),
                format!("{:.3}", row.fit.ci_hi),
                format!("{:.3}", row.fit.r_squared),
                row.predicted_shape
                    .map_or("-".to_string(), |s| format!("{s:.3}")),
                row.predicted.map_or("-".to_string(), fmt_value),
                row.predicted_source.to_string(),
                check_label(row.exponent_ok).to_string(),
                Self::max_bound_ratio(row).map_or("-".to_string(), |r| format!("{r:.3}")),
                check_label(row.bound_ok).to_string(),
                check_label(row.gap_ok).to_string(),
                fmt_value(row.reached_min()),
            ]);
        }
        t
    }

    /// The per-point ladder table of the markdown report.
    fn points_table(&self) -> Table {
        let mut t = Table::new(
            "Ladder points",
            &[
                "row",
                "protocol",
                "family",
                "regime",
                "n",
                "m",
                "rounds_mean",
                "rounds_std",
                "reached",
                "gap_mean",
                "eps(δ)",
                "bound",
                "mean/bound",
            ],
        );
        for row in &self.rows {
            for p in &row.points {
                t.push_row(vec![
                    row.index.to_string(),
                    row.spec.protocol.grid_label().to_string(),
                    row.spec.family.label().to_string(),
                    row.spec.regime.label().to_string(),
                    p.n.to_string(),
                    p.m.to_string(),
                    fmt_value(p.rounds.mean),
                    fmt_value(p.rounds.std_dev),
                    fmt_value(p.reached_fraction),
                    format!("{:.3}", p.gap.mean),
                    fmt_value(p.eps_delta),
                    p.bound.map_or("-".to_string(), fmt_value),
                    p.bound_ratio.map_or("-".to_string(), |r| format!("{r:.3}")),
                ]);
            }
        }
        t
    }

    /// Renders the conformance report as markdown: run parameters, the
    /// per-row exponent table, the per-point ladder table, and a verdict
    /// line. Deterministic formatting throughout, so the artifact is
    /// byte-stable across runs and thread counts.
    pub fn to_markdown(&self) -> String {
        let mut out = String::from("# Theorem-validation report\n\n");
        let _ = writeln!(
            out,
            "- ladder: n = {} · m/n = {} · trials = {} · max-rounds = {} · base seed = {}",
            self.spec.sizes_label(),
            self.spec
                .loads
                .iter()
                .map(|l| l.to_string())
                .collect::<Vec<_>>()
                .join("-"),
            self.spec.trials,
            self.spec.max_rounds,
            self.base_seed,
        );
        let _ = writeln!(out, "- scenario: {}", self.spec.scenario_label());
        let _ = writeln!(
            out,
            "- stop rules: approx = Ψ₀ ≤ 4ψ_c (Thm 1.1/1.3 target) · eps = ε-Nash with ε = {} \
             · exact = Nash equilibrium",
            fmt_value(self.spec.eps),
        );
        let _ = writeln!(
            out,
            "- conformance: exponent_ok = the fitted exponent's 95% CI does not lie above \
             pred_ladder + {} (Table 1 entries are upper bounds — growing significantly faster \
             refutes them, growing slower does not); bound_ok = mean rounds within {}× the \
             theorem bound; gap_ok = the state reached at Ψ₀ ≤ 4ψ_c is a 2/(1+δ)-approximate \
             NE (vacuous when δ ≤ 1)",
            fmt_value(self.spec.exp_tol),
            fmt_value(self.spec.factor),
        );
        let _ = writeln!(
            out,
            "- caveat: pred_asym is the asymptotic Table 1 exponent (no constants, no log \
             factors); pred_ladder re-evaluates the same bound shape over this ladder's \
             (n, m) points, which is the honest finite-size comparison target\n",
        );
        out.push_str(
            &self
                .rows_table("Fitted scaling exponents vs Table 1")
                .to_markdown(),
        );
        out.push('\n');
        out.push_str(&self.points_table().to_markdown());
        let _ = writeln!(
            out,
            "\nverdict: {}/{} checked rows conform ({} rows total)",
            self.conforming_rows(),
            self.checked_rows(),
            self.rows.len(),
        );
        out
    }

    /// Renders the per-row conformance table as CSV (the [`CSV_HEADER`]
    /// schema, via [`Table::to_csv`]).
    pub fn to_csv(&self) -> String {
        self.rows_table("").to_csv()
    }

    /// Renders the full outcome (rows with nested ladder points) as JSON.
    pub fn to_json(&self) -> String {
        let json_check = |check: Option<bool>| match check {
            Some(v) => v.to_string(),
            None => "null".to_string(),
        };
        let json_opt = |v: Option<f64>| match v {
            Some(v) => format!("{v}"),
            None => "null".to_string(),
        };
        let mut out = String::from("[\n");
        for (i, row) in self.rows.iter().enumerate() {
            let _ = write!(
                out,
                "  {{\"row\":{},\"protocol\":\"{}\",\"family\":\"{}\",\"regime\":\"{}\",\
                 \"load\":\"{}\",\"trials\":{},\"base_seed\":{},\"max_rounds\":{},\"eps\":{},\
                 \"factor\":{},\"exp_tol\":{},\"exponent\":{},\"ci_lo\":{},\"ci_hi\":{},\
                 \"r_squared\":{},\
                 \"pred_ladder\":{},\"pred_asym\":{},\"source\":\"{}\",\"exponent_ok\":{},\
                 \"bound_ok\":{},\"gap_ok\":{},\"points\":[",
                row.index,
                row.spec.protocol.grid_label(),
                row.spec.family.label(),
                row.spec.regime.label(),
                row.spec.load,
                self.spec.trials,
                self.base_seed,
                self.spec.max_rounds,
                self.spec.eps,
                self.spec.factor,
                self.spec.exp_tol,
                row.fit.exponent,
                row.fit.ci_lo,
                row.fit.ci_hi,
                row.fit.r_squared,
                json_opt(row.predicted_shape),
                json_opt(row.predicted),
                row.predicted_source,
                json_check(row.exponent_ok),
                json_check(row.bound_ok),
                json_check(row.gap_ok),
            );
            for (j, p) in row.points.iter().enumerate() {
                let _ = write!(
                    out,
                    "{}{{\"n\":{},\"m\":{},\"rounds_mean\":{},\"rounds_std\":{},\"reached\":{},\
                     \"gap_mean\":{},\"eps_delta\":{},\"bound\":{},\"bound_ratio\":{}}}",
                    if j > 0 { "," } else { "" },
                    p.n,
                    p.m,
                    p.rounds.mean,
                    p.rounds.std_dev,
                    p.reached_fraction,
                    p.gap.mean,
                    p.eps_delta,
                    json_opt(p.bound),
                    json_opt(p.bound_ratio),
                );
            }
            out.push_str("]}");
            if i + 1 < self.rows.len() {
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

    fn small_spec(tokens: &[&str]) -> ValidateSpec {
        ValidateSpec::parse(tokens).unwrap()
    }

    #[test]
    fn default_ladder_runs_and_conforms() {
        let spec = small_spec(&["n=4,8", "load=8", "trials=2", "max-rounds=50000"]);
        let out = run_validate(&spec, ValidateConfig::sequential(7)).unwrap();
        assert_eq!(out.rows.len(), 1);
        let row = &out.rows[0];
        assert_eq!(row.points.len(), 2);
        assert!(!row.censored(), "tiny ring ladder must converge");
        assert_eq!(row.predicted, Some(2.0), "ring approx predicts n²");
        assert_eq!(row.predicted_source, "this-paper");
        assert!(row.bound_ok.is_some());
        for p in &row.points {
            assert_eq!(p.reached_fraction, 1.0);
            assert!(p.bound.unwrap() > 0.0);
        }
    }

    #[test]
    fn all_five_protocols_produce_rows() {
        let spec = small_spec(&[
            "family=ring",
            "n=4,8",
            "load=6",
            "protocol=alg1,alg2,bhs,diffusion,best-response",
            "regime=approx",
            "eps=0.5",
            "trials=2",
            "max-rounds=20000",
        ]);
        let out = run_validate(&spec, ValidateConfig::parallel(3)).unwrap();
        assert_eq!(out.rows.len(), 5);
        // Every protocol reaches the generous Ψ₀ ≤ 4ψ_c target on this
        // tiny ladder (including deterministic diffusion, whose rounded
        // flows stall well below it).
        for row in &out.rows {
            assert!(!row.censored(), "{:?} censored", row.spec.protocol);
        }
        // Predictions: paper protocols → this-paper, bhs → bhs[6],
        // baselines → none.
        assert_eq!(out.rows[0].predicted_source, "this-paper");
        assert_eq!(out.rows[1].predicted_source, "this-paper");
        assert_eq!(out.rows[2].predicted_source, "bhs[6]");
        assert_eq!(out.rows[2].predicted, Some(3.0));
        assert_eq!(out.rows[3].predicted, None);
        assert_eq!(out.rows[4].exponent_ok, None);
        // Baselines carry no theorem bound and no gap check.
        assert!(out.rows[3].points.iter().all(|p| p.bound.is_none()));
        assert_eq!(out.rows[3].bound_ok, None);
        assert_eq!(out.rows[2].gap_ok, None, "bhs carries no gap check");
        // The paper's protocols do carry the ε-quality check, and at this
        // tiny δ it is vacuously satisfied — exactly as in the theorem.
        assert_eq!(out.rows[0].gap_ok, Some(true));
        for p in &out.rows[0].points {
            assert_eq!(p.eps_delta, 1.0, "δ ≤ 1 ⇒ the guarantee is vacuous");
            assert!(p.gap.mean <= 1.0);
        }
    }

    #[test]
    fn eps_regime_measures_fixed_eps_hitting_time_without_prediction() {
        let spec = small_spec(&[
            "family=ring",
            "n=4,8",
            "load=8",
            "protocol=alg1",
            "regime=approx,eps",
            "eps=0.5",
            "trials=2",
            "max-rounds=50000",
        ]);
        let out = run_validate(&spec, ValidateConfig::sequential(9)).unwrap();
        assert_eq!(out.rows.len(), 2);
        let approx = &out.rows[0];
        let eps = &out.rows[1];
        assert_eq!(eps.spec.regime, Regime::Eps);
        assert!(!eps.censored(), "ε = 0.5 is reachable on a tiny ring");
        // The fixed-ε regime is measured-only: no Table 1 annotation, no
        // theorem bound, no gap check.
        assert_eq!(eps.predicted, None);
        assert_eq!(eps.predicted_source, "-");
        assert_eq!(eps.bound_ok, None);
        assert_eq!(eps.gap_ok, None);
        assert!(eps.points.iter().all(|p| p.bound.is_none()));
        // Stopping at ε-Nash leaves a gap of at most ε (up to the shared
        // predicate tolerance).
        for p in &eps.points {
            assert!(p.gap.mean <= 0.5 + 1e-9, "gap {}", p.gap.mean);
        }
        // The approx row keeps its theorem columns.
        assert!(approx.points.iter().all(|p| p.bound.is_some()));
    }

    #[test]
    fn report_is_byte_identical_across_thread_counts() {
        let spec = small_spec(&[
            "family=ring,complete",
            "n=4,8",
            "load=6",
            "protocol=alg1,bhs",
            "trials=2",
            "max-rounds=20000",
        ]);
        let one = run_validate(&spec, ValidateConfig::sequential(11)).unwrap();
        let eight = run_validate(
            &spec,
            ValidateConfig {
                base_seed: 11,
                threads: 8,
            },
        )
        .unwrap();
        assert_eq!(one.to_markdown(), eight.to_markdown());
        assert_eq!(one.to_csv(), eight.to_csv());
        assert_eq!(one.to_json(), eight.to_json());
        // A different seed genuinely changes the artifact.
        let other = run_validate(
            &spec,
            ValidateConfig {
                base_seed: 12,
                threads: 8,
            },
        )
        .unwrap();
        assert_ne!(one.to_markdown(), other.to_markdown());
    }

    #[test]
    fn weighted_ladder_uses_weight_class_engine_and_thm13() {
        let spec = small_spec(&[
            "family=ring",
            "n=4,8",
            "load=6",
            "protocol=alg1",
            "weights=bimodal:0.25:1:0.5",
            "eps=0.5",
            "trials=2",
            "max-rounds=50000",
        ]);
        let out = run_validate(&spec, ValidateConfig::sequential(5)).unwrap();
        let row = &out.rows[0];
        assert!(!row.censored());
        // The weighted approx bound is Theorem 1.3's.
        for p in &row.points {
            let b = p.bound.unwrap();
            assert!(b.is_finite() && b > 0.0);
        }
    }

    #[test]
    fn degenerate_weighted_distribution_stays_on_the_weighted_path() {
        // `bimodal:1:1:0.5` samples all-1.0 weights, so the *values* look
        // uniform — but the row must still be scored against the weighted
        // theorems (Thm 1.3 approx bound present, no Thm 1.2 exact
        // bound), consistently with the engine/ψ_c form the trial used.
        let spec = small_spec(&[
            "family=ring",
            "n=4,8",
            "load=6",
            "protocol=alg1",
            "regime=approx,exact",
            "weights=bimodal:1:1:0.5",
            "trials=2",
            "max-rounds=50000",
        ]);
        let out = run_validate(&spec, ValidateConfig::sequential(4)).unwrap();
        let approx = &out.rows[0];
        let exact = &out.rows[1];
        // Approx: weighted bound (thm13) applies; and it must equal the
        // uniform ladder's thm11 at s_min = 1 only up to the ψ form —
        // what matters is that a bound is present and consistent.
        assert!(approx.points.iter().all(|p| p.bound.is_some()));
        // Exact: the weighted case has no Theorem 1.2 bound.
        assert!(exact.points.iter().all(|p| p.bound.is_none()));
        assert_eq!(exact.bound_ok, None);
    }

    #[test]
    fn censored_rows_drop_their_checks() {
        // A 1-round budget cannot reach an exact NE from the hot start.
        let spec = small_spec(&[
            "n=4,8",
            "load=8",
            "regime=exact",
            "trials=2",
            "max-rounds=1",
        ]);
        let out = run_validate(&spec, ValidateConfig::sequential(1)).unwrap();
        let row = &out.rows[0];
        assert!(row.censored());
        assert_eq!(row.exponent_ok, None);
        assert_eq!(row.bound_ok, None);
        assert!(!row.checked());
        assert_eq!(out.checked_rows(), 0);
        let md = out.to_markdown();
        assert!(md.contains("verdict: 0/0 checked rows conform"));
    }

    #[test]
    fn invalid_ladder_is_rejected() {
        let spec = ValidateSpec {
            sizes: vec![8, 12],
            families: vec![slb_workloads::FamilyShape::Hypercube],
            ..ValidateSpec::default()
        };
        let err = run_validate(&spec, ValidateConfig::sequential(1)).unwrap_err();
        assert!(err.to_string().contains("no 12-node member"), "{err}");
    }

    #[test]
    fn csv_schema_matches_header_constant() {
        let spec = small_spec(&["n=4,8", "load=4", "trials=1", "max-rounds=5000"]);
        let out = run_validate(&spec, ValidateConfig::sequential(2)).unwrap();
        let csv = out.to_csv();
        assert_eq!(csv.lines().next().unwrap(), CSV_HEADER);
        assert_eq!(csv.lines().count(), 2);
        let json = out.to_json();
        assert!(json.starts_with("[\n"));
        assert!(json.contains("\"points\":["));
        assert!(json.trim_end().ends_with(']'));
    }
}
