//! Declarative experiment grids: the `SweepSpec` and its `key=a,b,c`
//! parser.
//!
//! Every reported number of the reproduction is a mean over seeded trials
//! of *protocol × topology × weights × speeds × placement × stop rule*.
//! A [`SweepSpec`] names one such grid declaratively; the cartesian
//! product of its axes yields [`CellSpec`]s in a stable order, which the
//! analysis layer executes (`slb_analysis::sweep`) and the CLI exposes
//! (`slb sweep`).
//!
//! # Grid syntax
//!
//! A spec is a list of `key=value[,value…]` tokens, one per axis; omitted
//! axes fall back to a single default value. Values carry their parameters
//! after `:` (and `x` inside dimensions, `..` inside ranges):
//!
//! ```text
//! graph=ring:8,torus:3x3   tasks-per-node=8,32
//! speeds=uniform,alternating:2,two-class:4:0.25
//! weights=unit,uniform:0.1..0.9   placement=hot,random
//! protocol=alg1,alg2,bhs,diffusion,best-response
//! until=nash,quiescent:50,psi0:100   trials=5   max-rounds=100000
//! ```
//!
//! The dynamic-scenario axes (all default to `none`, which keeps the
//! classic static run) select the event layer of the count engine
//! ([`slb_core::engine::count::DynamicConfig`]):
//!
//! ```text
//! arrivals=none,poisson:0.5,batch:64:10
//! completions=none,rate:0.05,count:32
//! churn=none,rate:0.02
//! speed-dyn=none,drift:0.1,shock:150:0.25,feedback:0.2
//! ```
//!
//! Every parsed value renders back to its canonical token via the
//! `grid_label` functions, so sweep artifacts (CSV rows) are
//! round-trippable into specs.
//!
//! [`read_tokens`] reads the `key=value[,value…]` tokens of every `slb`
//! subcommand: this grid, the validate ladder
//! ([`ValidateSpec::parse`](crate::ValidateSpec::parse)) and the serve
//! spec (`slb_analysis::serve::ServeSpec::parse`).

use crate::placement::Placement;
use crate::speeds::SpeedDistribution;
use crate::weights::WeightDistribution;
use slb_core::engine::count::{
    ArrivalProcess, ChurnProcess, CompletionProcess, DynamicConfig, SpeedDynamics,
};
use slb_core::protocol::MigrationRule;
use slb_graphs::generators::Family;
use std::fmt;

/// Which protocol a sweep cell runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// Algorithm 1: [`Selfish`](slb_core::protocol::Selfish) under
    /// [`MigrationRule::Relaxed`]; on weighted tasks the cell runs the
    /// paper's weighted generalization of the same dynamics (the
    /// Definition-4.1 probability), which is Algorithm 2.
    Alg1,
    /// Algorithm 2: the same [`MigrationRule::Relaxed`] in both task modes
    /// — the weight-independent §4 rule makes equal-weight tasks
    /// exchangeable under any speed vector.
    Alg2,
    /// The \[6\] baseline: [`MigrationRule::OwnWeight`], the per-task
    /// own-weight threshold applied per weight class by the count engine
    /// (quantized thresholds for continuous weight distributions — the
    /// engine's documented approximation).
    Bhs,
    /// Deterministic discrete diffusion.
    Diffusion,
    /// Sequential best-response dynamics (the coordinated baseline).
    BestResponse,
}

impl ProtocolKind {
    /// All protocols, in grid order.
    pub const ALL: [ProtocolKind; 5] = [
        ProtocolKind::Alg1,
        ProtocolKind::Alg2,
        ProtocolKind::Bhs,
        ProtocolKind::Diffusion,
        ProtocolKind::BestResponse,
    ];

    /// The canonical grid token (`alg1`, `alg2`, `bhs`, `diffusion`,
    /// `best-response`).
    pub fn grid_label(self) -> &'static str {
        match self {
            ProtocolKind::Alg1 => "alg1",
            ProtocolKind::Alg2 => "alg2",
            ProtocolKind::Bhs => "bhs",
            ProtocolKind::Diffusion => "diffusion",
            ProtocolKind::BestResponse => "best-response",
        }
    }

    /// The migration rule of a randomized protocol, which the count engine
    /// runs; `None` for the deterministic protocols, which run per task.
    pub fn rule(self) -> Option<MigrationRule> {
        match self {
            ProtocolKind::Alg1 | ProtocolKind::Alg2 => Some(MigrationRule::Relaxed),
            ProtocolKind::Bhs => Some(MigrationRule::OwnWeight),
            ProtocolKind::Diffusion | ProtocolKind::BestResponse => None,
        }
    }

    /// Parses a protocol token (the inverse of [`ProtocolKind::grid_label`]).
    pub fn parse(token: &str) -> Result<Self, SweepParseError> {
        ProtocolKind::ALL
            .into_iter()
            .find(|p| p.grid_label() == token)
            .ok_or_else(|| {
                SweepParseError::new(format!(
                    "unknown protocol `{token}` (use alg1|alg2|bhs|diffusion|best-response)"
                ))
            })
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.grid_label())
    }
}

/// When a sweep cell's run stops (resolved into an engine stop condition
/// by the analysis layer).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StopRule {
    /// Exact Nash equilibrium (threshold picked from the task mode).
    Nash,
    /// No migration for this many consecutive rounds.
    Quiescent(u64),
    /// `Ψ₀ ≤ bound`.
    Psi0Below(f64),
}

impl StopRule {
    /// The canonical grid token (`nash`, `quiescent:K`, `psi0:X`).
    pub fn grid_label(self) -> String {
        match self {
            StopRule::Nash => "nash".to_string(),
            StopRule::Quiescent(k) => format!("quiescent:{k}"),
            StopRule::Psi0Below(x) => format!("psi0:{x}"),
        }
    }

    /// Parses a stop-rule token (the inverse of [`StopRule::grid_label`]).
    pub fn parse(token: &str) -> Result<Self, SweepParseError> {
        if token == "nash" {
            return Ok(StopRule::Nash);
        }
        if let Some(rest) = token.strip_prefix("quiescent:") {
            let k: u64 = rest
                .parse()
                .map_err(|_| SweepParseError::new(format!("invalid quiescent rounds `{rest}`")))?;
            if k == 0 {
                return Err(SweepParseError::new(
                    "quiescent rounds must be positive".into(),
                ));
            }
            return Ok(StopRule::Quiescent(k));
        }
        if let Some(rest) = token.strip_prefix("psi0:") {
            let x: f64 = rest
                .parse()
                .map_err(|_| SweepParseError::new(format!("invalid psi0 bound `{rest}`")))?;
            if !x.is_finite() || x < 0.0 {
                return Err(SweepParseError::new(
                    "psi0 bound must be finite and nonnegative".into(),
                ));
            }
            return Ok(StopRule::Psi0Below(x));
        }
        Err(SweepParseError::new(format!(
            "unknown stop rule `{token}` (use nash|quiescent:K|psi0:X)"
        )))
    }
}

/// A grid-syntax parse error. It displays only its message; each command
/// names its own grammar (sweep grid, validate ladder, serve spec).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepParseError {
    message: String,
}

impl SweepParseError {
    /// Wraps a message in the grid-syntax error type. Public so sibling
    /// crates extending the grammar (e.g. `slb_serve`'s policy tokens)
    /// report errors uniformly.
    pub fn new(message: String) -> Self {
        SweepParseError { message }
    }
}

impl fmt::Display for SweepParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for SweepParseError {}

/// The largest population whose loads stay exact: `f64` represents every
/// integer only up to 2⁵³.
pub const MAX_EXACT_POPULATION: u64 = 1 << 53;

/// The task count `m = n · tasks_per_node`, if it is at most
/// [`MAX_EXACT_POPULATION`] (`None` past it, overflow included).
pub fn exact_population(n: usize, tasks_per_node: usize) -> Option<u64> {
    n.checked_mul(tasks_per_node)
        .map(|m| m as u64)
        .filter(|&m| m <= MAX_EXACT_POPULATION)
}

/// One cell of the experiment grid: a fully specified configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellSpec {
    /// The topology.
    pub graph: Family,
    /// Tasks per node (`m = tasks_per_node · n`).
    pub tasks_per_node: usize,
    /// Machine-speed distribution.
    pub speeds: SpeedDistribution,
    /// Task-weight distribution.
    pub weights: WeightDistribution,
    /// Initial placement.
    pub placement: Placement,
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// Stop rule.
    pub stop: StopRule,
    /// Task arrivals (`None` keeps the static run).
    pub arrivals: Option<ArrivalProcess>,
    /// Task completions (`None` keeps the static run).
    pub completions: Option<CompletionProcess>,
    /// Node churn (`None` keeps the static run).
    pub churn: Option<ChurnProcess>,
    /// Speed dynamics (`None` keeps the static run).
    pub speed_dyn: Option<SpeedDynamics>,
}

impl CellSpec {
    /// Whether the cell's tasks are uniform (unit weights).
    pub fn is_uniform_tasks(&self) -> bool {
        self.weights == WeightDistribution::Unit
    }

    /// Whether any dynamic axis is active (the cell runs the count
    /// engine's event layer for a fixed horizon instead of to a stop
    /// rule).
    pub fn is_dynamic(&self) -> bool {
        self.dynamic_config().is_dynamic()
    }

    /// The cell's event layer, for [`slb_core::engine::count::CountSim`].
    pub fn dynamic_config(&self) -> DynamicConfig {
        DynamicConfig {
            arrivals: self.arrivals,
            completions: self.completions,
            churn: self.churn,
            speed_dynamics: self.speed_dyn,
        }
    }
}

/// A declarative experiment grid: the cartesian product of its axes.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Topology axis.
    pub graphs: Vec<Family>,
    /// Tasks-per-node axis.
    pub tasks_per_node: Vec<usize>,
    /// Speed-distribution axis.
    pub speeds: Vec<SpeedDistribution>,
    /// Weight-distribution axis.
    pub weights: Vec<WeightDistribution>,
    /// Placement axis.
    pub placements: Vec<Placement>,
    /// Protocol axis.
    pub protocols: Vec<ProtocolKind>,
    /// Stop-rule axis.
    pub stops: Vec<StopRule>,
    /// Arrival-process axis (`None` = static).
    pub arrivals: Vec<Option<ArrivalProcess>>,
    /// Completion-process axis (`None` = static).
    pub completions: Vec<Option<CompletionProcess>>,
    /// Churn axis (`None` = static).
    pub churns: Vec<Option<ChurnProcess>>,
    /// Speed-dynamics axis (`None` = static).
    pub speed_dyns: Vec<Option<SpeedDynamics>>,
    /// Trials per cell.
    pub trials: usize,
    /// Round budget per trial.
    pub max_rounds: u64,
}

impl Default for SweepSpec {
    fn default() -> Self {
        SweepSpec {
            graphs: vec![Family::Ring { n: 8 }],
            tasks_per_node: vec![16],
            speeds: vec![SpeedDistribution::Uniform],
            weights: vec![WeightDistribution::Unit],
            placements: vec![Placement::AllOnNode(0)],
            protocols: vec![ProtocolKind::Alg1],
            stops: vec![StopRule::Nash],
            arrivals: vec![None],
            completions: vec![None],
            churns: vec![None],
            speed_dyns: vec![None],
            trials: 3,
            max_rounds: 200_000,
        }
    }
}

impl SweepSpec {
    /// Parses a spec from `key=value[,value…]` tokens. Omitted keys keep
    /// their [`Default`] single-value axes; duplicated keys are rejected.
    ///
    /// # Errors
    ///
    /// Returns a [`SweepParseError`] naming the offending token.
    pub fn parse<S: AsRef<str>>(tokens: &[S]) -> Result<SweepSpec, SweepParseError> {
        let mut spec = SweepSpec::default();
        read_tokens("grid", tokens, |key, list| {
            match key {
                "graph" => spec.graphs = parse_all(list, parse_family)?,
                "tasks-per-node" => {
                    spec.tasks_per_node = parse_all(list, |v| positive("tasks-per-node", v))?
                }
                "speeds" => spec.speeds = parse_all(list, parse_speeds)?,
                "weights" => spec.weights = parse_all(list, parse_weights)?,
                "placement" => spec.placements = parse_all(list, parse_placement)?,
                "protocol" => spec.protocols = parse_all(list, ProtocolKind::parse)?,
                "until" => spec.stops = parse_all(list, StopRule::parse)?,
                "arrivals" => spec.arrivals = parse_all(list, parse_arrivals)?,
                "completions" => spec.completions = parse_all(list, parse_completions)?,
                "churn" => spec.churns = parse_all(list, parse_churn)?,
                "speed-dyn" => spec.speed_dyns = parse_all(list, parse_speed_dyn)?,
                "trials" => spec.trials = positive(key, single(key, list)?)?,
                "max-rounds" => spec.max_rounds = positive(key, single(key, list)?)?,
                other => {
                    return Err(SweepParseError::new(format!(
                        "unknown grid key `{other}` (use graph|tasks-per-node|speeds|weights|\
                         placement|protocol|until|arrivals|completions|churn|speed-dyn|trials|\
                         max-rounds)"
                    )))
                }
            }
            Ok(())
        })?;
        Ok(spec)
    }

    /// Number of cells in the grid.
    pub fn cell_count(&self) -> usize {
        self.graphs.len()
            * self.tasks_per_node.len()
            * self.speeds.len()
            * self.weights.len()
            * self.placements.len()
            * self.protocols.len()
            * self.stops.len()
            * self.arrivals.len()
            * self.completions.len()
            * self.churns.len()
            * self.speed_dyns.len()
    }

    /// The cartesian product of the axes, in a stable nesting order
    /// (graph outermost, speed dynamics innermost). Cell indices — and
    /// hence the per-cell seeds derived from them — follow this order;
    /// the dynamic axes nest inside the stop rule so grids that leave
    /// them at their `none` defaults keep their historical indices.
    pub fn cells(&self) -> Vec<CellSpec> {
        let mut out = Vec::with_capacity(self.cell_count());
        for &graph in &self.graphs {
            for &tasks_per_node in &self.tasks_per_node {
                for &speeds in &self.speeds {
                    for &weights in &self.weights {
                        for &placement in &self.placements {
                            for &protocol in &self.protocols {
                                for &stop in &self.stops {
                                    for &arrivals in &self.arrivals {
                                        for &completions in &self.completions {
                                            for &churn in &self.churns {
                                                for &speed_dyn in &self.speed_dyns {
                                                    out.push(CellSpec {
                                                        graph,
                                                        tasks_per_node,
                                                        speeds,
                                                        weights,
                                                        placement,
                                                        protocol,
                                                        stop,
                                                        arrivals,
                                                        completions,
                                                        churn,
                                                        speed_dyn,
                                                    });
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// Reads `key=value[,value…]` tokens, the one grammar of every `slb`
/// subcommand: splits each token at its first `=`, comma-splits the
/// value, and hands each key and its values to `apply`, in token order.
/// `grammar` names the command's grammar (`grid`, `ladder`, `serve`) in
/// the errors.
///
/// # Errors
///
/// Returns a [`SweepParseError`] for a token without `=`, a key given
/// twice or an empty value, or the first error of `apply`.
pub fn read_tokens<S: AsRef<str>>(
    grammar: &str,
    tokens: &[S],
    mut apply: impl FnMut(&str, &[&str]) -> Result<(), SweepParseError>,
) -> Result<(), SweepParseError> {
    let mut seen: Vec<&str> = Vec::new();
    for token in tokens {
        let token = token.as_ref();
        let (key, values) = token.split_once('=').ok_or_else(|| {
            SweepParseError::new(format!(
                "expected a {grammar} token key=value[,value…], got `{token}`"
            ))
        })?;
        if seen.contains(&key) {
            return Err(SweepParseError::new(format!(
                "{grammar} key `{key}` given twice"
            )));
        }
        let list: Vec<&str> = values.split(',').collect();
        if list.iter().any(|v| v.is_empty()) {
            return Err(SweepParseError::new(format!(
                "empty value in `{key}={values}`"
            )));
        }
        apply(key, &list)?;
        seen.push(key);
    }
    Ok(())
}

/// Parses every value of a list with `f`.
pub fn parse_all<T>(
    list: &[&str],
    f: impl Fn(&str) -> Result<T, SweepParseError>,
) -> Result<Vec<T>, SweepParseError> {
    list.iter().map(|v| f(v)).collect()
}

/// The value of a key that takes a single value, not a list.
pub fn single<'a>(key: &str, list: &[&'a str]) -> Result<&'a str, SweepParseError> {
    match list {
        [value] => Ok(value),
        _ => Err(SweepParseError::new(format!(
            "`{key}` takes a single value, not a list"
        ))),
    }
}

/// Parses the value `raw` of `key` as a positive number.
pub fn positive<T: std::str::FromStr + Default + PartialEq>(
    key: &str,
    raw: &str,
) -> Result<T, SweepParseError> {
    let value: T = raw
        .parse()
        .map_err(|_| SweepParseError::new(format!("invalid {key} `{raw}`")))?;
    if value == T::default() {
        return Err(SweepParseError::new(format!("{key} must be positive")));
    }
    Ok(value)
}

/// Parses a topology token: `ring:8`, `path:8`, `complete:8`, `star:8`,
/// `hypercube:4`, `mesh:3x5`, `torus:3x5`.
pub fn parse_family(token: &str) -> Result<Family, SweepParseError> {
    let (name, params) = token.split_once(':').ok_or_else(|| {
        SweepParseError::new(format!("graph `{token}` needs parameters, e.g. `ring:8`"))
    })?;
    let size = |p: &str| -> Result<usize, SweepParseError> {
        p.parse()
            .map_err(|_| SweepParseError::new(format!("invalid size `{p}` in `{token}`")))
    };
    let dims = |p: &str| -> Result<(usize, usize), SweepParseError> {
        let (r, c) = p.split_once('x').ok_or_else(|| {
            SweepParseError::new(format!("`{token}` needs RxC dimensions, e.g. `{name}:3x4`"))
        })?;
        Ok((size(r)?, size(c)?))
    };
    match name {
        "ring" => Ok(Family::Ring { n: size(params)? }),
        "path" => Ok(Family::Path { n: size(params)? }),
        "complete" => Ok(Family::Complete { n: size(params)? }),
        "star" => Ok(Family::Star { n: size(params)? }),
        "hypercube" => {
            let d: u32 = params
                .parse()
                .map_err(|_| SweepParseError::new(format!("invalid dimension in `{token}`")))?;
            // The dimension alone says whether the graph can be built.
            let family = Family::Hypercube { d };
            family.check_size().map_err(|e| {
                SweepParseError::new(format!("invalid hypercube dimension in `{token}`: {e}"))
            })?;
            Ok(family)
        }
        "mesh" => {
            let (rows, cols) = dims(params)?;
            Ok(Family::Mesh { rows, cols })
        }
        "torus" => {
            let (rows, cols) = dims(params)?;
            Ok(Family::Torus { rows, cols })
        }
        other => Err(SweepParseError::new(format!(
            "unknown graph family `{other}` (use ring|path|complete|star|hypercube|mesh|torus)"
        ))),
    }
}

/// The canonical grid token of a family (`ring:8`, `torus:3x4`, …).
pub fn family_grid_label(family: Family) -> String {
    match family {
        Family::Complete { n } => format!("complete:{n}"),
        Family::Ring { n } => format!("ring:{n}"),
        Family::Path { n } => format!("path:{n}"),
        Family::Star { n } => format!("star:{n}"),
        Family::Mesh { rows, cols } => format!("mesh:{rows}x{cols}"),
        Family::Torus { rows, cols } => format!("torus:{rows}x{cols}"),
        Family::Hypercube { d } => format!("hypercube:{d}"),
    }
}

/// Parses a speed token: `uniform`, `alternating:K`, `integer:MAX`,
/// `two-class:FAST:FRAC`, `ramp:MAX:GRAN`.
pub fn parse_speeds(token: &str) -> Result<SpeedDistribution, SweepParseError> {
    if token == "uniform" {
        return Ok(SpeedDistribution::Uniform);
    }
    let bad = || SweepParseError::new(format!("invalid speeds `{token}`"));
    if let Some(rest) = token.strip_prefix("alternating:") {
        let classes: u64 = rest.parse().map_err(|_| bad())?;
        if classes == 0 {
            return Err(SweepParseError::new(
                "alternating speed classes must be at least 1".into(),
            ));
        }
        return Ok(SpeedDistribution::Alternating { classes });
    }
    if let Some(rest) = token.strip_prefix("integer:") {
        let max: u64 = rest.parse().map_err(|_| bad())?;
        if max == 0 {
            return Err(SweepParseError::new(
                "integer speed max must be at least 1".into(),
            ));
        }
        return Ok(SpeedDistribution::IntegerUniform { max });
    }
    if let Some(rest) = token.strip_prefix("two-class:") {
        let (fast, frac) = rest.split_once(':').ok_or_else(bad)?;
        let fast: u64 = fast.parse().map_err(|_| bad())?;
        let fast_fraction: f64 = frac.parse().map_err(|_| bad())?;
        if fast == 0 {
            return Err(SweepParseError::new(
                "two-class fast speed must be at least 1".into(),
            ));
        }
        if !(0.0..=1.0).contains(&fast_fraction) {
            return Err(SweepParseError::new(
                "two-class fraction must lie in [0, 1]".into(),
            ));
        }
        return Ok(SpeedDistribution::TwoClass {
            fast,
            fast_fraction,
        });
    }
    if let Some(rest) = token.strip_prefix("ramp:") {
        let (max, gran) = rest.split_once(':').ok_or_else(bad)?;
        let max: f64 = max.parse().map_err(|_| bad())?;
        let granularity: f64 = gran.parse().map_err(|_| bad())?;
        if !(max.is_finite() && max >= 1.0) {
            return Err(SweepParseError::new(
                "ramp max speed must be finite and at least 1".into(),
            ));
        }
        if !(granularity > 0.0 && granularity <= 1.0) {
            return Err(SweepParseError::new(
                "ramp granularity must lie in (0, 1]".into(),
            ));
        }
        return Ok(SpeedDistribution::Ramp { max, granularity });
    }
    Err(SweepParseError::new(format!(
        "unknown speeds `{token}` (use uniform|alternating:K|integer:MAX|two-class:FAST:FRAC|\
         ramp:MAX:GRAN)"
    )))
}

/// The canonical grid token of a speed distribution.
pub fn speeds_grid_label(dist: SpeedDistribution) -> String {
    match dist {
        SpeedDistribution::Uniform => "uniform".to_string(),
        SpeedDistribution::Alternating { classes } => format!("alternating:{classes}"),
        SpeedDistribution::IntegerUniform { max } => format!("integer:{max}"),
        SpeedDistribution::TwoClass {
            fast,
            fast_fraction,
        } => format!("two-class:{fast}:{fast_fraction}"),
        SpeedDistribution::Ramp { max, granularity } => format!("ramp:{max}:{granularity}"),
    }
}

/// Parses a weight token: `unit`, `uniform:LO..HI`, `power-law:ALPHA:MIN`,
/// `bimodal:LIGHT:HEAVY:FRAC`.
pub fn parse_weights(token: &str) -> Result<WeightDistribution, SweepParseError> {
    if token == "unit" {
        return Ok(WeightDistribution::Unit);
    }
    let bad = || SweepParseError::new(format!("invalid weights `{token}`"));
    if let Some(rest) = token.strip_prefix("uniform:") {
        let (lo, hi) = rest.split_once("..").ok_or_else(bad)?;
        let lo: f64 = lo.parse().map_err(|_| bad())?;
        let hi: f64 = hi.parse().map_err(|_| bad())?;
        if !(lo > 0.0 && hi <= 1.0 && lo <= hi) {
            return Err(SweepParseError::new(format!(
                "weights range `{token}` needs 0 < LO ≤ HI ≤ 1"
            )));
        }
        return Ok(WeightDistribution::UniformRange { lo, hi });
    }
    if let Some(rest) = token.strip_prefix("power-law:") {
        let (alpha, min) = rest.split_once(':').ok_or_else(bad)?;
        let alpha: f64 = alpha.parse().map_err(|_| bad())?;
        let min: f64 = min.parse().map_err(|_| bad())?;
        if !(alpha.is_finite() && alpha > 0.0) {
            return Err(SweepParseError::new(
                "power-law alpha must be finite and positive".into(),
            ));
        }
        if !(min > 0.0 && min < 1.0) {
            return Err(SweepParseError::new(
                "power-law min must lie in (0, 1)".into(),
            ));
        }
        return Ok(WeightDistribution::BoundedPowerLaw { alpha, min });
    }
    if let Some(rest) = token.strip_prefix("bimodal:") {
        let mut parts = rest.split(':');
        let mut next = || -> Result<f64, SweepParseError> {
            parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())
        };
        let (light, heavy, heavy_fraction) = (next()?, next()?, next()?);
        if !(light > 0.0 && light <= 1.0 && heavy > 0.0 && heavy <= 1.0) {
            return Err(SweepParseError::new(
                "bimodal weights must lie in (0, 1]".into(),
            ));
        }
        if !(0.0..=1.0).contains(&heavy_fraction) {
            return Err(SweepParseError::new(
                "bimodal fraction must lie in [0, 1]".into(),
            ));
        }
        return Ok(WeightDistribution::Bimodal {
            light,
            heavy,
            heavy_fraction,
        });
    }
    Err(SweepParseError::new(format!(
        "unknown weights `{token}` (use unit|uniform:LO..HI|power-law:ALPHA:MIN|\
         bimodal:LIGHT:HEAVY:FRAC)"
    )))
}

/// The canonical grid token of a weight distribution.
pub fn weights_grid_label(dist: WeightDistribution) -> String {
    match dist {
        WeightDistribution::Unit => "unit".to_string(),
        WeightDistribution::UniformRange { lo, hi } => format!("uniform:{lo}..{hi}"),
        WeightDistribution::BoundedPowerLaw { alpha, min } => format!("power-law:{alpha}:{min}"),
        WeightDistribution::Bimodal {
            light,
            heavy,
            heavy_fraction,
        } => format!("bimodal:{light}:{heavy}:{heavy_fraction}"),
    }
}

/// Parses a placement token: `hot`, `node:V`, `slowest`, `random`,
/// `proportional`, `round-robin`.
pub fn parse_placement(token: &str) -> Result<Placement, SweepParseError> {
    match token {
        "hot" => Ok(Placement::AllOnNode(0)),
        "slowest" => Ok(Placement::AllOnSlowest),
        "random" => Ok(Placement::UniformRandom),
        "proportional" => Ok(Placement::SpeedProportional),
        "round-robin" => Ok(Placement::RoundRobin),
        other => {
            if let Some(rest) = other.strip_prefix("node:") {
                let v: usize = rest.parse().map_err(|_| {
                    SweepParseError::new(format!("invalid placement node `{rest}`"))
                })?;
                return Ok(Placement::AllOnNode(v));
            }
            Err(SweepParseError::new(format!(
                "unknown placement `{other}` (use hot|node:V|slowest|random|proportional|\
                 round-robin)"
            )))
        }
    }
}

/// The canonical grid token of a placement.
pub fn placement_grid_label(placement: Placement) -> String {
    match placement {
        Placement::AllOnNode(0) => "hot".to_string(),
        Placement::AllOnNode(v) => format!("node:{v}"),
        Placement::AllOnSlowest => "slowest".to_string(),
        Placement::UniformRandom => "random".to_string(),
        Placement::SpeedProportional => "proportional".to_string(),
        Placement::RoundRobin => "round-robin".to_string(),
    }
}

/// Parses an arrivals token: `none`, `poisson:RATE`, `batch:SIZE:PERIOD`.
pub fn parse_arrivals(token: &str) -> Result<Option<ArrivalProcess>, SweepParseError> {
    if token == "none" {
        return Ok(None);
    }
    let bad = || SweepParseError::new(format!("invalid arrivals `{token}`"));
    if let Some(rest) = token.strip_prefix("poisson:") {
        let rate: f64 = rest.parse().map_err(|_| bad())?;
        if !(rate.is_finite() && rate > 0.0) {
            return Err(SweepParseError::new(
                "poisson arrival rate must be finite and positive".into(),
            ));
        }
        return Ok(Some(ArrivalProcess::Poisson { rate }));
    }
    if let Some(rest) = token.strip_prefix("batch:") {
        let (size, period) = rest.split_once(':').ok_or_else(bad)?;
        let size: u64 = size.parse().map_err(|_| bad())?;
        let period: u64 = period.parse().map_err(|_| bad())?;
        if size == 0 || period == 0 {
            return Err(SweepParseError::new(
                "batch size and period must be positive".into(),
            ));
        }
        return Ok(Some(ArrivalProcess::Batch { size, period }));
    }
    Err(SweepParseError::new(format!(
        "unknown arrivals `{token}` (use none|poisson:RATE|batch:SIZE:PERIOD)"
    )))
}

/// The canonical grid token of an arrival process.
pub fn arrivals_grid_label(process: Option<ArrivalProcess>) -> String {
    match process {
        None => "none".to_string(),
        Some(ArrivalProcess::Poisson { rate }) => format!("poisson:{rate}"),
        Some(ArrivalProcess::Batch { size, period }) => format!("batch:{size}:{period}"),
    }
}

/// Parses a completions token: `none`, `rate:MU`, `count:C`.
pub fn parse_completions(token: &str) -> Result<Option<CompletionProcess>, SweepParseError> {
    if token == "none" {
        return Ok(None);
    }
    let bad = || SweepParseError::new(format!("invalid completions `{token}`"));
    if let Some(rest) = token.strip_prefix("rate:") {
        let mu: f64 = rest.parse().map_err(|_| bad())?;
        if !(mu.is_finite() && mu > 0.0 && mu <= 1.0) {
            return Err(SweepParseError::new(
                "completion rate must lie in (0, 1]".into(),
            ));
        }
        return Ok(Some(CompletionProcess::Rate { mu }));
    }
    if let Some(rest) = token.strip_prefix("count:") {
        let count: u64 = rest.parse().map_err(|_| bad())?;
        if count == 0 {
            return Err(SweepParseError::new(
                "completion count must be positive".into(),
            ));
        }
        return Ok(Some(CompletionProcess::PerRound { count }));
    }
    Err(SweepParseError::new(format!(
        "unknown completions `{token}` (use none|rate:MU|count:C)"
    )))
}

/// The canonical grid token of a completion process.
pub fn completions_grid_label(process: Option<CompletionProcess>) -> String {
    match process {
        None => "none".to_string(),
        Some(CompletionProcess::Rate { mu }) => format!("rate:{mu}"),
        Some(CompletionProcess::PerRound { count }) => format!("count:{count}"),
    }
}

/// Parses a churn token: `none`, `rate:P`.
pub fn parse_churn(token: &str) -> Result<Option<ChurnProcess>, SweepParseError> {
    if token == "none" {
        return Ok(None);
    }
    if let Some(rest) = token.strip_prefix("rate:") {
        let rate: f64 = rest
            .parse()
            .map_err(|_| SweepParseError::new(format!("invalid churn `{token}`")))?;
        if !(rate.is_finite() && rate > 0.0 && rate <= 1.0) {
            return Err(SweepParseError::new("churn rate must lie in (0, 1]".into()));
        }
        return Ok(Some(ChurnProcess { rate }));
    }
    Err(SweepParseError::new(format!(
        "unknown churn `{token}` (use none|rate:P)"
    )))
}

/// The canonical grid token of a churn process.
pub fn churn_grid_label(process: Option<ChurnProcess>) -> String {
    match process {
        None => "none".to_string(),
        Some(ChurnProcess { rate }) => format!("rate:{rate}"),
    }
}

/// Parses a speed-dynamics token: `none`, `drift:SIGMA`,
/// `shock:ROUND:FRAC`, `feedback:ETA`.
pub fn parse_speed_dyn(token: &str) -> Result<Option<SpeedDynamics>, SweepParseError> {
    if token == "none" {
        return Ok(None);
    }
    let bad = || SweepParseError::new(format!("invalid speed-dyn `{token}`"));
    if let Some(rest) = token.strip_prefix("drift:") {
        let sigma: f64 = rest.parse().map_err(|_| bad())?;
        if !(sigma.is_finite() && sigma > 0.0) {
            return Err(SweepParseError::new(
                "drift sigma must be finite and positive".into(),
            ));
        }
        return Ok(Some(SpeedDynamics::Drift { sigma }));
    }
    if let Some(rest) = token.strip_prefix("shock:") {
        let (round, frac) = rest.split_once(':').ok_or_else(bad)?;
        let round: u64 = round.parse().map_err(|_| bad())?;
        let fraction: f64 = frac.parse().map_err(|_| bad())?;
        if !(fraction.is_finite() && fraction > 0.0 && fraction <= 1.0) {
            return Err(SweepParseError::new(
                "shock fraction must lie in (0, 1]".into(),
            ));
        }
        return Ok(Some(SpeedDynamics::Shock { round, fraction }));
    }
    if let Some(rest) = token.strip_prefix("feedback:") {
        let eta: f64 = rest.parse().map_err(|_| bad())?;
        if !(eta.is_finite() && eta > 0.0 && eta <= 1.0) {
            return Err(SweepParseError::new(
                "feedback eta must lie in (0, 1]".into(),
            ));
        }
        return Ok(Some(SpeedDynamics::Feedback { eta }));
    }
    Err(SweepParseError::new(format!(
        "unknown speed-dyn `{token}` (use none|drift:SIGMA|shock:ROUND:FRAC|feedback:ETA)"
    )))
}

/// The canonical grid token of a speed-dynamics mode.
pub fn speed_dyn_grid_label(dynamics: Option<SpeedDynamics>) -> String {
    match dynamics {
        None => "none".to_string(),
        Some(SpeedDynamics::Drift { sigma }) => format!("drift:{sigma}"),
        Some(SpeedDynamics::Shock { round, fraction }) => format!("shock:{round}:{fraction}"),
        Some(SpeedDynamics::Feedback { eta }) => format!("feedback:{eta}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_one_cell() {
        let spec = SweepSpec::default();
        assert_eq!(spec.cell_count(), 1);
        let cells = spec.cells();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].protocol, ProtocolKind::Alg1);
        assert!(cells[0].is_uniform_tasks());
    }

    #[test]
    fn parse_full_grid() {
        let spec = SweepSpec::parse(&[
            "graph=ring:8,torus:3x3",
            "tasks-per-node=8,32",
            "speeds=uniform,alternating:2",
            "weights=unit,uniform:0.1..0.9",
            "placement=hot,random",
            "protocol=alg1,bhs",
            "until=nash,quiescent:50",
            "trials=5",
            "max-rounds=1000",
        ])
        .unwrap();
        assert_eq!(spec.cell_count(), 2 * 2 * 2 * 2 * 2 * 2 * 2);
        assert_eq!(spec.trials, 5);
        assert_eq!(spec.max_rounds, 1000);
        assert_eq!(spec.graphs[1], Family::Torus { rows: 3, cols: 3 });
        assert_eq!(
            spec.speeds[1],
            SpeedDistribution::Alternating { classes: 2 }
        );
        assert_eq!(
            spec.weights[1],
            WeightDistribution::UniformRange { lo: 0.1, hi: 0.9 }
        );
        assert_eq!(spec.stops[1], StopRule::Quiescent(50));
    }

    #[test]
    fn cells_enumerate_innermost_axis_fastest() {
        let spec = SweepSpec::parse(&["protocol=alg1,bhs", "until=nash,quiescent:9"]).unwrap();
        let cells = spec.cells();
        let got: Vec<(ProtocolKind, StopRule)> =
            cells.iter().map(|c| (c.protocol, c.stop)).collect();
        assert_eq!(
            got,
            vec![
                (ProtocolKind::Alg1, StopRule::Nash),
                (ProtocolKind::Alg1, StopRule::Quiescent(9)),
                (ProtocolKind::Bhs, StopRule::Nash),
                (ProtocolKind::Bhs, StopRule::Quiescent(9)),
            ]
        );
    }

    #[test]
    fn alg1_weighted_cells_are_first_class() {
        // alg1 × weighted is a real grid cell (the paper's headline
        // regime); the analysis layer dispatches it to the weight-class
        // engine rather than zeroing it out.
        let spec =
            SweepSpec::parse(&["protocol=alg1,alg2", "weights=unit,uniform:0.2..0.8"]).unwrap();
        let cells = spec.cells();
        let weighted_alg1: Vec<_> = cells
            .iter()
            .filter(|c| c.protocol == ProtocolKind::Alg1 && !c.is_uniform_tasks())
            .collect();
        assert_eq!(weighted_alg1.len(), 1);
        assert_eq!(
            weighted_alg1[0].weights,
            WeightDistribution::UniformRange { lo: 0.2, hi: 0.8 }
        );
    }

    #[test]
    fn grid_labels_roundtrip() {
        for token in [
            "ring:8",
            "path:5",
            "complete:6",
            "star:7",
            "hypercube:3",
            "mesh:2x5",
            "torus:3x4",
        ] {
            assert_eq!(family_grid_label(parse_family(token).unwrap()), token);
        }
        for token in [
            "uniform",
            "alternating:3",
            "integer:5",
            "two-class:4:0.25",
            "ramp:4:0.5",
        ] {
            assert_eq!(speeds_grid_label(parse_speeds(token).unwrap()), token);
        }
        for token in [
            "unit",
            "uniform:0.1..0.9",
            "power-law:1.2:0.05",
            "bimodal:0.1:1:0.3",
        ] {
            assert_eq!(weights_grid_label(parse_weights(token).unwrap()), token);
        }
        for token in [
            "hot",
            "node:3",
            "slowest",
            "random",
            "proportional",
            "round-robin",
        ] {
            assert_eq!(placement_grid_label(parse_placement(token).unwrap()), token);
        }
        for token in ["nash", "quiescent:17", "psi0:12.5"] {
            assert_eq!(StopRule::parse(token).unwrap().grid_label(), token);
        }
        for token in ["none", "poisson:0.5", "batch:64:10"] {
            assert_eq!(arrivals_grid_label(parse_arrivals(token).unwrap()), token);
        }
        for token in ["none", "rate:0.05", "count:32"] {
            assert_eq!(
                completions_grid_label(parse_completions(token).unwrap()),
                token
            );
        }
        for token in ["none", "rate:0.02"] {
            assert_eq!(churn_grid_label(parse_churn(token).unwrap()), token);
        }
        for token in ["none", "drift:0.1", "shock:150:0.25", "feedback:0.2"] {
            assert_eq!(speed_dyn_grid_label(parse_speed_dyn(token).unwrap()), token);
        }
        for p in ProtocolKind::ALL {
            assert_eq!(ProtocolKind::parse(p.grid_label()).unwrap(), p);
        }
    }

    #[test]
    fn rejects_malformed_tokens() {
        for bad in [
            &["graph=blob:4"][..],
            &["graph=ring"],
            &["graph=ring:zero"],
            &["graph=torus:4"],
            &["notakey=1"],
            &["graph"],
            &["trials=0"],
            &["trials=2,3"],
            &["max-rounds=0"],
            &["protocol=teleport"],
            &["until=psi0:-1"],
            &["until=sometime"],
            &["speeds=warp"],
            &["speeds=alternating:0"],
            &["speeds=integer:0"],
            &["speeds=two-class:0:0.5"],
            &["speeds=two-class:4:1.5"],
            &["speeds=ramp:0.5:0.5"],
            &["speeds=ramp:4:0"],
            &["graph=hypercube:0"],
            &["graph=hypercube:64"],
            &["weights=uniform:0.9..0.1"],
            &["weights=heavy"],
            &["weights=power-law:0:0.1"],
            &["weights=power-law:1.2:1"],
            &["weights=bimodal:0:1:0.5"],
            &["weights=bimodal:0.1:1:1.5"],
            &["placement=везде"],
            &["tasks-per-node=0"],
            &["graph="],
            &["arrivals=sometimes"],
            &["arrivals=poisson:-1"],
            &["arrivals=poisson:inf"],
            &["arrivals=batch:0:5"],
            &["arrivals=batch:64:0"],
            &["arrivals=batch:64"],
            &["completions=rate:0"],
            &["completions=rate:1.5"],
            &["completions=count:0"],
            &["completions=never"],
            &["churn=rate:0"],
            &["churn=rate:2"],
            &["churn=often"],
            &["speed-dyn=drift:0"],
            &["speed-dyn=drift:nan"],
            &["speed-dyn=shock:10:0"],
            &["speed-dyn=shock:10:1.5"],
            &["speed-dyn=shock:10"],
            &["speed-dyn=feedback:0"],
            &["speed-dyn=feedback:1.1"],
            &["speed-dyn=jitter"],
        ] {
            let err = SweepSpec::parse(bad).unwrap_err();
            assert!(!err.to_string().is_empty(), "token {bad:?} → {err}");
        }
    }

    #[test]
    fn dynamic_axes_default_to_none_and_nest_innermost() {
        // A grid that never names the dynamic keys produces the same
        // cells (and hence per-cell seeds) it always did.
        let spec = SweepSpec::parse(&["protocol=alg1,bhs"]).unwrap();
        assert_eq!(spec.cell_count(), 2);
        assert!(spec.cells().iter().all(|c| !c.is_dynamic()));

        let spec = SweepSpec::parse(&[
            "protocol=alg2",
            "arrivals=poisson:0.5",
            "completions=rate:0.05,count:8",
            "churn=rate:0.02",
            "speed-dyn=none,drift:0.1",
        ])
        .unwrap();
        assert_eq!(spec.cell_count(), 4);
        let cells = spec.cells();
        assert!(cells.iter().all(|c| c.is_dynamic()));
        // speed-dyn is the innermost axis.
        assert_eq!(cells[0].speed_dyn, None);
        assert_eq!(
            cells[1].speed_dyn,
            Some(SpeedDynamics::Drift { sigma: 0.1 })
        );
        assert_eq!(
            cells[0].completions,
            Some(CompletionProcess::Rate { mu: 0.05 })
        );
        assert_eq!(
            cells[2].completions,
            Some(CompletionProcess::PerRound { count: 8 })
        );
        let cfg = cells[1].dynamic_config();
        assert_eq!(cfg.arrivals, Some(ArrivalProcess::Poisson { rate: 0.5 }));
        assert_eq!(cfg.churn, Some(ChurnProcess { rate: 0.02 }));
    }

    #[test]
    fn rejects_duplicate_keys() {
        let err = SweepSpec::parse(&["trials=2", "trials=3"]).unwrap_err();
        assert!(err.to_string().contains("given twice"), "{err}");
    }

    #[test]
    fn error_implements_std_error() {
        let err = SweepSpec::parse(&["oops"]).unwrap_err();
        let _: &dyn std::error::Error = &err;
        assert!(err.to_string().contains("key=value"));
    }
}
