//! Declarative theorem-validation ladders: the `ValidateSpec` and its
//! `key=value[,value…]` parser.
//!
//! Where a [`SweepSpec`](crate::sweep::SweepSpec) names a grid of fully
//! sized topologies, a `ValidateSpec` names *scaling ladders*: a set of
//! sizeless graph [`FamilyShape`]s, a geometric ladder of node counts `n`,
//! and a ladder of loads `m/n`. The analysis layer
//! (`slb_analysis::validate`) runs every `(protocol, family, regime,
//! load)` row over all ladder sizes, fits the empirical scaling exponent
//! `T ∝ n^k`, and checks it against the paper's Table 1 predictions.
//!
//! # Ladder syntax
//!
//! ```text
//! family=ring,complete        n=8..64:x2    load=16,delta:2
//! protocol=alg1,alg2,bhs,diffusion,best-response
//! regime=approx,eps,exact     eps=0.25      factor=2    exp-tol=0.3
//! speeds=uniform              weights=unit  placement=hot
//! trials=3                    max-rounds=200000
//! ```
//!
//! `n` accepts either comma lists (`n=8,16,32`) or geometric ladders
//! `START..END:xMULT` (`n=8..64:x2` → 8, 16, 32, 64); sizes must be
//! strictly increasing and at least two (a log–log slope needs two
//! points). `load` values are per-node task counts (`m = k·n`; geometric
//! ladders allowed) or `delta:X` rules (`m = ⌈8δn²⌉·n`, Theorem 1.1's
//! threshold — the scaling under which the `Ψ₀ ≤ 4ψ_c` hitting time
//! actually exercises the multiplicative-drop phase at every ladder
//! size). `family` takes sizeless names; each is resolved against every
//! ladder size (`hypercube` needs powers of two, `mesh`/`torus` perfect
//! squares).

use crate::placement::Placement;
use crate::speeds::SpeedDistribution;
use crate::sweep::{
    exact_population, parse_all, parse_placement, parse_speeds, parse_weights,
    placement_grid_label, positive, read_tokens, single, speeds_grid_label, weights_grid_label,
    ProtocolKind, SweepParseError,
};
use crate::weights::WeightDistribution;
use slb_graphs::generators::{Family, MAX_PER_TASK_POPULATION};
use std::fmt;

/// A graph family *shape*: the Table 1 family without a size, resolved
/// against each ladder size `n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FamilyShape {
    /// Cycle `C_n` (`n ≥ 3`).
    Ring,
    /// Path `P_n` (`n ≥ 2`).
    Path,
    /// Complete graph `K_n` (`n ≥ 2`).
    Complete,
    /// Star `S_n` (`n ≥ 2`; not a Table 1 row).
    Star,
    /// Hypercube `Q_d` (`n` must be a power of two, `2 ≤ n ≤ 2²⁰`: the
    /// size limit of [`Family::check_size`] caps the edge count).
    Hypercube,
    /// Square mesh `P_r □ P_r` (`n = r²`, `r ≥ 2`).
    Mesh,
    /// Square torus `C_r □ C_r` (`n = r²`, `r ≥ 3`).
    Torus,
}

impl FamilyShape {
    /// All shapes, in grid order.
    pub const ALL: [FamilyShape; 7] = [
        FamilyShape::Ring,
        FamilyShape::Path,
        FamilyShape::Complete,
        FamilyShape::Star,
        FamilyShape::Hypercube,
        FamilyShape::Mesh,
        FamilyShape::Torus,
    ];

    /// The canonical ladder token (`ring`, `path`, …).
    pub fn label(self) -> &'static str {
        match self {
            FamilyShape::Ring => "ring",
            FamilyShape::Path => "path",
            FamilyShape::Complete => "complete",
            FamilyShape::Star => "star",
            FamilyShape::Hypercube => "hypercube",
            FamilyShape::Mesh => "mesh",
            FamilyShape::Torus => "torus",
        }
    }

    fn parse(token: &str) -> Result<Self, SweepParseError> {
        FamilyShape::ALL
            .into_iter()
            .find(|f| f.label() == token)
            .ok_or_else(|| {
                SweepParseError::new(format!(
                    "unknown family `{token}` (use ring|path|complete|star|hypercube|mesh|torus; \
                     ladders take sizeless names)"
                ))
            })
    }

    /// Resolves the shape at `n` nodes into a sized [`Family`].
    ///
    /// # Errors
    ///
    /// Returns a [`SweepParseError`] when the shape admits no `n`-node
    /// member (e.g. a non-power-of-two hypercube), or when that member is
    /// past the size limit of [`Family::check_size`].
    pub fn resolve(self, n: usize) -> Result<Family, SweepParseError> {
        let err = |need: &str| {
            Err(SweepParseError::new(format!(
                "family `{}` has no {n}-node member ({need})",
                self.label()
            )))
        };
        let family = match self {
            FamilyShape::Ring => {
                if n < 3 {
                    return err("need n ≥ 3");
                }
                Family::Ring { n }
            }
            FamilyShape::Path => {
                if n < 2 {
                    return err("need n ≥ 2");
                }
                Family::Path { n }
            }
            FamilyShape::Complete => {
                if n < 2 {
                    return err("need n ≥ 2");
                }
                Family::Complete { n }
            }
            FamilyShape::Star => {
                if n < 2 {
                    return err("need n ≥ 2");
                }
                Family::Star { n }
            }
            FamilyShape::Hypercube => {
                if n < 2 || !n.is_power_of_two() {
                    return err("need a power of two n ≥ 2");
                }
                Family::Hypercube {
                    d: n.trailing_zeros(),
                }
            }
            FamilyShape::Mesh => {
                let r = (n as f64).sqrt().round() as usize;
                if r < 2 || r.checked_mul(r) != Some(n) {
                    return err("need a perfect square n = r² with r ≥ 2");
                }
                Family::Mesh { rows: r, cols: r }
            }
            FamilyShape::Torus => {
                let r = (n as f64).sqrt().round() as usize;
                if r < 3 || r.checked_mul(r) != Some(n) {
                    return err("need a perfect square n = r² with r ≥ 3");
                }
                Family::Torus { rows: r, cols: r }
            }
        };
        family.check_size().map_err(|e| {
            SweepParseError::new(format!("family `{}` at n = {n}: {e}", self.label()))
        })?;
        Ok(family)
    }
}

impl fmt::Display for FamilyShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Which convergence target a validation row measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Regime {
    /// Rounds to Theorem 1.1/1.3's own target `Ψ₀ ≤ 4ψ_c` — the state the
    /// ε-approximate column of Table 1 bounds the time to. The reached
    /// state's Nash gap is recorded alongside, validating the theorems'
    /// second claim (that the state is a `2/(1+δ)`-approximate NE once
    /// `δ > 1`).
    Approx,
    /// Rounds to a *fixed*-ε approximate Nash equilibrium (the spec's
    /// `eps`). A direct relative-balance hitting time; measured and
    /// reported, but annotated with no Table 1 prediction — at reachable
    /// sizes it is dominated by the early spreading phase, not the
    /// asymptotic mixing the table's exponents describe.
    Eps,
    /// Rounds to an exact Nash equilibrium; compared against the exact
    /// column (Theorem 1.2).
    Exact,
}

impl Regime {
    /// The canonical ladder token (`approx`, `eps`, `exact`).
    pub fn label(self) -> &'static str {
        match self {
            Regime::Approx => "approx",
            Regime::Eps => "eps",
            Regime::Exact => "exact",
        }
    }

    fn parse(token: &str) -> Result<Self, SweepParseError> {
        match token {
            "approx" => Ok(Regime::Approx),
            "eps" => Ok(Regime::Eps),
            "exact" => Ok(Regime::Exact),
            other => Err(SweepParseError::new(format!(
                "unknown regime `{other}` (use approx|eps|exact)"
            ))),
        }
    }
}

impl fmt::Display for Regime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// How the task count scales along the size ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadRule {
    /// `m = k·n` — fixed average load; the natural reading of the exact
    /// column (Theorem 1.2's bound is `m`-free).
    PerNode(usize),
    /// `m = ⌈8·δ·n²⌉·n` — Theorem 1.1's task threshold at fixed `δ`
    /// (uniform-speed form `s_max = 1, S = n`), so the reached
    /// `Ψ₀ ≤ 4ψ_c` state carries the `2/(1+δ)`-approximation guarantee
    /// once `δ > 1`; the natural reading of the ε-approximate column.
    DeltaFixed(f64),
}

impl LoadRule {
    /// Tasks per node at ladder size `n`.
    pub fn tasks_per_node(self, n: usize) -> usize {
        match self {
            LoadRule::PerNode(k) => k,
            LoadRule::DeltaFixed(delta) => ((8.0 * delta * (n * n) as f64).ceil() as usize).max(1),
        }
    }

    /// The canonical ladder token (`16`, `delta:2`).
    pub fn label(self) -> String {
        match self {
            LoadRule::PerNode(k) => k.to_string(),
            LoadRule::DeltaFixed(delta) => format!("delta:{delta}"),
        }
    }

    fn parse(token: &str) -> Result<Self, SweepParseError> {
        if let Some(rest) = token.strip_prefix("delta:") {
            let delta: f64 = rest
                .parse()
                .map_err(|_| SweepParseError::new(format!("invalid load delta `{rest}`")))?;
            if !(delta.is_finite() && delta > 0.0) {
                return Err(SweepParseError::new(
                    "load delta must be finite and positive".into(),
                ));
            }
            return Ok(LoadRule::DeltaFixed(delta));
        }
        let k: usize = token
            .parse()
            .map_err(|_| SweepParseError::new(format!("invalid load value `{token}`")))?;
        if k == 0 {
            return Err(SweepParseError::new("load must be positive".into()));
        }
        Ok(LoadRule::PerNode(k))
    }
}

impl fmt::Display for LoadRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// One validation row: an exponent is fitted per (protocol, family,
/// regime, load) over the spec's size ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowSpec {
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// Graph family shape (resolved at each ladder size).
    pub family: FamilyShape,
    /// Convergence target.
    pub regime: Regime,
    /// Task scaling along the ladder.
    pub load: LoadRule,
}

/// A declarative theorem-validation ladder set.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidateSpec {
    /// Family axis (sizeless shapes).
    pub families: Vec<FamilyShape>,
    /// The node-count ladder (strictly increasing, ≥ 2 entries).
    pub sizes: Vec<usize>,
    /// The task-scaling axis (`m/n` values and/or `delta:X` rules).
    pub loads: Vec<LoadRule>,
    /// Protocol axis.
    pub protocols: Vec<ProtocolKind>,
    /// Regime axis (convergence targets).
    pub regimes: Vec<Regime>,
    /// Machine-speed distribution (one per spec).
    pub speeds: SpeedDistribution,
    /// Task-weight distribution (one per spec).
    pub weights: WeightDistribution,
    /// Initial placement (one per spec).
    pub placement: Placement,
    /// The ε of the `eps` regime's stop rule.
    pub eps: f64,
    /// Constant-factor tolerance for the absolute-rounds bound check
    /// (measured mean must stay within `factor ×` the theorem bound).
    pub factor: f64,
    /// Additive tolerance on the fitted exponent vs the Table 1 bound's
    /// ladder slope (absorbs finite-size transients the asymptotic
    /// analysis drops; the analogue of `factor` for the scaling check).
    pub exp_tol: f64,
    /// Trials per ladder point.
    pub trials: usize,
    /// Round budget per trial.
    pub max_rounds: u64,
}

impl Default for ValidateSpec {
    fn default() -> Self {
        ValidateSpec {
            families: vec![FamilyShape::Ring],
            sizes: vec![8, 16, 32],
            loads: vec![LoadRule::PerNode(16)],
            protocols: vec![ProtocolKind::Alg1],
            regimes: vec![Regime::Approx],
            speeds: SpeedDistribution::Uniform,
            weights: WeightDistribution::Unit,
            placement: Placement::AllOnNode(0),
            eps: 0.25,
            factor: 2.0,
            exp_tol: 0.3,
            trials: 3,
            max_rounds: 200_000,
        }
    }
}

impl ValidateSpec {
    /// Parses a spec from `key=value[,value…]` tokens. Omitted keys keep
    /// their [`Default`] values; duplicated keys are rejected.
    ///
    /// # Errors
    ///
    /// Returns a [`SweepParseError`] naming the offending token.
    pub fn parse<S: AsRef<str>>(tokens: &[S]) -> Result<ValidateSpec, SweepParseError> {
        let mut spec = ValidateSpec::default();
        read_tokens("ladder", tokens, |key, list| {
            match key {
                "family" => spec.families = parse_all(list, FamilyShape::parse)?,
                "n" => spec.sizes = parse_ladder("n", list)?,
                "load" => {
                    // Geometric per-node ladders expand; otherwise each
                    // token is a per-node count or a `delta:X` rule.
                    if list.len() == 1 && list[0].contains("..") {
                        spec.loads = parse_ladder("load", list)?
                            .into_iter()
                            .map(LoadRule::PerNode)
                            .collect();
                    } else {
                        spec.loads = parse_all(list, LoadRule::parse)?;
                    }
                }
                "protocol" => spec.protocols = parse_all(list, ProtocolKind::parse)?,
                "regime" => spec.regimes = parse_all(list, Regime::parse)?,
                "speeds" => spec.speeds = parse_speeds(single(key, list)?)?,
                "weights" => spec.weights = parse_weights(single(key, list)?)?,
                "placement" => spec.placement = parse_placement(single(key, list)?)?,
                "eps" => {
                    spec.eps = number(key, single(key, list)?)?;
                    if !(spec.eps > 0.0 && spec.eps <= 1.0) {
                        return Err(SweepParseError::new("eps must lie in (0, 1]".into()));
                    }
                }
                "factor" => {
                    spec.factor = number(key, single(key, list)?)?;
                    if !(spec.factor.is_finite() && spec.factor > 0.0) {
                        return Err(SweepParseError::new(
                            "factor must be finite and positive".into(),
                        ));
                    }
                }
                "exp-tol" => {
                    spec.exp_tol = number(key, single(key, list)?)?;
                    if !(spec.exp_tol.is_finite() && spec.exp_tol >= 0.0) {
                        return Err(SweepParseError::new(
                            "exp-tol must be finite and nonnegative".into(),
                        ));
                    }
                }
                "trials" => spec.trials = positive(key, single(key, list)?)?,
                "max-rounds" => spec.max_rounds = positive(key, single(key, list)?)?,
                other => {
                    return Err(SweepParseError::new(format!(
                        "unknown ladder key `{other}` (use family|n|load|protocol|regime|speeds|\
                         weights|placement|eps|factor|exp-tol|trials|max-rounds)"
                    )))
                }
            }
            Ok(())
        })?;
        spec.validate()?;
        Ok(spec)
    }

    /// Checks the spec's internal consistency: ladders are strictly
    /// increasing with at least two sizes, every family resolves at every
    /// size, and every population stays within 2⁵³ tasks (and within
    /// [`MAX_PER_TASK_POPULATION`] if a protocol runs per task).
    ///
    /// # Errors
    ///
    /// Returns a [`SweepParseError`] naming the first inconsistency.
    pub fn validate(&self) -> Result<(), SweepParseError> {
        if self.sizes.len() < 2 {
            return Err(SweepParseError::new(
                "the n ladder needs at least two sizes (a log–log slope needs two points)".into(),
            ));
        }
        if self.sizes.windows(2).any(|w| w[0] >= w[1]) {
            return Err(SweepParseError::new(
                "the n ladder must be strictly increasing".into(),
            ));
        }
        if self.loads.is_empty() {
            return Err(SweepParseError::new(
                "the load axis must be nonempty".into(),
            ));
        }
        if self.loads.iter().any(|l| matches!(l, LoadRule::PerNode(0))) {
            return Err(SweepParseError::new("load must be positive".into()));
        }
        for &family in &self.families {
            for &n in &self.sizes {
                let nodes = family.resolve(n)?.node_count();
                for &load in &self.loads {
                    let Some(m) = exact_population(nodes, load.tasks_per_node(n)) else {
                        return Err(SweepParseError::new(format!(
                            "load `{}` at ladder size {n} puts the population past 2^53 tasks \
                             (loads are exact only up to 2^53 tasks): lower the load",
                            load.label()
                        )));
                    };
                    if let Some(protocol) = self.protocols.iter().find(|p| p.rule().is_none()) {
                        if m > MAX_PER_TASK_POPULATION {
                            return Err(SweepParseError::new(format!(
                                "load `{}` at ladder size {n} puts {m} tasks in a `{}` row, past \
                                 its per-task limit of 2^24 tasks: lower the load, or use \
                                 alg1|alg2|bhs",
                                load.label(),
                                protocol.grid_label()
                            )));
                        }
                    }
                }
                if let Placement::AllOnNode(v) = self.placement {
                    if v >= n {
                        return Err(SweepParseError::new(format!(
                            "placement `node:{v}` is out of range at ladder size {n}"
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Number of rows (exponent fits) the spec produces.
    pub fn row_count(&self) -> usize {
        self.families.len() * self.loads.len() * self.protocols.len() * self.regimes.len()
    }

    /// The rows, in a stable nesting order (family outermost, regime
    /// innermost). Row indices — and hence the per-row seeds derived from
    /// them — follow this order.
    pub fn rows(&self) -> Vec<RowSpec> {
        let mut out = Vec::with_capacity(self.row_count());
        for &family in &self.families {
            for &load in &self.loads {
                for &protocol in &self.protocols {
                    for &regime in &self.regimes {
                        out.push(RowSpec {
                            protocol,
                            family,
                            regime,
                            load,
                        });
                    }
                }
            }
        }
        out
    }

    /// The canonical token describing the size ladder (`8-16-32`).
    pub fn sizes_label(&self) -> String {
        self.sizes
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join("-")
    }

    /// The single-value axis tokens, for report preambles.
    pub fn scenario_label(&self) -> String {
        format!(
            "speeds={} weights={} placement={}",
            speeds_grid_label(self.speeds),
            weights_grid_label(self.weights),
            placement_grid_label(self.placement),
        )
    }
}

/// Parses the value `raw` of `key` as a float.
fn number(key: &str, raw: &str) -> Result<f64, SweepParseError> {
    raw.parse()
        .map_err(|_| SweepParseError::new(format!("invalid {key} `{raw}`")))
}

/// Parses a ladder axis: either a comma list (already split into `list`)
/// or one geometric token `START..END:xMULT`.
fn parse_ladder(key: &str, list: &[&str]) -> Result<Vec<usize>, SweepParseError> {
    let number = |raw: &str| -> Result<usize, SweepParseError> {
        raw.parse()
            .map_err(|_| SweepParseError::new(format!("invalid {key} value `{raw}`")))
    };
    if list.len() == 1 && list[0].contains("..") {
        let (range, mult) = list[0].split_once(':').ok_or_else(|| {
            SweepParseError::new(format!(
                "geometric {key} ladder needs a multiplier, e.g. `{key}=8..64:x2`"
            ))
        })?;
        let (start, end) = range.split_once("..").expect("checked contains");
        let start = number(start)?;
        let end = number(end)?;
        let mult = mult
            .strip_prefix('x')
            .and_then(|m| m.parse::<usize>().ok())
            .ok_or_else(|| {
                SweepParseError::new(format!("invalid {key} multiplier `{mult}` (use xK)"))
            })?;
        if start == 0 || end < start || mult < 2 {
            return Err(SweepParseError::new(format!(
                "geometric {key} ladder needs 0 < START ≤ END and a multiplier ≥ 2"
            )));
        }
        let mut out = Vec::new();
        let mut v = start;
        while v <= end {
            out.push(v);
            match v.checked_mul(mult) {
                Some(next) => v = next,
                None => break,
            }
        }
        return Ok(out);
    }
    let out: Vec<usize> = list.iter().map(|v| number(v)).collect::<Result<_, _>>()?;
    if out.contains(&0) {
        return Err(SweepParseError::new(format!("{key} must be positive")));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_a_ring_ladder() {
        let spec = ValidateSpec::default();
        assert_eq!(spec.row_count(), 1);
        spec.validate().unwrap();
        let rows = spec.rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].family, FamilyShape::Ring);
        assert_eq!(rows[0].regime, Regime::Approx);
        assert_eq!(spec.sizes_label(), "8-16-32");
        assert!(spec.scenario_label().contains("speeds=uniform"));
    }

    #[test]
    fn geometric_ladders_expand() {
        let spec = ValidateSpec::parse(&["n=8..64:x2", "load=4..16:x4"]).unwrap();
        assert_eq!(spec.sizes, vec![8, 16, 32, 64]);
        assert_eq!(
            spec.loads,
            vec![LoadRule::PerNode(4), LoadRule::PerNode(16)]
        );
        // END is inclusive only when hit exactly.
        let spec = ValidateSpec::parse(&["n=8..60:x2"]).unwrap();
        assert_eq!(spec.sizes, vec![8, 16, 32]);
    }

    #[test]
    fn load_rules_parse_and_resolve() {
        let spec = ValidateSpec::parse(&["load=8,delta:2"]).unwrap();
        assert_eq!(
            spec.loads,
            vec![LoadRule::PerNode(8), LoadRule::DeltaFixed(2.0)]
        );
        assert_eq!(LoadRule::PerNode(8).tasks_per_node(32), 8);
        // 8·δ·n² with δ = 2, n = 4 → 256 per node (m = 8δn³).
        assert_eq!(LoadRule::DeltaFixed(2.0).tasks_per_node(4), 256);
        assert_eq!(LoadRule::DeltaFixed(2.0).label(), "delta:2");
        assert_eq!(LoadRule::PerNode(8).to_string(), "8");
    }

    #[test]
    fn full_parse_roundtrip() {
        let spec = ValidateSpec::parse(&[
            "family=ring,complete",
            "n=4,8,16",
            "load=8,32",
            "protocol=alg1,bhs",
            "regime=approx,exact",
            "speeds=alternating:2",
            "weights=bimodal:0.25:1:0.5",
            "placement=hot",
            "eps=0.5",
            "factor=3",
            "exp-tol=0.5",
            "trials=5",
            "max-rounds=1000",
        ])
        .unwrap();
        assert_eq!(spec.row_count(), 2 * 2 * 2 * 2);
        assert_eq!(spec.eps, 0.5);
        assert_eq!(spec.factor, 3.0);
        assert_eq!(spec.exp_tol, 0.5);
        assert_eq!(spec.trials, 5);
        assert_eq!(spec.max_rounds, 1000);
        // Stable nesting: family outermost, regime innermost.
        let rows = spec.rows();
        assert_eq!(rows[0].family, FamilyShape::Ring);
        assert_eq!(rows[0].regime, Regime::Approx);
        assert_eq!(rows[1].regime, Regime::Exact);
        assert_eq!(rows[8].family, FamilyShape::Complete);
    }

    #[test]
    fn family_shapes_resolve_with_constraints() {
        assert_eq!(FamilyShape::Ring.resolve(8).unwrap(), Family::Ring { n: 8 });
        assert_eq!(
            FamilyShape::Hypercube.resolve(16).unwrap(),
            Family::Hypercube { d: 4 }
        );
        assert_eq!(
            FamilyShape::Mesh.resolve(9).unwrap(),
            Family::Mesh { rows: 3, cols: 3 }
        );
        assert_eq!(
            FamilyShape::Torus.resolve(16).unwrap(),
            Family::Torus { rows: 4, cols: 4 }
        );
        assert!(FamilyShape::Ring.resolve(2).is_err());
        assert!(FamilyShape::Hypercube.resolve(12).is_err());
        assert!(FamilyShape::Mesh.resolve(8).is_err());
        assert!(FamilyShape::Torus.resolve(4).is_err(), "2×2 torus invalid");
        for shape in FamilyShape::ALL {
            assert_eq!(FamilyShape::parse(shape.label()).unwrap(), shape);
        }
    }

    #[test]
    fn rejects_malformed_ladders() {
        for bad in [
            &["family=blob"][..],
            &["family=ring:8"],
            &["n=8"],
            &["n=8,8"],
            &["n=32,16"],
            &["n=0,8"],
            &["n=8..4:x2"],
            &["n=8..64:x1"],
            &["n=8..64:2"],
            &["n=8..64"],
            &["load=0"],
            &["load=delta:0"],
            &["load=delta:inf"],
            &["load=heavy"],
            &["protocol=teleport"],
            &["regime=sometime"],
            &["eps=0"],
            &["eps=1.5"],
            &["eps=0.2,0.3"],
            &["factor=-1"],
            &["exp-tol=-0.1"],
            &["exp-tol=nan"],
            &["trials=0"],
            &["max-rounds=0"],
            &["speeds=warp"],
            &["weights=heavy"],
            &["placement=везде"],
            &["family=hypercube", "n=8,12"],
            &["family=mesh", "n=9,10"],
            &["placement=node:50", "n=8,16"],
            &["notakey=1"],
            &["n"],
            &["n=8", "n=16"],
        ] {
            let err = ValidateSpec::parse(bad).unwrap_err();
            assert!(!err.to_string().is_empty(), "token {bad:?} → {err}");
        }
    }

    #[test]
    fn labels_display() {
        assert_eq!(FamilyShape::Hypercube.to_string(), "hypercube");
        assert_eq!(Regime::Exact.to_string(), "exact");
    }
}
