//! `slb` — command-line front end for the selfish load-balancing simulator.
//!
//! Run simulations and inspect instances without writing Rust:
//!
//! ```console
//! slb simulate graph=ring:16 tasks-per-node=32 protocol=alg1 until=nash --seed 7
//! slb spectral graph=torus:5x5
//! slb bounds   graph=hypercube:5 tasks-per-node=64
//! ```
//!
//! Every subcommand reads its input as `key=value[,value…]` tokens
//! through the one reader of `slb_workloads::sweep::read_tokens`, plus a
//! few `--flag value` options. `simulate`, `spectral` and `bounds` take a
//! one-cell sweep grid. Argument parsing is hand-rolled (the workspace's
//! dependency policy has no CLI crate); every subcommand prints
//! `--help`-style usage on bad input and exits nonzero.

use selfish_load_balancing::prelude::*;
use std::collections::HashMap;
use std::process::ExitCode;

const USAGE: &str = "\
slb — distributed selfish load balancing (Adolphs & Berenbrink, PODC 2012)

USAGE:
  slb simulate [CELL] [OPTIONS]   run one protocol to a stop condition
  slb spectral [CELL]   print λ₂ and the spectral bounds of a topology
  slb bounds [CELL]     print the paper's convergence bounds for an instance
  slb sweep [GRID] [OPTIONS]   run an experiment grid, emit CSV/JSON
  slb validate [LADDER] [OPTIONS]   run scaling ladders, check Table 1 conformance
  slb serve [SPEC] [OPTIONS]   route a synthetic job stream through the
                               protocols and baselines, emit CSV/JSON

CELL (one-value sweep grid tokens, sweep defaults; every task on node 0):
  simulate graph= tasks-per-node= speeds= weights= protocol= until= max-rounds=
  [--seed N] [--max-rounds N] reports cell 0 of `slb sweep CELL trials=1 --seed N`;
  spectral takes graph=, bounds takes graph= and tasks-per-node=

SWEEP GRID (positional key=a,b,c tokens; omitted keys use the default):
  graph=ring:8,torus:3x3,…      ring|path|complete|star:N, hypercube:D,
                                mesh|torus:RxC              (default ring:8)
  tasks-per-node=8,32,…                                     (default 16)
  speeds=uniform,alternating:K,integer:MAX,two-class:FAST:FRAC,ramp:MAX:GRAN
  weights=unit,uniform:LO..HI,power-law:ALPHA:MIN,bimodal:LIGHT:HEAVY:FRAC
  placement=hot,node:V,slowest,random,proportional,round-robin
  protocol=alg1,alg2,bhs,diffusion,best-response            (default alg1)
  until=nash,quiescent:K,psi0:X                             (default nash)
  arrivals=none,poisson:RATE,batch:SIZE:PERIOD              (default none)
  completions=none,rate:MU,count:C                          (default none)
  churn=none,rate:P                                         (default none)
  speed-dyn=none,drift:SIGMA,shock:ROUND:FRAC,feedback:ETA  (default none)
                     any non-none dynamic axis runs the cell's events
                     on the count engine (alg1|alg2|bhs only) for exactly
                     max-rounds rounds, reporting the time-averaged
                     Nash gap and post-shock recovery rounds

SWEEP OPTIONS:
  --trials <N>       trials per cell                        (default 3)
  --max-rounds <N>   round budget per trial                 (default 200000)
  --seed <N>         base seed; cell c, trial t runs on
                     derive_seed(seed, c, t)                (default 42)
  --threads <N>      one worker budget for both parallelism
                     levels: fanned across (cell, trial) work
                     items first, with the remainder driving
                     each trial's sharded rounds (output is
                     identical for every thread count)      (default: cores)
  --format <csv|json>                                       (default csv)
  --out <PATH>       write the artifact to a file instead of stdout

VALIDATE LADDER (positional key=a,b,c tokens; omitted keys use the default):
  family=ring,complete,…        sizeless names: ring|path|complete|star|
                                hypercube|mesh|torus        (default ring)
  n=8..64:x2 | n=8,16,32        geometric or listed node-count ladder
                                                            (default 8,16,32)
  load=16 | load=delta:2        m/n per node, or Thm 1.1's m = 8δn³ scaling
  protocol=alg1,…               as in sweep                 (default alg1)
  regime=approx,eps,exact       Ψ₀≤4ψ_c | ε-Nash(eps) | exact NE (default approx)
  speeds=… weights=… placement=…   single values, sweep syntax
  eps=X              ε of the eps regime                    (default 0.25)
  factor=X           rounds must stay ≤ X·theory bound      (default 2)
  exp-tol=X          exponent slack vs the Table 1 shape    (default 0.3)

VALIDATE OPTIONS:
  --trials/--max-rounds/--seed/--threads   as in sweep
  --report <md|csv|json>   report format                    (default md)
  --out <PATH>       write the report to a file instead of stdout

SERVE SPEC (positional key=value tokens; omitted keys use the default):
  graph=ring:64                 topology, sweep syntax      (default ring:8)
  policy=alg1,alg2,bhs,round-robin,greedy-least-loaded,bandwidth-softmax
                                comma list                  (default all six)
  speeds=uniform,…              sweep syntax, sampled once  (default uniform)
  weights=unit,uniform:LO..HI,… job weights, sweep syntax   (default unit)
  traffic=poisson:RATE|none     open-loop jobs per unit     (default poisson:4)
  closed=USERS:THINK|none       closed-loop population      (default none)
  faults=crash:MTTF:MTTR|none   per-backend exponential
                                crash/recover renewals      (default none)
  signal=stale:D[+loss:P]|none  probe-refreshed load view:
                                interval D units, per-probe
                                loss probability P          (default none)
  retry=max:R:base:B|none       fault-hit jobs retry ≤ R
                                times, backoff B·2^(a−1)    (default none)
  horizon=N                     units of traffic, then the
                                run drains                  (default 100)

SERVE OPTIONS:
  --seed <N>         base seed; all policies share the scenario
                     (speeds + open-loop traffic) derived from it
                                                            (default 42)
  --threads <N>      policies fan across workers; artifacts are
                     byte-identical for every thread count  (default: cores)
  --shift <S>        measurement window: [S, horizon) if S ≥ 0,
                     the last |S| units if S < 0            (default 0)
  --format <csv|json>                                       (default csv)
  --out <PATH>       write the artifact to a file instead of stdout
";

/// Splits raw arguments into `--flag [value]` pairs and positional
/// tokens. A value binds either inline (`--flag=value`) or as the next
/// token (`--flag value`); a flag followed by another flag (or by
/// nothing) is boolean and gets the value `"true"`; duplicated flags are
/// rejected whichever spelling each use chose.
///
/// Signed numeric values work in both spellings: the lookahead treats
/// only `--`-prefixed tokens as flags, so `--shift -1` binds `-1`, and
/// `--shift=-1` binds inline (the spelling that used to be swallowed
/// whole as an unknown flag named `shift=-1`).
fn parse_args(args: &[String]) -> Result<(HashMap<String, String>, Vec<String>), String> {
    let mut flags = HashMap::new();
    let mut positional = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let Some(token) = args[i].strip_prefix("--") else {
            positional.push(args[i].clone());
            i += 1;
            continue;
        };
        if token.is_empty() {
            return Err("empty flag `--`".into());
        }
        let (key, value) = match token.split_once('=') {
            Some(("", _)) => return Err(format!("empty flag name in `--{token}`")),
            Some((key, value)) => {
                i += 1;
                (key, value.to_string())
            }
            None => match args.get(i + 1) {
                Some(next) if !next.starts_with("--") => {
                    i += 2;
                    (token, next.clone())
                }
                _ => {
                    i += 1;
                    (token, "true".to_string())
                }
            },
        };
        if flags.insert(key.to_string(), value).is_some() {
            return Err(format!("flag --{key} given twice"));
        }
    }
    Ok((flags, positional))
}

fn get<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("invalid value `{raw}` for --{key}")),
    }
}

/// The one-cell sweep grid of `simulate`, `spectral` and `bounds`: the
/// sweep's tokens restricted to `keys`, one value each, checked as
/// `slb sweep` checks its cells.
fn one_cell(command: &str, tokens: &[String], keys: &[&str]) -> Result<SweepSpec, String> {
    let invalid = |e: String| format!("invalid {command} grid: {e}");
    if let Some((key, _)) = tokens
        .iter()
        .filter_map(|t| t.split_once('='))
        .find(|(key, _)| !keys.contains(key))
    {
        return Err(invalid(format!(
            "unknown {command} key `{key}` (use {})",
            keys.join("|")
        )));
    }
    let spec = SweepSpec::parse(tokens).map_err(|e| invalid(e.to_string()))?;
    if spec.cell_count() != 1 {
        return Err(invalid(format!(
            "{command} takes one cell, not {} (give each key one value)",
            spec.cell_count()
        )));
    }
    selfish_load_balancing::analysis::sweep::validate(&spec).map_err(|e| e.to_string())?;
    Ok(spec)
}

/// [`one_cell`] for `spectral` and `bounds`: `λ₂` and the theorem
/// bounds need an edge, so a one-node graph is rejected.
fn multi_node_cell(command: &str, tokens: &[String], keys: &[&str]) -> Result<CellSpec, String> {
    let cell = one_cell(command, tokens, keys)?.cells()[0];
    if cell.graph.node_count() < 2 {
        return Err(format!(
            "invalid {}: family `{}` has no 1-node member (need n ≥ 2)",
            cell.graph,
            cell.graph.label()
        ));
    }
    Ok(cell)
}

/// The keys `slb simulate` takes.
const SIMULATE_KEYS: &[&str] = &[
    "graph",
    "tasks-per-node",
    "speeds",
    "weights",
    "protocol",
    "until",
    "max-rounds",
];

/// Runs the cell of [`one_cell`] as trial 0 of a one-cell sweep with base
/// seed `--seed`, so it reports what `slb sweep … trials=1` reports for
/// the same tokens.
fn cmd_simulate(flags: HashMap<String, String>, tokens: &[String]) -> Result<(), String> {
    use selfish_load_balancing::analysis::runner::trial_seed;
    use selfish_load_balancing::analysis::trial::Trial;
    let mut spec = one_cell("simulate", tokens, SIMULATE_KEYS)?;
    budget_flags(
        &flags,
        tokens,
        "grid",
        &mut spec.trials,
        &mut spec.max_rounds,
    )?;
    let cell = spec.cells()[0];
    let max_rounds = spec.max_rounds;
    let seed: u64 = get(&flags, "seed", 42)?;
    let trial = Trial::of_cell(&cell, trial_seed(seed, 0, 0)).map_err(|e| e.to_string())?;
    let instance = trial.instance();
    println!(
        "instance : {}, m = {}, s_max = {}, protocol = {}",
        cell.graph,
        instance.task_count,
        instance.speeds.max(),
        cell.protocol
    );
    // Every task starts on node 0, so node 0 holds the whole unquantized
    // drawn weight.
    let mut node_weights = vec![0.0; instance.graph.node_count()];
    node_weights[0] = instance.total_work;
    let start =
        potential::report_from_weights(&node_weights, &instance.speeds, instance.total_work);
    println!(
        "start    : Ψ₀ = {:.2}, L_Δ = {:.3}",
        start.psi0, start.max_load_deviation
    );
    let condition = trial.condition(cell.stop);
    let outcome = trial.run(cell.protocol, condition, max_rounds, 1).run;
    match outcome.reason {
        StopReason::ConditionMet => println!(
            "result   : condition met after {} rounds ({} migrations)",
            outcome.rounds, outcome.migrations
        ),
        StopReason::BudgetExhausted => println!(
            "result   : budget of {max_rounds} rounds exhausted ({} migrations)",
            outcome.migrations
        ),
    }
    Ok(())
}

fn cmd_spectral(_: HashMap<String, String>, tokens: &[String]) -> Result<(), String> {
    let family = multi_node_cell("spectral", tokens, &["graph"])?.graph;
    let graph = family.build();
    let closed = closed_form::lambda2_family(family);
    let numeric = laplacian::lambda2(&graph).map_err(|e| e.to_string())?;
    let diam = selfish_load_balancing::graphs::traversal::diameter(&graph)
        .ok_or("graph is disconnected")?;
    println!("family     : {family}");
    println!(
        "n, |E|, Δ  : {}, {}, {}",
        graph.node_count(),
        graph.edge_count(),
        graph.max_degree()
    );
    println!("diameter   : {diam}");
    println!("λ₂ closed  : {closed:.6}");
    println!("λ₂ numeric : {numeric:.6}");
    use selfish_load_balancing::spectral::bounds;
    println!(
        "bounds     : Fiedler ≤ {:.4}; Mohar ≥ {:.6}; 2Δ ≥ {:.4}",
        bounds::fiedler_upper(&graph),
        bounds::mohar_lambda2_lower(graph.node_count(), diam),
        bounds::two_delta_upper(&graph),
    );
    Ok(())
}

fn cmd_bounds(_: HashMap<String, String>, tokens: &[String]) -> Result<(), String> {
    let cell = multi_node_cell("bounds", tokens, &["graph", "tasks-per-node"])?;
    let family = cell.graph;
    let n = family.node_count();
    let m = n * cell.tasks_per_node;
    let graph = family.build();
    let inst = theory::Instance::uniform_speeds(
        n,
        m,
        graph.max_degree(),
        closed_form::lambda2_family(family),
    );
    println!("instance : {family}, m = {m} (uniform speeds)");
    println!("γ        : {:.2}", theory::gamma(&inst));
    println!("ψ_c      : {:.2}", theory::psi_c(&inst));
    println!(
        "T = 2γ·ln(m/n)              : {:.1}",
        theory::t_block(&inst)
    );
    println!(
        "Thm 1.1 (E[rounds to Ψ₀≤4ψ_c]) : {:.1}",
        theory::thm11_expected_rounds(&inst)
    );
    if let Some(b) = theory::thm12_expected_rounds(&inst) {
        println!("Thm 1.2 (E[rounds to exact NE]) : {b:.1}");
    }
    let delta = theory::delta_of_instance(&inst);
    println!(
        "δ = {:.3} → the reached state is a {:.3}-approximate NE (needs δ > 1)",
        delta,
        theory::eps_of_delta(delta)
    );
    Ok(())
}

/// Applies `--trials` and `--max-rounds` over a spec's own values. Both
/// also exist as spec tokens; giving both would silently shadow one, so
/// that is rejected like any other duplicate.
fn budget_flags(
    flags: &HashMap<String, String>,
    tokens: &[String],
    noun: &str,
    trials: &mut usize,
    max_rounds: &mut u64,
) -> Result<(), String> {
    for key in ["trials", "max-rounds"] {
        let prefix = format!("{key}=");
        if flags.contains_key(key) && tokens.iter().any(|t| t.starts_with(&prefix)) {
            return Err(format!(
                "`{key}` given both as a {noun} token and as --{key}; pick one"
            ));
        }
    }
    *trials = get(flags, "trials", *trials)?;
    *max_rounds = get(flags, "max-rounds", *max_rounds)?;
    if *trials == 0 {
        return Err("--trials must be positive".into());
    }
    if *max_rounds == 0 {
        return Err("--max-rounds must be positive".into());
    }
    Ok(())
}

/// `--threads`, defaulting to the core count.
fn threads_of(flags: &HashMap<String, String>) -> Result<usize, String> {
    let default_threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    match get(flags, "threads", default_threads)? {
        0 => Err("--threads must be positive".into()),
        threads => Ok(threads),
    }
}

/// The output format named by `--{key}` (default: the first allowed one),
/// checked before running so a typo cannot discard a long run.
fn format_of<'a>(
    flags: &'a HashMap<String, String>,
    key: &str,
    allowed: &[&'a str],
    what: &str,
) -> Result<&'a str, String> {
    let format = flags.get(key).map_or(allowed[0], String::as_str);
    if allowed.contains(&format) {
        Ok(format)
    } else {
        Err(format!(
            "unknown {what} `{format}` (use {})",
            allowed.join("|")
        ))
    }
}

/// Writes an artifact to `--out`, or to stdout without it.
fn emit(flags: &HashMap<String, String>, rendered: &str) -> Result<(), String> {
    match flags.get("out") {
        Some(path) => {
            std::fs::write(path, rendered).map_err(|e| format!("cannot write `{path}`: {e}"))
        }
        None => {
            print!("{rendered}");
            Ok(())
        }
    }
}

fn cmd_sweep(flags: HashMap<String, String>, grid: &[String]) -> Result<(), String> {
    use selfish_load_balancing::analysis::sweep::{run_sweep, SweepConfig};

    let mut spec = SweepSpec::parse(grid).map_err(|e| format!("invalid sweep grid: {e}"))?;
    budget_flags(&flags, grid, "grid", &mut spec.trials, &mut spec.max_rounds)?;
    let base_seed: u64 = get(&flags, "seed", 42)?;
    let threads = threads_of(&flags)?;
    let format = format_of(&flags, "format", &["csv", "json"], "format")?;
    let outcome =
        run_sweep(&spec, SweepConfig { base_seed, threads }).map_err(|e| e.to_string())?;
    match format {
        "csv" => emit(&flags, &outcome.to_csv()),
        _ => emit(&flags, &outcome.to_json()),
    }
}

fn cmd_validate(flags: HashMap<String, String>, ladder: &[String]) -> Result<(), String> {
    use selfish_load_balancing::analysis::tables::fmt_value;
    use selfish_load_balancing::analysis::validate::{run_validate, ValidateConfig};

    let mut spec =
        ValidateSpec::parse(ladder).map_err(|e| format!("invalid validate ladder: {e}"))?;
    budget_flags(
        &flags,
        ladder,
        "ladder",
        &mut spec.trials,
        &mut spec.max_rounds,
    )?;
    let base_seed: u64 = get(&flags, "seed", 42)?;
    let threads = threads_of(&flags)?;
    let format = format_of(&flags, "report", &["md", "csv", "json"], "report format")?;
    let outcome =
        run_validate(&spec, ValidateConfig { base_seed, threads }).map_err(|e| e.to_string())?;
    // A censored row drops its checks, and the verdict only counts checked
    // rows: name each predicted row the budget left unchecked.
    for row in outcome
        .rows
        .iter()
        .filter(|r| r.predicted_shape.is_some() && r.censored())
    {
        eprintln!(
            "warning: row {} ({} {} {} load={}) is unchecked: reached_min {} within \
             max-rounds {}",
            row.index,
            row.spec.protocol.grid_label(),
            row.spec.family,
            row.spec.regime.label(),
            row.spec.load,
            fmt_value(row.reached_min()),
            spec.max_rounds,
        );
    }
    match format {
        "md" => emit(&flags, &outcome.to_markdown()),
        "csv" => emit(&flags, &outcome.to_csv()),
        _ => emit(&flags, &outcome.to_json()),
    }
}

fn cmd_serve(flags: HashMap<String, String>, tokens: &[String]) -> Result<(), String> {
    use selfish_load_balancing::analysis::serve::{run_serve, ServeSpec};

    let shift: f64 = get(&flags, "shift", 0.0)?;
    let spec = ServeSpec::parse(tokens, shift).map_err(|e| format!("invalid serve spec: {e}"))?;
    let base_seed: u64 = get(&flags, "seed", 42)?;
    let threads = threads_of(&flags)?;
    let format = format_of(&flags, "format", &["csv", "json"], "format")?;
    let report = run_serve(&spec, base_seed, threads);
    match format {
        "csv" => emit(&flags, &report.to_csv()),
        _ => emit(&flags, &report.to_json()),
    }
}

/// Whether the parsed flags request usage output (`--help` as a boolean
/// flag on any subcommand).
fn wants_help(flags: &HashMap<String, String>) -> bool {
    flags.contains_key("help")
}

const SWEEP_FLAGS: &[&str] = &[
    "help",
    "trials",
    "max-rounds",
    "seed",
    "threads",
    "format",
    "out",
];
const VALIDATE_FLAGS: &[&str] = &[
    "help",
    "trials",
    "max-rounds",
    "seed",
    "threads",
    "report",
    "out",
];
const SERVE_FLAGS: &[&str] = &["help", "seed", "threads", "shift", "format", "out"];

/// Rejects misspelled flags instead of silently ignoring them (a dropped
/// `--seed` would otherwise produce a wrong-but-plausible artifact).
fn reject_unknown(flags: &HashMap<String, String>, known: &[&str]) -> Result<(), String> {
    let mut unknown: Vec<&str> = flags
        .keys()
        .map(String::as_str)
        .filter(|k| !known.contains(k))
        .collect();
    unknown.sort_unstable();
    match unknown.first() {
        Some(flag) => Err(format!("unknown flag --{flag}")),
        None => Ok(()),
    }
}

/// A subcommand: its `--flag` values and its positional `key=value` tokens.
type Command = fn(HashMap<String, String>, &[String]) -> Result<(), String>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let dispatch = |run: Command, known: &[&str]| -> Result<(), String> {
        let (flags, tokens) = parse_args(rest)?;
        if wants_help(&flags) {
            print!("{USAGE}");
            return Ok(());
        }
        reject_unknown(&flags, known)?;
        run(flags, &tokens)
    };
    let result = match command.as_str() {
        "simulate" => dispatch(cmd_simulate, &["help", "seed", "max-rounds"]),
        "spectral" => dispatch(cmd_spectral, &["help"]),
        "bounds" => dispatch(cmd_bounds, &["help"]),
        "sweep" => dispatch(cmd_sweep, SWEEP_FLAGS),
        "validate" => dispatch(cmd_validate, VALIDATE_FLAGS),
        "serve" => dispatch(cmd_serve, SERVE_FLAGS),
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}\n");
            eprint!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfish_load_balancing::analysis::serve::ServeSpec;
    use selfish_load_balancing::workloads::speeds::SpeedDistribution;
    use selfish_load_balancing::workloads::weights::WeightDistribution;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    /// The cell `slb simulate TOKENS` runs.
    fn simulate_cell(tokens: &[&str]) -> Result<CellSpec, String> {
        Ok(one_cell("simulate", &strings(tokens), SIMULATE_KEYS)?.cells()[0])
    }

    fn serve_spec(tokens: &[&str], shift: f64) -> Result<ServeSpec, String> {
        ServeSpec::parse(tokens, shift).map_err(|e| e.to_string())
    }

    #[test]
    fn parse_args_roundtrip() {
        let (parsed, positional) =
            parse_args(&strings(&["--seed", "5", "graph=torus:5x5"])).unwrap();
        assert_eq!(parsed.get("seed").unwrap(), "5");
        assert_eq!(positional, vec!["graph=torus:5x5"]);
        let (parsed, positional) = parse_args(&strings(&["oops"])).unwrap();
        assert!(parsed.is_empty());
        assert_eq!(positional, vec!["oops"]);
    }

    #[test]
    fn parse_args_boolean_and_duplicates() {
        // A flag with no value (trailing, or followed by another flag) is
        // boolean.
        let (parsed, _) = parse_args(&strings(&["--help"])).unwrap();
        assert_eq!(parsed.get("help").unwrap(), "true");
        let (parsed, _) = parse_args(&strings(&["--verbose", "--seed", "4"])).unwrap();
        assert_eq!(parsed.get("verbose").unwrap(), "true");
        assert_eq!(parsed.get("seed").unwrap(), "4");
        // Duplicates are rejected with a clear message.
        let err = parse_args(&strings(&["--seed", "1", "--seed", "2"])).unwrap_err();
        assert!(err.contains("given twice"), "{err}");
        // A bare `--` is rejected.
        assert!(parse_args(&strings(&["--"])).is_err());
    }

    #[test]
    fn parse_args_binds_signed_values_in_both_spellings() {
        // Regression: the serve grammar takes signed offsets, and the
        // inline spelling `--shift=-1` used to be swallowed whole as an
        // unknown flag named `shift=-1`. Both spellings must bind `-1`.
        let (parsed, _) = parse_args(&strings(&["--shift", "-1"])).unwrap();
        assert_eq!(parsed.get("shift").unwrap(), "-1");
        let (parsed, _) = parse_args(&strings(&["--shift=-1"])).unwrap();
        assert_eq!(parsed.get("shift").unwrap(), "-1");
        // Signed values parse through `get` like any other numeric flag.
        let shift: f64 = get(&parsed, "shift", 0.0).unwrap();
        assert_eq!(shift, -1.0);
        // Inline values may themselves contain `=` (split once only) and
        // may be empty (`--out=` is an explicit empty value, not a
        // boolean).
        let (parsed, _) = parse_args(&strings(&["--filter=key=value"])).unwrap();
        assert_eq!(parsed.get("filter").unwrap(), "key=value");
        let (parsed, _) = parse_args(&strings(&["--out="])).unwrap();
        assert_eq!(parsed.get("out").unwrap(), "");
        // The two spellings name the same flag: mixing them duplicates.
        let err = parse_args(&strings(&["--seed=1", "--seed", "2"])).unwrap_err();
        assert!(err.contains("given twice"), "{err}");
        // `--=x` has no flag name.
        assert!(parse_args(&strings(&["--=5"])).is_err());
    }
    #[test]
    fn parse_args_inline_values_leave_grid_tokens_positional() {
        // Grid tokens contain `=` but no `--` prefix: they must stay
        // positional while inline flag values bind.
        let (flags, positional) = parse_args(&[
            "graph=ring:8".into(),
            "--seed=7".into(),
            "--shift=-2.5".into(),
        ])
        .unwrap();
        assert_eq!(positional, vec!["graph=ring:8"]);
        assert_eq!(flags.get("seed").unwrap(), "7");
        assert_eq!(flags.get("shift").unwrap(), "-2.5");
    }

    #[test]
    fn parse_args_separates_grid_tokens_from_flags() {
        let (flags, positional) = parse_args(&[
            "graph=ring:8".into(),
            "--seed".into(),
            "7".into(),
            "protocol=alg1,bhs".into(),
            "--threads".into(),
            "2".into(),
        ])
        .unwrap();
        assert_eq!(positional, vec!["graph=ring:8", "protocol=alg1,bhs"]);
        assert_eq!(flags.get("seed").unwrap(), "7");
        assert_eq!(flags.get("threads").unwrap(), "2");
    }

    #[test]
    fn sweep_runs_and_is_thread_invariant() {
        use selfish_load_balancing::analysis::sweep::{run_sweep, SweepConfig};
        use selfish_load_balancing::workloads::SweepSpec;
        let spec = SweepSpec::parse(&[
            "graph=ring:5",
            "tasks-per-node=6",
            "protocol=alg1,diffusion",
            "until=quiescent:10",
            "trials=2",
            "max-rounds=5000",
        ])
        .unwrap();
        let a = run_sweep(&spec, SweepConfig::sequential(1)).unwrap();
        let b = run_sweep(
            &spec,
            SweepConfig {
                base_seed: 1,
                threads: 4,
            },
        )
        .unwrap();
        assert_eq!(a.to_csv(), b.to_csv());
    }

    #[test]
    fn serve_spec_parsing_defaults_and_errors() {
        let spec = serve_spec(&[], 0.0).unwrap();
        assert_eq!(spec.family.node_count(), 8);
        assert_eq!(spec.policies.len(), 6);
        assert_eq!(spec.horizon, 100);
        assert!(spec.traffic.open.is_some() && spec.traffic.closed.is_none());

        let spec = serve_spec(
            &[
                "graph=torus:3x3",
                "policy=alg2,greedy-least-loaded",
                "traffic=poisson:2.5",
                "closed=4:1.5",
                "faults=crash:8:2",
                "signal=stale:0.5+loss:0.1",
                "retry=max:3:base:0.25",
                "horizon=50",
            ],
            -10.0,
        )
        .unwrap();
        assert_eq!(spec.family.node_count(), 9);
        assert_eq!(spec.policies.len(), 2);
        assert_eq!(spec.horizon, 50);
        assert!(spec.traffic.closed.is_some());
        assert!(spec.faults.is_some());
        assert!(spec.signal.is_degraded());
        assert!(spec.retry.is_some());

        // The degradation axes default off.
        let spec = serve_spec(&[], 0.0).unwrap();
        assert!(spec.faults.is_none() && spec.retry.is_none());
        assert!(!spec.signal.is_degraded());

        // Degenerate specs are rejected with a pointed message.
        assert!(serve_spec(&["policy=warp-speed"], 0.0).is_err());
        assert!(serve_spec(&["horizon=0"], 0.0).is_err());
        assert!(serve_spec(&["oops"], 0.0).is_err());
        assert!(serve_spec(&["speed=uniform"], 0.0).is_err());
        let err = serve_spec(&["graph=ring:2"], 0.0).unwrap_err();
        assert!(err.contains("ring needs at least three nodes"), "{err}");
        let err = serve_spec(&["traffic=none"], 0.0).unwrap_err();
        assert!(err.contains("traffic source"), "{err}");
        let err = serve_spec(&["horizon=5"], -5.0).unwrap_err();
        assert!(err.contains("empty measurement window"), "{err}");
        let err = serve_spec(&["horizon=5", "horizon=6"], 0.0).unwrap_err();
        assert!(err.contains("given twice"), "{err}");
        let err = serve_spec(&["horizon=17592186044416"], 0.0).unwrap_err();
        assert!(err.contains("past the virtual clock"), "{err}");
        let err = serve_spec(&["horizon=1099511627777"], 0.0).unwrap_err();
        assert!(err.contains("at most 2^40"), "{err}");
        assert!(serve_spec(&["horizon=1099511627776"], 0.0).is_ok());
        let err = serve_spec(&["policy="], 0.0).unwrap_err();
        assert_eq!(err, "empty value in `policy=`");
        let err = serve_spec(&["speeds=uniform,alternating:2"], 0.0).unwrap_err();
        assert!(err.contains("takes a single value"), "{err}");

        // Each malformed degradation token names its own failure.
        let err = serve_spec(&["faults=crash:"], 0.0).unwrap_err();
        assert!(err.contains("invalid faults"), "{err}");
        let err = serve_spec(&["faults=crash:0:2"], 0.0).unwrap_err();
        assert!(err.contains("mttf"), "{err}");
        let err = serve_spec(&["signal=stale:-1"], 0.0).unwrap_err();
        assert!(err.contains("staleness"), "{err}");
        let err = serve_spec(&["signal=loss:0.5"], 0.0).unwrap_err();
        assert!(err.contains("probe interval"), "{err}");
        let err = serve_spec(&["signal=stale:1+stale:2"], 0.0).unwrap_err();
        assert!(err.contains("twice"), "{err}");
        let err = serve_spec(&["retry=max:0:base:1"], 0.0).unwrap_err();
        assert!(err.contains("at least one"), "{err}");
        let err = serve_spec(&["retry=max:99:base:1"], 0.0).unwrap_err();
        assert!(err.contains("stride"), "{err}");
        let err = serve_spec(&["faults=crash:8:2", "faults=none"], 0.0).unwrap_err();
        assert!(err.contains("given twice"), "{err}");
    }

    #[test]
    fn serve_runs_end_to_end_and_is_thread_invariant() {
        use selfish_load_balancing::analysis::serve::run_serve;
        let spec = serve_spec(
            &[
                "graph=ring:8",
                "speeds=alternating:2",
                "traffic=poisson:3",
                "horizon=20",
            ],
            -10.0,
        )
        .unwrap();
        let a = run_serve(&spec, 11, 1);
        let b = run_serve(&spec, 11, 6);
        assert_eq!(a.to_csv(), b.to_csv());
        assert_eq!(a.rows.len(), 6);
    }

    #[test]
    fn family_parsing() {
        let cell = simulate_cell(&["graph=hypercube:3"]).unwrap();
        assert_eq!(cell.graph.node_count(), 8);
        assert!(simulate_cell(&["graph=blob:4"]).is_err());
        // Default is the sweep's 8-ring.
        assert_eq!(simulate_cell(&[]).unwrap().graph.node_count(), 8);
    }

    #[test]
    fn speeds_parsing() {
        // `speeds=` takes the sweep grammar's values.
        let cell = simulate_cell(&["speeds=alternating:3"]).unwrap();
        assert_eq!(cell.speeds, SpeedDistribution::Alternating { classes: 3 });
        let cell = simulate_cell(&["speeds=two-class:4:0.25"]).unwrap();
        assert_eq!(cell.speeds.label(), "two-class");
        assert!(simulate_cell(&["speeds=alternating:0"]).is_err());
        assert!(simulate_cell(&["speeds=warp"]).is_err());
        let cell = simulate_cell(&[]).unwrap();
        assert_eq!(cell.speeds, SpeedDistribution::Uniform);
    }

    #[test]
    fn weights_parsing() {
        // `weights=` takes the sweep grammar's values, rejected up front
        // when outside (0, 1] — before any weight is sampled.
        let cell = simulate_cell(&["weights=uniform:0.1..0.5"]).unwrap();
        assert_eq!(
            cell.weights,
            WeightDistribution::UniformRange { lo: 0.1, hi: 0.5 }
        );
        for bad in ["heavy", "uniform:0.5..2", "uniform:0..0.5", "uniform:5..2"] {
            let err = simulate_cell(&[&format!("weights={bad}")]).unwrap_err();
            assert!(err.contains("invalid simulate grid"), "{bad}: {err}");
            assert!(err.contains("weights"), "{bad}: {err}");
        }
        let cell = simulate_cell(&[]).unwrap();
        assert!(cell.is_uniform_tasks());
        // The remaining axes: protocol, stop rule, hot start, static.
        assert_eq!(cell.protocol, ProtocolKind::Alg1);
        assert_eq!(cell.stop, StopRule::Nash);
        assert_eq!(cell.placement, Placement::AllOnNode(0));
        assert!(!cell.is_dynamic());
        let cell = simulate_cell(&["until=quiescent:1000"]).unwrap();
        assert_eq!(cell.stop, StopRule::Quiescent(1_000));
        let cell = simulate_cell(&["until=psi0:2.5"]).unwrap();
        assert_eq!(cell.stop, StopRule::Psi0Below(2.5));
        let err = simulate_cell(&["protocol=teleport"]).unwrap_err();
        assert!(err.contains("unknown protocol"), "{err}");
    }

    #[test]
    fn simulate_runs_end_to_end() {
        cmd_simulate(
            HashMap::new(),
            &strings(&[
                "graph=ring:6",
                "tasks-per-node=8",
                "protocol=alg1",
                "until=nash",
                "max-rounds=100000",
            ]),
        )
        .unwrap();
    }

    #[test]
    fn spectral_and_bounds_run() {
        cmd_spectral(HashMap::new(), &strings(&["graph=torus:3x4"])).unwrap();
        cmd_bounds(HashMap::new(), &strings(&["graph=hypercube:3"])).unwrap();
    }
}
