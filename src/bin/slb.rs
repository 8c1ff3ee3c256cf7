//! `slb` — command-line front end for the selfish load-balancing simulator.
//!
//! Run simulations and inspect instances without writing Rust:
//!
//! ```console
//! slb simulate --family ring --n 16 --tasks-per-node 32 --protocol alg1 \
//!              --until nash --seed 7
//! slb spectral --family torus --rows 5 --cols 5
//! slb bounds   --family hypercube --d 5 --tasks-per-node 64
//! ```
//!
//! Argument parsing is hand-rolled (the workspace's dependency policy has
//! no CLI crate); every subcommand prints `--help`-style usage on bad
//! input and exits nonzero.

use selfish_load_balancing::prelude::*;
use std::collections::HashMap;
use std::process::ExitCode;

const USAGE: &str = "\
slb — distributed selfish load balancing (Adolphs & Berenbrink, PODC 2012)

USAGE:
  slb simulate [OPTIONS]   run one protocol to a stop condition
  slb spectral [OPTIONS]   print λ₂ and the spectral bounds of a topology
  slb bounds   [OPTIONS]   print the paper's convergence bounds for an instance
  slb sweep [GRID] [OPTIONS]   run an experiment grid, emit CSV/JSON
  slb validate [LADDER] [OPTIONS]   run scaling ladders, check Table 1 conformance
  slb serve [SPEC] [OPTIONS]   route a synthetic job stream through the
                               protocols and baselines, emit CSV/JSON

TOPOLOGY OPTIONS (simulate/spectral/bounds):
  --family <complete|ring|path|mesh|torus|hypercube|star>   (default ring)
  --n <N>            nodes, for complete/ring/path/star     (default 16)
  --rows/--cols <N>  dimensions, for mesh/torus             (default 4x4)
  --d <N>            dimension, for hypercube               (default 4)

SIMULATE OPTIONS (one sweep cell, all tasks on node 0; reports what
`slb sweep … trials=1 --seed N` reports for it):
  --protocol <alg1|alg2|bhs|diffusion|best-response>        (default alg1)
  --tasks-per-node <N>                                      (default 32)
  --speeds <uniform|alternating:K|…>   sweep speeds syntax  (default uniform)
  --weights <unit|uniform:LO..HI|…>    sweep weights syntax (default unit)
  --until <nash|quiescent[:K]|psi0:X>  stop condition; bare
                     quiescent means quiescent:1000         (default nash)
  --max-rounds <N>                                          (default 1000000)
  --seed <N>                                                (default 42)

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

/// As [`parse_args`], for subcommands that take no positional arguments.
fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let (flags, positional) = parse_args(args)?;
    if let Some(stray) = positional.first() {
        return Err(format!("expected --flag, got `{stray}`"));
    }
    Ok(flags)
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

fn family_of(flags: &HashMap<String, String>) -> Result<generators::Family, String> {
    let name = flags.get("family").map(String::as_str).unwrap_or("ring");
    let n: usize = get(flags, "n", 16)?;
    let rows: usize = get(flags, "rows", 4)?;
    let cols: usize = get(flags, "cols", 4)?;
    let d: u32 = get(flags, "d", 4)?;
    let family = match name {
        "complete" => generators::Family::Complete { n },
        "ring" => generators::Family::Ring { n },
        "path" => generators::Family::Path { n },
        "mesh" => generators::Family::Mesh { rows, cols },
        "torus" => generators::Family::Torus { rows, cols },
        "hypercube" => generators::Family::Hypercube { d },
        "star" => generators::Family::Star { n },
        other => return Err(format!("unknown family `{other}`")),
    };
    family
        .check_size()
        .map_err(|e| format!("invalid {family}: {e}"))?;
    Ok(family)
}

fn tasks_per_node_of(flags: &HashMap<String, String>) -> Result<usize, String> {
    match get(flags, "tasks-per-node", 32)? {
        0 => Err("--tasks-per-node must be positive".into()),
        k => Ok(k),
    }
}

/// The value of `--{key}`, or `default` when the flag is absent.
fn flag_or<'a>(flags: &'a HashMap<String, String>, key: &str, default: &'a str) -> &'a str {
    flags.get(key).map_or(default, String::as_str)
}

/// The one-cell sweep `slb simulate` runs: its flags mapped onto the
/// sweep grammar (`--speeds`/`--weights`/`--protocol`/`--until` take the
/// grid values; the classic `--until quiescent` means `quiescent:1000`),
/// with every task starting on node 0.
fn simulate_cell_of(flags: &HashMap<String, String>) -> Result<CellSpec, String> {
    use selfish_load_balancing::workloads::sweep as grid;
    let graph = family_of(flags)?;
    let tasks_per_node = tasks_per_node_of(flags)?;
    let speeds = grid::parse_speeds(flag_or(flags, "speeds", "uniform"))
        .map_err(|e| format!("invalid --speeds: {e}"))?;
    let weights = grid::parse_weights(flag_or(flags, "weights", "unit"))
        .map_err(|e| format!("invalid --weights range or distribution: {e}"))?;
    let protocol = ProtocolKind::parse(flag_or(flags, "protocol", "alg1"))
        .map_err(|e| format!("invalid --protocol: {e}"))?;
    let stop = match flag_or(flags, "until", "nash") {
        "quiescent" => StopRule::Quiescent(1_000),
        until => StopRule::parse(until).map_err(|e| format!("invalid --until: {e}"))?,
    };
    Ok(CellSpec {
        graph,
        tasks_per_node,
        speeds,
        weights,
        placement: Placement::AllOnNode(0),
        protocol,
        stop,
        arrivals: None,
        completions: None,
        churn: None,
        speed_dyn: None,
    })
}

/// Runs the cell of [`simulate_cell_of`] as trial 0 of a one-cell sweep
/// with base seed `--seed`, so it reports what `slb sweep … trials=1`
/// reports for the same cell.
fn cmd_simulate(flags: HashMap<String, String>) -> Result<(), String> {
    use selfish_load_balancing::analysis::runner::trial_seed;
    use selfish_load_balancing::analysis::trial::Trial;
    let cell = simulate_cell_of(&flags)?;
    let seed: u64 = get(&flags, "seed", 42)?;
    let max_rounds: u64 = get(&flags, "max-rounds", 1_000_000)?;
    let trial = Trial::of_cell(&cell, trial_seed(seed, 0, 0)).map_err(|e| e.to_string())?;
    let system = &trial.built().system;
    println!(
        "instance : {}, m = {}, s_max = {}, protocol = {}",
        cell.graph,
        system.task_count(),
        system.speeds().max(),
        cell.protocol
    );
    let start = potential::report(system, &trial.built().initial);
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

fn cmd_spectral(flags: HashMap<String, String>) -> Result<(), String> {
    let family = family_of(&flags)?;
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

fn cmd_bounds(flags: HashMap<String, String>) -> Result<(), String> {
    let family = family_of(&flags)?;
    let graph = family.build();
    let n = graph.node_count();
    let tasks_per_node = tasks_per_node_of(&flags)?;
    let m = n * tasks_per_node;
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
    let format = flag_or(flags, key, allowed[0]);
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

    let mut spec = SweepSpec::parse(grid).map_err(|e| e.to_string())?;
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
    use selfish_load_balancing::analysis::validate::{run_validate, ValidateConfig};

    let mut spec = ValidateSpec::parse(ladder).map_err(|e| e.to_string())?;
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
    match format {
        "md" => emit(&flags, &outcome.to_markdown()),
        "csv" => emit(&flags, &outcome.to_csv()),
        _ => emit(&flags, &outcome.to_json()),
    }
}

/// Parses the positional `key=value` tokens of `slb serve` into a spec.
/// `shift` arrives separately (it is a flag, since grids don't take
/// signed values).
fn serve_spec_of(
    tokens: &[String],
    shift: f64,
) -> Result<selfish_load_balancing::analysis::serve::ServeSpec, String> {
    use selfish_load_balancing::analysis::serve::ServeSpec;
    use selfish_load_balancing::workloads::faults;
    use selfish_load_balancing::workloads::sweep as grid;
    use selfish_load_balancing::workloads::traffic;

    let mut spec = ServeSpec {
        family: generators::Family::Ring { n: 8 },
        policies: selfish_load_balancing::serve::PolicyKind::ALL.to_vec(),
        speeds: selfish_load_balancing::workloads::speeds::SpeedDistribution::Uniform,
        weights: selfish_load_balancing::workloads::weights::WeightDistribution::Unit,
        traffic: selfish_load_balancing::workloads::TrafficSpec {
            open: traffic::parse_traffic("poisson:4").map_err(|e| e.to_string())?,
            closed: None,
        },
        faults: None,
        signal: selfish_load_balancing::workloads::SignalSpec::default(),
        retry: None,
        horizon: 100,
        shift,
    };
    let mut seen: Vec<&str> = Vec::new();
    for token in tokens {
        let (key, value) = token
            .split_once('=')
            .ok_or_else(|| format!("expected key=value, got `{token}`"))?;
        if seen.contains(&key) {
            return Err(format!("serve key `{key}` given twice"));
        }
        seen.push(key);
        match key {
            "graph" => {
                spec.family = grid::parse_family(value).map_err(|e| e.to_string())?;
                spec.family.check_size().map_err(|e| {
                    format!("graph `{value}` is below the family's minimum size: {e}")
                })?;
            }
            "policy" => {
                spec.policies = value
                    .split(',')
                    .map(PolicyKind::parse)
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| e.to_string())?;
                if spec.policies.is_empty() {
                    return Err("policy list is empty".into());
                }
            }
            "speeds" => spec.speeds = grid::parse_speeds(value).map_err(|e| e.to_string())?,
            "weights" => spec.weights = grid::parse_weights(value).map_err(|e| e.to_string())?,
            "traffic" => {
                spec.traffic.open = traffic::parse_traffic(value).map_err(|e| e.to_string())?
            }
            "closed" => {
                spec.traffic.closed = traffic::parse_closed(value).map_err(|e| e.to_string())?
            }
            "faults" => spec.faults = faults::parse_faults(value).map_err(|e| e.to_string())?,
            "signal" => spec.signal = faults::parse_signal(value).map_err(|e| e.to_string())?,
            "retry" => spec.retry = faults::parse_retry(value).map_err(|e| e.to_string())?,
            "horizon" => {
                spec.horizon = value
                    .parse()
                    .map_err(|_| format!("invalid horizon `{value}`"))?;
                if spec.horizon == 0 {
                    return Err("horizon must be positive".into());
                }
            }
            other => return Err(format!("unknown serve key `{other}`")),
        }
    }
    if spec.traffic.is_empty() {
        return Err("serve needs a traffic source: set traffic= and/or closed=".into());
    }
    if !shift.is_finite() || shift.abs() >= spec.horizon as f64 {
        return Err(format!(
            "--shift {shift} leaves an empty measurement window over horizon {}",
            spec.horizon
        ));
    }
    Ok(spec)
}

fn cmd_serve(flags: HashMap<String, String>, tokens: &[String]) -> Result<(), String> {
    use selfish_load_balancing::analysis::serve::run_serve;

    let shift: f64 = get(&flags, "shift", 0.0)?;
    let spec = serve_spec_of(tokens, shift)?;
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

const TOPOLOGY_FLAGS: &[&str] = &["help", "family", "n", "rows", "cols", "d"];
const SIMULATE_FLAGS: &[&str] = &[
    "help",
    "family",
    "n",
    "rows",
    "cols",
    "d",
    "protocol",
    "tasks-per-node",
    "speeds",
    "weights",
    "until",
    "max-rounds",
    "seed",
];
const BOUNDS_FLAGS: &[&str] = &["help", "family", "n", "rows", "cols", "d", "tasks-per-node"];
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

/// A subcommand that takes positional tokens besides its flags.
type TokenCommand = fn(HashMap<String, String>, &[String]) -> Result<(), String>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let with_flags = |run: fn(HashMap<String, String>) -> Result<(), String>,
                      known: &[&str]|
     -> Result<(), String> {
        let flags = parse_flags(rest)?;
        if wants_help(&flags) {
            print!("{USAGE}");
            return Ok(());
        }
        reject_unknown(&flags, known)?;
        run(flags)
    };
    let with_tokens = |run: TokenCommand, known: &[&str]| -> Result<(), String> {
        let (flags, tokens) = parse_args(rest)?;
        if wants_help(&flags) {
            print!("{USAGE}");
            return Ok(());
        }
        reject_unknown(&flags, known)?;
        run(flags, &tokens)
    };
    let result = match command.as_str() {
        "simulate" => with_flags(cmd_simulate, SIMULATE_FLAGS),
        "spectral" => with_flags(cmd_spectral, TOPOLOGY_FLAGS),
        "bounds" => with_flags(cmd_bounds, BOUNDS_FLAGS),
        "sweep" => with_tokens(cmd_sweep, SWEEP_FLAGS),
        "validate" => with_tokens(cmd_validate, VALIDATE_FLAGS),
        "serve" => with_tokens(cmd_serve, SERVE_FLAGS),
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
    use selfish_load_balancing::workloads::speeds::SpeedDistribution;
    use selfish_load_balancing::workloads::weights::WeightDistribution;

    fn flags(pairs: &[(&str, &str)]) -> HashMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn parse_flags_roundtrip() {
        let parsed = parse_flags(&[
            "--family".into(),
            "torus".into(),
            "--rows".into(),
            "5".into(),
        ])
        .unwrap();
        assert_eq!(parsed.get("family").unwrap(), "torus");
        assert_eq!(parsed.get("rows").unwrap(), "5");
        assert!(parse_flags(&["oops".into()]).is_err());
    }

    #[test]
    fn parse_flags_boolean_and_duplicates() {
        // A flag with no value (trailing, or followed by another flag) is
        // boolean.
        let parsed = parse_flags(&["--help".into()]).unwrap();
        assert_eq!(parsed.get("help").unwrap(), "true");
        let parsed = parse_flags(&["--verbose".into(), "--n".into(), "4".into()]).unwrap();
        assert_eq!(parsed.get("verbose").unwrap(), "true");
        assert_eq!(parsed.get("n").unwrap(), "4");
        // Duplicates are rejected with a clear message.
        let err = parse_flags(&["--n".into(), "1".into(), "--n".into(), "2".into()]).unwrap_err();
        assert!(err.contains("given twice"), "{err}");
        // A bare `--` is rejected.
        assert!(parse_flags(&["--".into()]).is_err());
    }

    #[test]
    fn parse_flags_binds_signed_values_in_both_spellings() {
        // Regression: the serve grammar takes signed offsets, and the
        // inline spelling `--shift=-1` used to be swallowed whole as an
        // unknown flag named `shift=-1`. Both spellings must bind `-1`.
        let parsed = parse_flags(&["--shift".into(), "-1".into()]).unwrap();
        assert_eq!(parsed.get("shift").unwrap(), "-1");
        let parsed = parse_flags(&["--shift=-1".into()]).unwrap();
        assert_eq!(parsed.get("shift").unwrap(), "-1");
        // Signed values parse through `get` like any other numeric flag.
        let shift: f64 = get(&parsed, "shift", 0.0).unwrap();
        assert_eq!(shift, -1.0);
        // Inline values may themselves contain `=` (split once only) and
        // may be empty (`--out=` is an explicit empty value, not a
        // boolean).
        let parsed = parse_flags(&["--filter=key=value".into()]).unwrap();
        assert_eq!(parsed.get("filter").unwrap(), "key=value");
        let parsed = parse_flags(&["--out=".into()]).unwrap();
        assert_eq!(parsed.get("out").unwrap(), "");
        // The two spellings name the same flag: mixing them duplicates.
        let err = parse_flags(&["--seed=1".into(), "--seed".into(), "2".into()]).unwrap_err();
        assert!(err.contains("given twice"), "{err}");
        // `--=x` has no flag name.
        assert!(parse_flags(&["--=5".into()]).is_err());
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
        let spec = serve_spec_of(&[], 0.0).unwrap();
        assert_eq!(spec.family.node_count(), 8);
        assert_eq!(spec.policies.len(), 6);
        assert_eq!(spec.horizon, 100);
        assert!(spec.traffic.open.is_some() && spec.traffic.closed.is_none());

        let spec = serve_spec_of(
            &[
                "graph=torus:3x3".into(),
                "policy=alg2,greedy-least-loaded".into(),
                "traffic=poisson:2.5".into(),
                "closed=4:1.5".into(),
                "faults=crash:8:2".into(),
                "signal=stale:0.5+loss:0.1".into(),
                "retry=max:3:base:0.25".into(),
                "horizon=50".into(),
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
        let spec = serve_spec_of(&[], 0.0).unwrap();
        assert!(spec.faults.is_none() && spec.retry.is_none());
        assert!(!spec.signal.is_degraded());

        // Degenerate specs are rejected with a pointed message.
        assert!(serve_spec_of(&["policy=warp-speed".into()], 0.0).is_err());
        assert!(serve_spec_of(&["horizon=0".into()], 0.0).is_err());
        assert!(serve_spec_of(&["oops".into()], 0.0).is_err());
        assert!(serve_spec_of(&["speed=uniform".into()], 0.0).is_err());
        let err = serve_spec_of(&["graph=ring:2".into()], 0.0).unwrap_err();
        assert!(err.contains("ring needs at least three nodes"), "{err}");
        let err = serve_spec_of(&["traffic=none".into()], 0.0).unwrap_err();
        assert!(err.contains("traffic source"), "{err}");
        let err = serve_spec_of(&["horizon=5".into()], -5.0).unwrap_err();
        assert!(err.contains("empty measurement window"), "{err}");
        let err = serve_spec_of(&["horizon=5".into(), "horizon=6".into()], 0.0).unwrap_err();
        assert!(err.contains("given twice"), "{err}");

        // Each malformed degradation token names its own failure.
        let err = serve_spec_of(&["faults=crash:".into()], 0.0).unwrap_err();
        assert!(err.contains("invalid faults"), "{err}");
        let err = serve_spec_of(&["faults=crash:0:2".into()], 0.0).unwrap_err();
        assert!(err.contains("mttf"), "{err}");
        let err = serve_spec_of(&["signal=stale:-1".into()], 0.0).unwrap_err();
        assert!(err.contains("staleness"), "{err}");
        let err = serve_spec_of(&["signal=loss:0.5".into()], 0.0).unwrap_err();
        assert!(err.contains("probe interval"), "{err}");
        let err = serve_spec_of(&["signal=stale:1+stale:2".into()], 0.0).unwrap_err();
        assert!(err.contains("twice"), "{err}");
        let err = serve_spec_of(&["retry=max:0:base:1".into()], 0.0).unwrap_err();
        assert!(err.contains("at least one"), "{err}");
        let err = serve_spec_of(&["retry=max:99:base:1".into()], 0.0).unwrap_err();
        assert!(err.contains("stride"), "{err}");
        let err =
            serve_spec_of(&["faults=crash:8:2".into(), "faults=none".into()], 0.0).unwrap_err();
        assert!(err.contains("given twice"), "{err}");
    }

    #[test]
    fn serve_runs_end_to_end_and_is_thread_invariant() {
        use selfish_load_balancing::analysis::serve::run_serve;
        let spec = serve_spec_of(
            &[
                "graph=ring:8".into(),
                "speeds=alternating:2".into(),
                "traffic=poisson:3".into(),
                "horizon=20".into(),
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
        let f = family_of(&flags(&[("family", "hypercube"), ("d", "3")])).unwrap();
        assert_eq!(f.node_count(), 8);
        assert!(family_of(&flags(&[("family", "blob")])).is_err());
        // Default is a 16-ring.
        assert_eq!(family_of(&flags(&[])).unwrap().node_count(), 16);
    }

    #[test]
    fn speeds_parsing() {
        // `--speeds` takes the sweep grammar's values.
        let cell = simulate_cell_of(&flags(&[("speeds", "alternating:3")])).unwrap();
        assert_eq!(cell.speeds, SpeedDistribution::Alternating { classes: 3 });
        let cell = simulate_cell_of(&flags(&[("speeds", "two-class:4:0.25")])).unwrap();
        assert_eq!(cell.speeds.label(), "two-class");
        assert!(simulate_cell_of(&flags(&[("speeds", "alternating:0")])).is_err());
        assert!(simulate_cell_of(&flags(&[("speeds", "warp")])).is_err());
        let cell = simulate_cell_of(&flags(&[])).unwrap();
        assert_eq!(cell.speeds, SpeedDistribution::Uniform);
    }

    #[test]
    fn weights_parsing() {
        // `--weights` takes the sweep grammar's values, rejected up front
        // when outside (0, 1] — before any weight is sampled.
        let cell = simulate_cell_of(&flags(&[("weights", "uniform:0.1..0.5")])).unwrap();
        assert_eq!(
            cell.weights,
            WeightDistribution::UniformRange { lo: 0.1, hi: 0.5 }
        );
        for bad in ["heavy", "uniform:0.5..2", "uniform:0..0.5", "uniform:5..2"] {
            let err = simulate_cell_of(&flags(&[("weights", bad)])).unwrap_err();
            assert!(err.contains("invalid --weights"), "{bad}: {err}");
        }
        let cell = simulate_cell_of(&flags(&[])).unwrap();
        assert!(cell.is_uniform_tasks());
        // The remaining axes: protocol, stop rule, hot start, static.
        assert_eq!(cell.protocol, ProtocolKind::Alg1);
        assert_eq!(cell.stop, StopRule::Nash);
        assert_eq!(cell.placement, Placement::AllOnNode(0));
        assert!(!cell.is_dynamic());
        let cell = simulate_cell_of(&flags(&[("until", "quiescent")])).unwrap();
        assert_eq!(cell.stop, StopRule::Quiescent(1_000));
        let cell = simulate_cell_of(&flags(&[("until", "psi0:2.5")])).unwrap();
        assert_eq!(cell.stop, StopRule::Psi0Below(2.5));
        let err = simulate_cell_of(&flags(&[("protocol", "teleport")])).unwrap_err();
        assert!(err.contains("unknown protocol"), "{err}");
    }

    #[test]
    fn simulate_runs_end_to_end() {
        cmd_simulate(flags(&[
            ("family", "ring"),
            ("n", "6"),
            ("tasks-per-node", "8"),
            ("protocol", "alg1"),
            ("until", "nash"),
            ("max-rounds", "100000"),
        ]))
        .unwrap();
    }

    #[test]
    fn spectral_and_bounds_run() {
        cmd_spectral(flags(&[("family", "torus"), ("rows", "3"), ("cols", "4")])).unwrap();
        cmd_bounds(flags(&[("family", "hypercube"), ("d", "3")])).unwrap();
    }
}
