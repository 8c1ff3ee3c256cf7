//! `perfbench_tracer` — the traced replay of one benchmark workload.
//!
//! ```console
//! perfbench_tracer validate|sweep|serve [TOKENS…] [--seed N] [--max-rounds N]
//!                  [--traced-first]
//! ```
//!
//! Takes the same tokens, seed and round budget as the `slb` subcommand it
//! replays. The replay is sequential, so it has no `--threads`. The
//! workload is replayed twice, once with tracing off and once with it on
//! (`--traced-first` swaps the order); both must produce the same
//! records. Prints one JSON object: the per-trial (or per-policy)
//! records, for comparison with the CLI's artifacts, and the per-layer
//! metrics of the traced replay plus the sampler probes.

mod engine;
mod metrics;
mod replay;
mod trace;

use replay::{PolicyRecord, TrialRecord};
use slb_analysis::serve::ServeSpec;
use slb_serve::PolicyKind;
use slb_workloads::{faults, sweep as grid, traffic, SweepSpec, ValidateSpec};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// What one replay produced.
#[derive(Debug, PartialEq)]
enum Records {
    Trials(Vec<TrialRecord>),
    Policies(Vec<PolicyRecord>),
}

enum Workload {
    Validate(ValidateSpec),
    Sweep(SweepSpec),
    Serve(ServeSpec),
}

struct Args {
    workload: Workload,
    seed: u64,
    traced_first: bool,
}

fn flag<T: std::str::FromStr>(value: Option<&String>, name: &str) -> Result<Option<T>, String> {
    value
        .map(|v| {
            v.parse()
                .map_err(|_| format!("invalid value `{v}` for --{name}"))
        })
        .transpose()
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let (command, rest) = raw.split_first().ok_or("missing command")?;
    let mut tokens = Vec::new();
    let mut flags = std::collections::BTreeMap::new();
    let mut traced_first = false;
    let mut i = 0;
    while i < rest.len() {
        match rest[i].strip_prefix("--") {
            Some("traced-first") => traced_first = true,
            Some(name) => {
                let value = rest.get(i + 1).ok_or(format!("--{name} needs a value"))?;
                flags.insert(name.to_string(), value.clone());
                i += 1;
            }
            None => tokens.push(rest[i].clone()),
        }
        i += 1;
    }
    if let Some(name) = flags
        .keys()
        .find(|k| !["seed", "max-rounds"].contains(&k.as_str()))
    {
        return Err(format!("unknown flag --{name}"));
    }
    let seed = flag(flags.get("seed"), "seed")?.unwrap_or(42);
    let max_rounds = flag::<u64>(flags.get("max-rounds"), "max-rounds")?;
    let workload = match command.as_str() {
        "validate" => {
            let mut spec = ValidateSpec::parse(&tokens).map_err(|e| e.to_string())?;
            spec.max_rounds = max_rounds.unwrap_or(spec.max_rounds);
            Workload::Validate(spec)
        }
        "sweep" => {
            let mut spec = SweepSpec::parse(&tokens).map_err(|e| e.to_string())?;
            spec.max_rounds = max_rounds.unwrap_or(spec.max_rounds);
            Workload::Sweep(spec)
        }
        "serve" => Workload::Serve(serve_spec(&tokens)?),
        other => return Err(format!("unknown command `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        traced_first,
    })
}

/// Parses `slb serve`'s positional tokens, with the CLI's defaults.
fn serve_spec(tokens: &[String]) -> Result<ServeSpec, String> {
    let err = |e: slb_workloads::SweepParseError| e.to_string();
    let mut spec = ServeSpec {
        family: slb_graphs::generators::Family::Ring { n: 8 },
        policies: PolicyKind::ALL.to_vec(),
        speeds: slb_workloads::speeds::SpeedDistribution::Uniform,
        weights: slb_workloads::weights::WeightDistribution::Unit,
        traffic: slb_workloads::TrafficSpec {
            open: traffic::parse_traffic("poisson:4").map_err(err)?,
            closed: None,
        },
        faults: None,
        signal: slb_workloads::SignalSpec::default(),
        retry: None,
        horizon: 100,
        shift: 0.0,
    };
    for token in tokens {
        let (key, value) = token
            .split_once('=')
            .ok_or_else(|| format!("expected key=value, got `{token}`"))?;
        match key {
            "graph" => spec.family = grid::parse_family(value).map_err(err)?,
            "policy" => {
                spec.policies = value
                    .split(',')
                    .map(PolicyKind::parse)
                    .collect::<Result<_, _>>()
                    .map_err(err)?
            }
            "speeds" => spec.speeds = grid::parse_speeds(value).map_err(err)?,
            "weights" => spec.weights = grid::parse_weights(value).map_err(err)?,
            "traffic" => spec.traffic.open = traffic::parse_traffic(value).map_err(err)?,
            "closed" => spec.traffic.closed = traffic::parse_closed(value).map_err(err)?,
            "faults" => spec.faults = faults::parse_faults(value).map_err(err)?,
            "signal" => spec.signal = faults::parse_signal(value).map_err(err)?,
            "retry" => spec.retry = faults::parse_retry(value).map_err(err)?,
            "horizon" => {
                spec.horizon = value
                    .parse()
                    .map_err(|_| format!("invalid horizon `{value}`"))?
            }
            other => return Err(format!("unknown serve key `{other}`")),
        }
    }
    Ok(spec)
}

/// Replays the workload once; returns its records and wall time.
fn replay(args: &Args, tr: &mut Tracer) -> Result<(Records, f64), String> {
    let start = Instant::now();
    let records = match &args.workload {
        Workload::Validate(spec) => Records::Trials(replay::validate(spec, args.seed, tr)?),
        Workload::Sweep(spec) => Records::Trials(replay::sweep(spec, args.seed, tr)?),
        Workload::Serve(spec) => Records::Policies(replay::serve(spec, args.seed, tr)?),
    };
    Ok((records, start.elapsed().as_secs_f64()))
}

fn records_json(records: &Records) -> String {
    match records {
        Records::Trials(trials) => {
            let items: Vec<String> = trials
                .iter()
                .map(|t| {
                    format!(
                        "{{\"group\":{},\"rounds\":{},\"reached\":{},\"migrations\":{}}}",
                        t.group, t.rounds, t.reached, t.migrations
                    )
                })
                .collect();
            format!("\"trials\":[{}]", items.join(","))
        }
        Records::Policies(policies) => {
            let items: Vec<String> = policies
                .iter()
                .map(|p| {
                    format!(
                        "{{\"policy\":\"{}\",\"offered\":{},\"completed\":{},\"failed\":{},\
                         \"retries\":{}}}",
                        p.policy.label(),
                        p.offered,
                        p.completed,
                        p.failed,
                        p.retries
                    )
                })
                .collect();
            format!("\"policies\":[{}]", items.join(","))
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let mut plain = Tracer::new(false);
    let mut traced = Tracer::new(true);
    let ((plain_records, plain_s), (records, traced_s)) = if args.traced_first {
        let t = replay(args, &mut traced)?;
        (replay(args, &mut plain)?, t)
    } else {
        let p = replay(args, &mut plain)?;
        (p, replay(args, &mut traced)?)
    };
    if plain_records != records {
        return Err("the traced and untraced replays disagree".into());
    }
    let policies = match &records {
        Records::Policies(p) => p.as_slice(),
        Records::Trials(_) => &[],
    };
    let mut values = metrics::layers(traced.spans(), traced_s, policies);
    values.push(("trace.overhead_ms".into(), (traced_s - plain_s) * 1e3));
    values.push(("trace.replay_s".into(), plain_s));
    values.extend(metrics::sampler_probes(args.seed));
    let metrics: Vec<String> = values
        .iter()
        .map(|(name, value)| format!("\"{name}\":{value}"))
        .collect();
    Ok(format!(
        "{{{},\"metrics\":{{{}}}}}",
        records_json(&records),
        metrics.join(",")
    ))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&raw).and_then(|args| run(&args)) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
