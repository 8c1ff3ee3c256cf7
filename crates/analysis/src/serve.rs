//! Artifact layer for `slb serve`: one row per routing policy.
//!
//! [`run_serve`] fans the requested policies across worker threads (one
//! sequential event-loop run per policy — see [`slb_serve`] for the
//! determinism argument), applies the measurement window, and renders a
//! sweep-style CSV/JSON artifact: offered/completed/failed jobs, retry
//! and availability figures, throughput, latency sample size, latency
//! mean and nearest-rank p50/p95/p99, per-backend utilization, and the
//! Nash gaps (all backends and live-only) of the backlog state at the
//! horizon.
//!
//! # Seeds
//!
//! * `scenario seed = derive_seed(base, 0, trial::SCENARIO)` — samples
//!   the speed vector and masters the traffic streams. Shared by every
//!   policy, so all rows face identical speeds and open-loop traffic.
//! * `policy seed = derive_seed(base, policy_index, trial::SIM)` —
//!   masters the per-job routing coins of that policy's run.

use crate::runner::run_cell_trials;
use crate::stats::Summary;
use slb_core::rng::{derive_seed, rng_for, streams};
use slb_graphs::generators::Family;
use slb_serve::{PolicyKind, ServeConfig, ServeOutcome, TICKS_PER_UNIT};
use slb_workloads::faults::{
    faults_label, parse_faults, parse_retry, parse_signal, retry_label, signal_label,
};
use slb_workloads::speeds::SpeedDistribution;
use slb_workloads::sweep::{
    family_grid_label, parse_all, parse_family, parse_speeds, parse_weights, positive, read_tokens,
    single, speeds_grid_label, weights_grid_label, MAX_EXACT_POPULATION,
};
use slb_workloads::traffic::{closed_label, parse_closed, parse_traffic, traffic_label};
use slb_workloads::weights::WeightDistribution;
use slb_workloads::{FaultSpec, OpenLoop, RetrySpec, SignalSpec, SweepParseError, TrafficSpec};
use std::fmt::Write as _;
use std::ops::Range;

/// A complete `slb serve` request: scenario plus the policy roster.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// Backend topology.
    pub family: Family,
    /// Policies to run, one artifact row each.
    pub policies: Vec<PolicyKind>,
    /// Backend speed distribution (sampled once, shared by all rows).
    pub speeds: SpeedDistribution,
    /// Job-weight distribution.
    pub weights: WeightDistribution,
    /// Traffic sources.
    pub traffic: TrafficSpec,
    /// Crash/recover schedule (`None` disables faults).
    pub faults: Option<FaultSpec>,
    /// Signal-degradation model (default: fresh view).
    pub signal: SignalSpec,
    /// Retry budget for fault-hit jobs (`None` fails them immediately).
    pub retry: Option<RetrySpec>,
    /// Units of virtual time during which traffic is generated.
    pub horizon: u64,
    /// Measurement-window offset in units: `s ≥ 0` measures `[s, H)`
    /// (skip warmup), `s < 0` measures the final `|s|` units `[H+s, H)`.
    pub shift: f64,
}

/// Largest horizon [`ServeSpec::parse`] accepts, in units: its 2⁶⁰ ticks
/// leave the event loop's sums (a probe time plus its staleness, a service
/// start plus its duration) fifteen times the horizon of room below
/// `u64::MAX`.
const MAX_HORIZON: u64 = 1 << 40;

impl ServeSpec {
    /// Parses `slb serve`'s `key=value` tokens. Omitted keys keep their
    /// defaults: `graph=ring:8`, all six policies, uniform speeds, unit
    /// weights, `traffic=poisson:4`, no faults, a fresh signal, no retry
    /// and `horizon=100`. `shift` arrives separately, as the `--shift`
    /// flag, since tokens take no signed values.
    ///
    /// # Errors
    ///
    /// Returns a [`SweepParseError`] for a malformed token, a graph past
    /// its family's size range, a spec without traffic, a horizon past the
    /// tick clock, an offer past 2⁵³ jobs, or a shift that empties the
    /// measurement window.
    pub fn parse<S: AsRef<str>>(tokens: &[S], shift: f64) -> Result<ServeSpec, SweepParseError> {
        let mut spec = ServeSpec {
            family: Family::Ring { n: 8 },
            policies: PolicyKind::ALL.to_vec(),
            speeds: SpeedDistribution::Uniform,
            weights: WeightDistribution::Unit,
            traffic: TrafficSpec {
                open: Some(OpenLoop { rate: 4.0 }),
                closed: None,
            },
            faults: None,
            signal: SignalSpec::default(),
            retry: None,
            horizon: 100,
            shift,
        };
        read_tokens("serve", tokens, |key, list| {
            match key {
                "graph" => {
                    let value = single(key, list)?;
                    spec.family = parse_family(value)?;
                    spec.family.check_size().map_err(|e| {
                        SweepParseError::new(format!(
                            "graph `{value}` is outside the family's size range: {e}"
                        ))
                    })?;
                }
                "policy" => spec.policies = parse_all(list, PolicyKind::parse)?,
                "speeds" => spec.speeds = parse_speeds(single(key, list)?)?,
                "weights" => spec.weights = parse_weights(single(key, list)?)?,
                "traffic" => spec.traffic.open = parse_traffic(single(key, list)?)?,
                "closed" => spec.traffic.closed = parse_closed(single(key, list)?)?,
                "faults" => spec.faults = parse_faults(single(key, list)?)?,
                "signal" => spec.signal = parse_signal(single(key, list)?)?,
                "retry" => spec.retry = parse_retry(single(key, list)?)?,
                "horizon" => {
                    spec.horizon = positive(key, single(key, list)?)?;
                    if spec.horizon > MAX_HORIZON {
                        return Err(SweepParseError::new(format!(
                            "horizon {} is past the virtual clock: at most 2^40 = {MAX_HORIZON} \
                             units, so every tick sum fits in 64 bits ({TICKS_PER_UNIT} ticks \
                             per unit)",
                            spec.horizon
                        )));
                    }
                }
                other => {
                    return Err(SweepParseError::new(format!(
                        "unknown serve key `{other}` (use graph|policy|speeds|weights|traffic|\
                         closed|faults|signal|retry|horizon)"
                    )))
                }
            }
            Ok(())
        })?;
        if spec.traffic.is_empty() {
            return Err(SweepParseError::new(
                "serve needs a traffic source: set traffic= and/or closed=".into(),
            ));
        }
        if let Some(open) = spec.traffic.open {
            let offered = open.rate * spec.horizon as f64;
            if offered > MAX_EXACT_POPULATION as f64 {
                return Err(SweepParseError::new(format!(
                    "traffic rate {:.3e} over horizon {} offers {offered:.3e} jobs, past 2^53 \
                     (job counts are exact only up to 2^53): lower the rate or the horizon",
                    open.rate, spec.horizon
                )));
            }
        }
        // The same tick rounding the run measures with: a shift within
        // half a tick of 0 or of the horizon empties the window.
        if window_ticks(spec.horizon, shift).is_none() {
            return Err(SweepParseError::new(format!(
                "--shift {shift} leaves an empty measurement window over horizon {} \
                 ({TICKS_PER_UNIT} ticks per unit)",
                spec.horizon
            )));
        }
        Ok(spec)
    }
}

/// One policy's measured row.
#[derive(Debug, Clone)]
pub struct PolicyRow {
    /// The policy.
    pub policy: PolicyKind,
    /// Jobs submitted within the horizon (whole run, window-independent).
    pub jobs_offered: u64,
    /// Jobs completed inside the measurement window.
    pub jobs_completed: u64,
    /// Jobs that exhausted their retry budget (whole run, like
    /// `jobs_offered`). These are *failed*, not censored: they are
    /// counted here and excluded from the latency sample.
    pub failed_jobs: u64,
    /// Mean retry resubmissions per offered job (whole run).
    pub retries_mean: f64,
    /// Fraction of backend-time within `[0, H)` spent up (1 with faults
    /// disabled).
    pub availability: f64,
    /// Completions per unit of virtual time inside the window — the
    /// observable throughput ceiling under overload.
    pub throughput: f64,
    /// Latency (units) of completed jobs *arriving* in the window;
    /// failed jobs never enter this sample (they appear in
    /// `failed_jobs` instead, so nothing is silently censored). Its
    /// `count` renders as the `latency_count` column: a genuine
    /// zero-latency window and an empty window are distinguishable.
    pub latency: Summary,
    /// Mean per-backend utilization over `[0, H)`.
    pub util_mean: f64,
    /// Minimum per-backend utilization.
    pub util_min: f64,
    /// Maximum per-backend utilization.
    pub util_max: f64,
    /// Nash gap of the backlog state at the horizon.
    pub nash_gap: f64,
    /// Nash gap restricted to backends alive at the horizon (equals
    /// `nash_gap` with faults disabled).
    pub nash_gap_live: f64,
}

/// The full artifact.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// The request.
    pub spec: ServeSpec,
    /// Base seed of the run.
    pub base_seed: u64,
    /// Backend count of the built topology.
    pub n: usize,
    /// One row per requested policy, in request order.
    pub rows: Vec<PolicyRow>,
}

/// Columns of [`ServeReport::to_csv`].
///
/// `latency_count` is the size of the window's latency sample (arrivals
/// in the window that completed): the explicit completed-jobs count that
/// makes a [`Summary::empty`] row self-describing — `latency_count = 0`
/// means "no observations", not "all latencies were zero".
pub const SERVE_CSV_HEADER: &str = "policy,graph,n,speeds,weights,traffic,closed,faults,\
     signal,retry,horizon,shift,base_seed,jobs_offered,jobs_completed,failed_jobs,\
     retries_mean,availability,throughput,latency_count,latency_mean,latency_p50,\
     latency_p95,latency_p99,util_mean,util_min,util_max,nash_gap,nash_gap_live";

/// Resolves the measurement window in ticks, the clock the run measures
/// on: with `offset = |shift|` rounded to ticks, `[offset, horizon)` for
/// `shift ≥ 0` and the final `offset` ticks for `shift < 0`. `None` if the
/// offset reaches the horizon or the window is empty, which
/// [`ServeSpec::parse`] rejects.
fn window_ticks(horizon: u64, shift: f64) -> Option<Range<u64>> {
    let horizon_ticks = horizon.checked_mul(TICKS_PER_UNIT)?;
    let offset = (shift.abs() * TICKS_PER_UNIT as f64).round() as u64;
    if offset >= horizon_ticks {
        return None;
    }
    let start = if shift >= 0.0 {
        offset
    } else {
        horizon_ticks - offset
    };
    (start < horizon_ticks).then_some(start..horizon_ticks)
}

/// Reduces one run to its artifact row.
fn measure(policy: PolicyKind, outcome: &ServeOutcome, window: &Range<u64>) -> PolicyRow {
    let horizon_ticks = window.end;
    let window_units = (window.end - window.start) as f64 / TICKS_PER_UNIT as f64;

    let jobs_completed = outcome
        .jobs
        .iter()
        .filter(|j| window.contains(&j.finish))
        .count() as u64;
    let latencies: Vec<f64> = outcome
        .jobs
        .iter()
        .filter(|j| window.contains(&j.arrival))
        .map(|j| (j.finish - j.arrival) as f64 / TICKS_PER_UNIT as f64)
        .collect();
    let latency = if latencies.is_empty() {
        Summary::empty()
    } else {
        Summary::of(&latencies)
    };

    let utils: Vec<f64> = outcome
        .busy_ticks
        .iter()
        .map(|&b| b as f64 / horizon_ticks as f64)
        .collect();
    let util_mean = utils.iter().sum::<f64>() / utils.len() as f64;
    let util_min = utils.iter().copied().fold(f64::INFINITY, f64::min);
    let util_max = utils.iter().copied().fold(f64::NEG_INFINITY, f64::max);

    let retries_mean = if outcome.jobs_offered == 0 {
        0.0
    } else {
        outcome.retries_total as f64 / outcome.jobs_offered as f64
    };

    PolicyRow {
        policy,
        jobs_offered: outcome.jobs_offered,
        jobs_completed,
        failed_jobs: outcome.failed_jobs,
        retries_mean,
        availability: outcome.availability,
        throughput: jobs_completed as f64 / window_units,
        latency,
        util_mean,
        util_min,
        util_max,
        nash_gap: outcome.nash_gap_at_horizon,
        nash_gap_live: outcome.nash_gap_live_at_horizon,
    }
}

/// Runs every requested policy and assembles the artifact. Policies fan
/// across `threads` workers; each run is sequential and seeded purely by
/// `(base_seed, policy index)`, so the report is byte-identical at any
/// thread count.
///
/// # Panics
///
/// Panics if the spec has no policies, no traffic, a zero horizon, or a
/// shift that empties the measurement window.
pub fn run_serve(spec: &ServeSpec, base_seed: u64, threads: usize) -> ServeReport {
    assert!(!spec.policies.is_empty(), "serve needs at least one policy");
    // Validate the window before spending any simulation time.
    let window = window_ticks(spec.horizon, spec.shift).unwrap_or_else(|| {
        panic!(
            "measurement shift {} leaves an empty window over horizon {}",
            spec.shift, spec.horizon
        )
    });

    let graph = spec.family.build();
    let n = graph.node_count();
    let mut scenario_rng = rng_for(base_seed, 0, streams::trial::SCENARIO);
    let speeds = spec.speeds.sample(n, &mut scenario_rng);
    let scenario_seed = derive_seed(base_seed, 0, streams::trial::SCENARIO);

    let keys: Vec<u64> = (0..spec.policies.len() as u64).collect();
    let rows = run_cell_trials(&keys, 1, base_seed, threads, |pos, _trial, _seed| {
        let policy = spec.policies[pos];
        let config = ServeConfig {
            graph: &graph,
            speeds: &speeds,
            traffic: spec.traffic,
            weights: spec.weights,
            faults: spec.faults,
            signal: spec.signal,
            retry: spec.retry,
            horizon: spec.horizon,
            scenario_seed,
            policy_seed: derive_seed(base_seed, pos as u64, streams::trial::SIM),
        };
        measure(policy, &slb_serve::run(&config, policy), &window)
    })
    .into_iter()
    .map(|mut trials| trials.remove(0))
    .collect();

    ServeReport {
        spec: spec.clone(),
        base_seed,
        n,
        rows,
    }
}

impl ServeReport {
    /// Renders the CSV artifact ([`SERVE_CSV_HEADER`] columns).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(SERVE_CSV_HEADER);
        out.push('\n');
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                row.policy.label(),
                family_grid_label(self.spec.family),
                self.n,
                speeds_grid_label(self.spec.speeds),
                weights_grid_label(self.spec.weights),
                traffic_label(self.spec.traffic.open),
                closed_label(self.spec.traffic.closed),
                faults_label(self.spec.faults),
                signal_label(self.spec.signal),
                retry_label(self.spec.retry),
                self.spec.horizon,
                self.spec.shift,
                self.base_seed,
                row.jobs_offered,
                row.jobs_completed,
                row.failed_jobs,
                row.retries_mean,
                row.availability,
                row.throughput,
                row.latency.count,
                row.latency.mean,
                row.latency.p50,
                row.latency.p95,
                row.latency.p99,
                row.util_mean,
                row.util_min,
                row.util_max,
                row.nash_gap,
                row.nash_gap_live,
            );
        }
        out
    }

    /// Renders the JSON artifact (same fields as the CSV).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, row) in self.rows.iter().enumerate() {
            let _ = write!(
                out,
                "  {{\"policy\":\"{}\",\"graph\":\"{}\",\"n\":{},\"speeds\":\"{}\",\
                 \"weights\":\"{}\",\"traffic\":\"{}\",\"closed\":\"{}\",\"faults\":\"{}\",\
                 \"signal\":\"{}\",\"retry\":\"{}\",\"horizon\":{},\
                 \"shift\":{},\"base_seed\":{},\"jobs_offered\":{},\"jobs_completed\":{},\
                 \"failed_jobs\":{},\"retries_mean\":{},\"availability\":{},\
                 \"throughput\":{},\"latency_count\":{},\"latency_mean\":{},\
                 \"latency_p50\":{},\"latency_p95\":{},\
                 \"latency_p99\":{},\"util_mean\":{},\"util_min\":{},\"util_max\":{},\
                 \"nash_gap\":{},\"nash_gap_live\":{}}}",
                row.policy.label(),
                family_grid_label(self.spec.family),
                self.n,
                speeds_grid_label(self.spec.speeds),
                weights_grid_label(self.spec.weights),
                traffic_label(self.spec.traffic.open),
                closed_label(self.spec.traffic.closed),
                faults_label(self.spec.faults),
                signal_label(self.spec.signal),
                retry_label(self.spec.retry),
                self.spec.horizon,
                self.spec.shift,
                self.base_seed,
                row.jobs_offered,
                row.jobs_completed,
                row.failed_jobs,
                row.retries_mean,
                row.availability,
                row.throughput,
                row.latency.count,
                row.latency.mean,
                row.latency.p50,
                row.latency.p95,
                row.latency.p99,
                row.util_mean,
                row.util_min,
                row.util_max,
                row.nash_gap,
                row.nash_gap_live,
            );
            out.push_str(if i + 1 < self.rows.len() { ",\n" } else { "\n" });
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slb_workloads::faults::{parse_faults, parse_retry, parse_signal};
    use slb_workloads::traffic::{parse_closed, parse_traffic};

    fn small_spec() -> ServeSpec {
        ServeSpec {
            family: Family::Ring { n: 8 },
            policies: PolicyKind::ALL.to_vec(),
            speeds: SpeedDistribution::Alternating { classes: 2 },
            weights: WeightDistribution::Unit,
            traffic: TrafficSpec {
                open: parse_traffic("poisson:4").expect("valid traffic"),
                closed: parse_closed("2:1.0").expect("valid closed loop"),
            },
            faults: None,
            signal: SignalSpec::default(),
            retry: None,
            horizon: 30,
            shift: -20.0,
        }
    }

    fn faulty_spec() -> ServeSpec {
        ServeSpec {
            faults: parse_faults("crash:6:2").expect("valid faults"),
            signal: parse_signal("stale:0.5+loss:0.1").expect("valid signal"),
            retry: parse_retry("max:3:base:0.25").expect("valid retry"),
            ..small_spec()
        }
    }

    #[test]
    fn serve_artifact_is_thread_count_invariant() {
        for spec in [small_spec(), faulty_spec()] {
            let one = run_serve(&spec, 42, 1);
            let eight = run_serve(&spec, 42, 8);
            assert_eq!(one.to_csv(), eight.to_csv());
            assert_eq!(one.to_json(), eight.to_json());
        }
    }

    #[test]
    fn faulty_rows_expose_the_degradation_columns() {
        let report = run_serve(&faulty_spec(), 42, 4);
        assert_eq!(report.rows.len(), 6);
        for row in &report.rows {
            assert!(
                (0.0..1.0).contains(&row.availability),
                "mttf 6 over horizon 30 must crash"
            );
            assert!(row.retries_mean >= 0.0);
            assert!(row.nash_gap_live >= 0.0);
            // Whole-run conservation surfaces in the artifact: failures
            // are counted, not censored.
            assert!(row.failed_jobs <= row.jobs_offered);
        }
        // Availability is scenario state: identical on every row.
        let avail: Vec<f64> = report.rows.iter().map(|r| r.availability).collect();
        assert!(avail.windows(2).all(|w| w[0] == w[1]), "{avail:?}");
        let csv = report.to_csv();
        assert!(csv.contains("crash:6:2"));
        assert!(csv.contains("stale:0.5+loss:0.1"));
        assert!(csv.contains("max:3:base:0.25"));
    }

    #[test]
    fn fault_free_rows_have_trivial_degradation_columns() {
        let report = run_serve(&small_spec(), 42, 2);
        for row in &report.rows {
            assert_eq!(row.failed_jobs, 0);
            assert_eq!(row.retries_mean, 0.0);
            assert_eq!(row.availability, 1.0);
            assert_eq!(row.nash_gap, row.nash_gap_live);
            assert_eq!(row.latency.count, row.latency.count as u64 as usize);
        }
        let csv = report.to_csv();
        for line in csv.lines().skip(1) {
            let fields: Vec<&str> = line.split(',').collect();
            assert_eq!(fields[7], "none", "faults column");
            assert_eq!(fields[8], "none", "signal column");
            assert_eq!(fields[9], "none", "retry column");
        }
    }

    #[test]
    fn serve_rows_cover_every_policy_in_order() {
        let report = run_serve(&small_spec(), 7, 4);
        assert_eq!(report.rows.len(), 6);
        for (row, kind) in report.rows.iter().zip(PolicyKind::ALL) {
            assert_eq!(row.policy, kind);
            assert!(row.jobs_offered > 0);
            assert!(row.latency.p50 <= row.latency.p95);
            assert!(row.latency.p95 <= row.latency.p99);
            assert!((0.0..=1.0).contains(&row.util_mean), "{}", row.util_mean);
            assert!(row.util_min <= row.util_mean && row.util_mean <= row.util_max);
            assert!(row.nash_gap >= 0.0);
        }
        // The closed loop reacts to each policy's completions, so offered
        // loads may differ across rows — but never by more than the
        // closed-loop population can generate versus sit idle.
        let offered: Vec<u64> = report.rows.iter().map(|r| r.jobs_offered).collect();
        let open_only: u64 = {
            let mut spec = small_spec();
            spec.traffic.closed = None;
            spec.policies = vec![PolicyKind::RoundRobin];
            run_serve(&spec, 7, 1).rows[0].jobs_offered
        };
        for &o in &offered {
            assert!(
                o >= open_only,
                "closed loop should only add jobs: {offered:?}"
            );
        }
    }

    #[test]
    fn csv_shape_matches_header() {
        let report = run_serve(&small_spec(), 3, 2);
        let csv = report.to_csv();
        let mut lines = csv.lines();
        let header = lines.next().expect("header line");
        assert_eq!(header, SERVE_CSV_HEADER);
        let columns = header.split(',').count();
        for line in lines {
            assert_eq!(line.split(',').count(), columns, "ragged row: {line}");
        }
        // JSON rows parse field-for-field with the CSV.
        let json = report.to_json();
        assert_eq!(json.matches("\"policy\"").count(), 6);
        assert!(json.ends_with("]\n"));
    }

    #[test]
    fn measurement_window_shift_changes_the_sample() {
        let mut spec = small_spec();
        spec.shift = 0.0;
        let full = run_serve(&spec, 9, 1);
        spec.shift = -5.0;
        let tail = run_serve(&spec, 9, 1);
        for (a, b) in full.rows.iter().zip(&tail.rows) {
            // Same run, smaller window: fewer (or equal) completions.
            assert_eq!(a.jobs_offered, b.jobs_offered);
            assert!(b.jobs_completed <= a.jobs_completed);
        }
    }

    #[test]
    #[should_panic(expected = "empty window")]
    fn shift_past_the_horizon_panics() {
        let mut spec = small_spec();
        spec.shift = spec.horizon as f64;
        let _ = run_serve(&spec, 1, 1);
    }
}
