//! Per-layer metrics derived from the traced replay's spans, and the
//! sampler probes.
//!
//! Only the layers a workload exercises appear; the benchmark reports the
//! others as 0 (no work in that layer).

use crate::replay::PolicyRecord;
use crate::trace::{Layer, Span};
use rand::rngs::StdRng;
use rand::SeedableRng;
use slb_core::engine::sampling::{sample_binomial, sample_multinomial};
use slb_serve::PolicyKind;
use std::hint::black_box;
use std::time::Instant;

/// Bytes one completed job's latency record occupies (`JobRecord`).
const JOB_RECORD_BYTES: f64 = 16.0;

fn median(mut values: Vec<u64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable();
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid] as f64
    } else {
        (values[mid - 1] + values[mid]) as f64 / 2.0
    }
}

fn durations(spans: &[Span], keep: impl Fn(&Span) -> bool) -> Vec<u64> {
    spans.iter().filter(|s| keep(s)).map(Span::ns).collect()
}

/// The per-layer metrics of one traced replay that took `wall_s`.
pub fn layers(spans: &[Span], wall_s: f64, policies: &[PolicyRecord]) -> Vec<(String, f64)> {
    let wall_ns = wall_s * 1e9;
    let mut out: Vec<(String, f64)> = vec![
        (
            "graphs.build_ms".into(),
            total_of(spans, Layer::GraphBuild) / 1e6,
        ),
        (
            "workloads.scenario_ms".into(),
            total_of(spans, Layer::Scenario) / 1e6,
        ),
    ];

    let steps: Vec<&Span> = spans.iter().filter(|s| s.layer == Layer::Step).collect();
    if !steps.is_empty() {
        let rounds = steps.len() as f64;
        let active = durations(spans, |s| s.layer == Layer::Step && s.count > 0);
        let quiet = durations(spans, |s| s.layer == Layer::Step && s.count == 0);
        let checks = durations(spans, |s| s.layer == Layer::StopCheck);
        out.extend([
            (
                "workloads.class_state_ms".into(),
                total_of(spans, Layer::ClassState) / 1e6,
            ),
            ("engine.rounds".into(), rounds),
            (
                "engine.migrations".into(),
                steps.iter().map(|s| s.count).sum::<u64>() as f64,
            ),
            (
                "engine.useful_round_frac".into(),
                active.len() as f64 / rounds,
            ),
            ("engine.step_us.active".into(), median(active) / 1e3),
            ("engine.step_us.quiet".into(), median(quiet) / 1e3),
            (
                "engine.step_share".into(),
                total_of(spans, Layer::Step) / wall_ns,
            ),
            (
                "equilibrium.stop_check_share".into(),
                total_of(spans, Layer::StopCheck) / wall_ns,
            ),
            ("equilibrium.stop_check_us".into(), median(checks) / 1e3),
        ]);
    }

    // A trial of the runner is a sweep/ladder trial, or one policy's run.
    let trial_layer = |s: &Span| matches!(s.layer, Layer::Trial | Layer::ServeRun(_));
    let trials = durations(spans, trial_layer);
    if let Some(&slowest) = trials.iter().max() {
        out.push((
            "runner.slowest_trial_share".into(),
            slowest as f64 / trials.iter().sum::<u64>() as f64,
        ));
    }

    if !policies.is_empty() {
        out.extend(serve_layers(spans, policies));
    }
    out
}

fn serve_layers(spans: &[Span], policies: &[PolicyRecord]) -> Vec<(String, f64)> {
    let run_ns = |index: usize| total_of(spans, Layer::ServeRun(index));
    let mut out = Vec::new();
    let baseline = policies
        .iter()
        .position(|p| p.policy == PolicyKind::RoundRobin);
    for (i, p) in policies.iter().enumerate() {
        let label = p.policy.label();
        out.push((format!("serve.run_s.{label}"), run_ns(i) / 1e9));
        if let Some(rr) = baseline.filter(|&rr| rr != i) {
            out.push((
                format!("serve.route_ns_per_job.{label}"),
                (run_ns(i) - run_ns(rr)) / p.offered as f64,
            ));
        }
    }
    if let Some(rr) = baseline {
        out.push((
            "serve.loop_ns_per_job".into(),
            run_ns(rr) / policies[rr].offered as f64,
        ));
    }
    let most_completed = policies.iter().map(|p| p.completed).max().unwrap_or(0);
    out.extend([
        (
            "serve.job_record_mb".into(),
            most_completed as f64 * JOB_RECORD_BYTES / (1u64 << 20) as f64,
        ),
        (
            "serve.jobs_offered".into(),
            policies.iter().map(|p| p.offered).sum::<u64>() as f64,
        ),
        (
            "serve.failed_jobs".into(),
            policies.iter().map(|p| p.failed).sum::<u64>() as f64,
        ),
        (
            "serve.retries".into(),
            policies.iter().map(|p| p.retries).sum::<u64>() as f64,
        ),
        (
            "analysis.serve_measure_ms".into(),
            (total_of(spans, Layer::RunServe) - run_ns(0)) / 1e6,
        ),
    ]);
    out
}

fn total_of(spans: &[Span], layer: Layer) -> f64 {
    durations(spans, |s| s.layer == layer).iter().sum::<u64>() as f64
}

/// Calls per sampler probe.
const PROBE_CALLS: u32 = 100_000;

/// Nanoseconds per call of the binomial sampler at three means (both
/// sides of the CDF-walk / normal switch, at the engine's `p ≤ 1/4`) and
/// of a four-destination multinomial, on RNG streams seeded from `seed`.
pub fn sampler_probes(seed: u64) -> Vec<(String, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut time = |f: &mut dyn FnMut(&mut StdRng) -> u64| {
        let start = Instant::now();
        let mut sink = 0u64;
        for _ in 0..PROBE_CALLS {
            sink = sink.wrapping_add(f(&mut rng));
        }
        black_box(sink);
        start.elapsed().as_nanos() as f64 / f64::from(PROBE_CALLS)
    };
    let mut out = Vec::new();
    for (name, n, p) in [
        ("sampling.binomial_ns.mean4", 64u64, 0.0625),
        ("sampling.binomial_ns.mean48", 192, 0.25),
        ("sampling.binomial_ns.mean4096", 16384, 0.25),
    ] {
        let ns = time(&mut |rng| sample_binomial(black_box(n), black_box(p), rng));
        out.push((name.to_string(), ns));
    }
    let probs = [0.05; 4];
    let mut counts = Vec::new();
    let ns = time(&mut |rng| sample_multinomial(black_box(256), &probs, &mut counts, rng));
    out.push(("sampling.multinomial_ns.deg4".into(), ns));
    out
}
