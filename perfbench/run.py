#!/usr/bin/env python3
"""Benchmark of whole `slb` commands, and a traced per-layer replay.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload ladder-approx --seed 1 --seconds 35 --trace 0

It builds `slb`, the native loop of the speed gauge in `perfbench/reference`
(and, with `--trace 1`, the replay in `perfbench/tracer`) into
`$CARGO_TARGET_DIR` (default `.bench_build`), then:

* `--trace 0` runs the workload's `slb` invocations again and again for
  `--seconds`, each time also at the minimum budget (`--max-rounds 1`,
  `horizon=1`) to time set-up, checks every artifact, and reports the
  end-to-end metrics of BENCHMARK.json, normalised by the speed gauge read
  between repetitions (see `measure`);
* `--trace 1` runs the invocations once for their artifacts, then the
  in-process replay (`perfbench_tracer`) for `--seconds`, checks that the
  replay reproduces the artifacts' rounds, migrations and job counts, and
  reports the per-layer metrics as medians over the replays. Layers the
  workload does not exercise report 0.

The last line of standard output is the result: `correct`, `attempted` and
`failed` (slb and tracer processes started, and those that exited non-zero)
and `metrics`. The line before it records the host and, per metric, the
sample count, min, quartiles and max. `--smoke` runs tiny sizes.
"""

import argparse
import csv
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Longest a single process may run before the run is abandoned.
PROCESS_LIMIT_S = 150
# Repetitions measured even when `--seconds` runs out first.
MIN_REPS = 3
# Iterations of the two loops of `gauge`, and the gauge reading that
# normalised times refer to: they are in seconds of a host on which the
# gauge reads GAUGE_S.
NATIVE_ITERS = 6_000_000
PYTHON_ITERS = 1_200_000
GAUGE_S = 0.125

POLICIES = ["alg1", "alg2", "bhs", "round-robin", "greedy-least-loaded", "bandwidth-softmax"]
COUNT_ENGINES = {"uniform-fast", "weighted-fast", "speed-fast"}


class CheckError(Exception):
    """An artifact or a replay failed a correctness check."""


class Workload:
    """The `slb` invocations of one workload.

    `budget` bounds the full run and `setup_budget` replaces it for the
    set-up run; `output` selects the artifact format (not passed to the
    replay). Serve workloads make one invocation per policy, at one thread.
    """

    def __init__(self, command, tokens, budget, setup_budget, output=(), policies=()):
        self.command = command
        self.tokens = list(tokens)
        self.budget = list(budget)
        self.setup_budget = list(setup_budget)
        self.output = list(output)
        self.policies = list(policies)

    def invocations(self, seed, threads=1, setup=False):
        """(label, arguments of `slb`) of every invocation."""
        budget = self.setup_budget if setup else self.budget
        args = [self.command] + self.tokens + budget + self.output + ["--seed", str(seed)]
        if self.command == "serve":
            return [(p, args + ["policy=" + p, "--threads", "1"]) for p in self.policies]
        return [(self.command, args + ["--threads", str(threads)])]

    def tracer_args(self, seed):
        args = [self.command] + self.tokens + self.budget + ["--seed", str(seed)]
        if self.command == "serve":
            args.append("policy=" + ",".join(self.policies))
        return args


def workloads(smoke):
    """The benchmark's workloads by name; `smoke` shrinks every size."""
    speeds = "speeds=alternating:2"
    bimodal = "weights=bimodal:0.25:1:0.5"
    serve = ["graph=torus:4x4" if smoke else "graph=torus:32x32", speeds, "weights=uniform:0.5..1",
             "faults=crash:50:5", "signal=stale:0.5+loss:0.1", "retry=max:3:base:0.25"]
    horizon = ["horizon=10" if smoke else "horizon=40"]
    return {
        "ladder-approx": Workload(
            "validate",
            ["family=torus,hypercube", "n=16..64:x4" if smoke else "n=64..1024:x4",
             "load=32" if smoke else "load=100", "protocol=alg1,alg2,bhs", "regime=approx",
             speeds, bimodal, "trials=2"],
            [], ["--max-rounds", "1"], output=["--report", "json"]),
        "sweep-nash": Workload(
            "sweep",
            ["graph=torus:4x4,hypercube:3" if smoke else "graph=torus:16x16,hypercube:8",
             "tasks-per-node=8" if smoke else "tasks-per-node=32", "protocol=alg1,alg2,bhs",
             "weights=unit," + bimodal[len("weights="):], speeds, "until=nash", "trials=2"],
            ["--max-rounds", "300" if smoke else "3000"], ["--max-rounds", "1"]),
        "serve-faults": Workload(
            "serve", serve + ["traffic=poisson:20" if smoke else "traffic=poisson:1000"],
            horizon, ["horizon=1"], policies=POLICIES),
    }


class Runner:
    """Starts processes, counts them, and keeps their outputs in `out_dir`."""

    def __init__(self, target_dir):
        self.target_dir = target_dir
        self.out_dir = os.path.join(target_dir, "perfbench")
        os.makedirs(self.out_dir, exist_ok=True)
        self.slb = os.path.join(target_dir, "release", "slb")
        self.tracer = os.path.join(target_dir, "release", "perfbench_tracer")
        self.reference = os.path.join(target_dir, "release", "perfbench_reference")
        self.attempted = 0
        self.failed = 0

    def run(self, argv):
        """Runs `argv` to completion; returns (wall s, max RSS MiB, stdout).

        Raises CheckError if it exits non-zero or outlives PROCESS_LIMIT_S.
        """
        out_path = os.path.join(self.out_dir, "stdout")
        err_path = os.path.join(self.out_dir, "stderr")
        self.attempted += 1
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT)
            watchdog = threading.Timer(PROCESS_LIMIT_S, proc.kill)
            watchdog.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            self.failed += 1
            with open(err_path, "rb") as err:
                tail = err.read()[-2000:].decode(errors="replace")
            raise CheckError(f"`{' '.join(argv)}` exited {proc.returncode}: {tail}")
        with open(out_path, "rb") as out:
            stdout = out.read()
        return wall, usage.ru_maxrss / 1024, stdout

    def slb_run(self, args):
        return self.run([self.slb] + args)


def cargo_build(target_dir, trace):
    """Builds `slb` and the gauge's native loop, and the replay when
    `trace`; exits 2 on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    builds = [["-p", "selfish_load_balancing", "--bin", "slb"],
              ["--manifest-path", os.path.join(HERE, "reference", "Cargo.toml")]]
    if trace:
        builds.append(["--manifest-path", os.path.join(HERE, "tracer", "Cargo.toml")])
    log_path = os.path.join(target_dir, "perfbench-build.log")
    os.makedirs(target_dir, exist_ok=True)
    for extra in builds:
        with open(log_path, "wb") as log:
            code = subprocess.call(["cargo", "build", "--release", "--offline", "--quiet"] + extra,
                                   cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        if code != 0:
            with open(log_path, "rb") as log:
                sys.stderr.write(log.read()[-4000:].decode(errors="replace"))
            sys.stderr.write("error: cargo build failed\n")
            sys.exit(2)


# ---------------------------------------------------------------- checks


def close(a, b):
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def check_validate(artifact):
    """Checks a `slb validate --report json` artifact: at least one row
    carries a conformance check, and every checked row conforms."""
    rows = json.loads(artifact)
    checks = ("exponent_ok", "bound_ok", "gap_ok")
    checked = [r for r in rows if any(r[c] is not None for c in checks)]
    if not checked:
        raise CheckError("validate: no row carries a conformance check")
    failing = [r["row"] for r in checked if any(r[c] is False for c in checks)]
    if failing:
        raise CheckError(f"validate: rows {failing} do not conform")


def check_sweep(artifact, cells):
    """Checks a `slb sweep` CSV artifact: `cells` rows, each run on a count
    engine."""
    rows = list(csv.DictReader(io.StringIO(artifact.decode())))
    if len(rows) != cells:
        raise CheckError(f"sweep: {len(rows)} rows, expected {cells}")
    for row in rows:
        if row["engine"] not in COUNT_ENGINES or int(row["trials"]) < 1:
            raise CheckError(f"sweep: cell {row['cell']} did not run on a count engine")


def check_serve(artifacts):
    """Checks one `slb serve` CSV artifact per policy: one row of that
    policy each, in which every offered job completed or failed; the same
    open-loop jobs offered to every policy; and the same fault trace seen
    by every policy (equal availability, below 1)."""
    offered, availability = set(), set()
    for policy, artifact in artifacts.items():
        rows = list(csv.DictReader(io.StringIO(artifact.decode())))
        if len(rows) != 1 or rows[0]["policy"] != policy:
            raise CheckError(f"serve: artifact of {policy} is not one row of that policy")
        jobs, failed = int(rows[0]["jobs_offered"]), int(rows[0]["failed_jobs"])
        completed = int(rows[0]["latency_count"])
        if jobs < 1 or completed + failed != jobs:
            raise CheckError(f"serve: {policy} offered {jobs} jobs, completed {completed} "
                             f"and failed {failed}")
        offered.add(jobs)
        availability.add(float(rows[0]["availability"]))
    if len(offered) != 1:
        raise CheckError("serve: policies were offered different open-loop traffic")
    if len(availability) != 1 or max(availability) >= 1:
        raise CheckError(f"serve: policies saw availabilities {sorted(availability)}, "
                         "not one shared fault trace")


def check_artifacts(workload, artifacts):
    """Checks one repetition's artifacts (label → stdout bytes)."""
    if workload.command == "validate":
        check_validate(artifacts["validate"])
    elif workload.command == "sweep":
        check_sweep(artifacts["sweep"], sweep_cells(workload))
    else:
        check_serve(artifacts)


def sweep_cells(workload):
    """Cells of a sweep grid: the product of its axis lengths."""
    cells = 1
    for token in workload.tokens:
        key, values = token.split("=", 1)
        if key not in ("trials", "max-rounds"):
            cells *= len(values.split(","))
    return cells


def check_replay(workload, artifacts, replay):
    """Checks that the tracer's replay reproduces the CLI artifacts."""
    if workload.command == "serve":
        got = {p["policy"]: p for p in replay["policies"]}
        for policy, artifact in artifacts.items():
            row = next(csv.DictReader(io.StringIO(artifact.decode())))
            want = (int(row["jobs_offered"]), int(row["failed_jobs"]))
            have = (got[policy]["offered"], got[policy]["failed"])
            if want != have:
                raise CheckError(f"replay: {policy} offered/failed {have}, artifact {want}")
        return
    groups = {}
    for trial in replay["trials"]:
        groups.setdefault(trial["group"], []).append(trial)
    if workload.command == "validate":
        rows = json.loads(artifacts["validate"])
        for r in rows:
            for p, point in enumerate(r["points"]):
                trials = groups.get(r["row"] * len(r["points"]) + p, [])
                rounds = [t["rounds"] for t in trials]
                if len(rounds) != r["trials"] or not close(statistics.fmean(rounds),
                                                           point["rounds_mean"]):
                    raise CheckError(f"replay: row {r['row']} n={point['n']} rounds {rounds}, "
                                     f"artifact mean {point['rounds_mean']}")
        return
    for row in csv.DictReader(io.StringIO(artifacts["sweep"].decode())):
        trials = groups.get(int(row["cell"]), [])
        rounds = [t["rounds"] for t in trials]
        migrations = [t["migrations"] for t in trials]
        reached = sum(t["reached"] for t in trials) / max(1, len(trials))
        pairs = [(statistics.fmean(rounds), "rounds_mean"), (min(rounds), "rounds_min"),
                 (max(rounds), "rounds_max"), (statistics.fmean(migrations), "migrations_mean"),
                 (reached, "reached_fraction")] if trials else []
        if len(trials) != int(row["trials"]) or not all(close(v, float(row[k])) for v, k in pairs):
            raise CheckError(f"replay: cell {row['cell']} rounds {rounds} migrations "
                             f"{migrations} differ from the artifact")


# --------------------------------------------------------------- measure


def gauge(runner):
    """The host's current speed: the geometric mean of the seconds taken by
    two fixed loops that share no code with `slb`, the native one of
    `perfbench/reference` and a pure-Python one."""
    start = time.perf_counter()
    subprocess.run([runner.reference, str(NATIVE_ITERS)], check=True, stdout=subprocess.DEVNULL,
                   timeout=PROCESS_LIMIT_S)
    native = time.perf_counter() - start
    start = time.perf_counter()
    x = 0
    for i in range(PYTHON_ITERS):
        x = (x * 31 + i) & 0xFFFFFFFF
    return math.sqrt(native * (time.perf_counter() - start))


def measure(workload, runner, seed, seconds, nproc):
    """Repeats the workload's set-up and full invocations for `seconds`.

    Returns the end-to-end metrics and their per-repetition samples.
    A shared host's speed drifts by a third over minutes, for every program
    alike, so each repetition is bracketed by readings of `gauge` and its
    times are scaled by GAUGE_S / (mean of the two readings): `wall_norm_s`
    (the full invocations) and `setup_s` (the set-up invocations) are
    medians of these normalised times, in seconds of a host on which the
    gauge reads GAUGE_S. `peak_rss_mb` is a median. The unscaled times are
    in the spread line as `wall_s` and `setup_wall_s`, the readings as
    `gauge_s`.

    Timed runs use one thread, since two-thread wall times on a small
    shared host spread much wider; the artifact at `nproc` threads must be
    byte-identical to the one-thread artifact.
    """
    names = ("wall_norm_s", "setup_s", "peak_rss_mb", "wall_s", "setup_wall_s", "gauge_s")
    samples = {name: [] for name in names}
    first = None
    before = gauge(runner)
    deadline = time.perf_counter() + seconds
    while len(samples["wall_s"]) < MIN_REPS or time.perf_counter() < deadline:
        setup = sum(runner.slb_run(args)[0] for _, args in workload.invocations(seed, setup=True))
        wall, rss, artifacts = 0.0, 0.0, {}
        for label, args in workload.invocations(seed):
            w, r, out = runner.slb_run(args)
            wall, rss, artifacts[label] = wall + w, max(rss, r), out
        if first is None:
            first = artifacts
            check_artifacts(workload, artifacts)
        elif artifacts != first:
            raise CheckError("the same seed produced a different artifact")
        after = gauge(runner)
        scale = GAUGE_S / ((before + after) / 2)
        before = after
        for name, value in (("wall_norm_s", wall * scale), ("setup_s", setup * scale),
                            ("peak_rss_mb", rss), ("wall_s", wall), ("setup_wall_s", setup),
                            ("gauge_s", after)):
            samples[name].append(value)
    if workload.command != "serve" and nproc > 1:
        [(label, args)] = workload.invocations(seed, nproc)
        if runner.slb_run(args)[2] != first[label]:
            raise CheckError(f"{label}: artifact at --threads {nproc} differs from --threads 1")
    return {name: statistics.median(v) for name, v in samples.items()}, samples


def trace(workload, runner, seed, seconds, nproc):
    """Checks the CLI artifacts once, then replays the workload traced for
    `seconds`. Returns the per-layer metrics (medians over the replays)
    and their per-replay samples."""
    artifacts = {label: runner.slb_run(args)[2] for label, args in workload.invocations(seed)}
    check_artifacts(workload, artifacts)
    samples = {}
    deadline = time.perf_counter() + seconds
    replays = 0
    while replays == 0 or time.perf_counter() < deadline:
        args = [runner.tracer] + workload.tracer_args(seed)
        if replays % 2:
            args.append("--traced-first")
        replay = json.loads(runner.run(args)[2])
        check_replay(workload, artifacts, replay)
        for metric, value in replay["metrics"].items():
            samples.setdefault(metric, []).append(value)
        replays += 1
    return {name: statistics.median(v) for name, v in samples.items()}, samples


# ---------------------------------------------------------------- report


def host():
    """The host a result was measured on."""
    def output(argv):
        try:
            return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                  env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
                                  timeout=30).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            return "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "machine": platform.machine(),
            "rustc": output(["rustc", "--version"]),
            "commit": output(["git", "rev-parse", "HEAD"])}


def spread(values):
    """Sample count, min, quartiles, median and max of `values`."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "min": min(values), "q1": q1, "median": median, "q3": q3,
            "max": max(values)}


def benchmark_metrics(trace_on):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace_on else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the tests")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or \
            not os.path.isfile(os.path.join(ROOT, "src", "bin", "slb.rs")):
        sys.exit(f"error: {ROOT} is not a source checkout of the slb workspace")
    all_workloads = workloads(args.smoke)
    if args.workload not in all_workloads:
        sys.exit(f"error: unknown workload `{args.workload}` (use {', '.join(all_workloads)})")
    workload = all_workloads[args.workload]
    trace_on = args.trace == 1
    target_dir = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                                     ".bench_build")))
    cargo_build(target_dir, trace_on)
    runner = Runner(target_dir)
    nproc = len(os.sched_getaffinity(0))

    metrics, correct, samples = {}, True, {}
    try:
        run = trace if trace_on else measure
        values, samples = run(workload, runner, args.seed, args.seconds, nproc)
        for m in benchmark_metrics(trace_on):
            metrics[m["name"]] = {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
    except CheckError as e:
        sys.stderr.write(f"check failed: {e}\n")
        correct, metrics = False, {}
    print(json.dumps({"host": host(), "workload": args.workload, "seed": args.seed,
                      "trace": args.trace,
                      "spread": {name: spread(v) for name, v in sorted(samples.items())}}))
    print(json.dumps({"correct": correct, "attempted": max(1, runner.attempted),
                      "failed": runner.failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
