"""Tests of the benchmark harness at tiny sizes.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the root of a source checkout; the first run builds `slb` and the
replay into `$CARGO_TARGET_DIR` (default `.bench_build`).
"""

import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

TARGET = os.path.abspath(os.path.join(run.ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                                 ".bench_build")))


def bench(*args, cwd=run.ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run([sys.executable, script, "--seed", "5", "--seconds", "0.2"]
                          + list(args), cwd=cwd, capture_output=True, text=True, timeout=900)


def rewrite_csv(artifact, edit):
    """`artifact` with `edit(rows)` applied to its parsed rows."""
    rows = list(csv.DictReader(io.StringIO(artifact.decode())))
    edit(rows)
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue().encode()


class SmokeTest(unittest.TestCase):
    def test_layers_map_every_per_layer_metric(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        with open(os.path.join(HERE, "layers.json")) as f:
            layers = json.load(f)["metrics"]
        self.assertEqual(set(layers), {m["name"] for m in spec["per_layer"]})
        end_to_end = {m["name"] for m in spec["end_to_end"]}
        names = {w["name"] for w in spec["workloads"]}
        for name, entry in layers.items():
            self.assertLessEqual(set(entry["moves"]), end_to_end, name)
            self.assertLessEqual(set(entry["workloads"]), names, name)
            self.assertTrue(entry["workloads"], name)
        self.assertEqual(names, set(run.workloads(smoke=False)))

    def test_every_metric_is_printed_with_its_unit(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for workload in spec["workloads"]:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload["name"], trace=trace):
                    done = bench("--workload", workload["name"], "--trace", str(trace), "--smoke")
                    self.assertEqual(done.returncode, 0, done.stderr)
                    result = json.loads(done.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    want = {m["name"]: m["unit"] for m in spec[kind]}
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, metric in result["metrics"].items():
                        self.assertTrue(math.isfinite(metric["value"]), name)
                    for name in ("wall_norm_s", "setup_s", "peak_rss_mb") if trace == 0 else ():
                        self.assertGreater(result["metrics"][name]["value"], 0, name)

    def test_outside_a_checkout_fails_without_a_result(self):
        alone = os.path.join(TARGET, "perfbench-test", "alone")
        shutil.rmtree(alone, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(alone, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__", "target"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), alone)
        done = bench("--workload", "serve-faults", "--trace", "0", cwd=alone,
                     script=os.path.join(alone, "perfbench", "run.py"))
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn("correct", done.stdout)


class CorruptedArtifactTest(unittest.TestCase):
    """Every output check trips on a deliberately corrupted artifact."""

    @classmethod
    def setUpClass(cls):
        run.cargo_build(TARGET, trace=True)
        cls.runner = run.Runner(TARGET)
        cls.workloads = run.workloads(smoke=True)
        cls.artifacts = {}
        cls.replays = {}
        for name, workload in cls.workloads.items():
            cls.artifacts[name] = {label: cls.runner.slb_run(args)[2]
                                   for label, args in workload.invocations(5)}
            replay = cls.runner.run([cls.runner.tracer] + workload.tracer_args(5))[2]
            cls.replays[name] = json.loads(replay)

    def assert_trips(self, name, artifacts=None, replay=None):
        workload = self.workloads[name]
        with self.assertRaises(run.CheckError):
            run.check_artifacts(workload, artifacts or self.artifacts[name])
            run.check_replay(workload, artifacts or self.artifacts[name],
                             replay or self.replays[name])

    def test_untouched_artifacts_pass(self):
        for name, workload in self.workloads.items():
            run.check_artifacts(workload, self.artifacts[name])
            run.check_replay(workload, self.artifacts[name], self.replays[name])

    def test_ladder_row_that_does_not_conform(self):
        rows = json.loads(self.artifacts["ladder-approx"]["validate"])
        checked = next(r for r in rows if r["bound_ok"] is not None)
        checked["bound_ok"] = False
        self.assert_trips("ladder-approx", {"validate": json.dumps(rows).encode()})

    def test_ladder_without_any_checked_row(self):
        rows = json.loads(self.artifacts["ladder-approx"]["validate"])
        for row in rows:
            row["exponent_ok"] = row["bound_ok"] = row["gap_ok"] = None
        self.assert_trips("ladder-approx", {"validate": json.dumps(rows).encode()})

    def test_sweep_missing_a_cell(self):
        artifact = rewrite_csv(self.artifacts["sweep-nash"]["sweep"], lambda rows: rows.pop())
        self.assert_trips("sweep-nash", {"sweep": artifact})

    def test_sweep_cell_off_the_count_engines(self):
        def edit(rows):
            rows[0]["engine"] = "unsupported"
        artifact = rewrite_csv(self.artifacts["sweep-nash"]["sweep"], edit)
        self.assert_trips("sweep-nash", {"sweep": artifact})

    def test_serve_policies_offered_different_traffic(self):
        def edit(rows):
            rows[0]["jobs_offered"] = str(int(rows[0]["jobs_offered"]) + 1)
            rows[0]["latency_count"] = str(int(rows[0]["latency_count"]) + 1)
        artifacts = dict(self.artifacts["serve-faults"])
        artifacts["alg2"] = rewrite_csv(artifacts["alg2"], edit)
        self.assert_trips("serve-faults", artifacts)

    def test_serve_job_neither_completed_nor_failed(self):
        def edit(rows):
            rows[0]["latency_count"] = str(int(rows[0]["latency_count"]) - 1)
        artifacts = dict(self.artifacts["serve-faults"])
        artifacts["alg1"] = rewrite_csv(artifacts["alg1"], edit)
        self.assert_trips("serve-faults", artifacts)

    def test_serve_policies_saw_different_faults(self):
        for availability in ("0.5", "1"):
            with self.subTest(availability=availability):
                def edit(rows):
                    rows[0]["availability"] = availability
                artifacts = dict(self.artifacts["serve-faults"])
                for policy in artifacts if availability == "1" else ["bhs"]:
                    artifacts[policy] = rewrite_csv(artifacts[policy], edit)
                self.assert_trips("serve-faults", artifacts)

    def test_replay_with_other_rounds_or_migrations(self):
        for name in ("ladder-approx", "sweep-nash"):
            for field in ("rounds", "migrations"):
                if name == "ladder-approx" and field == "migrations":
                    continue  # validate artifacts carry no migration counts
                with self.subTest(name=name, field=field):
                    replay = json.loads(json.dumps(self.replays[name]))
                    replay["trials"][0][field] += 1
                    self.assert_trips(name, replay=replay)

    def test_replay_with_other_job_counts(self):
        for field in ("offered", "failed"):
            with self.subTest(field=field):
                replay = json.loads(json.dumps(self.replays["serve-faults"]))
                replay["policies"][-1][field] += 1
                self.assert_trips("serve-faults", replay=replay)


if __name__ == "__main__":
    unittest.main()
