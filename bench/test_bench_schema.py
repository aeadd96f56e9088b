"""Schema test for the benchmark: every workload, untraced and traced, at smoke size.

Runs ``bench/run.py --smoke`` in a subprocess per case and checks the last
line of its output against ``BENCHMARK.json``: exactly the declared metrics,
with their units, finite numbers, no failed operation. Also checks that the
layer map covers every per-layer metric.
"""

import json
import math
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run_bench(workload, trace, out):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_line_matches_spec(workload, trace, tmp_path):
    result = run_bench(workload, trace, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])
        if not trace:
            assert entry["value"] > 0, m["name"]
    assert os.path.isfile(tmp_path / f"{workload}-seed3-trace{trace}.json")


def test_layer_map_covers_every_per_layer_metric():
    with open(os.path.join(BENCH, "layer_map.json")) as fh:
        layer_map = json.load(fh)["map"]
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    for entry in layer_map.values():
        assert set(entry["moves"]) <= e2e
        assert set(entry["on"]) <= workloads
    for m in SPEC["per_layer"]:
        base = m["name"]
        for suffix in (".p50", ".tail", ".n"):
            base = base.removesuffix(suffix)
        wildcard = base.rsplit(".", 1)[0] + ".*"
        assert base in layer_map or wildcard in layer_map, m["name"]


def test_refuses_to_run_without_sources(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and prints no result."""
    bare = tmp_path / "bare"
    (bare / "bench").mkdir(parents=True)
    for name in os.listdir(BENCH):
        if name.endswith((".py", ".json")):
            (bare / "bench" / name).write_bytes(open(os.path.join(BENCH, name), "rb").read())
    (bare / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "ensemble_eval",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
