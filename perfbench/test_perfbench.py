"""Tests of the benchmark itself: exact-repeat counts and the output schema.

Run from the root of a bosonlr checkout (takes a few minutes, since the
presets workload runs twice under tracing):

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

# counts that must repeat exactly across runs with one seed
EXACT = (
    "dynamics.propagate.calls",
    "dynamics.evolve.krylov_calls",
    "dynamics.eigendecompose.dim3",
    "operators.assemble.nnz",
    "thermal.green_call.calls",
    "thermal.green_call.unique",
    "fock.states",
)


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False,
    )
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    runs = {}
    for workload in run.WORKLOAD_NAMES:
        runs[workload] = [
            result(bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1"))
            for _ in range(2)
        ]
    return runs


def test_counts_repeat_exactly(traced):
    for workload, (first, second) in traced.items():
        for name, metric in first["metrics"].items():
            if metric["unit"] == "count":
                assert metric == second["metrics"][name], (workload, name)
        for name in EXACT:
            assert first["metrics"][name] == second["metrics"][name], (workload, name)


def test_each_layer_does_its_work_where_predicted(traced):
    def value(workload, name):
        return traced[workload][0]["metrics"][name]["value"]

    assert value("big-sector", "operators.assemble.nnz") == 107548 + 159964
    assert value("big-sector", "dynamics.eigendecompose.calls") == 0
    assert value("big-sector", "thermal.self_s") == 0
    assert value("thermal-spectral", "fock.enumerate.calls") == 0
    assert value("thermal-spectral", "thermal.green_call.calls") == 2 * (21 * 21 + 1)
    assert value("presets", "dynamics.propagate.calls") > 10 * value("big-sector", "dynamics.propagate.calls")


def test_traced_schema(traced):
    names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for workload, runs in traced.items():
        for out in runs:
            assert set(out) == {"correct", "attempted", "failed", "metrics"}
            assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
            assert {k: v["unit"] for k, v in out["metrics"].items()} == names, workload
            for name, metric in out["metrics"].items():
                if name.endswith("self_s"):
                    assert metric["value"] >= 0, (workload, name)


def test_end_to_end_schema():
    out = result(bench("--workload", "thermal-spectral", "--seed", "5", "--seconds", "0", "--trace", "0"))
    names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0
    assert {k: v["unit"] for k, v in out["metrics"].items()} == names
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_refuses_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "presets", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
