"""Tests of the benchmark itself, on tiny inputs of every workload."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys

import pytest

from perfbench import bench, tracing, workloads

SPEC = bench.spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, out_dir, seconds=0.2):
    return bench.run(workload, 3, seconds, trace, out_dir, tiny=True)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace, tmp_path):
    result, report = _run(workload, trace, tmp_path)
    json.dumps(result, allow_nan=False)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert [(name, m["unit"]) for name, m in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in declared
    ]
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    if not trace:
        assert all(v > 0 for v in values.values())
        return
    assert values["counters.mismatches"] == 0
    assert report["not_visible"] == []
    pool = {k: v for k, v in values.items() if k.startswith("workers.")}
    if workload == "closure_pool":
        assert pool["workers.pipe_bytes"] > 0
        # Counted inside the worker processes, not by the parent.
        assert values["logic.match_candidates"] > 0
    else:
        assert set(pool.values()) == {0}


@pytest.mark.parametrize("trace", [False, True])
def test_wrong_expected_result_shows_in_fail_ratio(trace, monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "PROPERTY_P_TOURNAMENTS", (0, 2, 2, 3, 4, 9, 23))
    result, report = _run("property_p", trace, tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    fail_ratio = (
        result["metrics"]["fail_ratio"]["value"] if trace else report["fail_ratio"]
    )
    assert fail_ratio == 1.0


def test_wrong_closure_pair_shows_in_fail_ratio(monkeypatch, tmp_path):
    real = workloads.reachability

    def missing_one(pairs):
        closure = sorted(real(pairs))
        return frozenset(closure[1:])

    monkeypatch.setattr(workloads, "reachability", missing_one)
    result, report = _run("closure_pool", False, tmp_path)
    assert result["failed"] == result["attempted"]
    assert report["fail_ratio"] == 1.0


@pytest.mark.parametrize("workload", ["closure_pool", "serve_mix"])
def test_counters_repeat_across_runs_of_one_seed(workload, tmp_path):
    first = _run(workload, True, tmp_path, seconds=0.6)[1]["counters"]
    second = _run(workload, True, tmp_path, seconds=0.6)[1]["counters"]
    common = first.keys() & second.keys()
    assert common
    assert {k: first[k] for k in common} == {k: second[k] for k in common}


def test_relabelling_keeps_name_order_and_width():
    for seed in (1, 2):
        labels = workloads._labels(random.Random(seed), 91)
        assert labels == sorted(labels)
        assert len({len(str(n)) for n in labels}) == 1


def test_each_op_is_scaled_by_the_blocks_around_it():
    run = bench.Measurement([1.0, 2.0, 3.0], 0, speeds=[(0, 0.5), (2, 1.0), (3, 0.5)])
    assert run.reference_seconds() == [0.75, 1.5, 2.25]


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    targets = tracing.Tracer(tmp_path)._targets()
    originals = [(owner, name, vars(owner)[name]) for owner, name, _ in targets]
    _run("closure_pool", True, tmp_path)
    for owner, name, original in originals:
        assert vars(owner)[name] is original, name


def test_cli_prints_the_result_line_last(tmp_path):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closure_pool",
         "--seed", "2", "--seconds", "0.1", "--trace", "0"],
        cwd=bench.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and set(result["metrics"]) == {
        m["name"] for m in SPEC["end_to_end"]
    }


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        bench.ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closure_pool",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
