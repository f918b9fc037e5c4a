"""BENCHMARK.json and the runner agree on every workload and metric."""

import ast
import json
import os
import time

import pytest

from fedbench import catalog, runner

from conftest import HERE, ROOT


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as f:
        return json.load(f)


def test_runner_runs_exactly_the_declared_workloads():
    assert set(runner.RUNNERS) == {w["name"] for w in _benchmark()["workloads"]}


def test_benchmark_json_shape():
    bench = _benchmark()
    assert set(bench) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 1 <= bench["run_seconds"] <= 60
    assert 2 <= len(bench["workloads"]) <= 8
    assert 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    for workload in bench["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in bench["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in bench["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in bench["end_to_end"])}]


def test_names_and_units():
    bench = _benchmark()
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert catalog.NAME_RE.match(name), name
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert catalog.UNIT_RE.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")


def _outcome(names):
    outcome = runner.Outcome()
    outcome.metrics = {name: 1.0 for name in names}
    outcome.attempted = 3
    return outcome


@pytest.mark.parametrize("traced", [False, True])
def test_result_line_emits_exactly_the_declared_metrics(traced):
    kind = "per_layer" if traced else "end_to_end"
    declared = catalog.units(kind)
    line = runner.result_line(_outcome(declared), traced)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    assert line["correct"] is True and line["attempted"] == 3


def test_result_line_rejects_undeclared_or_missing_metrics():
    declared = list(catalog.units("end_to_end"))
    with pytest.raises(RuntimeError):
        runner.result_line(_outcome(declared[1:]), traced=False)
    with pytest.raises(RuntimeError):
        runner.result_line(_outcome(declared + ["made_up"]), traced=False)


def test_failed_check_marks_result_incorrect():
    outcome = _outcome(catalog.units("end_to_end"))
    outcome.check(False, "digest differs")
    line = runner.result_line(outcome, traced=False)
    assert line["correct"] is False and line["failed"] == 1


def test_timed_loop_respects_minimum_and_deadline():
    assert runner._timed_loop(lambda i: i, deadline=0.0, minimum=2) == [0, 1]
    assert len(runner._timed_loop(lambda i: i, time.perf_counter() + 0.05, 1)) > 2


def test_no_full_workload_runs_in_these_tests():
    """Tier-1 collects only ``tests/``; these tests never drive a workload."""
    with open(os.path.join(ROOT, "pyproject.toml"), "r", encoding="utf-8") as f:
        text = f.read()
    assert 'testpaths = ["tests"]' in text
    forbidden = {"run_fed_unit", "run_zoo_unit", "run_federation", "run_zoo"}
    for name in os.listdir(HERE):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(HERE, name), "r", encoding="utf-8") as f:
            tree = ast.parse(f.read())
        called = {
            node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", "")
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
        }
        assert not called & forbidden, (name, called & forbidden)
