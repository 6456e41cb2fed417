"""Tests of the benchmark itself: metric names, planted failures, determinism.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# pool sizes small enough for a test: scenes per construction kind, CLI
# invocations per construction kind, trials per check pass
TINY = {"scenes-small": 10, "scenes-wide": 10, "cli-oneshot": 3, "check-suite": 2}


def tiny_run(name, trace, seed=3):
    return run.run(name, seed, 0.2, trace, size=TINY[name])


def test_spec_lists_every_workload_and_metric_the_code_reports():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    lib = WORKLOADS["check-suite"](0)
    lib.setup()
    units = run.per_layer_units(lib.lib.checks.PROPERTY_NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == units


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_workload_reports_every_metric(name, trace):
    record = tiny_run(name, trace)
    section = "per_layer" if trace else "end_to_end"
    assert set(record["metrics"]) == {m["name"] for m in SPEC[section]}
    assert record["correct"], record["failures"]
    assert record["attempted"] >= 1 and record["failed"] == 0
    env = record["environment"]
    for key in ("python", "cpu_model", "nproc", "commit", "src_sha256", "seed"):
        assert key in env
    if not trace:
        for key, metric in record["metrics"].items():
            assert metric["value"] > 0, key


def test_main_prints_the_result_line_last(capsys):
    assert run.main(["--workload", "scenes-small", "--seed", "2", "--seconds", "0.2"]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True


def tiny_workload(name, seed=4):
    wl = WORKLOADS[name](seed, TINY[name])
    wl.setup()
    return wl


def test_planted_wrong_result_is_caught():
    wl = tiny_workload("scenes-small")
    dp, kernel = wl.lib.dp, sys.modules["exactplane.kernel"]
    original = dp.p_hor

    def off_by_one(scene):
        w = original(scene)
        return dataclasses.replace(w, point=kernel.Point(w.point.x + 1, w.point.y))

    dp.p_hor = off_by_one
    try:
        body = run.timed_loop(wl, 0.2)
    finally:
        dp.p_hor = original
    assert body["failed"] > 0
    assert any("closed form" in problem for problem in body["problems"])


def test_planted_wrong_error_code_is_caught():
    wl = tiny_workload("scenes-small")
    errors = wl.lib.errors
    original = errors.CaseUnavailableError.code
    errors.CaseUnavailableError.code = "E_SOMETHING_ELSE"
    try:
        body = run.timed_loop(wl, 0.2)
    finally:
        errors.CaseUnavailableError.code = original
    assert body["failed"] > 0
    assert any("expected error E_CASE_UNAVAILABLE" in p for p in body["problems"])


def test_failing_check_suite_is_caught():
    wl = tiny_workload("check-suite")
    dp, kernel = wl.lib.dp, sys.modules["exactplane.kernel"]
    original = dp.p_hor_closed_form
    dp.p_hor_closed_form = lambda scene: kernel.Point(0, 0)
    try:
        body = run.timed_loop(wl, 0.2)
    finally:
        dp.p_hor_closed_form = original
    assert body["failed"] > 0


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_counts_repeat_for_a_seed(name):
    first, second = tiny_run(name, True), tiny_run(name, True)
    assert first["output_sha256"] == second["output_sha256"]
    for key, metric in first["metrics"].items():
        if metric["unit"] in ("count", "count/op", "bit", "B/op"):
            assert metric["value"] == second["metrics"][key]["value"], key


def test_untraced_and_traced_outputs_agree():
    assert tiny_run("scenes-wide", False)["output_sha256"] == tiny_run(
        "scenes-wide", True)["output_sha256"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scenes-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
