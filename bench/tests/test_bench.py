"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/tests
"""

import json
import shutil
import subprocess
import sys

import pytest

import workloads  # first: puts the checkout's src/ on the import path
import run
import spans

import limitlab

BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
# Small sizes at which every job's output checks still hold.
TINY = {"witness": 500, "trace": 6, "grid": 16, "bc": 6}
COUNT_UNITS = ("count", "bit", "B", "ratio")


def _declared(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def _units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_declared_metrics_match_the_code():
    assert _declared("end_to_end") == run.END_TO_END
    assert _declared("per_layer") == spans.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result, lines = run.run_workload(workload, 1, 0, False, TINY[workload])
    assert result["failed"] == 0 and result["correct"], lines
    assert result["attempted"] > 2 * run.MIN_PAIRS
    assert _units(result) == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    report = "\n".join(lines)
    for name, unit in run.END_TO_END.items():
        assert f"{name} " in report and f" {unit}" in report
    assert "error_rate" in report and workloads.WORK_UNIT[workload] in report


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_runs_emit_every_per_layer_metric_and_repeat_their_counts(workload):
    first, _ = run.run_workload(workload, 1, 0, True, TINY[workload])
    second, _ = run.run_workload(workload, 1, 0, True, TINY[workload])
    assert first["correct"] and second["correct"]
    assert _units(first) == _declared("per_layer")

    def counts(result):
        return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] in COUNT_UNITS}

    assert counts(first) == counts(second)
    assert counts(first)["scientists.conjecture_calls"] > 0


def test_tracer_records_nested_spans_and_restores_the_package():
    original = limitlab.core.make_fate
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.job = 7
        workloads.execute(workloads.make_jobs("trace", 1, 4)[0])
    finally:
        tracer.uninstall()
    assert limitlab.core.make_fate is original
    assert limitlab.identification.make_fate is original
    assert "__init__" in vars(limitlab.Scientist)
    names = {s[0] for s in tracer.spans}
    assert {"cli.main", "identification.transformation_trace", "scientists.conjecture",
            "core.content", "families.decode"} <= names
    for i, (name, start, end, parent, job) in enumerate(tracer.spans):
        assert start <= end and job == 7 and parent < i
        if parent >= 0:
            outer = tracer.spans[parent]
            assert outer[1] <= start and end <= outer[2]
    assert tracer.counts["cli.jobs"] == 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_job_lists_follow_the_seed(workload):
    jobs = workloads.make_jobs(workload, 1)
    assert jobs == workloads.make_jobs(workload, 1)
    assert jobs != workloads.make_jobs(workload, 2)
    assert [j.large for j in jobs] == [False, True] * (len(jobs) // 2)
    assert len(workloads.recorded_digests(workload)) == len(workloads.make_jobs(workload, 0))


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "trace", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
