"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench/tests -q

They run the job lists at tiny sizes, check that a corrupted output
counts as a failure on every workload, that the traced run's layer self
times account for its pass time, and that ``BENCHMARK.json`` lists
exactly the metrics the code reports.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import NullRecorder  # noqa: E402


def tiny(workload: str):
    return workloads.build(workload, 7, ROOT, tiny=True)


def error_rate(wl) -> float:
    runner = run.Runner(wl, NullRecorder())
    runner.run_pass(wl.jobs)
    return runner.failed / runner.attempted


def corrupted(job, corrupt):
    """``job`` with ``corrupt`` applied to its output before the check."""
    return dataclasses.replace(job, run=lambda rec: corrupt(job.run(rec)))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_job_list_runs_clean_at_tiny_sizes(workload):
    wl = tiny(workload)
    runner, values = run.end_to_end(wl, seconds=0)
    assert runner.attempted == len(wl.jobs)
    assert runner.failed == 0
    assert values["ok_rate"] == 1.0
    assert values["pass_s"] > 0
    assert values["peak_rss_mb"] > 0
    assert values["sim_traffic_mb"] > 0 and values["sim_time_s"] > 0


def _one_job(workload: str, name: str):
    wl = tiny(workload)
    (job,) = [j for j in wl.jobs if j.name == name]
    wl.jobs = [job]
    return wl, job


def test_corrupt_l2_miss_count_fails_measure():
    wl, job = _one_job("measure", "adi.new.N10")

    def corrupt(result):
        result.stats = dataclasses.replace(result.stats, l2_misses=result.stats.l2_misses + 1)
        return result

    wl.jobs = [corrupted(job, corrupt)]
    assert error_rate(wl) > 0


def test_corrupt_membw_row_fails_measure():
    """At registry sizes the noopt/new rows must equal BENCH_membw.json."""
    wl = workloads.build("measure", 7, ROOT)
    (job,) = [j for j in wl.jobs if j.name == "tomcatv.noopt"]

    def corrupt(result):
        result.stats = dataclasses.replace(result.stats, l2_misses=result.stats.l2_misses + 1)
        return result

    wl.jobs = [corrupted(job, corrupt)]
    assert error_rate(wl) == 1.0


def test_corrupt_coherence_count_fails_analyze():
    wl, job = _one_job("analyze", "adi.noopt.N10")

    def corrupt(out):
        coh = out.coherence
        out.coherence = dataclasses.replace(coh, upgrades=coh.upgrades + 1)
        return out

    wl.jobs = [corrupted(job, corrupt)]
    assert error_rate(wl) > 0


def test_corrupt_distance_fails_reuse():
    wl, job = _one_job("reuse", "adi.reuse.N10")

    def corrupt(out):
        label, keys, dist = out.curves[0]
        dist = dist.copy()
        dist[int(np.flatnonzero(dist == 0)[0])] = -1  # a hit becomes a cold miss
        out.curves[0] = (label, keys, dist)
        return out

    wl.jobs = [corrupted(job, corrupt)]
    assert error_rate(wl) > 0


def test_corrupt_sweep_point_fails_measure():
    wl, job = _one_job("measure", "adi.new.N12")

    def corrupt(points):
        return [dataclasses.replace(p, l2_rate=p.l2_rate * 1.01) for p in points]

    wl.jobs = [corrupted(job, corrupt)]
    assert error_rate(wl) == 1.0


def test_missing_array_fails_value_check(monkeypatch):
    """An original array with no counterpart in the variant is a failure."""
    wl, _ = _one_job("measure", "swim.noopt.N10")
    real = workloads.codegen_run_program

    def drop_one(*args, **kwargs):
        out = dict(real(*args, **kwargs))
        out.pop(next(iter(out)))
        return out

    monkeypatch.setattr(workloads, "codegen_run_program", drop_one)
    assert error_rate(wl) == 1.0


def test_raising_job_counts_as_failed():
    wl, job = _one_job("reuse", "adi.reuse.N10")

    def boom(rec):
        raise RuntimeError("injected")

    wl.jobs = [dataclasses.replace(job, run=boom)]
    assert error_rate(wl) == 1.0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_layer_self_times_account_for_traced_pass(workload):
    runner, values, rec = run.traced(tiny(workload), seconds=0)
    assert runner.failed == 0
    layers = sum(values[name] for name in run.SELF_TIMES)
    assert layers == pytest.approx(values["bench.traced_pass_s"], rel=0.05)
    assert values["bench.trace_overhead"] > 0
    # the instrumentation is gone once the traced passes end
    from repro.core.pm.manager import PassManager

    assert not hasattr(PassManager.run, "__wrapped__")
    assert not hasattr(PassManager._run_step, "__wrapped__")


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metrics()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_compare_marks_spread_wider_than_bound(tmp_path):
    import compare

    def runs(path, values):
        with open(path, "w") as f:
            for seed, v in enumerate(values):
                metrics = {"pass_s": {"value": v, "unit": "s"}}
                f.write(json.dumps({"workload": "measure", "seed": seed, "trace": 0,
                                    "metrics": metrics}) + "\n")

    spec = {
        "workloads": [{"name": "measure"}],
        "end_to_end": [{"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.1}],
        "per_layer": [],
    }
    runs(tmp_path / "p", [10.0, 10.1, 9.9, 10.0])
    runs(tmp_path / "steady", [10.0, 10.05, 9.95, 10.0])
    runs(tmp_path / "noisy", [7.0, 13.0, 10.0, 8.0])
    runs(tmp_path / "slow", [12.0, 12.1, 11.9, 12.0])
    # medians 15 % apart, but the change wins two of the ten run pairs
    runs(tmp_path / "p_split", [10.0] * 8 + [13.5, 13.5])
    runs(tmp_path / "c_split", [11.5] * 8 + [10.0, 10.0])
    assert compare.table(tmp_path / "p", tmp_path / "steady", spec)[-1].endswith("same")
    assert compare.table(tmp_path / "p", tmp_path / "noisy", spec)[-1].endswith("unresolved")
    assert compare.table(tmp_path / "p", tmp_path / "slow", spec)[-1].endswith("worse")
    assert compare.table(tmp_path / "slow", tmp_path / "p", spec)[-1].endswith("better")
    split = compare.table(tmp_path / "p_split", tmp_path / "c_split", spec)[-1]
    assert split.endswith("unresolved")
