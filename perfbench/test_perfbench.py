"""Tests of the benchmark itself, at tiny sizes so they run in seconds."""

import json
import math
import random
from pathlib import Path

import pytest

import jobs
import run
import tracer

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _scratch_output(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_prints_every_metric_with_unit(workload, trace, capsys):
    result = run.run(workload, seed=3, seconds=0.05, trace=trace, sizes=run.TINY)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    report = capsys.readouterr().out
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in report.splitlines()), m["name"]


def test_planted_wrong_verdict_counts_as_failure(monkeypatch):
    original = jobs.witness_job

    def planted(*args, **kwargs):
        job = original(*args, **kwargs)
        job.expect["verdict"] = {"violated": "satisfied", "satisfied": "violated"}[job.expect["verdict"]]
        return job

    monkeypatch.setattr(jobs, "witness_job", planted)
    result = run.run("interactive-mix", seed=5, seconds=0.05, trace=False, sizes=run.TINY)
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]


def test_traced_self_times_fit_in_wall_time(tmp_path):
    cli = run.load_cli()
    original_main = cli.main
    schedule = run.oracle_check(random.Random(7), tmp_path, run.TINY)
    _, metrics, _, trace = run.traced_run(cli, schedule, [], 0.05, run.TINY)
    assert cli.main is original_main
    own = tracer.self_times(trace.spans)
    per_command = {}
    for span in trace.spans:
        per_command[span.command] = per_command.get(span.command, 0) + own[span.sid]
    roots = {s.command: s.duration_ns for s in trace.spans if s.parent is None}
    for command, total in per_command.items():
        assert 0 < total <= roots[command]
    assert all(t >= 0 for t in own.values())
    shares = sum(v for k, (v, unit) in metrics.items() if k.endswith(".self_share"))
    assert 0.0 < shares <= 1.0
    assert metrics["simplex.lp_calls"][0] == run.TINY.oracle_points


def test_missing_boundary_is_skipped_with_a_note(monkeypatch):
    monkeypatch.setattr(tracer, "KERNELS", {**tracer.KERNELS, "_accel.gone": "simplex",
                                            "_removed.kernel": "simplex"})
    t = tracer.Tracer()
    run.load_cli()
    saved = t.install()
    t.uninstall(saved)
    assert any("_accel.gone" in note for note in t.notes)
    assert any("_removed.kernel" in note for note in t.notes)


def test_tail_is_highest_percentile_with_ten_beyond():
    assert run.tail(range(1, 101)) == (90, 90.0)
    assert run.tail([3, 1, 2]) == (3, 100.0)
