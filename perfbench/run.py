#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the chsh-steering CLI.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload oracle-check --seed 1 --seconds 30 --trace 0

One closed-loop client calls ``chsh_steering.cli.main(argv)`` in-process on
commands drawn from ``--seed``, one after another, for ``--seconds``, and
checks every output against closed forms (see ``jobs.py``). Set-up, the cost
every CLI user pays, is timed separately as fresh interpreters importing
``chsh_steering.cli``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
setup_s, commands_per_s, command_ms_tail and peak_rss_mb. The lines above it
also print command_ms_p50, the throughput of each workload in its own unit
(oracle_points_per_s, mc_samples_per_s), the tail's percentile and sample
count, the failed ratio and the environment record. The median is printed
but not in the last line: on a host whose speed switches between two states
about 40 % apart, the median of short commands jumps between them from run
to run, while the tail and the throughput move with the mix of states. With ``--trace 1`` each
command runs once plain and once traced (``tracer.py``), the traced output
must be byte-identical, and the last line carries the per-layer metrics plus
``trace.overhead_ratio``. Spans are written to ``perfbench/out/``.

Workloads, and why each exists:

- oracle-check: ``oracle check --grid 2048`` on 500 seeded points per
  command; simplex and lhs_oracle do nearly all the work.
- experiment-mc: ``experiment --mc 1000000`` on a split photon drawn on
  either side of the 2*gamma bound; the Monte Carlo sampler does the work.
- interactive-mix: shuffled decks of small commands, where per-command fixed
  costs (argparse, JSON, atom grid, sampler tables, the scan's coarse grid)
  dominate.

Per-layer metric -> end-to-end metric it should move, on which workload:

- simplex.lp_calls, simplex.lp_ms_p50, simplex.lp_ms_tail, simplex.self_share,
  accel.simplex_pivots_ms -> commands_per_s (oracle points/s), oracle-check;
  no change on experiment-mc.
- lhs_oracle.self_ms_per_point, lhs_oracle.band_hits -> commands_per_s,
  oracle-check.
- lhs_oracle.atom_matrix_ms, lhs_oracle.atom_matrix_calls -> command_ms_p50,
  interactive-mix; no change on oracle-check.
- homodyne_experiment.mc_ns_per_sample, accel.mc_products_ms ->
  commands_per_s (MC samples/s), experiment-mc.
- homodyne_experiment.mc_call_ms -> command_ms_p50, interactive-mix.
- homodyne_experiment.max_pull -> accuracy checked by ``failed``,
  experiment-mc.
- violation_search.state_scan_ms -> command_ms_tail and peak_rss_mb,
  interactive-mix.
- cli.self_ms, cli.stdout_kib -> commands_per_s on interactive-mix, and on
  oracle-check through the verdict-list JSON.
- correlation_model.parse_us, steering_witness.full_report_us,
  homodyne_experiment.analytic_us, qubit_core.ellipse_point_us ->
  command_ms_p50, interactive-mix.

The ``accel.*`` metrics time the ``_accel`` kernels while that module exists
and read 0 with a note once it is gone. Metric names start with a letter, so
the module's leading underscore is dropped there.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import jobs
from tracer import Tracer, entry_spans, layer_self_ns, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


@dataclass(frozen=True)
class Sizes:
    """Command sizes and loop limits; ``TINY`` exists for the smoke tests."""

    oracle_points: int = 500
    experiment_mc: int = 1_000_000
    mix_mc: int = 10_000
    mix_oracle_points: int = 20
    min_commands: int = 11  # the tail needs 11 samples; stdout of these is hashed
    min_traced: int = 3
    setup_repeats: int = 5


FULL = Sizes()
TINY = Sizes(oracle_points=30, experiment_mc=20_000, mix_mc=2_000, mix_oracle_points=8,
             min_commands=2, min_traced=1, setup_repeats=1)


class SetupError(RuntimeError):
    """The checkout holds no runnable program."""


# ---------------------------------------------------------------------------
# Workloads: infinite seeded command streams plus a short warm-up
# ---------------------------------------------------------------------------

def _shuffled_cycle(rng, values):
    while True:
        order = list(values)
        rng.shuffle(order)
        yield from order


def oracle_check(rng, directory, sizes):
    while True:
        yield jobs.oracle_job(rng, sizes.oracle_points)


def experiment_mc(rng, directory, sizes):
    while True:
        yield jobs.experiment_job(rng, sizes.experiment_mc)


def interactive_mix(rng, directory, sizes):
    """Decks of 22 commands in seeded order. Scan resolutions cycle through
    24..40 so every run sees the same mix of scan sizes; with these weights
    no command class takes more than about half of the time."""
    resolutions = _shuffled_cycle(rng, range(24, 41))
    index = 0
    while True:
        deck = [lambda i, f=f, j=j: jobs.witness_job(rng, directory, i, f, j)
                for f in ("json", "table") for j in (False, True)]
        deck += [lambda i: jobs.reported_job(rng)] * 2
        deck += [lambda i: jobs.experiment_job(rng, None)] * 2
        deck += [lambda i: jobs.experiment_job(rng, sizes.mix_mc)] * 5
        deck += [lambda i: jobs.oracle_job(rng, sizes.mix_oracle_points)] * 4
        deck += [lambda i: jobs.scan_state_job(rng, directory, i, next(resolutions))]
        deck += [lambda i: jobs.scan_angles_job(rng)] * 2
        deck += [lambda i: jobs.ellipse_job(rng)] * 2
        rng.shuffle(deck)
        for make in deck:
            index += 1
            yield make(index)


def _warm_oracle(rng, directory, sizes):
    return [jobs.oracle_job(rng, sizes.mix_oracle_points)]


def _warm_mc(rng, directory, sizes):
    return [jobs.experiment_job(rng, sizes.mix_mc)]


def _warm_mix(rng, directory, sizes):
    stream = interactive_mix(rng, directory, sizes)
    return [next(stream) for _ in range(22)]


WORKLOADS = {
    "oracle-check": (oracle_check, _warm_oracle),
    "experiment-mc": (experiment_mc, _warm_mc),
    "interactive-mix": (interactive_mix, _warm_mix),
}


# ---------------------------------------------------------------------------
# Running commands
# ---------------------------------------------------------------------------

def execute(cli, job: jobs.Job) -> jobs.Outcome:
    """Run one command in-process, capture its output and check it.

    ``cli.main`` is looked up at call time so an installed tracer sees it.
    """
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(job.argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback is a failed command, not a crash
        rc = None
        err.write(traceback.format_exc())
    wall = time.perf_counter() - start
    text = out.getvalue()
    outcome = jobs.Outcome(job, wall, rc, text, err.getvalue(), len(text.encode()))
    jobs.check(outcome)
    return outcome


def tail(values):
    """(value, percentile): the highest percentile with at least ten samples
    beyond it, or the maximum when there are ten samples or fewer."""
    xs = sorted(values)
    if len(xs) <= 10:
        return xs[-1], 100.0
    i = len(xs) - 11
    return xs[i], 100.0 * (i + 1) / len(xs)


def measure_setup(repeats: int) -> float:
    """Median wall time of a fresh interpreter importing the CLI module."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-c", "import chsh_steering.cli"]
    subprocess.run(argv, env=env, check=True, timeout=120, capture_output=True)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(argv, env=env, check=True, timeout=120, capture_output=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def load_cli():
    """Import the CLI from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "chsh_steering" / "cli.py").is_file():
        raise SetupError(f"no chsh_steering sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("chsh_steering.cli")
    if SRC not in Path(cli.__file__).resolve().parents:
        raise SetupError(f"chsh_steering.cli imported from {cli.__file__}, not {SRC}")
    return cli


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.is_file():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return None
        return ref
    except OSError:
        return None


def environment() -> dict:
    cpu_model, caches = platform.processor() or None, []
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
            caches.append(f"L{level} {kind} {size}")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "git_sha": _git_sha(),
    }


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------

def _report_failures(outcomes):
    failed = [o for o in outcomes if o.failed]
    for o in failed[:5]:
        print(f"FAILED {' '.join(o.job.argv)}: {'; '.join(o.problems)}", file=sys.stderr)
    return len(failed)


def untraced_run(cli, schedule, warmup, seconds, sizes):
    outcomes = [execute(cli, job) for job in warmup]
    timed, first_of_kind = [], {}
    digest = hashlib.sha256()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(timed) < sizes.min_commands:
        out = execute(cli, next(schedule))
        if len(timed) < sizes.min_commands:
            digest.update(out.stdout.encode())
        first_of_kind.setdefault(out.job.kind, out)
        if out is not first_of_kind[out.job.kind]:
            out.stdout = ""
        timed.append(out)
    # Seeded commands must print the same bytes when run again.
    for first in first_of_kind.values():
        again = execute(cli, first.job)
        if again.stdout != first.stdout:
            again.problems.append("stdout differs on a rerun with the same seed")
        outcomes.append(again)
    outcomes += timed

    walls = [o.wall_s for o in timed]
    value, pct = tail([w * 1e3 for w in walls])
    metrics = {
        "commands_per_s": (len(timed) / sum(walls), "1/s"),
        "command_ms_tail": (value, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {"command_ms_p50": (statistics.median(walls) * 1e3, "ms"),
             "command_ms_tail_percentile": pct, "timed_commands": len(timed),
             "hashed_commands": sizes.min_commands,
             "stdout_sha256": digest.hexdigest()}
    for name, attr, unit in (("oracle_points_per_s", "points", "points/s"),
                             ("mc_samples_per_s", "samples", "samples/s")):
        rates = [getattr(o.job, attr) / o.wall_s for o in timed if getattr(o.job, attr)]
        if rates:
            extra[name] = (statistics.median(rates), unit)
    by_kind = defaultdict(float)
    for o in timed:
        by_kind[o.job.kind] += o.wall_s
    extra["time_share"] = {k: v / sum(walls) for k, v in sorted(by_kind.items())}
    return outcomes, metrics, extra, None


def traced_run(cli, schedule, warmup, seconds, sizes):
    """Each command runs plain, then traced; returns per-layer metrics."""
    outcomes = [execute(cli, job) for job in warmup]
    tracer, plain, traced = Tracer(), [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(traced) < sizes.min_traced:
        job = next(schedule)
        first = execute(cli, job)
        tracer.command = len(traced)
        saved = tracer.install()
        try:
            second = execute(cli, job)
        finally:
            tracer.uninstall(saved)
        if second.stdout != first.stdout:
            second.problems.append("traced stdout differs from the plain run")
        first.stdout = second.stdout = ""
        plain.append(first)
        traced.append(second)
    outcomes += plain + traced
    return outcomes, layer_metrics(tracer, plain, traced), {"spans": len(tracer.spans)}, tracer


def layer_metrics(tracer, plain, traced):
    spans = tracer.spans
    n = len(traced)
    wall_ns = sum(o.wall_s for o in traced) * 1e9
    durations = defaultdict(list)
    for s in spans:
        durations[s.name].append(s.duration_ns)

    def p50(name, scale):
        xs = durations.get(name)
        return statistics.median(xs) * scale if xs else 0.0

    own = self_times(spans)
    cli_per_command = defaultdict(int)
    for s in spans:
        if s.layer == "cli":
            cli_per_command[s.command] += own[s.sid]
    layer_self = layer_self_ns(spans)
    lp = [s.duration_ns for s in entry_spans(spans, "simplex")]
    points, samples = tracer.counters["points"], tracer.counters["samples"]
    mc = "homodyne_experiment.monte_carlo_correlations"
    metrics = {
        "simplex.lp_calls": (len(lp) / n, "count/cmd"),
        "simplex.lp_ms_p50": (statistics.median(lp) * 1e-6 if lp else 0.0, "ms"),
        "simplex.lp_ms_tail": (tail(lp)[0] * 1e-6 if lp else 0.0, "ms"),
        "accel.simplex_pivots_ms": (p50("_accel.simplex_pivots", 1e-6), "ms"),
        "lhs_oracle.self_ms_per_point": (layer_self["lhs_oracle"] * 1e-6 / points if points else 0.0, "ms"),
        "lhs_oracle.band_hits": (tracer.counters["band_hits"], "count"),
        "lhs_oracle.atom_matrix_ms": (p50("lhs_oracle.atom_matrix", 1e-6), "ms"),
        "lhs_oracle.atom_matrix_calls": (len(durations["lhs_oracle.atom_matrix"]) / n, "count/cmd"),
        "homodyne_experiment.mc_ns_per_sample": (sum(durations[mc]) / samples if samples else 0.0, "ns"),
        "accel.mc_products_ms": (p50("_accel.mc_products", 1e-6), "ms"),
        "homodyne_experiment.mc_call_ms": (p50(mc, 1e-6), "ms"),
        "homodyne_experiment.max_pull": (max(o.pull for o in plain + traced), "sigma"),
        "violation_search.state_scan_ms": (p50("violation_search.state_scan", 1e-6), "ms"),
        "cli.self_ms": (statistics.median(cli_per_command.values()) * 1e-6 if cli_per_command else 0.0, "ms"),
        "cli.stdout_kib": (sum(o.stdout_bytes for o in traced) / n / 1024.0, "KiB"),
        "correlation_model.parse_us": (p50("correlation_model.correlation_set_from_json_dict", 1e-3), "us"),
        "steering_witness.full_report_us": (p50("steering_witness.full_report", 1e-3), "us"),
        "homodyne_experiment.analytic_us": (p50("homodyne_experiment.experiment_correlations", 1e-3), "us"),
        "qubit_core.ellipse_point_us": (p50("qubit_core.ellipse_point", 1e-3), "us"),
    }
    for layer in ("cli", "lhs_oracle", "simplex", "homodyne_experiment", "violation_search"):
        metrics[f"{layer}.self_share"] = (layer_self[layer] / wall_ns, "ratio")
    metrics["trace.overhead_ratio"] = (wall_ns * 1e-9 / sum(o.wall_s for o in plain), "ratio")
    return metrics


def write_spans(path: Path, spans):
    with path.open("w", encoding="utf-8") as handle:
        for s in spans:
            handle.write(json.dumps({"id": s.sid, "parent": s.parent, "command": s.command,
                                     "name": s.name, "layer": s.layer,
                                     "start_ns": s.start_ns, "end_ns": s.end_ns}) + "\n")


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes = FULL) -> dict:
    """One benchmark run; prints the report and returns the result object."""
    cli = load_cli()
    env = environment()
    setup = None if trace else measure_setup(sizes.setup_repeats)
    make_schedule, make_warmup = WORKLOADS[workload]
    OUT.mkdir(exist_ok=True)
    inputs = OUT / f"inputs-{workload}-{seed}-{os.getpid()}"
    (inputs / "warmup").mkdir(parents=True)
    try:
        warmup = make_warmup(random.Random(f"{workload}/{seed}/warmup"), inputs / "warmup", sizes)
        schedule = make_schedule(random.Random(f"{workload}/{seed}"), inputs, sizes)
        kind = traced_run if trace else untraced_run
        outcomes, metrics, extra, tracer = kind(cli, schedule, warmup, seconds, sizes)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    if setup is not None:
        metrics = {"setup_s": (setup, "s"), **metrics}
    failed = _report_failures(outcomes)
    extra["failed_ratio"] = failed / len(outcomes)
    notes = tracer.notes if tracer else []

    print(f"workload {workload}  seed {seed}  seconds {seconds}  trace {int(trace)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    for name, value in extra.items():
        if isinstance(value, tuple):
            print(f"  {name:40s} {value[0]:14.6g} {value[1]}")
        else:
            print(f"  {name:40s} {json.dumps(value)}")
    for note in sorted(set(notes)):
        print(f"  note: {note}")
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "env": env, "extra": extra, "notes": sorted(set(notes)),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print("env " + json.dumps(env))
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if trace:
        write_spans(OUT / f"{stem}-spans.jsonl", tracer.spans)
    return {"correct": failed == 0, "attempted": len(outcomes), "failed": failed,
            "metrics": record["metrics"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (SetupError, ImportError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
