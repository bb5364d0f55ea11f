#!/usr/bin/env python3
"""Run the benchmark on several seeds and summarise each metric's spread.

Usage, from the root of a source checkout:

    python3 perfbench/spread.py --seeds 1-10 [--workload NAME ...] [--trace 0|1]
                                [--write perfbench/baseline.json]

For every metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (upper minus lower
quartile, as a share of the median) next to the metric's bound; the spread
of each metric other than setup_s should stay below a third of its bound.
Each run is a separate process, run one after another. ``--write`` stores
the summary, with the environment record, under the key ``trace0`` or
``trace1`` of the given JSON file and keeps the other key.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=HERE.parent, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}: {done.stderr[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", type=Path, default=None)
    args = parser.parse_args(argv)
    declared = SPEC["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    summary = {}
    for workload in args.workload or [w["name"] for w in SPEC["workloads"]]:
        results = [one_run(workload, seed, args.trace) for seed in args.seeds]
        failed = sum(r["failed"] for r in results)
        print(f"{workload}: {len(results)} runs, {failed} failed of "
              f"{sum(r['attempted'] for r in results)} attempted")
        summary[workload] = {"seeds": args.seeds, "failed": failed, "metrics": {}}
        for m in declared:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            s = summarise(values) if len(values) > 1 else {"median": values[0], "values": values}
            summary[workload]["metrics"][m["name"]] = {"unit": m["unit"], **s}
            bound = bounds[m["name"]]
            flag = ("  over a third of the bound" if bound and m["name"] != "setup_s"
                    and s.get("spread", 0) > bound / 3 else "")
            print(f"  {m['name']:40s} median {s['median']:12.6g} {m['unit']:9s}"
                  + (f" q1 {s['q1']:12.6g} q3 {s['q3']:12.6g} spread {s['spread']:.4f}"
                     if "spread" in s else "")
                  + (f" bound {bound}" if bound else "") + flag)
    if args.write:
        record = json.loads(args.write.read_text()) if args.write.exists() else {}
        record[f"trace{args.trace}"] = {"env": run.environment(), "workloads": summary}
        args.write.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
