"""Seeded CLI commands for the benchmark, with closed-form expected outputs.

Each generator draws one command from a ``random.Random`` stream, writes any
input file it needs, and attaches the values its output must show. The
expected values come from closed forms written here, never from calling the
package under test:

- witness points are either ``s * (cos a, cos a', sin a, sin a')``, whose
  left-hand side is ``s * (sqrt(2 + 2 cos d) + sqrt(2 - 2 cos d))`` with
  ``d = a - a'``, or e-basis points with known ``f = r1 + r2``;
- the split photon under the standard homodyne settings has correlators
  ``-p1 sin(4 theta) gamma_A gamma_B / sqrt(2) * (1, -1, 1, 1)`` with
  ``gamma = sqrt(2 eta / pi)``;
- scan and ellipse rows satisfy their own curve equations.

Every drawn verdict sits at least a margin away from its bound. Where no
closed form exists the checker uses a second path instead: oracle verdicts
are compared with ``f`` recomputed here from the regenerated points, and the
refined state-scan value must lie between the CSV maximum and ``2 sqrt 2``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TOL = 1e-9
MC_SIGMAS = 6.0
WITNESS_MARGIN = 0.05      # |lhs - 2| for witness points
REPORTED_MARGIN = 0.05     # |S - 2 gamma| for reported S values
EXPERIMENT_MARGIN = 0.02   # relative distance of lhs from 2 gamma
ORACLE_GRID = 2048
QUANTUM_MAX = 2.0 * math.sqrt(2.0)
ETA_RANGE = (0.5, 1.0)


@dataclass
class Job:
    """One CLI command: its class, argv, expected values and work carried."""

    kind: str
    argv: list[str]
    expect: dict
    points: int = 0
    samples: int = 0


@dataclass
class Outcome:
    """What one execution of a job returned and whether it checked out."""

    job: Job
    wall_s: float
    rc: int | None
    stdout: str
    stderr: str
    stdout_bytes: int = 0
    problems: list[str] = field(default_factory=list)
    pull: float = 0.0

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def gamma(eta: float) -> float:
    return math.sqrt(2.0 * eta / math.pi)


def steering_lhs(c) -> float:
    return (math.hypot(c[0] + c[1], c[2] + c[3])
            + math.hypot(c[0] - c[1], c[2] - c[3]))


def chsh_max(c) -> float:
    total = sum(c)
    return max(abs(total - 2.0 * x) for x in c)


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_json(directory: Path, name: str, obj) -> str:
    path = directory / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def _angle_point(rng, violated: bool):
    while True:
        a, ap = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi)
        cos_d = math.cos(a - ap)
        full = math.sqrt(2.0 + 2.0 * cos_d) + math.sqrt(2.0 - 2.0 * cos_d)
        if violated:
            if full < 2.0 + 2.0 * WITNESS_MARGIN:
                continue
            lhs = rng.uniform(2.0 + WITNESS_MARGIN, full)
        else:
            lhs = rng.uniform(0.4, 2.0 - WITNESS_MARGIN)
        s = lhs / full
        return [s * math.cos(a), s * math.cos(ap), s * math.sin(a), s * math.sin(ap)], lhs


def _e_basis_point(rng, violated: bool):
    while True:
        if violated:
            f = rng.uniform(1.0 + WITNESS_MARGIN / 2.0, 1.4)
        else:
            f = rng.uniform(0.2, 1.0 - WITNESS_MARGIN / 2.0)
        t = rng.random()
        r1, r2 = f * t, f * (1.0 - t)
        p1, p2 = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi)
        v = (r1 * math.cos(p1), r1 * math.sin(p1), r2 * math.cos(p2), r2 * math.sin(p2))
        c = [v[0] + v[2], v[0] - v[2], v[1] + v[3], v[1] - v[3]]
        if max(abs(x) for x in c) <= 1.0:
            return c, 2.0 * f


def _joint_matrix(rng, c):
    """4x4 joint probabilities with correlators ``c`` and random marginals."""
    half = (1.0 - max(abs(x) for x in c)) / 2.0
    alice = [rng.uniform(-half, half) for _ in range(2)]
    bob = [rng.uniform(-half, half) for _ in range(2)]
    corr = {(0, 0): c[0], (1, 0): c[1], (0, 1): c[2], (1, 1): c[3]}
    m = [[0.0] * 4 for _ in range(4)]
    for ib in range(2):
        for bo, bs in enumerate((1.0, -1.0)):
            for ia in range(2):
                for ao, as_ in enumerate((1.0, -1.0)):
                    m[2 * ib + bo][2 * ia + ao] = 0.25 * (
                        1.0 + as_ * alice[ia] + bs * bob[ib]
                        + as_ * bs * corr[(ia, ib)])
    return m


def witness_job(rng, directory: Path, index: int, fmt: str, joint: bool) -> Job:
    violated = rng.random() < 0.5
    point = _angle_point if rng.random() < 0.5 else _e_basis_point
    c, lhs = point(rng, violated)
    if joint:
        data = {"joint": _joint_matrix(rng, c)}
    else:
        data = {"correlators": dict(zip(("AB", "ApB", "ABp", "ApBp"), c))}
    path = _write_json(directory, f"witness-{index}.json", data)
    return Job("witness", ["witness", "eval", path, "--format", fmt], {
        "format": fmt,
        "lhs": lhs,
        "f": lhs / 2.0,
        "chsh_max": chsh_max(c),
        "verdict": "violated" if violated else "satisfied",
    })


def reported_job(rng) -> Job:
    eta = rng.uniform(*ETA_RANGE)
    bound = 2.0 * gamma(eta)
    steering = rng.random() < 0.5
    if steering:
        s = rng.uniform(bound + REPORTED_MARGIN, QUANTUM_MAX)
    else:
        s = rng.uniform(0.0, bound - REPORTED_MARGIN)
    return Job("reported", ["experiment", "--reported-s", _fmt(s), "--eta-bob", _fmt(eta)], {
        "gamma": gamma(eta),
        "bound": bound,
        "verdict": "steering" if steering else "no_steering",
    })


def _photon_parameters(rng, steering: bool):
    """Split-photon parameters whose lhs / (2 gamma_B) ratio lies on one side
    of 1 by at least EXPERIMENT_MARGIN; eta_alice is None when it defaults."""
    while True:
        if steering:
            theta = rng.uniform(17.0, 28.0)
            p1 = rng.uniform(0.93, 1.0)
            eta_a = rng.uniform(0.88, 1.0)
            eta_b = rng.uniform(*ETA_RANGE)
            own_alice = True
        else:
            theta = rng.uniform(5.0, 40.0)
            p1 = rng.uniform(0.5, 1.0)
            eta_b = rng.uniform(*ETA_RANGE)
            own_alice = rng.random() < 0.5
            eta_a = rng.uniform(*ETA_RANGE) if own_alice else eta_b
        ratio = math.sqrt(2.0) * p1 * abs(math.sin(4.0 * math.radians(theta))) * gamma(eta_a)
        if (ratio >= 1.0 + EXPERIMENT_MARGIN) if steering else (ratio <= 1.0 - EXPERIMENT_MARGIN):
            return theta, p1, (eta_a if own_alice else None), eta_b


def experiment_job(rng, mc: int | None) -> Job:
    """Analytic (``mc=None``) or Monte Carlo split-photon experiment."""
    steering = rng.random() < 0.5
    theta, p1, eta_a, eta_b = _photon_parameters(rng, steering)
    ga, gb = gamma(eta_b if eta_a is None else eta_a), gamma(eta_b)
    k = -p1 * math.sin(4.0 * math.radians(theta)) * ga * gb / math.sqrt(2.0)
    corr = [k, -k, k, k]
    argv = ["experiment", "--theta", _fmt(theta), "--p1", _fmt(p1), "--eta-bob", _fmt(eta_b)]
    if eta_a is not None:
        argv += ["--eta-alice", _fmt(eta_a)]
    expect = {"correlators": corr, "gamma": gb, "bound": 2.0 * gb,
              "verdict": "steering" if steering else "no_steering"}
    if mc is None:
        return Job("analytic", argv, expect)
    seed = rng.randrange(2 ** 31)
    argv += ["--mc", str(mc), "--seed", str(seed)]
    # Standard error of the lhs is at most twice the norm of the correlator
    # errors; below six of those the Monte Carlo verdict is not decisive.
    sigma = 2.0 * math.sqrt(sum((1.0 - x * x) / mc for x in corr))
    if abs(steering_lhs(corr) - 2.0 * gb) < 6.0 * sigma:
        expect["verdict"] = None
    expect.update(mc=mc, seed=seed)
    return Job("mc", argv, expect, samples=4 * mc)


def oracle_job(rng, samples: int) -> Job:
    seed = rng.randrange(2 ** 31)
    argv = ["oracle", "check", "--grid", str(ORACLE_GRID), "--samples", str(samples),
            "--seed", str(seed)]
    return Job("oracle", argv, {"seed": seed, "samples": samples, "grid": ORACLE_GRID},
               points=samples)


def scan_state_job(rng, directory: Path, index: int, resolution: int) -> Job:
    if rng.random() < 0.5:
        data = {"theta_deg": rng.uniform(0.0, 45.0), "p1": rng.uniform(0.3, 1.0)}
    else:
        psi = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)])
        psi /= np.linalg.norm(psi)
        purity = rng.uniform(0.3, 1.0)
        rho = purity * np.outer(psi, psi.conj()) + (1.0 - purity) * np.eye(4) / 4.0
        data = {"real": rho.real.tolist(), "imag": rho.imag.tolist()}
    path = _write_json(directory, f"state-{index}.json", data)
    return Job("scan-state", ["scan", "state", "--input", path, "--resolution", str(resolution)],
               {"resolution": resolution})


def scan_angles_job(rng) -> Job:
    resolution = rng.randrange(64, 721)
    return Job("scan-angles", ["scan", "angles", "--resolution", str(resolution)],
               {"resolution": resolution})


def ellipse_job(rng) -> Job:
    mu, n = rng.uniform(0.05, 0.95), rng.randrange(64, 513)
    return Job("ellipse", ["ellipse", "--mu", _fmt(mu), "--n", str(n)], {"mu": mu, "n": n})


# ---------------------------------------------------------------------------
# Checkers: each appends what is wrong with one output to ``problems``
# ---------------------------------------------------------------------------

def _close(problems, what, got, want, tol=TOL):
    if not (isinstance(got, (int, float)) and abs(got - want) <= tol):
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def _csv_rows(text, header):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        raise ValueError(f"CSV header {rows[:1]!r}, expected {header!r}")
    return [[float(x) for x in row] for row in rows[1:]]


def check_witness(out: Outcome, problems):
    e = out.job.expect
    if e["format"] == "json":
        report = json.loads(out.stdout)
        f, lhs = report["f_value"], report["steering"]["lhs"]
        verdict, cmax = report["steering"]["verdict"], report["chsh"]["max"]
    else:
        fields = dict(re.findall(r"^\s+(f value|lhs|verdict)\s*: (\S+)$", out.stdout, re.M))
        f, lhs, verdict = float(fields["f value"]), float(fields["lhs"]), fields["verdict"]
        cmax = float(re.search(r"max (\S+)\)", out.stdout).group(1))
    _close(problems, "f_value", f, e["f"])
    _close(problems, "steering lhs", lhs, e["lhs"])
    _close(problems, "chsh max", cmax, e["chsh_max"])
    if verdict != e["verdict"]:
        problems.append(f"verdict {verdict!r}, expected {e['verdict']!r}")


def _check_adjudication(payload, e, problems):
    _close(problems, "gamma", payload["gamma"], e["gamma"])
    _close(problems, "corrected_bound", payload["corrected_bound"], e["bound"])
    if e["verdict"] is not None and payload["verdict"] != e["verdict"]:
        problems.append(f"verdict {payload['verdict']!r}, expected {e['verdict']!r}")


def check_reported(out: Outcome, problems):
    _check_adjudication(json.loads(out.stdout), out.job.expect, problems)


def check_experiment(out: Outcome, problems):
    e = out.job.expect
    payload = json.loads(out.stdout)
    _check_adjudication(payload, e, problems)
    got = [payload["correlators"][k] for k in ("AB", "ApB", "ABp", "ApBp")]
    _close(problems, "steering_lhs", payload["steering_lhs"], steering_lhs(got))
    own = "steering" if payload["steering_lhs"] > payload["corrected_bound"] + TOL else "no_steering"
    if payload["verdict"] != own:
        problems.append(f"verdict {payload['verdict']!r} contradicts lhs and bound")
    if out.job.kind == "analytic":
        for name, g, w in zip(("AB", "ApB", "ABp", "ApBp"), got, e["correlators"]):
            _close(problems, f"correlator {name}", g, w)
        return
    mc = payload["mc"]
    if mc["n_samples"] != e["mc"] or mc["seed"] != e["seed"]:
        problems.append(f"mc echo {mc['n_samples']}/{mc['seed']}, expected {e['mc']}/{e['seed']}")
    errors = [mc["std_errors"][k] for k in ("AB", "ApB", "ABp", "ApBp")]
    pulls = [abs(g - w) / s if s > 0 else math.inf
             for g, w, s in zip(got, e["correlators"], errors)]
    out.pull = max(pulls)
    if out.pull > MC_SIGMAS:
        problems.append(f"Monte Carlo correlator {out.pull:.2f} sigma from the closed form")


def oracle_points(seed: int, samples: int) -> np.ndarray:
    """The points ``oracle check --seed`` documents it draws."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    return rng.uniform(-1.0, 1.0, size=(samples, 4))


def check_oracle(out: Outcome, problems):
    e = out.job.expect
    report = json.loads(out.stdout)
    c = oracle_points(e["seed"], e["samples"])
    f = (np.hypot(c[:, 0] + c[:, 1], c[:, 2] + c[:, 3])
         + np.hypot(c[:, 0] - c[:, 1], c[:, 2] - c[:, 3])) / 2.0
    band = 1.0 - math.cos(math.pi / e["grid"])
    _close(problems, "band", report["band"], band, 1e-15)
    if report["disagreements"] != 0:
        problems.append(f"{report['disagreements']} oracle disagreements")
    verdicts = report["verdicts"]
    if len(verdicts) != e["samples"] or len(report["f_values"]) != e["samples"]:
        problems.append(f"{len(verdicts)} verdicts for {e['samples']} points")
        return
    if np.abs(np.asarray(report["f_values"]) - f).max() > 1e-12:
        problems.append("reported f values differ from the regenerated points")
    outside = np.abs(f - 1.0) > band + 1e-12
    expected = np.where(f <= 1.0, "member", "non_member")
    wrong = [i for i in np.nonzero(outside)[0] if verdicts[i] != expected[i]]
    if wrong:
        i = wrong[0]
        problems.append(f"{len(wrong)} verdicts outside the band disagree with f, "
                        f"first point {i}: {verdicts[i]!r} at f={f[i]!r}")


def check_scan_state(out: Outcome, problems):
    res = out.job.expect["resolution"]
    rows = _csv_rows(out.stdout, ["theta_deg", "phi_deg", "max_lhs"])
    if len(rows) != res * res:
        problems.append(f"{len(rows)} rows, expected {res * res}")
    best = max(row[2] for row in rows)
    refined = float(re.search(r"refined best lhs: (\S+)", out.stderr).group(1))
    if best > QUANTUM_MAX + TOL:
        problems.append(f"CSV maximum {best!r} exceeds 2 sqrt 2")
    if not best - 1e-12 <= refined <= QUANTUM_MAX + TOL:
        problems.append(f"refined {refined!r} outside [CSV max {best!r}, 2 sqrt 2]")


def check_scan_angles(out: Outcome, problems):
    res = out.job.expect["resolution"]
    rows = _csv_rows(out.stdout, ["delta", "lhs"])
    if len(rows) != res:
        problems.append(f"{len(rows)} rows, expected {res}")
    for k, (delta, lhs) in enumerate(rows):
        want = math.sqrt(2.0 + 2.0 * math.cos(delta)) + math.sqrt(2.0 - 2.0 * math.cos(delta))
        if abs(delta - 2.0 * math.pi * k / res) > 1e-12 or abs(lhs - want) > TOL:
            problems.append(f"row {k}: ({delta!r}, {lhs!r}), expected lhs {want!r}")
            return


def check_ellipse(out: Outcome, problems):
    mu, n = out.job.expect["mu"], out.job.expect["n"]
    rows = _csv_rows(out.stdout, ["xi", "p_b", "p_bp"])
    if len(rows) != n:
        problems.append(f"{len(rows)} rows, expected {n}")
    for k, (xi, p, pp) in enumerate(rows):
        c, d = p - 0.5, pp - 0.5
        excess = (c + d) ** 2 / mu + (d - c) ** 2 / (1.0 - mu) - 1.0
        if abs(xi - 2.0 * math.pi * k / n) > 1e-12 or abs(excess) > TOL:
            problems.append(f"row {k}: ({xi!r}, {p!r}, {pp!r}) off the boundary by {excess!r}")
            return


CHECKERS = {
    "witness": check_witness,
    "reported": check_reported,
    "analytic": check_experiment,
    "mc": check_experiment,
    "oracle": check_oracle,
    "scan-state": check_scan_state,
    "scan-angles": check_scan_angles,
    "ellipse": check_ellipse,
}


def check(out: Outcome) -> None:
    """Fill ``out.problems``: nonzero exit, exception or wrong output."""
    if out.rc != 0:
        out.problems.append(f"exit code {out.rc}: {out.stderr.strip()[-300:]}")
        return
    try:
        CHECKERS[out.job.kind](out, out.problems)
    except (ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
        out.problems.append(f"unreadable output ({type(exc).__name__}: {exc})")
