"""Command-line interface: witness evaluation, oracle sweeps, experiment
adjudication, angle/state scans and boundary-curve export."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import itertools
import json
import math
import sys

import numpy as np

from . import correlation_model, lhs_oracle, violation_search
from .correlation_model import PROBABILITY_TOL, correlation_set_from_json_dict
from .homodyne_experiment import (
    MAX_MC_SAMPLES,
    SinglePhotonState,
    adjudicate,
    adjudicate_reported,
    experiment_correlations,
    monte_carlo_correlations,
    state_density,
)
from .qubit_core import ellipse_point
from .simplex import DEFAULT_LP_TOL, OracleError
from .steering_witness import MAX_VERDICT_TOL, VERDICT_TOL, full_report, steering_lhs_array


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except RecursionError:
        # The decoder recurses once per nested array or object.
        raise ValueError(f"JSON in {path} is nested too deeply") from None


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2, allow_nan=False))


# Rows that _write_csv formats and writes at once.
_CSV_CHUNK = 256


def _reprs(values) -> list:
    """``repr`` of each float in ``values``, called once per distinct value."""
    text = dict.fromkeys(values)
    for value in text:
        text[value] = repr(value)
    strings = list(map(text.__getitem__, values))
    if 0.0 in text:
        # 0.0 and -0.0 are one key, and whichever came first named it.
        strings = [s if v else repr(v) for v, s in zip(values, strings)]
    return strings


def _write_csv(header, *columns) -> None:
    """Print ``header``, then one row per index of the equal-length
    ``columns``, each entry as a Python float, in the bytes ``csv.writer``
    prints: a float's ``repr`` never needs quoting, and rows end in CRLF.

    The rows stream to stdout in chunks of ``_CSV_CHUNK``, so no list of
    every row is built (``scan angles`` passes iterators of up to 2^20
    values). Within a chunk each column formats each distinct value once:
    ``scan state``'s angle columns repeat ``resolution`` values.
    """
    csv.writer(sys.stdout).writerow(header)
    rows = zip(*(map(float, c) for c in columns))
    while chunk := list(itertools.islice(rows, _CSV_CHUNK)):
        sys.stdout.write("\r\n".join(map(",".join, zip(*map(_reprs, zip(*chunk)))))
                         + "\r\n")


def _render_witness_table(report) -> None:
    print("steering witness")
    print(f"  f value : {report.f_value!r}")
    print(f"  lhs     : {report.steering_lhs!r}")
    print(f"  bound   : {report.steering_bound!r}")
    print(f"  verdict : {report.steering_verdict}")
    print(f"chsh facets (bound 2.0, max {report.chsh_max!r})")
    for idx, (value, v) in enumerate(zip(report.chsh_values, report.chsh_verdicts)):
        print(f"  [{idx}] {value!r} : {v}")
    print("pair bounds (bound 1.0)")
    for idx, (value, v) in enumerate(zip(report.pair_values, report.pair_verdicts)):
        print(f"  [{idx}] {value!r} : {v}")


def cmd_witness_eval(args) -> int:
    data = _read_json(args.input)
    correlations = correlation_set_from_json_dict(data, tol=args.prob_tol)
    report = full_report(correlations, tol=args.tol)
    if args.format == "table":
        _render_witness_table(report)
    else:
        _emit_json(report.to_json_dict())
    return 0


def cmd_oracle_check(args) -> int:
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(args.seed)))
    points = rng.uniform(-1.0, 1.0, size=(args.samples, 4))
    results = lhs_oracle.lp_membership_batch(points, grid_n=args.grid,
                                             tol=args.lp_tol)
    disagreements = 0
    within_band = 0
    verdicts = []
    for res in results:
        verdicts.append(res.verdict)
        if res.verdict == lhs_oracle.BOUNDARY_BAND:
            within_band += 1
        else:
            witness_member = res.f_value <= 1.0
            if witness_member != (res.verdict == lhs_oracle.MEMBER):
                disagreements += 1
    _emit_json({
        "seed": args.seed,
        "grid_n": args.grid,
        "samples": args.samples,
        "lp_tol": args.lp_tol,
        "band": results[0].band,
        "disagreements": disagreements,
        "within_band": within_band,
        "verdicts": verdicts,
        "f_values": [res.f_value for res in results],
    })
    return 0 if disagreements == 0 else 1


def _render_experiment_table(report) -> None:
    print("experiment adjudication")
    print(f"  gamma                : {report.gamma!r}")
    print(f"  Left (steering lhs)  : {report.steering_lhs!r}")
    print(f"  Right (2*gamma bound): {report.corrected_bound!r}")
    print(f"  chsh S               : {report.chsh_s!r}")
    print(f"  verdict              : {report.verdict}")


def cmd_experiment(args) -> int:
    if args.seed is not None and args.mc is None:
        raise ValueError("--seed needs --mc")
    if args.reported_s is not None:
        state_flags = [flag for flag, value in (
            ("--theta", args.theta), ("--p1", args.p1),
            ("--eta-alice", args.eta_alice), ("--mc", args.mc)) if value is not None]
        if state_flags:
            raise ValueError(f"--reported-s cannot be combined with "
                             f"{', '.join(state_flags)}")
        report = adjudicate_reported(args.reported_s, args.eta_bob, tol=args.tol)
        payload = dataclasses.asdict(report)
        payload["inputs"] = {"reported_s": args.reported_s, "eta_bob": args.eta_bob}
    else:
        if args.theta is None or args.p1 is None:
            raise ValueError("either --reported-s or both --theta and --p1 are required")
        eta_alice = args.eta_alice if args.eta_alice is not None else args.eta_bob
        state = SinglePhotonState(theta=np.deg2rad(args.theta), p1=args.p1)
        if args.mc is not None:
            mc = monte_carlo_correlations(state, eta_alice, args.eta_bob,
                                          n_samples=args.mc, seed=args.seed or 0)
            correlations = mc.correlations
        else:
            mc = None
            correlations = experiment_correlations(state, eta_alice, args.eta_bob)
        report = adjudicate(correlations, args.eta_bob, tol=args.tol)
        payload = dataclasses.asdict(report)
        payload["correlators"] = correlations.to_json_dict()["correlators"]
        payload["inputs"] = {"theta_deg": args.theta, "p1": args.p1,
                             "eta_alice": eta_alice, "eta_bob": args.eta_bob}
        if mc is not None:
            names = correlation_model.CORRELATOR_NAMES
            payload["mc"] = {"std_errors": dict(zip(names, mc.std_errors)),
                             "n_samples": mc.n_samples, "seed": mc.seed}
    if args.format == "table":
        _render_experiment_table(report)
    else:
        _emit_json(payload)
    return 0


def cmd_scan_angles(args) -> int:
    deltas = 2.0 * np.pi * np.arange(args.resolution) / args.resolution
    # Blocks of 2^15 angles keep each (N, 4) temporary of the witness near
    # 1 MiB; every value depends on its angle alone, so they keep the bytes.
    values = itertools.chain.from_iterable(
        steering_lhs_array(violation_search.angle_correlations_array(block, 0.0))
        for block in np.split(deltas, range(2 ** 15, deltas.size, 2 ** 15)))
    _write_csv(["delta", "lhs"], deltas, values)
    return 0


def _state_from_json(data) -> np.ndarray:
    if isinstance(data, dict) and "real" in data:
        real = correlation_model.json_number_array(data["real"], 'state "real"')
        imag = correlation_model.json_number_array(data.get("imag", 0.0), 'state "imag"')
        # Broadcasting would read [[...]] + 1j * [[0], [0], ...] as a matrix.
        if imag.ndim and imag.shape != real.shape:
            raise ValueError(f'state "imag" has shape {imag.shape}, "real" {real.shape}')
        return real + 1j * imag
    if isinstance(data, dict) and "theta_deg" in data:
        theta_deg = correlation_model.json_number(data["theta_deg"], 'state "theta_deg"')
        p1 = correlation_model.json_number(data.get("p1", 1.0), 'state "p1"')
        return state_density(SinglePhotonState(theta=np.deg2rad(theta_deg), p1=p1))
    raise ValueError('state JSON needs "real" (+ optional "imag") or "theta_deg"/"p1"')


def cmd_scan_state(args) -> int:
    rho = _state_from_json(_read_json(args.input))
    _, best, coarse = violation_search.state_scan(rho, bloch_resolution=args.resolution)
    _write_csv(["theta_deg", "phi_deg", "max_lhs"],
               *np.rad2deg(coarse[:, :2]).T, coarse[:, 2])
    # Scripts parse this stderr label.
    print(f"refined best lhs: {best!r}", file=sys.stderr)
    return 0


def cmd_ellipse(args) -> int:
    xis = 2.0 * np.pi * np.arange(args.n) / args.n
    _write_csv(["xi", "p_b", "p_bp"], xis, *ellipse_point(args.mu, xis))
    return 0


def _flag_type(convert, accept, what: str):
    """Argument type: ``convert(text)`` when that succeeds and passes
    ``accept``, else a usage error naming the text, e.g. ``not a positive
    integer: '1.5'`` (argparse would name this function instead)."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"not {what}: {text!r}")
        return value
    return parse


# Largest value of a count flag that sizes arrays by itself (--samples of
# oracle check, --resolution of scan angles, --n of ellipse).
MAX_COUNT = 2 ** 20

_finite_float = _flag_type(float, math.isfinite, "a finite number")
_positive_int = _flag_type(int, lambda n: n >= 1, "a positive integer")
_count = _flag_type(int, lambda n: 1 <= n <= MAX_COUNT,
                    f"an integer from 1 to {MAX_COUNT}")
_nonnegative_int = _flag_type(int, lambda n: n >= 0, "a non-negative integer")
_mc_count = _flag_type(int, lambda n: 1 <= n <= MAX_MC_SAMPLES,
                       f"an integer from 1 to {MAX_MC_SAMPLES}")
# As ``verdict`` checks it, but before a Monte Carlo rather than after.
_verdict_tol = _flag_type(float, lambda t: 0.0 <= t <= MAX_VERDICT_TOL,
                          f"a number from 0 to {MAX_VERDICT_TOL:g}")


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as a ``ValueError``, so ``main`` prints it as one
    ``error:`` line and exits 1 like every other rejected input."""

    def error(self, message):
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the process:
    building it costs many times what a parse does."""
    parser = _ArgumentParser(
        prog="chsh-steering",
        description="Decide whether two-setting, two-outcome correlation data "
                    "admits a local model with a trusted quantum side, and "
                    "model the split-single-photon homodyne experiment.")
    sub = parser.add_subparsers(dest="command", required=True)

    witness = sub.add_parser("witness", help="witness evaluation")
    witness_sub = witness.add_subparsers(dest="subcommand", required=True)
    weval = witness_sub.add_parser("eval", help="evaluate a correlation JSON file")
    weval.add_argument("input", help="path to correlation JSON ('-' for stdin)")
    weval.add_argument("--tol", type=_verdict_tol, default=VERDICT_TOL,
                       help="verdict tolerance around each bound")
    weval.add_argument("--prob-tol", type=_finite_float, default=PROBABILITY_TOL,
                       help="probability-constraint tolerance for joint matrices")
    weval.add_argument("--format", choices=("json", "table"), default="json")
    weval.set_defaults(func=cmd_witness_eval)

    oracle = sub.add_parser("oracle", help="LP membership oracle")
    oracle_sub = oracle.add_subparsers(dest="subcommand", required=True)
    ocheck = oracle_sub.add_parser(
        "check", help="compare LP membership against the witness on random points")
    ocheck.add_argument("--grid", type=_positive_int, default=lhs_oracle.DEFAULT_GRID_N)
    ocheck.add_argument("--samples", type=_count, default=10000)
    ocheck.add_argument("--seed", type=_nonnegative_int, default=0)
    ocheck.add_argument("--lp-tol", type=_finite_float, default=DEFAULT_LP_TOL)
    ocheck.set_defaults(func=cmd_oracle_check)

    experiment = sub.add_parser("experiment", help="adjudicate the experiment")
    experiment.add_argument("--reported-s", type=_finite_float, default=None,
                            help="reported CHSH S value (equal-magnitude reduction)")
    experiment.add_argument("--theta", type=_finite_float, default=None,
                            help="splitting angle in degrees")
    experiment.add_argument("--p1", type=_finite_float, default=None,
                            help="single-photon probability")
    experiment.add_argument("--eta-bob", type=_finite_float, required=True)
    experiment.add_argument("--eta-alice", type=_finite_float, default=None)
    experiment.add_argument("--mc", type=_mc_count, default=None,
                            help="Monte Carlo sample count (analytic if omitted)")
    experiment.add_argument("--seed", type=_nonnegative_int, default=None,
                            help="Monte Carlo seed (default 0; needs --mc)")
    experiment.add_argument("--tol", type=_verdict_tol, default=VERDICT_TOL)
    experiment.add_argument("--format", choices=("json", "table"), default="json")
    experiment.set_defaults(func=cmd_experiment)

    scan = sub.add_parser("scan", help="witness maximisation scans")
    scan_sub = scan.add_subparsers(dest="subcommand", required=True)
    sangles = scan_sub.add_parser("angles", help="witness value vs Alice angle difference")
    sangles.add_argument("--resolution", type=_count, default=360)
    sangles.set_defaults(func=cmd_scan_angles)
    sstate = scan_sub.add_parser("state", help="scan Alice directions for a state")
    sstate.add_argument("--input", required=True, help="state JSON file")
    sstate.add_argument("--resolution", type=_positive_int,
                        default=violation_search.DEFAULT_BLOCH_RESOLUTION)
    sstate.set_defaults(func=cmd_scan_state)

    ellipse = sub.add_parser("ellipse", help="allowed-probability boundary curve")
    ellipse.add_argument("--mu", type=_finite_float, required=True)
    ellipse.add_argument("--n", type=_count, default=256)
    ellipse.set_defaults(func=cmd_ellipse)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError, OracleError) as exc:
        # ConstraintError and json.JSONDecodeError are ValueErrors.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
