"""Command-line interface: witness evaluation, oracle sweeps, experiment
adjudication, angle/state scans and boundary-curve export."""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import lhs_oracle, violation_search
from .correlation_model import PROBABILITY_TOL, correlation_set_from_json_dict
from .homodyne_experiment import (
    SinglePhotonState,
    adjudicate,
    adjudicate_reported,
    experiment_correlations,
    monte_carlo_correlations,
    standard_settings,
    state_density,
)
from .qubit_core import ellipse_point, validate_density
from .simplex import DEFAULT_LP_TOL, OracleError
from .steering_witness import VERDICT_TOL, full_report, steering_lhs_array


def _read_json(path: str):
    if path == "-":
        return json.load(sys.stdin)
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2, allow_nan=False))


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
        "band": float(lhs_oracle.boundary_band(args.grid)),
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
    if args.reported_s is not None:
        state_flags = [flag for flag, value in (
            ("--theta", args.theta), ("--p1", args.p1),
            ("--eta-alice", args.eta_alice), ("--mc", args.mc)) if value is not None]
        if state_flags:
            raise ValueError(f"--reported-s cannot be combined with "
                             f"{', '.join(state_flags)}")
        report = adjudicate_reported(args.reported_s, args.eta_bob, tol=args.tol)
        payload = report.to_json_dict()
        payload["inputs"] = {"reported_s": args.reported_s, "eta_bob": args.eta_bob}
    else:
        if args.theta is None or args.p1 is None:
            raise ValueError("either --reported-s or both --theta and --p1 are required")
        eta_alice = args.eta_alice if args.eta_alice is not None else args.eta_bob
        state = SinglePhotonState(theta=np.deg2rad(args.theta), p1=args.p1)
        if args.mc is not None:
            mc = monte_carlo_correlations(
                state, standard_settings(eta_alice, args.eta_bob),
                n_samples=args.mc, seed=args.seed)
            correlations = mc.correlations
        else:
            mc = None
            correlations = experiment_correlations(state, eta_alice, args.eta_bob)
        report = adjudicate(correlations, args.eta_bob, tol=args.tol)
        payload = report.to_json_dict()
        payload["correlators"] = correlations.to_json_dict()["correlators"]
        payload["inputs"] = {"theta_deg": args.theta, "p1": args.p1,
                             "eta_alice": eta_alice, "eta_bob": args.eta_bob}
        if mc is not None:
            payload["mc"] = mc.to_json_dict()
            payload["mc"].pop("correlators", None)
    if args.format == "table":
        _render_experiment_table(report)
    else:
        _emit_json(payload)
    return 0


def cmd_scan_angles(args) -> int:
    deltas = 2.0 * np.pi * np.arange(args.resolution) / args.resolution
    values = steering_lhs_array(
        violation_search.angle_correlations_array(deltas, np.zeros_like(deltas)))
    writer = csv.writer(sys.stdout)
    writer.writerow(["delta", "lhs"])
    for delta, value in zip(deltas, values):
        writer.writerow([float(delta), float(value)])
    return 0


def _state_from_json(data) -> np.ndarray:
    if isinstance(data, dict) and "real" in data:
        try:
            real = np.asarray(data["real"], dtype=float)
            imag = np.asarray(data.get("imag", np.zeros_like(real)), dtype=float)
        except (TypeError, ValueError):
            raise ValueError('state "real"/"imag" must be arrays of numbers') from None
        return validate_density(real + 1j * imag)
    if isinstance(data, dict) and "theta_deg" in data:
        try:
            theta_deg, p1 = float(data["theta_deg"]), float(data.get("p1", 1.0))
        except (TypeError, ValueError):
            raise ValueError('state "theta_deg"/"p1" must be numbers') from None
        return state_density(SinglePhotonState(theta=np.deg2rad(theta_deg), p1=p1))
    raise ValueError('state JSON needs "real" (+ optional "imag") or "theta_deg"/"p1"')


def cmd_scan_state(args) -> int:
    rho = _state_from_json(_read_json(args.input))
    _, best, coarse = violation_search.state_scan(rho, bloch_resolution=args.resolution)
    writer = csv.writer(sys.stdout)
    writer.writerow(["theta_deg", "phi_deg", "max_lhs"])
    writer.writerows(np.column_stack([np.rad2deg(coarse[:, :2]), coarse[:, 2]]).tolist())
    # Scripts parse this stderr label.
    print(f"refined best lhs: {best!r}", file=sys.stderr)
    return 0


def cmd_ellipse(args) -> int:
    xis = 2.0 * np.pi * np.arange(args.n) / args.n
    # Every point first: ellipse_point rejects mu, and nothing may print then.
    points = [ellipse_point(args.mu, float(xi)) for xi in xis]
    writer = csv.writer(sys.stdout)
    writer.writerow(["xi", "p_b", "p_bp"])
    for xi, (p, pp) in zip(xis, points):
        writer.writerow([float(xi), float(p), float(pp)])
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


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as a ``ValueError``, so ``main`` prints it as one
    ``error:`` line and exits 1 like every other rejected input."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
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
    weval.add_argument("--tol", type=_finite_float, default=VERDICT_TOL,
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
    experiment.add_argument("--mc", type=_positive_int, default=None,
                            help="Monte Carlo sample count (analytic if omitted)")
    experiment.add_argument("--seed", type=_nonnegative_int, default=0)
    experiment.add_argument("--tol", type=_finite_float, default=VERDICT_TOL)
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
