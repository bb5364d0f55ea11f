"""Fuzz the cheap CLI commands with random, malformed and non-finite values.

Every run must exit 0 or 1 without a traceback; a rejected run prints one
``error:`` line and nothing on stdout; an accepted run prints only finite
numbers; and no run that was given a non-finite value produces a verdict.
"""

import contextlib
import csv
import io
import json
import math
import sys

from hypothesis import given, settings, strategies as st

from chsh_steering.cli import main

FUZZ = settings(max_examples=60, deadline=None)

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def _numbers(lo, hi):
    """Mostly in-range floats, plus out-of-range and non-finite ones."""
    return st.one_of(st.floats(lo, hi), st.floats(-1e300, 1e300), NON_FINITE)


def _flag_text(numbers):
    """A flag value as typed: a number's repr, an int, or junk."""
    return st.one_of(numbers.map(repr), st.integers(-5, 200).map(str),
                     st.sampled_from(["nan", "-inf", "1e999", "abc", "", "0x10"]))


def _counts():
    return st.one_of(st.integers(-5, 200).map(str),
                     st.sampled_from(["nan", "1.5", "abc", ""]))


def _non_finite(value) -> bool:
    try:
        return not math.isfinite(float(value))
    except (TypeError, ValueError):
        return False


def _reject_constant(name):
    raise AssertionError(f"non-finite {name} in output")


def run_cli(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def check_run(code, out, err, *, non_finite_input, output):
    assert code in (0, 1)
    assert "Traceback" not in err
    if non_finite_input:
        assert code == 1
    if code == 1:
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        # A bad flag value is named, not the private parser that refused it.
        assert "invalid _" not in err
        return
    if output == "json":
        json.loads(out, parse_constant=_reject_constant)
    else:
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) > 1
        assert all(math.isfinite(float(x)) for row in rows[1:] for x in row)


def _with_flags(argv, flags):
    for flag, text in flags.items():
        if text is not None:
            argv += [flag, text]
    return argv


@FUZZ
@given(correlators=st.lists(_numbers(-1.0, 1.0), min_size=4, max_size=4),
       marginals=st.none() | st.lists(_numbers(-1.0, 1.0), min_size=4, max_size=4),
       tol=st.none() | _flag_text(_numbers(0.0, 0.1)),
       prob_tol=st.none() | _flag_text(_numbers(0.0, 0.1)))
def test_witness_eval(correlators, marginals, tol, prob_tol):
    data = {"correlators": dict(zip(("AB", "ApB", "ABp", "ApBp"), correlators))}
    if marginals is not None:
        data["marginals"] = dict(zip(("A", "Ap", "B", "Bp"), marginals))
    argv = _with_flags(["witness", "eval", "-"], {"--tol": tol, "--prob-tol": prob_tol})
    values = correlators + (marginals or []) + [tol, prob_tol]
    check_run(*run_cli(argv, json.dumps(data)),
              non_finite_input=any(_non_finite(v) for v in values), output="json")


@FUZZ
@given(reported_s=_flag_text(_numbers(0.0, 3.0)),
       eta_bob=_flag_text(_numbers(0.0, 1.2)),
       tol=st.none() | _flag_text(_numbers(0.0, 0.1)),
       state_flag=st.none() | st.sampled_from([("--theta", "10"), ("--p1", "0.5"),
                                               ("--eta-alice", "0.3"),
                                               ("--mc", "1000")]))
def test_experiment_reported(reported_s, eta_bob, tol, state_flag):
    argv = _with_flags(["experiment"], {"--reported-s": reported_s,
                                        "--eta-bob": eta_bob, "--tol": tol})
    if state_flag is not None:
        argv += state_flag
    code, out, err = run_cli(argv)
    check_run(code, out, err,
              non_finite_input=any(map(_non_finite, (reported_s, eta_bob, tol))),
              output="json")
    # --reported-s adjudicates a reported S, not a state: a state flag is refused.
    if state_flag is not None:
        assert code == 1


@FUZZ
@given(resolution=st.none() | _counts())
def test_scan_angles(resolution):
    argv = _with_flags(["scan", "angles"], {"--resolution": resolution})
    check_run(*run_cli(argv), non_finite_input=_non_finite(resolution), output="csv")


@FUZZ
@given(mu=_flag_text(_numbers(0.0, 1.0)), n=st.none() | _counts())
def test_ellipse(mu, n):
    argv = _with_flags(["ellipse", "--mu", mu], {"--n": n})
    check_run(*run_cli(argv), non_finite_input=_non_finite(mu) or _non_finite(n),
              output="csv")


def _scan_resolutions():
    """Too small, cheap, too large or junk: no example runs a slow scan."""
    return st.one_of(st.integers(-5, 3).map(str), st.integers(4, 12).map(str),
                     st.integers(129, 10 ** 15).map(str),
                     st.sampled_from(["nan", "1.5", "abc", "", "1e3"]))


@FUZZ
@given(theta_deg=_numbers(0.0, 45.0), p1=_numbers(0.0, 1.0),
       resolution=_scan_resolutions())
def test_scan_state(theta_deg, p1, resolution):
    argv = _with_flags(["scan", "state", "--input", "-"], {"--resolution": resolution})
    state = json.dumps({"theta_deg": theta_deg, "p1": p1})
    check_run(*run_cli(argv, state),
              non_finite_input=_non_finite(theta_deg) or _non_finite(p1),
              output="csv")



@FUZZ
@given(value=st.floats(allow_nan=False, allow_infinity=False),
       part=st.sampled_from(["real", "imag"]), i=st.integers(0, 3), j=st.integers(0, 3),
       mirror=st.sampled_from([1.0, -1.0]))
def test_scan_state_matrix(value, part, i, j, mirror):
    # I/4 with one finite value, full range, at (i, j) and mirror * value
    # at (j, i): Hermitian or not, and near the float limit an overflow
    # for any check that subtracts the transpose.
    state = {"real": [[0.25 * (r == c) for c in range(4)] for r in range(4)],
             "imag": [[0.0] * 4 for _ in range(4)]}
    state[part][i][j] = value
    if i != j:
        state[part][j][i] = mirror * value
    argv = ["scan", "state", "--input", "-", "--resolution", "4"]
    check_run(*run_cli(argv, json.dumps(state)), non_finite_input=False, output="csv")
