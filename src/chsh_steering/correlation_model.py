"""Correlation data for the two-setting, two-outcome scenario.

A full experiment is a 4x4 matrix of joint probabilities P(a,b|A,B); rows
index Bob's (outcome, setting) in the order (+1,B), (-1,B), (+1,B'), (-1,B'),
columns index Alice's analogously. Normalisation and no-signalling reduce the
matrix to 4 correlators plus 4 marginals; the steering test uses only the
correlators, ordered (<AB>, <A'B>, <AB'>, <A'B'>).

The rotated basis

    e1 = (1, 1, 0, 0)   e2 = (0, 0, 1, 1)
    e3 = (1, -1, 0, 0)  e4 = (0, 0, 1, -1)

splits correlator space into two orthogonal planes in which the deterministic
local models trace out unit circles; most of the witness algebra lives there.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass

import numpy as np

PROBABILITY_TOL = 1e-10
# Largest probability tolerance accepted: it covers probabilities rounded to
# three decimals, whose four-entry block sums are off by at most 2e-3. A
# larger one would let the joint-matrix checks pass on data that is not a
# probability table.
MAX_PROBABILITY_TOL = 1e-2
CORRELATOR_RANGE_TOL = 1e-10

CORRELATOR_NAMES = ("AB", "ApB", "ABp", "ApBp")
MARGINAL_NAMES = ("A", "Ap", "B", "Bp")

# Deterministic Alice strategies chi = 1..4 as (p+1|A, p-1|A, p+1|A', p-1|A').
ALICE_EXTREMALS = {
    1: np.array([1.0, 0.0, 1.0, 0.0]),
    2: np.array([1.0, 0.0, 0.0, 1.0]),
    3: np.array([0.0, 1.0, 1.0, 0.0]),
    4: np.array([0.0, 1.0, 0.0, 1.0]),
}

# Signs p+1 - p-1 of Alice's two observables for each strategy.
ALICE_SIGNS = {chi: (float(p[0] - p[1]), float(p[2] - p[3]))
               for chi, p in ALICE_EXTREMALS.items()}


class ConstraintError(ValueError):
    """A probability matrix failed validation; the message lists failures."""


@dataclass(frozen=True)
class Marginals:
    """Single-party expectation values <A>, <A'>, <B>, <B'> in [-1, 1]."""

    a: float
    ap: float
    b: float
    bp: float

    def __post_init__(self):
        for name, value in zip(MARGINAL_NAMES, (self.a, self.ap, self.b, self.bp)):
            if not np.isfinite(value) or abs(value) > 1.0 + CORRELATOR_RANGE_TOL:
                raise ValueError(f"marginal {name}={value} outside [-1, 1]")

    def as_array(self) -> np.ndarray:
        return np.array([self.a, self.ap, self.b, self.bp])


@dataclass(frozen=True)
class CorrelationSet:
    """The four correlators (<AB>, <A'B>, <AB'>, <A'B'>), optional marginals."""

    ab: float
    apb: float
    abp: float
    apbp: float
    marginals: Marginals | None = None

    def __post_init__(self):
        for name, value in zip(CORRELATOR_NAMES, self.as_array()):
            if not np.isfinite(value) or abs(value) > 1.0 + CORRELATOR_RANGE_TOL:
                raise ValueError(f"correlator {name}={value} outside [-1, 1]")

    def as_array(self) -> np.ndarray:
        return np.array([self.ab, self.apb, self.abp, self.apbp])

    def to_json_dict(self) -> dict:
        out = {"correlators": dict(zip(CORRELATOR_NAMES, map(float, self.as_array())))}
        if self.marginals is not None:
            out["marginals"] = dict(zip(MARGINAL_NAMES,
                                        map(float, self.marginals.as_array())))
        return out


@dataclass(frozen=True)
class EBasisVector:
    """Coordinates of a correlator vector in the rotated basis e1..e4."""

    v1: float
    v2: float
    v3: float
    v4: float

    def as_array(self) -> np.ndarray:
        return np.array([self.v1, self.v2, self.v3, self.v4])


def _check_probability_tol(tol: float) -> None:
    if not 0.0 <= tol <= MAX_PROBABILITY_TOL:
        raise ValueError(f"probability tolerance must lie in [0, {MAX_PROBABILITY_TOL}],"
                         f" got {tol}")


def validate_correlation_matrix(matrix: np.ndarray,
                                tol: float = PROBABILITY_TOL) -> np.ndarray:
    """Check range, normalisation and no-signalling; raise listing failures."""
    _check_probability_tol(tol)
    m = np.asarray(matrix, dtype=float)
    if m.shape != (4, 4):
        raise ConstraintError(f"joint probability matrix must be 4x4, got {m.shape}")
    failures = []
    if not np.isfinite(m).all():
        raise ConstraintError("joint probability matrix has non-finite entries")
    if m.min() < -tol or m.max() > 1.0 + tol:
        failures.append(f"entries outside [0, 1]: min={m.min()}, max={m.max()}")
    settings = ("B", "Bp")
    a_settings = ("A", "Ap")
    for ib, bs in enumerate(settings):
        for ia, as_ in enumerate(a_settings):
            block = m[2 * ib:2 * ib + 2, 2 * ia:2 * ia + 2]
            total = block.sum()
            if abs(total - 1.0) > tol:
                failures.append(f"normalisation ({as_},{bs}): sum={float(total)!r}")
    for i in range(4):
        lhs = float(m[i, 0] + m[i, 1])
        rhs = float(m[i, 2] + m[i, 3])
        if abs(lhs - rhs) > tol:
            failures.append(
                f"no-signalling to Bob, row {i}: {lhs!r} != {rhs!r}")
    for j in range(4):
        lhs = float(m[0, j] + m[1, j])
        rhs = float(m[2, j] + m[3, j])
        if abs(lhs - rhs) > tol:
            failures.append(
                f"no-signalling to Alice, column {j}: {lhs!r} != {rhs!r}")
    if failures:
        raise ConstraintError("; ".join(failures))
    return m


def correlations_from_matrix(matrix: np.ndarray,
                             tol: float = PROBABILITY_TOL) -> CorrelationSet:
    """Reduce a validated joint probability matrix to its four correlators."""
    m = validate_correlation_matrix(matrix, tol)
    sign = np.array([1.0, -1.0])
    corr = {}
    for ib in range(2):
        for ia in range(2):
            block = m[2 * ib:2 * ib + 2, 2 * ia:2 * ia + 2]
            corr[(ia, ib)] = float(sign @ block @ sign)
    marg = Marginals(
        a=float(m[0, 0] + m[1, 0] - m[0, 1] - m[1, 1]),
        ap=float(m[0, 2] + m[1, 2] - m[0, 3] - m[1, 3]),
        b=float(m[0, 0] + m[0, 1] - m[1, 0] - m[1, 1]),
        bp=float(m[2, 0] + m[2, 1] - m[3, 0] - m[3, 1]),
    )
    return CorrelationSet(ab=corr[(0, 0)], apb=corr[(1, 0)],
                          abp=corr[(0, 1)], apbp=corr[(1, 1)], marginals=marg)


def to_e_basis(c: CorrelationSet) -> EBasisVector:
    """Coefficients of the correlator vector in the rotated basis."""
    return EBasisVector(*to_e_basis_array(c.as_array()).tolist())


def to_e_basis_array(c: np.ndarray) -> np.ndarray:
    """Vectorised basis change for (..., 4) correlator arrays."""
    c = np.asarray(c, dtype=float)
    out = np.empty_like(c)
    out[..., 0] = 0.5 * (c[..., 0] + c[..., 1])
    out[..., 1] = 0.5 * (c[..., 2] + c[..., 3])
    out[..., 2] = 0.5 * (c[..., 0] - c[..., 1])
    out[..., 3] = 0.5 * (c[..., 2] - c[..., 3])
    return out


def extremal_correlations(chi: int, xi: float) -> CorrelationSet:
    """Correlators of a deterministic Alice strategy and a pure Bob state.

    Bob's two measurements are mutually unbiased and ``xi`` parametrises his
    pure state on the resulting probability circle.
    """
    return CorrelationSet(*extremal_correlations_array(chi, xi).tolist())


def extremal_correlations_array(chi: int, xi: np.ndarray) -> np.ndarray:
    """Vectorised ``extremal_correlations`` returning an (..., 4) array."""
    if chi not in ALICE_SIGNS:
        raise ValueError(f"chi must be one of 1..4, got {chi}")
    sa, sap = ALICE_SIGNS[chi]
    xi = np.asarray(xi, dtype=float)
    cos, sin = np.cos(xi), np.sin(xi)
    return np.stack([sa * cos, sap * cos, sa * sin, sap * sin], axis=-1)


# Characters of a rejected JSON value that an error message shows.
_SHOWN_CHARS = 40


def _shown(value) -> str:
    """``value``'s repr for an error message, at most ``_SHOWN_CHARS`` long:
    a malformed field may be arbitrarily large or deep."""
    text = reprlib.repr(value)
    return text if len(text) <= _SHOWN_CHARS else text[:_SHOWN_CHARS - 3] + "..."


def json_number(value, what: str) -> float:
    """``value`` as a float if it is a JSON number: an int or a float, not a
    bool and not a numeric string; else ``ConstraintError`` naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConstraintError(f"{what} must be a number, got {_shown(value)}")
    try:
        return float(value)
    except OverflowError:
        raise ConstraintError(f"{what} is too large for a float") from None


def json_number_array(value, what: str) -> np.ndarray:
    """``value``, a JSON number or nested arrays of them, as a float array;
    any other entry, a ragged array's rows included, raises
    ``ConstraintError`` naming ``what``, as do arrays nested more than 32
    deep, which NumPy cannot iterate."""
    try:
        entries = np.asarray(value, dtype=object)
        flat = entries.flat
    except RuntimeError:
        raise ConstraintError(f"{what} is nested too deeply") from None
    return np.array([json_number(v, f"{what} entry") for v in flat],
                    dtype=float).reshape(entries.shape)


def _json_numbers(obj, names, what: str) -> list[float]:
    """The fields ``names`` of the JSON object ``obj``, as floats."""
    if not isinstance(obj, dict):
        raise ConstraintError(f"{what} must be a JSON object, got {_shown(obj)}")
    missing = [k for k in names if k not in obj]
    if missing:
        raise ConstraintError(f"{what} missing fields {missing}")
    return [json_number(obj[k], f"{what} field {k}") for k in names]


def correlation_set_from_json_dict(data: dict,
                                   tol: float = PROBABILITY_TOL) -> CorrelationSet:
    """Parse the CLI JSON schema into a ``CorrelationSet``.

    Schema: ``{"correlators": {"AB": x, "ApB": x, "ABp": x, "ApBp": x},
    "marginals": {"A": x, "Ap": x, "B": x, "Bp": x} (optional),
    "joint": 4x4 array (optional)}``. When a joint matrix is present it is
    validated and reduced, and any explicitly given values must agree with it.
    ``tol`` must lie in [0, ``MAX_PROBABILITY_TOL``] even without a joint
    matrix, else ``ValueError``.
    """
    _check_probability_tol(tol)
    if not isinstance(data, dict):
        raise ConstraintError("correlation input must be a JSON object")
    from_joint = None
    if "joint" in data:
        from_joint = correlations_from_matrix(json_number_array(data["joint"], "joint"), tol)
    correlators = data.get("correlators")
    marginals = None
    if data.get("marginals") is not None:
        marginals = Marginals(*_json_numbers(data["marginals"], MARGINAL_NAMES, "marginals"))
    if correlators is None and from_joint is None:
        raise ConstraintError('input needs a "correlators" object or a "joint" matrix')
    result = from_joint
    if correlators is not None:
        values = _json_numbers(correlators, CORRELATOR_NAMES, "correlators")
        result = CorrelationSet(*values, marginals=marginals)
        if from_joint is not None and np.abs(
                result.as_array() - from_joint.as_array()).max() > tol:
            raise ConstraintError("correlators disagree with the joint matrix")
    if from_joint is not None and marginals is not None and np.abs(
            marginals.as_array() - from_joint.marginals.as_array()).max() > tol:
        raise ConstraintError("marginals disagree with the joint matrix")
    return result
