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


def validate_correlation_matrix(matrix: np.ndarray,
                                tol: float = PROBABILITY_TOL) -> np.ndarray:
    """Check range, normalisation and no-signalling; raise listing failures."""
    if not 0.0 <= tol <= MAX_PROBABILITY_TOL:
        raise ValueError(f"probability tolerance must lie in [0, {MAX_PROBABILITY_TOL}],"
                         f" got {tol}")
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


def matrix_from_extremal(chi: int, bob_probs) -> np.ndarray:
    """Joint matrix of a deterministic Alice strategy and Bob probabilities.

    ``bob_probs`` is the pair (p+1|B, p+1|B'). The result is the outer product
    of Bob's probability vector with Alice's deterministic one.
    """
    if chi not in ALICE_EXTREMALS:
        raise ValueError(f"chi must be one of 1..4, got {chi}")
    pb, pbp = bob_probs
    if not (0.0 <= pb <= 1.0 and 0.0 <= pbp <= 1.0):
        raise ValueError(f"Bob probabilities {bob_probs} outside [0, 1]")
    bob_vec = np.array([pb, 1.0 - pb, pbp, 1.0 - pbp])
    return np.outer(bob_vec, ALICE_EXTREMALS[chi])


def matrix_from_correlations(c: CorrelationSet,
                             marginals: Marginals | None = None) -> np.ndarray:
    """Rebuild the 4x4 joint matrix from correlators and marginals.

    Marginals must be supplied either explicitly or on ``c``; the scenario's
    constraints leave them free, so they are never assumed unbiased.
    """
    marg = marginals if marginals is not None else c.marginals
    if marg is None:
        raise ValueError("marginals are required to reconstruct the joint matrix")
    corr = {(0, 0): c.ab, (1, 0): c.apb, (0, 1): c.abp, (1, 1): c.apbp}
    alice = (marg.a, marg.ap)
    bob = (marg.b, marg.bp)
    m = np.empty((4, 4))
    for ib in range(2):
        for b_out, bsign in enumerate((1.0, -1.0)):
            for ia in range(2):
                for a_out, asign in enumerate((1.0, -1.0)):
                    m[2 * ib + b_out, 2 * ia + a_out] = 0.25 * (
                        1.0 + asign * alice[ia] + bsign * bob[ib]
                        + asign * bsign * corr[(ia, ib)])
    return validate_correlation_matrix(m)


def to_e_basis(c: CorrelationSet) -> EBasisVector:
    """Coefficients of the correlator vector in the rotated basis."""
    return EBasisVector(*to_e_basis_array(c.as_array()).tolist())


def from_e_basis(v: EBasisVector) -> CorrelationSet:
    """Inverse of ``to_e_basis``; exact round trip."""
    return CorrelationSet(*from_e_basis_array(v.as_array()).tolist())


def to_e_basis_array(c: np.ndarray) -> np.ndarray:
    """Vectorised basis change for (..., 4) correlator arrays."""
    c = np.asarray(c, dtype=float)
    out = np.empty_like(c)
    out[..., 0] = 0.5 * (c[..., 0] + c[..., 1])
    out[..., 1] = 0.5 * (c[..., 2] + c[..., 3])
    out[..., 2] = 0.5 * (c[..., 0] - c[..., 1])
    out[..., 3] = 0.5 * (c[..., 2] - c[..., 3])
    return out


def from_e_basis_array(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    out = np.empty_like(v)
    out[..., 0] = v[..., 0] + v[..., 2]
    out[..., 1] = v[..., 0] - v[..., 2]
    out[..., 2] = v[..., 1] + v[..., 3]
    out[..., 3] = v[..., 1] - v[..., 3]
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


def _json_numbers(obj, names, what: str) -> list[float]:
    """The fields ``names`` of the JSON object ``obj``, as floats."""
    if not isinstance(obj, dict):
        raise ConstraintError(f"{what} must be a JSON object, got {obj!r}")
    missing = [k for k in names if k not in obj]
    if missing:
        raise ConstraintError(f"{what} missing fields {missing}")
    values = []
    for k in names:
        try:
            values.append(float(obj[k]))
        except (TypeError, ValueError):
            raise ConstraintError(f"{what} field {k} must be a number, "
                                  f"got {obj[k]!r}") from None
    return values


def correlation_set_from_json_dict(data: dict,
                                   tol: float = PROBABILITY_TOL) -> CorrelationSet:
    """Parse the CLI JSON schema into a ``CorrelationSet``.

    Schema: ``{"correlators": {"AB": x, "ApB": x, "ABp": x, "ApBp": x},
    "marginals": {"A": x, "Ap": x, "B": x, "Bp": x} (optional),
    "joint": 4x4 array (optional)}``. When a joint matrix is present it is
    validated and reduced, and any explicitly given values must agree with it.
    """
    if not isinstance(data, dict):
        raise ConstraintError("correlation input must be a JSON object")
    from_joint = None
    if "joint" in data:
        try:
            joint = np.asarray(data["joint"], dtype=float)
        except (TypeError, ValueError):
            raise ConstraintError("joint must be a 4x4 array of numbers") from None
        from_joint = correlations_from_matrix(joint, tol)
    correlators = data.get("correlators")
    marginals = None
    if data.get("marginals") is not None:
        marginals = Marginals(*_json_numbers(data["marginals"], MARGINAL_NAMES, "marginals"))
    if correlators is None and from_joint is None:
        raise ConstraintError('input needs a "correlators" object or a "joint" matrix')
    if correlators is not None:
        values = _json_numbers(correlators, CORRELATOR_NAMES, "correlators")
        result = CorrelationSet(*values, marginals=marginals)
        if from_joint is not None:
            if np.abs(result.as_array() - from_joint.as_array()).max() > tol:
                raise ConstraintError("correlators disagree with the joint matrix")
            if marginals is not None and np.abs(
                    marginals.as_array() - from_joint.marginals.as_array()).max() > tol:
                raise ConstraintError("marginals disagree with the joint matrix")
        return result
    return from_joint
