"""The steering witness, CHSH facets and two-correlator bounds.

In the rotated basis the local-model region is the convex hull of two unit
disks lying in orthogonal planes, so membership is decided by the single
convex functional

    f(v) = sqrt(v1^2 + v2^2) + sqrt(v3^2 + v4^2) <= 1,

equivalently, in raw correlators,

    sqrt(<(A+A')B>^2 + <(A+A')B'>^2)
        + sqrt(<(A-A')B>^2 + <(A-A')B'>^2) <= 2.

Violation of this bound is both necessary and sufficient for the data to
escape every local model of the trusted-Bob kind, and its left-hand side
dominates all eight CHSH facet values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlation_model import CorrelationSet, EBasisVector, to_e_basis, to_e_basis_array

STEERING_BOUND = 2.0
CHSH_BOUND = 2.0
PAIR_BOUND = 1.0
VERDICT_TOL = 1e-9
# Largest verdict tolerance accepted: it covers correlators rounded to three
# decimals (each off by at most 5e-4), which move a CHSH value by at most
# 2e-3 and the steering left-hand side by at most 4 sqrt(2) 5e-4 = 2.8e-3.
# A larger one could call a clear violation a boundary.
MAX_VERDICT_TOL = 1e-2

SATISFIED = "satisfied"
VIOLATED = "violated"
BOUNDARY = "boundary"

# The 8 CHSH facets: one correlator negated (index k in the order
# <AB>, <A'B>, <AB'>, <A'B'>) times a global sign. Row 2k is the + sign,
# row 2k+1 the - sign; the textbook form (negated <A'B'>) is index 6.
CHSH_SIGNS = np.array([
    [-1.0, 1.0, 1.0, 1.0], [1.0, -1.0, -1.0, -1.0],
    [1.0, -1.0, 1.0, 1.0], [-1.0, 1.0, -1.0, -1.0],
    [1.0, 1.0, -1.0, 1.0], [-1.0, -1.0, 1.0, -1.0],
    [1.0, 1.0, 1.0, -1.0], [-1.0, -1.0, -1.0, 1.0],
])
CANONICAL_CHSH_INDEX = 6

# The four two-correlator quadratic sums, bounded by 1 for local models:
# indices into the correlator vector for each pair.
PAIR_INDICES = ((0, 3), (1, 2), (0, 2), (1, 3))


def f_value(v: EBasisVector) -> float:
    """Convex membership functional in the rotated basis."""
    return f_value_array(v.as_array()).item()


def f_value_array(v: np.ndarray) -> np.ndarray:
    """Vectorised ``f_value`` over (..., 4) arrays."""
    v = np.asarray(v, dtype=float)
    return np.hypot(v[..., 0], v[..., 1]) + np.hypot(v[..., 2], v[..., 3])


def steering_inequality(c: CorrelationSet):
    """Left-hand side and bound of the steering inequality."""
    return steering_lhs_array(c.as_array()).item(), STEERING_BOUND


def steering_lhs_array(c: np.ndarray) -> np.ndarray:
    """Vectorised steering left-hand side; twice ``f_value`` in the rotated
    basis."""
    return 2.0 * f_value_array(to_e_basis_array(c))


def chsh_values(c: CorrelationSet) -> tuple[float, ...]:
    """All eight CHSH facet values, in the documented index order."""
    return tuple(float(x) for x in chsh_values_array(c.as_array()))


def chsh_values_array(c: np.ndarray) -> np.ndarray:
    """Vectorised CHSH facet values; output shape (..., 8)."""
    c = np.asarray(c, dtype=float)
    return c @ CHSH_SIGNS.T


def pair_inequalities(c: CorrelationSet) -> tuple[float, ...]:
    """The four quadratic two-correlator sums, each bounded by 1."""
    return tuple(float(x) for x in pair_values_array(c.as_array()))


def pair_values_array(c: np.ndarray) -> np.ndarray:
    c = np.asarray(c, dtype=float)
    sq = c * c
    return np.stack([sq[..., i] + sq[..., j] for i, j in PAIR_INDICES], axis=-1)


def verdict(value: float, bound: float, tol: float = VERDICT_TOL) -> str:
    """Classify an inequality value against its bound with a tie band of
    half-width ``tol``, which must lie in [0, ``MAX_VERDICT_TOL``]."""
    if not (math.isfinite(value) and math.isfinite(bound)
            and 0.0 <= tol <= MAX_VERDICT_TOL):
        raise ValueError(f"verdict needs a finite value and bound and a tolerance "
                         f"in [0, {MAX_VERDICT_TOL:g}], got value={value}, "
                         f"bound={bound}, tol={tol}")
    if value > bound + tol:
        return VIOLATED
    if value >= bound - tol:
        return BOUNDARY
    return SATISFIED


@dataclass(frozen=True)
class WitnessReport:
    """Full evaluation of the witness and auxiliary inequalities."""

    f_value: float
    steering_lhs: float
    steering_bound: float
    steering_slack: float
    steering_verdict: str
    chsh_values: tuple[float, ...]
    chsh_slacks: tuple[float, ...]
    chsh_verdicts: tuple[str, ...]
    pair_values: tuple[float, ...]
    pair_slacks: tuple[float, ...]
    pair_verdicts: tuple[str, ...]
    tolerance: float

    @property
    def chsh_max(self) -> float:
        return max(self.chsh_values)

    def to_json_dict(self) -> dict:
        return {
            "f_value": self.f_value,
            "steering": {
                "lhs": self.steering_lhs,
                "bound": self.steering_bound,
                "slack": self.steering_slack,
                "verdict": self.steering_verdict,
            },
            "chsh": {
                "values": list(self.chsh_values),
                "bound": CHSH_BOUND,
                "max": self.chsh_max,
                "slacks": list(self.chsh_slacks),
                "verdicts": list(self.chsh_verdicts),
            },
            "pairs": {
                "values": list(self.pair_values),
                "bound": PAIR_BOUND,
                "slacks": list(self.pair_slacks),
                "verdicts": list(self.pair_verdicts),
            },
            "tolerance": self.tolerance,
        }


def full_report(c: CorrelationSet, tol: float = VERDICT_TOL) -> WitnessReport:
    """Evaluate every inequality for one correlation set."""
    fv = f_value(to_e_basis(c))
    lhs, bound = 2.0 * fv, STEERING_BOUND
    chsh = chsh_values(c)
    pairs = pair_inequalities(c)
    return WitnessReport(
        f_value=fv,
        steering_lhs=lhs,
        steering_bound=bound,
        steering_slack=bound - lhs,
        steering_verdict=verdict(lhs, bound, tol),
        chsh_values=chsh,
        chsh_slacks=tuple(CHSH_BOUND - x for x in chsh),
        chsh_verdicts=tuple(verdict(x, CHSH_BOUND, tol) for x in chsh),
        pair_values=pairs,
        pair_slacks=tuple(PAIR_BOUND - x for x in pairs),
        pair_verdicts=tuple(verdict(x, PAIR_BOUND, tol) for x in pairs),
        tolerance=tol,
    )
