"""Constructive local-model decompositions and an independent LP oracle.

Members of the local-model region (f <= 1) admit an explicit finite mixture
of deterministic-Alice atoms, built in closed form by ``decompose``. As a
cross-check that owes nothing to the witness formula, ``lp_membership`` tests
convex-hull membership directly: it discretises the two extremal circles on a
uniform angle grid and asks a phase-1 simplex whether the target correlators
are a convex combination of grid atoms. The only use of f there is to flag
points within the discretisation band of the boundary, where a grid oracle
cannot be trusted either way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlation_model import (
    CorrelationSet,
    EBasisVector,
    extremal_correlations_array,
)
from .simplex import DEFAULT_LP_TOL, lp_feasibility
from .steering_witness import f_value_array
from . import correlation_model

WEIGHT_SUM_TOL = 1e-12
WEIGHT_NEG_TOL = 1e-14
MEMBER_TOL = 1e-12
DEFAULT_GRID_N = 2048
MAX_GRID_N = 2 ** 20

MEMBER = "member"
NON_MEMBER = "non_member"
BOUNDARY_BAND = "boundary_band"


class NotAMemberError(ValueError):
    """Asked to decompose a point outside the local-model region."""


@dataclass(frozen=True)
class LhsAtom:
    """One extremal strategy: deterministic Alice (chi) and Bob angle xi."""

    chi: int
    xi: float

    def __post_init__(self):
        if self.chi not in (1, 2):
            raise ValueError(f"atom chi must be 1 or 2, got {self.chi}")

    def correlations(self) -> CorrelationSet:
        return correlation_model.extremal_correlations(self.chi, self.xi)


@dataclass(frozen=True)
class LhsModel:
    """Finite weighted mixture of extremal atoms; weights sum to one."""

    atoms: tuple[tuple[LhsAtom, float], ...]

    def __post_init__(self):
        cleaned = []
        total = 0.0
        for atom, weight in self.atoms:
            if weight < -WEIGHT_NEG_TOL:
                raise ValueError(f"negative weight {weight} on atom {atom}")
            weight = max(float(weight), 0.0)
            total += weight
            cleaned.append((atom, weight))
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {total!r}, expected 1")
        object.__setattr__(self, "atoms", tuple(cleaned))


def model_correlations(model: LhsModel) -> CorrelationSet:
    """Correlators of the mixture: the weighted sum over its atoms."""
    total = np.zeros(4)
    for atom, weight in model.atoms:
        total += weight * atom.correlations().as_array()
    return CorrelationSet(*total)


def decompose(v: EBasisVector, tol: float = MEMBER_TOL) -> LhsModel:
    """Write a member point as a mixture of at most four extremal atoms.

    The radial parts of the two planes fix one atom each; whatever weight is
    left is split between an antipodal pair in the first plane, which cancels
    and keeps the correlators unchanged. Raises ``NotAMemberError`` when
    f(v) > 1 + tol.
    """
    r1 = float(np.hypot(v.v1, v.v2))
    r2 = float(np.hypot(v.v3, v.v4))
    if r1 + r2 > 1.0 + tol:
        raise NotAMemberError(
            f"f={r1 + r2!r} exceeds 1; no local model exists for this point")
    xi_a = float(np.arctan2(v.v2, v.v1))
    xi_b = float(np.arctan2(v.v4, v.v3))
    residual = max(1.0 - r1 - r2, 0.0)

    weights: dict[tuple[int, float], float] = {}

    def add(chi, xi, w):
        if w > 0.0:
            key = (chi, xi)
            weights[key] = weights.get(key, 0.0) + w

    add(1, xi_a, r1)
    add(2, xi_b, r2)
    add(1, xi_a, 0.5 * residual)
    add(1, xi_a + np.pi, 0.5 * residual)
    atoms = tuple((LhsAtom(chi, xi), w) for (chi, xi), w in weights.items())
    return LhsModel(atoms)


def boundary_band(grid_n: int) -> float:
    """Chord sag of a regular ``grid_n``-gon inscribed in the unit circle.

    Inside this distance of the exact boundary the discretised hull and the
    true region can legitimately disagree, so the oracle reports a band
    verdict instead of a membership claim.
    """
    return 1.0 - np.cos(np.pi / grid_n)


def atom_matrix(grid_n: int) -> np.ndarray:
    """Correlator columns of all grid atoms, shape (4, 2*grid_n).

    Columns 0..grid_n-1 are chi=1 atoms at xi_k = 2 pi k / grid_n, the rest
    chi=2 atoms on the same angles. ``grid_n`` must lie between 8 and
    ``MAX_GRID_N``, else ``ValueError``: the matrix takes 64 bytes per angle.
    """
    if grid_n < 8:
        raise ValueError(f"grid_n must be at least 8, got {grid_n}")
    if grid_n > MAX_GRID_N:
        raise ValueError(f"grid_n must be at most {MAX_GRID_N}, got {grid_n}")
    xi = 2.0 * np.pi * np.arange(grid_n) / grid_n
    cols1 = extremal_correlations_array(1, xi)
    cols2 = extremal_correlations_array(2, xi)
    return np.concatenate([cols1, cols2], axis=0).T


@dataclass(frozen=True)
class MembershipResult:
    verdict: str
    lp_feasible: bool
    f_value: float
    band: float
    grid_n: int
    max_residual: float


def _classify(feasible, f, band):
    if abs(f - 1.0) <= band:
        return BOUNDARY_BAND
    return MEMBER if feasible else NON_MEMBER


def lp_membership(c: CorrelationSet, grid_n: int = DEFAULT_GRID_N,
                  tol: float = DEFAULT_LP_TOL) -> MembershipResult:
    """Decide hull membership of one correlation set by LP feasibility.

    The verdict is MEMBER or NON_MEMBER according to whether the correlators
    are a convex combination of the grid atoms (equality within ``tol`` per
    coordinate), except within ``boundary_band(grid_n)`` of the exact
    boundary, where BOUNDARY_BAND is returned. Numerical failure of the LP
    raises ``OracleError`` rather than producing a verdict.
    """
    results = lp_membership_batch(c.as_array()[None, :], grid_n, tol)
    return results[0]


def lp_membership_batch(points: np.ndarray, grid_n: int = DEFAULT_GRID_N,
                        tol: float = DEFAULT_LP_TOL) -> list[MembershipResult]:
    """``lp_membership`` for an (N, 4) batch, sharing one atom grid."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 4:
        raise ValueError(f"points must have shape (N, 4), got {points.shape}")
    if not (np.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"LP tolerance must be finite and >= 0, got {tol}")
    atoms = atom_matrix(grid_n)
    # vstack keeps the transposed atoms' Fortran order; lp_feasibility would
    # copy a non-contiguous A for every point.
    A = np.ascontiguousarray(np.vstack([atoms, np.ones((1, atoms.shape[1]))]))
    band = float(boundary_band(grid_n))
    f_values = f_value_array(correlation_model.to_e_basis_array(points))
    results = []
    for point, f in zip(points, f_values):
        b = np.append(point, 1.0)
        feasible, _, residuals = lp_feasibility(A, b, tol=tol)
        max_residual = float(residuals.max())
        results.append(MembershipResult(
            verdict=_classify(feasible, float(f), band),
            lp_feasible=feasible,
            f_value=float(f),
            band=band,
            grid_n=grid_n,
            max_residual=max_residual,
        ))
    return results
