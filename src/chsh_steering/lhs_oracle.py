"""Constructive local-model decompositions and an independent LP oracle.

Members of the local-model region (f <= 1) admit an explicit finite mixture
of deterministic-Alice atoms, built in closed form by ``decompose``. As a
cross-check that owes nothing to the witness formula, ``lp_membership`` tests
convex-hull membership directly: it discretises the two extremal circles on a
uniform angle grid and asks a phase-1 simplex whether the target correlators
are a convex combination of grid atoms. The atoms are never stored: on each
circle an atom's reduced cost is a cosine of its angle, so the simplex's
pricing callback (``_grid_pricer``) names the best atom in closed form, the
simplex decides whether it enters, and a point's cost does not grow with the
grid. The only use of f there is to flag points within the band of the
boundary set by the grid's chord sag and the LP's residual tolerance, where
the oracle cannot be trusted either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlation_model import ALICE_SIGNS, CorrelationSet, EBasisVector
from .simplex import DEFAULT_LP_TOL, MAX_LP_TOL, lp_feasibility, lp_feasibility_batch
from .steering_witness import f_value_array
from . import correlation_model

WEIGHT_SUM_TOL = 1e-12
WEIGHT_NEG_TOL = 1e-14
DEFAULT_GRID_N = 2048
MAX_GRID_N = 2 ** 20
# The LP's residual tolerance widens the band by KAPPA * tol (see
# ``boundary_band``). At MAX_LP_TOL that is 3.8e-6, three times the sag of
# the default grid; a larger tolerance would only hide more points in it.
KAPPA = 1.0 + 2.0 * np.sqrt(2.0)
# Batches of more points than this pivot in lockstep (``lp_feasibility_batch``),
# LOCKSTEP_CHUNK points at a time; smaller ones run ``lp_feasibility`` point by
# point, which is faster there (see ``lp_membership_batch``).
LOCKSTEP_ABOVE = 64
LOCKSTEP_CHUNK = 4096
# Where floor(t) of the bracket position t = atan2 * units is in doubt; see
# ``_grid_pricer_batch``.
_BRACKET_SLACK = 2.0 ** -30

MEMBER = "member"
NON_MEMBER = "non_member"
BOUNDARY_BAND = "boundary_band"


class NotAMemberError(ValueError):
    """Asked to decompose a point outside the local-model region."""


@dataclass(frozen=True)
class LhsAtom:
    """One extremal strategy: deterministic Alice (chi) and a finite Bob
    angle xi."""

    chi: int
    xi: float

    def __post_init__(self):
        if self.chi not in (1, 2):
            raise ValueError(f"atom chi must be 1 or 2, got {self.chi}")
        if not math.isfinite(self.xi):
            raise ValueError(f"atom angle xi must be finite, got {self.xi}")

    def correlations(self) -> CorrelationSet:
        return correlation_model.extremal_correlations(self.chi, self.xi)


@dataclass(frozen=True)
class LhsModel:
    """Finite weighted mixture of extremal atoms. The weights must be finite
    and sum to one; a weight down to -``WEIGHT_NEG_TOL`` is taken as 0."""

    atoms: tuple[tuple[LhsAtom, float], ...]

    def __post_init__(self):
        cleaned = []
        total = 0.0
        for atom, weight in self.atoms:
            if not weight >= -WEIGHT_NEG_TOL:
                raise ValueError(f"weight {weight} on atom {atom} is not a"
                                 " non-negative number")
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


def decompose(v: EBasisVector) -> LhsModel:
    """Write a member point as a mixture of at most three extremal atoms.

    The radial parts of the two planes fix one atom each; whatever weight is
    left is split between an antipodal pair in the first plane, which cancels
    and keeps the correlators unchanged. Atoms of zero weight are left out.
    Raises ``NotAMemberError`` when f(v) - 1 > ``WEIGHT_SUM_TOL``: the
    atoms' weights sum to f(v) there, which ``LhsModel`` would refuse.
    """
    r1 = float(np.hypot(v.v1, v.v2))
    r2 = float(np.hypot(v.v3, v.v4))
    if r1 + r2 - 1.0 > WEIGHT_SUM_TOL:
        raise NotAMemberError(
            f"f={r1 + r2!r} exceeds 1; no local model exists for this point")
    xi_a = float(np.arctan2(v.v2, v.v1))
    xi_b = float(np.arctan2(v.v4, v.v3))
    half = 0.5 * max(1.0 - r1 - r2, 0.0)
    atoms = ((LhsAtom(1, xi_a), r1 + half), (LhsAtom(2, xi_b), r2),
             (LhsAtom(1, xi_a + np.pi), half))
    return LhsModel(tuple((atom, w) for atom, w in atoms if w > 0.0))


def boundary_band(grid_n: int, tol: float = DEFAULT_LP_TOL) -> float:
    """Distance ``max(sag, KAPPA * tol)`` of f from 1 within which the oracle
    on ``grid_n`` angles with LP tolerance ``tol`` makes no membership claim.

    Each side of the band needs only its own term:

    - A false NON_MEMBER needs f > 1 - sag, with sag = 1 - cos(pi/grid_n)
      the chord sag of the inscribed regular ``grid_n``-gon: that polygon
      holds the disk of radius 1 - sag in each plane, so the grid hull holds
      every point with f <= 1 - sag.
    - A false MEMBER needs f <= 1 + KAPPA * tol. Phase 1 accepts x >= 0 with
      every row of A x - b within ``tol``. The atoms have f = 1 and f is a
      norm, so their mixture c' has f(c') <= sum(x) <= 1 + tol by the weight
      row. Each e-basis coordinate of c - c' is half a sum of two correlator
      errors, so at most ``tol``; each plane's radius is then at most
      sqrt(2) tol, and f(c - c') <= 2 sqrt(2) tol. By the triangle
      inequality f(c) <= 1 + (1 + 2 sqrt(2)) tol = 1 + KAPPA * tol.

    At the default tolerance the sag is the larger term up to grid 2^15.
    ``tol`` must lie in [0, ``MAX_LP_TOL``] and ``grid_n`` between 8 and
    ``MAX_GRID_N``, the ranges the oracle accepts, else ``ValueError``.
    """
    if not 0.0 <= tol <= MAX_LP_TOL:
        raise ValueError(f"LP tolerance must lie in [0, {MAX_LP_TOL:g}], got {tol}")
    if not grid_n >= 8:
        raise ValueError(f"grid_n must be at least 8, got {grid_n}")
    if grid_n > MAX_GRID_N:
        raise ValueError(f"grid_n must be at most {MAX_GRID_N}, got {grid_n}")
    return float(max(1.0 - np.cos(np.pi / grid_n), KAPPA * tol))


def _grid_pricer(grid_n: int):
    """The pricing callback ``lp_feasibility`` takes for the oracle's columns.

    Column k < grid_n is (correlators, 1) of the chi = 1 atom at
    xi_k = 2 pi k / grid_n, and column grid_n + k that of the chi = 2 atom
    at xi_k. With Alice's signs (sa, sap) the chi atom's correlators are
    (sa c, sap c, sa s, sap s), c = cos xi, s = sin xi, so at duals y the
    reduced cost is y4 + p c + q s with p = y0 sa + y1 sap and
    q = y2 sa + y3 sap: a cosine over the circle, lowest at
    xi = atan2(-q, -p). The cosine grows with the distance from that angle,
    so the family's grid minimum is one of the two grid angles that bracket
    it, indices ``floor(atan2(-q, -p) * grid_n / 2 pi)`` and the next one
    (mod ``grid_n``). Only those two are evaluated, each as the dot product
    of y with the column summed left to right, in increasing column order so
    that a strict ``<`` keeps the first index on a tie; p = q = 0 makes the
    family flat and takes its index 0. ``price(duals)`` returns the better
    family's column whatever its reduced cost; the simplex decides whether
    it enters. A dense ``y @ A`` may round a reduced cost differently in its
    last bits, so where two columns lie within a few ulps of each other it
    may pick the other one. Nothing here knows the target point, let alone
    f; no column is stored, so the cost of a pivot does not grow with
    ``grid_n``. ``_grid_pricer_batch`` is its twin for many points at once,
    bitwise equal on every row.
    """
    units = grid_n / (2.0 * math.pi)  # grid steps per radian
    two_pi, cos, sin, atan2, floor = (
        2.0 * math.pi, math.cos, math.sin, math.atan2, math.floor)
    families = ((0, *ALICE_SIGNS[1]), (grid_n, *ALICE_SIGNS[2]))

    def price(duals):
        y0, y1, y2, y3, y4 = duals
        best = best_reduced = None
        for offset, sa, sap in families:
            # sa, sap are +-1, so u0 * c rounds exactly like y0 * (sa * c).
            u0, u1, u2, u3 = y0 * sa, y1 * sap, y2 * sa, y3 * sap
            p, q = u0 + u1, u2 + u3
            low = floor(atan2(-q, -p) * units) % grid_n if p or q else 0
            for k in (low, low + 1) if low + 1 < grid_n else (0, low):
                xi = two_pi * k / grid_n
                c, s = cos(xi), sin(xi)
                reduced = u0 * c + u1 * c + u2 * s + u3 * s + y4
                if best is None or reduced < best_reduced:
                    best, best_reduced = (offset + k, sa, sap, c, s), reduced
        col, sa, sap, c, s = best
        return col, best_reduced, [sa * c, sap * c, sa * s, sap * s, 1.0]

    return price


def _grid_pricer_batch(grid_n: int):
    """``_grid_pricer`` for ``lp_feasibility_batch``: the same columns,
    priced for a (5, n) array of duals, one column per point.

    Point by point it returns ``_grid_pricer``'s column index, reduced cost
    and column, bit for bit: the same bracket, the same operations in the
    same order, and the first index on ties, since a point's four
    candidates are laid out in increasing column order for ``argmin``.
    ``np.cos`` and ``np.sin`` gave ``math.cos``'s and ``math.sin``'s bits on
    every angle of grid 65536, but ``np.arctan2`` may round differently
    from ``math.atan2`` (by at most an ulp on 10^6 random inputs on an
    AVX-512 host, where 0.9 % differed), so it feeds only the bracket position
    t = atan2(-q, -p) * grid_n / 2 pi. An error of a few ulps moves t by far
    less than ``_BRACKET_SLACK * grid_n``, as |t| <= grid_n / 2, so it can
    change floor(t) only where t lies that close to an integer; there
    ``math.atan2`` recomputes t. That happens only at or next to a grid
    angle, such as the artificial start's multiples of pi / 4.
    """
    units = grid_n / (2.0 * math.pi)  # grid steps per radian
    two_pi = 2.0 * math.pi
    slack = _BRACKET_SLACK * grid_n
    # Axis 0 the family (chi = 1, then chi = 2), axis 1 the dual y0..y3.
    signs = np.array([[sa, sap, sa, sap] for sa, sap in (ALICE_SIGNS[1], ALICE_SIGNS[2])])
    sa, sap = signs[:, 0, None, None], signs[:, 1, None, None]
    signs = signs[:, :, None]
    offset = np.array([0, grid_n])[:, None, None]

    def price(duals):
        n = duals.shape[1]
        u = duals[:4] * signs  # sa, sap are +-1: u rounds as in _grid_pricer
        y, x = -(u[:, 2] + u[:, 3]), -(u[:, 0] + u[:, 1])  # -q, -p
        t = np.arctan2(y, x) * units
        doubt = np.abs(t - np.rint(t)) <= slack
        if doubt.any():
            t[doubt] = np.array(list(map(math.atan2, y[doubt].tolist(),
                                         x[doubt].tolist()))) * units
        low = np.floor(t).astype(np.int64) % grid_n
        low *= np.logical_or(x, y)  # p = q = 0: a flat family takes index 0
        ks = np.empty((2, 2, n), dtype=np.int64)  # (family, candidate, point)
        ks[:, 0] = low
        np.add(low, 1, out=ks[:, 1])
        wrap = ks[:, 1] == grid_n
        if wrap.any():
            ks[:, 1][wrap] = low[wrap]
            ks[:, 0][wrap] = 0
        xi = two_pi * ks / grid_n
        c, s = np.cos(xi), np.sin(xi)
        reduced = (u[:, 0, None] * c + u[:, 1, None] * c + u[:, 2, None] * s
                   + u[:, 3, None] * s + duals[4])
        pick = reduced.reshape(4, n).argmin(axis=0) * n + np.arange(n)
        candidates = np.empty((5, 2, 2, n))
        np.multiply(sa, c, out=candidates[0])
        np.multiply(sap, c, out=candidates[1])
        np.multiply(sa, s, out=candidates[2])
        np.multiply(sap, s, out=candidates[3])
        candidates[4] = 1.0
        return ((ks + offset).reshape(-1).take(pick), reduced.reshape(-1).take(pick),
                candidates.reshape(5, -1).take(pick, axis=1))

    return price


@dataclass(frozen=True)
class MembershipResult:
    """One point's verdict and its evidence. ``max_residual`` is the largest
    per-row residual of the basis where the point's phase 1 ended: the
    optimum for a feasible point, within ``tol`` exactly when
    ``lp_feasible``; for an infeasible one it may be the basis where the
    early stop proved the optimum infeasible, and it still exceeds ``tol``."""

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
    coordinate), except within ``boundary_band(grid_n, tol)`` of the exact
    boundary, where BOUNDARY_BAND is returned. ``tol`` must lie in [0,
    ``MAX_LP_TOL``], else ``ValueError``. Numerical failure of the LP
    raises ``OracleError`` rather than producing a verdict.
    """
    results = lp_membership_batch(c.as_array()[None, :], grid_n, tol)
    return results[0]


def lp_membership_batch(points: np.ndarray, grid_n: int = DEFAULT_GRID_N,
                        tol: float = DEFAULT_LP_TOL) -> list[MembershipResult]:
    """``lp_membership`` for an (N, 4) batch, sharing one pricer.

    Each point is one convex phase 1 on b = (point, 1) over the implicit
    atom columns of ``_grid_pricer``, whose last row (all ones) makes the
    weights sum to 1, so a non-member's phase 1 stops once its Lagrangian
    bound proves the optimum above the tolerance, before the optimum itself:
    at grid 2048 the pricer calls per uniform point fell from 13.88 to 5.14,
    with the same verdicts. Nothing derived from f reaches that decision.
    A batch of at most ``LOCKSTEP_ABOVE`` points runs one ``lp_feasibility``
    per point; a larger one runs ``lp_feasibility_batch`` on
    ``LOCKSTEP_CHUNK`` points at a time with ``_grid_pricer_batch``, so it
    never holds more than one chunk of tableaux. Both take the same pivots
    and give the same verdicts and residual bits; the lockstep loop pays a
    fixed cost per round that only larger batches recover (a 64-point batch
    at grid 2048 took about twice as long point by point on a 2-core
    x86-64 host, 500 points six times as long).
    Every point must be finite, else ``ValueError``; ``boundary_band``
    checks ``grid_n`` and ``tol``.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 4:
        raise ValueError(f"points must have shape (N, 4), got {points.shape}")
    if not np.isfinite(points).all():
        raise ValueError("points must be finite")
    band = boundary_band(grid_n, tol)
    f_values = f_value_array(correlation_model.to_e_basis_array(points))
    feasible, max_residuals = [], []
    if len(points) <= LOCKSTEP_ABOVE:
        price = _grid_pricer(grid_n)
        for point in points.tolist():
            ok, _, residuals = lp_feasibility(price, [*point, 1.0], tol=tol, convex=True)
            feasible.append(ok)
            max_residuals.append(float(residuals.max()))
    else:
        price = _grid_pricer_batch(grid_n)
        for start in range(0, len(points), LOCKSTEP_CHUNK):
            chunk = points[start:start + LOCKSTEP_CHUNK]
            ok, residuals = lp_feasibility_batch(
                price, np.column_stack([chunk, np.ones(len(chunk))]), tol=tol)
            feasible += ok.tolist()
            max_residuals += residuals.max(axis=1).tolist()
    return [MembershipResult(verdict=_classify(ok, f, band), lp_feasible=ok, f_value=f,
                             band=band, grid_n=grid_n, max_residual=max_residual)
            for ok, f, max_residual in zip(feasible, f_values.tolist(), max_residuals)]
