"""Phase-1 simplex feasibility for small dense equality systems.

Decides whether A x = b, x >= 0 has a solution on a dense tableau. The entering
column is the most negative reduced cost while the objective strictly
improves; after ``BLAND_AFTER`` stalled pivots the rule switches permanently
to Bland's lowest eligible index, and the leaving row is always the minimum
ratio with the lowest-basic-index tie-break. Strict-progress pivots cannot
revisit a basis and the Bland phase cannot cycle, so the solver terminates
deterministically without perturbation tricks. Phase 1 minimises the total
artificial infeasibility; its per-row residuals are the feasibility
certificate for the membership oracle.

This module owns tableau construction, the vectorised NumPy pivot loop and
the interpretation of its result.
"""

from __future__ import annotations

import numpy as np

PIVOT_EPS = 1e-10
DEFAULT_MAX_ITER = 1_000_000
# Consecutive degenerate pivots tolerated before switching the entering rule
# from most-negative-reduced-cost to Bland's anti-cycling lowest index.
BLAND_AFTER = 64


class OracleError(RuntimeError):
    """The LP solver failed numerically; no verdict should be derived."""


# Status codes of the pivot loop.
_PIVOT_OPTIMAL = 0
_PIVOT_UNBOUNDED = 1
_PIVOT_ITERATION_LIMIT = 2


def _simplex_pivots(tableau, basis, eps, max_iter, bland_after):
    """Run simplex pivots on a dense minimisation tableau, in place.

    ``tableau`` has shape (m+1, n+1): m constraint rows kept with nonnegative
    right-hand sides, a reduced-cost row at the bottom and the RHS in the last
    column. ``basis`` holds the m basic column indices.

    The entering column is the most negative reduced cost (first index on
    ties) while the objective makes strict progress; after ``bland_after``
    consecutive stalled pivots the rule switches permanently to Bland's
    lowest-eligible-index, which rules out cycling and guarantees
    termination. The leaving row is always the minimum-ratio row with ties
    broken by the lowest basic index. Returns _PIVOT_OPTIMAL,
    _PIVOT_UNBOUNDED or _PIVOT_ITERATION_LIMIT.
    """
    m = basis.shape[0]
    n = tableau.shape[1] - 1
    stall = 0
    bland = False
    last_objective = tableau[m, -1]
    for _ in range(max_iter):
        reduced = tableau[m, :n]
        if bland:
            negative = np.nonzero(reduced < -eps)[0]
            if negative.size == 0:
                return _PIVOT_OPTIMAL
            col = int(negative[0])
        else:
            col = int(np.argmin(reduced))
            if reduced[col] >= -eps:
                return _PIVOT_OPTIMAL
        column = tableau[:m, col]
        rows = np.nonzero(column > eps)[0]
        if rows.size == 0:
            return _PIVOT_UNBOUNDED
        ratios = tableau[rows, -1] / column[rows]
        best = ratios.min()
        tied = rows[ratios == best]
        row = int(tied[np.argmin(basis[tied])])

        piv = tableau[row, col]
        tableau[row, :] /= piv
        factors = tableau[:, col].copy()
        factors[row] = 0.0
        tableau -= np.outer(factors, tableau[row, :])
        basis[row] = col

        if tableau[m, -1] > last_objective:
            last_objective = tableau[m, -1]
            stall = 0
        else:
            stall += 1
            if stall >= bland_after:
                bland = True
    return _PIVOT_ITERATION_LIMIT


def lp_feasibility(A, b, *, tol: float = 1e-9):
    """Decide whether {x >= 0 : A x = b} is nonempty, within ``tol`` per row.

    Phase 1 of the simplex method: rows with a negative right-hand side are
    negated, one artificial variable per row starts in the basis, and the
    pivots minimise their sum. Returns (feasible, x, residuals), where
    residuals[i] is the absolute infeasibility left in row i at the phase-1
    optimum and ``x`` is the phase-1 point (its real variables) whether or
    not the tolerance test passes.
    """
    A = np.ascontiguousarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2:
        raise ValueError("A must be a 2-D matrix")
    m, n = A.shape
    if b.shape != (m,):
        raise ValueError(f"b must have shape ({m},), got {b.shape}")
    flip = np.where(b < 0.0, -1.0, 1.0)
    A1 = A * flip[:, None]
    b1 = b * flip

    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = A1
    tableau[:m, n:n + m] = np.eye(m)
    tableau[:m, -1] = b1
    # Reduced costs for the artificial basis: objective = sum of artificials.
    tableau[m, :n] = -A1.sum(axis=0)
    tableau[m, -1] = -b1.sum()
    basis = np.arange(n, n + m, dtype=np.int64)

    status = _simplex_pivots(tableau, basis, PIVOT_EPS, DEFAULT_MAX_ITER, BLAND_AFTER)
    if status == _PIVOT_ITERATION_LIMIT:
        raise OracleError("simplex iteration limit reached in phase 1")
    if status == _PIVOT_UNBOUNDED:
        raise OracleError("phase 1 reported unbounded; tableau is corrupt")
    if not np.isfinite(tableau).all():
        raise OracleError("simplex tableau lost finiteness in phase 1")

    residuals = np.zeros(m)
    x = np.zeros(n)
    for row, var in enumerate(basis):
        if var >= n:
            residuals[var - n] = tableau[row, -1]
        else:
            x[var] = tableau[row, -1]
    return bool((residuals <= tol).all()), x, residuals
