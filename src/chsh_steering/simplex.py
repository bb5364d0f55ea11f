"""Phase-1 revised simplex feasibility for small equality systems.

Decides whether A x = b, x >= 0 has a solution. The solver keeps only an
(m+1) x (m+1) revised tableau: the m x m basis inverse and the basic values
above the negated duals and objective. The artificial column of row i is
``flip_i * e_i`` with cost 1, signed to match b_i, and is never stored, so a
pivot prices every column with one ``duals @ A`` matvec and rewrites only the
small tableau. The entering column is the most negative reduced cost over the
real and the artificial columns (first index on ties) while the objective
strictly improves; after ``BLAND_AFTER`` stalled pivots the rule switches
permanently to Bland's lowest eligible index, and the leaving row is always
the minimum ratio with the lowest-basic-index tie-break. Strict-progress
pivots cannot revisit a basis and the Bland phase cannot cycle, so the solver
terminates deterministically without perturbation tricks. Phase 1 minimises
the total artificial infeasibility; its per-row residuals are the
feasibility certificate for the membership oracle.
"""

from __future__ import annotations

import numpy as np

PIVOT_EPS = 1e-10
DEFAULT_MAX_ITER = 1_000_000
# Consecutive degenerate pivots tolerated before switching the entering rule
# from most-negative-reduced-cost to Bland's anti-cycling lowest index.
BLAND_AFTER = 64
DEFAULT_LP_TOL = 1e-9
# Largest residual tolerance accepted; ``lhs_oracle`` explains the value.
MAX_LP_TOL = 1e-6


class OracleError(RuntimeError):
    """The LP solver failed numerically; no verdict should be derived."""


def _revised_pivots(A, cost, flip, tableau, basis):
    """Run revised simplex pivots for min cost.x + sum(artificials), in place.

    Columns 0..n-1 are those of ``A`` with costs ``cost`` (zero when None);
    column n+i is the implicit artificial ``flip[i] * e_i`` with cost 1.
    ``lp_feasibility`` passes None; ``cost`` is kept because a cycling LP
    such as Beale's, which exercises the Bland switch, needs an objective on
    the real columns.
    ``tableau`` has shape (m+1, m+1): the basis inverse in ``[:m, :m]``, the
    basic values in ``[:m, m]``, the negated duals in ``[m, :m]`` and the
    negated objective in ``[m, m]``. ``basis`` is the list of the m basic
    column indices. Uses ``PIVOT_EPS``, ``DEFAULT_MAX_ITER`` and
    ``BLAND_AFTER``; returns at the optimum and raises ``OracleError`` on an
    unbounded ray or at the iteration limit.
    """
    eps, bland_after = PIVOT_EPS, BLAND_AFTER
    m, n = A.shape
    reduced = np.empty(n + m)
    stall = 0
    bland = False
    last_objective = tableau[m, m]
    for _ in range(DEFAULT_MAX_ITER):
        duals = tableau[m, :m]
        np.dot(duals, A, out=reduced[:n])
        if cost is not None:
            reduced[:n] += cost
        reduced[n:] = 1.0 + flip * duals
        if bland:
            negative = np.flatnonzero(reduced < -eps)
            if negative.size == 0:
                return
            col = int(negative[0])
        else:
            col = int(reduced.argmin())
            if reduced[col] >= -eps:
                return

        # The entering column of the full tableau: B^-1 a above its reduced cost.
        if col < n:
            column = tableau[:, :m] @ A[:, col]
        else:
            column = tableau[:, col - n] * flip[col - n]
        column[m] = reduced[col]
        row = -1
        for i, (entry, value) in enumerate(zip(column[:m].tolist(), tableau[:m, m].tolist())):
            if entry > eps:
                ratio = value / entry
                if row < 0 or ratio < best or (ratio == best and basis[i] < basis[row]):
                    row, best = i, ratio
        if row < 0:
            raise OracleError("phase 1 reported unbounded; basis inverse is corrupt")

        tableau[row] /= column[row]
        column[row] = 0.0
        tableau -= column[:, None] * tableau[row]
        basis[row] = col

        if tableau[m, m] > last_objective:
            last_objective = tableau[m, m]
            stall = 0
        else:
            stall += 1
            if stall >= bland_after:
                bland = True
    raise OracleError("simplex iteration limit reached in phase 1")


def lp_feasibility(A, b, *, tol: float = DEFAULT_LP_TOL):
    """Decide whether {x >= 0 : A x = b} is nonempty, within ``tol`` per row.

    Phase 1: one artificial variable per row starts in the basis, and the
    pivots minimise their sum. Returns (feasible, x, residuals), where
    residuals[i] is the absolute infeasibility left in row i at the phase-1
    optimum and ``x`` is the phase-1 point (its real variables) whether or
    not the tolerance test passes. A malformed or non-finite ``A`` or ``b``,
    or a ``tol`` outside [0, ``MAX_LP_TOL``], raises ``ValueError``.
    """
    if not 0.0 <= tol <= MAX_LP_TOL:
        raise ValueError(f"tol must lie in [0, {MAX_LP_TOL:g}], got {tol}")
    A = np.ascontiguousarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2:
        raise ValueError("A must be a 2-D matrix")
    m, n = A.shape
    if b.shape != (m,):
        raise ValueError(f"b must have shape ({m},), got {b.shape}")
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError("A and b must be finite")
    flip = np.where(b < 0.0, -1.0, 1.0)

    # Artificial basis: B^-1 = diag(flip), basic values |b|, duals = flip.
    tableau = np.zeros((m + 1, m + 1))
    tableau[:m, :m] = np.diag(flip)
    tableau[:m, m] = b * flip
    tableau[m, :m] = -flip
    tableau[m, m] = -tableau[:m, m].sum()
    basis = list(range(n, n + m))

    _revised_pivots(A, None, flip, tableau, basis)
    if not np.isfinite(tableau).all():
        raise OracleError("basis inverse or basic values lost finiteness in phase 1")

    residuals = np.zeros(m)
    x = np.zeros(n)
    for var, value in zip(basis, tableau[:m, m].tolist()):
        if var >= n:
            residuals[var - n] = value
        else:
            x[var] = value
    return bool((residuals <= tol).all()), x, residuals
