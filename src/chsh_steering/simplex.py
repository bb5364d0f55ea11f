"""Phase-1 revised simplex feasibility for small equality systems.

Decides whether A x = b, x >= 0 has a solution without ever storing A: a
pricing callback supplies the real columns. The solver keeps only an
(m+1) x (m+1) revised tableau, as lists of Python floats: the m x m basis
inverse and the basic values above the negated duals and objective. At m = 5
(the oracle) a NumPy call costs more than the arithmetic it would vectorise.
The artificial column of row i is ``flip_i * e_i`` with cost 1, signed to
match b_i, and is never stored either. Each pivot asks the callback for the
best real column at the current duals, prices the m artificial columns
itself and rewrites only the small tableau. One rule serves every pivot:
the entering column is the most negative reduced cost over the real and the
artificial columns (first index on ties), and the leaving row is the minimum
ratio, an exact tie going to the lexicographically least row of B^-1 divided
by its entry in the entering column (Dantzig, Orden & Wolfe, 1955). With
that rule no basis repeats, so the solver terminates deterministically
without perturbation tricks or a second pivot mode. Phase 1 minimises the
total artificial infeasibility; its per-row residuals are the feasibility
certificate for the membership oracle.
"""

from __future__ import annotations

import math
from itertools import chain
from operator import mul

import numpy as np

PIVOT_EPS = 1e-10
DEFAULT_MAX_ITER = 1_000_000
DEFAULT_LP_TOL = 1e-9
# Largest residual tolerance accepted; ``lhs_oracle`` explains the value.
MAX_LP_TOL = 1e-6

_LOST_FINITENESS = "basis inverse or basic values lost finiteness in phase 1"


class OracleError(RuntimeError):
    """The LP solver failed numerically; no verdict should be derived."""


def _revised_pivots(price, n, flip, tableau, basis):
    """Run revised simplex pivots for min cost.x + sum(artificials), in place.

    Columns 0..n-1 are the real columns, known only to ``price`` (see
    ``lp_feasibility``); a real column's cost is the pricer's business, zero
    for phase 1. Column n+i is the implicit artificial ``flip[i] * e_i`` with
    cost 1.
    ``tableau`` is a list of m+1 rows of m+1 floats: the basis inverse in
    ``[:m][:m]``, the basic values in column m, the negated duals in row m
    and the negated objective in ``[m][m]``. ``basis`` is the list of the m
    basic column indices.

    Invariant: every row of ``[x_B | B^-1]``, basic value first, is
    lexicographically positive. The artificial start of ``lp_feasibility``
    has it (B^-1 = diag(flip), flip = +1 wherever b_i = 0) and the leaving
    rule keeps it, so each pivot adds a positive multiple of a positive row
    to the bottom row ``[-z | -y]`` and no basis repeats. Entries at or below
    ``PIVOT_EPS`` count as zero; ``DEFAULT_MAX_ITER`` guards against a float
    failure of that argument.

    Returns at the optimum and raises ``OracleError`` on an unbounded ray, on
    non-finite duals or objective, or at the iteration limit.
    """
    eps = PIVOT_EPS
    m = len(flip)
    bottom = tableau[m]
    for _ in range(DEFAULT_MAX_ITER):
        duals = bottom[:m]
        entering = price(duals, eps)
        artificial = [1.0 + f * y for f, y in zip(flip, duals)]
        least = min(artificial)
        if least < -eps and (entering is None or least < entering[1]):
            entering = (n + artificial.index(least), least, None)
        elif entering is None:
            return
        col, reduced, a = entering

        # The entering column of the full tableau: B^-1 a above its reduced cost.
        if a is None:
            f = flip[col - n]
            column = [tableau[i][col - n] * f for i in range(m)]
        else:
            column = [sum(map(mul, tableau[i], a)) for i in range(m)]
        row = -1
        for i, entry in enumerate(column):
            if entry > eps:
                ratio = tableau[i][m] / entry
                if row < 0 or ratio < best:
                    row, best = i, ratio
                elif ratio == best and ([t / entry for t in tableau[i][:m]]
                                        < [t / column[row] for t in tableau[row][:m]]):
                    row = i
        if row < 0:
            raise OracleError("phase 1 reported unbounded; basis inverse is corrupt")
        column.append(reduced)

        pivot = column[row]
        leaving = tableau[row] = [t / pivot for t in tableau[row]]
        for i, factor in enumerate(column):
            if i != row:
                tableau[i] = [t - factor * r for t, r in zip(tableau[i], leaving)]
        basis[row] = col
        bottom = tableau[m]
        # A pricer may take angles of the duals; stop before it sees a NaN.
        if not all(map(math.isfinite, bottom)):
            raise OracleError(_LOST_FINITENESS)
    raise OracleError("simplex iteration limit reached in phase 1")


def lp_feasibility(price, n, b, *, tol: float = DEFAULT_LP_TOL):
    """Decide whether {x >= 0 : A x = b} is nonempty, within ``tol`` per row.

    ``A`` has ``n`` columns that only the pricing callback knows.
    ``price(duals, eps)`` prices them at the duals, a list of m floats, and
    returns ``(col, reduced, column)``, the entering candidate's index,
    reduced cost and column (a list of m floats), or None when no column has
    a reduced cost below ``-eps``. The candidate is the lowest index of the
    most negative reduced cost. Phase 1: one artificial variable per row
    starts in the basis, and the pivots minimise their sum.
    Returns (feasible, x, residuals), where residuals[i] is the absolute
    infeasibility left in row i at the phase-1 optimum and ``x`` maps each
    basic real column to its value at the phase-1 point, whether or not the
    tolerance test passes; every other real variable is 0. A basic value
    that is zero in exact arithmetic may round to about -1e-16, so each is
    reported as ``max(value, 0.0)``. A malformed or
    non-finite ``b``, or a ``tol`` outside [0, ``MAX_LP_TOL``], raises
    ``ValueError``.
    """
    if not 0.0 <= tol <= MAX_LP_TOL:
        raise ValueError(f"tol must lie in [0, {MAX_LP_TOL:g}], got {tol}")
    b = np.asarray(b, dtype=float)
    if b.ndim != 1:
        raise ValueError(f"b must be a vector, got shape {b.shape}")
    b = b.tolist()
    if not all(map(math.isfinite, b)):
        raise ValueError("b must be finite")
    m = len(b)
    flip = [-1.0 if v < 0.0 else 1.0 for v in b]

    # Artificial basis: B^-1 = diag(flip), basic values |b|, duals = flip.
    values = [v * f for v, f in zip(b, flip)]
    tableau = [[0.0] * m + [v] for v in values]
    for i, f in enumerate(flip):
        tableau[i][i] = f
    tableau.append([-f for f in flip] + [-sum(values)])
    basis = list(range(n, n + m))

    _revised_pivots(price, n, flip, tableau, basis)
    if not all(map(math.isfinite, chain.from_iterable(tableau))):
        raise OracleError(_LOST_FINITENESS)

    residuals = [0.0] * m
    x = {}
    for var, row in zip(basis, tableau):
        if var >= n:
            residuals[var - n] = row[m]
        else:
            x[var] = max(row[m], 0.0)
    return max(residuals, default=0.0) <= tol, x, np.array(residuals)
