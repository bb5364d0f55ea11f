"""Phase-1 revised simplex feasibility for small equality systems.

Decides whether A x = b, x >= 0 has a solution without ever storing A: a
pricing callback supplies the real columns. The solver keeps only an
(m+1) x (m+1) revised tableau, as lists of Python floats: the m x m basis
inverse and the basic values above the negated duals and objective. At m = 5
(the oracle) a NumPy call costs more than the arithmetic it would vectorise.
The artificial column of row i is ``flip_i * e_i`` with cost 1, signed to
match b_i, is never stored either and is named ``~i``. Each pivot asks the
callback for the best real column at the duals, prices the m artificial
columns itself and rewrites only the small tableau. One rule, the solver's
alone, serves every pivot: the most negative reduced cost below
``-PIVOT_EPS`` enters (real columns first on ties), and the minimum ratio
leaves, an exact tie going to the lexicographically least row of B^-1
divided by its entry in the entering column (Dantzig, Orden & Wolfe, 1955).
With that rule no basis repeats, so the solver terminates deterministically
without perturbation tricks or a second pivot mode. Phase 1 minimises the
total artificial infeasibility; its per-row residuals are the feasibility
certificate for the membership oracle. A convex system, one whose real
variables are weights summing to 1 (``lp_feasibility(..., convex=True)``,
as the oracle's are), stops phase 1 early once a Lagrangian lower bound on
its optimum proves some residual above the tolerance (Farley, Oper. Res.
38, 922 (1990)): on 3,000 uniform oracle points at grid 2048 the pricer
calls per point fell from 13.88 to 5.14, with the same verdicts.

``lp_feasibility`` solves one system at a time in those plain floats.
``lp_feasibility_batch`` solves many convex systems over the same columns at
once, one such tableau per system, stacked along the last axis of an
(m+1, m+1, N) array, so each NumPy call runs across systems. It applies the
same rule to each system, with every sum in the same order, so each takes
the same pivots and ends with the same bits. The oracle sends batches above
``lhs_oracle.LOCKSTEP_ABOVE`` points through it.
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
# The early stop's margin, relative to the scale of its bound; see
# ``_revised_pivots``.
_STOP_PAD = 2.0 ** -40

_LOST_FINITENESS = "basis inverse or basic values lost finiteness in phase 1"


class OracleError(RuntimeError):
    """The LP solver failed numerically; no verdict should be derived."""


def _revised_pivots(price, flip, tableau, basis, b=None, tol=0.0):
    """Run revised simplex pivots for min cost.x + sum(artificials), in place.

    Columns k >= 0 are the real columns, known only to ``price`` (see
    ``lp_feasibility``); a real column's cost is the pricer's business, zero
    for phase 1. Column ``~i`` is the implicit artificial ``flip[i] * e_i``
    with cost 1. Artificial ``i``, the first of the least reduced cost
    ``least``, enters iff ``least < -PIVOT_EPS and not reduced <= least``;
    otherwise the pivots stop iff ``not reduced < -PIVOT_EPS``.
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

    Early stop. Given ``b``, the right-hand side of a convex system, the
    pivots also stop where a real column a enters, no artificial prices
    below 0, and the bound L = reduced + y.b exceeds ``m * tol`` by more
    than ``_STOP_PAD`` S, with y = -``tableau[m][:m]`` the duals and
    S = sum_i |y_i| (|a_i| + |b_i|). Why: every real column and ``b`` end
    in 1, so any x, s >= 0 with A x + diag(flip) s = b has
    sum(x) = 1 - s_m <= 1, and for any y, sum(s) = y.b + sum_j (-y.a_j) x_j
    + sum_i (1 - flip_i y_i) s_i. The last sum is >= 0 and the middle one
    >= min(0, min_j -y.a_j), so the phase-1 optimum is at least L in exact
    arithmetic (the Lagrangian bound of column generation; Farley, 1990).
    The optimum's m residuals sum to it, so once it exceeds ``m * tol``
    every optimal basis has a residual above ``tol`` and the verdict is
    already infeasible. Rounding: the pricer's reduced cost lies within a
    few ulps of S of the exact least (the oracle's columns have entries of
    at most 1; see ``lhs_oracle._grid_pricer``), the m-term dot product y.b
    within m ulps of S, and the two subtractions and the pad's own sum
    round by about an ulp of S each, as m tol < L <= S (1 + m u).
    ``_STOP_PAD`` = 2^-40 is 8192 ulps (u = 2^-53), over a hundred times all
    of that. The artificial test
    needs no pad: 1 + flip_i y_i is exact wherever it is near 0 (Sterbenz).
    The stopped basis's residuals sum to its objective y.b = L - reduced > L,
    so the largest still exceeds ``tol``. A real column whose last entry is
    not 1 raises ``OracleError`` as it enters.

    Returns at the optimum or the early stop, and raises ``OracleError`` on
    a non-finite reduced cost from ``price``, on an unbounded ray, on
    non-finite duals or objective, or at the iteration limit.
    """
    eps = PIVOT_EPS
    m = len(flip)
    limit = m * tol
    bottom = tableau[m]
    for _ in range(DEFAULT_MAX_ITER):
        duals = bottom[:m]
        col, reduced, a = price(duals)
        # NaN fails every comparison below and would read as optimal.
        if not math.isfinite(reduced):
            raise OracleError("the pricer returned a non-finite reduced cost")
        artificial = [1.0 + f * y for f, y in zip(flip, duals)]
        least = min(artificial)
        if least < -eps and not reduced <= least:
            col, reduced, a = ~artificial.index(least), least, None
        elif not reduced < -eps:
            return
        elif b is not None:
            if a[-1] != 1.0:
                raise OracleError(f"real column {col} of a convex system ends in"
                                  f" {a[-1]!r}, not 1")
            if not least < 0.0:
                # S is summed only once the gap is positive.
                gap = reduced - sum(map(mul, duals, b)) - limit
                if gap > 0.0 and gap > _STOP_PAD * sum(
                        abs(y) * (abs(p) + abs(q)) for y, p, q in zip(duals, a, b)):
                    return

        # The entering column of the full tableau: B^-1 a above its reduced cost.
        if a is None:
            f = flip[~col]
            column = [tableau[i][~col] * f for i in range(m)]
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


def lp_feasibility(price, b, *, tol: float = DEFAULT_LP_TOL, convex: bool = False):
    """Decide whether {x >= 0 : A x = b} is nonempty, within ``tol`` per row.

    Only the pricing callback knows the columns of ``A``: ``price(duals)``
    takes the duals, a list of m floats, and always returns ``(col, reduced,
    column)`` for the lowest index of the most negative reduced cost, the
    column a list of m floats; ``_revised_pivots`` decides whether it
    enters. Phase 1: one artificial variable per row starts in the basis,
    and the pivots minimise their sum.
    ``convex=True`` declares that the real variables are weights: ``b[-1]``
    is 1 and every real column ends in 1. Phase 1 may then stop before its
    optimum, once ``_revised_pivots``' Lagrangian bound proves the verdict
    infeasible; a ``b[-1]`` other than 1 raises ``ValueError`` before
    ``price`` is called, and a column that enters without the final 1
    raises ``OracleError``.
    Returns (feasible, x, residuals), where residuals[i] is the absolute
    infeasibility left in row i at the basis where phase 1 ended and ``x``
    maps each basic real column to its value there, whether or not the
    tolerance test passes; every other real variable is 0. That basis is the
    phase-1 optimum, except after an early stop, which happens only on an
    infeasible verdict: ``x`` and the residuals are then those of the
    stopped basis, and the largest residual still exceeds ``tol``. A basic
    value that is zero in exact arithmetic may round to about -1e-16, so
    each is reported as ``max(value, 0.0)``. A malformed, empty or
    non-finite ``b``, or a ``tol`` outside [0, ``MAX_LP_TOL``], raises
    ``ValueError`` before ``price`` is called.
    """
    if not 0.0 <= tol <= MAX_LP_TOL:
        raise ValueError(f"tol must lie in [0, {MAX_LP_TOL:g}], got {tol}")
    b = np.asarray(b, dtype=float)
    if b.ndim != 1 or not b.size:
        raise ValueError(f"b must be a non-empty vector, got shape {b.shape}")
    b = b.tolist()
    if not all(map(math.isfinite, b)):
        raise ValueError("b must be finite")
    if convex and b[-1] != 1.0:
        raise ValueError(f"a convex system needs b[-1] == 1, got {b[-1]!r}")
    m = len(b)
    flip = [-1.0 if v < 0.0 else 1.0 for v in b]

    # Artificial basis: B^-1 = diag(flip), basic values |b|, duals = flip.
    values = [v * f for v, f in zip(b, flip)]
    tableau = [[0.0] * m + [v] for v in values]
    for i, f in enumerate(flip):
        tableau[i][i] = f
    tableau.append([-f for f in flip] + [-sum(values)])
    basis = [~i for i in range(m)]

    _revised_pivots(price, flip, tableau, basis, b if convex else None, tol)
    if not all(map(math.isfinite, chain.from_iterable(tableau))):
        raise OracleError(_LOST_FINITENESS)

    residuals = [0.0] * m
    x = {}
    for var, row in zip(basis, tableau):
        if var < 0:
            residuals[~var] = row[m]
        else:
            x[var] = max(row[m], 0.0)
    return max(residuals) <= tol, x, np.array(residuals)


def lp_feasibility_batch(price, B, *, tol: float = DEFAULT_LP_TOL):
    """``lp_feasibility(price_i, B[i], tol=tol, convex=True)`` for every row
    ``B[i]`` of an (N, m) array, pivoting all N systems in lockstep.

    Every system has the same columns. ``price(duals)`` takes the duals of
    the n systems still pivoting as an (m, n) array, one column per system,
    and returns ``(cols, reduced, columns)``: for each system, what the
    scalar pricer returns for its duals, as an (n,) integer array, an (n,)
    float array and an (m, n) array. Each round prices the live systems
    once and applies ``_revised_pivots``' rule to every one of them as
    masks: the artificial entry test, the optimality test, the Lagrangian
    early stop, and the minimum ratio, whose exact ties go to the
    lexicographically least row one system at a time. Every sum runs left
    to right as in the scalar loop, so each system takes the pivots
    ``lp_feasibility`` takes and ends with the same bits. A system leaves
    the live set where that loop would return, so the rounds number the
    most pricer calls any one system needs. ``x`` is not reported.

    Returns (feasible, residuals): an (N,) bool array and the (N, m) array
    of ``lp_feasibility``'s residuals. Raises ``OracleError``, with no
    partial result, where ``lp_feasibility`` would for any one system. A
    ``B`` that is not a finite (N, m) array with m >= 1 and a last column of
    ones, or a ``tol`` outside [0, ``MAX_LP_TOL``], raises ``ValueError``
    before ``price`` is called; an empty batch returns without calling it.
    """
    if not 0.0 <= tol <= MAX_LP_TOL:
        raise ValueError(f"tol must lie in [0, {MAX_LP_TOL:g}], got {tol}")
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or not B.shape[1]:
        raise ValueError(f"B must be an (N, m) array with m >= 1, got shape {B.shape}")
    if not np.isfinite(B).all():
        raise ValueError("B must be finite")
    if not (B[:, -1] == 1.0).all():
        raise ValueError("a convex system needs B[:, -1] == 1")
    n, m = B.shape
    residuals = np.zeros((n, m))
    if not n:
        return np.zeros(0, dtype=bool), residuals

    # Artificial bases, as in lp_feasibility; the last axis runs over systems.
    rhs = B.T.copy()
    flip = np.where(rhs < 0.0, -1.0, 1.0)
    values = rhs * flip
    diagonal = np.arange(m)
    tableau = np.zeros((m + 1, m + 1, n))
    tableau[diagonal, diagonal] = flip
    tableau[:m, m] = values
    tableau[m, :m] = -flip
    tableau[m, m] = -sum(values)
    basis = np.repeat(~diagonal[:, None], n, axis=1)
    live = count = np.arange(n)  # the row of B each system came from
    # The basic values and basis where each system's pivots ended.
    ended_values, ended_basis = np.empty((m, n)), np.empty((m, n), dtype=basis.dtype)

    eps, limit = PIVOT_EPS, m * tol
    # Overflow ends in the finiteness checks; systems that have just left
    # the live set pivot once more, on garbage, before they are dropped.
    with np.errstate(all="ignore"):
        for _ in range(DEFAULT_MAX_ITER):
            duals = tableau[m, :m]
            col, reduced, a = price(duals)
            if np.count_nonzero(~np.isfinite(reduced)):
                raise OracleError("the pricer returned a non-finite reduced cost")
            artificial = 1.0 + flip * duals
            first = artificial.argmin(axis=0)
            least = artificial.min(axis=0)
            art = (least < -eps) & ~(reduced <= least)
            real = ~art & (reduced < -eps)
            wrong = real & (a[-1] != 1.0)
            if np.count_nonzero(wrong):
                k = wrong.argmax()
                raise OracleError(f"real column {col[k]} of a convex system ends in"
                                  f" {float(a[-1, k])!r}, not 1")
            gap = reduced - sum(duals * rhs) - limit
            scale = sum(np.abs(duals) * (np.abs(a) + np.abs(rhs)))
            enter = art | (real & ((least < 0.0) | ~(gap > _STOP_PAD * scale)))
            entering = np.count_nonzero(enter)
            if entering < enter.size:
                done = np.nonzero(~enter)[0]
                ended_values[:, live[done]] = tableau[:m, m, done]
                ended_basis[:, live[done]] = basis[:, done]
                if not entering:
                    break

            # The entering column of each full tableau: B^-1 a above its
            # reduced cost, or the artificial's column of B^-1 times its sign.
            column = sum((tableau[:m, :m] * a).swapaxes(0, 1))
            if np.count_nonzero(art):
                column = np.where(art, tableau[:m, first, count] * flip[first, count],
                                  column)
            eligible = column > eps
            ratio = tableau[:m, m] / column
            tied = eligible & (ratio == np.where(eligible, ratio, np.inf).min(axis=0))
            ties = tied.sum(axis=0)
            if np.count_nonzero(enter & (ties == 0)):
                raise OracleError("phase 1 reported unbounded; basis inverse is corrupt")
            row = tied.argmax(axis=0)
            for k in np.nonzero(enter & (ties > 1))[0].tolist():
                inverse, entries = tableau[:m, :m, k].tolist(), column[:, k].tolist()
                for i in np.nonzero(tied[:, k])[0][1:].tolist():
                    r = row[k]
                    if ([t / entries[i] for t in inverse[i]]
                            < [t / entries[r] for t in inverse[r]]):
                        row[k] = i

            factors = np.concatenate([column, np.where(art, least, reduced)[None]])
            leaving = tableau[row, :, count].T / column[row, count]
            tableau -= factors[:, None] * leaving
            tableau[row, :, count] = leaving.T
            basis[row, count] = np.where(art, ~first, col)
            if entering < enter.size:
                keep = np.nonzero(enter)[0]
                tableau, flip, rhs, basis, live = (
                    x.take(keep, axis=-1) for x in (tableau, flip, rhs, basis, live))
                count = count[:keep.size]
            # A pricer may take angles of the duals; stop before it sees a NaN.
            # An entry that is not finite stays so, and would end in
            # lp_feasibility's check of the whole tableau.
            if np.count_nonzero(~np.isfinite(tableau)):
                raise OracleError(_LOST_FINITENESS)
        else:
            raise OracleError("simplex iteration limit reached in phase 1")

    rows, systems = np.nonzero(ended_basis < 0)
    residuals[systems, ~ended_basis[rows, systems]] = ended_values[rows, systems]
    return residuals.max(axis=1) <= tol, residuals
