"""Maximising the steering witness over Alice's measurement choices.

For the maximally entangled state with Bob's two measurements mutually
unbiased, an Alice direction parametrised by a single angle alpha yields the
correlators (cos a, cos a', sin a, sin a'), and the witness value depends on
(a, a') only through their difference:

    lhs = sqrt(2 + 2 cos(a - a')) + sqrt(2 - 2 cos(a - a')),

peaking at 2*sqrt(2) when the difference is a quarter turn. For an arbitrary
two-qubit state with Bob fixed to the z/x pair, ``state_scan`` tabulates the
witness on a Bloch grid of Alice direction pairs and returns the exact
maximum, 2 ||M||_F for the 2 x 3 correlation block M, attained on the pair
built from the singular value decomposition of M.
"""

from __future__ import annotations

import numpy as np

from . import workers
from .correlation_model import CorrelationSet
from .qubit_core import expectation_table


def angle_correlations_array(alpha: np.ndarray, alpha_prime: np.ndarray) -> np.ndarray:
    """Correlators (cos a, cos a', sin a, sin a') of the ideal configuration,
    as an (..., 4) array broadcast over ``alpha`` and ``alpha_prime``."""
    alpha, alpha_prime = np.broadcast_arrays(np.asarray(alpha, dtype=float),
                                             np.asarray(alpha_prime, dtype=float))
    return np.stack([np.cos(alpha), np.cos(alpha_prime),
                     np.sin(alpha), np.sin(alpha_prime)], axis=-1)


# ---------------------------------------------------------------------------
# Scan over Alice Bloch directions for an arbitrary state
# ---------------------------------------------------------------------------

_PAULIS = np.array([
    [[0.0, 1.0], [1.0, 0.0]],
    [[0.0, -1.0j], [1.0j, 0.0]],
    [[1.0, 0.0], [0.0, -1.0]],
])


def _directions(thetas, phis):
    t = np.asarray(thetas, dtype=float)
    p = np.asarray(phis, dtype=float)
    return np.stack([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)],
                    axis=-1)


def _scan_lhs(x1, y1, x2, y2):
    """Witness value |a1 + a2| + |a1 - a2| for the correlator pairs
    a = (x, y) of two directions with Bob's (B, B'); broadcasts."""
    # Two planes, not via f_value_array: a stacked (..., 4) array slows the
    # coarse scan by 1/3. Swapping the pairs keeps every bit, which
    # _coarse_maxima relies on: + commutes, x2 - x1 is the exact negation of
    # x1 - x2, and hypot ignores signs.
    return np.hypot(x1 + x2, y1 + y2) + np.hypot(x1 - x2, y1 - y2)


# Pairs in flight over all tasks of the coarse scan. Its memory is a few
# arrays of this size (256 KiB each) whatever the number of tasks; the whole
# pair grid at resolution 128 is 2 GiB each.
_SCAN_BLOCK = 2 ** 15

DEFAULT_BLOCH_RESOLUTION = 24
MAX_BLOCH_RESOLUTION = 128


def _fold_blocks(x, y, starts, rows):
    """Maxima of ``_scan_lhs`` over the upper-triangle blocks of rows
    s:s+rows and columns s: for each s in ``starts``, folded per direction
    into a length-N vector, -inf where no block reaches.

    May run on a pool thread, so it calls only NumPy and private helpers.
    """
    best = np.full(x.shape[0], -np.inf)
    for s in starts:
        block = _scan_lhs(x[s:s + rows, None], y[s:s + rows, None],
                          x[None, s:], y[None, s:])
        np.maximum(best[s:s + rows], block.max(axis=1), out=best[s:s + rows])
        np.maximum(best[s:], block.max(axis=0), out=best[s:])
    return best


def _coarse_maxima(x, y):
    """Maximum of ``_scan_lhs`` over the second direction for each first one.

    The pair value is symmetric, so each block of rows s:s+r meets only the
    columns s: of the upper triangle, and its column maxima stand in for the
    rows of the lower triangle. The block starts are dealt round-robin into
    one task per thread of ``workers.pool()``, at most ``workers.THREADS``;
    each task folds its blocks into its own vector and the vectors are
    combined with ``np.maximum``. Blocks hold ``_SCAN_BLOCK / tasks`` pairs,
    so all tasks together hold about ``_SCAN_BLOCK``, never the N^2 pairs.
    ``max`` is exact, so the result depends neither on the block size nor on
    the number of tasks or their scheduling.
    """
    n = x.shape[0]
    rows = max(1, _SCAN_BLOCK // (workers.THREADS * n))
    starts = range(0, n, rows)
    tasks = min(workers.THREADS, len(starts))
    if tasks == 1:
        return _fold_blocks(x, y, starts, rows)
    parts = workers.pool().map(_fold_blocks, [x] * tasks, [y] * tasks,
                               [starts[t::tasks] for t in range(tasks)],
                               [rows] * tasks)
    return np.maximum.reduce(list(parts))


def state_scan(rho: np.ndarray, bloch_resolution: int = DEFAULT_BLOCH_RESOLUTION):
    """Maximise the witness over Alice's two Bloch directions.

    Bob is fixed to the mutually unbiased z/x pair, so for Alice's unit
    directions n1, n2 the witness is |M(n1 + n2)| + |M(n1 - n2)| with M the
    2 x 3 correlation block. The sum s = n1 + n2 and difference d = n1 - n2
    are orthogonal with |s|^2 + |d|^2 = 4, so the witness is at most
    2 sqrt(s1^2 + s2^2) = 2 ||M||_F for the singular values s1 >= s2 of M
    (Ky Fan, then Cauchy-Schwarz). The bound is attained at s = 2 cos(t) v1,
    d = 2 sin(t) v2 with tan(t) = s2 / s1 and v1, v2 the right singular
    vectors. Returns that pair's ``CorrelationSet``, its witness value and the
    coarse grid of ``bloch_resolution`` polar by ``bloch_resolution``
    azimuthal first directions as a (``bloch_resolution``**2, 3) array: the
    polar and azimuthal angle of each, in radians, and its maximum over the
    second direction on the same grid.

    The grid has ``bloch_resolution``**4 direction pairs, so its time grows
    as the fourth power: ``bloch_resolution`` must lie between 4 and
    ``MAX_BLOCH_RESOLUTION`` (128: about 4.5 s on one x86-64 core, 2.5 s on
    two), else ``ValueError``. The pairs are split over the process-wide
    ``workers.pool()`` that the Monte Carlo also uses, with about
    ``_SCAN_BLOCK`` pairs in flight over all its threads; the coarse grid is
    bitwise the same for any number of cores.
    """
    if bloch_resolution < 4:
        raise ValueError("bloch_resolution must be at least 4")
    if bloch_resolution > MAX_BLOCH_RESOLUTION:
        raise ValueError(f"bloch_resolution must be at most {MAX_BLOCH_RESOLUTION}, "
                         f"got {bloch_resolution}")
    # Columns u_k = Tr[rho s_k x s_z], w_k = Tr[rho s_k x s_x].
    cols = expectation_table(rho, _PAULIS, _PAULIS[[2, 0]])

    thetas = np.linspace(0.0, np.pi, bloch_resolution)
    phis = 2.0 * np.pi * np.arange(bloch_resolution) / bloch_resolution
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    # Correlators of each direction with (B, B'), as contiguous x and y planes.
    x, y = np.ascontiguousarray((_directions(tt.ravel(), pp.ravel()) @ cols).T)
    coarse = np.stack([tt.ravel(), pp.ravel(), _coarse_maxima(x, y)], axis=-1)

    _, singular, vt = np.linalg.svd(cols.T)
    t = np.arctan2(singular[1], singular[0])
    n1 = np.cos(t) * vt[0] + np.sin(t) * vt[1]
    n2 = np.cos(t) * vt[0] - np.sin(t) * vt[1]
    a1 = n1 @ cols
    a2 = n2 @ cols
    correlations = CorrelationSet(ab=float(a1[0]), apb=float(a2[0]),
                                  abp=float(a1[1]), apbp=float(a2[1]))
    return correlations, float(_scan_lhs(a1[0], a1[1], a2[0], a2[1])), coarse
