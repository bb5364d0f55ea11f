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

import math

import numpy as np

from .correlation_model import CorrelationSet
from .qubit_core import expectation_table, validate_density


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
    # coarse scan by 1/3.
    return np.hypot(x1 + x2, y1 + y2) + np.hypot(x1 - x2, y1 - y2)


# Pairs in flight in one block of the coarse scan: a few arrays of this size
# (256 KiB each), where the whole pair grid at resolution 128 takes 2 GiB.
_SCAN_BLOCK = 2 ** 15

# Depth margin mu of the coarse scan's candidate rules, in units of the
# largest |b|; the proof in _candidates needs 1.2e-7, and more costs little.
_MARGIN = 2.0 ** -20
# Point sets within this many largest |b| of a line through the origin are
# scanned as a segment: up to here the segment rule keeps fewer points.
_THIN = 2.0 ** -9
# Directions of the inner polygon that shortlists the points near the hull.
_DIRECTIONS = 16
# Relative slack of the row screen in _row_maxima, whose proof needs 2^-47.
_SLACK = 2.0 ** -44

DEFAULT_BLOCH_RESOLUTION = 24
MAX_BLOCH_RESOLUTION = 128


def _root_sum_squares(p, q):
    """Overwrite ``p`` with sqrt(p*p + q*q), using ``q`` as scratch."""
    p *= p
    q *= q
    p += q
    np.sqrt(p, out=p)


def _row_maxima(rx, ry, cx, cy):
    """Maximum of ``_scan_lhs`` over the columns (cx, cy) for each row
    (rx, ry), in blocks of about ``_SCAN_BLOCK`` pairs, on points scaled as
    in ``_coarse_maxima``: every coordinate is below 1 and, unless every
    point is 0, some column lies at least 1/2 from the origin.

    Each block is first screened with sqrt(sx^2 + sy^2) + sqrt(dx^2 + dy^2)
    on the same sums s and differences d that ``_scan_lhs`` forms, a square
    root costing a tenth of a ``np.hypot``; only the columns whose screened
    value lies within ``_SLACK`` of the row's screened maximum get the exact
    value, about 2 per row. The result is bitwise the maximum over every
    column: the kept values are computed from the same operands as in the
    full scan, and ``max`` is exact.

    Proof that a column holding the exact maximum is kept. Fix a pair and
    let G = |s| + |d| in real arithmetic on the float sums. With unit
    roundoff u = 2^-53, a ``np.hypot`` of 1 ulp (2u) and the final sum (u)
    put the exact value E within 4u G of G. In the screen no square exceeds
    4, each square and the sum of two squares round by u, and a square below
    2^-1022 may also be off by an absolute 2^-1075, so the radicand is
    S^2 (1 + 2.01u) plus at most 2^-1073 in size; its square root is within
    1.01u relative and 2^-536 absolute of S, and after the root's and the
    sum's rounding the screened value V is within 4u G + 2^-535 of G. Write
    eta = 2^-49 = 16u, which also allows hypots of up to 7 ulp, and
    alpha = 2^-535. Let E_j be the largest exact value of the row and V_m
    its largest screened value. Then
    G_j >= E_j / (1 + eta) >= E_m / (1 + eta) >= G_m (1 - eta) / (1 + eta)
    and G_m >= (V_m - alpha) / (1 + eta), so
    V_j >= G_j (1 - eta) - alpha >= V_m (1 - 4 eta) - 2 alpha. A column b
    with |b| >= 1/2 gives every row G >= 2 |b| >= 1, so V_m > 1/2 and
    2 alpha < 2^-533 V_m. The threshold V_m (1 - ``_SLACK``) is lower:
    ``_SLACK`` = 2^-44 is 8 times 4 eta, which leaves room for 2^-533 and
    the threshold's own rounding. When every point is 0, every value is 0
    and every column is kept. Each row keeps its screened maximum, so no
    row is empty.
    """
    best = np.empty(rx.shape[0])
    rows = max(1, _SCAN_BLOCK // cx.shape[0])
    # Three block buffers for the whole call, so no block allocates its own.
    screen, diff, spare = (np.empty((min(rows, rx.shape[0]), cx.shape[0]))
                           for _ in range(3))
    for s in range(0, rx.shape[0], rows):
        bx, by = rx[s:s + rows, None], ry[s:s + rows, None]
        n = bx.shape[0]
        v, w, t = screen[:n], diff[:n], spare[:n]
        _root_sum_squares(np.add(bx, cx, out=v), np.add(by, cy, out=t))
        _root_sum_squares(np.subtract(bx, cx, out=w), np.subtract(by, cy, out=t))
        v += w
        threshold = v.max(axis=1) * (1.0 - _SLACK)
        i, j = np.nonzero(v >= threshold[:, None])
        exact = _scan_lhs(bx[i, 0], by[i, 0], cx[j], cy[j])
        best[s:s + n] = np.maximum.reduceat(exact, np.flatnonzero(np.diff(i, prepend=-1)))
    return best


def _vertices(x, y, indices, margin):
    """Coordinates of the polygon through the points ``indices``, in order,
    as two lists, less each point within ``margin`` in both coordinates of
    the last one kept or of the first: float orientation tests give the
    edge between two near-duplicate points an arbitrary direction."""
    vx, vy = [], []
    for i in indices:
        px, py = float(x[i]), float(y[i])
        if vx and max(abs(px - vx[-1]), abs(py - vy[-1])) <= margin:
            continue
        vx.append(px)
        vy.append(py)
    while len(vx) > 1 and max(abs(vx[-1] - vx[0]), abs(vy[-1] - vy[0])) <= margin:
        del vx[-1], vy[-1]
    return vx, vy


def _shallow(x, y, vx, vy, margin):
    """Mask of the points (x, y) that lie at most ``margin`` left of the line
    of some edge of the closed polygon through (vx, vy): every point but
    those at least ``margin`` deep inside a counter-clockwise polygon."""
    # Whole arrays, not the shrinking set still deep: NumPy keeps up to 7
    # freed buffers of each size under 1 KiB, and a new size at every edge
    # would grow that cache for good.
    keep = np.zeros(x.shape[0], dtype=bool)
    for k in range(len(vx)):
        px, py = vx[k - 1], vy[k - 1]
        ex, ey = vx[k] - px, vy[k] - py
        keep |= ex * (y - py) - ey * (x - px) <= margin * math.hypot(ex, ey)
    return keep


def _monotone_chain(x, y):
    """Positions in (x, y) of the convex hull's vertices, counter-clockwise,
    by Andrew's monotone chain (Inf. Proc. Lett. 9, 216 (1979)) in floats."""
    xs, ys = x.tolist(), y.tolist()
    # Sorted in Python: with np.lexsort here, 300 scans of random states
    # left 0.16 MB more of the heap in use.
    order = sorted(range(len(xs)), key=lambda k: (xs[k], ys[k]))

    def half(indices):
        chain = []
        for k in indices:
            while len(chain) >= 2:
                i, j = chain[-2], chain[-1]
                if (xs[j] - xs[i]) * (ys[k] - ys[i]) > (ys[j] - ys[i]) * (xs[k] - xs[i]):
                    break
                chain.pop()
            chain.append(k)
        return chain[:-1]

    return half(order) + half(order[::-1])


def _candidates(x, y):
    """Columns that hold every row maximum of ``_scan_lhs`` over the points
    b = (x, y), and the rows that need every column, as index arrays.

    Fix a row a and let g(b) = |a + b| + |a - b| be the exact pair value.
    Its float value is within a relative eta = 2^-49 of it: the coordinate
    sums (u, the unit roundoff), a hypot of 1 ulp (2u) and the final sum (u)
    make 4u, and eta = 16u allows hypots of up to 7 ulp. Every |a| and |b|
    is at most r, the largest |b| (to an ulp), so g <= 2 sqrt(|a|^2 + |b|^2)
    <= 2 sqrt(2) r. A column j can go from the row when a kept column k has
    g(b_k) (1 - eta) >= g(b_j) (1 + eta): its float value is then at least
    as large, and ``max`` returns the same bits without j.

    Hull rule. The level sets of g are ellipses with foci +-a. A unit n
    with n.(b + a) >= 0 and n.(b - a) >= 0 always exists (along the bisector
    of the two, or normal to both if they are opposite), and then
    g(b + delta n) >= sqrt(|b + a|^2 + delta^2) + sqrt(|b - a|^2 + delta^2)
    >= sqrt(g(b)^2 + 4 delta^2) by Minkowski's inequality. So if the disk
    of radius delta about b_j lies in the convex hull of the kept columns,
    some kept b_k has g(b_k) >= sqrt(g(b_j)^2 + 4 delta^2), since the
    convex g takes its maximum over the hull at a vertex. That beats the
    rounding whenever delta >= 1.0001 sqrt(eta) g(b_j), so for every
    g(b_j) <= 2 sqrt(2) r as soon as delta >= 1.2e-7 r. The margin
    mu = ``_MARGIN`` r = 9.5e-7 r covers that with room for the depth's own
    rounding error, a few dozen ulps of r. A point at least mu left of the
    line of every edge of a closed polygon through kept points is that deep
    in their hull: each point of the disk sees every edge turn
    counter-clockwise, so its winding number is at least 1, which no point
    outside the hull has. That holds for any closed polygon, so an inner
    polygon, or a float hull that is slightly off, keeps too many points but
    never too few. The inner polygon joins the extreme points in
    ``_DIRECTIONS`` directions, spread evenly once the point set is scaled
    to a disk; the points within mu of it or outside it are the shortlist,
    the monotone chain gives the shortlist's hull, and the points within mu
    of that hull or outside it are kept, with the inner polygon's vertices.
    A hull not much wider than mu, as of a rank-1 or near-rank-1 block,
    would keep nearly every point; such point sets take the segment rule.

    Segment rule. Let e be the direction of the farthest point, t = b.e and
    h the largest distance of a point from the line through 0 along e. On
    that line g = 2 max(|t_a|, |t_b|), constant for all b between -a and a,
    and moving a or b by d changes g by at most 2 |d|. With T the largest
    |t|, a point at the farther end gives row a at least 2 max(|t_a|, T)
    - 4h, while a column with |t_b| < T - 4h - mu gives a row with |t_a|
    < T - 4h - mu less than 2 (T - 4h - mu) + 4h. The gap 2 mu beats the
    rounding, as do the computed t and h, which are off by a few ulps of r.
    So the points within 4h + mu of an end are the columns, and the rows
    among them take every column. Few points are that close to an end when
    h is small, and the rule is used for h <= ``_THIN`` r.

    M = 0 makes every pair value 0, so one column does. Else the farthest
    point is a column, near an end and never mu deep in a polygon. On the
    points of ``_coarse_maxima``, 1/2 <= r < 2: nothing overflows, and an
    underflow's error, 2^-1075 at most, is far below mu.
    """
    n = x.shape[0]
    every = np.arange(n)
    radius = np.hypot(x, y)
    far = int(np.argmax(radius))
    r = float(radius[far])
    if r == 0.0:
        return every[:1], every[:0]
    mu = _MARGIN * r
    ex, ey = x[far] / r, y[far] / r
    along = x * ex + y * ey
    across = y * ex - x * ey
    h = float(np.abs(across).max())
    if h <= _THIN * r:
        ends = np.flatnonzero(np.abs(along) >= np.abs(along).max() - 4.0 * h - mu)
        return ends, ends
    extreme = [int(np.argmax(along * (math.cos(angle) / r)
                             + across * (math.sin(angle) / h)))
               for angle in 2.0 * math.pi * np.arange(_DIRECTIONS) / _DIRECTIONS]
    short = np.flatnonzero(_shallow(x, y, *_vertices(x, y, extreme, mu), mu))
    sx, sy = x[short], y[short]
    hull = _vertices(sx, sy, _monotone_chain(sx, sy), mu)
    keep = np.zeros(n, dtype=bool)
    keep[extreme] = True
    keep[short[_shallow(sx, sy, *hull, mu)]] = True
    return np.flatnonzero(keep), every[:0]


def _coarse_maxima(x, y):
    """Maximum of ``_scan_lhs`` over the second direction for each first one.

    The points are scaled by 2^-e, e the exponent of their largest
    coordinate, into [1/2, 1), the one range the helpers are proven on, and
    the maxima back by 2^e: sums and hypots commute with a power of two
    unless a value on either side is subnormal, so the bits are kept.

    For a fixed first direction the pair value is convex in the second
    one's correlators, so its maximum over the grid lies on the convex hull
    of the N points (x, y). ``_candidates`` keeps the points within a proven
    margin of that hull, or of the ends of a thin point set, whose rows then
    meet every point: a few hundred of the 16384 at resolution 128. Each
    row meets only those columns, in blocks of about ``_SCAN_BLOCK`` pairs
    on the calling thread, and ``_row_maxima`` takes the exact value only of
    the few near the row's screened maximum. The result is bitwise the
    maximum over all N columns: ``max`` is exact and each kept value is
    computed from the same operands in the same order as in the full scan.
    """
    e = math.frexp(max(np.abs(x).max(), np.abs(y).max()))[1]
    x, y = np.ldexp(x, -e), np.ldexp(y, -e)
    columns, full = _candidates(x, y)
    # Equal points, such as the grid's poles, give equal values: keep one.
    # A set, not np.unique, which imports numpy.ma (half a megabyte); sorted,
    # since the scan ran slower over the columns in set order.
    cx, cy = (np.array(c) for c in zip(*sorted(set(zip(x[columns].tolist(),
                                                       y[columns].tolist())))))
    best = _row_maxima(x, y, cx, cy)
    if full.size:
        best[full] = _row_maxima(x[full], y[full], x, y)
    return np.ldexp(best, e)


def state_scan(rho: np.ndarray, bloch_resolution: int = DEFAULT_BLOCH_RESOLUTION):
    """Maximise the witness over Alice's two Bloch directions of the
    two-qubit state ``rho``, which ``validate_density`` checks first.

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

    The grid has ``bloch_resolution``**4 direction pairs, but each first
    direction meets only the second ones near the hull of their correlator
    points (see ``_coarse_maxima``; every valid state takes that one path),
    so the time grows about as the square: ``bloch_resolution`` must lie
    between 4 and ``MAX_BLOCH_RESOLUTION`` (128: about 0.1 s of scan on one
    core of a 2-core x86-64 Xeon host), else ``ValueError``. The scan runs
    on the calling thread with about ``_SCAN_BLOCK`` pairs in flight.
    """
    rho = validate_density(rho)
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
