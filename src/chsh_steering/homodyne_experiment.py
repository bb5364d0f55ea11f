"""Split-single-photon experiment model with sign-binned homodyne readout.

A single photon shared over two modes is, within the zero/one-photon
subspace, a two-qubit state in the Fock basis {|0>, |1>} per mode (index 0 is
the vacuum). Each party measures a quadrature and keeps only the sign of the
outcome. For such a mode the measurement density is a Gaussian envelope times
a quadratic polynomial in the outcome; binning by sign turns it into the
effect pair

    E_pm = (1 pm sqrt(2 eta / pi) sigma_phi) / 2,

where sigma_phi flips |0> and |1> with phase phi and eta is the detector
efficiency. Every correlator with a trusted party using these effects equals
gamma = sqrt(2 eta / pi) times the projective-measurement correlator, so the
steering bound for the raw data is 2*gamma instead of 2.

Efficiency enters the continuous outcome as Gaussian smoothing; convolving
the ideal single-photon measurement density with that noise kernel gives the
widened envelope exp(-eta x^2 / 2). In the scaled quadrature u = sqrt(eta) x
that envelope is the standard normal phi(u) at every efficiency, so
``homodyne_pdf`` and the Monte Carlo sampler below write the density as
phi(u) times one quadratic operator polynomial in u.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .correlation_model import CorrelationSet
from .qubit_core import (
    IDENTITY2,
    expectation_table,
    quantum_correlator,
    validate_density,
)
from .steering_witness import (
    BOUNDARY,
    CANONICAL_CHSH_INDEX,
    VERDICT_TOL,
    VIOLATED,
    chsh_values,
    steering_inequality,
    verdict,
)

STEERING = "steering"
NO_STEERING = "no_steering"

DEFAULT_GRID_CELLS = 4096
DEFAULT_SPAN = 6.0
# Largest Monte Carlo sample count per setting pair: about 55 s at 0.05 s per
# 1e6 per pair (measured at 1e7 on a 2-core x86-64 Xeon); larger counts would
# run for minutes to hours.
MAX_MC_SAMPLES = 2 ** 30
# Rows of uniforms drawn and mapped per step of the Monte Carlo loop; bounds
# the working set (one block per setting pair in flight) without changing the
# Philox stream or the result.
_MC_BLOCK = 1 << 15

# Standard quadrature phases of the experiment: Alice measures x and p, Bob
# the rotated pair (x-p)/sqrt(2) and (x+p)/sqrt(2).
ALICE_PHASES = (0.0, np.pi / 2.0)
BOB_PHASES = (-np.pi / 4.0, np.pi / 4.0)


@dataclass(frozen=True)
class SinglePhotonState:
    """Photon split with amplitude angle ``theta`` (radians), kept with
    probability ``p1`` (vacuum otherwise)."""

    theta: float
    p1: float

    def __post_init__(self):
        if not np.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta}")
        if not 0.0 <= self.p1 <= 1.0:
            raise ValueError(f"p1 must lie in [0, 1], got {self.p1}")


def state_density(state: SinglePhotonState) -> np.ndarray:
    """Two-qubit density matrix of the (possibly lost) split photon."""
    psi = np.zeros(4, dtype=complex)
    psi[1] = np.cos(2.0 * state.theta)   # |0>_A |1>_B
    psi[2] = -np.sin(2.0 * state.theta)  # |1>_A |0>_B
    rho = state.p1 * np.outer(psi, psi.conj())
    rho[0, 0] += 1.0 - state.p1
    return validate_density(rho)


def sigma_phi(phi: float) -> np.ndarray:
    """Phase-phi flip operator e^{i phi}|0><1| + e^{-i phi}|1><0|."""
    return np.array([[0.0, np.exp(1j * phi)], [np.exp(-1j * phi), 0.0]])


def _check_eta(eta: float) -> None:
    """Reject a detector efficiency outside (0, 1], NaN included."""
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must lie in (0, 1], got {eta}")


def gamma(eta: float) -> float:
    """Correlation shrink factor sqrt(2 eta / pi) of a sign-binned homodyne
    with efficiency ``eta`` in (0, 1], else ``ValueError``."""
    _check_eta(eta)
    return float(np.sqrt(2.0 * eta / np.pi))


def _check_phase(phi: float) -> None:
    """Reject a non-finite phase, which would turn every effect into NaN."""
    if not np.isfinite(phi):
        raise ValueError(f"phase must be finite, got {phi}")


def homodyne_effects(phi: float, eta: float):
    """Sign-binned effect pair (E_plus, E_minus) at phase ``phi``; a
    non-finite ``phi`` raises ``ValueError``."""
    _check_phase(phi)
    g = gamma(eta)
    half = 0.5 * g * sigma_phi(phi)
    eye = 0.5 * np.eye(2, dtype=complex)
    return eye + half, eye - half


def experiment_correlations(state: SinglePhotonState, eta_alice: float,
                            eta_bob: float) -> CorrelationSet:
    """Exact sign-binned correlators of the split photon at the experiment's
    phases."""
    rho = state_density(state)
    alice = [homodyne_effects(phi, eta_alice)[0] for phi in ALICE_PHASES]
    bob = [homodyne_effects(phi, eta_bob)[0] for phi in BOB_PHASES]
    # Correlator order (AB, A'B, AB', A'B'): Alice's setting varies fastest.
    return CorrelationSet(*(quantum_correlator(rho, a, b) for b in bob for a in alice))


@dataclass(frozen=True)
class ExperimentReport:
    """Steering adjudication of measured sign-binned correlations."""

    gamma: float
    corrected_bound: float
    steering_lhs: float
    chsh_s: float
    verdict: str


def _report(lhs: float, chsh_s: float, eta_bob: float, tol: float) -> ExperimentReport:
    """The report on a steering left-hand side ``lhs`` against the
    efficiency-corrected bound 2*gamma(eta_bob)."""
    g = gamma(eta_bob)
    v = verdict(lhs, 2.0 * g, tol)
    return ExperimentReport(
        gamma=g,
        corrected_bound=2.0 * g,
        steering_lhs=lhs,
        chsh_s=chsh_s,
        verdict={VIOLATED: STEERING, BOUNDARY: BOUNDARY}.get(v, NO_STEERING),
    )


def adjudicate(c: CorrelationSet, eta_bob: float,
               tol: float = VERDICT_TOL) -> ExperimentReport:
    """Compare the steering left-hand side against the efficiency-corrected
    bound 2*gamma(eta_bob)."""
    lhs, _ = steering_inequality(c)
    return _report(lhs, chsh_values(c)[CANONICAL_CHSH_INDEX], eta_bob, tol)


def adjudicate_reported(s_max: float, eta_bob: float,
                        tol: float = VERDICT_TOL) -> ExperimentReport:
    """Adjudicate a reported CHSH S value under the equal-magnitude reduction.

    When the four correlators share one magnitude with the usual sign
    pattern, the steering left-hand side collapses to the CHSH S itself, so
    the reported S can be compared directly against 2*gamma.
    """
    if not 0.0 <= s_max <= 2.0 * np.sqrt(2.0):
        raise ValueError(f"s_max must lie in [0, 2*sqrt(2)], got {s_max}")
    return _report(float(s_max), float(s_max), eta_bob, tol)


# ---------------------------------------------------------------------------
# Continuous-outcome model and Monte Carlo sampling
# ---------------------------------------------------------------------------

# Moments of the standard normal density phi(v) against (1, v, v^2), over
# v < 0 and over the whole line: Bob's masses below 0 and in all.
_MOMENTS_BELOW_0 = np.array([0.5, -1.0 / math.sqrt(2.0 * math.pi), 0.5])
_MOMENTS = np.array([1.0, 0.0, 1.0])


def _envelope(u):
    """The standard normal density phi(u)."""
    return np.exp(-0.5 * np.asarray(u) ** 2) / math.sqrt(2.0 * math.pi)


def _u_operators(phi: float, eta: float):
    """Operator coefficients of (1, u, u^2) in the outcome density of the
    scaled quadrature u = sqrt(eta) x, which is phi(u) times their traces."""
    _check_eta(eta)
    g0 = np.array([[1.0, 0.0], [0.0, 1.0 - eta]], dtype=complex)
    g1 = math.sqrt(eta) * sigma_phi(phi)
    g2 = np.array([[0.0, 0.0], [0.0, eta]], dtype=complex)
    return g0, g1, g2


def homodyne_pdf(rho: np.ndarray, phi: float, eta: float, x):
    """Outcome density of one inefficient homodyne on a single-mode state.

    Accepts scalar or array ``x``; integrates to 1 over the real line. A
    non-finite phase or outcome raises ``ValueError``; every finite outcome
    has a finite density, 0 where the envelope underflows.
    """
    rho = validate_density(rho, dim=2)
    _check_phase(phi)
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("homodyne outcome x must be finite")
    c0, c1, c2 = (float(np.trace(rho @ g).real) for g in _u_operators(phi, eta))
    # phi(u) is already 0 at |u| = 64, where u * u is still finite.
    root = math.sqrt(eta)
    u = np.clip(root * x, -64.0, 64.0)
    result = root * _envelope(u) * (c0 + c1 * u + c2 * u * u)
    return result if result.ndim else float(result)


@dataclass(frozen=True)
class MonteCarloCorrelations:
    """Empirical sign-binned correlators with their standard errors."""

    correlations: CorrelationSet
    std_errors: tuple[float, float, float, float]
    n_samples: int
    seed: int


def _sampler_tables(rho: np.ndarray, eta_alice: float, eta_bob: float):
    """The arguments ``_positive_products`` takes after ``u``, one tuple
    ``(grid, cdf_a, below, total, t_true, t_false, b_right)`` per setting
    pair in correlator order (AB, A'B, AB', A'B').

    Both outcomes are taken in their scaled quadratures, where the envelope
    is phi at every efficiency, so one grid of ``DEFAULT_GRID_CELLS`` cells
    over [-``DEFAULT_SPAN``, ``DEFAULT_SPAN``] serves every efficiency. What
    depends on Alice alone is built once per Alice phase and shared by its
    two pairs: ``cdf_a``, ``total``, Bob's total mass, which is her
    marginal, and ``b_right``. ``below`` and the thresholds are per pair:
    its ``_cell_thresholds`` bounded over each uniform bucket by
    ``_bucket_thresholds``.
    """
    # Bob's identity in the last column gives Alice's marginal, the same
    # bits at either Bob phase.
    alice_ops = [_u_operators(phi, eta_alice) for phi in ALICE_PHASES]
    bob_ops = [(*_u_operators(phi, eta_bob), IDENTITY2) for phi in BOB_PHASES]
    tables = [expectation_table(rho, a, b) for b in bob_ops for a in alice_ops]

    grid = np.linspace(-DEFAULT_SPAN, DEFAULT_SPAN, DEFAULT_GRID_CELLS + 1)
    # Even cell count: the middle knot is 0, which the sign-only sampler
    # relies on. linspace can leave it a few ulps off, so pin it.
    grid[DEFAULT_GRID_CELLS // 2] = 0.0
    powers = np.stack([np.ones_like(grid), grid, grid * grid])
    # As many uniform buckets as cells, rounded up to a power of two so that
    # the bucket edges b / B and the kernel's floor(u * B) are exact.
    buckets = 1 << (DEFAULT_GRID_CELLS - 1).bit_length()

    env = _envelope(grid)
    pairs = [None] * len(tables)
    for a, table in enumerate(tables[:len(ALICE_PHASES)]):
        pdf_a = np.maximum(env * (table[:, 3] @ powers), 0.0)
        cdf_a = _cumtrapz(pdf_a, grid[1] - grid[0])
        cdf_a /= cdf_a[-1]
        # Bob's total mass given x takes only his g0 + g2, his identity at
        # either phase, so one per Alice phase serves both of its pairs.
        total = table[:, :3] @ _MOMENTS
        own = range(a, len(tables), len(ALICE_PHASES))
        below = [tables[i][:, :3] @ _MOMENTS_BELOW_0 for i in own]
        cells = _cell_thresholds(grid, powers, below, total)
        *bounds, b_right = _bucket_thresholds(_guide_table(cdf_a, buckets), *cells)
        for i, row, t_true, t_false in zip(own, below, *bounds):
            pairs[i] = grid, cdf_a, row, total, t_true, t_false, b_right
    return pairs


# Rounding pad of the cell thresholds, relative to a quadratic's term scale
# |c0| + |c1| Y + |c2| Y^2 over the grid (see ``_cell_thresholds``).
_ROUNDING_PAD = 2.0 ** -46


def _cell_thresholds(grid: np.ndarray, powers: np.ndarray, below, total):
    """For the pairs of one Alice phase, the uniforms ``t_true[:, k]`` and
    ``t_false[:, k]`` per grid cell ``k``: for every float x the kernel can
    interpolate in cell ``k``, ``u2 >= t_true[:, k]`` makes its comparison
    ``mass_below <= u2 * mass`` True and ``u2 <= t_false[:, k]`` makes it
    False, so ``_positive_products`` need not compute x.

    ``below`` holds each pair's coefficients in (1, x, x^2), ``total`` the
    phase's, and ``powers`` is (1, grid, grid^2). Both are Bob's masses:
    nonnegative up to a few ulps of rounding, with coefficients far below
    2^100. Returns ``(t_true, t_false)``, one row per pair.

    Why. In cell ``k`` the kernel's x is ``grid[k]`` plus an offset. The
    offset is nonnegative, as ``u1 >= cdf_a[k]`` and each of its four float
    operations is monotone in ``u1``, and at most (1 + eps)^3 times the cell
    width, as ``u1 < cdf_a[k + 1]`` (eps = 2^-53). So x lies in ``[grid[k],
    grid[k + 1] + delta]`` with ``delta <= 4 eps (H + |grid[k + 1]|)``, H
    the largest cell width. On ``[grid[k], grid[k + 1]]`` a quadratic lies
    within its two knot values widened by ``|c2| H^2 / 4``, the vertex's
    reach. Against its term scale ``S = |c0| + |c1| Y + |c2| Y^2``, with ``Y
    = max |grid| + H``, ``delta`` moves it by at most 8 eps S, the kernel's
    Horner rule by gamma_4 ~ 4 eps S, and the knot values and sums here by
    about 7 eps S. ``_ROUNDING_PAD`` (128 eps) of S plus 2^-900 covers all
    of it: every value the kernel computes lies inside ``[lo, hi]`` with a
    margin of over 100 eps S + 2^-901 (``bhi``, ``blo`` for ``below``,
    ``thi``, ``tlo`` for ``total``), so ``bhi`` and ``thi`` exceed 2^-901.
    The quotients round by a relative eps, or by 2^-1075 if subnormal, far
    inside that margin. Where ``tlo > 0``, ``u2 >= t_true = bhi / tlo``
    thus gives ``u2 * mass > mass_below`` in real numbers, and rounding is
    monotone, so ``fl(u2 * mass) >= mass_below``. ``u2 <= t_false = blo /
    thi`` leaves ``u2 * mass`` below ``mass_below`` by more than its
    rounding, so ``fl(u2 * mass) < mass_below``. A ``tlo`` below 2^-902 is
    raised to it, which makes ``t_true`` above 1: no uniform is that large.
    In cell ``mid - 1`` the offset can round up to the whole width and x to
    0, so the sign of x is not known from ``k``: both thresholds there are
    infinite, and its rows are always computed.
    """
    step = np.diff(grid).max()
    reach = np.abs(grid).max() + step
    weights = np.array([_ROUNDING_PAD, _ROUNDING_PAD * reach,
                        _ROUNDING_PAD * reach * reach + 0.25 * step * step])
    mid = grid.shape[0] // 2
    coefficients = np.stack([*below, total])
    pad = np.abs(coefficients) @ weights
    pad += 2.0 ** -900
    values = coefficients @ powers
    t_true = np.maximum(values[:-1, :-1], values[:-1, 1:])
    t_true += pad[:-1, None]
    t_false = np.minimum(values[:-1, :-1], values[:-1, 1:])
    t_false -= pad[:-1, None]
    tlo = np.minimum(values[-1, :-1], values[-1, 1:])
    tlo -= pad[-1]
    np.maximum(tlo, 2.0 ** -902, out=tlo)
    thi = np.maximum(values[-1, :-1], values[-1, 1:])
    thi += pad[-1]
    t_true /= tlo
    t_false /= thi
    t_true[:, mid - 1] = np.inf
    t_false[:, mid - 1] = -np.inf
    return t_true, t_false


def _bucket_thresholds(guide: np.ndarray, t_true: np.ndarray, t_false: np.ndarray):
    """The cell thresholds ``t_true`` and ``t_false`` (one row per pair, one
    column per cell) bounded over each of the ``B`` uniform buckets of
    ``guide``, the ``_guide_table`` of their inverse CDF, and ``b_right``,
    the first bucket whose cells all lie at or right of the middle knot:
    ``(t_true_b, t_false_b, b_right)``, the first two one row per pair and
    one column per bucket.

    A uniform ``u1`` in bucket ``b``, ``b / B <= u1 < (b + 1) / B``, has its
    knot ``k``, the last with ``cdf_a[k] <= u1``, between ``guide[b]`` and
    ``guide[b + 1]``, and at most ``g - 2`` as ``u1 < 1 = cdf_a[-1]``. So
    the largest ``t_true`` and the smallest ``t_false`` over cells ``guide[b]
    .. min(guide[b + 1], g - 2)`` decide every row of the bucket that either
    decides in its own cell. Buckets spanning cell ``mid - 1`` take its
    infinite thresholds. Most buckets span one or two cells and take their
    bounds from the two ends; the interior of the few spanning more, in the
    tails, is reduced at once.
    """
    lo = guide[:-1]
    hi = np.minimum(guide[1:], t_true.shape[-1] - 1)
    wide = np.flatnonzero(hi - lo > 1)
    # Pairs of (first interior cell, last cell) of each wide bucket: the
    # even reduceat slots are the interiors, the odd ones are discarded.
    inner = np.stack([lo[wide] + 1, hi[wide]], axis=1).ravel()
    bounds = []
    for cells, bound in ((t_true, np.maximum), (t_false, np.minimum)):
        per_bucket = bound(cells.take(lo, axis=1), cells.take(hi, axis=1))
        interior = bound.reduceat(cells, inner, axis=1)[:, ::2]
        per_bucket[:, wide] = bound(per_bucket[:, wide], interior)
        bounds.append(per_bucket)
    # Knot mid = G // 2 is 0: a bucket lies right of it when guide[b] is at
    # least mid.
    b_right = int(np.searchsorted(guide, t_true.shape[-1] // 2))
    return (*bounds, b_right)


def _guide_table(cdf: np.ndarray, buckets: int) -> np.ndarray:
    """Index of the last knot ``j`` with ``cdf[j] <= i / B``, for ``i = 0 ..
    B`` with ``B = buckets`` a power of two (Chen & Asau's guide table for
    an inverse CDF).

    Knot ``j`` is at or below edge ``i`` exactly when ``i >= ceil(cdf[j] *
    B)``; with ``B`` a power of two that product is exact, so counting knots
    per first edge and summing equals ``searchsorted(cdf, arange(B + 1) / B,
    side="right") - 1`` for a nondecreasing ``cdf`` in [0, 1] with ``cdf[0]
    == 0``.
    """
    first_edge = np.ceil(cdf * buckets).astype(np.intp)
    return np.cumsum(np.bincount(first_edge, minlength=buckets + 1)) - 1


def _cumtrapz(f: np.ndarray, dx: float) -> np.ndarray:
    out = np.zeros_like(f)
    np.cumsum((f[1:] + f[:-1]) * (0.5 * dx), out=out[1:])
    return out


def _positive_products(u, grid, cdf_a, below, total, t_true, t_false, b_right):
    """Where sign(x) * sign(y) = +1 for scaled quadrature pairs drawn by
    inverse CDF.

    ``u`` is (n, 2) uniforms in [0, 1); ``grid`` the quadrature abscissae,
    with 0 at the middle knot; ``cdf_a`` the normalised CDF of the first
    party's marginal on the grid; ``below`` and ``total`` the coefficients
    in (1, x, x^2) of the second party's unnormalised mass below y = 0 and
    in all, given x; ``t_true``, ``t_false`` and ``b_right`` their
    ``_bucket_thresholds`` over ``B = len(t_true)`` buckets.

    x is interpolated from ``cdf_a`` at the knot ``k`` that
    ``searchsorted(cdf_a, u, side="right") - 1`` gives. As ``cdf_a[0] = 0 <=
    u < 1 = cdf_a[-1]``, ``0 <= k <= g - 2`` and ``cdf_a[k + 1] > u``: no
    cell drawn is empty. y is never located: its conditional CDF is
    nondecreasing, so y >= 0 exactly when the mass below 0 is at most the
    share ``u[:, 1]`` of the total.

    The bucket ``b = floor(u * B)`` alone decides most rows, with the bits
    that computing x and the quadratics would give; ``B`` is a power of
    two, so ``u * B`` is exact. x is ``grid[k]`` plus a nonnegative offset
    and stays below ``grid[k + 1] + delta`` (see ``_cell_thresholds``), and
    the middle knot ``mid`` is exactly 0, so x >= 0 for every ``k >= mid``
    and x < 0 for every ``k <= mid - 2``, where ``delta`` is far below
    ``|grid[k + 1]| >= H``. Every ``k`` of bucket ``b`` is at least ``mid``
    when ``b >= b_right``. Otherwise the bucket's cells start below ``mid``,
    so either all of them lie at or below ``mid - 2`` or they include cell
    ``mid - 1``, whose infinite thresholds the bucket takes: its rows are
    always computed. A row with ``u2 >= t_true[b]`` or ``u2 <= t_false[b]``
    takes its comparison from that test, as each bucket bound is at least
    as strict as the bound of the row's own cell; both cannot hold, as each
    is exact. k, x and the two quadratics are computed for the other rows
    only. Returns an (n,) bool array.
    """
    u1, u2 = u[:, 0], u[:, 1]
    b = (u1 * t_true.shape[0]).astype(np.intp)
    yes = u2 >= t_true[b]
    positive = (b >= b_right) == yes
    rows = np.flatnonzero(yes == (u2 <= t_false[b]))
    u1, u2 = u1[rows], u2[rows]
    k = np.searchsorted(cdf_a, u1, side="right") - 1
    x = grid[k] + (u1 - cdf_a[k]) * (grid[k + 1] - grid[k]) / (cdf_a[k + 1] - cdf_a[k])
    mass_below = below[0] + x * (below[1] + x * below[2])
    mass = total[0] + x * (total[1] + x * total[2])
    positive[rows] = (x >= 0.0) == (mass_below <= u2 * mass)
    return positive


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# Threads each Monte Carlo call samples on: one per core in this process's
# CPU affinity, at most four. It caps the sampling blocks in flight; each call
# opens its own pool of this size and closes it before it returns.
_THREADS = min(4, _usable_cores())


def _count_positive(arrays, seed: np.random.SeedSequence, n_samples: int) -> int:
    """Number of +1 sign products in ``n_samples`` draws for one pair.

    Runs on a worker thread of ``monte_carlo_correlations``, so it calls only
    NumPy, which releases the interpreter lock, and private helpers, never a
    public function of the package.
    Consecutive draws continue one stream, so blocks reproduce a single
    (n_samples, 2) draw.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    plus = 0
    for start in range(0, n_samples, _MC_BLOCK):
        u = rng.random((min(_MC_BLOCK, n_samples - start), 2))
        plus += int(np.count_nonzero(_positive_products(u, *arrays)))
    return plus


def monte_carlo_correlations(state: SinglePhotonState, eta_alice: float,
                             eta_bob: float, n_samples: int,
                             seed: int) -> MonteCarloCorrelations:
    """Estimate the four correlators by sampling quadrature outcome pairs at
    the experiment's phases with efficiencies ``eta_alice`` and ``eta_bob``.

    Per setting pair, the first scaled outcome u = sqrt(eta_alice) x is
    drawn from its marginal by inverse CDF on a grid of
    ``DEFAULT_GRID_CELLS`` cells over [-``DEFAULT_SPAN``, ``DEFAULT_SPAN``],
    the same at every efficiency; the correlator is the mean sign product,
    so of the second outcome only the sign is resolved, by comparing Bob's
    mass below 0 with his total mass, two quadratics in u whose
    coefficients are exact moments of the standard normal. An efficiency
    outside (0, 1] raises ``ValueError``, as does an ``n_samples`` outside
    [1, ``MAX_MC_SAMPLES``]. The bucket of the first uniform, one of as many
    equal buckets as the grid has cells, decides most sign products: the
    sign of u is the side of the middle knot that the bucket's cells lie
    on, and two thresholds per bucket on the second uniform settle Bob's
    comparison. u, found by a binary search of the inverse CDF, and the two
    quadratics are computed only for the rest, about 0.3 % of draws at the
    default grid, so every count is the one that computing each draw
    gives. Streams are counter-based (Philox) and spawned per pair, so
    results are reproducible for a fixed seed and the per-pair sampling is
    a pure elementwise map of its uniforms (shards over sample ranges merge
    deterministically). The tables are built once per call: one grid; one
    inverse CDF and total mass per Alice phase; Bob's mass below 0 and the
    bucket thresholds per pair. The four pairs are sampled
    concurrently on a pool that the call opens with one thread per core in
    this process's CPU affinity, at most four, and closes before it returns;
    each pair's exact count of +1 products does not depend on the
    scheduling, so neither does the result.
    """
    if not 1 <= n_samples <= MAX_MC_SAMPLES:
        raise ValueError(f"n_samples must lie in [1, {MAX_MC_SAMPLES}], got {n_samples}")
    rho = state_density(state)
    children = np.random.SeedSequence(seed).spawn(4)
    tables = _sampler_tables(rho, eta_alice, eta_bob)
    # Imported here: it would add several ms to every CLI start-up.
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(_THREADS, thread_name_prefix="chsh-worker") as pool:
        counts = list(pool.map(_count_positive, tables, children, [n_samples] * 4))
    means = []
    errors = []
    for plus in counts:
        mean = (2 * plus - n_samples) / n_samples
        means.append(mean)
        errors.append(float(np.sqrt(max(1.0 - mean * mean, 0.0) / n_samples)))
    return MonteCarloCorrelations(
        correlations=CorrelationSet(*means),
        std_errors=tuple(errors),
        n_samples=n_samples,
        seed=seed,
    )
