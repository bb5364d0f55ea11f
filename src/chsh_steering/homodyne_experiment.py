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
import operator
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
# Largest Monte Carlo sample count per setting pair: 40-50 s on a 2-core x86-64
# Xeon, where 4 x 1e7 samples take 0.37-0.45 s; larger counts run for minutes.
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
    over [-``DEFAULT_SPAN``, ``DEFAULT_SPAN``] serves every efficiency.
    ``cdf_a``, ``total`` (Bob's total mass, which is Alice's marginal) and
    ``b_right`` depend on Alice alone, so the two pairs of an Alice phase
    share them; ``below`` and the ``_interval_thresholds`` are per pair.
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
    starts = np.arange(buckets) / buckets

    env = _envelope(grid)
    pairs = [None] * len(tables)
    for a, table in enumerate(tables[:len(ALICE_PHASES)]):
        pdf_a = np.maximum(env * (table[:, 3] @ powers), 0.0)
        cdf_a = _cumtrapz(pdf_a, grid[1] - grid[0])
        cdf_a /= cdf_a[-1]
        edges = np.append(_inverse_cdf(starts, grid, cdf_a), grid[-1])
        # Bob's total mass given x takes only his g0 + g2, his identity at
        # either phase, so one per Alice phase serves both of its pairs.
        total = table[:, :3] @ _MOMENTS
        own = range(a, len(tables), len(ALICE_PHASES))
        below = [tables[i][:, :3] @ _MOMENTS_BELOW_0 for i in own]
        *bounds, b_right = _interval_thresholds(grid, edges, below, total)
        for i, row, t_true, t_false in zip(own, below, *bounds):
            pairs[i] = grid, cdf_a, row, total, t_true, t_false, b_right
    return pairs


# Rounding pad of the bucket thresholds, relative to a quadratic's term scale
# |c0| + |c1| Y + |c2| Y^2 over the grid (see ``_interval_thresholds``).
_ROUNDING_PAD = 2.0 ** -46


def _interval_thresholds(grid: np.ndarray, edges: np.ndarray, below, total):
    """Per uniform bucket ``b`` of one Alice phase's pairs, the uniforms
    ``t_true[:, b]`` and ``t_false[:, b]``: for every x the kernel can draw
    in bucket ``b``, ``u2 >= t_true`` makes its comparison ``mass_below <=
    u2 * mass`` True and ``u2 <= t_false`` makes it False. Returns
    ``(t_true, t_false, b_right)``, one row per pair, ``b_right`` the first
    bucket whose every x is at least 0. ``edges[b]`` is the kernel's x at
    ``u1 = b / B`` for each of the ``B`` buckets, and ``edges[B] =
    grid[-1]``. ``below`` holds each pair's coefficients in (1, x, x^2) and
    ``total`` the phase's: Bob's masses, nonnegative up to a few ulps, with
    coefficients far below 2^100.

    Why. In cell ``k`` the kernel's x is ``grid[k]`` plus an offset,
    nondecreasing in ``u1`` (four monotone float operations) and at most
    (1 + eps)^3 times the cell width (eps = 2^-53), so x <= grid[k + 1] +
    delta with delta <= 4 eps (H + |grid[k + 1]|), H the largest cell
    width. So x(u1) <= x(u1') + delta for u1 <= u1', and a draw of bucket
    b has x in [edges[b] - delta, edges[b + 1] + delta]. On [edges[b],
    edges[b + 1]], of width W_b, a quadratic lies within its end values
    widened by |c2| W_b^2 / 4, the vertex's reach. Against its term scale S
    = |c0| + |c1| Y + |c2| Y^2, Y = max |grid| + H, delta moves it by at
    most 8 eps S, the kernel's Horner rule by gamma_4 ~ 4 eps S, and the
    end values and sums here by about 7 eps S. ``_ROUNDING_PAD`` (128 eps)
    of S plus 2^-900 covers it all: every value the kernel computes lies in
    ``[lo, hi]`` with a margin of over 100 eps S + 2^-901, far more than
    the quotients' rounding (a relative eps, or 2^-1075 if subnormal).
    Where total's ``lo > 0``, ``u2 >= t_true``, below's ``hi`` over total's
    ``lo``, thus gives ``u2 * mass > mass_below`` in real numbers, and
    rounding is monotone, so ``fl(u2 * mass) >= mass_below``; ``u2 <=
    t_false``, below's ``lo`` over total's ``hi``, leaves ``u2 * mass``
    below ``mass_below`` by more than its rounding. A total ``lo`` under
    2^-902 is raised to it, which puts ``t_true`` above every uniform.

    Sign. Knot ``mid`` is 0 and delta is far below H. Once x >= 0, every
    larger uniform's x is too: in the same cell by monotony, and in a later
    cell as the first cell's upper knot, within delta of that x, is at
    least 0. So the edges below 0 come first, and from bucket ``b_right`` on
    every x >= 0. Left of it, a bucket whose right edge is at most
    ``grid[mid - 1]`` has every x < 0; the rest, whose x can fall either
    side of 0, take infinite thresholds, so their rows are always computed.
    """
    reach = np.abs(grid).max() + np.diff(grid).max()
    coefficients = np.stack([*below, total])
    scale = np.abs(coefficients) @ (_ROUNDING_PAD * np.array([1.0, reach, reach * reach]))
    pad = np.multiply.outer(0.25 * np.abs(coefficients[:, 2]), np.diff(edges) ** 2)
    pad += (scale + 2.0 ** -900)[:, None]
    values = coefficients @ np.stack([np.ones_like(edges), edges, edges * edges])
    hi = np.maximum(values[:, :-1], values[:, 1:])
    hi += pad
    lo = np.minimum(values[:, :-1], values[:, 1:])
    lo -= pad
    np.maximum(lo[-1], 2.0 ** -902, out=lo[-1])
    t_true, t_false = hi[:-1], lo[:-1]
    t_true /= lo[-1]
    t_false /= hi[-1]
    unknown = np.flatnonzero((edges[:-1] < 0.0) & (edges[1:] > grid[grid.shape[0] // 2 - 1]))
    t_true[:, unknown] = np.inf
    t_false[:, unknown] = -np.inf
    return t_true, t_false, int(np.count_nonzero(edges < 0.0))


def _cumtrapz(f: np.ndarray, dx: float) -> np.ndarray:
    out = np.zeros_like(f)
    np.cumsum((f[1:] + f[:-1]) * (0.5 * dx), out=out[1:])
    return out


def _inverse_cdf(u, grid, cdf_a):
    """x at the uniforms ``u`` in [0, 1), interpolated from ``cdf_a``, the
    normalised CDF on ``grid``, at the knot ``k`` that ``searchsorted(cdf_a,
    u, side="right") - 1`` gives. As ``cdf_a[0] = 0 <= u < 1 = cdf_a[-1]``,
    ``0 <= k <= g - 2`` and ``cdf_a[k + 1] > u``: no cell drawn is empty."""
    k = np.searchsorted(cdf_a, u, side="right") - 1
    return grid[k] + (u - cdf_a[k]) * (grid[k + 1] - grid[k]) / (cdf_a[k + 1] - cdf_a[k])


def _positive_products(u, grid, cdf_a, below, total, t_true, t_false, b_right):
    """Where sign(x) * sign(y) = +1 for scaled quadrature pairs drawn by
    inverse CDF.

    ``u`` is (n, 2) uniforms in [0, 1); ``grid`` the quadrature abscissae,
    with 0 at the middle knot; ``cdf_a`` the normalised CDF of the first
    party's marginal on the grid; ``below`` and ``total`` the coefficients
    in (1, x, x^2) of the second party's unnormalised mass below y = 0 and
    in all, given x; ``t_true``, ``t_false`` and ``b_right`` their
    ``_interval_thresholds`` over ``B = len(t_true)`` buckets.

    x is the ``_inverse_cdf`` of ``u[:, 0]``. y is never located: its
    conditional CDF is nondecreasing, so y >= 0 exactly when the mass below
    0 is at most the share ``u[:, 1]`` of the total. The bucket ``b =
    floor(u * B)``, exact as ``B`` is a power of two, alone decides most
    rows: where its thresholds are finite, x >= 0 exactly when ``b >=
    b_right``, and a row with ``u2 >= t_true[b]`` or ``u2 <= t_false[b]``
    takes its comparison from that test (both cannot hold, as each is
    exact). x and the quadratics are computed for the other rows only, so
    every row has the bits that computing it gives. Returns (n,) bools.
    """
    u1, u2 = u[:, 0], u[:, 1]
    b = (u1 * t_true.shape[0]).astype(np.intp)
    yes = u2 >= t_true[b]
    positive = (b >= b_right) == yes
    rows = np.flatnonzero(yes == (u2 <= t_false[b]))
    u2 = u2[rows]
    x = _inverse_cdf(u1[rows], grid, cdf_a)
    mass_below = below[0] + x * (below[1] + x * below[2])
    mass = total[0] + x * (total[1] + x * total[2])
    positive[rows] = (x >= 0.0) == (mass_below <= u2 * mass)
    return positive


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _integer(name: str, value) -> int:
    """``value`` as an int if it is an integer (NumPy's too), else
    ``ValueError`` naming ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


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
    mass below 0 with his total mass, two quadratics in u whose coefficients
    are exact moments of the standard normal. An efficiency outside (0, 1]
    raises ``ValueError``, as do an ``n_samples`` or ``seed`` that is not an
    integer and an ``n_samples`` outside [1, ``MAX_MC_SAMPLES``], before any
    table is built. The bucket of the first uniform, one of as many equal
    buckets as the grid has cells, decides most sign products: the
    x-interval the bucket maps to gives the sign of u, and two thresholds
    per bucket on the second uniform settle Bob's comparison. u, found by a
    binary search of the inverse CDF, and the two quadratics are computed
    only for the rest, about 0.23 % of draws at the default grid, so every
    count is the one that computing each draw gives. Streams are
    counter-based (Philox) and spawned per pair, so results are reproducible
    for a fixed seed and the per-pair sampling is a pure elementwise map of
    its uniforms (shards over sample ranges merge deterministically). The
    tables are built once per call: one grid; one inverse CDF and total mass
    per Alice phase; Bob's mass below 0 and the bucket thresholds per pair.
    The four pairs are sampled concurrently on a pool that the call sizes
    when it opens it, with at most one thread per setting pair and per core
    in this process's CPU affinity, and closes before it returns; each
    pair's exact count of +1 products does not depend on the scheduling, so
    neither does the result.
    """
    n_samples = _integer("n_samples", n_samples)
    seed = _integer("seed", seed)
    if not 1 <= n_samples <= MAX_MC_SAMPLES:
        raise ValueError(f"n_samples must lie in [1, {MAX_MC_SAMPLES}], got {n_samples}")
    rho = state_density(state)
    children = np.random.SeedSequence(seed).spawn(4)
    tables = _sampler_tables(rho, eta_alice, eta_bob)
    # Imported here: it would add several ms to every CLI start-up.
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(min(len(tables), _usable_cores()),
                            thread_name_prefix="chsh-worker") as pool:
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
