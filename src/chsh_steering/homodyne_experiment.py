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
widened envelope exp(-eta x^2 / 2) and the coefficient polynomial used in
``homodyne_pdf`` and the Monte Carlo sampler below.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .correlation_model import CORRELATOR_NAMES, CorrelationSet
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
# Smallest efficiency the Monte Carlo serves (1/8192): there its grid widens
# to 64 * DEFAULT_GRID_CELLS cells, 6.6 MB of tables per call.
MIN_MC_ETA = 0.5 / 64 ** 2
# Largest Monte Carlo sample count per setting pair: about 4 minutes at the
# measured 0.24 s per 1e6 samples (2-core x86-64). A larger count would run
# for hours without a word.
MAX_MC_SAMPLES = 2 ** 30
# Rows of uniforms drawn and mapped per step of the Monte Carlo loop; bounds
# the working set (one block per setting pair in flight) without changing the
# Philox stream or the result.
_MC_BLOCK = 1 << 15
# Buckets of the guide table that starts the x inverse CDF; a power of two, so
# the bucket edges i / B and the bucket index floor(u * B) are exact.
_GUIDE_BUCKETS = 1 << 14

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

    def to_json_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "corrected_bound": self.corrected_bound,
            "steering_lhs": self.steering_lhs,
            "chsh_s": self.chsh_s,
            "verdict": self.verdict,
        }


def _experiment_verdict(lhs: float, bound: float, tol: float) -> str:
    v = verdict(lhs, bound, tol)
    if v == VIOLATED:
        return STEERING
    if v == BOUNDARY:
        return BOUNDARY
    return NO_STEERING


def adjudicate(c: CorrelationSet, eta_bob: float,
               tol: float = VERDICT_TOL) -> ExperimentReport:
    """Compare the steering left-hand side against the efficiency-corrected
    bound 2*gamma(eta_bob)."""
    g = gamma(eta_bob)
    lhs, _ = steering_inequality(c)
    return ExperimentReport(
        gamma=g,
        corrected_bound=2.0 * g,
        steering_lhs=lhs,
        chsh_s=chsh_values(c)[CANONICAL_CHSH_INDEX],
        verdict=_experiment_verdict(lhs, 2.0 * g, tol),
    )


def adjudicate_reported(s_max: float, eta_bob: float,
                        tol: float = VERDICT_TOL) -> ExperimentReport:
    """Adjudicate a reported CHSH S value under the equal-magnitude reduction.

    When the four correlators share one magnitude with the usual sign
    pattern, the steering left-hand side collapses to the CHSH S itself, so
    the reported S can be compared directly against 2*gamma.
    """
    if not 0.0 <= s_max <= 2.0 * np.sqrt(2.0):
        raise ValueError(f"s_max must lie in [0, 2*sqrt(2)], got {s_max}")
    g = gamma(eta_bob)
    return ExperimentReport(
        gamma=g,
        corrected_bound=2.0 * g,
        steering_lhs=float(s_max),
        chsh_s=float(s_max),
        verdict=_experiment_verdict(float(s_max), 2.0 * g, tol),
    )


# ---------------------------------------------------------------------------
# Continuous-outcome model and Monte Carlo sampling
# ---------------------------------------------------------------------------

def _envelope(x, eta):
    return np.sqrt(eta / (2.0 * np.pi)) * np.exp(-0.5 * eta * np.asarray(x) ** 2)


def _g_operators(phi: float, eta: float):
    """Operator coefficients of (1, x, x^2) in the smoothed outcome density."""
    _check_eta(eta)
    g0 = np.array([[1.0, 0.0], [0.0, 1.0 - eta]], dtype=complex)
    g1 = eta * sigma_phi(phi)
    g2 = np.array([[0.0, 0.0], [0.0, eta * eta]], dtype=complex)
    return g0, g1, g2


def homodyne_pdf(rho: np.ndarray, phi: float, eta: float, x):
    """Outcome density of one inefficient homodyne on a single-mode state.

    Accepts scalar or array ``x``; integrates to 1 over the real line. A
    non-finite phase or outcome raises ``ValueError``.
    """
    rho = validate_density(rho, dim=2)
    _check_phase(phi)
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("homodyne outcome x must be finite")
    c0, c1, c2 = (float(np.trace(rho @ g).real) for g in _g_operators(phi, eta))
    result = _envelope(x, eta) * (c0 + c1 * x + c2 * x * x)
    return result if result.ndim else float(result)


@dataclass(frozen=True)
class MonteCarloCorrelations:
    """Empirical sign-binned correlators with their standard errors."""

    correlations: CorrelationSet
    std_errors: tuple[float, float, float, float]
    n_samples: int
    seed: int

    def to_json_dict(self) -> dict:
        out = self.correlations.to_json_dict()
        out["std_errors"] = dict(zip(CORRELATOR_NAMES, map(float, self.std_errors)))
        out["n_samples"] = self.n_samples
        out["seed"] = self.seed
        return out


def _sampler_tables(rho: np.ndarray, eta_alice: float, eta_bob: float):
    """The arrays ``_positive_products`` takes after ``u``, one tuple per
    setting pair in correlator order (AB, A'B, AB', A'B').

    The efficiencies belong to the parties, so all four pairs share one grid
    and the two pairs at each Alice phase share its ``cdf_a`` and ``guide``;
    only ``below`` and ``total`` are per pair.
    """
    # The operators come first, so an efficiency outside (0, 1] is reported
    # as such rather than as below the grid's MIN_MC_ETA. Bob's identity in
    # the last column gives Alice's marginal, the same bits at either Bob
    # phase.
    alice_ops = [_g_operators(phi, eta_alice) for phi in ALICE_PHASES]
    bob_ops = [(*_g_operators(phi, eta_bob), IDENTITY2) for phi in BOB_PHASES]
    tables = [expectation_table(rho, a, b) for b in bob_ops for a in alice_ops]

    grid_cells, span = _pair_grid(eta_alice, eta_bob)
    grid = np.linspace(-span, span, grid_cells + 1)
    # Even cell count: the middle knot is 0, which the sign-only sampler
    # relies on. linspace can leave it a few ulps off, so pin it.
    grid[grid_cells // 2] = 0.0
    dx = grid[1] - grid[0]
    powers = np.stack([np.ones_like(grid), grid, grid * grid])

    env_a = _envelope(grid, eta_alice)
    alice = []
    for table in tables[:len(ALICE_PHASES)]:
        pdf_a = np.maximum(env_a * (table[:, 3] @ powers), 0.0)
        cdf_a = _cumtrapz(pdf_a, dx)
        if cdf_a[-1] <= 0.0:
            raise ValueError("degenerate marginal density on the sampling grid")
        cdf_a /= cdf_a[-1]
        alice.append((cdf_a, _guide_table(cdf_a)))

    # Bob's masses up to the 0 knot and over the grid, from the trapezoid sums.
    env_b = _envelope(grid, eta_bob)
    cum_b = np.stack([_cumtrapz(env_b * p, dx) for p in powers])
    return [(grid, *alice[i % len(ALICE_PHASES)],
             table[:, :3] @ cum_b[:, grid_cells // 2], table[:, :3] @ cum_b[:, -1])
            for i, table in enumerate(tables)]


def _pair_grid(eta_a: float, eta_b: float) -> tuple[int, float]:
    """Cell count and span of the sampling grid, by the rule that
    ``monte_carlo_correlations`` states; exactly the defaults at eta >= 0.5."""
    eta = min(eta_a, eta_b)
    if eta < MIN_MC_ETA:
        raise ValueError(f"Monte Carlo needs eta >= {MIN_MC_ETA:g}, got {eta:g};"
                         " the analytic correlators take any eta")
    scale = math.sqrt(max(1.0, 0.5 / eta))
    return 2 * math.ceil(DEFAULT_GRID_CELLS * scale / 2), DEFAULT_SPAN * scale


def _guide_table(cdf: np.ndarray) -> np.ndarray:
    """Index of the last knot ``j`` with ``cdf[j] <= i / B``, for ``i = 0 ..
    B`` with ``B = _GUIDE_BUCKETS`` (Chen & Asau's guide table for an inverse
    CDF).

    Knot ``j`` is at or below edge ``i`` exactly when ``i >= ceil(cdf[j] *
    B)``; with ``B`` a power of two that product is exact, so counting knots
    per first edge and summing equals ``searchsorted(cdf, arange(B + 1) / B,
    side="right") - 1`` for a nondecreasing ``cdf`` in [0, 1] with ``cdf[0]
    == 0``.
    """
    first_edge = np.ceil(cdf * _GUIDE_BUCKETS).astype(np.intp)
    return np.cumsum(np.bincount(first_edge, minlength=_GUIDE_BUCKETS + 1)) - 1


def _cumtrapz(f: np.ndarray, dx: float) -> np.ndarray:
    out = np.zeros_like(f)
    np.cumsum((f[1:] + f[:-1]) * (0.5 * dx), out=out[1:])
    return out


def _positive_products(u, grid, cdf_a, guide, below, total):
    """Where sign(x) * sign(y) = +1 for quadrature pairs drawn by inverse CDF.

    ``u`` is (n, 2) uniforms in [0, 1); ``grid`` the quadrature abscissae,
    with 0 at the middle knot; ``cdf_a`` the normalised CDF of the first
    party's marginal on the grid and ``guide`` its ``_guide_table``;
    ``below`` and ``total`` the coefficients in (1, x, x^2) of the second
    party's unnormalised mass below y = 0 and in all, given x.

    x is interpolated from ``cdf_a`` at the knot ``k`` that
    ``searchsorted(cdf_a, u, side="right") - 1`` gives. With ``b = floor(u *
    B)``, ``b / B <= u < (b + 1) / B`` brackets ``k`` between ``guide[b]``
    and ``guide[b + 1]``, so where those agree the table is the answer; only
    the other rows are searched. As ``cdf_a[0] = 0 <= u < 1 = cdf_a[-1]``,
    ``0 <= k <= g - 2`` and ``cdf_a[k + 1] > u``: no cell drawn is empty. y
    is never located: its conditional CDF is nondecreasing, so y >= 0
    exactly when the mass below 0 is at most the share ``u[:, 1]`` of the
    total. Returns an (n,) bool array.
    """
    u1 = u[:, 0]
    bucket = (u1 * (guide.shape[0] - 1)).astype(np.intp)
    k = guide[bucket]
    open_rows = np.flatnonzero(guide[bucket + 1] != k)
    k[open_rows] = np.searchsorted(cdf_a, u1[open_rows], side="right") - 1
    x = grid[k] + (u1 - cdf_a[k]) * (grid[k + 1] - grid[k]) / (cdf_a[k + 1] - cdf_a[k])
    mass_below = below[0] + x * (below[1] + x * below[2])
    mass = total[0] + x * (total[1] + x * total[2])
    return (x >= 0.0) == (mass_below <= u[:, 1] * mass)


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# Threads of the process-wide pool that the Monte Carlo samples on: one per
# core in this process's CPU affinity, at most four. It only sizes the pool;
# each call submits its four setting pairs as four tasks whatever its value.
_THREADS = min(4, _usable_cores())
_POOL = None
_POOL_LOCK = threading.Lock()


def _pool():
    """The shared ``ThreadPoolExecutor``, created on first use."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            # Imported here: it would add several ms to every CLI start-up.
            from concurrent.futures import ThreadPoolExecutor
            _POOL = ThreadPoolExecutor(_THREADS, thread_name_prefix="chsh-worker")
        return _POOL


def _forget_pool() -> None:
    """Drop the parent's pool in a forked child, which inherits the executor
    but none of its threads, so its first task would wait forever."""
    global _POOL, _POOL_LOCK
    _POOL = None
    _POOL_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):  # absent where there is no fork
    os.register_at_fork(after_in_child=_forget_pool)


def _count_positive(arrays, seed: np.random.SeedSequence, n_samples: int) -> int:
    """Number of +1 sign products in ``n_samples`` draws for one pair.

    Runs on a ``_pool`` thread, so it calls only NumPy, which releases the
    interpreter lock, and private helpers, never a public function of the
    package.
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

    Per setting pair, the first outcome x is drawn from its marginal by
    inverse CDF on the quadrature grid; the correlator is the mean sign
    product, so of the second outcome only the sign is resolved, by
    comparing two quadratics in x. The grid spans ``DEFAULT_SPAN``
    times ``scale = sqrt(max(1, 0.5 / min(eta_a, eta_b)))`` on each side, in
    ``2 ceil(DEFAULT_GRID_CELLS scale / 2)`` cells: below eta 0.5 it widens
    with the outcome envelope, whose width is 1 / sqrt(eta), at the same cell
    width, so the truncated tails stay at their eta 0.5 size. An efficiency
    above 1 or below ``MIN_MC_ETA`` (1/8192, where the grid is 64 times the
    default) raises ``ValueError``, as does an ``n_samples`` outside [1,
    ``MAX_MC_SAMPLES``]. The x inverse CDF starts from a guide table of
    uniform buckets and searches only the uniforms whose bucket holds a knot.
    Streams are counter-based (Philox) and spawned per pair, so results are
    reproducible for a fixed seed and the per-pair sampling is a pure
    elementwise map of its uniforms (shards over sample ranges merge
    deterministically). The tables are built once per call: one grid, and
    one x inverse CDF per Alice phase. The four pairs are sampled
    concurrently on a process-wide pool with one thread per core in this
    process's CPU affinity, at most four; each pair's exact count of +1
    products does not depend on the scheduling, so neither does the result.
    """
    if not 1 <= n_samples <= MAX_MC_SAMPLES:
        raise ValueError(f"n_samples must lie in [1, {MAX_MC_SAMPLES}], got {n_samples}")
    rho = state_density(state)
    children = np.random.SeedSequence(seed).spawn(4)
    counts = _pool().map(_count_positive, _sampler_tables(rho, eta_alice, eta_bob),
                         children, [n_samples] * 4)
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
