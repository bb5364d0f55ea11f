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
# Smallest efficiency the Monte Carlo serves (1/8192): there a pair's grid
# widens to 64 * DEFAULT_GRID_CELLS cells, about 10 MB of tables per pair.
MIN_MC_ETA = 0.5 / 64 ** 2
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


@dataclass(frozen=True)
class HomodyneSetting:
    """One sign-binned quadrature measurement: phase and efficiency."""

    phi: float
    eta: float

    def __post_init__(self):
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must lie in (0, 1], got {self.eta}")


def sigma_phi(phi: float) -> np.ndarray:
    """Phase-phi flip operator e^{i phi}|0><1| + e^{-i phi}|1><0|."""
    return np.array([[0.0, np.exp(1j * phi)], [np.exp(-1j * phi), 0.0]])


def gamma(eta: float) -> float:
    """Correlation shrink factor sqrt(2 eta / pi) of a sign-binned homodyne.

    Physical efficiencies live in (0, 1] (enforced by ``HomodyneSetting``);
    the formula itself is accepted for any finite positive argument.
    """
    if not (np.isfinite(eta) and eta > 0.0):
        raise ValueError(f"eta must be finite and positive, got {eta}")
    return float(np.sqrt(2.0 * eta / np.pi))


def homodyne_effects(setting: HomodyneSetting):
    """Sign-binned effect pair (E_plus, E_minus) for one setting."""
    g = gamma(setting.eta)
    half = 0.5 * g * sigma_phi(setting.phi)
    eye = 0.5 * np.eye(2, dtype=complex)
    return eye + half, eye - half


def quadrature_projectors(phi: float):
    """Projector pair (1 pm sigma_phi)/2 of the ideal quadrature sign."""
    half = 0.5 * sigma_phi(phi)
    eye = 0.5 * np.eye(2, dtype=complex)
    return eye + half, eye - half


@dataclass(frozen=True)
class ExperimentSettings:
    """The four homodyne settings: two per party."""

    alice: tuple[HomodyneSetting, HomodyneSetting]
    bob: tuple[HomodyneSetting, HomodyneSetting]

    def pairs(self):
        """Setting pairs in correlator order (AB, A'B, AB', A'B')."""
        (a, ap), (b, bp) = self.alice, self.bob
        return ((a, b), (ap, b), (a, bp), (ap, bp))


def standard_settings(eta_alice: float = 1.0,
                      eta_bob: float = 1.0) -> ExperimentSettings:
    """The experiment's quadrature phases with the given efficiencies."""
    return ExperimentSettings(
        alice=tuple(HomodyneSetting(phi, eta_alice) for phi in ALICE_PHASES),
        bob=tuple(HomodyneSetting(phi, eta_bob) for phi in BOB_PHASES),
    )


def analytic_correlations(rho: np.ndarray,
                          settings: ExperimentSettings) -> CorrelationSet:
    """Exact sign-binned correlators of a two-mode state."""
    values = []
    for sa, sb in settings.pairs():
        ea_plus, _ = homodyne_effects(sa)
        eb_plus, _ = homodyne_effects(sb)
        values.append(quantum_correlator(rho, ea_plus, eb_plus))
    return CorrelationSet(*values)


def experiment_correlations(state: SinglePhotonState, eta_alice: float,
                            eta_bob: float) -> CorrelationSet:
    """Correlators of the split photon under the standard settings."""
    return analytic_correlations(state_density(state),
                                 standard_settings(eta_alice, eta_bob))


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
    if not 0.0 < eta_bob <= 1.0:
        raise ValueError(f"eta_bob must lie in (0, 1], got {eta_bob}")
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
    g0 = np.array([[1.0, 0.0], [0.0, 1.0 - eta]], dtype=complex)
    g1 = eta * sigma_phi(phi)
    g2 = np.array([[0.0, 0.0], [0.0, eta * eta]], dtype=complex)
    return g0, g1, g2


def homodyne_pdf(rho: np.ndarray, phi: float, eta: float, x):
    """Outcome density of one inefficient homodyne on a single-mode state.

    Accepts scalar or array ``x``; integrates to 1 over the real line.
    """
    rho = validate_density(rho, dim=2)
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must lie in (0, 1], got {eta}")
    x = np.asarray(x, dtype=float)
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


def _pair_sampler_arrays(rho: np.ndarray, sa: HomodyneSetting,
                         sb: HomodyneSetting):
    """Precompute grid, marginal CDF, its guide table, coefficient matrix and
    cumulative integrals for sampling one setting pair on its ``_pair_grid``."""
    grid_cells, span = _pair_grid(sa, sb)
    grid = np.linspace(-span, span, grid_cells + 1)
    # Even cell count: the middle knot is 0, which the sign-only sampler
    # relies on. linspace can leave it a few ulps off, so pin it.
    grid[grid_cells // 2] = 0.0
    dx = grid[1] - grid[0]

    # Bob's identity in the last column gives the first party's marginal.
    table = expectation_table(rho, _g_operators(sa.phi, sa.eta),
                              (*_g_operators(sb.phi, sb.eta), IDENTITY2))
    coef, marginal = table[:, :3], table[:, 3]

    powers = np.stack([np.ones_like(grid), grid, grid * grid])
    pdf_a = np.maximum(_envelope(grid, sa.eta) * (marginal @ powers), 0.0)
    cdf_a = _cumtrapz(pdf_a, dx)
    if cdf_a[-1] <= 0.0:
        raise ValueError("degenerate marginal density on the sampling grid")
    cdf_a /= cdf_a[-1]

    env_b = _envelope(grid, sb.eta)
    cum_b = np.stack([_cumtrapz(env_b * powers[j], dx) for j in range(3)])
    return grid, cdf_a, _guide_table(cdf_a), coef, cum_b


def _pair_grid(sa: HomodyneSetting, sb: HomodyneSetting) -> tuple[int, float]:
    """Cell count and span of one pair's grid, by the rule that
    ``monte_carlo_correlations`` states; exactly the defaults at eta >= 0.5."""
    eta = min(sa.eta, sb.eta)
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


def _positive_products(u, grid, cdf_a, guide, coef, cum_b):
    """Where sign(x) * sign(y) = +1 for quadrature pairs drawn by inverse CDF.

    ``u`` is (n, 2) uniforms; ``grid`` the quadrature abscissae, with 0 at
    the middle knot; ``cdf_a`` the normalised CDF of the first party's
    marginal on the grid and ``guide`` its ``_guide_table``; ``coef`` the
    3x3 polynomial coefficient matrix of the joint density; ``cum_b`` the
    (3, g) cumulative integrals of the second party's envelope times
    (1, y, y^2). Returns an (n,) bool array.

    x is interpolated from ``cdf_a`` at the knot ``k`` that
    ``searchsorted(cdf_a, u, side="right") - 1`` gives. With ``b = floor(u *
    B)``, ``b / B <= u < (b + 1) / B`` brackets ``k`` between ``guide[b]``
    and ``guide[b + 1]``, so where those agree the table is the answer; only
    the other rows are searched. y is never located: the conditional CDF
    given x is nondecreasing, so y >= 0 exactly when its unnormalised value
    at the 0 knot is at most the target mass ``u[:, 1] * total``.
    """
    g = grid.shape[0]
    zero = (g - 1) // 2
    u1 = u[:, 0]
    bucket = (u1 * (guide.shape[0] - 1)).astype(np.intp)
    k = guide[bucket]
    open_rows = np.flatnonzero(guide[bucket + 1] != k)
    k[open_rows] = np.searchsorted(cdf_a, u1[open_rows], side="right") - 1
    k = np.clip(k, 0, g - 2)
    dc = cdf_a[k + 1] - cdf_a[k]
    safe = np.where(dc > 0.0, dc, 1.0)
    x = np.where(dc > 0.0,
                 grid[k] + (u1 - cdf_a[k]) * (grid[k + 1] - grid[k]) / safe,
                 grid[k])

    d0 = coef[0, 0] + coef[1, 0] * x + coef[2, 0] * x * x
    d1 = coef[0, 1] + coef[1, 1] * x + coef[2, 1] * x * x
    d2 = coef[0, 2] + coef[1, 2] * x + coef[2, 2] * x * x
    total = d0 * cum_b[0, g - 1] + d1 * cum_b[1, g - 1] + d2 * cum_b[2, g - 1]
    target = u[:, 1] * total
    below_zero = d0 * cum_b[0, zero] + d1 * cum_b[1, zero] + d2 * cum_b[2, zero]
    return (x >= 0.0) == (below_zero <= target)


_POOL = None
_POOL_LOCK = threading.Lock()


def _pair_pool():
    """The process-wide pool that samples setting pairs, created on first use
    with one thread per usable core, at most one per pair."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            # Imported here: it would add several ms to every CLI start-up.
            from concurrent.futures import ThreadPoolExecutor
            try:
                cores = len(os.sched_getaffinity(0))
            except AttributeError:  # no affinity call on this platform
                cores = os.cpu_count() or 1
            _POOL = ThreadPoolExecutor(max_workers=min(4, cores),
                                       thread_name_prefix="chsh-mc")
        return _POOL


def _count_positive(arrays, seed: np.random.SeedSequence, n_samples: int) -> int:
    """Number of +1 sign products in ``n_samples`` draws for one pair.

    Runs on a pool thread, so it calls only NumPy and private helpers.
    Consecutive draws continue one stream, so blocks reproduce a single
    (n_samples, 2) draw.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    plus = 0
    for start in range(0, n_samples, _MC_BLOCK):
        u = rng.random((min(_MC_BLOCK, n_samples - start), 2))
        plus += int(np.count_nonzero(_positive_products(u, *arrays)))
    return plus


def monte_carlo_correlations(state: SinglePhotonState,
                             settings: ExperimentSettings,
                             n_samples: int, seed: int) -> MonteCarloCorrelations:
    """Estimate the four correlators by sampling quadrature outcome pairs.

    Per setting pair, the first outcome is drawn from its marginal and the
    second from the exact conditional given the first, both by inverse CDF on
    the quadrature grid; the correlator is the mean sign product, so only the
    sign of the second outcome is resolved. The grid spans ``DEFAULT_SPAN``
    times ``scale = sqrt(max(1, 0.5 / min(eta_a, eta_b)))`` on each side, in
    ``2 ceil(DEFAULT_GRID_CELLS scale / 2)`` cells: below eta 0.5 it widens
    with the outcome envelope, whose width is 1 / sqrt(eta), at the same cell
    width, so the truncated tails stay at their eta 0.5 size. An efficiency
    below ``MIN_MC_ETA`` (1/8192, where the grid is 64 times the default)
    raises ``ValueError``. The x inverse CDF starts from a guide table of
    uniform buckets and searches only the uniforms whose bucket holds a knot. Streams are counter-based (Philox) and
    spawned per pair, so results are reproducible for a fixed seed and the
    per-pair sampling is a pure elementwise map of its uniforms (shards over
    sample ranges merge deterministically). The pairs are sampled concurrently
    on a process-wide thread pool with one thread per core in this process's
    CPU affinity, at most four; each pair's exact count of +1 products does
    not depend on the scheduling, so neither does the result.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    rho = state_density(state)
    children = np.random.SeedSequence(seed).spawn(4)
    tables = [_pair_sampler_arrays(rho, sa, sb) for sa, sb in settings.pairs()]
    counts = _pair_pool().map(_count_positive, tables, children,
                              [n_samples] * 4)
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
