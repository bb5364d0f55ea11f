"""Independent references the tests check the package against.

Nothing in the package calls these: each is a second, plain statement of a
physical quantity (a pure state, a Born probability, a joint probability
table), a short form of a production object that the tests need as input,
or the dense form of a computation the package does implicitly (the oracle's
atom matrix and the ``duals @ A`` pricing over it). ``positive_products`` is
the Monte Carlo's sign kernel as it was before uniform buckets decided most
draws: it computes x and both quadratics for every draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from chsh_steering.correlation_model import (
    ALICE_EXTREMALS,
    CorrelationSet,
    EBasisVector,
    Marginals,
    extremal_correlations_array,
    validate_correlation_matrix,
)
from chsh_steering.qubit_core import projector_from_params, validate_effect
from chsh_steering.simplex import DEFAULT_LP_TOL, lp_feasibility


@dataclass(frozen=True)
class PureQubitState:
    """Pure qubit state sqrt(mu')|0> + sqrt(1-mu') e^{i phi'}|1>."""

    mu_prime: float
    phi_prime: float

    def __post_init__(self):
        if not 0.0 <= self.mu_prime <= 1.0:
            raise ValueError(f"mu_prime must lie in [0, 1], got {self.mu_prime}")
        object.__setattr__(self, "phi_prime", float(self.phi_prime) % (2.0 * np.pi))

    def vector(self) -> np.ndarray:
        v = np.array([np.sqrt(self.mu_prime),
                      np.sqrt(1.0 - self.mu_prime) * np.exp(1j * self.phi_prime)])
        assert abs(np.linalg.norm(v) - 1.0) < 1e-14
        return v


def born_probability(state: PureQubitState, effect: np.ndarray) -> float:
    """Outcome probability <psi|E|psi> of an effect on a pure state."""
    effect = validate_effect(effect)
    v = state.vector()
    return float(np.real(v.conj() @ effect @ v))


def ellipse_hull_excess(mu: float, p: float, p_prime: float):
    """Signed violation of the boundary ellipse; <= 0 means inside the hull.

    Only defined for 0 < mu < 1 (the hull is a segment at the endpoints).
    Accepts array inputs broadcast in ``p`` and ``p_prime``.
    """
    if not 0.0 < mu < 1.0:
        raise ValueError("hull excess requires 0 < mu < 1")
    c = np.asarray(p) - 0.5
    d = np.asarray(p_prime) - 0.5
    return (c + d) ** 2 / mu + (d - c) ** 2 / (1.0 - mu) - 1.0


def maximally_entangled() -> np.ndarray:
    """Density matrix of (|00> + |11>)/sqrt(2) in the Alice x Bob basis."""
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    return np.outer(v, v.conj())


def alice_projector(alpha: float) -> np.ndarray:
    """+1-outcome projector onto cos(a/2)|0> + sin(a/2)|1>.

    The relative sign of the two amplitudes is the sign of sin(a), so the
    phase is 0 or pi."""
    return projector_from_params(np.cos(alpha / 2.0) ** 2,
                                 0.0 if np.sin(alpha) >= 0.0 else np.pi)


def matrix_from_extremal(chi: int, bob_probs) -> np.ndarray:
    """Joint matrix of a deterministic Alice strategy and Bob probabilities.

    ``bob_probs`` is the pair (p+1|B, p+1|B'). The result is the outer product
    of Bob's probability vector with Alice's deterministic one.
    """
    if chi not in ALICE_EXTREMALS:
        raise ValueError(f"chi must be one of 1..4, got {chi}")
    pb, pbp = bob_probs
    if not (0.0 <= pb <= 1.0 and 0.0 <= pbp <= 1.0):
        raise ValueError(f"Bob probabilities {bob_probs} outside [0, 1]")
    bob_vec = np.array([pb, 1.0 - pb, pbp, 1.0 - pbp])
    return np.outer(bob_vec, ALICE_EXTREMALS[chi])


def matrix_from_correlations(c: CorrelationSet,
                             marginals: Marginals | None = None) -> np.ndarray:
    """Rebuild the 4x4 joint matrix from correlators and marginals.

    Marginals must be supplied either explicitly or on ``c``; the scenario's
    constraints leave them free, so they are never assumed unbiased.
    """
    marg = marginals if marginals is not None else c.marginals
    if marg is None:
        raise ValueError("marginals are required to reconstruct the joint matrix")
    corr = {(0, 0): c.ab, (1, 0): c.apb, (0, 1): c.abp, (1, 1): c.apbp}
    alice = (marg.a, marg.ap)
    bob = (marg.b, marg.bp)
    m = np.empty((4, 4))
    for ib in range(2):
        for b_out, bsign in enumerate((1.0, -1.0)):
            for ia in range(2):
                for a_out, asign in enumerate((1.0, -1.0)):
                    m[2 * ib + b_out, 2 * ia + a_out] = 0.25 * (
                        1.0 + asign * alice[ia] + bsign * bob[ib]
                        + asign * bsign * corr[(ia, ib)])
    return validate_correlation_matrix(m)


def from_e_basis_array(v: np.ndarray) -> np.ndarray:
    """Inverse of ``to_e_basis_array`` for (..., 4) arrays."""
    v = np.asarray(v, dtype=float)
    out = np.empty_like(v)
    out[..., 0] = v[..., 0] + v[..., 2]
    out[..., 1] = v[..., 0] - v[..., 2]
    out[..., 2] = v[..., 1] + v[..., 3]
    out[..., 3] = v[..., 1] - v[..., 3]
    return out


def from_e_basis(v: EBasisVector) -> CorrelationSet:
    """Inverse of ``to_e_basis``; exact round trip."""
    return CorrelationSet(*from_e_basis_array(v.as_array()).tolist())


def atom_matrix(grid_n: int) -> np.ndarray:
    """Correlator columns of all grid atoms, shape (4, 2*grid_n).

    Columns 0..grid_n-1 are chi=1 atoms at xi_k = 2 pi k / grid_n, the rest
    chi=2 atoms on the same angles. It takes 64 bytes per angle.
    """
    xi = 2.0 * np.pi * np.arange(grid_n) / grid_n
    cols1 = extremal_correlations_array(1, xi)
    cols2 = extremal_correlations_array(2, xi)
    return np.concatenate([cols1, cols2], axis=0).T


def oracle_matrix(grid_n: int) -> np.ndarray:
    """The oracle's LP columns: the grid atoms above a row of ones."""
    atoms = atom_matrix(grid_n)
    return np.ascontiguousarray(np.vstack([atoms, np.ones((1, atoms.shape[1]))]))


def dense_pricer(A, cost=None):
    """A pricing callback for ``simplex`` over the columns of a dense ``A``.

    Every reduced cost comes from one ``duals @ A`` matvec (plus ``cost``, if
    given); it returns the most negative one, first index on ties, and the
    simplex decides whether it enters.
    """
    A = np.ascontiguousarray(A, dtype=float)

    def price(duals):
        reduced = np.dot(duals, A)
        if cost is not None:
            reduced += cost
        col = int(reduced.argmin())
        return col, float(reduced[col]), A[:, col].tolist()

    return price


def dense_lp_feasibility(A, b, *, tol: float = DEFAULT_LP_TOL):
    """``simplex.lp_feasibility`` on the columns of a dense matrix ``A``.

    Returns (feasible, x, residuals) with ``x`` as a dense vector. A matrix
    that is not 2-D, not finite or not as tall as ``b`` raises ``ValueError``.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError("A must be a 2-D matrix")
    if np.shape(b) != (A.shape[0],):
        raise ValueError(f"b must have shape ({A.shape[0]},), got {np.shape(b)}")
    if not np.isfinite(A).all():
        raise ValueError("A must be finite")
    feasible, basic, residuals = lp_feasibility(dense_pricer(A), b, tol=tol)
    x = np.zeros(A.shape[1])
    for col, value in basic.items():
        x[col] = value
    return feasible, x, residuals


def positive_products(u, grid, cdf_a, below, total):
    """Where sign(x) * sign(y) = +1 for scaled quadrature pairs drawn by
    inverse CDF.

    ``u`` is (n, 2) uniforms in [0, 1); ``grid`` the quadrature abscissae,
    with 0 at the middle knot; ``cdf_a`` the normalised CDF of the first
    party's marginal on the grid; ``below`` and ``total`` the coefficients
    in (1, x, x^2) of the second party's unnormalised mass below y = 0 and
    in all, given x.

    x is interpolated from ``cdf_a`` at the knot ``k`` that
    ``searchsorted(cdf_a, u, side="right") - 1`` gives. As ``cdf_a[0] = 0 <=
    u < 1 = cdf_a[-1]``, ``0 <= k <= g - 2`` and ``cdf_a[k + 1] > u``: no
    cell drawn is empty. y is never located: its conditional CDF is
    nondecreasing, so y >= 0 exactly when the mass below 0 is at most the
    share ``u[:, 1]`` of the total. Returns an (n,) bool array.
    """
    u1 = u[:, 0]
    k = np.searchsorted(cdf_a, u1, side="right") - 1
    x = grid[k] + (u1 - cdf_a[k]) * (grid[k + 1] - grid[k]) / (cdf_a[k + 1] - cdf_a[k])
    mass_below = below[0] + x * (below[1] + x * below[2])
    mass = total[0] + x * (total[1] + x * total[2])
    return (x >= 0.0) == (mass_below <= u[:, 1] * mass)

