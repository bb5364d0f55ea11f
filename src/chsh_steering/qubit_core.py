"""Qubit states, measurement effects and the geometry of allowed outcome pairs.

Conventions used throughout the package:

- The eigenbasis of Bob's reference measurement is the computational basis;
  index 0 is the +1-outcome eigenstate, index 1 the -1-outcome eigenstate.
- Two-party operators are ordered Alice (x) Bob.

For a fixed pair of projective qubit measurements, the reachable pairs of
+1-outcome probabilities ``(p, p')`` fill the convex hull of an ellipse whose
shape depends only on the overlap ``mu = Tr{P P'}`` of the two projectors.
``ellipse_point`` parametrises that boundary; ``mub_circle_point`` is the
mutually unbiased special case ``mu = 1/2`` where the boundary is the unit
circle in shifted coordinates ``(2p - 1, 2p' - 1)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlation_model import CORRELATOR_RANGE_TOL

HERMITIAN_TOL = 1e-12
EFFECT_TOL = 1e-12
DENSITY_PSD_TOL = 1e-10

IDENTITY2 = np.eye(2, dtype=complex)


def is_hermitian(op: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    return np.abs(op - op.conj().T).max() <= tol


def validate_effect(op: np.ndarray) -> np.ndarray:
    """Check that ``op`` is a valid 2x2 POVM effect (0 <= op <= 1)."""
    op = np.asarray(op, dtype=complex)
    if op.shape != (2, 2):
        raise ValueError(f"effect must be a 2x2 matrix, got shape {op.shape}")
    if not is_hermitian(op, EFFECT_TOL):
        raise ValueError("effect is not Hermitian within tolerance")
    eig = np.linalg.eigvalsh(op)
    if eig.min() < -EFFECT_TOL or eig.max() > 1.0 + EFFECT_TOL:
        raise ValueError(f"effect eigenvalues {eig} outside [0, 1]")
    return op


def validate_density(rho: np.ndarray, dim: int = 4) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity of a density matrix."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValueError(f"density matrix must be {dim}x{dim}, got {rho.shape}")
    if not is_hermitian(rho):
        raise ValueError("density matrix is not Hermitian within tolerance")
    if abs(np.trace(rho).real - 1.0) > HERMITIAN_TOL:
        raise ValueError(f"density matrix trace {np.trace(rho)} differs from 1")
    if np.linalg.eigvalsh(rho).min() < -DENSITY_PSD_TOL:
        raise ValueError("density matrix has a negative eigenvalue beyond tolerance")
    return rho


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


@dataclass(frozen=True)
class MeasurementPair:
    """Second measurement of a projective pair, relative to the reference one.

    ``mu`` is the projector overlap Tr{P P'} and ``phi`` the phase of the
    second projector's +1 eigenvector in the reference eigenbasis.
    """

    mu: float
    phi: float

    def projector(self) -> np.ndarray:
        return projector_from_params(self.mu, self.phi)


def projector_from_params(mu: float, phi: float) -> np.ndarray:
    """Rank-1 projector onto sqrt(mu)|0> + sqrt(1-mu) e^{i phi}|1>."""
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must lie in [0, 1], got {mu}")
    u = np.array([np.sqrt(mu), np.sqrt(1.0 - mu) * np.exp(1j * phi)])
    return np.outer(u, u.conj())


def born_probability(state: PureQubitState, effect: np.ndarray) -> float:
    """Outcome probability <psi|E|psi> of an effect on a pure state."""
    effect = validate_effect(effect)
    v = state.vector()
    return float(np.real(v.conj() @ effect @ v))


def ellipse_point(mu: float, xi: float):
    """Boundary point (p, p') of the allowed probability region at overlap mu.

    The boundary is traced by the curve

        p  = 1/2 + [sqrt(mu) cos(xi) - sqrt(1-mu) sin(xi)] / 2
        p' = 1/2 + [sqrt(mu) cos(xi) + sqrt(1-mu) sin(xi)] / 2

    which degenerates to the diagonal segment at mu = 1, the anti-diagonal at
    mu = 0, and the circle of ``mub_circle_point`` at mu = 1/2.
    """
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must lie in [0, 1], got {mu}")
    a = np.sqrt(mu) * np.cos(xi)
    b = np.sqrt(1.0 - mu) * np.sin(xi)
    return 0.5 + 0.5 * (a - b), 0.5 + 0.5 * (a + b)


def mub_circle_point(xi: float):
    """Boundary point (2p-1, 2p'-1) = (cos xi, sin xi) for unbiased pairs."""
    return np.cos(xi), np.sin(xi)


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


def expectation_table(rho: np.ndarray, alice_ops, bob_ops) -> np.ndarray:
    """Table ``t[i, j] = Re Tr[rho (A_i x B_j)]`` of a two-qubit ``rho``
    against stacks of 2x2 operators ``A_i`` and ``B_j``, as a C-contiguous
    float array (a strided ``.real`` view would change the bits of matmuls
    taken on it). Does not validate its inputs."""
    rho4 = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    return np.einsum("abcd,ica,jdb->ij", rho4, alice_ops, bob_ops).real.copy()


def quantum_correlator(rho: np.ndarray, alice_effect: np.ndarray,
                       bob_effect: np.ndarray) -> float:
    """Correlator Tr[rho (2E_A - 1) x (2E_B - 1)] of two dichotomic effects.

    A kron and a trace, not ``expectation_table``: the analytic correlators'
    last bits depend on this summation order."""
    rho = validate_density(rho, dim=4)
    alice_effect = validate_effect(alice_effect)
    bob_effect = validate_effect(bob_effect)
    obs = np.kron(2.0 * alice_effect - IDENTITY2, 2.0 * bob_effect - IDENTITY2)
    value = float(np.trace(rho @ obs).real)
    if abs(value) > 1.0 + CORRELATOR_RANGE_TOL:
        raise ValueError(f"correlator {value} outside [-1, 1] beyond tolerance")
    return value


def maximally_entangled() -> np.ndarray:
    """Density matrix of (|00> + |11>)/sqrt(2) in the Alice x Bob basis."""
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    return np.outer(v, v.conj())
