"""Qubit states, measurement effects and the geometry of allowed outcome pairs.

Conventions used throughout the package:

- The eigenbasis of Bob's reference measurement is the computational basis;
  index 0 is the +1-outcome eigenstate, index 1 the -1-outcome eigenstate.
- Two-party operators are ordered Alice (x) Bob.

For a fixed pair of projective qubit measurements, the reachable pairs of
+1-outcome probabilities ``(p, p')`` fill the convex hull of an ellipse whose
shape depends only on the overlap ``mu = Tr{P P'}`` of the two projectors.
``ellipse_point`` parametrises that boundary; in the mutually unbiased case
``mu = 1/2`` it is the unit circle in shifted coordinates ``(2p - 1, 2p' - 1)``.
"""

from __future__ import annotations

import numpy as np

from .correlation_model import CORRELATOR_RANGE_TOL

OPERATOR_TOL = 1e-12
DENSITY_PSD_TOL = 1e-10

IDENTITY2 = np.eye(2, dtype=complex)


def _hermitian(op: np.ndarray, dim: int, what: str) -> np.ndarray:
    """``op`` as a complex ``dim`` x ``dim`` array, else ``ValueError`` naming
    ``what``. The checks run in this order: the shape, finite entries, no
    entry of modulus above 1 + ``OPERATOR_TOL`` (no density matrix or effect
    has one, and bounded entries keep the checks that follow from
    overflowing), and Hermiticity within ``OPERATOR_TOL``."""
    op = np.asarray(op, dtype=complex)
    if op.shape != (dim, dim):
        raise ValueError(f"{what} must be {dim}x{dim}, got {op.shape}")
    if not np.isfinite(op).all():
        raise ValueError(f"{what} has a non-finite entry")
    if not np.abs(op).max() <= 1.0 + OPERATOR_TOL:
        raise ValueError(f"{what} has an entry of modulus above 1")
    if not np.abs(op - op.conj().T).max() <= OPERATOR_TOL:
        raise ValueError(f"{what} is not Hermitian within tolerance")
    return op


def validate_effect(op: np.ndarray) -> np.ndarray:
    """Check that ``op`` is a valid 2x2 POVM effect (0 <= op <= 1): the
    checks of ``_hermitian``, then eigenvalues in [0, 1] within
    ``OPERATOR_TOL``."""
    op = _hermitian(op, 2, "effect")
    eig = np.linalg.eigvalsh(op)
    if eig.min() < -OPERATOR_TOL or eig.max() > 1.0 + OPERATOR_TOL:
        raise ValueError(f"effect eigenvalues {eig} outside [0, 1]")
    return op


def validate_density(rho: np.ndarray, dim: int = 4) -> np.ndarray:
    """Check a ``dim`` x ``dim`` density matrix: the checks of
    ``_hermitian``, then unit trace within ``OPERATOR_TOL`` and no
    eigenvalue below -``DENSITY_PSD_TOL``."""
    rho = _hermitian(rho, dim, "density matrix")
    if abs(np.trace(rho).real - 1.0) > OPERATOR_TOL:
        raise ValueError(f"density matrix trace {np.trace(rho)} differs from 1")
    if np.linalg.eigvalsh(rho).min() < -DENSITY_PSD_TOL:
        raise ValueError("density matrix has a negative eigenvalue beyond tolerance")
    return rho


def projector_from_params(mu: float, phi: float) -> np.ndarray:
    """Rank-1 projector onto sqrt(mu)|0> + sqrt(1-mu) e^{i phi}|1>."""
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must lie in [0, 1], got {mu}")
    u = np.array([np.sqrt(mu), np.sqrt(1.0 - mu) * np.exp(1j * phi)])
    return np.outer(u, u.conj())


def ellipse_point(mu: float, xi):
    """Boundary point (p, p') of the allowed probability region at overlap mu;
    ``xi`` may be an array, and then p and p' are arrays of its shape.

    The boundary is traced by the curve

        p  = 1/2 + [sqrt(mu) cos(xi) - sqrt(1-mu) sin(xi)] / 2
        p' = 1/2 + [sqrt(mu) cos(xi) + sqrt(1-mu) sin(xi)] / 2

    which degenerates to the diagonal segment at mu = 1, the anti-diagonal at
    mu = 0, and at mu = 1/2 to the circle (2p - 1, 2p' - 1) = (cos(xi + pi/4),
    sin(xi + pi/4)).
    """
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must lie in [0, 1], got {mu}")
    a = np.sqrt(mu) * np.cos(xi)
    b = np.sqrt(1.0 - mu) * np.sin(xi)
    return 0.5 + 0.5 * (a - b), 0.5 + 0.5 * (a + b)


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

