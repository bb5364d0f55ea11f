"""Maximising the steering witness over Alice's measurement choices.

For the maximally entangled state with Bob's two measurements mutually
unbiased, an Alice direction parametrised by a single angle alpha yields the
correlators (cos a, cos a', sin a, sin a'), and the witness value depends on
(a, a') only through their difference:

    lhs = sqrt(2 + 2 cos(a - a')) + sqrt(2 - 2 cos(a - a')),

peaking at 2*sqrt(2) when the difference is a quarter turn. ``state_scan``
drops the closed form and greedily optimises the two Alice Bloch directions
for an arbitrary two-qubit state, with Bob fixed to the z/x pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlation_model import CorrelationSet
from .steering_witness import steering_lhs_array

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class AliceAngles:
    """Angles of Alice's two measurement directions in the real plane."""

    alpha: float
    alpha_prime: float


def alice_projector(alpha: float) -> np.ndarray:
    """+1-outcome projector onto cos(a/2)|0> + sin(a/2)|1>."""
    u = np.array([np.cos(alpha / 2.0), np.sin(alpha / 2.0)], dtype=complex)
    return np.outer(u, u.conj())


def angle_correlations(angles: AliceAngles) -> CorrelationSet:
    """Correlators (cos a, cos a', sin a, sin a') of the ideal configuration."""
    return CorrelationSet(
        ab=np.cos(angles.alpha),
        apb=np.cos(angles.alpha_prime),
        abp=np.sin(angles.alpha),
        apbp=np.sin(angles.alpha_prime),
    )


def angle_correlations_array(alpha: np.ndarray, alpha_prime: np.ndarray) -> np.ndarray:
    alpha, alpha_prime = np.broadcast_arrays(np.asarray(alpha, dtype=float),
                                             np.asarray(alpha_prime, dtype=float))
    return np.stack([np.cos(alpha), np.cos(alpha_prime),
                     np.sin(alpha), np.sin(alpha_prime)], axis=-1)


def closed_form_lhs(angles: AliceAngles) -> float:
    """Witness left-hand side as a function of the angle difference alone."""
    c = np.cos(angles.alpha - angles.alpha_prime)
    return float(np.sqrt(2.0 + 2.0 * c) + np.sqrt(2.0 - 2.0 * c))


def _pipeline_lhs(alpha, alpha_prime):
    return steering_lhs_array(angle_correlations_array(alpha, alpha_prime))


def maximize_over_angles(resolution: int = 360):
    """Maximise the witness over (alpha, alpha') by grid plus refinement.

    The coarse grid locates the best cell (first maximum wins on ties); a
    golden-section pass over the angle difference, which the invariance test
    shows is the only direction that matters, polishes the value. Returns the
    maximising ``AliceAngles`` and the value.
    """
    if resolution < 8:
        raise ValueError(f"resolution must be at least 8, got {resolution}")
    grid = 2.0 * np.pi * np.arange(resolution) / resolution
    values = _pipeline_lhs(grid[:, None], grid[None, :])
    flat_best = int(np.argmax(values))
    i, j = divmod(flat_best, resolution)
    alpha0 = float(grid[i])
    delta0 = float(grid[i] - grid[j])

    step = 2.0 * np.pi / resolution
    lo, hi = delta0 - step, delta0 + step
    x1 = hi - GOLDEN * (hi - lo)
    x2 = lo + GOLDEN * (hi - lo)
    f1 = float(_pipeline_lhs(alpha0, alpha0 - x1))
    f2 = float(_pipeline_lhs(alpha0, alpha0 - x2))
    for _ in range(200):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + GOLDEN * (hi - lo)
            f2 = float(_pipeline_lhs(alpha0, alpha0 - x2))
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - GOLDEN * (hi - lo)
            f1 = float(_pipeline_lhs(alpha0, alpha0 - x1))
        if hi - lo < 1e-13:
            break
    delta = 0.5 * (lo + hi)
    best = AliceAngles(alpha0, alpha0 - delta)
    return best, float(_pipeline_lhs(best.alpha, best.alpha_prime))


# ---------------------------------------------------------------------------
# Scan over Alice Bloch directions for an arbitrary state
# ---------------------------------------------------------------------------

_PAULIS = np.array([
    [[0.0, 1.0], [1.0, 0.0]],
    [[0.0, -1.0j], [1.0j, 0.0]],
    [[1.0, 0.0], [0.0, -1.0]],
])


def _correlation_tensor_columns(rho: np.ndarray) -> np.ndarray:
    """Columns u, w with u_k = Tr[rho s_k x s_z], w_k = Tr[rho s_k x s_x]."""
    rho4 = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    cols = np.empty((3, 2))
    for k in range(3):
        for col, bob in enumerate((_PAULIS[2], _PAULIS[0])):
            cols[k, col] = np.real(
                np.einsum("abcd,ca,db->", rho4, _PAULIS[k], bob))
    return cols


def _directions(thetas, phis):
    t = np.asarray(thetas, dtype=float)
    p = np.asarray(phis, dtype=float)
    return np.stack([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)],
                    axis=-1)


def _scan_lhs(cols, n1, n2):
    """Witness value for direction pairs; broadcasts over leading axes."""
    a1 = n1 @ cols  # (..., 2): correlators of the first direction with (B, B')
    a2 = n2 @ cols
    plus = a1 + a2
    minus = a1 - a2
    return (np.hypot(plus[..., 0], plus[..., 1])
            + np.hypot(minus[..., 0], minus[..., 1]))


def state_scan(rho: np.ndarray, bloch_resolution: int = 24,
               refine_rounds: int = 60):
    """Maximise the witness over Alice's two Bloch directions.

    Bob is fixed to the mutually unbiased z/x pair. A full four-angle grid of
    ``bloch_resolution`` points per angle seeds a deterministic shrinking
    local grid search (first maximum wins on ties). Returns the best
    ``CorrelationSet``, its witness value and the coarse grid as a
    (``bloch_resolution``**2, 3) array: the polar and azimuthal angle of each
    first direction, in radians, and its maximum over the second direction.
    """
    if bloch_resolution < 4:
        raise ValueError("bloch_resolution must be at least 4")
    cols = _correlation_tensor_columns(rho)

    thetas = np.linspace(0.0, np.pi, bloch_resolution)
    phis = 2.0 * np.pi * np.arange(bloch_resolution) / bloch_resolution
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    dirs = _directions(tt.ravel(), pp.ravel())
    count = dirs.shape[0]

    values = _scan_lhs(cols, dirs[:, None, :], dirs[None, :, :])
    coarse = np.stack([tt.ravel(), pp.ravel(), values.max(axis=1)], axis=-1)
    flat_best = int(np.argmax(values))
    i, j = divmod(flat_best, count)
    params = np.array([tt.ravel()[i], pp.ravel()[i],
                       tt.ravel()[j], pp.ravel()[j]])
    best = float(values[i, j])

    step = np.pi / bloch_resolution
    offsets = np.array(np.meshgrid(*([[-1.0, 0.0, 1.0]] * 4),
                                   indexing="ij")).reshape(4, -1).T
    for _ in range(refine_rounds):
        trial = params[None, :] + step * offsets
        n1 = _directions(trial[:, 0], trial[:, 1])
        n2 = _directions(trial[:, 2], trial[:, 3])
        vals = _scan_lhs(cols, n1, n2)
        k = int(np.argmax(vals))
        if vals[k] > best:
            best = float(vals[k])
            params = trial[k]
        step *= 0.5

    n1 = _directions(params[0], params[1])
    n2 = _directions(params[2], params[3])
    a1 = n1 @ cols
    a2 = n2 @ cols
    correlations = CorrelationSet(ab=float(a1[0]), apb=float(a2[0]),
                                  abp=float(a1[1]), apbp=float(a2[1]))
    return correlations, best, coarse
