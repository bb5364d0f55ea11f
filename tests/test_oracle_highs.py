"""The oracle against HiGHS, an LP solver that shares none of its code.

The package's other LP checks run its own simplex: ``reference`` prices a
dense matrix with it, and the lockstep kernel is checked against the scalar
loop. Here ``scipy.optimize.linprog(method="highs")`` solves the explicit
grid LP over ``reference.oracle_matrix``: minimise sum(s+ + s-) subject to
A x + s+ - s- = (c, 1) and x, s >= 0. Its optimum is the L1 distance of the
point from the grid hull (the weight row included), and it reads neither the
package's simplex nor f.

Where that distance exceeds 1e-6, every x >= 0 leaves some row's residual
above 1e-6 / 5, far above the oracle's tolerance, so the oracle must find the
point infeasible. Where it is below 1e-12, some x leaves every residual far
inside the tolerance, so the oracle must find it feasible. Between the two
nothing is claimed. Both classes must be non-empty at each grid, so a sample
cannot pass by landing in neither.
"""

import numpy as np
import pytest
from scipy.optimize import linprog

from chsh_steering.lhs_oracle import LOCKSTEP_ABOVE, boundary_band, lp_membership_batch
from reference import from_e_basis_array, oracle_matrix

# Multiples k of the band at which the strata sit, f = 1 + k * band.
_MULTIPLES = (-3.0, -1.005, -0.995, -0.5, 0.5, 0.995, 1.005, 3.0)


def _points(grid_n: int) -> np.ndarray:
    """300 seed-201 uniform points, then ten directions of each kind at each
    of ``_MULTIPLES``: both planes at odd multiples of pi / grid_n (mid-chord,
    where the grid's polygon sags most), then both planes at uniform angles."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(201)))
    uniform = rng.uniform(-1.0, 1.0, (300, 4))
    mid_chord = np.pi * (2 * rng.integers(0, grid_n, (10, 2)) + 1) / grid_n
    anywhere = rng.uniform(0.0, 2.0 * np.pi, (10, 2))
    band = boundary_band(grid_n)
    strata = []
    for angles in (mid_chord, anywhere):
        share = rng.uniform(0.05, 0.95, (len(angles), 1))
        planes = np.stack([np.cos(angles), np.sin(angles)], axis=2)
        unit = np.concatenate([share * planes[:, 0], (1.0 - share) * planes[:, 1]], axis=1)
        strata += [from_e_basis_array((1.0 + k * band) * unit) for k in _MULTIPLES]
    return np.concatenate([uniform, *strata])


def _highs_distances(points: np.ndarray, grid_n: int) -> np.ndarray:
    """Each point's L1 distance from the grid hull, by HiGHS."""
    A = oracle_matrix(grid_n)
    m, n = A.shape
    eye = np.eye(m)
    A_eq = np.hstack([A, eye, -eye])
    cost = np.concatenate([np.zeros(n), np.ones(2 * m)])
    distances = []
    for point in points:
        result = linprog(cost, A_eq=A_eq, b_eq=np.append(point, 1.0), bounds=(0.0, None),
                         method="highs")
        assert result.status == 0, result.message
        distances.append(result.fun)
    return np.array(distances)


@pytest.fixture(scope="module", params=[8, 64], ids=lambda g: f"grid{g}")
def solved(request):
    grid_n = request.param
    points = _points(grid_n)
    return grid_n, points, _highs_distances(points, grid_n)


# Slices of at most LOCKSTEP_ABOVE points run the scalar loop point by point;
# the whole sample runs in lockstep.
@pytest.mark.parametrize("size", [LOCKSTEP_ABOVE, None], ids=["per-point", "lockstep"])
def test_oracle_agrees_with_highs(solved, size):
    grid_n, points, distances = solved
    size = size or len(points)
    feasible = np.array([res.lp_feasible
                         for start in range(0, len(points), size)
                         for res in lp_membership_batch(points[start:start + size], grid_n)])
    far, near = distances > 1e-6, distances < 1e-12
    assert far.any() and near.any()
    assert np.flatnonzero(feasible & far).tolist() == []
    assert np.flatnonzero(~feasible & near).tolist() == []
