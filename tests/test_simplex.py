import numpy as np
import pytest

from chsh_steering import simplex
from chsh_steering.lhs_oracle import atom_matrix
from chsh_steering.simplex import (
    BLAND_AFTER,
    PIVOT_EPS,
    OracleError,
    _revised_pivots,
    lp_feasibility,
)


def test_infeasible_system():
    feasible, _, residuals = lp_feasibility(np.array([[1.0, 1.0], [1.0, 1.0]]),
                                            np.array([2.0, 3.0]))
    assert not feasible
    assert residuals.max() == pytest.approx(1.0, abs=1e-10)


def test_negative_rhs_handled():
    # The row is negated internally; the phase-1 point must satisfy the original.
    A = np.array([[-1.0, -1.0]])
    feasible, x, residuals = lp_feasibility(A, np.array([-2.0]))
    assert feasible
    assert residuals.max() == 0.0
    assert np.allclose(A @ x, [-2.0], atol=1e-12)
    assert (x >= 0.0).all()


def test_redundant_rows_are_feasible():
    A = np.array([[1.0, 1.0], [2.0, 2.0]])
    feasible, x, residuals = lp_feasibility(A, np.array([1.0, 2.0]))
    assert feasible
    assert residuals.max() <= 1e-12
    assert np.allclose(A @ x, [1.0, 2.0], atol=1e-12)


def _beale_problem():
    # Beale's degenerate LP, min c.x s.t. A x = b, x >= 0, with the slack basis:
    # it cycles under most-negative-reduced-cost pivoting.
    A = np.array([
        [0.25, -60.0, -1.0 / 25.0, 9.0, 1.0, 0.0, 0.0],
        [0.5, -90.0, -1.0 / 50.0, 3.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
    ])
    b = np.array([0.0, 0.0, 1.0])
    c = np.array([-0.75, 150.0, -1.0 / 50.0, 6.0, 0.0, 0.0, 0.0])
    # Slack basis: B^-1 = I, basic values b, zero duals and objective.
    tableau = np.zeros((4, 4))
    tableau[:3, :3] = np.eye(3)
    tableau[:3, 3] = b
    return A, c, tableau, [4, 5, 6]


def test_bland_terminates_on_cycling_example(monkeypatch):
    monkeypatch.setattr(simplex, "DEFAULT_MAX_ITER", 1000)
    A, c, tableau, basis = _beale_problem()
    _revised_pivots(A, c, np.ones(3), tableau, basis)
    # The bottom-right entry is -z; the optimum of Beale's LP is z = -1/20.
    assert tableau[3, 3] == pytest.approx(0.05, abs=1e-10)


def test_cycling_example_hits_limit_without_bland(monkeypatch):
    monkeypatch.setattr(simplex, "DEFAULT_MAX_ITER", 1000)
    monkeypatch.setattr(simplex, "BLAND_AFTER", 10**9)
    A, c, tableau, basis = _beale_problem()
    with pytest.raises(OracleError, match="iteration limit"):
        _revised_pivots(A, c, np.ones(3), tableau, basis)


def test_unbounded_ray_raises_oracle_error():
    # min -x0 s.t. x0 - x1 + x2 = 1, x >= 0, from the slack basis {x2}: x0
    # enters, then x1 prices negative along the ray x0 = 1 + t, x1 = t.
    A = np.array([[1.0, -1.0, 1.0]])
    tableau = np.array([[1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(OracleError, match="unbounded"):
        _revised_pivots(A, np.array([-1.0, 0.0, 0.0]), np.ones(1), tableau, [2])


def test_iteration_limit_raises_oracle_error(monkeypatch):
    A = np.array([[1.0, 0, 1, 0, 0], [0, 2, 0, 1, 0], [3, 2, 0, 0, 1]])
    b = np.array([4.0, 12.0, 18.0])
    assert lp_feasibility(A, b)[0]
    monkeypatch.setattr(simplex, "DEFAULT_MAX_ITER", 1)
    with pytest.raises(OracleError):
        lp_feasibility(A, b)


class TestFeasibility:
    def test_hull_membership(self):
        # Segment between (0, 1) and (1, 0): midpoint in, corner-ish point out.
        atoms = np.array([[0.0, 1.0], [1.0, 0.0]])
        A = np.vstack([atoms, np.ones(2)])
        feasible, x, residuals = lp_feasibility(A, np.array([0.5, 0.5, 1.0]))
        assert feasible
        assert residuals.max() <= 1e-12
        assert np.allclose(A @ x, [0.5, 0.5, 1.0], atol=1e-12)

        feasible, _, residuals = lp_feasibility(A, np.array([0.9, 0.9, 1.0]))
        assert not feasible
        assert residuals.max() > 0.1

    def test_residuals_are_per_row(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        feasible, _, residuals = lp_feasibility(A, np.array([1.0, 1.0, 5.0]))
        assert not feasible
        assert residuals.shape == (3,)

    def test_tolerance_controls_verdict(self):
        A = np.array([[1.0]])
        feasible, _, _ = lp_feasibility(A, np.array([-1e-12]), tol=1e-9)
        assert feasible
        feasible, _, _ = lp_feasibility(A, np.array([-1e-6]), tol=1e-9)
        assert not feasible
        # A negative or non-finite tolerance would call this feasible system infeasible.
        for tol in (-1.0, -1e-12, np.nan, np.inf):
            with pytest.raises(ValueError, match="tol"):
                lp_feasibility(A, np.array([1.0]), tol=tol)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            lp_feasibility(np.ones((2, 3)), np.ones(3))
        with pytest.raises(ValueError):
            lp_feasibility(np.ones(3), np.ones(3))

    @pytest.mark.parametrize("A, b", [
        ([[1.0, np.nan]], [1.0]),
        ([[1.0, np.inf]], [1.0]),
        ([[1.0, -np.inf]], [1.0]),
        ([[1.0, 1.0]], [np.nan]),
        ([[1.0, 1.0]], [-np.inf]),
    ])
    def test_non_finite_input_rejected(self, A, b):
        with pytest.raises(ValueError, match="finite"):
            lp_feasibility(np.array(A), np.array(b))

    def test_overflow_raises_oracle_error(self):
        # The single pivot divides 1e300 by 1e-9: the basic value overflows.
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(OracleError, match="finiteness"):
            lp_feasibility(np.array([[1e-9]]), np.array([1e300]))


def _dense_phase1(A, b):
    """The dense-tableau phase 1 the revised kernel replaced, kept as reference.

    Returns (feasible at tol 1e-9, residuals) from an explicit
    (m+1) x (n+m+1) tableau with the same entering, Bland and leaving rules.
    """
    m, n = A.shape
    flip = np.where(b < 0.0, -1.0, 1.0)
    A1 = A * flip[:, None]
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = A1
    tableau[:m, n:n + m] = np.eye(m)
    tableau[:m, -1] = b * flip
    tableau[m, :n] = -A1.sum(axis=0)
    tableau[m, -1] = -tableau[:m, -1].sum()
    basis = np.arange(n, n + m)
    width = n + m
    stall, bland = 0, False
    last_objective = tableau[m, -1]
    while True:
        reduced = tableau[m, :width]
        if bland:
            negative = np.nonzero(reduced < -PIVOT_EPS)[0]
            if negative.size == 0:
                break
            col = int(negative[0])
        else:
            col = int(np.argmin(reduced))
            if reduced[col] >= -PIVOT_EPS:
                break
        column = tableau[:m, col]
        rows = np.nonzero(column > PIVOT_EPS)[0]
        ratios = tableau[rows, -1] / column[rows]
        tied = rows[ratios == ratios.min()]
        row = int(tied[np.argmin(basis[tied])])
        tableau[row, :] /= tableau[row, col]
        factors = tableau[:, col].copy()
        factors[row] = 0.0
        tableau -= np.outer(factors, tableau[row, :])
        basis[row] = col
        if tableau[m, -1] > last_objective:
            last_objective, stall = tableau[m, -1], 0
        else:
            stall += 1
            bland = bland or stall >= BLAND_AFTER
    residuals = np.zeros(m)
    artificial = basis >= n
    residuals[basis[artificial] - n] = tableau[:m, -1][artificial]
    return bool((residuals <= 1e-9).all()), residuals


@pytest.mark.parametrize("grid_n", [8, 64, 2048])
def test_matches_dense_tableau_reference(grid_n):
    atoms = atom_matrix(grid_n)
    A = np.vstack([atoms, np.ones(atoms.shape[1])])
    rng = np.random.Generator(np.random.Philox(grid_n))
    for point in rng.uniform(-1.0, 1.0, (300, 4)):
        b = np.append(point, 1.0)
        feasible, x, residuals = lp_feasibility(A, b)
        ref_feasible, ref_residuals = _dense_phase1(A, b)
        assert feasible == ref_feasible
        assert abs(residuals.sum() - ref_residuals.sum()) <= 1e-9
        assert (x >= 0.0).all()
