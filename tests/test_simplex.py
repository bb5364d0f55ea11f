import numpy as np
import pytest

from chsh_steering import simplex
from chsh_steering.simplex import (
    BLAND_AFTER,
    PIVOT_EPS,
    OracleError,
    _PIVOT_ITERATION_LIMIT,
    _PIVOT_OPTIMAL,
    _simplex_pivots,
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


def _beale_tableau():
    # Beale's degenerate LP, min c.x s.t. A x = b, x >= 0, with the slack basis:
    # it cycles under most-negative-reduced-cost pivoting.
    A = np.array([
        [0.25, -60.0, -1.0 / 25.0, 9.0, 1.0, 0.0, 0.0],
        [0.5, -90.0, -1.0 / 50.0, 3.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
    ])
    b = np.array([0.0, 0.0, 1.0])
    c = np.array([-0.75, 150.0, -1.0 / 50.0, 6.0, 0.0, 0.0, 0.0])
    tableau = np.zeros((4, 8))
    tableau[:3, :7] = A
    tableau[:3, -1] = b
    tableau[3, :7] = c
    return tableau, np.array([4, 5, 6], dtype=np.int64)


def test_bland_terminates_on_cycling_example():
    tableau, basis = _beale_tableau()
    status = _simplex_pivots(tableau, basis, PIVOT_EPS, 1000, BLAND_AFTER)
    assert status == _PIVOT_OPTIMAL
    # The bottom-right entry is -z; the optimum of Beale's LP is z = -1/20.
    assert tableau[3, -1] == pytest.approx(0.05, abs=1e-10)


def test_cycling_example_hits_limit_without_bland():
    tableau, basis = _beale_tableau()
    status = _simplex_pivots(tableau, basis, PIVOT_EPS, 1000, 10**9)
    assert status == _PIVOT_ITERATION_LIMIT


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

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            lp_feasibility(np.ones((2, 3)), np.ones(3))
        with pytest.raises(ValueError):
            lp_feasibility(np.ones(3), np.ones(3))
