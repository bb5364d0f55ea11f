import numpy as np
import pytest

from chsh_steering.simplex import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    OracleError,
    lp_feasibility,
    solve_lp,
)


def test_textbook_optimum():
    # max 3x1 + 5x2 with x1 <= 4, 2x2 <= 12, 3x1 + 2x2 <= 18, in slack form.
    A = np.array([[1.0, 0, 1, 0, 0], [0, 2, 0, 1, 0], [3, 2, 0, 0, 1]])
    b = np.array([4.0, 12.0, 18.0])
    c = np.array([-3.0, -5.0, 0.0, 0.0, 0.0])
    res = solve_lp(c, A, b)
    assert res.status == OPTIMAL
    assert np.allclose(res.x[:2], [2.0, 6.0], atol=1e-10)
    assert res.objective == pytest.approx(-36.0, abs=1e-10)


def test_infeasible_system():
    res = solve_lp(np.zeros(2), np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([2.0, 3.0]))
    assert res.status == INFEASIBLE
    assert res.residuals.max() == pytest.approx(1.0, abs=1e-10)


def test_unbounded_objective():
    res = solve_lp(np.array([-1.0, 0.0]), np.array([[1.0, -1.0]]), np.array([0.0]))
    assert res.status == UNBOUNDED


def test_negative_rhs_handled():
    # Same feasible set expressed with a negated row.
    res = solve_lp(np.array([1.0, 1.0]), np.array([[-1.0, -1.0]]), np.array([-2.0]))
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(2.0, abs=1e-10)


def test_redundant_constraint_dropped():
    A = np.array([[1.0, 1.0], [2.0, 2.0]])
    b = np.array([1.0, 2.0])
    res = solve_lp(np.array([1.0, 0.0]), A, b)
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(0.0, abs=1e-12)


def test_bland_terminates_on_cycling_example():
    # Classic degenerate LP that cycles under largest-coefficient pivoting.
    A = np.array([
        [0.25, -60.0, -1.0 / 25.0, 9.0, 1.0, 0.0, 0.0],
        [0.5, -90.0, -1.0 / 50.0, 3.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
    ])
    b = np.array([0.0, 0.0, 1.0])
    c = np.array([-0.75, 150.0, -1.0 / 50.0, 6.0, 0.0, 0.0, 0.0])
    res = solve_lp(c, A, b)
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(-0.05, abs=1e-10)


def test_iteration_limit_raises_oracle_error():
    A = np.array([[1.0, 0, 1, 0, 0], [0, 2, 0, 1, 0], [3, 2, 0, 0, 1]])
    b = np.array([4.0, 12.0, 18.0])
    with pytest.raises(OracleError):
        solve_lp(np.array([-3.0, -5.0, 0, 0, 0]), A, b, max_iter=1)


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
            solve_lp(np.ones(2), np.ones((2, 3)), np.ones(2))
