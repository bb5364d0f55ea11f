import numpy as np
import pytest

from chsh_steering import lhs_oracle, simplex
from chsh_steering.simplex import (
    DEFAULT_LP_TOL,
    MAX_LP_TOL,
    PIVOT_EPS,
    OracleError,
    _revised_pivots,
    lp_feasibility,
)
from reference import dense_lp_feasibility, dense_pricer, oracle_matrix


def test_infeasible_system():
    feasible, _, residuals = dense_lp_feasibility(np.array([[1.0, 1.0], [1.0, 1.0]]),
                                                  np.array([2.0, 3.0]))
    assert not feasible
    assert residuals.max() == pytest.approx(1.0, abs=1e-10)


def test_negative_rhs_handled():
    # The row is negated internally; the phase-1 point must satisfy the original.
    A = np.array([[-1.0, -1.0]])
    feasible, x, residuals = dense_lp_feasibility(A, np.array([-2.0]))
    assert feasible
    assert residuals.max() == 0.0
    assert np.allclose(A @ x, [-2.0], atol=1e-12)
    assert (x >= 0.0).all()


def test_redundant_rows_are_feasible():
    A = np.array([[1.0, 1.0], [2.0, 2.0]])
    feasible, x, residuals = dense_lp_feasibility(A, np.array([1.0, 2.0]))
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
    # Slack basis: B^-1 = I, basic values b, zero duals and objective. The
    # costs live in the pricer, which is the only place the loop sees them.
    tableau = [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0],
               [0.0, 0.0, 0.0, 0.0]]
    return dense_pricer(A, c), A.shape[1], tableau, [4, 5, 6]


def test_lexicographic_rule_terminates_on_cycling_example(monkeypatch):
    monkeypatch.setattr(simplex, "DEFAULT_MAX_ITER", 1000)
    price, n, tableau, basis = _beale_problem()
    calls = []

    def counted(duals, eps):
        calls.append(duals)
        return price(duals, eps)

    _revised_pivots(counted, n, [1.0] * 3, tableau, basis)
    # The bottom-right entry is -z; the optimum of Beale's LP is z = -1/20.
    # The first pivot ties rows 0 and 1 at ratio 0; a lowest-basic-index
    # tie-break takes row 0 there and cycles to the iteration limit.
    assert tableau[3][3] == pytest.approx(0.05, abs=1e-10)
    # Two pivots, then the pricing call that finds no entering column.
    assert len(calls) == 3


def test_unbounded_ray_raises_oracle_error():
    # min -x0 s.t. x0 - x1 + x2 = 1, x >= 0, from the slack basis {x2}: x0
    # enters, then x1 prices negative along the ray x0 = 1 + t, x1 = t.
    price = dense_pricer(np.array([[1.0, -1.0, 1.0]]), np.array([-1.0, 0.0, 0.0]))
    tableau = [[1.0, 1.0], [0.0, 0.0]]
    with pytest.raises(OracleError, match="unbounded"):
        _revised_pivots(price, 3, [1.0], tableau, [2])


def test_iteration_limit_raises_oracle_error(monkeypatch):
    A = np.array([[1.0, 0, 1, 0, 0], [0, 2, 0, 1, 0], [3, 2, 0, 0, 1]])
    b = np.array([4.0, 12.0, 18.0])
    assert dense_lp_feasibility(A, b)[0]
    monkeypatch.setattr(simplex, "DEFAULT_MAX_ITER", 1)
    with pytest.raises(OracleError):
        dense_lp_feasibility(A, b)


class TestFeasibility:
    def test_hull_membership(self):
        # Segment between (0, 1) and (1, 0): midpoint in, corner-ish point out.
        atoms = np.array([[0.0, 1.0], [1.0, 0.0]])
        A = np.vstack([atoms, np.ones(2)])
        feasible, x, residuals = dense_lp_feasibility(A, np.array([0.5, 0.5, 1.0]))
        assert feasible
        assert residuals.max() <= 1e-12
        assert np.allclose(A @ x, [0.5, 0.5, 1.0], atol=1e-12)

        feasible, _, residuals = dense_lp_feasibility(A, np.array([0.9, 0.9, 1.0]))
        assert not feasible
        assert residuals.max() > 0.1

    def test_residuals_are_per_row(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        feasible, _, residuals = dense_lp_feasibility(A, np.array([1.0, 1.0, 5.0]))
        assert not feasible
        assert residuals.shape == (3,)

    def test_tolerance_controls_verdict(self):
        A = np.array([[1.0]])
        feasible, _, _ = dense_lp_feasibility(A, np.array([-1e-12]), tol=1e-9)
        assert feasible
        feasible, _, _ = dense_lp_feasibility(A, np.array([-1e-6]), tol=1e-9)
        assert not feasible
        # A negative or non-finite tolerance would call this feasible system
        # infeasible; one above MAX_LP_TOL called [[1]] x = 5 feasible at 1e300.
        for tol in (-1.0, -1e-12, np.nan, np.inf, 1e300, np.nextafter(MAX_LP_TOL, 1.0)):
            with pytest.raises(ValueError, match="tol"):
                dense_lp_feasibility(A, np.array([1.0]), tol=tol)
        feasible, _, _ = dense_lp_feasibility(A, np.array([1.0]), tol=MAX_LP_TOL)
        assert feasible

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            dense_lp_feasibility(np.ones((2, 3)), np.ones(3))
        with pytest.raises(ValueError):
            dense_lp_feasibility(np.ones(3), np.ones(3))
        # The solver itself sees only b: it must be a vector.
        with pytest.raises(ValueError, match="vector"):
            lp_feasibility(dense_pricer(np.ones((2, 3))), 3, np.ones((2, 1)))

    @pytest.mark.parametrize("A, b", [
        ([[1.0, np.nan]], [1.0]),
        ([[1.0, np.inf]], [1.0]),
        ([[1.0, -np.inf]], [1.0]),
        ([[1.0, 1.0]], [np.nan]),
        ([[1.0, 1.0]], [-np.inf]),
    ])
    def test_non_finite_input_rejected(self, A, b):
        with pytest.raises(ValueError, match="finite"):
            dense_lp_feasibility(np.array(A), np.array(b))

    def test_overflow_raises_oracle_error(self):
        # The single pivot divides 1e300 by 1e-9: the basic value overflows.
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(OracleError, match="finiteness"):
            dense_lp_feasibility(np.array([[1e-9]]), np.array([1e300]))


def _dense_phase1(A, b):
    """The dense-tableau phase 1 the revised kernel replaced, kept as reference.

    Returns (feasible at tol 1e-9, residuals) from an explicit
    (m+1) x (n+m+1) tableau over the sign-flipped rows ``flip * A``, whose
    artificial basis starts as the identity. It breaks a ratio tie by the
    least row of that tableau's artificial block, which is B^-1 with its
    columns scaled by ``flip``: another lexicographic order than the
    kernel's wherever some b_i < 0, and anti-cycling on its own.
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
    while True:
        col = int(np.argmin(tableau[m, :n + m]))
        if tableau[m, col] >= -PIVOT_EPS:
            break
        column = tableau[:m, col]
        rows = np.nonzero(column > PIVOT_EPS)[0]
        keys = (tableau[rows][:, [-1, *range(n, n + m)]] / column[rows, None]).tolist()
        row = int(rows[keys.index(min(keys))])
        tableau[row, :] /= tableau[row, col]
        factors = tableau[:, col].copy()
        factors[row] = 0.0
        tableau -= np.outer(factors, tableau[row, :])
        basis[row] = col
    residuals = np.zeros(m)
    artificial = basis >= n
    residuals[basis[artificial] - n] = tableau[:m, -1][artificial]
    return bool((residuals <= 1e-9).all()), residuals


@pytest.mark.parametrize("grid_n", [8, 64, 2048])
def test_matches_dense_tableau_reference(grid_n):
    # The oracle's LP, priced in closed form over implicit columns, against
    # the dense tableau over the explicit atom matrix.
    A = oracle_matrix(grid_n)
    price = lhs_oracle._grid_pricer(grid_n)
    rng = np.random.Generator(np.random.Philox(grid_n))
    for point in rng.uniform(-1.0, 1.0, (300, 4)):
        b = np.append(point, 1.0)
        feasible, x, residuals = lp_feasibility(price, 2 * grid_n, b)
        ref_feasible, ref_residuals = _dense_phase1(A, b)
        assert feasible == ref_feasible
        assert abs(residuals.sum() - ref_residuals.sum()) <= 1e-9
        assert all(value >= 0.0 for value in x.values())


@pytest.mark.parametrize("grid_n", [8, 64])
def test_degenerate_points_match_dense_reference(grid_n):
    # Dyadic points (quarters and eighths) and points with two zero
    # coordinates tie the minimum ratio, so the lexicographic tie-break
    # chooses many of their pivots.
    A = oracle_matrix(grid_n)
    price = lhs_oracle._grid_pricer(grid_n)
    rng = np.random.Generator(np.random.Philox(59 + grid_n))
    half_zero = rng.uniform(-1.0, 1.0, (40, 4))
    half_zero[np.arange(40)[:, None], rng.permuted(np.tile(np.arange(4), (40, 1)), axis=1)[:, :2]] = 0.0
    points = np.concatenate([rng.integers(-4, 5, (40, 4)) / 4.0,
                             rng.integers(-8, 9, (40, 4)) / 8.0, half_zero])
    for point in points:
        b = np.append(point, 1.0)
        feasible, x, residuals = lp_feasibility(price, 2 * grid_n, b)
        ref_feasible, ref_residuals = _dense_phase1(A, b)
        assert feasible == ref_feasible
        assert abs(residuals.sum() - ref_residuals.sum()) <= 1e-9
        # A basic value that is zero in exact arithmetic may round to -1e-17;
        # lp_feasibility reports it as 0.
        assert all(value >= 0.0 for value in x.values())
        if feasible:
            dense = np.zeros(2 * grid_n)
            dense[list(x)] = list(x.values())
            assert np.abs(A @ dense - b).max() <= DEFAULT_LP_TOL
