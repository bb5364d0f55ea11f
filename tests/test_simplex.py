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
    lp_feasibility_batch,
)
from chsh_steering.correlation_model import to_e_basis_array
from chsh_steering.steering_witness import f_value_array
from reference import (
    batched_pricer,
    dense_lp_feasibility,
    dense_pricer,
    from_e_basis_array,
    oracle_matrix,
)


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
    return dense_pricer(A, c), tableau, [4, 5, 6]


def test_lexicographic_rule_terminates_on_cycling_example(monkeypatch):
    monkeypatch.setattr(simplex, "DEFAULT_MAX_ITER", 1000)
    price, tableau, basis = _beale_problem()
    calls = []

    def counted(duals):
        calls.append(duals)
        return price(duals)

    _revised_pivots(counted, [1.0] * 3, tableau, basis)
    # The bottom-right entry is -z; the optimum of Beale's LP is z = -1/20.
    # The first pivot ties rows 0 and 1 at ratio 0; a lowest-basic-index
    # tie-break takes row 0 there and cycles to the iteration limit.
    assert tableau[3][3] == pytest.approx(0.05, abs=1e-10)
    # Two pivots, then the pricing call whose column does not enter.
    assert len(calls) == 3


def test_ratio_tie_goes_to_the_lexicographically_least_row():
    # min -x0 s.t. x0 + s0 = 1, x0 + s1 = 1, x >= 0, from the basis
    # {s1, s0}: B^-1 swaps the rows, and x0 ties both at ratio 1. Divided by
    # its entry 1, row 0 of B^-1 is (0, 1) and row 1 is (1, 0), so row 0,
    # the first, is the lexicographically least and s1 leaves.
    price = dense_pricer(np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]]),
                         np.array([-1.0, 0.0, 0.0]))
    tableau = [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [0.0, 0.0, 0.0]]
    basis = [2, 1]
    _revised_pivots(price, [1.0, 1.0], tableau, basis)
    assert basis == [0, 1]
    # x0 = 1 with s0 = 0 left basic, and z = -1 (the entry holds -z).
    assert tableau == [[0.0, 1.0, 1.0], [1.0, -1.0, 0.0], [0.0, 1.0, 1.0]]


def test_unbounded_ray_raises_oracle_error():
    # min -x0 s.t. x0 - x1 + x2 = 1, x >= 0, from the slack basis {x2}: x0
    # enters, then x1 prices negative along the ray x0 = 1 + t, x1 = t.
    price = dense_pricer(np.array([[1.0, -1.0, 1.0]]), np.array([-1.0, 0.0, 0.0]))
    tableau = [[1.0, 1.0], [0.0, 0.0]]
    with pytest.raises(OracleError, match="unbounded"):
        _revised_pivots(price, [1.0], tableau, [2])


def test_real_column_wins_a_tie_with_an_artificial():
    # min 2 x0 + x1 + a s.t. x0 + x1 + a = 1 from the basis {x0}: the duals
    # are y = 2, so x1 and the artificial a both price at 1 - 2 = -1. The
    # real column comes first, so x1 enters; either choice is optimal.
    price = dense_pricer(np.array([[1.0, 1.0]]), np.array([2.0, 1.0]))
    tableau = [[1.0, 1.0], [-2.0, -2.0]]
    basis = [0]
    _revised_pivots(price, [1.0], tableau, basis)
    assert basis == [1]
    assert tableau == [[1.0, 1.0], [-1.0, -1.0]]


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
        # Row 0 is met by x0 = 1; row 1 cannot be, and its artificial stays
        # basic with the whole of b1 (the artificial of row i is ~i).
        feasible, x, residuals = dense_lp_feasibility(np.array([[1.0], [0.0]]),
                                                      np.array([1.0, 2.0]))
        assert not feasible
        assert residuals.tolist() == [0.0, 2.0]
        assert x.tolist() == [1.0]

    def test_reduced_cost_of_minus_pivot_eps_does_not_enter(self):
        # Entries at or below PIVOT_EPS count as zero, reduced costs too: the
        # column's reduced cost is exactly -PIVOT_EPS at the artificial start,
        # so phase 1 ends at once with the whole of b as the residual.
        feasible, x, residuals = dense_lp_feasibility(np.array([[PIVOT_EPS]]),
                                                      np.array([1.0]))
        assert not feasible
        assert residuals.tolist() == [1.0]
        assert x.tolist() == [0.0]

    def test_tolerance_controls_verdict(self):
        A = np.array([[1.0]])
        feasible, _, _ = dense_lp_feasibility(A, np.array([-1e-12]), tol=1e-9)
        assert feasible
        feasible, _, _ = dense_lp_feasibility(A, np.array([-1e-6]), tol=1e-9)
        assert not feasible
        # The band is closed: a residual of exactly tol passes.
        feasible, _, residuals = dense_lp_feasibility(A, np.array([-2.0 ** -20]),
                                                      tol=2.0 ** -20)
        assert feasible
        assert residuals.max() == 2.0 ** -20
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
            lp_feasibility(dense_pricer(np.ones((2, 3))), np.ones((2, 1)))

    def test_empty_b_rejected_before_pricing(self):
        # It used to call the pricer with no duals and then fail inside
        # max() on an empty sequence.
        calls = []

        def price(duals):
            calls.append(duals)
            raise AssertionError("priced an empty system")

        with pytest.raises(ValueError, match=r"non-empty vector, got shape \(0,\)"):
            lp_feasibility(price, [])
        assert calls == []

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
        feasible, x, residuals = lp_feasibility(price, b)
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
        feasible, x, residuals = lp_feasibility(price, b)
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


def _counted(price):
    """``price`` and a list that gains one entry per call."""
    calls = []

    def counted(duals):
        calls.append(None)
        return price(duals)

    return counted, calls


@pytest.mark.parametrize("tol", [0.0, DEFAULT_LP_TOL, MAX_LP_TOL])
@pytest.mark.parametrize("grid_n", [8, 64, 2048, 2 ** 20])
def test_convex_stop_keeps_every_verdict(grid_n, tol):
    # Uniform points, and points in random directions at f = 1 + k band and
    # 1 + k tol, where the phase-1 optimum comes closest to m tol: the
    # convex run stops early on some of them and must give the full phase
    # 1's verdict on every one, with a residual above tol where it stopped.
    rng = np.random.Generator(np.random.Philox(7 * grid_n + round(tol * 1e9)))
    raw = to_e_basis_array(rng.uniform(-1.0, 1.0, (120, 4)))
    scale = np.repeat([lhs_oracle.boundary_band(grid_n, tol), tol], 60)
    multiple = rng.choice([-3.0, -1.005, -0.995, -0.5, 0.5, 0.995, 1.005, 3.0, 30.0], 120)
    targets = 1.0 + multiple * scale
    points = np.concatenate([rng.uniform(-1.0, 1.0, (120, 4)),
                             from_e_basis_array(raw * (targets / f_value_array(raw))[:, None])])
    price = lhs_oracle._grid_pricer(grid_n)
    stopped = 0
    for point in points.tolist():
        b = [*point, 1.0]
        full, full_calls = _counted(price)
        convex, convex_calls = _counted(price)
        feasible = lp_feasibility(full, b, tol=tol)[0]
        convex_feasible, _, residuals = lp_feasibility(convex, b, tol=tol, convex=True)
        assert convex_feasible == feasible
        if len(convex_calls) < len(full_calls):
            stopped += 1
            assert residuals.max() > tol
    assert stopped > 0


def test_convex_stop_needs_m_times_tol():
    # The optimum 1.8 tol lies in (tol, 3 tol], but each of its residuals
    # is 0.9 tol: the system is feasible, although the first bound, 1.8 tol,
    # already exceeds tol.
    tol = DEFAULT_LP_TOL
    b = [0.9 * tol, 0.9 * tol, 1.0]
    feasible, x, residuals = lp_feasibility(dense_pricer(np.array([[0.0], [0.0], [1.0]])),
                                            b, tol=tol, convex=True)
    assert feasible
    assert x == {0: 1.0}
    assert residuals.tolist() == [0.9 * tol, 0.9 * tol, 0.0]


def test_convex_stop_leaves_a_rounding_margin():
    # At the artificial start the bound is b0, above 2 tol by 1e-12, less
    # than the pad of 2^-40 (2 + b0); the pivots go on to the optimum,
    # where the weight row is met and only b0 is left.
    tol = DEFAULT_LP_TOL
    b = [2.0 * tol + 1e-12, 1.0]
    feasible, x, residuals = lp_feasibility(dense_pricer(np.array([[0.0], [1.0]])),
                                            b, tol=tol, convex=True)
    assert not feasible
    assert x == {0: 1.0}
    assert residuals.tolist() == [b[0], 0.0]


def test_convex_stop_waits_for_every_artificial(monkeypatch):
    # Three pivots in, a real column enters while a non-basic artificial
    # prices at -0.5, and reduced + y.b reads 0.75 although the optimum is
    # 0.5: the bound holds only where no artificial prices below 0. With
    # m tol = 0.6 between the two, the pivots must run on to the optimum.
    monkeypatch.setattr(simplex, "MAX_LP_TOL", 1.0)
    price = dense_pricer(np.array([[-2.0, 3.0, 3.0, -1.0, 0.0],
                                   [2.0, 4.0, 2.0, -4.0, 1.0],
                                   [-4.0, -2.0, 1.0, 0.0, -1.0],
                                   [1.0, 1.0, 1.0, 1.0, 1.0]]))
    b = [-0.5, 1.0, -1.0, 1.0]
    full = lp_feasibility(price, b, tol=0.15)
    convex = lp_feasibility(price, b, tol=0.15, convex=True)
    assert full[2].tolist() == convex[2].tolist() == [0.5, 0.0, 0.0, 0.0]
    assert full[1] == convex[1]


def test_convex_contract_is_checked():
    calls = []

    def price(duals):
        calls.append(duals)
        return 0, -1.0, [0.0, 1.0]

    for last in (0.0, 0.5, 2.0, -1.0):
        with pytest.raises(ValueError, match=r"b\[-1\] == 1"):
            lp_feasibility(price, [0.0, last], convex=True)
    assert calls == []
    # A column whose weight-row entry is not 1 would void the bound: x = 2
    # solves this system, with a weight above 1.
    price = dense_pricer(np.array([[0.5], [0.5]]))
    with pytest.raises(OracleError, match="ends in 0.5, not 1"):
        lp_feasibility(price, [1.0, 1.0], convex=True)
    assert lp_feasibility(price, [1.0, 1.0])[1] == {0: 2.0}


def _each_alone(price, B, tol=DEFAULT_LP_TOL):
    """``lp_feasibility_batch``'s (feasible, residuals) from one convex
    ``lp_feasibility`` per row of ``B``."""
    results = [lp_feasibility(price, row, tol=tol, convex=True) for row in B.tolist()]
    return (np.array([feasible for feasible, _, _ in results]),
            np.array([residuals for _, _, residuals in results]))


def _assert_same_bits(got, expected):
    assert got[0].tolist() == expected[0].tolist()
    assert ([[v.hex() for v in row] for row in got[1].tolist()]
            == [[v.hex() for v in row] for row in expected[1].tolist()])


@pytest.mark.parametrize("price, b, tol", [
    # test_convex_stop_needs_m_times_tol: feasible, though the first bound
    # exceeds tol.
    (dense_pricer(np.array([[0.0], [0.0], [1.0]])), [0.9e-9, 0.9e-9, 1.0], DEFAULT_LP_TOL),
    # test_convex_stop_leaves_a_rounding_margin: the pad keeps the pivots going.
    (dense_pricer(np.array([[0.0], [1.0]])), [2e-9 + 1e-12, 1.0], DEFAULT_LP_TOL),
    # The first pivot ties rows 0 and 1 at ratio 0; divided by its entry, row
    # 1 of B^-1 = I is (0, 2, 0), lexicographically below row 0's (1, 0, 0).
    # Row 0 instead would end at residuals (0, 0, 1), not (0, 0.5, 0).
    (dense_pricer(np.array([[1.0, 0.0], [0.5, -0.5], [1.0, 1.0]])), [0.0, 0.0, 1.0],
     DEFAULT_LP_TOL),
])
def test_lockstep_runs_the_scalar_pivots(price, b, tol):
    # Alone, among copies of itself and beside other right-hand sides, each
    # system ends with lp_feasibility's verdict and residual bits.
    B = np.array([b, b, [0.0] * (len(b) - 1) + [1.0], b, [-0.5] * (len(b) - 1) + [1.0]])
    for rows in (B[:1], B):
        _assert_same_bits(lp_feasibility_batch(batched_pricer(price), rows, tol=tol),
                          _each_alone(price, rows, tol))


def test_lockstep_stop_waits_for_every_artificial(monkeypatch):
    # test_convex_stop_waits_for_every_artificial's system: the bound reads
    # 0.75 while an artificial prices at -0.5, and the optimum is 0.5.
    monkeypatch.setattr(simplex, "MAX_LP_TOL", 1.0)
    price = dense_pricer(np.array([[-2.0, 3.0, 3.0, -1.0, 0.0],
                                   [2.0, 4.0, 2.0, -4.0, 1.0],
                                   [-4.0, -2.0, 1.0, 0.0, -1.0],
                                   [1.0, 1.0, 1.0, 1.0, 1.0]]))
    B = np.array([[-0.5, 1.0, -1.0, 1.0]] * 2)
    feasible, residuals = lp_feasibility_batch(batched_pricer(price), B, tol=0.15)
    assert feasible.tolist() == [False, False]
    assert residuals.tolist() == [[0.5, 0.0, 0.0, 0.0]] * 2


@pytest.mark.parametrize("grid_n", [8, 64])
def test_lockstep_breaks_exact_ratio_ties_per_point(grid_n):
    # test_degenerate_points_match_dense_reference's dyadic points tie the
    # minimum ratio, so the lexicographic rule picks many of their pivots.
    price = lhs_oracle._grid_pricer(grid_n)
    rng = np.random.Generator(np.random.Philox(59 + grid_n))
    points = np.concatenate([rng.integers(-4, 5, (40, 4)) / 4.0,
                             rng.integers(-8, 9, (40, 4)) / 8.0])
    B = np.column_stack([points, np.ones(len(points))])
    _assert_same_bits(lp_feasibility_batch(lhs_oracle._grid_pricer_batch(grid_n), B),
                      _each_alone(price, B))


def test_lockstep_skips_the_column_of_a_finished_system():
    # System 0 is optimal at the start: its best column, (1, -1), does not
    # enter, and B^-1 times it has no positive entry. System 1 pivots on
    # (3, 1). Only entering columns face the ratio test, so this is no
    # unbounded ray; lp_feasibility never looks at that column either.
    price = dense_pricer(np.array([[1.0, 3.0], [-1.0, 1.0]]))
    B = np.array([[-0.5, 1.0], [0.5, 1.0]])
    _assert_same_bits(lp_feasibility_batch(batched_pricer(price), B), _each_alone(price, B))


def test_lockstep_contract_is_checked():
    calls = []

    def price(duals):
        calls.append(duals)
        raise AssertionError("priced a rejected batch")

    for B, message in [
        (np.ones(3), r"\(N, m\) array with m >= 1, got shape \(3,\)"),
        (np.ones((2, 0)), r"\(N, m\) array with m >= 1, got shape \(2, 0\)"),
        (np.ones((2, 3, 1)), r"got shape \(2, 3, 1\)"),
        ([[np.nan, 1.0]], "finite"),
        ([[0.0, 1.0], [np.inf, 1.0]], "finite"),
        ([[0.0, 1.0], [0.0, 0.5]], r"B\[:, -1\] == 1"),
        ([[0.0, -1.0]], r"B\[:, -1\] == 1"),
    ]:
        with pytest.raises(ValueError, match=message):
            lp_feasibility_batch(price, B)
    for tol in (-1e-12, np.nan, np.inf, np.nextafter(MAX_LP_TOL, 1.0)):
        with pytest.raises(ValueError, match="tol"):
            lp_feasibility_batch(price, [[0.0, 1.0]], tol=tol)
    feasible, residuals = lp_feasibility_batch(price, np.zeros((0, 5)))
    assert feasible.shape == (0,) and residuals.shape == (0, 5)
    assert calls == []
    # An entering column without the final 1 voids the bound, in lockstep too.
    price = dense_pricer(np.array([[0.5], [0.5]]))
    with pytest.raises(OracleError, match="ends in 0.5, not 1"):
        lp_feasibility_batch(batched_pricer(price), [[0.0, 1.0], [1.0, 1.0]])


def test_lockstep_numerical_failures_raise_oracle_error(monkeypatch):
    # A NaN reduced cost for one system of the batch.
    def nan_for_second(duals):
        cols, reduced, columns = batched_pricer(dense_pricer(np.ones((2, 1))))(duals)
        reduced[1] = np.nan
        return cols, reduced, columns

    with pytest.raises(OracleError, match="non-finite reduced cost"):
        lp_feasibility_batch(nan_for_second, [[0.5, 1.0], [0.25, 1.0], [0.0, 1.0]])
    # A NaN entry in an entering column makes every entry of B^-1 a NaN:
    # no row can leave.
    def price(duals):
        return 0, -1.0, [np.nan, 1.0]

    for solve in (lambda: lp_feasibility(price, [0.5, 1.0], convex=True),
                  lambda: lp_feasibility_batch(batched_pricer(price), [[0.5, 1.0]])):
        with pytest.raises(OracleError, match="unbounded"):
            solve()
    # A cost of -1e308 overflows the bottom row at the first pivot.
    price = dense_pricer(np.array([[0.5], [1.0]]), np.array([-1e308]))
    for solve in (lambda: lp_feasibility(price, [0.25, 1.0], convex=True),
                  lambda: lp_feasibility_batch(batched_pricer(price), [[0.25, 1.0]])):
        with np.errstate(over="ignore"), pytest.raises(OracleError, match="finiteness"):
            solve()
    monkeypatch.setattr(simplex, "DEFAULT_MAX_ITER", 1)
    price = dense_pricer(np.array([[1.0, 0.0], [1.0, 1.0]]))
    with pytest.raises(OracleError, match="iteration limit"):
        lp_feasibility_batch(batched_pricer(price), [[0.5, 1.0]])


@pytest.mark.parametrize("reduced", [np.nan, np.inf])
@pytest.mark.parametrize("convex", [False, True])
def test_non_finite_reduced_cost_raises_oracle_error(convex, reduced):
    # NaN fails every comparison, so "not reduced < -PIVOT_EPS" once read it
    # as optimal and phase 1 returned a verdict, (False, {}, [0.5, 1.0]);
    # +inf did the same.
    def price(duals):
        return 0, reduced, [1.0, 1.0]

    with pytest.raises(OracleError, match="non-finite reduced cost"):
        lp_feasibility(price, [0.5, 1.0], convex=convex)
