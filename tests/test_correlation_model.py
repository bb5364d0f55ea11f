import numpy as np
import pytest
from hypothesis import given, strategies as st

from chsh_steering.correlation_model import (
    ALICE_SIGNS,
    ConstraintError,
    CorrelationSet,
    EBasisVector,
    Marginals,
    correlation_set_from_json_dict,
    correlations_from_matrix,
    extremal_correlations,
    extremal_correlations_array,
    to_e_basis,
    to_e_basis_array,
    validate_correlation_matrix,
)
from reference import from_e_basis, matrix_from_correlations, matrix_from_extremal

correlator = st.floats(min_value=-1.0, max_value=1.0)
angle = st.floats(min_value=0.0, max_value=2.0 * np.pi)
_SCALES = pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-150])


def _seeded_correlators(scale, n=2000):
    rng = np.random.Generator(np.random.Philox(89))
    return rng.uniform(-1.0, 1.0, size=(n, 4)) * scale


def brute_force_correlator(matrix, ia, ib):
    # Direct sum over the 2x2 block with explicit outcome signs.
    total = 0.0
    for b_out, b_sign in ((0, 1.0), (1, -1.0)):
        for a_out, a_sign in ((0, 1.0), (1, -1.0)):
            total += a_sign * b_sign * matrix[2 * ib + b_out, 2 * ia + a_out]
    return total


def random_lhv_matrix(rng, atoms=6):
    weights = rng.dirichlet(np.ones(atoms))
    m = np.zeros((4, 4))
    for w in weights:
        chi = int(rng.integers(1, 5))
        m += w * matrix_from_extremal(chi, tuple(rng.uniform(0.0, 1.0, 2)))
    return m


class TestMatrixReduction:
    def test_uniform_matrix_uncorrelated(self):
        c = correlations_from_matrix(np.full((4, 4), 0.25))
        assert np.allclose(c.as_array(), 0.0, atol=1e-14)

    def test_extremal_atom_chi1_xi0(self):
        # Bob probabilities on the unbiased circle at xi=0 are (1, 1/2).
        m = matrix_from_extremal(1, (1.0, 0.5))
        c = correlations_from_matrix(m)
        assert np.allclose(c.as_array(), [1.0, 1.0, 0.0, 0.0], atol=1e-14)

    def test_random_matrix_matches_brute_force(self):
        rng = np.random.Generator(np.random.Philox(17))
        for _ in range(50):
            m = random_lhv_matrix(rng)
            c = correlations_from_matrix(m)
            expected = [brute_force_correlator(m, ia, ib)
                        for ia, ib in ((0, 0), (1, 0), (0, 1), (1, 1))]
            assert np.allclose(c.as_array(), expected, atol=1e-12)

    def test_marginals_extracted(self):
        m = matrix_from_extremal(2, (0.8, 0.3))
        c = correlations_from_matrix(m)
        assert c.marginals.a == pytest.approx(1.0)
        assert c.marginals.ap == pytest.approx(-1.0)
        assert c.marginals.b == pytest.approx(0.6)
        assert c.marginals.bp == pytest.approx(-0.4)


class TestMatrixConstruction:
    def test_template_chi1(self):
        pb, pbp = 0.7, 0.2
        m = matrix_from_extremal(1, (pb, pbp))
        expected = np.array([
            [pb, 0.0, pb, 0.0],
            [1 - pb, 0.0, 1 - pb, 0.0],
            [pbp, 0.0, pbp, 0.0],
            [1 - pbp, 0.0, 1 - pbp, 0.0],
        ])
        assert np.allclose(m, expected, atol=1e-15)

    def test_chi4_mass_in_minus_columns(self):
        m = matrix_from_extremal(4, (0.5, 0.5))
        assert np.allclose(m[:, 0], 0.0) and np.allclose(m[:, 2], 0.0)
        assert m[:, 1].sum() == pytest.approx(2.0)

    def test_outputs_always_valid(self):
        rng = np.random.Generator(np.random.Philox(23))
        for _ in range(25):
            chi = int(rng.integers(1, 5))
            m = matrix_from_extremal(chi, tuple(rng.uniform(0.0, 1.0, 2)))
            validate_correlation_matrix(m)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            matrix_from_extremal(5, (0.5, 0.5))
        with pytest.raises(ValueError):
            matrix_from_extremal(1, (1.5, 0.5))


class TestValidation:
    def test_normalisation_failure_named(self):
        m = np.full((4, 4), 0.25)
        m[0, 0] = 0.3
        with pytest.raises(ConstraintError, match="normalisation"):
            validate_correlation_matrix(m)

    def test_signalling_failure_named(self):
        # Bob's marginal depends on Alice's setting.
        m = 0.5 * (matrix_from_extremal(1, (0.9, 0.5)) + matrix_from_extremal(4, (0.1, 0.5)))
        m[:, [0, 1]] = matrix_from_extremal(1, (0.9, 0.5))[:, [0, 1]]
        with pytest.raises(ConstraintError, match="no-signalling"):
            validate_correlation_matrix(m)

    def test_range_failure_named(self):
        m = np.full((4, 4), 0.25)
        m[0, 0], m[1, 0] = 1.2, -0.7
        with pytest.raises(ConstraintError, match="outside"):
            validate_correlation_matrix(m)

    def test_tolerance_is_configurable(self):
        m = np.full((4, 4), 0.25)
        m[0, 0] += 5e-7
        m[1, 0] -= 5e-7
        with pytest.raises(ConstraintError):
            validate_correlation_matrix(m)
        validate_correlation_matrix(m, tol=1e-5)
        validate_correlation_matrix(m, tol=1e-2)
        for tol in (float("nan"), -1.0, 0.0101, 1e300, float("inf")):
            with pytest.raises(ValueError, match="tolerance"):
                validate_correlation_matrix(m, tol=tol)

    def test_failures_print_plain_floats(self):
        m = np.full((4, 4), 0.25)
        m[0, 0] = 0.3
        with pytest.raises(ConstraintError, match=r"sum=1\.05") as info:
            validate_correlation_matrix(m)
        assert "np.float64" not in str(info.value)


class TestEBasis:
    @given(xi=angle)
    def test_first_plane_form(self, xi):
        c = CorrelationSet(np.cos(xi), np.cos(xi), np.sin(xi), np.sin(xi))
        v = to_e_basis(c)
        assert np.allclose(v.as_array(), [np.cos(xi), np.sin(xi), 0.0, 0.0], atol=1e-15)

    @given(xi=angle)
    def test_second_plane_form(self, xi):
        c = CorrelationSet(np.cos(xi), -np.cos(xi), np.sin(xi), -np.sin(xi))
        v = to_e_basis(c)
        assert np.allclose(v.as_array(), [0.0, 0.0, np.cos(xi), np.sin(xi)], atol=1e-15)

    def test_hand_computed_example(self):
        v = to_e_basis(CorrelationSet(1.0, 0.0, 0.0, 1.0))
        assert v == EBasisVector(0.5, 0.5, 0.5, -0.5)

    def test_basis_vectors_map_back(self):
        assert from_e_basis(EBasisVector(1, 0, 0, 0)).as_array().tolist() == [1, 1, 0, 0]
        assert from_e_basis(EBasisVector(0, 0, 1, 0)).as_array().tolist() == [1, -1, 0, 0]
        assert from_e_basis(EBasisVector(0.5, 0.5, 0.5, -0.5)).as_array().tolist() == [1, 0, 0, 1]

    @given(ab=correlator, apb=correlator, abp=correlator, apbp=correlator)
    def test_round_trip(self, ab, apb, abp, apbp):
        c = CorrelationSet(ab, apb, abp, apbp)
        back = from_e_basis(to_e_basis(c))
        assert np.abs(back.as_array() - c.as_array()).max() <= 1e-14

    @given(ab=correlator, apb=correlator, abp=correlator, apbp=correlator,
           lam=st.floats(min_value=0.0, max_value=1.0))
    def test_linearity(self, ab, apb, abp, apbp, lam):
        c1 = np.array([ab, apb, abp, apbp])
        c2 = np.array([apb, abp, apbp, ab])
        mixed = to_e_basis_array(lam * c1 + (1.0 - lam) * c2)
        parts = lam * to_e_basis_array(c1) + (1.0 - lam) * to_e_basis_array(c2)
        assert np.abs(mixed - parts).max() <= 1e-14

    @staticmethod
    def _reference_to_e_basis(c: CorrelationSet) -> EBasisVector:
        return EBasisVector(
            v1=0.5 * (c.ab + c.apb),
            v2=0.5 * (c.abp + c.apbp),
            v3=0.5 * (c.ab - c.apb),
            v4=0.5 * (c.abp - c.apbp),
        )

    @_SCALES
    def test_bitwise_equal_to_scalar_reference(self, scale):
        for row in _seeded_correlators(scale):
            c = CorrelationSet(*row)
            v = to_e_basis(c)
            assert v == self._reference_to_e_basis(c)


class TestExtremalCorrelations:
    def test_chi1_quarter(self):
        c = extremal_correlations(1, np.pi / 4.0)
        assert np.allclose(c.as_array(), np.sqrt(2.0) / 2.0, atol=1e-15)

    def test_chi2_zero(self):
        assert extremal_correlations(2, 0.0).as_array().tolist() == [1.0, -1.0, 0.0, 0.0]

    def test_chi3_is_shifted_chi2(self):
        xi = 2.0 * np.pi * np.arange(64) / 64
        a = extremal_correlations_array(3, xi)
        b = extremal_correlations_array(2, xi + np.pi)
        assert np.abs(a - b).max() <= 1e-12

    def test_chi4_is_shifted_chi1(self):
        xi = 2.0 * np.pi * np.arange(64) / 64
        a = extremal_correlations_array(4, xi)
        b = extremal_correlations_array(1, xi + np.pi)
        assert np.abs(a - b).max() <= 1e-12

    @given(xi=angle, chi=st.sampled_from([1, 2]))
    def test_images_on_boundary_circles(self, xi, chi):
        v = to_e_basis(extremal_correlations(chi, xi))
        arr = v.as_array()
        live = arr[:2] if chi == 1 else arr[2:]
        dead = arr[2:] if chi == 1 else arr[:2]
        assert np.abs(dead).max() <= 1e-15
        assert np.hypot(*live) == pytest.approx(1.0, abs=1e-12)

    @staticmethod
    def _reference_extremal(chi: int, xi: float) -> CorrelationSet:
        sa, sap = ALICE_SIGNS[chi]
        cos, sin = np.cos(xi), np.sin(xi)
        return CorrelationSet(ab=sa * cos, apb=sap * cos, abp=sa * sin,
                              apbp=sap * sin)

    @_SCALES
    def test_bitwise_equal_to_scalar_reference(self, scale):
        xis = _seeded_correlators(scale, n=500).ravel() * np.pi
        for chi in ALICE_SIGNS:
            for xi in xis:
                assert (extremal_correlations(chi, float(xi))
                        == self._reference_extremal(chi, float(xi)))

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError, match="chi must be one of 1..4"):
            extremal_correlations(5, 0.0)


class TestReconstruction:
    def test_sixteen_entry_round_trip(self):
        rng = np.random.Generator(np.random.Philox(29))
        for _ in range(50):
            values = rng.uniform(-1.0 / 3.0, 1.0 / 3.0, 8)
            c = CorrelationSet(*values[:4],
                               marginals=Marginals(*values[4:]))
            m = matrix_from_correlations(c)
            back = correlations_from_matrix(m)
            assert np.abs(back.as_array() - c.as_array()).max() <= 1e-12
            assert np.abs(back.marginals.as_array() - c.marginals.as_array()).max() <= 1e-12

    def test_marginals_required(self):
        with pytest.raises(ValueError, match="marginals"):
            matrix_from_correlations(CorrelationSet(0.1, 0.1, 0.1, 0.1))


class TestJsonParsing:
    def test_correlators_only(self):
        c = correlation_set_from_json_dict(
            {"correlators": {"AB": 0.1, "ApB": 0.2, "ABp": 0.3, "ApBp": -0.4}})
        assert c.as_array().tolist() == [0.1, 0.2, 0.3, -0.4]
        assert c.marginals is None

    def test_with_marginals(self):
        c = correlation_set_from_json_dict({
            "correlators": {"AB": 0.0, "ApB": 0.0, "ABp": 0.0, "ApBp": 0.0},
            "marginals": {"A": 0.1, "Ap": 0.2, "B": 0.3, "Bp": 0.4},
        })
        assert c.marginals.as_array().tolist() == [0.1, 0.2, 0.3, 0.4]

    def test_joint_only(self):
        m = matrix_from_extremal(1, (1.0, 0.5))
        c = correlation_set_from_json_dict({"joint": m.tolist()})
        assert np.allclose(c.as_array(), [1.0, 1.0, 0.0, 0.0], atol=1e-12)

    def test_joint_and_correlators_must_agree(self):
        m = matrix_from_extremal(1, (1.0, 0.5))
        with pytest.raises(ConstraintError, match="disagree"):
            correlation_set_from_json_dict({
                "joint": m.tolist(),
                "correlators": {"AB": 0.0, "ApB": 1.0, "ABp": 0.0, "ApBp": 0.0},
            })

    def test_joint_and_marginals_must_agree_without_correlators(self):
        m = matrix_from_extremal(1, (1.0, 0.5))
        given = correlations_from_matrix(m).marginals.as_array().tolist()
        agreeing = dict(zip(("A", "Ap", "B", "Bp"), given))
        c = correlation_set_from_json_dict({"joint": m.tolist(), "marginals": agreeing})
        assert c.marginals.as_array().tolist() == given
        for name in agreeing:
            wrong = {**agreeing, name: agreeing[name] - 0.5}
            with pytest.raises(ConstraintError, match="marginals disagree"):
                correlation_set_from_json_dict({"joint": m.tolist(), "marginals": wrong})

    def test_tolerance_checked_without_joint(self):
        data = {"correlators": {"AB": 1.0, "ApB": 0.0, "ABp": 0.0, "ApBp": 1.0}}
        correlation_set_from_json_dict(data, tol=1e-2)
        for tol in (-1.0, 0.0101, 1e300, float("nan")):
            with pytest.raises(ValueError, match="tolerance"):
                correlation_set_from_json_dict(data, tol=tol)

    def test_missing_fields(self):
        with pytest.raises(ConstraintError, match="missing"):
            correlation_set_from_json_dict({"correlators": {"AB": 0.1}})
        with pytest.raises(ConstraintError):
            correlation_set_from_json_dict({})

    @pytest.mark.parametrize("data", [
        {"correlators": {"AB": None, "ApB": 0.0, "ABp": 0.0, "ApBp": 0.0}},
        {"correlators": {"AB": "x", "ApB": 0.0, "ABp": 0.0, "ApBp": 0.0}},
        {"correlators": [0.0, 0.0, 0.0, 0.0]},
        {"correlators": 5},
        {"correlators": {"AB": 0.0, "ApB": 0.0, "ABp": 0.0, "ApBp": 0.0},
         "marginals": {"A": [], "Ap": 0.0, "B": 0.0, "Bp": 0.0}},
        {"joint": [[None] * 4] * 4},
        {"joint": {"a": 1}},
        5,
        # A bool or a numeric string is not a number, though float() takes it.
        {"correlators": {"AB": True, "ApB": 0, "ABp": 0, "ApBp": 1}},
        {"correlators": {"AB": "0.5", "ApB": 0, "ABp": 0, "ApBp": 1}},
        {"correlators": {"AB": 0.0, "ApB": 0.0, "ABp": 0.0, "ApBp": 0.0},
         "marginals": {"A": False, "Ap": 0.0, "B": 0.0, "Bp": 0.0}},
        {"joint": [["0.25"] * 4] * 4},
        # As floats these bools are a valid deterministic joint matrix.
        {"joint": [[True, False, True, False], [False] * 4] * 2},
        {"joint": [[0.25] * 4] * 3 + [[0.25] * 3]},
        # An int beyond the float range used to end in an OverflowError.
        {"correlators": {"AB": 10 ** 400, "ApB": 0, "ABp": 0, "ApBp": 1}},
    ])
    def test_malformed_json_is_a_constraint_error(self, data):
        with pytest.raises(ConstraintError):
            correlation_set_from_json_dict(data)

    def test_round_trip_serialisation(self):
        c = CorrelationSet(0.1, 0.2, 0.3, -0.4, marginals=Marginals(0, 0, 0.5, 0.5))
        again = correlation_set_from_json_dict(c.to_json_dict())
        assert again == c

    def test_non_finite_values_rejected(self):
        with pytest.raises(ValueError):
            CorrelationSet(float("nan"), 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            Marginals(float("inf"), 0.0, 0.0, 0.0)
        m = np.full((4, 4), 0.25)
        m[2, 2] = float("nan")
        with pytest.raises(ConstraintError, match="non-finite"):
            validate_correlation_matrix(m)
