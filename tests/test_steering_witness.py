import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from chsh_steering.correlation_model import (
    CorrelationSet,
    EBasisVector,
    extremal_correlations_array,
    to_e_basis,
    to_e_basis_array,
)
from chsh_steering.steering_witness import (
    BOUNDARY,
    CANONICAL_CHSH_INDEX,
    MAX_VERDICT_TOL,
    SATISFIED,
    VIOLATED,
    chsh_values,
    chsh_values_array,
    f_value,
    f_value_array,
    full_report,
    pair_inequalities,
    pair_values_array,
    steering_inequality,
    steering_lhs_array,
    verdict,
)

correlator = st.floats(min_value=-1.0, max_value=1.0)
coordinate = st.floats(min_value=-2.0, max_value=2.0)


class TestFValue:
    def test_origin(self):
        assert f_value(EBasisVector(0, 0, 0, 0)) == 0.0

    def test_extremal_atoms_on_boundary(self):
        xi = 2.0 * np.pi * np.arange(512) / 512
        for chi in (1, 2):
            v = to_e_basis_array(extremal_correlations_array(chi, xi))
            assert np.abs(f_value_array(v) - 1.0).max() <= 1e-12

    def test_arithmetic_example(self):
        assert f_value(EBasisVector(0.6, 0.0, 0.6, 0.0)) == pytest.approx(1.2, abs=1e-15)

    @given(u=st.lists(coordinate, min_size=4, max_size=4),
           w=st.lists(coordinate, min_size=4, max_size=4),
           lam=st.floats(min_value=0.0, max_value=1.0))
    def test_convexity(self, u, w, lam):
        u = np.array(u)
        w = np.array(w)
        mixed = f_value_array(lam * u + (1.0 - lam) * w)
        assert mixed <= lam * f_value_array(u) + (1.0 - lam) * f_value_array(w) + 1e-12


class TestSteeringInequality:
    def test_quantum_maximum_point(self):
        lhs, bound = steering_inequality(CorrelationSet(1, 0, 0, 1))
        assert bound == 2.0
        assert lhs == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-14)

    @given(c=st.floats(min_value=0.0, max_value=0.7))
    def test_equal_magnitude_reduction(self, c):
        lhs, _ = steering_inequality(CorrelationSet(c, c, c, -c))
        assert lhs == pytest.approx(4.0 * c, abs=1e-12)

    def test_zero(self):
        assert steering_inequality(CorrelationSet(0, 0, 0, 0))[0] == 0.0

    @given(ab=correlator, apb=correlator, abp=correlator, apbp=correlator)
    def test_twice_f(self, ab, apb, abp, apbp):
        c = CorrelationSet(ab, apb, abp, apbp)
        lhs, _ = steering_inequality(c)
        assert lhs == 2.0 * f_value(to_e_basis(c))

    @staticmethod
    def _reference_lhs(c):
        """The witness in raw correlators, as it was written before it went
        through ``f_value_array``."""
        plus_b = c[..., 0] + c[..., 1]
        plus_bp = c[..., 2] + c[..., 3]
        minus_b = c[..., 0] - c[..., 1]
        minus_bp = c[..., 2] - c[..., 3]
        return np.hypot(plus_b, plus_bp) + np.hypot(minus_b, minus_bp)

    @staticmethod
    def _reference_f(v: EBasisVector) -> float:
        return float(np.hypot(v.v1, v.v2) + np.hypot(v.v3, v.v4))

    @pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-150])
    def test_bitwise_equal_to_raw_correlator_reference(self, scale):
        rng = np.random.Generator(np.random.Philox(73))
        c = rng.uniform(-1.0, 1.0, size=(20000, 4)) * scale
        assert np.array_equal(steering_lhs_array(c), self._reference_lhs(c))
        for row in c[:500]:
            correlations = CorrelationSet(*row)
            lhs, _ = steering_inequality(correlations)
            assert lhs == self._reference_lhs(row)
            v = to_e_basis(correlations)
            assert f_value(v) == self._reference_f(v)
            report = full_report(correlations)
            assert report.steering_lhs == lhs
            assert report.f_value == f_value(v)
            assert report.steering_lhs == 2.0 * report.f_value

    @pytest.mark.parametrize("scale", [1e-306, 1e-310, 1e-320])
    def test_subnormal_halves_within_two_ulp_of_reference(self, scale):
        # The e basis halves each a +- b, which rounds once the half is
        # subnormal. So the bits match only where every a +- b is 0 or at
        # least 2**-1021; elsewhere lhs is within 2 ulp plus 4 units of the
        # smallest subnormal.
        rng = np.random.Generator(np.random.Philox(73))
        c = rng.uniform(-1.0, 1.0, size=(20000, 4)) * scale
        lhs = steering_lhs_array(c)
        reference = self._reference_lhs(c)
        halved = np.stack([c[:, 0] + c[:, 1], c[:, 2] + c[:, 3],
                           c[:, 0] - c[:, 1], c[:, 2] - c[:, 3]], axis=1)
        exact = np.all((halved == 0.0) | (np.abs(halved) >= 2.0 ** -1021), axis=1)
        assert not exact.all()
        assert np.array_equal(lhs[exact], reference[exact])
        tiny = np.nextafter(0.0, 1.0)
        assert np.all(np.abs(lhs - reference) <= 4.0 * tiny + 2.0 * np.spacing(reference))
        # The smallest subnormal halves to 0: lhs 0 where the raw form gave 2 tiny.
        assert steering_lhs_array(np.array([tiny, 0.0, 0.0, 0.0])) == 0.0
        assert self._reference_lhs(np.array([tiny, 0.0, 0.0, 0.0])) == 2.0 * tiny


class TestChsh:
    def test_canonical_reduction(self):
        c = CorrelationSet(0.3, 0.3, 0.3, -0.3)
        values = chsh_values(c)
        assert values[CANONICAL_CHSH_INDEX] == pytest.approx(1.2, abs=1e-15)

    def test_deterministic_point_saturates(self):
        values = chsh_values(CorrelationSet(1, 1, 1, 1))
        assert values[CANONICAL_CHSH_INDEX] == pytest.approx(2.0)
        assert max(values) == pytest.approx(2.0)

    def test_quantum_maximum_over_ideal_scan(self):
        # Ideal-configuration correlators (cos a, cos a', sin a, sin a'); the
        # canonical facet separates in a and a', so scan each angle alone.
        alphas = np.linspace(0.0, 2.0 * np.pi, 100001)
        best = (np.cos(alphas) + np.sin(alphas)).max() + (np.cos(alphas) - np.sin(alphas)).max()
        assert best == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-7)
        c = CorrelationSet(np.sqrt(0.5), np.sqrt(0.5), np.sqrt(0.5), -np.sqrt(0.5))
        assert max(chsh_values(c)) == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-12)

    @given(ab=correlator, apb=correlator, abp=correlator, apbp=correlator)
    def test_steering_lhs_dominates_every_facet(self, ab, apb, abp, apbp):
        c = np.array([ab, apb, abp, apbp])
        assert steering_lhs_array(c) >= chsh_values_array(c).max() - 1e-12

    def test_index_order_documented(self):
        c = np.array([1.0, 2.0, 4.0, 8.0])
        values = chsh_values_array(c)
        assert values[0] == -1 + 2 + 4 + 8
        assert values[1] == 1 - 2 - 4 - 8
        assert values[6] == 1 + 2 + 4 - 8


class TestPairInequalities:
    def test_quantum_maximum_point(self):
        assert pair_inequalities(CorrelationSet(1, 0, 0, 1)) == (2.0, 0.0, 1.0, 1.0)

    def test_zero(self):
        assert pair_inequalities(CorrelationSet(0, 0, 0, 0)) == (0.0, 0.0, 0.0, 0.0)

    def test_same_alice_setting_pairs_bounded_for_quantum_data(self):
        # Third and fourth sums share Alice's setting, so quantum data keeps
        # them within 1; scan random states with the unbiased Bob pair.
        rng = np.random.Generator(np.random.Philox(31))
        paulis = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
                          dtype=complex)
        worst = 0.0
        for _ in range(500):
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi /= np.linalg.norm(psi)
            rho4 = np.outer(psi, psi.conj()).reshape(2, 2, 2, 2)
            cols = np.array([[np.real(np.einsum("abcd,ca,db->", rho4, paulis[k], bob))
                              for bob in (paulis[2], paulis[0])] for k in range(3)])
            n1 = rng.normal(size=3)
            n1 /= np.linalg.norm(n1)
            n2 = rng.normal(size=3)
            n2 /= np.linalg.norm(n2)
            c = np.array([n1 @ cols[:, 0], n2 @ cols[:, 0],
                          n1 @ cols[:, 1], n2 @ cols[:, 1]])
            worst = max(worst, pair_values_array(c)[2:].max())
        assert worst <= 1.0 + 1e-10


class TestAtomMixtures:
    def test_random_mixtures_stay_inside(self):
        rng = np.random.Generator(np.random.Philox(37))
        for _ in range(100):
            k = int(rng.integers(1, 51))
            weights = rng.dirichlet(np.ones(k))
            chis = rng.integers(1, 5, size=k)
            xis = rng.uniform(0.0, 2.0 * np.pi, size=k)
            total = np.zeros(4)
            for w, chi, xi in zip(weights, chis, xis):
                total += w * extremal_correlations_array(int(chi), xi)
            assert f_value_array(to_e_basis_array(total)) <= 1.0 + 1e-12

    def test_boundary_attained_on_cross_plane_mixtures(self):
        rng = np.random.Generator(np.random.Philox(41))
        xi1 = rng.uniform(0.0, 2.0 * np.pi, 512)
        xi2 = rng.uniform(0.0, 2.0 * np.pi, 512)
        lam = rng.uniform(0.0, 1.0, 512)
        mix = (lam[:, None] * extremal_correlations_array(1, xi1)
               + (1.0 - lam)[:, None] * extremal_correlations_array(2, xi2))
        f = f_value_array(to_e_basis_array(mix))
        assert np.abs(f - 1.0).max() <= 1e-12


class TestFullReport:
    def test_consistency(self):
        c = CorrelationSet(0.4, -0.2, 0.6, 0.1)
        report = full_report(c)
        assert abs(report.steering_lhs - 2.0 * report.f_value) <= 1e-14
        assert report.steering_slack == report.steering_bound - report.steering_lhs
        for value, slack in zip(report.chsh_values, report.chsh_slacks):
            assert slack == 2.0 - value

    def test_verdicts(self):
        violated = full_report(CorrelationSet(1, 0, 0, 1))
        assert violated.steering_verdict == VIOLATED

        satisfied = full_report(CorrelationSet(0.1, 0.1, 0.0, 0.0))
        assert satisfied.steering_verdict == SATISFIED

        boundary = full_report(CorrelationSet(1, 1, 0, 0))
        assert boundary.steering_verdict == BOUNDARY

        # Both edges of the tie band belong to it (exact dyadic values).
        assert verdict(2.0 + 2.0 ** -10, 2.0, 2.0 ** -10) == BOUNDARY
        assert verdict(2.0 - 2.0 ** -10, 2.0, 2.0 ** -10) == BOUNDARY

    def test_no_verdict_from_non_finite_input(self):
        for value, bound, tol in ((float("nan"), 2.0, 1e-9), (1.0, float("inf"), 1e-9),
                                  (1.0, 2.0, float("nan")), (1.0, 2.0, -1.0),
                                  (1.0, 2.0, 1.01e-2), (1.0, 2.0, float("inf"))):
            with pytest.raises(ValueError):
                verdict(value, bound, tol)
        for tol in (float("nan"), 1e300):
            with pytest.raises(ValueError):
                full_report(CorrelationSet(1, 0, 0, 1), tol=tol)
        assert verdict(2.5, 2.0, MAX_VERDICT_TOL) == VIOLATED

    def test_verdict_matches_slack_sign(self):
        rng = np.random.Generator(np.random.Philox(43))
        for _ in range(200):
            c = CorrelationSet(*rng.uniform(-1.0, 1.0, 4))
            report = full_report(c)
            if report.steering_slack < -report.tolerance:
                assert report.steering_verdict == VIOLATED
            elif report.steering_slack > report.tolerance:
                assert report.steering_verdict == SATISFIED
            else:
                assert report.steering_verdict == BOUNDARY

    def test_json_field_names_stable(self):
        report = full_report(CorrelationSet(0.5, 0.5, 0.5, -0.5))
        payload = json.loads(json.dumps(report.to_json_dict()))
        assert set(payload) == {"f_value", "steering", "chsh", "pairs", "tolerance"}
        assert set(payload["steering"]) == {"lhs", "bound", "slack", "verdict"}
        assert len(payload["chsh"]["values"]) == 8
        assert len(payload["pairs"]["values"]) == 4
