import numpy as np
import pytest
from hypothesis import given, strategies as st

from chsh_steering.qubit_core import (
    ellipse_point,
    expectation_table,
    projector_from_params,
    quantum_correlator,
    validate_density,
    validate_effect,
)
from reference import (
    PureQubitState,
    born_probability,
    ellipse_hull_excess,
    maximally_entangled,
)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])

angles = st.floats(min_value=0.0, max_value=2.0 * np.pi)
unit = st.floats(min_value=0.0, max_value=1.0)


class TestProjector:
    def test_degenerate_mu_one(self):
        p = projector_from_params(1.0, 0.0)
        assert np.allclose(p, np.diag([1.0, 0.0]), atol=1e-14)

    def test_mu_half_phase_zero_is_x(self):
        p = projector_from_params(0.5, 0.0)
        assert np.allclose(p, 0.5 * (np.eye(2) + SIGMA_X), atol=1e-14)

    def test_mu_half_phase_quarter_is_y(self):
        p = projector_from_params(0.5, np.pi / 2.0)
        assert np.allclose(p, 0.5 * (np.eye(2) + SIGMA_Y), atol=1e-14)

    def test_out_of_range_mu(self):
        with pytest.raises(ValueError):
            projector_from_params(1.2, 0.0)
        with pytest.raises(ValueError):
            projector_from_params(-0.1, 0.0)

    @given(mu=unit, phi=angles)
    def test_idempotent_unit_trace(self, mu, phi):
        p = projector_from_params(mu, phi)
        assert np.abs(p @ p - p).max() <= 1e-12
        assert abs(np.trace(p).real - 1.0) <= 1e-12

    @given(mu=unit, phi=angles)
    def test_overlap_reproduces_mu(self, mu, phi):
        reference = projector_from_params(1.0, 0.0)
        overlap = np.trace(reference @ projector_from_params(mu, phi)).real
        assert abs(overlap - mu) <= 1e-12


class TestBornProbability:
    @given(phi_prime=angles)
    def test_reference_effect_returns_mu_prime(self, phi_prime):
        state = PureQubitState(mu_prime=0.3, phi_prime=phi_prime)
        assert born_probability(state, projector_from_params(1.0, 0.0)) == pytest.approx(0.3, abs=1e-14)

    @given(mu=unit, phi=angles)
    def test_pole_state_gives_mu(self, mu, phi):
        state = PureQubitState(mu_prime=1.0, phi_prime=0.0)
        p = born_probability(state, projector_from_params(mu, phi))
        assert p == pytest.approx(mu, abs=1e-12)

    @given(phi=angles)
    def test_aligned_state_is_certain(self, phi):
        state = PureQubitState(mu_prime=0.5, phi_prime=phi)
        p = born_probability(state, projector_from_params(0.5, phi))
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_state_domain(self):
        with pytest.raises(ValueError):
            PureQubitState(mu_prime=1.5, phi_prime=0.0)


class TestEllipse:
    def test_mu_one_endpoint(self):
        assert ellipse_point(1.0, 0.0) == pytest.approx((1.0, 1.0), abs=1e-14)

    def test_mu_half_quarter_turn(self):
        p, pp = ellipse_point(0.5, np.pi / 2.0)
        assert p == pytest.approx(0.5 - np.sqrt(2.0) / 4.0, abs=1e-14)
        assert pp == pytest.approx(0.5 + np.sqrt(2.0) / 4.0, abs=1e-14)

    def test_boundary_matches_physical_states(self):
        # Every boundary point must be reachable by an actual qubit state with
        # extremal relative phase; checked against Born probabilities.
        mu = 0.1
        effect_b = projector_from_params(1.0, 0.0)
        effect_bp = projector_from_params(mu, 0.0)
        for xi in 2.0 * np.pi * np.arange(1024) / 1024:
            p, pp = ellipse_point(mu, xi)
            assert -1e-12 <= p <= 1.0 + 1e-12
            assert -1e-12 <= pp <= 1.0 + 1e-12
            state_plus = PureQubitState(min(max(p, 0.0), 1.0), 0.0)
            state_minus = PureQubitState(min(max(p, 0.0), 1.0), np.pi)
            assert born_probability(state_plus, effect_b) == pytest.approx(p, abs=1e-12)
            candidates = (born_probability(state_plus, effect_bp),
                          born_probability(state_minus, effect_bp))
            assert min(abs(pp - c) for c in candidates) <= 1e-12

    def test_mu_half_is_unit_circle(self):
        xi = np.linspace(0.0, 2.0 * np.pi, 513)
        for x in xi:
            p, pp = ellipse_point(0.5, x)
            assert (2 * p - 1) ** 2 + (2 * pp - 1) ** 2 == pytest.approx(1.0, abs=1e-12)

    @given(mu_prime=unit, phi_prime=angles, mu=st.floats(min_value=0.01, max_value=0.99),
           phi=angles)
    def test_state_probabilities_inside_hull(self, mu_prime, phi_prime, mu, phi):
        state = PureQubitState(mu_prime, phi_prime)
        p = born_probability(state, projector_from_params(1.0, 0.0))
        pp = born_probability(state, projector_from_params(mu, phi))
        assert ellipse_hull_excess(mu, p, pp) <= 1e-10

    def test_hull_excess_rejects_degenerate_mu(self):
        with pytest.raises(ValueError):
            ellipse_hull_excess(1.0, 0.5, 0.5)


def _random_density(rng, dim=4):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


class TestExpectationTable:
    def test_matches_kron_trace(self):
        rng = np.random.Generator(np.random.Philox(13))
        for _ in range(20):
            rho = _random_density(rng)
            alice = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
            bob = rng.normal(size=(4, 2, 2)) + 1j * rng.normal(size=(4, 2, 2))
            table = expectation_table(rho, alice, bob)
            assert table.shape == (3, 4) and table.dtype == np.float64
            assert table.flags.c_contiguous
            expected = [[np.trace(rho @ np.kron(a, b)).real for b in bob] for a in alice]
            assert np.abs(table - expected).max() <= 1e-14


class TestQuantumCorrelator:
    def test_perfect_correlation(self):
        rho = maximally_entangled()
        z_effect = projector_from_params(1.0, 0.0)
        assert quantum_correlator(rho, z_effect, z_effect) == pytest.approx(1.0, abs=1e-12)

    def test_product_state(self):
        v = np.zeros(4, dtype=complex)
        v[0] = 1.0  # both parties in the +1 eigenstate
        rho = np.outer(v, v.conj())
        z_effect = projector_from_params(1.0, 0.0)
        assert quantum_correlator(rho, z_effect, z_effect) == pytest.approx(1.0, abs=1e-14)

    @given(alpha=angles)
    def test_rotated_alice_gives_cosine(self, alpha):
        rho = maximally_entangled()
        u = np.array([np.cos(alpha / 2.0), np.sin(alpha / 2.0)], dtype=complex)
        alice = np.outer(u, u.conj())
        bob = projector_from_params(1.0, 0.0)
        assert quantum_correlator(rho, alice, bob) == pytest.approx(np.cos(alpha), abs=1e-12)

    def test_linearity_in_state(self):
        rng = np.random.Generator(np.random.Philox(11))
        ea = projector_from_params(0.7, 0.4)
        eb = projector_from_params(0.2, 1.1)
        for _ in range(20):
            rho1 = _random_density(rng)
            rho2 = _random_density(rng)
            lam = rng.uniform()
            mixed = lam * rho1 + (1.0 - lam) * rho2
            expected = (lam * quantum_correlator(rho1, ea, eb)
                        + (1.0 - lam) * quantum_correlator(rho2, ea, eb))
            assert quantum_correlator(mixed, ea, eb) == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch(self):
        rho = maximally_entangled()
        with pytest.raises(ValueError):
            quantum_correlator(rho, np.eye(4), np.eye(2))
        with pytest.raises(ValueError):
            quantum_correlator(np.eye(2) / 2.0, np.eye(2), np.eye(2))

    def test_effect_validation(self):
        validate_effect(np.eye(2))
        with pytest.raises(ValueError):
            validate_effect(np.eye(3))

    def test_rejects_non_effect(self):
        with pytest.raises(ValueError):
            validate_effect(2.0 * np.eye(2))
        with pytest.raises(ValueError):
            validate_effect(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_correlator_rejects_an_effect_above_one(self):
        # Hermitian, entries within [0, 1], but eigenvalue 1.5.
        with pytest.raises(ValueError, match="outside"):
            quantum_correlator(maximally_entangled(), np.array([[1.0, 0.5], [0.5, 1.0]]),
                               np.eye(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
@pytest.mark.parametrize("validate, good, what", [
    (validate_density, np.eye(4) / 4.0, "density matrix"),
    (validate_effect, np.eye(2) / 2.0, "effect"),
])
def test_non_finite_entry_is_named(validate, good, what, bad):
    # It was reported as "an entry of modulus above 1".
    op = good.astype(complex)
    op[0, 1] = bad
    with pytest.raises(ValueError, match=f"^{what} has a non-finite entry$"):
        validate(op)
