import numpy as np
import pytest

from chsh_steering.correlation_model import CorrelationSet
from chsh_steering.lhs_oracle import MEMBER, lp_membership
from chsh_steering.qubit_core import (
    maximally_entangled,
    projector_from_params,
    quantum_correlator,
)
from chsh_steering.steering_witness import steering_inequality, steering_lhs_array
from chsh_steering.violation_search import (
    AliceAngles,
    alice_projector,
    angle_correlations,
    angle_correlations_array,
    closed_form_lhs,
    maximize_over_angles,
    state_scan,
)


class TestAngleCorrelations:
    def test_orthogonal_pair(self):
        c = angle_correlations(AliceAngles(0.0, np.pi / 2.0))
        assert np.allclose(c.as_array(), [1.0, 0.0, 0.0, 1.0], atol=1e-15)

    def test_parallel_pair(self):
        c = angle_correlations(AliceAngles(np.pi / 2.0, np.pi / 2.0))
        assert np.allclose(c.as_array(), [0.0, 0.0, 1.0, 1.0], atol=1e-15)

    def test_matches_trace_oracle(self):
        rho = maximally_entangled()
        b_effect = projector_from_params(1.0, 0.0)
        bp_effect = projector_from_params(0.5, 0.0)
        rng = np.random.Generator(np.random.Philox(47))
        for _ in range(64):
            a, ap = rng.uniform(0.0, 2.0 * np.pi, 2)
            expected = angle_correlations(AliceAngles(a, ap)).as_array()
            got = np.array([
                quantum_correlator(rho, alice_projector(a), b_effect),
                quantum_correlator(rho, alice_projector(ap), b_effect),
                quantum_correlator(rho, alice_projector(a), bp_effect),
                quantum_correlator(rho, alice_projector(ap), bp_effect),
            ])
            assert np.abs(got - expected).max() <= 1e-12


class TestClosedForm:
    def test_quarter_turn_maximum(self):
        assert closed_form_lhs(AliceAngles(0.7, 0.7 - np.pi / 2.0)) == pytest.approx(
            2.0 * np.sqrt(2.0), abs=1e-14)

    def test_equal_angles(self):
        assert closed_form_lhs(AliceAngles(1.3, 1.3)) == pytest.approx(2.0, abs=1e-14)

    def test_third_turn(self):
        assert closed_form_lhs(AliceAngles(np.pi / 3.0, 0.0)) == pytest.approx(
            np.sqrt(3.0) + 1.0, abs=1e-14)

    def test_matches_pipeline_on_full_grid(self):
        grid = 2.0 * np.pi * np.arange(360) / 360
        pipeline = steering_lhs_array(
            angle_correlations_array(grid[:, None], grid[None, :]))
        cos = np.cos(grid[:, None] - grid[None, :])
        closed = np.sqrt(2.0 + 2.0 * cos) + np.sqrt(2.0 - 2.0 * cos)
        assert np.abs(pipeline - closed).max() <= 1e-12

    def test_function_matches_pipeline_pointwise(self):
        rng = np.random.Generator(np.random.Philox(61))
        for _ in range(1000):
            angles = AliceAngles(*rng.uniform(0.0, 2.0 * np.pi, 2))
            lhs, _ = steering_inequality(angle_correlations(angles))
            assert abs(closed_form_lhs(angles) - lhs) <= 1e-12


class TestMaximize:
    def test_finds_quantum_maximum(self):
        angles, value = maximize_over_angles(360)
        assert value == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-9)
        delta = (angles.alpha - angles.alpha_prime) % np.pi
        assert delta == pytest.approx(np.pi / 2.0, abs=2.0 * np.pi / 360)

    def test_shift_invariance(self):
        rng = np.random.Generator(np.random.Philox(53))
        base = AliceAngles(0.4, 0.4 - np.pi / 2.0)
        reference, _ = steering_inequality(angle_correlations(base))
        for shift in rng.uniform(0.0, 2.0 * np.pi, 100):
            shifted = AliceAngles(base.alpha + shift, base.alpha_prime + shift)
            value, _ = steering_inequality(angle_correlations(shifted))
            assert abs(value - reference) <= 1e-12

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            maximize_over_angles(4)


class TestStateScan:
    def test_maximally_entangled(self):
        _, value, _ = state_scan(maximally_entangled(), bloch_resolution=16)
        assert value == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-6)

    def test_product_states_never_violate(self):
        rng = np.random.Generator(np.random.Philox(59))
        for _ in range(10):
            bloch = rng.uniform(-1.0, 1.0, (2, 3))
            for i in range(2):
                norm = np.linalg.norm(bloch[i])
                if norm > 0.9:
                    bloch[i] *= 0.9 / norm
            paulis = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
            rho_a = 0.5 * (np.eye(2) + np.einsum("k,kij->ij", bloch[0], paulis))
            rho_b = 0.5 * (np.eye(2) + np.einsum("k,kij->ij", bloch[1], paulis))
            best, value, _ = state_scan(np.kron(rho_a, rho_b), bloch_resolution=12)
            assert value <= 2.0 + 1e-9
            res = lp_membership(best, grid_n=512)
            assert res.verdict == MEMBER

    def test_mixture_bounded_by_component_scans(self):
        # Witness value is convex in the state, so a mixture can never beat
        # the weighted best of its parts.
        from chsh_steering.homodyne_experiment import SinglePhotonState, state_density
        pure = state_density(SinglePhotonState(np.deg2rad(22.5), 1.0))
        vacuum = state_density(SinglePhotonState(np.deg2rad(22.5), 0.0))
        for p1 in (0.2, 0.5, 0.8):
            mixed = state_density(SinglePhotonState(np.deg2rad(22.5), p1))
            _, v_mixed, _ = state_scan(mixed, bloch_resolution=12)
            _, v_pure, _ = state_scan(pure, bloch_resolution=12)
            _, v_vac, _ = state_scan(vacuum, bloch_resolution=12)
            assert v_mixed <= p1 * v_pure + (1.0 - p1) * v_vac + 1e-9

    def test_returns_matching_correlations(self):
        best, value, _ = state_scan(maximally_entangled(), bloch_resolution=12)
        assert isinstance(best, CorrelationSet)
        lhs, _ = steering_inequality(best)
        assert lhs == pytest.approx(value, abs=1e-12)

    def test_coarse_grid_rows(self):
        _, value, coarse = state_scan(maximally_entangled(), bloch_resolution=8)
        assert coarse.shape == (64, 3)
        assert np.array_equal(np.unique(coarse[:, 0]), np.linspace(0.0, np.pi, 8))
        assert np.array_equal(np.unique(coarse[:, 1]), 2.0 * np.pi * np.arange(8) / 8)
        assert coarse[:, 2].max() <= value

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            state_scan(maximally_entangled(), bloch_resolution=2)
