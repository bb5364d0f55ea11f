import importlib
import inspect
import math
import multiprocessing
import pkgutil
import queue
import threading
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr

import chsh_steering
from chsh_steering import homodyne_experiment, violation_search
from chsh_steering.homodyne_experiment import (
    ALICE_PHASES,
    BOB_PHASES,
    DEFAULT_GRID_CELLS,
    DEFAULT_SPAN,
    MAX_MC_SAMPLES,
    NO_STEERING,
    STEERING,
    SinglePhotonState,
    adjudicate,
    adjudicate_reported,
    experiment_correlations,
    gamma,
    homodyne_effects,
    homodyne_pdf,
    monte_carlo_correlations,
    state_density,
    _MC_BLOCK,
    _MOMENTS,
    _MOMENTS_BELOW_0,
    _inverse_cdf,
    _interval_thresholds,
    _positive_products,
    _sampler_tables,
)
from chsh_steering.correlation_model import CorrelationSet
from chsh_steering.qubit_core import projector_from_params, quantum_correlator
from chsh_steering.steering_witness import steering_inequality
from concurrency import run_concurrently
from reference import maximally_entangled, positive_products


class TestState:
    def test_balanced_splitting_is_maximally_entangled(self):
        rho = state_density(SinglePhotonState(theta=np.deg2rad(22.5), p1=1.0))
        psi = np.zeros(4, dtype=complex)
        psi[1], psi[2] = 1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0)
        assert np.abs(rho - np.outer(psi, psi.conj())).max() <= 1e-12

    def test_vacuum_only(self):
        rho = state_density(SinglePhotonState(theta=0.3, p1=0.0))
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.abs(rho - expected).max() <= 1e-15

    def test_zero_angle_is_product(self):
        rho = state_density(SinglePhotonState(theta=0.0, p1=1.0))
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0  # |0>_A |1>_B
        assert np.abs(rho - expected).max() <= 1e-15

    def test_p1_domain(self):
        with pytest.raises(ValueError):
            SinglePhotonState(theta=0.0, p1=1.5)


class TestEffects:
    def test_full_efficiency_magnitude(self):
        plus, minus = homodyne_effects(0.0, 1.0)
        assert plus[0, 1] == pytest.approx(0.5 * np.sqrt(2.0 / np.pi), abs=1e-15)
        assert np.abs(plus + minus - np.eye(2)).max() <= 1e-15

    def test_off_diagonal_at_experiment_efficiency(self):
        plus, _ = homodyne_effects(0.0, 0.85)
        assert abs(plus[0, 1]) == pytest.approx(0.3678, abs=5e-5)

    def test_completeness_and_positivity_grid(self):
        phis = 2.0 * np.pi * np.arange(64) / 64
        etas = np.linspace(1.0 / 16.0, 1.0, 16)
        for phi in phis:
            for eta in etas:
                plus, minus = homodyne_effects(phi, eta)
                assert np.abs(plus + minus - np.eye(2)).max() <= 1e-12
                assert np.linalg.eigvalsh(plus).min() >= -1e-12
                assert np.linalg.eigvalsh(minus).min() >= -1e-12

    def test_eta_domain(self):
        with pytest.raises(ValueError):
            homodyne_effects(0.0, 0.0)
        with pytest.raises(ValueError):
            homodyne_effects(0.0, 1.1)


class TestGamma:
    def test_matches_independent_arithmetic(self):
        assert gamma(0.85) == pytest.approx(math.sqrt(2.0 * 0.85 / math.pi), abs=1e-15)
        assert format(2.0 * gamma(0.85), ".3g") == "1.47"

    def test_half(self):
        assert gamma(0.5) == pytest.approx(math.sqrt(1.0 / math.pi), abs=1e-15)

    def test_domain(self):
        # Efficiencies above 1 are unphysical: at pi / 2 the corrected bound
        # 2*gamma would equal the ideal bound 2.
        for eta in (0.0, -0.5, math.nan, math.inf, np.pi / 2.0, 1.2):
            with pytest.raises(ValueError):
                gamma(eta)


class TestAnalyticCorrelations:
    def test_equal_magnitudes_at_balanced_splitting(self):
        c = experiment_correlations(SinglePhotonState(np.deg2rad(22.5), 1.0), 1.0, 1.0)
        mags = np.abs(c.as_array())
        assert np.abs(mags - mags[0]).max() <= 1e-12

    def test_vacuum_uncorrelated(self):
        c = experiment_correlations(SinglePhotonState(0.4, 0.0), 1.0, 1.0)
        assert np.abs(c.as_array()).max() <= 1e-14

    def test_bob_efficiency_scaling(self):
        state = SinglePhotonState(np.deg2rad(30.0), 0.9)
        base = experiment_correlations(state, 0.7, 1.0).as_array()
        scaled = experiment_correlations(state, 0.7, 0.49).as_array()
        assert np.abs(scaled - np.sqrt(0.49) * base).max() <= 1e-12

    def test_projective_bob_reference(self):
        # With Bob's effects replaced by the quadrature-sign projectors
        # (1 + sigma_phi)/2, the projector onto (|0> + e^{-i phi}|1>)/sqrt(2),
        # each correlator shrinks by exactly gamma(eta) when efficiency returns.
        rng = np.random.Generator(np.random.Philox(51))
        for _ in range(100):
            state = SinglePhotonState(rng.uniform(0, np.pi / 2), rng.uniform(0, 1))
            rho = state_density(state)
            eta_a = rng.uniform(0.1, 1.0)
            eta_b = rng.uniform(0.1, 1.0)
            phi_a = rng.uniform(0, 2 * np.pi)
            phi_b = rng.uniform(0, 2 * np.pi)
            ea, _ = homodyne_effects(phi_a, eta_a)
            eb, _ = homodyne_effects(phi_b, eta_b)
            pb = projector_from_params(0.5, -phi_b)
            with_eff = quantum_correlator(rho, ea, eb)
            projective = quantum_correlator(rho, ea, pb)
            assert with_eff == pytest.approx(gamma(eta_b) * projective, abs=1e-12)

    def test_loss_scales_linearly_with_p1(self):
        pure = experiment_correlations(SinglePhotonState(np.deg2rad(22.5), 1.0), 0.85, 0.85)
        lossy = experiment_correlations(SinglePhotonState(np.deg2rad(22.5), 0.35), 0.85, 0.85)
        assert np.abs(lossy.as_array() - 0.35 * pure.as_array()).max() <= 1e-14
        lhs_pure, _ = steering_inequality(pure)
        lhs_lossy, _ = steering_inequality(lossy)
        assert lhs_lossy == pytest.approx(0.35 * lhs_pure, abs=1e-12)


class TestAdjudication:
    def test_reported_experiment_value(self):
        report = adjudicate_reported(1.330, 0.85)
        assert report.steering_lhs == 1.330
        assert report.corrected_bound == pytest.approx(2.0 * math.sqrt(2.0 * 0.85 / math.pi), abs=1e-12)
        assert report.verdict == NO_STEERING

    def test_equal_magnitude_correlators_match_reported(self):
        c = CorrelationSet(0.3325, 0.3325, 0.3325, -0.3325)
        report = adjudicate(c, 0.85)
        assert report.steering_lhs == pytest.approx(1.33, abs=1e-12)
        assert report.chsh_s == pytest.approx(1.33, abs=1e-12)
        assert report.verdict == NO_STEERING

    def test_violation_detected(self):
        assert adjudicate_reported(1.50, 0.85).verdict == STEERING

    def test_zero_never_violates(self):
        for eta in (0.1, 0.5, 1.0):
            assert adjudicate_reported(0.0, eta).verdict == NO_STEERING

    def test_reported_domain(self):
        for s_max, eta in ((3.0, 0.85), (-0.1, 0.85), (math.nan, 0.85),
                           (1.33, 5.0), (1.33, 0.0), (1.33, math.nan)):
            with pytest.raises(ValueError):
                adjudicate_reported(s_max, eta)


# One entry point per path that takes an efficiency: each reaches the single
# range check. adjudicate once returned bound 3.57 and "no_steering" at 5.0.
_OUT_OF_RANGE_CALLS = {
    "adjudicate": lambda: adjudicate(CorrelationSet(1, 0, 0, 1), 5.0),
    "gamma": lambda: gamma(5.0),
    "homodyne_pdf": lambda: homodyne_pdf(np.diag([1.0, 0.0]).astype(complex),
                                         0.0, 1.5, 0.0),
    "experiment_correlations": lambda: experiment_correlations(
        SinglePhotonState(np.deg2rad(22.5), 1.0), 0.85, 0.0),
    "monte_carlo_correlations": lambda: monte_carlo_correlations(
        SinglePhotonState(np.deg2rad(22.5), 1.0), 1.5, 0.85, 10, seed=0),
    "monte_carlo_correlations eta_bob": lambda: monte_carlo_correlations(
        SinglePhotonState(np.deg2rad(22.5), 1.0), 0.85, 0.0, 10, seed=0),
}


@pytest.mark.parametrize("call", _OUT_OF_RANGE_CALLS.values(), ids=_OUT_OF_RANGE_CALLS)
def test_efficiency_outside_unit_interval_is_rejected(call):
    with pytest.raises(ValueError, match=r"eta must lie in \(0, 1\]"):
        call()


# Each non-finite phase or outcome once gave NaN instead of an error.
_NON_FINITE_CALLS = {
    "homodyne_pdf phase": lambda bad: homodyne_pdf(np.diag([0.5, 0.5]).astype(complex),
                                                   bad, 0.85, 0.3),
    "homodyne_pdf x": lambda bad: homodyne_pdf(np.diag([0.5, 0.5]).astype(complex),
                                               0.0, 0.85, bad),
    "homodyne_pdf x array": lambda bad: homodyne_pdf(np.diag([0.5, 0.5]).astype(complex),
                                                     0.0, 0.85, [0.0, bad]),
    "homodyne_effects phase": lambda bad: homodyne_effects(bad, 0.85),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("call", _NON_FINITE_CALLS.values(), ids=_NON_FINITE_CALLS)
def test_non_finite_phase_or_outcome_is_rejected(call, bad):
    with pytest.raises(ValueError, match="finite"):
        call(bad)


def _reference_pdf(rho, phi, eta, x):
    """``homodyne_pdf`` in the outcome x itself, with the envelope and the
    polynomial expanded by hand."""
    coherence = float(np.real(np.exp(-1j * phi) * rho[0, 1])) * 2.0
    p0 = float(rho[0, 0].real)
    p1 = float(rho[1, 1].real)
    poly = (p0 + (1.0 - eta) * p1) + eta * x * coherence + (eta * eta) * x * x * p1
    return np.sqrt(eta / (2.0 * np.pi)) * np.exp(-0.5 * eta * np.asarray(x) ** 2) * poly


def _random_density(rng, dim):
    """A Ginibre-distributed density matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


class TestPdf:
    def test_matches_hand_expanded_polynomial(self):
        rng = np.random.Generator(np.random.Philox(89))
        x = np.linspace(-8.0, 8.0, 401)
        for _ in range(40):
            rho = _random_density(rng, 2)
            phi = rng.uniform(-np.pi, np.pi)
            eta = rng.uniform(0.01, 1.0)
            got = homodyne_pdf(rho, phi, eta, x)
            assert np.abs(got - _reference_pdf(rho, phi, eta, x)).max() <= 4e-16

    def test_far_outcomes_have_density_zero(self):
        # x * x overflowed above |x| = 1.3e154: NaN and two RuntimeWarnings.
        rho = np.diag([0.5, 0.5]).astype(complex)
        x = [1e200, -1e200, 3.0, 1e150, np.finfo(float).max]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = homodyne_pdf(rho, 0.0, 1.0, x)
            assert homodyne_pdf(rho, 0.0, 1.0, -1e200) == 0.0
        assert got.tolist() == [0.0, 0.0, _reference_pdf(rho, 0.0, 1.0, 3.0), 0.0, 0.0]

    def test_far_outcomes_at_tiny_efficiency(self):
        # At eta = 1e-300 the envelope is still e^-2 at |x| = 2e150, where
        # x * x would overflow: u = sqrt(eta) x = 2 there. The polynomial is
        # p0 + (1 - eta) p1 = 1, plus the coherence term; its x^2 term,
        # rho11 eta u^2, is below 1e-299.
        rho = np.array([[0.5, 0.35 - 0.1j], [0.35 + 0.1j, 0.5]])
        eta, x = 1e-300, np.array([-2e150, 2e150])
        coherence = 2.0 * float(np.real(np.exp(-0.3j) * rho[0, 1]))
        u = math.sqrt(eta) * x
        expected = (math.sqrt(eta / (2.0 * math.pi)) * np.exp(-0.5 * u * u)
                    * (1.0 + math.sqrt(eta) * coherence * u))
        got = homodyne_pdf(rho, 0.3, eta, x)
        assert np.abs(got - expected).max() <= 1e-15 * expected.max()

    def test_vacuum_full_efficiency_is_standard_normal(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        x = np.linspace(-5, 5, 101)
        expected = np.exp(-x ** 2 / 2.0) / np.sqrt(2.0 * np.pi)
        assert np.abs(homodyne_pdf(rho, 0.0, 1.0, x) - expected).max() <= 1e-15

    def test_one_photon_full_efficiency(self):
        rho = np.diag([0.0, 1.0]).astype(complex)
        x = np.linspace(-5, 5, 101)
        expected = x ** 2 * np.exp(-x ** 2 / 2.0) / np.sqrt(2.0 * np.pi)
        assert np.abs(homodyne_pdf(rho, 0.0, 1.0, x) - expected).max() <= 1e-15

    @pytest.mark.parametrize("eta", [1.0, 0.85, 0.4])
    @pytest.mark.parametrize("rho", [
        np.diag([1.0, 0.0]).astype(complex),
        np.diag([0.0, 1.0]).astype(complex),
        np.array([[0.5, 0.35 - 0.1j], [0.35 + 0.1j, 0.5]]),
        np.array([[0.7, 0.2j], [-0.2j, 0.3]]),
    ])
    def test_normalisation(self, rho, eta):
        total, err = quad(lambda x: homodyne_pdf(rho, 0.7, eta, x), -np.inf, np.inf)
        assert abs(total - 1.0) <= 1e-8

    def test_sign_integral_matches_effect_trace(self):
        rho = np.array([[0.5, 0.3 - 0.1j], [0.3 + 0.1j, 0.5]])
        phi, eta = 0.7, 0.85
        upper, _ = quad(lambda x: homodyne_pdf(rho, phi, eta, x), 0.0, np.inf)
        lower, _ = quad(lambda x: homodyne_pdf(rho, phi, eta, x), -np.inf, 0.0)
        plus, minus = homodyne_effects(phi, eta)
        expected = np.trace(rho @ (plus - minus)).real
        assert upper - lower == pytest.approx(expected, abs=1e-10)


class TestMonteCarlo:
    def test_single_sample_is_a_sign_product(self):
        state = SinglePhotonState(np.deg2rad(22.5), 1.0)
        mc = monte_carlo_correlations(state, 0.85, 0.85, 1, seed=3)
        assert set(np.abs(mc.correlations.as_array())) == {1.0}

    def test_fixed_seed_reproducible(self):
        state = SinglePhotonState(np.deg2rad(22.5), 1.0)
        a = monte_carlo_correlations(state, 0.85, 0.85, 20000, seed=11)
        b = monte_carlo_correlations(state, 0.85, 0.85, 20000, seed=11)
        assert a.correlations == b.correlations
        assert a.std_errors == b.std_errors

    def test_converges_to_analytic(self):
        state = SinglePhotonState(np.deg2rad(22.5), 1.0)
        analytic = experiment_correlations(state, 0.85, 0.85).as_array()
        mc = monte_carlo_correlations(state, 0.85, 0.85, 100000, seed=23)
        pulls = (mc.correlations.as_array() - analytic) / np.array(mc.std_errors)
        assert np.abs(pulls).max() <= 4.0

    def test_estimator_unbiased_over_runs(self):
        state = SinglePhotonState(np.deg2rad(22.5), 1.0)
        analytic = experiment_correlations(state, 0.85, 0.85).as_array()
        n_runs, n_samples = 100, 2000
        estimates = np.empty((n_runs, 4))
        for run in range(n_runs):
            mc = monte_carlo_correlations(state, 0.85, 0.85, n_samples, seed=1000 + run)
            estimates[run] = mc.correlations.as_array()
        combined_se = np.sqrt((1.0 - analytic ** 2) / (n_runs * n_samples))
        assert np.abs(estimates.mean(axis=0) - analytic).max() <= 5.0 * combined_se.max()

    @pytest.mark.parametrize("eta_alice, eta_bob", [
        (0.02, 0.02), (0.05, 0.05), (0.1, 0.1), (0.3, 0.3),
        (1.0, 0.05), (0.05, 1.0)])
    def test_unbiased_at_low_efficiency(self, eta_alice, eta_bob):
        # The outcome envelope's width grows as 1 / sqrt(eta). On a grid of
        # fixed span in x the lost tails pulled these correlators 6 to 28
        # sigma toward 0 at 1e6 samples; the grid in u = sqrt(eta) x loses
        # the same tails at every efficiency.
        state = SinglePhotonState(np.deg2rad(22.5), 1.0)
        analytic = experiment_correlations(state, eta_alice, eta_bob).as_array()
        mc = monte_carlo_correlations(state, eta_alice, eta_bob, 1_000_000, seed=41)
        pulls = (mc.correlations.as_array() - analytic) / np.array(mc.std_errors)
        assert np.abs(pulls).max() <= 4.0

    @pytest.mark.parametrize("eta", [1e-12, 5e-324])
    def test_runs_at_any_efficiency(self, eta):
        # Below eta 1/8192, for either party, the call once refused to run:
        # its grid widened as 1 / sqrt(eta) and was capped there.
        state = SinglePhotonState(np.deg2rad(22.5), 1.0)
        for eta_alice, eta_bob in ((eta, 1.0), (1.0, eta), (eta, eta)):
            mc = monte_carlo_correlations(state, eta_alice, eta_bob, 10, seed=0)
            assert np.isfinite(mc.correlations.as_array()).all()
            assert np.isfinite(mc.std_errors).all()

    def test_sample_count_validation(self):
        with pytest.raises(ValueError):
            monte_carlo_correlations(SinglePhotonState(0.0, 1.0), 1.0, 1.0, 0, seed=0)
        # Above the cap the call fails at once instead of running for hours.
        with pytest.raises(ValueError, match="n_samples must lie in"):
            monte_carlo_correlations(SinglePhotonState(0.0, 1.0), 1.0, 1.0,
                                     MAX_MC_SAMPLES + 1, seed=0)

    def test_sharded_sampling_merges_deterministically(self):
        # The kernel maps each uniform pair independently, so splitting the
        # sample range into shards and concatenating reproduces the full run.
        rho = state_density(SinglePhotonState(np.deg2rad(22.5), 0.9))
        arrays = _sampler_tables(rho, 0.85, 0.85)[0]
        u = np.random.Generator(np.random.Philox(31)).random((10000, 2))
        whole = _positive_products(u, *arrays)
        shards = [_positive_products(np.ascontiguousarray(u[a:b]), *arrays)
                  for a, b in ((0, 3000), (3000, 7000), (7000, 10000))]
        assert np.array_equal(whole, np.concatenate(shards))


# (phi_a, phi_b) of the four setting pairs in correlator order.
_PHASE_PAIRS = [(phi_a, phi_b) for phi_b in BOB_PHASES for phi_a in ALICE_PHASES]


def _sampler_tables_on_grid(monkeypatch, rho, eta_a, eta_b, grid_cells, span):
    """``_sampler_tables`` with its grid set to ``grid_cells`` cells over
    [-span, span]."""
    monkeypatch.setattr(homodyne_experiment, "DEFAULT_GRID_CELLS", grid_cells)
    monkeypatch.setattr(homodyne_experiment, "DEFAULT_SPAN", span)
    return _sampler_tables(rho, eta_a, eta_b)


def _hand_polynomial(m, phi, eta):
    """Coefficients of (1, u, u^2) in one party's outcome polynomial on the
    2x2 block ``m`` (indexed [ket, bra] along that party; trailing axes are
    carried along), expanded by hand. In x the density is sqrt(eta / 2 pi)
    e^{-eta x^2 / 2} [m00 + m11 (1 - eta + eta^2 x^2) + eta x (e^{-i phi}
    m01 + e^{i phi} m10)]; with x = u / sqrt(eta) it is sqrt(eta) phi(u)
    times the polynomial below."""
    coherence = np.exp(-1j * phi) * m[0, 1] + np.exp(1j * phi) * m[1, 0]
    return np.stack([m[0, 0] + (1.0 - eta) * m[1, 1],
                     math.sqrt(eta) * coherence,
                     eta * m[1, 1]])


def _hand_coefficients(rho, phi_a, eta_a, phi_b, eta_b):
    """One setting pair's joint coefficients ``coef[i, j]`` of u^i v^j and
    Alice's marginal coefficients of u^i, from ``_hand_polynomial``."""
    rho4 = np.asarray(rho).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3)
    bob_blocks = _hand_polynomial(rho4, phi_a, eta_a)  # (i, b, d)
    coef = _hand_polynomial(bob_blocks.transpose(1, 2, 0), phi_b, eta_b).T.real
    marginal = np.trace(bob_blocks, axis1=1, axis2=2).real
    return coef, marginal


def _trapezoid_marginal(grid, marginal):
    """Alice's unnormalised CDF on ``grid``: the trapezoid sums of phi(u)
    times her marginal polynomial, written out."""
    pdf = np.maximum(np.exp(-0.5 * grid * grid) / math.sqrt(2.0 * math.pi)
                     * (marginal[0] + marginal[1] * grid + marginal[2] * grid * grid), 0.0)
    return np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * (grid[1] - grid[0]))])


def _reference_alice(grid, marginal):
    """Alice's normalised CDF on ``grid``."""
    cdf = _trapezoid_marginal(grid, marginal)
    return cdf / cdf[-1]


def _normal_partial_moments(y):
    """The integrals of phi(v) v^j over v < y, j = 0, 1, 2, in closed form."""
    density = np.exp(-0.5 * y * y) / math.sqrt(2.0 * math.pi)
    return ndtr(y), -density, ndtr(y) - y * density


def _reference_products(u, grid, cdf_a, coef):
    """The sampler before the sign-only kernel, with Bob's exact outcome: x
    by a plain search and interpolation of ``cdf_a``, y drawn from Bob's
    exact conditional CDF given x, inverted by bisection.

    Returns where sign(x) sign(y) = +1 and which draws are decided: those
    whose conditional mass below 0 differs from ``u[:, 1]`` by more than
    1e-12, so that rounding cannot flip the sign of y.
    """
    u1, u2 = u[:, 0], u[:, 1]
    k = np.clip(np.searchsorted(cdf_a, u1, side="right") - 1, 0, grid.shape[0] - 2)
    dc = cdf_a[k + 1] - cdf_a[k]
    safe = np.where(dc > 0.0, dc, 1.0)
    x = np.where(dc > 0.0,
                 grid[k] + (u1 - cdf_a[k]) * (grid[k + 1] - grid[k]) / safe,
                 grid[k])
    d = coef.T @ np.stack([np.ones_like(x), x, x * x])  # coefficients of v^j given x

    def conditional_cdf(y):
        m0, m1, m2 = _normal_partial_moments(y)
        return (d[0] * m0 + d[1] * m1 + d[2] * m2) / (d[0] + d[2])

    lo, hi = np.full_like(x, -40.0), np.full_like(x, 40.0)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        left = conditional_cdf(mid) <= u2
        lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
    y = 0.5 * (lo + hi)
    decided = np.abs(conditional_cdf(np.zeros_like(x)) - u2) > 1e-12
    return (x >= 0.0) == (y >= 0.0), decided


def _reference_monte_carlo(state, eta_alice, eta_bob, n_samples, seed):
    """Correlators and errors as computed before block sampling, from one
    draw per pair through ``_reference_products``."""
    rho = state_density(state)
    children = np.random.SeedSequence(seed).spawn(4)
    means, errors = [], []
    for pair_idx, (phi_a, phi_b) in enumerate(_PHASE_PAIRS):
        coef, marginal = _hand_coefficients(rho, phi_a, eta_alice, phi_b, eta_bob)
        grid = np.linspace(-DEFAULT_SPAN, DEFAULT_SPAN, DEFAULT_GRID_CELLS + 1)
        grid[DEFAULT_GRID_CELLS // 2] = 0.0
        rng = np.random.Generator(np.random.Philox(children[pair_idx]))
        u = rng.random((n_samples, 2))
        plus, decided = _reference_products(u, grid, _reference_alice(grid, marginal), coef)
        assert decided.all()
        mean = (2 * int(np.count_nonzero(plus)) - n_samples) / n_samples
        means.append(mean)
        errors.append(float(np.sqrt(max(1.0 - mean * mean, 0.0) / n_samples)))
    return CorrelationSet(*means), tuple(errors)


def _table_expectation(grid, cdf_a, below, total, t_true, t_false, b_right):
    """The exact mean sign product of one pair's tables as built: x is
    uniform within each cell with the cell's mass from ``cdf_a``, and y >= 0
    with probability 1 - below(x) / total(x); a 2-node Gauss-Legendre rule
    per cell."""
    lo, width, mass = grid[:-1], np.diff(grid), np.diff(cdf_a)
    mean = np.zeros_like(lo)
    for node in (0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0)):
        x = lo + node * width
        b = below[0] + below[1] * x + below[2] * x * x
        t = total[0] + total[1] * x + total[2] * x * x
        mean += 0.5 * (1.0 - 2.0 * b / t)
    return float(np.sum(np.where(lo >= 0.0, 1.0, -1.0) * mass * mean))


_GRID_CELLS = pytest.mark.parametrize("grid_cells", [8, 1024, 4096, 5000])
_STATE_PARAMS = [
    (22.5, 1.0, 0.85, 0.85),
    (22.5, 0.6, 1.0, 0.3),
    (7.0, 0.9, 0.5, 1.0),
    (40.0, 0.95, 0.2, 0.7),
    (0.0, 1.0, 1.0, 1.0),
]
_STATES = pytest.mark.parametrize("theta_deg, p1, eta_a, eta_b", _STATE_PARAMS)
_EFFICIENCY_PAIRS = [(1.0, 1.0), (0.85, 0.85), (0.5, 0.5), (0.9, 0.2), (1.0, 0.05),
                     (0.02, 0.02), (1.0 / 8192, 1.0 / 8192), (0.85, 1e-12)]


class TestSignOnlyKernel:
    @_GRID_CELLS
    @_STATES
    def test_products_match_bisection_kernel(self, monkeypatch, grid_cells, theta_deg,
                                             p1, eta_a, eta_b):
        rho = state_density(SinglePhotonState(np.deg2rad(theta_deg), p1))
        rng = np.random.Generator(np.random.Philox(grid_cells))
        tables = _sampler_tables_on_grid(monkeypatch, rho, eta_a, eta_b, grid_cells, 6.0)
        for (phi_a, phi_b), arrays in zip(_PHASE_PAIRS, tables, strict=True):
            coef, _ = _hand_coefficients(rho, phi_a, eta_a, phi_b, eta_b)
            u = rng.random((20000, 2))
            expected, decided = _reference_products(u, arrays[0], arrays[1], coef)
            assert np.array_equal(_positive_products(u, *arrays)[decided], expected[decided])

    @pytest.mark.parametrize("pair", list(enumerate(_PHASE_PAIRS)))
    def test_products_match_bisection_kernel_on_empty_cells(self, monkeypatch, pair):
        # At span 12 and eta 1 the tails of cdf_a round to 0 and 1, so
        # hundreds of cells are empty; the unguarded interpolation never
        # lands in one, even at the edge uniforms 0 and 1 - 2^-53.
        rho = state_density(SinglePhotonState(np.deg2rad(22.5), 1.0))
        index, (phi_a, phi_b) = pair
        arrays = _sampler_tables_on_grid(monkeypatch, rho, 1.0, 1.0, 4096, 12.0)[index]
        coef, _ = _hand_coefficients(rho, phi_a, 1.0, phi_b, 1.0)
        assert np.count_nonzero(arrays[1][1:] == arrays[1][:-1]) > 100
        edges = np.array([0.0, 1.0 - 2.0 ** -53])
        u = np.concatenate([
            np.random.Generator(np.random.Philox(12)).random((200000, 2)),
            np.stack(np.meshgrid(edges, edges), axis=-1).reshape(-1, 2)])
        expected, decided = _reference_products(u, arrays[0], arrays[1], coef)
        assert decided[-4:].all()
        assert np.array_equal(_positive_products(u, *arrays)[decided], expected[decided])

    @_GRID_CELLS
    @_STATES
    def test_every_draw_lies_on_its_bucket_interval(self, monkeypatch, grid_cells,
                                                    theta_deg, p1, eta_a, eta_b):
        # The tables have as many buckets as cells, rounded up to a power of
        # two: 4096 at the default grid, 8192 at 5000 cells. A draw of bucket
        # b has its x within delta of [edges[b], edges[b + 1]], delta the
        # overshoot 4 eps (H + max |grid|) that ``_interval_thresholds``
        # bounds. Every x is at least 0 from bucket b_right on, and below 0
        # in the buckets whose right edge is at most grid[mid - 1].
        rho = state_density(SinglePhotonState(np.deg2rad(theta_deg), p1))
        buckets = 1 << (grid_cells - 1).bit_length()
        for arrays in _sampler_tables_on_grid(monkeypatch, rho, eta_a, eta_b, grid_cells, 6.0):
            grid, cdf_a, _, _, t_true, _, b_right = arrays
            assert t_true.shape == (buckets,)
            edges = _bucket_edges(grid, cdf_a, buckets)
            delta = 2.0 ** -51 * (np.diff(grid).max() + np.abs(grid).max())
            u1 = _parity_uniforms(arrays, 100_000, seed=grid_cells)[:, 0]
            b = (u1 * buckets).astype(np.intp)
            x = _inverse_cdf(u1, grid, cdf_a)
            assert (x >= edges[b] - delta).all()
            assert (x <= edges[b + 1] + delta).all()
            assert (edges[:b_right] < 0.0).all()
            assert (edges[b_right:] >= 0.0).all()
            assert (x[b >= b_right] >= 0.0).all()
            assert (x[edges[b + 1] <= grid[grid_cells // 2 - 1]] < 0.0).all()

    @pytest.mark.parametrize("eta_a, eta_b", [(1.0, 1.0), (0.85, 0.85), (0.9, 0.3),
                                              (0.9, 0.2), (1.0 / 8192, 1.0 / 8192),
                                              (0.85, 1e-12), (5e-324, 5e-324)])
    def test_sampler_arrays_match_hand_expansion(self, eta_a, eta_b):
        rng = np.random.Generator(np.random.Philox(83))
        states = ([_random_density(rng, 4) for _ in range(4)]
                  + [state_density(SinglePhotonState(rng.uniform(0.0, np.pi / 4.0),
                                                     rng.uniform(0.5, 1.0)))
                     for _ in range(4)])
        grid = np.linspace(-DEFAULT_SPAN, DEFAULT_SPAN, DEFAULT_GRID_CELLS + 1)
        grid[DEFAULT_GRID_CELLS // 2] = 0.0
        below_0 = np.array(_normal_partial_moments(0.0))
        for rho in states:
            tables = _sampler_tables(rho, eta_a, eta_b)
            # The efficiencies belong to the parties: one grid for all four
            # pairs and one inverse CDF, total mass and right-side bucket per
            # Alice phase (AB and AB', A'B and A'B').
            assert all(t[0] is tables[0][0] for t in tables)
            for i, j in ((0, 2), (1, 3)):
                assert all(tables[i][c] is tables[j][c] for c in (1, 3, 6))
            for (phi_a, phi_b), got in zip(_PHASE_PAIRS, tables, strict=True):
                coef, marginal = _hand_coefficients(rho, phi_a, eta_a, phi_b, eta_b)
                # The grid holds all but a sliver of Alice's marginal, so its
                # trapezoid mass is never 0 and needs no guard.
                assert abs(_trapezoid_marginal(grid, marginal)[-1] - 1.0) <= 1e-6
                assert np.array_equal(got[0], grid)
                assert np.abs(got[1] - _reference_alice(grid, marginal)).max() <= 1e-15
                assert np.abs(got[2] - coef @ below_0).max() <= 1e-15
                assert np.abs(got[3] - (coef[:, 0] + coef[:, 2])).max() <= 1e-15

    def test_bob_moments_are_normal_integrals(self):
        for j in range(3):
            def weighted(v, j=j):
                return np.exp(-0.5 * v * v) / math.sqrt(2.0 * math.pi) * v ** j
            below, _ = quad(weighted, -np.inf, 0.0, epsabs=1e-14)
            whole, _ = quad(weighted, -np.inf, np.inf, epsabs=1e-14)
            assert _MOMENTS_BELOW_0[j] == pytest.approx(below, rel=1e-12, abs=1e-14)
            assert _MOMENTS[j] == pytest.approx(whole, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("eta_a, eta_b", _EFFICIENCY_PAIRS)
    def test_tables_expectation_matches_analytic(self, eta_a, eta_b):
        # The sampler's expectation as built, without random numbers, against
        # the exact correlators. The bound is 1 % of one standard error at
        # MAX_MC_SAMPLES, so the tables' bias stays invisible to any run the
        # Monte Carlo allows. The trapezoid masses of Bob's truncated grid
        # missed (0.9, 0.2) by 1.16e-5.
        bound = 0.01 / math.sqrt(MAX_MC_SAMPLES)
        for theta_deg, p1 in ((22.5, 0.9), (33.0, 0.7), (7.0, 1.0)):
            state = SinglePhotonState(np.deg2rad(theta_deg), p1)
            exact = experiment_correlations(state, eta_a, eta_b).as_array()
            tables = _sampler_tables(state_density(state), eta_a, eta_b)
            built = np.array([_table_expectation(*arrays) for arrays in tables])
            assert np.abs(built - exact).max() <= bound

    def test_table_bytes_do_not_depend_on_efficiency(self):
        # One grid and two inverse CDFs of 4097 knots (3 * 4097 * 8 =
        # 98,328 bytes), Bob's coefficients (below per pair, total per
        # Alice phase: 6 * 3 * 8 = 144) and two thresholds per pair and
        # bucket, 4096 buckets (4 * 2 * 4096 * 8 = 262,144): 360,616 bytes
        # at every efficiency. The grid once widened as 1 / sqrt(eta), to
        # 6.6 MB at eta 1/8192.
        rho = state_density(SinglePhotonState(np.deg2rad(22.5), 0.9))
        knots = DEFAULT_GRID_CELLS + 1
        expected = 3 * knots * 8 + (4 + 2) * 3 * 8 + 4 * 2 * DEFAULT_GRID_CELLS * 8
        assert expected == 360_616
        for eta in (1.0, 1.0 / 8192, 1e-12):
            tables = _sampler_tables(rho, eta, eta)
            distinct = {id(a): a for t in tables for a in t[:-1]}.values()
            assert sum(a.nbytes for a in distinct) == expected

    @pytest.mark.parametrize("n", [1, _MC_BLOCK - 1, _MC_BLOCK, _MC_BLOCK + 1,
                                   3 * _MC_BLOCK + 7])
    def test_block_sampling_matches_one_shot_draw(self, n):
        state = SinglePhotonState(np.deg2rad(22.5), 0.9)
        mc = monte_carlo_correlations(state, 0.85, 0.7, n, seed=n)
        correlations, errors = _reference_monte_carlo(state, 0.85, 0.7, n, seed=n)
        assert mc.correlations == correlations
        assert mc.std_errors == errors

    @pytest.mark.parametrize("span, grid_cells", [(6.0, 5000), (3.3, 100), (3.3, 3000)])
    def test_middle_knot_is_exactly_zero(self, monkeypatch, span, grid_cells):
        rho = state_density(SinglePhotonState(np.deg2rad(22.5), 1.0))
        grid = _sampler_tables_on_grid(monkeypatch, rho, 1.0, 1.0, grid_cells, span)[0][0]
        assert grid[grid_cells // 2] == 0.0
        spaced = np.linspace(-span, span, grid_cells + 1)
        spaced[grid_cells // 2] = 0.0
        assert np.array_equal(grid, spaced)

    def test_default_grid_is_plain_linspace(self):
        # One grid in the scaled quadrature serves every efficiency.
        rho = state_density(SinglePhotonState(np.deg2rad(22.5), 1.0))
        for eta_a, eta_b in ((1.0, 1.0), (0.3, 1.0), (1.0, 1e-12), (5e-324, 5e-324)):
            grid = _sampler_tables(rho, eta_a, eta_b)[0][0]
            assert np.array_equal(grid, np.linspace(-6.0, 6.0, 4097))

    @pytest.mark.parametrize("eta", [1.0, 0.3, 2.0 ** -13, 1e-12, 5e-324])
    def test_alice_marginal_mass_is_one_on_random_densities(self, eta):
        # Alice's marginal in u is phi(u) times a polynomial of mass tr rho_A
        # = 1 at every efficiency, and +-6 leaves out less than 1e-7 of it.
        rng = np.random.Generator(np.random.Philox(84))
        grid = np.linspace(-DEFAULT_SPAN, DEFAULT_SPAN, DEFAULT_GRID_CELLS + 1)
        for _ in range(50):
            rho = _random_density(rng, 4)
            for phi_a in ALICE_PHASES:
                _, marginal = _hand_coefficients(rho, phi_a, eta, 0.0, 1.0)
                assert abs(_trapezoid_marginal(grid, marginal)[-1] - 1.0) <= 1e-6


def _bucket_edges(grid, cdf_a, buckets):
    """The x-interval ends of the ``buckets`` uniform buckets, as
    ``_sampler_tables`` passes them to ``_interval_thresholds``: the
    kernel's x at each b / B, then the grid's end."""
    return np.append(_inverse_cdf(np.arange(buckets) / buckets, grid, cdf_a), grid[-1])


def _parity_uniforms(arrays, n_draws, seed):
    """``n_draws`` seeded uniform pairs, then pairs placed where the kernel's
    decisions end: u1 on every knot of ``cdf_a`` and just above it, at the
    top of every cell, at 256 steps of one spacing below the middle knot
    (the top of cell ``mid - 1``, where x can round to 0) and on every
    bucket edge ``b / B`` and its float neighbours, each with u2 on its
    bucket's thresholds and their float neighbours; and the four corners of
    0 and 1 - 2^-53."""
    grid, cdf_a, _, _, t_true, t_false, _ = arrays
    mid = grid.shape[0] // 2
    buckets = t_true.shape[0]
    cells = np.flatnonzero(cdf_a[1:] > cdf_a[:-1])
    top = np.nextafter(cdf_a[cells + 1], -np.inf)
    below_mid = cdf_a[mid] - np.spacing(cdf_a[mid]) * np.arange(1, 257)
    below_mid = below_mid[below_mid >= cdf_a[mid - 1]]
    edges = np.arange(buckets) / buckets
    u1 = np.concatenate([cdf_a[cells], np.nextafter(cdf_a[cells], np.inf), top, below_mid,
                         edges, np.nextafter(edges[1:], -np.inf), np.nextafter(edges, np.inf)])
    u1 = u1[u1 < 1.0]
    b = (u1 * buckets).astype(np.intp)
    u2 = np.concatenate([v for edge in (t_true[b], t_false[b])
                         for v in (edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf))])
    placed = np.stack([np.tile(u1, 6), u2], axis=1)
    placed = placed[(placed[:, 1] >= 0.0) & (placed[:, 1] < 1.0)]
    edges = np.array([0.0, 1.0 - 2.0 ** -53])
    corners = np.stack(np.meshgrid(edges, edges), axis=-1).reshape(-1, 2)
    draws = np.random.Generator(np.random.Philox(seed)).random((n_draws, 2))
    return np.concatenate([draws, placed, corners])


def _assert_reference_bools(tables, seed, n_draws=1_000_000):
    for arrays in tables:
        u = _parity_uniforms(arrays, n_draws, seed)
        assert np.array_equal(_positive_products(u, *arrays), positive_products(u, *arrays[:4]))


class TestCellDecisions:
    # The kernel decides most rows from their uniform's bucket; every row
    # must keep the bool that computing x and both quadratics gives.

    @_GRID_CELLS
    @_STATES
    def test_matches_reference_kernel(self, monkeypatch, grid_cells, theta_deg, p1,
                                      eta_a, eta_b):
        rho = state_density(SinglePhotonState(np.deg2rad(theta_deg), p1))
        _assert_reference_bools(
            _sampler_tables_on_grid(monkeypatch, rho, eta_a, eta_b, grid_cells, 6.0),
            seed=grid_cells)

    @pytest.mark.parametrize("theta_deg, p1", [(22.5, 0.0), (0.0, 1.0), (90.0, 1.0)])
    @pytest.mark.parametrize("eta_a, eta_b", [(5e-324, 5e-324), (1e-12, 1.0), (1.0, 1e-12),
                                              (2.0 ** -13, 2.0 ** -13)])
    def test_matches_reference_kernel_at_edge_states(self, theta_deg, p1, eta_a, eta_b):
        # Vacuum, and a photon wholly at Bob (0 degrees) or, up to rounding,
        # at Alice (90 degrees): the quadratics are constant or nearly so,
        # and rounding alone decides the comparison near a threshold.
        rho = state_density(SinglePhotonState(np.deg2rad(theta_deg), p1))
        _assert_reference_bools(_sampler_tables(rho, eta_a, eta_b), seed=7)

    def test_matches_reference_kernel_on_empty_cells(self, monkeypatch):
        rho = state_density(SinglePhotonState(np.deg2rad(22.5), 1.0))
        tables = _sampler_tables_on_grid(monkeypatch, rho, 1.0, 1.0, 4096, 12.0)
        assert np.count_nonzero(tables[0][1][1:] == tables[0][1][:-1]) > 100
        _assert_reference_bools(tables, seed=12)

    @pytest.mark.parametrize("theta_deg, p1", [state[:2] for state in _STATE_PARAMS])
    @pytest.mark.parametrize("eta_a, eta_b", _EFFICIENCY_PAIRS)
    def test_thresholds_bound_the_masses_over_each_bucket(self, theta_deg, p1, eta_a,
                                                          eta_b):
        # At points across each bucket's x-interval, ends and the quadratics'
        # vertices included, u2 = t_true makes the kernel's comparison True
        # and u2 = t_false makes it False, wherever that u2 is a uniform.
        rho = state_density(SinglePhotonState(np.deg2rad(theta_deg), p1))
        for grid, cdf_a, below, total, t_true, t_false, _ in _sampler_tables(rho, eta_a, eta_b):
            edges = _bucket_edges(grid, cdf_a, t_true.shape[0])
            lo, hi = edges[:-1], edges[1:]
            vertices = [np.clip(-c[1] / (2.0 * c[2]), np.minimum(lo, hi), np.maximum(lo, hi))
                        for c in (below, total) if c[2] != 0.0]
            yes = (0.0 <= t_true) & (t_true < 1.0)
            no = (0.0 <= t_false) & (t_false < 1.0)
            assert yes.any() and no.any()
            for x in [lo + f * (hi - lo) for f in np.linspace(0.0, 1.0, 9)] + vertices:
                mass_below = below[0] + x * (below[1] + x * below[2])
                mass = total[0] + x * (total[1] + x * total[2])
                assert (mass_below[yes] <= t_true[yes] * mass[yes]).all()
                assert not (mass_below[no] <= t_false[no] * mass[no]).any()

    @pytest.mark.parametrize("bowl", [-1.0, 1.0])
    @pytest.mark.parametrize("party", ["below", "total"])
    def test_thresholds_reach_a_vertex_inside_the_bucket(self, party, bowl):
        # A quadratic whose vertex lies inside a bucket passes its end
        # values there by |c2| W^2 / 4; the other one is constant, so the
        # thresholds must take that reach in. Buckets on the default grid's
        # cells, vertices at their midpoints and quarter points.
        grid = np.linspace(-DEFAULT_SPAN, DEFAULT_SPAN, DEFAULT_GRID_CELLS + 1)
        grid[DEFAULT_GRID_CELLS // 2] = 0.0
        mid = DEFAULT_GRID_CELLS // 2
        constant = np.array([1.0, 0.0, 0.0])
        for cell in np.r_[0:mid - 1:37, mid:DEFAULT_GRID_CELLS:37]:
            for fraction in (0.25, 0.5, 0.75):
                v = grid[cell] + fraction * (grid[cell + 1] - grid[cell])
                bowl_coefficients = np.array([v * v, -2.0 * v, 1.0]) * bowl / 64.0
                if party == "below":
                    below, total = 0.25 * constant + bowl_coefficients, constant
                else:
                    below, total = 0.25 * constant, constant + bowl_coefficients
                t_true, t_false, _ = _interval_thresholds(grid, grid, [below], total)
                mass_below = below[0] + v * (below[1] + v * below[2])
                mass = total[0] + v * (total[1] + v * total[2])
                assert mass_below <= t_true[0, cell] * mass
                assert not mass_below <= t_false[0, cell] * mass

    @pytest.mark.parametrize("theta_deg, p1", [state[:2] for state in _STATE_PARAMS])
    @pytest.mark.parametrize("eta_a, eta_b", _EFFICIENCY_PAIRS)
    def test_matches_reference_kernel_at_every_efficiency(self, theta_deg, p1, eta_a, eta_b):
        rho = state_density(SinglePhotonState(np.deg2rad(theta_deg), p1))
        _assert_reference_bools(_sampler_tables(rho, eta_a, eta_b), seed=17, n_draws=20_000)

    @pytest.mark.parametrize("always", [False, True])
    @_STATES
    def test_thresholds_decide_without_the_quadratics(self, theta_deg, p1, eta_a, eta_b,
                                                      always):
        # u2 at or beyond a bucket's threshold settles the row from the
        # bucket alone: quadratics that would answer ``always`` on every row
        # leave those rows as the real ones answer, at either end of the
        # bucket.
        rho = state_density(SinglePhotonState(np.deg2rad(theta_deg), p1))
        constant = (np.zeros(3), np.ones(3)) if always else (np.ones(3), np.zeros(3))
        for arrays in _sampler_tables(rho, eta_a, eta_b):
            grid, cdf_a, below, total, t_true, t_false, b_right = arrays
            edge = t_false if always else t_true
            starts = np.arange(edge.shape[0]) / edge.shape[0]
            ends = np.nextafter(starts + 1.0 / edge.shape[0], -np.inf)
            u = np.stack([np.concatenate([starts, ends]), np.tile(edge, 2)], axis=1)
            u = u[(u[:, 1] >= 0.0) & (u[:, 1] < 1.0)]
            assert u.shape[0] > DEFAULT_GRID_CELLS
            forced = (grid, cdf_a, *constant, t_true, t_false, b_right)
            assert np.array_equal(_positive_products(u, *forced),
                                  positive_products(u, *arrays[:4]))

    def test_most_rows_are_decided_by_their_bucket(self):
        # At the default grid the bucket thresholds leave about 0.23 % of
        # draws to be computed. Thresholds that are correct but loose keep
        # every bit and lose the speed, which no other test notices.
        rho = state_density(SinglePhotonState(np.deg2rad(22.5), 0.9))
        u = np.random.Generator(np.random.Philox(113)).random((1_000_000, 2))
        for *_, t_true, t_false, _ in _sampler_tables(rho, 0.85, 0.85):
            b = (u[:, 0] * t_true.shape[0]).astype(np.intp)
            undecided = (u[:, 1] < t_true[b]) & (u[:, 1] > t_false[b])
            assert np.count_nonzero(undecided) < 0.003 * u.shape[0]

    def test_exact_tie_of_the_masses_counts_as_y_above_zero(self):
        # u2 = mass_below / mass makes fl(u2 * mass) equal mass_below on most
        # rows. No bucket decides such a row, and its y is at or above 0, as
        # the reference kernel's closed comparison says.
        rho = state_density(SinglePhotonState(np.deg2rad(22.5), 0.9))
        u1 = np.random.Generator(np.random.Philox(3)).random(2000)
        for arrays in _sampler_tables(rho, 0.85, 0.85):
            grid, cdf_a, below, total, t_true, t_false, _ = arrays
            x = _inverse_cdf(u1, grid, cdf_a)
            mass_below = below[0] + x * (below[1] + x * below[2])
            mass = total[0] + x * (total[1] + x * total[2])
            u2 = mass_below / mass
            tie = (u2 * mass == mass_below) & (u2 < 1.0)
            assert np.count_nonzero(tie) > 1000
            b = (u1 * t_true.shape[0]).astype(np.intp)
            assert ((u2 < t_true[b]) & (u2 > t_false[b]))[tie].all()
            u = np.stack([u1, u2], axis=1)[tie]
            assert np.array_equal(_positive_products(u, *arrays), x[tie] >= 0.0)
            assert np.array_equal(_positive_products(u, *arrays),
                                  positive_products(u, *arrays[:4]))


def test_maximally_entangled_ideal_configuration_hits_quantum_max():
    # Projective Bob (gamma = 1 reference) on the balanced split photon
    # realises the 2*sqrt(2) maximum through the experiment's phase choices.
    rho = state_density(SinglePhotonState(np.deg2rad(22.5), 1.0))
    values = []
    for phi_a in (0.0, np.pi / 2.0):
        for phi_b in BOB_PHASES:
            pa = projector_from_params(0.5, -phi_a)
            pb = projector_from_params(0.5, -phi_b)
            values.append(quantum_correlator(rho, pa, pb))
    c = CorrelationSet(values[0], values[2], values[1], values[3])
    lhs, _ = steering_inequality(c)
    assert lhs == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-12)


def test_maximally_entangled_state_matches_fock_form():
    # The computational-basis maximally entangled state and the single-photon
    # one are locally equivalent; both must give unit-magnitude correlators
    # somewhere. Sanity-check the Fock one against its own analytic values.
    c = experiment_correlations(SinglePhotonState(np.deg2rad(22.5), 1.0), 1.0, 1.0)
    expected = 2.0 / np.pi * np.sqrt(0.5)
    assert np.abs(np.abs(c.as_array()) - expected).max() <= 1e-12
    assert maximally_entangled().shape == (4, 4)


# ---------------------------------------------------------------------------
# The worker threads each Monte Carlo call samples on
# ---------------------------------------------------------------------------

_POOL_STATE = SinglePhotonState(np.deg2rad(22.5), 0.9)


def _mc(seed):
    return monte_carlo_correlations(_POOL_STATE, 0.85, 0.7, 3000, seed=seed)


def test_concurrent_callers_get_lone_results():
    # Eight callers at once, each with a pool of its own: each must get the
    # result of a lone call.
    calls = [(_mc, (seed,)) for seed in range(8)]
    assert run_concurrently(calls) == [fn(*args) for fn, args in calls]


def test_no_worker_thread_outlives_the_call():
    _mc(5)
    alive = [t.name for t in threading.enumerate() if t.name.startswith("chsh-worker")]
    assert alive == []


def _both():
    coarse = violation_search.state_scan(state_density(_POOL_STATE),
                                         bloch_resolution=24)[2]
    return _mc(7), coarse.tobytes()


def _child(results):
    results.put(_both())


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="this platform cannot fork")
def test_forked_child_gets_a_pool_of_its_own():
    # A forked child inherits none of the parent's threads; a pool object
    # shared with the parent would leave its first task waiting forever.
    expected = _both()
    context = multiprocessing.get_context("fork")
    results = context.Queue()
    child = context.Process(target=_child, args=(results,))
    with warnings.catch_warnings():
        # Newer Pythons warn that forking a threaded process may deadlock,
        # which is the case under test.
        warnings.simplefilter("ignore", DeprecationWarning)
        child.start()
    try:
        got = results.get(timeout=30)
    except queue.Empty:
        got = None
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()
    assert got is not None, "the forked child did not finish within 30 s"
    assert got == expected
    assert child.exitcode == 0


def _public_functions():
    """(module, name, function) of every public function defined in a package
    module, for each package namespace that holds it under that name."""
    modules = [chsh_steering] + [importlib.import_module(f"chsh_steering.{info.name}")
                                 for info in pkgutil.iter_modules(chsh_steering.__path__)]
    for home in modules[1:]:
        for name, fn in vars(home).items():
            if (inspect.isfunction(fn) and not name.startswith("_")
                    and fn.__module__ == home.__name__):
                for module in modules:
                    if vars(module).get(name) is fn:
                        yield module, name, fn


def test_no_public_function_runs_on_a_pool_thread(monkeypatch):
    # A benchmark tracer that wraps public functions keeps one span stack,
    # which a call from a pool thread would corrupt.
    records = []

    def recorded(fn):
        def wrapper(*args, **kwargs):
            records.append((fn.__qualname__, threading.current_thread()))
            return fn(*args, **kwargs)
        return wrapper

    for module, name, fn in list(_public_functions()):
        monkeypatch.setattr(module, name, recorded(fn))
    # Called through their modules, where the wrappers sit.
    violation_search.state_scan(state_density(_POOL_STATE), bloch_resolution=24)
    homodyne_experiment.monte_carlo_correlations(_POOL_STATE, 0.85, 0.7, 3000, seed=11)
    caller = threading.current_thread()
    assert {"state_scan", "monte_carlo_correlations"} <= {n for n, _ in records}
    assert [n for n, thread in records if thread is not caller] == []
