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

import chsh_steering
from chsh_steering import homodyne_experiment, violation_search
from chsh_steering.homodyne_experiment import (
    ALICE_PHASES,
    BOB_PHASES,
    DEFAULT_GRID_CELLS,
    DEFAULT_SPAN,
    MAX_MC_SAMPLES,
    MIN_MC_ETA,
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
    _GUIDE_BUCKETS,
    _MC_BLOCK,
    _cumtrapz,
    _envelope,
    _g_operators,
    _guide_table,
    _pair_grid,
    _positive_products,
    _sampler_tables,
)
from chsh_steering.correlation_model import CorrelationSet
from chsh_steering.qubit_core import projector_from_params, quantum_correlator
from chsh_steering.steering_witness import steering_inequality
from concurrency import run_concurrently
from reference import maximally_entangled


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
    # Alice's efficiency is checked before the grid that eta_bob would refuse.
    "monte_carlo_correlations eta_bob below MIN_MC_ETA": lambda: monte_carlo_correlations(
        SinglePhotonState(np.deg2rad(22.5), 1.0), 1.5, 1e-5, 10, seed=0),
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
    """``homodyne_pdf`` with the polynomial expanded by hand, as it was
    before it took the traces of ``_g_operators``."""
    coherence = float(np.real(np.exp(-1j * phi) * rho[0, 1])) * 2.0
    p0 = float(rho[0, 0].real)
    p1 = float(rho[1, 1].real)
    poly = (p0 + (1.0 - eta) * p1) + eta * x * coherence + (eta * eta) * x * x * p1
    return _envelope(x, eta) * poly


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
        # fixed span the lost tails pulled these correlators 6 to 28 sigma
        # toward 0 at 1e6 samples.
        state = SinglePhotonState(np.deg2rad(22.5), 1.0)
        analytic = experiment_correlations(state, eta_alice, eta_bob).as_array()
        mc = monte_carlo_correlations(state, eta_alice, eta_bob, 1_000_000, seed=41)
        pulls = (mc.correlations.as_array() - analytic) / np.array(mc.std_errors)
        assert np.abs(pulls).max() <= 4.0

    @pytest.mark.parametrize("eta_alice, eta_bob", [(0.5, 0.5), (1.0, 0.5),
                                                    (0.5, 1.0), (0.85, 0.85)])
    def test_default_grid_from_eta_one_half(self, eta_alice, eta_bob):
        # The span only widens below eta 0.5, so results there keep their bytes.
        assert _pair_grid(eta_alice, eta_bob) == (DEFAULT_GRID_CELLS, DEFAULT_SPAN)

    @pytest.mark.parametrize("eta", [0.49, 0.3, 0.1, 0.05, 0.02, 1e-3, MIN_MC_ETA])
    def test_grid_widens_with_the_envelope(self, eta):
        for low, high in ((eta, 1.0), (1.0, eta), (eta, eta)):
            cells, span = _pair_grid(low, high)
            assert cells % 2 == 0
            # The span covers as many envelope widths as at eta 0.5, and the
            # cell width is the default's up to the rounding to even cells.
            assert span * math.sqrt(eta) == pytest.approx(DEFAULT_SPAN * math.sqrt(0.5))
            assert span / cells == pytest.approx(DEFAULT_SPAN / DEFAULT_GRID_CELLS,
                                                 rel=2.0 / DEFAULT_GRID_CELLS)

    def test_grid_is_bounded(self):
        # The widening stops at 64 times the default grid, at MIN_MC_ETA;
        # below it the call fails before any table is built.
        for low, high in ((MIN_MC_ETA, 1.0), (1.0, MIN_MC_ETA)):
            cells, span = _pair_grid(low, high)
            assert (cells, span) == (64 * DEFAULT_GRID_CELLS, 64 * DEFAULT_SPAN)
        for eta in (np.nextafter(MIN_MC_ETA, 0.0), 1e-12, 5e-324):
            for low, high in ((eta, 1.0), (1.0, eta)):
                with pytest.raises(ValueError, match="Monte Carlo needs eta"):
                    _pair_grid(low, high)
        with pytest.raises(ValueError):
            monte_carlo_correlations(SinglePhotonState(0.0, 1.0), 1.0, 5e-324, 10, seed=0)

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
    """``_sampler_tables`` with the default grid set to ``grid_cells`` cells
    over [-span, span]; ``_pair_grid`` still widens it below eta 0.5."""
    monkeypatch.setattr(homodyne_experiment, "DEFAULT_GRID_CELLS", grid_cells)
    monkeypatch.setattr(homodyne_experiment, "DEFAULT_SPAN", span)
    return _sampler_tables(rho, eta_a, eta_b)


def _reference_sampler_arrays(rho, phi_a, eta_a, phi_b, eta_b, grid_cells, span):
    """One setting pair's sampler tables, built for that pair alone with one
    scalar einsum per expectation, as before ``expectation_table``."""
    grid = np.linspace(-span, span, grid_cells + 1)
    grid[grid_cells // 2] = 0.0
    dx = grid[1] - grid[0]

    rho4 = rho.reshape(2, 2, 2, 2)
    ga = _g_operators(phi_a, eta_a)
    gb = _g_operators(phi_b, eta_b)
    eye = np.eye(2, dtype=complex)

    coef = np.empty((3, 3))
    marginal = np.empty(3)
    for i in range(3):
        marginal[i] = np.real(np.einsum("abcd,ca,db->", rho4, ga[i], eye))
        for j in range(3):
            coef[i, j] = np.real(np.einsum("abcd,ca,db->", rho4, ga[i], gb[j]))

    powers = np.stack([np.ones_like(grid), grid, grid * grid])
    pdf_a = np.maximum(_envelope(grid, eta_a) * (marginal @ powers), 0.0)
    cdf_a = _cumtrapz(pdf_a, dx)
    cdf_a /= cdf_a[-1]

    env_b = _envelope(grid, eta_b)
    cum_b = np.stack([_cumtrapz(env_b * powers[j], dx) for j in range(3)])
    return grid, cdf_a, _guide_table(cdf_a), coef, cum_b


def _kernel_arrays(grid, cdf_a, guide, coef, cum_b):
    """The sampler's ``(grid, cdf_a, guide, below, total)`` from a reference
    table: Bob's masses below y = 0 and in all, as coefficients in x."""
    zero = (grid.shape[0] - 1) // 2
    return grid, cdf_a, guide, coef @ cum_b[:, zero], coef @ cum_b[:, -1]


def _reference_mc_products(u, grid, cdf_a, coef, cum_b):
    """The sampler before the sign-only kernel: it locates y by bisection."""
    g = grid.shape[0]
    u1 = u[:, 0]
    k = np.searchsorted(cdf_a, u1, side="right") - 1
    k = np.clip(k, 0, g - 2)
    dc = cdf_a[k + 1] - cdf_a[k]
    safe = np.where(dc > 0.0, dc, 1.0)
    x = np.where(dc > 0.0,
                 grid[k] + (u1 - cdf_a[k]) * (grid[k + 1] - grid[k]) / safe,
                 grid[k])

    d0 = coef[0, 0] + coef[1, 0] * x + coef[2, 0] * x * x
    d1 = coef[0, 1] + coef[1, 1] * x + coef[2, 1] * x * x
    d2 = coef[0, 2] + coef[1, 2] * x + coef[2, 2] * x * x
    total = d0 * cum_b[0, g - 1] + d1 * cum_b[1, g - 1] + d2 * cum_b[2, g - 1]
    target = u[:, 1] * total

    lo = np.zeros(u.shape[0], dtype=np.int64)
    hi = np.full(u.shape[0], g - 1, dtype=np.int64)
    for _ in range(int(np.ceil(np.log2(g))) + 2):
        active = hi - lo > 1
        mid = (lo + hi) // 2
        val = d0 * cum_b[0, mid] + d1 * cum_b[1, mid] + d2 * cum_b[2, mid]
        le = val <= target
        lo = np.where(active & le, mid, lo)
        hi = np.where(active & ~le, mid, hi)

    m_lo = d0 * cum_b[0, lo] + d1 * cum_b[1, lo] + d2 * cum_b[2, lo]
    m_hi = d0 * cum_b[0, lo + 1] + d1 * cum_b[1, lo + 1] + d2 * cum_b[2, lo + 1]
    dm = m_hi - m_lo
    safe_m = np.where(dm > 0.0, dm, 1.0)
    y = np.where(dm > 0.0,
                 grid[lo] + (target - m_lo) * (grid[lo + 1] - grid[lo]) / safe_m,
                 grid[lo])

    sx = np.where(x >= 0.0, 1.0, -1.0)
    sy = np.where(y >= 0.0, 1.0, -1.0)
    return sx * sy


def _reference_monte_carlo(state, eta_alice, eta_bob, n_samples, seed):
    """Correlators and errors as computed before block sampling."""
    rho = state_density(state)
    children = np.random.SeedSequence(seed).spawn(4)
    means, errors = [], []
    for pair_idx, (phi_a, phi_b) in enumerate(_PHASE_PAIRS):
        grid, cdf_a, _, coef, cum_b = _reference_sampler_arrays(
            rho, phi_a, eta_alice, phi_b, eta_bob, *_pair_grid(eta_alice, eta_bob))
        rng = np.random.Generator(np.random.Philox(children[pair_idx]))
        u = rng.random((n_samples, 2))
        mean = float(_reference_mc_products(u, grid, cdf_a, coef, cum_b).mean())
        means.append(mean)
        errors.append(float(np.sqrt(max(1.0 - mean * mean, 0.0) / n_samples)))
    return CorrelationSet(*means), tuple(errors)


_GRID_CELLS = pytest.mark.parametrize("grid_cells", [8, 1024, 4096, 5000])
_STATES = pytest.mark.parametrize("theta_deg, p1, eta_a, eta_b", [
    (22.5, 1.0, 0.85, 0.85),
    (22.5, 0.6, 1.0, 0.3),
    (7.0, 0.9, 0.5, 1.0),
    (40.0, 0.95, 0.2, 0.7),
    (0.0, 1.0, 1.0, 1.0),
])


class TestSignOnlyKernel:
    @_GRID_CELLS
    @_STATES
    def test_products_match_bisection_kernel(self, monkeypatch, grid_cells, theta_deg,
                                             p1, eta_a, eta_b):
        rho = state_density(SinglePhotonState(np.deg2rad(theta_deg), p1))
        rng = np.random.Generator(np.random.Philox(grid_cells))
        tables = _sampler_tables_on_grid(monkeypatch, rho, eta_a, eta_b, grid_cells, 6.0)
        for (phi_a, phi_b), arrays in zip(_PHASE_PAIRS, tables, strict=True):
            reference = _reference_sampler_arrays(rho, phi_a, eta_a, phi_b, eta_b,
                                                  *_pair_grid(eta_a, eta_b))
            for a, b in zip(arrays, _kernel_arrays(*reference), strict=True):
                assert np.array_equal(a, b)
            u = rng.random((20000, 2))
            grid, cdf_a, _, coef, cum_b = reference
            expected = _reference_mc_products(u, grid, cdf_a, coef, cum_b) > 0.0
            assert np.array_equal(_positive_products(u, *arrays), expected)

    @pytest.mark.parametrize("pair", list(enumerate(_PHASE_PAIRS)))
    def test_products_match_bisection_kernel_on_empty_cells(self, monkeypatch, pair):
        # At span 12 and eta 1 the tails of cdf_a round to 0 and 1, so
        # hundreds of cells are empty; the unguarded interpolation never
        # lands in one, even at the edge uniforms 0 and 1 - 2^-53.
        rho = state_density(SinglePhotonState(np.deg2rad(22.5), 1.0))
        index, (phi_a, phi_b) = pair
        arrays = _sampler_tables_on_grid(monkeypatch, rho, 1.0, 1.0, 4096, 12.0)[index]
        grid, cdf_a, _, coef, cum_b = _reference_sampler_arrays(rho, phi_a, 1.0, phi_b,
                                                                1.0, 4096, 12.0)
        assert np.count_nonzero(arrays[1][1:] == arrays[1][:-1]) > 100
        edges = np.array([0.0, 1.0 - 2.0 ** -53])
        u = np.concatenate([
            np.random.Generator(np.random.Philox(12)).random((200000, 2)),
            np.stack(np.meshgrid(edges, edges), axis=-1).reshape(-1, 2)])
        expected = _reference_mc_products(u, grid, cdf_a, coef, cum_b) > 0.0
        assert np.array_equal(_positive_products(u, *arrays), expected)

    @_GRID_CELLS
    @_STATES
    def test_guide_table_is_searchsorted_lower_bound(self, monkeypatch, grid_cells,
                                                     theta_deg, p1, eta_a, eta_b):
        rho = state_density(SinglePhotonState(np.deg2rad(theta_deg), p1))
        edges = np.arange(_GUIDE_BUCKETS + 1) / _GUIDE_BUCKETS
        for _, cdf_a, guide, _, _ in _sampler_tables_on_grid(
                monkeypatch, rho, eta_a, eta_b, grid_cells, 6.0):
            expected = np.searchsorted(cdf_a, edges, side="right") - 1
            assert np.array_equal(guide, expected)

    @pytest.mark.parametrize("eta_a, eta_b", [(1.0, 1.0), (0.85, 0.85), (0.9, 0.3),
                                              (0.9, 0.2), (MIN_MC_ETA, MIN_MC_ETA)])
    def test_sampler_arrays_match_scalar_loops(self, eta_a, eta_b):
        rng = np.random.Generator(np.random.Philox(83))
        states = ([_random_density(rng, 4) for _ in range(4)]
                  + [state_density(SinglePhotonState(rng.uniform(0.0, np.pi / 4.0),
                                                     rng.uniform(0.5, 1.0)))
                     for _ in range(4)])
        cells, span = _pair_grid(eta_a, eta_b)
        for rho in states:
            tables = _sampler_tables(rho, eta_a, eta_b)
            # The efficiencies belong to the parties: one grid for all four
            # pairs and one inverse CDF per Alice phase (AB and AB', A'B and
            # A'B'), yet each pair's tuple is the bits of building it alone.
            assert all(t[0] is tables[0][0] for t in tables)
            for i, j in ((0, 2), (1, 3)):
                assert tables[i][1] is tables[j][1] and tables[i][2] is tables[j][2]
            for (phi_a, phi_b), got in zip(_PHASE_PAIRS, tables, strict=True):
                expected = _kernel_arrays(*_reference_sampler_arrays(
                    rho, phi_a, eta_a, phi_b, eta_b, cells, span))
                for a, b in zip(got, expected, strict=True):
                    assert np.array_equal(a, b)

    def test_table_bytes_at_the_efficiency_floor(self):
        # One grid and two inverse CDFs of 64 * 4096 + 1 knots, two guide
        # tables and the pairs' coefficients: 6.6 MB, where building each
        # pair's tables on its own kept 17.3 MB.
        rho = state_density(SinglePhotonState(np.deg2rad(22.5), 0.9))
        tables = _sampler_tables(rho, MIN_MC_ETA, MIN_MC_ETA)
        distinct = {id(a): a for t in tables for a in t}.values()
        knots = 64 * DEFAULT_GRID_CELLS + 1
        coefficients = 8 * 3 * 8
        assert (sum(a.nbytes for a in distinct)
                <= 3 * knots * 8 + 2 * (_GUIDE_BUCKETS + 1) * 8 + coefficients)

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
        rho = state_density(SinglePhotonState(np.deg2rad(22.5), 1.0))
        grid = _sampler_tables(rho, 1.0, 1.0)[0][0]
        assert np.array_equal(grid, np.linspace(-6.0, 6.0, 4097))


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
# The process-wide pool the Monte Carlo samples on
# ---------------------------------------------------------------------------

_POOL_STATE = SinglePhotonState(np.deg2rad(22.5), 0.9)


def _mc(seed):
    return monte_carlo_correlations(_POOL_STATE, 0.85, 0.7, 3000, seed=seed)


def test_concurrent_callers_share_the_pool():
    # More callers than the pool has threads, all on the one process-wide
    # pool: each must get the result of a lone call.
    calls = [(_mc, (seed,)) for seed in range(8)]
    assert run_concurrently(calls) == [fn(*args) for fn, args in calls]


def _both():
    coarse = violation_search.state_scan(state_density(_POOL_STATE),
                                         bloch_resolution=24)[2]
    return _mc(7), coarse.tobytes()


def _child(results):
    results.put(_both())


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="this platform cannot fork")
def test_forked_child_gets_a_pool_of_its_own():
    # The child inherits the parent's pool object but none of its threads;
    # without a fresh pool its first task would wait forever.
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
