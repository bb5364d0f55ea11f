import tracemalloc

import numpy as np
import pytest

from chsh_steering.correlation_model import CorrelationSet
from chsh_steering.homodyne_experiment import SinglePhotonState, state_density
from chsh_steering.lhs_oracle import MEMBER, lp_membership
from chsh_steering.qubit_core import (
    expectation_table,
    projector_from_params,
    quantum_correlator,
)
from chsh_steering.steering_witness import steering_inequality, steering_lhs_array
from chsh_steering import violation_search
from chsh_steering.violation_search import (
    _PAULIS,
    _directions,
    _scan_lhs,
    angle_correlations_array,
    state_scan,
)
from concurrency import run_concurrently
from reference import alice_projector, maximally_entangled


def closed_form_lhs(alpha, alpha_prime):
    """Witness left-hand side as a function of the angle difference alone."""
    c = np.cos(alpha - alpha_prime)
    return np.sqrt(2.0 + 2.0 * c) + np.sqrt(2.0 - 2.0 * c)


def pipeline_lhs(alpha, alpha_prime):
    """Steering left-hand side of one angle pair, through ``CorrelationSet``."""
    c = CorrelationSet(*angle_correlations_array(alpha, alpha_prime).tolist())
    return steering_inequality(c)[0]


class TestAngleCorrelations:
    def test_orthogonal_pair(self):
        c = angle_correlations_array(0.0, np.pi / 2.0)
        assert np.allclose(c, [1.0, 0.0, 0.0, 1.0], atol=1e-15)

    def test_parallel_pair(self):
        c = angle_correlations_array(np.pi / 2.0, np.pi / 2.0)
        assert np.allclose(c, [0.0, 0.0, 1.0, 1.0], atol=1e-15)

    def test_matches_trace_oracle(self):
        rho = maximally_entangled()
        b_effect = projector_from_params(1.0, 0.0)
        bp_effect = projector_from_params(0.5, 0.0)
        rng = np.random.Generator(np.random.Philox(47))
        for _ in range(64):
            a, ap = rng.uniform(0.0, 2.0 * np.pi, 2)
            expected = angle_correlations_array(a, ap)
            got = np.array([
                quantum_correlator(rho, alice_projector(a), b_effect),
                quantum_correlator(rho, alice_projector(ap), b_effect),
                quantum_correlator(rho, alice_projector(a), bp_effect),
                quantum_correlator(rho, alice_projector(ap), bp_effect),
            ])
            assert np.abs(got - expected).max() <= 1e-12

    @staticmethod
    def _reference_angle_correlations(alpha, alpha_prime) -> CorrelationSet:
        return CorrelationSet(
            ab=np.cos(alpha),
            apb=np.cos(alpha_prime),
            abp=np.sin(alpha),
            apbp=np.sin(alpha_prime),
        )

    @pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-150])
    def test_bitwise_equal_to_scalar_reference(self, scale):
        rng = np.random.Generator(np.random.Philox(97))
        for a, ap in rng.uniform(-2.0 * np.pi, 2.0 * np.pi, size=(2000, 2)) * scale:
            row = angle_correlations_array(float(a), float(ap)).tolist()
            assert (CorrelationSet(*row)
                    == self._reference_angle_correlations(float(a), float(ap)))


class TestClosedForm:
    def test_quarter_turn_maximum(self):
        assert pipeline_lhs(0.7, 0.7 - np.pi / 2.0) == pytest.approx(
            2.0 * np.sqrt(2.0), abs=1e-14)

    def test_equal_angles(self):
        assert pipeline_lhs(1.3, 1.3) == pytest.approx(2.0, abs=1e-14)

    def test_third_turn(self):
        assert pipeline_lhs(np.pi / 3.0, 0.0) == pytest.approx(
            np.sqrt(3.0) + 1.0, abs=1e-14)

    def test_matches_pipeline_on_full_grid(self):
        grid = 2.0 * np.pi * np.arange(360) / 360
        pipeline = steering_lhs_array(
            angle_correlations_array(grid[:, None], grid[None, :]))
        closed = closed_form_lhs(grid[:, None], grid[None, :])
        assert np.abs(pipeline - closed).max() <= 1e-12

    def test_function_matches_pipeline_pointwise(self):
        rng = np.random.Generator(np.random.Philox(61))
        for _ in range(1000):
            a, ap = rng.uniform(0.0, 2.0 * np.pi, 2)
            assert abs(closed_form_lhs(a, ap) - pipeline_lhs(a, ap)) <= 1e-12


class TestMaximize:
    def test_shift_invariance(self):
        rng = np.random.Generator(np.random.Philox(53))
        alpha, alpha_prime = 0.4, 0.4 - np.pi / 2.0
        reference = pipeline_lhs(alpha, alpha_prime)
        for shift in rng.uniform(0.0, 2.0 * np.pi, 100):
            value = pipeline_lhs(alpha + shift, alpha_prime + shift)
            assert abs(value - reference) <= 1e-12


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

    # Each of these once reached NumPy and failed there with a TypeError.
    @pytest.mark.parametrize("resolution", [4.5, 16.0, "16", None])
    def test_resolution_must_be_an_integer(self, resolution):
        with pytest.raises(ValueError, match="bloch_resolution must be an integer"):
            state_scan(maximally_entangled(), bloch_resolution=resolution)

    def test_numpy_integer_resolution_scans_as_an_int(self):
        _, value, coarse = state_scan(maximally_entangled(), bloch_resolution=np.int16(8))
        _, expected_value, expected = state_scan(maximally_entangled(), bloch_resolution=8)
        assert value == expected_value
        assert coarse.tobytes() == expected.tobytes()

    # Without the check these scaled states would scan as a false violation
    # (2.206 for the Werner state, which gives 1.697), above 2 sqrt(2)
    # (3.68) and as 0, or fail on a correlator out of range.
    @pytest.mark.parametrize("rho", [
        1.3 * (0.6 * maximally_entangled() + 0.1 * np.eye(4)),
        1.3 * maximally_entangled(),
        np.eye(4),
        2.0 * maximally_entangled(),
    ], ids=["werner-1.3", "bell-1.3", "identity", "bell-2"])
    def test_rejects_a_non_density(self, rho):
        with pytest.raises(ValueError, match="trace"):
            state_scan(rho)
        # The state is checked before the resolution.
        with pytest.raises(ValueError, match="trace"):
            state_scan(rho, bloch_resolution=2)

    # The scan's private helpers assume finite correlators; a NaN or an
    # infinity on the diagonal or in a correlation entry stops at the state.
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 3)], ids=["diagonal", "correlation"])
    def test_rejects_non_finite_entries(self, bad, where):
        rho = maximally_entangled().astype(complex)
        rho[where] = rho[where[::-1]] = bad
        with pytest.raises(ValueError, match="non-finite"):
            state_scan(rho)
        with pytest.raises(ValueError, match="non-finite"):
            state_scan(rho, bloch_resolution=2)

    @pytest.mark.parametrize("resolution", [129, 100000])
    def test_resolution_upper_limit(self, resolution):
        with pytest.raises(ValueError, match="at most 128"):
            state_scan(maximally_entangled(), bloch_resolution=resolution)

    # At 40 the full (1600, 1600) pair grid alone would take 20 MB per array.
    # At 128 the scan peaks near 1.8 MB; an (N, 16) array of the N = 16384
    # directions would add 2 MB, and an (N, K) one over K >= 100 candidate
    # columns 12.5 MB.
    @pytest.mark.parametrize("resolution, limit", [(40, 16 * 2 ** 20), (128, 3 * 2 ** 20)])
    def test_coarse_scan_memory_is_bounded(self, resolution, limit):
        state_scan(maximally_entangled(), bloch_resolution=resolution)
        tracemalloc.start()
        try:
            state_scan(maximally_entangled(), bloch_resolution=resolution)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit


def _scan(p1, resolution):
    best, value, coarse = state_scan(state_density(SinglePhotonState(0.3, p1)),
                                     bloch_resolution=resolution)
    return best, value, coarse.tobytes()


def test_concurrent_state_scans():
    # Eight scans at once, each of which prunes its own candidate columns:
    # full rank (hull rule) and p1 = 0, a rank-1 block (segment rule).
    calls = [(_scan, (p1, resolution)) for p1 in (0.9, 0.6, 1.0, 0.0)
             for resolution in (24, 33)]
    assert run_concurrently(calls) == [fn(*args) for fn, args in calls]


PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _random_mixed_state(rng):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _lossy_split_photon(rng):
    theta = rng.uniform(0.0, np.pi / 4.0)
    return state_density(SinglePhotonState(theta, rng.uniform(0.5, 1.0)))


def _margin_state():
    """The fourth of the states drawn at ranks 1, 2, 4, 1, ... from
    ``default_rng(2)``: a rank-1 state whose scan at resolutions 24 and 40
    is off by an ulp when ``_candidates`` keeps no margin around the hull."""
    rng = np.random.default_rng(2)
    for rank in (1, 2, 4, 1):
        g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _test_states():
    rng = np.random.Generator(np.random.Philox(71))
    return ([_random_mixed_state(rng) for _ in range(8)]
            + [_lossy_split_photon(rng) for _ in range(8)] + [_margin_state()])


def _reference_tensor_columns(rho):
    """The scalar loop ``state_scan`` used for its correlation columns
    u_k = Tr[rho s_k x s_z], w_k = Tr[rho s_k x s_x]."""
    rho4 = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    cols = np.empty((3, 2))
    for k in range(3):
        for col, bob in enumerate((_PAULIS[2], _PAULIS[0])):
            cols[k, col] = np.real(
                np.einsum("abcd,ca,db->", rho4, _PAULIS[k], bob))
    return cols


def _reference_pair_values(cols, n1, n2):
    """Witness value of direction pairs; broadcasts over leading axes."""
    a1 = n1 @ cols
    a2 = n2 @ cols
    plus = a1 + a2
    minus = a1 - a2
    return (np.hypot(plus[..., 0], plus[..., 1])
            + np.hypot(minus[..., 0], minus[..., 1]))


def _reference_grid(rho, bloch_resolution):
    """Every pair of the Bloch grid at once: the (N, N) values and the grid."""
    cols = _reference_tensor_columns(rho)
    thetas = np.linspace(0.0, np.pi, bloch_resolution)
    phis = 2.0 * np.pi * np.arange(bloch_resolution) / bloch_resolution
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    dirs = _directions(tt.ravel(), pp.ravel())
    return cols, tt, pp, _reference_pair_values(cols, dirs[:, None, :], dirs[None, :, :])


def _reference_coarse(rho, bloch_resolution):
    """The coarse table from the full (N, N) scan over every pair."""
    _, tt, pp, values = _reference_grid(rho, bloch_resolution)
    return np.stack([tt.ravel(), pp.ravel(), values.max(axis=1)], axis=-1)


def _reference_search(rho, bloch_resolution):
    """The shrinking local search ``state_scan`` ran before the closed form.

    The best pair of the full four-angle Bloch grid seeds 60 rounds over the
    81 neighbours at steps pi/resolution, halved each round; returns the best
    witness value found.
    """
    cols, tt, pp, values = _reference_grid(rho, bloch_resolution)
    i, j = divmod(int(np.argmax(values)), values.shape[0])
    params = np.array([tt.ravel()[i], pp.ravel()[i],
                       tt.ravel()[j], pp.ravel()[j]])
    best = float(values[i, j])

    step = np.pi / bloch_resolution
    offsets = np.array(np.meshgrid(*([[-1.0, 0.0, 1.0]] * 4),
                                   indexing="ij")).reshape(4, -1).T
    for _ in range(60):
        trial = params[None, :] + step * offsets
        vals = _reference_pair_values(cols, _directions(trial[:, 0], trial[:, 1]),
                                      _directions(trial[:, 2], trial[:, 3]))
        k = int(np.argmax(vals))
        if vals[k] > best:
            best = float(vals[k])
            params = trial[k]
        step *= 0.5
    return best


def _correlation_matrix(rho):
    """T_kl = Tr[rho s_k x s_l] over the three Pauli matrices on each side."""
    return np.array([[np.trace(rho @ np.kron(sk, sl)).real for sl in PAULIS]
                     for sk in PAULIS])


def _planes(cols, bloch_resolution):
    """The correlator planes x, y that ``state_scan`` builds from ``cols``."""
    thetas = np.linspace(0.0, np.pi, bloch_resolution)
    phis = 2.0 * np.pi * np.arange(bloch_resolution) / bloch_resolution
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    return np.ascontiguousarray((_directions(tt.ravel(), pp.ravel()) @ cols).T)


def _brute_maxima(x, y):
    """Row maxima of ``_scan_lhs`` over every column, a few rows at a time."""
    return np.concatenate([
        _scan_lhs(x[s:s + 64, None], y[s:s + 64, None], x[None, :], y[None, :]).max(axis=1)
        for s in range(0, x.shape[0], 64)])


def _product_state(rng):
    bloch = rng.normal(size=(2, 3))
    bloch *= rng.uniform(0.3, 1.0, size=(2, 1)) / np.linalg.norm(bloch, axis=1, keepdims=True)
    rho_a, rho_b = (0.5 * (np.eye(2) + np.einsum("k,kij->ij", b, PAULIS)) for b in bloch)
    return np.kron(rho_a, rho_b)


def _special_states():
    zero_zero = np.zeros((4, 4))
    zero_zero[0, 0] = 1.0
    rng = np.random.Generator(np.random.Philox(83))
    return [zero_zero, np.eye(4) / 4.0] + [_product_state(rng) for _ in range(4)]


# Ratios sigma2 / sigma1 of the correlation block's singular values: exactly
# and nearly rank 1 (the segment rule) up to well inside the hull rule.
SIGMA_RATIOS = (0.0, 1e-14, 1e-10, 1e-8, 1e-7, 1e-6, 1e-5, 1e-3)


def _synthetic_columns(ratio, rng):
    """A 3 x 2 correlation block with singular values 0.9 and 0.9 ratio and
    random singular vectors."""
    left = np.linalg.qr(rng.normal(size=(3, 3)))[0][:, :2]
    right = np.linalg.qr(rng.normal(size=(2, 2)))[0]
    return (left * np.array([0.9, 0.9 * ratio])) @ right.T


class TestBlockedCoarseScan:
    # At 4 and 5 nearly every direction is a column; from 24 on a few
    # percent are, and the rows then fill blocks of _SCAN_BLOCK // K.
    @pytest.mark.parametrize("resolution", [4, 5, 24, 33, 40])
    def test_bitwise_equal_to_full_scan(self, resolution):
        for rho in _test_states():
            _, _, coarse = state_scan(rho, bloch_resolution=resolution)
            assert np.array_equal(coarse, _reference_coarse(rho, resolution))

    @pytest.mark.parametrize("block", [1, 64, 100, 175])
    def test_bitwise_equal_at_any_block_size(self, monkeypatch, block):
        monkeypatch.setattr(violation_search, "_SCAN_BLOCK", block)
        for rho in _test_states()[::5] + _special_states()[:3]:
            _, _, coarse = state_scan(rho, bloch_resolution=5)
            assert np.array_equal(coarse, _reference_coarse(rho, 5))

    @pytest.mark.parametrize("resolution", [4, 5, 24, 33, 40])
    def test_bitwise_equal_on_degenerate_states(self, resolution):
        # |00> and the product states have rank-1 blocks, I/4 a zero one.
        for rho in _special_states():
            _, _, coarse = state_scan(rho, bloch_resolution=resolution)
            assert np.array_equal(coarse, _reference_coarse(rho, resolution))

    @pytest.mark.parametrize("ratio", SIGMA_RATIOS)
    @pytest.mark.parametrize("resolution", [5, 24, 40])
    def test_synthetic_planes_bitwise_equal_to_brute_force(self, resolution, ratio):
        rng = np.random.Generator(np.random.Philox(89))
        for _ in range(3):
            x, y = _planes(_synthetic_columns(ratio, rng), resolution)
            assert np.array_equal(violation_search._coarse_maxima(x, y),
                                  _brute_maxima(x, y))

    def test_segment_keeps_columns_off_its_line_near_an_end(self):
        # A thin set (height 1.9e-3 < 2^-9 of its extent) whose end (1, 0)
        # is the farthest point, but where row (0.9, 0) peaks at a point 2.5e-6
        # short of that end and 1.9e-3 off the line: the columns must reach
        # 4h past the end's mu, not just mu.
        x = np.array([1.0, 1.0 - 2.5e-6, 0.9, -1.0, 0.0, 0.3])
        y = np.array([0.0, 1.9e-3, 0.0, 0.0, 0.0, -1e-4])
        brute = _brute_maxima(x, y)
        assert np.argmax(_scan_lhs(x[2], y[2], x, y)) == 1
        columns, full = violation_search._candidates(x, y)
        assert 1 in columns and 2 not in full
        assert np.array_equal(violation_search._coarse_maxima(x, y), brute)

    def test_zero_block_keeps_one_column(self):
        x, y = _planes(np.zeros((3, 2)), 8)
        columns, full = violation_search._candidates(x, y)
        assert columns.size == 1 and full.size == 0

    @pytest.mark.parametrize("index", [0, 5, 8, 15])
    def test_full_rank_keeps_few_columns(self, index):
        # Pruning that silently fell back to all pairs would keep them all.
        rho = _test_states()[index]
        x, y = _planes(expectation_table(rho, _PAULIS, _PAULIS[[2, 0]]), 128)
        columns, full = violation_search._candidates(x, y)
        assert full.size == 0
        assert columns.size < 0.05 * x.shape[0]

    @pytest.mark.parametrize("ratio", SIGMA_RATIOS)
    def test_thin_blocks_keep_few_columns_and_rows(self, ratio):
        rng = np.random.Generator(np.random.Philox(97))
        x, y = _planes(_synthetic_columns(ratio, rng), 128)
        columns, full = violation_search._candidates(x, y)
        assert columns.size < 0.05 * x.shape[0]
        assert full.size < 0.05 * x.shape[0]

    @pytest.mark.parametrize("exponent", [450, 1000])
    def test_tiny_blocks_scan_bitwise_and_keep_few_columns(self, monkeypatch, exponent):
        # Valid states whose correlation blocks, 2^-448 or 2^-998 in size,
        # take the same screened path as any other.
        for rho in _tiny_block_states(exponent):
            for resolution in (5, 24, 40):
                _, _, coarse = state_scan(rho, bloch_resolution=resolution)
                assert np.array_equal(coarse, _reference_coarse(rho, resolution))

        # Stopped once the columns are chosen: a scan that kept every point
        # would take seconds at resolution 128.
        class Kept(Exception):
            pass

        candidates = violation_search._candidates

        def spy(x, y):
            columns, full = candidates(x, y)
            raise Kept(max(columns.size, full.size) / x.shape[0])

        monkeypatch.setattr(violation_search, "_candidates", spy)
        for rho in _tiny_block_states(exponent):
            with pytest.raises(Kept) as kept:
                state_scan(rho, bloch_resolution=128)
            assert kept.value.args[0] < 0.05

    @pytest.mark.parametrize("scale", [1.0, 2.0 ** -300, 2.0 ** 300])
    def test_near_ties_bitwise_equal_to_brute_force(self, scale):
        x, y = _near_tie_points(scale)
        assert np.array_equal(violation_search._coarse_maxima(x, y), _brute_maxima(x, y))
        # The ties are real: on some rows the largest screened value belongs
        # to a column whose exact value is an ulp or so below the row's best.
        exact = _scan_lhs(x[:, None], y[:, None], x[None, :], y[None, :])
        picked = exact[np.arange(x.shape[0]), _screen_values(x, y).argmax(axis=1)]
        short = picked < exact.max(axis=1)
        assert short.any()
        assert (exact.max(axis=1)[short] - picked[short]
                <= 4 * np.spacing(exact.max(axis=1)[short])).all()

    @pytest.mark.parametrize("scale", [2.0 ** -300, 2.0 ** -460, 2.0 ** -600])
    @pytest.mark.parametrize("ratio", [0.0, 1e-8, 0.5])
    def test_scaled_planes_bitwise_equal_to_brute_force(self, scale, ratio):
        # The segment rule, a thin hull and a full one, on points far below
        # 1, which the scan scales up first.
        rng = np.random.Generator(np.random.Philox(101))
        x, y = _planes(_synthetic_columns(ratio, rng), 24)
        x, y = x * scale, y * scale
        assert np.array_equal(violation_search._coarse_maxima(x, y), _brute_maxima(x, y))


def _tiny_block_states(exponent):
    """I/4 + 2^-exponent sx.sx, a rank-1 block on the segment rule, and
    I/4 + 2^-exponent (sx.sx + sz.sx / 2 + sx.sz / 3), a rank-2 one; off the
    diagonal, where 1/4 does not absorb them."""
    sx, sz = PAULIS[0], PAULIS[2]
    return [np.eye(4) / 4.0 + 2.0 ** -exponent * block
            for block in (np.kron(sx, sx),
                          np.kron(sx, sx) + np.kron(sz, sx) / 2.0 + np.kron(sx, sz) / 3.0)]


def _near_tie_points(scale):
    """Points b on a circle of radius ``scale``, 81 of them 1e-9 rad apart
    about its top and six spread out, then 39 rows inside it on the x axis.
    A row (t, 0) peaks at the top, where the cluster's pair values differ by
    an ulp or two, and every circle point is on the hull, so a column."""
    top = np.pi / 2.0 + 1e-9 * np.arange(-40, 41)
    angles = np.concatenate([top, np.deg2rad([0.0, 45.0, 135.0, 180.0, 225.0, 315.0])])
    inside = np.linspace(-0.95, 0.95, 39)
    return (np.concatenate([np.cos(angles), inside]) * scale,
            np.concatenate([np.sin(angles), np.zeros_like(inside)]) * scale)


def _screen_values(x, y):
    """sqrt(sx^2 + sy^2) + sqrt(dx^2 + dy^2) over every pair of points."""
    sx, sy = x[:, None] + x[None, :], y[:, None] + y[None, :]
    dx, dy = x[:, None] - x[None, :], y[:, None] - y[None, :]
    return np.sqrt(sx * sx + sy * sy) + np.sqrt(dx * dx + dy * dy)


@pytest.mark.parametrize("index", range(16))
def test_tensor_columns_bitwise_equal_to_scalar_loop(index):
    rho = _test_states()[index]
    cols = expectation_table(rho, _PAULIS, _PAULIS[[2, 0]])
    assert cols.flags.c_contiguous
    assert np.array_equal(cols, _reference_tensor_columns(rho))


class TestClosedFormStateScan:
    @pytest.mark.parametrize("index", range(16))
    def test_value_is_twice_frobenius_norm(self, index):
        rho = _test_states()[index]
        best, value, coarse = state_scan(rho, bloch_resolution=12)
        norm = np.linalg.norm(_reference_tensor_columns(rho))
        assert abs(value - 2.0 * norm) <= 1e-12
        assert abs(steering_inequality(best)[0] - value) <= 1e-12
        assert value >= coarse[:, 2].max() - 1e-12
        assert value >= _reference_search(rho, 12) - 1e-12

    def test_rank_zero_block(self):
        best, value, coarse = state_scan(np.eye(4) / 4.0, bloch_resolution=8)
        assert value == 0.0
        assert np.array_equal(best.as_array(), np.zeros(4))
        assert np.array_equal(coarse[:, 2], np.zeros(64))

    def test_rank_one_block_gives_unit_directions(self):
        # For pure product states M = (b_z, b_x)^T a^T, so M n = (b_z, b_x) (a.n)
        # and the correlators are +-(b_z, b_x) exactly when n = +-a is a unit vector.
        rng = np.random.Generator(np.random.Philox(73))
        for _ in range(10):
            a, b = rng.normal(size=(2, 3))
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            rho_a = 0.5 * (np.eye(2) + np.einsum("k,kij->ij", a, PAULIS))
            rho_b = 0.5 * (np.eye(2) + np.einsum("k,kij->ij", b, PAULIS))
            best, value, _ = state_scan(np.kron(rho_a, rho_b), bloch_resolution=8)
            c = best.as_array()
            bob = np.array([b[2], b[2], b[0], b[0]])
            assert np.abs(np.abs(c) - np.abs(bob)).max() <= 1e-12
            assert abs(value - 2.0 * np.hypot(b[2], b[0])) <= 1e-12
            assert value <= 2.0 + 1e-12

    def test_frobenius_norm_above_one_is_violation(self):
        # Werner states: M has singular values (p, p), so ||M||_F = p sqrt 2.
        werners = [p * maximally_entangled() + (1.0 - p) * np.eye(4) / 4.0
                   for p in (0.5, 0.7, 0.71, 0.72, 0.8, 1.0)]
        for rho in werners + _test_states():
            best, _, _ = state_scan(rho, bloch_resolution=8)
            lhs, bound = steering_inequality(best)
            norm = np.linalg.norm(_reference_tensor_columns(rho))
            assert (norm > 1.0) == (lhs > bound)

    @pytest.mark.parametrize("index", range(16))
    def test_horodecki_maximum_over_bob_pairs(self, index):
        # Rotating Bob's qubit so that his z/x pair becomes the top two right
        # singular vectors of T gives 2 sqrt(t1^2 + t2^2), the Horodecki CHSH
        # maximum; any other orthonormal Bob pair gives no more.
        rho = _test_states()[index]
        _, t, wt = np.linalg.svd(_correlation_matrix(rho))
        horodecki = 2.0 * np.hypot(t[0], t[1])
        rng = np.random.Generator(np.random.Philox(79 + index))
        pairs = [(wt[0], wt[1])] + [tuple(np.linalg.qr(rng.normal(size=(3, 3)))[0].T[:2])
                                    for _ in range(4)]
        for k, (bz, bx) in enumerate(pairs):
            # V sigma_z V^+ = bz.sigma and V sigma_x V^+ = bx.sigma.
            plus = np.linalg.eigh(np.einsum("k,kij->ij", bz, PAULIS))[1][:, 1]
            v = np.stack([plus, np.einsum("k,kij->ij", bx, PAULIS) @ plus], axis=1)
            bob = np.kron(np.eye(2), v)
            _, value, _ = state_scan(bob.conj().T @ rho @ bob, bloch_resolution=4)
            if k == 0:
                assert abs(value - horodecki) <= 1e-12
            assert value <= horodecki + 1e-12
