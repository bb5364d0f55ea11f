"""The scenario's symmetries leave every verdict unchanged.

On c = (AB, A'B, AB', A'B') the local-model region is mapped onto itself by
swapping Alice's settings, negating Alice's or Bob's outcome, swapping
Bob's settings, and rotating Bob's pair of measurements in its plane. The
first four only permute and negate correlators, so the witness must return
the same bits; a rotation by a multiple of the grid step also maps the
oracle's atom grid onto itself, so its verdicts must not change either.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from chsh_steering.correlation_model import CorrelationSet, EBasisVector, to_e_basis_array
from chsh_steering.lhs_oracle import decompose, lp_membership_batch, model_correlations
from chsh_steering.steering_witness import (
    chsh_values_array,
    f_value_array,
    full_report,
    pair_values_array,
    steering_lhs_array,
)
from reference import from_e_basis_array

GENERATORS = {
    "swap_a": lambda c: c[..., [1, 0, 3, 2]],
    "negate_a": lambda c: c * np.array([-1.0, 1.0, -1.0, 1.0]),
    "negate_b": lambda c: c * np.array([-1.0, -1.0, 1.0, 1.0]),
    "swap_b": lambda c: c[..., [2, 3, 0, 1]],
}
ROTATION_STEPS = (1, 5, 17)


def rotate_bob(c, angle):
    """Rotate (AB, AB') and (A'B, A'B') each by ``angle``."""
    cos, sin = np.cos(angle), np.sin(angle)
    out = np.empty_like(c)
    out[..., 0] = cos * c[..., 0] - sin * c[..., 2]
    out[..., 2] = sin * c[..., 0] + cos * c[..., 2]
    out[..., 1] = cos * c[..., 1] - sin * c[..., 3]
    out[..., 3] = sin * c[..., 1] + cos * c[..., 3]
    return out


def cube_points(seed, count):
    return np.random.Generator(np.random.Philox(seed)).uniform(-1.0, 1.0, (count, 4))


def f_of(c):
    return f_value_array(to_e_basis_array(c))


def members(seed, count):
    """Correlators of random points with f <= 1, by radial rescaling."""
    rng = np.random.Generator(np.random.Philox(seed))
    raw = to_e_basis_array(rng.uniform(-1.0, 1.0, (count, 4)))
    scale = rng.uniform(0.0, 1.0, count) / f_value_array(raw)
    return from_e_basis_array(raw * scale[:, None])


def decompose_point(c):
    return decompose(EBasisVector(*to_e_basis_array(c).tolist()))


@pytest.mark.parametrize("name", GENERATORS)
class TestWitness:
    def test_f_and_lhs_bitwise_equal(self, name):
        c = cube_points(41, 2000)
        mapped = GENERATORS[name](c)
        assert np.array_equal(f_of(mapped), f_of(c))
        assert np.array_equal(steering_lhs_array(mapped), steering_lhs_array(c))

    def test_pair_and_chsh_values_permuted(self, name):
        c = cube_points(43, 2000)
        mapped = GENERATORS[name](c)
        assert np.array_equal(np.sort(pair_values_array(mapped)),
                              np.sort(pair_values_array(c)))
        # The facets' sums run in another order after a swap, so the last
        # bits may differ.
        base = np.sort(chsh_values_array(c))
        assert np.all(np.abs(np.sort(chsh_values_array(mapped)) - base)
                      <= 4 * np.spacing(np.abs(base)))

    def test_report_verdicts_unchanged(self, name):
        for c in cube_points(47, 300):
            base = full_report(CorrelationSet(*c))
            report = full_report(CorrelationSet(*GENERATORS[name](c)))
            assert report.steering_verdict == base.steering_verdict
            assert sorted(report.chsh_verdicts) == sorted(base.chsh_verdicts)
            assert sorted(report.pair_verdicts) == sorted(base.pair_verdicts)


@pytest.mark.parametrize("steps", ROTATION_STEPS)
def test_rotation_moves_f_by_two_ulp_at_most(steps):
    c = cube_points(53, 2000)
    moved = f_of(rotate_bob(c, 2.0 * np.pi * steps / 2048)) - f_of(c)
    assert np.abs(moved).max() <= 2.0 * np.spacing(1.0)


@functools.cache
def near_boundary():
    """Cube points with |f - 1| <= 0.1, where the oracle's verdicts are
    closest to changing."""
    c = cube_points(59, 1000)
    return c[np.abs(f_of(c) - 1.0) <= 0.1][:300]


@functools.cache
def oracle_verdicts(grid_n):
    return [r.verdict for r in lp_membership_batch(near_boundary(), grid_n)]


@pytest.mark.parametrize("grid_n", [64, 2048])
class TestOracle:
    @pytest.mark.parametrize("name", GENERATORS)
    def test_verdicts_unchanged(self, grid_n, name):
        mapped = GENERATORS[name](near_boundary())
        assert [r.verdict for r in lp_membership_batch(mapped, grid_n)] \
            == oracle_verdicts(grid_n)

    @pytest.mark.parametrize("steps", ROTATION_STEPS)
    def test_verdicts_unchanged_by_grid_rotations(self, grid_n, steps):
        mapped = rotate_bob(near_boundary(), 2.0 * np.pi * steps / grid_n)
        # Clipping a point that the rotation moves out of the cube would
        # move it off the orbit; such points are left out.
        inside = np.abs(mapped).max(axis=1) <= 1.0
        expected = [v for v, keep in zip(oracle_verdicts(grid_n), inside) if keep]
        assert [r.verdict for r in lp_membership_batch(mapped[inside], grid_n)] == expected


SYMMETRIES = {**GENERATORS, **{f"rotate_{k}": lambda c, k=k: rotate_bob(c, 2.0 * np.pi * k / 2048)
                               for k in ROTATION_STEPS}}


class TestDecompose:
    @pytest.mark.parametrize("name", SYMMETRIES)
    def test_round_trip_on_mapped_members(self, name):
        for c in SYMMETRIES[name](members(61, 300)):
            model = decompose_point(c)
            assert len(model.atoms) <= 3
            assert np.abs(model_correlations(model).as_array() - c).max() <= 1e-12

    @pytest.mark.parametrize("name", ["swap_a", "negate_b", "swap_b"])
    def test_weights_unchanged(self, name):
        for c in members(67, 300):
            base = decompose_point(c)
            model = decompose_point(GENERATORS[name](c))
            assert sorted(w for _, w in model.atoms) == sorted(w for _, w in base.atoms)

    def test_negate_a_trades_the_planes(self):
        # So the radial weights r1 and r2 of decompose trade places too,
        # and the weights are not compared under this generator.
        c = members(71, 300)
        v = to_e_basis_array(c)
        assert np.array_equal(to_e_basis_array(GENERATORS["negate_a"](c)), -v[:, [2, 3, 0, 1]])
