import hashlib
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from chsh_steering import lhs_oracle
from chsh_steering.correlation_model import (
    CorrelationSet,
    EBasisVector,
    to_e_basis,
    to_e_basis_array,
)
from chsh_steering.lhs_oracle import (
    BOUNDARY_BAND,
    MEMBER,
    NON_MEMBER,
    WEIGHT_SUM_TOL,
    LhsAtom,
    LhsModel,
    NotAMemberError,
    boundary_band,
    decompose,
    lp_membership,
    lp_membership_batch,
    model_correlations,
)
from chsh_steering.simplex import DEFAULT_LP_TOL, OracleError, lp_feasibility
from chsh_steering.steering_witness import f_value, f_value_array
from reference import atom_matrix, from_e_basis, from_e_basis_array, oracle_matrix


def random_members(rng, count):
    """Random points with f <= 1, via radial rescaling of uniform draws."""
    raw = to_e_basis_array(rng.uniform(-1.0, 1.0, (count, 4)))
    f = f_value_array(raw)
    f = np.where(f > 0, f, 1.0)
    targets = rng.uniform(0.0, 1.0, count)
    return raw * (targets / f)[:, None]


def _points_at(rng, targets):
    """Correlator points in random directions with f equal to ``targets``."""
    raw = to_e_basis_array(rng.uniform(-1.0, 1.0, (len(targets), 4)))
    return from_e_basis_array(raw * (targets / f_value_array(raw))[:, None])


class TestModel:
    def test_single_atom(self):
        model = LhsModel(((LhsAtom(1, 0.0), 1.0),))
        assert model_correlations(model).as_array().tolist() == [1.0, 1.0, 0.0, 0.0]

    def test_antipodal_cancellation(self):
        model = LhsModel(((LhsAtom(1, 0.0), 0.5), (LhsAtom(1, np.pi), 0.5)))
        assert np.abs(model_correlations(model).as_array()).max() <= 1e-15

    def test_random_models_stay_inside(self):
        rng = np.random.Generator(np.random.Philox(3))
        for _ in range(50):
            weights = rng.dirichlet(np.ones(50))
            atoms = tuple((LhsAtom(int(rng.integers(1, 3)), float(rng.uniform(0, 2 * np.pi))), w)
                          for w in weights)
            c = model_correlations(LhsModel(atoms))
            assert f_value(to_e_basis(c)) <= 1.0 + 1e-12

    def test_weight_validation(self):
        with pytest.raises(ValueError, match="sum"):
            LhsModel(((LhsAtom(1, 0.0), 0.5),))
        with pytest.raises(ValueError, match="negative"):
            LhsModel(((LhsAtom(1, 0.0), 1.5), (LhsAtom(2, 0.0), -0.5)))
        # NaN fails every comparison, so it must fail the weight check, not
        # slip past it as a weight that is not below zero.
        for atoms in (((LhsAtom(1, 0.0), float("nan")),),
                      ((LhsAtom(1, 0.0), 1.0), (LhsAtom(2, 0.0), float("nan")))):
            with pytest.raises(ValueError, match="weight nan on atom"):
                LhsModel(atoms)
        # dust below zero is clamped
        model = LhsModel(((LhsAtom(1, 0.0), 1.0), (LhsAtom(2, 0.0), -5e-15)))
        assert model.atoms[1][1] == 0.0

    def test_atom_chi_restricted(self):
        with pytest.raises(ValueError):
            LhsAtom(3, 0.0)
        for xi in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="xi must be finite"):
                LhsAtom(1, xi)


class TestDecompose:
    def test_pure_first_plane_atom(self):
        model = decompose(EBasisVector(1.0, 0.0, 0.0, 0.0))
        assert len(model.atoms) == 1
        atom, weight = model.atoms[0]
        assert (atom.chi, atom.xi, weight) == (1, 0.0, 1.0)

    def test_non_member_raises(self):
        with pytest.raises(NotAMemberError):
            decompose(EBasisVector(0.5, 0.5, 0.5, -0.5))
        # Just outside the tolerance that decompose documents.
        with pytest.raises(NotAMemberError):
            decompose(EBasisVector(1.0 + 5.0 * WEIGHT_SUM_TOL, 0.0, 0.0, 0.0))

    def test_threshold_is_the_models_weight_sum(self):
        # f = fl(1 + 1e-12) is 1 + 1.00009e-12: it passed f <= 1 + tol and
        # then failed in LhsModel with "weights sum to ...".
        with pytest.raises(NotAMemberError):
            decompose(EBasisVector(1.0 + 1e-12, 0.0, 0.0, 0.0))
        # The float just below it is accepted by both.
        f = np.nextafter(1.0 + 1e-12, 0.0)
        assert decompose(EBasisVector(f, 0.0, 0.0, 0.0)).atoms[0][1] == f

    def test_nan_coordinate_names_the_angle(self):
        # Not "weights sum to 0.1": the NaN radius passes the member test
        # and reaches the atoms through arctan2.
        with pytest.raises(ValueError, match="xi must be finite"):
            decompose(EBasisVector(float("nan"), 0.2, 0.1, 0.0))

    def test_documented_split(self):
        model = decompose(EBasisVector(0.3, 0.0, 0.4, 0.0))
        table = {(atom.chi, atom.xi): w for atom, w in model.atoms}
        assert table[(1, 0.0)] == pytest.approx(0.45, abs=1e-15)
        assert table[(2, 0.0)] == pytest.approx(0.4, abs=1e-15)
        assert table[(1, np.pi)] == pytest.approx(0.15, abs=1e-15)
        back = model_correlations(model)
        assert np.abs(back.as_array()
                      - from_e_basis(EBasisVector(0.3, 0.0, 0.4, 0.0)).as_array()).max() <= 1e-12

    def test_round_trip_on_random_members(self):
        rng = np.random.Generator(np.random.Philox(7))
        for v in random_members(rng, 1000):
            vec = EBasisVector(*v)
            model = decompose(vec)
            assert len(model.atoms) <= 3
            back = model_correlations(model)
            assert np.abs(back.as_array() - from_e_basis(vec).as_array()).max() <= 1e-12

    def test_non_members_rejected(self):
        rng = np.random.Generator(np.random.Philox(9))
        raw = to_e_basis_array(rng.uniform(-1.0, 1.0, (200, 4)))
        f = f_value_array(raw)
        f = np.where(f > 0, f, 1.0)
        scaled = raw * (rng.uniform(1.1, 2.0, 200) / f)[:, None]
        for v in scaled:
            with pytest.raises(NotAMemberError):
                decompose(EBasisVector(*v))

    def test_origin(self):
        model = decompose(EBasisVector(0.0, 0.0, 0.0, 0.0))
        assert np.abs(model_correlations(model).as_array()).max() <= 1e-12


class TestLpMembership:
    def test_origin_is_member(self):
        assert lp_membership(CorrelationSet(0, 0, 0, 0), grid_n=64).verdict == MEMBER

    def test_quantum_point_is_not(self):
        res = lp_membership(CorrelationSet(1, 0, 0, 1), grid_n=256)
        assert res.verdict == NON_MEMBER
        assert not res.lp_feasible
        assert res.f_value == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_boundary_point_reports_band(self):
        c = CorrelationSet(1.0, 1.0, 0.0, 0.0)  # exactly on the boundary
        res = lp_membership(c, grid_n=64)
        assert res.verdict == BOUNDARY_BAND
        # The band is closed: f exactly at its edge is still in it.
        assert lhs_oracle._classify(True, 1.0 + 2.0 ** -10, 2.0 ** -10) == BOUNDARY_BAND

    def test_band_formula(self):
        assert boundary_band(2048) == pytest.approx(1.0 - np.cos(np.pi / 2048), abs=1e-18)
        assert boundary_band(64, tol=0.0) == 1.0 - np.cos(np.pi / 64)
        # Above grid 2^15 the LP tolerance, not the chord sag, sets the band.
        assert boundary_band(2 ** 15) == 1.0 - np.cos(np.pi / 2 ** 15)
        assert boundary_band(2 ** 16) == (1.0 + 2.0 * np.sqrt(2.0)) * 1e-9
        assert boundary_band(2048, tol=1e-6) == lhs_oracle.KAPPA * 1e-6

    @pytest.mark.parametrize("grid_n, tol, message", [
        (0, DEFAULT_LP_TOL, "grid_n must be at least 8, got 0"),
        (7, DEFAULT_LP_TOL, "grid_n must be at least 8, got 7"),
        (2 ** 20 + 1, DEFAULT_LP_TOL, "grid_n must be at most 1048576, got 1048577"),
        (64, -1e-12, r"LP tolerance must lie in \[0, 1e-06\], got -1e-12"),
        (64, math.nan, r"LP tolerance must lie in \[0, 1e-06\], got nan"),
        (64, 2e-6, r"LP tolerance must lie in \[0, 1e-06\], got 2e-06"),
    ])
    def test_band_checks_the_oracle_ranges(self, grid_n, tol, message):
        # boundary_band(0) divided by zero; grids the oracle refuses and a
        # negative or NaN tolerance got a band. The messages are the oracle's.
        for call in (lambda: boundary_band(grid_n, tol),
                     lambda: lp_membership_batch(np.zeros((1, 4)), grid_n, tol)):
            with pytest.raises(ValueError, match=f"^{message}$"):
                call()

    def test_grid_n_must_be_an_integer(self):
        # The band's sag holds for a regular grid_n-gon only, on both paths.
        points = np.random.Generator(np.random.Philox(89)).uniform(-1.0, 1.0, (200, 4))
        for size in (20, 200):
            for grid_n in (8.5, 2048.0):
                with pytest.raises(ValueError, match=f"^grid_n must be an integer, got {grid_n}$"):
                    lp_membership_batch(points[:size], grid_n=grid_n)
            want, got = ([(r.verdict, r.lp_feasible, r.max_residual.hex())
                          for r in lp_membership_batch(points[:size], grid_n=grid_n)]
                         for grid_n in (64, np.int64(64)))
            assert got == want

    def test_fine_grid_band_covers_lp_tolerance(self):
        # At grid 2^17 the sag (2.9e-10) is below the LP tolerance, and phase
        # 1 accepts these points with f - 1 = 5e-10 as feasible, so only the
        # band keeps them from a false MEMBER claim.
        rng = np.random.Generator(np.random.Philox(29))
        points = _points_at(rng, np.full(20, 1.0 + 5e-10))
        results = lp_membership_batch(points, grid_n=2 ** 17)
        assert [res.verdict for res in results] == [BOUNDARY_BAND] * 20

    @pytest.mark.parametrize("grid_n", [64, 2048, 2 ** 17])
    def test_no_wrong_verdict_near_boundary(self, grid_n):
        rng = np.random.Generator(np.random.Philox(31))
        offsets = 10.0 ** rng.uniform(-11.0, -6.0, 30)
        signs = np.where(rng.uniform(size=30) < 0.5, -1.0, 1.0)
        points = _points_at(rng, 1.0 + signs * offsets)
        for res in lp_membership_batch(points, grid_n=grid_n):
            if abs(res.f_value - 1.0) > res.band:
                assert res.verdict == (MEMBER if res.f_value <= 1.0 else NON_MEMBER)

    def test_agreement_with_witness(self):
        rng = np.random.Generator(np.random.Philox(13))
        points = rng.uniform(-1.0, 1.0, (1000, 4))
        band = boundary_band(512)
        for res in lp_membership_batch(points, grid_n=512):
            if abs(res.f_value - 1.0) <= band:
                assert res.verdict == BOUNDARY_BAND
                continue
            assert res.verdict == (MEMBER if res.f_value <= 1.0 else NON_MEMBER)

    def test_members_match_decompose(self):
        rng = np.random.Generator(np.random.Philox(15))
        vs = random_members(rng, 50)
        points = np.stack([from_e_basis(EBasisVector(*v)).as_array() for v in vs])
        for v, res in zip(vs, lp_membership_batch(points, grid_n=256)):
            decompose(EBasisVector(*v))  # must not raise
            if res.verdict != BOUNDARY_BAND:
                assert res.verdict == MEMBER

    def test_grid_refinement_never_evicts_members(self):
        # Doubling the grid keeps every atom of the coarse grid, so the
        # discretised hulls are nested.
        rng = np.random.Generator(np.random.Philox(19))
        points = rng.uniform(-1.0, 1.0, (200, 4))
        verdicts = {}
        for grid in (64, 128, 256):
            verdicts[grid] = [r.lp_feasible for r in lp_membership_batch(points, grid_n=grid)]
        for coarse, fine in ((64, 128), (128, 256)):
            for was_member, still in zip(verdicts[coarse], verdicts[fine]):
                if was_member:
                    assert still

    def test_scaled_boundary_points(self):
        rng = np.random.Generator(np.random.Philox(21))
        xi = rng.uniform(0.0, 2.0 * np.pi, 20)
        lam = rng.uniform(0.0, 1.0, 20)
        boundary = (lam[:, None] * np.stack([np.cos(xi), np.sin(xi), np.zeros_like(xi), np.zeros_like(xi)], axis=1)
                    + (1 - lam)[:, None] * np.stack([np.zeros_like(xi), np.zeros_like(xi), np.cos(xi), np.sin(xi)], axis=1))
        correlators = np.stack([from_e_basis(EBasisVector(*v)).as_array() for v in boundary])
        for res in lp_membership_batch(1.05 * correlators, grid_n=512):
            assert res.verdict == NON_MEMBER
        for res in lp_membership_batch(0.95 * correlators, grid_n=512):
            assert res.verdict == MEMBER

    def test_agreement_sharp_near_band_edges(self):
        # Points placed just outside the reporting band are the hardest for
        # the discretised oracle; the inscribed-grid geometry still has to
        # classify them exactly.
        rng = np.random.Generator(np.random.Philox(25))
        grid_n = 512
        band = boundary_band(grid_n)
        raw = to_e_basis_array(rng.uniform(-1.0, 1.0, (100, 4)))
        f = f_value_array(raw)
        f = np.where(f > 0, f, 1.0)
        offsets = rng.uniform(1.5, 4.0, 100) * band
        signs = np.where(rng.uniform(size=100) < 0.5, -1.0, 1.0)
        targets = 1.0 + signs * offsets
        scaled = raw * (targets / f)[:, None]
        points = np.stack([from_e_basis(EBasisVector(*v)).as_array() for v in scaled])
        for target, res in zip(targets, lp_membership_batch(points, grid_n=grid_n)):
            assert res.verdict == (MEMBER if target <= 1.0 else NON_MEMBER)

    @pytest.mark.parametrize("grid_n", [8, 64, 2048])
    def test_band_is_tight_at_mid_chord(self, grid_n):
        # Both planes at odd multiples of pi / grid_n, where the inscribed
        # polygon sags most: the grid hull holds these directions only up to
        # f = 1 - sag = 1 - band. Just inside the band the LP cannot see
        # the members and only the band keeps them from a false non_member;
        # just outside it the verdict must agree with f.
        rng = np.random.Generator(np.random.Philox(18 + grid_n))
        band = boundary_band(grid_n)
        odd = 2 * rng.integers(0, grid_n, (20, 2)) + 1
        angles = np.pi * odd / grid_n
        share = rng.uniform(0.05, 0.95, (20, 1))
        planes = np.stack([np.cos(angles), np.sin(angles)], axis=2)
        unit = np.concatenate([share * planes[:, 0], (1.0 - share) * planes[:, 1]], axis=1)
        for multiple in (-1.005, -0.995, 0.995, 1.005):
            target = 1.0 + multiple * band
            results = lp_membership_batch(from_e_basis_array(target * unit), grid_n=grid_n)
            if abs(multiple) < 1.0:
                assert {res.verdict for res in results} == {BOUNDARY_BAND}
                assert not any(res.lp_feasible for res in results)
            else:
                assert {res.verdict for res in results} == {MEMBER if target <= 1.0 else NON_MEMBER}

    def test_verdict_independent_of_witness(self):
        # The LP side alone decides membership; the band only suppresses
        # claims too close to the boundary. Check lp_feasible directly.
        res = lp_membership(CorrelationSet(1.0, 1.0, 0.0, 0.0), grid_n=64)
        assert res.verdict == BOUNDARY_BAND
        assert isinstance(res.lp_feasible, bool)

    def test_one_lp_call_per_point(self, monkeypatch):
        # The oracle asks the LP only about its columns, b and tol, once per
        # point, declaring the columns convex: one pricer, built from the grid
        # alone, serves every point, and b is the point above the weight row,
        # so nothing derived from f can reach the membership decision.
        calls = []

        def counting(price, b, **kwargs):
            calls.append((price, list(b), kwargs))
            return lp_feasibility(price, b, **kwargs)

        monkeypatch.setattr(lhs_oracle, "lp_feasibility", counting)
        points = np.random.Generator(np.random.Philox(27)).uniform(-1.0, 1.0, (7, 4))
        assert len(lp_membership_batch(points, grid_n=64)) == 7
        assert len(calls) == 7
        assert len({id(price) for price, _, _ in calls}) == 1
        assert [(b, sorted(kwargs)) for _, b, kwargs in calls] == [
            ([*point, 1.0], ["convex", "tol"]) for point in points.tolist()]
        assert all(kwargs["convex"] is True for _, _, kwargs in calls)

    def test_empty_batch_runs_no_lp(self, monkeypatch):
        # No LP call, no result; the arguments are still checked.
        monkeypatch.setattr(lhs_oracle, "lp_feasibility", None)
        monkeypatch.setattr(lhs_oracle, "lp_feasibility_batch", None)
        assert lp_membership_batch(np.zeros((0, 4)), grid_n=64) == []
        with pytest.raises(ValueError, match="LP tolerance"):
            lp_membership_batch(np.zeros((0, 4)), grid_n=64, tol=-1.0)

    # sha256 of the JSON list of (lp_feasible, max_residual.hex()) on 3,000
    # seed-201 points, recorded on NumPy 2.4.6 like tests/test_stdout_pins.py.
    # TestLockstep ties each point's bits to its own scalar phase 1; this ties
    # both loops to the recorded bits, which a verdict check alone would miss.
    RESIDUAL_PINS = {
        8: "232be573121f96cfe6cadcd383c5958306884d5d8f567b891994aec0dae4733f",
        64: "8c4e0653b0718e998ea9ca0c22a93f94a89f2bf50ac536d4b45f40184d6ea5fc",
        2048: "048799d802a3e629d80f481066e350b78bc78959d98b7c2ecf95c12f8e40dd9b",
        65536: "8bae97be651be8bd001e923b694ab7fa2b282cb5bc5f2f14f1efb474f171c169",
    }

    @pytest.mark.parametrize("grid_n", sorted(RESIDUAL_PINS))
    def test_residual_bits_match_pin(self, grid_n):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(201)))
        points = rng.uniform(-1.0, 1.0, (3000, 4))
        got = [(r.lp_feasible, r.max_residual.hex())
               for r in lp_membership_batch(points, grid_n=grid_n)]
        digest = hashlib.sha256(json.dumps(got).encode()).hexdigest()
        assert digest == self.RESIDUAL_PINS[grid_n]

    def test_max_residual_is_the_lp_certificate(self):
        # max_residual is bitwise the largest per-row residual of the basis
        # where the point's convex phase 1 ended, and it lies within tol
        # exactly when lp_feasible, which is the full phase 1's verdict.
        price = lhs_oracle._grid_pricer(64)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(201)))
        points = rng.uniform(-1.0, 1.0, (300, 4))
        results = lp_membership_batch(points, grid_n=64)
        for point, res in zip(points.tolist(), results):
            residuals = lp_feasibility(price, [*point, 1.0], convex=True)[2]
            assert res.max_residual.hex() == float(max(residuals)).hex()
            assert (res.max_residual <= DEFAULT_LP_TOL) == res.lp_feasible
            assert lp_feasibility(price, [*point, 1.0])[0] == res.lp_feasible
        feasible = sum(res.lp_feasible for res in results)
        assert 0 < feasible < len(results)

    def test_input_validation(self, monkeypatch):
        with pytest.raises(ValueError):
            lp_membership_batch(np.zeros((3, 4)), grid_n=4)
        with pytest.raises(ValueError, match="at most"):
            lp_membership_batch(np.zeros((3, 4)), grid_n=lhs_oracle.MAX_GRID_N + 1)
        with pytest.raises(ValueError):
            lp_membership_batch(np.zeros((3, 5)))
        for tol in (-1e-12, np.nan, np.inf, 1.01e-6, 1e300):
            with pytest.raises(ValueError, match="LP tolerance"):
                lp_membership_batch(np.zeros((3, 4)), grid_n=64, tol=tol)
        lp_membership_batch(np.zeros((3, 4)), grid_n=64, tol=lhs_oracle.MAX_LP_TOL)
        # A non-finite point is named as such before any LP runs; it used to
        # fail inside lp_feasibility, which names its own argument b.
        monkeypatch.setattr(lhs_oracle, "lp_feasibility", None)
        for bad in (np.nan, np.inf, -np.inf):
            points = np.zeros((3, 4))
            points[2, 1] = bad
            with pytest.raises(ValueError, match="points must be finite"):
                lp_membership_batch(points, grid_n=64)

    def test_atom_matrix_columns(self):
        A = atom_matrix(8)
        assert A.shape == (4, 16)
        assert np.allclose(A[:, 0], [1.0, 1.0, 0.0, 0.0], atol=1e-15)
        assert np.allclose(A[:, 8], [1.0, -1.0, 0.0, 0.0], atol=1e-15)


def _random_duals(rng, count):
    """Duals of every kind pricing meets: generic, scaled so one family is
    nearly flat against y4, dyadic (grid-aligned minima and exact ties), and
    with p = q = 0 in both families."""
    generic = rng.uniform(-2.0, 2.0, (count, 5))
    flat = generic.copy()
    flat[:, :4] *= 10.0 ** rng.uniform(-15.0, -6.0, (count, 1))
    dyadic = rng.integers(-2, 3, (count, 5)) / 2.0
    zero = np.zeros((count, 5))
    zero[:, 4] = rng.uniform(-2.0, 2.0, count)
    return np.concatenate([generic, flat, dyadic, zero])


def _scalar_reduced(duals, grid_n):
    """Every column's reduced cost with the pricer's own scalar arithmetic."""
    y0, y1, y2, y3, y4 = duals
    out = []
    for sa, sap in ((1.0, 1.0), (1.0, -1.0)):
        for k in range(grid_n):
            xi = 2.0 * math.pi * k / grid_n
            c, s = math.cos(xi), math.sin(xi)
            out.append(y0 * (sa * c) + y1 * (sap * c) + y2 * (sa * s) + y3 * (sap * s) + y4)
    return np.array(out)


def _per_point(points, grid_n):
    """Each point's (lp_feasible, max_residual bits) from its own convex
    ``lp_feasibility``, and the most pricer calls any one point made."""
    price = lhs_oracle._grid_pricer(grid_n)
    calls = []

    def counted(duals):
        calls.append(None)
        return price(duals)

    expected, most = [], 0
    for point in points.tolist():
        calls.clear()
        feasible, _, residuals = lp_feasibility(counted, [*point, 1.0], convex=True)
        expected.append((feasible, float(residuals.max()).hex()))
        most = max(most, len(calls))
    return expected, most


def _lockstep(points, grid_n, monkeypatch):
    """``lp_membership_batch``'s (lp_feasible, max_residual bits) per point,
    and the number of lockstep pricer calls it made."""
    rounds = []
    twin = lhs_oracle._grid_pricer_batch

    def counting_twin(grid_n):
        price = twin(grid_n)

        def counted(duals):
            rounds.append(duals.shape[1])
            return price(duals)

        return counted

    monkeypatch.setattr(lhs_oracle, "_grid_pricer_batch", counting_twin)
    results = lp_membership_batch(points, grid_n=grid_n)
    return [(r.lp_feasible, r.max_residual.hex()) for r in results], len(rounds)


def _mid_chord_points(grid_n, count, multiples):
    """test_band_is_tight_at_mid_chord's construction: both planes at odd
    multiples of pi / grid_n, scaled to f = 1 + multiple * band."""
    rng = np.random.Generator(np.random.Philox(18 + grid_n))
    odd = 2 * rng.integers(0, grid_n, (count, 2)) + 1
    angles = np.pi * odd / grid_n
    share = rng.uniform(0.05, 0.95, (count, 1))
    planes = np.stack([np.cos(angles), np.sin(angles)], axis=2)
    unit = np.concatenate([share * planes[:, 0], (1.0 - share) * planes[:, 1]], axis=1)
    band = boundary_band(grid_n)
    return np.concatenate([from_e_basis_array((1.0 + k * band) * unit) for k in multiples])


class TestLockstep:
    """Batches above LOCKSTEP_ABOVE points pivot in lockstep; every point
    must end exactly where its own scalar phase 1 ends."""

    @pytest.mark.parametrize("grid_n", [8, 64, 2048, 65536])
    def test_matches_per_point(self, grid_n, monkeypatch):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(201)))
        points = rng.uniform(-1.0, 1.0, (3000, 4))
        expected, most = _per_point(points, grid_n)
        got, rounds = _lockstep(points, grid_n, monkeypatch)
        assert got == expected
        # Same pivots, so the lockstep runs exactly as long as its longest point.
        assert rounds == most
        assert 0 < sum(feasible for feasible, _ in got) < len(got)

    @pytest.mark.parametrize("grid_n", [8, 64, 2048])
    def test_matches_per_point_at_the_band_edges(self, grid_n, monkeypatch):
        points = _mid_chord_points(grid_n, 100, (-1.005, -0.995, 0.995, 1.005))
        expected, most = _per_point(points, grid_n)
        assert _lockstep(points, grid_n, monkeypatch) == (expected, most)

    def test_batch_size_does_not_change_a_result(self):
        # 13 points repeated to 64 (point by point) and to 65 (lockstep): each
        # copy gets the same result, bit for bit, as the point alone.
        rng = np.random.Generator(np.random.Philox(61))
        points = np.concatenate([rng.uniform(-1.0, 1.0, (10, 4)),
                                 _mid_chord_points(64, 3, (0.995,))])
        alone = [lp_membership(CorrelationSet(*point), grid_n=64) for point in points]
        for size in (lhs_oracle.LOCKSTEP_ABOVE, lhs_oracle.LOCKSTEP_ABOVE + 1):
            batch = np.resize(points, (size, 4))
            results = lp_membership_batch(batch, grid_n=64)
            for i, res in enumerate(results):
                assert res == alone[i % len(points)]
                assert res.max_residual.hex() == alone[i % len(points)].max_residual.hex()

    def test_size_selects_the_path(self, monkeypatch):
        scalar, lockstep = [], []
        per_point, batched = lhs_oracle.lp_feasibility, lhs_oracle.lp_feasibility_batch

        def counted_scalar(*args, **kwargs):
            scalar.append(None)
            return per_point(*args, **kwargs)

        def counted_lockstep(price, B, **kwargs):
            lockstep.append(len(B))
            return batched(price, B, **kwargs)

        monkeypatch.setattr(lhs_oracle, "lp_feasibility", counted_scalar)
        monkeypatch.setattr(lhs_oracle, "lp_feasibility_batch", counted_lockstep)
        rng = np.random.Generator(np.random.Philox(67))
        above = lhs_oracle.LOCKSTEP_ABOVE
        lp_membership_batch(rng.uniform(-1.0, 1.0, (above, 4)), grid_n=64)
        assert (len(scalar), lockstep) == (above, [])
        lp_membership_batch(rng.uniform(-1.0, 1.0, (above + 1, 4)), grid_n=64)
        assert (len(scalar), lockstep) == (above, [above + 1])
        # Larger batches go through in chunks of LOCKSTEP_CHUNK points.
        monkeypatch.setattr(lhs_oracle, "LOCKSTEP_CHUNK", 30)
        lp_membership_batch(rng.uniform(-1.0, 1.0, (above + 1, 4)), grid_n=64)
        assert lockstep[1:] == [30, 30, above + 1 - 60]

    def test_memory_stays_within_one_chunk(self):
        # The tableaux and temporaries of one chunk at a time, whatever the
        # batch: the peak above what the call returns stays that of a
        # single-chunk call on three chunks and one point. As one batch, the
        # 12,289 points took three times the single chunk's (13.2 MB).
        chunk = lhs_oracle.LOCKSTEP_CHUNK
        points = np.random.Generator(np.random.Philox(71)).uniform(-1.0, 1.0, (3 * chunk + 1, 4))

        def transient(batch):
            tracemalloc.start()
            try:
                results = lp_membership_batch(batch, grid_n=8)
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return results, peak - current

        one = transient(points[:chunk])[1]
        results, many = transient(points)
        assert many <= 1.5 * one
        assert results == [res for start in range(0, len(points), chunk)
                           for res in lp_membership_batch(points[start:start + chunk], grid_n=8)]

    def test_nan_reduced_cost_raises_without_a_result(self, monkeypatch):
        twin = lhs_oracle._grid_pricer_batch

        def nan_for_one_point(grid_n):
            price = twin(grid_n)

            def poisoned(duals):
                col, reduced, columns = price(duals)
                reduced[-1] = np.nan
                return col, reduced, columns

            return poisoned

        monkeypatch.setattr(lhs_oracle, "_grid_pricer_batch", nan_for_one_point)
        points = np.random.Generator(np.random.Philox(73)).uniform(-1.0, 1.0, (100, 4))
        with pytest.raises(OracleError, match="non-finite reduced cost"):
            lp_membership_batch(points, grid_n=64)


def _assert_twin_rows(price, duals, cols, reduced, columns):
    """The batch pricer's output for the rows of ``duals`` is ``price``'s,
    row by row, bit for bit."""
    for i, row in enumerate(duals.tolist()):
        col, value, column = price(row)
        assert (cols[i], reduced[i].hex()) == (col, value.hex())
        assert [v.hex() for v in columns[:, i].tolist()] == [v.hex() for v in column]


class TestGridPricer:
    """The closed-form pricer against the dense pricing it replaced."""

    @pytest.mark.parametrize("grid_n, count", [(8, 100), (64, 100), (2048, 100), (2 ** 20, 5)])
    def test_matches_dense_argmin(self, grid_n, count):
        A = oracle_matrix(grid_n)
        price = lhs_oracle._grid_pricer(grid_n)
        rng = np.random.Generator(np.random.Philox(grid_n))
        for duals in _random_duals(rng, count):
            reduced = np.dot(duals, A)
            first, second = np.argsort(reduced, kind="stable")[:2]
            col, value, column = price(duals.tolist())
            assert np.abs(np.array(column) - A[:, col]).max() <= 1e-15
            if reduced[second] - reduced[first] > 1e-12:
                assert col == first
            else:
                assert abs(value - reduced[first]) <= 4 * np.spacing(np.abs(duals).sum())

    @pytest.mark.parametrize("grid_n", [8, 64])
    def test_exact_ties_take_the_first_index(self, grid_n):
        price = lhs_oracle._grid_pricer(grid_n)
        rng = np.random.Generator(np.random.Philox(41))
        # Dyadic duals tie whole families; duals aimed half-way between two
        # grid angles, against a y4 whose ulp hides their rounding, tie the
        # nearest index with a neighbour.
        halfway = 2.0 * np.pi * (rng.integers(0, grid_n, 300) + 0.5) / grid_n
        aimed = np.zeros((300, 5))
        aimed[:, 0], aimed[:, 2], aimed[:, 4] = -np.cos(halfway), -np.sin(halfway), 64.0
        tied = 0
        for duals in np.concatenate([rng.integers(-2, 3, (300, 5)) / 2.0, aimed]):
            reduced = _scalar_reduced(duals.tolist(), grid_n)
            least = np.flatnonzero(reduced == reduced.min())
            tied += np.unique(least % grid_n).size > 1
            assert price(duals.tolist())[0] == least[0]
        assert tied > 0

    @pytest.mark.parametrize("grid_n", [8, 64, 2048])
    def test_minimum_just_off_a_grid_angle(self, grid_n):
        # Aim one family within 1e-9 of a step below or above grid angle k,
        # the other family at half the radius so it cannot win. Below k the
        # floor of the angle is k - 1, so the pricer must also price the
        # index above it to find k.
        price = lhs_oracle._grid_pricer(grid_n)
        rng = np.random.Generator(np.random.Philox(43))
        ks = np.concatenate([[0, grid_n // 2, grid_n - 1], rng.integers(0, grid_n, 27)])
        below = 0
        for k, side, aimed in itertools.product(ks.tolist(), (-1e-9, 1e-9), (0, 1)):
            aim = 2.0 * math.pi * (k + side) / grid_n
            other = rng.uniform(-math.pi, math.pi)
            # Each family's (p, q); the duals below reproduce them.
            pq = [(-math.cos(aim), -math.sin(aim)), (-0.5 * math.cos(other), -0.5 * math.sin(other))]
            if aimed:
                pq.reverse()
            (p1, q1), (p2, q2) = pq
            duals = [(p1 + p2) / 2, (p1 - p2) / 2, (q1 + q2) / 2, (q1 - q2) / 2, 0.25]
            reduced = _scalar_reduced(duals, grid_n)
            least = int(np.flatnonzero(reduced == reduced.min())[0])
            assert least == aimed * grid_n + k
            assert price(duals)[0] == least
            p, q = pq[aimed]
            below += math.floor(math.atan2(-q, -p) * grid_n / (2.0 * math.pi)) % grid_n != k
        assert below > 0

    def test_flat_family_takes_index_zero(self):
        price = lhs_oracle._grid_pricer(64)
        # p = q = 0 in both families: every column costs y4.
        assert price([0.0, 0.0, 0.0, 0.0, -1.0])[:2] == (0, -1.0)
        # The pricer names its best column even when it would not enter.
        assert price([0.0] * 5)[:2] == (0, 0.0)

    @staticmethod
    def _assert_twin_matches(grid_n, duals):
        price, twin = lhs_oracle._grid_pricer(grid_n), lhs_oracle._grid_pricer_batch(grid_n)
        _assert_twin_rows(price, duals, *twin(duals.T))

    @staticmethod
    def _on_grid_angles(rng, grid_n):
        """Duals whose minimum lies on a grid angle in one family, with the
        other family flat, then nudged by an ulp either way, and all of
        those again scaled by 2^-60 against y4, which leaves their angles
        but makes a family's neighbouring columns tie with it."""
        k = rng.integers(0, grid_n, 400)
        aim = 2.0 * np.pi * k / grid_n
        p, q = -np.cos(aim), -np.sin(aim)
        aimed = np.stack([p / 2, p / 2, q / 2, q / 2, rng.uniform(-2.0, 2.0, 400)], axis=1)
        aimed[:, [1, 3]] *= np.where(rng.uniform(size=(400, 1)) < 0.5, 1.0, -1.0)
        nudged = np.nextafter(aimed, rng.choice([-np.inf, np.inf], aimed.shape))
        duals = np.concatenate([aimed, nudged])
        flat = duals.copy()
        flat[:, :4] *= 2.0 ** -60
        return np.concatenate([duals, flat])

    @pytest.mark.parametrize("grid_n", [8, 64, 2048, 2 ** 20])
    def test_batch_twin_is_bitwise_equal(self, grid_n):
        rng = np.random.Generator(np.random.Philox(79 + grid_n))
        self._assert_twin_matches(grid_n, np.concatenate([
            _random_duals(rng, 100), self._on_grid_angles(rng, grid_n), np.zeros((1, 5))]))

    @pytest.mark.parametrize("grid_n", [64, 2048])
    def test_batch_twin_is_bitwise_equal_on_the_oracle_duals(self, grid_n, monkeypatch):
        # The duals the lockstep loop really prices: the artificial start's
        # minima sit on grid angles, and later p or q is often exactly 0.
        batch_pricer, rounds = lhs_oracle._grid_pricer_batch, []

        def checked(n):
            price, twin = lhs_oracle._grid_pricer(n), batch_pricer(n)

            def checked_twin(duals):
                rounds.append(duals.shape[1])
                priced = twin(duals)
                _assert_twin_rows(price, duals.T, *priced)
                return priced
            return checked_twin

        monkeypatch.setattr(lhs_oracle, "_grid_pricer_batch", checked)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(201)))
        lp_membership_batch(rng.uniform(-1.0, 1.0, (500, 4)), grid_n=grid_n)
        assert rounds[0] == 500 and len(rounds) > 1

    @pytest.mark.parametrize("direction", [-np.inf, np.inf])
    @pytest.mark.parametrize("grid_n", [8, 2048])
    def test_batch_twin_absorbs_an_ulp_of_arctan2(self, grid_n, direction, monkeypatch):
        # np.arctan2 may round an ulp away from math.atan2, here always to
        # the same side; on a grid angle that moves floor(t), and where the
        # neighbouring columns tie, the first index in the bracket wins.
        arctan2 = np.arctan2
        monkeypatch.setattr(np, "arctan2", lambda y, x: np.nextafter(arctan2(y, x), direction))
        rng = np.random.Generator(np.random.Philox(83 + grid_n))
        self._assert_twin_matches(grid_n, self._on_grid_angles(rng, grid_n))

    def test_grid_is_free(self):
        # At the largest grid the atom matrix alone would take 84 MB, and
        # pricing it took 7.3 s for these 20 points on a 2-core x86-64 host.
        grid_n = lhs_oracle.MAX_GRID_N
        rng = np.random.Generator(np.random.Philox(53))
        targets = np.repeat([1.0 - 1e-3, 1.0 + 1e-3], 10)
        points = _points_at(rng, targets)
        results = lp_membership_batch(points, grid_n=grid_n)
        assert [r.verdict for r in results] == [MEMBER] * 10 + [NON_MEMBER] * 10
        tracemalloc.start()
        try:
            lp_membership_batch(points[:1], grid_n=grid_n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
