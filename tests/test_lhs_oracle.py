import numpy as np
import pytest

from chsh_steering import lhs_oracle
from chsh_steering.correlation_model import (
    CorrelationSet,
    EBasisVector,
    from_e_basis,
    to_e_basis,
    to_e_basis_array,
)
from chsh_steering.lhs_oracle import (
    BOUNDARY_BAND,
    MEMBER,
    NON_MEMBER,
    LhsAtom,
    LhsModel,
    NotAMemberError,
    atom_matrix,
    boundary_band,
    decompose,
    lp_membership,
    lp_membership_batch,
    model_correlations,
)
from chsh_steering.simplex import lp_feasibility
from chsh_steering.steering_witness import f_value, f_value_array


def random_members(rng, count):
    """Random points with f <= 1, via radial rescaling of uniform draws."""
    raw = to_e_basis_array(rng.uniform(-1.0, 1.0, (count, 4)))
    f = f_value_array(raw)
    f = np.where(f > 0, f, 1.0)
    targets = rng.uniform(0.0, 1.0, count)
    return raw * (targets / f)[:, None]


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
        # dust below zero is clamped
        model = LhsModel(((LhsAtom(1, 0.0), 1.0), (LhsAtom(2, 0.0), -5e-15)))
        assert model.atoms[1][1] == 0.0

    def test_atom_chi_restricted(self):
        with pytest.raises(ValueError):
            LhsAtom(3, 0.0)


class TestDecompose:
    def test_pure_first_plane_atom(self):
        model = decompose(EBasisVector(1.0, 0.0, 0.0, 0.0))
        assert len(model.atoms) == 1
        atom, weight = model.atoms[0]
        assert (atom.chi, atom.xi, weight) == (1, 0.0, 1.0)

    def test_non_member_raises(self):
        with pytest.raises(NotAMemberError):
            decompose(EBasisVector(0.5, 0.5, 0.5, -0.5))

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

    def test_band_formula(self):
        assert boundary_band(2048) == pytest.approx(1.0 - np.cos(np.pi / 2048), abs=1e-18)

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

    def test_verdict_independent_of_witness(self):
        # The LP side alone decides membership; the band only suppresses
        # claims too close to the boundary. Check lp_feasible directly.
        res = lp_membership(CorrelationSet(1.0, 1.0, 0.0, 0.0), grid_n=64)
        assert res.verdict == BOUNDARY_BAND
        assert isinstance(res.lp_feasible, bool)

    def test_one_lp_call_per_point(self, monkeypatch):
        # The oracle asks the LP only about A, b and tol, once per point, so
        # nothing derived from f can reach the membership decision.
        calls = []

        def counting(A, b, **kwargs):
            calls.append((len(b), sorted(kwargs)))
            return lp_feasibility(A, b, **kwargs)

        monkeypatch.setattr(lhs_oracle, "lp_feasibility", counting)
        points = np.random.Generator(np.random.Philox(27)).uniform(-1.0, 1.0, (7, 4))
        assert len(lp_membership_batch(points, grid_n=64)) == 7
        assert calls == [(5, ["tol"])] * 7

    def test_input_validation(self):
        with pytest.raises(ValueError):
            atom_matrix(4)
        with pytest.raises(ValueError, match="at most"):
            atom_matrix(lhs_oracle.MAX_GRID_N + 1)
        with pytest.raises(ValueError):
            lp_membership_batch(np.zeros((3, 5)))
        for tol in (-1e-12, np.nan, np.inf):
            with pytest.raises(ValueError, match="LP tolerance"):
                lp_membership_batch(np.zeros((3, 4)), grid_n=64, tol=tol)

    def test_atom_matrix_columns(self):
        A = atom_matrix(8)
        assert A.shape == (4, 16)
        assert np.allclose(A[:, 0], [1.0, 1.0, 0.0, 0.0], atol=1e-15)
        assert np.allclose(A[:, 8], [1.0, -1.0, 0.0, 0.0], atol=1e-15)
