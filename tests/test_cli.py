import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

import chsh_steering
from chsh_steering import cli, correlation_model, lhs_oracle
from chsh_steering.cli import main
from chsh_steering.homodyne_experiment import gamma
from chsh_steering.steering_witness import steering_lhs_array
from chsh_steering.violation_search import angle_correlations_array
from reference import ellipse_hull_excess


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_correlators(tmp_path, values, name="corr.json", **extra):
    payload = {"correlators": dict(zip(("AB", "ApB", "ABp", "ApBp"), values))}
    payload.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestWitnessEval:
    def test_experiment_values_do_not_steer(self, capsys, tmp_path):
        path = write_correlators(tmp_path, [0.3325, 0.3325, 0.3325, -0.3325])
        code, out, _ = run_cli(capsys, "witness", "eval", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["steering"]["lhs"] == pytest.approx(1.33, abs=1e-12)
        assert payload["steering"]["verdict"] == "satisfied"

    def test_quantum_point_violates(self, capsys, tmp_path):
        path = write_correlators(tmp_path, [1.0, 0.0, 0.0, 1.0])
        code, out, _ = run_cli(capsys, "witness", "eval", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["steering"]["lhs"] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
        assert payload["steering"]["verdict"] == "violated"

    def test_zero_file_all_satisfied(self, capsys, tmp_path):
        path = write_correlators(tmp_path, [0.0, 0.0, 0.0, 0.0])
        code, out, _ = run_cli(capsys, "witness", "eval", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["steering"]["verdict"] == "satisfied"
        assert all(v == "satisfied" for v in payload["chsh"]["verdicts"])
        assert all(v == "satisfied" for v in payload["pairs"]["verdicts"])

    def test_table_format(self, capsys, tmp_path):
        path = write_correlators(tmp_path, [0.3, 0.3, 0.3, -0.3])
        code, out, _ = run_cli(capsys, "witness", "eval", path, "--format", "table")
        assert code == 0
        assert "steering witness" in out and "verdict : satisfied" in out

    def test_invalid_input_exits_nonzero(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"correlators": {"AB": 0.1}}')
        code, _, err = run_cli(capsys, "witness", "eval", str(path))
        assert code == 1
        assert "missing" in err

    def test_signalling_joint_rejected(self, capsys, tmp_path):
        joint = np.full((4, 4), 0.25)
        joint[0, 0], joint[1, 0] = 0.4, 0.1
        path = tmp_path / "joint.json"
        path.write_text(json.dumps({"joint": joint.tolist()}))
        code, _, err = run_cli(capsys, "witness", "eval", str(path))
        assert code == 1
        assert "no-signalling" in err or "normalisation" in err

    def test_joint_input_works(self, capsys, tmp_path):
        joint = np.full((4, 4), 0.25)
        path = tmp_path / "joint.json"
        path.write_text(json.dumps({"joint": joint.tolist()}))
        code, out, _ = run_cli(capsys, "witness", "eval", str(path))
        assert code == 0
        assert json.loads(out)["steering"]["lhs"] == 0.0


    def test_joint_with_disagreeing_marginals_rejected(self, capsys, tmp_path):
        # The uniform joint matrix has every marginal 0.
        path = tmp_path / "joint.json"
        path.write_text(json.dumps({"joint": np.full((4, 4), 0.25).tolist(),
                                    "marginals": {"A": 0.9, "Ap": 0.0, "B": 0.0, "Bp": 0.0}}))
        code, out, err = run_cli(capsys, "witness", "eval", str(path))
        assert code == 1
        assert out == ""
        assert err == "error: marginals disagree with the joint matrix\n"


class TestOracleCheck:
    def test_small_sweep_agrees(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "check", "--grid", "64",
                               "--samples", "50", "--seed", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["seed"] == 1
        assert payload["disagreements"] == 0
        assert len(payload["verdicts"]) == 50
        assert len(payload["f_values"]) == 50
        assert payload["band"] == pytest.approx(1.0 - math.cos(math.pi / 64), abs=1e-15)

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run_cli(capsys, "oracle", "check", "--grid", "64",
                              "--samples", "20", "--seed", "9")
        _, second, _ = run_cli(capsys, "oracle", "check", "--grid", "64",
                               "--samples", "20", "--seed", "9")
        assert first == second

    def test_disagreement_exits_one(self, capsys, monkeypatch):
        batch = lhs_oracle.lp_membership_batch

        def flip_first_decided(*args, **kwargs):
            results = batch(*args, **kwargs)
            i = next(i for i, r in enumerate(results) if r.verdict != lhs_oracle.BOUNDARY_BAND)
            flipped = lhs_oracle.NON_MEMBER if results[i].verdict == lhs_oracle.MEMBER \
                else lhs_oracle.MEMBER
            results[i] = dataclasses.replace(results[i], verdict=flipped)
            return results

        monkeypatch.setattr(lhs_oracle, "lp_membership_batch", flip_first_decided)
        code, out, _ = run_cli(capsys, "oracle", "check", "--grid", "64",
                               "--samples", "20", "--seed", "1")
        assert code == 1
        assert json.loads(out)["disagreements"] == 1


class TestExperiment:
    def test_reported_verdict(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "--reported-s", "1.330",
                               "--eta-bob", "0.85")
        assert code == 0
        payload = json.loads(out)
        assert payload["steering_lhs"] == 1.330
        assert payload["corrected_bound"] == pytest.approx(
            2.0 * math.sqrt(2.0 * 0.85 / math.pi), abs=1e-12)
        assert payload["verdict"] == "no_steering"

    def test_reported_at_the_bound_is_boundary(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "--reported-s",
                               repr(2.0 * gamma(0.85)), "--eta-bob", "0.85")
        assert code == 0
        assert json.loads(out)["verdict"] == "boundary"

    def test_reported_table_shows_left_right(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "--reported-s", "1.330",
                               "--eta-bob", "0.85", "--format", "table")
        assert code == 0
        assert "Left (steering lhs)" in out
        assert "Right (2*gamma bound)" in out
        assert "no_steering" in out

    def test_model_analytic(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "--theta", "22.5",
                               "--p1", "1.0", "--eta-bob", "0.85")
        assert code == 0
        payload = json.loads(out)
        assert payload["inputs"]["eta_alice"] == 0.85
        lhs = payload["steering_lhs"]
        expected = 2.0 * math.sqrt(2.0) * (2.0 * 0.85 / math.pi)
        assert lhs == pytest.approx(expected, abs=1e-12)
        # a lossless split photon at these efficiencies does violate; only the
        # real data (p1 < 1) fell short
        assert payload["verdict"] == "steering"

    def test_parser_reuse_keeps_no_flag_from_the_last_call(self, capsys):
        # One parser serves every call; an omitted --eta-alice must still
        # fall back to --eta-bob after a call that gave it.
        base = ("experiment", "--theta", "22.5", "--p1", "1.0", "--eta-bob", "0.85")
        code, out, _ = run_cli(capsys, *base, "--eta-alice", "0.3")
        assert code == 0
        assert json.loads(out)["inputs"]["eta_alice"] == 0.3
        code, out, _ = run_cli(capsys, *base)
        assert code == 0
        assert json.loads(out)["inputs"]["eta_alice"] == 0.85

    def test_model_analytic_with_loss_does_not_steer(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "--theta", "22.5",
                               "--p1", "0.8", "--eta-bob", "0.85")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "no_steering"

    def test_model_with_monte_carlo(self, capsys):
        args = ("experiment", "--theta", "22.5", "--p1", "1.0", "--eta-bob", "0.85",
                "--mc", "5000", "--seed", "21")
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        payload = json.loads(out)
        assert payload["mc"]["seed"] == 21
        assert payload["mc"]["n_samples"] == 5000
        assert set(payload["mc"]["std_errors"]) == {"AB", "ApB", "ABp", "ApBp"}
        _, again, _ = run_cli(capsys, *args)
        assert out == again

    @pytest.mark.parametrize("eta", ["1e-12", "5e-324"])
    def test_monte_carlo_below_the_old_efficiency_floor(self, capsys, eta):
        # The Monte Carlo once refused any efficiency below 1/8192; its grid
        # in the scaled quadrature is the same at every efficiency.
        code, out, err = run_cli(capsys, "experiment", "--theta", "22.5", "--p1", "1",
                                 "--eta-bob", eta, "--mc", "10")
        assert (code, err) == (0, "")

        def non_finite(constant):
            raise AssertionError(f"non-finite {constant} in the output")
        payload = json.loads(out, parse_constant=non_finite)
        assert payload["inputs"]["eta_bob"] == float(eta)
        assert 0.0 < payload["gamma"] and payload["mc"]["n_samples"] == 10

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_nonpositive_monte_carlo_count_is_an_error(self, capsys, count):
        code, out, err = run_cli(capsys, "experiment", "--theta", "22.5", "--p1", "1.0",
                                 "--eta-bob", "0.85", "--mc", count)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_monte_carlo_count_error_names_the_flag(self, capsys):
        _, _, err = run_cli(capsys, "experiment", "--theta", "22.5", "--p1", "1.0",
                            "--eta-bob", "0.85", "--mc", "0")
        assert err == "error: argument --mc: not an integer from 1 to 1073741824: '0'\n"

    def test_missing_model_arguments(self, capsys):
        code, _, err = run_cli(capsys, "experiment", "--eta-bob", "0.85")
        assert code == 1
        assert "reported-s" in err or "theta" in err

    def test_reported_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "experiment", "--reported-s", "5.0",
                               "--eta-bob", "0.85")
        assert code == 1
        assert "s_max" in err


class TestScans:
    def test_angle_scan_csv(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "angles", "--resolution", "64")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].strip() == "delta,lhs"
        assert len(lines) == 65
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert max(values) <= 2.0 * math.sqrt(2.0) + 1e-12
        assert max(values) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)

    def test_angle_scan_blocks_keep_the_bits(self, capsys):
        # Three blocks of angles, the last one short, against one evaluation
        # of the witness over every angle.
        code, out, _ = run_cli(capsys, "scan", "angles", "--resolution", "65537")
        assert code == 0
        deltas = 2.0 * np.pi * np.arange(65537) / 65537
        whole = steering_lhs_array(angle_correlations_array(deltas, np.zeros_like(deltas)))
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [float(lhs) for _, lhs in rows] == whole.tolist()
        assert [float(delta) for delta, _ in rows] == deltas.tolist()

    def test_angle_scan_memory_is_blocked(self):
        # Evaluated over all angles at once, the witness took this call to a
        # traced peak of 22 MiB (88 MiB at 2^20); in blocks it stays near the
        # 2 MiB angle column.
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            main(["scan", "angles", "--resolution", "8"])
            tracemalloc.start()
            try:
                assert main(["scan", "angles", "--resolution", "262144"]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 8 << 20

    def test_state_scan_from_model_json(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"theta_deg": 22.5, "p1": 1.0}))
        code, out, err = run_cli(capsys, "scan", "state", "--input", str(path),
                                 "--resolution", "8")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].strip() == "theta_deg,phi_deg,max_lhs"
        assert len(lines) == 1 + 64
        assert "refined best lhs" in err
        refined = float(err.split(":")[1])
        assert refined == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-5)

    def test_state_scan_from_density(self, capsys, tmp_path):
        rho = np.zeros((4, 4))
        rho[0, 0] = 1.0
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"real": rho.tolist()}))
        code, out, _ = run_cli(capsys, "scan", "state", "--input", str(path),
                               "--resolution", "6")
        assert code == 0
        values = [float(line.split(",")[2]) for line in out.strip().splitlines()[1:]]
        assert max(values) <= 2.0 + 1e-9

    def test_state_scan_rejects_bad_json(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"foo": 1}))
        code, _, err = run_cli(capsys, "scan", "state", "--input", str(path),
                               "--resolution", "6")
        assert code == 1
        assert "state JSON" in err


# Values that csv.writer formats apart although some compare equal (0.0 and
# -0.0) or unequal to themselves (NaN), plus extremes and repeats.
_CSV_SPECIALS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                 2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1e-5, 1e16, 1.0]
_CSV_FLOATS = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                        st.sampled_from(_CSV_SPECIALS))


def _csv_reference(header, columns) -> str:
    """What the CLI printed with one ``csv.writer`` over every row."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(zip(*(map(float, c) for c in columns)))
    return out.getvalue()


def _csv_written(header, columns, form: str) -> str:
    """``_write_csv``'s stdout for the columns given as arrays, lists or
    one-shot iterators of NumPy floats."""
    convert = {"array": np.array, "list": list,
               "iterator": lambda c: map(np.float64, c)}[form]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._write_csv(header, *map(convert, columns))
    return out.getvalue()


class TestCsvWriter:
    @given(data=st.data(), width=st.integers(1, 3), chunk=st.sampled_from([1, 2, 3, 7]),
           form=st.sampled_from(["array", "list", "iterator"]))
    def test_bytes_match_csv_writer(self, data, width, chunk, form):
        # Lengths from 0 to past a few chunks, often right at an edge.
        length = data.draw(st.one_of(
            st.integers(0, 4 * chunk + 1),
            st.integers(0, 4).map(lambda q: q * chunk + 1),
            st.integers(1, 4).map(lambda q: q * chunk - 1)))
        # A small pool makes values repeat within a chunk.
        pool = data.draw(st.lists(_CSV_FLOATS, min_size=1, max_size=6))
        values = st.one_of(st.sampled_from(pool), _CSV_FLOATS)
        columns = [data.draw(st.lists(values, min_size=length, max_size=length))
                   for _ in range(width)]
        header = ["a", "b", "c"][:width]
        with mock.patch.object(cli, "_CSV_CHUNK", chunk):
            assert _csv_written(header, columns, form) == _csv_reference(header, columns)

    @pytest.mark.parametrize("length", [255, 256, 257, 511, 512, 513, 1600])
    def test_bytes_match_csv_writer_at_the_chunk_size(self, length):
        assert cli._CSV_CHUNK == 256
        rng = np.random.Generator(np.random.Philox(length))
        angles = np.rad2deg(np.repeat(np.linspace(0.0, np.pi, 40), 40))[:length]
        signed = rng.choice(np.array(_CSV_SPECIALS), size=length)
        columns = [angles, signed, rng.normal(size=length)]
        for form in ("array", "list", "iterator"):
            assert (_csv_written(["x", "y", "z"], columns, form)
                    == _csv_reference(["x", "y", "z"], columns))

    def test_zero_signs_stay_apart_in_one_chunk(self):
        for column in ([0.0, -0.0, 0.0], [-0.0, 0.0, -0.0]):
            text = _csv_written(["z"], [column], "list")
            assert text.splitlines()[1:] == [repr(v) for v in column]


class TestEllipse:
    @pytest.mark.parametrize("mu", [0.1, 0.5, 0.99])
    def test_boundary_points_inside_hull(self, capsys, mu):
        code, out, _ = run_cli(capsys, "ellipse", "--mu", str(mu), "--n", "128")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].strip() == "xi,p_b,p_bp"
        assert len(lines) == 129
        for line in lines[1:]:
            _, p, pp = (float(x) for x in line.split(","))
            assert ellipse_hull_excess(mu, p, pp) <= 1e-10

    def test_degenerate_mu_is_diagonal_segment(self, capsys):
        code, out, _ = run_cli(capsys, "ellipse", "--mu", "1.0", "--n", "32")
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            _, p, pp = (float(x) for x in line.split(","))
            assert p == pytest.approx(pp, abs=1e-14)

    def test_out_of_range_mu(self, capsys):
        code, _, err = run_cli(capsys, "ellipse", "--mu", "1.5", "--n", "8")
        assert code == 1
        assert "mu" in err


class TestRejectedInput:
    """Malformed input ends in one ``error:`` line, exit 1 and no stdout."""

    @staticmethod
    def assert_rejected(code, out, err):
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "invalid _" not in err

    def test_scan_state_resolution_checked_before_output(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"theta_deg": 22.5, "p1": 0.9}))
        self.assert_rejected(*run_cli(capsys, "scan", "state", "--input", str(path),
                                      "--resolution", "2"))

    @pytest.mark.parametrize("resolution", ["129", "100000", "1.5", "0"])
    def test_scan_state_resolution_out_of_range(self, capsys, tmp_path, resolution):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"theta_deg": 22.5, "p1": 0.9}))
        self.assert_rejected(*run_cli(capsys, "scan", "state", "--input", str(path),
                                      "--resolution", resolution))

    @pytest.mark.parametrize("real", [
        [[0.25, 0.5, 0.0, 0.0], [0.0, 0.25, 0.0, 0.0],
         [0.0, 0.0, 0.25, 0.0], [0.0, 0.0, 0.0, 0.25]],  # not Hermitian
        np.diag([0.5, 0.5, 0.5, -0.5]).tolist(),  # a negative eigenvalue
        # An eigenvalue 5 DENSITY_PSD_TOL below 0.
        np.diag([0.5 + 5e-10, 0.5, 0.0, -5e-10]).tolist(),
    ])
    def test_scan_state_rejects_a_non_density(self, capsys, tmp_path, real):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"real": real}))
        self.assert_rejected(*run_cli(capsys, "scan", "state", "--input", str(path),
                                      "--resolution", "6"))

    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_scan_state_names_a_non_finite_entry(self, capsys, tmp_path, bad):
        # Python's json reads NaN and Infinity; the entry was reported as
        # "an entry of modulus above 1".
        path = tmp_path / "state.json"
        path.write_text('{"real": [[%s, 0, 0, 0], [0, 0.25, 0, 0],'
                        ' [0, 0, 0.25, 0], [0, 0, 0, 0.25]]}' % bad)
        code, out, err = run_cli(capsys, "scan", "state", "--input", str(path),
                                 "--resolution", "6")
        self.assert_rejected(code, out, err)
        assert err == "error: density matrix has a non-finite entry\n"

    def test_joint_matrix_of_the_wrong_shape(self, capsys, tmp_path):
        path = tmp_path / "joint.json"
        path.write_text(json.dumps({"joint": np.full((3, 3), 1.0 / 9.0).tolist()}))
        code, out, err = run_cli(capsys, "witness", "eval", str(path))
        self.assert_rejected(code, out, err)
        assert "must be 4x4" in err

    @pytest.mark.parametrize("eta", ["nan", "inf", "5"])
    def test_reported_eta_bob_out_of_range(self, capsys, eta):
        self.assert_rejected(*run_cli(capsys, "experiment", "--reported-s", "1.33",
                                      "--eta-bob", eta))

    # Above its cap, --tol called the quantum maximum (lhs 2.83 against 2) a
    # boundary; --prob-tol on correlators alone was never checked.
    @pytest.mark.parametrize("flag, value", [
        ("--tol", "nan"), ("--prob-tol", "nan"), ("--tol", "1e300"),
        ("--prob-tol", "-1"), ("--prob-tol", "1e300")])
    def test_witness_tolerance_out_of_range(self, capsys, tmp_path, flag, value):
        path = write_correlators(tmp_path, [1.0, 0.0, 0.0, 1.0])
        self.assert_rejected(*run_cli(capsys, "witness", "eval", path, flag, value))

    @pytest.mark.parametrize("tol", ["0.5", "nan", "-1"])
    def test_tol_checked_before_the_monte_carlo(self, capsys, monkeypatch, tol):
        # The verdict used to reject --tol only after all 4 N samples were
        # drawn: 3.3 s at --mc 20000000 on a 2-core x86-64 host, minutes at
        # the cap.
        def never(*args, **kwargs):
            raise AssertionError("the Monte Carlo ran before --tol was checked")

        monkeypatch.setattr(cli, "monte_carlo_correlations", never)
        code, out, err = run_cli(capsys, "experiment", "--theta", "22.5", "--p1", "0.9",
                                 "--eta-bob", "0.85", "--mc", "20000000", "--tol", tol)
        self.assert_rejected(code, out, err)
        assert "--tol" in err

    def test_joint_matrix_with_oversized_prob_tol(self, capsys, tmp_path):
        # Every setting pair of this matrix sums to 0.4; a tolerance without a
        # cap let it pass as a probability table with a "satisfied" verdict.
        path = tmp_path / "joint.json"
        path.write_text(json.dumps({"joint": [[0.1] * 4] * 4}))
        self.assert_rejected(*run_cli(capsys, "witness", "eval", str(path),
                                      "--prob-tol", "1e300"))

    def test_null_correlator(self, capsys, tmp_path):
        path = write_correlators(tmp_path, [None, 0.0, 0.0, 0.0])
        self.assert_rejected(*run_cli(capsys, "witness", "eval", path))

    # float() takes a bool or a numeric string, so these once printed a
    # verdict with exit 0.
    @pytest.mark.parametrize("value", [True, False, "0.5", "1e300"])
    def test_correlator_that_is_not_a_number(self, capsys, tmp_path, value):
        path = write_correlators(tmp_path, [value, 0, 0, 1])
        self.assert_rejected(*run_cli(capsys, "witness", "eval", path))

    # A numpy warning would print more lines on stderr in a real run; the
    # suite turns every warning into an error.
    @pytest.mark.parametrize("state", [5, {"real": None}, {"theta_deg": None},
                                       {"theta_deg": float("nan")},
                                       {"theta_deg": float("inf"), "p1": 0.5},
                                       {"theta_deg": "22.5", "p1": True},
                                       {"theta_deg": 22.5, "p1": True},
                                       {"theta_deg": "22.5"},
                                       {"real": [[True, 0], [0, 0]]},
                                       {"real": [["1", 0, 0, 0]] + [[0] * 4] * 3},
                                       {"real": [[1, 0, 0, 0]] + [[0] * 4] * 3,
                                        "imag": [[False] * 4] * 4},
                                       {"real": [[1, 0, 0, 0], [0, 0]]},
                                       # "imag" once broadcast against "real".
                                       {"real": [[0.25] * 4], "imag": [[0]] * 4},
                                       {"real": [[0.25] * 4] * 4, "imag": [0] * 4}])
    def test_malformed_state_json(self, capsys, tmp_path, state):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state))
        self.assert_rejected(*run_cli(capsys, "scan", "state", "--input", str(path),
                                      "--resolution", "6"))

    # json.load recurses once per nested array, so this once ended in a
    # RecursionError traceback.
    @pytest.mark.parametrize("argv", [("witness", "eval"), ("scan", "state", "--input")])
    def test_deeply_nested_json(self, capsys, tmp_path, argv):
        path = tmp_path / "deep.json"
        path.write_text('{"correlators": ' + "[" * 100000 + "]" * 100000 + "}")
        self.assert_rejected(*run_cli(capsys, *argv, str(path)))

    # NumPy iterates arrays of at most 32 dimensions; one more once ended in
    # a RuntimeError traceback. 32 is still a shape error.
    @pytest.mark.parametrize("depth", [32, 33, 500])
    def test_state_array_nested_beyond_numpy(self, capsys, tmp_path, depth):
        path = tmp_path / "state.json"
        path.write_text('{"real": ' + "[" * depth + "0" + "]" * depth + "}")
        code, out, err = run_cli(capsys, "scan", "state", "--input", str(path))
        self.assert_rejected(code, out, err)
        assert ("nested too deeply" in err) == (depth > 32)

    # The rejected value once went into the message whole: 900 nested arrays
    # made an error line of 1,846 characters.
    @pytest.mark.parametrize("data", [
        {"correlators": json.loads("[" * 900 + "]" * 900)},
        {"correlators": {"AB": "x" * 5000, "ApB": 0, "ABp": 0, "ApBp": 1}},
        {"correlators": {"AB": [0.5] * 5000, "ApB": 0, "ABp": 0, "ApBp": 1}},
        {"correlators": {"AB": 1, "ApB": 0, "ABp": 0, "ApBp": 1},
         "marginals": [{"A": 0}] * 5000},
    ])
    def test_rejected_value_is_cut_short(self, capsys, tmp_path, data):
        path = tmp_path / "corr.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "witness", "eval", str(path))
        self.assert_rejected(code, out, err)
        shown = err.rstrip("\n").split(", got ", 1)[1]
        assert len(shown) <= correlation_model._SHOWN_CHARS
        assert len(err) < 100

    def test_usage_error(self, capsys):
        self.assert_rejected(*run_cli(capsys, "experiment", "--eta-bob", "abc"))

    @pytest.mark.parametrize("argv", [
        ("scan", "angles", "--resolution", "0"),
        ("scan", "angles", "--resolution", "-3"),
        ("ellipse", "--mu", "0.5", "--n", "-1"),
        ("ellipse", "--mu", "0.5", "--n", "0"),
        ("ellipse", "--mu", "2", "--n", "4"),
        ("ellipse", "--mu", "-0.5", "--n", "4"),
        ("oracle", "check", "--grid", "64", "--samples", "20", "--lp-tol", "-1"),
        ("oracle", "check", "--grid", "64", "--samples", "20", "--lp-tol", "-1e-12"),
        ("oracle", "check", "--grid", "64", "--samples", "20", "--lp-tol", "1e300"),
        ("experiment", "--reported-s", "1.33", "--eta-bob", "0.85", "--tol", "1e300"),
        ("experiment", "--theta", "22.5", "--p1", "0.9", "--eta-bob", "0.85",
         "--tol", "0.0101"),
        ("oracle", "check", "--grid", "64", "--samples", "0"),
        ("oracle", "check", "--grid", "64", "--samples", "-3"),
        ("oracle", "check", "--grid", "64", "--samples", "20", "--seed", "-1"),
        ("experiment", "--theta", "22.5", "--p1", "0.9", "--eta-bob", "0.85",
         "--mc", "10", "--seed", "-1"),
        ("ellipse", "--mu", "0.5", "--n", "1.5"),
        ("experiment", "--theta", "22.5", "--p1", "0.9", "--eta-bob", "0.85",
         "--mc", "abc"),
        ("oracle", "check", "--grid", "64", "--samples", "20", "--seed", "x"),
        ("oracle", "check", "--grid", "1048577", "--samples", "20"),
        ("oracle", "check", "--grid", "10000000000000", "--samples", "20"),
        ("oracle", "check", "--grid", "1.5", "--samples", "20"),
        ("oracle", "check", "--grid", "64", "--samples", "1048577"),
        ("oracle", "check", "--grid", "64", "--samples", "1e13"),
        ("scan", "angles", "--resolution", "1048577"),
        ("scan", "angles", "--resolution", "1e13"),
        ("ellipse", "--mu", "0.5", "--n", "1048577"),
        ("ellipse", "--mu", "0.5", "--n", "1e13"),
        ("experiment", "--reported-s", "1.33", "--eta-bob", "0.85", "--theta", "10"),
        ("experiment", "--reported-s", "1.33", "--eta-bob", "0.85", "--p1", "0.5"),
        ("experiment", "--reported-s", "1.33", "--eta-bob", "0.85",
         "--eta-alice", "0.3"),
        ("experiment", "--reported-s", "1.33", "--eta-bob", "0.85", "--mc", "1000"),
        # A seed means nothing without a Monte Carlo to seed.
        ("experiment", "--reported-s", "1.33", "--eta-bob", "0.85", "--seed", "3"),
        ("experiment", "--theta", "22.5", "--p1", "0.9", "--eta-bob", "0.85",
         "--seed", "3"),
        ("experiment", "--theta", "22.5", "--p1", "0.9", "--eta-bob", "0.85",
         "--mc", str(2 ** 30 + 1)),
        # Each efficiency outside (0, 1], on the analytic and the sampled path.
        *(("experiment", "--theta", "22.5", "--p1", "0.9", *etas, *mc)
          for mc in ((), ("--mc", "10"))
          for etas in (("--eta-bob", "0.85", "--eta-alice", "0"),
                       ("--eta-bob", "0.85", "--eta-alice", "1.5"),
                       ("--eta-bob", "1.5"))),
    ])
    def test_out_of_range_flag(self, capsys, argv):
        self.assert_rejected(*run_cli(capsys, *argv))


def test_console_entry_point_runs():
    # The child finds the package where this process did, installed or not.
    package_root = os.path.dirname(os.path.dirname(chsh_steering.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "chsh_steering.cli", "experiment",
         "--reported-s", "1.330", "--eta-bob", "0.85"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "no_steering"
