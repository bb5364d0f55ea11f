import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import chsh_steering
from chsh_steering.cli import main
from chsh_steering.qubit_core import ellipse_hull_excess


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
        assert err == "error: argument --mc: not a positive integer: '0'\n"

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

    @pytest.mark.parametrize("eta", ["nan", "inf", "5"])
    def test_reported_eta_bob_out_of_range(self, capsys, eta):
        self.assert_rejected(*run_cli(capsys, "experiment", "--reported-s", "1.33",
                                      "--eta-bob", eta))

    @pytest.mark.parametrize("flag", ["--tol", "--prob-tol"])
    def test_witness_tolerance_nan(self, capsys, tmp_path, flag):
        path = write_correlators(tmp_path, [1.0, 0.0, 0.0, 1.0])
        self.assert_rejected(*run_cli(capsys, "witness", "eval", path, flag, "nan"))

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

    # A numpy warning would print more lines on stderr in a real run; the
    # suite turns every warning into an error.
    @pytest.mark.parametrize("state", [5, {"real": None}, {"theta_deg": None},
                                       {"theta_deg": float("nan")},
                                       {"theta_deg": float("inf"), "p1": 0.5}])
    def test_malformed_state_json(self, capsys, tmp_path, state):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state))
        self.assert_rejected(*run_cli(capsys, "scan", "state", "--input", str(path),
                                      "--resolution", "6"))

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
        ("oracle", "check", "--grid", "64", "--samples", "0"),
        ("oracle", "check", "--grid", "64", "--samples", "-3"),
        ("oracle", "check", "--grid", "64", "--samples", "20", "--seed", "-1"),
        ("experiment", "--theta", "22.5", "--p1", "0.9", "--eta-bob", "0.85",
         "--mc", "10", "--seed", "-1"),
        ("ellipse", "--mu", "0.5", "--n", "1.5"),
        ("experiment", "--theta", "22.5", "--p1", "0.9", "--eta-bob", "0.85",
         "--mc", "abc"),
        ("oracle", "check", "--grid", "64", "--samples", "20", "--seed", "x"),
        ("experiment", "--theta", "22.5", "--p1", "1", "--eta-bob", "1e-12",
         "--mc", "10"),
        ("experiment", "--theta", "22.5", "--p1", "1", "--eta-bob", "5e-324",
         "--mc", "10"),
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
