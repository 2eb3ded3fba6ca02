"""Command-line interface: flags, exit codes, output formats, round trips."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import framecast
from framecast import Objective, cached_tensor
from framecast.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_import_leaves_scipy_optimize_unloaded():
    # only the direct-search oracle needs scipy.optimize, and no command calls it
    probe = "import sys, framecast.cli; print('scipy.optimize' in sys.modules)"
    src = str(Path(framecast.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, cwd=src)
    assert out.stdout.strip() == "False"


class TestOptimize:
    def test_level_two_z(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "--n", "2", "--objective", "z")
        assert code == 0
        doc = json.loads(out)
        assert doc["lambda"] == pytest.approx(0.5773502691896258, abs=1e-7)
        assert doc["converged"] is True
        assert doc["report"]["mse_per_axis"] == pytest.approx(0.2113248654, abs=1e-7)

    def test_single_level_floor(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "--n", "1", "--objective", "xyz")
        assert code == 0
        assert json.loads(out)["report"]["mse_per_axis"] == 0.5

    def test_invalid_level_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "optimize", "--n", "0")
        assert code == 1
        assert "error" in err

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "optimize", "--n", "2", "--wibble")
        assert code == 1

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run_cli(
            capsys, "optimize", "--n", "2", "--objective", "z", "--output", str(target)
        )
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["objective"]["kind"] == "z"

    def test_output_dir_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("FRAMECAST_OUTPUT_DIR", str(tmp_path))
        code, _, _ = run_cli(
            capsys, "optimize", "--n", "2", "--objective", "z", "--output", "inner.json"
        )
        assert code == 0
        assert (tmp_path / "inner.json").exists()

    def test_weighted_objective(self, capsys):
        code, out, _ = run_cli(
            capsys, "optimize", "--n", "2", "--objective", "weighted",
            "--wz", "1.0", "--wxy", "0.0",
        )
        assert code == 0
        assert json.loads(out)["lambda"] == pytest.approx(1 / math.sqrt(3), abs=1e-7)

    def test_non_convergence_exit_code(self, capsys):
        code, out, _ = run_cli(
            capsys, "optimize", "--n", "3", "--objective", "xyz",
            "--max-iter", "1", "--restarts", "0",
        )
        assert code == 2
        assert json.loads(out)["converged"] is False

    @pytest.mark.parametrize("command", [["optimize", "--n", "2"], ["sweep", "--n", "2"],
                                         ["simulate", "--n", "2"], ["verify"]])
    def test_negative_seed_is_usage_error(self, capsys, command):
        code, _, err = run_cli(capsys, *command, "--seed", "-1")
        assert code == 1
        assert "argument --seed: must be >= 0" in err

    def test_invalid_weights_rejected(self, capsys):
        code, _, _ = run_cli(
            capsys, "optimize", "--n", "2", "--objective", "weighted",
            "--wz", "0", "--wxy", "0",
        )
        assert code == 1

    def test_optimize_never_expands_entries(self, capsys):
        cached_tensor.cache_clear()
        code, _, _ = run_cli(capsys, "optimize", "--n", "4", "--objective", "xyz")
        assert code == 0
        for objective in (Objective.xyz_axes(), Objective.z_axis(), Objective.xy_axes()):
            assert "entries" not in cached_tensor(objective, 3).__dict__


class TestVerify:
    def test_default_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert "all checks passed" in out
        assert "FAIL" not in out

    def test_povm_only_level_four(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--check", "povm", "--n", "4")
        assert code == 0
        assert "povm-completeness" in out

    def test_check_filter_runs_only_selected_checks(self, capsys, monkeypatch):
        from framecast import cli

        def refuse(*args, **kwargs):
            raise AssertionError("an unselected check ran")

        monkeypatch.setattr(cli, "coefficient_deviation", refuse)
        monkeypatch.setattr(cli, "povm_defect", refuse)
        code, out, _ = run_cli(capsys, "verify", "--check", "grid", "--n", "6")
        assert code == 0
        assert out.splitlines()[1].startswith("grid-normalization")
        assert len(out.splitlines()) == 3

    def test_filtered_check_sees_the_same_inputs(self, capsys):
        # random inputs are drawn for every check, selected or not
        _, full, _ = run_cli(capsys, "verify", "--n", "4", "--seed", "5")
        _, only, _ = run_cli(capsys, "verify", "--n", "4", "--seed", "5", "--check", "povm")
        povm_line = [line for line in full.splitlines() if line.startswith("povm")]
        assert only.splitlines()[1:2] == povm_line

    def test_unmatched_check_filter_is_usage_error(self, capsys):
        from framecast.cli import VERIFY_CHECKS

        code, out, err = run_cli(capsys, "verify", "--check", "bogus")
        assert code == 1
        assert "all checks passed" not in out
        assert "matches no check" in err
        assert all(name in err for name in VERIFY_CHECKS)

    def test_check_names_are_the_listed_ones(self, capsys):
        from framecast.cli import VERIFY_CHECKS

        _, out, _ = run_cli(capsys, "verify", "--n", "2")
        assert tuple(line.split()[0] for line in out.splitlines()[1:-1]) == VERIFY_CHECKS

    def test_injected_fault_detected(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--inject-fault")
        assert code == 3
        assert "worst offender" in out

    def test_injected_fault_at_single_level_is_usage_error(self, capsys):
        # at n = 1 no block pair is coupled, so the fault would corrupt nothing
        code, out, err = run_cli(capsys, "verify", "--n", "1", "--inject-fault")
        assert code == 1
        assert "all checks passed" not in out
        assert "n >= 2" in err

    def test_scale_guard(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--n", "9")
        assert code == 1


class TestSweep:
    def test_row_agrees_with_optimize_at_same_n_and_seed(self, capsys):
        # one round leaves the result init-dependent, and at n = 3, seed 3 a
        # random restart beats the uniform init, so the two commands agree
        # only if they draw the same restart seeds
        common = ["--objective", "z", "--max-iter", "1", "--restarts", "4", "--seed", "3"]
        _, out, _ = run_cli(capsys, "optimize", "--n", "3", *common)
        _, rows, _ = run_cli(capsys, "sweep", "--n", "3", *common)
        assert float(rows.splitlines()[1].split(",")[2]) == json.loads(out)["lambda"]

    def test_weighted_row_error_matches_optimize_report(self, capsys):
        # the row's mse_per_axis averages the unweighted cosines, not lambda
        common = ["--n", "3", "--objective", "weighted", "--wz", "2", "--wxy", "0.5"]
        _, out, _ = run_cli(capsys, "optimize", *common)
        _, rows, _ = run_cli(capsys, "sweep", *common)
        doc = json.loads(out)
        n, _, lam, mse, _ = rows.splitlines()[1].split(",")
        assert (int(n), float(lam)) == (3, doc["lambda"])
        assert float(mse) == doc["report"]["mse_per_axis"]

    def test_csv_format_and_exit(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--objective", "z", "--n", "2..5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,d,lambda,mse_per_axis,converged"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "2" and first[1] == "4"
        assert float(first[2]) == pytest.approx(1 / math.sqrt(3), abs=1e-9)
        assert first[4] == "true"

    def test_single_n_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--objective", "z", "--n", "3")
        assert code == 0
        assert len(out.strip().splitlines()) == 2

    def test_fit_footer_to_stdout(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--objective", "z", "--n", "2..8", "--fit-from", "4"
        )
        assert code == 0
        fit = json.loads(out.strip().splitlines()[-1])
        assert fit["exponent"] < -0.5

    def test_fit_footer_file(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--objective", "z", "--n", "2..8",
            "--fit-from", "4", "--output", str(target),
        )
        assert code == 0
        assert target.exists()
        fit = json.loads((tmp_path / "rows.csv.fit.json").read_text())
        assert fit["fit_from"] == 4

    def test_bad_range_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--objective", "z", "--n", "5..2")
        assert code == 1
        code, _, _ = run_cli(capsys, "sweep", "--objective", "z", "--n", "x..y")
        assert code == 1

    def test_fit_needs_enough_rows(self, capsys):
        code, _, _ = run_cli(
            capsys, "sweep", "--objective", "z", "--n", "2..4", "--fit-from", "3"
        )
        assert code == 1

    def test_partial_non_convergence_flagged(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--objective", "xyz", "--n", "3..4",
            "--max-iter", "1", "--restarts", "0",
        )
        assert code == 2
        assert "false" in out


class TestSimulate:
    def test_inline_optimize_and_stats(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--n", "2", "--objective", "z",
            "--samples", "40000", "--seed", "7",
        )
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["mean_cos_z"] - 0.57735) < 3 * doc["stderr_cos_z"]
        assert doc["acceptance_rate"] == 1.0  # exact sampling wastes no proposal

    def test_single_level_means_vanish(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--n", "1", "--samples", "1000", "--seed", "3"
        )
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["mean_cos_sum"]) < 4 * doc["stderr_cos_sum"]

    def test_same_seed_identical_output(self, capsys):
        args = ["simulate", "--n", "2", "--objective", "z", "--samples", "5000", "--seed", "11"]
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_round_trip_with_optimize(self, capsys, tmp_path):
        state_path = tmp_path / "state.json"
        code, _, _ = run_cli(
            capsys, "optimize", "--n", "2", "--objective", "xyz", "--output", str(state_path)
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys, "simulate", "--state-file", str(state_path),
            "--samples", "20000", "--seed", "4",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 2
        assert abs(doc["mean_cos_sum"] - 0.8791528696) < 4 * doc["stderr_cos_sum"]

    def test_missing_state_file(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--state-file", "/nonexistent/state.json", "--samples", "10"
        )
        assert code == 1
        assert "cannot read state file" in err

    @pytest.mark.parametrize("party", ["alice", "fiducial"])
    def test_nan_state_file_is_rejected(self, capsys, tmp_path, party):
        state_path = tmp_path / "state.json"
        code, _, _ = run_cli(
            capsys, "optimize", "--n", "2", "--objective", "xyz", "--output", str(state_path)
        )
        assert code == 0
        doc = json.loads(state_path.read_text())
        doc[party]["coefficients"][1][2] = math.nan
        state_path.write_text(json.dumps(doc))
        code, out, err = run_cli(
            capsys, "simulate", "--state-file", str(state_path), "--samples", "10"
        )
        assert code == 1
        assert out == ""
        assert "cannot read state file" in err
        assert "Traceback" not in err

    def test_raw_csv(self, capsys, tmp_path):
        raw_path = tmp_path / "raw.csv"
        code, _, _ = run_cli(
            capsys, "simulate", "--n", "2", "--objective", "z", "--samples", "500",
            "--seed", "2", "--raw-csv", str(raw_path),
        )
        assert code == 0
        lines = raw_path.read_text().strip().splitlines()
        assert lines[0] == "alpha,beta,gamma,cos_x,cos_y,cos_z"
        assert len(lines) == 501

    def test_true_rotation_flag_does_not_change_the_output(self, capsys):
        args = ["simulate", "--n", "2", "--samples", "3000", "--seed", "5"]
        _, haar, _ = run_cli(capsys, *args, "--true", "haar")
        _, fixed, _ = run_cli(capsys, *args, "--true", "identity")
        haar_doc, fixed_doc = json.loads(haar), json.loads(fixed)
        assert (haar_doc.pop("true_rotation"), fixed_doc.pop("true_rotation")) == ("haar",
                                                                                     "identity")
        assert haar_doc == fixed_doc

    def test_raw_csv_rows_rebuild_their_cosines(self, capsys, tmp_path):
        import numpy as np

        from framecast import rotation_matrix_components

        raw_path = tmp_path / "raw.csv"
        code, _, _ = run_cli(capsys, "simulate", "--n", "3", "--samples", "400", "--seed", "8",
                             "--raw-csv", str(raw_path))
        assert code == 0
        rows = np.loadtxt(raw_path, delimiter=",", skiprows=1)
        assert rows.shape == (400, 6)
        assert np.all((rows[:, [0, 2]] >= 0.0) & (rows[:, [0, 2]] < 2.0 * math.pi))
        assert np.all((rows[:, 1] >= 0.0) & (rows[:, 1] <= math.pi))
        rebuilt = rotation_matrix_components(rows[:, 0], rows[:, 1], rows[:, 2])
        # the CSV carries 12 significant digits
        assert np.max(np.abs(np.diagonal(rebuilt, axis1=1, axis2=2) - rows[:, 3:])) < 1e-10

    def test_requires_state_or_n(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--samples", "10")
        assert code == 1


BAD_NUMERIC_FLAGS = [
    (["optimize", "--n", "2", "--restarts", "-1"], "argument --restarts: must be >= 0"),
    (["sweep", "--n", "2", "--restarts", "-2"], "argument --restarts: must be >= 0"),
    (["optimize", "--n", "2", "--tol", "0"], "argument --tol: must be a finite number > 0"),
    (["sweep", "--n", "2", "--tol", "0"], "argument --tol: must be a finite number > 0"),
    (["simulate", "--n", "2", "--tol", "0"], "argument --tol: must be a finite number > 0"),
    (["optimize", "--n", "2", "--tol", "nan"], "argument --tol: must be a finite number > 0"),
    (["sweep", "--n", "2", "--tol", "nan"], "argument --tol: must be a finite number > 0"),
    (["simulate", "--n", "2", "--tol", "inf"], "argument --tol: must be a finite number > 0"),
    (["optimize", "--n", "2", "--max-iter", "0"], "argument --max-iter: must be >= 1"),
    (["sweep", "--n", "2", "--max-iter", "0"], "argument --max-iter: must be >= 1"),
    (["simulate", "--n", "2", "--max-iter", "0"], "argument --max-iter: must be >= 1"),
    (["simulate", "--n", "2", "--samples", "0"], "argument --samples: must be >= 1"),
    (["simulate", "--n", "0"], "argument --n: must be >= 1"),
] + [
    ([command, "--n", "2", "--objective", "weighted", flag, value],
     "objective weights must be finite")
    for command in ("optimize", "sweep", "simulate")
    for flag, value in (("--wz", "nan"), ("--wxy", "inf"))
]


@pytest.mark.parametrize("argv, message", BAD_NUMERIC_FLAGS,
                         ids=[f"{argv[0]}{argv[-2]}={argv[-1]}" for argv, _ in BAD_NUMERIC_FLAGS])
def test_bad_numeric_flag_is_usage_error(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert message in err
    assert "Traceback" not in err
