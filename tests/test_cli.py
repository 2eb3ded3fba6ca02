"""Command-line interface: flags, exit codes, output formats, round trips."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import framecast
from framecast import Objective, cached_tensor, fixed_point_optimize
from framecast.cli import _round_floats, main


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


@pytest.mark.parametrize("argv", [[], ["optimize", "--n", "3"], ["verify", "--n", "2"],
                                  ["simulate", "--n", "2", "--samples", "50"]])
def test_cli_leaves_scipy_submodules_unloaded(argv):
    # every command solves with numpy alone; only the direct-search oracle,
    # which no command calls, imports scipy.optimize
    probe = (
        "import contextlib, io, sys\n"
        "import framecast.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = framecast.cli.main({argv!r}) if {argv!r} else 0\n"
        "mods = ('scipy.linalg', 'scipy.sparse', 'scipy.special', 'scipy.optimize')\n"
        "print(code, [m for m in mods if m in sys.modules])\n"
    )
    src = str(Path(framecast.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, cwd=src)
    assert out.stdout.strip() == "0 []"


class TestOptimize:
    def test_level_two_z(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "--n", "2", "--objective", "z")
        assert code == 0
        doc = json.loads(out)
        assert doc["lambda"] == pytest.approx(0.5773502691896258, abs=1e-7)
        assert doc["converged"] is True
        assert doc["report"]["mse_per_axis"] == pytest.approx(0.2113248654, abs=1e-7)

    def test_restart_that_only_ties_keeps_the_uniform_init(self, capsys):
        # at z, n = 5, restart 1 reaches the uniform-init value to the last
        # digits with another per-block phase; a tie keeps the incumbent
        code, out, _ = run_cli(capsys, "optimize", "--n", "5", "--objective", "z")
        assert code == 0
        doc = json.loads(out)
        uniform = fixed_point_optimize(cached_tensor(Objective.z_axis(), 4), 5)
        assert doc["alice"] == json.loads(json.dumps(_round_floats(uniform.a.to_json())))
        assert doc["fiducial"] == json.loads(json.dumps(_round_floats(uniform.b.to_json())))

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

    @pytest.mark.parametrize("fault", [False, True])
    def test_json_matches_the_table(self, capsys, fault):
        argv = ["verify", "--n", "4", "--seed", "2"] + (["--inject-fault"] if fault else [])
        table_code, table, _ = run_cli(capsys, *argv)
        json_code, out, _ = run_cli(capsys, *argv, "--json")
        doc = json.loads(out)
        assert json_code == table_code == (3 if fault else 0)
        assert doc["passed"] is not fault
        rows = [line.split() for line in table.splitlines()[1:-1]]
        assert [[check["name"], f"{check['worst']:.3e}", f"{check['tol']:.0e}",
                 "PASS" if check["pass"] else "FAIL"] for check in doc["checks"]] == rows

    def test_injected_fault_at_single_level_is_usage_error(self, capsys):
        # at n = 1 no block pair is coupled, so the fault would corrupt nothing
        code, out, err = run_cli(capsys, "verify", "--n", "1", "--inject-fault")
        assert code == 1
        assert "all checks passed" not in out
        assert "n >= 2" in err

    def test_scale_guard(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--n", "9")
        assert code == 1

    @pytest.mark.parametrize("fault", ["similar", "improper", "scaled"])
    def test_geometry_rejects_non_rotations(self, capsys, monkeypatch, fault):
        from framecast import cli

        exact = cli.rotation_matrix_components
        stretch = np.diag([1.0, 1.0 + 1e-6, 1.0])

        def wrong(*angles):
            rmats = exact(*angles)
            if fault == "similar":
                # S R S^-1 keeps R's spectrum, trace, R_zz and R_xx + R_yy
                return stretch @ rmats @ np.linalg.inv(stretch)
            if fault == "improper":
                return rmats * np.array([-1.0, 1.0, 1.0])  # column 0 negated: det R = -1
            return (1.0 + 1e-9) * rmats

        monkeypatch.setattr(cli, "rotation_matrix_components", wrong)
        code, out, _ = run_cli(capsys, "verify", "--check", "geometry")
        assert code == 3
        row = out.splitlines()[1].split()
        assert (row[0], row[-1]) == ("geometry-identities", "FAIL")

    def test_runs_no_per_matrix_eigensolver(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg.eigvals called")

        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        code, out, _ = run_cli(capsys, "verify", "--n", "6")
        assert code == 0
        assert "all checks passed" in out


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

    @pytest.mark.parametrize("n_range, fit_from", [("2..4", "3"), ("1..1", "1"), ("2..9", "10")])
    def test_fit_from_refused_before_sweeping(self, capsys, n_range, fit_from):
        # the row count follows from the n range alone, so no row is computed or written
        code, out, err = run_cli(
            capsys, "sweep", "--objective", "z", "--n", n_range, "--fit-from", fit_from
        )
        assert code == 1
        assert out == ""
        assert "fewer than 3 rows" in err

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

    @pytest.mark.parametrize("flag", [["--n", "5"], ["--objective", "z"], ["--wz", "3"],
                                      ["--wxy", "2"], ["--tol", "1e-9"], ["--max-iter", "50"]],
                             ids=lambda flag: flag[0])
    def test_state_file_refuses_optimizer_flags(self, capsys, tmp_path, flag):
        # the state file fixes the pair, so an optimizer flag would be ignored
        state_path = tmp_path / "state.json"
        assert run_cli(capsys, "optimize", "--n", "2", "--output", str(state_path))[0] == 0
        code, out, err = run_cli(capsys, "simulate", "--state-file", str(state_path), *flag,
                                 "--samples", "100")
        assert code == 1
        assert out == ""
        assert err.startswith("usage: framecast simulate [-h]")
        assert f"error: {flag[0]} would be ignored: --state-file fixes the state pair" in err

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

    @pytest.mark.parametrize("fault", ["mismatched-n", "string-entry", "list-top-level",
                                       "fractional-n", "fractional-index", "truncated",
                                       "duplicate-row"])
    def test_malformed_state_file_is_rejected(self, capsys, tmp_path, fault):
        docs = {}
        for n in (2, 3):
            path = tmp_path / f"state{n}.json"
            assert run_cli(capsys, "optimize", "--n", str(n), "--restarts", "0",
                           "--output", str(path))[0] == 0
            docs[n] = json.loads(path.read_text())
        doc = docs[2]
        if fault == "mismatched-n":
            doc["alice"] = docs[3]["alice"]
        elif fault == "string-entry":
            doc["alice"]["coefficients"][0][2] = "0.5"
        elif fault == "fractional-n":
            doc["alice"]["n"] = 2.5  # int() would read it as 2
        elif fault == "fractional-index":
            doc["alice"]["coefficients"][1][0] = 1.9  # the row of j = 1; int() gives 1
        elif fault == "truncated":
            # declared n = 3 but only n = 2's rows: zero-filling them is still a unit state
            doc = docs[3]
            doc["alice"]["coefficients"] = docs[2]["alice"]["coefficients"]
        elif fault == "duplicate-row":
            # (0, 0) twice and no (1, -1): last-write-wins would still give a unit state
            doc["alice"]["coefficients"] = [[0, 0, 1.0, 0.0], [0, 0, 1.0, 0.0],
                                            [1, 0, 0.0, 0.0], [1, 1, 0.0, 0.0]]
        else:
            doc = [doc]
        state_path = tmp_path / "state.json"
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
    (["simulate", "--n", "2", "--samples", "1"], "--samples must be >= 2"),
    (["simulate", "--n", "0"], "argument --n: must be >= 1"),
    (["verify", "--n", "0"], "--n must be between 1 and 6"),
    (["sweep", "--n", "5..3"], "invalid n range '5..3'"),
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
    # the error names its subcommand, whichever check refused the value
    assert err.startswith(f"usage: framecast {argv[0]} [-h]")
    assert f"framecast {argv[0]}: error: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--wz", "--wxy"])
@pytest.mark.parametrize("objective", ["z", "xy", "xyz", None])
@pytest.mark.parametrize("command", ["optimize", "sweep", "simulate"])
def test_weight_without_weighted_objective_is_usage_error(capsys, command, objective, flag):
    # a weight that the objective would ignore is refused, not dropped
    chosen = [] if objective is None else ["--objective", objective]
    code, out, err = run_cli(capsys, command, "--n", "3", *chosen, flag, "5")
    assert code == 1
    assert out == ""
    assert f"framecast {command}: error: --wz and --wxy need --objective weighted, " \
           f"not {objective or 'xyz'}" in err
    assert "Traceback" not in err
