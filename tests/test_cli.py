import builtins
import csv
import hashlib
import importlib
import inspect
import json
import os
import pkgutil
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import quantcs
import quantcs.cli
import quantcs.harness
from quantcs.cli import main
from quantcs.harness import ERRORS_CAP, THREADS_CAP
from quantcs.verify import SUITES


def tiny_plan_json():
    return json.dumps(
        {
            "family": "one_bit_gaussian",
            "model": {"structure": "sparse", "n": 12, "k": 3, "alpha": 1.0, "beta": 1.0},
            "m_grid": [30, 60],
            "trials": 2,
            "iterations": 10,
            "master_seed": 5,
        }
    )


def write_plan(tmp_path, plan):
    config = tmp_path / "plan.json"
    config.write_text(json.dumps(plan))
    return str(config)


# (id, plan edit, error message): each plan exits 2, before any draw
MALFORMED_PLANS = [
    ("unknown_family", {"family": "nope"}, "unknown family 'nope'"),
    ("float_trials", {"trials": 2.5}, "trials must be an integer"),
    ("string_iterations", {"iterations": "7"}, "iterations must be an integer"),
    ("model_without_alpha", {"model": {"structure": "sparse", "n": 12, "k": 3, "beta": 1.0}}, "missing required keys: ['alpha']"),
    ("bool_trials", {"trials": True}, "trials must be an integer"),
    ("float_m", {"m_grid": [40.7]}, "m_grid entry must be an integer"),
    ("resource_cap", {"resource_cap": 1e18}, "unknown plan keys: ['resource_cap']"),
    ("huge_seed", {"master_seed": 2**127}, "master_seed must lie in [-2**127, 2**127)"),
    ("huge_zeta", {"corruption_zeta": 10**400}, "corruption_zeta must be a number within the float range"),
    (
        "huge_L",
        {
            "family": "dithered_multi_bit",
            "model": {"structure": "sparse", "n": 12, "k": 3, "alpha": 0.0, "beta": 1.0},
            "L": 10**12,
            "delta_rule": {"rule": "five_over_l"},
        },
        "level count L = 1000000000000 exceeds the cap",
    ),
    (
        "huge_n",
        {"model": {"structure": "sparse", "n": 10**11, "k": 1, "alpha": 1.0, "beta": 1.0}, "m_grid": [1], "trials": 1, "iterations": 1},
        "sensing matrix m x n = 1 x 100000000000 exceeds the cap",
    ),
    (
        # m * n = 1 keeps the plan cost under its cap, so the iteration cap must stop it
        "huge_iterations",
        {
            "model": {"structure": "sparse", "n": 1, "k": 1, "alpha": 1.0, "beta": 1.0},
            "m_grid": [1],
            "trials": 1,
            "iterations": 400000000000,
        },
        f"iterations = 400000000000 exceeds the cap {ERRORS_CAP}",
    ),
    ("one_bit_delta_rule", {"delta_rule": {"rule": "five_over_l"}}, "one_bit_gaussian takes no delta rule"),
    # structure names that are not strings, two of them unhashable
    ("list_structure", {"model": {"structure": ["sparse"], "n": 12, "k": 3, "alpha": 1.0, "beta": 1.0}}, "unknown structure ['sparse']"),
    ("object_structure", {"model": {"structure": {"sparse": 1}, "n": 12, "k": 3, "alpha": 1.0, "beta": 1.0}}, "unknown structure {'sparse': 1}"),
    ("number_structure", {"model": {"structure": 3, "n": 12, "k": 3, "alpha": 1.0, "beta": 1.0}}, "unknown structure 3"),
    ("null_structure", {"model": {"structure": None, "n": 12, "k": 3, "alpha": 1.0, "beta": 1.0}}, "unknown structure None"),
    (
        "huge_lambda",
        {"family": "dithered_one_bit", "model": {"structure": "sparse", "n": 12, "k": 3, "alpha": 0.0, "beta": 1.0}, "lambda": 1e308},
        "dither level must be a real >= 0 with 2 * level finite",
    ),
    (
        "huge_radius",
        {"model": {"structure": "l1_ball", "n": 12, "radius": 1e200, "alpha": 1.0, "beta": 1.0}},
        "l1 radius 1e+200 exceeds sqrt(n)",
    ),
    (
        "large_radius",
        {"model": {"structure": "l1_ball", "n": 12, "radius": 1e10, "alpha": 1.0, "beta": 1.0}},
        "l1 radius 10000000000.0 exceeds sqrt(n)",
    ),
    (
        "small_radius",
        {"model": {"structure": "l1_ball", "n": 12, "radius": 0.5, "alpha": 1.0, "beta": 1.0}},
        "l1 radius 0.5 is below 1",
    ),
    (
        "l1_ball_n_1",
        {"model": {"structure": "l1_ball", "n": 1, "radius": 1.0, "alpha": 1.0, "beta": 1.0}},
        "the l1-ball draw needs n >= 2",
    ),
    (
        # 1e308 is a finite cell width, but the level span 7 * 1e308 is not
        "huge_delta",
        {
            "family": "dithered_multi_bit",
            "model": {"structure": "sparse", "n": 12, "k": 3, "alpha": 0.0, "beta": 1.0},
            "L": 8,
            "delta_rule": {"rule": "fixed", "delta": 1e308},
        },
        "level span delta * (levels - 1) = 1e+308 * 7 must be finite",
    ),
]


class TestRun:
    def test_writes_csv_and_svg(self, tmp_path, capsys):
        config = tmp_path / "plan.json"
        config.write_text(tiny_plan_json())
        out = tmp_path / "cells.csv"
        svg = tmp_path / "plot.svg"
        rc = main(["run", "--config", str(config), "--out", str(out), "--svg", str(svg)])
        assert rc == 0
        assert f"wrote 2 cells of 2 trials to {out}" in capsys.readouterr().out
        header = out.read_text().split("\n")[0]
        assert header == "family,n,k_or_r,m,L,delta,lambda,zeta,trials,mean_err,stderr,slope_group"
        assert svg.read_text().startswith("<svg ")

    def test_rerun_is_byte_identical(self, tmp_path):
        config = tmp_path / "plan.json"
        config.write_text(tiny_plan_json())
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["run", "--config", str(config), "--out", str(a)]) == 0
        assert main(["run", "--config", str(config), "--out", str(b), "--threads", "3"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_thread_cap_exits_2(self, tmp_path, capsys):
        config = tmp_path / "plan.json"
        config.write_text(json.dumps({**json.loads(tiny_plan_json()), "trials": 1}))  # two tasks
        out = tmp_path / "x.csv"
        rc = main(["run", "--config", str(config), "--out", str(out), "--threads", str(THREADS_CAP + 1)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [f"error: threads must be in [1, {THREADS_CAP}], got {THREADS_CAP + 1}"]
        assert not out.exists()

    def test_stored_errors_cap_exits_2(self, tmp_path, capsys):
        config = tmp_path / "plan.json"
        plan = {**json.loads(tiny_plan_json()), "model": {"structure": "sparse", "n": 1, "k": 1, "alpha": 1.0, "beta": 1.0}}
        config.write_text(json.dumps({**plan, "m_grid": [1], "trials": ERRORS_CAP + 1, "iterations": 1}))
        out = tmp_path / "x.csv"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == f"error: stored errors {ERRORS_CAP + 1} (len(m_grid)*trials) exceed the cap {ERRORS_CAP}"
        assert not out.exists()

    def test_zero_mean_errors_plot_without_points(self, tmp_path, capsys):
        # a 1-sparse signal in n = 1 is recovered exactly, so every cell's mean error is 0
        config = tmp_path / "plan.json"
        model = {"structure": "sparse", "n": 1, "k": 1, "alpha": 1, "beta": 1}
        config.write_text(json.dumps({"family": "one_bit_gaussian", "model": model, "m_grid": [5, 10], "trials": 2}))
        svgs = []
        for name in ("a", "b"):
            out, svg = tmp_path / f"{name}.csv", tmp_path / f"{name}.svg"
            assert main(["run", "--config", str(config), "--out", str(out), "--svg", str(svg)]) == 0
            assert [row.split(",")[9] for row in out.read_text().splitlines()[1:]] == ["0", "0"]
            svgs.append(svg.read_bytes())
        assert capsys.readouterr().err == ""
        assert svgs[0] == svgs[1]
        text = svgs[0].decode()
        assert "<circle " not in text and "<polyline " not in text
        assert ">one_bit_gaussian:k_or_r=1:L=2 (2 of 2 cells with mean error 0 omitted)</text>" in text

    @pytest.mark.parametrize("bad", ["out", "svg"])
    def test_unwritable_path_exits_2_before_any_trial(self, tmp_path, capsys, monkeypatch, bad):
        def no_run(*args, **kwargs):
            raise AssertionError("the output paths must be checked before any trial runs")

        monkeypatch.setattr(quantcs.cli, "run_experiment", no_run)
        config = tmp_path / "plan.json"
        config.write_text(tiny_plan_json())
        paths = {"out": tmp_path / "cells.csv", "svg": tmp_path / "plot.svg"}
        paths[bad] = tmp_path / "missing" / paths[bad].name
        before = sorted(tmp_path.iterdir())
        assert main(["run", "--config", str(config), "--out", str(paths["out"]), "--svg", str(paths["svg"])]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: [Errno 2] No such file or directory: '{paths[bad]}'"]
        assert sorted(tmp_path.iterdir()) == before

    def test_bad_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "plan.json"
        config.write_text('{"family": "one_bit_gaussian", "m_grid": [30], "bogus": 1}')
        rc = main(["run", "--config", str(config), "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, edit, message",
        # run's cases keep their ids; recover reads the same plans through the same helper
        [
            pytest.param(command, edit, message, id=name if command == "run" else f"{name}-recover")
            for command in ("run", "recover")
            for name, edit, message in MALFORMED_PLANS
        ],
    )
    @pytest.mark.filterwarnings("error")  # a numpy warning is output too, which capsys would not see
    def test_malformed_plan_exits_2(self, tmp_path, capsys, monkeypatch, command, edit, message):
        def no_draw(*args, **kwargs):
            raise AssertionError("the plan check must come before any draw")

        monkeypatch.setattr(quantcs.harness, "gen_signal", no_draw)
        config = tmp_path / "plan.json"
        config.write_text(json.dumps({**json.loads(tiny_plan_json()), **edit}))
        argv = {"run": ["run", "--config", str(config), "--out", str(tmp_path / "x.csv")], "recover": ["recover", "--config", str(config)]}
        rc = main(argv[command])
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert rc == 2
        assert line.startswith("error:") and message in line
        assert not (tmp_path / "x.csv").exists()
        if command == "recover":  # no header before the error
            assert captured.out == ""

    def test_multi_bit_delta_rule_defaults_to_five_over_l(self, tmp_path):
        plan = {
            "family": "dithered_multi_bit",
            "model": {"structure": "sparse", "n": 12, "k": 3, "alpha": 0.0, "beta": 1.0},
            "m_grid": [30, 60],
            "L": 4,
            "trials": 2,
            "iterations": 10,
        }
        outputs = []
        for name, extra in (("absent", {}), ("five_over_l", {"delta_rule": {"rule": "five_over_l"}})):
            config, out = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
            config.write_text(json.dumps({**plan, **extra}))
            assert main(["run", "--config", str(config), "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert b",4,1.25,0.625," in outputs[0]  # L, delta = 5 / L, dither level delta / 2

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        rc = main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


def sparse_plan(family, **extra):
    """The one-cell, one-trial plan n = 20, k = 2, m = 80, 10 iterations, seed 11."""
    alpha = 1.0 if family == "one_bit_gaussian" else 0.0
    model = {"structure": "sparse", "n": 20, "k": 2, "alpha": alpha, "beta": 1.0}
    return {"family": family, "model": model, "m_grid": [80], "trials": 1, "iterations": 10, "master_seed": 11, **extra}


# one-trial plans over every structure, on one cell or several; recover decodes trial 0 of each cell
ONE_TRIAL_PLANS = {
    "sparse_3_cells": {**sparse_plan("one_bit_gaussian"), "m_grid": [40, 80, 120]},
    "l1_ball": {
        "family": "dithered_multi_bit",
        "model": {"structure": "l1_ball", "n": 30, "radius": 2.0, "alpha": 0.0, "beta": 1.0},
        "m_grid": [60, 120],
        "L": 4,
        "trials": 1,
        "iterations": 10,
        "master_seed": 3,
    },
    "low_rank": {
        "family": "one_bit_gaussian",
        "model": {"structure": "low_rank", "n1": 5, "n2": 6, "r": 1, "alpha": 1.0, "beta": 1.0},
        "m_grid": [50, 100],
        "trials": 1,
        "iterations": 10,
        "master_seed": 4,
    },
    "corrupted_dithered": {**sparse_plan("dithered_one_bit", **{"lambda": 1.5}), "m_grid": [80, 160], "corruption_zeta": 0.05},
    "multi_bit_fixed_delta": sparse_plan("dithered_multi_bit", L=8, delta_rule={"rule": "fixed", "delta": 0.3}),
}


class TestRecover:
    def _rows(self, capsys):
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "m,iter,error"
        return [line.split(",") for line in lines[1:]]

    def test_one_bit_gaussian(self, tmp_path, capsys):
        # the rows that recover --family one_bit_gaussian --n 20 --k 2 --m 80 --iters 10 --seed 11 printed
        assert main(["recover", "--config", write_plan(tmp_path, sparse_plan("one_bit_gaussian"))]) == 0
        errors = ["0.618675223584"] + ["0.0270011607785"] * 9
        assert self._rows(capsys) == [["80", str(t), err] for t, err in enumerate(errors, start=1)]

    def test_dithered_one_bit_needs_lambda(self, tmp_path, capsys):
        assert main(["recover", "--config", write_plan(tmp_path, sparse_plan("dithered_one_bit"))]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert main(["recover", "--config", write_plan(tmp_path, sparse_plan("dithered_one_bit", **{"lambda": 1.5}))]) == 0

    def test_dithered_multi_bit(self, tmp_path, capsys):
        assert main(["recover", "--config", write_plan(tmp_path, sparse_plan("dithered_multi_bit", L=4))]) == 0
        assert len(self._rows(capsys)) == 10

    def test_deterministic_for_fixed_seed(self, tmp_path, capsys):
        argv = ["recover", "--config", write_plan(tmp_path, ONE_TRIAL_PLANS["sparse_3_cells"])]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("name", sorted(ONE_TRIAL_PLANS))
    def test_last_row_is_run_mean_err(self, tmp_path, capsys, name):
        # recover is trial 0 of run: on a one-trial plan, each cell's last error is its mean_err string
        plan = ONE_TRIAL_PLANS[name]
        config, out = write_plan(tmp_path, plan), tmp_path / "cells.csv"
        assert main(["recover", "--config", config]) == 0
        rows = self._rows(capsys)
        assert [m for m, _, _ in rows] == [str(m) for m in plan["m_grid"] for _ in range(plan["iterations"])]
        last = {m: err for m, _, err in rows}
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            assert last == {row["m"]: row["mean_err"] for row in csv.DictReader(fh)}


class TestVerify:
    def test_single_suite_passes(self, capsys):
        rc = main(["verify", "--suite", "quantizer"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[pass] quantizer." in out
        assert "all checks passed" in out
        assert "[FAIL]" not in out

    def test_unknown_suite_rejected(self, capsys):
        # an empty name is an unknown suite too, not the default of every suite
        for name in ("nope", ""):
            assert main(["verify", "--suite", name]) == 2
            captured = capsys.readouterr()
            assert captured.err.splitlines() == [f"error: unknown suite {name!r}; choose from {sorted(SUITES)}"]
            assert captured.out == ""


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--config", "plan.json"],
            ["run", "--config", "plan.json", "--out", "x.csv", "--threads", "two"],
            ["recover"],
        ],
        ids=["missing_out", "non_integer_threads", "recover_missing_config"],
    )
    def test_one_error_line_and_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: quantcs {argv[0]}: ")
        assert captured.out == ""


# a fresh interpreter runs main on its arguments and prints whether it loaded the referees, the worker pool
# and the acceptance claims
LOADS = (
    "import sys\nfrom quantcs.cli import main\nassert main(sys.argv[1:]) == 0\n"
    "print('quantcs.verify' in sys.modules, 'concurrent.futures' in sys.modules, 'quantcs.claims' in sys.modules)\n"
)


class TestRefereeImport:
    @pytest.mark.parametrize("command, loaded", [("run", False), ("recover", False), ("verify", True)])
    def test_only_verify_loads_the_referees(self, tmp_path, command, loaded):
        # and no command loads the worker pool, which only a run on several threads uses, or the claims
        config = tmp_path / "plan.json"
        config.write_text(tiny_plan_json())
        argv = {
            "run": ["run", "--config", str(config), "--out", str(tmp_path / "x.csv")],
            "recover": ["recover", "--config", str(config)],
            "verify": ["verify", "--suite", "quantizer"],
        }[command]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", LOADS, *argv], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == f"{loaded} False False"


REPO = Path(__file__).resolve().parents[1]


def recover_args(tmp_path):
    return ["recover", "--config", write_plan(tmp_path, json.loads(tiny_plan_json()))]


def _declared_entry_point(name):
    """The `module:attr` value of console script `name` in the repo's pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(REPO / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert name in scripts, f"no console script {name!r} in [project.scripts]"
    return scripts[name]


def _write_console_script(directory, name, value):
    """Write the wrapper that installers make for a console script (PyPA entry-points spec)."""
    module, _, qualname = value.partition(":")
    script = directory / name
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {qualname.split('.')[0]}\n"
        f"sys.exit({qualname}())\n"
    )
    script.chmod(0o755)


def _assert_recover_ran(proc):
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("m,iter,error\n")


class TestEntryPoint:
    def test_console_script(self, tmp_path):
        _write_console_script(tmp_path, "quantcs", _declared_entry_point("quantcs"))
        env = dict(os.environ)
        env["PATH"] = os.pathsep.join(filter(None, [str(tmp_path), env.get("PATH")]))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run(["quantcs", *recover_args(tmp_path)], capture_output=True, text=True, env=env)
        _assert_recover_ran(proc)

    @pytest.mark.skipif(shutil.which("quantcs") is None, reason="no installed quantcs executable on PATH")
    def test_installed_console_script(self, tmp_path):
        proc = subprocess.run(["quantcs", *recover_args(tmp_path)], capture_output=True, text=True)
        _assert_recover_ran(proc)

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "quantcs", "verify", "--suite", "projection"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "all checks passed" in proc.stdout


# The low_rank_r2 plan of perfbench/workloads.py; its l1_ball plan with 2 trials, whose
# five cells of each trial decode together over shared row blocks of one matrix; and a
# dithered one-bit plan whose zero start mismatches half of m >= 3200 rows, so that
# gradient takes its dense adjoint on a matrix big enough for OpenBLAS to split over threads.
BLAS_THREAD_PLANS = {
    "l1_ball": {
        "family": "one_bit_gaussian",
        "model": {"structure": "l1_ball", "n": 300, "radius": 10**0.5, "alpha": 1.0, "beta": 1.0},
        "m_grid": [800, 1200, 1600, 2000, 2400],
        "trials": 2,
        "iterations": 100,
        "master_seed": 0,
    },
    "low_rank_r2": {
        "family": "one_bit_gaussian",
        "model": {"structure": "low_rank", "n1": 25, "n2": 25, "r": 2, "alpha": 1.0, "beta": 1.0},
        "m_grid": [1200],
        "trials": 4,
        "iterations": 100,
        "master_seed": 0,
    },
    "dithered_one_bit": {
        "family": "dithered_one_bit",
        "model": {"structure": "sparse", "n": 500, "k": 3, "alpha": 0.0, "beta": 1.0},
        "m_grid": [3200, 4000],
        "lambda": 1.5,
        "trials": 2,
        "iterations": 100,
        "master_seed": 0,
    },
}


class TestBlasThreads:
    @pytest.mark.parametrize("name", sorted(BLAS_THREAD_PLANS))
    def test_csv_identical_at_one_and_two_threads(self, tmp_path, name):
        config = tmp_path / "plan.json"
        config.write_text(json.dumps(BLAS_THREAD_PLANS[name]))
        csv_bytes = []
        for threads in ("1", "2"):
            out = tmp_path / f"cells_{threads}.csv"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
            proc = subprocess.run(
                [sys.executable, "-m", "quantcs", "run", "--config", str(config), "--out", str(out)],
                capture_output=True,
                text=True,
                env=env,
                timeout=600,
            )
            assert proc.returncode == 0, proc.stderr
            csv_bytes.append(out.read_bytes())
        assert csv_bytes[0] == csv_bytes[1]


# sha256 of the CSV that `quantcs run` writes for each plan step of perfbench/workloads.py, by master seed, at
# OPENBLAS_NUM_THREADS=1: a change that moves a trial's random stream or a decode's bits moves these, and must
# update them and say so
WORKLOAD_CSVS = {
    0: {
        "dithered_one_bit": "09d0c250c3f09634f4d852bf38a0658834cbf45fb973ed3a96c26dd13ee8b61f",
        "one_bit_gaussian": "2b675faf92b3c07a55dc226b1b9dc0acca9932e7ac60b5804c2efefcccbb6873",
        "corrupted": "4e613779dd2fa24554118150e9b3cb842a0d8c18398968aea4a872c8b5af33cf",
        "l1_ball": "8ee3a30e0dd7de69276dcde5f6ac53686dbff6515aec86a791651f8434575512",
        "low_rank_r1": "48081f438b1b3f6789229c0cbee90cfa3acfe4b690c552e291f5fcfa97f33593",
        "low_rank_r2": "cce3fc7ca22ce1ed283571a62e2c8614ce72407a34220676a01ce4501b70aa99",
        "multi_bit_L4": "fc7c7117da565b577e02b2b610529eeabe9fd58f4515ba8aa3739450ebb78a18",
        "multi_bit_L8": "e4e1ecbf66b072c712ec77542f71918436239978c9317e95599266d90d01bc75",
        "multi_bit_L32": "2248e35e36f56783cf96d15ad1cb50bc6780db14a19d1cb08487be1f46645db0",
    },
    1: {
        "dithered_one_bit": "6eea7474df0b3a1fd5903a8321fc4e20377f2d6337b7302a19a2aeccd8623847",
        "one_bit_gaussian": "2029b2ca7175977fe1fccb7727716eedc683aaa83d0b0bb58339ad7af855d912",
        "corrupted": "36c5fc1facc4aea203e785e10f594e7c87719db08165abc36351bd2d425027fc",
        "l1_ball": "96043041247d37a96a4a16c99fa020c482154a6c1090350019fd83db14ed456e",
        "low_rank_r1": "37a627b5611386bfdbdef243388f2b0de99470235597e2118ea572e48cb8d781",
        "low_rank_r2": "fe86500d6b6503961af283a73dffce7cfde37e8464c72810fd7763e70d2a964c",
        "multi_bit_L4": "e94978d5ee0b509d0d95a003bad4695e47149148dfb5200a41234fba331f534a",
        "multi_bit_L8": "912f5569335453a5304e7d5061f5d162d206a887f43ffa784d210a10f32c3164",
        "multi_bit_L32": "489c06e2ef037faa4bfaa37243084729212eb9b703aedada6c51284101f60240",
    },
}
# runs each plan step of perfbench/workloads.py through quantcs.cli.main at each seed in argv[2:], writing its CSV
# into the directory argv[1]; it imports the workloads' plans and nothing else of the benchmark
WRITE_WORKLOAD_CSVS = """
import json, sys
from pathlib import Path
from perfbench.workloads import WORKLOADS
from quantcs.cli import main
out = Path(sys.argv[1])
for seed in map(int, sys.argv[2:]):
    for step in (s for w in WORKLOADS.values() for s in w.steps if s.plan is not None):
        config = out / f"{step.key}_{seed}.json"
        config.write_text(json.dumps(step.plan_json(seed)))
        assert main(["run", "--config", str(config), "--out", str(out / f"{step.key}_{seed}.csv")]) == 0
"""


class TestWorkloadOutputs:
    def test_workload_csvs_are_pinned(self, tmp_path):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), str(REPO), env.get("PYTHONPATH")]))
        seeds = [str(seed) for seed in WORKLOAD_CSVS]
        proc = subprocess.run(
            [sys.executable, "-c", WRITE_WORKLOAD_CSVS, str(tmp_path), *seeds], capture_output=True, text=True, env=env, timeout=600
        )
        assert proc.returncode == 0, proc.stderr
        got = {}
        for path in tmp_path.glob("*.csv"):
            key, seed = path.stem.rsplit("_", 1)
            got.setdefault(int(seed), {})[key] = hashlib.sha256(path.read_bytes()).hexdigest()
        assert got == WORKLOAD_CSVS


class TestReadme:
    def test_plan_example_runs(self, tmp_path):
        text = (REPO / "README.md").read_text(encoding="utf-8")
        (block,) = re.findall(r"```json\n(.*?)```", text, flags=re.DOTALL)
        plan = json.loads(block)
        plan.update(trials=2, m_grid=plan["m_grid"][:2], iterations=5)
        config = tmp_path / "plan.json"
        config.write_text(json.dumps(plan))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "results.csv")]) == 0
        assert main(["recover", "--config", str(config)]) == 0

    def test_demos_list_names_every_demo(self):
        # the README's Demos list names exactly the scripts in demos/, each once
        text = (REPO / "README.md").read_text(encoding="utf-8")
        section = text.split("\n## Demos\n", 1)[1].split("\n## ", 1)[0]
        listed = re.findall(r"^- `([^`]+\.py)`", section, flags=re.MULTILINE)
        assert sorted(listed) == sorted(p.name for p in (REPO / "demos").glob("*.py"))

    def test_named_calls_exist(self):
        # every backticked call in the README, `name(...)`, names a builtin or an attribute of a quantcs
        # module, and one written with plain arguments, `name(a, b)`, takes that many positional arguments
        text = (REPO / "README.md").read_text(encoding="utf-8")
        names = set(re.findall(r"`(\w+)\(", text))
        modules = [quantcs] + [importlib.import_module(f"quantcs.{m.name}") for m in pkgutil.iter_modules(quantcs.__path__)]
        found = {n: getattr(mod, n) for mod in [builtins, *modules] for n in names if hasattr(mod, n)}
        assert names and sorted(names - set(found)) == []
        misfits = []
        for name, args in re.findall(r"`(\w+)\(((?:\w+(?:, \w+)*)?)\)`", text):
            try:
                inspect.signature(found[name]).bind(*filter(None, args.split(", ")))
            except TypeError:
                misfits.append(f"{name}({args})")
        assert misfits == []
