"""Command-line behaviour: exit codes, artifact determinism, demos."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import smpe
from smpe import gamefile
from smpe.cli import run_command
from smpe.kernels import random_nowak_game


@pytest.fixture()
def game_file(tmp_path):
    _, spec = random_nowak_game(seed=20, n_cells=4, j_components=1, k_atoms=1)
    path = tmp_path / "game.json"
    gamefile.write_game_spec(path, spec)
    return path


def test_solve_then_verify_print_identical_epsilon(game_file, tmp_path, capsys):
    out = tmp_path / "result.json"
    assert run_command(["solve", "--game", str(game_file), "--out", str(out)]) == 0
    solve_line = capsys.readouterr().out.splitlines()[0]
    assert run_command(["verify", "--game", str(game_file), "--result", str(out)]) == 0
    verify_line = capsys.readouterr().out.splitlines()[0]
    assert solve_line == verify_line
    assert solve_line.startswith("epsilon ")


def test_solve_outputs_are_byte_identical(game_file, tmp_path, capsys):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    run_command(["solve", "--game", str(game_file), "--out", str(out1), "--seed", "4"])
    run_command(["solve", "--game", str(game_file), "--out", str(out2), "--seed", "4"])
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_subcommand(game_file, tmp_path, capsys):
    out = tmp_path / "result.json"
    run_command(["solve", "--game", str(game_file), "--out", str(out)])
    capsys.readouterr()
    code = run_command(
        [
            "simulate",
            "--game",
            str(game_file),
            "--result",
            str(out),
            "--paths",
            "500",
            "--seed",
            "9",
            "--truncation",
            "1e-3",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["paths"] == 500 and doc["rng"] == "philox"


def test_verify_refuses_mismatched_pair(game_file, tmp_path, capsys):
    out = tmp_path / "result.json"
    run_command(["solve", "--game", str(game_file), "--out", str(out)])
    _, other = random_nowak_game(seed=21, n_cells=4, j_components=1, k_atoms=1)
    other_path = tmp_path / "other.json"
    gamefile.write_game_spec(other_path, other)
    code = run_command(["verify", "--game", str(other_path), "--result", str(out)])
    capsys.readouterr()
    assert code == 2


def run_cli(args, **env):
    """Run the command line in a fresh interpreter; returns (exit code, stderr)."""
    src = str(Path(smpe.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "smpe.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path, **env},
    )
    return proc.returncode, proc.stderr


@pytest.fixture()
def result_file(game_file, tmp_path, capsys):
    path = tmp_path / "result.json"
    run_command(["solve", "--game", str(game_file), "--out", str(path)])
    capsys.readouterr()
    return path


@pytest.mark.parametrize("fraction", ["half", "nan", "inf"])
def test_non_numeric_fraction_exits_two(game_file, result_file, fraction):
    # a fraction that is no finite number is an input error, not a certificate
    doc = json.loads(result_file.read_text())
    doc["cells"][0]["pieces"][0]["fraction"] = fraction
    result_file.write_text(json.dumps(doc))
    code, err = run_cli(["verify", "--game", str(game_file), "--result", str(result_file)])
    assert code == 2
    assert "fraction" in err and "Traceback" not in err


@pytest.mark.parametrize("field", ["strategy", "value"])
def test_short_piece_array_exits_two(game_file, result_file, field):
    doc = json.loads(result_file.read_text())
    doc["cells"][0]["pieces"][0][field].pop()
    result_file.write_text(json.dumps(doc))
    code, err = run_cli(["verify", "--game", str(game_file), "--result", str(result_file)])
    assert code == 2
    assert field in err and "Traceback" not in err


@pytest.mark.parametrize(
    "strategy", [[-0.5, 1.5], [0.0, 0.5]], ids=["negative", "halved"]
)
def test_off_simplex_strategy_exits_two(game_file, result_file, strategy):
    # a profile off the simplex has no certificate to print
    doc = json.loads(result_file.read_text())
    piece = doc["cells"][0]["pieces"][0]
    assert piece["strategy"][:2] == [0.0, 1.0]
    piece["strategy"][:2] = strategy
    result_file.write_text(json.dumps(doc))
    code, err = run_cli(["verify", "--game", str(game_file), "--result", str(result_file)])
    assert code == 2
    assert "piece 0" in err and "Traceback" not in err


def test_non_integer_thread_count_exits_two(game_file, result_file):
    args = ["simulate", "--game", str(game_file), "--result", str(result_file)]
    args += ["--paths", "100", "--seed", "1", "--truncation", "1e-2"]
    code, err = run_cli(args, SMPE_THREADS="x")
    assert code == 2
    assert "SMPE_THREADS" in err and "Traceback" not in err


@pytest.mark.parametrize("horizon", ["0", "-3"])
def test_simulate_horizon_below_one_exits_two(game_file, result_file, horizon):
    args = ["simulate", "--game", str(game_file), "--result", str(result_file)]
    args += ["--paths", "100", "--seed", "1", "--horizon", horizon]
    code, err = run_cli(args)
    assert code == 2
    assert "horizon" in err and "Traceback" not in err


def test_unknown_flag_exits_two(capsys):
    assert run_command(["solve", "--nonsense"]) == 2
    capsys.readouterr()


def test_missing_file_exits_two(capsys):
    assert run_command(["solve", "--game", "/nonexistent/game.json"]) == 2
    capsys.readouterr()


def test_analyze_coarser_kernel(tmp_path, capsys):
    from smpe.kernels import kernel_matrix, random_noisy_game

    _, spec = random_noisy_game(seed=2, n_h=3, n_r=3)
    path = tmp_path / "kernel.kmtx"
    gamefile.write_kernel_matrix(path, kernel_matrix(spec))
    assert run_command(["analyze", "--kernel", str(path), "--threshold", "1e-8"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "coarser"
    assert all(rank <= 1 for rank in doc["ranks"].values())


def test_demo_prop3_output(capsys):
    assert run_command(["demo", "prop3", "--k", "4"]) == 0
    out = capsys.readouterr().out
    assert "NoSelection confirmed by exhaustive search (65536 patterns)" in out


def test_demo_prop2_output(capsys):
    assert run_command(["demo", "prop2"]) == 0
    out = capsys.readouterr().out
    assert "NoSelection confirmed by exhaustive search" in out


def test_demo_levy_rank_table(capsys):
    assert run_command(["demo", "levy", "--sizes", "8,16", "--m-theta", "0"]) == 0
    doc = json.loads(capsys.readouterr().out.splitlines()[-1])
    table = {row["n"]: row["ranks"] for row in doc["table"]}
    assert table[8] == [4, 4]
    assert table[16] == [8, 8]


def test_demo_noisy(capsys):
    assert run_command(["demo", "noisy", "--seed", "5", "--splits", "8"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["coarser"] and doc["half_splits_ok"] == 8


def test_demo_sunspot(capsys):
    assert run_command(["demo", "sunspot", "--seed", "1", "--cells", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["validated"] and doc["coarser"]
    assert doc["epsilon"] <= 1e-6


def test_demo_nowak(capsys):
    assert run_command(["demo", "nowak", "--seed", "2", "--cells", "6"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["validated"] and doc["epsilon"] <= 1e-6
