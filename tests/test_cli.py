"""Command-line behaviour: exit codes, artifact determinism, demos."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import smpe
from smpe import gamefile
from smpe.cli import run_command
from smpe.kernels import random_nowak_game
from smpe.verify import deviation_residual

from helpers import four_player_game, single_atom_game


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


@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_fractions_not_summing_to_one_exit_two(game_file, result_file, command):
    # a halved piece no longer covers its cell: no profile to certify or play
    doc = json.loads(result_file.read_text())
    assert [p["fraction"] for p in doc["cells"][0]["pieces"]] == ["1"]
    doc["cells"][0]["pieces"][0]["fraction"] = "0.5"
    result_file.write_text(json.dumps(doc))
    code, err = run_cli([command, "--game", str(game_file), "--result", str(result_file)])
    assert code == 2
    assert "cell 0 fractions" in err and "Traceback" not in err


def test_verify_names_the_piece_that_attains_epsilon(game_file, result_file, tmp_path, capsys):
    # player 0 leaves cell 0's equilibrium action, so cell 0 carries epsilon
    doc = json.loads(result_file.read_text())
    strategy = doc["cells"][0]["pieces"][0]["strategy"]
    strategy[:2] = strategy[1::-1]
    result_file.write_text(json.dumps(doc))
    cert_file = tmp_path / "cert.json"
    args = ["verify", "--game", str(game_file), "--result", str(result_file)]
    assert run_command(args + ["--out", str(cert_file)]) == 0
    lines = capsys.readouterr().out.splitlines()
    spec = gamefile.parse_game_spec(game_file)
    cert = deviation_residual(gamefile.load_result(result_file, spec), spec)
    assert cert.epsilon > 0.01
    assert lines[:2] == [
        f"epsilon {cert.epsilon!r}",
        f"recursion_residual {cert.recursion_residual!r}",
    ]
    assert cert_file.read_bytes() == gamefile.canonical_bytes(
        gamefile.certificate_to_doc(cert, spec)
    )
    words = lines[2].split()
    assert words[0] == "attained_by" and words[1::2] == ["cell", "piece", "player"]
    cell, piece, player = int(words[2]), int(words[4]), int(words[6])
    assert cell == 0
    assert cert.gains[cert.piece_labels.index((cell, piece)), player] == cert.epsilon


@pytest.mark.parametrize("field", ["strategy", "value"])
def test_short_piece_array_exits_two(game_file, result_file, field):
    doc = json.loads(result_file.read_text())
    doc["cells"][0]["pieces"][0][field].pop()
    result_file.write_text(json.dumps(doc))
    code, err = run_cli(["verify", "--game", str(game_file), "--result", str(result_file)])
    assert code == 2
    assert field in err and "Traceback" not in err


@pytest.mark.parametrize("damage", ["missing", "truncated"])
def test_unreadable_result_file_exits_two(game_file, result_file, damage):
    if damage == "missing":
        result_file.unlink()
    else:
        result_file.write_bytes(result_file.read_bytes()[:40])
    code, err = run_cli(["verify", "--game", str(game_file), "--result", str(result_file)])
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(result_file) in err


@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_cell_without_pieces_exits_two(game_file, result_file, command):
    doc = json.loads(result_file.read_text())
    doc["cells"][0]["pieces"] = []
    result_file.write_text(json.dumps(doc))
    code, err = run_cli([command, "--game", str(game_file), "--result", str(result_file)])
    assert code == 2
    assert "pieces" in err and "Traceback" not in err


MALFORMED_GAMES = {
    "int-actions": lambda doc: {**doc, "actions": [2] * len(doc["actions"])},
    "string-actions": lambda doc: {**doc, "actions": ["ab"] * len(doc["actions"])},
    "2d-discounts": lambda doc: {**doc, "discounts": [[b] for b in doc["discounts"]]},
}


@pytest.mark.parametrize("command", ["solve", "verify", "simulate"])
@pytest.mark.parametrize("damage", sorted(MALFORMED_GAMES))
def test_malformed_game_document_exits_two(game_file, result_file, tmp_path, command, damage):
    # actions must be lists of labels and discounts one number per player,
    # before any of it reaches the solver or the verifier
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(MALFORMED_GAMES[damage](json.loads(game_file.read_text()))))
    args = [command, "--game", str(bad)]
    if command != "solve":
        args += ["--result", str(result_file)]
    code, err = run_cli(args)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert ("discounts" if damage == "2d-discounts" else "actions[0]") in err
    assert "Traceback" not in err


def _set_entry(doc, path, value):
    """``doc`` with the entry at the key/index ``path`` replaced by ``value``."""
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


# entries numpy would coerce: coarse 0.9 and "0" read as 0, feasible 0.5 as
# true, payoff "0.5" as 0.5 and true as 1.0; and valid JSON integers beyond
# the float range, which float() cannot convert
COERCED_GAMES = {
    "float-coarse": (("grid", "coarse", 3), 0.9, "grid.coarse[3]"),
    "string-coarse": (("grid", "coarse", 0), "0", "grid.coarse[0]"),
    "fractional-feasible": (("feasible", 0, 0, 0), 0.5, "feasible[0]"),
    "string-feasible": (("feasible", 1, 2, 1), "1", "feasible[1]"),
    "string-payoff": (("payoffs", 0, 1, 2), "0.5", "payoffs"),
    "bool-payoff": (("payoffs", 0, 0, 0), True, "payoffs"),
    "huge-mass": (("grid", "cells", 0, "mass"), 10**400, "grid.cells[0].mass"),
    "huge-payoff-bound": (("payoff_bound",), 10**400, "payoff_bound"),
}


@pytest.mark.parametrize("command", ["solve", "verify", "simulate"])
@pytest.mark.parametrize("damage", sorted(COERCED_GAMES))
def test_coerced_game_entry_exits_two(game_file, result_file, tmp_path, command, damage):
    path, value, entry = COERCED_GAMES[damage]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_set_entry(json.loads(game_file.read_text()), path, value)))
    args = [command, "--game", str(bad)]
    if command != "solve":
        args += ["--result", str(result_file)]
    if command == "simulate":
        args += ["--horizon", "5"]  # so that only the game entry can fail
    code, err = run_cli(args)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert entry in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--game", "{game}", "--out", "{out}"],
        ["verify", "--game", "{game}", "--result", "{result}", "--out", "{out}"],
        ["simulate", "--game", "{game}", "--result", "{result}"]
        + ["--horizon", "5", "--out", "{out}"],
        ["demo", "nowak", "--seed", "2", "--cells", "6", "--out", "{out}"],
        ["demo", "levy", "--sizes", "8", "--out-kernel", "{out}"],
    ],
    ids=["solve", "verify", "simulate", "demo-nowak", "demo-levy"],
)
def test_unwritable_output_path_exits_two(game_file, result_file, tmp_path, argv):
    # an output inside a missing directory is an input error, not a crash
    out = tmp_path / "missing" / "out"
    names = {"game": game_file, "result": result_file, "out": out}
    code, err = run_cli([a.format(**names) for a in argv])
    assert code == 2
    assert err.startswith(f"error: cannot write {out}") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--tol", "-1"),
        ("--max-iter", "0"),
        ("--damping", "2"),
        ("--restarts", "-1"),
        ("--eps-target", "-1"),
        ("--seed", "-1"),
        ("--seed", str(2**70)),
    ],
)
def test_out_of_range_solver_option_exits_two(game_file, tmp_path, flag, value):
    out = tmp_path / "result.json"
    code, err = run_cli(["solve", "--game", str(game_file), "--out", str(out), flag, value])
    assert code == 2
    assert flag[2:].replace("-", "_") in err and "Traceback" not in err
    assert not out.exists()


def test_stage_game_without_certified_result_exits_one(tmp_path):
    # regret matching stalls at eps 0.0032 on this 5x5 atom game, above its
    # 1e-3 target, so no attempt is certified and nothing is written
    rng = np.random.default_rng(0)
    rng.uniform(-1, 1, (2, 5, 5))  # the first pair of 5x5 matrices is skipped
    payoffs = rng.uniform(-1, 1, (2, 5, 5)).reshape(2, 25)
    game, out = tmp_path / "game.json", tmp_path / "result.json"
    gamefile.write_game_spec(game, single_atom_game(payoffs, [0.6, 0.5]))
    code, err = run_cli(["solve", "--game", str(game), "--out", str(out)])
    assert code == 1
    assert err.startswith("no convergence: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


def test_four_player_game_solves(tmp_path):
    # beyond three players every stage game runs regret matching
    game, out = tmp_path / "game.json", tmp_path / "result.json"
    gamefile.write_game_spec(game, four_player_game())
    code, err = run_cli(["solve", "--game", str(game), "--out", str(out)])
    assert code == 0 and err == ""
    assert out.exists()


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


@pytest.mark.parametrize(
    "header, old, new",
    [
        ("row-cells", "8", "99"),
        ("row-cells", "0", "-1"),
        ("col-states", "8", "9"),
    ],
)
def test_analyze_label_outside_the_grid_exits_two(tmp_path, capsys, header, old, new):
    from smpe.kernels import kernel_matrix, random_noisy_game

    _, spec = random_noisy_game(seed=2, n_h=3, n_r=3)
    path = tmp_path / "kernel.kmtx"
    gamefile.write_kernel_matrix(path, kernel_matrix(spec))
    lines = path.read_text().splitlines()
    for idx, line in enumerate(lines):
        if line.startswith(f"# {header} "):
            labels = line.split()
            labels[labels.index(old)] = new
            lines[idx] = " ".join(labels)
    path.write_text("\n".join(lines) + "\n")
    assert run_command(["analyze", "--kernel", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "must lie in [0, 9)" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["levy", "--sizes", "8,abc"],
        ["levy", "--sizes", ""],
        ["nowak", "--k", "-1"],
        ["noisy", "--h", "0"],
        ["noisy", "--h", "-1"],
        ["noisy", "--r", "0"],
        ["noisy", "--splits", "-1"],
        ["sunspot", "--cells", "-3"],
        ["prop3", "--k", "0"],
        ["nowak", "--seed", "-1"],
        ["noisy", "--seed", "-1"],
        ["sunspot", "--seed", "-1"],
    ],
)
def test_demo_bad_size_argument_exits_two(capsys, argv):
    assert run_command(["demo", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


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
