"""Game/result file round trips and the kernel-matrix text format."""

import json
import re

import numpy as np
import pytest

from smpe import gamefile
from smpe.errors import ParseError, ValidationError
from smpe.kernels import kernel_matrix, random_noisy_game, random_nowak_game
from smpe.solver import solve


def test_game_round_trip_field_for_field(tmp_path):
    _, spec = random_nowak_game(seed=12, n_cells=5, j_components=2, k_atoms=1)
    path = tmp_path / "game.json"
    gamefile.write_game_spec(path, spec)
    loaded = gamefile.parse_game_spec(path)
    assert loaded.actions == spec.actions
    assert np.array_equal(loaded.discounts, spec.discounts)
    assert np.array_equal(loaded.payoffs, spec.payoffs)
    assert np.array_equal(loaded.kernel.rho, spec.kernel.rho)
    assert np.array_equal(loaded.kernel.q, spec.kernel.q)
    assert np.array_equal(loaded.atom_kernel, spec.atom_kernel)
    assert np.array_equal(
        np.asarray(loaded.space.masses, float), np.asarray(spec.space.masses, float)
    )
    assert gamefile.spec_hash(loaded) == gamefile.spec_hash(spec)


def test_write_is_byte_deterministic(tmp_path):
    _, spec = random_nowak_game(seed=1, n_cells=3, j_components=1, k_atoms=0)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    gamefile.write_game_spec(p1, spec)
    gamefile.write_game_spec(p2, spec)
    assert p1.read_bytes() == p2.read_bytes()


def test_negative_mass_file_fails_validation(tmp_path):
    _, spec = random_nowak_game(seed=2, n_cells=3, j_components=1, k_atoms=0)
    doc = gamefile.spec_to_doc(spec)
    doc["kernel"]["q"][0][0][0][0] = -0.25
    path = tmp_path / "bad.json"
    path.write_bytes(gamefile.canonical_bytes(doc))
    with pytest.raises(ValidationError) as err:
        gamefile.parse_game_spec(path)
    assert "negative kernel component" in str(err.value)


def test_truncated_file_is_parse_error(tmp_path):
    _, spec = random_nowak_game(seed=2, n_cells=3, j_components=1, k_atoms=0)
    path = tmp_path / "trunc.json"
    gamefile.write_game_spec(path, spec)
    path.write_bytes(path.read_bytes()[:100])
    with pytest.raises(ParseError):
        gamefile.parse_game_spec(path)


def test_schema_violation_reports_key_path(tmp_path):
    _, spec = random_nowak_game(seed=2, n_cells=3, j_components=1, k_atoms=0)
    doc = gamefile.spec_to_doc(spec)
    del doc["kernel"]["rho"]
    path = tmp_path / "nokey.json"
    path.write_bytes(gamefile.canonical_bytes(doc))
    with pytest.raises(ParseError) as err:
        gamefile.parse_game_spec(path)
    assert "kernel.rho" in str(err.value)


def test_boolean_feasible_masks_load_like_zero_one_masks():
    _, spec = random_nowak_game(seed=2, n_cells=3, j_components=1, k_atoms=1)
    doc = gamefile.spec_to_doc(spec)
    doc["feasible"][0][1] = [0, 1]
    as_bools = json.loads(json.dumps(doc))
    as_bools["feasible"] = [[[bool(v) for v in row] for row in f] for f in doc["feasible"]]
    loaded = gamefile.spec_from_doc(as_bools)
    assert gamefile.spec_hash(loaded) == gamefile.spec_hash(gamefile.spec_from_doc(doc))
    assert loaded.feasible[0][1].tolist() == [False, True]


@pytest.mark.parametrize(
    "path, value, entry",
    [
        (("grid", "coarse", 1), 0.0, "grid.coarse[1]"),
        (("grid", "coarse", 0), True, "grid.coarse[0]"),
        (("feasible", 1, 0, 0), 2, "feasible[1]"),
        (("feasible", 0, 2, 1), -1, "feasible[0]"),
    ],
)
def test_coerced_grid_or_mask_entry_is_parse_error(path, value, entry):
    _, spec = random_nowak_game(seed=2, n_cells=3, j_components=1, k_atoms=1)
    doc = gamefile.spec_to_doc(spec)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(ParseError, match=re.escape(entry)):
        gamefile.spec_from_doc(doc)


# one entry of every numeric array field of a game document, by field name
NUMERIC_ENTRIES = {
    "discounts": ("discounts", 0),
    "payoffs": ("payoffs", 1, 2, 3),
    "kernel.rho": ("kernel", "rho", 0, 1),
    "kernel.q": ("kernel", "q", 1, 0, 2, 3),
    "atoms.masses": ("atoms", "masses", 0),
    "atoms.kernel": ("atoms", "kernel", 0, 1, 2),
}


def replacements(fields):
    """(field, replace) pairs: the entry as a numeric string, which numpy
    would read as its number, or as a boolean, which numpy reads as 0 or 1;
    the string cases keep the bare field name as their id."""
    cases = [(field, str, field) for field in fields]
    cases += [(field, lambda x: x > 0, f"{field}-bool") for field in fields]
    return [pytest.param(field, replace, id=name) for field, replace, name in cases]


@pytest.mark.parametrize("field, replace", replacements(sorted(NUMERIC_ENTRIES)))
def test_numeric_string_in_game_is_parse_error(field, replace):
    # "0.5" is text and true a boolean, not numbers, though numpy reads them
    _, spec = random_nowak_game(seed=2, n_cells=3, j_components=2, k_atoms=1)
    doc = gamefile.spec_to_doc(spec)
    *keys, last = NUMERIC_ENTRIES[field]
    node = doc
    for key in keys:
        node = node[key]
    node[last] = replace(node[last])
    with pytest.raises(ParseError, match=re.escape(f"{field} must be a numeric array")):
        gamefile.spec_from_doc(doc)


@pytest.mark.parametrize("field, replace", replacements(["strategy", "value"]))
def test_numeric_string_in_result_is_parse_error(tmp_path, field, replace):
    _, spec = random_nowak_game(seed=3, n_cells=4, j_components=1, k_atoms=1)
    doc = gamefile.result_to_doc(solve(spec), spec)
    entries = doc["cells"][1]["pieces"][0][field]
    entries[0] = replace(entries[0])
    path = tmp_path / "result.json"
    path.write_bytes(gamefile.canonical_bytes(doc))
    entry = f"cells[1].pieces[0].{field} must be a numeric array"
    with pytest.raises(ParseError, match=re.escape(entry)):
        gamefile.load_result(path, spec)


def test_result_epsilon_beyond_the_float_range_is_parse_error(tmp_path):
    # 10**400 is a valid JSON integer, but no finite float
    _, spec = random_nowak_game(seed=3, n_cells=4, j_components=1, k_atoms=1)
    doc = gamefile.result_to_doc(solve(spec), spec)
    doc["epsilon"] = 10**400
    path = tmp_path / "result.json"
    path.write_bytes(gamefile.canonical_bytes(doc))
    with pytest.raises(ParseError, match="epsilon must be a finite number"):
        gamefile.load_result(path, spec)


def test_result_round_trip_and_hash_guard(tmp_path):
    _, spec = random_nowak_game(seed=3, n_cells=4, j_components=1, k_atoms=1)
    result = solve(spec)
    path = tmp_path / "result.json"
    gamefile.write_result(path, result, spec)
    loaded = gamefile.load_result(path, spec)
    assert loaded.epsilon == result.epsilon
    for k in range(spec.n_states):
        for p_old, p_new in zip(result.values.pieces[k], loaded.values.pieces[k]):
            assert float(p_old.fraction) == p_new.fraction
            assert np.array_equal(np.asarray(p_old.value, float), p_new.value)
    _, other = random_nowak_game(seed=4, n_cells=4, j_components=1, k_atoms=1)
    with pytest.raises(ValidationError):
        gamefile.load_result(path, other)


def test_result_fractions_are_decimal_strings(tmp_path):
    _, spec = random_nowak_game(seed=3, n_cells=4, j_components=1, k_atoms=1)
    result = solve(spec)
    path = tmp_path / "result.json"
    gamefile.write_result(path, result, spec)
    doc = json.loads(path.read_text())
    fractions = [
        piece["fraction"] for cell in doc["cells"] for piece in cell["pieces"]
    ]
    assert fractions and all(isinstance(f, str) for f in fractions)


def test_kernel_matrix_text_round_trip(tmp_path):
    _, spec = random_noisy_game(seed=6, n_h=3, n_r=2)
    kmtx = kernel_matrix(spec)
    path = tmp_path / "kernel.kmtx"
    gamefile.write_kernel_matrix(path, kmtx)
    loaded = gamefile.read_kernel_matrix(path)
    assert np.array_equal(loaded.matrix, kmtx.matrix)
    assert np.array_equal(loaded.rows, kmtx.rows)
    assert np.array_equal(loaded.columns, kmtx.columns)
    assert np.array_equal(
        np.asarray(loaded.space.masses, float), np.asarray(kmtx.space.masses, float)
    )


def test_kernel_matrix_rejects_garbage(tmp_path):
    path = tmp_path / "bad.kmtx"
    path.write_text("not a kernel matrix\n")
    with pytest.raises(ParseError):
        gamefile.read_kernel_matrix(path)
