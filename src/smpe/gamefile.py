"""Game, result and certificate files, plus dense kernel-matrix text IO.

Game specs live in a JSON document with explicit numeric tables. All
writers emit canonical bytes (sorted keys, fixed separators, shortest
round-trip float repr), so identical inputs produce identical files.
Result files embed the hash of the game they were computed from;
consumers refuse mismatched pairs.
"""

from __future__ import annotations

import hashlib
import json
import sys

import numpy as np

from .errors import InvalidInput, ParseError, ValidationError
from .game import KernelDecomposition, StochasticGameSpec, validate_game
from .kernels import KernelMatrix
from .measure import GridSpace, Piece, SplitSelection

FORMAT_VERSION = 1


def canonical_bytes(doc) -> bytes:
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


def _require(doc, key, kind, path):
    if not isinstance(doc, dict) or key not in doc:
        raise ParseError(f"missing key {path}{key}")
    value = doc[key]
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ParseError(f"{path}{key} must be a number")
        if not abs(value) <= sys.float_info.max:  # 10**400 is a valid JSON integer
            raise ParseError(f"{path}{key} must be a finite number")
        return float(value)
    if kind is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ParseError(f"{path}{key} must be an integer")
        return value
    if not isinstance(value, kind):
        raise ParseError(f"{path}{key} must be {kind.__name__}")
    return value


def _decimal(doc, key, path):
    text = _require(doc, key, str, path)
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"{path}{key} must be a decimal string, got {text!r}") from None
    if not np.isfinite(value):
        raise ParseError(f"{path}{key} must be finite, got {text!r}")
    return value


def _number_array(value, path, shape=None, bools=False):
    """``value`` as floats; JSON numbers only, and booleans only where
    ``bools``, never strings."""
    try:
        arr = np.asarray(value)
        if arr.dtype.kind not in "biuf":
            raise ValueError
        # numpy reads [true, 0.5] as floats, so look at the leaves themselves
        if not bools and bool in set(map(type, np.asarray(value, dtype=object).flat)):
            raise ValueError
    except ValueError:  # a ragged nesting, a string, a boolean, null or an object
        raise ParseError(f"{path} must be a numeric array") from None
    arr = arr.astype(float)
    if shape is not None and arr.shape != shape:
        if arr.size == 0 and 0 in shape:
            return np.zeros(shape)  # empty blocks lose their shape in JSON
        raise ParseError(f"{path} must have shape {shape}, got {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ParseError(f"{path} contains non-finite numbers")
    return arr


def _mask_array(value, path, shape):
    """A boolean mask written with 0, 1, true and false only."""
    arr = _number_array(value, path, shape, bools=True)
    if not np.all((arr == 0) | (arr == 1)):
        raise ParseError(f"{path} entries must be 0, 1, true or false")
    return arr.astype(bool)


def spec_to_doc(spec: StochasticGameSpec) -> dict:
    atoms = spec.space.atom_indices
    return {
        "version": FORMAT_VERSION,
        "players": spec.players,
        "discounts": [float(b) for b in spec.discounts],
        "grid": {
            "cells": [
                {"mass": float(spec.space.masses[k]), "divisible": bool(spec.space.divisible[k])}
                for k in range(spec.space.n_cells)
            ],
            "coarse": [int(e) for e in spec.space.coarse],
        },
        "actions": [list(a) for a in spec.actions],
        "feasible": [f.astype(int).tolist() for f in spec.feasible],
        "payoffs": spec.payoffs.tolist(),
        "payoff_bound": float(spec.payoff_bound),
        "kernel": {
            "J": spec.kernel.n_components,
            "rho": spec.kernel.rho.tolist(),
            "q": spec.kernel.q.tolist(),
        },
        "atoms": {
            "masses": [float(spec.space.masses[k]) for k in atoms],
            "kernel": spec.atom_kernel.tolist(),
        },
    }


def spec_hash(spec: StochasticGameSpec) -> str:
    return hashlib.sha256(canonical_bytes(spec_to_doc(spec))).hexdigest()


def spec_from_doc(doc) -> StochasticGameSpec:
    if not isinstance(doc, dict):
        raise ParseError("game document must be an object")
    version = _require(doc, "version", int, "")
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported version {version}")
    players = _require(doc, "players", int, "")
    discounts = _number_array(_require(doc, "discounts", list, ""), "discounts", (players,))
    grid = _require(doc, "grid", dict, "")
    cells = _require(grid, "cells", list, "grid.")
    masses, divisible = [], []
    for k, cell in enumerate(cells):
        masses.append(_require(cell, "mass", float, f"grid.cells[{k}]."))
        div = _require(cell, "divisible", bool, f"grid.cells[{k}].")
        divisible.append(div)
    coarse = _require(grid, "coarse", list, "grid.")
    if len(coarse) != len(cells):
        raise ParseError("grid.coarse must assign one coarse id per cell")
    for k, e in enumerate(coarse):
        if not isinstance(e, int) or isinstance(e, bool):
            raise ParseError(f"grid.coarse[{k}] must be an integer, got {e!r}")
    try:
        space = GridSpace(
            np.asarray(masses, dtype=float),
            np.asarray(divisible, dtype=bool),
            np.asarray(coarse, dtype=int),
        )
    except Exception as exc:
        raise ParseError(f"grid: {exc}") from None
    actions = _require(doc, "actions", list, "")
    if len(actions) != players:
        raise ParseError("actions must list one action list per player")
    for i, acts in enumerate(actions):
        if not isinstance(acts, list):
            raise ParseError(f"actions[{i}] must be a list of action labels")
    actions = tuple(tuple(str(a) for a in acts) for acts in actions)
    n_states = space.n_cells
    n_profiles = int(np.prod([len(a) for a in actions]))
    feas_doc = _require(doc, "feasible", list, "")
    if len(feas_doc) != players:
        raise ParseError("feasible must list one mask per player")
    feasible = tuple(
        _mask_array(feas_doc[i], f"feasible[{i}]", (n_states, len(actions[i])))
        for i in range(players)
    )
    payoffs = _number_array(
        _require(doc, "payoffs", list, ""), "payoffs", (players, n_states, n_profiles)
    )
    payoff_bound = _require(doc, "payoff_bound", float, "")
    kernel_doc = _require(doc, "kernel", dict, "")
    j = _require(kernel_doc, "J", int, "kernel.")
    rho = _number_array(_require(kernel_doc, "rho", list, "kernel."), "kernel.rho", (j, n_states))
    q = _number_array(
        _require(kernel_doc, "q", list, "kernel."),
        "kernel.q",
        (j, space.n_coarse, n_states, n_profiles),
    )
    atoms_doc = _require(doc, "atoms", dict, "")
    atom_ids = space.atom_indices
    atom_masses = _number_array(
        _require(atoms_doc, "masses", list, "atoms."), "atoms.masses", (len(atom_ids),)
    )
    declared = np.asarray([space.masses[k] for k in atom_ids], dtype=float)
    if len(atom_ids) and np.max(np.abs(atom_masses - declared)) > 1e-12:
        raise ParseError("atoms.masses disagree with the atomic grid cells")
    atom_kernel = _number_array(
        _require(atoms_doc, "kernel", list, "atoms."),
        "atoms.kernel",
        (len(atom_ids), n_states, n_profiles),
    )
    try:
        return StochasticGameSpec(
            discounts=discounts,
            actions=actions,
            feasible=feasible,
            payoffs=payoffs,
            payoff_bound=payoff_bound,
            space=space,
            kernel=KernelDecomposition(rho=rho, q=q),
            atom_kernel=atom_kernel,
        )
    except Exception as exc:
        raise ParseError(str(exc)) from None


def write_bytes(path, data: bytes) -> None:
    """Write ``data`` to ``path``, the one write path of every output
    file; a path that cannot be written is an :class:`InvalidInput`."""
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise InvalidInput(f"cannot write {path}: {exc.strerror or exc}") from None


def write_game_spec(path, spec: StochasticGameSpec) -> None:
    write_bytes(path, canonical_bytes(spec_to_doc(spec)))


def _read_json(path):
    """The JSON document at ``path``; an unreadable or malformed file is a ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None


def parse_game_spec(path) -> StochasticGameSpec:
    """Read, schema-check and semantically validate a game file."""
    spec = spec_from_doc(_read_json(path))
    report = validate_game(spec)
    if not report.passed:
        raise ValidationError("; ".join(report.violations), report=report)
    return spec


# ---------------------------------------------------------------------------
# Results and certificates.


def _fraction_string(value) -> str:
    return format(float(value), ".17g")


def result_to_doc(result, spec: StochasticGameSpec) -> dict:
    cells = []
    for k in range(result.values.n_cells):
        pieces = []
        for vp, sp in zip(result.values.pieces[k], result.strategies.pieces[k]):
            pieces.append(
                {
                    "fraction": _fraction_string(vp.fraction),
                    "value": [float(v) for v in vp.value],
                    "strategy": [float(v) for v in sp.value],
                }
            )
        cells.append({"pieces": pieces})
    return {
        "version": FORMAT_VERSION,
        "kind": "result",
        "spec_hash": spec_hash(spec),
        "epsilon": float(result.epsilon),
        "diagnostics": result.diagnostics,
        "cells": cells,
    }


def write_result(path, result, spec) -> None:
    write_bytes(path, canonical_bytes(result_to_doc(result, spec)))


def load_result(path, spec: StochasticGameSpec):
    from .solver import EquilibriumResult  # deferred: results are solver types

    doc = _read_json(path)
    if not isinstance(doc, dict) or doc.get("kind") != "result":
        raise ParseError("not a result document")
    if doc.get("spec_hash") != spec_hash(spec):
        raise ValidationError(
            "result was computed from a different game (spec hash mismatch)"
        )
    cells = _require(doc, "cells", list, "")
    if len(cells) != spec.n_states:
        raise ParseError("cells must cover every state")
    n_strategy = sum(len(a) for a in spec.actions)
    value_pieces, strategy_pieces = [], []
    for k, cell in enumerate(cells):
        pieces = _require(cell, "pieces", list, f"cells[{k}].")
        if not pieces:
            raise ParseError(f"cells[{k}].pieces must not be empty")
        v_parts, s_parts = [], []
        for p, piece in enumerate(pieces):
            where = f"cells[{k}].pieces[{p}]."
            frac = _decimal(piece, "fraction", where)
            value = _number_array(piece.get("value"), where + "value", (spec.players,))
            strategy = _number_array(piece.get("strategy"), where + "strategy", (n_strategy,))
            v_parts.append(Piece(frac, value))
            s_parts.append(Piece(frac, strategy))
        value_pieces.append(tuple(v_parts))
        strategy_pieces.append(tuple(s_parts))
    return EquilibriumResult(
        values=SplitSelection(tuple(value_pieces)),
        strategies=SplitSelection(tuple(strategy_pieces)),
        epsilon=float(_require(doc, "epsilon", float, "")),
        diagnostics=doc.get("diagnostics", {}),
    )


def certificate_to_doc(cert, spec: StochasticGameSpec) -> dict:
    doc = {
        "version": FORMAT_VERSION,
        "kind": "certificate",
        "spec_hash": spec_hash(spec),
        "epsilon": float(cert.epsilon),
        "recursion_residual": float(cert.recursion_residual),
        "gains": np.asarray(cert.gains, dtype=float).tolist(),
        "piece_labels": [[int(k), int(p)] for k, p in cert.piece_labels],
        "simulation": None,
    }
    if cert.simulation is not None:
        doc["simulation"] = simulation_to_doc(cert.simulation)
    return doc


def simulation_to_doc(report) -> dict:
    return {
        "means": [float(v) for v in report.means],
        "std_errors": [float(v) for v in report.std_errors],
        "paths": int(report.paths),
        "seed": int(report.seed),
        "horizon": int(report.horizon),
        "truncation_bound": float(report.truncation_bound),
        "initial_state": int(report.initial_state),
        "occupancy": [float(v) for v in report.occupancy],
        "rng": report.rng,
    }


# ---------------------------------------------------------------------------
# Dense kernel-matrix text format.


def write_kernel_matrix(path, kmtx: KernelMatrix) -> None:
    space = kmtx.space
    lines = [
        "# kernel-matrix 1",
        f"# rows {kmtx.matrix.shape[0]} cols {kmtx.matrix.shape[1]}",
        "# space-masses " + " ".join(format(float(m), ".17g") for m in space.masses),
        "# space-divisible " + " ".join("1" if d else "0" for d in space.divisible),
        "# space-coarse " + " ".join(str(int(e)) for e in space.coarse),
        "# row-cells " + " ".join(str(int(r)) for r in kmtx.rows),
        "# col-states " + " ".join(str(int(s)) for s, _ in kmtx.columns),
        "# col-profiles " + " ".join(str(int(p)) for _, p in kmtx.columns),
    ]
    for row in kmtx.matrix:
        lines.append(" ".join(format(float(v), ".17g") for v in row))
    write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))


def read_kernel_matrix(path) -> KernelMatrix:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    if not lines or lines[0].strip() != "# kernel-matrix 1":
        raise ParseError("not a kernel-matrix file")
    header = {}
    data_start = None
    for idx, line in enumerate(lines[1:], start=1):
        if not line.startswith("#"):
            data_start = idx
            break
        parts = line[1:].split()
        if parts and parts[0] == "rows":
            try:
                header["rows"], header["cols"] = int(parts[1]), int(parts[3])
            except (IndexError, ValueError):
                raise ParseError(f"line {idx + 1}: malformed shape header") from None
        elif parts:
            header[parts[0]] = parts[1:]
    required = ["rows", "space-masses", "space-divisible", "space-coarse",
                "row-cells", "col-states", "col-profiles"]
    for key in required:
        if key not in header:
            raise ParseError(f"missing header {key}")
    if data_start is None:
        raise ParseError("no matrix rows found")
    try:
        masses = np.array([float(v) for v in header["space-masses"]])
        divisible = np.array([v == "1" for v in header["space-divisible"]])
        coarse = np.array([int(v) for v in header["space-coarse"]])
        rows = np.array([int(v) for v in header["row-cells"]])
        col_states = [int(v) for v in header["col-states"]]
        col_profiles = [int(v) for v in header["col-profiles"]]
        matrix = np.array(
            [[float(v) for v in line.split()] for line in lines[data_start:] if line.strip()]
        )
    except ValueError as exc:
        raise ParseError(f"malformed kernel matrix: {exc}") from None
    if matrix.shape != (header["rows"], header["cols"]):
        raise ParseError(
            f"matrix shape {matrix.shape} disagrees with header "
            f"({header['rows']}, {header['cols']})"
        )
    space = GridSpace(masses, divisible, coarse)
    columns = np.array(list(zip(col_states, col_profiles)), dtype=int)
    return KernelMatrix(matrix=matrix, space=space, rows=rows, columns=columns)
