"""Game, result and certificate files, plus dense kernel-matrix text IO.

Game specs live in a JSON document with explicit numeric tables. All
writers emit canonical bytes (sorted keys, fixed separators, shortest
round-trip float repr), so identical inputs produce identical files.
Result files embed the hash of the game they were computed from;
consumers refuse mismatched pairs.

Each document kind is read by one schema table (``GAME_SCHEMA``,
``RESULT_SCHEMA``) and one walker, :func:`_walk`. A row ``(path, kind,
*shape)`` reads every entry its path names (``grid.cells[].mass``: a key
of an object, ``[]`` every item of a list; ``?`` at the end when it may be
absent) as a JSON kind, or as a numeric array read whole: JSON numbers
only, never strings or booleans, and for a mask 0, 1, true and false. The
shape (a list's length, an array's shape, an index's bound) names sizes
read so far. A ParseError names the path of the first entry that breaks
its row. The version, the atom masses and a result's game hash, which
gives the sizes, are checked in code.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys

import numpy as np

from .errors import InvalidInput, ParseError, ValidationError
from .game import KernelDecomposition, StochasticGameSpec, validate_game
from .kernels import KernelMatrix
from .measure import GridSpace, SplitSelection

FORMAT_VERSION = 1


def canonical_bytes(doc) -> bytes:
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


GAME_SCHEMA = (
    ("version", "integer"),
    ("players", "integer"),
    ("discounts", "numbers", "players"),
    ("grid.cells", "list"),
    ("grid.cells[].mass", "number"),
    ("grid.cells[].divisible", "boolean"),
    ("grid.coarse", "list", "grid.cells"),
    ("grid.coarse[]", "integer", "grid.cells"),
    ("actions", "list", "players"),
    ("actions[]", "list"),
    ("actions[][]", "string"),
    ("feasible", "list", "players"),
    ("feasible[]", "mask", "grid.cells", "actions"),
    ("payoffs", "numbers", "players", "grid.cells", "profiles"),
    ("payoff_bound", "number"),
    ("kernel.J", "integer"),
    ("kernel.rho", "numbers", "kernel.J", "grid.cells"),
    ("kernel.q", "numbers", "kernel.J", "coarse", "grid.cells", "profiles"),
    ("atoms.masses", "numbers", "atoms"),
    ("atoms.kernel", "numbers", "atoms", "grid.cells", "profiles"),
)
GAME_SIZES = {
    "actions": lambda got, at: len(got["actions[]"][at[0]]),  # of the mask's own player
    "profiles": lambda got, at: math.prod(map(len, got["actions[]"])),
    "coarse": lambda got, at: len(set(got["grid.coarse[]"])),
    "atoms": lambda got, at: got["grid.cells[].divisible"].count(False),
}
# a result's sizes are its game's: "players", "states" and "strategy"
RESULT_SCHEMA = (
    ("version", "integer"),
    ("epsilon", "number"),
    ("diagnostics?", "object"),
    ("cells", "list", "states"),
    ("cells[].pieces", "list"),
    ("cells[].pieces[].fraction", "decimal string"),
    ("cells[].pieces[].value", "numbers", "players"),
    ("cells[].pieces[].strategy", "numbers", "strategy"),
)
_JSON_KINDS = {"object": dict, "list": list, "string": str, "boolean": bool, "integer": int,
               "number": (int, float), "decimal string": str}


def _walk(doc, schema, sizes):
    """``doc`` read row by row into {path: value}, a path under "[]" holding
    its entries' values in document order; the first entry that breaks its
    row, or a step that finds no object or list, is a ParseError naming it."""
    found = {"": [("", (), doc)]}  # path -> [(name, list indices, JSON value)]
    got = {}

    def match(path, optional=False):
        if path not in found:
            head, _, key = (path[:-2], "", None) if path.endswith("[]") else path.rpartition(".")
            found[path] = []
            for name, at, node in match(head):
                _read(node, "list" if key is None else "object", name or "document", ())
                if key is None:
                    found[path] += [(f"{name}[{i}]", at + (i,), v) for i, v in enumerate(node)]
                elif key in node:
                    found[path].append((f"{name}.{key}" if name else key, at, node[key]))
                elif not optional:
                    raise ParseError(f"missing key {name}.{key}" if name else f"missing key {key}")
        return found[path]

    def size(name, at):
        n = sizes.get(name, got.get(name))
        n = n(got, at) if callable(n) else n
        return n if isinstance(n, int) else len(n)

    for row, kind, *shape in schema:
        path = row.rstrip("?")
        values = [
            _read(value, kind, name, tuple(size(s, at) for s in shape))
            for name, at, value in match(path, row.endswith("?"))
        ]
        got[path] = values if "[]" in path else values[0] if values else None
    return got


def _read(value, kind, name, shape):
    """One entry as its row's kind and shape; numeric kinds take JSON
    numbers only, never strings or booleans."""
    if kind in ("numbers", "mask"):
        return _array(value, name, shape, kind == "mask")
    if not isinstance(value, _JSON_KINDS[kind]) or (isinstance(value, bool) and kind != "boolean"):
        raise ParseError(f"{name} must be {'an' if kind[0] in 'aeiou' else 'a'} {kind}")
    if shape and kind == "list" and len(value) != shape[0]:
        raise ParseError(f"{name} must have {shape[0]} entries, got {len(value)}")
    if shape and kind == "integer" and not 0 <= value < shape[0]:  # an index
        raise ParseError(f"{name} must lie in [0, {shape[0]})")
    if kind == "number" and not abs(value) <= sys.float_info.max:  # 10**400 is a JSON integer
        raise ParseError(f"{name} must be a finite number")
    if kind == "decimal string":
        try:
            number = float(value)
        except ValueError:
            number = math.nan
        if not math.isfinite(number):
            raise ParseError(f"{name} must be a finite decimal string, got {value!r}")
        return number
    return float(value) if kind == "number" else value


def _array(value, name, shape, mask):
    """A numeric array of ``shape``, as booleans for a mask, else floats."""
    try:
        arr = np.asarray(value)  # which reads [true, 0.5] as floats, so look at the leaves
        leaves = set(map(type, np.asarray(value, dtype=object).flat))
        if arr.dtype.kind not in "biuf" or bool in leaves and not mask:
            raise ValueError
    except ValueError:  # a ragged nesting, a string, a boolean, null, an object or 10**400
        raise ParseError(f"{name} must be a numeric array") from None
    arr = arr.astype(float)
    if arr.shape != shape:  # empty blocks lose their shape in JSON
        if arr.size or 0 not in shape or not all(0 <= n < 2**31 for n in shape):
            raise ParseError(f"{name} must have shape {shape}, got {arr.shape}")
        arr = np.zeros(shape)
    if not np.isfinite(arr).all():
        raise ParseError(f"{name} contains non-finite numbers")
    if mask and not np.all((arr == 0) | (arr == 1)):
        raise ParseError(f"{name} entries must be 0, 1, true or false")
    return arr.astype(bool) if mask else arr


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
    got = _walk(doc, GAME_SCHEMA, GAME_SIZES)
    if got["version"] != FORMAT_VERSION:
        raise ParseError(f"unsupported version {got['version']}")
    masses, divisible = got["grid.cells[].mass"], got["grid.cells[].divisible"]
    declared = np.array([m for m, d in zip(masses, divisible) if not d])
    if len(declared) and np.max(np.abs(got["atoms.masses"] - declared)) > 1e-12:
        raise ParseError("atoms.masses disagree with the atomic grid cells")
    try:  # positional in field order: discounts, actions, feasible, payoffs, ...
        return StochasticGameSpec(
            got["discounts"], got["actions[]"], got["feasible[]"], got["payoffs"],
            got["payoff_bound"], GridSpace(masses, divisible, got["grid.coarse[]"]),
            KernelDecomposition(got["kernel.rho"], got["kernel.q"]), got["atoms.kernel"],
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


def _read_text(path, parse):
    """``parse`` of the text of the UTF-8 file at ``path``; an unreadable
    file, or one that is not UTF-8 or that ``parse`` refuses, is a ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # not JSON or UTF-8, too deep, 5000 digits
        raise ParseError(f"{path}: {exc}") from None


def parse_game_spec(path) -> StochasticGameSpec:
    """Read, schema-check and semantically validate a game file."""
    spec = spec_from_doc(_read_text(path, json.loads))
    report = validate_game(spec)
    if not report.passed:
        raise ValidationError("; ".join(report.violations), report=report)
    return spec


# ---------------------------------------------------------------------------
# Results and certificates.


def _fraction_string(value) -> str:
    return format(float(value), ".17g")


def result_to_doc(result, spec: StochasticGameSpec) -> dict:
    values, strategies = result.values, result.strategies
    start, fraction = values.start, values.fraction
    value, strategy = (np.asarray(t.value, float).tolist() for t in (values, strategies))
    pieces = [
        {"fraction": _fraction_string(f), "value": v, "strategy": s}
        for f, v, s in zip(fraction, value, strategy)
    ]
    cells = [{"pieces": pieces[lo:hi]} for lo, hi in zip(start[:-1], start[1:])]
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


def result_from_doc(doc, spec: StochasticGameSpec):
    from .solver import EquilibriumResult  # deferred: results are solver types

    if not isinstance(doc, dict) or doc.get("kind") != "result":
        raise ParseError("not a result document")
    if doc.get("spec_hash") != spec_hash(spec):
        raise ValidationError("result was computed from a different game (spec hash mismatch)")
    sizes = dict(players=spec.players, states=spec.n_states, strategy=sum(map(len, spec.actions)))
    got = _walk(doc, RESULT_SCHEMA, sizes)
    if got["version"] != FORMAT_VERSION:
        raise ParseError(f"unsupported version {got['version']}")
    counts = list(map(len, got["cells[].pieces"]))
    if 0 in counts:
        raise ParseError(f"cells[{counts.index(0)}].pieces must not be empty")
    start, fraction = np.cumsum([0] + counts), np.array(got["cells[].pieces[].fraction"])
    return EquilibriumResult(
        values=SplitSelection(start, fraction, np.array(got["cells[].pieces[].value"])),
        strategies=SplitSelection(start, fraction, np.array(got["cells[].pieces[].strategy"])),
        epsilon=got["epsilon"],
        diagnostics=got["diagnostics"] or {},
    )


def load_result(path, spec: StochasticGameSpec):
    return result_from_doc(_read_text(path, json.loads), spec)


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
    lines = _read_text(path, str.splitlines)
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
    if not set(header["space-divisible"]) <= {"0", "1"}:
        raise ParseError("header space-divisible entries must be 0 or 1")
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
