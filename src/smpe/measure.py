"""Measure-space core on weighted cell grids.

A state space is a finite ordered list of weighted fine cells together
with a coarse partition (a surjection of fine cells onto coarse cells).
Divisible cells stand for atomless regions that may be split into
arbitrarily fine sub-intervals; atomic cells are indivisible point
masses. On top of that representation this module provides conditional
expectations against the coarse partition, detection of sets on which
the fine structure collapses to the coarse one, exact half-splitting of
divisible mass, and purification of convexified selections into
piecewise-pure ones with matched conditional moments.

All operations are pure; cell masses may be floats or exact
``fractions.Fraction`` values (exact mode is detected from the dtype).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import AtomicMass, InvalidInput, NoSelection
from .hull import convex_weights, convex_weights_exact

MASS_TOL = 1e-12
HULL_TOL = 1e-9
MOMENT_TOL = 1e-10


def _is_exact(arr) -> bool:
    return isinstance(arr, np.ndarray) and arr.dtype == object


def _vector(values, name):
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise InvalidInput(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class GridSpace:
    """Weighted fine cells plus a coarse partition.

    masses: nonnegative weight per fine cell (float or Fraction).
    divisible: True for cells that can be subdivided, False for atoms.
    coarse: coarse-cell index per fine cell; indices must be the
        consecutive integers 0..n_coarse-1 and every coarse cell must be
        a nonempty union of fine cells.
    total_mass: declared total weight; defaults to the mass sum.
    """

    masses: np.ndarray
    divisible: np.ndarray
    coarse: np.ndarray
    total_mass: object = None

    def __post_init__(self):
        masses = _vector(self.masses, "masses")
        divisible = _vector(self.divisible, "divisible").astype(bool)
        coarse = _vector(self.coarse, "coarse").astype(int)
        if not (len(masses) == len(divisible) == len(coarse)) or len(masses) == 0:
            raise InvalidInput("masses, divisible and coarse must share a positive length")
        exact = masses.dtype == object
        if exact:
            if any(m < 0 for m in masses):
                raise InvalidInput("cell masses must be nonnegative")
            total = sum(masses, Fraction(0))
        else:
            masses = masses.astype(float)
            if not np.all(np.isfinite(masses)) or np.any(masses < 0):
                raise InvalidInput("cell masses must be finite and nonnegative")
            total = float(masses.sum())
        declared = self.total_mass
        if declared is None:
            declared = total
        elif exact:
            if Fraction(declared) != total:
                raise InvalidInput("total_mass does not equal the mass sum")
            declared = Fraction(declared)
        elif abs(float(declared) - total) > MASS_TOL * max(1.0, abs(total)):
            raise InvalidInput(
                f"total_mass {declared} differs from mass sum {total} beyond {MASS_TOL}"
            )
        ids = np.unique(coarse)
        if ids[0] != 0 or ids[-1] != len(ids) - 1:
            raise InvalidInput("coarse ids must be consecutive integers starting at 0")
        atoms = np.flatnonzero(~divisible)
        cells = np.flatnonzero(divisible)
        for arr in (masses, divisible, coarse, atoms, cells):
            arr.setflags(write=False)
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "divisible", divisible)
        object.__setattr__(self, "coarse", coarse)
        object.__setattr__(self, "total_mass", declared)
        object.__setattr__(self, "_atom_indices", atoms)
        object.__setattr__(self, "_divisible_indices", cells)

    @property
    def n_cells(self) -> int:
        return len(self.masses)

    @property
    def n_coarse(self) -> int:
        return int(self.coarse.max()) + 1

    @property
    def exact(self) -> bool:
        return _is_exact(self.masses)

    @property
    def atom_indices(self) -> np.ndarray:
        return self._atom_indices

    @property
    def divisible_indices(self) -> np.ndarray:
        return self._divisible_indices

    def coarse_members(self, coarse_id: int) -> np.ndarray:
        return np.flatnonzero(self.coarse == coarse_id)

    def coarse_masses(self):
        """Total mass per coarse cell, ordered by coarse id."""
        if self.exact:
            out = np.empty(self.n_coarse, dtype=object)
            for e in range(self.n_coarse):
                out[e] = sum((self.masses[k] for k in self.coarse_members(e)), Fraction(0))
            return out
        return np.bincount(self.coarse, weights=self.masses, minlength=self.n_coarse)


def _values_matrix(values, space, name):
    arr = np.asarray(values)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2 or arr.shape[0] != space.n_cells:
        raise InvalidInput(
            f"{name} must provide one value vector per cell "
            f"({space.n_cells} cells, got shape {np.asarray(values).shape})"
        )
    if arr.dtype != object:
        arr = arr.astype(float)
        if not np.all(np.isfinite(arr)):
            raise InvalidInput(f"{name} must be finite")
    return arr


@dataclass(frozen=True)
class StepFunction:
    """Function that is constant on each fine cell: one value vector per cell."""

    values: np.ndarray

    @classmethod
    def of(cls, values):
        arr = np.asarray(values)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.dtype != object:
            arr = arr.astype(float)
            if not np.all(np.isfinite(arr)):
                raise InvalidInput("step-function values must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        return cls(arr)

    @classmethod
    def constant(cls, value, n_cells):
        row = np.atleast_1d(np.asarray(value, dtype=float))
        return cls.of(np.tile(row, (n_cells, 1)))

    @property
    def n_cells(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


class Piece(NamedTuple):
    """One sub-interval of a cell: its mass fraction and carried value vector."""

    fraction: object
    value: np.ndarray


@dataclass(frozen=True)
class SplitSelection:
    """Per cell, a finite list of (fraction, value) pieces.

    Fractions are nonnegative and sum to one per cell; atomic cells carry
    exactly one piece. The represented function takes each piece's value
    on a sub-interval of the cell with the piece's share of the mass.
    """

    pieces: tuple

    @property
    def n_cells(self) -> int:
        return len(self.pieces)

    @property
    def dim(self) -> int:
        return len(self.pieces[0][0].value)

    def cell_average(self, k):
        parts = self.pieces[k]
        acc = parts[0].fraction * np.asarray(parts[0].value)
        for piece in parts[1:]:
            acc = acc + piece.fraction * np.asarray(piece.value)
        return acc

    def averages(self) -> np.ndarray:
        rows = [self.cell_average(k) for k in range(self.n_cells)]
        out = np.empty((self.n_cells, len(rows[0])), dtype=object)
        for k, row in enumerate(rows):
            out[k] = row
        try:
            return out.astype(float)
        except (TypeError, ValueError):
            return out

    def validate(self, space: GridSpace, tol: float = MASS_TOL) -> None:
        """Raise InvalidInput when the piece structure violates the invariants."""
        if self.n_cells != space.n_cells:
            raise InvalidInput("selection cell count does not match the space")
        for k, parts in enumerate(self.pieces):
            if not parts:
                raise InvalidInput(f"cell {k} carries no pieces")
            if not space.divisible[k] and len(parts) != 1:
                raise InvalidInput(f"atomic cell {k} must carry a single piece")
            total = sum(p.fraction for p in parts)
            if space.exact or isinstance(total, Fraction):
                bad = total != 1 or any(p.fraction < 0 for p in parts)
            else:
                bad = abs(float(total) - 1.0) > tol or any(p.fraction < -tol for p in parts)
            if bad:
                raise InvalidInput(f"cell {k} fractions must be nonnegative and sum to 1")


@dataclass(frozen=True)
class CandidateField:
    """Finite set of admissible value vectors per fine cell."""

    sets: tuple

    def __post_init__(self):
        if not self.sets:
            raise InvalidInput("candidate field must cover at least one cell")
        dims = set()
        norm = []
        for k, cands in enumerate(self.sets):
            arr = np.asarray(cands)
            if arr.ndim == 1:
                arr = arr.reshape(-1, 1)
            if arr.shape[0] == 0:
                raise InvalidInput(f"cell {k} has an empty candidate set")
            dims.add(arr.shape[1])
            norm.append(arr)
        if len(dims) != 1:
            raise InvalidInput("candidate vectors must share one dimension")
        object.__setattr__(self, "sets", tuple(norm))

    @property
    def dim(self) -> int:
        return self.sets[0].shape[1]


class GAtomResult(NamedTuple):
    """Boolean verdict plus an applicability flag for null sets."""

    is_atom: bool
    applicable: bool

    def __bool__(self) -> bool:
        return self.is_atom


def conditional_expectation(f: StepFunction, space: GridSpace) -> StepFunction:
    """Average ``f`` over each coarse cell with the cell-mass weights.

    The result is constant on every coarse cell; coarse cells of zero
    mass are assigned 0. Preserves the mass-weighted integral.
    """
    values = _values_matrix(f.values, space, "step function")
    if space.exact or values.dtype == object:
        out = np.empty_like(values, dtype=object)
        for e in range(space.n_coarse):
            members = space.coarse_members(e)
            tot = sum((space.masses[k] for k in members), Fraction(0))
            for d in range(values.shape[1]):
                if tot == 0:
                    avg = Fraction(0)
                else:
                    avg = sum((space.masses[k] * values[k, d] for k in members), Fraction(0)) / tot
                for k in members:
                    out[k, d] = avg
        return StepFunction.of(out)
    sums = np.zeros((space.n_coarse, values.shape[1]))
    np.add.at(sums, space.coarse, space.masses[:, None] * values)
    coarse_mass = np.bincount(space.coarse, weights=space.masses, minlength=space.n_coarse)
    with np.errstate(invalid="ignore", divide="ignore"):
        avg = np.where(coarse_mass[:, None] > 0, sums / coarse_mass[:, None], 0.0)
    return StepFunction.of(avg[space.coarse])


def _retained_masses(retained, space):
    arr = _vector(retained, "retained masses")
    if len(arr) != space.n_cells:
        raise InvalidInput("retained masses must provide one entry per cell")
    if arr.dtype == object:
        if any(r < 0 for r in arr):
            raise InvalidInput("retained masses must be nonnegative")
        if any(r > m for r, m in zip(arr, space.masses)):
            raise InvalidInput("retained mass exceeds cell mass")
        return arr
    arr = arr.astype(float)
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise InvalidInput("retained masses must be finite and nonnegative")
    if np.any(arr > np.asarray(space.masses, dtype=float) + MASS_TOL):
        raise InvalidInput("retained mass exceeds cell mass")
    return arr


def is_g_atom(retained, space: GridSpace) -> GAtomResult:
    """Decide whether the carried set collapses to the coarse partition.

    ``retained`` gives the mass of the set inside each fine cell. The set
    qualifies when it has positive mass, contains no divisible mass (any
    divisible sliver can be split below the coarse resolution), and each
    of its positive-mass atoms sits alone in its coarse cell relative to
    the set itself. Null sets are reported as not applicable.
    """
    arr = _retained_masses(retained, space)
    positive = [k for k in range(space.n_cells) if arr[k] > 0]
    if not positive:
        return GAtomResult(False, False)
    if any(space.divisible[k] for k in positive):
        return GAtomResult(False, True)
    coarse_hits = {}
    for k in positive:
        coarse_hits.setdefault(int(space.coarse[k]), []).append(k)
    alone = all(len(cells) == 1 for cells in coarse_hits.values())
    return GAtomResult(alone, True)


def half_split(retained, space: GridSpace) -> SplitSelection:
    """Split half of the retained mass off every cell, coarse cell by coarse cell.

    Returns the indicator of the split-off subset as a selection: on each
    carrying cell, a fraction ``retained/(2*mass)`` of the cell carries 1
    and the rest carries 0. The subset receives exactly half the retained
    mass within every coarse cell. Cells must carry divisible mass only.
    """
    arr = _retained_masses(retained, space)
    exact = space.exact or arr.dtype == object
    one = Fraction(1) if exact else 1.0
    zero = Fraction(0) if exact else 0.0
    half = Fraction(1, 2) if exact else 0.5
    pieces = []
    for k in range(space.n_cells):
        if arr[k] > 0 and not space.divisible[k]:
            raise AtomicMass(f"cell {k} is atomic and carries positive retained mass")
        if arr[k] > 0:
            frac = half * arr[k] / space.masses[k]
            pieces.append(
                (
                    Piece(frac, np.array([one], dtype=object if exact else float)),
                    Piece(one - frac, np.array([zero], dtype=object if exact else float)),
                )
            )
        else:
            pieces.append((Piece(one, np.array([zero], dtype=object if exact else float)),))
    return SplitSelection(tuple(pieces))


def _moments_matrix(moments, space):
    if isinstance(moments, StepFunction):
        moments = [moments]
    if isinstance(moments, (list, tuple)) and moments and isinstance(moments[0], StepFunction):
        rows = []
        for j, sf in enumerate(moments):
            if sf.dim != 1:
                raise InvalidInput(f"moment {j} must be scalar-valued")
            rows.append(sf.values[:, 0])
        arr = np.asarray(rows)
    else:
        arr = np.asarray(moments)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[1] != space.n_cells:
        raise InvalidInput("moments must be (J, n_cells)")
    if arr.dtype == object:
        if any(v < 0 for v in arr.ravel()):
            raise InvalidInput("moment densities must be nonnegative")
    else:
        arr = arr.astype(float)
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise InvalidInput("moment densities must be finite and nonnegative")
    return arr


def purify_selection(
    vprime: StepFunction,
    candidates: CandidateField,
    moments,
    space: GridSpace,
) -> SplitSelection:
    """Replace a convexified per-cell target by a piecewise-pure selection.

    Every piece carries one of the cell's candidate vectors, and the
    fraction-weighted piece average reproduces the target value on every
    cell. Because the moment densities are constant inside each cell,
    matching per-cell averages makes every conditional moment of the
    result agree with the target's across the coarse partition.

    Divisible cells are split with convex weights found by a feasibility
    search over supports of Caratheodory size (lexicographically smallest
    support wins). Atomic cells cannot be split: their target must itself
    be one of the candidates (within ``HULL_TOL``), otherwise
    ``NoSelection`` is raised. A divisible target farther than
    ``HULL_TOL`` outside the candidate hull violates the precondition and
    raises ``InvalidInput``.
    """
    values = _values_matrix(vprime.values, space, "target selection")
    _moments_matrix(moments, space)
    if candidates.dim != values.shape[1]:
        raise InvalidInput("candidate dimension does not match the target dimension")
    if len(candidates.sets) != space.n_cells:
        raise InvalidInput("candidate field must cover every cell")
    exact = space.exact or values.dtype == object
    pieces = []
    for k in range(space.n_cells):
        cands = candidates.sets[k]
        target = values[k]
        if not space.divisible[k]:
            idx = _match_candidate(target, cands, exact, HULL_TOL)
            if idx is None:
                raise NoSelection(
                    f"atomic cell {k}: target is not one of the {len(cands)} candidates"
                )
            one = Fraction(1) if exact else 1.0
            pieces.append((Piece(one, cands[idx]),))
            continue
        if exact:
            weights = convex_weights_exact(target, cands)
        else:
            weights = convex_weights(target, cands, tol=HULL_TOL)
        if weights is None:
            raise InvalidInput(
                f"divisible cell {k}: target lies outside the candidate hull (tol {HULL_TOL})"
            )
        cell_pieces = [
            Piece(w, cands[i]) for i, w in enumerate(weights) if w > 0
        ]
        if not cell_pieces:  # zero-weight degenerate corner; keep first candidate
            cell_pieces = [Piece(Fraction(1) if exact else 1.0, cands[0])]
        pieces.append(tuple(cell_pieces))
    return SplitSelection(tuple(pieces))


def _match_candidate(target, cands, exact, tol):
    if exact:
        for i in range(cands.shape[0]):
            if all(Fraction(c) == Fraction(t) for c, t in zip(cands[i], target)):
                return i
        return None
    dists = np.max(np.abs(np.asarray(cands, float) - np.asarray(target, float)), axis=1)
    best = int(np.argmin(dists))
    return best if dists[best] <= tol else None


def exhaustive_selection_search(
    space: GridSpace,
    candidates: CandidateField,
    vprime: StepFunction,
    moments,
    tol: float = MOMENT_TOL,
    max_patterns: int = 2_000_000,
):
    """Brute-force search for a pure per-cell assignment matching all moments.

    Enumerates every assignment of one candidate per cell and tests the
    mass-weighted moment sums against the target's on every coarse cell.
    Returns the first matching assignment (candidate index per cell) in
    product order, or None. Exponential in the cell count; intended for
    demonstrations and cross-checks on small instances.
    """
    rho = _moments_matrix(moments, space)
    values = _values_matrix(vprime.values, space, "target selection")
    counts = np.array([c.shape[0] for c in candidates.sets])
    n_patterns = int(np.prod(counts.astype(np.float64)))
    if n_patterns > max_patterns:
        raise InvalidInput(f"{n_patterns} assignments exceed the search cap {max_patterns}")
    masses = np.asarray(space.masses, dtype=float)
    rho_f = np.asarray(rho, dtype=float)
    vals_f = np.asarray(values, dtype=float)
    n_cells = space.n_cells
    d = vals_f.shape[1]
    flat_dim = rho_f.shape[0] * space.n_coarse * d
    target = np.zeros((rho_f.shape[0], space.n_coarse, d))
    contrib = np.zeros((n_cells, int(counts.max()), flat_dim))
    for k in range(n_cells):
        target[:, space.coarse[k], :] += np.outer(rho_f[:, k] * masses[k], vals_f[k])
        for i in range(counts[k]):
            block = np.zeros((rho_f.shape[0], space.n_coarse, d))
            cand = np.asarray(candidates.sets[k][i], dtype=float)
            block[:, space.coarse[k], :] = np.outer(rho_f[:, k] * masses[k], cand)
            contrib[k, i] = block.reshape(-1)
    target_flat = target.reshape(-1)
    scale = max(1.0, float(np.max(np.abs(target_flat))))
    # mixed-radix digits reproduce itertools.product order (cell 0 slowest)
    radices = np.concatenate([np.cumprod(counts[::-1])[::-1][1:], [1]])
    chunk = 1 << 14
    for start in range(0, n_patterns, chunk):
        idx = np.arange(start, min(start + chunk, n_patterns))
        digits = (idx[:, None] // radices[None, :]) % counts[None, :]
        acc = np.zeros((len(idx), flat_dim))
        for k in range(n_cells):
            acc += contrib[k, digits[:, k]]
        err = np.max(np.abs(acc - target_flat[None, :]), axis=1)
        hits = np.flatnonzero(err <= tol * scale)
        if len(hits):
            return tuple(int(v) for v in digits[hits[0]])
    return None
