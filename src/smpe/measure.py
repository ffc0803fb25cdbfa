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

All operations are pure. A function that is constant on each fine cell
is an array of one value vector per cell; cell masses and such values
may be floats or exact ``fractions.Fraction`` values (exact mode is
detected from the dtype).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import AtomicMass, InvalidInput, NoSelection
from .hull import convex_weights_exact, project_to_hull

MASS_TOL = 1e-12
HULL_TOL = 1e-9
MOMENT_TOL = 1e-10


def _is_exact(arr) -> bool:
    return isinstance(arr, np.ndarray) and arr.dtype == object


def is_integer(x) -> bool:
    """True for a Python or numpy integer, but not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def is_real(x) -> bool:
    """True for an integer (not a bool) or a Python or numpy float."""
    return is_integer(x) or isinstance(x, (float, np.floating))


def frozen_copy(values, name, dtype=float):
    """The one intake rule of every value type: a read-only, C-ordered copy
    of ``values`` as ``dtype``, so no value aliases its caller's array.
    Float entries must be finite, and bool and int entries must survive the
    cast (a bool field takes 0, 1, True and False only). With
    ``dtype=None``, an object array (exact-mode ``Fraction`` values, checked
    by the caller) stays exact and anything else is read as floats. Complex
    entries are refused, not cast to their real parts."""
    try:
        raw = np.asarray(values)
        if raw.dtype.kind != "c":
            arr = np.array(raw, dtype=dtype, order="C")
            if dtype is None and arr.dtype != object:
                arr = arr.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput(f"{name} must be a numeric array: {exc}") from None
    if raw.dtype.kind == "c":  # a cast would keep the real parts alone
        raise InvalidInput(f"{name} must be real")
    if arr.dtype.kind in "bi":  # the cast must give back the input's values
        if raw.dtype != arr.dtype and not np.array_equal(arr, raw):
            kind = "booleans (0 or 1)" if arr.dtype.kind == "b" else "integers"
            raise InvalidInput(f"{name} must hold {kind}")
    if arr.dtype.kind == "f" and not np.isfinite(arr).all():
        raise InvalidInput(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


def hold(obj, **fields):
    """Store ``fields`` on the frozen dataclass ``obj`` from its
    ``__post_init__``, past the ``__setattr__`` that refuses them; arrays
    among them are made read-only."""
    for value in fields.values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    obj.__dict__.update(fields)


@dataclass(frozen=True)
class GridSpace:
    """Weighted fine cells plus a coarse partition.

    masses: nonnegative weight per fine cell (float or Fraction).
    divisible: True for cells that can be subdivided, False for atoms.
    coarse: coarse-cell index per fine cell; indices must be the
        consecutive integers 0..n_coarse-1 and every coarse cell must be
        a nonempty union of fine cells.
    The three arrays are taken in by :func:`frozen_copy`.
    """

    masses: np.ndarray
    divisible: np.ndarray
    coarse: np.ndarray

    def __post_init__(self):
        masses = frozen_copy(self.masses, "cell masses", None)
        divisible = frozen_copy(self.divisible, "divisible", bool)
        coarse = frozen_copy(self.coarse, "coarse", int)
        for name, arr in (("masses", masses), ("divisible", divisible), ("coarse", coarse)):
            if arr.ndim != 1:
                raise InvalidInput(f"{name} must be one-dimensional, got shape {arr.shape}")
        if not (len(masses) == len(divisible) == len(coarse)) or len(masses) == 0:
            raise InvalidInput("masses, divisible and coarse must share a positive length")
        if np.any(masses < 0):
            raise InvalidInput("cell masses must be nonnegative")
        ids = np.unique(coarse)
        if ids[0] != 0 or ids[-1] != len(ids) - 1:
            raise InvalidInput("coarse ids must be consecutive integers starting at 0")
        hold(
            self,
            masses=masses,
            divisible=divisible,
            coarse=coarse,
            _atom_indices=np.flatnonzero(~divisible),
            _divisible_indices=np.flatnonzero(divisible),
            _n_coarse=len(ids),
        )

    @property
    def n_cells(self) -> int:
        return len(self.masses)

    @property
    def n_coarse(self) -> int:
        return self._n_coarse

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


def _values_matrix(values, space, name):
    arr = frozen_copy(values, name, None)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2 or arr.shape[0] != space.n_cells:
        raise InvalidInput(
            f"{name} must provide one value vector per cell "
            f"({space.n_cells} cells, got shape {np.shape(values)})"
        )
    return arr


class Piece(NamedTuple):
    """One sub-interval of a cell: its mass fraction and carried value vector."""

    fraction: object
    value: np.ndarray


@dataclass(frozen=True)
class SplitSelection:
    """Per cell, a finite list of (fraction, value) pieces, as one flat table:
    cell k's pieces are rows ``start[k]:start[k + 1]`` of ``fraction`` and
    ``value``, floats or, in exact mode, ``Fraction`` objects. Fractions are
    nonnegative and sum to one per cell; atomic cells carry exactly one
    piece. The represented function takes each piece's value on a
    sub-interval of the cell with the piece's share of the mass."""

    start: np.ndarray  # (n_cells + 1,) offsets
    fraction: np.ndarray  # (P,)
    value: np.ndarray  # (P, d)

    @classmethod
    def of(cls, cells):
        """The table of nested per-cell sequences of (fraction, value) pieces."""
        cells = [tuple(cell) for cell in cells]
        pieces = [piece for cell in cells for piece in cell]
        start = np.cumsum([0] + [len(cell) for cell in cells])
        return cls(start, np.array([f for f, _ in pieces]), np.array([v for _, v in pieces]))

    @property
    def n_cells(self) -> int:
        return len(self.start) - 1

    @property
    def dim(self) -> int:
        return self.value.shape[1]

    @property
    def pieces(self) -> tuple:
        """Read-only nested view: per cell, a tuple of :class:`Piece`."""
        rows = self.value.view()
        rows.setflags(write=False)
        cells = zip(self.start[:-1].tolist(), self.start[1:].tolist())
        return tuple(tuple(map(Piece, self.fraction[lo:hi], rows[lo:hi])) for lo, hi in cells)

    def _cell_sums(self, terms):
        """Per cell, the sum of its pieces' ``terms`` from the first piece on:
        one masked add per piece slot, so each sum rounds as a sequential
        sum does (``np.add.reduceat`` groups its additions differently)."""
        counts = np.diff(self.start)
        total = np.zeros((len(counts),) + terms.shape[1:], dtype=terms.dtype)
        for slot in range(counts.max(initial=0)):
            cells = np.flatnonzero(counts > slot)
            row = terms[self.start[cells] + slot]
            total[cells] = row if slot == 0 else total[cells] + row
        return total

    def cell_average(self, k):
        return self._cell_sums(self.fraction[:, None] * self.value)[k]

    def averages(self) -> np.ndarray:
        out = self._cell_sums(self.fraction[:, None] * self.value)
        try:
            return out.astype(float)
        except (TypeError, ValueError):
            return out

    def validate(self, space: GridSpace, tol: float = MASS_TOL) -> None:
        """Raise InvalidInput when the piece structure violates the invariants,
        naming the first offending cell."""
        if self.n_cells != space.n_cells:
            raise InvalidInput("selection cell count does not match the space")
        counts = np.diff(self.start)
        exact = space.exact or self.fraction.dtype == object
        totals = self._cell_sums(self.fraction)  # a NaN fraction makes its cell's total NaN
        off = np.asarray(totals != 1 if exact else ~(abs(totals - 1.0) <= tol), dtype=bool)
        negative = np.asarray(self.fraction < (0 if exact else -tol), dtype=bool)
        off |= self._cell_sums(negative.astype(int)) > 0
        several = ~space.divisible & (counts != 1)
        bad = np.flatnonzero((counts < 1) | several | off)
        if bad.size:  # the first offending cell, with its first failed check
            k = bad[0]
            if counts[k] < 1:
                raise InvalidInput(f"cell {k} carries no pieces")
            if several[k]:
                raise InvalidInput(f"atomic cell {k} must carry a single piece")
            raise InvalidInput(f"cell {k} fractions must be nonnegative and sum to 1")


@dataclass(frozen=True)
class CandidateField:
    """Finite set of admissible value vectors per fine cell, each cell's
    set taken in by :func:`frozen_copy` (a vector of scalars is one column)."""

    sets: tuple

    def __post_init__(self):
        if not self.sets:
            raise InvalidInput("candidate field must cover at least one cell")
        sets = []
        for k, cands in enumerate(self.sets):
            arr = frozen_copy(cands, f"cell {k} candidates", None)
            arr = arr.reshape(-1, 1) if arr.ndim == 1 else arr
            if arr.shape[0] == 0:
                raise InvalidInput(f"cell {k} has an empty candidate set")
            sets.append(arr)
        if len({arr.shape[1] for arr in sets}) != 1:
            raise InvalidInput("candidate vectors must share one dimension")
        hold(self, sets=tuple(sets))

    @property
    def dim(self) -> int:
        return self.sets[0].shape[1]


class GAtomResult(NamedTuple):
    """Boolean verdict plus an applicability flag for null sets."""

    is_atom: bool
    applicable: bool

    def __bool__(self) -> bool:
        return self.is_atom


def conditional_expectation(values, space: GridSpace) -> np.ndarray:
    """Average the per-cell ``values`` ((n, d) or (n,)) over each coarse
    cell with the cell-mass weights, as a read-only (n, d) array.

    The result is constant on every coarse cell; coarse cells of zero
    mass are assigned 0. Preserves the mass-weighted integral. One
    scatter-add serves both arithmetics: the sums are exact, and the
    result an object array, when the masses or the values are.
    """
    values = _values_matrix(values, space, "step function")
    weighted = np.column_stack([space.masses, space.masses[:, None] * values])
    zero = Fraction(0) if weighted.dtype == object else 0.0
    sums = np.full((space.n_coarse, weighted.shape[1]), zero, dtype=weighted.dtype)
    np.add.at(sums, space.coarse, weighted)
    mass = sums[:, :1]
    avg = np.where(mass > 0, sums[:, 1:] / np.where(mass > 0, mass, 1), zero)
    return frozen_copy(avg[space.coarse], "step-function values", None)


def _retained_masses(retained, space):
    arr = frozen_copy(retained, "retained masses", None)
    if arr.ndim != 1:
        raise InvalidInput(f"retained masses must be one-dimensional, got shape {arr.shape}")
    if len(arr) != space.n_cells:
        raise InvalidInput("retained masses must provide one entry per cell")
    if np.any(arr < 0):
        raise InvalidInput("retained masses must be nonnegative")
    exact = arr.dtype == object
    if np.any(arr > (space.masses if exact else space.masses.astype(float) + MASS_TOL)):
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
    one, zero, half = (Fraction(1), Fraction(0), Fraction(1, 2)) if exact else (1.0, 0.0, 0.5)
    carry = np.asarray(arr > 0, dtype=bool)
    atomic = np.flatnonzero(carry & ~space.divisible)
    if atomic.size:
        raise AtomicMass(f"cell {atomic[0]} is atomic and carries positive retained mass")
    start = np.cumsum(np.concatenate([[0], 1 + carry]))
    cut = start[:-1][carry]  # each carrying cell's first piece: (frac, 1), then (1 - frac, 0)
    frac = half * arr[carry] / space.masses[carry]
    fraction = np.full(start[-1], one)  # the fill value sets the dtype
    fraction[cut], fraction[cut + 1] = frac, one - frac
    value = np.full((start[-1], 1), zero)
    value[cut] = one
    return SplitSelection(start, fraction, value)


def _moments_matrix(moments, space):
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
    vprime,
    candidates: CandidateField,
    moments,
    space: GridSpace,
) -> SplitSelection:
    """Replace a convexified per-cell target ``vprime`` (one value vector per
    cell, an (n, d) or (n,) array) by a piecewise-pure selection.

    Every piece carries one of the cell's candidate vectors, and the
    fraction-weighted piece average reproduces the target value on every
    cell. Because the moment densities are constant inside each cell,
    matching per-cell averages makes every conditional moment of the
    result agree with the target's across the coarse partition.

    Divisible cells are split with the Caratheodory weights (support of at
    most dimension + 1 candidates, lexicographically smallest support on
    ties) of the target's nearest point in the candidate hull, as
    :func:`~smpe.hull.project_to_hull` returns them; in exact mode,
    :func:`~smpe.hull.convex_weights_exact` finds them in Fraction
    arithmetic. Atomic cells cannot be split: their target must itself
    be one of the candidates (within ``HULL_TOL``), otherwise
    ``NoSelection`` is raised. A divisible target farther than
    ``HULL_TOL`` (scaled by the data magnitude) outside the candidate hull
    violates the precondition and raises ``InvalidInput``.
    """
    values = _values_matrix(vprime, space, "target selection")
    _moments_matrix(moments, space)
    if candidates.dim != values.shape[1]:
        raise InvalidInput("candidate dimension does not match the target dimension")
    if len(candidates.sets) != space.n_cells:
        raise InvalidInput("candidate field must cover every cell")
    exact = space.exact or values.dtype == object
    weights_of = {}  # float mode: one projection per candidate count
    cells = [] if exact else space.divisible_indices
    counts = np.array([len(candidates.sets[k]) for k in cells])
    for count in np.unique(counts):
        ks = cells[counts == count]
        cands = np.array([candidates.sets[k] for k in ks], dtype=float)
        point, weights = project_to_hull(values[ks], cands)
        scale = np.max(np.abs(np.concatenate([values[ks, None], cands], axis=1)), axis=(1, 2))
        outside = np.max(np.abs(point - values[ks]), axis=1) > HULL_TOL * np.maximum(1.0, scale)
        weights_of.update((k, None if out else w) for k, w, out in zip(ks, weights, outside))
    cells = []
    for k in range(space.n_cells):
        cands = candidates.sets[k]
        target = values[k]
        if not space.divisible[k]:
            idx = _match_candidate(target, cands, exact)
            if idx is None:
                raise NoSelection(
                    f"atomic cell {k}: target is not one of the {len(cands)} candidates"
                )
            cells.append([(Fraction(1) if exact else 1.0, cands[idx])])
            continue
        weights = convex_weights_exact(target, cands) if exact else weights_of[k]
        if weights is None:
            raise InvalidInput(
                f"divisible cell {k}: target lies outside the candidate hull (tol {HULL_TOL})"
            )
        cells.append([(w, cands[i]) for i, w in enumerate(weights) if w > 0])
    return SplitSelection.of(cells)


_as_fraction = np.frompyfunc(Fraction, 1, 1)


def _match_candidate(target, cands, exact):
    """The first candidate nearest ``target`` in the sup distance, when it
    lies within ``HULL_TOL``; exact entries are compared as Fractions and
    must be at distance 0."""
    as_numbers, tol = (_as_fraction, 0) if exact else (lambda x: np.asarray(x, float), HULL_TOL)
    dists = np.max(np.abs(as_numbers(cands) - as_numbers(target)), axis=1, initial=0)
    best = int(np.argmin(dists))
    return best if dists[best] <= tol else None


def exhaustive_selection_search(
    space: GridSpace,
    candidates: CandidateField,
    vprime,
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
    values = _values_matrix(vprime, space, "target selection")
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
