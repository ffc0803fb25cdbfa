"""Measure-core behaviour: conditioning, splitting, purification."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smpe.errors import AtomicMass, InvalidInput, NoSelection
from smpe.measure import (
    CandidateField,
    GridSpace,
    SplitSelection,
    conditional_expectation,
    exhaustive_selection_search,
    half_split,
    is_g_atom,
    purify_selection,
)

from helpers import walsh_matrix


def uniform_space(n=4, coarse=None, divisible=None):
    coarse = np.asarray(coarse if coarse is not None else [0] * n)
    divisible = np.asarray(divisible if divisible is not None else [True] * n)
    return GridSpace(np.full(n, 1.0 / n), divisible, coarse)


# --- conditional expectation -------------------------------------------------


def test_condexp_constant_is_fixed():
    sp = uniform_space(4, coarse=[0, 0, 1, 1])
    f = np.full(4, 3.25)
    g = conditional_expectation(f, sp)
    assert np.allclose(g, 3.25)


def test_condexp_hand_example():
    sp = uniform_space(4, coarse=[0, 0, 1, 1])
    g = conditional_expectation([1.0, 3.0, 2.0, 6.0], sp)
    assert np.allclose(g.ravel(), [2.0, 2.0, 4.0, 4.0], atol=1e-14)


def test_condexp_returns_a_read_only_copy():
    sp = uniform_space(4, coarse=[0, 0, 1, 1])
    values = np.array([1.0, 3.0, 2.0, 6.0])
    g = conditional_expectation(values, sp)
    assert g.shape == (4, 1) and g.dtype == float
    assert not g.flags.writeable and not np.shares_memory(g, values)


def test_condexp_zero_mass_coarse_cell():
    sp = GridSpace(np.array([0.5, 0.5, 0.0]), np.ones(3, bool), np.array([0, 0, 1]))
    g = conditional_expectation([1.0, 2.0, 9.0], sp)
    assert g[2, 0] == 0.0


def test_condexp_exact_branch_matches_float_branch():
    # a Fraction grid takes the exact branch; its zero-mass coarse cell is 0
    masses = [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2), Fraction(0)]
    coarse, divisible = np.array([0, 0, 0, 1]), np.ones(4, bool)
    values = [[1, 5], [3, Fraction(1, 3)], [2, -1], [9, 7]]
    exact = conditional_expectation(
        np.array([[Fraction(v) for v in row] for row in values], dtype=object),
        GridSpace(np.array(masses, dtype=object), divisible, coarse),
    )
    floating = conditional_expectation(
        np.array(values, dtype=float),
        GridSpace(np.array(masses, dtype=float), divisible, coarse),
    )
    assert exact[:, 0].tolist() == [2, 2, 2, 0]
    assert exact[0, 1] == Fraction(5, 6)
    assert all(isinstance(v, Fraction) for v in exact.ravel())
    assert np.allclose(exact.astype(float), floating, rtol=0, atol=1e-15)


def test_condexp_dimension_mismatch():
    sp = uniform_space(4)
    with pytest.raises(InvalidInput):
        conditional_expectation([1.0, 2.0], sp)


grids = st.integers(2, 10).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(0.01, 2.0), min_size=n, max_size=n),
        st.lists(st.integers(0, 2), min_size=n, max_size=n),
        st.lists(
            st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=n, max_size=n
        ),
    )
)


def _normalize_coarse(raw):
    seen = {}
    return [seen.setdefault(v, len(seen)) for v in raw]


@settings(deadline=None)
@given(grids)
def test_condexp_properties(data):
    masses, raw_coarse, values = data
    coarse = _normalize_coarse(raw_coarse)
    sp = GridSpace(np.asarray(masses), np.ones(len(masses), bool), np.asarray(coarse))
    g = conditional_expectation(values, sp)
    # integral preservation
    assert abs(float(np.dot(masses, g[:, 0]) - np.dot(masses, values))) <= 1e-12 * (
        1 + float(np.abs(values).max())
    )
    # idempotence
    gg = conditional_expectation(g, sp)
    assert np.max(np.abs(gg - g)) <= 1e-12
    # sup-norm contraction
    assert np.max(np.abs(g)) <= np.max(np.abs(values)) + 1e-12


@settings(deadline=None)
@given(grids, st.floats(-2, 2), st.floats(-2, 2))
def test_condexp_linear(data, a, b):
    masses, raw_coarse, values = data
    coarse = _normalize_coarse(raw_coarse)
    sp = GridSpace(np.asarray(masses), np.ones(len(masses), bool), np.asarray(coarse))
    other = list(reversed(values))
    lhs = conditional_expectation(a * np.asarray(values) + b * np.asarray(other), sp)
    rhs = a * conditional_expectation(values, sp) + b * conditional_expectation(other, sp)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


# --- indivisible-block detection ----------------------------------------------


def test_g_atom_divisible_cell_is_not_one():
    sp = uniform_space(4, coarse=[0, 0, 1, 1])
    assert not is_g_atom([0.25, 0, 0, 0], sp)


def test_g_atom_single_atom_is_one():
    sp = GridSpace(np.array([0.4, 0.3, 0.3]), np.array([True, False, False]), np.array([0, 0, 1]))
    res = is_g_atom([0, 0.3, 0], sp)
    assert res.is_atom and res.applicable


def test_g_atom_two_atoms_one_coarse_cell():
    sp = GridSpace(
        np.array([0.4, 0.3, 0.3]), np.array([True, False, False]), np.array([0, 1, 1])
    )
    assert not is_g_atom([0, 0.3, 0.3], sp)


def test_g_atom_two_atoms_separate_coarse_cells():
    sp = GridSpace(
        np.array([0.4, 0.3, 0.3]), np.array([True, False, False]), np.array([0, 1, 2])
    )
    assert is_g_atom([0, 0.3, 0.3], sp)


def test_g_atom_null_set_not_applicable():
    sp = uniform_space(3)
    res = is_g_atom([0, 0, 0], sp)
    assert not res.is_atom and not res.applicable


# --- half splitting -----------------------------------------------------------


def test_half_split_single_cell():
    sp = GridSpace(np.array([0.4, 0.6]), np.ones(2, bool), np.array([0, 0]))
    split = half_split([0.4, 0.0], sp)
    assert split.pieces[0][0].fraction == pytest.approx(0.5)
    carried = split.averages()[:, 0] * np.asarray(sp.masses)
    assert carried[0] == pytest.approx(0.2, abs=1e-15)


def test_half_split_three_cells_two_coarse():
    sp = GridSpace(
        np.array([0.2, 0.3, 0.25, 0.25]), np.ones(4, bool), np.array([0, 0, 1, 1])
    )
    retained = np.array([0.15, 0.3, 0.0, 0.2])
    split = half_split(retained, sp)
    carried = split.averages()[:, 0] * np.asarray(sp.masses)
    for e in range(2):
        members = sp.coarse_members(e)
        assert abs(carried[members].sum() - retained[members].sum() / 2) <= 1e-12


def test_half_split_exact_rational():
    masses = np.array([Fraction(1, 3), Fraction(2, 3)], dtype=object)
    sp = GridSpace(masses, np.ones(2, bool), np.array([0, 0]))
    retained = np.array([Fraction(1, 3), Fraction(1, 7)], dtype=object)
    split = half_split(retained, sp)
    carried = [split.cell_average(k)[0] * masses[k] for k in range(2)]
    assert carried[0] == Fraction(1, 6)
    assert carried[1] == Fraction(1, 14)


def test_half_split_atomic_mass_error():
    sp = GridSpace(np.array([0.5, 0.5]), np.array([True, False]), np.array([0, 1]))
    with pytest.raises(AtomicMass):
        half_split([0.0, 0.5], sp)


# --- purification -------------------------------------------------------------


def test_purify_bang_bang():
    sp = uniform_space(4, coarse=[0, 0, 1, 1])
    cands = CandidateField(tuple([np.array([[0.0], [1.0]])] * 4))
    sel = purify_selection(np.full(4, 0.5), cands, np.ones((1, 4)), sp)
    for k in range(4):
        fracs = sorted(float(p.fraction) for p in sel.pieces[k])
        assert fracs == pytest.approx([0.5, 0.5])
    cond = conditional_expectation(sel.averages(), sp)
    assert np.allclose(cond, 0.5, atol=1e-12)


def test_purify_atom_with_strict_mixture_refused():
    sp = GridSpace(
        np.array([0.35, 0.35, 0.3]), np.array([True, True, False]), np.array([0, 0, 0])
    )
    cands = CandidateField((np.array([[0.0]]), np.array([[0.0]]), np.array([[0.0], [1.0]])))
    target = [0.0, 0.0, 0.5]
    with pytest.raises(NoSelection):
        purify_selection(target, cands, np.ones((1, 3)), sp)
    assert exhaustive_selection_search(sp, cands, target, np.ones((1, 3))) is None


def test_purify_walsh_sign_system_refused():
    n = 16
    masses = np.array([Fraction(1, n)] * n, dtype=object)
    sp = GridSpace(masses, np.zeros(n, bool), np.zeros(n, int))
    cands = CandidateField(tuple([np.array([[-1.0], [1.0]])] * n))
    target = np.full(n, 0.0)
    moments = walsh_matrix(n) + 1.0
    with pytest.raises(NoSelection):
        purify_selection(target, cands, moments, sp)
    assert exhaustive_selection_search(sp, cands, target, moments, max_patterns=2**n) is None


def test_purify_refuses_strict_mixture_on_any_indivisible_block():
    # whenever the carrying set is an indivisible block and the target is a
    # strict mixture of the candidates, there is no pure selection
    for i in range(25):
        rng = np.random.Generator(np.random.Philox(key=[900, i]))
        n = int(rng.integers(2, 6))
        divisible = np.zeros(n, bool)
        coarse = np.arange(n)  # each atom alone in its coarse cell
        masses = rng.uniform(0.1, 1.0, n)
        sp = GridSpace(masses, divisible, coarse)
        block = int(rng.integers(0, n))
        assert is_g_atom(np.eye(n)[block] * masses, sp)
        cands, targets = [], []
        for k in range(n):
            lo, hi = sorted(rng.uniform(-1, 1, 2))
            cands.append(np.array([[lo], [hi + 1.0]]))
            if k == block:
                t = rng.uniform(0.2, 0.8)
                targets.append([t * lo + (1 - t) * (hi + 1.0)])
            else:
                targets.append([lo])
        with pytest.raises(NoSelection):
            purify_selection(
                np.asarray(targets),
                CandidateField(tuple(cands)),
                np.ones((1, n)),
                sp,
            )


def test_purify_outside_hull_is_precondition_failure():
    sp = uniform_space(2)
    cands = CandidateField(tuple([np.array([[0.0], [1.0]])] * 2))
    with pytest.raises(InvalidInput):
        purify_selection([1.5, 0.5], cands, np.ones((1, 2)), sp)


def test_purify_negative_moment_rejected():
    sp = uniform_space(2)
    cands = CandidateField(tuple([np.array([[0.0], [1.0]])] * 2))
    with pytest.raises(InvalidInput):
        purify_selection([0.5, 0.5], cands, -np.ones((1, 2)), sp)


def test_purify_lexicographic_support():
    # target equals candidate 1 exactly: the singleton support {1} wins
    sp = uniform_space(1)
    cands = CandidateField((np.array([[0.0], [0.5], [1.0]]),))
    sel = purify_selection([0.5], cands, np.ones((1, 1)), sp)
    assert len(sel.pieces[0]) == 1
    assert sel.pieces[0][0].value[0] == 0.5
    # each target with the candidates that carry it, first support first:
    # a vertex listed twice goes to its first copy, and a point on the edge
    # {1, 2} shared by the triangles {0, 1, 2} and {1, 2, 3} to that edge
    square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    cases = [
        (np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]), [1.0, 0.0], {1: 1.0}),
        (square, [0.25, 0.75], {1: 0.25, 2: 0.75}),
    ]
    for points, target, expected in cases:
        cands = CandidateField((points,))
        sel = purify_selection([target], cands, np.ones((1, 1)), sp)
        carried = {}
        for piece in sel.pieces[0]:
            # the first candidate row equal to the piece's value: the table
            # holds copies, so a repeated vertex's copies look alike here,
            # and test_hull checks which copy the hull weights pick
            i = int(np.flatnonzero((cands.sets[0] == piece.value).all(axis=1))[0])
            carried[i] = piece.fraction
        assert carried == pytest.approx(expected, rel=0, abs=1e-15)


def test_purify_exact_rational_mode():
    masses = np.array([Fraction(1, 2), Fraction(1, 2)], dtype=object)
    sp = GridSpace(masses, np.ones(2, bool), np.array([0, 0]))
    cands = CandidateField(
        (
            np.array([[Fraction(0)], [Fraction(1)]], dtype=object),
            np.array([[Fraction(0)], [Fraction(1)]], dtype=object),
        )
    )
    target = np.array([[Fraction(1, 3)], [Fraction(2, 7)]], dtype=object)
    moments = np.array([[Fraction(1), Fraction(2)]], dtype=object)
    sel = purify_selection(target, cands, moments, sp)
    assert sel.cell_average(0)[0] == Fraction(1, 3)
    assert sel.cell_average(1)[0] == Fraction(2, 7)
    for piece in sel.pieces[0]:
        assert isinstance(piece.fraction, Fraction)


@st.composite
def purify_instances(draw):
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, 3))
    j = draw(st.integers(1, 3))
    masses = np.asarray(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    coarse = _normalize_coarse(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    cands = []
    targets = []
    for _ in range(n):
        count = draw(st.integers(1, 4))
        pts = np.asarray(
            draw(
                st.lists(
                    st.lists(st.floats(-2, 2), min_size=d, max_size=d),
                    min_size=count,
                    max_size=count,
                )
            )
        )
        weights = np.asarray(draw(st.lists(st.floats(0.0, 1.0), min_size=count, max_size=count)))
        weights = weights + 1e-9
        weights /= weights.sum()
        cands.append(pts)
        targets.append(weights @ pts)
    moments = np.asarray(
        draw(
            st.lists(
                st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n), min_size=j, max_size=j
            )
        )
    )
    return masses, np.asarray(coarse), tuple(cands), np.asarray(targets), moments


@settings(deadline=None, max_examples=60)
@given(purify_instances())
def test_purify_divisible_always_succeeds_and_matches_moments(instance):
    masses, coarse, cands, targets, moments = instance
    n = len(masses)
    sp = GridSpace(masses, np.ones(n, bool), coarse)
    sel = purify_selection(targets, CandidateField(cands), moments, sp)
    sel.validate(sp)
    avgs = sel.averages()
    scale = max(1.0, float(np.max(np.abs(targets))))
    # every carried value is one of the cell's candidates, bit for bit
    for k in range(n):
        for piece in sel.pieces[k]:
            assert any(np.array_equal(piece.value, c) for c in cands[k])
    # aggregate moments match on every coarse cell
    for jj in range(moments.shape[0]):
        for e in range(sp.n_coarse):
            members = sp.coarse_members(e)
            lhs = sum(masses[k] * moments[jj, k] * avgs[k] for k in members)
            rhs = sum(masses[k] * moments[jj, k] * targets[k] for k in members)
            assert np.max(np.abs(np.asarray(lhs) - np.asarray(rhs))) <= 1e-10 * scale


def test_split_selection_validation():
    sp = GridSpace(np.array([0.5, 0.5]), np.array([True, False]), np.array([0, 1]))
    from smpe.measure import Piece

    bad = SplitSelection.of(
        (
            (Piece(1.0, np.array([0.0])),),
            (Piece(0.5, np.array([0.0])), Piece(0.5, np.array([1.0]))),
        )
    )
    with pytest.raises(InvalidInput):
        bad.validate(sp)


# --- the flat piece table against the nested loops ------------------------------


def ragged_cells(rng, n_cells, dim, exact):
    """Per cell, one to five (fraction, value) pieces: fractions on the
    simplex, values at a scale between 1e-3 and 1e3, or small rationals."""
    cells = []
    for _ in range(n_cells):
        n = int(rng.integers(1, 6))
        if exact:
            weights = [int(w) for w in rng.integers(1, 10, n)]
            fractions = [Fraction(w, sum(weights)) for w in weights]
            values = [
                np.array([Fraction(int(a), int(b)) for a, b in rng.integers(1, 50, (dim, 2))])
                for _ in range(n)
            ]
        else:
            fractions = list(rng.dirichlet(np.ones(n)))
            scale = 10.0 ** rng.uniform(-3, 3)
            values = list(rng.uniform(-1, 1, (n, dim)) * scale)
        cells.append(list(zip(fractions, values)))
    return cells


def ragged_space(cells, exact):
    """Equal masses; a one-piece cell is atomic with probability one half."""
    n = len(cells)
    masses = np.array([Fraction(1, n)] * n, dtype=object) if exact else np.full(n, 1.0 / n)
    divisible = [len(c) > 1 or k % 2 == 0 for k, c in enumerate(cells)]
    return GridSpace(masses, np.array(divisible), np.zeros(n, int))


@pytest.mark.parametrize("exact", [False, True], ids=["float", "fraction"])
def test_table_averages_equal_the_nested_loop(exact):
    from oracles import averages_reference, cell_average_reference

    rng = np.random.default_rng(20)
    for _ in range(100 if exact else 400):
        n_cells, dim = int(rng.integers(1, 9)), int(rng.integers(1, 4))
        sel = SplitSelection.of(ragged_cells(rng, n_cells, dim, exact))
        averages, reference = sel.averages(), averages_reference(sel)
        assert averages.dtype == reference.dtype and np.array_equal(averages, reference)
        for k in range(n_cells):
            row, reference_row = sel.cell_average(k), cell_average_reference(sel, k)
            assert row.dtype == reference_row.dtype and np.array_equal(row, reference_row)


def _damage(cells, space, k, defect, exact):
    """``cells`` and ``space`` with ``defect`` written into cell ``k``."""
    cells = [list(c) for c in cells]
    divisible = space.divisible.copy()
    (f0, v0), rest = cells[k][0], cells[k][1:]
    if defect == "empty":
        cells[k] = []
    elif defect == "atomic-two":
        divisible[k] = False
        cells[k] = [(f0 / 2, v0), (f0 / 2, v0)] + rest
    elif defect == "negative":
        quarter = Fraction(1, 4) if exact else 0.25
        cells[k] = [(f0 + quarter, v0), (-quarter, v0)] + rest
    elif defect == "sum-off":
        cells[k] = [(f0 + (Fraction(1, 10**9) if exact else 1e-9), v0)] + rest
    elif defect == "nan":
        cells[k] = [(np.nan, v0)] + rest
    return cells, GridSpace(space.masses, divisible, space.coarse)


def _outcome(check):
    try:
        check()
    except InvalidInput as exc:
        return str(exc)
    return None


DEFECTS = ["empty", "atomic-two", "negative", "sum-off", "nan"]


@pytest.mark.parametrize(
    "exact, defect",
    [(False, d) for d in DEFECTS] + [(True, d) for d in DEFECTS if d != "nan"],
    ids=lambda v: {False: "float", True: "fraction"}.get(v, v),
)
def test_table_validate_names_the_cell_the_nested_loop_names(exact, defect):
    # the defect at one cell, and a second random defect (or none) at
    # another, so the first offending cell and its first failed check count
    from oracles import validate_selection_reference

    rng = np.random.default_rng([21, DEFECTS.index(defect), int(exact)])
    kinds = ["empty", "atomic-two", "negative", "sum-off", None] + ([] if exact else ["nan"])
    messages = set()
    for _ in range(60):
        n_cells = int(rng.integers(2, 8))
        cells = ragged_cells(rng, n_cells, int(rng.integers(1, 4)), exact)
        space = ragged_space(cells, exact)
        sel = SplitSelection.of(cells)
        assert _outcome(lambda: sel.validate(space)) is None
        first, second = rng.choice(n_cells, 2, replace=False)
        cells, space = _damage(cells, space, first, defect, exact)
        other = kinds[int(rng.integers(len(kinds)))]
        if other is not None:
            cells, space = _damage(cells, space, second, other, exact)
        sel = SplitSelection.of(cells)
        outcome = _outcome(lambda: sel.validate(space))
        assert outcome is not None  # every defect, a NaN fraction included, is refused
        assert outcome == _outcome(lambda: validate_selection_reference(sel, space))
        messages.add(outcome)
    assert len(messages) > 1
