"""Game validation and the sunspot extension."""

import dataclasses
from dataclasses import replace
from fractions import Fraction
from functools import cache

import numpy as np
import pytest

import smpe
from smpe.errors import InvalidInput
from smpe.game import KernelDecomposition, validate_game, sunspot_extend
from smpe.gamefile import canonical_bytes, result_to_doc, spec_from_doc, spec_hash, spec_to_doc
from smpe.kernels import (
    ROW_MATCH_TOL,
    KernelMatrix,
    LevyParams,
    NoisyGameParams,
    NowakParams,
    check_coarser,
    kernel_matrix,
    make_levy_kernel,
    random_noisy_game,
    random_nowak_game,
)
from smpe.measure import CandidateField, GridSpace
from smpe.nash import AggregateVector, StageGame
from smpe.solver import solve

from helpers import constant_kernel_game, single_atom_game
from oracles import check_coarser_reference, sunspot_extend_reference, validate_game_reference


def two_cell_spec():
    payoffs = np.zeros((2, 2, 4))
    payoffs[0, 0] = [0.5, -0.5, 0.25, 0.0]
    payoffs[1, 1] = [0.1, 0.2, 0.3, 0.4]
    return constant_kernel_game(payoffs, [0.5, 0.5], n_cells=2)


def test_wellformed_spec_passes():
    report = validate_game(two_cell_spec())
    assert report.passed and not report.violations and report.no_g_atom


def test_negative_kernel_entry_flagged():
    spec = two_cell_spec()
    q = spec.kernel.q.copy()
    q[0, 0, 0, 0] = -0.1
    bad = replace(spec, kernel=KernelDecomposition(rho=spec.kernel.rho, q=q))
    report = validate_game(bad)
    assert not report.passed
    assert any("negative kernel component" in v for v in report.violations)


def test_normalization_violation_flagged():
    spec = two_cell_spec()
    q = spec.kernel.q * 0.98
    bad = replace(spec, kernel=KernelDecomposition(rho=spec.kernel.rho, q=q))
    report = validate_game(bad)
    assert not report.passed
    assert any("normalization 0.98" in v for v in report.violations)


def test_empty_feasible_set_flagged():
    spec = two_cell_spec()
    feasible = list(spec.feasible)
    mask = feasible[0].copy()
    mask[1, :] = False
    feasible[0] = mask
    report = validate_game(replace(spec, feasible=tuple(feasible)))
    assert not report.passed
    assert any("empty feasible set" in v for v in report.violations)


def test_spec_keeps_its_own_read_only_feasible_masks():
    spec = two_cell_spec()
    masks = [f.copy() for f in spec.feasible]
    owned = replace(spec, feasible=tuple(masks))
    masks[0][:] = False  # the caller's array, written after construction
    assert validate_game(owned).passed
    assert not owned.feasible[0].flags.writeable


@cache
def _intake_game():
    return random_nowak_game(seed=20, n_cells=4, j_components=1, k_atoms=1)


def _fields(*names):
    return lambda value: {name: getattr(value, name) for name in names}


def _spec_arrays(spec):
    arrays = _fields("discounts", "payoffs", "atom_kernel")(spec)
    return arrays | {f"feasible[{i}]": mask for i, mask in enumerate(spec.feasible)}


def _spec_build(a):
    feasible = tuple(a.pop(f"feasible[{i}]") for i in range(2))
    return replace(_intake_game()[1], feasible=feasible, **a)


# Per value type: a valid value, how to build one from caller's arrays, and
# the arrays it holds, by name; the caller's arrays are fresh copies of the
# valid value's.
INTAKE = {
    "GridSpace": (
        lambda: GridSpace([0.25, 0.25, 0.5], [True, True, False], [0, 0, 1]),
        lambda a: GridSpace(**a),
        _fields("masses", "divisible", "coarse"),
    ),
    "CandidateField": (
        lambda: CandidateField(([[0.0, 1.0], [1.0, 0.0]], [[0.5, 0.5]])),
        lambda a: CandidateField(tuple(a.values())),
        lambda v: {f"sets[{k}]": cands for k, cands in enumerate(v.sets)},
    ),
    "KernelDecomposition": (
        lambda: _intake_game()[1].kernel,
        lambda a: KernelDecomposition(**a),
        _fields("rho", "q"),
    ),
    "StochasticGameSpec": (lambda: _intake_game()[1], _spec_build, _spec_arrays),
    "KernelMatrix": (
        lambda: kernel_matrix(_intake_game()[1]),
        lambda a: KernelMatrix(space=_intake_game()[1].space, **a),
        _fields("matrix", "rows", "columns"),
    ),
    "NowakParams": (
        lambda: _intake_game()[0],
        lambda a: NowakParams(**a),
        _fields("mu", "delta", "qmix", "bmix"),
    ),
    "NoisyGameParams": (
        lambda: random_noisy_game(seed=3, n_h=2, n_r=2)[0],
        lambda a: NoisyGameParams(**a),
        _fields("h_masses", "r_masses", "alpha", "noise"),
    ),
    "StageGame": (
        lambda: StageGame(([[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]), ((0, 1), (0, 1))),
        lambda a: StageGame(tuple(a.values()), ((0, 1), (0, 1))),
        lambda v: {f"payoffs[{i}]": p for i, p in enumerate(v.payoffs)},
    ),
    "AggregateVector": (
        lambda: AggregateVector(np.linspace(0.0, 1.0, 6).reshape(2, 3, 1)),
        lambda a: AggregateVector(**a),
        _fields("c"),
    ),
}

# Exported dataclasses that take in no caller's array, and why.
INTAKE_EXEMPT = {
    "EquilibriumResult": "output of solve, built from its own tables",
    "Certificate": "output of deviation_residual",
    "SimulationReport": "output of simulate_payoffs",
    "ValidationReport": "output of validate_game, strings and flags only",
    "SplitSelection": "checked by validate, where results enter the certificate",
    "NashPoint": "output of nash_enumerate, from its own clipped arrays",
    "SolveOptions": "scalars only, checked on entry to solve",
    "LevyParams": "scalars only, checked by its constructor",
}


def _callers_arrays(row):
    """Fresh, writeable copies of the arrays a valid value of ``row`` holds."""
    example, _, held = INTAKE[row]
    return {name: np.array(arr) for name, arr in held(example()).items()}


@pytest.mark.parametrize("row", sorted(INTAKE))
def test_value_type_keeps_its_own_read_only_arrays(row):
    _, build, held = INTAKE[row]
    callers = _callers_arrays(row)
    kept = held(build(dict(callers)))
    assert kept.keys() == callers.keys()
    for name, arr in kept.items():
        assert arr.flags.c_contiguous and not arr.flags.writeable, name
        assert not np.shares_memory(arr, callers[name]), name
    before = {name: arr.copy() for name, arr in kept.items()}
    for arr in callers.values():  # the caller's arrays, written after construction
        arr[...] = ~arr if arr.dtype == bool else 99
    assert all(np.array_equal(kept[name], before[name]) for name in kept)
    assert all(arr.flags.writeable for arr in callers.values())
    floats = [name for name, arr in callers.items() if arr.dtype.kind == "f"]
    assert floats
    for name in floats:
        for bad in (np.nan, np.inf, -np.inf):
            damaged = _callers_arrays(row)
            damaged[name].flat[-1] = bad
            with pytest.raises(InvalidInput, match="must be finite"):
                build(damaged)
        damaged = _callers_arrays(row)
        damaged[name] = damaged[name] + 0.7j  # a cast would keep the real parts alone
        with pytest.raises(InvalidInput, match="must be real$"):
            build(damaged)


# Every bool and int array among INTAKE's values, with the field name its
# InvalidInput gives.
CAST_FIELDS = {
    ("GridSpace", "divisible"): "divisible",
    ("GridSpace", "coarse"): "coarse",
    ("KernelMatrix", "rows"): "row cells",
    ("KernelMatrix", "columns"): "column labels",
    ("StochasticGameSpec", "feasible[0]"): "feasible masks",
    ("StochasticGameSpec", "feasible[1]"): "feasible masks",
}


@pytest.mark.parametrize("row, name", sorted(CAST_FIELDS), ids="-".join)
def test_bool_and_int_fields_refuse_values_the_cast_would_change(row, name):
    # np.array(..., dtype=bool) reads 0.5 and NaN as True and int reads 1.7
    # as 1; a field takes in only values that its cast gives back
    _, build, _ = INTAKE[row]
    is_bool = _callers_arrays(row)[name].dtype == bool
    kind = "booleans \\(0 or 1\\)" if is_bool else "integers"
    for bad in (0.5, np.nan, 2.0) if is_bool else (0.5, 1.7, -0.5):
        damaged = _callers_arrays(row)
        damaged[name] = damaged[name].astype(float)
        damaged[name].flat[-1] = bad
        with pytest.raises(InvalidInput, match=f"^{CAST_FIELDS[row, name]} must hold {kind}$"):
            build(damaged)
    as_floats = _callers_arrays(row)
    as_floats[name] = as_floats[name].astype(float)  # values the cast gives back
    kept = INTAKE[row][2](build(as_floats))[name]
    assert np.array_equal(kept, _callers_arrays(row)[name]) and kept.dtype.kind in "bi"


def test_every_bool_and_int_field_is_checked_on_intake():
    fields = {
        (row, name)
        for row in INTAKE
        for name, arr in _callers_arrays(row).items()
        if arr.dtype.kind in "bi"
    }
    assert fields == CAST_FIELDS.keys()
    with pytest.raises(InvalidInput, match="divisible must hold booleans"):
        GridSpace([0.5, 0.5], [np.nan, 0.5], [0.9, 1.7])


def test_every_exported_value_type_takes_its_arrays_in():
    # a new value type must be a row of INTAKE or exempt with a reason
    exported = {name for name in smpe.__all__ if dataclasses.is_dataclass(getattr(smpe, name))}
    assert not INTAKE.keys() & INTAKE_EXEMPT.keys()
    assert INTAKE.keys() | INTAKE_EXEMPT.keys() <= exported
    assert not exported - INTAKE.keys() - INTAKE_EXEMPT.keys()


def test_spec_refuses_a_payoff_bound_that_is_not_a_number():
    spec = two_cell_spec()
    for bound in ("1.0", None, np.nan, np.inf, 0.0, True):
        with pytest.raises(InvalidInput, match="payoff_bound must be a positive number"):
            replace(spec, payoff_bound=bound)


def test_cell_density_is_computed_once_per_spec():
    spec = two_cell_spec()
    density = spec.cell_density()
    assert spec.cell_density() is density
    assert not density.flags.writeable
    other = replace(spec, kernel=KernelDecomposition(rho=spec.kernel.rho, q=spec.kernel.q * 2))
    assert other.cell_density() is not density
    assert np.array_equal(other.cell_density(), 2 * density)


def test_payoff_bound_violation_flagged():
    spec = two_cell_spec()
    payoffs = spec.payoffs.copy()
    payoffs[0, 0, 0] = spec.payoff_bound + 1.0
    report = validate_game(replace(spec, payoffs=payoffs))
    assert not report.passed
    assert any("payoff bound" in v for v in report.violations)


def test_density_on_atom_breaks_no_g_atom_flag():
    spec = single_atom_game(np.zeros((1, 2)), [0.0])
    rho = spec.kernel.rho.copy()
    rho[0, 0] = 1.0
    q = spec.kernel.q.copy()
    q[:] = 0.0
    bad = replace(
        spec,
        kernel=KernelDecomposition(rho=rho, q=q),
    )
    report = validate_game(bad)
    assert not report.no_g_atom


def test_discount_out_of_range_rejected():
    with pytest.raises(InvalidInput):
        single_atom_game(np.zeros((1, 2)), [1.0])


def test_two_dimensional_discounts_rejected():
    # one factor per player: a column of factors is no discount vector
    with pytest.raises(InvalidInput, match="1-D"):
        replace(two_cell_spec(), discounts=np.array([[0.5], [0.5]]))


# --- sunspot extension ---------------------------------------------------------


def test_sunspot_single_cell_example():
    payoffs = np.zeros((2, 1, 4))
    spec = constant_kernel_game(payoffs, [0.4, 0.4], n_cells=1)
    ext = sunspot_extend(spec, 2)
    assert ext.n_states == 2
    assert ext.space.n_coarse == 1
    assert check_coarser(kernel_matrix(ext))
    dens = ext.cell_density()
    assert np.max(np.abs(dens[0] - dens[1])) == 0.0


def test_sunspot_requires_two_cells():
    spec = two_cell_spec()
    with pytest.raises(InvalidInput):
        sunspot_extend(spec, 1)


@pytest.mark.parametrize("cells", [2.5, 2.0, "2"])
def test_sunspot_requires_an_integer_cell_count(cells):
    with pytest.raises(InvalidInput, match="sunspot_cells must be an integer"):
        sunspot_extend(two_cell_spec(), cells)


def test_sunspot_requires_divisible_cells():
    spec = single_atom_game(np.zeros((2, 4)), [0.0, 0.0])
    with pytest.raises(InvalidInput):
        sunspot_extend(spec, 2)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sunspot_preserves_validation_and_mass(seed):
    _, spec = random_nowak_game(seed=seed, n_cells=6, j_components=2, k_atoms=1)
    ext = sunspot_extend(spec, 3)
    assert validate_game(ext).passed
    # total transition mass per (source, profile) preserved to 1e-12
    origin = []
    for k in range(spec.n_states):
        origin.extend([k] * (3 if spec.space.divisible[k] else 1))
    old_total = spec.transition_masses().sum(axis=0)
    new_total = ext.transition_masses().sum(axis=0)
    assert np.max(np.abs(new_total - old_total[np.asarray(origin)])) <= 1e-12


def test_sunspot_payoffs_independent_of_coordinate():
    _, spec = random_nowak_game(seed=5, n_cells=4, j_components=1, k_atoms=0)
    ext = sunspot_extend(spec, 4)
    payoffs = ext.payoffs.reshape(spec.players, spec.n_states, 4, -1)
    assert np.all(payoffs == payoffs[:, :, :1, :])


def test_sunspot_atoms_carried_unchanged():
    _, spec = random_nowak_game(seed=7, n_cells=4, j_components=1, k_atoms=2)
    ext = sunspot_extend(spec, 2)
    assert ext.n_atoms == spec.n_atoms
    old_atoms = np.asarray(spec.space.masses, float)[spec.space.atom_indices]
    new_atoms = np.asarray(ext.space.masses, float)[ext.space.atom_indices]
    assert np.array_equal(old_atoms, new_atoms)


# --- array programs against the loop references -------------------------------


def _fraction_grid_game():
    """Three states on exact Fraction masses, one of them a zero-density atom."""
    masses = np.array([Fraction(1, 3), Fraction(1, 7), Fraction(11, 21)], dtype=object)
    space = GridSpace(masses, np.array([True, False, True]), np.array([0, 1, 0]))
    rho = np.array([[1.0, 0.0, 1.0]]) / float(Fraction(18, 21))
    q = np.zeros((1, 2, 3, 4))
    q[0, 0] = 0.75
    atom_kernel = np.full((1, 3, 4), 0.25)
    payoffs = np.linspace(-1.0, 1.0, 24).reshape(2, 3, 4)
    spec = constant_kernel_game(np.zeros((2, 3, 4)), [0.5, 0.5], n_cells=3)
    return replace(
        spec,
        payoffs=payoffs,
        space=space,
        kernel=KernelDecomposition(rho=rho, q=q),
        atom_kernel=atom_kernel,
    )


@cache
def _family_games():
    games = {
        "nowak-6": random_nowak_game(seed=0, n_cells=6, j_components=2, k_atoms=1)[1],
        "nowak-32": random_nowak_game(seed=3, n_cells=32, j_components=2, k_atoms=1)[1],
        "nowak-atom-heavy": random_nowak_game(seed=4, n_cells=4, j_components=2, k_atoms=8)[1],
        "nowak-three-player": random_nowak_game(
            seed=5, n_cells=5, j_components=1, k_atoms=0, n_actions=(2, 3, 2)
        )[1],
        "absorbing": make_levy_kernel(LevyParams(alpha=0.6, m_theta=1, n_cells=6), blocks=3),
        "noisy": random_noisy_game(seed=2, n_h=3, n_r=4)[1],
        "fraction-grid": _fraction_grid_game(),
    }
    for name in list(games):
        games[f"{name}-sunspot"] = sunspot_extend(games[name], 3)
    return games


@cache
def _broken_games():
    """Variants that reach every violation branch of ``validate_game``."""
    rng = np.random.default_rng(15)
    games = {}
    for name, spec in _family_games().items():
        feasible = tuple(rng.random(f.shape) < 0.6 for f in spec.feasible)
        games[f"{name}-random-mask"] = replace(spec, feasible=feasible)
        q = spec.kernel.q * 0.98  # breaks every state with divisible mass
        games[f"{name}-scaled-kernel"] = replace(
            spec, kernel=KernelDecomposition(rho=spec.kernel.rho, q=q)
        )
        payoffs = spec.payoffs.copy()
        for i in range(spec.players):  # one break per player, at different states
            payoffs[i, (2 * i + 1) % spec.n_states, -1] = spec.payoff_bound * (1.5 + i)
        games[f"{name}-payoff-break"] = replace(spec, payoffs=payoffs)
        # every state keeps its first action feasible, so the masks decide
        # which profiles the normalization and payoff checks read
        feasible = tuple(f.copy() for f in feasible)
        for f in feasible:
            f[:, 0] = True
        q = spec.kernel.q * rng.uniform(0.97, 1.03, size=spec.kernel.q.shape[2:])
        games[f"{name}-masked-breaks"] = replace(
            spec,
            feasible=feasible,
            payoffs=payoffs,
            kernel=KernelDecomposition(rho=spec.kernel.rho, q=q),
        )
    spec = _family_games()["nowak-6"]
    q = spec.kernel.q.copy()
    q[:, :, [1, 4], :] *= 1.01  # normalization broken at two states only
    q[0, 0, 0, 0] = -0.1
    games["nowak-6-two-states-negative"] = replace(
        spec, kernel=KernelDecomposition(rho=spec.kernel.rho, q=q)
    )
    rho = spec.kernel.rho.copy()
    rho[:, spec.space.atom_indices] = 0.5  # density on an atom: no_g_atom is False
    games["nowak-6-density-on-atom"] = replace(
        spec, kernel=KernelDecomposition(rho=rho, q=spec.kernel.q)
    )
    return games


@cache
def _boundary_corpus():
    return {**_family_games(), **_broken_games()}


def test_boundary_corpus_reaches_every_branch():
    reports = [validate_game(spec) for spec in _boundary_corpus().values()]
    violations = [v for report in reports for v in report.violations]
    for needle in (
        "negative kernel component",
        "empty feasible set",
        "!= 1 at state",
        "states in total",
        "(player 0, state",
        "(player 1, state",
        "(player 2, state",
    ):
        assert any(needle in v for v in violations), needle
    assert any(report.passed for report in reports)
    assert not all(report.no_g_atom for report in reports)
    several = [r for r in reports if any("states in total" in v for v in r.violations)]
    assert any(sum("!= 1 at state" in v for v in r.violations) == 5 for r in several)


@pytest.mark.parametrize("name", sorted(_boundary_corpus()))
def test_validate_game_matches_loop_reference(name):
    spec = _boundary_corpus()[name]
    assert validate_game(spec) == validate_game_reference(spec)


@pytest.mark.parametrize("name", sorted(_family_games()))
@pytest.mark.parametrize("copies", [2, 3])
def test_sunspot_extend_matches_loop_reference(name, copies):
    spec = _family_games()[name]
    ext, ref = sunspot_extend(spec, copies), sunspot_extend_reference(spec, copies)
    assert spec_hash(ext) == spec_hash(ref)
    assert np.array_equal(ext.space.masses, ref.space.masses)
    assert ext.space.masses.dtype == ref.space.masses.dtype == float


@cache
def _kernel_matrices():
    """Matrices of the family games plus hand-built edge cases."""
    out = {}
    for name, spec in _family_games().items():
        out[name] = kernel_matrix(spec)
        out[f"{name}-profile-0"] = kernel_matrix(spec, profiles=[0])
    noisy = out["noisy"]
    for scale, label in ((0.5, "inside"), (2.0, "outside")):
        matrix = noisy.matrix.copy()
        matrix[1, 3] += scale * ROW_MATCH_TOL  # rows 0..3 share a coarse cell
        out[f"noisy-spread-{label}-tol"] = replace(noisy, matrix=matrix)
    two = GridSpace(np.array([0.5, 0.5]), np.array([False, True]), np.array([0, 0]))
    columns = np.array([[0, 0], [1, 0]])
    out["covered-atom-positive-mass"] = KernelMatrix(
        matrix=np.ones((1, 2)), space=two, rows=np.array([1]), columns=columns
    )
    out["covered-atom-zero-mass"] = KernelMatrix(
        matrix=np.ones((1, 2)),
        space=GridSpace(np.array([0.0, 1.0]), np.array([False, True]), np.array([0, 0])),
        rows=np.array([1]),
        columns=columns,
    )
    out["atomic-row"] = KernelMatrix(
        matrix=np.ones((2, 2)), space=two, rows=np.array([0, 1]), columns=columns
    )
    singles = GridSpace(np.full(3, 1 / 3), np.ones(3, bool), np.array([2, 0, 1]))
    out["single-row-blocks"] = KernelMatrix(
        matrix=np.arange(6.0).reshape(3, 2), space=singles, rows=np.arange(3), columns=columns
    )
    out["no-rows"] = KernelMatrix(
        matrix=np.zeros((0, 2)), space=singles, rows=np.zeros(0, int), columns=columns
    )
    return out


def test_kernel_matrix_corpus_reaches_both_verdicts():
    verdicts = {name: check_coarser(km) for name, km in _kernel_matrices().items()}
    assert verdicts["noisy-spread-inside-tol"] and not verdicts["noisy-spread-outside-tol"]
    assert not verdicts["covered-atom-positive-mass"] and verdicts["covered-atom-zero-mass"]
    assert verdicts["single-row-blocks"] and verdicts["no-rows"]


@pytest.mark.parametrize("name", sorted(_kernel_matrices()))
def test_check_coarser_matches_loop_reference(name):
    kmtx = _kernel_matrices()[name]
    assert check_coarser(kmtx) is check_coarser_reference(kmtx)
    assert kmtx.block_ids() == sorted(set(int(kmtx.space.coarse[r]) for r in kmtx.rows))


@pytest.mark.parametrize("name", sorted(_family_games()))
def test_kernel_matrix_columns_match_the_loop_form(name):
    spec = _family_games()[name]
    last = spec.n_profiles - 1
    for profiles in (None, [last, 0], np.array([last, 0])):
        kmtx = kernel_matrix(spec, profiles=profiles)
        chosen = list(range(spec.n_profiles)) if profiles is None else profiles
        rows = spec.space.divisible_indices
        dens = spec.cell_density()[np.ix_(rows, range(spec.n_states), chosen)]
        assert np.array_equal(kmtx.matrix, dens.reshape(len(rows), -1))
        assert kmtx.columns.tolist() == [[s, p] for s in range(spec.n_states) for p in chosen]


def test_fuzzed_games_match_loop_references():
    rng = np.random.default_rng(1515)
    for trial in range(60):
        n_actions = tuple(rng.integers(1, 4, size=rng.integers(1, 4)))
        _, spec = random_nowak_game(
            seed=trial,
            n_cells=int(rng.integers(1, 9)),
            j_components=int(rng.integers(1, 3)),
            k_atoms=int(rng.integers(0, 3)),
            n_actions=n_actions,
        )
        feasible = tuple(rng.random(f.shape) < 0.8 for f in spec.feasible)
        payoffs = spec.payoffs * rng.choice([1.0, 1.5], size=spec.payoffs.shape, p=[0.95, 0.05])
        q = spec.kernel.q * rng.choice([1.0, 0.9, 1.1], size=spec.kernel.q.shape[2:])
        spec = replace(
            spec,
            feasible=feasible,
            payoffs=payoffs,
            kernel=KernelDecomposition(rho=spec.kernel.rho, q=q),
        )
        assert validate_game(spec) == validate_game_reference(spec)
        copies = int(rng.integers(2, 4))
        ext = sunspot_extend(spec, copies)
        assert spec_hash(ext) == spec_hash(sunspot_extend_reference(spec, copies))
        for kmtx in (kernel_matrix(spec), kernel_matrix(ext)):
            assert check_coarser(kmtx) is check_coarser_reference(kmtx)


@pytest.mark.parametrize("tol", [np.nan, -1e-9, np.inf])
def test_bad_tolerances_are_refused(tol):
    # a NaN tolerance fails every comparison, so it would pass any game or matrix
    spec = two_cell_spec()
    with pytest.raises(InvalidInput, match="tolerance must be nonnegative and finite"):
        validate_game(spec, tol)
    with pytest.raises(InvalidInput, match="tolerance must be nonnegative and finite"):
        check_coarser(kernel_matrix(spec), tol)


def test_zero_tolerance_is_accepted():
    spec = two_cell_spec()
    assert validate_game(spec, 0.0).passed
    assert check_coarser(kernel_matrix(spec), 0.0)


@pytest.mark.parametrize(
    "profiles, message",
    [
        ([99], r"must lie in \[0, 4\)"),
        ([-1], r"must lie in \[0, 4\)"),
        ([0, 4], r"must lie in \[0, 4\)"),
        ([1.5], "integer profile indices"),
        ([np.float64(1.0)], "integer profile indices"),
        (["1"], "integer profile indices"),
        (3, "integer profile indices"),
    ],
)
def test_kernel_matrix_refuses_bad_profile_indices(profiles, message):
    # [-1] used to read profile 3 under a column labelled -1
    with pytest.raises(InvalidInput, match=message):
        kernel_matrix(two_cell_spec(), profiles=profiles)


# --- array layout -------------------------------------------------------------


MIXTURE = {"n_cells": 32, "j_components": 2, "k_atoms": 1}
ATOM_HEAVY = {"n_cells": 4, "j_components": 2, "k_atoms": 8}


def _result_bytes(spec):
    return canonical_bytes(result_to_doc(solve(spec), spec))


def _held_arrays(spec):
    space = spec.space
    return (
        spec.discounts, spec.payoffs, spec.atom_kernel, spec.kernel.rho, spec.kernel.q,
        *spec.feasible, space.masses, space.divisible, space.coarse,
    )


def _strided(arr):
    """A view of ``arr``'s values: every other entry of a wider buffer, with
    the first axis running fastest, as a gather along a later axis leaves it."""
    moved = np.moveaxis(arr, 0, -1)
    wide = np.zeros(moved.shape[:-1] + (2 * moved.shape[-1],), dtype=arr.dtype)
    wide[..., ::2] = moved
    return np.moveaxis(wide[..., ::2], -1, 0)


@pytest.mark.parametrize(
    "key, family", [([4242, i], MIXTURE) for i in range(4)] + [([4242, 0], ATOM_HEAVY)]
)
def test_sunspot_result_bytes_do_not_depend_on_the_route(key, family):
    # the extension gathers its tables; the same game read back from its
    # document must solve to the same bytes
    ext = sunspot_extend(random_nowak_game(seed=key, **family)[1], 2)
    assert all(arr.flags.c_contiguous for arr in _held_arrays(ext))
    assert _result_bytes(ext) == _result_bytes(spec_from_doc(spec_to_doc(ext)))


@pytest.mark.parametrize("layout", ["fortran", "strided"])
def test_spec_stores_c_ordered_read_only_copies(layout):
    _, spec = random_nowak_game(seed=[4242, 0], **MIXTURE)
    relay = np.asfortranarray if layout == "fortran" else _strided
    kernel = KernelDecomposition(rho=relay(spec.kernel.rho), q=relay(spec.kernel.q))
    grid = spec.space
    space = GridSpace(relay(grid.masses), relay(grid.divisible), relay(grid.coarse))
    other = replace(
        spec,
        payoffs=relay(spec.payoffs),
        atom_kernel=relay(spec.atom_kernel),
        feasible=tuple(relay(f) for f in spec.feasible),
        kernel=kernel,
        space=space,
    )
    assert not any(relay(a).flags.c_contiguous for a in (spec.payoffs, spec.kernel.q))
    for held in _held_arrays(other):
        assert held.flags.c_contiguous and not held.flags.writeable
    assert spec_hash(other) == spec_hash(spec)
    assert _result_bytes(other) == _result_bytes(spec)
