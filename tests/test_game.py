"""Game validation and the sunspot extension."""

from dataclasses import replace
from fractions import Fraction
from functools import cache

import numpy as np
import pytest

from smpe.errors import InvalidInput
from smpe.game import KernelDecomposition, validate_game, sunspot_extend
from smpe.gamefile import spec_hash
from smpe.kernels import (
    ROW_MATCH_TOL,
    KernelMatrix,
    LevyParams,
    check_coarser,
    kernel_matrix,
    make_levy_kernel,
    random_noisy_game,
    random_nowak_game,
)
from smpe.measure import GridSpace

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


def test_spec_keeps_its_own_read_only_arrays():
    _, spec = random_nowak_game(seed=20, n_cells=4, j_components=1, k_atoms=1)
    discounts, payoffs, atom_kernel = (
        spec.discounts.copy(), spec.payoffs.copy(), spec.atom_kernel.copy()
    )
    rho, q = spec.kernel.rho.copy(), spec.kernel.q.copy()
    owned = replace(
        spec,
        discounts=discounts,
        payoffs=payoffs,
        atom_kernel=atom_kernel,
        kernel=KernelDecomposition(rho=rho, q=q),
    )
    callers = (discounts, payoffs, atom_kernel, rho, q)
    kept = (owned.discounts, owned.payoffs, owned.atom_kernel, owned.kernel.rho, owned.kernel.q)
    assert all(arr.flags.writeable for arr in callers)
    assert not any(arr.flags.writeable for arr in kept)
    before = [arr.copy() for arr in kept]
    for arr in callers:  # the caller's arrays, written after construction
        arr[...] = 99.0
    assert all(np.array_equal(arr, old) for arr, old in zip(kept, before))
    assert validate_game(owned).passed


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
    for profiles in (None, [spec.n_profiles - 1, 0]):
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
