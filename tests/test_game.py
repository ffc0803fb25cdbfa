"""Game validation and the sunspot extension."""

import numpy as np
import pytest
from dataclasses import replace

from smpe.errors import InvalidInput
from smpe.game import KernelDecomposition, validate_game, sunspot_extend
from smpe.kernels import check_coarser, kernel_matrix, random_nowak_game

from helpers import constant_kernel_game, single_atom_game


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
