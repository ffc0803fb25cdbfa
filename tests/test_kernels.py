"""Kernel structure: coarseness, block ranks, family generators."""

from fractions import Fraction

import numpy as np
import pytest

from smpe.errors import InvalidInput
from smpe.game import sunspot_extend, validate_game
from smpe.kernels import (
    RANK_THRESHOLD,
    LevyParams,
    _seeded_rng,
    NoisyGameParams,
    NowakParams,
    block_rank_profile,
    check_coarser,
    kernel_matrix,
    levy_profile_index,
    make_levy_kernel,
    make_nowak_game,
    random_noisy_game,
    random_nowak_game,
)
from smpe.measure import half_split

from helpers import constant_kernel_game
from oracles import block_rank_elimination, elimination_rank_exact


# --- absorbing-jump family -----------------------------------------------------


def test_levy_hand_example_n4():
    spec = make_levy_kernel(LevyParams(alpha=1.0, m_theta=1, n_cells=4), blocks=2)
    assert validate_game(spec).passed
    prof = levy_profile_index(spec, "-1", "-1")
    dens = spec.cell_density()[:4, 0, prof]  # from source midpoint 0.125
    assert dens == pytest.approx([0.5, 1.0, 1.0, 1.0])
    assert spec.atom_kernel[0, 0, prof] == pytest.approx(0.125)
    assert spec.transition_masses()[:, 0, prof].sum() == pytest.approx(1.0, abs=1e-14)


def test_levy_both_up_goes_to_atom():
    spec = make_levy_kernel(LevyParams(alpha=1.0, m_theta=0, n_cells=4))
    prof = levy_profile_index(spec, "1", "1")
    assert np.all(spec.atom_kernel[0, :, prof] == 1.0)
    assert np.all(spec.cell_density()[:4, :, prof] == 0.0)


def test_levy_mixed_pair_halves_the_jump():
    spec = make_levy_kernel(LevyParams(alpha=0.8, m_theta=0, n_cells=4))
    down = levy_profile_index(spec, "-1", "-1")
    mixed = levy_profile_index(spec, "-1", "1")
    dens = spec.cell_density()
    assert np.allclose(dens[:4, :, mixed], dens[:4, :, down] / 2)
    s = 0.375  # midpoint of cell 1
    assert spec.atom_kernel[0, 1, mixed] == pytest.approx(1 - 0.8 * (1 - s) / 2)


def test_levy_block_ranks_equal_block_size_n8():
    spec = make_levy_kernel(LevyParams(alpha=1.0, m_theta=1, n_cells=8), blocks=2)
    prof = levy_profile_index(spec, "-1", "-1")
    kmtx = kernel_matrix(spec, profiles=[prof])
    ranks = block_rank_profile(kmtx, threshold=1e-8)
    assert list(ranks.values()) == [4, 4]
    # independent checks: pivots of floating-point and of exact rational elimination
    assert block_rank_elimination(kmtx, 1e-8) == ranks
    coarse_rows = kmtx.space.coarse[kmtx.rows]
    for e, expected in ranks.items():
        block = kmtx.matrix[coarse_rows == e]
        exact = [[Fraction(x).limit_denominator(10**12) for x in row] for row in block]
        assert elimination_rank_exact(exact) == expected


def test_levy_not_coarser():
    spec = make_levy_kernel(LevyParams(alpha=1.0, m_theta=0, n_cells=8), blocks=2)
    prof = levy_profile_index(spec, "-1", "-1")
    assert not check_coarser(kernel_matrix(spec, profiles=[prof]))


@pytest.mark.parametrize("n,blocks", [(8, 4), (16, 4), (32, 4)])
def test_levy_quarter_blocks_also_full_rank(n, blocks):
    spec = make_levy_kernel(LevyParams(alpha=1.0, m_theta=0, n_cells=n), blocks=blocks)
    prof = levy_profile_index(spec, "-1", "-1")
    ranks = block_rank_profile(kernel_matrix(spec, profiles=[prof]))
    assert list(ranks.values()) == [n // blocks] * blocks


def test_levy_rejects_bad_params():
    with pytest.raises(InvalidInput):
        LevyParams(alpha=0.0, m_theta=0, n_cells=8)
    with pytest.raises(InvalidInput):
        LevyParams(alpha=0.5, m_theta=0, n_cells=1)
    with pytest.raises(InvalidInput):
        make_levy_kernel(LevyParams(alpha=1.0, m_theta=0, n_cells=8), blocks=3)


@pytest.mark.parametrize(
    "name, build",
    [
        ("n_cells", lambda: make_levy_kernel(LevyParams(1.0, 1, 8.0))),
        ("m_theta", lambda: LevyParams(1.0, 1.5, 8)),
        ("blocks", lambda: make_levy_kernel(LevyParams(1.0, 1, 8), blocks=2.0)),
        ("n_cells", lambda: random_nowak_game(0, n_cells=2.5)),
        ("k_atoms", lambda: random_nowak_game(0, k_atoms=True)),
        ("n_h", lambda: random_noisy_game(0, n_h=2.0)),
    ],
    ids=["levy-n_cells", "levy-m_theta", "levy-blocks"]
    + ["nowak-n_cells", "nowak-k_atoms", "noisy-n_h"],
)
def test_family_counts_must_be_integers(name, build):
    with pytest.raises(InvalidInput, match=f"^{name} must be an integer"):
        build()


# --- coarseness ----------------------------------------------------------------


def test_sunspot_kernel_is_coarser():
    payoffs = np.zeros((2, 2, 4))
    spec = constant_kernel_game(payoffs, [0.3, 0.3], n_cells=2)
    ext = sunspot_extend(spec, 3)
    kmtx = kernel_matrix(ext)
    assert check_coarser(kmtx)
    assert all(r <= 1 for r in block_rank_profile(kmtx).values())


def test_constant_kernel_all_ranks_at_most_one():
    payoffs = np.zeros((2, 3, 4))
    spec = constant_kernel_game(payoffs, [0.3, 0.3], n_cells=3)
    kmtx = kernel_matrix(spec)
    assert all(r <= 1 for r in block_rank_profile(kmtx).values())


# --- mixture family ------------------------------------------------------------


def test_nowak_single_uniform_component():
    n = 6
    params = NowakParams(
        mu=np.full((1, n), 1.0 / n),
        delta=np.zeros((0, 0)),
        qmix=np.ones((1, n, 4)),
        bmix=np.zeros((0, n, 4)),
    )
    payoffs = np.zeros((2, n, 4))
    spec = make_nowak_game(params, (("a", "b"),) * 2, payoffs, [0.5, 0.5])
    assert validate_game(spec).passed
    kmtx = kernel_matrix(spec)
    assert all(r <= 1 for r in block_rank_profile(kmtx).values())
    assert check_coarser(kmtx)


def test_nowak_block_rank_bounded_by_components():
    for seed in range(3):
        params, spec = random_nowak_game(seed=seed, n_cells=10, j_components=2, k_atoms=1)
        assert validate_game(spec).passed
        kmtx = kernel_matrix(spec)
        ranks = block_rank_profile(kmtx)
        assert all(r <= params.j_components for r in ranks.values())
        elim = block_rank_elimination(kmtx, RANK_THRESHOLD)
        assert all(r <= params.j_components for r in elim.values())


def test_nowak_all_mass_on_atom_boundary():
    n = 4
    params = NowakParams(
        mu=np.full((1, n), 1.0 / n),
        delta=np.ones((1, 1)),
        qmix=np.zeros((1, n + 1, 4)),
        bmix=np.ones((1, n + 1, 4)),
    )
    payoffs = np.zeros((2, n + 1, 4))
    spec = make_nowak_game(params, (("a", "b"),) * 2, payoffs, [0.5, 0.5])
    assert validate_game(spec).passed
    assert np.all(spec.atom_kernel.sum(axis=0) == 1.0)


def test_nowak_inconsistent_masses_rejected():
    n = 4
    with pytest.raises(InvalidInput):
        NowakParams(
            mu=np.full((1, n), 2.0 / n),  # sums to 2
            delta=np.zeros((0, 0)),
            qmix=np.ones((1, n, 4)),
            bmix=np.zeros((0, n, 4)),
        )


# --- noisy family ---------------------------------------------------------------


def test_noisy_uniform_noise_gives_product_measure():
    params, spec = random_noisy_game(seed=0, n_h=3, n_r=4, uniform_noise=True)
    expected = np.kron(params.h_masses, params.r_masses)
    assert np.allclose(np.asarray(spec.space.masses, float), expected, atol=1e-15)
    assert check_coarser(kernel_matrix(spec))


def test_noisy_tilted_noise_still_coarser():
    for seed in range(5):
        params, spec = random_noisy_game(seed=seed)
        assert validate_game(spec).passed
        kmtx = kernel_matrix(spec)
        assert check_coarser(kmtx)
        assert all(r <= 1 for r in block_rank_profile(kmtx).values())


def test_noisy_half_split_succeeds_everywhere():
    _, spec = random_noisy_game(seed=11)
    rng = np.random.Generator(np.random.Philox(key=99))
    masses = np.asarray(spec.space.masses, float)
    for _ in range(10):
        keep = rng.random(spec.n_states) < 0.5
        if not keep.any():
            keep[0] = True
        retained = masses * keep * rng.uniform(0.2, 1.0, size=spec.n_states)
        split = half_split(retained, spec.space)
        carried = split.averages()[:, 0] * masses
        for e in range(spec.space.n_coarse):
            members = spec.space.coarse_members(e)
            assert abs(carried[members].sum() - retained[members].sum() / 2) <= 1e-12


def test_noisy_zero_mass_rejected():
    with pytest.raises(InvalidInput):
        NoisyGameParams(
            h_masses=np.zeros(2),
            r_masses=np.ones(2) / 2,
            alpha=np.ones((2, 4, 4)),
            noise=np.ones((2, 2)),
        )


def test_rank_threshold_must_be_positive():
    _, spec = random_noisy_game(seed=1)
    with pytest.raises(InvalidInput):
        block_rank_profile(kernel_matrix(spec), threshold=0.0)


def test_coarser_fails_on_covered_atomic_cell():
    from smpe.kernels import KernelMatrix
    from smpe.measure import GridSpace

    sp = GridSpace(np.array([0.5, 0.5]), np.array([False, True]), np.array([0, 0]))
    km = KernelMatrix(
        matrix=np.ones((2, 2)),
        space=sp,
        rows=np.array([0, 1]),
        columns=np.array([[0, 0], [1, 0]]),
    )
    assert not check_coarser(km)


def test_coarser_allows_atoms_outside_covered_blocks():
    _, spec = random_nowak_game(seed=0, n_cells=8, j_components=2, k_atoms=1)
    ext = sunspot_extend(spec, 2)
    assert check_coarser(kernel_matrix(ext))


# --- seeds ------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [[-1, 1], [1.5, 2], [2**64, 0], [True, 1], ["1", 2]])
@pytest.mark.parametrize("family", [random_nowak_game, random_noisy_game])
def test_list_seed_entries_must_be_uint64(family, seed):
    # numpy would cast [-1, 1] or [1.5, 2] into some other key with only a warning
    with pytest.raises(InvalidInput, match="list entries"):
        family(seed=seed)


@pytest.mark.parametrize("key", [[4242, 3], (7, 2**64 - 1)])
def test_valid_list_seed_draws_the_philox_stream_of_its_key(key):
    array = np.array(key, dtype=np.uint64)
    expected = np.random.Generator(np.random.Philox(key=array)).random(8)
    for seed in (key, list(key), array):
        assert np.array_equal(_seeded_rng(seed).random(8), expected)


def test_pool_list_seed_keeps_its_stream():
    # the key the benchmark pools and the golden results are generated from
    expected = np.random.Generator(np.random.Philox(key=[4242, 3])).random(8)
    assert np.array_equal(_seeded_rng([4242, 3]).random(8), expected)
