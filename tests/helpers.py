"""Shared builders for small test games."""

import numpy as np

from smpe.game import KernelDecomposition, StochasticGameSpec
from smpe.measure import GridSpace

# Keyword arguments of ``random_nowak_game`` for the two generated families
# the golden-digest tests pin (the benchmark's workloads of the same names).
FAMILIES = {
    "mixture-32": {"n_cells": 32, "j_components": 2, "k_atoms": 1},
    "atom-heavy": {"n_cells": 4, "j_components": 2, "k_atoms": 8},
}


def single_atom_game(payoffs, discounts, payoff_bound=None, n_actions=None):
    """One absorbing atomic state; payoffs is (m, n_profiles)."""
    payoffs = np.asarray(payoffs, dtype=float)
    m, n_profiles = payoffs.shape
    if n_actions is None:
        k = int(round(n_profiles ** (1.0 / m)))
        assert k**m == n_profiles
        n_actions = (k,) * m
    assert int(np.prod(n_actions)) == n_profiles
    space = GridSpace(np.array([1.0]), np.array([False]), np.array([0]))
    kernel = KernelDecomposition(rho=np.zeros((1, 1)), q=np.zeros((1, 1, 1, n_profiles)))
    atom_kernel = np.ones((1, 1, n_profiles))
    actions = tuple(tuple(f"a{j}" for j in range(k)) for k in n_actions)
    feasible = tuple(np.ones((1, k), dtype=bool) for k in n_actions)
    if payoff_bound is None:
        payoff_bound = max(1.0, float(np.max(np.abs(payoffs))))
    return StochasticGameSpec(
        discounts=np.asarray(discounts, dtype=float),
        actions=actions,
        feasible=feasible,
        payoffs=payoffs.reshape(m, 1, n_profiles),
        payoff_bound=payoff_bound,
        space=space,
        kernel=kernel,
        atom_kernel=atom_kernel,
    )


def four_player_game():
    """2x2x2x2 one-atom game in which each player's action 0 dominates:
    payoffs 0.5 * [a_i = 0] plus uniform noise on (-0.2, 0.2), Philox key 41."""
    rng = np.random.Generator(np.random.Philox(key=41))
    actions = np.indices((2,) * 4).reshape(4, -1)
    payoffs = 0.5 * (actions == 0) + rng.uniform(-0.2, 0.2, (4, 16))
    return single_atom_game(payoffs, [0.5, 0.6, 0.7, 0.4])


def constant_kernel_game(payoffs, discounts, n_cells=2, payoff_bound=None):
    """All divisible cells, one coarse cell, state-independent uniform kernel.

    payoffs is (m, n_cells, n_profiles).
    """
    payoffs = np.asarray(payoffs, dtype=float)
    m, n_states, n_profiles = payoffs.shape
    assert n_states == n_cells
    k = int(round(n_profiles ** (1.0 / m)))
    assert k**m == n_profiles
    space = GridSpace(
        np.full(n_cells, 1.0 / n_cells), np.ones(n_cells, bool), np.zeros(n_cells, int)
    )
    kernel = KernelDecomposition(
        rho=np.ones((1, n_cells)), q=np.ones((1, 1, n_states, n_profiles))
    )
    atom_kernel = np.zeros((0, n_states, n_profiles))
    actions = tuple(tuple(f"a{j}" for j in range(k)) for _ in range(m))
    feasible = tuple(np.ones((n_states, k), dtype=bool) for _ in range(m))
    if payoff_bound is None:
        payoff_bound = max(1.0, float(np.max(np.abs(payoffs))))
    return StochasticGameSpec(
        discounts=np.asarray(discounts, dtype=float),
        actions=actions,
        feasible=feasible,
        payoffs=payoffs,
        payoff_bound=payoff_bound,
        space=space,
        kernel=kernel,
        atom_kernel=atom_kernel,
    )


def assert_same_points(points, reference):
    """Library equilibria equal reference (strategies, payoffs) pairs bit
    for bit and in the same order."""
    assert len(points) == len(reference)
    for point, (strategies, payoffs) in zip(points, reference):
        assert len(point.strategies) == len(strategies)
        for mine, theirs in zip(point.strategies, strategies):
            assert np.array_equal(mine, theirs)
        assert np.array_equal(point.payoffs, payoffs)


def walsh_matrix(n):
    h = np.array([[1.0]])
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h
