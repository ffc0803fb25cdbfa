"""Stage-game construction and equilibrium enumeration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smpe.errors import InvalidInput
from smpe.nash import (
    AggregateVector,
    StageGame,
    aggregate_moments,
    best_response_gap,
    build_stage_game,
    expected_payoffs,
    nash_enumerate,
    nash_enumerate_stack,
    regret_matching,
    stage_payoff_tensor,
)

from helpers import assert_same_points, constant_kernel_game, single_atom_game
from oracles import nash_two_reference, pure_equilibria_bruteforce


def bimatrix(a, b):
    return StageGame(payoffs=(np.asarray(a, float), np.asarray(b, float)), actions=((0, 1), (0, 1)))


# --- enumeration on classic games ----------------------------------------------


def test_matching_pennies_unique_mixed():
    game = bimatrix([[1, -1], [-1, 1]], [[-1, 1], [1, -1]])
    points = nash_enumerate(game)
    assert len(points) == 1
    (point,) = points
    for strat in point.strategies:
        assert strat == pytest.approx([0.5, 0.5], abs=1e-9)
    assert point.payoffs == pytest.approx([0.0, 0.0], abs=1e-10)


def test_prisoners_dilemma_dominant_profile():
    game = bimatrix([[3, 0], [5, 1]], [[3, 5], [0, 1]])
    points = nash_enumerate(game)
    assert len(points) == 1
    assert points[0].strategies[0] == pytest.approx([0.0, 1.0])
    assert points[0].strategies[1] == pytest.approx([0.0, 1.0])
    assert points[0].payoffs == pytest.approx([1.0, 1.0])


def test_battle_of_sexes_three_equilibria():
    game = bimatrix([[2, 0], [0, 1]], [[1, 0], [0, 2]])
    points = nash_enumerate(game)
    assert len(points) == 3
    # sorted by payoff vector: mixed first
    assert points[0].payoffs == pytest.approx([2 / 3, 2 / 3], abs=1e-9)
    assert points[0].strategies[0] == pytest.approx([2 / 3, 1 / 3], abs=1e-9)
    assert points[0].strategies[1] == pytest.approx([1 / 3, 2 / 3], abs=1e-9)
    assert points[1].payoffs == pytest.approx([1.0, 2.0])
    assert points[2].payoffs == pytest.approx([2.0, 1.0])


def test_single_player_argmax():
    game = StageGame(payoffs=(np.array([1.0, 3.0, 2.0]),), actions=((0, 1, 2),))
    points = nash_enumerate(game)
    assert len(points) == 1
    assert points[0].strategies[0] == pytest.approx([0.0, 1.0, 0.0])
    assert points[0].payoffs == pytest.approx([3.0])


def test_degenerate_duplicate_action_handled():
    # second row duplicates the first: equilibria still verified unperturbed
    game = bimatrix([[1, 1], [1, 1]], [[1, 0], [1, 0]])
    points = nash_enumerate(game)
    assert points
    for point in points:
        assert max(best_response_gap(game, point.strategies)) <= 1e-10


def test_three_player_coordination():
    t = np.zeros((2, 2, 2))
    t[0, 0, 0] = 1.0
    t[1, 1, 1] = 1.0
    game = StageGame(payoffs=(t, t, t), actions=((0, 1),) * 3)
    points = nash_enumerate(game)
    payoff_vectors = [tuple(np.round(p.payoffs, 6)) for p in points]
    assert (1.0, 1.0, 1.0) in payoff_vectors
    assert len(points) >= 3  # two pure plus the symmetric mixed point


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10**6), st.integers(2, 3), st.integers(2, 3))
def test_random_bimatrix_equilibria_verified(seed, k1, k2):
    rng = np.random.Generator(np.random.Philox(key=seed))
    game = StageGame(
        payoffs=(rng.uniform(-1, 1, (k1, k2)), rng.uniform(-1, 1, (k1, k2))),
        actions=(tuple(range(k1)), tuple(range(k2))),
    )
    points = nash_enumerate(game)
    assert points, "every finite game has an equilibrium"
    for point in points:
        assert max(best_response_gap(game, point.strategies)) <= 1e-10
        assert point.payoffs == pytest.approx(
            expected_payoffs(game, point.strategies), abs=1e-10
        )
    # cross-check the pure equilibria against brute force
    pure_found = {
        tuple(int(np.argmax(s)) for s in p.strategies)
        for p in points
        if all(np.max(s) > 1 - 1e-9 for s in p.strategies)
    }
    assert pure_found == set(pure_equilibria_bruteforce(game.payoffs))


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10**6))
def test_random_three_player_equilibria_verified(seed):
    rng = np.random.Generator(np.random.Philox(key=[seed, 3]))
    shape = (2, 2, 2)
    game = StageGame(
        payoffs=tuple(rng.uniform(-1, 1, shape) for _ in range(3)),
        actions=((0, 1),) * 3,
    )
    points = nash_enumerate(game)
    assert points
    for point in points:
        assert max(best_response_gap(game, point.strategies)) <= 1e-10


def assert_matches_reference(stack, lists):
    assert len(lists) == stack.shape[1]
    for g, points in enumerate(lists):
        assert_same_points(points, nash_two_reference(stack[0, g], stack[1, g]))


@pytest.mark.parametrize("k1, k2", [(2, 2), (2, 3), (3, 3), (4, 4)])
def test_stack_equals_per_game_reference(k1, k2):
    rng = np.random.Generator(np.random.Philox(key=[10 * k1 + k2, 31]))
    stack = rng.uniform(-1, 1, (2, 24, k1, k2))
    assert_matches_reference(stack, nash_enumerate_stack(stack))
    # a game enumerated alone gives the same list as inside the stack
    alone = nash_enumerate(StageGame(payoffs=tuple(stack[:, 5]), actions=(range(k1), range(k2))))
    assert_matches_reference(stack[:, 5:6], [alone])


def test_stack_with_singular_supports_falls_back_per_game(monkeypatch):
    rng = np.random.Generator(np.random.Philox(key=[33, 32]))
    stack = rng.uniform(-1, 1, (2, 8, 3, 3))
    stack[:, 1] = 0.0  # constant games: their perturbed support systems are singular
    stack[:, 4] = 0.5
    stack[0, 2, 1] = stack[0, 2, 0]  # duplicate rows: degenerate games
    stack[1, 6, :, 2] = stack[1, 6, :, 0]
    raised = []
    solve = np.linalg.solve

    def spy(a, b):
        try:
            return solve(a, b)
        except np.linalg.LinAlgError:
            raised.append(np.ndim(a))
            raise

    monkeypatch.setattr(np.linalg, "solve", spy)
    lists = nash_enumerate_stack(stack)
    monkeypatch.undo()
    assert 4 in raised and 2 in raised  # a batch failed, then single games did
    assert all(lists), "every finite game has an equilibrium"
    assert_matches_reference(stack, lists)


def test_stack_rejects_non_finite_payoffs():
    stack = np.zeros((2, 3, 2, 2))
    stack[1, 2, 0, 1] = np.inf
    with pytest.raises(InvalidInput):
        nash_enumerate_stack(stack)


def test_approximate_mode_regret_matching():
    rng = np.random.Generator(np.random.Philox(key=17))
    game = StageGame(
        payoffs=(rng.uniform(-1, 1, (5, 5)), rng.uniform(-1, 1, (5, 5))),
        actions=(tuple(range(5)), tuple(range(5))),
    )
    points = nash_enumerate(game)  # auto switches to approximate mode
    assert len(points) == 1
    assert points[0].eps <= 1e-3
    assert max(best_response_gap(game, points[0].strategies)) <= points[0].eps + 1e-12


def test_regret_matching_on_pennies():
    game = bimatrix([[1, -1], [-1, 1]], [[-1, 1], [1, -1]])
    point = regret_matching(game, eps_target=1e-4)
    assert point.eps <= 1e-4
    for strat in point.strategies:
        assert strat == pytest.approx([0.5, 0.5], abs=0.05)


# --- stage-game construction -----------------------------------------------------


def test_stage_game_discount_free_reduction():
    payoffs = np.array([[0.3, -0.2, 0.1, 0.0], [0.0, 0.5, -0.5, 0.25]])
    spec = single_atom_game(payoffs, [0.0, 0.0])
    c = AggregateVector(np.zeros((2, 1, 1)))
    game = build_stage_game(0, c, np.zeros((2, 1)), spec)
    assert np.allclose(game.payoffs[0].reshape(-1), payoffs[0])
    assert np.allclose(game.payoffs[1].reshape(-1), payoffs[1])


def test_stage_game_constant_kernel_substitution():
    # one coarse cell, unit mixing, aggregate 0.5, beta 0.5, zero stage payoffs
    payoffs = np.zeros((2, 2, 4))
    spec = constant_kernel_game(payoffs, [0.5, 0.5], n_cells=2)
    c = AggregateVector(np.full((2, 1, 1), 0.5))
    game = build_stage_game(0, c, np.zeros((2, 0)), spec)
    for i in range(2):
        assert np.allclose(game.payoffs[i], 0.25)


def test_stage_game_pure_atom_substitution():
    payoffs = np.array([[0.4, 0.1, -0.1, 0.2]])
    spec = single_atom_game(payoffs, [0.3])
    c = AggregateVector(np.zeros((1, 1, 1)))
    w = np.array([[0.8]])
    game = build_stage_game(0, c, w, spec)
    expected = 0.7 * payoffs[0] + 0.3 * 0.8
    assert np.allclose(game.payoffs[0].reshape(-1), expected)


def test_stage_game_affine_in_aggregates():
    _payoffs = np.zeros((2, 3, 4))
    rng = np.random.Generator(np.random.Philox(key=5))
    _payoffs[:] = rng.uniform(-1, 1, _payoffs.shape)
    spec = constant_kernel_game(_payoffs, [0.4, 0.7], n_cells=3)
    base = AggregateVector(rng.uniform(-0.5, 0.5, (2, 1, 1)))
    bump = np.zeros((2, 1, 1))
    bump[0, 0, 0] = 1.0
    t0 = stage_payoff_tensor(base, np.zeros((2, 0)), spec)
    t1 = stage_payoff_tensor(AggregateVector(base.c + bump), np.zeros((2, 0)), spec)
    t2 = stage_payoff_tensor(AggregateVector(base.c + 2 * bump), np.zeros((2, 0)), spec)
    # affine: equal finite differences, slope = beta_0 * q
    d1, d2 = t1 - t0, t2 - t1
    assert np.allclose(d1, d2, atol=1e-12)
    assert np.allclose(d1[0], 0.4, atol=1e-12)
    assert np.allclose(d1[1], 0.0, atol=1e-12)


def test_stage_game_payoff_bound_respected():
    rng = np.random.Generator(np.random.Philox(key=8))
    payoffs = rng.uniform(-1, 1, (2, 3, 4))
    spec = constant_kernel_game(payoffs, [0.6, 0.6], n_cells=3)
    # aggregates bounded by C * integral of density
    values = rng.uniform(-1, 1, (3, 2))
    c = aggregate_moments(values, spec)
    table = stage_payoff_tensor(c, np.zeros((2, 0)), spec)
    assert np.max(np.abs(table)) <= spec.payoff_bound + 1e-12


def test_stage_game_index_mismatch():
    payoffs = np.zeros((2, 2, 4))
    spec = constant_kernel_game(payoffs, [0.5, 0.5], n_cells=2)
    with pytest.raises(InvalidInput):
        build_stage_game(0, AggregateVector(np.zeros((2, 2, 1))), np.zeros((2, 0)), spec)


def test_aggregate_moments_match_direct_sum():
    from smpe.kernels import random_nowak_game

    _, spec = random_nowak_game(seed=3, n_cells=5, j_components=2, k_atoms=1)
    rng = np.random.Generator(np.random.Philox(key=4))
    values = rng.uniform(-1, 1, (spec.n_states, spec.players))
    c = aggregate_moments(values, spec)
    masses = np.asarray(spec.space.masses, float)
    for i in range(spec.players):
        for j in range(spec.kernel.n_components):
            for e in range(spec.space.n_coarse):
                direct = sum(
                    masses[k] * spec.kernel.rho[j, k] * values[k, i]
                    for k in spec.space.coarse_members(e)
                )
                assert c.c[i, j, e] == pytest.approx(direct, abs=1e-12)
