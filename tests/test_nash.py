"""Stage-game construction and equilibrium enumeration."""

import hashlib
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smpe.nash
from smpe.errors import InvalidInput, NoConvergence
from smpe.kernels import random_nowak_game
from smpe.nash import (
    AggregateVector,
    StageGame,
    _candidates_three,
    _contract_program,
    _dedupe,
    _perturbed,
    _pure_supports,
    _support_mixtures,
    _verify_stack,
    aggregate_moments,
    build_stage_game,
    nash_enumerate,
    nash_enumerate_stack,
    payoff_against_stack,
    regret_matching,
    stage_payoff_tensor,
)
from smpe.solver import solve

from helpers import assert_same_points, constant_kernel_game, single_atom_game
from oracles import (
    best_response_gap,
    expected_payoffs,
    nash_two_reference,
    payoff_against,
    points_of,
    pure_equilibria_bruteforce,
    regret_matching_reference,
    verify_candidates_reference,
)


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


def test_single_player_beyond_four_actions_is_exact(monkeypatch):
    # one player's equilibria are its best pure actions whatever its action
    # count, so no one-player game is left to regret matching
    def no_regret_matching(*args, **kwargs):
        raise AssertionError("one-player game reached regret matching")

    monkeypatch.setattr(smpe.nash, "regret_matching", no_regret_matching)
    game = StageGame(payoffs=(np.array([0.1, 0.5, 0.3, -0.2, 0.4]),), actions=(range(5),))
    (point,) = nash_enumerate(game)
    assert np.array_equal(point.strategies[0], [0.0, 1.0, 0.0, 0.0, 0.0])
    assert point.payoffs.tolist() == [0.5] and point.eps == 0.0
    assert smpe.nash.enumeration_mode((9,)) == "exact"
    assert smpe.nash.enumeration_mode((5, 2)) == "approx"


def test_stage_game_copies_the_callers_arrays():
    a = np.eye(2)
    game = StageGame(payoffs=(a, a), actions=((0, 1),) * 2)
    assert a.flags.writeable and not game.payoffs[0].flags.writeable
    a[0, 0] = 7.0
    assert game.payoffs[0][0, 0] == game.payoffs[1][0, 0] == 1.0


def test_degenerate_duplicate_action_handled():
    # second row duplicates the first: equilibria still verified unperturbed
    game = bimatrix([[1, 1], [1, 1]], [[1, 0], [1, 0]])
    points = nash_enumerate(game)
    assert points
    for point in points:
        assert max(best_response_gap(game, point.strategies)) <= 1e-10


def test_three_player_coordination():
    points = nash_enumerate(coordination_game())
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


def assert_matches_reference(stack, arrays):
    assert len(arrays[0]) == stack.shape[1]
    for g in range(stack.shape[1]):
        assert_same_points(points_of(arrays, g), nash_two_reference(stack[0, g], stack[1, g]))


@pytest.mark.parametrize("k1, k2", [(2, 2), (2, 3), (3, 3), (4, 4)])
def test_stack_equals_per_game_reference(k1, k2):
    rng = np.random.Generator(np.random.Philox(key=[10 * k1 + k2, 31]))
    stack = rng.uniform(-1, 1, (2, 24, k1, k2))
    assert_matches_reference(stack, nash_enumerate_stack(stack))
    # a game enumerated alone gives the same list as inside the stack
    alone = nash_enumerate(StageGame(payoffs=tuple(stack[:, 5]), actions=(range(k1), range(k2))))
    assert_same_points(alone, nash_two_reference(stack[0, 5], stack[1, 5]))


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
    arrays = nash_enumerate_stack(stack)
    monkeypatch.undo()
    assert 4 in raised and 2 in raised  # a batch failed, then single games did
    assert np.all(arrays[0] > 0), "every finite game has an equilibrium"
    assert_matches_reference(stack, arrays)


def test_game_lists_do_not_depend_on_stack_composition(monkeypatch):
    # a constant and a 0/1 game make the batched support solves singular,
    # so the regular games beside them are solved one by one; each list
    # must still equal the game's own one-game stack, bit for bit
    rng = np.random.Generator(np.random.Philox(key=[36, 32]))
    stack = rng.uniform(-1, 1, (2, 6, 3, 3))
    stack[:, 2] = 0.25
    stack[:, 4] = rng.integers(0, 2, (2, 3, 3))
    raised = []
    solve = np.linalg.solve

    def spy(a, b):
        try:
            return solve(a, b)
        except np.linalg.LinAlgError:
            raised.append(np.ndim(a))
            raise

    monkeypatch.setattr(np.linalg, "solve", spy)
    arrays = nash_enumerate_stack(stack)
    monkeypatch.undo()
    assert 4 in raised
    for g in range(stack.shape[1]):
        alone = points_of(nash_enumerate_stack(stack[:, g : g + 1]), 0)
        assert_same_points(points_of(arrays, g), [(p.strategies, p.payoffs) for p in alone])


def test_stack_with_duplicates_and_payoff_ties_matches_reference():
    # 0/1 games are degenerate: distinct support pairs solve to the same
    # profile, and distinct equilibria share a payoff vector; in constant
    # games every pure profile is an equilibrium with the same payoffs
    rng = np.random.Generator(np.random.Philox(key=[34, 32]))
    stack = rng.integers(0, 2, (2, 16, 3, 3)).astype(float)
    stack[:, 3] = 0.0
    stack[:, 9] = 0.5
    arrays = nash_enumerate_stack(stack)
    assert_matches_reference(stack, arrays)
    raw = sum(
        len(nash_two_reference(stack[0, g], stack[1, g], dedupe_tol=-1.0))
        for g in range(stack.shape[1])
    )
    assert raw > arrays[0].sum()
    for g in (3, 9):
        points = points_of(arrays, g)
        assert len(points) == 9
        assert all(np.array_equal(p.payoffs, points[0].payoffs) for p in points)


def test_verify_stack_matches_reference_on_one_player_stacks():
    # integer payoffs tie at the maximum, so a game keeps several pure
    # points with equal payoffs; every candidate comes twice
    rng = np.random.Generator(np.random.Philox(key=[35, 1]))
    payoffs = rng.integers(0, 3, (1, 12, 4)).astype(float)
    order = np.argsort(-_perturbed(payoffs)[0], axis=1)
    candidates = np.concatenate([np.eye(4)[order], np.eye(4)[order]], axis=1)
    arrays = _verify_stack(payoffs, (candidates,), np.ones((12, 8), dtype=bool))
    assert np.any(arrays[0] > 1)
    for g in range(12):
        reference = verify_candidates_reference(payoffs[:, g], [(c,) for c in candidates[g]])
        assert_same_points(points_of(arrays, g), reference)


def test_verify_stack_dedupes_greedily_in_enumeration_order():
    # in a constant game every profile is an equilibrium; candidates
    # 0.6e-8 apart chain within DEDUPE_TOL, so the greedy rule keeps every
    # other one, and each game meets them in its own order, some missing
    rng = np.random.Generator(np.random.Philox(key=[39, 4]))
    n, s = 16, 12
    payoffs = np.broadcast_to(rng.uniform(-1, 1, (2, n, 1, 1)), (2, n, 2, 2)).copy()
    p = 0.5 + 0.6e-8 * rng.permuted(np.tile(np.arange(s, dtype=float), (n, 1)), axis=1)
    xs = np.stack([p, 1.0 - p], axis=-1)
    ys = np.broadcast_to([0.25, 0.75], (n, s, 2))
    found = rng.uniform(size=(n, s)) < 0.8
    arrays = _verify_stack(payoffs, (xs, ys), found)
    assert np.all(arrays[0] < found.sum(axis=1))
    for g in range(n):
        candidates = [(xs[g, j], ys[g, j]) for j in range(s) if found[g, j]]
        reference = verify_candidates_reference(payoffs[:, g], candidates)
        assert_same_points(points_of(arrays, g), reference)


def dedupe_spy(monkeypatch):
    """The shapes of the ``alive`` masks _dedupe is called on from here on;
    each call still runs."""
    calls = []

    def spy(flat, alive):
        calls.append(alive.shape)
        _dedupe(flat, alive)

    monkeypatch.setattr(smpe.nash, "_dedupe", spy)
    return calls


def test_exact_zero_in_a_mixed_support_still_dedupes(monkeypatch):
    # the column player ties on row 0 and the row player on column 0, so the
    # mixed pair's solutions dip below zero by the perturbation alone and
    # clip to exactly (1, 0): the pure pair (0, 0) again, with no proof of
    # distinctness on its own support, so the dedupe runs and drops it
    a = [[0.5, 0.0], [0.5, 1.0]]
    b = [[0.5, 0.5], [0.0, 1.0]]
    stack = np.array([[a], [b]])
    x, y, ok = _support_mixtures(_perturbed(stack), (0, 1), (0, 1))
    assert ok.all() and x.tolist() == [[1.0, 0.0]] and y.tolist() == [[1.0, 0.0]]
    calls = dedupe_spy(monkeypatch)
    arrays = nash_enumerate_stack(stack)
    assert calls and arrays[0].tolist() == [2]
    assert_matches_reference(stack, arrays)


def test_pool_solve_makes_no_dedupe_call(monkeypatch):
    # every stage candidate of mixture-32 [4242, 0] is distinct by its
    # support pair, so the verifier never compares candidates pairwise
    calls = dedupe_spy(monkeypatch)
    _, spec = random_nowak_game(seed=[4242, 0], n_cells=32, j_components=2, k_atoms=1)
    assert solve(spec).epsilon <= 1e-6
    assert calls == []


@pytest.mark.parametrize("k", [2, 3])
def test_verify_stack_matches_reference_on_three_player_candidates(k):
    rng = np.random.Generator(np.random.Philox(key=[36, k]))
    payoffs = rng.uniform(-1, 1, (3, 1, k, k, k))
    candidates = list(_candidates_three(_perturbed(payoffs)[:, 0]))
    strategies = tuple(np.stack(part)[None] for part in zip(*candidates))
    points = points_of(_verify_stack(payoffs, strategies, np.ones((1, len(candidates)), bool)), 0)
    assert points
    assert_same_points(points, verify_candidates_reference(payoffs[:, 0], candidates))


@pytest.mark.parametrize("shape", [(2, 2, 2), (2, 3, 2)])
def test_three_player_stack_matches_per_game_reference(shape):
    # games with different candidate counts share one padded verification;
    # each game's slots must equal its own candidates checked one by one
    rng = np.random.Generator(np.random.Philox(key=[39, 5]))
    stack = rng.uniform(-1, 1, (3, 4) + shape)
    stack[:, 2] = 0.5  # a constant game: every pure profile is an equilibrium
    arrays = nash_enumerate_stack(stack)
    perturbed = _perturbed(stack)
    for g in range(4):
        candidates = list(_candidates_three(perturbed[:, g]))
        reference = verify_candidates_reference(stack[:, g], candidates)
        assert_same_points(points_of(arrays, g), reference)


def coordination_game():
    t = np.zeros((2, 2, 2))
    t[0, 0, 0] = 1.0
    t[1, 1, 1] = 1.0
    return StageGame(payoffs=(t, t, t), actions=((0, 1),) * 3)


def one_and_three_player_games():
    """One-player games with integer ties at the maximum, random 2x2x2 and
    2x3x2 three-player games, and the three-player coordination game."""
    rng = np.random.Generator(np.random.Philox(key=[35, 1]))
    ties = rng.integers(0, 3, (5, 4)).astype(float)
    games = [StageGame(payoffs=(p,), actions=(range(4),)) for p in ties]
    for key, shape in enumerate([(2, 2, 2)] * 3 + [(2, 3, 2)] * 3):
        rng = np.random.Generator(np.random.Philox(key=[key, 37]))
        payoffs = tuple(rng.uniform(-1, 1, (3,) + shape))
        games.append(StageGame(payoffs=payoffs, actions=tuple(range(k) for k in shape)))
    return games + [coordination_game()]


# SHA-256 over the point counts, strategies and payoffs of nash_enumerate on
# one_and_three_player_games(), recorded with Python 3.11 and numpy 2.4.6 on
# x86-64 before one- and three-player games joined the stacked entry point.
STAGE_DIGEST = "91925327fdf2502ad162b74fef3ce8b2af93c44916b5d63511fe94adc60888f7"


def test_one_and_three_player_equilibria_match_golden_digest():
    digest = hashlib.sha256()
    for game in one_and_three_player_games():
        points = nash_enumerate(game)
        digest.update(np.int64(len(points)).tobytes())
        for point in points:
            for strategy in point.strategies:
                digest.update(strategy.tobytes())
            digest.update(point.payoffs.tobytes())
    assert digest.hexdigest() == STAGE_DIGEST


@pytest.mark.parametrize("shape", [(4,), (3,), (2, 2, 2), (2, 3, 2)])
def test_one_and_three_player_stacks_list_game_by_game(shape):
    # integer one-player payoffs tie, so several pure points share a game
    rng = np.random.Generator(np.random.Philox(key=[len(shape), 38]))
    if len(shape) == 1:
        stack = rng.integers(0, 3, (1, 6) + shape).astype(float)
    else:
        stack = rng.uniform(-1, 1, (3, 2) + shape)
    arrays = nash_enumerate_stack(stack)
    assert len(arrays[0]) == stack.shape[1] and np.all(arrays[0] > 0)
    for g in range(stack.shape[1]):
        alone = points_of(nash_enumerate_stack(stack[:, g : g + 1]), 0)
        assert_same_points(points_of(arrays, g), [(p.strategies, p.payoffs) for p in alone])


def scan_stacks():
    """Seeded two-player stacks: every action count from 1 to 4 per player,
    64 games, payoff scales from 1e-3 to 1e3, and in every other game the
    payoffs rounded to half units of the scale, so that entries tie."""
    rng = np.random.Generator(np.random.Philox(key=[39, 2]))
    for k1, k2 in itertools.product(range(1, 5), repeat=2):
        for scale in (1e-3, 1e-1, 1e1, 1e3):
            stack = scale * rng.uniform(-1, 1, (2, 64, k1, k2))
            stack[:, ::2] = np.round(stack[:, ::2] * 2 / scale) * scale / 2
            yield stack


def test_pure_support_pairs_equal_their_solved_mixtures():
    for stack in scan_stacks():
        _, n, k1, k2 = stack.shape
        perturbed = _perturbed(stack)
        xs, ys, oks = _pure_supports(n, k1, k2)
        for p, (row, col) in enumerate(itertools.product(range(k1), range(k2))):
            x, y, ok = _support_mixtures(perturbed, (row,), (col,))
            assert np.array_equal(xs[:, p], x) and np.array_equal(ys[:, p], y)
            assert np.array_equal(oks[:, p], ok) and ok.all()


def test_two_by_two_stack_runs_one_solve(monkeypatch):
    # four pure support pairs need no solve; the one mixed pair is batched
    shapes = []
    solve = np.linalg.solve

    def spy(a, b):
        shapes.append(np.shape(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    stack = np.random.Generator(np.random.Philox(key=[39, 3])).uniform(-1, 1, (2, 64, 2, 2))
    nash_enumerate_stack(stack)
    assert shapes == [(2, 64, 3, 3)]


@pytest.mark.parametrize("shape", [(3,), (2, 3), (3, 1), (2, 2, 2)])
def test_empty_stacks_give_empty_arrays(shape):
    m = len(shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        counts, strategies, payoffs = nash_enumerate_stack(np.zeros((m, 0) + shape))
    assert counts.shape == (0,) and counts.dtype.kind == "i"
    assert [s.shape for s in strategies] == [(0, 0, k) for k in shape]
    assert payoffs.shape == (0, 0, m)


def test_stack_rejects_non_finite_payoffs():
    stack = np.zeros((2, 3, 2, 2))
    stack[1, 2, 0, 1] = np.inf
    malformed = [
        stack,
        np.full((1, 2, 3), np.nan),
        np.zeros((0, 3)),  # no players
        np.zeros((4, 1, 2, 2, 2, 2)),  # four players
        np.zeros((2, 3, 2)),  # ndim != players + 2
        np.zeros((3, 1, 2, 2)),
    ]
    for payoffs in malformed:
        with pytest.raises(InvalidInput):
            nash_enumerate_stack(payoffs)


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


def uniform_game(key, shape):
    rng = np.random.Generator(np.random.Philox(key=key))
    return rng.uniform(-1, 1, (len(shape),) + shape)


def stall_game():
    # on this 5x5 game the averaged profile's eps stops improving near
    # 0.0065, far above the target, long before the iteration cap
    rng = np.random.default_rng(0)
    rng.uniform(-1, 1, (2, 5, 5))
    return rng.uniform(-1, 1, (2, 5, 5))


def plateau_game():
    # this game's averaged eps goes 151 checks (37 750 steps) without a new
    # best before it meets the target at step 101 500: the stall stop must
    # outlast that wait
    return np.random.Generator(np.random.Philox(key=1050)).uniform(-1, 1, (2, 5, 5))


@pytest.fixture(scope="module")
def solo():
    """The stall, plateau and key-17 5x5 games, each run once alone through
    nash_enumerate: per game, the regret_matching return it saw, and its
    points or its NoConvergence."""
    games = {"stall": stall_game(), "plateau": plateau_game(), "key 17": uniform_game(17, (5, 5))}
    out = {}
    for name, payoffs in games.items():
        seen = []

        def recorded(stack):
            seen.append(regret_matching(stack))
            return seen[-1]

        game = StageGame(payoffs=tuple(payoffs), actions=(range(5), range(5)))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(smpe.nash, "regret_matching", recorded)
            try:
                outcome = nash_enumerate(game)
            except NoConvergence as exc:
                outcome = exc
        out[name] = payoffs, seen[0], outcome
    return out


def test_regret_matching_gives_up_when_the_best_eps_stalls(solo):
    payoffs, _, error = solo["stall"]
    game = StageGame(payoffs=tuple(payoffs), actions=(range(5), range(5)))
    assert isinstance(error, NoConvergence)
    steps = int(str(error).split(" after ")[1].split()[0])
    assert steps < 200_000  # the iteration cap
    point = error.result
    assert error.epsilon == point.eps > 1e-3
    assert max(best_response_gap(game, point.strategies)) == point.eps


def test_regret_matching_converges_after_a_long_plateau(solo):
    payoffs, _, points = solo["plateau"]
    game = StageGame(payoffs=tuple(payoffs), actions=(range(5), range(5)))
    (point,) = points
    assert point.eps <= 1e-3
    assert max(best_response_gap(game, point.strategies)) == point.eps


def test_regret_matching_on_pennies():
    game = bimatrix([[1, -1], [-1, 1]], [[-1, 1], [1, -1]])
    (counts, strategies, _), eps, _, misses = regret_matching(np.stack(game.payoffs)[:, None], 1e-4)
    assert counts.tolist() == [1] and eps[0] <= 1e-4 and misses == []
    for strat in strategies:
        assert strat[0, 0] == pytest.approx([0.5, 0.5], abs=0.05)


def test_regret_matching_stack_games_stop_as_they_would_alone(solo):
    # the stall, plateau and key-17 games stop at 96 750, 101 500 and 1 250
    # steps; in one stack, each must still get its own bits and stop step
    stack = np.stack([payoffs for payoffs, _, _ in solo.values()], axis=1)
    (counts, strategies, payoffs), eps, steps, misses = regret_matching(stack)
    assert counts.tolist() == [1, 1, 1] and steps.tolist() == [96_750, 101_500, 1_250]
    for g, (_, alone_run, _) in enumerate(solo.values()):
        (_, alone, alone_payoffs), alone_eps, alone_steps, _ = alone_run
        for part, own in zip(strategies, alone):
            assert np.array_equal(part[g], own[0])
        assert np.array_equal(payoffs[g], alone_payoffs[0])
        assert eps[g] == alone_eps[0] and steps[g] == alone_steps[0]
    assert misses == solo["stall"][1][3]  # only the stall game misses the target


@pytest.mark.parametrize(
    "key, shape", [(57, (5,)), (17, (5, 5)), (53, (5, 3, 2)), (51, (2, 2, 2, 2))]
)
def test_regret_matching_matches_the_per_game_reference(key, shape):
    payoffs = uniform_game(key, shape)
    game = StageGame(payoffs=tuple(payoffs), actions=tuple(range(k) for k in shape))
    (_, strategies, values), eps, steps, misses = regret_matching(payoffs[:, None])
    avg, expected, ref_eps, ref_steps = regret_matching_reference(game)
    for part, own in zip(strategies, avg):
        assert np.array_equal(part[0, 0], own)
    assert np.array_equal(values[0, 0], expected)
    assert eps[0] == ref_eps <= 1e-3 and steps[0] == ref_steps and misses == []


def test_contract_programs_up_to_three_players_are_fixed():
    programs = [_contract_program(m, i) for m in (1, 2, 3) for i in range(m)]
    assert programs == ["a->a", "ab,b->a", "ab,a->b", "abc,b,c->a", "abc,a,c->b", "abc,a,b->c"]


def test_four_player_payoff_against_stack_matches_the_loop():
    rng = np.random.Generator(np.random.Philox(key=55))
    shape, n = (2, 3, 2, 2), 6
    payoffs = rng.uniform(-1, 1, (4, n) + shape)
    strategies = [rng.dirichlet(np.ones(k), size=(n, 3)) for k in shape]  # 3 profiles a game
    for i in range(4):
        stacked = payoff_against_stack(payoffs, i, strategies)
        for g, r in itertools.product(range(n), range(3)):
            game = StageGame(payoffs=tuple(payoffs[:, g]), actions=tuple(map(range, shape)))
            profile = [s[g, r] for s in strategies]
            assert np.array_equal(stacked[g, r], payoff_against(game, i, profile))
            loop = np.zeros(shape[i])
            for actions in itertools.product(*map(range, shape)):
                weight = np.prod([profile[j][a] for j, a in enumerate(actions) if j != i])
                loop[actions[i]] += payoffs[i, g][actions] * weight
            assert stacked[g, r] == pytest.approx(loop, abs=1e-14)


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
