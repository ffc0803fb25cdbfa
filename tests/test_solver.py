"""Equilibrium solver: fixed point, contraction, purification chain."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from smpe import nash, solver
from smpe.errors import InvalidInput, NoConvergence, PreconditionFailed
from smpe.game import KernelDecomposition
from smpe.gamefile import canonical_bytes, result_to_doc
from smpe.kernels import random_nowak_game
from smpe.nash import AggregateVector, aggregate_moments, build_stage_game, stage_payoff_tensor
from smpe.solver import (
    SolveOptions,
    _signature_groups,
    _stage_equilibria,
    atom_fixed_point,
    atom_value_operator,
    solve,
)
from smpe.verify import deviation_residual, simulate_payoffs

from helpers import (
    FAMILIES,
    assert_same_points,
    constant_kernel_game,
    four_player_game,
    single_atom_game,
)
from oracles import (
    atom_fixed_point_reference,
    atom_operator_reference,
    nash_two_reference,
    payoff_against,
    points_of,
)


def uniform_atom_profile(spec):
    """Per atom, each player's uniform mixture over the feasible actions,
    as (n_atoms, sum of action counts) in the concatenated layout."""
    return np.array(
        [
            np.concatenate([feas[state] / feas[state].sum() for feas in spec.feasible])
            for state in spec.space.atom_indices
        ]
    )


# --- atom operator ---------------------------------------------------------------


def test_atom_operator_discount_free_is_stage_best_response():
    payoffs = np.array([[0.3, -0.2, 0.6, 0.0], [0.1, 0.5, -0.5, 0.25]])
    spec = single_atom_game(payoffs, [0.0, 0.0])
    f2 = uniform_atom_profile(spec)
    c = AggregateVector(np.zeros((2, 1, 1)))
    v2 = atom_value_operator(f2, c, np.zeros((2, 1)), spec)
    # against the uniform opponent, best response value by hand
    assert v2[0, 0] == pytest.approx(max(0.3 - 0.2, 0.6 + 0.0) / 2)
    assert v2[1, 0] == pytest.approx(max((0.1 - 0.5) / 2, (0.5 + 0.25) / 2))


def test_atom_fixed_point_geometric_series():
    spec = single_atom_game(np.array([[1.0, 1.0]]), [0.5])
    f2 = uniform_atom_profile(spec)
    c = AggregateVector(np.zeros((1, 1, 1)))
    v2, iters = atom_fixed_point(f2, c, spec, np.zeros((1, 1)))
    assert v2[0, 0] == pytest.approx(1.0, abs=1e-9)
    assert iters <= math.ceil(math.log(1e-10) / math.log(0.5)) + 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_atom_operator_contraction(seed):
    _, spec = random_nowak_game(seed=seed, n_cells=6, j_components=2, k_atoms=2)
    beta = float(spec.discounts.max())
    f2 = uniform_atom_profile(spec)
    rng = np.random.Generator(np.random.Philox(key=[seed, 77]))
    c = AggregateVector(
        aggregate_moments(rng.uniform(-1, 1, (spec.n_states, spec.players)), spec).c
    )
    for _ in range(25):
        v2 = rng.uniform(-1, 1, (spec.players, spec.n_atoms))
        w2 = rng.uniform(-1, 1, (spec.players, spec.n_atoms))
        num = np.max(np.abs(atom_value_operator(f2, c, v2, spec) - atom_value_operator(f2, c, w2, spec)))
        den = np.max(np.abs(v2 - w2))
        assert num <= beta * den + 1e-12


def test_inner_loop_iteration_bound():
    _, spec = random_nowak_game(seed=5, n_cells=6, j_components=2, k_atoms=2)
    beta = float(spec.discounts.max())
    f2 = uniform_atom_profile(spec)
    c = AggregateVector(np.zeros((spec.players, spec.kernel.n_components, spec.space.n_coarse)))
    _, iters = atom_fixed_point(f2, c, spec, np.zeros((spec.players, spec.n_atoms)))
    assert iters <= math.ceil(math.log(1e-10) / math.log(beta)) + 1


# --- solve -----------------------------------------------------------------------


def test_static_reduction_single_atom():
    payoffs = np.array([[0.6, 0.0, 1.0, 0.2], [0.6, 1.0, 0.0, 0.2]]) / 2
    spec = single_atom_game(payoffs, [0.0, 0.0])
    result = solve(spec)
    assert result.epsilon <= 1e-12
    # dominant-strategy equilibrium at the last profile
    assert result.values.pieces[0][0].value == pytest.approx([0.1, 0.1])


def test_constant_kernel_two_cell_game():
    rng = np.random.Generator(np.random.Philox(key=21))
    payoffs = rng.uniform(-1, 1, (2, 2, 4))
    spec = constant_kernel_game(payoffs, [0.6, 0.5], n_cells=2)
    result = solve(spec)
    assert result.epsilon <= 1e-6
    assert result.diagnostics["residuals"][-1] <= 1e-8  # aggregates stable
    cert = deviation_residual(result, spec)
    assert cert.epsilon == result.epsilon
    assert cert.recursion_residual <= 1e-8


@pytest.mark.parametrize("seed", [3, 11])
def test_nowak_instance_solves(seed):
    _, spec = random_nowak_game(seed=seed, n_cells=16, j_components=2, k_atoms=1)
    result = solve(spec)
    assert result.epsilon <= 1e-6
    assert result.diagnostics["iterations"] <= 500
    assert result.diagnostics["recursion_residual"] <= 1e-8


def test_purified_aggregates_match_converged_values():
    _, spec = random_nowak_game(seed=13, n_cells=12, j_components=2, k_atoms=1)
    result = solve(spec)
    averages = np.asarray(result.values.averages(), float)
    # every piece is itself a stage-equilibrium payoff; the cell averages
    # reproduce the converged convexified values, so rebuilding the stage
    # tensors from the purified selection changes nothing
    c = aggregate_moments(averages, spec)
    v2 = averages[spec.space.atom_indices].T.reshape(spec.players, -1)
    rebuilt = stage_payoff_tensor(c, v2, spec)
    # one-shot deviation slack of each piece against the rebuilt tensors
    cert = deviation_residual(result, spec)
    assert cert.epsilon <= 1e-6
    # moments of the purified selection agree with the converged moments
    masses = np.asarray(spec.space.masses, float)
    for j in range(spec.kernel.n_components):
        for e in range(spec.space.n_coarse):
            members = spec.space.coarse_members(e)
            lhs = sum(masses[k] * spec.kernel.rho[j, k] * averages[k] for k in members)
            direct = c.c[:, j, e]
            assert np.max(np.abs(np.asarray(lhs) - direct)) <= 1e-10


def test_reported_epsilon_equals_verifier():
    _, spec = random_nowak_game(seed=2, n_cells=8, j_components=2, k_atoms=1)
    result = solve(spec)
    cert = deviation_residual(result, spec)
    assert cert.epsilon == result.epsilon


def test_precondition_density_on_atoms():
    spec = single_atom_game(np.zeros((1, 2)), [0.5])
    rho = spec.kernel.rho.copy()
    rho[0, 0] = 1.0
    q = spec.kernel.q.copy()
    q[:] = 1.0
    atom_kernel = spec.atom_kernel * 0.0
    bad = replace(spec, kernel=KernelDecomposition(rho=rho, q=q), atom_kernel=atom_kernel)
    with pytest.raises(PreconditionFailed):
        solve(bad)


def test_no_convergence_reports_best_result():
    _, spec = random_nowak_game(seed=4, n_cells=8, j_components=2, k_atoms=1)
    with pytest.raises(NoConvergence) as err:
        solve(spec, SolveOptions(max_iter=2, restarts=0, eps_target=1e-12))
    assert err.value.result is not None
    assert err.value.epsilon == err.value.result.epsilon
    assert np.isfinite(err.value.epsilon)


@pytest.mark.parametrize(
    "name, value",
    [
        ("max_iter", 1.5),
        ("max_iter", True),
        ("max_iter", 0),
        ("restarts", 0.5),
        ("restarts", False),
        ("restarts", -1),
        ("tol", math.inf),
        ("tol", math.nan),
        ("tol", 0.0),
        ("tol", "1e-9"),
        ("damping", None),
        ("eps_target", "1e-6"),
        ("seed", True),
    ],
)
def test_malformed_solver_option_raises_invalid_input(name, value):
    spec = single_atom_game(np.zeros((2, 4)), [0.5, 0.5])
    with pytest.raises(InvalidInput, match=f"solver option {name} must be"):
        solve(spec, SolveOptions(**{name: value}))


def test_numpy_scalar_solver_options_are_accepted():
    spec = single_atom_game(np.array([[0.6, 0.0, 1.0, 0.2], [0.6, 1.0, 0.0, 0.2]]) / 2, [0.0, 0.0])
    opts = SolveOptions(
        tol=np.float64(1e-9), max_iter=np.int64(50), restarts=np.int32(0), seed=np.uint64(3)
    )
    assert solve(spec, opts).epsilon <= 1e-12


def test_result_respects_bounds_and_feasibility():
    _, spec = random_nowak_game(seed=14, n_cells=8, j_components=2, k_atoms=1)
    result = solve(spec)
    sizes = [len(a) for a in spec.actions]
    offsets = np.cumsum([0] + sizes)
    for k in range(spec.n_states):
        for vp, sp_ in zip(result.values.pieces[k], result.strategies.pieces[k]):
            assert np.max(np.abs(np.asarray(vp.value, float))) <= spec.payoff_bound + 1e-9
            flat = np.asarray(sp_.value, float)
            for i in range(spec.players):
                probs = flat[offsets[i] : offsets[i + 1]]
                assert probs.sum() == pytest.approx(1.0, abs=1e-12)
                assert np.all(probs >= -1e-12)
                assert np.all(probs[~spec.feasible[i][k]] == 0.0)


def test_solver_deterministic():
    _, spec = random_nowak_game(seed=6, n_cells=8, j_components=2, k_atoms=1)
    r1 = solve(spec)
    r2 = solve(spec)
    assert r1.epsilon == r2.epsilon
    for k in range(spec.n_states):
        for p1, p2 in zip(r1.values.pieces[k], r2.values.pieces[k]):
            assert p1.fraction == p2.fraction
            assert np.array_equal(p1.value, p2.value)


def global_profile(spec, actions, strategies):
    """One local mixed profile on the feasible ``actions``, written into the
    concatenated global layout of result strategies."""
    parts = [np.zeros(len(a)) for a in spec.actions]
    for part, acts, strategy in zip(parts, actions, strategies):
        part[list(acts)] = strategy
    return np.concatenate(parts)


def two_signature_game():
    """Generated game in which player 0 keeps only action 0 at every other
    state, so both the divisible cells and the atoms come in two
    feasible-action signatures."""
    _, spec = random_nowak_game(seed=7, n_cells=6, j_components=2, k_atoms=2)
    feasible = [f.copy() for f in spec.feasible]
    feasible[0][1::2, 1] = False
    return replace(spec, feasible=tuple(feasible))


def test_stage_layer_matches_per_state_reference_across_signatures():
    spec = two_signature_game()
    rng = np.random.Generator(np.random.Philox(key=[7, 88]))
    c = aggregate_moments(rng.uniform(-1, 1, (spec.n_states, spec.players)), spec)
    v2 = rng.uniform(-1, 1, (spec.players, spec.n_atoms))
    table = stage_payoff_tensor(c, v2, spec)
    states = np.arange(spec.n_states)
    groups = _signature_groups(spec, states)
    stage = _stage_equilibria(states, groups, spec, table)
    assert len({tuple(len(a) for a in actions) for actions, _ in groups}) == 2
    for actions, members in groups:
        for state in states[members]:
            game = build_stage_game(int(state), c, v2, spec, payoff_table=table)
            assert [tuple(a) for a in actions] == list(game.actions)
            reference = [
                ((global_profile(spec, game.actions, strategies),), payoffs)
                for strategies, payoffs in nash_two_reference(*game.payoffs)
            ]
            assert_same_points(points_of(stage, state), reference)
    # the atom operator contracts each atom exactly as its own stage game does
    f2 = uniform_atom_profile(spec)
    stacked = atom_value_operator(f2, c, v2, spec)
    for a_idx, state in enumerate(spec.space.atom_indices):
        game = build_stage_game(int(state), c, v2, spec, payoff_table=table)
        per_player = np.split(f2[a_idx], np.cumsum([len(a) for a in spec.actions])[:-1])
        local = [per_player[i][list(game.actions[i])] for i in range(spec.players)]
        for i in range(spec.players):
            assert stacked[i, a_idx] == payoff_against(game, i, local).max()
    assert solve(spec).epsilon <= 1e-6


def test_stage_equilibria_do_not_depend_on_stack_composition():
    # the solver enumerates atoms and divisible cells in shared stacks;
    # each state's list must be what the atom-only and cell-only calls
    # give, and so must each cell of a three-player stack of three cells
    two_player = two_signature_game()
    three_player = constant_kernel_game(
        uniform_payoffs(35, (3, 3, 8)), [0.5, 0.6, 0.7], n_cells=3
    )
    cases = [
        (two_player, (two_player.space.atom_indices, two_player.space.divisible_indices), 2),
        (three_player, (np.array([0, 2]), np.array([1])), 1),
    ]
    rng = np.random.Generator(np.random.Philox(key=[7, 89]))
    for spec, splits, n_signatures in cases:
        c = aggregate_moments(rng.uniform(-1, 1, (spec.n_states, spec.players)), spec)
        v2 = rng.uniform(-1, 1, (spec.players, spec.n_atoms))
        table = stage_payoff_tensor(c, v2, spec)

        def stage_of(states):
            return _stage_equilibria(states, _signature_groups(spec, states), spec, table)

        def actions_of(states):
            return {
                int(states[p]): [tuple(a) for a in actions]
                for actions, members in _signature_groups(spec, states)
                for p in members
            }

        together = stage_of(np.arange(spec.n_states))
        for states in splits:
            assert len(_signature_groups(spec, states)) == n_signatures
            apart = stage_of(states)
            for p, k in enumerate(states):
                assert actions_of(states)[k] == actions_of(np.arange(spec.n_states))[k]
                expected = [(q.strategies, q.payoffs) for q in points_of(together, k)]
                assert_same_points(points_of(apart, p), expected)


# SHA-256 of the canonical result bytes of default-option solves of the
# generated game [4242, index] of each family, recorded with Python 3.11.7 and
# numpy 2.4.6 on x86-64. Any change to the enumeration order, the perturbation
# or the arithmetic of the stage layer, of the hull projection or of the atom
# fixed point shows here.
GOLDEN_RESULTS = {
    "mixture-32-0": "0531a6143340c402a0d45496ef2a7e2accb079486d9eca09ce3821d6bd36ef84",
    "mixture-32-8": "e163229aeb1f1fe56044d3daf345ba7cad9d9026a7de2ea10df542ee7c988aa1",
    "atom-heavy-7": "af0720fcfcebb3a31a4828a5407e497fc404614af5b4dbcf2695f61e088664d4",
    "atom-heavy-13": "ee952243494f4c5c43facef7b28cf0207efeec9630a5e8e8a592aa3d549463f0",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RESULTS))
def test_result_bytes_match_golden_digest(name):
    family, index = name.rsplit("-", 1)
    _, spec = random_nowak_game(seed=[4242, int(index)], **FAMILIES[family])
    data = canonical_bytes(result_to_doc(solve(spec), spec))
    assert hashlib.sha256(data).hexdigest() == GOLDEN_RESULTS[name]


def uniform_payoffs(key, shape):
    return np.random.Generator(np.random.Philox(key=key)).uniform(-1, 1, shape)


# Games on the per-state path of the stage layer (one player, three players,
# and a 5x5 game outside the exact envelope, so regret matching), with the
# SHA-256 of their default-option results, recorded as above.
FALLBACK_GAMES = {
    "one-player-3x3": (
        lambda: constant_kernel_game(uniform_payoffs(31, (1, 3, 3)), [0.6], n_cells=3),
        "37d87068f3ea52367bbb6515ebc62be0cbe68a625a7ed8216e901972d1708c67",
    ),
    "three-player-2x2x2": (
        lambda: single_atom_game(uniform_payoffs(32, (3, 8)), [0.5, 0.6, 0.7]),
        "f1ac8a7b28d8a734cba535a32151e3c5a5f7c4b3a527737e023d39f5b2392e77",
    ),
    "two-player-5x5": (
        lambda: single_atom_game(uniform_payoffs(33, (2, 25)), [0.6, 0.5]),
        "374d0f52bf86ff05ae9e606edb0ab882fcee7a406a118a3565079f3fd26238fc",
    ),
}


@pytest.mark.parametrize("name", sorted(FALLBACK_GAMES))
def test_fallback_result_bytes_match_golden_digest(name, monkeypatch):
    build, digest = FALLBACK_GAMES[name]
    spec = build()
    built = []
    real_build = solver.build_stage_game

    def build_spy(*args, **kwargs):
        built.append(1)
        return real_build(*args, **kwargs)

    monkeypatch.setattr(solver, "build_stage_game", build_spy)
    result = solve(spec)
    # every game, inside the exact envelope or not, is solved in a stack
    assert built == []
    assert result.epsilon <= 1e-9
    assert hashlib.sha256(canonical_bytes(result_to_doc(result, spec))).hexdigest() == digest


# --- hoisted atom operator ---------------------------------------------------------


def random_atom_profile(spec, rng):
    """Random mixed atom profile with zero mass on infeasible actions, in
    the layout of :func:`uniform_atom_profile`."""
    out = []
    for state in spec.space.atom_indices:
        profile = []
        for i in range(spec.players):
            vec = rng.uniform(0.1, 1.0, len(spec.actions[i])) * spec.feasible[i][state]
            profile.append(vec / vec.sum())
        out.append(np.concatenate(profile))
    return np.array(out)


ATOM_GAMES = ["atom-heavy-0", "atom-heavy-1", "atom-heavy-2", "two-signature"]


def atom_game(name):
    if name == "two-signature":
        return two_signature_game()
    _, spec = random_nowak_game(seed=[4242, int(name.rsplit("-", 1)[1])], **FAMILIES["atom-heavy"])
    return spec


def fixed_point_bound(spec):
    # the reference stops at a step below 1e-10, within beta / (1 - beta) of
    # that of the exact fixed point
    beta = float(spec.discounts.max())
    return beta / (1.0 - beta) * 1e-10


@pytest.mark.parametrize("name", ATOM_GAMES)
def test_atom_operator_matches_full_table_reference(name):
    spec = atom_game(name)
    rng = np.random.Generator(np.random.Philox(key=[7, 99]))
    c = aggregate_moments(rng.uniform(-1, 1, (spec.n_states, spec.players)), spec)
    for f2 in (uniform_atom_profile(spec), random_atom_profile(spec, rng)):
        v2 = np.zeros((spec.players, spec.n_atoms))
        for _ in range(6):
            expected = atom_operator_reference(f2, c, v2, spec)
            assert np.array_equal(atom_value_operator(f2, c, v2, spec), expected)
            v2 = expected
        got = atom_fixed_point(f2, c, spec, np.zeros_like(v2))
        ref = atom_fixed_point_reference(f2, c, spec, np.zeros_like(v2), tol=1e-10)
        assert np.max(np.abs(got[0] - ref[0])) <= fixed_point_bound(spec)
        assert got[1] < ref[1]


def small_atom_game(n_actions, key=60):
    """Generated game with three atoms and three cells, one stage game per
    state with ``n_actions`` actions per player."""
    _, spec = random_nowak_game(
        seed=[4242, key], n_cells=3, j_components=2, k_atoms=3, n_actions=n_actions
    )
    return spec


def infeasible_lure_game():
    """``two_signature_game`` with payoff 10 to player 0 wherever its action 1
    is infeasible: a solver that let it play there would take it."""
    spec = two_signature_game()
    payoffs = spec.payoffs.reshape((spec.players, spec.n_states) + spec.profile_shape).copy()
    payoffs[0, 1::2, 1] = 10.0
    return replace(spec, payoffs=payoffs.reshape(spec.payoffs.shape))


BELLMAN_GAMES = {
    **{name: (lambda name=name: atom_game(name)) for name in ATOM_GAMES},
    "infeasible-lure": infeasible_lure_game,
    "one-player": lambda: small_atom_game((3,)),
    "three-player": lambda: small_atom_game((2, 3, 2)),
}


@pytest.mark.parametrize("name", sorted(BELLMAN_GAMES))
def test_atom_fixed_point_solves_bellman_equation(name):
    spec = BELLMAN_GAMES[name]()
    rng = np.random.Generator(np.random.Philox(key=[7, 98]))
    c = aggregate_moments(rng.uniform(-1, 1, (spec.n_states, spec.players)), spec)
    zeros = np.zeros((spec.players, spec.n_atoms))
    for f2 in (uniform_atom_profile(spec), random_atom_profile(spec, rng)):
        v2, evaluations = atom_fixed_point(f2, c, spec, zeros)
        residual = np.abs(atom_value_operator(f2, c, v2, spec) - v2)
        assert np.all(residual <= 1e-12 * np.maximum(1.0, np.abs(v2)))
        ref, steps = atom_fixed_point_reference(f2, c, spec, zeros, tol=1e-10)
        assert np.max(np.abs(v2 - ref)) <= fixed_point_bound(spec)
        assert 1 <= evaluations < steps


def test_atom_fixed_point_stops_on_ties():
    # one player whose two actions are copies of each other, so both tie at
    # every atom: the greedy start keeps action 0 and one evaluation ends it
    spec = small_atom_game((2,), key=61)

    def copy_action(a):
        a = a.copy()
        a[..., 1] = a[..., 0]
        return a

    spec = replace(
        spec,
        payoffs=copy_action(spec.payoffs),
        kernel=KernelDecomposition(spec.kernel.rho, copy_action(spec.kernel.q)),
        atom_kernel=copy_action(spec.atom_kernel),
    )
    c = aggregate_moments(np.full((spec.n_states, 1), 0.5), spec)
    f2 = uniform_atom_profile(spec)
    zeros = np.zeros((1, spec.n_atoms))
    v2, evaluations = atom_fixed_point(f2, c, spec, zeros)
    assert evaluations == 1
    # action 1 now sends 1e-13 of kernel mass from the worst atom to the best:
    # still tied at the start, better at the fixed point by far less than
    # the switch tolerance, so the policy stays put
    kernel = spec.atom_kernel.copy()
    kernel[np.argmin(v2[0]), :, 1] -= 1e-13
    kernel[np.argmax(v2[0]), :, 1] += 1e-13
    near, evaluations = atom_fixed_point(f2, c, replace(spec, atom_kernel=kernel), zeros)
    assert evaluations == 1
    assert np.max(np.abs(near - v2)) <= 1e-12


@pytest.mark.parametrize("name", ["atom-heavy-0", "two-signature", "three-player"])
def test_atom_fixed_point_recovers_from_a_wrong_warm_start(name):
    spec = BELLMAN_GAMES[name]()
    rng = np.random.Generator(np.random.Philox(key=[7, 96]))
    c = aggregate_moments(rng.uniform(-1, 1, (spec.n_states, spec.players)), spec)
    f2 = random_atom_profile(spec, rng)
    far = rng.uniform(-100, 100, (spec.players, spec.n_atoms))
    v2, evaluations = atom_fixed_point(f2, c, spec, far)
    ref, _ = atom_fixed_point_reference(f2, c, spec, far, tol=1e-10)
    assert 2 <= evaluations <= 5  # the greedy policy at ``far`` is not optimal
    assert np.max(np.abs(v2 - ref)) <= fixed_point_bound(spec)
    # the greedy policy at the fixed point is optimal: one evaluation
    assert atom_fixed_point(f2, c, spec, v2)[1] == 1


def test_atom_value_operator_rejects_mismatched_shapes():
    spec = atom_game("atom-heavy-0")
    f2 = uniform_atom_profile(spec)
    c = aggregate_moments(np.zeros((spec.n_states, spec.players)), spec)
    with pytest.raises(InvalidInput, match="atom values must be"):
        atom_value_operator(f2, c, np.zeros((spec.players, spec.n_atoms - 1)), spec)
    short = AggregateVector(c.c[:, :1])
    with pytest.raises(InvalidInput, match="aggregate dimensions"):
        atom_value_operator(f2, short, np.zeros((spec.players, spec.n_atoms)), spec)
    with pytest.raises(InvalidInput, match="atom strategies must be"):
        atom_value_operator(f2[:, :-1], c, np.zeros((spec.players, spec.n_atoms)), spec)


def test_outer_iteration_builds_one_stage_table(monkeypatch):
    spec = atom_game("atom-heavy-0")
    tables = []
    fixed_point_depth = []
    fixed_point_calls = []
    enumerations = []
    real_table, real_fixed_point = solver.stage_payoff_tensor, solver.atom_fixed_point
    real_enumerate = solver.nash_enumerate_stack

    def table_spy(*args, **kwargs):
        tables.append(bool(fixed_point_depth))
        return real_table(*args, **kwargs)

    def fixed_point_spy(*args, **kwargs):
        fixed_point_calls.append(1)
        fixed_point_depth.append(1)
        try:
            return real_fixed_point(*args, **kwargs)
        finally:
            fixed_point_depth.pop()

    def enumerate_spy(stack):
        enumerations.append(stack.shape[1])
        return real_enumerate(stack)

    monkeypatch.setattr(solver, "stage_payoff_tensor", table_spy)
    monkeypatch.setattr(solver, "atom_fixed_point", fixed_point_spy)
    monkeypatch.setattr(solver, "nash_enumerate_stack", enumerate_spy)
    opts = SolveOptions(max_iter=1)
    state = solver._initial_state(spec, opts, 0)
    groups = _signature_groups(spec, np.arange(spec.n_states))
    solver._outer_loop(spec, opts, state, groups)
    # one table, built outside the fixed point, and one enumeration of
    # every state's stage game, for the atom strategies and the divisible
    # cells together
    assert tables == [False]
    assert enumerations == [spec.n_states]
    assert len(fixed_point_calls) == 1 and state.iteration == 1


def test_exact_solve_builds_no_nash_point(monkeypatch):
    # the stage layer hands arrays from the enumeration and from regret
    # matching to the hull, the atom profile and purification; only the
    # public nash_enumerate builds points
    built, stacks = [], []
    real_regret_matching = solver.regret_matching

    def spy(real):
        def build(*args, **kwargs):
            built.append(real.__name__)
            return real(*args, **kwargs)

        return build

    def regret_spy(payoffs):
        stacks.append(payoffs.shape[1])
        return real_regret_matching(payoffs)

    monkeypatch.setattr(nash, "NashPoint", spy(nash.NashPoint))
    monkeypatch.setattr(nash, "StageGame", spy(nash.StageGame))
    monkeypatch.setattr(solver, "regret_matching", regret_spy)
    spec = atom_game("atom-heavy-0")
    result = solve(spec)
    assert result.diagnostics["iterations"] > 1 and result.epsilon <= 1e-6
    assert solve(FALLBACK_GAMES["two-player-5x5"][0]()).epsilon <= 1e-9
    assert stacks and set(stacks) == {1}  # the 5x5 game's one atomic state
    stacks.clear()
    with pytest.raises(NoConvergence):
        solve(two_state_regret_game(), SolveOptions(max_iter=3, restarts=0))
    assert stacks and set(stacks) == {2}  # both 5x5 states in one stack
    assert built == []
    nash.nash_enumerate(nash.StageGame(payoffs=(np.eye(2), np.eye(2)), actions=((0, 1),) * 2))
    assert "NashPoint" in built


def two_state_regret_game():
    _, spec = random_nowak_game(
        seed=[77, 1], n_cells=2, j_components=1, k_atoms=0, n_actions=(5, 5)
    )
    return spec


# SHA-256 of the canonical bytes of the best certified result that a
# three-iteration solve of two_state_regret_game() carries in its
# NoConvergence; both states' 5x5 stage games run regret matching in one
# stack. Recorded as above, while regret matching still ran game by game.
TWO_STATE_REGRET_DIGEST = "b10635e659605129aee2cc6f161c033568c4cb739714d3a409a7a1c3e0377ba5"


def test_two_state_regret_matching_result_matches_golden_digest():
    spec = two_state_regret_game()
    with pytest.raises(NoConvergence) as info:
        solve(spec, SolveOptions(max_iter=3, restarts=0))
    result = info.value.result
    assert result.epsilon == info.value.epsilon == pytest.approx(0.0443, abs=1e-4)
    digest = hashlib.sha256(canonical_bytes(result_to_doc(result, spec))).hexdigest()
    assert digest == TWO_STATE_REGRET_DIGEST


def test_four_player_game_solves_verifies_and_simulates():
    # four players are beyond the exact envelope, so regret matching; the
    # recursion residual (about 1.6e-3) gets no bound here: the atom values
    # are best-response values of an approximate profile, so it is the
    # certificate's open soundness question, not a solver defect
    spec = four_player_game()
    result = solve(spec)
    assert result.epsilon <= 1e-6
    assert deviation_residual(result, spec).epsilon == result.epsilon
    (piece,) = result.strategies.pieces[0]
    assert np.all(np.asarray(piece.value)[::2] > 0.99)  # each player's dominant action 0
    report = simulate_payoffs(spec, result, 0, 200, seed=0, horizon=10)
    assert report.means.shape == (4,) and np.all(np.isfinite(report.means))


def test_games_without_atoms_or_without_cells_keep_well_formed_arrays():
    # no atoms: f2 is an empty (0, sum of action counts) array through the
    # loop; no divisible cells: _finalize's stage arrays have no slots; the
    # equilibrium count in the diagnostics stays a Python int either way
    cells_only = constant_kernel_game(uniform_payoffs(36, (2, 3, 4)), [0.5, 0.6], n_cells=3)
    opts = SolveOptions(max_iter=2)
    state = solver._initial_state(cells_only, opts, 0)
    groups = _signature_groups(cells_only, np.arange(cells_only.n_states))
    solver._outer_loop(cells_only, opts, state, groups)
    assert state.f2.shape == (0, 4) and state.iteration == 2
    atoms_only = single_atom_game(uniform_payoffs(37, (2, 4)), [0.5, 0.6])
    for spec in (cells_only, atoms_only):
        result = solve(spec)
        assert type(result.diagnostics["multi_equilibrium_cells"]) is int
        assert canonical_bytes(result.diagnostics)
