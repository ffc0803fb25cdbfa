"""Equilibrium solver: fixed point, contraction, purification chain."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from smpe import solver
from smpe.errors import InvalidInput, NoConvergence, PreconditionFailed
from smpe.game import KernelDecomposition
from smpe.gamefile import canonical_bytes, result_to_doc
from smpe.kernels import random_nowak_game
from smpe.nash import (
    AggregateVector,
    aggregate_moments,
    build_stage_game,
    payoff_against,
    stage_payoff_tensor,
)
from smpe.solver import (
    SolveOptions,
    _atom_operator,
    _signature_groups,
    _stage_equilibria,
    atom_fixed_point,
    atom_value_operator,
    solve,
)
from smpe.verify import deviation_residual

from helpers import FAMILIES, assert_same_points, constant_kernel_game, single_atom_game
from oracles import atom_fixed_point_reference, atom_operator_reference, nash_two_reference


def uniform_atom_profile(spec):
    out = []
    for state in spec.space.atom_indices:
        profile = []
        for i in range(spec.players):
            feas = spec.feasible[i][state].astype(float)
            profile.append(feas / feas.sum())
        out.append(profile)
    return out


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
    v2, iters = atom_fixed_point(f2, c, spec, np.zeros((1, 1)), tol=1e-10)
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
    _, iters = atom_fixed_point(f2, c, spec, np.zeros((spec.players, spec.n_atoms)), tol=1e-10)
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
    stage = _stage_equilibria(states, _signature_groups(spec, states), c, v2, spec, table)
    assert len({tuple(len(a) for a in actions) for actions, _ in stage}) == 2
    for state, (actions, points) in zip(states, stage):
        game = build_stage_game(int(state), c, v2, spec, payoff_table=table)
        assert [tuple(a) for a in actions] == list(game.actions)
        assert_same_points(points, nash_two_reference(*game.payoffs))
    # the atom operator contracts each atom exactly as its own stage game does
    f2 = uniform_atom_profile(spec)
    stacked = atom_value_operator(f2, c, v2, spec)
    for a_idx, state in enumerate(spec.space.atom_indices):
        game = build_stage_game(int(state), c, v2, spec, payoff_table=table)
        local = [np.asarray(f2[a_idx][i])[list(game.actions[i])] for i in range(spec.players)]
        for i in range(spec.players):
            assert stacked[i, a_idx] == payoff_against(game, i, local).max()
    assert solve(spec).epsilon <= 1e-6


# SHA-256 of the canonical result bytes of default-option solves of the
# generated game [4242, index] of each family, recorded with Python 3.11.7 and
# numpy 2.4.6 on x86-64. Any change to the enumeration order, the perturbation
# or the arithmetic of the stage layer shows here.
GOLDEN_RESULTS = {
    "mixture-32-0": "af9eca8cd41032a12f6e244314e539d08b54dc6866f71f0536d6a6669ea6d797",
    "mixture-32-8": "1ffe5961e17af39e49b75a43bdf3ccfcd40f19e6d1bd939d370a0bde39034390",
    "atom-heavy-7": "577c4f9343da8afc01e7a8f6ce83493f0d30908634e2079d5ca1a26b158f5c1f",
    "atom-heavy-13": "19fdbf2b4c4e39c1e0f02035075a8a8066bb3dcafbc8dd6ec16d953f46db4f73",
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
        "056ba4c7add42b8152643d82562cb51b8b5ce1ebe2156d8d882d8af11c00b37f",
    ),
    "two-player-5x5": (
        lambda: single_atom_game(uniform_payoffs(33, (2, 25)), [0.6, 0.5]),
        "e56f51ccb9e89e3f60ebbba5fd650cff795d4a9e3eb682544bface941804fc78",
    ),
}


@pytest.mark.parametrize("name", sorted(FALLBACK_GAMES))
def test_fallback_result_bytes_match_golden_digest(name):
    build, digest = FALLBACK_GAMES[name]
    spec = build()
    result = solve(spec)
    assert result.epsilon <= 1e-9
    assert hashlib.sha256(canonical_bytes(result_to_doc(result, spec))).hexdigest() == digest


# --- hoisted atom operator ---------------------------------------------------------


def random_atom_profile(spec, rng):
    """Random mixed atom profile with zero mass on infeasible actions."""
    out = []
    for state in spec.space.atom_indices:
        profile = []
        for i in range(spec.players):
            vec = rng.uniform(0.1, 1.0, len(spec.actions[i])) * spec.feasible[i][state]
            profile.append(vec / vec.sum())
        out.append(profile)
    return out


ATOM_GAMES = ["atom-heavy-0", "atom-heavy-1", "atom-heavy-2", "two-signature"]


def atom_game(name):
    if name == "two-signature":
        return two_signature_game()
    _, spec = random_nowak_game(seed=[4242, int(name.rsplit("-", 1)[1])], **FAMILIES["atom-heavy"])
    return spec


@pytest.mark.parametrize("name", ATOM_GAMES)
def test_atom_operator_matches_full_table_reference(name):
    spec = atom_game(name)
    rng = np.random.Generator(np.random.Philox(key=[7, 99]))
    c = aggregate_moments(rng.uniform(-1, 1, (spec.n_states, spec.players)), spec)
    groups = _signature_groups(spec, spec.space.atom_indices)
    for f2 in (uniform_atom_profile(spec), random_atom_profile(spec, rng)):
        step = _atom_operator(f2, c, spec, groups)
        v2 = np.zeros((spec.players, spec.n_atoms))
        for _ in range(6):
            expected = atom_operator_reference(f2, c, v2, spec)
            assert np.array_equal(step(v2), expected)
            assert np.array_equal(atom_value_operator(f2, c, v2, spec), expected)
            v2 = expected
        got = atom_fixed_point(f2, c, spec, np.zeros_like(v2), tol=1e-10, groups=groups)
        ref = atom_fixed_point_reference(f2, c, spec, np.zeros_like(v2), tol=1e-10)
        assert np.array_equal(got[0], ref[0])
        assert got[1] == ref[1]


def test_atom_value_operator_rejects_mismatched_shapes():
    spec = atom_game("atom-heavy-0")
    f2 = uniform_atom_profile(spec)
    c = aggregate_moments(np.zeros((spec.n_states, spec.players)), spec)
    with pytest.raises(InvalidInput, match="atom values must be"):
        atom_value_operator(f2, c, np.zeros((spec.players, spec.n_atoms - 1)), spec)
    short = AggregateVector(c.c[:, :1])
    with pytest.raises(InvalidInput, match="aggregate dimensions"):
        atom_value_operator(f2, short, np.zeros((spec.players, spec.n_atoms)), spec)


def test_outer_iteration_builds_one_stage_table(monkeypatch):
    spec = atom_game("atom-heavy-0")
    tables = []
    fixed_point_depth = []
    fixed_point_calls = []
    real_table, real_fixed_point = solver.stage_payoff_tensor, solver.atom_fixed_point

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

    monkeypatch.setattr(solver, "stage_payoff_tensor", table_spy)
    monkeypatch.setattr(solver, "atom_fixed_point", fixed_point_spy)
    opts = SolveOptions(max_iter=1)
    state = solver._initial_state(spec, opts, 0)
    cell_groups = _signature_groups(spec, spec.space.divisible_indices)
    atom_groups = _signature_groups(spec, spec.space.atom_indices)
    solver._outer_loop(spec, opts, state, cell_groups, atom_groups)
    # one table, built outside the fixed point, for the atom strategies
    # and the divisible cells together
    assert tables == [False]
    assert len(fixed_point_calls) == 1 and state.iteration == 1
