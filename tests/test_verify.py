"""Independent certification and Monte Carlo simulation."""

import functools
import hashlib
import re
from dataclasses import replace

import numpy as np
import pytest

from smpe.errors import InvalidInput, ValidationError
from smpe.game import KernelDecomposition, sunspot_extend, validate_game
from smpe.gamefile import canonical_bytes, simulation_to_doc
from smpe.kernels import LevyParams, levy_profile_index, make_levy_kernel, random_nowak_game
from smpe.measure import Piece, SplitSelection
from smpe.solver import EquilibriumResult, solve
from smpe.verify import (
    _inverse_cdf,
    _joint_law,
    deviation_residual,
    simulate_payoffs,
)

from helpers import FAMILIES, single_atom_game
from oracles import (
    comparison_draw_reference,
    deviation_residual_reference,
    finite_horizon_expectation_reference,
    joint_law_reference,
    simulate_payoffs_reference,
)
from test_solver import FALLBACK_GAMES


def stationary_result(spec, strategy_rows, value_rows):
    """Single-piece result from per-state global strategy/value rows."""
    values, strategies = [], []
    for k in range(spec.n_states):
        values.append((Piece(1.0, np.asarray(value_rows[k], float)),))
        strategies.append((Piece(1.0, np.asarray(strategy_rows[k], float)),))
    return EquilibriumResult(
        values=SplitSelection.of(tuple(values)),
        strategies=SplitSelection.of(tuple(strategies)),
        epsilon=float("nan"),
        diagnostics={},
    )


def random_profile(spec, key, max_pieces=3):
    """A result of one to ``max_pieces`` pieces per divisible cell with
    random fractions, values and strategies, each strategy on its cell's
    feasible actions."""
    rng = np.random.Generator(np.random.Philox(key=key))
    values, strategies = [], []
    for k in range(spec.n_states):
        n = int(rng.integers(1, max_pieces + 1)) if spec.space.divisible[k] else 1
        fractions = rng.dirichlet(np.ones(n))
        v_parts, s_parts = [], []
        for frac in fractions:
            profile = []
            for feasible in spec.feasible:
                weights = rng.uniform(0.1, 1.0, feasible.shape[1]) * feasible[k]
                profile.append(weights / weights.sum())
            v_parts.append(Piece(frac, rng.uniform(-1, 1, spec.players)))
            s_parts.append(Piece(frac, np.concatenate(profile)))
        values.append(tuple(v_parts))
        strategies.append(tuple(s_parts))
    return EquilibriumResult(
        values=SplitSelection.of(tuple(values)),
        strategies=SplitSelection.of(tuple(strategies)),
        epsilon=float("nan"),
        diagnostics={},
    )


def with_infeasible_actions(spec, key):
    """``spec`` with about a third of its actions infeasible and at least
    one feasible action per player and state."""
    rng = np.random.Generator(np.random.Philox(key=key))
    masks = []
    for feasible in spec.feasible:
        mask = rng.random(feasible.shape) < 0.65
        mask[np.arange(len(mask)), rng.integers(0, mask.shape[1], len(mask))] = True
        masks.append(mask)
    return replace(spec, feasible=tuple(masks))


def shift_values(result, delta):
    """``result`` with every reported piece value moved by ``delta``."""
    pieces = tuple(
        tuple(Piece(p.fraction, np.asarray(p.value) + delta) for p in parts)
        for parts in result.values.pieces
    )
    return replace(result, values=SplitSelection.of(pieces))


def test_static_nash_certifies_at_zero():
    payoffs = np.array([[0.6, 0.0, 1.0, 0.2], [0.6, 1.0, 0.0, 0.2]]) / 2
    spec = single_atom_game(payoffs, [0.0, 0.0])
    result = solve(spec)
    cert = deviation_residual(result, spec)
    assert cert.epsilon <= 1e-12
    assert cert.recursion_residual <= 1e-12


def test_overwritten_atom_strategy_shows_hand_computed_gap():
    # dominant-action game; force player 0 onto the dominated action
    payoffs = np.array([[3.0, 0.0, 5.0, 1.0], [3.0, 5.0, 0.0, 1.0]]) / 5
    spec = single_atom_game(payoffs, [0.0, 0.0])
    strategy = np.array([1.0, 0.0, 0.0, 1.0])  # player 0 plays a0, player 1 plays a1
    value = np.array([0.0, 1.0])  # recursion value of the played profile
    result = stationary_result(spec, [strategy], [value])
    cert = deviation_residual(result, spec)
    # player 0: best reply to a1 earns 1/5 against the played 0 -> gap 0.2
    assert cert.gains[0, 0] == pytest.approx(0.2, abs=1e-12)
    assert cert.gains[0, 1] == pytest.approx(0.0, abs=1e-12)
    assert cert.epsilon == pytest.approx(0.2, abs=1e-12)
    assert cert.recursion_residual <= 1e-12


@pytest.mark.parametrize("fractions", [[0.5], [1.5, -0.5]], ids=["halved", "negative"])
def test_certificate_rejects_fractions_off_the_simplex(fractions):
    # a selection whose fractions are no probability split of its cell is
    # no stationary profile, whatever its one-shot gains
    _, spec = random_nowak_game(seed=20, n_cells=4, j_components=1, k_atoms=1)
    result = solve(spec)
    assert deviation_residual(result, spec).epsilon <= 1e-6
    (value,), (strategy,) = result.values.pieces[0], result.strategies.pieces[0]

    def cell_zero(selection, piece):
        parts = tuple(Piece(f, piece.value) for f in fractions)
        return SplitSelection.of((parts,) + selection.pieces[1:])

    forged = replace(
        result,
        values=cell_zero(result.values, value),
        strategies=cell_zero(result.strategies, strategy),
    )
    with pytest.raises(InvalidInput, match="cell 0 fractions"):
        deviation_residual(forged, spec)


def test_absorbing_atom_constant_payoff_simulates_exactly():
    payoffs = np.array([[0.7, 0.7, 0.7, 0.7], [0.7, 0.7, 0.7, 0.7]])
    spec = single_atom_game(payoffs, [0.5, 0.5])
    strategy = np.array([0.5, 0.5, 0.5, 0.5])
    result = stationary_result(spec, [strategy], [np.array([0.7, 0.7])])
    report = simulate_payoffs(spec, result, s0=0, paths=200, seed=1, truncation=1e-9)
    # constant payoff: (1-beta) sum beta^t c truncates to c * (1 - beta^horizon)
    expected = 0.7 * (1 - 0.5**report.horizon)
    assert report.means == pytest.approx([expected, expected], abs=1e-12)
    assert report.std_errors == pytest.approx([0.0, 0.0], abs=1e-15)


def test_levy_absorbing_profile_occupancy():
    spec = make_levy_kernel(LevyParams(alpha=1.0, m_theta=0, n_cells=4))
    prof = levy_profile_index(spec, "1", "1")
    acts = spec.profile_actions(prof)
    strategy = np.concatenate(
        [np.eye(len(spec.actions[i]))[acts[i]] for i in range(spec.players)]
    )
    rows = [strategy] * spec.n_states
    values = [np.zeros(spec.players)] * spec.n_states
    result = stationary_result(spec, rows, values)
    report = simulate_payoffs(spec, result, s0=0, paths=500, seed=3, horizon=6)
    atom = spec.space.atom_indices[0]
    assert report.occupancy[atom] == pytest.approx(1.0)


def test_simulation_reproducible_and_se_scaling():
    _, spec = random_nowak_game(seed=8, n_cells=8, j_components=2, k_atoms=1)
    result = solve(spec)
    r1 = simulate_payoffs(spec, result, s0=0, paths=20_000, seed=11, truncation=1e-4)
    r2 = simulate_payoffs(spec, result, s0=0, paths=20_000, seed=11, truncation=1e-4)
    assert np.array_equal(r1.means, r2.means)
    assert np.array_equal(r1.std_errors, r2.std_errors)
    r4 = simulate_payoffs(spec, result, s0=0, paths=80_000, seed=11, truncation=1e-4)
    # quadrupling paths halves the standard error, within 20%
    ratio = r4.std_errors / r1.std_errors
    assert np.all(np.abs(ratio - 0.5) <= 0.1)


def test_simulation_matches_reported_value():
    _, spec = random_nowak_game(seed=15, n_cells=8, j_components=2, k_atoms=1)
    result = solve(spec)
    averages = np.asarray(result.values.averages(), float)
    for s0 in (0, 3, spec.n_states - 1):
        report = simulate_payoffs(spec, result, s0=s0, paths=40_000, seed=5, truncation=1e-5)
        tol = 3 * report.std_errors + report.truncation_bound
        assert np.all(np.abs(report.means - averages[s0]) <= tol)


def test_simulation_horizon_truncation_consistency():
    _, spec = random_nowak_game(seed=1, n_cells=4, j_components=1, k_atoms=0)
    result = solve(spec)
    with pytest.raises(InvalidInput):
        simulate_payoffs(spec, result, s0=0, paths=10, seed=0, horizon=1, truncation=1e-12)
    with pytest.raises(InvalidInput):
        simulate_payoffs(spec, result, s0=0, paths=10, seed=0)
    for horizon in (0, -3):
        with pytest.raises(InvalidInput, match="horizon must be at least 1"):
            simulate_payoffs(spec, result, s0=0, paths=10, seed=0, horizon=horizon)


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("s0", 1.5, "s0 must be an integer, got 1.5"),
        ("s0", True, "s0 must be an integer, got True"),
        ("paths", 2.5, "paths must be an integer, got 2.5"),
        ("horizon", 2.5, "horizon must be an integer, got 2.5"),
        ("seed", -1, re.escape("seed must lie in [0, 2**64), got -1")),
        ("seed", 2**64, re.escape("seed must lie in [0, 2**64)")),
    ],
)
def test_simulation_refuses_counts_it_cannot_run(option, value, message):
    # read as numbers, 1.5 and True index state 1, 2.5 paths or steps are no
    # array size, and -1 and 2**64 are no key solve accepts
    _, spec = random_nowak_game(seed=1, n_cells=4, j_components=1, k_atoms=0)
    result = solve(spec)
    args = {"s0": 0, "paths": 10, "seed": 0, "horizon": 3, option: value}
    with pytest.raises(InvalidInput, match=f"^{message}"):
        simulate_payoffs(spec, result, **args)


@pytest.mark.parametrize(
    "strategy, feasible, message",
    [
        ([0.0, 0.0, 0.5, 0.5], [True, True], "strategy carries no probability"),
        ([1.5, -0.5, 0.5, 0.5], [True, True], "strategy has negative or non-finite entries"),
        ([np.nan, 1.0, 0.5, 0.5], [True, True], "strategy has negative or non-finite entries"),
        ([0.25, 0.25, 0.5, 0.5], [True, True], "player 0's strategy does not sum to 1"),
        (
            [0.0, 1.0, 0.5, 0.5],
            [True, False],
            "player 0's strategy puts mass on an infeasible action",
        ),
    ],
    ids=["zero-mass", "negative", "nan", "halved", "infeasible"],
)
def test_simulation_rejects_malformed_strategy(strategy, feasible, message):
    # the simulation and the certificate refuse the same profiles alike
    payoffs = np.full((2, 4), 0.5)
    spec = single_atom_game(payoffs, [0.5, 0.5])
    spec = replace(spec, feasible=(np.array([feasible]), spec.feasible[1]))
    result = stationary_result(spec, [np.array(strategy)], [np.array([0.5, 0.5])])
    with pytest.raises(InvalidInput, match=f"piece 0: {message}"):
        simulate_payoffs(spec, result, s0=0, paths=10, seed=0, horizon=3)
    with pytest.raises(InvalidInput, match=f"piece 0: {message}"):
        deviation_residual(result, spec)


def test_malformed_strategy_is_named_by_cell_and_piece():
    # a piece's flat position in the profile is no label a user can map to a cell
    _, spec = random_nowak_game(seed=[4242, 2], n_cells=6, j_components=2, k_atoms=1)
    result = random_profile(spec, key=[5, 0])
    pieces = result.strategies.pieces
    k = next(k for k in range(1, spec.n_states) if len(pieces[k]) > 1)
    bad = Piece(pieces[k][1].fraction, np.array([0.25, 0.25, 0.5, 0.5]))
    cell = pieces[k][:1] + (bad,) + pieces[k][2:]
    forged = replace(result, strategies=SplitSelection.of(pieces[:k] + (cell,) + pieces[k + 1 :]))
    message = f"^cell {k} piece 1: player 0's strategy does not sum to 1$"
    with pytest.raises(InvalidInput, match=message):
        deviation_residual(forged, spec)
    with pytest.raises(InvalidInput, match=message):
        simulate_payoffs(spec, forged, s0=0, paths=10, seed=0, horizon=3)


@pytest.mark.parametrize("field", ["fraction", "value"])
def test_non_finite_piece_is_rejected(field):
    # NaN drops out of every comparison and maximum, so a NaN piece would
    # certify at epsilon 0 and poison its state's simulation row
    _, spec = random_nowak_game(seed=20, n_cells=4, j_components=1, k_atoms=1)
    result = solve(spec)

    def forge(selection, is_value):
        (piece, *rest) = selection.pieces[2]
        if field == "fraction":
            piece = Piece(np.nan, piece.value)
        elif is_value:
            piece = Piece(piece.fraction, np.concatenate([[np.nan], piece.value[1:]]))
        return SplitSelection.of(selection.pieces[:2] + ((piece, *rest),) + selection.pieces[3:])

    forged = replace(
        result, values=forge(result.values, True), strategies=forge(result.strategies, False)
    )
    message = {  # a NaN fraction already fails the selection's own check
        "fraction": "^cell 2 fractions must be nonnegative and sum to 1$",
        "value": "^cell 2 piece 0: value is not finite$",
    }[field]
    with pytest.raises(InvalidInput, match=message):
        deviation_residual(forged, spec)
    with pytest.raises(InvalidInput, match=message):
        simulate_payoffs(spec, forged, s0=0, paths=10, seed=0, horizon=3)


@pytest.mark.parametrize("damage", ["extra-piece", "missing-cell"])
def test_value_and_strategy_piece_counts_must_agree(damage):
    # the strategies' rows are read beside the values' rows, so their
    # offsets must be the same, cell by cell
    _, spec = random_nowak_game(seed=[4242, 2], n_cells=6, j_components=2, k_atoms=1)
    result = random_profile(spec, key=[5, 1])
    pieces = list(result.strategies.pieces)
    if damage == "extra-piece":
        cell = 1
        pieces[cell] += pieces[cell][-1:]
    else:  # the first cell the strategies lack
        cell = len(pieces) - 1
        pieces.pop()
    forged = replace(result, strategies=SplitSelection.of(pieces))
    message = f"^cell {cell}: value and strategy pieces disagree$"
    with pytest.raises(InvalidInput, match=message):
        deviation_residual(forged, spec)
    with pytest.raises(InvalidInput, match=message):
        simulate_payoffs(spec, forged, s0=0, paths=10, seed=0, horizon=3)


def test_results_flow_as_tables_without_piece_objects(monkeypatch, tmp_path):
    # solve, the result file and the verifier read the flat table itself;
    # only the nested view builds a Piece, and nothing on this path asks for it
    import smpe.gamefile
    import smpe.measure
    import smpe.solver
    import smpe.verify

    assert not hasattr(smpe.verify, "_PieceTable")
    for module in (smpe.solver, smpe.gamefile, smpe.verify):
        assert not hasattr(module, "Piece")

    def no_piece(*args, **kwargs):
        raise AssertionError("a Piece was built")

    monkeypatch.setattr(smpe.measure, "Piece", no_piece)
    _, spec = random_nowak_game(seed=20, n_cells=4, j_components=1, k_atoms=1)
    result = solve(spec)
    path = tmp_path / "result.json"
    smpe.gamefile.write_result(path, result, spec)
    loaded = smpe.gamefile.load_result(path, spec)
    assert deviation_residual(loaded, spec).epsilon == result.epsilon
    simulate_payoffs(spec, loaded, s0=0, paths=10, seed=0, horizon=3)
    with pytest.raises(AssertionError, match="a Piece was built"):
        loaded.values.pieces


@pytest.mark.parametrize("reader", ["certificate", "simulation"])
def test_invalid_game_is_rejected(reader):
    # a result certified on a valid game, read against the game with all
    # transition mass out of state 0 removed: no bound or estimate holds
    _, spec = random_nowak_game(seed=20, n_cells=4, j_components=1, k_atoms=1)
    result = solve(spec)
    q, atom_kernel = spec.kernel.q.copy(), spec.atom_kernel.copy()
    q[:, :, 0] = 0.0
    atom_kernel[:, 0] = 0.0
    bad = replace(spec, kernel=KernelDecomposition(rho=spec.kernel.rho, q=q), atom_kernel=atom_kernel)
    report = validate_game(bad)
    assert not report.passed
    with pytest.raises(ValidationError, match="^" + re.escape("; ".join(report.violations)) + "$"):
        if reader == "certificate":
            deviation_residual(result, bad)
        else:
            simulate_payoffs(bad, result, 0, 100, seed=0, horizon=5)


def test_threaded_simulation_identical(monkeypatch):
    _, spec = random_nowak_game(seed=9, n_cells=6, j_components=1, k_atoms=1)
    result = solve(spec)
    base = simulate_payoffs(spec, result, s0=0, paths=30_000, seed=2, truncation=1e-3)
    monkeypatch.setenv("SMPE_THREADS", "4")
    threaded = simulate_payoffs(spec, result, s0=0, paths=30_000, seed=2, truncation=1e-3)
    assert np.array_equal(base.means, threaded.means)
    assert np.array_equal(base.std_errors, threaded.std_errors)
    assert np.array_equal(base.occupancy, threaded.occupancy)


@functools.lru_cache(maxsize=None)
def solved_family_game(family, index, sunspot_cells=0):
    """Default-option solve of the generated game [4242, index] of a family,
    optionally of its sunspot extension."""
    _, spec = random_nowak_game(seed=[4242, index], **FAMILIES[family])
    if sunspot_cells:
        spec = sunspot_extend(spec, sunspot_cells)
    return spec, solve(spec)


# SHA-256 of the canonical bytes of simulation reports of solved generated
# games at criterion 8's truncation, recorded with Python 3.11.7 and numpy
# 2.4.6 on x86-64. Keys: family, game index, sunspot cells (0 for none),
# initial state (-1 for the last), paths. 777 paths leave a partial chunk.
# The three-player fallback game (its index 0) pins the product of three
# players' strategies. Any change to the draws of the sampler or to the
# order of the random stream shows here.
GOLDEN_SIMULATIONS = {
    ("mixture-32", 0, 0, 0, 100_000): (
        "9d407fca88d5bb4c3552bf51562b87be0fe8c39eefa37c4a095894000fcfa048"
    ),
    ("mixture-32", 0, 0, -1, 100_000): (
        "d4db3e039aa01a8dbbaaa1afcf0d7e2e6a917a1486c2f195a15ba3a778f03de8"
    ),
    ("mixture-32", 0, 0, 5, 777): (
        "d1c0bee03bc9b92946e6f7e5a75e6e923e7aa4d51c1b794832a2dbcb8f02824d"
    ),
    ("atom-heavy", 0, 0, 0, 100_000): (
        "f9831074bd57d21954c1d5b1a0edc97f5eb8351e31cf826deb525c0fbfa8bb04"
    ),
    ("atom-heavy", 0, 0, -1, 100_000): (
        "ce24cd1fd50711b5373e4e2fee2e3d9ecaf84119fb96d17b771b9f4354f5a694"
    ),
    ("mixture-32", 0, 2, 7, 20_000): (
        "a8403ecd09d9c0e1c2619d85e9132ad7e7b869b20473a327db039c598ec38e71"
    ),
    ("three-player-2x2x2", 0, 0, 0, 100_000): (
        "1b373cc708422670d54991be6b14c67790f46b2014c84e752491b85a369d205a"
    ),
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("key", list(GOLDEN_SIMULATIONS), ids=lambda k: "-".join(map(str, k)))
def test_simulation_bytes_match_golden_digest(key, threads, monkeypatch):
    family, index, sunspot_cells, s0, paths = key
    if family in FALLBACK_GAMES:
        spec, result = solved_fallback_game(family)
    else:
        spec, result = solved_family_game(family, index, sunspot_cells)
    s0 = s0 % spec.n_states
    monkeypatch.setenv("SMPE_THREADS", threads)
    report = simulate_payoffs(spec, result, s0=s0, paths=paths, seed=9000 + s0, truncation=1e-4)
    data = canonical_bytes(simulation_to_doc(report))
    assert hashlib.sha256(data).hexdigest() == GOLDEN_SIMULATIONS[key]


def masked_random_game(n_actions, index):
    """A generated game of 3 cells and 2 atoms with some actions infeasible,
    under a random multi-piece profile."""
    _, spec = random_nowak_game(
        seed=[4242, index], n_cells=3, j_components=2, k_atoms=2, n_actions=n_actions
    )
    spec = with_infeasible_actions(spec, key=[6, index])
    return spec, random_profile(spec, key=[7, index])


def solved_fallback_game(name):
    spec = FALLBACK_GAMES[name][0]()
    return spec, solve(spec)


def without_infeasible_mass(spec):
    """``spec`` with no transition mass at the profiles infeasible at a state,
    which a valid game may leave at zero."""
    mask = spec.feasible_mask()
    kernel = KernelDecomposition(rho=spec.kernel.rho, q=np.where(mask, spec.kernel.q, 0.0))
    return replace(spec, kernel=kernel, atom_kernel=np.where(mask, spec.atom_kernel, 0.0))


def zero_mass_game(n_actions, index):
    spec, result = masked_random_game(n_actions, index)
    spec = without_infeasible_mass(spec)
    assert (spec.transition_masses().sum(axis=0) == 0).any()
    return spec, result


def random_profile_game(spec, key):
    return spec, random_profile(spec, key=key)


def forged_family_game(family, index, delta):
    spec, result = solved_family_game(family, index)
    return spec, shift_values(result, delta)


CERTIFICATE_CASES = {
    "mixture-32-0": lambda: solved_family_game("mixture-32", 0),
    "mixture-32-8": lambda: solved_family_game("mixture-32", 8),
    "atom-heavy-0": lambda: solved_family_game("atom-heavy", 0),
    "atom-heavy-7": lambda: solved_family_game("atom-heavy", 7),
    "mixture-32-0-values+0.3": lambda: forged_family_game("mixture-32", 0, 0.3),
    "mixture-32-0-values-0.3": lambda: forged_family_game("mixture-32", 0, -0.3),
    "three-player-2x2x2": lambda: solved_fallback_game("three-player-2x2x2"),
    "one-player-3x3": lambda: solved_fallback_game("one-player-3x3"),
    "infeasible-3x4": lambda: masked_random_game((3, 4), 0),
    "infeasible-5x5": lambda: masked_random_game((5, 5), 1),
    "infeasible-2x3x2": lambda: masked_random_game((2, 3, 2), 2),
}


@pytest.mark.parametrize("case", sorted(CERTIFICATE_CASES))
def test_certificate_matches_per_piece_reference(case):
    # the contraction over the piece table does the arithmetic of one
    # tensordot per piece and player, and the piece transition is exact
    spec, result = CERTIFICATE_CASES[case]()
    cert = deviation_residual(result, spec)
    epsilon, gains, recursion = deviation_residual_reference(result, spec)
    assert cert.epsilon == epsilon
    assert np.array_equal(cert.gains, gains)
    assert cert.recursion_residual == recursion


SIMULATION_CASES = {
    "one-player-3x3-pieces": lambda: random_profile_game(
        FALLBACK_GAMES["one-player-3x3"][0](), [8, 0]
    ),
    "mixture-32-0-pieces": lambda: random_profile_game(
        solved_family_game("mixture-32", 0)[0], [8, 1]
    ),
    "three-player-2x2x2": lambda: solved_fallback_game("three-player-2x2x2"),
    "zero-mass-3x4": lambda: zero_mass_game((3, 4), 0),
    "zero-mass-2x3x2": lambda: zero_mass_game((2, 3, 2), 2),
}


@pytest.mark.parametrize("case", sorted(SIMULATION_CASES))
def test_joint_law_matches_per_piece_reference(case):
    spec, result = SIMULATION_CASES[case]()
    law = _joint_law(result, spec)
    reference = joint_law_reference(result, spec).reshape(spec.n_states, -1)
    assert np.max(np.abs(law - reference)) <= 1e-15


@pytest.mark.parametrize("case", sorted(SIMULATION_CASES))
def test_simulation_matches_finite_horizon_expectation(case):
    # the joint draw and the chain of piece, actions and next state sample
    # the same path law, whose expectation the state law gives exactly
    spec, result = SIMULATION_CASES[case]()
    report = simulate_payoffs(spec, result, s0=0, paths=20_000, seed=13, truncation=1e-3)
    exact = finite_horizon_expectation_reference(result, spec, 0, report.horizon)
    assert np.all(np.abs(report.means - exact) <= 4 * report.std_errors + report.truncation_bound)
    means, std_errors, _ = simulate_payoffs_reference(spec, result, 0, 20_000, 13, report.horizon)
    assert np.all(np.abs(means - exact) <= 4 * std_errors + report.truncation_bound)


# --- guide-table sampler ------------------------------------------------------------


def adversarial_uniforms(cum, rng, extra=2000):
    """Uniforms in [0, 1) on and next to every table entry and every edge
    b/B of a guide of up to B = 4096 buckets, plus 0 and random ones."""
    points = np.concatenate([cum.ravel(), np.arange(4096) / 4096])
    near = np.concatenate([points, np.nextafter(points, 0.0), np.nextafter(points, 2.0)])
    u = np.concatenate([[0.0], near, rng.random(extra)])
    return u[(u >= 0.0) & (u < 1.0)]


def assert_draws_match_reference(cum, rng):
    draw = _inverse_cdf(cum)
    u = adversarial_uniforms(cum, rng)
    for r in range(cum.shape[0]):
        rows = np.full(len(u), r)
        assert np.array_equal(draw(rows, u), comparison_draw_reference(cum, rows, u))
    rows = rng.integers(0, cum.shape[0], len(u))
    assert np.array_equal(draw(rows, u), comparison_draw_reference(cum, rows, u))


def test_inverse_cdf_matches_comparison_on_adversarial_tables():
    rng = np.random.Generator(np.random.Philox(key=[41, 0]))
    one = 1.0000000000000002
    tables = [
        # the last entry forced to 1.0 below a preceding rounded-up one
        [[0.3, one, 1.0], [one, one, 1.0], [0.0, 0.7, 1.0]],
        # repeated entries: zero-probability actions, leading and trailing
        [[0.25, 0.25, 0.25, 1.0], [0.0, 0.0, 0.5, 1.0], [0.5, 1.0, 1.0, 1.0]],
        # entries exactly on bucket edges b/B (B = 64 for four columns)
        [[1 / 64, 0.5, 40 / 64, 1.0], [0.0, 63 / 64, 63 / 64, 1.0], [1 / 8, 1 / 4, 3 / 8, 1.0]],
        # unsorted rows: the count does not depend on the order of a row
        [[0.5, 0.2, 1.0, 0.75], [0.9, 0.1, 0.6, 1.0]],
        # one column
        [[1.0], [1.0]],
    ]
    for table in tables:
        assert_draws_match_reference(np.array(table), rng)


@pytest.mark.parametrize("columns", [33, 66])
def test_inverse_cdf_matches_comparison_on_transition_tables(columns):
    rng = np.random.Generator(np.random.Philox(key=[41, columns]))
    # sparse rows, as from a game whose kernel reaches few cells per profile
    masses = rng.random((40, columns)) * (rng.random((40, columns)) < 0.3)
    masses[:, rng.integers(0, columns)] += 0.1
    # normalized as the simulation normalizes its transition table
    cum = np.cumsum(masses, axis=1)
    cum /= cum[:, -1:]
    assert_draws_match_reference(cum, rng)
