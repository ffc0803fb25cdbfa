"""Independent certification and Monte Carlo simulation."""

import functools
import hashlib
from dataclasses import replace

import numpy as np
import pytest

from smpe.errors import InvalidInput
from smpe.game import sunspot_extend
from smpe.gamefile import canonical_bytes, simulation_to_doc
from smpe.kernels import LevyParams, levy_profile_index, make_levy_kernel, random_nowak_game
from smpe.measure import Piece, SplitSelection
from smpe.solver import EquilibriumResult, solve
from smpe.verify import _inverse_cdf, deviation_residual, simulate_payoffs

from helpers import FAMILIES, single_atom_game
from oracles import comparison_draw_reference


def stationary_result(spec, strategy_rows, value_rows):
    """Single-piece result from per-state global strategy/value rows."""
    values, strategies = [], []
    for k in range(spec.n_states):
        values.append((Piece(1.0, np.asarray(value_rows[k], float)),))
        strategies.append((Piece(1.0, np.asarray(strategy_rows[k], float)),))
    return EquilibriumResult(
        values=SplitSelection(tuple(values)),
        strategies=SplitSelection(tuple(strategies)),
        epsilon=float("nan"),
        diagnostics={},
    )


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
# Any change to the draws of the sampler or to the order of the random
# stream shows here.
GOLDEN_SIMULATIONS = {
    ("mixture-32", 0, 0, 0, 100_000): (
        "0938a8694476045cf8398431c2dc08144d4301c8579b1a469588fbc515bc32af"
    ),
    ("mixture-32", 0, 0, -1, 100_000): (
        "54945c86e559a7e5820aba1b7c1d33d30465d532e9aa6b45479803649ca08f37"
    ),
    ("mixture-32", 0, 0, 5, 777): (
        "2bba9d3157f5fb80304d1565767e0ce0da68d87c658084e892d1bb6c7d529630"
    ),
    ("atom-heavy", 0, 0, 0, 100_000): (
        "c359fcebaf5a8329df6000446495bacbfdcd01797fc65ca4dd1007fbd68e902d"
    ),
    ("atom-heavy", 0, 0, -1, 100_000): (
        "e4ea05745edb90de1bb2423d2201e67ca2885add414b0e20d4e6648d0ee4464f"
    ),
    ("mixture-32", 0, 2, 7, 20_000): (
        "98c679dac7a2f11fe909fad8cc791bb14c6cc3125f0e579d5a72582d8cca57bb"
    ),
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("key", list(GOLDEN_SIMULATIONS), ids=lambda k: "-".join(map(str, k)))
def test_simulation_bytes_match_golden_digest(key, threads, monkeypatch):
    family, index, sunspot_cells, s0, paths = key
    spec, result = solved_family_game(family, index, sunspot_cells)
    s0 = s0 % spec.n_states
    monkeypatch.setenv("SMPE_THREADS", threads)
    report = simulate_payoffs(spec, result, s0=s0, paths=paths, seed=9000 + s0, truncation=1e-4)
    data = canonical_bytes(simulation_to_doc(report))
    assert hashlib.sha256(data).hexdigest() == GOLDEN_SIMULATIONS[key]


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
