"""Independent certification of candidate equilibria.

This module re-derives everything it needs from the game data and the
reported piecewise values/strategies alone, and it is where results
enter: both readers reject a game that fails validation, read the
reported selections' flat piece tables as they are (the cell of each
piece from the offsets, the values and the strategies on one shared
set of rows) and reject a profile whose fractions or values are not
finite, or whose fractions or strategies are not probability vectors
(the strategies on the feasible actions). It deliberately shares no
stage-game or enumeration code with the solver, so agreement between
the two is a genuine cross-check. As array steps over those rows it
computes the one-shot deviation gains of every
piece, the exact evaluation of the reported strategy profile via a
linear solve, and the sampling table of reproducible Monte Carlo
estimates of discounted play. Payoffs and transitions read only (state,
profile), so the simulation marginalizes the pieces: each path and step
draws (profile, next state) from its state's joint law with one uniform
and one exact guide-table inverse-CDF lookup, O(1) per draw, that
returns the index of the comparison rule ``#{j : cum[r, j] < u}`` bit
for bit.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, ValidationError
from .game import StochasticGameSpec, validate_game
from .measure import is_integer, is_real

CHUNK_PATHS = 8192
STRATEGY_TOL = 1e-12


@dataclass(frozen=True)
class SimulationReport:
    """Monte Carlo summary of discounted play under a stationary profile."""

    means: np.ndarray
    std_errors: np.ndarray
    paths: int
    seed: int
    horizon: int
    truncation_bound: float
    initial_state: int
    occupancy: np.ndarray
    rng: str = "philox"


@dataclass(frozen=True)
class Certificate:
    """Deviation gains per piece and player, their maximum, and the gap
    between reported values and the exact evaluation of the strategy."""

    epsilon: float
    gains: np.ndarray
    piece_labels: tuple
    recursion_residual: float
    simulation: SimulationReport | None = None


def _piece_cells(result, spec):
    """The cell of every piece of ``result``'s flat tables, once the game,
    the fractions, the piece counts and the strategies pass their checks;
    a game that fails :func:`~smpe.game.validate_game` raises
    :class:`ValidationError` with its violations joined by "; "."""
    report = validate_game(spec)
    if not report.passed:
        raise ValidationError("; ".join(report.violations), report=report)
    result.values.validate(spec.space)
    start, other = result.values.start, result.strategies.start
    if not np.array_equal(start, other):  # the first cell whose end offsets differ
        k = np.argmax(np.append(start[1 : len(other)] != other[1 : len(start)], True))
        raise InvalidInput(f"cell {k}: value and strategy pieces disagree")
    cell = np.repeat(np.arange(result.values.n_cells), np.diff(start))
    _check_strategies(result, cell, spec)
    return cell


def _player_strategies(result, spec):
    """Each player's (P, n_actions_i) block of the result's strategies, as views."""
    strategy = np.asarray(result.strategies.value, dtype=float)
    return np.split(strategy, np.cumsum(spec.profile_shape)[:-1], axis=1)


def _profile_probabilities(strategies):
    """(P, n_profiles) law of the action profile in each piece: the product
    of the players' strategies, normalized."""
    prob = strategies[0]
    for s in strategies[1:]:
        prob = (prob[:, :, None] * s[:, None, :]).reshape(len(prob), -1)
    return prob / prob.sum(axis=1, keepdims=True)


def _check_strategies(result, cell, spec):
    """Reject a reported profile that is not stationary Markov.

    Every piece's value must be finite (its fraction passed the selection's
    own check), and every player's strategy in every piece must be a
    probability vector (finite, nonnegative, positive mass, summing to 1
    within ``STRATEGY_TOL``) on the player's feasible actions at the
    piece's cell; otherwise ``InvalidInput`` names an offending piece by
    its cell and its position in the cell.
    """

    def reject(bad, message):
        if bad.any():
            p = int(np.argmax(bad))
            k = cell[p]
            raise InvalidInput(f"cell {k} piece {p - result.values.start[k]}: {message}")

    reject(~np.isfinite(np.asarray(result.values.value, float)).all(axis=1), "value is not finite")
    for i, (probs, feasible) in enumerate(zip(_player_strategies(result, spec), spec.feasible)):
        reject(
            ~np.isfinite(probs).all(axis=1) | (probs < 0).any(axis=1),
            "strategy has negative or non-finite entries",
        )
        totals = probs.sum(axis=1)
        reject(totals <= 0, "strategy carries no probability")
        reject(np.abs(totals - 1.0) > STRATEGY_TOL, f"player {i}'s strategy does not sum to 1")
        reject(
            np.where(feasible[cell], 0.0, probs).any(axis=1),
            f"player {i}'s strategy puts mass on an infeasible action",
        )


def deviation_residual(result, spec: StochasticGameSpec) -> Certificate:
    """One-shot deviation gains of the reported profile, plus the exact
    recursion gap.

    For every piece (sub-interval of a cell, or atom) and player, the
    gain is the best payoff over the player's feasible pure actions
    against the others' reported strategies, minus the reported value;
    the continuation integral uses the reported piecewise values. The
    gains of all pieces come from one contraction per player over the
    flat piece table. The recursion gap is the sup-norm distance between
    the reported values and the exact discounted evaluation of the
    reported strategies, obtained from a linear solve over pieces.

    The bound holds only for a valid game and a stationary Markov
    profile, so a game that fails validation raises ``ValidationError``
    first; piece fractions that are negative or do not sum to 1 per cell,
    a fraction or value that is not finite, and a piece whose strategy is
    not a probability vector on its cell's feasible actions raise
    ``InvalidInput``; this is where results from outside the solver enter.
    """
    cell = _piece_cells(result, spec)
    value = np.asarray(result.values.value, dtype=float)
    averages = np.asarray(result.values.averages(), dtype=float)
    density = spec.cell_density()
    masses = np.asarray(spec.space.masses, dtype=float)
    atoms = spec.space.atom_indices
    # continuation of each player's reported value from every (state, profile)
    cont = np.einsum("k,ksx,ki->isx", masses, density, averages)
    if len(atoms):
        cont += np.einsum("asx,ai->isx", spec.atom_kernel, averages[atoms])
    beta = spec.discounts[:, None, None]
    one_shot = (1.0 - beta) * spec.payoffs + beta * cont

    shape = spec.profile_shape
    n_pieces = len(cell)
    strategies = _player_strategies(result, spec)
    gains = np.empty((n_pieces, spec.players))
    for i in range(spec.players):
        payoff = one_shot[i][cell].reshape((n_pieces,) + shape)
        # the others' axes from the last, each moved last and contracted by a
        # stacked matmul: the products and sums of one tensordot per piece
        for j in reversed(range(spec.players)):
            if j != i:
                moved = np.moveaxis(payoff, 1 + j, -1)
                contracted = moved.reshape(n_pieces, -1, shape[j]) @ strategies[j][:, :, None]
                payoff = contracted.reshape(moved.shape[:-1])
        best = np.where(spec.feasible[i][cell], payoff, -np.inf).max(axis=1)
        gains[:, i] = best - value[:, i]
    index = np.arange(n_pieces) - result.values.start[cell]
    return Certificate(
        epsilon=max(0.0, float(gains.max())),
        gains=gains,
        piece_labels=tuple(zip(cell.tolist(), index.tolist())),
        recursion_residual=_recursion_gap(cell, result.values.fraction, value, strategies, spec),
    )


def _recursion_gap(cell, fraction, value, strategies, spec):
    """Exact discounted evaluation of the reported strategies over pieces."""
    n_pieces = len(cell)
    prob = _profile_probabilities(strategies)  # (piece, profile)
    stage = (spec.payoffs[:, cell, None, :] @ prob[:, :, None])[..., 0, 0]  # (m, piece)
    trans_masses = spec.transition_masses()[:, cell]  # (target cell, piece, profile)
    to_cell = (trans_masses.transpose(1, 0, 2) @ prob[:, :, None])[..., 0]  # (piece, target cell)
    # each target cell's mass spread over that cell's pieces by their fractions
    transition = to_cell[:, cell] * np.asarray(fraction, dtype=float)
    worst = 0.0
    eye = np.eye(n_pieces)
    for i in range(spec.players):
        beta = float(spec.discounts[i])
        exact = np.linalg.solve(eye - beta * transition, (1.0 - beta) * stage[i])
        worst = max(worst, float(np.max(np.abs(value[:, i] - exact))))
    return worst


def _joint_law(result, spec):
    """(n_states, n_profiles * n_states) law of (profile, next state) at each
    state, column ``x * n_states + t``: the fraction-weighted profile law of
    the state's pieces times the transition masses of each profile,
    normalized; a profile that carries no transition mass gets no weight."""
    prob = _profile_probabilities(_player_strategies(result, spec))  # (piece, profile)
    fraction = np.asarray(result.values.fraction, dtype=float)
    law = np.add.reduceat(fraction[:, None] * prob, result.values.start[:-1])  # (state, profile)
    trans = spec.transition_masses().transpose(1, 2, 0)  # (state, profile, next state)
    total = trans.sum(axis=2)
    weight = np.divide(law, total, out=np.zeros_like(law), where=total > 0)
    return (weight[:, :, None] * trans).reshape(spec.n_states, -1)


def _inverse_cdf(cum):
    """Exact inverse-CDF sampler over the rows of a cumulative table.

    The returned ``draw(rows, u)`` gives, for each row ``r`` and uniform
    ``u`` in [0, 1), the count ``#{j : cum[r, j] < u}``, exactly what the
    comparison rule ``(u[:, None] > cum[rows]).sum(1)`` returns, in O(1)
    per draw. It uses a guide table over ``B`` equal buckets (Chen & Asau
    1974; Devroye 1986, section III.2): with ``g[r, b] = #{j : cum[r, j] <
    b/B}``, the count is monotone in ``u`` whatever the order of the row, so
    for the bucket ``b = floor(u*B)`` it is ``g[r, b]`` whenever ``g[r, b] ==
    g[r, b + 1]``. The table stores that value, or a mark above every count
    for a bucket that holds a table entry; only draws in marked buckets fall
    back to the comparison. ``B`` is a power of two, so ``u*B`` and the
    edges ``b/B`` are exact and ``b`` is always the true bucket; with ``B >=
    16 * columns`` at most one bucket in 16 is marked. The sampler only
    reads its tables, so threads may share it.
    """
    cum = np.asarray(cum, dtype=float)
    n_rows, cols = cum.shape
    buckets = 1 << (16 * cols - 1).bit_length()
    edges = np.arange(buckets + 1) / buckets
    mark = cols + 1
    guide = np.empty((n_rows, buckets), dtype=np.min_scalar_type(mark))
    for r in range(n_rows):
        g = np.searchsorted(np.sort(cum[r]), edges, side="left")
        guide[r] = np.where(g[:-1] == g[1:], g[:-1], mark)
    guide = guide.ravel()

    def draw(rows, u):
        found = guide[rows * buckets + (u * buckets).astype(np.intp)]
        idx = found.astype(np.intp)
        unsure = np.flatnonzero(found == mark)
        if unsure.size:
            idx[unsure] = (u[unsure, None] > cum[rows[unsure]]).sum(axis=1)
        return idx

    return draw


def simulate_payoffs(
    spec: StochasticGameSpec,
    result,
    s0: int,
    paths: int,
    seed: int,
    horizon: int | None = None,
    truncation: float | None = None,
) -> SimulationReport:
    """Monte Carlo discounted payoffs of the reported stationary profile.

    Trajectories start at cell ``s0``. A piece reaches play only through
    the action profile it draws, and payoffs and transitions read only
    (state, profile), so each path and step draws (profile, next state)
    from its state's joint law (``_joint_law``, the pieces marginalized)
    with one uniform and one guide-table lookup (``_inverse_cdf``) that
    returns the index of the comparison rule ``(u[:, None] >
    cum[rows]).sum(1)`` exactly. The horizon is either given (at least 1)
    or derived so the discarded tail is below ``truncation`` times the
    payoff bound scale. Paths are simulated in fixed-size blocks, each
    driven by a counter-based generator keyed on (seed, block), so
    identical seeds reproduce the report bit for bit regardless of the
    thread count (``SMPE_THREADS``). The game and the pieces are checked as
    :func:`deviation_residual` checks them; ``s0``, ``paths``, ``seed`` and
    ``horizon`` must be integers, not bool, and ``seed`` lie in [0, 2**64),
    as ``solve`` requires of its seed.
    """
    _piece_cells(result, spec)
    counts = {"s0": s0, "paths": paths, "seed": seed, "horizon": 1 if horizon is None else horizon}
    for name, value in counts.items():  # 1.5 or True would index a state or size an array
        if not is_integer(value):
            raise InvalidInput(f"{name} must be an integer, got {value!r}")
    if paths < 1:
        raise InvalidInput("need at least one path")
    if horizon is not None and horizon < 1:
        raise InvalidInput(f"horizon must be at least 1, got {horizon}")
    if not (0 <= s0 < spec.n_states):
        raise InvalidInput(f"initial state {s0} out of range")
    if not 0 <= seed < 2**64:
        raise InvalidInput(f"seed must lie in [0, 2**64), got {seed}")
    beta_max = float(spec.discounts.max())
    bound = spec.payoff_bound
    if truncation is not None and not (is_real(truncation) and truncation > 0):  # NaN included
        raise InvalidInput("truncation must be positive")
    if horizon is None:
        if truncation is None:
            raise InvalidInput("provide a horizon or a truncation error")
        if beta_max == 0.0 or truncation >= bound:
            horizon = 1
        else:
            horizon = max(1, math.ceil(math.log(truncation / bound) / math.log(beta_max)))
    elif truncation is not None and beta_max**horizon * bound > truncation * (1 + 1e-12):
        raise InvalidInput(
            f"horizon {horizon} leaves a tail above the requested truncation {truncation:g}"
        )
    truncation_bound = beta_max**horizon * bound

    cum = np.cumsum(_joint_law(result, spec), axis=1)  # (state, profile * next state)
    cum /= cum[:, -1:]
    cum[:, -1] = 1.0
    draw = _inverse_cdf(cum)
    profile_of, target_of = np.divmod(np.arange(cum.shape[1]), spec.n_states)
    weights = np.array(
        [(1.0 - b) * b ** np.arange(horizon) for b in spec.discounts]
    )  # (m, horizon)
    payoff_flat = spec.payoffs.reshape(spec.players, -1)

    n_chunks = (paths + CHUNK_PATHS - 1) // CHUNK_PATHS

    def run_chunk(chunk_idx):
        n = min(CHUNK_PATHS, paths - chunk_idx * CHUNK_PATHS)
        rng = np.random.Generator(
            np.random.Philox(key=np.array([seed, chunk_idx], dtype=np.uint64))
        )
        states = np.full(n, s0, dtype=int)
        acc = np.zeros((spec.players, n))
        visits = np.zeros(spec.n_states)
        for t in range(horizon):
            col = draw(states, rng.random(n))
            row = states * spec.n_profiles + profile_of[col]  # (state, profile) row
            acc += weights[:, t, None] * np.take(payoff_flat, row, axis=1)
            states = target_of[col]
            if t + 1 < horizon:
                visits += np.bincount(states, minlength=spec.n_states)
        return acc.sum(axis=1), (acc**2).sum(axis=1), visits

    raw_threads = os.environ.get("SMPE_THREADS", "1") or "1"
    try:
        threads = int(raw_threads)
    except ValueError:
        raise InvalidInput(f"SMPE_THREADS must be an integer, got {raw_threads!r}") from None
    if threads > 1 and n_chunks > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_chunk, range(n_chunks)))
    else:
        results = [run_chunk(c) for c in range(n_chunks)]

    total, total_sq, visits = (sum(parts) for parts in zip(*results))  # in chunk order
    means = total / paths
    if paths > 1:
        var = np.clip(total_sq / paths - means**2, 0.0, None) * paths / (paths - 1)
        std_errors = np.sqrt(var / paths)
    else:
        std_errors = np.zeros(spec.players)
    occupancy = visits / visits.sum() if visits.sum() > 0 else visits
    means.setflags(write=False)
    std_errors.setflags(write=False)
    occupancy.setflags(write=False)
    return SimulationReport(
        means=means,
        std_errors=std_errors,
        paths=paths,
        seed=seed,
        horizon=horizon,
        truncation_bound=float(truncation_bound),
        initial_state=int(s0),
        occupancy=occupancy,
    )
