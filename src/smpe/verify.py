"""Independent certification of candidate equilibria.

This module re-derives everything it needs from the game data and the
reported piecewise values/strategies alone, and it is where results
enter: the certificate and the simulation both first reject a profile
whose strategies are not probability vectors on the feasible actions.
It deliberately shares no stage-game or enumeration code with the
solver, so agreement between the two is a genuine cross-check. It
computes one-shot deviation gains state by state (at the sub-interval
granularity of the reported selections), the exact evaluation of the
reported strategy profile via a linear solve, and reproducible Monte
Carlo estimates of discounted play. The simulation draws pieces,
actions and next states by exact guide-table inverse-CDF lookups, O(1)
per draw, that return the indices of the comparison rule
``#{j : cum[r, j] < u}`` bit for bit.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .game import StochasticGameSpec

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


def _strategy_slices(spec):
    sizes = [len(a) for a in spec.actions]
    offsets = np.cumsum([0] + sizes)
    return [slice(offsets[i], offsets[i + 1]) for i in range(spec.players)]


def _reduce_against(tensor, player, strategies):
    """Contract a payoff tensor over every axis except ``player``'s."""
    axes = list(range(tensor.ndim))
    out = tensor
    for j in sorted((a for a in axes if a != player), reverse=True):
        out = np.tensordot(out, strategies[j], axes=([j], [0]))
    return out


def _pieces_of(result, spec):
    """Flat list of (cell, piece index, value, per-player strategy vectors)."""
    slices = _strategy_slices(spec)
    pieces = []
    for k in range(spec.n_states):
        v_parts = result.values.pieces[k]
        s_parts = result.strategies.pieces[k]
        if len(v_parts) != len(s_parts):
            raise InvalidInput(f"cell {k}: value and strategy pieces disagree")
        for p, (vp, sp) in enumerate(zip(v_parts, s_parts)):
            strat = [np.asarray(sp.value, dtype=float)[sl] for sl in slices]
            pieces.append((k, p, float(vp.fraction), np.asarray(vp.value, dtype=float), strat))
    return pieces


def _check_strategies(pieces, spec):
    """Reject a reported profile that is not stationary Markov.

    Every player's strategy in every piece must be a probability vector
    (finite, nonnegative, positive mass, summing to 1 within
    ``STRATEGY_TOL``) on the player's feasible actions at the piece's
    cell; otherwise ``InvalidInput`` names an offending piece.
    """

    def reject(bad, message):
        if bad.any():
            raise InvalidInput(f"piece {int(np.argmax(bad))}: {message}")

    cells = np.array([k for k, *_ in pieces], dtype=int)
    for i, feasible in enumerate(spec.feasible):
        probs = np.array([strat[i] for *_, strat in pieces])
        reject(
            ~np.isfinite(probs).all(axis=1) | (probs < 0).any(axis=1),
            "strategy has negative or non-finite entries",
        )
        totals = probs.sum(axis=1)
        reject(totals <= 0, "strategy carries no probability")
        reject(np.abs(totals - 1.0) > STRATEGY_TOL, f"player {i}'s strategy does not sum to 1")
        reject(
            np.where(feasible[cells], 0.0, probs).any(axis=1),
            f"player {i}'s strategy puts mass on an infeasible action",
        )


def deviation_residual(result, spec: StochasticGameSpec) -> Certificate:
    """One-shot deviation gains of the reported profile, plus the exact
    recursion gap.

    For every piece (sub-interval of a cell, or atom) and player, the
    gain is the best payoff over the player's feasible pure actions
    against the others' reported strategies, minus the reported value;
    the continuation integral uses the reported piecewise values. The
    recursion gap is the sup-norm distance between the reported values
    and the exact discounted evaluation of the reported strategies,
    obtained from a linear solve over pieces.

    The bound holds only for a stationary Markov profile, so a piece
    whose strategy is not a probability vector on its cell's feasible
    actions raises ``InvalidInput`` first; this is where results from
    outside the solver enter.
    """
    pieces = _pieces_of(result, spec)
    _check_strategies(pieces, spec)
    averages = np.asarray(result.values.averages(), dtype=float)
    density = spec.cell_density()
    masses = np.asarray(spec.space.masses, dtype=float)
    atoms = spec.space.atom_indices
    atom_values = averages[atoms] if len(atoms) else np.zeros((0, spec.players))
    # continuation of each player's reported value from every (state, profile)
    cont = np.einsum("k,ksx,ki->isx", masses, density, averages)
    if len(atoms):
        cont += np.einsum("asx,ai->isx", spec.atom_kernel, atom_values)
    beta = spec.discounts[:, None, None]
    one_shot = (1.0 - beta) * spec.payoffs + beta * cont

    shape = spec.profile_shape
    gains = np.zeros((len(pieces), spec.players))
    labels = []
    for idx, (k, p, _frac, value, strat) in enumerate(pieces):
        labels.append((k, p))
        for i in range(spec.players):
            tensor = one_shot[i, k].reshape(shape)
            vec = _reduce_against(tensor, i, strat)
            feas = spec.feasible[i][k]
            best = float(vec[feas].max())
            gains[idx, i] = best - value[i]
    epsilon = max(0.0, float(gains.max())) if gains.size else 0.0
    recursion = _recursion_gap(pieces, spec)
    return Certificate(
        epsilon=epsilon,
        gains=gains,
        piece_labels=tuple(labels),
        recursion_residual=recursion,
    )


def _recursion_gap(pieces, spec):
    """Exact discounted evaluation of the reported strategies over pieces."""
    n_pieces = len(pieces)
    trans_masses = spec.transition_masses()  # (target cell, state, profile)
    cell_piece_ids = [[] for _ in range(spec.n_states)]
    for idx, (k, _p, frac, _v, _s) in enumerate(pieces):
        cell_piece_ids[k].append((idx, frac))
    stage = np.zeros((spec.players, n_pieces))
    transition = np.zeros((n_pieces, n_pieces))
    for idx, (k, _p, _frac, _value, strat) in enumerate(pieces):
        prob = strat[0]
        for s in strat[1:]:
            prob = np.multiply.outer(prob, s)
        prob = prob.reshape(-1)
        prob = prob / prob.sum()
        for i in range(spec.players):
            stage[i, idx] = float(np.dot(spec.payoffs[i, k], prob))
        to_cell = trans_masses[:, k, :] @ prob  # (n_cells,)
        for k2 in range(spec.n_states):
            if to_cell[k2] == 0.0:
                continue
            for jdx, frac2 in cell_piece_ids[k2]:
                transition[idx, jdx] += to_cell[k2] * frac2
    reported = np.array([value for (_k, _p, _f, value, _s) in pieces])  # (n_pieces, m)
    worst = 0.0
    eye = np.eye(n_pieces)
    for i in range(spec.players):
        beta = float(spec.discounts[i])
        exact = np.linalg.solve(eye - beta * transition, (1.0 - beta) * stage[i])
        worst = max(worst, float(np.max(np.abs(reported[:, i] - exact))))
    return worst


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

    Trajectories start at cell ``s0`` (the sub-interval is drawn from the
    piece fractions), actions are drawn from the piece's strategies, and
    transitions from the game's per-cell masses. Every draw is a
    guide-table inverse-CDF lookup (``_inverse_cdf``) on the cumulative
    tables, built once per call; it returns the index of the comparison
    rule ``(u[:, None] > cum[rows]).sum(1)`` exactly. The horizon is
    either given (at least 1) or derived so the discarded tail is below
    ``truncation`` times the payoff bound scale. Paths are simulated in
    fixed-size blocks, each driven by a counter-based generator keyed on
    (seed, block) that yields ``players + 2`` uniforms per path and step,
    so identical seeds reproduce the report bit for bit regardless of the
    thread count (``SMPE_THREADS``). The strategies are checked as
    :func:`deviation_residual` checks them.
    """
    pieces = _pieces_of(result, spec)
    _check_strategies(pieces, spec)
    if paths < 1:
        raise InvalidInput("need at least one path")
    if horizon is not None and horizon < 1:
        raise InvalidInput(f"horizon must be at least 1, got {horizon}")
    if not (0 <= s0 < spec.n_states):
        raise InvalidInput(f"initial state {s0} out of range")
    beta_max = float(spec.discounts.max())
    bound = spec.payoff_bound
    if horizon is None:
        if truncation is None:
            raise InvalidInput("provide a horizon or a truncation error")
        if truncation <= 0:
            raise InvalidInput("truncation must be positive")
        if beta_max == 0.0 or truncation >= bound:
            horizon = 1
        else:
            horizon = max(1, math.ceil(math.log(truncation / bound) / math.log(beta_max)))
    elif truncation is not None and beta_max**horizon * bound > truncation * (1 + 1e-12):
        raise InvalidInput(
            f"horizon {horizon} leaves a tail above the requested truncation {truncation:g}"
        )
    truncation_bound = beta_max**horizon * bound

    max_pieces = max(len(result.values.pieces[k]) for k in range(spec.n_states))
    piece_cum = np.ones((spec.n_states, max_pieces))
    piece_base = np.zeros(spec.n_states, dtype=int)
    for idx, (k, p, frac, _v, _s) in enumerate(pieces):
        if p == 0:
            piece_base[k] = idx
    for k in range(spec.n_states):
        fracs = [float(pc.fraction) for pc in result.values.pieces[k]]
        cum = np.cumsum(fracs)
        cum[-1] = 1.0
        piece_cum[k, : len(fracs)] = cum
    draw_piece = _inverse_cdf(piece_cum)

    draw_action = []
    for i in range(spec.players):
        probs = np.array([strat[i] for (_k, _p, _f, _v, strat) in pieces])
        totals = probs.sum(axis=1)
        rows = np.cumsum(probs / totals[:, None], axis=1)
        rows[:, -1] = 1.0
        draw_action.append(_inverse_cdf(rows))

    trans = spec.transition_masses()  # (target, state, profile)
    trans_rows = trans.transpose(1, 2, 0).reshape(-1, spec.n_states)  # (s*x, target)
    trans_cum = np.cumsum(trans_rows, axis=1)
    trans_cum /= trans_cum[:, -1:]
    draw_next = _inverse_cdf(trans_cum)
    strides = np.array(
        [int(np.prod(spec.profile_shape[i + 1 :])) for i in range(spec.players)], dtype=int
    )
    weights = np.array(
        [(1.0 - b) * b ** np.arange(horizon) for b in spec.discounts]
    )  # (m, horizon)
    payoff_flat = spec.payoffs.reshape(spec.players, -1)

    n_chunks = (paths + CHUNK_PATHS - 1) // CHUNK_PATHS

    def run_chunk(chunk_idx):
        n = min(CHUNK_PATHS, paths - chunk_idx * CHUNK_PATHS)
        rng = np.random.Generator(
            np.random.Philox(key=np.array([seed % 2**64, chunk_idx], dtype=np.uint64))
        )
        states = np.full(n, s0, dtype=int)
        acc = np.zeros((spec.players, n))
        visits = np.zeros(spec.n_states)
        for t in range(horizon):
            # rows: piece, one per player's action, next state
            u = rng.random((spec.players + 2, n))
            pid = piece_base[states] + draw_piece(states, u[0])
            row = states * spec.n_profiles  # (state, profile) row of the tables
            for i in range(spec.players):
                row += draw_action[i](pid, u[i + 1]) * strides[i]
            acc += weights[:, t, None] * np.take(payoff_flat, row, axis=1)
            states = draw_next(row, u[-1])
            if t + 1 < horizon:
                visits += np.bincount(states, minlength=spec.n_states)
        return acc.sum(axis=1), (acc**2).sum(axis=1), visits, n

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

    total = np.zeros(spec.players)
    total_sq = np.zeros(spec.players)
    visits = np.zeros(spec.n_states)
    for part_sum, part_sq, part_visits, _n in results:
        total += part_sum
        total_sq += part_sq
        visits += part_visits
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
