"""Stationary equilibrium computation by damped fixed-point iteration.

The solver alternates three blocks until the coupled data stop moving:
(a) on the atomic cells, iterate the per-atom optimal-value operator
(a sup-norm contraction with modulus max discount) to its fixed point
and refresh the atom strategy profile with the stage equilibrium that
reproduces the atom values; (b) on each divisible cell, enumerate the
stage equilibria under the current continuation data and pick the point
of their convex hull closest to the previous per-cell value; (c) fold
the chosen values back into continuation moments with damping. Stage
games are never built cell by cell: the cells that share a
feasible-action signature are sliced from the stage-payoff table as one
stack, two-player stacks are enumerated in one batched pass per support
pair, and the atom operator contracts a whole stack against the atom
profiles at once. The signature groups are formed once per solve, the
atom operator once per fixed point (only its atom channel moves between
contraction steps), and one stage-payoff table per outer iteration
serves the atom strategies and the divisible cells alike. A converged
convexified value is then purified into a piecewise-pure selection
whose pieces carry actual stage equilibria, and the result is certified
by the independent verifier; the reported slack is the verifier's
number, never less.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, NoConvergence, PreconditionFailed, ValidationError
from .game import StochasticGameSpec, validate_game
from .hull import project_to_hull
from .measure import CandidateField, Piece, SplitSelection, StepFunction, purify_selection
from .nash import (
    AggregateVector,
    aggregate_moments,
    build_stage_game,
    degenerate_games,
    enumeration_mode,
    nash_enumerate,
    nash_enumerate_stack,
    payoff_against_stack,
    stage_payoff_tensor,
)

INNER_TOL = 1e-10


@dataclass(frozen=True)
class SolveOptions:
    """Solver knobs: outer tolerance, iteration caps, damping floor,
    restart budget, RNG seed, and the target certified slack.

    The atom fixed point runs to ``INNER_TOL``; stage games are enumerated
    in the mode :func:`~smpe.nash.enumeration_mode` picks. The game is
    validated once, on entry to ``solve``, and the result's strategies
    where they enter the certificate, never inside the loop.
    """

    tol: float = 1e-9
    max_iter: int = 500
    damping: float = 0.5
    restarts: int = 3
    seed: int = 0
    eps_target: float = 1e-6


@dataclass
class SolverState:
    """Mutable loop state: atom values and strategies, per-cell values,
    iteration counter, and the residual history."""

    v2: np.ndarray
    f2: list
    cell_values: np.ndarray
    iteration: int = 0
    residuals: list = field(default_factory=list)


@dataclass(frozen=True)
class EquilibriumResult:
    """Certified stationary profile.

    values: per cell, a piecewise selection of payoff vectors (one piece
        per carried stage equilibrium; atoms carry a single piece).
    strategies: matching piecewise selection of mixed profiles, flattened
        as the concatenation of per-player global-action probability
        vectors.
    epsilon: the verifier's one-shot deviation slack for this result.
    diagnostics: iteration counts, restart index, residual trace and
        degeneracy flags.
    """

    values: SplitSelection
    strategies: SplitSelection
    epsilon: float
    diagnostics: dict


def atom_value_operator(
    f2, c: AggregateVector, v2: np.ndarray, spec: StochasticGameSpec
) -> np.ndarray:
    """One application of the per-atom optimal-value operator.

    For each player and atomic cell, the new value is the best payoff
    over the player's own feasible actions against the others' fixed
    atom strategies, with continuation folded in through the aggregates
    and current atom values. A sup-norm contraction with modulus equal
    to the largest discount factor. The shapes of ``c`` and ``v2`` are
    checked here; the step that ``atom_fixed_point`` iterates checks none.
    """
    v2 = np.asarray(v2, dtype=float)
    if c.c.shape != (spec.players, spec.kernel.n_components, spec.space.n_coarse):
        raise InvalidInput("aggregate dimensions do not match the game")
    if v2.shape != (spec.players, spec.n_atoms):
        raise InvalidInput(f"atom values must be {(spec.players, spec.n_atoms)}")
    atoms = spec.space.atom_indices
    return _atom_operator(f2, c, spec, _signature_groups(spec, atoms))(v2)


def _atom_operator(f2, c, spec, groups):
    """:func:`atom_value_operator` at fixed ``f2`` and ``c``, as a
    function of the atom values alone.

    Everything but the atom channel is computed here, once: the atom
    rows of the discounted stage payoffs and of the aggregate
    continuation, each signature group's slicing grid and its members'
    local strategies. A step then adds the atom continuation with the
    arithmetic of :func:`stage_payoff_tensor`, so it returns the same
    bits as slicing that full table would.
    """
    atoms = spec.space.atom_indices
    beta = spec.discounts[:, None, None]
    base = (1.0 - beta) * spec.payoffs[:, atoms]
    cont_q = np.einsum("jesx,ije->isx", spec.kernel.q[:, :, atoms], c.c)
    kernel = spec.atom_kernel[:, atoms]
    shape = (spec.players, len(atoms)) + spec.profile_shape
    blocks = []
    for actions, members in groups:
        grid = np.ix_(range(spec.players), members, *actions)
        local = [
            np.array([f2[a_idx][i] for a_idx in members], dtype=float)[:, actions[i]]
            for i in range(spec.players)
        ]
        blocks.append((members, grid, local))

    def step(v2):
        cont = cont_q + np.einsum("asx,ia->isx", kernel, v2)
        table = (base + beta * cont).reshape(shape)
        new = np.empty((spec.players, len(atoms)))
        for members, grid, local in blocks:
            stack = table[grid]
            for i in range(spec.players):
                new[i, members] = payoff_against_stack(stack, i, local).max(axis=1)
        return new

    return step


def _signature_groups(spec, states):
    """Split ``states`` by feasible-action signature: pairs (actions,
    members) with ``actions[i]`` player i's feasible global action ids
    and ``members`` the positions in ``states`` that share them."""
    masks = np.concatenate([feas[states] for feas in spec.feasible], axis=1)
    members = {}
    for pos, row in enumerate(masks):
        members.setdefault(row.tobytes(), []).append(pos)
    offsets = np.cumsum([0] + [len(a) for a in spec.actions])
    groups = []
    for group in members.values():
        key = masks[group[0]]
        actions = tuple(
            np.flatnonzero(key[offsets[i] : offsets[i + 1]]) for i in range(spec.players)
        )
        if any(len(a) == 0 for a in actions):
            raise InvalidInput(f"state {states[group[0]]} has an empty feasible set")
        groups.append((actions, np.array(group)))
    return groups


def _stage_stack(table, spec, states, actions):
    """Stage payoffs at ``states`` restricted to ``actions``, as one
    (m, len(states), k_1, ..., k_m) stack sliced from ``table``."""
    full = table[:, states].reshape((spec.players, len(states)) + spec.profile_shape)
    return full[np.ix_(range(spec.players), range(len(states)), *actions)]


def _stage_equilibria(states, groups, c, v2, spec, table):
    """Stage equilibria at each of ``states`` under the payoff ``table``,
    as (actions, points) pairs in the order of ``states``; ``groups`` is
    ``_signature_groups(spec, states)``. Two-player games inside the
    exact envelope are enumerated one stack per feasible-action
    signature; any other game on its own."""
    out = [None] * len(states)
    for actions, members in groups:
        shape = tuple(len(a) for a in actions)
        if spec.players == 2 and enumeration_mode(shape) == "exact":
            lists = nash_enumerate_stack(_stage_stack(table, spec, states[members], actions))
        else:
            lists = [
                nash_enumerate(build_stage_game(int(states[p]), c, v2, spec, payoff_table=table))
                for p in members
            ]
        for p, points in zip(members, lists):
            out[p] = (actions, points)
    return out


def _globalize(actions, point, n_actions):
    out = []
    for i, strat in enumerate(point.strategies):
        vec = np.zeros(n_actions[i])
        vec[actions[i]] = strat
        out.append(vec)
    return out


def atom_fixed_point(f2, c, spec, v2_init, tol=INNER_TOL, groups=None):
    """Iterate the atom operator to its fixed point; returns (v2, iterations).

    The operator is built once per call: ``f2`` and ``c`` stay fixed, so
    each step only recomputes the atom continuation channel. ``groups``
    may pass the atoms' signature groups to skip regrouping them.

    With contraction modulus beta the step size shrinks geometrically,
    so the loop is capped at ceil(log tol / log beta) + 1 beyond the
    payoff-bound scale.
    """
    beta = float(spec.discounts.max())
    if spec.n_atoms == 0:
        return np.zeros((spec.players, 0)), 0
    if beta == 0.0:
        cap = 1
    else:
        extra = max(0.0, math.log(max(spec.payoff_bound, 1.0)))
        cap = math.ceil((math.log(tol) - extra) / math.log(beta)) + 1
    if groups is None:
        groups = _signature_groups(spec, spec.space.atom_indices)
    operator = _atom_operator(f2, c, spec, groups)
    v2 = np.asarray(v2_init, dtype=float).copy()
    iterations = 0
    for _ in range(cap):
        new = operator(v2)
        iterations += 1
        delta = float(np.max(np.abs(new - v2))) if v2.size else 0.0
        v2 = new
        if delta <= tol:
            break
    return v2, iterations


def _atom_strategies(c, v2, spec, table, groups):
    """Stage equilibrium per atomic cell, chosen for value consistency.

    At a fixed point the selected profile must reproduce the atom's
    optimal values, so among the enumerated equilibria the one whose
    payoff vector is closest to the current values wins; exact ties go
    to the lexicographically first point. Blind lexicographic choice can
    flip between two equilibria forever when their payoff order depends
    on the very values they induce.
    """
    n_actions = [len(a) for a in spec.actions]
    profiles = []
    points = []
    stage = _stage_equilibria(spec.space.atom_indices, groups, c, v2, spec, table)
    for a_idx, (actions, eqs) in enumerate(stage):
        gaps = [float(np.max(np.abs(p.payoffs - v2[:, a_idx]))) for p in eqs]
        point = eqs[int(np.argmin(gaps))]
        profiles.append(_globalize(actions, point, n_actions))
        points.append(point)
    return profiles, points


def _profile_change(old, new):
    worst = 0.0
    for a, b in zip(old, new):
        for x, y in zip(a, b):
            worst = max(worst, float(np.max(np.abs(x - y))))
    return worst


def solve(spec: StochasticGameSpec, opts: SolveOptions = SolveOptions()) -> EquilibriumResult:
    """Compute a certified stationary equilibrium of ``spec``.

    Requires a valid game whose decomposed kernel charges divisible
    cells only. Runs up to ``opts.restarts`` extra attempts from
    seed-perturbed starting values and returns as soon as the certified
    slack reaches ``opts.eps_target``; otherwise raises
    :class:`NoConvergence` carrying the best certified result.
    """
    report = validate_game(spec)
    if not report.passed:
        raise ValidationError("game fails validation", report=report)
    if not report.no_g_atom:
        raise PreconditionFailed(
            "decomposed kernel charges an atomic cell: the divisible-part "
            "condition fails and purification is not available"
        )
    from .verify import deviation_residual  # local import to keep code paths separate

    # feasible-action signatures depend on the game alone
    cell_groups = _signature_groups(spec, spec.space.divisible_indices)
    atom_groups = _signature_groups(spec, spec.space.atom_indices)
    best = None
    for restart in range(opts.restarts + 1):
        state = _initial_state(spec, opts, restart)
        converged = _outer_loop(spec, opts, state, cell_groups, atom_groups)
        result = _finalize(spec, opts, state, restart, converged, cell_groups)
        cert = deviation_residual(result, spec)
        result = EquilibriumResult(
            values=result.values,
            strategies=result.strategies,
            epsilon=float(cert.epsilon),
            diagnostics={**result.diagnostics, "recursion_residual": float(cert.recursion_residual)},
        )
        if best is None or result.epsilon < best.epsilon:
            best = result
        if result.epsilon <= opts.eps_target:
            return best
    raise NoConvergence(
        f"no restart reached eps <= {opts.eps_target:g} "
        f"(best {best.epsilon:g} after {opts.restarts + 1} attempts)",
        result=best,
        epsilon=best.epsilon,
    )


def _initial_state(spec, opts, restart):
    cell_values = np.zeros((spec.n_states, spec.players))
    if restart > 0:
        rng = np.random.Generator(np.random.Philox(key=[opts.seed, restart]))
        cell_values = rng.uniform(
            -0.1 * spec.payoff_bound, 0.1 * spec.payoff_bound, size=cell_values.shape
        )
    v2 = np.zeros((spec.players, spec.n_atoms))
    f2 = []
    for state in spec.space.atom_indices:
        profile = []
        for i in range(spec.players):
            feas = spec.feasible[i][state]
            vec = feas.astype(float)
            profile.append(vec / vec.sum())
        f2.append(profile)
    return SolverState(v2=v2, f2=f2, cell_values=cell_values)


def _outer_loop(spec, opts, state: SolverState, cell_groups, atom_groups) -> bool:
    div_cells = spec.space.divisible_indices
    for t in range(opts.max_iter):
        c = aggregate_moments(state.cell_values, spec)
        f2_change = 0.0
        v2_change = 0.0
        if spec.n_atoms:
            v2_new, _ = atom_fixed_point(state.f2, c, spec, state.v2, groups=atom_groups)
            v2_change = float(np.max(np.abs(v2_new - state.v2)))
            state.v2 = v2_new
        # one table serves the atom strategies and the divisible cells
        table = stage_payoff_tensor(c, state.v2, spec)
        if spec.n_atoms:
            f2_new, _ = _atom_strategies(c, state.v2, spec, table, atom_groups)
            f2_change = _profile_change(state.f2, f2_new)
            state.f2 = f2_new
        targets = state.cell_values.copy()
        stage = _stage_equilibria(div_cells, cell_groups, c, state.v2, spec, table)
        for k, (_, points) in zip(div_cells, stage):
            payoff_matrix = np.array([p.payoffs for p in points])
            projected, _ = project_to_hull(state.cell_values[k], payoff_matrix)
            targets[k] = projected
        atoms = spec.space.atom_indices
        if len(atoms):
            targets[atoms] = state.v2.T
        value_change = float(np.max(np.abs(targets - state.cell_values)))
        residual = max(value_change, v2_change, f2_change)
        state.residuals.append(residual)
        state.iteration = t + 1
        if residual <= opts.tol:
            state.cell_values = targets
            return True
        gamma = max(opts.damping, 1.0 / (t + 2.0))
        state.cell_values = state.cell_values + gamma * (targets - state.cell_values)
        if len(atoms):
            state.cell_values[atoms] = state.v2.T
    return False


def _finalize(
    spec, opts, state: SolverState, restart, converged, cell_groups
) -> EquilibriumResult:
    """Purify the converged convexified values and attach strategies."""
    c = aggregate_moments(state.cell_values, spec)
    table = stage_payoff_tensor(c, state.v2, spec)
    n_actions = [len(a) for a in spec.actions]
    div_cells = spec.space.divisible_indices
    stage = iter(_stage_equilibria(div_cells, cell_groups, c, state.v2, spec, table))
    degenerate = sum(
        int(degenerate_games(_stage_stack(table, spec, div_cells[members], actions)).sum())
        for actions, members in cell_groups
    )
    candidate_sets = []
    point_lists = []
    multi_eq = 0
    atom_iter = iter(range(spec.n_atoms))
    for k in range(spec.n_states):
        if spec.space.divisible[k]:
            actions, points = next(stage)
            projected, _ = project_to_hull(
                state.cell_values[k], np.array([p.payoffs for p in points])
            )
            state.cell_values[k] = projected
            candidate_sets.append(np.array([p.payoffs for p in points]))
            point_lists.append([(actions, p) for p in points])
            if len(points) > 1:
                multi_eq += 1
        else:
            a_idx = next(atom_iter)
            candidate_sets.append(state.cell_values[k].reshape(1, -1))
            point_lists.append([(None, a_idx)])
    split = purify_selection(
        StepFunction.of(state.cell_values),
        CandidateField(tuple(candidate_sets)),
        spec.kernel.rho,
        spec.space,
    )
    value_pieces = []
    strategy_pieces = []
    for k in range(spec.n_states):
        v_parts = []
        s_parts = []
        for piece in split.pieces[k]:
            v_parts.append(piece)
            idx = _candidate_index(candidate_sets[k], piece.value)
            if spec.space.divisible[k]:
                actions, point = point_lists[k][idx]
                profile = _globalize(actions, point, n_actions)
            else:
                profile = state.f2[point_lists[k][0][1]]
            s_parts.append(Piece(piece.fraction, np.concatenate(profile)))
        value_pieces.append(tuple(v_parts))
        strategy_pieces.append(tuple(s_parts))
    values = SplitSelection(tuple(value_pieces))
    strategies = SplitSelection(tuple(strategy_pieces))
    diagnostics = {
        "iterations": state.iteration,
        "restart": restart,
        "converged": bool(converged),
        "residuals": [float(r) for r in state.residuals[-10:]],
        "multi_equilibrium_cells": multi_eq,
        "degenerate_cells": degenerate,
        "options": {
            "tol": opts.tol,
            "max_iter": opts.max_iter,
            "damping": opts.damping,
            "restarts": opts.restarts,
            "seed": opts.seed,
            "eps_target": opts.eps_target,
        },
    }
    return EquilibriumResult(
        values=values, strategies=strategies, epsilon=float("nan"), diagnostics=diagnostics
    )


def _candidate_index(candidates, value):
    dists = np.max(np.abs(candidates - np.asarray(value)[None, :]), axis=1)
    return int(np.argmin(dists))
