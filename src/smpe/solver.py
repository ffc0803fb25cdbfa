"""Stationary equilibrium computation by damped fixed-point iteration.

The solver alternates three blocks until the coupled data stop moving:
(a) on the atomic cells, solve each player's Bellman equation against the
others' atom strategies (a finite discounted MDP) by policy iteration and
refresh the atom strategy profile with the stage equilibrium that
reproduces the atom values; (b) on each divisible cell, enumerate the
stage equilibria under the current continuation data and pick the point
of their convex hull closest to the previous per-cell value; (c) fold
the chosen values back into continuation moments with damping. One
stage step per outer iteration solves the stage games of the
stage-payoff table as one stack per feasible-action signature (exact
enumeration inside the envelope, regret matching beyond it, for any
player count) into padded arrays of counts, payoffs and global
profiles; the hull projection (one per equilibrium count), the atom
profile (one masked argmin) and purification read them, and no
StageGame or NashPoint is built. The purified pieces carry
actual stage equilibria, and the result is certified by the independent
verifier; the reported slack is the verifier's number, never less.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import InvalidInput, NoConvergence, PreconditionFailed, ValidationError
from .game import StochasticGameSpec, validate_game
from .hull import project_to_hull
from .measure import CandidateField, Piece, SplitSelection, StepFunction, purify_selection
from .nash import (
    AggregateVector,
    aggregate_moments,
    degenerate_games,
    enumeration_mode,
    nash_enumerate_stack,
    payoff_against_stack,
    regret_matching,
    stage_payoff_tensor,
)
from .nash import build_stage_game, nash_enumerate  # noqa: F401  perfbench's TARGETS name them here

SWITCH_TOL = 1e-12  # least gain, relative to max(1, |value|), that switches an atom's action


@dataclass(frozen=True)
class SolveOptions:
    """Solver knobs: outer tolerance, iteration caps, damping floor,
    restart budget, RNG seed, and the target certified slack.

    The atom fixed point is exact up to ``SWITCH_TOL``; stage games are
    enumerated in the mode :func:`~smpe.nash.enumeration_mode` picks.
    The numbers are real, ``tol`` finite, and ``max_iter``, ``restarts``
    and ``seed`` integers, not bool. The options and the game are
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
    """Mutable loop state: atom values, atom strategies (one global profile
    per atom), per-cell values, iteration counter, residual history."""

    v2: np.ndarray
    f2: np.ndarray
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
    atom strategies, read off the stage-payoff table one signature stack
    at a time, so it is bit-equal to the atoms' own stage games. A
    sup-norm contraction with modulus equal to the largest discount
    factor, and the independent Bellman check of :func:`atom_fixed_point`.
    ``f2`` is (n_atoms, sum of action counts), laid out as result
    strategies; :func:`stage_payoff_tensor` checks ``c`` and ``v2``.
    """
    table = stage_payoff_tensor(c, v2, spec)
    f2 = np.asarray(f2, dtype=float)
    if f2.shape != (spec.n_atoms, sum(len(a) for a in spec.actions)):
        raise InvalidInput("atom strategies must be (atoms, sum of action counts)")
    atoms = spec.space.atom_indices
    offsets = np.cumsum([0] + [len(a) for a in spec.actions])  # player blocks of a profile
    new = np.empty((spec.players, len(atoms)))
    for actions, members in _signature_groups(spec, atoms):
        stack = _stage_stack(table, spec, atoms[members], actions)
        local = [f2[members][:, offsets[i] + actions[i]] for i in range(spec.players)]
        for i in range(spec.players):
            new[i, members] = payoff_against_stack(stack, i, local).max(axis=1)
    return new


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


def _stage_equilibria(states, groups, spec, table):
    """Stage equilibria at the positions of ``states`` under ``table``, as
    padded arrays: counts (N,), payoffs (N, S, m) and profiles (N, S, sum
    of action counts) laid out as result strategies, zeros past each
    count. ``groups`` is ``_signature_groups(spec, states)``; each is one
    stack, enumerated exactly inside the envelope and by regret matching
    beyond it, where the first missing state raises :class:`NoConvergence`."""
    parts = []
    for actions, members in groups:
        stack = _stage_stack(table, spec, states[members], actions)
        if enumeration_mode(stack.shape[2:]) == "exact":
            parts.append(nash_enumerate_stack(stack))
            continue
        arrays, _, _, misses = regret_matching(stack)
        if misses:
            raise NoConvergence(misses[0])
        parts.append(arrays)
    width = max((values.shape[1] for _, _, values in parts), default=0)
    offsets = np.cumsum([0] + [len(a) for a in spec.actions])  # player blocks of a profile
    counts = np.zeros(len(states), int)
    payoffs = np.zeros((len(states), width, spec.players))
    profiles = np.zeros((len(states), width, offsets[-1]))
    for (actions, members), (n_eq, strategies, values) in zip(groups, parts):
        slots = np.arange(values.shape[1])[:, None]
        counts[members] = n_eq
        payoffs[members, : len(slots)] = values
        for i, strategy in enumerate(strategies):
            profiles[members[:, None, None], slots, offsets[i] + actions[i]] = strategy
    return counts, payoffs, profiles


def atom_fixed_point(f2, c, spec, v2_init):
    """Solve the atoms' Bellman equation by Howard's policy iteration;
    returns (v2, evaluations). With ``f2`` and ``c`` fixed, each player's
    atom problem is a finite discounted MDP. From the greedy policy at
    ``v2_init``, each evaluation is one linear solve batched over the
    players; an atom's action switches only on a gain above ``SWITCH_TOL``
    * max(1, |value|), so ties never switch, and the loop stops when none
    does.
    """
    if spec.n_atoms == 0:
        return np.zeros((spec.players, 0)), 0
    reward, transition = _atom_mdp(f2, c, spec)
    players = np.arange(spec.players)[:, None]
    atoms = np.arange(spec.n_atoms)
    v2 = np.asarray(v2_init, dtype=float)
    policy = np.argmax(reward + np.einsum("iskt,it->isk", transition, v2), axis=2)
    identity = np.eye(spec.n_atoms)
    for evaluations in itertools.count(1):
        chosen = (players, atoms, policy)
        v2 = np.linalg.solve(identity - transition[chosen], reward[chosen][..., None])[..., 0]
        values = reward + np.einsum("iskt,it->isk", transition, v2)
        current = values[chosen]
        switch = values.max(axis=2) - current > SWITCH_TOL * np.maximum(1.0, np.abs(current))
        if not switch.any():
            return v2, evaluations
        policy = np.where(switch, np.argmax(values, axis=2), policy)


def _atom_mdp(f2, c, spec):
    """Each player's affine Bellman form on the atoms at fixed ``f2`` and
    ``c``, by global action: rewards (m, n_atoms, k) and transitions (m,
    n_atoms, k, n_atoms), so the atom operator is max_a reward[i, s, a] +
    transition[i, s, a] @ v2[i]. Each atom's payoff row and kernel rows are
    contracted over the whole profile grid against the others' strategies
    masked to feasible actions; infeasible actions get reward -inf and no
    transition mass."""
    atoms = spec.space.atom_indices
    m, n = spec.players, len(atoms)
    beta = spec.discounts[:, None, None]
    offsets = np.cumsum([0] + [len(a) for a in spec.actions])  # player blocks of a profile
    feasible = np.concatenate([feas[atoms] for feas in spec.feasible], axis=1)
    cont_q = np.einsum("jesx,ije->isx", spec.kernel.q[:, :, atoms], c.c)
    table = (1.0 - beta) * spec.payoffs[:, atoms] + beta * cont_q
    kernel = np.swapaxes(spec.atom_kernel[:, atoms], 0, 1)  # (atom, target, profile)
    kernel = np.broadcast_to(kernel, (m,) + kernel.shape)
    stack = np.concatenate([table[:, :, None], kernel], axis=2)
    stack = stack.reshape((m, n * (n + 1)) + spec.profile_shape)
    local = np.split(np.repeat(np.where(feasible, f2, 0.0), n + 1, axis=0), offsets[1:-1], axis=1)
    reward = np.full((m, n, max(len(a) for a in spec.actions)), -np.inf)
    transition = np.zeros(reward.shape + (n,))
    for i in range(m):
        own = feasible[:, offsets[i] : offsets[i + 1]]
        out = payoff_against_stack(stack, i, local).reshape(n, n + 1, -1)
        reward[i, :, : own.shape[1]] = np.where(own, out[:, 0], -np.inf)
        moved = np.swapaxes(out[:, 1:], 1, 2)
        transition[i, :, : own.shape[1]] = moved * (spec.discounts[i] * own[..., None])
    return reward, transition


def _atom_strategies(v2, spec, stage):
    """Global profiles (n_atoms, sum of action counts), one stage
    equilibrium per atomic cell from the stage step's arrays ``stage``.

    At a fixed point the selected profile must reproduce the atom's
    optimal values, so the equilibrium whose payoff vector is closest to
    the current values wins: one argmin, padded slots set to ``inf`` after
    the gaps are taken, so exact ties go to the lexicographically first
    point. Blind lexicographic choice can flip between two equilibria
    forever when their payoff order depends on the values they induce.
    """
    counts, payoffs, profiles = stage
    atoms = spec.space.atom_indices
    gaps = np.abs(payoffs[atoms] - v2.T[:, None]).max(axis=2)
    gaps[np.arange(gaps.shape[1]) >= counts[atoms, None]] = np.inf
    return profiles[atoms, np.argmin(gaps, axis=1)]


def _stage_step(c, v2, spec, groups, cell_values):
    """The stage-payoff table, the arrays ``(counts, payoffs, profiles)``
    of :func:`_stage_equilibria` for the signature ``groups`` from one
    enumeration, and the target values: each divisible cell k projected
    onto the hull of ``payoffs[k, :counts[k]]``, one projection per
    equilibrium count (a single point is a gather), the atoms at ``v2``."""
    table = stage_payoff_tensor(c, v2, spec)
    stage = _stage_equilibria(np.arange(spec.n_states), groups, spec, table)
    counts, payoffs, _ = stage
    targets = cell_values.copy()
    cells = spec.space.divisible_indices
    for count in np.unique(counts[cells]):
        ks = cells[counts[cells] == count]
        if count == 1:
            targets[ks] = payoffs[ks, 0]
        else:
            targets[ks], _ = project_to_hull(cell_values[ks], payoffs[ks, :count])
    targets[spec.space.atom_indices] = v2.T
    return table, stage, targets


def solve(spec: StochasticGameSpec, opts: SolveOptions = SolveOptions()) -> EquilibriumResult:
    """Compute a certified stationary equilibrium of ``spec``.

    Requires a valid game whose decomposed kernel charges divisible
    cells only. Runs up to ``opts.restarts`` extra attempts from
    seed-perturbed starting values and returns as soon as the certified
    slack reaches ``opts.eps_target``; otherwise raises
    :class:`NoConvergence` carrying the best certified result. A stage
    game that regret matching cannot solve ends the solve at once; its
    :class:`NoConvergence` carries the best result certified before it,
    or None. Out-of-range options raise :class:`InvalidInput`.
    """
    def integer(x):
        return isinstance(x, (int, np.integer)) and not isinstance(x, bool)

    def real(x):
        return integer(x) or isinstance(x, (float, np.floating))

    for name, ok, rule in (
        ("tol", real(opts.tol) and 0 < opts.tol < np.inf, "finite and > 0"),
        ("max_iter", integer(opts.max_iter) and opts.max_iter >= 1, "an integer >= 1"),
        ("damping", real(opts.damping) and 0 < opts.damping <= 1, "in (0, 1]"),
        ("restarts", integer(opts.restarts) and opts.restarts >= 0, "an integer >= 0"),
        ("seed", integer(opts.seed) and 0 <= opts.seed < 2**64, "an integer in [0, 2**64)"),
        ("eps_target", real(opts.eps_target) and opts.eps_target > 0, "> 0"),
    ):
        if not ok:
            raise InvalidInput(f"solver option {name} must be {rule}, got {getattr(opts, name)!r}")
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
    groups = _signature_groups(spec, np.arange(spec.n_states))
    best = None
    for restart in range(opts.restarts + 1):
        state = _initial_state(spec, opts, restart)
        try:
            converged = _outer_loop(spec, opts, state, groups)
            result = _finalize(spec, opts, state, restart, converged, groups)
        except NoConvergence as exc:  # regret matching missed on a stage game
            raise NoConvergence(
                f"attempt {restart + 1}: {exc}",
                result=best,
                epsilon=None if best is None else best.epsilon,
            ) from None
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
    atoms = spec.space.atom_indices
    f2 = np.concatenate(
        [feas[atoms] / feas[atoms].sum(axis=1, keepdims=True) for feas in spec.feasible], axis=1
    )
    return SolverState(v2=v2, f2=f2, cell_values=cell_values)


def _outer_loop(spec, opts, state: SolverState, groups) -> bool:
    atoms = spec.space.atom_indices
    for t in range(opts.max_iter):
        c = aggregate_moments(state.cell_values, spec)
        v2_new, _ = atom_fixed_point(state.f2, c, spec, state.v2)
        v2_change = float(np.max(np.abs(v2_new - state.v2), initial=0.0))
        state.v2 = v2_new
        _, stage, targets = _stage_step(c, state.v2, spec, groups, state.cell_values)
        f2_new = _atom_strategies(state.v2, spec, stage)
        f2_change = float(np.max(np.abs(state.f2 - f2_new), initial=0.0))
        state.f2 = f2_new
        value_change = float(np.max(np.abs(targets - state.cell_values)))
        residual = max(value_change, v2_change, f2_change)
        state.residuals.append(residual)
        state.iteration = t + 1
        if residual <= opts.tol:
            state.cell_values = targets
            return True
        gamma = max(opts.damping, 1.0 / (t + 2.0))
        state.cell_values = state.cell_values + gamma * (targets - state.cell_values)
        state.cell_values[atoms] = state.v2.T
    return False


def _finalize(spec, opts, state: SolverState, restart, converged, groups) -> EquilibriumResult:
    """Purify the converged convexified values and attach strategies."""
    c = aggregate_moments(state.cell_values, spec)
    # the atoms keep state.f2, so only the divisible cells are enumerated
    divisible = spec.space.divisible
    cell_groups = [(a, m[divisible[m]]) for a, m in groups if divisible[m].any()]
    table, stage, state.cell_values = _stage_step(c, state.v2, spec, cell_groups, state.cell_values)
    degenerate = sum(
        int(degenerate_games(_stage_stack(table, spec, members, actions)).sum())
        for actions, members in cell_groups
    )
    # per cell, the candidate payoff vectors and their global profiles
    counts, payoffs, profiles = stage
    candidate_sets = [payoffs[k, :count] for k, count in enumerate(counts)]
    profile_sets = [profiles[k, :count] for k, count in enumerate(counts)]
    for a_idx, k in enumerate(spec.space.atom_indices):
        candidate_sets[k] = state.cell_values[k].reshape(1, -1)
        profile_sets[k] = state.f2[a_idx : a_idx + 1]
    split = purify_selection(
        StepFunction.of(state.cell_values),
        CandidateField(tuple(candidate_sets)),
        spec.kernel.rho,
        spec.space,
    )
    strategies = SplitSelection(
        tuple(
            tuple(
                Piece(p.fraction, profile_sets[k][_candidate_index(candidate_sets[k], p.value)])
                for p in parts
            )
            for k, parts in enumerate(split.pieces)
        )
    )
    diagnostics = {
        "iterations": state.iteration,
        "restart": restart,
        "converged": bool(converged),
        "residuals": [float(r) for r in state.residuals[-10:]],
        "multi_equilibrium_cells": int((counts > 1).sum()),  # atoms count 0 here
        "degenerate_cells": degenerate,
        "options": asdict(opts),
    }
    return EquilibriumResult(
        values=split, strategies=strategies, epsilon=float("nan"), diagnostics=diagnostics
    )


def _candidate_index(candidates, value):
    dists = np.max(np.abs(candidates - np.asarray(value)[None, :]), axis=1)
    return int(np.argmin(dists))
