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
profile (one masked argmin) and the result read them, and no StageGame
or NashPoint is built. What the loop reads that no iterate changes (each
signature stack's gather index into the stage-payoff table and its
profile columns, the atoms' payoff and kernel rows, feasibility masks and
discount scales, the policy evaluation's index arrays) is built once per
game and kept on the spec, so an iteration runs only the arithmetic that
depends on the continuation moments, the atom values and strategies and
the cell values. The result's pieces are the last projection's
weights on actual stage equilibria, and the result is certified by the
independent verifier; the reported slack is its number, never less.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InvalidInput, NoConvergence, PreconditionFailed, ValidationError
from .game import StochasticGameSpec, validate_game
from .hull import project_to_hull
from .measure import SplitSelection, hold, is_integer, is_real
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
from .measure import purify_selection  # noqa: F401  perfbench's TARGETS name these three here
from .nash import build_stage_game, nash_enumerate  # noqa: F401

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
    strategies: matching selection (the same offsets and fractions) of
        mixed profiles, flattened as the concatenation of per-player
        global-action probability vectors.
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
    offsets = _layout(spec).offsets
    f2 = np.asarray(f2, dtype=float)
    if f2.shape != (spec.n_atoms, offsets[-1]):
        raise InvalidInput("atom strategies must be (atoms, sum of action counts)")
    flat = table.reshape(spec.players, -1)
    new = np.empty((spec.players, spec.n_atoms))
    for group in _signature_groups(spec, spec.space.atom_indices):
        stack = np.take(flat, group.gather, axis=1)
        local = [f2[group.members][:, offsets[i] + a] for i, a in enumerate(group.actions)]
        for i in range(spec.players):
            new[i, group.members] = payoff_against_stack(stack, i, local).max(axis=1)
    return new


class _Group(NamedTuple):
    """The states among some ``states`` that share one feasible-action
    signature: ``actions[i]`` is player i's feasible global action ids,
    ``members`` the states' positions in ``states``, ``gather`` (members,
    k_1, ..., k_m) the flat indices of their stage games in the
    stage-payoff table's (m, n_states * n_profiles) view, ``columns`` the
    result-profile columns of their concatenated local strategies, and
    ``exact`` whether their stack is enumerated, else run by regret
    matching."""

    actions: tuple
    members: np.ndarray
    gather: np.ndarray
    columns: np.ndarray
    exact: bool


def _signature_groups(spec, states) -> tuple:
    """Split ``states`` by feasible-action signature, in order of first
    appearance, into read-only :class:`_Group` records."""
    masks = np.concatenate([feas[states] for feas in spec.feasible], axis=1)
    members = {}
    for pos, row in enumerate(masks):
        members.setdefault(row.tobytes(), []).append(pos)
    offsets = np.cumsum([0] + [len(a) for a in spec.actions])
    groups = []
    for group in members.values():
        key = masks[group[0]]
        actions = tuple(np.flatnonzero(key[lo:hi]) for lo, hi in zip(offsets, offsets[1:]))
        if any(len(a) == 0 for a in actions):
            raise InvalidInput(f"state {states[group[0]]} has an empty feasible set")
        profiles = np.ravel_multi_index(np.ix_(*actions), spec.profile_shape)  # (k_1, ..., k_m)
        gather = np.asarray(states)[group].reshape((-1,) + (1,) * spec.players)
        gather = gather * spec.n_profiles + profiles
        exact = enumeration_mode(profiles.shape) == "exact"
        groups.append(_Group(actions, np.array(group), gather, np.flatnonzero(key), exact))
    return _read_only(tuple(groups))


def _read_only(value):
    """``value``, with every array in it or in its nested tuples made read-only."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, tuple):
        for item in value:
            _read_only(item)
    return value


class _Layout(NamedTuple):
    """What a game's outer loop reads that no iterate changes, all
    read-only: ``offsets`` (m + 1,) and ``blocks``, the player blocks of a
    result profile as offsets and as slices; ``groups``, every state's
    signature stacks, and ``cell_groups``, their divisible cells, which
    ``_finalize`` enumerates; and the atom MDP of :func:`_atom_mdp` at n
    atoms: ``atom_q``, the atoms' columns of the kernel's coarse-cell
    tables, ``atom_base``, (1 - beta) times their stage payoffs,
    ``atom_stack`` (m, n, n + 1, n_profiles), each atom's kernel rows after
    a zero row for its payoffs, ``atom_feasible`` (n, sum of action counts),
    ``atom_scale``, per player beta_i times its feasible mask,
    ``atom_reward`` (m, n, max k_i) all -inf, and ``identity``, ``players``
    and ``atoms``, a policy evaluation's index arrays."""

    offsets: np.ndarray
    blocks: tuple
    groups: tuple
    cell_groups: tuple
    atom_q: np.ndarray
    atom_base: np.ndarray
    atom_stack: np.ndarray
    atom_feasible: np.ndarray
    atom_scale: tuple
    atom_reward: np.ndarray
    identity: np.ndarray
    players: np.ndarray
    atoms: np.ndarray


def _layout(spec) -> _Layout:
    """``spec``'s loop layout, built on first use and kept on the spec. The
    spec's arrays are read-only, so the layout cannot go stale, and a spec
    made by ``dataclasses.replace`` or ``sunspot_extend`` builds its own."""
    layout = spec.__dict__.get("_loop_layout")
    if layout is None:
        layout = _build_layout(spec)
        hold(spec, _loop_layout=layout)
    return layout


def _build_layout(spec) -> _Layout:
    atoms, m, n = spec.space.atom_indices, spec.players, spec.n_atoms
    offsets = np.cumsum([0] + [len(a) for a in spec.actions])
    blocks = tuple(slice(lo, hi) for lo, hi in zip(offsets[:-1].tolist(), offsets[1:].tolist()))
    groups = _signature_groups(spec, np.arange(spec.n_states))
    divisible = spec.space.divisible
    cell_groups = tuple(
        g._replace(members=g.members[keep], gather=g.gather[keep])
        for g in groups
        if (keep := divisible[g.members]).any()
    )
    stack = np.zeros((m, n, n + 1, spec.n_profiles))
    stack[:, :, 1:] = np.swapaxes(spec.atom_kernel[:, atoms], 0, 1)  # (atom, target, profile)
    feasible = np.concatenate([feas[atoms] for feas in spec.feasible], axis=1)
    beta = spec.discounts[:, None, None]
    layout = _Layout(
        offsets=offsets,
        blocks=blocks,
        groups=groups,
        cell_groups=cell_groups,
        atom_q=spec.kernel.q[:, :, atoms],
        atom_base=(1.0 - beta) * spec.payoffs[:, atoms],
        atom_stack=stack,
        atom_feasible=feasible,
        atom_scale=tuple(b * feasible[:, block, None] for b, block in zip(spec.discounts, blocks)),
        atom_reward=np.full((m, n, max(len(a) for a in spec.actions)), -np.inf),
        identity=np.eye(n),
        players=np.arange(m)[:, None],
        atoms=np.arange(n),
    )
    return _read_only(layout)


def _stage_equilibria(n, groups, spec, table):
    """Stage equilibria of the ``n`` states that the signature ``groups``
    cover, under ``table``, as padded arrays: counts (n,), payoffs (n, S, m)
    and profiles (n, S, sum of action counts) laid out as result
    strategies, zeros past each count, and S >= 1 even with no ``groups``.
    Each group is one stack, gathered from ``table``, enumerated exactly
    inside the envelope and by regret matching beyond it, where the first
    missing state raises :class:`NoConvergence`."""
    flat = table.reshape(spec.players, -1)
    parts = []
    for group in groups:
        stack = np.take(flat, group.gather, axis=1)
        if group.exact:
            parts.append(nash_enumerate_stack(stack))
            continue
        arrays, _, _, misses = regret_matching(stack)
        if misses:
            raise NoConvergence(misses[0])
        parts.append(arrays)
    width = max((values.shape[1] for _, _, values in parts), default=1)
    counts = np.zeros(n, int)
    payoffs = np.zeros((n, width, spec.players))
    profiles = np.zeros((n, width, _layout(spec).offsets[-1]))
    for group, (n_eq, strategies, values) in zip(groups, parts):
        slots = np.arange(values.shape[1])[:, None]
        counts[group.members] = n_eq
        payoffs[group.members, : len(slots)] = values
        local = np.concatenate(strategies, axis=-1)
        profiles[group.members[:, None, None], slots, group.columns] = local
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
    layout = _layout(spec)
    reward, transition = _atom_mdp(f2, c, spec, layout)
    v2 = np.asarray(v2_init, dtype=float)
    policy = (reward + np.einsum("iskt,it->isk", transition, v2)).argmax(axis=2)
    for evaluations in itertools.count(1):
        chosen = (layout.players, layout.atoms, policy)
        v2 = np.linalg.solve(layout.identity - transition[chosen], reward[chosen][..., None])[..., 0]
        values = reward + np.einsum("iskt,it->isk", transition, v2)
        current = values[chosen]
        switch = values.max(axis=2) - current > SWITCH_TOL * np.maximum(1.0, np.abs(current))
        if not switch.any():
            return v2, evaluations
        policy = np.where(switch, values.argmax(axis=2), policy)


def _atom_mdp(f2, c, spec, layout):
    """Each player's affine Bellman form on the atoms at fixed ``f2`` and
    ``c``, by global action: rewards (m, n_atoms, k) and transitions (m,
    n_atoms, k, n_atoms), so the atom operator is max_a reward[i, s, a] +
    transition[i, s, a] @ v2[i]. Each atom's payoff row and kernel rows
    (``layout.atom_stack``) are contracted over the whole profile grid
    against the others' strategies masked to feasible actions; infeasible
    actions get reward -inf and no transition mass."""
    m, n = spec.players, spec.n_atoms
    stack = layout.atom_stack.copy()
    cont_q = np.einsum("jesx,ije->isx", layout.atom_q, c.c)
    stack[:, :, 0] = layout.atom_base + spec.discounts[:, None, None] * cont_q
    stack = stack.reshape((m, n * (n + 1)) + spec.profile_shape)
    masked = np.where(layout.atom_feasible, f2, 0.0).repeat(n + 1, axis=0)
    local = [masked[:, block] for block in layout.blocks]
    reward = layout.atom_reward.copy()
    transition = np.zeros(reward.shape + (n,))
    for i, (block, scale) in enumerate(zip(layout.blocks, layout.atom_scale)):
        k = block.stop - block.start
        out = payoff_against_stack(stack, i, local).reshape(n, n + 1, k)
        reward[i, :, :k] = np.where(layout.atom_feasible[:, block], out[:, 0], -np.inf)
        transition[i, :, :k] = out[:, 1:].swapaxes(1, 2) * scale
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
    return profiles[atoms, gaps.argmin(axis=1)]


def _stage_step(c, v2, spec, groups, cell_values):
    """The stage-payoff table, the arrays ``(counts, payoffs, profiles)``
    of :func:`_stage_equilibria` for the signature ``groups`` from one
    enumeration, the target values and their (N, S) hull weights: each
    divisible cell k projected onto the hull of ``payoffs[k, :counts[k]]``,
    one projection per equilibrium count, the atoms at ``v2``; a lone
    equilibrium and every atom weigh 1 on slot 0."""
    table = stage_payoff_tensor(c, v2, spec)
    stage = _stage_equilibria(spec.n_states, groups, spec, table)
    counts, payoffs, _ = stage
    targets = cell_values.copy()
    weights = np.zeros(payoffs.shape[:2])
    weights[:, 0] = 1.0
    cells = spec.space.divisible_indices
    cell_counts = counts[cells]
    for count in np.flatnonzero(np.bincount(cell_counts)):  # the distinct counts, ascending
        ks = cells[cell_counts == count]
        if count == 1:
            targets[ks] = payoffs[ks, 0]
        else:
            targets[ks], weights[ks, :count] = project_to_hull(cell_values[ks], payoffs[ks, :count])
    targets[spec.space.atom_indices] = v2.T
    return table, stage, targets, weights


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
    for name, ok, rule in (
        ("tol", is_real(opts.tol) and 0 < opts.tol < np.inf, "finite and > 0"),
        ("max_iter", is_integer(opts.max_iter) and opts.max_iter >= 1, "an integer >= 1"),
        ("damping", is_real(opts.damping) and 0 < opts.damping <= 1, "in (0, 1]"),
        ("restarts", is_integer(opts.restarts) and opts.restarts >= 0, "an integer >= 0"),
        ("seed", is_integer(opts.seed) and 0 <= opts.seed < 2**64, "an integer in [0, 2**64)"),
        ("eps_target", is_real(opts.eps_target) and opts.eps_target > 0, "> 0"),
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

    best = None
    for restart in range(opts.restarts + 1):
        state = _initial_state(spec, opts, restart)
        try:
            converged = _outer_loop(spec, opts, state)
            result = _finalize(spec, opts, state, restart, converged)
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


def _outer_loop(spec, opts, state: SolverState) -> bool:
    atoms = spec.space.atom_indices
    groups = _layout(spec).groups
    for t in range(opts.max_iter):
        c = aggregate_moments(state.cell_values, spec)
        v2_new, _ = atom_fixed_point(state.f2, c, spec, state.v2)
        v2_change = float(np.abs(v2_new - state.v2).max(initial=0.0))
        state.v2 = v2_new
        _, stage, targets, _ = _stage_step(c, state.v2, spec, groups, state.cell_values)
        f2_new = _atom_strategies(state.v2, spec, stage)
        f2_change = float(np.abs(state.f2 - f2_new).max(initial=0.0))
        state.f2 = f2_new
        value_change = float(np.abs(targets - state.cell_values).max())
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


def _finalize(spec, opts, state: SolverState, restart, converged) -> EquilibriumResult:
    """Purify the converged convexified values and attach strategies: one
    piece per nonzero hull weight of the last stage step, in (cell, slot)
    order, carrying that slot's stage equilibrium payoff and profile; each
    atom carries one piece, ``v2`` and ``f2``. Values and strategies share
    one ``start`` and one ``fraction`` array."""
    c = aggregate_moments(state.cell_values, spec)
    # the atoms keep state.f2, so only the divisible cells are enumerated
    cell_groups = _layout(spec).cell_groups
    table, stage, state.cell_values, weights = _stage_step(
        c, state.v2, spec, cell_groups, state.cell_values
    )
    flat = table.reshape(spec.players, -1)
    degenerate = sum(
        int(degenerate_games(np.take(flat, group.gather, axis=1)).sum()) for group in cell_groups
    )
    counts, payoffs, profiles = stage
    atoms = spec.space.atom_indices
    payoffs[atoms, 0], profiles[atoms, 0] = state.v2.T, state.f2
    keep = weights > 0  # row-major: (cell, slot) order
    start, fraction = np.cumsum(np.concatenate([[0], keep.sum(axis=1)])), weights[keep]
    values, strategies = (SplitSelection(start, fraction, of[keep]) for of in (payoffs, profiles))
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
        values=values, strategies=strategies, epsilon=float("nan"), diagnostics=diagnostics
    )
