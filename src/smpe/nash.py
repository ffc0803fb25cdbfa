"""One-shot stage games and their mixed Nash equilibria.

Stage games fold continuation moments and atom values into the stage
payoffs. Every stage game is solved in a stack (m, n, k_1, ..., k_m) of
games sharing action counts, into padded arrays (counts, strategies,
payoffs); only the public :func:`nash_enumerate`, a stack of one, builds
:class:`NashPoint`s. Inside the exact envelope (one to three players, at
most four actions each), :func:`nash_enumerate_stack` enumerates
supports: two players' pure support pairs need no solve, the others one
batched solve per pair; three players run damped Newton game by game.
What depends on a stack's shape alone (the perturbation ramp, the pure
support candidates, each mixed support pair's index arrays and bordered
system) is built once per shape and cached read-only. One stacked check
verifies, dedupes and sorts the candidates on the (games, candidates)
arrays with the arithmetic of a single-profile check; the kept ones are
compared pairwise only when a game keeps two and some kept candidate
lacks a proof that it lies apart from those before it (one player's pure
actions have one, and so has a two-player candidate above ``DEDUPE_TOL``
on all of its own support pair). Beyond it, for any player count,
:func:`regret_matching` runs each game of the stack on its own until its
best slack meets the target or stalls. Payoffs are contracted against
mixed strategies by one einsum program per player count and player.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NoConvergence
from .game import StochasticGameSpec
from .measure import frozen_copy, hold

BR_TOL = 1e-10
DEDUPE_TOL = 1e-8
PERTURB_SCALE = 1e-12
EXACT_MAX_PLAYERS = 3
EXACT_MAX_ACTIONS = 4
# 250-step checks in a row without a better eps after which regret matching
# gives up; the averaged eps is not monotone, and in 107 converging runs on
# random 5x5 and 6x6 games the longest wait for a new best was 151 checks
STALL_CHECKS = 300

# einsum axis letters of a payoff tensor's players; "n" is the stack axis
_AXES = "abcdefghijklmopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


@dataclass(frozen=True)
class StageGame:
    """Finite normal-form game at one state.

    payoffs: per player, a tensor over the players' local feasible
        actions. actions: per player, the global action ids behind the
        local axes.
    """

    payoffs: tuple
    actions: tuple

    def __post_init__(self):
        payoffs = tuple(frozen_copy(p, "payoffs") for p in self.payoffs)
        actions = tuple(tuple(int(a) for a in acts) for acts in self.actions)
        m = len(payoffs)
        shape = tuple(len(a) for a in actions)
        if m == 0 or len(actions) != m:
            raise InvalidInput("payoffs and actions must cover the same players")
        if any(p.shape != shape for p in payoffs):
            raise InvalidInput(f"payoff tensors must have shape {shape}")
        hold(self, payoffs=payoffs, actions=actions)

    @property
    def m(self) -> int:
        return len(self.payoffs)

    @property
    def shape(self) -> tuple:
        return tuple(len(a) for a in self.actions)


@dataclass(frozen=True)
class NashPoint:
    """Mixed strategy profile plus its expected payoff vector.

    ``eps`` is 0 for exactly verified equilibria and the certified
    best-response slack for approximate ones. Every producer in this
    module builds the strategies as clipped, normalized float arrays, so
    the point is not re-validated; profiles from outside are checked
    where they enter the certificate (:mod:`smpe.verify`).
    """

    strategies: tuple
    payoffs: np.ndarray
    eps: float = 0.0


@dataclass(frozen=True)
class AggregateVector:
    """Continuation moments: per player, component and coarse cell,
    the mass-weighted integral of value times component density."""

    c: np.ndarray

    def __post_init__(self):
        c = frozen_copy(self.c, "aggregates")
        if c.ndim != 3:
            raise InvalidInput("aggregates must be (players, components, coarse cells)")
        hold(self, c=c)


def aggregate_moments(cell_values: np.ndarray, spec: StochasticGameSpec) -> AggregateVector:
    """Fold per-cell average values into continuation moments.

    ``cell_values`` is (n_cells, m): the fraction-weighted average value
    per fine cell (atoms included; their density rows are zero in
    well-posed games, so they contribute nothing).
    """
    values = np.asarray(cell_values, dtype=float)
    if values.shape != (spec.n_states, spec.players):
        raise InvalidInput(f"cell values must be {(spec.n_states, spec.players)}")
    masses = np.asarray(spec.space.masses, dtype=float)
    weighted = spec.kernel.rho * masses  # (J, n_cells)
    c = np.zeros((spec.players, spec.kernel.n_components, spec.space.n_coarse))
    np.add.at(c.transpose(2, 0, 1), spec.space.coarse, np.einsum("ki,jk->kij", values, weighted))
    return AggregateVector(c)


def stage_payoff_tensor(c: AggregateVector, v2: np.ndarray, spec: StochasticGameSpec) -> np.ndarray:
    """(m, n_states, n_profiles) one-shot payoffs for all states at once:
    discounted stage payoff plus discounted continuation via the
    aggregates and the atom channel."""
    if c.c.shape != (spec.players, spec.kernel.n_components, spec.space.n_coarse):
        raise InvalidInput("aggregate dimensions do not match the game")
    v2 = np.asarray(v2, dtype=float)
    if v2.shape != (spec.players, spec.n_atoms):
        raise InvalidInput(f"atom values must be {(spec.players, spec.n_atoms)}")
    cont = np.einsum("jesx,ije->isx", spec.kernel.q, c.c)
    if spec.n_atoms:
        cont = cont + np.einsum("asx,ia->isx", spec.atom_kernel, v2)
    beta = spec.discounts[:, None, None]
    return (1.0 - beta) * spec.payoffs + beta * cont


def build_stage_game(
    state: int,
    c: AggregateVector,
    v2: np.ndarray,
    spec: StochasticGameSpec,
    payoff_table: np.ndarray | None = None,
) -> StageGame:
    """Stage game at ``state`` under the given continuation data.

    ``payoff_table`` may pass a precomputed :func:`stage_payoff_tensor`
    to avoid rebuilding it per state.
    """
    if payoff_table is None:
        payoff_table = stage_payoff_tensor(c, v2, spec)
    actions = tuple(
        tuple(int(a) for a in np.flatnonzero(spec.feasible[i][state]))
        for i in range(spec.players)
    )
    if any(len(a) == 0 for a in actions):
        raise InvalidInput(f"state {state} has an empty feasible set")
    grids = np.ix_(*[list(a) for a in actions])
    payoffs = tuple(
        payoff_table[i, state].reshape(spec.profile_shape)[grids] for i in range(spec.players)
    )
    return StageGame(payoffs=payoffs, actions=actions)


def _contract_program(m: int, player: int) -> str:
    """The einsum program contracting one m-player payoff tensor against
    the others' mixed strategies, leaving ``player``'s axis free: "ab,b->a"
    for two players and player 0, "abc,a,c->b" for three and player 1."""
    axes = _AXES[:m]
    return ",".join([axes] + [a for j, a in enumerate(axes) if j != player]) + "->" + axes[player]


@functools.cache
def _stack_program(m: int, player: int) -> str:
    """:func:`_contract_program` over the stack axis "n" and any profile axes."""
    return "n" + _contract_program(m, player).replace(",", ",n...").replace("->", "->n...")


def payoff_against_stack(payoffs: np.ndarray, player: int, strategies) -> np.ndarray:
    """Payoff of each of ``player``'s actions against the others' mixtures,
    for a stack of games sharing action counts.

    ``payoffs`` is (m, n, *shape) and ``strategies[j]`` is (n, ..., k_j),
    with any number of profiles per game on the middle axes; the result is
    (n, ..., k_player). Each profile is contracted by the program of
    :func:`_contract_program`, as that game and profile alone would be.
    """
    others = (*strategies[:player], *strategies[player + 1 :])
    return np.einsum(_stack_program(len(payoffs), player), payoffs[player], *others)


def degenerate_games(payoffs: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Per game of a stack (m, n, *shape): True when some player owns two
    payoff-equivalent actions.

    This is the degeneracy the pre-enumeration perturbation guards
    against; enumeration may then understate the equilibrium set, so
    callers flag such games in their diagnostics.
    """
    m, n, *shape = payoffs.shape
    out = np.zeros(n, dtype=bool)
    for i in range(m):
        rows = np.moveaxis(payoffs[i], i + 1, 1).reshape(n, shape[i], -1)
        for a, b in itertools.combinations(range(shape[i]), 2):
            out |= np.max(np.abs(rows[:, a] - rows[:, b]), axis=1) <= tol
    return out


@functools.cache
def _ramp(m: int, shape: tuple) -> np.ndarray:
    """The perturbation's read-only (m, 1, *shape) ramp: player i's entry x
    of a game with ``size`` profiles gets (x * m + i + 1) / (size * m + 1)."""
    size = math.prod(shape)
    steps = np.arange(size, dtype=float) * m
    ramp = np.stack([(steps + i + 1.0) / (size * m + 1.0) for i in range(m)])
    return frozen_copy(ramp.reshape((m, 1) + shape), "perturbation ramp")


def _perturbed(payoffs: np.ndarray) -> np.ndarray:
    """Deterministic lexicographic tie-break of a game stack (m, n, *shape):
    each payoff entry is nudged by a distinct multiple of a tiny unit
    scaled to its own game's largest payoff."""
    m, n, *shape = payoffs.shape
    largest = np.abs(payoffs).reshape(m, n, math.prod(shape)).max(axis=(0, 2))
    scale = (PERTURB_SCALE * np.maximum(1.0, largest)).reshape((n,) + (1,) * len(shape))
    return payoffs + scale * _ramp(m, tuple(shape))


def _projected(vec, support, size):
    full = np.zeros(size)
    full[list(support)] = vec
    return full


@functools.cache
def _bordered(r: int):
    """The bordered indifference system of a support pair of size r: a
    read-only (2, 1, r + 1, r + 1) template holding the -1 value column and
    the row of ones around a zero block, and the right-hand side e_r."""
    lhs = np.zeros((2, 1, r + 1, r + 1))
    lhs[:, :, :r, r] = -1.0
    lhs[:, :, r, :r] = 1.0
    rhs = np.zeros((r + 1, 1))
    rhs[r] = 1.0
    return frozen_copy(lhs, "bordered system"), frozen_copy(rhs, "bordered system")


def _support_mixtures(perturbed: np.ndarray, rows, cols):
    """Indifference mixtures of every game of a two-player stack on one
    support pair: the row mixture equalizes the column player on ``cols``
    and the column mixture equalizes the row player on ``rows``.

    Returns (x, y, ok): x (n, k1) and y (n, k2) normalized on the
    support, ok marks the games whose systems are regular and whose
    solutions are nonnegative. One batched solve covers the stack; if any
    system is singular, the games of this support pair are solved one by
    one.
    """
    rows, cols = np.asarray(rows), np.asarray(cols)
    r = len(rows)
    _, n, k1, k2 = perturbed.shape
    block = perturbed[:, :, rows[:, None], cols]
    template, rhs = _bordered(r)
    lhs = template.repeat(n, axis=1)
    lhs[0, :, :r, :r] = block[1].swapaxes(1, 2)
    lhs[1, :, :r, :r] = block[0]
    ok = np.ones(n, dtype=bool)
    try:
        sol = np.linalg.solve(lhs, rhs)[..., :r, 0]
    except np.linalg.LinAlgError:
        sol = np.zeros((2, n, r))
        for g in range(n):
            try:
                sol[:, g] = [np.linalg.solve(lhs[p, g], rhs)[:r, 0] for p in range(2)]
            except np.linalg.LinAlgError:
                ok[g] = False
    ok &= ~(sol.min(axis=2) < -1e-9).any(axis=0)
    sol = np.maximum(sol, 0.0)
    total = sol.sum(axis=2)
    ok &= ~(total <= 0).any(axis=0)
    sol = np.divide(sol, total[..., None], out=np.zeros_like(sol), where=ok[:, None])
    x = np.zeros((n, k1))
    x[:, rows] = sol[0]
    y = np.zeros((n, k2))
    y[:, cols] = sol[1]
    return x, y, ok


@functools.lru_cache(maxsize=256)
def _pure_supports(n, k1, k2):
    """:func:`_support_mixtures` of every 1x1 pair of an (n, k1, k2) stack,
    in (rows, cols) order, with no solve: the system [[a, -1], [1, 0]] has
    determinant 1 and its one positive entry normalizes to exactly 1.0.
    Read-only, and built once per stack shape."""
    pure = np.eye(k1).repeat(k2, axis=0), np.tile(np.eye(k2), (k1, 1)), np.ones(k1 * k2, bool)
    return tuple(frozen_copy(p[None].repeat(n, axis=0), "pure supports", p.dtype) for p in pure)


@functools.cache
def _mixed_supports(k1, k2):
    """The support pairs of size r >= 2 of a k1 x k2 game in (size, rows,
    cols) order, as read-only (rows, cols) index arrays."""
    return tuple(
        (frozen_copy(rows, "support rows", int), frozen_copy(cols, "support columns", int))
        for r in range(2, min(k1, k2) + 1)
        for rows in itertools.combinations(range(k1), r)
        for cols in itertools.combinations(range(k2), r)
    )


def nash_enumerate_stack(payoffs):
    """Exact equilibria of a stack of games, as the padded arrays
    ``(counts, strategies, payoffs)`` of :func:`_verify_stack`.

    ``payoffs`` is (m, n, k_1, ..., k_m), 1 <= m <= 3: every player's
    payoff tensor for n games with the same action counts. Game g's first
    ``counts[g]`` slots hold the list :func:`nash_enumerate` documents.
    The candidates are one player's pure actions, two players' support
    pairs in (size, rows, cols) order on the perturbed stack, or three
    players' Newton solutions, found game by game; no game's slots depend
    on the rest of the stack.
    """
    payoffs = np.asarray(payoffs, dtype=float)
    m = payoffs.shape[0] if payoffs.ndim else 0
    if not 1 <= m <= EXACT_MAX_PLAYERS or payoffs.ndim != m + 2:
        raise InvalidInput("a stack must be (m, games, k_1, ..., k_m) with 1 <= m <= 3")
    if not np.isfinite(payoffs).all():
        raise InvalidInput("payoffs must be finite")
    n, *shape = payoffs.shape[1:]
    if m == 1:  # distinct pure actions never dedupe, and the sort orders them
        pure = np.tile(np.eye(shape[0]), (n, 1, 1))
        found = np.ones((n, shape[0]), dtype=bool)
        return _verify_stack(payoffs, (pure,), found, distinct=found)
    perturbed = _perturbed(payoffs)
    if m == 3:  # each game's Newton candidates, padded to the longest list
        candidates = [list(zip(*_candidates_three(perturbed[:, g]))) for g in range(n)]
        sizes = np.array([len(c[0]) for c in candidates], dtype=int)
        strategies = tuple(np.zeros((n, sizes.max(initial=0), k)) for k in shape)
        for g, found in enumerate(candidates):
            for part, rows in zip(strategies, found):
                part[g, : sizes[g]] = rows
        return _verify_stack(payoffs, strategies, np.arange(sizes.max(initial=0)) < sizes[:, None])
    k1, k2 = shape
    supports = _mixed_supports(k1, k2)
    mixed = [_support_mixtures(perturbed, rows, cols) for rows, cols in supports]
    xs, ys, oks = (  # (n, supports, ...)
        np.concatenate([pure] + [part[:, None] for part in parts], axis=1)
        for pure, *parts in zip(_pure_supports(n, k1, k2), *mixed)
    )
    # pure candidates are unit vectors; a mixed one above DEDUPE_TOL on all
    # of its support pair is distinct from those before it (_verify_stack)
    distinct = np.ones(oks.shape, dtype=bool)
    for j, (rows, cols) in enumerate(supports, start=k1 * k2):
        distinct[:, j] = np.minimum(xs[:, j, rows].min(1), ys[:, j, cols].min(1)) > DEDUPE_TOL
    return _verify_stack(payoffs, (xs, ys), oks, distinct)


def _verify_stack(payoffs, strategies, found, distinct=None):
    """Verified, deduplicated and sorted equilibria of a game stack: counts
    (n,), strategies (n, w, k_i) per player and payoffs (n, w, m).

    ``payoffs`` is the unperturbed (m, n, *shape) stack; ``strategies[i]``
    is (n, s, k_i), each game's s candidates in enumeration order, of which
    ``found`` (n, s) marks those that exist. A candidate is kept when no
    pure deviation gains more than ``BR_TOL`` and no kept candidate before
    it lies within ``DEDUPE_TOL``; game g's ``counts[g]`` kept points fill
    its first slots, sorted by (payoffs, flat strategies), and zeros the
    rest; no game's slots depend on the rest of the stack (:func:`_slack`).

    ``distinct`` (n, s) marks candidates proven to lie farther than
    ``DEDUPE_TOL`` from every candidate before them, and the dedupe runs
    only when some alive candidate lacks that proof. One player's pure
    actions lie 1 apart. For two players, let a candidate exceed
    ``DEDUPE_TOL`` on every entry of its own support pair: a candidate
    within ``DEDUPE_TOL`` of it is nonzero on that pair, so its own support
    pair contains that pair; candidates come one per support pair in
    (size, rows, cols) order, so none before it does.
    """
    m = len(payoffs)
    played, gap = _slack(payoffs, strategies)
    alive = found & (gap <= BR_TOL)
    rows = np.concatenate([played, *strategies], axis=-1)
    proven = distinct is not None and distinct[alive].all()
    if alive.sum(axis=1).max(initial=0) > 1 and not proven:
        _dedupe(rows[..., m:], alive)
    # kept points first, each game's in (payoffs, flat strategies) order
    counts = alive.sum(axis=1)
    keys = tuple(rows[..., ::-1].transpose(2, 0, 1)) + (~alive,)
    games = np.arange(len(alive))[:, None]
    rows = rows[games, np.lexsort(keys, axis=1)[:, : counts.max(initial=0)]]
    rows[np.arange(rows.shape[1]) >= counts[:, None]] = 0.0
    ends = np.cumsum([m] + [s.shape[-1] for s in strategies])
    return counts, tuple(rows[..., a:b] for a, b in zip(ends, ends[1:])), rows[..., :m]


def _dedupe(flat, alive):
    """Greedily drop, in place in ``alive`` (n, s), each candidate within
    ``DEDUPE_TOL`` of a kept one before it in its game's enumeration order;
    ``flat`` (n, s, K) holds the flat strategies. Only each game's alive
    candidates are compared, moved to the front in order."""
    games = np.arange(len(alive))[:, None]
    front = np.argsort(~alive, axis=1, kind="stable")[:, : alive.sum(axis=1).max()]
    kept = alive[games, front]
    flat = flat[games, front]
    near = np.max(np.abs(flat[:, :, None] - flat[:, None]), axis=3) <= DEDUPE_TOL
    near &= np.tri(front.shape[1], k=-1, dtype=bool) & kept[:, :, None] & kept[:, None]
    for a in np.flatnonzero(near.any(axis=(0, 2))):
        kept[:, a] &= ~(near[:, a] & kept).any(axis=1)
    alive[games, front] = kept


def _slack(payoffs, strategies):
    """Played payoffs (n, s, m) and best-response slack (n, s) of profiles
    ``strategies[i]`` (n, s, k_i) of a stack (m, n, *shape); a batched
    ``matmul`` rounds as ``np.dot`` does, so no game depends on the rest."""
    m = len(payoffs)
    played = np.empty(strategies[0].shape[:-1] + (m,))
    gap = np.full(played.shape[:-1], -np.inf)
    for i in range(m):
        vec = payoffs[0][:, None] if m == 1 else payoff_against_stack(payoffs, i, strategies)
        played[..., i] = (strategies[i][..., None, :] @ vec[..., :, None])[..., 0, 0]
        gap = np.maximum(gap, vec.max(axis=-1) - played[..., i])
    return played, gap


def _newton_starts(sizes, count=8):
    starts = [[np.full(s, 1.0 / s) for s in sizes]]
    for r in range(1, count):
        profile = []
        for i, s in enumerate(sizes):
            w = np.full(s, 0.3 / s)
            w[(r + i) % s] += 0.7
            profile.append(w / w.sum())
        starts.append(profile)
    return starts


def _candidates_three(tensors):
    k = tensors[0].shape
    supports = [
        [c for r in range(1, k[i] + 1) for c in itertools.combinations(range(k[i]), r)]
        for i in range(3)
    ]
    for sup in itertools.product(*supports):
        sizes = [len(s) for s in sup]
        sub = [t[np.ix_(*[list(s) for s in sup])] for t in tensors]
        if sizes == [1, 1, 1]:
            yield tuple(_projected([1.0], sup[i], k[i]) for i in range(3))
            continue
        for start in _newton_starts(sizes):
            sol = _solve_indifference_three(sub, start)
            if sol is None:
                continue
            yield tuple(_projected(sol[i], sup[i], k[i]) for i in range(3))


def _solve_indifference_three(sub, start, max_iter=60, tol=1e-12):
    """Damped Newton on the square indifference-plus-simplex system."""
    sizes = [len(s) for s in start]
    off = np.cumsum([0] + sizes)
    n = off[3] + 3

    def unpack(z):
        return [z[off[i] : off[i + 1]] for i in range(3)], z[off[3] :]

    def residual(z):
        xs, v = unpack(z)
        res = np.empty(n)
        res[off[0] : off[1]] = np.einsum("abc,b,c->a", sub[0], xs[1], xs[2]) - v[0]
        res[off[1] : off[2]] = np.einsum("abc,a,c->b", sub[1], xs[0], xs[2]) - v[1]
        res[off[2] : off[3]] = np.einsum("abc,a,b->c", sub[2], xs[0], xs[1]) - v[2]
        res[off[3] :] = [x.sum() - 1.0 for x in xs]
        return res

    def jacobian(z):
        xs, _ = unpack(z)
        jac = np.zeros((n, n))
        jac[off[0] : off[1], off[1] : off[2]] = np.einsum("abc,c->ab", sub[0], xs[2])
        jac[off[0] : off[1], off[2] : off[3]] = np.einsum("abc,b->ac", sub[0], xs[1])
        jac[off[1] : off[2], off[0] : off[1]] = np.einsum("abc,c->ba", sub[1], xs[2])
        jac[off[1] : off[2], off[2] : off[3]] = np.einsum("abc,a->bc", sub[1], xs[0])
        jac[off[2] : off[3], off[0] : off[1]] = np.einsum("abc,b->ca", sub[2], xs[1])
        jac[off[2] : off[3], off[1] : off[2]] = np.einsum("abc,a->cb", sub[2], xs[0])
        for i in range(3):
            jac[off[i] : off[i + 1], off[3] + i] = -1.0
            jac[off[3] + i, off[i] : off[i + 1]] = 1.0
        return jac

    z = np.concatenate(start + [np.zeros(3)])
    xs, _ = unpack(z)
    z[off[3] :] = [
        float(np.einsum("abc,a,b,c->", sub[0], xs[0], xs[1], xs[2])),
        float(np.einsum("abc,a,b,c->", sub[1], xs[0], xs[1], xs[2])),
        float(np.einsum("abc,a,b,c->", sub[2], xs[0], xs[1], xs[2])),
    ]
    res = residual(z)
    for _ in range(max_iter):
        norm = np.max(np.abs(res))
        if norm <= tol:
            break
        try:
            step = np.linalg.solve(jacobian(z), -res)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(jacobian(z), -res, rcond=None)
        t = 1.0
        for _ in range(20):
            trial = z + t * step
            trial_res = residual(trial)
            if np.max(np.abs(trial_res)) < norm:
                z, res = trial, trial_res
                break
            t /= 2.0
        else:
            return None
    if np.max(np.abs(res)) > 1e-10:
        return None
    xs, _ = unpack(z)
    out = []
    for x in xs:
        if x.min() < -1e-9:
            return None
        x = np.clip(x, 0.0, None)
        if x.sum() <= 0:
            return None
        out.append(x / x.sum())
    return out


def enumeration_mode(shape) -> str:
    """"exact" for a game whose players have ``shape`` actions when it lies
    inside the envelope: one player with any number of actions (its
    equilibria are its best pure actions), or at most three players with
    at most four actions each; "approx" otherwise."""
    m = len(shape)
    exact_ok = m == 1 or (m <= EXACT_MAX_PLAYERS and max(shape) <= EXACT_MAX_ACTIONS)
    return "exact" if exact_ok else "approx"


def nash_enumerate(game: StageGame):
    """All verified mixed equilibria of a small finite game.

    A stack of one in both modes of :func:`enumeration_mode`. Inside the
    exact envelope, :func:`nash_enumerate_stack`: supports are enumerated
    on a perturbed copy of the game and every solved candidate is
    re-verified against the unperturbed payoffs (best-response slack at
    most ``BR_TOL``), then deduplicated and sorted by payoff vector.
    Larger games run :func:`regret_matching` and return a single
    approximate point carrying its certified slack, or raise
    :class:`NoConvergence` carrying it when the slack misses the target.
    """
    stack = np.stack(game.payoffs)[:, None]
    if enumeration_mode(game.shape) == "exact":
        arrays, eps, misses = nash_enumerate_stack(stack), [0.0], []
    else:
        arrays, eps, _, misses = regret_matching(stack)
    profiles = zip(*(s[0] for s in arrays[1]))  # a stack of one has no padded slots
    points = [NashPoint(p, v, float(eps[0])) for p, v in zip(profiles, arrays[2][0])]
    if misses:
        raise NoConvergence(misses[0], result=points[0], epsilon=points[0].eps)
    return points


def regret_matching(payoffs, eps_target: float = 1e-3, max_iter: int = 200_000):
    """Average regret-matching play on each game of a stack (m, n, k_1,
    ..., k_m) on its own, so each game gets exactly what it gets alone.

    Every 250 steps, and at ``max_iter``, a game checks the best-response
    slack of its averaged profile; it stops at the first check where the
    slack is at most ``eps_target``, or after ``STALL_CHECKS`` checks in a
    row without a better slack, and the stack runs on without it. Returns
    the padded arrays ``(counts, strategies, payoffs)`` of
    :func:`nash_enumerate_stack` holding each game's best averaged profile,
    that profile's slack ``eps`` (n,), the stop step ``steps`` (n,), and
    the :class:`NoConvergence` message of each game that missed the
    target, in stack order.
    """
    payoffs = np.asarray(payoffs, dtype=float)
    m, n, *sizes = payoffs.shape
    regrets, sums = ([np.zeros((n, k)) for k in sizes] for _ in range(2))
    current = [np.full((n, k), 1.0 / k) for k in sizes]
    best = [np.zeros((n, 1, k)) for k in sizes] + [np.zeros((n, 1, m))]  # strategies, payoffs
    eps, steps, stalled = np.full(n, np.inf), np.zeros(n, dtype=int), np.zeros(n, dtype=int)
    live, t = np.arange(n), 0  # the running games, as indices into the stack
    while len(live):
        t += 1
        for i in range(m):
            vec = payoff_against_stack(payoffs, i, current)
            regrets[i] += vec - (current[i][:, None] @ vec[:, :, None])[:, 0]
        for i, k in enumerate(sizes):
            sums[i] += current[i]
            pos = np.maximum(regrets[i], 0.0)
            total = pos.sum(axis=1, keepdims=True)
            if np.count_nonzero(total) == len(total):  # cheaper than total.all()
                current[i] = pos / total
            else:  # a game with no positive regret plays uniformly
                current[i] = np.divide(pos, total, out=np.full_like(pos, 1.0 / k), where=total > 0)
        if t % 250 and t < max_iter:
            continue
        avg = [(s / s.sum(axis=1, keepdims=True))[:, None] for s in sums]
        played, gap = _slack(payoffs, avg)
        gap = gap[:, 0]
        better = gap < eps[live]
        eps[live[better]] = gap[better]
        for part, new in zip(best, avg + [played]):
            part[live[better]] = new[better]
        stalled = np.where(better, 0, stalled + 1)
        stop = (gap <= eps_target) | (stalled >= STALL_CHECKS) | (t >= max_iter)
        steps[live[stop]] = t
        live, stalled, payoffs = live[~stop], stalled[~stop], payoffs[:, ~stop]
        regrets, sums, current = ([a[~stop] for a in part] for part in (regrets, sums, current))
    misses = [
        f"regret matching reached eps {e:g} > target {eps_target:g} after {stop} steps"
        for e, stop in zip(eps, steps)
        if e > eps_target
    ]
    return (np.ones(n, dtype=int), tuple(best[:m]), best[m]), eps, steps, misses
