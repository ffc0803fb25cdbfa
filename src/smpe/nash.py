"""One-shot stage games and their mixed Nash equilibria.

Stage games fold continuation moments and atom values into the stage
payoffs; equilibria are found by support enumeration, every candidate
verified by an independent best-response check. Every game inside the
exact envelope (one to three players, at most four actions each) goes
through one stacked entry point, :func:`nash_enumerate_stack`, which
returns padded arrays (counts, strategies, payoffs); only the public
:func:`nash_enumerate`, a stack of one, builds :class:`NashPoint`s. Two
players' pure support pairs need no solve, the others one batched solve
per pair; three players run damped Newton game by game. One stacked
verifier checks, dedupes and sorts the candidates of every player count
with the arithmetic of a single-profile check. Games beyond the envelope
run regret matching, which gives up once its best slack stalls.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NoConvergence
from .game import StochasticGameSpec

BR_TOL = 1e-10
DEDUPE_TOL = 1e-8
PERTURB_SCALE = 1e-12
EXACT_MAX_PLAYERS = 3
EXACT_MAX_ACTIONS = 4
# 250-step checks in a row without a better eps after which regret matching
# gives up; the averaged eps is not monotone, and in 107 converging runs on
# random 5x5 and 6x6 games the longest wait for a new best was 151 checks
STALL_CHECKS = 300

# einsum programs to contract a payoff tensor against the other players'
# mixed strategies, leaving the focal player's axis free
_CONTRACT = {
    (1, 0): "a->a",
    (2, 0): "ab,b->a",
    (2, 1): "ab,a->b",
    (3, 0): "abc,b,c->a",
    (3, 1): "abc,a,c->b",
    (3, 2): "abc,a,b->c",
}


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
        payoffs = tuple(np.asarray(p, dtype=float) for p in self.payoffs)
        actions = tuple(tuple(int(a) for a in acts) for acts in self.actions)
        m = len(payoffs)
        shape = tuple(len(a) for a in actions)
        if m == 0 or len(actions) != m:
            raise InvalidInput("payoffs and actions must cover the same players")
        for p in payoffs:
            if p.shape != shape:
                raise InvalidInput(f"payoff tensors must have shape {shape}")
            if not np.all(np.isfinite(p)):
                raise InvalidInput("payoffs must be finite")
        for p in payoffs:
            p.setflags(write=False)
        object.__setattr__(self, "payoffs", payoffs)
        object.__setattr__(self, "actions", actions)

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
        c = np.asarray(self.c, dtype=float)
        if c.ndim != 3:
            raise InvalidInput("aggregates must be (players, components, coarse cells)")
        if not np.all(np.isfinite(c)):
            raise InvalidInput("aggregates must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "c", c)


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


def expected_payoffs(game: StageGame, strategies) -> np.ndarray:
    """Expected payoff per player under a mixed profile."""
    out = np.empty(game.m)
    for i in range(game.m):
        vec = payoff_against(game, i, strategies)
        out[i] = float(np.dot(strategies[i], vec))
    return out


def payoff_against(game: StageGame, player: int, strategies) -> np.ndarray:
    """Payoff of each of ``player``'s actions against the others' mixtures."""
    others = [np.asarray(strategies[j], dtype=float) for j in range(game.m) if j != player]
    return np.einsum(_CONTRACT[(game.m, player)], game.payoffs[player], *others)


def payoff_against_stack(payoffs: np.ndarray, player: int, strategies) -> np.ndarray:
    """:func:`payoff_against` for a stack of games sharing action counts.

    ``payoffs`` is (m, n, *shape) and ``strategies[j]`` is (n, ..., k_j),
    with any number of profiles per game on the middle axes; the result is
    (n, ..., k_player). Each profile is contracted exactly as
    :func:`payoff_against` contracts it alone.
    """
    program = "n" + _CONTRACT[(len(payoffs), player)].replace(",", ",n...").replace("->", "->n...")
    others = [np.asarray(s, dtype=float) for j, s in enumerate(strategies) if j != player]
    return np.einsum(program, payoffs[player], *others)


def best_response_gap(game: StageGame, strategies) -> np.ndarray:
    """Per-player gain of the best pure deviation over the played profile."""
    gaps = np.empty(game.m)
    for i in range(game.m):
        vec = payoff_against(game, i, strategies)
        gaps[i] = float(vec.max() - np.dot(strategies[i], vec))
    return gaps


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


def _perturbed(payoffs: np.ndarray) -> np.ndarray:
    """Deterministic lexicographic tie-break of a game stack (m, n, *shape):
    each payoff entry is nudged by a distinct multiple of a tiny unit
    scaled to its own game's largest payoff."""
    m, n, *shape = payoffs.shape
    size = int(np.prod(shape))
    largest = np.abs(payoffs).reshape(m, n, size).max(axis=(0, 2))
    scale = (PERTURB_SCALE * np.maximum(1.0, largest)).reshape((n,) + (1,) * len(shape))
    out = np.empty_like(payoffs)
    for i in range(m):
        ramp = (np.arange(size, dtype=float) * m + i + 1.0) / (size * m + 1.0)
        out[i] = payoffs[i] + scale * ramp.reshape(shape)
    return out


def _projected(vec, support, size):
    full = np.zeros(size)
    full[list(support)] = vec
    return full


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
    r = len(rows)
    _, n, k1, k2 = perturbed.shape
    block = perturbed[:, :, list(rows)][:, :, :, list(cols)]
    lhs = np.zeros((2, n, r + 1, r + 1))
    lhs[0, :, :r, :r] = np.swapaxes(block[1], 1, 2)
    lhs[1, :, :r, :r] = block[0]
    lhs[:, :, :r, r] = -1.0
    lhs[:, :, r, :r] = 1.0
    rhs = np.zeros((r + 1, 1))
    rhs[r] = 1.0
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
    sol = np.clip(sol, 0.0, None)
    total = sol.sum(axis=2)
    ok &= ~(total <= 0).any(axis=0)
    sol = np.divide(sol, total[..., None], out=np.zeros_like(sol), where=ok[:, None])
    x = np.zeros((n, k1))
    x[:, list(rows)] = sol[0]
    y = np.zeros((n, k2))
    y[:, list(cols)] = sol[1]
    return x, y, ok


def _pure_supports(n, k1, k2):
    """:func:`_support_mixtures` of every 1x1 pair of an (n, k1, k2) stack,
    in (rows, cols) order, with no solve: the system [[a, -1], [1, 0]] has
    determinant 1 and its one positive entry normalizes to exactly 1.0."""
    pure = np.eye(k1).repeat(k2, axis=0), np.tile(np.eye(k2), (k1, 1)), np.ones(k1 * k2, bool)
    return tuple(p[None].repeat(n, axis=0) for p in pure)


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
    if not np.all(np.isfinite(payoffs)):
        raise InvalidInput("payoffs must be finite")
    n, *shape = payoffs.shape[1:]
    if m == 1:  # distinct pure actions never dedupe, and the sort orders them
        pure = np.tile(np.eye(shape[0]), (n, 1, 1))
        return _verify_stack(payoffs, (pure,), np.ones((n, shape[0]), dtype=bool))
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
    mixed = [
        _support_mixtures(perturbed, rows, cols)
        for r in range(2, min(k1, k2) + 1)
        for rows in itertools.combinations(range(k1), r)
        for cols in itertools.combinations(range(k2), r)
    ]
    xs, ys, oks = (  # (n, supports, ...)
        np.concatenate([pure] + [part[:, None] for part in parts], axis=1)
        for pure, *parts in zip(_pure_supports(n, k1, k2), *mixed)
    )
    return _verify_stack(payoffs, (xs, ys), oks)


def _verify_stack(payoffs, strategies, found):
    """Verified, deduplicated and sorted equilibria of a game stack: counts
    (n,), strategies (n, w, k_i) per player and payoffs (n, w, m).

    ``payoffs`` is the unperturbed (m, n, *shape) stack; ``strategies[i]``
    is (n, s, k_i), each game's s candidates in enumeration order, of which
    ``found`` (n, s) marks those that exist. A candidate is kept when no
    pure deviation gains more than ``BR_TOL`` and no kept candidate before
    it lies within ``DEDUPE_TOL``; game g's ``counts[g]`` kept points fill
    its first slots, sorted by (payoffs, flat strategies), and zeros the
    rest. Played payoffs are a batched ``matmul``, which rounds as
    ``np.dot`` does, so no game's slots depend on the rest of the stack.
    """
    m = len(payoffs)
    played = np.empty(found.shape + (m,))
    gap = np.full(found.shape, -np.inf)
    for i in range(m):
        vec = payoffs[0][:, None] if m == 1 else payoff_against_stack(payoffs, i, strategies)
        played[..., i] = (strategies[i][..., None, :] @ vec[..., :, None])[..., 0, 0]
        gap = np.maximum(gap, vec.max(axis=-1) - played[..., i])
    kept = found & (gap <= BR_TOL)
    # each game's kept candidates, moved to the front in enumeration order;
    # greedily, any within DEDUPE_TOL of a kept one before it is dropped
    games = np.arange(len(kept))[:, None]
    front = np.argsort(~kept, axis=1, kind="stable")[:, : kept.sum(axis=1).max(initial=0)]
    alive = kept[games, front]
    rows = np.concatenate([played, *strategies], axis=-1)[games, front]
    flat = rows[..., m:]
    near = np.max(np.abs(flat[:, :, None] - flat[:, None]), axis=3) <= DEDUPE_TOL
    near &= np.tri(front.shape[1], k=-1, dtype=bool) & alive[:, :, None] & alive[:, None]
    for a in np.flatnonzero(near.any(axis=(0, 2))):
        alive[:, a] &= ~(near[:, a] & alive).any(axis=1)
    # kept points first, each game's in (payoffs, flat strategies) order
    counts = alive.sum(axis=1)
    keys = tuple(np.moveaxis(rows[..., ::-1], -1, 0)) + (~alive,)
    rows = rows[games, np.lexsort(keys, axis=1)[:, : counts.max(initial=0)]]
    rows[np.arange(rows.shape[1]) >= counts[:, None]] = 0.0
    ends = np.cumsum([m] + [s.shape[-1] for s in strategies])
    return counts, tuple(rows[..., a:b] for a, b in zip(ends, ends[1:])), rows[..., :m]


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
    inside the envelope of at most three players with at most four actions
    each, "approx" otherwise."""
    exact_ok = len(shape) <= EXACT_MAX_PLAYERS and max(shape) <= EXACT_MAX_ACTIONS
    return "exact" if exact_ok else "approx"


def nash_enumerate(game: StageGame):
    """All verified mixed equilibria of a small finite game.

    Inside the exact envelope (:func:`enumeration_mode`), a stack of one
    for :func:`nash_enumerate_stack`: supports are enumerated on a
    perturbed copy of the game and every solved candidate is re-verified
    against the unperturbed payoffs (best-response slack at most
    ``BR_TOL``), then deduplicated and sorted by payoff vector. Larger
    games run regret matching and return a single approximate point
    carrying its certified slack.
    """
    if enumeration_mode(game.shape) == "approx":
        return [regret_matching(game)]
    _, strategies, payoffs = nash_enumerate_stack(np.stack(game.payoffs)[:, None])
    profiles = zip(*(s[0] for s in strategies))  # a stack of one has no padded slots
    return [NashPoint(strategies=p, payoffs=v) for p, v in zip(profiles, payoffs[0])]


def regret_matching(game: StageGame, eps_target: float = 1e-3, max_iter: int = 200_000):
    """Average regret-matching play until the best-response slack of the
    averaged profile falls below ``eps_target``. After ``max_iter`` steps,
    or ``STALL_CHECKS`` checks in a row without a better slack, raises
    :class:`NoConvergence` carrying the best averaged profile seen."""
    sizes = game.shape
    regrets = [np.zeros(s) for s in sizes]
    sums = [np.zeros(s) for s in sizes]
    current = [np.full(s, 1.0 / s) for s in sizes]
    best = None
    stalled = 0
    check_every = 250
    for t in range(1, max_iter + 1):
        for i in range(game.m):
            vec = payoff_against(game, i, current)
            played = float(np.dot(current[i], vec))
            regrets[i] += vec - played
        for i in range(game.m):
            sums[i] += current[i]
            pos = np.clip(regrets[i], 0.0, None)
            total = pos.sum()
            current[i] = pos / total if total > 0 else np.full(sizes[i], 1.0 / sizes[i])
        if t % check_every == 0 or t == max_iter:
            avg = tuple(s / s.sum() for s in sums)
            eps = float(max(best_response_gap(game, avg)))
            if best is None or eps < best[0]:
                best, stalled = (eps, avg), 0
            else:
                stalled += 1
            if eps <= eps_target:
                return NashPoint(strategies=avg, payoffs=expected_payoffs(game, avg), eps=eps)
            if stalled >= STALL_CHECKS:
                break
    eps, avg = best
    raise NoConvergence(
        f"regret matching reached eps {eps:g} > target {eps_target:g} after {t} steps",
        result=NashPoint(strategies=avg, payoffs=expected_payoffs(game, avg), eps=eps),
        epsilon=eps,
    )
