"""Independent brute-force oracles, kept apart from the library's code paths.

Most of what is here uses exact rational arithmetic and exhaustive
enumeration so that library results can be checked against a second,
structurally different computation. The exceptions are
``nash_two_reference``, two-player support enumeration one game and one
support system at a time in floating point with the arithmetic of the
library's stacked enumerator, ``verify_candidates_reference``, the
library's candidate check, duplicate test and sort one game and one
candidate at a time, ``atom_operator_reference``, the atom
operator computed from the full stage-payoff table at every step,
``comparison_draw_reference``, the simulation's inverse-CDF draw by a
full comparison over each row, and ``regret_matching_reference``,
regret matching one game at a time over ``payoff_against``,
``expected_payoffs`` and ``best_response_gap``; they pin an optimized
library path to a plain one bit for bit. ``project_to_hull_reference``,
the hull projection one point set and one ``lstsq`` per support, pins the
stacked projection's supports, and its points and weights to rounding.
``points_of`` reads the stage layer's padded arrays back as one game's
list of points, so they can be held against the one-game references.
``validate_game_reference``, ``check_coarser_reference`` and
``sunspot_extend_reference`` are the game-boundary checks state by state
and coarse cell by coarse cell; the array programs must give the same
reports, verdicts and extensions. ``deviation_residual_reference`` is
the certificate piece by piece, which the piece-table program must
match bit for bit. ``joint_law_reference`` is the simulation's law of
(profile, next state) one piece and one profile at a time, and
``finite_horizon_expectation_reference`` propagates it to the exact
expectation a simulation estimates; ``simulate_payoffs_reference`` is
the chain sampler the joint draw replaced (piece, each player's action,
next state), which samples the same path law from another stream.
``block_rank_elimination`` is the block rank profile by Gauss-Jordan
pivots, the check on its singular values.
``cell_average_reference``, ``averages_reference`` and
``validate_selection_reference`` are a selection's averages and checks
one cell and one piece at a time over its nested ``pieces`` view; the
flat table's slot loops must match them bit for bit and message for
message.
"""

import itertools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np

from smpe.game import NORMALIZATION_TOL, KernelDecomposition, ValidationReport
from smpe.kernels import ROW_MATCH_TOL
from smpe.errors import InvalidInput
from smpe.measure import MASS_TOL, GridSpace
from smpe.nash import NashPoint, payoff_against_stack, stage_payoff_tensor
from smpe.solver import _signature_groups
from smpe.verify import CHUNK_PATHS


def rational_solve(rows, rhs):
    """Gaussian elimination without pivoting heuristics, Fraction-exact.

    Returns the unique solution or None on inconsistency/underdetermination.
    Written independently of the library's solver (column-major sweep,
    last-nonzero pivot choice).
    """
    m, n = len(rows), len(rows[0]) if rows else 0
    a = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    where = []
    used = set()
    for col in range(n):
        pivot = None
        for i in range(m - 1, -1, -1):
            if i not in used and a[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        used.add(pivot)
        where.append((pivot, col))
        inv = a[pivot][col]
        a[pivot] = [x / inv for x in a[pivot]]
        for i in range(m):
            if i != pivot and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[pivot])]
    for i in range(m):
        if i not in used and a[i][n] != 0:
            return None
    if len(where) < n:
        return None
    x = [Fraction(0)] * n
    for row, col in where:
        x[col] = a[row][n]
    return x


def hull_member_exact(target, points):
    """Exact convex-hull membership by exhaustive support enumeration."""
    target = [Fraction(t) for t in target]
    points = [[Fraction(v) for v in p] for p in points]
    d = len(target)
    for size in range(1, min(len(points), d + 1) + 1):
        for support in itertools.combinations(range(len(points)), size):
            rows = [[points[j][coord] for j in support] for coord in range(d)]
            rows.append([Fraction(1)] * size)
            sol = rational_solve(rows, target + [Fraction(1)])
            if sol is not None and all(w >= 0 for w in sol):
                return True
    return False


def percell_feasible(divisible, candidates, targets):
    """Exact per-cell classification: divisible targets must lie in the
    candidate hull (interval bounds when scalar), atomic targets must be
    candidates themselves."""
    for k, div in enumerate(divisible):
        cands = [[Fraction(v) for v in c] for c in candidates[k]]
        target = [Fraction(v) for v in targets[k]]
        if div:
            if len(target) == 1:
                lo = min(c[0] for c in cands)
                hi = max(c[0] for c in cands)
                if not (lo <= target[0] <= hi):
                    return False
            elif not hull_member_exact(target, cands):
                return False
        else:
            if not any(all(c[i] == target[i] for i in range(len(target))) for c in cands):
                return False
    return True


def aggregate_assignment_exists(masses, coarse, candidates, targets, moments):
    """Exhaustive pure-assignment search against the aggregate moment sums.

    Each cell picks exactly one candidate; the mass-weighted moment sums
    must match the targets' on every coarse cell, exactly. Exact
    rationals throughout.
    """
    masses = [Fraction(v) for v in masses]
    n_cells = len(masses)
    n_coarse = max(coarse) + 1
    moments = [[Fraction(v) for v in row] for row in moments]
    targets = [[Fraction(v) for v in t] for t in targets]
    d = len(targets[0])
    goal = {}
    for j, row in enumerate(moments):
        for e in range(n_coarse):
            for dim in range(d):
                goal[(j, e, dim)] = sum(
                    masses[k] * row[k] * targets[k][dim]
                    for k in range(n_cells)
                    if coarse[k] == e
                )
    cand_lists = [[[Fraction(v) for v in c] for c in candidates[k]] for k in range(n_cells)]
    for assignment in itertools.product(*(range(len(c)) for c in cand_lists)):
        ok = True
        for j, row in enumerate(moments):
            for e in range(n_coarse):
                for dim in range(d):
                    total = sum(
                        masses[k] * row[k] * cand_lists[k][assignment[k]][dim]
                        for k in range(n_cells)
                        if coarse[k] == e
                    )
                    if total != goal[(j, e, dim)]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            return assignment
    return None


def elimination_rank_exact(matrix):
    """Exact rank over the rationals by row reduction."""
    rows = [[Fraction(v) for v in row] for row in np.asarray(matrix).tolist()]
    rank = 0
    n_cols = len(rows[0]) if rows else 0
    r = 0
    for col in range(n_cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][col]
        rows[r] = [v / inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        rank += 1
        r += 1
        if r == len(rows):
            break
    return rank


def block_rank_elimination(kmtx, threshold):
    """Numerical rank of each coarse row-block of a kernel matrix by
    Gauss-Jordan elimination with partial pivoting, a pivot at or below
    ``threshold`` counting as zero: ``block_rank_profile``'s ranks from
    pivots instead of singular values."""
    coarse_of_rows = kmtx.space.coarse[kmtx.rows]
    ranks = {}
    for e in kmtx.block_ids():
        a = np.array(kmtx.matrix[coarse_of_rows == e], dtype=float)
        n_rows, n_cols = a.shape
        rank = 0
        for col in range(n_cols):
            if rank >= n_rows:
                break
            pivot = rank + int(np.argmax(np.abs(a[rank:, col])))
            if abs(a[pivot, col]) <= threshold:
                continue
            a[[rank, pivot]] = a[[pivot, rank]]
            a[rank] = a[rank] / a[rank, col]
            for i in range(n_rows):
                if i != rank and a[i, col] != 0.0:
                    a[i] -= a[i, col] * a[rank]
            rank += 1
        ranks[e] = rank
    return ranks


def pure_equilibria_bruteforce(payoffs):
    """All pure-profile equilibria of a finite game by direct inspection.

    ``payoffs`` is a list of m tensors. Returns a list of index tuples.
    """
    tensors = [np.asarray(p, dtype=float) for p in payoffs]
    shape = tensors[0].shape
    out = []
    for profile in itertools.product(*(range(s) for s in shape)):
        ok = True
        for i, tensor in enumerate(tensors):
            value = tensor[profile]
            for alt in range(shape[i]):
                trial = list(profile)
                trial[i] = alt
                if tensor[tuple(trial)] > value + 1e-12:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(profile)
    return out


def _contract(m, player):
    """The einsum program for one game: "abc,a,c->b" for three players and
    player 1, the others' axes contracted in player order."""
    axes = "abcdefghijklmopqrstuvwxyz"[:m]
    return ",".join([axes] + [a for j, a in enumerate(axes) if j != player]) + "->" + axes[player]


def payoff_against(game, player, strategies):
    """Payoff of each of ``player``'s actions against the others' mixtures,
    one ``StageGame`` at a time."""
    others = [np.asarray(strategies[j], dtype=float) for j in range(game.m) if j != player]
    return np.einsum(_contract(game.m, player), game.payoffs[player], *others)


def expected_payoffs(game, strategies):
    """Expected payoff per player under a mixed profile."""
    return np.array(
        [float(np.dot(strategies[i], payoff_against(game, i, strategies))) for i in range(game.m)]
    )


def best_response_gap(game, strategies):
    """Per-player gain of the best pure deviation over the played profile."""
    gaps = np.empty(game.m)
    for i in range(game.m):
        vec = payoff_against(game, i, strategies)
        gaps[i] = float(vec.max() - np.dot(strategies[i], vec))
    return gaps


def regret_matching_reference(game, eps_target=1e-3, max_iter=200_000, stall_checks=300):
    """Average regret-matching play on one game, one player vector at a
    time: the best averaged profile seen, its payoffs, its slack and the
    stop step."""
    sizes = game.shape
    regrets = [np.zeros(s) for s in sizes]
    sums = [np.zeros(s) for s in sizes]
    current = [np.full(s, 1.0 / s) for s in sizes]
    best, stalled = None, 0
    for t in range(1, max_iter + 1):
        for i in range(game.m):
            vec = payoff_against(game, i, current)
            regrets[i] += vec - float(np.dot(current[i], vec))
        for i in range(game.m):
            sums[i] += current[i]
            pos = np.clip(regrets[i], 0.0, None)
            total = pos.sum()
            current[i] = pos / total if total > 0 else np.full(sizes[i], 1.0 / sizes[i])
        if t % 250 == 0 or t == max_iter:
            avg = tuple(s / s.sum() for s in sums)
            eps = float(max(best_response_gap(game, avg)))
            if best is None or eps < best[0]:
                best, stalled = (eps, avg), 0
            else:
                stalled += 1
            if eps <= eps_target or stalled >= stall_checks:
                break
    eps, avg = best
    return avg, expected_payoffs(game, avg), eps, t


def nash_two_reference(a, b, br_tol=1e-10, dedupe_tol=1e-8, perturb_scale=1e-12):
    """Equilibria of one bimatrix game by scalar support enumeration.

    Perturbs the game lexicographically, solves each support pair's two
    indifference systems on their own in (size, rows, cols) order, checks
    every nonnegative solution against the unperturbed payoffs, drops
    near-duplicates and sorts by (payoffs, strategies). Returns a list of
    ((x, y), payoffs).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    k1, k2 = a.shape
    n = k1 * k2
    scale = perturb_scale * max(1.0, max(float(np.max(np.abs(p))) for p in (a, b)))
    pa, pb = (
        p + scale * ((np.arange(n, dtype=float) * 2 + i + 1.0) / (n * 2 + 1.0)).reshape(k1, k2)
        for i, p in enumerate((a, b))
    )
    candidates = []
    for r in range(1, min(k1, k2) + 1):
        for rows in itertools.combinations(range(k1), r):
            for cols in itertools.combinations(range(k2), r):
                block_a = pa[list(rows)][:, list(cols)]
                block_b = pb[list(rows)][:, list(cols)]
                lhs_y = np.zeros((r + 1, r + 1))
                lhs_y[:r, :r] = block_a
                lhs_y[:r, r] = -1.0
                lhs_y[r, :r] = 1.0
                lhs_x = np.zeros((r + 1, r + 1))
                lhs_x[:r, :r] = block_b.T
                lhs_x[:r, r] = -1.0
                lhs_x[r, :r] = 1.0
                rhs = np.zeros(r + 1)
                rhs[r] = 1.0
                try:
                    sol_y = np.linalg.solve(lhs_y, rhs)
                    sol_x = np.linalg.solve(lhs_x, rhs)
                except np.linalg.LinAlgError:
                    continue
                x, y = sol_x[:r], sol_y[:r]
                if x.min() < -1e-9 or y.min() < -1e-9:
                    continue
                x = np.clip(x, 0.0, None)
                y = np.clip(y, 0.0, None)
                if x.sum() <= 0 or y.sum() <= 0:
                    continue
                full_x = np.zeros(k1)
                full_x[list(rows)] = x / x.sum()
                full_y = np.zeros(k2)
                full_y[list(cols)] = y / y.sum()
                candidates.append((full_x, full_y))
    points = []
    for x, y in candidates:
        vec_a = np.einsum("ab,b->a", a, y)
        vec_b = np.einsum("ab,a->b", b, x)
        gaps = [float(vec_a.max() - np.dot(x, vec_a)), float(vec_b.max() - np.dot(y, vec_b))]
        if max(gaps) > br_tol:
            continue
        flat = np.concatenate([x, y])
        if any(np.max(np.abs(flat - known)) <= dedupe_tol for known, _ in points):
            continue
        payoffs = np.array([float(np.dot(x, vec_a)), float(np.dot(y, vec_b))])
        points.append((flat, ((x, y), payoffs)))
    out = [point for _, point in points]
    out.sort(key=lambda p: (tuple(p[1]), tuple(np.concatenate(p[0]))))
    return out


# per player count, the einsum programs that contract a payoff tensor
# against the other players' mixtures
_AGAINST = {
    1: ("a->a",),
    2: ("ab,b->a", "ab,a->b"),
    3: ("abc,b,c->a", "abc,a,c->b", "abc,a,b->c"),
}


def verify_candidates_reference(payoffs, candidates, br_tol=1e-10, dedupe_tol=1e-8):
    """Verified equilibria among one game's candidate profiles, one
    candidate at a time.

    ``payoffs`` is a sequence of m payoff tensors, ``candidates`` a
    sequence of m-tuples of mixed strategies in enumeration order. Keeps
    the candidates no player can improve on by more than ``br_tol`` with
    a pure deviation, drops those within ``dedupe_tol`` of a kept one,
    and sorts by (payoffs, strategies). Returns a list of (strategies,
    payoffs).
    """
    programs = _AGAINST[len(payoffs)]
    points = []
    for strategies in candidates:
        vecs = [
            np.einsum(program, payoffs[i], *(s for j, s in enumerate(strategies) if j != i))
            for i, program in enumerate(programs)
        ]
        played = [np.dot(s, vec) for s, vec in zip(strategies, vecs)]
        if max(float(vec.max() - v) for vec, v in zip(vecs, played)) > br_tol:
            continue
        flat = np.concatenate(strategies)
        if any(np.max(np.abs(flat - known)) <= dedupe_tol for known, _ in points):
            continue
        points.append((flat, (tuple(strategies), np.array(played))))
    out = [point for _, point in points]
    out.sort(key=lambda p: (tuple(p[1]), tuple(np.concatenate(p[0]))))
    return out


def points_of(arrays, g):
    """Game ``g``'s equilibria from a stage layer's padded arrays, as a list
    of ``NashPoint``s, after checking that its slots past the count hold
    zeros.

    ``(counts, strategies, payoffs)`` from ``smpe.nash`` keeps the
    per-player strategies; ``(counts, payoffs, profiles)`` from the
    solver's stage step gives each point its concatenated global profile
    as a one-entry strategies tuple.
    """
    counts, first, second = arrays
    strategies, payoffs = (first, second) if isinstance(first, tuple) else ((second,), first)
    count = int(counts[g])
    for part in (*strategies, payoffs):
        assert part.shape[1] >= count and not np.any(part[g, count:])
    return [
        NashPoint(strategies=tuple(s[g, j] for s in strategies), payoffs=payoffs[g, j])
        for j in range(count)
    ]


def stage_stack_reference(table, spec, states, actions):
    """Stage payoffs at ``states`` restricted to ``actions``, as one
    (m, len(states), k_1, ..., k_m) stack sliced from the whole
    stage-payoff ``table`` by ``np.ix_``."""
    full = table[:, states].reshape((spec.players, len(states)) + spec.profile_shape)
    return full[np.ix_(range(spec.players), range(len(states)), *actions)]


def atom_operator_reference(f2, c, v2, spec):
    """One step of the atom operator from scratch: the whole stage-payoff
    table, the atom rows sliced per feasible-action signature, and each
    player's best payoff against the others' atom strategies, read atom by
    atom from ``f2``'s (n_atoms, sum of action counts) global profiles."""
    table = stage_payoff_tensor(c, v2, spec)
    atoms = spec.space.atom_indices
    offsets = np.cumsum([0] + [len(a) for a in spec.actions])
    new = np.empty((spec.players, len(atoms)))
    for actions, members, *_ in _signature_groups(spec, atoms):
        stack = stage_stack_reference(table, spec, atoms[members], actions)
        local = [
            np.array([f2[a_idx][offsets[i] + actions[i]] for a_idx in members], dtype=float)
            for i in range(spec.players)
        ]
        for i in range(spec.players):
            new[i, members] = payoff_against_stack(stack, i, local).max(axis=1)
    return new


def atom_fixed_point_reference(f2, c, spec, v2_init, tol):
    """Iterate :func:`atom_operator_reference` under the library's step
    cap and stopping rule; returns (v2, iterations)."""
    beta = float(spec.discounts.max())
    extra = max(0.0, math.log(max(spec.payoff_bound, 1.0)))
    cap = 1 if beta == 0.0 else math.ceil((math.log(tol) - extra) / math.log(beta)) + 1
    v2 = np.array(v2_init, dtype=float)
    for iterations in range(1, cap + 1):
        new = atom_operator_reference(f2, c, v2, spec)
        delta = float(np.max(np.abs(new - v2)))
        v2 = new
        if delta <= tol:
            break
    return v2, iterations


def comparison_draw_reference(cum, rows, u):
    """Inverse-CDF draws by comparison: for each row ``r`` and uniform ``u``
    the count ``#{j : cum[r, j] < u}``, one full row at a time."""
    cum = np.asarray(cum, dtype=float)
    return (np.asarray(u)[:, None] > cum[np.asarray(rows)]).sum(axis=1)


def project_to_hull_reference(target, points):
    """Euclidean projection of one ``target`` onto the hull of its (n, d)
    ``points``, one support at a time: supports in (size, lexicographic)
    order, each by ``np.linalg.lstsq`` (minimum norm on a singular
    system), a support taken when closer by more than 1e-15, the search
    stopped within 1e-15 of the target. Returns ``(point, weights)``."""
    pts = np.asarray(points, dtype=float)
    tgt = np.asarray(target, dtype=float)
    n, d = pts.shape
    if n == 1:
        return pts[0].copy(), np.ones(1)
    best = None  # (dist, point, weights)
    for size in range(1, min(n, d + 1) + 1):
        for support in itertools.combinations(range(n), size):
            sub = pts[list(support)]
            base = sub[-1]
            if size == 1:
                cand, w_sub = base, np.ones(1)
            else:
                span = (sub[:-1] - base).T  # (d, size - 1)
                z, *_ = np.linalg.lstsq(span, tgt - base, rcond=None)
                w_sub = np.concatenate([z, [1.0 - z.sum()]])
                if np.min(w_sub) < -1e-12:
                    continue
                w_sub = np.clip(w_sub, 0.0, None)
                w_sub /= w_sub.sum()
                cand = w_sub @ sub
            dist = float(np.linalg.norm(cand - tgt))
            if best is None or dist < best[0] - 1e-15:
                weights = np.zeros(n)
                weights[list(support)] = w_sub
                best = (dist, cand, weights)
                if dist <= 1e-15:
                    return best[1], best[2]
    return best[1], best[2]


def feasible_profiles_reference(spec, state):
    """Boolean mask over flat profile indices that are feasible at ``state``."""
    mask = np.ones(spec.profile_shape, dtype=bool)
    for i, feas in enumerate(spec.feasible):
        shape = [1] * spec.players
        shape[i] = -1
        mask &= feas[state].reshape(shape)
    return mask.reshape(-1)


def validate_game_reference(spec, tol=NORMALIZATION_TOL):
    """``validate_game`` one state and one player at a time."""
    violations = []
    if np.any(spec.kernel.rho < 0) or np.any(spec.kernel.q < 0) or np.any(spec.atom_kernel < 0):
        violations.append("negative kernel component")
    feas_any = np.zeros((spec.players, spec.n_states), dtype=bool)
    for i, feas in enumerate(spec.feasible):
        feas_any[i] = feas.any(axis=1)
    if not feas_any.all():
        player, state = np.argwhere(~feas_any)[0]
        violations.append(f"empty feasible set for player {player} at state {state}")
    div_mass = np.einsum("je,jesx->sx", spec.moment_weights(), spec.kernel.q)
    total = div_mass + spec.atom_kernel.sum(axis=0)
    bad = 0
    for s in range(spec.n_states):
        mask = feasible_profiles_reference(spec, s)
        off = np.abs(total[s] - 1.0)
        off[~mask] = 0.0
        x = int(np.argmax(off))
        if off[x] > tol:
            bad += 1
            if bad <= 5:
                violations.append(
                    f"normalization {total[s, x]:g} != 1 at state {s}, profile {x}"
                )
    if bad > 5:
        violations.append(f"normalization fails at {bad} states in total")
    for i in range(spec.players):
        for s in range(spec.n_states):
            mask = feasible_profiles_reference(spec, s)
            worst = np.max(np.abs(spec.payoffs[i, s][mask])) if mask.any() else 0.0
            if worst > spec.payoff_bound + 1e-12:
                violations.append(
                    f"payoff bound exceeded: |u| = {worst:g} > C = {spec.payoff_bound:g}"
                    f" (player {i}, state {s})"
                )
                break
    atoms = spec.space.atom_indices
    no_g_atom = not (len(atoms) and np.any(spec.kernel.rho[:, atoms] > 0))
    return ValidationReport(passed=not violations, violations=tuple(violations), no_g_atom=no_g_atom)


def check_coarser_reference(kmtx, tol=ROW_MATCH_TOL):
    """``check_coarser`` one covered coarse cell at a time."""
    space = kmtx.space
    if not np.all(space.divisible[kmtx.rows]):
        return False
    coarse_of_rows = space.coarse[kmtx.rows]
    masses = np.asarray(space.masses, dtype=float)
    for e in set(int(c) for c in coarse_of_rows):
        members = space.coarse_members(e)
        if np.any(~space.divisible[members] & (masses[members] > 0)):
            return False  # a covered coarse cell hides an indivisible chunk
        block = kmtx.matrix[coarse_of_rows == e]
        if block.shape[0] > 1:
            spread = block.max(axis=0) - block.min(axis=0)
            if spread.max() > tol:
                return False
    return True


def sunspot_extend_reference(spec, sunspot_cells):
    """``sunspot_extend`` with the new grid built one cell and one copy at a
    time (its input checks left to the library)."""
    old = spec.space
    masses, divisible, coarse, origin = [], [], [], []
    for k in range(old.n_cells):
        copies = sunspot_cells if old.divisible[k] else 1
        for _ in range(copies):
            masses.append(old.masses[k] / copies)
            divisible.append(bool(old.divisible[k]))
            coarse.append(k)
            origin.append(k)
    origin = np.asarray(origin)
    new_space = GridSpace(
        np.asarray(masses, dtype=float),
        np.asarray(divisible, dtype=bool),
        np.asarray(coarse, dtype=int),
    )
    feasible = tuple(f[origin] for f in spec.feasible)
    payoffs = spec.payoffs[:, origin, :]
    rho = spec.kernel.rho[:, origin]
    # new coarse cell k0 is the old fine cell k0: look up the old coarse table
    # at old coarse id of k0, for the old source state behind each new state
    q_old_coarse = spec.kernel.q[:, old.coarse, :, :]  # (J, old_cells, old_s, x)
    q = q_old_coarse[:, :, origin, :]
    atom_kernel = spec.atom_kernel[:, origin, :]
    return replace(
        spec,
        feasible=feasible,
        payoffs=payoffs,
        space=new_space,
        kernel=KernelDecomposition(rho=rho, q=q),
        atom_kernel=atom_kernel,
    )


def deviation_residual_reference(result, spec):
    """``deviation_residual``'s epsilon, gains and recursion gap one piece
    at a time: a ``tensordot`` per piece and player for the gains, and a
    loop per piece and target cell for the piece transition of the exact
    evaluation. Checks nothing; returns (epsilon, gains, recursion)."""
    offsets = np.cumsum([0] + [len(a) for a in spec.actions])
    pieces = []
    for k in range(spec.n_states):
        for p, (vp, sp) in enumerate(zip(result.values.pieces[k], result.strategies.pieces[k])):
            strategy = np.asarray(sp.value, dtype=float)
            strat = [strategy[offsets[i] : offsets[i + 1]] for i in range(spec.players)]
            pieces.append((k, float(vp.fraction), np.asarray(vp.value, dtype=float), strat))
    averages = np.asarray(result.values.averages(), dtype=float)
    masses = np.asarray(spec.space.masses, dtype=float)
    atoms = spec.space.atom_indices
    cont = np.einsum("k,ksx,ki->isx", masses, spec.cell_density(), averages)
    if len(atoms):
        cont += np.einsum("asx,ai->isx", spec.atom_kernel, averages[atoms])
    beta = spec.discounts[:, None, None]
    one_shot = (1.0 - beta) * spec.payoffs + beta * cont

    gains = np.zeros((len(pieces), spec.players))
    for idx, (k, _frac, value, strat) in enumerate(pieces):
        for i in range(spec.players):
            vec = one_shot[i, k].reshape(spec.profile_shape)
            for j in sorted((a for a in range(spec.players) if a != i), reverse=True):
                vec = np.tensordot(vec, strat[j], axes=([j], [0]))
            gains[idx, i] = float(vec[spec.feasible[i][k]].max()) - value[i]
    epsilon = max(0.0, float(gains.max()))

    trans_masses = spec.transition_masses()
    stage = np.zeros((spec.players, len(pieces)))
    transition = np.zeros((len(pieces), len(pieces)))
    for idx, (k, _frac, _value, strat) in enumerate(pieces):
        prob = strat[0]
        for s in strat[1:]:
            prob = np.multiply.outer(prob, s)
        prob = prob.reshape(-1)
        prob = prob / prob.sum()
        for i in range(spec.players):
            stage[i, idx] = float(np.dot(spec.payoffs[i, k], prob))
        to_cell = trans_masses[:, k, :] @ prob
        for jdx, (k2, frac2, _v, _s) in enumerate(pieces):
            if to_cell[k2] != 0.0:
                transition[idx, jdx] += to_cell[k2] * frac2
    reported = np.array([value for (_k, _f, value, _s) in pieces])
    recursion = 0.0
    for i in range(spec.players):
        b = float(spec.discounts[i])
        exact = np.linalg.solve(np.eye(len(pieces)) - b * transition, (1.0 - b) * stage[i])
        recursion = max(recursion, float(np.max(np.abs(reported[:, i] - exact))))
    return epsilon, gains, recursion


def _piece_strategies(spec, result, k):
    """Cell ``k``'s pieces as (fraction, per-player strategy vectors)."""
    offsets = np.cumsum([0] + [len(a) for a in spec.actions])
    pieces = []
    for vp, sp in zip(result.values.pieces[k], result.strategies.pieces[k]):
        strategy = np.asarray(sp.value, dtype=float)
        strat = [strategy[offsets[i] : offsets[i + 1]] for i in range(spec.players)]
        pieces.append((float(vp.fraction), strat))
    return pieces


def joint_law_reference(result, spec):
    """(n_states, n_profiles, n_states) law of (profile, next state) at each
    state, one piece and one profile at a time: the piece's fraction times
    the product of the players' normalized strategies times the profile's
    normalized transition masses. A profile without transition mass adds
    nothing. Checks nothing."""
    trans = spec.transition_masses()  # (target, state, profile)
    law = np.zeros((spec.n_states, spec.n_profiles, spec.n_states))
    for k in range(spec.n_states):
        for fraction, strat in _piece_strategies(spec, result, k):
            for x in range(spec.n_profiles):
                actions = spec.profile_actions(x)
                prob = fraction
                for i, a in enumerate(actions):
                    prob *= strat[i][a] / strat[i].sum()
                total = trans[:, k, x].sum()
                if prob > 0 and total > 0:
                    law[k, x] += prob * trans[:, k, x] / total
    return law


def finite_horizon_expectation_reference(result, spec, s0, horizon):
    """Exact expected discounted payoff over ``horizon`` steps from ``s0``:
    the state law is propagated step by step through
    ``joint_law_reference``."""
    law = joint_law_reference(result, spec)
    profile_law = law.sum(axis=2)  # (state, profile)
    step = law.sum(axis=1)  # (state, next state)
    stage = np.einsum("sx,isx->is", profile_law, spec.payoffs)
    state_law = np.zeros(spec.n_states)
    state_law[s0] = 1.0
    expected = np.zeros(spec.players)
    for t in range(horizon):
        expected += (1.0 - spec.discounts) * spec.discounts**t * (stage @ state_law)
        state_law = state_law @ step
    return expected


def simulate_payoffs_reference(spec, result, s0, paths, seed, horizon):
    """The chain sampler: each path and step draws a piece of its cell by
    the fractions, each player's action from that piece's strategy and the
    next state from the profile's transition masses, ``players + 2``
    uniforms per path and step, in blocks of ``CHUNK_PATHS`` paths keyed
    on (seed, block), each draw a full comparison over a cumulative table.
    It has the path law of ``simulate_payoffs``, not its random stream.
    Checks nothing; returns (means, std_errors, occupancy)."""
    S = spec.n_states
    pieces = [_piece_strategies(spec, result, k) for k in range(S)]
    counts = np.array([len(p) for p in pieces])
    piece_base = np.cumsum(counts) - counts
    fractions = np.zeros((S, counts.max()))
    for k in range(S):
        fractions[k, : counts[k]] = [fraction for fraction, _ in pieces[k]]
    piece_cum = np.cumsum(fractions, axis=1)
    piece_cum[np.arange(counts.max()) >= counts[:, None] - 1] = 1.0
    action_cum = []
    for i in range(spec.players):
        probs = np.array([strat[i] for cell in pieces for _, strat in cell])
        rows = np.cumsum(probs / probs.sum(axis=1, keepdims=True), axis=1)
        rows[:, -1] = 1.0
        action_cum.append(rows)
    trans_rows = spec.transition_masses().transpose(1, 2, 0).reshape(-1, S)  # (s*x, target)
    trans_cum = np.cumsum(trans_rows, axis=1)
    total = trans_cum[:, -1:]
    trans_cum = np.divide(trans_cum, total, out=np.ones_like(trans_cum), where=total > 0)
    strides = [int(np.prod(spec.profile_shape[i + 1 :])) for i in range(spec.players)]
    weights = np.array([(1.0 - b) * b ** np.arange(horizon) for b in spec.discounts])
    payoff_flat = spec.payoffs.reshape(spec.players, -1)

    total_sum = np.zeros(spec.players)
    total_sq = np.zeros(spec.players)
    visits = np.zeros(S)
    for chunk in range((paths + CHUNK_PATHS - 1) // CHUNK_PATHS):
        n = min(CHUNK_PATHS, paths - chunk * CHUNK_PATHS)
        rng = np.random.Generator(
            np.random.Philox(key=np.array([seed % 2**64, chunk], dtype=np.uint64))
        )
        states = np.full(n, s0, dtype=int)
        acc = np.zeros((spec.players, n))
        for t in range(horizon):
            u = rng.random((spec.players + 2, n))
            pid = piece_base[states] + comparison_draw_reference(piece_cum, states, u[0])
            row = states * spec.n_profiles
            for i in range(spec.players):
                row += comparison_draw_reference(action_cum[i], pid, u[i + 1]) * strides[i]
            acc += weights[:, t, None] * np.take(payoff_flat, row, axis=1)
            states = comparison_draw_reference(trans_cum, row, u[-1])
            if t + 1 < horizon:
                visits += np.bincount(states, minlength=S)
        total_sum += acc.sum(axis=1)
        total_sq += (acc**2).sum(axis=1)
    means = total_sum / paths
    if paths > 1:
        var = np.clip(total_sq / paths - means**2, 0.0, None) * paths / (paths - 1)
    else:
        var = np.zeros(spec.players)
    occupancy = visits / visits.sum() if visits.sum() > 0 else visits
    return means, np.sqrt(var / paths), occupancy


def cell_average_reference(selection, k):
    """Cell ``k``'s fraction-weighted value, summed piece by piece."""
    parts = selection.pieces[k]
    acc = parts[0].fraction * np.asarray(parts[0].value)
    for piece in parts[1:]:
        acc = acc + piece.fraction * np.asarray(piece.value)
    return acc


def averages_reference(selection):
    """Every cell's average, as floats when they convert."""
    rows = [cell_average_reference(selection, k) for k in range(selection.n_cells)]
    out = np.empty((selection.n_cells, len(rows[0])), dtype=object)
    for k, row in enumerate(rows):
        out[k] = row
    try:
        return out.astype(float)
    except (TypeError, ValueError):
        return out


def validate_selection_reference(selection, space, tol=MASS_TOL):
    """The selection checks cell by cell, raising at the first offending cell."""
    if selection.n_cells != space.n_cells:
        raise InvalidInput("selection cell count does not match the space")
    for k, parts in enumerate(selection.pieces):
        if not parts:
            raise InvalidInput(f"cell {k} carries no pieces")
        if not space.divisible[k] and len(parts) != 1:
            raise InvalidInput(f"atomic cell {k} must carry a single piece")
        total = sum(p.fraction for p in parts)
        if space.exact or isinstance(total, Fraction):
            bad = total != 1 or any(p.fraction < 0 for p in parts)
        else:
            bad = not abs(float(total) - 1.0) <= tol or any(p.fraction < -tol for p in parts)
        if bad:
            raise InvalidInput(f"cell {k} fractions must be nonnegative and sum to 1")
