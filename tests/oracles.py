"""Independent brute-force oracles, kept apart from the library's code paths.

Most of what is here uses exact rational arithmetic and exhaustive
enumeration so that library results can be checked against a second,
structurally different computation. The exceptions are
``nash_two_reference``, two-player support enumeration one game and one
support system at a time in floating point with the arithmetic of the
library's stacked enumerator, ``atom_operator_reference``, the atom
operator computed from the full stage-payoff table at every step, and
``comparison_draw_reference``, the simulation's inverse-CDF draw by a
full comparison over each row; they pin an optimized library path to a
plain one bit for bit.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from smpe.nash import payoff_against_stack, stage_payoff_tensor
from smpe.solver import _signature_groups, _stage_stack


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


def atom_operator_reference(f2, c, v2, spec):
    """One step of the atom operator from scratch: the whole stage-payoff
    table, the atom rows sliced per feasible-action signature, and each
    player's best payoff against the others' atom strategies."""
    table = stage_payoff_tensor(c, v2, spec)
    atoms = spec.space.atom_indices
    new = np.empty((spec.players, len(atoms)))
    for actions, members in _signature_groups(spec, atoms):
        stack = _stage_stack(table, spec, atoms[members], actions)
        local = [
            np.array([f2[a_idx][i] for a_idx in members], dtype=float)[:, actions[i]]
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
