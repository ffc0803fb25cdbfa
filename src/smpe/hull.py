"""Small-scale convex hull helpers: Caratheodory weights of hull points.

Everything here is deterministic. Supports are searched in order of
(size, lexicographic index tuple), so the reported weight vector for a
feasible target is always the one with the lexicographically smallest
support of Caratheodory size (at most dimension + 1).

There is one routine per arithmetic: :func:`project_to_hull` in floats,
which returns the nearest hull point with its weights and serves both
the solver and float purification, and :func:`convex_weights_exact` in
``fractions.Fraction`` arithmetic for exact-mode purification.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np


def solve_exact(rows, rhs):
    """Solve a linear system with Fraction arithmetic.

    ``rows`` is a list of equation rows, ``rhs`` the right-hand sides.
    Returns the unique solution as a list of Fractions, or None when the
    system is inconsistent or does not pin down a unique solution.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    pivots = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, m) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = a[r][col]
        a[r] = [v / inv for v in a[r]]
        for i in range(m):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [vi - f * vr for vi, vr in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if a[i][n] != 0:
            return None  # inconsistent
    if len(pivots) < n:
        return None  # underdetermined
    x = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        x[col] = a[i][n]
    return x


def _supports(n_points, max_size):
    for size in range(1, max_size + 1):
        yield from itertools.combinations(range(n_points), size)


def convex_weights_exact(target, points):
    """Exact convex-combination weights of ``target`` over ``points``.

    ``points`` is a sequence of Fraction coordinate tuples. Returns a list
    of Fractions over all points (zeros off the support) or None when the
    target is outside the convex hull.
    """
    pts = [tuple(Fraction(v) for v in p) for p in points]
    tgt = tuple(Fraction(v) for v in target)
    d = len(tgt)
    for support in _supports(len(pts), min(len(pts), d + 1)):
        rows = [[pts[j][coord] for j in support] for coord in range(d)]
        rows.append([Fraction(1)] * len(support))
        sol = solve_exact(rows, list(tgt) + [Fraction(1)])
        if sol is None or any(w < 0 for w in sol):
            continue
        weights = [Fraction(0)] * len(pts)
        for j, w in zip(support, sol):
            weights[j] = w
        return weights
    return None


def project_to_hull(target, points):
    """Euclidean projection of ``target`` onto the convex hull of ``points``.

    Returns ``(point, weights)`` where ``weights`` has Caratheodory-size
    support (at most dimension + 1); ties between equally close faces are
    broken toward the lexicographically earliest support.
    """
    pts = np.asarray(points, dtype=float)
    tgt = np.asarray(target, dtype=float)
    n, d = pts.shape
    if n == 1:
        w = np.ones(1)
        return pts[0].copy(), w
    best = None  # (dist, point, weights)
    for support in _supports(n, min(n, d + 1)):
        sub = pts[list(support)]
        base = sub[-1]
        if len(support) == 1:
            cand, w_sub = base, np.ones(1)
        else:
            span = (sub[:-1] - base).T  # (d, size-1)
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
                break
    return best[1], best[2]
