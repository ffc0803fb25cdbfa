"""Small-scale convex hull helpers: Caratheodory weights of hull points.

Everything here is deterministic. Supports are searched in order of
(size, lexicographic index tuple), so the reported weight vector for a
feasible target is always the one with the lexicographically smallest
support of Caratheodory size (at most dimension + 1).

There is one routine per arithmetic. :func:`project_to_hull` works in
floats on a stack of point sets with the same number of points: it
returns each set's nearest hull point with its weights, solving every
support size in one batched operation over (sets x supports), and
serves both the solver and float purification, one call per point
count. :func:`convex_weights_exact` works one set at a time in
``fractions.Fraction`` arithmetic for exact-mode purification. One
support-order table, :func:`_support_table`, serves both arithmetics.
"""

from __future__ import annotations

import functools
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


@functools.lru_cache(maxsize=None)
def _support_table(n_points, max_size):
    """The supports of ``n_points`` points up to ``max_size`` in search
    order, as a read-only (supports, max_size) index array padded with
    ``n_points``, and each size's ``(size, start, stop)`` rows."""
    supports, spans = [], []
    for size in range(1, max_size + 1):
        combos = list(itertools.combinations(range(n_points), size))
        spans.append((size, len(supports), len(supports) + len(combos)))
        supports += [c + (n_points,) * (max_size - size) for c in combos]
    idx = np.array(supports)
    idx.flags.writeable = False
    return idx, tuple(spans)


def convex_weights_exact(target, points):
    """Exact convex-combination weights of ``target`` over ``points``.

    ``points`` is a sequence of Fraction coordinate tuples. Returns a list
    of Fractions over all points (zeros off the support) or None when the
    target is outside the convex hull.
    """
    pts = [tuple(Fraction(v) for v in p) for p in points]
    tgt = tuple(Fraction(v) for v in target)
    d = len(tgt)
    idx, spans = _support_table(len(pts), min(len(pts), d + 1))
    for size, lo, hi in spans:
        for support in idx[lo:hi, :size].tolist():
            rows = [[pts[j][coord] for j in support] for coord in range(d)]
            rows.append([Fraction(1)] * size)
            sol = solve_exact(rows, list(tgt) + [Fraction(1)])
            if sol is None or any(w < 0 for w in sol):
                continue
            weights = [Fraction(0)] * len(pts)
            for j, w in zip(support, sol):
                weights[j] = w
            return weights
    return None


_EPS = np.finfo(float).eps


@functools.cache
def _identity(size):
    """A read-only identity matrix, the stand-in for a singular system."""
    eye = np.eye(size)
    eye.flags.writeable = False
    return eye


def _face_weights(sub, target):
    """Affine weights of each ``target``'s projection onto the affine hull
    of each support of k >= 2 points, and which rows were solvable.

    ``sub`` is (c, s, k, d), each support's points in order, ``target``
    (c, d). The last point is the base; the other k - 1 span. A segment
    takes the scalar projection, a full-dimensional simplex (k = d + 1)
    its square system, and anything between the triangular system of a
    reduced QR of its span, which rounds like the square solve where the
    Gram system squares the condition number. Singular rows are marked,
    not solved.
    """
    k, d = sub.shape[-2:]
    base = sub[..., -1, :]
    rhs = target[:, None, :] - base  # (c, s, d)
    span = sub[..., :-1, :] - base[..., None, :]  # (c, s, k - 1, d)
    if k == 2:
        edge = span[..., 0, :]
        sq = (edge * edge).sum(axis=-1)
        ok = sq > 0
        z = ((rhs * edge).sum(axis=-1) / np.where(ok, sq, 1.0))[..., None]
    else:
        mat = span.swapaxes(-1, -2)
        if k < d + 1:
            q, mat = np.linalg.qr(mat)
            rhs = (q * rhs[..., :, None]).sum(axis=-2)
        # solvable: |det| above machine epsilon times the product of the
        # column norms (Hadamard's bound); an exactly singular one has det 0
        norms = np.sqrt((mat * mat).sum(axis=-2))
        ok = np.abs(np.linalg.det(mat)) > _EPS * norms.prod(axis=-1)
        mat = np.where(ok[..., None, None], mat, _identity(k - 1))
        z = np.linalg.solve(mat, rhs[..., None])[..., 0]
    return np.concatenate([z, 1.0 - z.sum(axis=-1, keepdims=True)], axis=-1), ok


def project_to_hull(target, points):
    """Euclidean projection of each ``target`` onto the convex hull of its
    ``points``.

    ``points`` is a (c, n, d) stack of c point sets and ``target`` (c, d);
    returns the (c, d) nearest points and their (c, n) weights. One
    (n, d) set with a (d,) target is a stack of one and returns (d,) and
    (n,). Each weight vector has Caratheodory-size support (at most
    d + 1): supports are tried in (size, lexicographic) order, each size
    solved at once for every set, and a support replaces the best so far
    only when it is closer by more than 1e-15, so ties go to the
    lexicographically earliest support. Supports whose affine system is
    singular (a repeated point, three collinear points) are skipped row
    by row; each row's result does not depend on the rest of the stack.
    """
    pts = np.asarray(points, dtype=float)
    tgt = np.asarray(target, dtype=float)
    single = pts.ndim == 2
    if single:
        pts, tgt = pts[None], tgt[None]
    c, n, d = pts.shape
    idx, spans = _support_table(n, min(n, d + 1))
    # a padded slot points at an appended zero point with weight 0
    sub = np.concatenate([pts, np.zeros((c, 1, d))], axis=1)[:, idx]  # (c, s, K, d)
    w = np.zeros(sub.shape[:-1])
    ok = np.ones(sub.shape[:2], dtype=bool)
    w[:, : spans[0][2], 0] = 1.0  # the single points
    for k, lo, hi in spans[1:]:
        w[:, lo:hi, :k], ok[:, lo:hi] = _face_weights(sub[:, lo:hi, :k], tgt)
    ok &= ~(w.min(axis=-1) < -1e-12)
    w = np.maximum(w, 0.0)
    w /= w.sum(axis=-1, keepdims=True)
    cand = (w[..., None] * sub).sum(axis=-2)
    dist = np.where(ok, np.sqrt(((cand - tgt[:, None]) ** 2).sum(axis=-1)), np.inf)
    # the sequential rule, one support at a time over every set; a set
    # within 1e-15 of its target can take no later support, which is the
    # early stop of a search
    choice = np.zeros(c, dtype=int)
    bar = np.full(c, np.inf)
    for j, column in enumerate(dist.T):
        closer = column < bar
        choice[closer] = j
        bar[closer] = column[closer] - 1e-15
    rows = np.arange(c)
    point = cand[rows, choice]
    weights = np.zeros((c, n + 1))
    weights[rows[:, None], idx[choice]] = w[rows, choice]
    weights = weights[:, :n]
    return (point[0], weights[0]) if single else (point, weights)
