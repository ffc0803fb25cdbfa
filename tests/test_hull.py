"""Stacked hull projection against the per-set reference, and the exact
Caratheodory search."""

from fractions import Fraction

import numpy as np
import pytest

from smpe.hull import convex_weights_exact, project_to_hull

from oracles import project_to_hull_reference


def random_sets(rng, c, n, d):
    """c point sets of n points in [-1, 1]^d, each generic, with a repeated
    point or with three collinear points (the third at 2 p_j - p_i), and
    per set a target on the segment between two of its points or outside
    the box [-3, 3]^d that holds every hull."""
    points = rng.uniform(-1.0, 1.0, (c, n, d))
    targets = np.empty((c, d))
    for r in range(c):
        kind = rng.integers(3)
        if kind == 1 and n >= 2:
            i, j = rng.choice(n, 2, replace=False)
            points[r, j] = points[r, i]
        elif kind == 2 and n >= 3:
            i, j, k = rng.choice(n, 3, replace=False)
            points[r, k] = 2.0 * points[r, j] - points[r, i]
        if n >= 2 and rng.integers(2):
            i, j = rng.choice(n, 2, replace=False)
            targets[r] = 0.25 * points[r, i] + 0.75 * points[r, j]
        else:
            targets[r] = rng.uniform(-3.0, 3.0, d)
            targets[r, rng.integers(d)] = rng.choice([-4.0, 4.0])
    return points, targets


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_project_to_hull_matches_per_set_reference(n, d):
    rng = np.random.default_rng([n, d])
    points, targets = random_sets(rng, 40, n, d)
    point, weights = project_to_hull(targets, points)
    assert point.shape == (40, d) and weights.shape == (40, n)
    for r in range(40):
        ref_point, ref_weights = project_to_hull_reference(targets[r], points[r])
        assert np.array_equal(weights[r] > 0, ref_weights > 0)
        np.testing.assert_allclose(point[r], ref_point, rtol=0, atol=1e-14)
        np.testing.assert_allclose(weights[r], ref_weights, rtol=0, atol=1e-14)


def test_edge_shared_by_two_triangles_goes_to_the_edge():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    point, weights = project_to_hull([0.25, 0.75], square)
    assert point.shape == (2,) and weights.shape == (4,)
    np.testing.assert_allclose(point, [0.25, 0.75], rtol=0, atol=1e-15)
    np.testing.assert_allclose(weights, [0.0, 0.25, 0.75, 0.0], rtol=0, atol=1e-15)


def test_stacked_rows_equal_their_stacks_of_one():
    # 480 rows, exactly singular supports (a repeated point, three collinear
    # integer points) mixed with regular ones: no row may depend on the others
    rng = np.random.default_rng(7)
    for n, d in [(3, 2), (4, 2), (5, 2), (4, 3), (5, 3), (3, 1)]:
        points = rng.integers(-3, 4, (80, n, d)).astype(float)
        points[::3, -1] = points[::3, 0]
        if n >= 3:
            points[1::3, 2] = 2.0 * points[1::3, 1] - points[1::3, 0]
        targets = rng.integers(-8, 9, (80, d)) / 2.0
        point, weights = project_to_hull(targets, points)
        for r in range(80):
            one_point, one_weights = project_to_hull(targets[r], points[r])
            assert np.array_equal(point[r], one_point)
            assert np.array_equal(weights[r], one_weights)


def test_exact_search_refuses_a_target_beyond_collinear_points():
    # every pair gives the target a negative weight, and the three collinear
    # points leave the full-size system underdetermined
    points = [(Fraction(x), Fraction(0)) for x in (0, 1, 2)]
    assert convex_weights_exact((Fraction(3), Fraction(0)), points) is None
