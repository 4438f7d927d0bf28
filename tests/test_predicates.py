"""Exactness tests for the orientation / in-sphere predicates.

The reference sign is recomputed inside the tests with Fraction Gaussian
elimination, a code path disjoint from the library's cofactor fallback, so
agreement on random and adversarial inputs is meaningful.
"""

from fractions import Fraction

import numpy as np
import pytest

from delgen.predicates import det_sign, in_sphere, orientation, side_of_plane


def fraction_det_sign(a):
    """Sign of det(a) by exact fractionless-pivot elimination."""
    rows = [[Fraction(x) for x in row] for row in np.asarray(a, dtype=float).tolist()]
    n = len(rows)
    sign = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            sign = -sign
        for r in range(col + 1, n):
            factor = rows[r][col] / rows[col][col]
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    for col in range(n):
        if rows[col][col] < 0:
            sign = -sign
    return sign


def test_det_sign_known_values():
    assert det_sign(np.eye(3)) == 1
    assert det_sign(np.array([[0.0, 1.0], [1.0, 0.0]])) == -1
    assert det_sign(np.array([[1.0, 2.0], [2.0, 4.0]])) == 0


def test_det_sign_random_matches_fraction_oracle():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4, 5):
        for _ in range(200):
            a = rng.normal(size=(n, n))
            assert det_sign(a) == fraction_det_sign(a)


def test_det_sign_near_singular_scaled():
    # Rank-one plus a dyadic speck: float det is noise, the sign is exact.
    rng = np.random.default_rng(11)
    for _ in range(100):
        u = rng.normal(size=3)
        v = rng.normal(size=3)
        a = np.outer(u, v)
        a[2, 2] += 2.0**-40
        assert det_sign(a) == fraction_det_sign(a)


def test_det_sign_exact_ties():
    # Matrices with exactly dependent dyadic rows must return 0, not noise.
    base = np.array([[0.5, 0.25, 1.0], [0.125, 2.0, 0.75]])
    for a_coef, b_coef in [(1, 1), (2, -1), (-3, 2), (7, 5)]:
        third = a_coef * base[0] + b_coef * base[1]
        assert det_sign(np.vstack([base, third])) == 0


def test_orientation_triangle():
    base = np.array([0.0, 0.0])
    assert orientation(base, np.array([[1.0, 0.0], [0.0, 1.0]])) == 1
    assert orientation(base, np.array([[0.0, 1.0], [1.0, 0.0]])) == -1
    assert orientation(base, np.array([[1.0, 1.0], [2.0, 2.0]])) == 0


def test_side_of_plane_2d():
    line = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert side_of_plane(line, np.array([0.5, 1.0])) == 1
    assert side_of_plane(line, np.array([0.5, -1.0])) == -1
    assert side_of_plane(line, np.array([17.0, 0.0])) == 0


def test_side_of_plane_collinear_dyadic_offsets():
    # Points displaced off a line by one ulp-scale dyadic step keep their sign.
    line = np.array([[0.0, 0.0], [1.0, 1.0]])
    eps = 2.0**-50
    assert side_of_plane(line, np.array([0.5, 0.5 + eps])) == 1
    assert side_of_plane(line, np.array([0.5, 0.5 - eps])) == -1
    assert side_of_plane(line, np.array([0.5, 0.5])) == 0


def test_in_sphere_unit_circle():
    tri = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    assert in_sphere(tri, np.array([0.0, 0.0])) == 1
    assert in_sphere(tri, np.array([2.0, 0.0])) == -1
    assert in_sphere(tri, np.array([0.0, -1.0])) == 0


def test_in_sphere_orientation_normalised():
    # The verdict must not depend on the vertex order handed in.
    tri_ccw = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    tri_cw = tri_ccw[::-1]
    for q in (np.array([0.1, 0.3]), np.array([3.0, 3.0]), np.array([0.0, -1.0])):
        assert in_sphere(tri_ccw, q) == in_sphere(tri_cw, q)


def test_in_sphere_flat_simplex_rejected():
    flat = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(ValueError):
        in_sphere(flat, np.array([0.0, 1.0]))


def test_in_sphere_3d_cocircular_grid():
    # Corner tetrahedron of the unit cube: circumsphere is the cube's
    # circumsphere iff the fourth point sits symmetrically; check exact zeros
    # on the sphere through (0,0,0),(1,0,0),(0,1,0),(0,0,1), centre (.5,.5,.5).
    tet = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert in_sphere(tet, np.array([1.0, 1.0, 0.0])) == 0
    assert in_sphere(tet, np.array([1.0, 1.0, 1.0])) == 0
    assert in_sphere(tet, np.array([0.5, 0.5, 0.5])) == 1
    assert in_sphere(tet, np.array([2.0, 0.0, 0.0])) == -1


def test_in_sphere_random_agrees_with_circumball_oracle():
    # Geometric oracle: solve for the circumcentre, compare |q - c| with the
    # radius, skip only razor-thin margins the float oracle cannot call.
    rng = np.random.default_rng(23)
    for m in (2, 3, 4):
        for _ in range(200):
            pts = rng.normal(size=(m + 1, m))
            a = pts[1:] - pts[0]
            if abs(np.linalg.det(a)) < 1e-6:
                continue
            c = pts[0] + np.linalg.solve(a, 0.5 * (a**2).sum(axis=1))
            r = float(np.linalg.norm(c - pts[0]))
            q = rng.normal(size=m)
            margin = float(np.linalg.norm(q - c)) - r
            if abs(margin) < 1e-9 * r:
                continue
            assert in_sphere(pts, q) == (1 if margin < 0 else -1)
