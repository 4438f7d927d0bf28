"""Orientation and in-sphere predicates with an exact rational fallback.

Doubles are dyadic rationals, so ``fractions.Fraction`` evaluates any
polynomial predicate over them exactly. The fast path evaluates the float
determinant together with a forward error bound built from the permanent of
the absolute matrix; only near-zero results fall back to rational
arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

import numpy as np

# Unit roundoff for doubles, inflated to cover the accumulation constants of
# the small determinant formulas used here (m <= 4).
_EPS = np.finfo(float).eps
_FILTER = 32.0 * _EPS


def _abs_permanent(a: np.ndarray) -> float:
    """Permanent of ``abs(a)``; upper bound for the determinant magnitude."""
    n = a.shape[0]
    if n == 1:
        return abs(a[0, 0])
    if n == 2:
        return abs(a[0, 0] * a[1, 1]) + abs(a[0, 1] * a[1, 0])
    total = 0.0
    for perm in permutations(range(n)):
        term = 1.0
        for i, j in enumerate(perm):
            term *= abs(a[i, j])
        total += term
    return total


def _det_exact_sign(a: np.ndarray) -> int:
    rows = [[Fraction(x) for x in row] for row in a.tolist()]
    det = _fraction_det(rows)
    return (det > 0) - (det < 0)


def _fraction_det(rows: list[list[Fraction]]) -> Fraction:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    det = Fraction(0)
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * _fraction_det(minor)
        det += term if j % 2 == 0 else -term
    return det


def det_sign(a: np.ndarray) -> int:
    """Sign of ``det(a)`` for a small square matrix, exact on ties."""
    a = np.asarray(a, dtype=float)
    det = float(np.linalg.det(a))
    bound = _FILTER * _abs_permanent(a)
    if abs(det) > bound:
        return 1 if det > 0 else -1
    return _det_exact_sign(a)


def orientation(base: np.ndarray, others: np.ndarray) -> int:
    """Sign of the orientation determinant of ``others`` relative to ``base``.

    ``others`` holds m row vectors in R^m; the sign is that of
    ``det(others - base)``.
    """
    return det_sign(np.asarray(others, dtype=float) - np.asarray(base, dtype=float))


def side_of_plane(plane_points: np.ndarray, query: np.ndarray) -> int:
    """Which side of the hyperplane through ``plane_points`` holds ``query``.

    ``plane_points`` holds m points of R^m spanning a hyperplane; returns the
    sign of the orientation determinant, 0 when ``query`` lies on the plane.
    """
    plane_points = np.asarray(plane_points, dtype=float)
    rows = np.vstack([plane_points[1:], np.asarray(query, dtype=float)])
    return orientation(plane_points[0], rows)


def in_sphere(simplex_points: np.ndarray, query: np.ndarray) -> int:
    """Exact-on-ties in-sphere test via the lifted determinant.

    ``simplex_points`` holds m+1 affinely independent points of R^m with
    positive orientation. Returns +1 when ``query`` is strictly inside their
    circumsphere, -1 when strictly outside, 0 when on it. Orientation of the
    input is normalised internally.
    """
    pts = np.asarray(simplex_points, dtype=float)
    q = np.asarray(query, dtype=float)
    orient = orientation(pts[0], pts[1:])
    if orient == 0:
        raise ValueError("in_sphere needs affinely independent simplex points")
    lifted = np.hstack([pts - q, ((pts - q) ** 2).sum(axis=1, keepdims=True)])
    # The lifted determinant's inside-sign alternates with the ambient
    # dimension under this orientation convention.
    parity = -1 if pts.shape[1] % 2 else 1
    return parity * orient * det_sign(lifted)

