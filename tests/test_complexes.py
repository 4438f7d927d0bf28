"""Simplicial complex structure, stars, star comparison and row keys."""

from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from delgen.complexes import (SimplicialComplex, _faces_of, row_keys, sorted_rows,
                              star_difference, star_isomorphic)
from delgen.datasets import grid_points
from delgen.delaunay import delaunay_lifted
from delgen.errors import MappingError

TWO_TRIANGLES = [(0, 1, 2), (1, 2, 3)]


def test_downward_closure():
    k = SimplicialComplex([(2, 0, 1)])
    assert (0, 1, 2) in k
    assert (0, 1) in k and (0, 2) in k and (1, 2) in k
    assert (0,) in k and (1,) in k and (2,) in k
    assert (0, 3) not in k
    assert len(k) == 7
    assert k.dimension == 2
    assert k.vertex_ids() == [0, 1, 2]


def test_vertex_order_is_canonical():
    assert SimplicialComplex([(2, 0, 1)]) == SimplicialComplex([(0, 1, 2)])
    k = SimplicialComplex([(0, 1, 2)])
    assert (2, 1, 0) in k


def test_two_triangle_stars():
    k = SimplicialComplex(TWO_TRIANGLES)
    # Closed star of vertex 0: only the triangle containing 0, with faces.
    s = k.vertex_star([0])
    assert s.simplices(2) == [(0, 1, 2)]
    assert (3,) not in s


def test_vertex_star_of_missing_vertex_is_empty():
    k = SimplicialComplex(TWO_TRIANGLES)
    assert len(k.vertex_star([9])) == 0


def rim(tops):
    """Facets of exactly one of the top simplices: the boundary of the
    region they triangulate."""
    count = Counter(f for t in tops for f in combinations(t, len(t) - 1))
    return sorted(f for f, c in count.items() if c == 1)


def test_boundary_pure_on_delaunay_sweep():
    rng = np.random.default_rng(11)
    for _ in range(10):
        pts = rng.uniform(size=(int(rng.integers(8, 25)), 2))
        res = delaunay_lifted(pts)
        if not res.generic:
            continue
        edges = rim(res.complex.simplices(2))
        # Hull boundary of a 2-complex: every boundary vertex has exactly
        # two incident boundary edges.
        for v in {v for e in edges for v in e}:
            inc = [e for e in edges if v in e]
            assert len(inc) == 2


def test_star_isomorphic_identity():
    k = SimplicialComplex(TWO_TRIANGLES)
    rep = star_isomorphic(k, k, [0], {i: i for i in range(4)})
    assert rep.isomorphic and not rep.missing and not rep.extra


def test_star_isomorphic_relabelled():
    k = SimplicialComplex(TWO_TRIANGLES)
    mapping = {0: 10, 1: 11, 2: 12, 3: 13}
    k2 = SimplicialComplex([(10, 11, 12), (11, 12, 13)])
    rep = star_isomorphic(k, k2, [1], mapping)
    assert rep.isomorphic


def test_star_isomorphic_flipped_diagonal():
    left = SimplicialComplex([(0, 1, 2), (1, 2, 3)])
    right = SimplicialComplex([(0, 1, 3), (0, 2, 3)])
    rep = star_isomorphic(left, right, [1], {i: i for i in range(4)})
    assert not rep.isomorphic
    assert (1, 2) in rep.missing
    assert (0, 3) in rep.extra


def test_star_isomorphic_symmetry():
    rng = np.random.default_rng(13)
    pts = grid_points(4, dim=2, jitter=0.2, seed=9)
    k = delaunay_lifted(pts).complex
    perm = rng.permutation(len(pts))
    mapping = {i: int(perm[i]) for i in range(len(pts))}
    k2 = SimplicialComplex(
        [tuple(mapping[v] for v in s) for s in k.simplices(2)]
    )
    inverse = {b: a for a, b in mapping.items()}
    for q in ([5], [5, 10]):
        fwd = star_isomorphic(k, k2, q, mapping)
        back = star_isomorphic(k2, k, [mapping[v] for v in q], inverse)
        assert fwd.isomorphic and back.isomorphic


def test_star_isomorphic_rejects_bad_mappings():
    k = SimplicialComplex(TWO_TRIANGLES)
    with pytest.raises(MappingError):
        star_isomorphic(k, k, [0], {0: 0, 1: 0, 2: 2, 3: 3})
    with pytest.raises(MappingError):
        star_isomorphic(k, k, [0], {0: 0})
    # A centre vertex outside the mapping, even one in no simplex.
    with pytest.raises(MappingError):
        star_isomorphic(k, k, [0, 9], {i: i for i in range(4)})


def test_star_difference_lists_both_sides_sorted():
    want = SimplicialComplex([(0, 1, 2), (1, 2, 3)])
    got = SimplicialComplex([(0, 1, 3), (0, 2, 3)])
    rep = star_difference(want, got)
    assert not rep.isomorphic
    assert rep.missing == ((0, 1, 2), (1, 2), (1, 2, 3))
    assert rep.extra == ((0, 1, 3), (0, 2, 3), (0, 3))
    same = star_difference(want, SimplicialComplex([(3, 2, 1), (2, 0, 1)]))
    assert same.isomorphic and not same.missing and not same.extra



def test_row_keys_order_rows_lexicographically():
    # Small keys, the largest width whose keys still fit int64, and keys
    # past int64, which are Python integers.
    rng = np.random.default_rng(3)
    for radix, width in ((7, 3), (55_000, 4), (60_000, 4), (2**40, 2)):
        rows = np.sort(rng.integers(0, radix, size=(300, width)), axis=1)
        rows[::7] = rows[3]
        keys = row_keys(rows, radix)
        assert keys.dtype == (np.int64 if radix**width <= 2**63 else object)
        want = sorted(range(len(rows)), key=lambda k: (rows[k].tolist(), k))
        assert sorted_rows(rows, radix).tolist() == want
        # Equal rows, and only they, share a key.
        assert len(set(keys.tolist())) == len(set(map(tuple, rows.tolist())))


def test_faces_of_match_the_unique_reference():
    """One sort and an adjacent compare give np.unique's faces and inverse,
    on tops with repeated rows, with keys in int64 and past it."""
    rng = np.random.default_rng(5)
    for radix, width in ((9, 3), (40, 4), (60_000, 4), (2**40, 3)):
        tops = np.sort(rng.integers(0, radix, size=(200, width)), axis=1)
        tops[::5] = tops[7]
        for k in range(1, width + 1):
            faces, inverse = _faces_of(tops, k)
            stack = np.vstack([tops[:, list(c)] for c in combinations(range(width), k)])
            _, first, ref = np.unique(row_keys(stack, int(tops.max()) + 1),
                                      return_index=True, return_inverse=True)
            assert np.array_equal(faces, stack[first])
            assert np.array_equal(inverse, ref.ravel()) and inverse.dtype == np.intp
