"""Dual-route Delaunay construction, protection, and relaxed membership."""

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from delgen import delaunay
from delgen.datasets import grid_points
from delgen.delaunay import (
    PointSet,
    _branch_and_bound,
    delaunay_bruteforce,
    delaunay_lifted,
    relaxed_delaunay,
)
from delgen.errors import PreconditionError
from delgen.genericity import analyze_genericity
from delgen.predicates import in_sphere

FOUR_POINTS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def test_point_set_validation():
    with pytest.raises(PreconditionError):
        PointSet(np.zeros((0, 2)))
    with pytest.raises(PreconditionError):
        PointSet(np.array([[0.0, np.inf]]))
    with pytest.raises(PreconditionError):
        PointSet(np.array([[0.0, 0.0], [0.0, 0.0]]))
    ps = PointSet(UNIT_SQUARE)
    assert ps.n == 4 and ps.dim == 2
    assert ps.diameter() == pytest.approx(np.sqrt(2.0))
    assert ps.min_gap() == pytest.approx(1.0)


def test_affine_deficiency_rejected():
    line = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    for build in (delaunay_bruteforce, delaunay_lifted):
        with pytest.raises(PreconditionError):
            build(line)
    with pytest.raises(PreconditionError):
        delaunay_bruteforce(np.array([[0.0, 0.0], [1.0, 0.0]]))


def test_four_point_oracle_both_routes():
    for build in (delaunay_bruteforce, delaunay_lifted):
        res = build(FOUR_POINTS)
        assert res.generic
        assert res.complex.simplices(2) == [(0, 1, 2), (1, 2, 3)]
        ball = res.balls[(0, 1, 2)]
        assert np.allclose(ball.center, [0.5, 0.5], atol=1e-12)
        assert ball.radius == pytest.approx(np.sqrt(0.5), abs=1e-12)
        assert ball.protection == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_unit_square_degenerate_both_routes():
    for build in (delaunay_bruteforce, delaunay_lifted):
        res = build(UNIT_SQUARE)
        assert not res.generic
        assert len(res.degeneracy_groups) == 1
        assert tuple(sorted(res.degeneracy_groups[0])) == (0, 1, 2, 3)
        assert abs(res.protection()) <= res.tolerance


def test_route_equivalence_random_sweep():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(6, 25))
        pts = rng.uniform(size=(n, 2))
        a = delaunay_bruteforce(pts)
        b = delaunay_lifted(pts)
        assert a.generic == b.generic
        if a.generic:
            assert a.complex == b.complex
            for key, ball in a.balls.items():
                other = b.balls[key]
                assert np.allclose(ball.center, other.center, atol=1e-9)
                assert ball.protection == pytest.approx(other.protection, abs=1e-9)


def test_route_equivalence_3d_small():
    rng = np.random.default_rng(4)
    for _ in range(5):
        pts = rng.uniform(size=(12, 3))
        a = delaunay_bruteforce(pts)
        b = delaunay_lifted(pts)
        assert a.generic and b.generic
        assert a.complex == b.complex


def test_empty_ball_certificates():
    # Independent predicate check: no point of P is strictly inside any
    # accepted circumball.
    rng = np.random.default_rng(8)
    pts = rng.uniform(size=(25, 2))
    res = delaunay_bruteforce(pts)
    assert res.generic
    for simplex in res.complex.simplices(2):
        corners = pts[list(simplex)]
        for q in range(len(pts)):
            if q in simplex:
                continue
            assert in_sphere(corners, pts[q]) == -1


def test_protection_consistency():
    rng = np.random.default_rng(10)
    for _ in range(10):
        pts = rng.uniform(size=(int(rng.integers(6, 30)), 2))
        res = delaunay_lifted(pts)
        if res.generic:
            assert all(b.protection > 0 for b in res.balls.values())
            assert res.protection() > 0


def test_every_simplex_in_a_top_simplex():
    rng = np.random.default_rng(12)
    pts = rng.uniform(size=(30, 2))
    res = delaunay_lifted(pts)
    assert res.generic
    tops = res.complex.simplices(2)
    for s in res.complex.simplices():
        assert any(set(s) <= set(t) for t in tops)


def test_interior_faces_shared_by_two_tops():
    rng = np.random.default_rng(14)
    pts = rng.uniform(size=(30, 2))
    res = delaunay_lifted(pts)
    assert res.generic
    rim = set(res.complex.boundary_complex(2).simplices(1))
    tops = res.complex.simplices(2)
    for e in res.complex.simplices(1):
        owners = [t for t in tops if set(e) <= set(t)]
        assert len(owners) == (1 if e in rim else 2)


def test_separation_exhaustive_small():
    rng = np.random.default_rng(16)
    pts = rng.uniform(size=(15, 2))
    res = delaunay_lifted(pts)
    assert res.generic
    tops = res.complex.simplices(2)
    rim = set(res.complex.boundary_complex(2).simplices())
    for tau in res.complex.simplices():
        if len(tau) == 3 or tau in rim:
            continue
        for q in range(len(pts)):
            if q in tau:
                continue
            assert any(set(tau) <= set(t) and q not in t for t in tops)


def test_relaxed_zero_slack_is_the_star():
    pts = grid_points(5, dim=2, jitter=0.15, seed=4)
    a = analyze_genericity(pts)
    base = a.base
    assert base.generic
    relaxed = relaxed_delaunay(pts, 0.0, [12], eps=a.sampling.epsilon, base=base)
    assert relaxed.certified
    assert relaxed.complex == base.complex.vertex_star([12])


def test_relaxed_monotone_in_slack():
    pts = grid_points(5, dim=2, jitter=0.15, seed=4)
    a = analyze_genericity(pts)
    base = a.base
    prev = None
    for rho in (0.0, 0.01, 0.05, 0.1):
        cur = relaxed_delaunay(pts, rho, [12], eps=a.sampling.epsilon, base=base)
        assert cur.certified
        members = set(cur.complex.simplices())
        if prev is not None:
            assert prev <= members
        prev = members
    star = set(base.complex.vertex_star([12]).simplices())
    assert star <= prev


def test_relaxed_huge_slack_accepts_everything_in_reach():
    pts = UNIT_SQUARE * 0.3 + 0.2
    extra = np.vstack([pts, [[0.5, 0.9], [0.9, 0.5], [0.1, 0.5]]])
    diam = PointSet(extra).diameter()
    relaxed = relaxed_delaunay(extra, 2.0 * diam, [0], eps=diam, base=delaunay_lifted(extra))
    n = len(extra)
    expect_tops = {tuple(sorted((0, i, j))) for i in range(n) for j in range(n) if 0 < i < j}
    assert set(relaxed.complex.simplices(2)) == expect_tops


def test_relaxed_witnesses_verify():
    pts = grid_points(5, dim=2, jitter=0.15, seed=4)
    rho = 0.08
    a = analyze_genericity(pts)
    relaxed = relaxed_delaunay(pts, rho, [12], eps=a.sampling.epsilon, base=a.base)
    assert relaxed.certified
    for simplex, c in relaxed.witnesses.items():
        need = cdist([c], pts[list(simplex)]).max()
        have = cdist([c], pts).min()
        assert need - have <= rho + relaxed.tolerance * 1.01


def test_relaxed_rejects_bad_inputs():
    pts = grid_points(4, dim=2, jitter=0.1, seed=1)
    built = dict(eps=1.0, base=delaunay_lifted(pts))
    for bad in (-0.1, np.nan, np.inf):
        with pytest.raises(PreconditionError, match="rho must be finite"):
            relaxed_delaunay(pts, bad, [5], **built)
    with pytest.raises(PreconditionError):
        relaxed_delaunay(pts, 0.1, [], **built)
    with pytest.raises(PreconditionError):
        relaxed_delaunay(pts, 0.1, [99], **built)


def test_branch_and_bound_outcomes():
    target = np.array([0.3, -0.2])

    def gap(c):
        return np.linalg.norm(c - target, axis=1)

    seed = np.zeros(2)
    # Over a cube of half width h, |c - target| moves by at most sqrt(2) h.
    lipschitz = np.sqrt(2.0)
    verdict, witness = _branch_and_bound(gap, seed, 1.0, lipschitz, 0.01)
    assert verdict is True
    assert gap(witness[None, :])[0] <= 0.01
    assert np.abs(witness - seed).max() <= 1.0
    # The gap never drops below zero, so a negative threshold is certified
    # unreachable once the cubes are small enough ...
    assert _branch_and_bound(gap, seed, 1.0, lipschitz, -0.01) == (False, None)
    # ... unless the node budget runs out first.
    assert _branch_and_bound(gap, seed, 1.0, lipschitz, -0.01, max_nodes=3) == (None, None)
    # When several cubes hit at once, the first in split order is the witness.
    verdict, witness = _branch_and_bound(
        lambda c: 1.0 - 2.0 * np.abs(c).max(axis=1), seed, 1.0, 2.0, 0.0)
    assert verdict is True
    assert witness.tolist() == [-0.5, -0.5]


def test_relaxed_exhausted_budget_is_undecided(monkeypatch):
    pts = grid_points(5, dim=2, jitter=0.15, seed=4)
    base = delaunay_lifted(pts)
    search = delaunay._branch_and_bound
    monkeypatch.setattr(delaunay, "_branch_and_bound",
                        lambda *args, **kwargs: search(*args, max_nodes=0))
    # A wide window brings in non-members, which no quick check decides.
    relaxed = relaxed_delaunay(pts, 0.0, [12], eps=1.0, base=base)
    assert relaxed.undecided
    assert not relaxed.certified
    # Undecided candidates are left out of the complex.
    assert not set(relaxed.undecided) & set(relaxed.complex.simplices())
    assert set(relaxed.complex.simplices()) <= set(base.complex.vertex_star([12]).simplices())


def test_degeneracy_groups_with_planted_square():
    far = np.array([[10.0, 0.0], [0.0, 10.0], [10.0, 10.0], [-5.0, -5.0], [12.0, 5.0]])
    pts = np.vstack([UNIT_SQUARE, far])
    for build in (delaunay_bruteforce, delaunay_lifted):
        res = build(pts)
        assert not res.generic
        assert any(set(g) == {0, 1, 2, 3} for g in res.degeneracy_groups)


def test_point_set_compares_values_not_bytes():
    # 0.0 and -0.0 are one coordinate value, so these are duplicate points.
    with pytest.raises(PreconditionError, match="duplicate"):
        PointSet(np.array([[0.0, 0.0], [-0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(PreconditionError, match="duplicate"):
        PointSet(np.array([[1.0, -0.0], [1.0, 0.0], [0.0, 1.0]]))
    ps = PointSet(np.array([[-0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert ps.n == 3
