"""Dual-route Delaunay construction, protection, and relaxed membership."""

import inspect
import time
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist, pdist

from conftest import traced_peak
from delgen import delaunay, metric
from delgen.complexes import SimplicialComplex
from delgen.datasets import grid_points, uniform_points
from delgen.delaunay import (
    PointSet,
    _branch_and_bound,
    _star_candidates,
    delaunay_bruteforce,
    delaunay_lifted,
    relaxed_delaunay,
)
from delgen.errors import PreconditionError
from delgen.genericity import analyze_genericity
from delgen.metric import DisplacementField, MetricModel, metric_delaunay
from delgen.perturb import measured_secure_params
from delgen.predicates import in_sphere
from delgen.simplex import simplex_metrics

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


def candidate_tuples(rows, sizes):
    """The simplices of candidate rows: the first ``sizes[k]`` ids of row k."""
    return [tuple(r[:k]) for r, k in zip(rows.tolist(), sizes.tolist())]


def witness_map(relaxed):
    """Witness centre of each member simplex of a relaxed result."""
    return dict(zip(candidate_tuples(relaxed.members, relaxed.sizes), relaxed.witnesses))


def row_of(res):
    """Row of each top simplex of a Delaunay result, keyed by the simplex."""
    return {s: k for k, s in enumerate(map(tuple, res.tops.tolist()))}


def rim(tops):
    """Facets of exactly one of the top simplices: the boundary of the
    region they triangulate."""
    count = Counter(f for t in tops for f in combinations(t, len(t) - 1))
    return {f for f, c in count.items() if c == 1}


def test_four_point_oracle_both_routes():
    for build in (delaunay_bruteforce, delaunay_lifted):
        res = build(FOUR_POINTS)
        assert res.generic
        assert res.complex.simplices(2) == [(0, 1, 2), (1, 2, 3)]
        k = row_of(res)[(0, 1, 2)]
        assert np.allclose(res.centres[k], [0.5, 0.5], atol=1e-12)
        assert res.radii[k] == pytest.approx(np.sqrt(0.5), abs=1e-12)
        assert res.protections[k] == pytest.approx(np.sqrt(2.0), abs=1e-12)


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
            rows = row_of(b)
            for key, k in row_of(a).items():
                assert np.allclose(a.centres[k], b.centres[rows[key]], atol=1e-9)
                assert a.protections[k] == pytest.approx(b.protections[rows[key]], abs=1e-9)


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
            assert (res.protections > 0).all()
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
    tops = res.complex.simplices(2)
    edges = rim(tops)
    for e in res.complex.simplices(1):
        owners = [t for t in tops if set(e) <= set(t)]
        assert len(owners) == (1 if e in edges else 2)


def test_separation_exhaustive_small():
    rng = np.random.default_rng(16)
    pts = rng.uniform(size=(15, 2))
    res = delaunay_lifted(pts)
    assert res.generic
    tops = res.complex.simplices(2)
    boundary = set(SimplicialComplex(rim(tops)).simplices())
    for tau in res.complex.simplices():
        if len(tau) == 3 or tau in boundary:
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
    assert relaxed.certified and len(relaxed.witnesses) == len(relaxed.members)
    for simplex, c in witness_map(relaxed).items():
        need = cdist([c], pts[list(simplex)]).max()
        have = cdist([c], pts).min()
        assert need - have <= rho + relaxed.tolerance * 1.01


def test_relaxed_first_try_takes_the_seed_then_the_known_balls_in_row_order():
    # Reference: per candidate, its seed, then the centre of every Delaunay
    # ball whose top contains it, in row order; the first try within the
    # slack is the witness. Candidates no try decides go to the search.
    for dim, side in ((2, 9), (3, 6)):
        pts = grid_points(side, dim, jitter=0.15, seed=4)
        a = analyze_genericity(pts)
        eps, base, ps = a.sampling.epsilon, a.base, PointSet(pts)
        region = list(a.deep_ids) or [int(np.argmin(np.linalg.norm(pts - pts.mean(axis=0), axis=1)))]
        rho = 0.3 * eps
        relaxed = relaxed_delaunay(pts, rho, region, eps=eps, base=base)
        rows, sizes = _star_candidates(ps, region, 2.0 * eps + ps.tolerance(), range(1, dim + 1))
        cands = candidate_tuples(rows, sizes)
        seeds = delaunay._circumcenter_seeds(pts, rows, sizes)
        witnesses = witness_map(relaxed)
        ties = 0  # candidates on which the order decides the witness
        for cand, seed in zip(cands, seeds):
            tries = np.array([seed, *(c for top, c in zip(base.tops.tolist(), base.centres)
                                       if set(cand) <= set(top))])
            gaps = cdist(tries, pts[list(cand)]).max(axis=1) - cdist(tries, pts).min(axis=1)
            hit = np.flatnonzero(gaps <= rho + ps.tolerance())
            if hit.size:
                assert np.array_equal(witnesses[cand], tries[hit[0]])
                ties += len(hit) > 1 and not np.array_equal(tries[hit[0]], tries[hit[-1]])
        assert ties > 10


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


def branch_and_bound_by_loop(gap, seed, radius, lipschitz, threshold, max_nodes=20000):
    """One candidate's branch and bound, searched on its own: the reference
    for the stacked search. ``gap`` maps rows of centres to values."""
    m = seed.shape[0]
    offs = np.array(
        [[(1 if bit & (1 << k) else -1) for k in range(m)] for bit in range(2**m)],
        dtype=float,
    )
    centers = seed[None, :].copy()
    halves = np.array([radius])
    nodes = 0
    while centers.shape[0]:
        vals = np.concatenate([gap(centers[i:i + 4096])
                               for i in range(0, centers.shape[0], 4096)])
        hit = np.nonzero(vals <= threshold)[0]
        if hit.size:
            return True, centers[hit[0]].copy()
        alive = vals - lipschitz * halves <= threshold
        centers, halves = centers[alive], halves[alive]
        nodes += centers.shape[0]
        if nodes > max_nodes:
            return None, None
        new_halves = halves / 2.0
        centers = (centers[:, None, :] + offs[None, :, :] * new_halves[:, None, None]).reshape(-1, m)
        halves = np.repeat(new_halves, offs.shape[0])
    return False, None


def test_branch_and_bound_outcomes():
    target = np.array([0.3, -0.2])

    def gap(c, owner):
        return np.linalg.norm(c - target, axis=1)

    seed = np.zeros((1, 2))
    # Over a cube of half width h, |c - target| moves by at most sqrt(2) h.
    lipschitz = np.sqrt(2.0)
    verdicts, witnesses = _branch_and_bound(gap, seed, 1.0, lipschitz, 0.01)
    assert verdicts == [True]
    assert gap(witnesses[0][None, :], None)[0] <= 0.01
    assert np.abs(witnesses[0] - seed[0]).max() <= 1.0
    # The gap never drops below zero, so a negative threshold is certified
    # unreachable once the cubes are small enough ...
    assert _branch_and_bound(gap, seed, 1.0, lipschitz, -0.01) == ([False], [None])
    # ... unless the node budget runs out first.
    assert _branch_and_bound(gap, seed, 1.0, lipschitz, -0.01, max_nodes=3) == ([None], [None])
    # When several cubes hit at once, the first in split order is the witness.
    verdicts, witnesses = _branch_and_bound(
        lambda c, owner: 1.0 - 2.0 * np.abs(c).max(axis=1), seed, 1.0, 2.0, 0.0)
    assert verdicts == [True]
    assert witnesses[0].tolist() == [-0.5, -0.5]
    # Stacked, each candidate keeps its own answer: the second one's gap is
    # raised past the threshold, and the third searches around another seed.
    shift = np.array([0.0, 0.02, 0.0])
    stack = np.array([[0.0, 0.0], [0.0, 0.0], [0.25, -0.25]])
    verdicts, witnesses = _branch_and_bound(
        lambda c, owner: gap(c, owner) + shift[owner], stack, 1.0, lipschitz, 0.01)
    assert verdicts == [True, False, True]
    assert np.array_equal(witnesses[0], _branch_and_bound(gap, seed, 1.0, lipschitz, 0.01)[1][0])
    assert witnesses[1] is None and gap(witnesses[2][None, :], None)[0] <= 0.01
    assert _branch_and_bound(gap, np.zeros((0, 2)), 1.0, lipschitz, 0.01) == ([], [])


def test_stacked_branch_and_bound_matches_the_per_candidate_loop():
    # A window of candidates of every size 2..m+1 around a central vertex,
    # with seeds moved off the circumcentres so that the first level rarely
    # decides, and budgets small enough that some candidates run out.
    outcomes = {}
    for dim, side, reach, settings in ((2, 7, 3.0, ((0.03, 20), (0.03, 40))),
                                       (3, 4, 2.0, ((0.02, 300),))):
        pts = grid_points(side, dim, jitter=0.2, seed=3)
        ps = PointSet(pts)
        eps = analyze_genericity(pts).sampling.epsilon
        centre = int(np.argmin(np.linalg.norm(pts - pts.mean(axis=0), axis=1)))
        cand_rows, sizes = _star_candidates(ps, [centre], reach * eps, range(1, dim + 1))
        seeds = delaunay._circumcenter_seeds(pts, cand_rows, sizes) + 0.3 * eps
        members = pts[cand_rows]
        rows = []

        def gap(c, owner):
            rows.append(len(c))
            return delaunay._ball_gap(c, members[owner], ps.tree)

        for rho, max_nodes in settings:
            args = (4.0 * eps, 2.0 * np.sqrt(dim), rho, max_nodes)
            rows.clear()
            verdicts, witnesses = _branch_and_bound(gap, seeds, *args)
            stacked_rows = rows[1:]
            per_level = {}
            for k, seed in enumerate(seeds):
                rows.clear()
                ref = branch_and_bound_by_loop(lambda c: gap(c, np.full(len(c), k)), seed, *args)
                assert verdicts[k] == ref[0]
                assert (witnesses[k] is None and ref[1] is None) or np.array_equal(witnesses[k], ref[1])
                for level, count in enumerate(rows):
                    per_level[level] = per_level.get(level, 0) + count
            # Past the seeds, no step of the stack held more rows than one
            # candidate can reach, though the candidates' levels together do.
            assert max(stacked_rows) <= 2**dim * max_nodes < max(per_level.values())
            for size, verdict in zip(sizes.tolist(), verdicts):
                outcomes.setdefault(dim, set()).add((size, verdict))
    for dim, seen in outcomes.items():
        assert seen == {(size, v) for size in range(2, dim + 2) for v in (True, False, None)}


def without_lifting_certificate(monkeypatch):
    """Leave every candidate the first try leaves to the branch and bound."""
    monkeypatch.setattr(delaunay, "_lifting_bound", lambda ps, rows, seeds, half: (
        np.full(len(rows), -np.inf), np.ones(len(rows))))


def test_stacked_search_runs_in_bounded_memory(monkeypatch):
    # The wide window of the undecided test, searched with the default node
    # budget and a Lipschitz bound that prunes nothing within it, so every
    # candidate the first try leaves runs to undecided. The lifting map
    # certifies these candidates, so it is set aside to gather them.
    pts = grid_points(5, dim=2, jitter=0.15, seed=4)
    without_lifting_certificate(monkeypatch)
    calls = []
    search = delaunay._branch_and_bound
    monkeypatch.setattr(delaunay, "_branch_and_bound",
                        lambda *args: calls.append(args) or search(*args))
    relaxed_delaunay(pts, 0.0, [12], eps=1.0, base=delaunay_lifted(pts))
    gap, seeds, radius, _, threshold = calls[0]
    (verdicts, _), peak = traced_peak(lambda: search(gap, seeds, radius, 1e6, threshold))
    # One candidate's worst case on its own: 2^m * max_nodes rows of m floats.
    max_nodes = inspect.signature(search).parameters["max_nodes"].default
    worst = 2**2 * max_nodes * 2 * 8
    assert len(seeds) > 8 and peak <= 8 * worst
    assert verdicts == [None] * len(seeds)
    assert verdicts == [
        branch_and_bound_by_loop(lambda c: gap(c, np.full(len(c), k)), seed, radius, 1e6,
                                 threshold)[0] for k, seed in enumerate(seeds)]


def lifted_lp_minimum(pts, row, seed, half):
    """min over the cube of half width ``half`` about ``seed`` of
    h = max over (p in row, q in pts) of 2(q - p).x + |p|^2 - |q|^2, by
    ``linprog``, in the seed's frame."""
    from scipy.optimize import linprog

    m = len(seed)
    p, q = pts[row] - seed, pts - seed
    a = 2.0 * (q[None, :, :] - p[:, None, :]).reshape(-1, m)
    b = ((p * p).sum(axis=1)[:, None] - (q * q).sum(axis=1)[None, :]).ravel()
    res = linprog(np.r_[np.zeros(m), 1.0], A_ub=np.hstack([a, -np.ones((len(a), 1))]), b_ub=-b,
                  bounds=[(-half, half)] * m + [(None, None)], method="highs")
    assert res.status == 0
    return res.fun


def test_lifting_bound_never_exceeds_the_exact_minimum():
    rng = np.random.default_rng(11)
    for dim in (2, 3):
        for trial in range(4):
            pts = uniform_points(40, dim, seed=20 + trial)
            ps = PointSet(pts)
            rows = []
            for size in rng.integers(2, dim + 2, size=12):
                ids = rng.choice(len(pts), size=size, replace=False).tolist()
                rows.append(ids + [ids[0]] * (dim + 1 - size))
            rows = np.array(rows)
            seeds = pts[rows].mean(axis=1) + rng.normal(scale=0.05, size=(len(rows), dim))
            for half in (0.05, 0.3, 1.0):
                bound, radius = delaunay._lifting_bound(ps, rows, seeds, half)
                for row, seed, low, r in zip(rows, seeds, bound, radius):
                    scale = 1.0 + np.abs(seed).max()
                    assert low <= lifted_lp_minimum(pts, row, seed, half) + 1e-7 * scale**2
                    # h itself, sampled over the cube, and R at its corners.
                    c = seed + rng.uniform(-half, half, size=(500, dim))
                    far = cdist(c, pts[row]).max(axis=1)
                    assert low <= (far**2 - cdist(c, pts).min(axis=1) ** 2).min()
                    assert far.max() <= r * (1 + 1e-12)


@pytest.mark.parametrize("case", [(11, 2, 0.2, 1), (11, 2, 0.2, 4), (9, 3, 0.05, 1)])
def test_lifting_certificates_agree_with_the_search_and_hold_at_smaller_slacks(case, monkeypatch):
    side, dim, jitter, seed = case
    a = analyze_genericity(grid_points(side, dim, jitter, seed=seed))
    ps, eps = a.points, a.sampling.epsilon
    rho = measured_secure_params(a).budget().rho_point
    # With the certificate set aside, the candidates it is asked about are
    # those the search then receives, in the same order.
    asked, searched = [], []
    bounds, search = delaunay._lifting_bound, delaunay._branch_and_bound
    monkeypatch.setattr(delaunay, "_lifting_bound", lambda ps_, rows, seeds, half: (
        asked.append(rows) or (np.full(len(rows), -np.inf), np.ones(len(rows)))))
    monkeypatch.setattr(delaunay, "_branch_and_bound", lambda *args: (
        searched.append(args) or search(*args)))
    relaxed_delaunay(ps, rho, a.classification.region, eps=eps, base=a.base)
    (rows,), ((gap, seeds, half, lipschitz, threshold),) = asked, searched
    bound, radius = bounds(ps, rows, seeds, half)
    certified = bound > 2.0 * threshold * radius
    assert certified.sum() >= 0.9 * len(rows) > 0
    # Every candidate certified absent is absent for the search as well.
    verdicts, _ = search(gap, seeds, half, lipschitz, threshold)
    assert all(v is False for v, c in zip(verdicts, certified) if c)
    # The bounds take no slack, so a certificate at rho holds at rho / 2.
    smaller = bound > 2.0 * (rho / 2.0 + ps.tolerance()) * radius
    assert (smaller >= certified).all()


def test_lifting_certificate_leaves_few_candidates_to_the_search(monkeypatch):
    # A deterministic work count: on the 41^2 grid at the point budget the
    # first tries leave 3,342 candidates, none of them members. Without the
    # certificate every one of them went to the branch and bound.
    a = analyze_genericity(grid_points(41, 2, 0.2, seed=3))
    rho = measured_secure_params(a).budget().rho_point
    sent = []
    search = delaunay._branch_and_bound
    monkeypatch.setattr(delaunay, "_branch_and_bound", lambda gap, seeds, *args: (
        sent.append(len(seeds)) or search(gap, seeds, *args)))
    relaxed = relaxed_delaunay(a.points, rho, a.classification.region, eps=a.sampling.epsilon,
                               base=a.base)
    assert relaxed.certified
    assert sum(sent) <= 33


def star_candidates_by_loop(pts, region, reach, sizes):
    """The candidate window with one ``pdist`` per combination: the
    reference for the distance tables. It yields in order of first visit;
    ``by_key`` puts that in the window's order."""
    tree = cKDTree(pts)
    seen = set()
    for v in region:
        pool = [q for q in sorted(tree.query_ball_point(pts[v], reach)) if q != v]
        for size in sizes:
            for combo in combinations(pool, size):
                cand = tuple(sorted((v, *combo)))
                if cand in seen:
                    continue
                seen.add(cand)
                if pdist(pts[list(cand)]).max() <= reach:
                    yield cand


def by_key(simplices):
    """Simplices by size, then lexicographically: the order of the rows of
    ``_star_candidates``, whose keys order as the rows do."""
    return sorted(simplices, key=lambda s: (len(s), s))


def test_star_candidates_match_the_pdist_loop():
    # Exact lattices tie many diameters with the narrow window's reach.
    for dim, side, jitter, narrow in ((2, 7, 0.2, 0.9), (3, 5, 0.2, 0.9),
                                      (2, 7, 0.0, 1.0), (3, 5, 0.0, np.sqrt(2.0))):
        pts = grid_points(side, dim, jitter=jitter, seed=3)
        eps = analyze_genericity(pts).sampling.epsilon
        tol = PointSet(pts).tolerance()
        # Neighbouring region vertices share candidates, which the window
        # yields only once.
        region = np.argsort(np.linalg.norm(pts - pts.mean(axis=0), axis=1))[:6 - dim].tolist()
        # The relaxed window (every size), the metric window (top simplices
        # only, widened by the metric deviation) and a narrow window that
        # drops some combinations on their diameter.
        for reach, sizes in ((2.0 * eps + tol, range(1, dim + 1)),
                             (2.0 * eps + 4.0 * 0.01 + tol, (dim,)),
                             (narrow, range(1, dim + 1))):
            rows, counts = _star_candidates(PointSet(pts), region, reach, sizes)
            got = candidate_tuples(rows, counts)
            assert got == by_key(star_candidates_by_loop(pts, region, reach, sizes))
            assert got and len(got) == len(set(got))
            # Each row is padded to m+1 ids by repeating its first vertex.
            assert rows.shape == (len(got), dim + 1)
            assert all(r[k:] == [r[0]] * (dim + 1 - k)
                       for r, k in zip(rows.tolist(), counts.tolist()))



def test_star_candidates_of_balls_of_many_sizes_match_the_pdist_loop():
    # A dense cluster in a sparse cloud: the balls of the region's vertices
    # differ in size by far more than the factor of one stacked chunk.
    rng = np.random.default_rng(4)
    for dim in (2, 3):
        pts = np.vstack([rng.uniform(0.0, 4.0, (60, dim)), rng.uniform(1.5, 2.0, (25, dim))])
        region, reach = [0, 1, 2, 60, 61, 62], 1.2
        lens = [len(b) for b in cKDTree(pts).query_ball_point(pts[region], reach)]
        assert max(lens) > 3 * min(lens)
        rows, counts = _star_candidates(PointSet(pts), region, reach, range(1, dim + 1))
        got = candidate_tuples(rows, counts)
        assert got == by_key(star_candidates_by_loop(pts, region, reach, range(1, dim + 1)))

def test_relaxed_exhausted_budget_is_undecided(monkeypatch):
    pts = grid_points(5, dim=2, jitter=0.15, seed=4)
    base = delaunay_lifted(pts)
    search = delaunay._branch_and_bound
    monkeypatch.setattr(delaunay, "_branch_and_bound",
                        lambda *args, **kwargs: search(*args, max_nodes=0))
    # A wide window brings in non-members. The lifting map certifies them
    # all; without it, no quick check decides them.
    certified = relaxed_delaunay(pts, 0.0, [12], eps=1.0, base=base)
    assert certified.certified
    without_lifting_certificate(monkeypatch)
    relaxed = relaxed_delaunay(pts, 0.0, [12], eps=1.0, base=base)
    assert relaxed.undecided
    assert np.array_equal(relaxed.members, certified.members)
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


def test_routes_agree_on_exact_lattices():
    # Flat cocircular subsets lie on empty spheres here, but they are not
    # simplices: both routes keep only affinely independent subsets.
    cube = np.array([[i, j, k] for i in (0.0, 1.0) for j in (0.0, 1.0) for k in (0.0, 1.0)])
    for pts, tops in ((cube, 58), (grid_points(3, 3), 464), (grid_points(5, 2), 64)):
        a = delaunay_bruteforce(pts)
        b = delaunay_lifted(pts)
        assert a.complex == b.complex
        assert len(a.complex.simplices(pts.shape[1])) == tops
        assert a.degeneracy_groups == b.degeneracy_groups
        assert not a.generic and not b.generic


def dense_empty_balls(pts, subsets, centers, radii, tol):
    """The certifier as a dense (balls x points) margin table, in blocks of
    about 2e6 entries: the reference for the KD-tree queries."""
    rows, protections, groups = [np.zeros(0, dtype=np.intp)], [np.zeros(0)], set()
    step = max(1, 2_000_000 // pts.shape[0])
    for lo in range(0, subsets.shape[0], step):
        sub = subsets[lo:lo + step]
        margins = cdist(centers[lo:lo + step], pts)
        margins -= radii[lo:lo + step, None]
        near = np.abs(margins) <= tol
        crowded = near.sum(axis=1) > sub.shape[1]
        np.put_along_axis(margins, sub, np.inf, axis=1)
        protection = margins.min(axis=1)
        accepted = np.nonzero(protection > -tol)[0]
        rows.append(lo + accepted)
        protections.append(protection[accepted])
        for k in accepted:
            if crowded[k]:
                groups.add(tuple(int(i) for i in np.nonzero(near[k])[0]))
    return np.concatenate(rows), np.concatenate(protections), groups


def assert_same_certificate(got, want, subsets, centers, radii):
    """The same accepted rows, each with the same simplex, centre, radius
    and protection bit for bit, in the same order, and the same groups."""
    (rows, protections, groups), (want_rows, want_protections, want_groups) = got, want
    assert np.array_equal(rows, want_rows)
    assert np.array_equal(subsets[rows], subsets[want_rows])
    assert np.array_equal(centers[rows], centers[want_rows])
    assert np.array_equal(radii[rows], radii[want_rows])
    assert np.array_equal(protections, want_protections)
    assert groups == want_groups


class MisrankingTree:
    """A KD-tree that ranks points within rounding of each other otherwise
    than cdist: where the (k-1)-th and (k+1)-th nearest points tie within
    1e-12, it lists the (k+1)-th in place of the (k-1)-th."""

    def __init__(self, pts):
        self.real = cKDTree(pts)
        self.data = self.real.data

    def query(self, x, k):
        dist, idx = self.real.query(x, k=k + 1)
        tie = dist[:, k] <= dist[:, k - 2] * (1.0 + 1e-12)
        cols = np.where(tie[:, None], [j for j in range(k + 1) if j != k - 2], np.arange(k))
        return np.take_along_axis(dist, cols, 1), np.take_along_axis(idx, cols, 1)

    def query_ball_point(self, x, r):
        return self.real.query_ball_point(x, r)


def test_nearest_point_matches_cdist():
    rng = np.random.default_rng(9)
    # Exact lattices put cell centres and vertices at equal distances from
    # several points, so the two listed points often tie.
    for pts in (grid_points(5, 2), grid_points(4, 3), grid_points(6, 2, jitter=0.2, seed=1),
                uniform_points(200, 3, seed=2), grid_points(3, 2, spacing=1e-3) + 7.0):
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        centres = np.vstack([rng.uniform(lo - 1.0, hi + 1.0, size=(300, pts.shape[1])),
                             pts[:-1] + 0.5 * (pts[1:] - pts[:-1]), pts,
                             np.round(rng.uniform(lo, hi, size=(50, pts.shape[1])) * 2) / 2])
        have = delaunay._nearest(cKDTree(pts), centres)
        assert np.array_equal(have, cdist(centres, pts).min(axis=1))
    # Three points within rounding of each other from a centre, ranked by a
    # tree that lists the second and third but not the nearest.
    centre = np.array([0.3, 0.4])
    turns = np.radians([10.0, 130.0, 250.0])
    pts = np.vstack([centre + 2.0 * (1.0 + f) * np.array([np.cos(a), np.sin(a)])
                     for f, a in zip((0.0, 1e-13, 2e-13), turns)] + [[9.0, 9.0]])
    have = delaunay._nearest(MisrankingTree(pts), centre[None, :])
    assert np.array_equal(have, cdist(centre[None, :], pts).min(axis=1))


@pytest.mark.parametrize("dim", [2, 3])
def test_distances_match_cdist_bit_for_bit(dim):
    rng = np.random.default_rng(dim)
    scale = 10.0 ** rng.uniform(-3.0, 3.0, size=(400, 1))
    a = rng.uniform(-1.0, 1.0, size=(400, dim)) * scale
    b = rng.uniform(-1.0, 1.0, size=(300, dim)) * scale[:300].T.reshape(-1, 1)
    want = cdist(a, b)
    assert np.array_equal(delaunay._distances(a[:, None, :], b[None, :, :]), want)
    rows, cols = np.nonzero(np.ones_like(want, dtype=bool))
    assert np.array_equal(delaunay._distances(a[rows], b[cols]), want.ravel())


@pytest.fixture
def certifier_calls(monkeypatch):
    """Hold every certifier call against the dense reference; yields the
    list of (rows, accepted, groups) per call."""
    calls = []
    real = delaunay._empty_balls

    def checked(tree, subsets, centers, radii, tol):
        got = real(tree, subsets, centers, radii, tol)
        assert_same_certificate(got, dense_empty_balls(tree.data, subsets, centers, radii, tol),
                                subsets, centers, radii)
        calls.append((len(subsets), len(got[0]), len(got[2])))
        return got

    monkeypatch.setattr(delaunay, "_empty_balls", checked)
    monkeypatch.setattr(metric, "_empty_balls", checked)
    return calls


def test_planted_square_matches_dense_reference(certifier_calls):
    far = np.array([[10.0, 0.0], [0.0, 10.0], [10.0, 10.0], [-5.0, -5.0], [12.0, 5.0]])
    pts = np.vstack([UNIT_SQUARE, far])
    for build in (delaunay_bruteforce, delaunay_lifted):
        assert not build(pts).generic
    # Brute force certifies every affinely independent triple in one call,
    # and rejects most of them.
    assert certifier_calls[0][0] == 78 and certifier_calls[0][1] == 13
    assert all(groups for _, _, groups in certifier_calls[:2])


def test_kdtree_certifier_matches_dense_reference(certifier_calls):
    lattices = [grid_points(4, 2), grid_points(3, 3), grid_points(7, 2), grid_points(4, 3),
                grid_points(5, 2, spacing=1e-3) + 7.0, grid_points(3, 3, spacing=3e4) - 1e5]
    for pts in lattices:
        res = delaunay_lifted(pts)
        if len(pts) < 30:
            assert delaunay_bruteforce(pts).degeneracy_groups == res.degeneracy_groups
    jittered = [grid_points(6, 2, jitter=0.2, seed=1), grid_points(4, 3, jitter=0.1, seed=2),
                grid_points(9, 2, jitter=1e-10, seed=3)]
    clouds = [uniform_points(400, 2, seed=5), uniform_points(300, 3, seed=6)]
    for pts in jittered + clouds:
        delaunay_lifted(pts)
    for pts in (uniform_points(25, 2, seed=7), uniform_points(14, 3, seed=8)):
        delaunay_bruteforce(pts)
    # Foreign points planted in and around the tolerance band of a sphere.
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.8], [2.0, 2.0], [-1.0, 2.0]])
    center, radius, _ = delaunay._batched_circumballs(tri, np.array([[0, 1, 2]]))
    tol = PointSet(tri).tolerance()
    down = [np.array([np.cos(a), np.sin(a)]) for a in np.radians([-60.0, -90.0, -120.0])]

    def certify(distances, tree=cKDTree):
        planted = [center[0] + d * u for d, u in zip(distances, down)]
        pts = np.vstack([tri, planted])
        subsets = np.array(list(combinations(range(len(pts)), 3)))
        centers, radii, ok = delaunay._batched_circumballs(pts, subsets)
        rows, protections, groups = delaunay._empty_balls(tree(pts), subsets[ok], centers[ok],
                                                          radii[ok], tol)
        return dict(zip(map(tuple, subsets[ok][rows].tolist()), protections)), groups

    for offset in (-2.0, -0.5, 0.5, 2.0):
        accepted, groups = certify([radius[0] + offset * tol])
        assert ((0, 1, 2) in accepted) == (offset > -1.0)
        assert bool(groups) == (abs(offset) < 1.0)
    # A group of six: more points than the nearest-point list holds.
    accepted, groups = certify([radius[0] + f * tol for f in (0.2, 0.5, 0.8)])
    assert (0, 1, 2, 5, 6, 7) in groups
    # Three foreign points within rounding of each other, ranked by a tree
    # that lists the second and third but not the nearest.
    accepted, groups = certify([(radius[0] + 5.0 * tol) * (1.0 + f) for f in (0.0, 1e-13, 2e-13)],
                               tree=MisrankingTree)
    assert accepted[(0, 1, 2)] == pytest.approx(5.0 * tol)
    # The Newton metric route certifies its balls among the images phi(P).
    pts = grid_points(6, dim=2, jitter=0.15, seed=4)
    model = MetricModel(DisplacementField(2, amplitude=2e-3, seed=1))
    eps = analyze_genericity(pts).sampling.epsilon
    before = len(certifier_calls)
    assert len(metric_delaunay(pts, model, [14, 15], eps=eps, path="newton").tops)
    assert len(certifier_calls) == before + 1
    # Rejected rows, groups and every kind of input went through the check.
    assert any(rows > accepted for rows, accepted, _ in certifier_calls)
    assert sum(groups for _, _, groups in certifier_calls) > 100


def test_point_set_extremes_match_pdist():
    square_edges = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                             [0.5, 0.0], [0.25, 1.0], [1.0, 0.7], [0.0, 0.1], [0.5, 0.5]])
    sets = [uniform_points(500, 2, seed=1), uniform_points(300, 3, seed=2), square_edges,
            grid_points(6, 2), grid_points(4, 3), grid_points(5, 2, spacing=0.1) + 3.0,
            np.array([[0.0, 0.0], [3.0, 4.0]]),
            np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [0.5, 0.5]]),
            np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0],
                      [0.3, 0.2, 0.0]]),
            np.linspace(0.0, 1.0, 7)[:, None]]
    for pts in sets:
        ps = PointSet(pts)
        assert ps.diameter() == pdist(pts).max()
        assert ps.min_gap() == pdist(pts).min()


def test_bruteforce_refuses_oversized_inputs():
    pts = uniform_points(2000, 2, seed=1)
    t0 = time.perf_counter()
    with pytest.raises(PreconditionError, match="subsets"):
        delaunay_bruteforce(pts)
    assert time.perf_counter() - t0 < 1.0


def test_point_set_compares_values_not_bytes():
    # 0.0 and -0.0 are one coordinate value, so these are duplicate points.
    with pytest.raises(PreconditionError, match="duplicate"):
        PointSet(np.array([[0.0, 0.0], [-0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(PreconditionError, match="duplicate"):
        PointSet(np.array([[1.0, -0.0], [1.0, 0.0], [0.0, 1.0]]))
    ps = PointSet(np.array([[-0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert ps.n == 3


def test_circumcenter_seeds_equal_the_metrics_batch_centres():
    # Mixed sizes, vertices, repeated vertices (degenerate, no circumball)
    # and collinear triples (degenerate), against simplex_metrics one by one.
    def assert_seeds(pts, cands, seeds):
        for cand, seed in zip(cands, seeds):
            centre = simplex_metrics(pts[list(cand)]).circumcenter
            want = centre if centre is not None else pts[list(cand)].mean(axis=0)
            assert np.array_equal(seed, want), cand

    pts = np.vstack([grid_points(4, 2, jitter=0.2, seed=7),
                     [[0.5, 0.5], [1.0, 1.0], [1.5, 1.5]]])
    cands = [(3,), (0, 1), (0, 1, 5), (2, 2), (0, 5, 10), (16, 17, 18), (4, 4, 9),
             (1, 2, 3), (6,), (7, 11), (0, 5, 10), (16, 17, 0)]

    def padded(cands, m):
        rows = [(*c, *(c[0],) * (m + 1 - len(c))) for c in cands]
        return np.array(rows, dtype=np.intp).reshape(-1, m + 1), np.array([len(c) for c in cands])

    seeds = delaunay._circumcenter_seeds(pts, *padded(cands, 2))
    assert_seeds(pts, cands, seeds)
    assert seeds.shape == (len(cands), 2)
    for dim, side in ((2, 7), (3, 4)):
        pts = grid_points(side, dim, jitter=0.1, seed=5)
        a = analyze_genericity(pts)
        region = [int(np.argmin(np.linalg.norm(pts - pts.mean(axis=0), axis=1)))]
        ps = PointSet(pts)
        rows, sizes = _star_candidates(ps, region, 2.0 * a.sampling.epsilon + ps.tolerance(),
                                       range(1, dim + 1))
        assert_seeds(pts, candidate_tuples(rows, sizes),
                     delaunay._circumcenter_seeds(pts, rows, sizes))
    assert delaunay._circumcenter_seeds(pts, *padded([], 3)).shape == (0, 3)


def test_routes_keep_their_bits_in_blocks_of_seven_entries(monkeypatch):
    # Every gap and certifier row is computed on its own, so blocks of two
    # rows (hull.BLOCK = 7) give the same results as the default blocks.
    import delgen.hull as hull

    def results():
        out = []
        for pts in (grid_points(5, 2, jitter=0.15, seed=4), grid_points(3, 3, jitter=0.1, seed=2)):
            eps = analyze_genericity(pts).sampling.epsilon
            region = [int(np.argmin(np.linalg.norm(pts - pts.mean(axis=0), axis=1)))]
            relaxed = relaxed_delaunay(pts, 0.3 * eps, region, eps=eps, base=delaunay_lifted(pts))
            model = MetricModel(DisplacementField(pts.shape[1], 1e-3, seed=1))
            newton = metric_delaunay(pts, model, region, eps=eps, path="newton")
            brute = delaunay_bruteforce(pts)
            out.append([relaxed.members, relaxed.sizes, relaxed.witnesses, relaxed.undecided,
                        newton.tops, newton.centres, newton.radii, newton.protections,
                        newton.not_found, brute.tops, brute.centres, brute.radii,
                        brute.protections, brute.degeneracy_groups])
        return out

    want = results()
    monkeypatch.setattr(hull, "BLOCK", 7)
    got = results()
    for a, b in zip(want, got):
        for x, y in zip(a, b):
            assert np.array_equal(np.asarray(x), np.asarray(y))


def test_lifted_route_certifies_in_bounded_memory():
    # The certifier lists m+3 points per qhull top a block of rows at a time
    # (hull.blocks); listed whole, about 40,000 tops took 21 MB traced.
    pts = uniform_points(20000, 2, seed=0)
    res, peak = traced_peak(lambda: delaunay_lifted(pts))
    assert len(res.tops) > 39000
    assert peak < 40 * 8 * len(res.tops), peak


def test_lifting_bound_runs_in_blocks_of_rows():
    # Every qhull top of a 2,000-point cloud as a candidate: held whole, its
    # (rows x pairs x (m+1)) tables took about 19 MB traced.
    ps = PointSet(uniform_points(2000, 2, seed=3))
    base = delaunay_lifted(ps)
    (bound, radius), peak = traced_peak(
        lambda: delaunay._lifting_bound(ps, base.tops, base.centres, 0.1))
    assert len(bound) == len(radius) == len(base.tops) > 3900
    assert peak < 8e6, peak
    # Each cube holds its top's empty circumcentre, where h = R^2 - d^2 = 0.
    assert (bound <= 0.0).all()


def assert_kept_or_none(ps, base, copies):
    """Each result of ``_kept_triangulations`` is None or, column for column
    and bit for bit, what ``delaunay_lifted`` returns on its copy. Returns
    the number kept."""
    got = delaunay._kept_triangulations(ps, base, copies)
    assert len(got) == len(copies)
    for pts, kept in zip(copies, got):
        if kept is None:
            continue
        want = delaunay_lifted(pts)
        for col in ("tops", "centres", "radii", "protections"):
            x, y = getattr(kept, col), getattr(want, col)
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), col
        assert kept.degeneracy_groups == want.degeneracy_groups == ()
        assert kept.generic and want.generic
        assert kept.tolerance.hex() == want.tolerance.hex()
    return sum(kept is not None for kept in got)


def perturbed_copies(analysis, frac, seeds=2):
    """Uniform, radial and adversarial copies and images phi(P) of an
    analysed set at ``frac`` times its point budget."""
    from delgen.perturb import _adversarial_directions, make_point_perturbation

    ps, dim = analysis.points, analysis.points.dim
    b = measured_secure_params(analysis).budget()
    dirs = _adversarial_directions(ps, analysis.base)
    copies = [make_point_perturbation(ps, frac * b.rho_point, s, model, directions=dirs).apply()
              for model in ("uniform", "radial", "adversarial") for s in range(seeds)]
    return copies + [DisplacementField(dim, frac * b.rho_metric / 2.0, s).forward(ps.points)
                     for s in range(seeds)]


@pytest.mark.parametrize("seed", range(1, 9))
def test_kept_triangulations_are_the_lifted_route_or_none(seed):
    a = analyze_genericity(grid_points(11, 2, 0.2, seed=seed))
    for frac in (0.5, 1.0, 3.0, 80.0):
        copies = perturbed_copies(a, frac)
        kept = assert_kept_or_none(a.points, a.base, copies)
        # Within the budget every copy keeps the base triangulation.
        assert kept == len(copies) or frac > 1.0
        if frac == 80.0:
            assert kept < len(copies)


def test_kept_triangulations_in_3d():
    a = analyze_genericity(grid_points(9, 3, 0.05, seed=1))
    copies = [pts for frac in (0.5, 1.0, 3.0) for pts in perturbed_copies(a, frac, seeds=1)]
    assert assert_kept_or_none(a.points, a.base, copies) == len(copies)


@pytest.mark.parametrize("pts", [grid_points(6, 2), grid_points(4, 3)], ids=["6x6", "4x4x4"])
def test_exact_lattices_keep_no_triangulation(pts):
    # Cospherical groups: the base is no triangulation to keep.
    ps = PointSet(pts)
    base = delaunay_lifted(ps)
    assert base.degeneracy_groups
    assert delaunay._kept_triangulations(ps, base, [pts, pts + 1e-9]) == [None, None]


def test_a_hull_vertex_pushed_past_its_neighbours_chord_is_not_kept():
    # Every ball stays empty, but the hull loses the vertex and the lifted
    # route adds the sliver of it and its two hull neighbours.
    pts = grid_points(5, 2, 0.2, seed=2)
    ps = PointSet(pts)
    base = delaunay_lifted(ps)
    u, w = 0, 3
    chord = pts[w] - pts[u]
    inward = np.array([-chord[1], chord[0]]) / np.linalg.norm(chord)
    inward *= np.sign(inward @ (pts.mean(axis=0) - pts[u]))
    copy = pts.copy()
    copy[1] += inward * (0.01 - inward @ (pts[1] - pts[u]))
    want = delaunay_lifted(copy)
    assert len(want.tops) == len(base.tops) + 1
    assert (0, 1, 3) in set(map(tuple, want.tops.tolist()))
    assert delaunay._kept_triangulations(ps, base, [copy]) == [None]


def test_a_hull_vertex_pushed_outward_is_not_kept():
    pts = grid_points(5, 2, 0.2, seed=2)
    ps = PointSet(pts)
    base = delaunay_lifted(ps)
    copy = pts.copy()
    copy[1] += (pts[1] - pts.mean(axis=0)) * 0.5
    assert not np.array_equal(delaunay_lifted(copy).tops, base.tops)
    assert delaunay._kept_triangulations(ps, base, [copy]) == [None]


def test_copies_the_lifted_route_refuses_are_not_kept():
    pts = grid_points(6, 2, 0.2, seed=1)
    ps = PointSet(pts)
    base = delaunay_lifted(ps)
    far, twin, nan = pts * 1e80, pts.copy(), pts.copy()
    twin[7] = twin[8]
    nan[3, 1] = np.nan
    assert delaunay._kept_triangulations(ps, base, [far, twin, nan]) == [None] * 3
    for copy, message in ((far, "largest coordinate magnitude"), (twin, "duplicate"),
                          (nan, "finite")):
        with pytest.raises(PreconditionError, match=message):
            delaunay_lifted(copy)


def test_a_flat_top_leaves_the_other_copies_kept():
    pts = grid_points(6, 2, 0.2, seed=1)
    ps = PointSet(pts)
    base = delaunay_lifted(ps)
    flat = pts.copy()
    a, b, c = base.tops[10]
    flat[c] = 0.5 * (pts[a] + pts[b])  # on the top's first edge
    kept = delaunay._kept_triangulations(ps, base, [pts + 1e-6, flat])
    assert kept[0] is not None and kept[1] is None


def test_circumball_solvability_keeps_the_lapack_flags_near_its_threshold():
    """Triangles and tetrahedra whose |det| lies within 10^-3.5 to 10^3.5 of
    the threshold 1e-12 times the product of the edge norms, some of them
    far from the origin: the cofactor determinant, with LAPACK's near the
    threshold, flags exactly the rows that LAPACK's alone flags."""
    rng = np.random.default_rng(17)
    for m in (2, 3):
        rows = []
        for level in np.concatenate([np.geomspace(10**-3.5, 10**3.5, 57),
                                     1.0 + np.geomspace(1e-6, 1e-1, 6),
                                     1.0 - np.geomspace(1e-6, 1e-1, 6)]):
            for offset in (0.0, 1e3, 1e6):
                edges = rng.normal(size=(m, m))
                # Move the last edge to within level * 1e-12 of the span of the others.
                q, _ = np.linalg.qr(edges[:-1].T, mode="complete")
                normal = q[:, -1]
                edges[-1] -= (edges[-1] @ normal) * normal
                scale = np.prod(np.linalg.norm(edges, axis=1))
                lift = abs(np.linalg.det(np.vstack([edges[:-1], normal])))
                edges[-1] += level * 1e-12 * scale / lift * normal
                base = offset + rng.normal(size=m)
                rows.append(np.vstack([base, base + edges]))
        pts = np.vstack(rows)
        subsets = np.arange(len(pts)).reshape(-1, m + 1)
        a = pts[subsets][:, 1:] - pts[subsets][:, :1]
        scale = np.prod(np.linalg.norm(a, axis=2), axis=1)
        want = np.abs(np.linalg.det(a)) > 1e-12 * np.maximum(scale, 1e-300)
        _, _, good = delaunay._batched_circumballs(pts, subsets)
        assert np.array_equal(good, want), m
        assert want.any() and not want.all()
