"""Deterministic dataset generators used by the tests and the CLI.

Genericity is obtained by searching, not by construction: jitter a lattice
with a seeded generator, measure its protection, and keep the best of k
candidates. That is deliberately naive; it is enough at desk scale and makes
every emitted dataset reproducible from (kind, parameters, seed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DelgenError, PreconditionError
from .genericity import analyze_genericity


def _child_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence((int(seed), int(index))).generate_state(1)[0])


def grid_points(side: int, dim: int = 2, jitter: float = 0.0, seed: int = 0,
                spacing: float = 1.0) -> np.ndarray:
    """Unit-spacing lattice {0..side-1}^dim, optionally jittered in a ball.

    Each point moves by a uniform draw from the ball of radius
    jitter * spacing; jitter zero reproduces the exact lattice.
    """
    if side < 2 or dim < 1:
        raise PreconditionError("need side >= 2 and dim >= 1")
    if not 0 <= jitter < 0.5:
        raise PreconditionError("jitter must lie in [0, 0.5) grid units")
    axes = [np.arange(side, dtype=float)] * dim
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    pts = pts * spacing
    if jitter > 0:
        rng = np.random.default_rng(seed)
        dirs = rng.normal(size=pts.shape)
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        mags = jitter * spacing * rng.uniform(size=pts.shape[0]) ** (1.0 / dim)
        pts = pts + dirs * mags[:, None]
    return pts


def uniform_points(n: int, dim: int = 2, seed: int = 0, low: float = 0.0,
                   high: float = 1.0) -> np.ndarray:
    """n points drawn uniformly from an axis aligned box."""
    if n < dim + 1:
        raise PreconditionError("need at least dim + 1 points")
    rng = np.random.default_rng(seed)
    return rng.uniform(low, high, size=(n, dim))


@dataclass(frozen=True)
class DeltaSearchResult:
    """Outcome of a best-of-k protection search."""

    points: np.ndarray
    seed: int
    delta: float
    candidates: tuple[tuple[int, float], ...]


def delta_search(side: int, dim: int = 2, jitter: float = 0.2, k: int = 20,
                 seed: int = 0) -> DeltaSearchResult:
    """Jitter a grid k times and keep the candidate with the best protection.

    Candidates whose deep interior is empty or whose audit degenerates score
    minus infinity. The measured protection is the audited double-star
    minimum with the region taken as all deep interior points.
    """
    if k < 1:
        raise PreconditionError("need at least one candidate")
    scored: list[tuple[int, float]] = []
    best = None
    for i in range(k):
        child = _child_seed(seed, i)
        pts = grid_points(side, dim, jitter, child)
        try:
            delta = analyze_genericity(pts).protection.delta_global
        except DelgenError:
            delta = -np.inf
        scored.append((child, float(delta)))
        if best is None or delta > best[2]:
            best = (pts, child, delta)
    if best is None or not np.isfinite(best[2]):
        raise PreconditionError("no candidate produced an auditable dataset")
    return DeltaSearchResult(points=best[0], seed=best[1], delta=float(best[2]),
                             candidates=tuple(scored))


def generic_grid(side: int = 9, dim: int = 2, seed: int = 0, jitter: float = 0.2,
                 k: int = 5) -> np.ndarray:
    """A jittered grid with certified positive protection, found by search."""
    found = delta_search(side, dim, jitter, k, seed)
    tol = 1e-9 * float(np.linalg.norm(found.points.max(0) - found.points.min(0)))
    if found.delta <= tol:
        raise PreconditionError(
            f"search exhausted {k} candidates without positive protection"
        )
    return found.points
