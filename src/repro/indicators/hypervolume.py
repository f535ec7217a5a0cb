"""Hypervolume indicator (Zitzler et al. 2002), the paper's quality metric.

Evaluation paths, selected by dimension (all exact ones agree to
floating-point accuracy):

* exact 2-D sweep (O(n log n));
* exact 3-D incremental-staircase sweep (O(n log n));
* exact WFG exclusive-hypervolume algorithm (While et al. 2012) for any
  dimension -- the algorithm of choice for the 5-objective archives this
  study produces (hundreds of points), as an iterative rewrite of the
  recursion with an explicit frame stack, arithmetically identical to
  the recursion the tests keep as oracle;
* a seeded Monte Carlo estimator for very large sets or when thousands
  of hypervolume evaluations are needed (the speedup-trajectory
  experiments), with error ~ 1/sqrt(samples); samples are drawn and
  domination-checked in vectorized blocks.

:class:`Hypervolume` additionally memoizes results keyed by a hash of
the front bytes: the Fig. 5-style trajectory experiments recompute
hypervolume over near-identical archive snapshots, where consecutive
snapshots are frequently byte-identical.

All objectives are minimised and the hypervolume is measured against a
reference (nadir-ward) point ``ref``; points not strictly dominating
``ref`` contribute nothing.
"""

from __future__ import annotations

import bisect
from collections import OrderedDict
from typing import Optional

import numpy as np

from ..core.dominance import nondominated_filter

__all__ = ["Hypervolume", "hypervolume", "monte_carlo_hypervolume"]


def _clean_front(front: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Drop points that do not dominate the reference point and exact
    duplicate rows (which contribute no volume, and would only grow the
    WFG limit sets), then keep only the nondominated ones."""
    F = np.atleast_2d(np.asarray(front, dtype=float))
    if F.size == 0:
        return np.empty((0, ref.size))
    F = F[np.all(F < ref, axis=1)]
    if F.shape[0] == 0:
        return F
    if F.shape[0] > 1:
        F = np.unique(F, axis=0)
    return nondominated_filter(F)


def _hv_2d(front: np.ndarray, ref: np.ndarray) -> float:
    """Exact 2-D hypervolume by a sorted sweep."""
    order = np.argsort(front[:, 0])
    F = front[order]
    hv = 0.0
    prev_f2 = ref[1]
    for f1, f2 in F:
        hv += (ref[0] - f1) * (prev_f2 - f2)
        prev_f2 = f2
    return hv


def _hv_3d(front: np.ndarray, ref: np.ndarray) -> float:
    """Exact 3-D hypervolume by an incremental staircase sweep.

    Points are processed in ascending third objective; a 2-D staircase
    of the (f1, f2) projections -- kept as parallel lists sorted by
    ``u = ref - f1`` ascending, ``v = ref - f2`` descending -- tracks
    the area dominated so far, and each z-slab contributes
    ``area * dz``.  Because the front is clean (mutually nondominated,
    deduplicated), a new projection is never weakly dominated by the
    staircase; it can only evict a contiguous run of staircase points.
    """
    order = np.argsort(front[:, 2], kind="stable")
    F = front[order]
    n = F.shape[0]
    us: list[float] = []  # ascending
    vs: list[float] = []  # descending
    area = 0.0
    hv = 0.0
    for i in range(n):
        u = ref[0] - F[i, 0]
        v = ref[1] - F[i, 1]
        i1 = bisect.bisect_right(us, u)
        # First index in [0, i1) with vs[j] <= v (vs is descending):
        # those staircase points are dominated by the new projection.
        lo, hi = 0, i1
        while lo < hi:
            mid = (lo + hi) // 2
            if vs[mid] > v:
                lo = mid + 1
            else:
                hi = mid
        i0 = lo
        prev_u = us[i0 - 1] if i0 > 0 else 0.0
        right_v = vs[i1] if i1 < len(vs) else 0.0
        added = 0.0
        for j in range(i0, i1):
            added += (us[j] - prev_u) * (v - vs[j])
            prev_u = us[j]
        added += (u - prev_u) * (v - right_v)
        area += added
        us[i0:i1] = [u]
        vs[i0:i1] = [v]
        z_next = F[i + 1, 2] if i + 1 < n else ref[2]
        hv += area * (z_next - F[i, 2])
    return hv


def _limit_set(p: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """WFG limit set: rest clipped to the region dominated by p."""
    return np.maximum(rest, p)


def _wfg_iterative(front: np.ndarray, ref: np.ndarray) -> float:
    """WFG exclusive-hypervolume algorithm (front already clean), with
    an explicit frame stack in place of recursion.

    Each frame sums, over its front sorted by descending first
    objective, every point's inclusive volume minus the hypervolume of
    the nondominated limit set of the points after it.  The operations
    and their order are exactly those of the recursive formulation, so
    the two agree bitwise; the explicit stack removes Python call
    overhead and any recursion-depth limit.  Frames are
    ``[F_sorted, i, acc, pending_incl]``.
    """
    n = front.shape[0]
    if n == 0:
        return 0.0
    if n == 1:
        return float(np.prod(ref - front[0]))
    frames: list[list] = [
        [front[np.argsort(front[:, 0])[::-1]], 0, 0.0, 0.0]
    ]
    ret: Optional[float] = None
    while frames:
        fr = frames[-1]
        if ret is not None:
            # A child frame just finished: fold its exclusive volume in.
            fr[2] += fr[3] - ret
            fr[1] += 1
            ret = None
        F, i = fr[0], fr[1]
        if i >= F.shape[0]:
            ret = fr[2]
            frames.pop()
            continue
        p = F[i]
        incl = float(np.prod(ref - p))
        rest = F[i + 1 :]
        if rest.shape[0] == 0:
            fr[2] += incl
            fr[1] += 1
            continue
        limited = nondominated_filter(_limit_set(p, rest))
        if limited.shape[0] == 1:
            # Inline the recursion's n == 1 base case.
            fr[2] += incl - float(np.prod(ref - limited[0]))
            fr[1] += 1
            continue
        fr[3] = incl
        frames.append(
            [limited[np.argsort(limited[:, 0])[::-1]], 0, 0.0, 0.0]
        )
    return float(ret)


def hypervolume(front: np.ndarray, ref: np.ndarray | float) -> float:
    """Exact hypervolume of ``front`` w.r.t. reference point ``ref``.

    ``ref`` may be a scalar (broadcast over objectives).
    """
    F = np.atleast_2d(np.asarray(front, dtype=float))
    if F.size == 0:
        return 0.0
    m = F.shape[1]
    r = np.full(m, float(ref)) if np.isscalar(ref) else np.asarray(ref, dtype=float)
    if r.shape != (m,):
        raise ValueError(f"reference point must have {m} components")
    F = _clean_front(F, r)
    if F.shape[0] == 0:
        return 0.0
    if m == 1:
        return float(r[0] - F[:, 0].min())
    if m == 2:
        return _hv_2d(F, r)
    if m == 3:
        return _hv_3d(F, r)
    return _wfg_iterative(F, r)


def monte_carlo_hypervolume(
    front: np.ndarray,
    ref: np.ndarray | float,
    samples: int = 10_000,
    seed: Optional[int] = 12345,
    rng: Optional[np.random.Generator] = None,
    chunk: int = 4096,
) -> float:
    """Monte Carlo hypervolume estimate.

    Samples uniformly in the box spanned by the front's componentwise
    minimum and ``ref`` (the only region that can be dominated) and
    scales the dominated fraction by the box volume.  A fixed default
    seed makes trajectory comparisons smooth (common random numbers).
    Each chunk of samples is domination-checked against the whole front
    with one broadcast.
    """
    F = np.atleast_2d(np.asarray(front, dtype=float))
    if F.size == 0:
        return 0.0
    m = F.shape[1]
    r = np.full(m, float(ref)) if np.isscalar(ref) else np.asarray(ref, dtype=float)
    F = _clean_front(F, r)
    if F.shape[0] == 0:
        return 0.0
    lo = F.min(axis=0)
    box = np.prod(r - lo)
    if box <= 0.0:
        return 0.0
    gen = rng if rng is not None else np.random.default_rng(seed)
    dominated = 0
    remaining = samples
    while remaining > 0:
        k = min(chunk, remaining)
        pts = lo + gen.random((k, m)) * (r - lo)
        # A sample is dominated if some front point is <= it everywhere.
        hits = np.any(
            np.all(F[None, :, :] <= pts[:, None, :], axis=2), axis=1
        )
        dominated += int(np.count_nonzero(hits))
        remaining -= k
    return box * dominated / samples


class Hypervolume:
    """Reusable hypervolume evaluator with method selection and a
    memoized front cache.

    Parameters
    ----------
    ref:
        Reference point (scalar broadcast allowed).
    method:
        ``"exact"``, ``"monte-carlo"``, or ``"auto"`` (exact up to
        ``exact_limit`` points for M >= 4, exact always for M <= 3).
    samples:
        Monte Carlo sample count.
    cache_size:
        Maximum number of memoized fronts (LRU evicted); ``0`` disables
        the cache.  Trajectory evaluation (Fig. 5) hits the cache on
        every snapshot whose archive did not change between records.
    """

    def __init__(
        self,
        ref: np.ndarray | float,
        method: str = "auto",
        samples: int = 20_000,
        exact_limit: int = 64,
        seed: Optional[int] = 12345,
        cache_size: int = 1024,
    ) -> None:
        if method not in ("exact", "monte-carlo", "auto"):
            raise ValueError(f"unknown method {method!r}")
        self.ref = ref
        self.method = method
        self.samples = samples
        self.exact_limit = exact_limit
        self.seed = seed
        self.cache_size = cache_size
        self._cache: "OrderedDict[bytes, float]" = OrderedDict()
        self.cache_hits = 0
        self.cache_misses = 0

    def clear_cache(self) -> None:
        self._cache.clear()
        self.cache_hits = 0
        self.cache_misses = 0

    def _key(self, F: np.ndarray, method: str) -> bytes:
        r = self.ref
        ref_bytes = (
            np.asarray(r, dtype=float).tobytes()
            if not np.isscalar(r)
            else np.float64(r).tobytes()
        )
        shape = np.asarray(F.shape, dtype=np.int64).tobytes()
        return method.encode() + shape + ref_bytes + F.tobytes()

    def compute(self, front: np.ndarray) -> float:
        F = np.atleast_2d(np.asarray(front, dtype=float))
        if F.size == 0:
            return 0.0
        method = self.method
        if method == "auto":
            m = F.shape[1]
            if m <= 3 or F.shape[0] <= self.exact_limit:
                method = "exact"
            else:
                method = "monte-carlo"
        use_cache = self.cache_size > 0
        if use_cache:
            key = self._key(np.ascontiguousarray(F), method)
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
                self.cache_hits += 1
                return cached
            self.cache_misses += 1
        if method == "exact":
            value = hypervolume(F, self.ref)
        else:
            value = monte_carlo_hypervolume(
                F, self.ref, samples=self.samples, seed=self.seed
            )
        if use_cache:
            self._cache[key] = value
            if len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)
        return value

    __call__ = compute
