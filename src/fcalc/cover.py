"""Finite open covers of closed intervals.

Every cover query goes through one structure, `_Reach`: the pieces
sorted by left endpoint with a running maximum of their right
endpoints.  reach(x) is the largest right endpoint over pieces with
lo < x (lo <= x for closed cell queries), attained by the lowest-index
such piece.  Some piece contains x exactly when reach(x) > x, and two
points x <= y share a piece exactly when reach(x) > y.

verify_cover and finite_subcover are one greedy walk from the left end
of the target along reach: an exact constructive Heine-Borel sweep,
never a sampling argument.  The exact Lebesgue number is the minimum
slack reach - x over breakpoints and reach - q over cells (p, q)
between them, all answered by one vectorised query.  The conservative
min-half-radius formula is kept as `paper` mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .errors import CoverError, MathError, PreconditionError
from .expr import Expr, evaluate
from .interval import Interval, OpenInterval, uniform_partition
from .stepfn import StepFunction


@dataclass
class OpenCover:
    target: Interval
    pieces: List[OpenInterval]
    verified: Optional[bool] = field(default=None, compare=False)

    @classmethod
    def from_json(cls, data) -> "OpenCover":
        return cls(
            Interval(*map(float, data["target"])),
            [OpenInterval(float(lo), float(hi)) for lo, hi in data["pieces"]],
        )

    def to_json(self):
        return {"target": self.target.to_json(), "pieces": [p.to_json() for p in self.pieces]}


class _Reach:
    """Pieces sorted by left endpoint with a running maximum of right endpoints.

    Calling it with x (a float or an array) returns the largest right
    endpoint over pieces with lo < x, or lo <= x when closed, and the
    lowest index attaining it; -inf and -1 where there is none.
    """

    def __init__(self, pieces: List[OpenInterval]):
        los = np.array([p.lo for p in pieces], dtype=float)
        his = np.array([p.hi for p in pieces], dtype=float)
        by_lo = np.argsort(los, kind="stable")
        by_hi = np.argsort(-his, kind="stable")  # highest first, ties by index
        rank = np.empty_like(by_hi)
        rank[by_hi] = np.arange(len(his))
        best = by_hi[np.minimum.accumulate(rank[by_lo])]
        self.los = los[by_lo]
        self.his = np.concatenate(([-math.inf], his[best]))
        self.idx = np.concatenate(([-1], best))

    def __call__(self, x, closed: bool = False):
        k = np.searchsorted(self.los, x, side="right" if closed else "left")
        return self.his[k], self.idx[k]


def _greedy_walk(cover: OpenCover) -> Tuple[List[int], Optional[float]]:
    """Chain of pieces from the left end of the target, each reaching
    furthest right from the current reach r, and the first uncovered
    point (None once a piece passes the right end).  r strictly
    increases through right endpoints, so the walk ends within
    len(pieces) steps."""
    reach = _Reach(cover.pieces)
    r, b = cover.target.lo, cover.target.hi
    chain: List[int] = []
    while True:
        hi, i = reach(r)
        if not hi > r:
            return chain, r
        chain.append(int(i))
        if hi > b:
            return chain, None
        r = float(hi)


def verify_cover(cover: OpenCover) -> Tuple[bool, Optional[float]]:
    """Exact covering check by sweeping reachability left to right.

    Returns (True, None) or (False, witness) with an uncovered point.
    The verdict is cached on the cover.
    """
    _, gap = _greedy_walk(cover)
    cover.verified = gap is None
    return cover.verified, gap


def length_inequality(cover: OpenCover) -> bool:
    """Total piece length strictly exceeds the covered length."""
    if cover.verified is not True:
        raise CoverError("cover must be verified before using length_inequality")
    return sum(p.length for p in cover.pieces) > cover.target.length


def finite_subcover(cover: OpenCover) -> List[int]:
    """Greedy left-to-right subcover; minimal cardinality for interval covers."""
    if cover.verified is not True:
        raise CoverError("cover must be verified before extracting a subcover")
    chain, gap = _greedy_walk(cover)
    if gap is not None:
        raise CoverError(f"sweep stalled at {gap}; endpoint pathology in a verified cover")
    return chain


def lebesgue_number(cover: OpenCover, mode: str = "exact", sample: int = 256) -> float:
    """A delta such that any two target points within delta share a piece.

    exact mode returns the maximal such delta from the overlap sweep;
    paper mode returns the conservative min-half-radius value over a
    sample of points, each assigned its deepest containing piece.  When
    no pair of target points fails, the target length is returned.
    """
    if cover.verified is not True:
        raise CoverError("cover must be verified before computing a Lebesgue number")
    a, b = cover.target.lo, cover.target.hi
    if a == b:
        raise PreconditionError("target must be nondegenerate")
    if mode == "exact":
        return _lebesgue_exact(cover)
    if mode == "paper":
        return _lebesgue_half_radius(cover, sample)
    raise PreconditionError(f"unknown mode {mode!r}")


def _breakpoints(cover: OpenCover) -> np.ndarray:
    """Sorted distinct target ends and piece endpoints inside the target."""
    a, b = cover.target.lo, cover.target.hi
    v = np.array([a, b] + [e for p in cover.pieces for e in (p.lo, p.hi)])
    # stable, so of equal values such as 0.0 and -0.0 the first listed stays
    v = np.sort(v[(v >= a) & (v <= b)], kind="stable")
    return v[np.concatenate(([True], v[1:] != v[:-1]))]


def _lebesgue_exact(cover: OpenCover) -> float:
    b = cover.target.hi
    breaks = _breakpoints(cover)
    reach = _Reach(cover.pieces)
    at, _ = reach(breaks)
    uncovered = breaks[~(at > breaks)]
    if uncovered.size:
        raise CoverError(f"point {float(uncovered[0])} of a verified cover is uncovered")
    # no endpoint lies inside a cell, so the piece holding its left end
    # holds the whole closed cell
    over, _ = reach(breaks[:-1], closed=True)
    slack = np.concatenate(((at - breaks)[at <= b], (over - breaks[1:])[over <= b]))
    return float(slack.min()) if slack.size else cover.target.length


def binding_pair(cover: OpenCover, delta: float) -> Optional[Tuple[float, float]]:
    """A target pair within delta sharing no piece, or None.

    Directed search at the binding overlap: checks each breakpoint both
    exactly and from just inside the cell to its left, pairing x with
    its reach (capped at the target end) and with x + delta less a hair.
    """
    b = cover.target.hi
    breaks = _breakpoints(cover)
    p, q = breaks[:-1], breaks[1:]
    xs = np.concatenate((breaks, q - np.minimum(delta * 1e-3, (q - p) / 2)))
    reach, _ = _Reach(cover.pieces)(xs)
    inside = reach > xs

    def free(cs):
        return inside & (cs >= xs) & (cs - xs < delta) & (cs <= b) & ~(reach > cs)

    ys, zs = np.minimum(reach, b), xs + delta * (1 - 1e-12)
    hit_y, hit_z = free(ys), free(zs)
    hits = np.flatnonzero(hit_y | hit_z)
    if not hits.size:
        return None
    k = hits[0]
    return float(xs[k]), float(ys[k] if hit_y[k] else zs[k])


def _lebesgue_half_radius(cover: OpenCover, sample: int, max_sample: int = 1 << 20) -> float:
    a, b = cover.target.lo, cover.target.hi
    los = np.array([p.lo for p in cover.pieces], dtype=float)
    his = np.array([p.hi for p in cover.pieces], dtype=float)
    n = max(2, sample)
    while True:
        ts = np.linspace(a, b, n)
        radii = np.zeros(n)
        # the samples strictly inside a piece are one slice of ts
        starts, stops = np.searchsorted(ts, los, "right"), np.searchsorted(ts, his, "left")
        for lo, hi, i, j in zip(los, his, starts, stops):
            t = ts[i:j]
            np.maximum(radii[i:j], np.minimum(t - lo, hi - t), out=radii[i:j])
        if not radii.all():
            raise CoverError(f"sample point {float(ts[radii == 0][0])} of a verified cover "
                             "is uncovered")
        spacing = (b - a) / (n - 1)
        # every target point must sit within half a radius of some sample
        if spacing < float(radii.min()):
            return float(radii.min()) / 2
        if n >= max_sample:
            raise CoverError("sampling limit reached before half-radius coverage held")
        n *= 2


def _random_pairs(a: float, b: float, delta: float, pairs: int, seed: int):
    """Seeded target pairs (xs, cs) and the mask of those within delta."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(a, b, pairs)
    cs = np.clip(xs + rng.uniform(-delta, delta, pairs) * (1 - 1e-12), a, b)
    return xs, cs, np.abs(xs - cs) < delta


def validate_lebesgue(cover: OpenCover, delta: float, pairs: int = 10**4,
                      seed: int = 0) -> int:
    """Count violations of the defining property over random pairs."""
    xs, cs, close = _random_pairs(cover.target.lo, cover.target.hi, delta, pairs, seed)
    reach, _ = _Reach(cover.pieces)(np.minimum(xs, cs))
    return int(np.sum(close & ~(reach > np.maximum(xs, cs))))


def _window_radius(f: Expr, t: float, a: float, b: float, half_eps: float,
                   w0: float, probe: int = 33) -> float:
    """Largest sampled radius w with sup |f - f(t)| < half_eps on
    (t - w, t + w) clipped to [a, b], found by doubling then bisection."""
    ft = evaluate(f, t)
    cap = b - a

    def ok(w: float) -> bool:
        pts = np.clip(np.linspace(t - w, t + w, probe), a, b)
        return bool(np.max(np.abs(evaluate(f, pts) - ft)) < half_eps)

    w = w0
    while not ok(w):
        w /= 2
        if w < 1e-14:
            raise MathError(f"window collapsed near {t}: discontinuity at probe scale")
    if ok(cap):
        return cap
    lo = w
    while ok(lo * 2) and lo * 2 < cap:
        lo *= 2
    hi = min(lo * 2, cap)
    for _ in range(20):
        mid = (lo + hi) / 2
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo * 0.95


def uniform_modulus(f: Expr, a: float, b: float, eps: float, grid: int = 256,
                    seed: int = 0) -> float:
    """Uniform-continuity modulus via a window cover and its exact
    Lebesgue number.

    Windows use eps/2 so that two points sharing a window differ by
    less than eps.  The returned delta is re-validated on 10^4 random
    pairs; persistent failures (under-sampled windows) raise.
    """
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    if grid < 16:
        raise PreconditionError("grid must be at least 16")
    if not a < b:
        raise PreconditionError("need a < b")
    ts = np.linspace(a, b, grid)
    w0 = (b - a) / grid
    radii = [_window_radius(f, float(t), a, b, eps / 2, w0) for t in ts]
    for attempt in range(4):
        pieces = [OpenInterval(float(t) - r, float(t) + r) for t, r in zip(ts, radii)]
        cover = OpenCover(Interval(a, b), pieces)
        ok, witness = verify_cover(cover)
        if not ok:
            raise CoverError(
                f"window cover misses {witness}; raise the grid for this function"
            )
        delta = lebesgue_number(cover, "exact")
        xs, cs, close = _random_pairs(a, b, delta, 10**4, seed)
        if not np.any(close & (np.abs(evaluate(f, xs) - evaluate(f, cs)) >= eps)):
            return delta
        radii = [r * 0.7 for r in radii]
    raise MathError("modulus validation kept failing; windows under-sampled")


def step_approximation(f: Expr, a: float, b: float, eps: float,
                       delta: float = None, grid: int = 256, seed: int = 0) -> StepFunction:
    """Step function within eps of f, built on a uniform partition finer
    than the uniform-continuity modulus.

    Each cell carries the value of f at its left node.  Passing delta
    skips the modulus computation (useful when a modulus is known).
    """
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    if not a < b:
        raise PreconditionError("need a < b")
    if delta is None:
        delta = uniform_modulus(f, a, b, eps, grid=grid, seed=seed)
    if delta >= b - a:
        n = 1
    else:
        n = int(math.floor((b - a) / delta)) + 1
    part = uniform_partition(a, b, n)
    lefts = np.asarray(part.nodes[:-1])
    values = evaluate(f, lefts)
    return StepFunction(part, tuple(float(v) for v in values))


def sup_error(f: Expr, phi: StepFunction, factor: int = 10) -> float:
    """Measured sup |f - phi| over a factor-times-finer grid (nodes included)."""
    nodes = np.asarray(phi.partition.nodes)
    fine = [nodes]
    for lo, hi in phi.partition.cells():
        fine.append(np.linspace(lo, hi, factor + 1))
    xs = np.unique(np.concatenate(fine))
    return float(np.max(np.abs(evaluate(f, xs) - phi.sample(xs))))
