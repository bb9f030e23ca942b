"""Finite open covers of closed intervals.

A cover holds its pieces once, as two read-only float arrays of left
and right endpoints, and builds one structure, `_Reach`, once: keys
sorted with a running maximum of their values.  Keyed by the left
endpoints with the right endpoints as values, reach(x) is the largest
right endpoint over pieces with lo < x (lo <= x for closed cell
queries), attained by the lowest-index such piece.  Some piece contains
x exactly when reach(x) > x, and two points x <= y share a piece
exactly when reach(x) > y.

verify_cover and finite_subcover are one greedy walk from the left end
of the target along reach: an exact constructive Heine-Borel sweep,
never a sampling argument.  Every piece's next hop, reach at its right
end, comes from one vectorised query, so the walk follows integer
indices.  The exact Lebesgue number is the minimum slack reach - x over
breakpoints and reach - q over cells (p, q) between them, all answered
by one vectorised query.

The conservative min-half-radius formula is kept as `paper` mode.  A
sample t is bound by t - lo on pieces whose split key (the last double
where t - lo <= hi - t after rounding) is at least t, and by hi - t on
the others, so two more reach structures keyed by split key, one giving
the largest hi and one the smallest lo, answer every sample of a round
with two searchsorted calls.

uniform_modulus (a certified window cover) and sup_error decide from
interval enclosures (expr.enclose), never from samples.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np

from .errors import CoverError, MathError, PreconditionError
from .expr import Expr, enclose, evaluate
from .interval import Interval, OpenInterval, uniform_partition
from .stepfn import StepFunction

MAX_SAMPLE = 1 << 20   # most sample points the paper-mode Lebesgue number tries


class OpenCover:
    """Open pieces (lo, hi) over a closed target, held as the read-only
    endpoint arrays los and his.  pieces may be any sequence of (lo, hi)
    pairs: JSON lists, OpenIntervals or a (P, 2) array.  verified caches
    the verdict of verify_cover."""

    def __init__(self, target: Interval, pieces):
        try:
            ends = np.asarray(pieces, dtype=float) if len(pieces) else np.empty((0, 2))
        except (TypeError, ValueError):  # ragged, or not numbers
            ends = None
        if ends is None or ends.shape[1:] != (2,):
            raise PreconditionError("cover pieces must be (lo, hi) pairs")
        ends = ends.T.copy()  # the cover's own, contiguous
        ends.flags.writeable = False
        self.target, (self.los, self.his) = target, ends
        self.verified: Optional[bool] = None

    @classmethod
    def from_json(cls, data) -> "OpenCover":
        return cls(Interval(*data["target"]), data["pieces"])

    def to_json(self):
        return {"target": self.target.to_json(),
                "pieces": np.stack((self.los, self.his), 1).tolist()}

    @property
    def pieces(self) -> List[OpenInterval]:
        return list(map(OpenInterval, self.los.tolist(), self.his.tolist()))

    @cached_property
    def _reach(self) -> "_Reach":
        return _Reach(self.los, self.his)

    def __repr__(self):
        return f"OpenCover({self.target!r}, {self.to_json()['pieces']!r})"


class _Reach:
    """Keys sorted with a running maximum of their values.

    Calling it with x (a float or an array) returns the largest value
    over keys < x, or keys <= x when closed, and the lowest index
    attaining it; -inf and -1 where there is none.
    """

    def __init__(self, keys: np.ndarray, values: np.ndarray):
        by_key = np.argsort(keys, kind="stable")
        by_value = np.argsort(-values, kind="stable")  # highest first, ties by index
        rank = np.empty_like(by_value)
        rank[by_value] = np.arange(len(values))
        best = by_value[np.minimum.accumulate(rank[by_key])]
        self.keys = keys[by_key]
        self.values = np.concatenate(([-math.inf], values[best]))
        self.idx = np.concatenate(([-1], best))

    def __call__(self, x, closed: bool = False):
        k = np.searchsorted(self.keys, x, side="right" if closed else "left")
        return self.values[k], self.idx[k]


def _greedy_walk(cover: OpenCover) -> Tuple[List[int], Optional[float]]:
    """Chain of pieces from the left end of the target, each reaching
    furthest right from the current reach r, and the first uncovered
    point (None once a piece passes the right end).  r strictly
    increases through right endpoints, so the walk ends within
    len(pieces) steps; from piece i it is his[i], whose hop is queried
    for every piece at once."""
    hop_hi, hop_i = (v.tolist() for v in cover._reach(cover.his))
    r, b = cover.target.lo, cover.target.hi
    hi, i = (v.item() for v in cover._reach(r))
    chain: List[int] = []
    while hi > r:
        chain.append(i)
        if hi > b:
            return chain, None
        r, hi, i = hi, hop_hi[i], hop_i[i]
    return chain, r


def verify_cover(cover: OpenCover) -> Tuple[bool, Optional[float]]:
    """Exact covering check by sweeping reachability left to right.

    Returns (True, None) or (False, witness) with an uncovered point.
    The verdict is cached on the cover.
    """
    _, gap = _greedy_walk(cover)
    cover.verified = gap is None
    return cover.verified, gap


def length_inequality(cover: OpenCover) -> bool:
    """Total piece length strictly exceeds the covered length.

    An empty piece (reversed, NaN or (inf, inf)) has length 0.
    """
    if cover.verified is not True:
        raise CoverError("cover must be verified before using length_inequality")
    with np.errstate(invalid="ignore"):  # inf - inf is nan, which fmax drops
        return sum(np.fmax(cover.his - cover.los, 0.0).tolist()) > cover.target.length


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
    v = np.concatenate(([a, b], np.stack((cover.los, cover.his), 1).ravel()))
    # stable, so of equal values such as 0.0 and -0.0 the first listed stays
    v = np.sort(v[(v >= a) & (v <= b)], kind="stable")
    return v[np.concatenate(([True], v[1:] != v[:-1]))]


def _lebesgue_exact(cover: OpenCover) -> float:
    b = cover.target.hi
    breaks = _breakpoints(cover)
    at, _ = cover._reach(breaks)
    uncovered = breaks[~(at > breaks)]
    if uncovered.size:
        raise CoverError(f"point {float(uncovered[0])} of a verified cover is uncovered")
    # no endpoint lies inside a cell, so the piece holding its left end
    # holds the whole closed cell
    over, _ = cover._reach(breaks[:-1], closed=True)
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
    reach, _ = cover._reach(xs)
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


_SIGN = np.int64(-1 << 63)  # the sign bit alone


def _flip(k: np.ndarray) -> np.ndarray:
    """Bit patterns of doubles <-> integers in the doubles' order (both
    zeros map to 0); the map is its own inverse."""
    return np.where(k < 0, _SIGN - k, k)


def _split_keys(los: np.ndarray, his: np.ndarray) -> np.ndarray:
    """For pieces lo < hi, the largest double t with fl(t - lo) <= fl(hi - t).

    The test is monotone in t, true at lo and false at hi, so each key
    is bisected over the doubles' ordered bit patterns (at most 64
    rounds).  The first bracket is the midpoint plus or minus a few ulps
    of hi - lo and of the midpoint, or the part of [lo, hi] beyond that
    bracket where the key lies outside it.  An infinite lo gives key
    -inf (every finite t is bound by hi - t), otherwise an infinite hi
    gives +inf.
    """
    finite = np.isfinite(los) & np.isfinite(his)
    lo, hi = np.where(finite, los, 0.0), np.where(finite, his, 1.0)

    def ok(t):
        return t - lo <= hi - t

    mid = lo / 2 + hi / 2
    w = (hi / 2 - lo / 2) * 2.0 ** -48 + 4 * np.abs(np.spacing(mid))
    below, above = mid - w, mid + w
    ok_below, ok_above = ok(below), ok(above)
    left = np.where(ok_above, above, np.where(ok_below, below, lo))
    right = np.where(ok_above, hi, np.where(ok_below, above, below))
    left, right = _flip(left.view(np.int64)), _flip(right.view(np.int64))
    while True:  # ok at left, not at right
        m = (left >> 1) + (right >> 1) + (left & right & 1)
        if np.array_equal(m, left):
            break
        good = ok(_flip(m).view(float))
        left, right = np.where(good, m, left), np.where(good, right, m)
    keys = _flip(left).view(float)
    return np.where(los == -math.inf, -math.inf, np.where(his == math.inf, math.inf, keys))


def _lebesgue_half_radius(cover: OpenCover, sample: int) -> float:
    a, b = cover.target.lo, cover.target.hi
    keep = cover.los < cover.his  # an empty or NaN piece contains no sample
    los, his = cover.los[keep], cover.his[keep]
    keys = _split_keys(los, his)
    # a sample's radius is its largest tent min(t - lo, hi - t) over the
    # pieces, which is positive exactly on pieces containing t
    by_hi, by_lo = _Reach(keys, his), _Reach(-keys, -los)
    n = max(2, sample)
    while True:
        ts = np.linspace(a, b, n)
        hi, _ = by_hi(ts)                   # largest hi over keys < t
        lo = -by_lo(-ts, closed=True)[0]    # smallest lo over keys >= t
        radii = np.maximum(np.maximum(ts - lo, hi - ts), 0.0)
        if not radii.all():
            raise CoverError(f"sample point {float(ts[radii == 0][0])} of a verified cover "
                             "is uncovered")
        spacing = (b - a) / (n - 1)
        # every target point must sit within half a radius of some sample
        if spacing < float(radii.min()):
            return float(radii.min()) / 2
        if n >= MAX_SAMPLE:
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
    reach, _ = cover._reach(np.minimum(xs, cs))
    return int(np.sum(close & ~(reach > np.maximum(xs, cs))))


# A radius below 2^-46 of max(b - a, |a|, |b|) collapses (so that midpoints stay
# distinct doubles); at most _MAX_CENTRES windows, and _MAX_CELLS step cells.
_FLOOR_BITS, _ROUNDS, _MAX_CENTRES, _MAX_CELLS = 46, 14, 1 << 16, 1 << 20


def _window_radii(f: Expr, ts: np.ndarray, a: float, b: float, half_eps: float) -> np.ndarray:
    """Certified radii for the window centres ts, searched all at once: w
    fits at t when enclose(f) over [t - w, t + w] clipped to [a, b] lies
    within half_eps of the enclosure of f(t) both ways, which proves
    |f(x) - f(t)| < half_eps there.  Enclosures are inclusion isotone, so
    after w = b - a each round bisects k in w = (b - a) 2^-k, one enclose."""
    cap = b - a
    depth = max(0, _FLOOR_BITS + math.floor(math.log2(cap / max(cap, abs(a), abs(b)))))
    flo, fhi = enclose(f, ts, ts)

    def fits(w):
        lo, hi = enclose(f, np.maximum(a, ts - w), np.minimum(b, ts + w))
        return (hi - flo < half_eps) & (fhi - lo < half_eps)

    # k fits at hi and fails at lo, except where both are 0 (w = b - a fits)
    lo, hi = np.zeros(ts.size), np.where(fits(cap), 0.0, depth + 1.0)
    for _ in range(_ROUNDS):
        k = (lo + hi) / 2
        ok = fits(cap * np.exp2(-k))
        lo, hi = np.where(ok, lo, k), np.where(ok, k, hi)
    if np.any(hi > depth):
        raise MathError(f"no window fits near {float(ts[hi > depth][0])}: "
                        "f is undefined, unbounded or too steep there")
    return cap * np.exp2(-hi)


def uniform_modulus(f: Expr, a: float, b: float, eps: float, grid: int = 256,
                    seed: int = 0) -> float:
    """Uniform-continuity modulus: the exact Lebesgue number of a cover by
    windows on which enclosures prove |f(x) - f(t)| < eps/2 about the
    centre t, so two points sharing a window differ by less than eps.

    The grid initial centres gain a midpoint wherever neighbours lie
    further apart than the smaller radius, until none do.  Raises
    MathError where a radius collapses (f undefined, unbounded or too
    steep; this floors the spacing too) or past _MAX_CENTRES windows.
    """
    if not (eps > 0 and 2 <= grid <= _MAX_CENTRES):
        raise PreconditionError(f"need eps > 0 and 2 <= grid <= {_MAX_CENTRES}")
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise PreconditionError("need finite a < b")
    ts = np.linspace(a, b, grid)
    r = _window_radii(f, ts, a, b, eps / 2)
    while (gap := np.flatnonzero(np.diff(ts) > np.minimum(r[:-1], r[1:]))).size:
        if ts.size + gap.size > _MAX_CENTRES:
            raise MathError(f"window collapsed near {float(ts[gap[np.argmin(r[gap])]])}: "
                            f"more than {_MAX_CENTRES} windows needed")
        mids = ts[gap] + (ts[gap + 1] - ts[gap]) / 2
        ts = np.insert(ts, gap + 1, mids)
        r = np.insert(r, gap + 1, _window_radii(f, mids, a, b, eps / 2))
    cover = OpenCover(Interval(a, b), np.stack((ts - r, ts + r), 1))
    ok, witness = verify_cover(cover)
    if not ok:
        raise CoverError(f"certified windows miss {witness}")
    delta = lebesgue_number(cover, "exact")
    xs, cs, close = _random_pairs(a, b, delta, 10**4, seed)  # a cross-check
    bad = close & (np.abs(evaluate(f, xs) - evaluate(f, cs)) >= eps)
    if bad.any():
        raise MathError(f"modulus {delta} fails at {float(xs[bad][0])}, {float(cs[bad][0])}")
    return delta


def step_approximation(f: Expr, a: float, b: float, eps: float,
                       delta: float = None, grid: int = 256, seed: int = 0) -> StepFunction:
    """Step function within eps of f on a uniform partition finer than the
    uniform-continuity modulus, each cell valued at its left node.

    Passing delta skips the modulus; grid is its number of initial centres."""
    if delta is None:
        delta = uniform_modulus(f, a, b, eps, grid=grid, seed=seed)
    if not (eps > 0 and a < b and math.isfinite(b - a) and delta > 0):
        raise PreconditionError("need eps > 0, finite a < b and delta > 0")
    if (b - a) / delta >= _MAX_CELLS:  # also where the quotient overflows to inf
        raise PreconditionError(f"delta {delta} needs more than {_MAX_CELLS} cells")
    n = 1 if delta >= b - a else math.floor((b - a) / delta) + 1
    part = uniform_partition(a, b, n)
    values = evaluate(f, np.asarray(part.nodes[:-1]))
    return StepFunction(part, tuple(float(v) for v in values))


def sup_error(f: Expr, phi: StepFunction) -> float:
    """Upper bound on sup |f - phi|: the largest max(sup - v, v - inf)
    over cells, (inf, sup) enclosing f on the cell and v its value."""
    nodes = np.asarray(phi.partition.nodes)
    inf, sup = enclose(f, nodes[:-1], nodes[1:])
    v = np.asarray(phi.cell_values)
    return float(np.max(np.maximum(sup - v, v - inf), initial=0.0))
