"""Finite open covers of closed intervals.

A cover holds its pieces once, as two read-only float arrays of left
and right endpoints, and builds one structure, `_Reach`, once: keys
sorted with a running maximum of their values, from one sort of the
keys.  Keyed by the left endpoints with the right endpoints as values,
reach(x) is the largest right endpoint over pieces with lo < x (lo <= x
for closed cell queries).  Some piece contains x exactly when
reach(x) > x, and two points x <= y share a piece exactly when
reach(x) > y.  Queries read values only; the lowest-index piece
attaining each reach is worked out only for finite_subcover.

verify_cover and finite_subcover are one greedy walk from the left end
of the target along reach, cached on the cover: an exact constructive
Heine-Borel sweep, never a sampling argument, and the only verdict:
the queries that need a cover raise CoverError where it leaves a gap.
Every step's next hop, the count of left ends below its reach, comes
from one vectorised query, so the walk follows integer positions.
The exact Lebesgue number is the minimum slack reach - x over
breakpoints and reach - q over cells (p, q) between them, all answered
by one vectorised query.

The conservative min-half-radius formula is kept as `paper` mode.  A
sample t is bound by t - lo on pieces whose split key (the last double
where t - lo <= hi - t after rounding) is at least t, and by hi - t on
the others, so two more reach structures keyed by split key, one giving
the largest hi and one the smallest lo, share one sort of the split
keys and answer every sample of a round with two searchsorted calls.

uniform_modulus (a certified window cover) and sup_error decide from
interval enclosures (expr.enclose), never from samples.  A window's
radius is the largest on a fixed grid of exponents whose enclosure fits.
Enclosures are inclusion isotone, so fitting is monotone along the grid,
and the answer is one grid point whatever the search that finds it:
each centre runs a secant search on the logarithm of its deviation,
enclosing only the centres still open, and ends at the point 14 rounds
of bisection over all centres at once would reach, in a third to a half
of the enclosures.
"""

from __future__ import annotations

import itertools
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
    pairs: JSON lists, OpenIntervals or a (P, 2) array.  _walk caches the
    greedy walk, whose gap is the verdict of verify_cover."""

    def __init__(self, target: Interval, pieces):
        try:
            if (type(pieces) in (list, tuple) and {*map(type, pieces)} <= {list, tuple}
                    and {*map(len, pieces)} <= {2}):  # pairs, in one pass, as np.asarray reads them
                ends = np.fromiter(itertools.chain.from_iterable(pieces), float).reshape(-1, 2)
            else:
                ends = np.asarray(pieces, dtype=float) if len(pieces) else np.empty((0, 2))
        except (TypeError, ValueError, OverflowError):  # ragged, not numbers, beyond doubles
            ends = None
        if ends is None or ends.shape[1:] != (2,):
            raise PreconditionError("cover pieces must be (lo, hi) pairs")
        ends = ends.T.copy()  # the cover's own, contiguous
        ends.flags.writeable = False
        self.target, (self.los, self.his) = target, ends

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

    _walk = cached_property(lambda self: _greedy_walk(self))

    def __repr__(self):
        return f"OpenCover({self.target!r}, {self.to_json()['pieces']!r})"


class _Reach:
    """Keys sorted with a running maximum of their values.

    Calling it with x (a float or an array) returns the largest value
    over keys < x, or keys <= x when closed: -inf where there is none,
    NaN where all are NaN.  Of tied values the lowest index wins, and its
    bits (a zero's sign, a NaN's payload) are returned.  idx[k] is that
    index over the first k sorted keys (-1 for none), worked out when
    first read.  Both depend only on the set of keys below x, never on
    the order of tied keys, so order may be any sort of the keys.
    """

    def __init__(self, keys: np.ndarray, values: np.ndarray, order: np.ndarray = None):
        self._order = np.argsort(keys) if order is None else order
        self.keys, self._by_key = keys[self._order], values[self._order]
        self.values = np.concatenate(([-math.inf], np.fmax.accumulate(self._by_key)))
        if (odd := (self.values == 0) | np.isnan(self.values)).any():  # ties may differ in bits
            self.values[odd] = values[self.idx[odd]]

    def __call__(self, x, closed: bool = False):
        return self.values[np.searchsorted(self.keys, x, side="right" if closed else "left")]

    @cached_property
    def idx(self) -> np.ndarray:
        # the running maximum changes at segment starts, and only pieces
        # of the current segment attain it; offsetting each segment below
        # the last lets one running minimum find the lowest index in each
        run, n = self.values[1:], self._order.size
        offset = np.cumsum(np.r_[True, (run[1:] != run[:-1]) & ~np.isnan(run[1:])]) * (n + 1)
        attains = (self._by_key == run) | np.isnan(run)
        return np.r_[-1, np.minimum.accumulate(np.where(attains, self._order, n) - offset) + offset]


def _greedy_walk(cover: OpenCover) -> Tuple[List[int], Optional[float]]:
    """Chain from the left end of the target, each step reaching
    furthest right from the current reach r, and the first uncovered
    point (None once a step passes the right end).  r strictly increases
    through right endpoints, so the walk ends within len(pieces) steps.
    A step is a position k in the sorted keys, the number of keys below
    r: the reach there is his[k], and the keys below that number hop[k],
    all found by one query.  reach.idx names the piece of each step."""
    reach = cover._reach
    his, hop = reach.values.tolist(), np.searchsorted(reach.keys, reach.values).tolist()
    r, b = cover.target.lo, cover.target.hi
    k, steps = int(np.searchsorted(reach.keys, r)), []
    while his[k] > r:
        steps.append(k)
        if his[k] > b:
            return steps, None
        r, k = his[k], hop[k]
    return steps, r


def verify_cover(cover: OpenCover) -> Tuple[bool, Optional[float]]:
    """Exact covering check by sweeping reachability left to right.

    Returns (True, None) or (False, witness) with an uncovered point.
    The walk behind it is cached on the cover.
    """
    _, gap = cover._walk
    return gap is None, gap


def _steps(cover: OpenCover) -> List[int]:
    """The steps of the cover's walk; CoverError where it leaves a gap."""
    steps, gap = cover._walk
    if gap is not None:
        raise CoverError(f"not a cover: {gap} is uncovered")
    return steps


def length_inequality(cover: OpenCover) -> bool:
    """Total piece length strictly exceeds the covered length.

    An empty piece (reversed, NaN or (inf, inf)) has length 0.
    """
    _steps(cover)
    with np.errstate(invalid="ignore"):  # inf - inf is nan, which fmax drops
        return sum(np.fmax(cover.his - cover.los, 0.0).tolist()) > cover.target.length


def finite_subcover(cover: OpenCover) -> List[int]:
    """Greedy left-to-right subcover; minimal cardinality for interval covers."""
    return cover._reach.idx[_steps(cover)].tolist()


def lebesgue_number(cover: OpenCover, mode: str = "exact", sample: int = 256) -> float:
    """A delta such that any two target points within delta share a piece.

    exact mode returns the maximal such delta from the overlap sweep;
    paper mode returns the conservative min-half-radius value over a
    sample of points, each assigned its deepest containing piece.  When
    no pair of target points fails, the target length is returned.
    """
    _steps(cover)
    a, b = cover.target.lo, cover.target.hi
    if a == b:
        raise PreconditionError("target must be nondegenerate")
    if mode == "exact":
        return _lebesgue_exact(cover)
    if mode == "paper":
        return _lebesgue_half_radius(cover, sample)
    raise PreconditionError(f"unknown mode {mode!r}")


def _breakpoints(cover: OpenCover) -> np.ndarray:
    """Sorted distinct target ends and piece endpoints inside the target;
    of 0.0 and -0.0 the first listed (a, b, lo0, hi0, lo1, ...) stays."""
    a, b = cover.target.lo, cover.target.hi
    v = np.concatenate(([a, b], np.stack((cover.los, cover.his), 1).ravel()))
    s = np.sort(v := v[(v >= a) & (v <= b)])  # np.unique would import numpy.ma (~1.3 MB)
    s = s[np.concatenate(([True], s[1:] != s[:-1]))]
    s[s == 0] = v[np.argmax(v == 0)]  # no-op where no end is 0
    return s


def _lebesgue_exact(cover: OpenCover) -> float:
    b = cover.target.hi
    breaks = _breakpoints(cover)
    at = cover._reach(breaks)
    uncovered = breaks[~(at > breaks)]
    if uncovered.size:
        raise CoverError(f"point {float(uncovered[0])} of a verified cover is uncovered")
    # no endpoint lies inside a cell, so the piece holding its left end
    # holds the whole closed cell
    over = cover._reach(breaks[:-1], closed=True)
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
    reach = cover._reach(xs)
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
    # one sort of the split keys; reversed, it sorts -keys
    by_hi, by_lo = _Reach(keys, his, order := np.argsort(keys)), _Reach(-keys, -los, order[::-1])
    n = max(2, sample)
    while True:
        ts = np.linspace(a, b, n)
        hi = by_hi(ts)                   # largest hi over keys < t
        lo = -by_lo(-ts, closed=True)    # smallest lo over keys >= t
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


# A radius below 2^-46 of max(b - a, |a|, |b|) collapses (so that midpoints stay
# distinct doubles); radii lie on a grid of 2^_ROUNDS + 1 exponents, searched by
# _SECANTS secant rounds before bisection; at most _MAX_CENTRES windows, and
# _MAX_CELLS step cells.
_FLOOR_BITS, _ROUNDS, _SECANTS, _MAX_CENTRES, _MAX_CELLS = 46, 14, 10, 1 << 16, 1 << 20


def _window_radii(f: Expr, ts: np.ndarray, a: float, b: float, half_eps: float,
                  first: np.ndarray = None) -> Tuple[np.ndarray, np.ndarray]:
    """Certified radii for the window centres ts, and their grid indices.

    w fits at t when enclose(f) over [t - w, t + w] clipped to [a, b] lies
    within half_eps of the enclosure of f(t) both ways, which proves
    |f(x) - f(t)| < half_eps there.  The radii tried are w = (b - a) 2^-k
    at k = j (depth + 1) 2^-_ROUNDS for j = 0 .. 2^_ROUNDS, and each centre
    gets the one at its smallest j that fits, the same one that _ROUNDS
    rounds of bisection over k find: enclosures are inclusion isotone, so
    fits is monotone in j.  Each centre keeps a bracket (j fails at lo,
    fits at hi; hi = 2^_ROUNDS, never probed, stands for none), and each
    round encloses only the centres whose bracket is open, at one j each:
    first (the float array of indices to try first, 0 by default), then a
    secant step on (j, log2 of the deviation over half_eps) through the
    last two probes, the first step assuming that the deviation halves
    with w, rounded up and kept inside the bracket, an eighth of its width
    from the end the last probe did not set: where a clipped window makes
    the deviation flat, a bare secant creeps towards that end a few grid
    points a round.  A step that is not finite, and every step after
    _SECANTS rounds, takes the bracket's midpoint.
    """
    cap, top = b - a, 1 << _ROUNDS
    depth = max(0, _FLOOR_BITS + math.floor(math.log2(cap / max(cap, abs(a), abs(b)))))
    step, found = (depth + 1) / top, np.empty(ts.size)
    with np.errstate(all="ignore"):  # log2 of 0, and secants through infinities, only steer
        fl, fh = enclose(f, ts, ts)
        c, t, lo, hi = np.arange(ts.size), ts, np.full(ts.size, -1.0), np.full(ts.size, float(top))
        j = np.zeros(ts.size) if first is None else first
        for r in itertools.count():
            w = cap * np.exp2(j * -step)
            low, high = enclose(f, np.maximum(a, t - w), np.minimum(b, t + w))
            dev = np.maximum(high - fl, fh - low)
            fit = dev < half_eps
            lo, hi, y = np.where(fit, lo, j), np.where(fit, j, hi), np.log2(dev / half_eps)
            if r == 0:
                pj, py = j - 1 / step, y + 1
            found[c] = hi  # the open ones are written again when they close
            if not (keep := np.flatnonzero(hi - lo > 1)).size:
                break
            if keep.size < c.size:
                c, t, fl, fh, lo, hi, j, y, pj, py = (
                    v[keep] for v in (c, t, fl, fh, lo, hi, j, y, pj, py))
            nxt = np.floor((lo + hi) / 2)
            if r < _SECANTS:
                est = np.ceil((pj * y - j * py) / (y - py))
                ok, m = np.isfinite(est), np.floor((hi - lo) / 8)
                est = np.where(j == hi, np.maximum(est, lo + m), np.minimum(est, hi - m))
                nxt = np.where(ok, np.minimum(np.maximum(est, lo + 1), hi - 1), nxt)
            pj, py, j = j, y, nxt
    k = found * step
    if np.any(k > depth):
        raise MathError(f"no window fits near {float(ts[k > depth][0])}: "
                        "f is undefined, unbounded or too steep there")
    return cap * np.exp2(-k), found


def uniform_modulus(f: Expr, a: float, b: float, eps: float, grid: int = 256) -> float:
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
    r, j = _window_radii(f, ts, a, b, eps / 2)
    while (gap := np.flatnonzero(np.diff(ts) > np.minimum(r[:-1], r[1:]))).size:
        if ts.size + gap.size > _MAX_CENTRES:
            raise MathError(f"window collapsed near {float(ts[gap[np.argmin(r[gap])]])}: "
                            f"more than {_MAX_CENTRES} windows needed")
        mids = ts[gap] + (ts[gap + 1] - ts[gap]) / 2
        # a midpoint's radius is first tried at the smaller of its neighbours'
        mr, mj = _window_radii(f, mids, a, b, eps / 2, np.maximum(j[gap], j[gap + 1]))
        ts, r, j = (np.insert(v, gap + 1, m) for v, m in ((ts, mids), (r, mr), (j, mj)))
    cover = OpenCover(Interval(a, b), np.stack((ts - r, ts + r), 1))
    ok, witness = verify_cover(cover)
    if not ok:
        raise CoverError(f"certified windows miss {witness}")
    return lebesgue_number(cover, "exact")


def step_approximation(f: Expr, a: float, b: float, eps: float,
                       delta: float = None, grid: int = 256) -> StepFunction:
    """Step function within eps of f on a uniform partition finer than the
    uniform-continuity modulus, each cell valued at its left node.

    Passing delta skips the modulus; grid is its number of initial centres."""
    if delta is None:
        delta = uniform_modulus(f, a, b, eps, grid=grid)
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
