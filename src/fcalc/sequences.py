"""Lazily evaluated real sequences and their convergence diagnostics.

A sequence is a pure rule from positive indices to reals, passed as it
is: a tree in n (expr.parse(text, "n"), which evaluates at float(k)) or
any callable from index to real.  Each routine reads float(s(k)), and
refuses a term that is not a finite real, naming its index (_finite):
term by term where it reads one at a time, once per list or array where
it reads many.  The
subsequence machinery follows the halving construction: keep the half
with more hits among a finite index budget, which is the computable
proxy for "contains infinitely many terms".
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import List, NamedTuple, Tuple

from . import interval
from .errors import BudgetError, IterationCapError, PreconditionError
from .interval import Interval, bisect, require_tol
from .suprema import _linspace

_SCAN_POINTS = 4096  # indices monotone_limit reads in each doubling window


class SubsequenceSelector(namedtuple("SubsequenceSelector", "indices")):
    """Strictly increasing indices; N_k >= k holds for any subsequence."""

    __slots__ = ()

    def __new__(cls, indices: Tuple[int, ...]):
        for k, idx in enumerate(indices, start=1):
            if idx < k:
                raise PreconditionError(f"subsequence index N_{k}={idx} below {k}")
        for u, v in zip(indices, indices[1:]):
            if not u < v:
                raise PreconditionError("subsequence indices must be strictly increasing")
        return tuple.__new__(cls, (indices,))


def _finite(k: int, v: float) -> float:
    """v, the term s(k), where it is a finite real; else PreconditionError."""
    if math.isfinite(v):
        return v
    raise PreconditionError(f"term {k} = {v} is not a finite real")


def _finite_list(ks, vals: List[float]) -> List[float]:
    """vals, the terms at the indices ks, where all are finite reals."""
    if not math.isfinite(sum(vals)):  # or finite terms overflowed the sum
        for k, v in zip(ks, vals):
            _finite(k, v)
    return vals


class CauchyWindowReport(NamedTuple):
    ok: bool
    pair: Tuple[int, int]
    gap: float


def check_monotone(s, n: int) -> str:
    """Classify the first n terms by adjacent comparisons.

    Returns 'strictly-increasing', 'increasing' or 'neither'.
    """
    if n < 2:
        raise PreconditionError("need n >= 2 terms to classify")
    strict = True
    weak = True
    prev = _finite(1, float(s(1)))
    for k in range(2, n + 1):
        cur = _finite(k, float(s(k)))
        if not prev < cur:
            strict = False
        if not prev <= cur:
            weak = False
            break
        prev = cur
    if strict:
        return "strictly-increasing"
    if weak:
        return "increasing"
    return "neither"


def check_cauchy_window(s, eps: float, lo: int, hi: int) -> CauchyWindowReport:
    """Check |s_m - s_n| < eps over all index pairs in [lo, hi].

    The maximizing pair is (argmin, argmax); for a monotone window it is
    the endpoint pair (lo, hi), which monotonicity alone justifies.
    """
    if not eps > 0:  # NaN too
        raise PreconditionError("eps must be positive")
    if lo > hi or lo < 1:
        raise PreconditionError("window needs 1 <= lo <= hi")
    if hi - lo + 1 > interval.CELL_BUDGET:
        raise PreconditionError(f"window needs at most {interval.CELL_BUDGET} terms")
    window = range(lo, hi + 1)
    values = _finite_list(window, [float(s(k)) for k in window])
    diffs = [v2 - v1 for v1, v2 in zip(values, values[1:])]
    monotone = all(d >= 0 for d in diffs) or all(d <= 0 for d in diffs)
    if monotone:
        pair = (lo, hi)
        gap = abs(values[-1] - values[0])
    else:
        i_min = min(range(len(values)), key=values.__getitem__)
        i_max = max(range(len(values)), key=values.__getitem__)
        a, b = sorted((lo + i_min, lo + i_max))
        pair = (a, b)
        gap = values[i_max] - values[i_min]
    return CauchyWindowReport(gap < eps, pair, gap)


def bound_prefix(s, n: int) -> float:
    """Max of |s_k| over k <= n; the all-zero prefix is bounded by 1."""
    if n < 1:
        raise PreconditionError("need n >= 1")
    m = max(abs(_finite(k, float(s(k)))) for k in range(1, n + 1))
    return m if m > 0.0 else 1.0


def _cache_values(s, budget: int) -> np.ndarray:
    import numpy as np
    if budget > interval.CELL_BUDGET:
        raise PreconditionError(f"budget must be at most {interval.CELL_BUDGET}")
    values = np.fromiter((float(s(k)) for k in range(1, budget + 1)), dtype=float, count=budget)
    if not (finite := np.isfinite(values)).all():
        k = int(np.argmin(finite))
        _finite(k + 1, float(values[k]))
    return values


def bw_extract(s, box: Interval, depth: int,
               budget: int) -> Tuple[SubsequenceSelector, List[Interval]]:
    """Halving subsequence extraction inside a bounding box.

    Produces `depth` nested intervals, each half of its predecessor and
    chosen to hold more not-yet-used hits among the first `budget`
    indices (tie goes left), together with strictly increasing indices
    N_k with s(N_k) in interval k.  Interval k has length
    length(box)/2^(k-1).
    """
    if depth < 1 or depth > 60:
        raise PreconditionError("depth must be in 1..60")
    return _halving(_cache_values(s, budget), box, depth)


def _halving(values: np.ndarray, box: Interval,
             depth: int) -> Tuple[SubsequenceSelector, List[Interval]]:
    """bw_extract over the terms values[k - 1] = s(k), k up to the budget."""
    import numpy as np
    if values.size < depth:
        raise PreconditionError("budget must be at least depth")
    inside = (values >= box.lo) & (values <= box.hi)
    if not inside.all():
        bad = int(np.argmin(inside)) + 1
        raise PreconditionError(f"term {bad} = {values[bad - 1]} escapes the box {box.to_json()}")

    intervals = [box]
    indices = [1]
    current = box
    for _ in range(2, depth + 1):
        left, right = bisect(current)
        # halving decision: census over the whole inspection window
        in_left = (values >= left.lo) & (values <= left.hi)
        in_right = (values >= right.lo) & (values <= right.hi)
        chosen, mask = (right, in_right) if in_right.sum() > in_left.sum() else (left, in_left)
        candidates = np.nonzero(mask)[0]
        candidates = candidates[candidates >= indices[-1]]  # 0-based: index > N_{k-1}
        if candidates.size == 0:
            raise BudgetError(
                f"no unused index past {indices[-1]} hits the chosen half; raise the budget"
            )
        indices.append(int(candidates[0]) + 1)
        intervals.append(chosen)
        current = chosen
    return SubsequenceSelector(tuple(indices)), intervals


def _scan_indices(lo: int, hi: int) -> List[int]:
    if hi - lo + 1 <= _SCAN_POINTS:
        return list(range(lo, hi + 1))
    # the grid never decreases, so dropping repeats keeps it sorted
    return list(dict.fromkeys(map(int, _linspace(lo, hi, _SCAN_POINTS))))


def monotone_limit(s, upper: float, tol: float, max_index: int = 10**6) -> float:
    """Limit of a monotone increasing sequence bounded above.

    Doubles the probe index until s(2m) - s(m) < tol; for a monotone
    sequence that single endpoint pair settles the whole window.  The
    true limit lies in [returned, returned + tol].
    """
    require_tol(tol)
    m = 1
    while True:
        window = _scan_indices(m, 2 * m)
        vals = _finite_list(window, [float(s(k)) for k in window])
        for k, v in zip(window, vals):
            if v > upper:
                raise PreconditionError(f"upper bound violated at k={k}: {v} > {upper}")
        for (k1, v1), (k2, v2) in zip(zip(window, vals), zip(window[1:], vals[1:])):
            if v1 > v2:
                raise PreconditionError(f"not monotone increasing between k={k1} and k={k2}")
        if vals[-1] - vals[0] < tol:
            return vals[-1]
        if 2 * m >= max_index:
            raise IterationCapError(f"no tol-flat window found up to index {max_index}")
        m *= 2


def divergence_witness(s, eps: float, count: int, budget: int) -> SubsequenceSelector:
    """Certificate that a monotone increasing sequence is not eps-Cauchy.

    Returns indices N_1 < ... < N_{count+1} with
    s(N_{k+1}) >= s(N_1) + k*eps.  Monotonicity lets each threshold be
    located by doubling plus index bisection instead of a linear scan.
    """
    if not eps > 0:  # NaN too
        raise PreconditionError("eps must be positive")
    indices = [1]
    base = _finite(1, float(s(1)))
    for k in range(1, count + 1):
        target = base + k * eps
        lo = indices[-1] + 1
        if lo > budget:
            raise BudgetError("budget exhausted; the sequence may be Cauchy at this eps")
        # grow hi by doubling until the target is met (monotone rule)
        hi = lo
        while _finite(hi, float(s(hi))) < target:
            if hi >= budget:
                raise BudgetError("budget exhausted; the sequence may be Cauchy at this eps")
            hi = min(2 * hi, budget)
        # smallest qualifying index in [lo, hi]
        while lo < hi:
            mid = (lo + hi) // 2
            if _finite(mid, float(s(mid))) >= target:
                hi = mid
            else:
                lo = mid + 1
        indices.append(lo)
    return SubsequenceSelector(tuple(indices))


def cauchy_limit(s, box: Interval, tol: float, budget: int = 10**6) -> float:
    """Limit of a Cauchy sequence via halving subsequence extraction.

    Verifies tol-Cauchyness on a doubling probe window first, then runs
    bw_extract's halving on the same terms to depth
    ceil(log2(length(box)/tol)) + 1 and returns the midpoint of the last
    interval.
    """
    require_tol(tol)
    if budget < 1:
        raise PreconditionError("budget must be at least 1")
    values = _cache_values(s, budget)
    if values.max() == values.min():
        return float(values[0])  # constant sequence: its value, exactly
    # probe: find some window [w, 2w] whose spread is below tol
    w = 1
    verified = False
    while 2 * w <= budget:
        chunk = values[w - 1 : 2 * w]
        if chunk.max() - chunk.min() < tol:
            verified = True
            break
        w *= 2
    if not verified:
        raise BudgetError("no tol-Cauchy probe window within budget")
    if box.length <= tol:
        return box.midpoint
    depth = min(60, int(math.ceil(math.log2(box.length / tol))) + 1)
    _, intervals = _halving(values, box, depth)
    return intervals[-1].midpoint
