"""Closed/open intervals, partitions, nested-interval iteration (whose
end rules may be trees in n), and `refine_cells`, the one adaptive cell
loop behind every enclosure decision."""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Callable, List, Tuple

from .errors import IterationCapError, NestingError, PreconditionError

_MIN_CELLS = 64        # fewest open cells a round of refine_cells holds, where the depth cap allows
CELL_BUDGET = 1 << 22  # most cells refine_cells hands its judge, summed over all rounds


class Interval(namedtuple("Interval", "lo hi")):
    """Closed bounded interval [lo, hi]."""

    __slots__ = ()

    def __new__(cls, lo: float, hi: float):
        lo, hi = float(lo), float(hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise PreconditionError("interval endpoints must be finite")
        if lo > hi:
            raise PreconditionError(f"interval needs lo <= hi, got [{lo}, {hi}]")
        return tuple.__new__(cls, (lo, hi))

    @property
    def length(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        # lo + (hi-lo)/2 avoids overflow and stays inside under rounding
        return self.lo + (self.hi - self.lo) / 2

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def to_json(self) -> List[float]:
        return [self.lo, self.hi]


class OpenInterval(namedtuple("OpenInterval", "lo hi")):
    """Open interval (lo, hi); membership is strict."""

    __slots__ = ()

    def __new__(cls, lo: float, hi: float):
        return tuple.__new__(cls, (float(lo), float(hi)))

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float) -> bool:
        return self.lo < x < self.hi

    def to_json(self) -> List[float]:
        return [self.lo, self.hi]


class Partition(namedtuple("Partition", "nodes")):
    """Strictly increasing finite node set containing both endpoints.

    A degenerate interval [a, a] has the single-node partition (a,).
    """

    __slots__ = ()

    def __new__(cls, nodes: Tuple[float, ...]):
        if len(nodes) < 1:
            raise PreconditionError("partition needs at least one node")
        for u, v in zip(nodes, nodes[1:]):
            if not u < v:
                raise PreconditionError("partition nodes must be strictly increasing")
        return tuple.__new__(cls, (tuple(float(v) for v in nodes),))

    @property
    def a(self) -> float:
        return self.nodes[0]

    @property
    def b(self) -> float:
        return self.nodes[-1]

    @property
    def cell_count(self) -> int:
        return len(self.nodes) - 1

    def widths(self) -> np.ndarray:
        import numpy as np
        arr = np.asarray(self.nodes)
        return arr[1:] - arr[:-1]

    def cells(self) -> List[Tuple[float, float]]:
        return list(zip(self.nodes, self.nodes[1:]))

    def to_json(self) -> List[float]:
        return list(self.nodes)


def require_finite(a: float, b: float) -> None:
    """PreconditionError unless a, b and the length b - a are finite."""
    if not math.isfinite(b - a):
        raise PreconditionError("need a finite interval [a, b]")


def require_interval(a: float, b: float) -> None:
    """require_finite, and PreconditionError unless a <= b."""
    require_finite(a, b)
    if a > b:
        raise PreconditionError("need a <= b")


def require_tol(tol: float) -> None:
    """PreconditionError unless tol is positive and finite (not NaN)."""
    if not 0 < tol < math.inf:
        raise PreconditionError("tol must be positive and finite")


def bisect(i: Interval) -> Tuple[Interval, Interval]:
    """Split [lo, hi] at the midpoint; the halves share the midpoint."""
    m = i.midpoint
    return Interval(i.lo, m), Interval(m, i.hi)


def refine_cells(a: float, b: float, judge: Callable, max_depth: int) -> bool:
    """Adaptive dyadic cells of [a, b], decided a round at a time.

    Before each round the open cells (at first [a, b] alone) are bisected
    until at least _MIN_CELLS are open or they reach depth max_depth, so
    while few cells are open each is split into 2^k parts at once: an
    enclosure's fixed cost per call outweighs its cost per cell in a
    smaller round.  judge(lo, hi) gets the round's cells as arrays, not
    in order, and returns a boolean mask of the cells that stay open, or
    None when the caller is done.  Returns True when the judge is done and
    False when cells stay open at depth max_depth, none stay open, or the
    next round would take the cells judged past CELL_BUDGET.
    """
    import numpy as np

    lo, hi, depth, need, spent = np.array([a]), np.array([b]), 0, _MIN_CELLS, 0
    while True:
        while lo.size < need and depth < max_depth:
            mid = lo + (hi - lo) / 2
            lo, hi, depth = np.concatenate([lo, mid]), np.concatenate([mid, hi]), depth + 1
        spent += lo.size
        if spent > CELL_BUDGET:
            return False
        keep = judge(lo, hi)
        if keep is None:
            return True
        lo, hi = lo[keep], hi[keep]
        if lo.size == 0 or depth >= max_depth:
            return False
        need = max(2 * lo.size, _MIN_CELLS)


def uniform_partition(a: float, b: float, n: int) -> Partition:
    """The n+1 nodes a + k*(b-a)/n, computed directly to bound drift."""
    if n < 1:
        raise PreconditionError("uniform_partition needs n >= 1")
    if a > b:
        raise PreconditionError("uniform_partition needs a <= b")
    if a == b:
        if n != 1:
            raise PreconditionError("degenerate interval admits only the single-node partition")
        return Partition((a,))
    width = b - a
    nodes = [a + k * width / n for k in range(n)]
    nodes.append(b)
    return Partition(tuple(nodes))


def refine(p: Partition, q: Partition) -> Partition:
    """Common refinement: sorted duplicate-free union of the node sets."""
    if p.a != q.a or p.b != q.b:
        raise PreconditionError("refine needs partitions of the same interval")
    return Partition(tuple(sorted(set(p.nodes) | set(q.nodes))))


def is_refinement(coarse: Partition, fine: Partition) -> bool:
    return set(coarse.nodes) <= set(fine.nodes) and coarse.a == fine.a and coarse.b == fine.b


def shrink_to_point(lo: Callable[[int], float], hi: Callable[[int], float], tol: float,
                    max_iter: int = 10**6) -> float:
    """Iterate the nested intervals [lo(k), hi(k)], k = 1, 2, ..., until
    their length drops below tol.

    lo and hi are pure rules from index to real: trees in n or any
    callables.  Returns the midpoint of the final interval; any point of
    the true intersection lies within tol of it.  Checks nesting as the
    intervals are built, and raises IterationCapError when lengths refuse
    to shrink (the fat intersection case has no canonical point to
    return).
    """
    require_tol(tol)
    current = Interval(lo(1), hi(1))
    k = 1
    while current.length >= tol:
        if k >= max_iter:
            raise IterationCapError(
                f"interval length {current.length} still >= tol after {k} iterations"
            )
        k += 1
        nxt = Interval(lo(k), hi(k))
        if not current.contains_interval(nxt):
            raise NestingError(f"interval {k} is not contained in interval {k - 1}")
        current = nxt
    return current.midpoint
