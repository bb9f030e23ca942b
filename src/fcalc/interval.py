"""Closed/open intervals, partitions and nested-interval iteration."""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, List, Tuple

from .errors import IterationCapError, NestingError, PreconditionError


@dataclass(frozen=True)
class Interval:
    """Closed bounded interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise PreconditionError("interval endpoints must be finite")
        if self.lo > self.hi:
            raise PreconditionError(f"interval needs lo <= hi, got [{self.lo}, {self.hi}]")

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


@dataclass(frozen=True)
class Partition:
    """Strictly increasing finite node set containing both endpoints.

    A degenerate interval [a, a] has the single-node partition (a,).
    """

    nodes: Tuple[float, ...]

    def __post_init__(self):
        if len(self.nodes) < 1:
            raise PreconditionError("partition needs at least one node")
        for u, v in zip(self.nodes, self.nodes[1:]):
            if not u < v:
                raise PreconditionError("partition nodes must be strictly increasing")
        object.__setattr__(self, "nodes", tuple(float(v) for v in self.nodes))

    @property
    def a(self) -> float:
        return self.nodes[0]

    @property
    def b(self) -> float:
        return self.nodes[-1]

    def __len__(self) -> int:
        return len(self.nodes)

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


@dataclass(frozen=True)
class NestedSequence:
    """Lazily produced interval sequence; rule(k) for k = 1, 2, ...

    The rule must be pure.  Nesting is checked as intervals are emitted.
    """

    rule: Callable[[int], Interval]

    def __call__(self, k: int) -> Interval:
        return self.rule(k)


def require_finite(a: float, b: float) -> None:
    """PreconditionError unless a, b and the length b - a are finite."""
    if not math.isfinite(b - a):
        raise PreconditionError("need a finite interval [a, b]")


def bisect(i: Interval) -> Tuple[Interval, Interval]:
    """Split [lo, hi] at the midpoint; the halves share the midpoint."""
    m = i.midpoint
    return Interval(i.lo, m), Interval(m, i.hi)


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


def shrink_to_point(s: NestedSequence, tol: float, max_iter: int = 10**6) -> float:
    """Iterate a nested sequence until its length drops below tol.

    Returns the midpoint of the final interval; any point of the true
    intersection lies within tol of it.  Detects nesting violations, and
    raises IterationCapError when lengths refuse to shrink (the fat
    intersection case has no canonical point to return).
    """
    if tol <= 0:
        raise PreconditionError("tol must be positive")
    current = s(1)
    k = 1
    while current.length >= tol:
        if k >= max_iter:
            raise IterationCapError(
                f"interval length {current.length} still >= tol after {k} iterations"
            )
        k += 1
        nxt = s(k)
        if not current.contains_interval(nxt):
            raise NestingError(f"interval {k} is not contained in interval {k - 1}")
        current = nxt
    return current.midpoint
