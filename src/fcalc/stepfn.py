"""Step functions: piecewise-constant on the open cells of a partition.

Node values do not matter for the integral, so they are not stored;
calling a StepFunction at a node returns the left cell's value by
convention (the right cell at the left endpoint).
"""

from __future__ import annotations

import bisect as _bisect
from collections import namedtuple
from typing import Tuple

from .errors import DomainError, PreconditionError
from .interval import Partition, is_refinement, refine


class StepFunction(namedtuple("StepFunction", "partition cell_values")):
    """A Partition and one float per cell; + and unary - are step_combine's."""

    __slots__ = ()

    def __new__(cls, partition: Partition, cell_values: Tuple[float, ...]):
        if len(cell_values) != partition.cell_count:
            raise PreconditionError(
                f"{partition.cell_count} cells need as many values, got {len(cell_values)}"
            )
        return tuple.__new__(cls, (partition, tuple(float(v) for v in cell_values)))

    @property
    def a(self) -> float:
        return self.partition.a

    @property
    def b(self) -> float:
        return self.partition.b

    def __call__(self, x: float) -> float:
        nodes = self.partition.nodes
        if x < self.a or x > self.b:
            raise DomainError(f"{x} outside [{self.a}, {self.b}]")
        if len(nodes) == 1:
            raise DomainError("degenerate step function has no cells to evaluate")
        if x == self.a:
            return self.cell_values[0]
        i = _bisect.bisect_left(nodes, x)  # first node >= x, so x in (nodes[i-1], nodes[i]]
        return self.cell_values[i - 1]

    def __neg__(self) -> "StepFunction":
        return step_combine(self, op="negate")

    def __add__(self, other: "StepFunction") -> "StepFunction":
        return step_combine(self, other, op="add")


def step_integral(phi: StepFunction) -> float:
    """Sum of cell value times cell width; zero on a degenerate interval."""
    total = 0.0  # summed left to right: inf * 0 and inf - inf are nan, without a warning
    for (lo, hi), v in zip(phi.partition.cells(), phi.cell_values):
        total += (hi - lo) * v
    return total


def step_reexpress(phi: StepFunction, omega: Partition) -> StepFunction:
    """Rewrite phi on a refinement of its partition; same function, same integral."""
    if not is_refinement(phi.partition, omega):
        raise PreconditionError("omega must refine the step function's partition")
    coarse = phi.partition.nodes
    values = [phi.cell_values[_bisect.bisect_left(coarse, lo + (hi - lo) / 2) - 1]
              for lo, hi in omega.cells()]
    return StepFunction(omega, values)


def step_combine(phi: StepFunction, psi: StepFunction = None, op: str = "add",
                 factor: float = None) -> StepFunction:
    """Cell-wise algebra: add on the common refinement, scale, negate."""
    if op == "negate":
        return StepFunction(phi.partition, tuple(-v for v in phi.cell_values))
    if op == "scale":
        if factor is None:
            raise PreconditionError("scale needs a factor")
        return StepFunction(phi.partition, tuple(factor * v for v in phi.cell_values))
    if op == "add":
        if psi is None:
            raise PreconditionError("add needs a second step function")
        if phi.a != psi.a or phi.b != psi.b:
            raise PreconditionError("step functions must share endpoints")
        common = refine(phi.partition, psi.partition)
        left = step_reexpress(phi, common)
        right = step_reexpress(psi, common)
        values = tuple(u + v for u, v in zip(left.cell_values, right.cell_values))
        return StepFunction(common, values)
    raise PreconditionError(f"unknown op {op!r}")


def step_split(phi: StepFunction, c: float) -> Tuple[StepFunction, StepFunction]:
    """Restrictions to [a, c] and [c, b]; a cell containing c passes its
    value to both halves.  Integrals add back to the original."""
    if c < phi.a or c > phi.b:
        raise PreconditionError(f"split point {c} outside [{phi.a}, {phi.b}]")
    nodes = phi.partition.nodes
    left_nodes = [v for v in nodes if v < c] + [c]
    right_nodes = [c] + [v for v in nodes if v > c]
    left_values = []
    right_values = []
    for (lo, hi), v in zip(phi.partition.cells(), phi.cell_values):
        if hi <= c:
            left_values.append(v)
        elif lo >= c:
            right_values.append(v)
        else:  # lo < c < hi: both halves inherit the cell's value
            left_values.append(v)
            right_values.append(v)
    return (
        StepFunction(Partition(tuple(left_nodes)), tuple(left_values)),
        StepFunction(Partition(tuple(right_nodes)), tuple(right_values)),
    )
