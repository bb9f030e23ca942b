"""Darboux bounds, Riemann sums and a certified integral, from interval
enclosures.

Both integrals rest on expr.enclose, which bounds f over whole cells in
outward-rounded interval arithmetic (see expr).  Darboux bounds on the
uniform n-partition sum the per-cell infimum and supremum enclosures
times the cell width; negation is exact, so lower(-f) = -upper(f) bit for
bit.  The certified integral refines adaptively: each cell's integral is
enclosed by the midpoint rule with its remainder, w f(m) + w^3/24 f''(xi),
using the symbolic second derivative (or w F(cell) where that is
unavailable or unbounded); cells whose enclosure is narrow enough are
frozen and the rest bisected, until the summed bracket is at most tol
wide.  A round encloses at least _MIN_CELLS open cells where the depth
cap allows, since a smaller one costs about as much.  Its value is the
bracket midpoint.

Rounding: per-cell enclosures are rounded outward, and the certified
bracket sums them exactly (math.fsum) and then moves one ulp outward, so
it encloses the integral (given faithfully rounded elementary functions;
see expr).  The Darboux sums use ordinary rounding over cells of the
nominal width (b - a)/n, so exact cases stay exact (x on four cells of
[0, 1] gives 0.375 and 0.625) and each bound may be off by a few ulps of
the sum.  Step-function algebra lives in stepfn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .errors import IterationCapError, NonDifferentiableError, PreconditionError
from .expr import _BLOCK, Expr, differentiate, enclose, evaluate, iadd, imul, isub
from .interval import Partition, require_finite

_CHUNK_CELLS = 1 << 18  # cells per Darboux partial sum: bounds a call's memory
_MIN_CELLS = 64  # fewest open cells riemann_integral encloses in one round
_ONE_24TH = (math.nextafter(1 / 24, 0.0), math.nextafter(1 / 24, 1.0))


@dataclass(frozen=True)
class ChoiceFunction:
    """Rule for picking one sample point per partition cell."""

    kind: str = "midpoint"  # 'left' | 'right' | 'midpoint' | 'random' | 'explicit'
    seed: int = 0
    points: Optional[Tuple[float, ...]] = None

    def points_for(self, p: Partition) -> np.ndarray:
        nodes = np.asarray(p.nodes)
        lo, hi = nodes[:-1], nodes[1:]
        if self.kind == "left":
            return lo
        if self.kind == "right":
            return hi
        if self.kind == "midpoint":
            return lo + (hi - lo) / 2
        if self.kind == "random":
            rng = np.random.default_rng(self.seed)
            return lo + rng.uniform(0.0, 1.0, lo.size) * (hi - lo)
        if self.kind == "explicit":
            pts = np.asarray(self.points, dtype=float)
            if pts.size != lo.size:
                raise PreconditionError(
                    f"{lo.size} cells need as many choice points, got {pts.size}"
                )
            if np.any(pts < lo) or np.any(pts > hi):
                k = int(np.argmax((pts < lo) | (pts > hi)))
                raise PreconditionError(f"choice point {pts[k]} outside cell {k + 1}")
            return pts
        raise PreconditionError(f"unknown choice kind {self.kind!r}")


@dataclass
class CertificateLevel:
    """One refinement round: the partition's cell count and the bracket
    [lower, upper] on the integral (intersected with earlier rounds')."""

    cells: int
    lower: float
    upper: float


@dataclass
class IntegralCertificate:
    value: float
    levels: List[CertificateLevel]
    converged: bool

    def to_json(self):
        return {
            "value": self.value,
            "converged": self.converged,
            "levels": [{"cells": l.cells, "lower": l.lower, "upper": l.upper}
                       for l in self.levels],
        }


def _check_interval(a: float, b: float) -> None:
    require_finite(a, b)
    if a > b:
        raise PreconditionError("need a <= b")


def _nodes(a: float, b: float, n: int, start: int, stop: int) -> np.ndarray:
    """Nodes start..stop of the uniform n-partition, a + k*(b-a)/n, with b last."""
    nodes = a + np.arange(start, stop + 1, dtype=float) * (b - a) / n
    if stop == n:
        nodes[-1] = b
    return nodes


def darboux_bounds(f: Expr, a: float, b: float, n: int) -> Tuple[float, float]:
    """Lower and upper Darboux bounds of f on the uniform n-partition.

    The sums of (b-a)/n times the enclosed infimum and supremum of f over
    each cell, so lower <= integral <= upper up to the rounding of the
    sums (see the module docstring); -inf or inf where f is unbounded or
    undefined on a cell.  lower(-f) = -upper(f) and upper(-f) = -lower(f)
    hold exactly.
    """
    if n < 1:
        raise PreconditionError("need n >= 1")
    _check_interval(a, b)
    if a == b:
        return 0.0, 0.0
    width = (b - a) / n
    lower = upper = 0.0
    for start in range(0, n, _CHUNK_CELLS):
        nodes = _nodes(a, b, n, start, min(start + _CHUNK_CELLS, n))
        inf, sup = enclose(f, nodes[:-1], nodes[1:])
        # a sum past the double range is inf, and one of inf and -inf is nan
        with np.errstate(over="ignore", invalid="ignore"):
            lower += float(np.sum(inf)) * width
            upper += float(np.sum(sup)) * width
    return lower, upper


def riemann_sum(f: Expr, p: Partition, choice: ChoiceFunction) -> float:
    """Weighted sum of f at one chosen point per cell."""
    if p.cell_count == 0:
        return 0.0
    pts = choice.points_for(p)
    with np.errstate(all="ignore"):  # inf - inf is nan, as in the evaluation itself
        return float(np.dot(evaluate(f, pts), p.widths()))


def _cell_integrals(f: Expr, f2: Optional[Expr], lo: np.ndarray,
                    hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Enclosures of the integral of f over each cell [lo, hi].

    w f(m) + w^3/24 f''(cell) for the true width w and midpoint m, both
    enclosed in interval arithmetic since hi - lo and lo + w/2 round;
    w f(cell) where f'' is unavailable (f2 None), and its intersection
    with the former where the f'' term is unbounded or outweighs the
    cell's estimate (as for sqrt just right of 0).  Raises
    DomainError or PreconditionError when f is undefined or infinite at a
    midpoint, where no refinement could help.
    """
    with np.errstate(all="ignore"):  # overflow gives inf, as in enclose
        w = isub((hi, hi), (lo, lo))
        m = iadd((lo, lo), imul((0.5, 0.5), w))
        fm = enclose(f, *m)
        bad = ~(np.isfinite(fm[0]) & np.isfinite(fm[1]))
        if bad.any():
            xs = lo[bad] + (hi[bad] - lo[bad]) / 2
            infinite = ~np.isfinite(evaluate(f, xs))  # DomainError where undefined
            if infinite.any():
                raise PreconditionError(
                    f"integrand is not finite at x = {float(xs[infinite][0])!r}")
        if f2 is None:
            return imul(w, enclose(f, lo, hi))
        rest = imul(imul(imul(imul(w, w), w), _ONE_24TH), enclose(f2, lo, hi))
        low, high = iadd(imul(w, fm), rest)
        bad = ~(rest[1] - rest[0] <= w[1] * np.abs(fm[0] + fm[1]))
        if bad.any():
            first = imul((w[0][bad], w[1][bad]), enclose(f, lo[bad], hi[bad]))
            low[bad], high[bad] = np.fmax(low[bad], first[0]), np.fmin(high[bad], first[1])
    return low, high


def _sum_bound(values, toward: float) -> float:
    """Bound on the exact sum of values, toward -inf or inf: the correctly
    rounded sum moved one ulp outward (no information if not finite)."""
    try:
        return math.nextafter(math.fsum(values), toward)
    except (ValueError, OverflowError):  # inf - inf, or a partial sum overflowed
        return toward


def riemann_integral(f: Expr, a: float, b: float, tol: float = 1e-6,
                     max_level: int = 24) -> IntegralCertificate:
    """Adaptively refined certified integral of f over [a, b].

    Each round encloses the integral over every unfrozen cell (see
    _cell_integrals), records the bracket [sum of lower ends, sum of
    upper ends] over all cells intersected with the previous one, and
    stops once it is at most tol wide.  Otherwise a cell whose enclosure
    is at most tol*w/(b-a) wide is frozen and the others are bisected.
    The first round bisects [a, b], and every later round its open
    cells, until at least _MIN_CELLS are open or the cells reach depth
    max_level, so while few cells are open each is split into 2^k dyadic
    parts at once.  Raises IterationCapError when
    cells of depth max_level (width (b-a)/2^max_level) are still too
    wide: an unbounded or wildly oscillatory integrand never closes its
    bracket.  Raises DomainError or PreconditionError at once when f is
    undefined or not finite at a cell midpoint.
    """
    if not 0 < tol < math.inf:
        raise PreconditionError("tol must be positive and finite")
    _check_interval(a, b)
    if a == b:
        return IntegralCertificate(0.0, [], True)
    try:
        f2: Optional[Expr] = differentiate(f, 2)
    except NonDifferentiableError:
        f2 = None
    lo, hi, depth, need = np.array([a]), np.array([b]), 0, _MIN_CELLS
    frozen, frozen_low, frozen_high = 0, 0.0, 0.0
    lower, upper = -math.inf, math.inf
    levels: List[CertificateLevel] = []
    while True:
        # bisect every open cell, at least once after a round, and on until
        # _MIN_CELLS are open: a smaller round costs about as much, because
        # enclose's fixed cost per call outweighs its cost per cell there
        while lo.size < need and depth < max_level:
            mid = lo + (hi - lo) / 2
            lo, hi, depth = np.concatenate([lo, mid]), np.concatenate([mid, hi]), depth + 1
        # in enclose's blocks, so the temporaries stay in cache however many
        # cells are open
        parts = [_cell_integrals(f, f2, lo[i:i + _BLOCK], hi[i:i + _BLOCK])
                 for i in range(0, lo.size, _BLOCK)]
        low, high = (np.concatenate(side) for side in zip(*parts))
        lower = max(lower, _sum_bound(np.append(low, frozen_low), -math.inf))
        upper = min(upper, _sum_bound(np.append(high, frozen_high), math.inf))
        levels.append(CertificateLevel(frozen + lo.size, lower, upper))
        if upper - lower <= tol:
            return IntegralCertificate(lower + (upper - lower) / 2, levels, True)
        with np.errstate(over="ignore"):  # a width past the double range is inf: not done
            done = high - low <= tol * (hi - lo) / (b - a)
        if done.any():
            frozen += int(np.count_nonzero(done))
            frozen_low = _sum_bound(np.append(low[done], frozen_low), -math.inf)
            frozen_high = _sum_bound(np.append(high[done], frozen_high), math.inf)
            lo, hi = lo[~done], hi[~done]
        if lo.size == 0 or depth >= max_level:
            break
        need = max(2 * lo.size, _MIN_CELLS)
    raise IterationCapError(
        f"bracket width {upper - lower} still above {tol} with cells of depth "
        f"{max_level}; integrand may be unbounded or wildly oscillatory"
    )


def integral_additivity_check(f: Expr, a: float, c: float, b: float,
                              tol: float = 1e-6) -> bool:
    """Does the integral split additively at c, within 3*tol?"""
    if not a <= c <= b:
        raise PreconditionError("need a <= c <= b")
    whole = riemann_integral(f, a, b, tol).value
    left = riemann_integral(f, a, c, tol).value
    right = riemann_integral(f, c, b, tol).value
    return abs(whole - left - right) <= 3 * tol


def bounds_check(f: Expr, a: float, b: float, lo: float, hi: float,
                 tol: float = 1e-6, samples: int = 1024) -> bool:
    """m(b-a) <= integral <= M(b-a), with the envelope grid-verified first."""
    require_finite(a, b)
    xs = np.linspace(a, b, samples)
    vals = evaluate(f, xs)
    if np.any(vals < lo) or np.any(vals > hi):
        k = int(np.argmax((vals < lo) | (vals > hi)))
        raise PreconditionError(f"f({xs[k]}) = {vals[k]} leaves [{lo}, {hi}]")
    value = riemann_integral(f, a, b, tol).value
    return lo * (b - a) - tol <= value <= hi * (b - a) + tol


def antiderivative(f: Expr, a: float, tol: float = 1e-6) -> Callable[[float], float]:
    """The map x -> integral of f from a to x, memoized per closure."""
    cache: Dict[float, float] = {}

    def phi(x: float) -> float:
        x = float(x)
        if x not in cache:
            if x >= a:
                cache[x] = riemann_integral(f, a, x, tol).value
            else:
                cache[x] = -riemann_integral(f, x, a, tol).value
        return cache[x]

    return phi


def ftc2_check(F: Expr, a: float, b: float, tol: float = 1e-6) -> bool:
    """Does the integral of F' equal F(b) - F(a), within 3*tol?"""
    value = riemann_integral(differentiate(F, 1), a, b, tol).value
    return abs(value - (evaluate(F, b) - evaluate(F, a))) <= 3 * tol


def imvt_witness(f: Expr, a: float, b: float, tol: float = 1e-6) -> float:
    """Point xi where f equals its integral mean over [a, b]."""
    from .calculus import extreme_point  # local import avoids a cycle
    from .suprema import bisect_root

    if not a < b:
        raise PreconditionError("need a < b")
    mean = riemann_integral(f, a, b, tol).value / (b - a)
    c_max, f_max = extreme_point(f, a, b)
    c_min, neg_min = extreme_point(-f, a, b)
    f_min = -neg_min
    if f_max - f_min <= tol:
        return a + (b - a) / 2
    lo, hi = sorted((c_min, c_max))
    fn = lambda t: evaluate(f, t)
    if (fn(lo) - mean) * (fn(hi) - mean) <= 0:
        return bisect_root(fn, lo, hi, mean, tol=max(1e-14, (b - a) * 1e-13)).root
    xs = np.linspace(a, b, 4096)
    resid = np.abs(evaluate(f, xs) - mean)
    return float(xs[int(np.argmin(resid))])


def adt_check(F: Expr, G: Expr, a: float, b: float, samples: int = 128,
              tol: float = 1e-9) -> bool:
    """Two antiderivatives of one function differ by a constant."""
    if samples < 2:
        raise PreconditionError("samples must be at least 2")
    require_finite(a, b)
    xs = np.linspace(a, b, samples)
    dF = evaluate(differentiate(F, 1), xs)
    dG = evaluate(differentiate(G, 1), xs)
    scale = float(np.max(np.abs(dF)))
    with np.errstate(invalid="ignore"):  # inf - inf is nan, which fails both tests
        mism = np.abs(dF - dG)
        if np.any(mism > tol * (1 + scale)):
            k = int(np.argmax(mism))
            raise PreconditionError(
                f"derivatives differ at x={xs[k]}: {dF[k]} vs {dG[k]}"
            )
        diff = evaluate(F, xs) - evaluate(G, xs)
        spread = float(np.max(diff) - np.min(diff))
    return spread <= tol * (1 + float(np.max(np.abs(diff))))
