"""Darboux bounds, Riemann sums and a certified integral, from interval
enclosures.

Both integrals rest on expr.enclose, which bounds f over whole cells in
outward-rounded interval arithmetic (see expr).  Darboux bounds on the
uniform n-partition sum the per-cell infimum and supremum enclosures
times the cell width; negation is exact, so lower(-f) = -upper(f) bit for
bit.  The certified integral refines adaptively: each cell's integral is
enclosed by the midpoint rule with its remainder, w f(m) + w^3/24 f''(xi),
using the symbolic second derivative (or w f(cell) where that is
unbounded, as on the cell holding a kink of abs); cells whose enclosure
is narrow enough are frozen and the rest bisected, until the summed
bracket is at most tol wide.  The rounds, the cell splitting and the caps are those of
interval.refine_cells, the loop every enclosure decision shares.  Its
value is the bracket midpoint.  bounds_check certifies its envelope with
calculus.extreme_point (branch and bound on the same loop), and
adt_check proves F' - G' near 0 with calculus._holds (the same loop);
imvt_witness finds where f meets its mean with calculus._crossing, the
one witness search of the mean-value routines.

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
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .calculus import _crossing, _holds, extreme_point
from .errors import DivergenceError, IterationCapError, PreconditionError
from .expr import _BLOCK, Expr, const, differentiate, enclose, evaluate, iadd, imul, isub, sub
from .interval import CELL_BUDGET, Partition, refine_cells, require_interval, require_tol

MAX_LEVEL = 24  # the depth of riemann_integral's finest cells
_CHUNK_CELLS = 1 << 18  # cells per Darboux partial sum: bounds a call's memory
_ONE_24TH = (math.nextafter(1 / 24, 0.0), math.nextafter(1 / 24, 1.0))


class ChoiceFunction(NamedTuple):
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


class CertificateLevel(NamedTuple):
    """One refinement round: the partition's cell count and the bracket
    [lower, upper] on the integral (intersected with earlier rounds')."""

    cells: int
    lower: float
    upper: float


class IntegralCertificate(NamedTuple):
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
    require_interval(a, b)
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
        return float(np.sum(evaluate(f, pts) * p.widths()))  # no BLAS call


def _cell_integrals(f: Expr, f2: Expr, lo: np.ndarray,
                    hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Enclosures of the integral of f over each cell [lo, hi].

    w f(m) + w^3/24 f''(cell) for the true width w and midpoint m, both
    enclosed in interval arithmetic since hi - lo and lo + w/2 round, and
    its intersection with w f(cell) where the f'' term is unbounded or
    outweighs the cell's estimate (as for sqrt just right of 0, or on a
    cell holding a kink of abs).  Raises
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


def riemann_integral(f: Expr, a: float, b: float, tol: float = 1e-6) -> IntegralCertificate:
    """Adaptively refined certified integral of f over [a, b].

    Each round encloses the integral over every unfrozen cell (see
    _cell_integrals), records the bracket [sum of lower ends, sum of
    upper ends] over all cells intersected with the previous one, and
    stops once it is at most tol wide.  Otherwise a cell whose enclosure
    is at most tol*w/(b-a) wide is frozen and the others are bisected
    (by interval.refine_cells, at least 64 open cells a round).  Raises
    IterationCapError when cells of depth MAX_LEVEL (width
    (b-a)/2^MAX_LEVEL) are still too wide, or past the cell budget of
    refine_cells: an unbounded or wildly oscillatory integrand never
    closes its bracket.  Nor does a tol below the bracket's rounding, so
    a round that leaves a finite bracket within rounding (2^-44 of its
    larger end, about 256 ulps), narrower than the round before's by at
    most one ulp of that end, raises at once.
    Raises DomainError or PreconditionError at once when f is undefined
    or not finite at a cell midpoint.
    """
    require_tol(tol)
    require_interval(a, b)
    if a == b:
        return IntegralCertificate(0.0, [], True)
    f2 = differentiate(f, 2)
    frozen, frozen_low, frozen_high = 0, 0.0, 0.0
    lower, upper = -math.inf, math.inf
    levels: List[CertificateLevel] = []

    def rounding():
        width = upper - lower
        return math.isfinite(width) and width <= 2.0 ** -44 * max(abs(lower), abs(upper))

    def refuse():
        cause = ("tol is below the rounding of the bracket" if rounding()
                 else "integrand may be unbounded or wildly oscillatory")
        return IterationCapError(f"bracket width {upper - lower} still above {tol} with cells of "
                                 f"depth {MAX_LEVEL} or {CELL_BUDGET} cells in all; {cause}")

    def judge(lo, hi):
        nonlocal frozen, frozen_low, frozen_high, lower, upper
        width = upper - lower
        # in enclose's blocks, so the temporaries stay in cache however many
        # cells are open
        parts = [_cell_integrals(f, f2, lo[i:i + _BLOCK], hi[i:i + _BLOCK])
                 for i in range(0, lo.size, _BLOCK)]
        low, high = (np.concatenate(side) for side in zip(*parts))
        lower = max(lower, _sum_bound(np.append(low, frozen_low), -math.inf))
        upper = min(upper, _sum_bound(np.append(high, frozen_high), math.inf))
        levels.append(CertificateLevel(frozen + lo.size, lower, upper))
        if upper - lower <= tol:
            return None
        # stalled within rounding: narrowed by at most an ulp of its larger end
        if upper - lower >= width - math.ulp(max(abs(lower), abs(upper))) and rounding():
            raise refuse()
        with np.errstate(over="ignore"):  # a width past the double range is inf: not done
            done = high - low <= tol * (hi - lo) / (b - a)
        if done.any():
            frozen += int(np.count_nonzero(done))
            frozen_low = _sum_bound(np.append(low[done], frozen_low), -math.inf)
            frozen_high = _sum_bound(np.append(high[done], frozen_high), math.inf)
        return ~done

    if refine_cells(a, b, judge, MAX_LEVEL):
        return IntegralCertificate(lower + (upper - lower) / 2, levels, True)
    raise refuse()


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
                 tol: float = 1e-6) -> bool:
    """m(b-a) <= integral <= M(b-a), with the envelope checked first: the
    maxima of f and -f, located by extreme_point at tol, may pass hi and
    -lo by at most tol."""
    for g, sign, bound in ((f, 1.0, hi), (-f, -1.0, -lo)):
        c, value = extreme_point(g, a, b, tol)
        if value > bound + tol:
            raise PreconditionError(f"f({c}) = {sign * value} leaves [{lo}, {hi}]")
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
    """Point xi where f equals its integral mean over [a, b].

    The mean is the certified integral at tol over b - a, so it is known
    to within tol/(b - a); xi is the calculus._crossing of f and the mean
    at that tolerance, the midpoint where f is within it of the mean on
    the whole scan.  Raises DivergenceError where f does not meet the
    mean on the scan (as for a spike the scan misses).
    """
    if not a < b:
        raise PreconditionError("need a < b")
    mean = riemann_integral(f, a, b, tol).value / (b - a)
    xi = _crossing(f, a, b, mean, tol / (b - a))
    if xi is None:
        raise DivergenceError(f"f does not meet its mean {mean!r} on the scan")
    return xi


def adt_check(F: Expr, G: Expr, a: float, b: float, tol: float = 1e-9) -> bool:
    """Do two antiderivatives F and G differ by a constant on [a, b]?

    Yes at once where differentiate(F) is differentiate(G) (and on one
    point), else once calculus._holds proves F' - G' within [-tol, tol] on
    [a, b]; F - G is evaluated at each round's cell midpoints, so
    DomainError where either is undefined there.  Raises
    PreconditionError where F or G is not finite at a or on a cell where
    F' - G' lies wholly outside [-tol, tol], and IterationCapError where
    _holds leaves the question open (as at a kink of abs in F or G, unless
    their derivatives are one tree).
    """
    require_tol(tol)
    require_interval(a, b)
    for name, H in (("F", F), ("G", G)):
        if not math.isfinite(evaluate(H, a)):
            raise PreconditionError(f"{name} is not finite at a = {a!r}")
    g = const(0.0)
    if a < b:
        dF, dG = differentiate(F, 1), differentiate(G, 1)
        if dF is not dG:
            g = sub(dF, dG)
    ok, cell = _holds(sub(F, G), g, a, b, -tol, tol)
    if not ok:
        raise PreconditionError(f"F' and G' differ by more than {tol} on [{cell[0]!r}, "
                                f"{cell[1]!r}]")
    return True
