"""Darboux bounds, Riemann sums and a convergence-certified integral.

Per-cell extrema are sampled at m+1 evenly spaced points (endpoints
included), so the lower bound is the integral of a sampled minorant
candidate and the upper bound comes from negation duality; one
evaluation of f per chunk of cells gives both.  The
certified integral refines dyadically and declares convergence when the
Darboux gap closes below tol and four choice-function Riemann sums land
inside the (tol-cushioned) bracket; its value is the bracket midpoint.
Step-function algebra lives in stepfn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .errors import IterationCapError, PreconditionError
from .expr import Expr, differentiate, evaluate
from .interval import Partition

_CHUNK_CELLS = 1 << 18


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
    cells: int
    lower: float
    upper: float
    sums: Dict[str, float]


@dataclass
class IntegralCertificate:
    value: float
    levels: List[CertificateLevel]
    converged: bool

    def to_json(self):
        return {
            "value": self.value,
            "converged": self.converged,
            "levels": [
                {"cells": l.cells, "lower": l.lower, "upper": l.upper, "sums": l.sums}
                for l in self.levels
            ],
        }


def _cell_min_sums(f: Expr, a: float, b: float, n: int, m: int) -> Tuple[float, float]:
    """Integrals of the sampled per-cell minimum step functions of f and
    of -f, from one evaluation of f (negation is exact, so min(-f) is
    -max(f) bit for bit)."""
    width = (b - a) / n
    low = neg_low = 0.0
    offsets = np.arange(m + 1) / m  # in [0, 1], endpoints included
    for start in range(0, n, _CHUNK_CELLS):
        stop = min(start + _CHUNK_CELLS, n)
        k = np.arange(start, stop, dtype=float)
        lo = a + k * (b - a) / n
        pts = lo[:, None] + offsets[None, :] * width
        vals = evaluate(f, pts.astype(float))
        low += float(np.sum(vals.min(axis=1))) * width
        neg_low += float(np.sum(-vals.max(axis=1))) * width
    return low, neg_low


def darboux_bounds(f: Expr, a: float, b: float, n: int, m: int = 8) -> Tuple[float, float]:
    """Sampled lower and upper Darboux bounds on the uniform n-partition.

    The upper bound is obtained by negation duality, so the identities
    lower(-f) = -upper(f) and upper(-f) = -lower(f) hold exactly.
    """
    if n < 1 or m < 1:
        raise PreconditionError("need n >= 1 and m >= 1")
    if a > b:
        raise PreconditionError("need a <= b")
    if a == b:
        return 0.0, 0.0
    lower, neg_upper = _cell_min_sums(f, a, b, n, m)
    return lower, -neg_upper


def riemann_sum(f: Expr, p: Partition, choice: ChoiceFunction) -> float:
    """Weighted sum of f at one chosen point per cell."""
    if p.cell_count == 0:
        return 0.0
    pts = choice.points_for(p)
    return float(np.dot(evaluate(f, pts), p.widths()))


def _uniform_sums(f: Expr, a: float, b: float, n: int, seed: int) -> Dict[str, float]:
    """Left/right/midpoint/random Riemann sums on the uniform n-partition,
    computed without materializing the partition."""
    width = (b - a) / n
    k = np.arange(n, dtype=float)
    lo = a + k * (b - a) / n
    hi = np.concatenate([lo[1:], [float(b)]])
    rng = np.random.default_rng(seed)
    pts = {
        "left": lo,
        "right": hi,
        "midpoint": lo + (hi - lo) / 2,
        "random": lo + rng.uniform(0.0, 1.0, n) * (hi - lo),
    }
    return {kind: float(np.sum(evaluate(f, xs)) * width) for kind, xs in pts.items()}


def riemann_integral(f: Expr, a: float, b: float, tol: float = 1e-6,
                     min_level: int = 4, max_level: int = 24, m: int = 8,
                     seed: int = 0) -> IntegralCertificate:
    """Dyadically refined certified integral.

    Raises IterationCapError at the level cap; an unbounded or wildly
    oscillatory integrand never closes its Darboux gap (an integrable
    function is bounded).
    """
    if tol <= 0:
        raise PreconditionError("tol must be positive")
    if a > b:
        raise PreconditionError("need a <= b")
    if a == b:
        return IntegralCertificate(0.0, [], True)
    levels: List[CertificateLevel] = []
    for j in range(min_level, max_level + 1):
        n = 1 << j
        lower, upper = darboux_bounds(f, a, b, n, m)
        sums = _uniform_sums(f, a, b, n, seed)
        levels.append(CertificateLevel(n, lower, upper, sums))
        inside = all(lower - tol <= s <= upper + tol for s in sums.values())
        if upper - lower < tol and inside:
            return IntegralCertificate(lower + (upper - lower) / 2, levels, True)
    raise IterationCapError(
        f"Darboux gap {levels[-1].upper - levels[-1].lower} still above {tol} at "
        f"2^{max_level} cells; integrand may be unbounded or wildly oscillatory"
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
    xs = np.linspace(a, b, samples)
    dF = evaluate(differentiate(F, 1), xs)
    dG = evaluate(differentiate(G, 1), xs)
    scale = float(np.max(np.abs(dF)))
    mism = np.abs(dF - dG)
    if np.any(mism > tol * (1 + scale)):
        k = int(np.argmax(mism))
        raise PreconditionError(
            f"derivatives differ at x={xs[k]}: {dF[k]} vs {dG[k]}"
        )
    diff = evaluate(F, xs) - evaluate(G, xs)
    spread = float(np.max(diff) - np.min(diff))
    return spread <= tol * (1 + float(np.max(np.abs(diff))))
