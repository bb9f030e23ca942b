"""Bisection constructions: suprema of predicate sets, cut points of
downward-closed predicates, intermediate-value root finding, and the
affine interval map.

All three constructions are one argument, carried out by one kernel,
`_bisect`: cut a bracket [lo, hi] whose left end satisfies a predicate
and whose right end does not, keeping that invariant.  The supremum and
the cut cut at the midpoint; the root cuts at the ITP point (Oliveira &
Takahashi, 2020), which interpolates the residuals at the ends and is
never more than one cut behind halving.  The kernel stops once hi - lo <
tol, or earlier when no double lies strictly between lo and hi (so a tol
below the double spacing returns a bracket of two adjacent doubles).
The bracket must be finite, with a width that is a double, so the
kernel's own cap, MAX_HALVINGS = 1025 + 1074 cuts, is never reached: the
width is below 2^1024, a cut leaves at most twice the width a halving
would, and doubles are at least 2^-1074 apart, so that many cuts leave
two adjacent doubles, which end the loop before the cap is looked at.
The kernel still checks it, and raises IterationCapError past it, so a
cut rule that broke the argument could not loop forever.  A predicate
may also report an exact hit, which collapses the bracket to a point (a
root's residual can be exactly zero).  The public functions only check
preconditions, choose the predicate and package the result: the
supremum keeps "is a member", the cut "is below", the root "has the sign
of the left end".  The oracles of a PredicateSet and a Cut are callables
from a float to a bool: an expr.Predicate (two trees and a comparator,
which fc sup and fc cut pass) or any function; the root's f is a tree or
any callable.

A membership oracle cannot decide "is an upper bound", so midpoints
that test non-member are *treated* as upper bounds.  That is sound for
downward-closed or interval-like sets; for a general set the result is
the supremum of the connected component of the seed.
"""

from __future__ import annotations

import math
from typing import Callable, List, NamedTuple, Optional, Tuple

from .errors import BracketError, IterationCapError, NonCutError, PreconditionError
from .expr import Expr, Var, add, const, mul, sub
from .interval import require_tol


MAX_HALVINGS = 1025 + 1074
CUT_PROBES = 64   # grid points on which cut_point checks downward closure


class PredicateSet(NamedTuple):
    """Bounded set given by a membership oracle.

    seed is a known element, bound a claimed upper bound; the oracle is
    never asked to certify the bound globally.
    """

    member: Callable[[float], bool]
    seed: float
    bound: float


class Cut(NamedTuple):
    """Downward-closed set given by a `below` oracle plus two samples."""

    below: Callable[[float], bool]
    sample_in: float
    sample_out: float


class SupremumResult(NamedTuple):
    value: float
    iterations: int
    trace: List[Tuple[float, float]]


class RootResult(NamedTuple):
    root: float
    iterations: int
    bracket: Tuple[float, float]
    residual: float


def _check_bracket(lo: float, hi: float) -> None:
    if not math.isfinite(hi - lo):
        raise PreconditionError(f"bisection needs a finite bracket, got [{lo}, {hi}]")
    if lo > hi:
        raise PreconditionError(f"bisection needs lo <= hi, got [{lo}, {hi}]")


def _bisect(inside: Callable[[float], Optional[bool]], lo: float, hi: float, tol: float,
            cut: Optional[Callable[[float, float, int], float]] = None
            ) -> Tuple[float, float, int, List[Tuple[float, float]]]:
    """Cut [lo, hi] keeping inside(lo) true and inside(hi) false.

    Each step tests cut(lo, hi, j), j the steps taken so far, where that
    lies strictly inside (lo, hi), and the midpoint otherwise or without
    a cut.  Returns the final bracket, the number of steps and the trace
    of brackets (the initial one first).  inside(m) returning None is an
    exact hit: the bracket becomes [m, m] and the loop ends.
    """
    _check_bracket(lo, hi)
    trace = [(lo, hi)]
    iterations = 0
    while hi - lo >= tol:
        m = lo + (hi - lo) / 2
        if m <= lo or m >= hi:
            break  # no double lies strictly between lo and hi
        if iterations >= MAX_HALVINGS:
            raise IterationCapError(f"bisection exceeded {MAX_HALVINGS} iterations")
        if cut is not None:
            c = cut(lo, hi, iterations)
            m = c if lo < c < hi else m
        side = inside(m)
        iterations += 1
        if side is None:
            lo = hi = m
        elif side:
            lo = m
        else:
            hi = m
        trace.append((lo, hi))
    return lo, hi, iterations, trace


def bisect_supremum(pset: PredicateSet, tol: float) -> SupremumResult:
    """Supremum by midpoint-membership bisection.

    Keeps [a_k, b_k] with a_k a member and b_k treated as an upper
    bound, halving until b_k - a_k < tol or the two are adjacent
    doubles; returns a_k.  If the declared
    bound is itself a member it is the supremum and is returned at once.
    """
    require_tol(tol)
    if pset.seed > pset.bound:
        raise PreconditionError("seed must not exceed bound")
    if not pset.member(pset.seed):
        raise PreconditionError("seed is not a member of the set")
    if pset.member(pset.bound):
        return SupremumResult(pset.bound, 0, [(pset.bound, pset.bound)])
    # bool(): an oracle's None means "not a member", never an exact hit
    a, _, iterations, trace = _bisect(lambda m: bool(pset.member(m)), pset.seed, pset.bound,
                                      tol)
    return SupremumResult(a, iterations, trace)


def supremum(pset: PredicateSet, tol: float) -> float:
    return bisect_supremum(pset, tol).value


def sup_witnesses(pset: PredicateSet, sup_value: float, count: int) -> List[float]:
    """Members c_1..c_count with |c_n - sup_value| < 1/n.

    Scans the bisection trace of member endpoints a_k, which climb to
    the supremum.
    """
    if count < 1:
        raise PreconditionError("count must be positive")
    tol = min(1.0 / (2 * count), 1e-3)
    res = bisect_supremum(pset, tol)
    members = [a for a, _ in res.trace] + [res.value]
    witnesses = []
    for n in range(1, count + 1):
        found = None
        for a in members:
            if abs(a - sup_value) < 1.0 / n:
                found = a
                break
        if found is None:
            raise PreconditionError(
                f"no member within 1/{n} of {sup_value}; supremum value looks inaccurate"
            )
        witnesses.append(found)
    return witnesses


def cut_point(cut: Cut, tol: float) -> float:
    """Boundary point of a downward-closed predicate, by bisection.

    A probe grid checks downward closure first: a `below` hit above a
    miss is a witness that the input is not a cut.
    """
    require_tol(tol)
    if not cut.below(cut.sample_in):
        raise NonCutError("below(sample_in) must be true")
    if cut.below(cut.sample_out):
        raise NonCutError("below(sample_out) must be false")
    lo, hi = cut.sample_in, cut.sample_out
    if lo >= hi:
        raise NonCutError("sample_in above sample_out contradicts downward closure")
    _check_bracket(lo, hi)
    grid = _linspace(lo, hi, CUT_PROBES)
    flags = [bool(cut.below(t)) for t in grid]
    last_true = max(i for i, f in enumerate(flags) if f)
    first_false = min(i for i, f in enumerate(flags) if not f)
    if first_false < last_true:
        raise NonCutError(
            f"predicate holds at {grid[last_true]} but fails below it at {grid[first_false]}"
        )
    a, b, _, _ = _bisect(lambda m: bool(cut.below(m)), grid[last_true], grid[first_false],
                         tol)
    return a + (b - a) / 2


def _linspace(lo: float, hi: float, n: int) -> List[float]:
    """n >= 2 evenly spaced floats from lo to hi, bit for bit numpy.linspace."""
    step = (hi - lo) / (n - 1)
    if step == 0.0:  # the span underflowed when divided: scale i/(n-1) instead
        grid = [i / (n - 1) * (hi - lo) + lo for i in range(n)]
    else:
        grid = [i * step + lo for i in range(n)]
    grid[-1] = hi
    return grid


def bisect_root(
    fn: Callable[[float], float],
    a: float,
    b: float,
    k: float = 0.0,
    tol: float = 1e-12,
) -> RootResult:
    """Sign-change bracketing for fn(x) = k on [a, b], cut by ITP.

    The bracket may be given in either order.  Cuts it until it is
    narrower than tol or made of adjacent doubles and returns its
    midpoint; exact hits terminate immediately.  Raises BracketError when
    both endpoint residuals share a sign.

    Each cut is the ITP point (Oliveira & Takahashi, ACM TOMS 47(1),
    2020) with kappa1 = 0.2/(b - a), kappa2 = 2 and n0 = 1, from the
    residuals recorded at the bracket's ends: the regula falsi point,
    moved toward the midpoint by kappa1*w^2 (w the bracket's width), then
    projected to within (b - a)*2^-j - w/2 of the midpoint at step j = 0,
    1, ..., and kept tol/2 and one double away from both ends, so that a
    root within tol/2 of an end closes the bracket at the next cut.  After
    j + 1 cuts the bracket is at most (b - a)*2^-j wide, twice what as
    many halvings leave, so ITP takes at most one cut more than halving
    (two where tol is within some dozens of ulps of the root, as cuts
    round to doubles); where fn is smooth at a simple root it converges
    superlinearly.
    """
    require_tol(tol)
    if b < a:
        a, b = b, a
    fa = fn(a) - k
    fb = fn(b) - k
    if fa == 0.0:
        return RootResult(a, 0, (a, a), 0.0)
    if fb == 0.0:
        return RootResult(b, 0, (b, b), 0.0)
    if (fa > 0) == (fb > 0):
        raise BracketError(f"no sign change on [{a}, {b}]: f-k = {fa} and {fb}")
    positive_left, span, seen = fa > 0, b - a, {a: fa, b: fb}

    def same_side_as_a(m: float) -> Optional[bool]:
        fm = seen[m] = fn(m) - k
        return None if fm == 0.0 else (fm > 0) == positive_left

    def itp(lo: float, hi: float, j: int) -> float:
        w, m, ylo = hi - lo, lo + (hi - lo) / 2, seen[lo]
        xf = lo + w * (ylo / (ylo - seen[hi]))  # interpolate; NaN where a residual is inf
        delta = 0.2 * w * (w / span)  # truncate, by kappa1*w^2 without overflow
        xt = xf + math.copysign(delta, m - xf) if delta <= abs(m - xf) else m
        r = max(math.ldexp(span, -j) - w / 2, 0.0)  # project; no overflow as j >= 0
        x = min(max(xt, m - r), m + r)
        # tol/2 and one double away from each end, so that a root within
        # tol/2 of an end closes the bracket at the next step
        return min(max(x, lo + tol / 2, math.nextafter(lo, hi)), hi - tol / 2,
                   math.nextafter(hi, lo))

    lo, hi, iterations, _ = _bisect(same_side_as_a, a, b, tol, itp)
    root = lo + (hi - lo) / 2
    return RootResult(root, iterations, (lo, hi), 0.0 if lo == hi else fn(root) - k)


def ivt_root(f: Expr, a: float, b: float, k: float = 0.0, tol: float = 1e-12) -> float:
    """Point c in [a, b] with f(c) = k, given a sign-change bracket."""
    return bisect_root(f, a, b, k, tol).root


def affine_map(a0: float, b0: float, a: float, b: float) -> Expr:
    """Expression for the affine map sending [a0, b0] onto [a, b]."""
    if not a0 < b0:  # NaN too
        raise PreconditionError("affine_map needs a0 < b0")
    slope = (b - a) / (b0 - a0)
    # finite b - a and b0 - a0 need finite ends; b0 - a0 = inf gives slope 0
    if not (math.isfinite(slope) and math.isfinite(b0 - a0)):
        raise PreconditionError("affine_map needs finite ends and a finite slope")
    return add(mul(const(slope), sub(Var(), const(a0))), const(a))
