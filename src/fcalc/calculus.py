"""Limits and derivatives at a point, and the mean-value/Taylor witness
finders.

Every derivative but taylor's comes from the symbolic expr.differentiate,
which covers the whole grammar (abs included, undefined only at its
kink), at a point too: derivative reads f^(n) at c once f, ..., f^(n-1)
are defined on one closed cell about c, and takes the limit of f^(n)
there.  taylor reads f's Taylor coefficients from one run of f's own
program on jets (expr.jet), with no derivative tree.  A limit is f(c)
where f is defined on a closed cell about c, proven by a finite interval
enclosure of that one cell on floats (_defined_about), so a limit or
derivative there needs no numpy; only where it is not are the filter bases
behind one- and two-sided limits sampled, on a geometric schedule of
punctured windows with a fixed number of points in each.

Every mean-value witness (Rolle, MVT, eMVT, Taylor and
integrate.imvt_witness) is a point c where some function h (a tree, or
taylor's jet coefficient) meets a value k, and one locator, `_crossing`,
finds them all: it evaluates h once, as an array, at the SCAN interior
points of a uniform grid on [a, b], and returns the midpoint where h is
within tol of k on the whole scan, else the first grid point where h = k
exactly, else the first sign change of h - k polished by `bisect_root`'s
ITP cuts if h is within tol of k there (a jump of h is no witness), else
None, also where h is undefined
at a point the search evaluates.  Each routine only builds its h and k
and checks its own contract.

"For all x in [a, b]" is decided from interval enclosures on the cells
of interval.refine_cells, never from samples.  Every cell is bounded by
_cell_bounds: the natural interval extension intersected with the
mean-value form g(m) + g'(X)(X - m) (Moore, Interval Analysis, 1966).
extreme_point is interval branch and bound on those bounds (Hansen &
Walster, Global Optimization Using Interval Analysis, 2004); one judge,
_holds, proves a derivative within [low, high] on every cell or finds a
cell where it lies wholly outside, for polynomial_check (f^(n+1)),
shape_checks (f' or f'') and integrate.adt_check (F' - G').  Each raises
IterationCapError when the depth cap or the cell budget of refine_cells
leaves the question open.
"""

from __future__ import annotations

import bisect as _bisect
import math
from typing import Callable, NamedTuple, Optional, Tuple

from .errors import (
    DivergenceError,
    DomainError,
    IterationCapError,
    OneSidedDisagreementError,
    PreconditionError,
)
from .expr import (Expr, _Numpy, const, differentiate, enclose, evaluate, iadd, imul, isub, jet,
                   mul, sub)
from .interval import CELL_BUDGET, refine_cells, require_finite, require_interval, require_tol
from .suprema import bisect_root

np = _Numpy(globals())  # numpy, imported on first use: limits where f is defined need none

WINDOW0 = 1e-2         # first punctured window of the limit scan, halved each step
WINDOWS = 30           # windows the limit scan tries
SAMPLES_PER_STEP = 8   # points in each punctured window
CELL = 16.0 ** -12     # radius of the closed cell about c, relative to 1 + |c|
SCAN = 512             # interior grid points _crossing scans for every witness
MAX_DEPTH = 52         # deepest bisection of extreme_point and _holds


class LimitReport(NamedTuple):
    estimate: float
    spread: float
    converged: bool
    steps_used: int = 0
    left: Optional[float] = None
    right: Optional[float] = None


class TaylorReport(NamedTuple):
    value: float
    rho: float
    witness: Optional[float]
    remainder: float
    converged: bool


def _window_offsets(delta: float, mode: str, m: int) -> np.ndarray:
    if mode == "two-sided":
        half = max(1, m // 2)
        offs = delta * np.arange(1, half + 1) / half
        return np.concatenate([-offs[::-1], offs])
    offs = delta * np.arange(1, m + 1) / m
    return offs if mode == "right" else -offs


def _require_point(c: float) -> None:
    if not math.isfinite(c):
        raise PreconditionError(f"need a finite point, got {c!r}")


def _defined_about(trees, c: float, mode: str) -> bool:
    """Is every tree defined on the closed cell about c?

    The cell reaches (1 + |c|)*CELL from c on the side or sides that mode
    picks, and each tree is enclosed on it on floats.  A finite enclosure
    means the tree is defined, and finite, on the whole cell, so it is
    continuous there.  Natural interval extensions are inclusion isotone
    (Moore, Interval Analysis, 1966), so a finite enclosure on any larger
    cell about c implies one on this one: trying larger cells first could
    prove nothing more.
    """
    r = (1 + abs(c)) * CELL
    lo = c if mode == "right" else c - r
    hi = c if mode == "left" else c + r
    for tree in trees:
        inf, sup = enclose(tree, lo, hi)
        if not (math.isfinite(inf) and math.isfinite(sup)):
            return False
    return True


def limit(f: Expr, c: float, mode: str = "two-sided", tol: float = 1e-6) -> LimitReport:
    """Limit of f at c from the left, the right or both sides.

    Where f is defined on a closed cell about c (_defined_about), it is
    continuous there, so the limit is f(c), exact, with no step taken.
    Elsewhere the filter base is sampled: punctured windows of WINDOW0
    halved up to WINDOWS times, SAMPLES_PER_STEP points each, until
    successive window means differ by less than tol and the last window's
    spread is below tol; two-sided mode also requires the one-sided means
    to agree within tol, else OneSidedDisagreementError.  DivergenceError
    where no window converges, or where the window falls below the double
    spacing at c.  Where f is undefined at a point of a window, the scan
    tries the next, smaller window, and where f is undefined in the last
    one, its DivergenceError names the side of c.  A non-finite c is a
    PreconditionError.
    """
    require_tol(tol)
    _require_point(c)
    if mode not in ("left", "right", "two-sided"):
        raise PreconditionError(f"unknown mode {mode!r}")
    if _defined_about((f,), c, mode):
        return LimitReport(evaluate(f, c), 0.0, True)
    prev = None
    est = spread = math.nan
    left_est = right_est = undefined = None
    why = f"no convergence after {WINDOWS} steps"
    for j in range(WINDOWS):
        delta = WINDOW0 * 0.5**j
        # a sample spacing of at least the ulp of every window point keeps
        # the points distinct doubles, none of them c
        if delta / SAMPLES_PER_STEP < math.ulp(abs(c) + delta):
            why = (f"no convergence: stopped at step {j + 1} of {WINDOWS}, where the "
                   f"window fell below the double spacing at c = {c!r}")
            break
        pts = c + _window_offsets(delta, mode, SAMPLES_PER_STEP)
        below = pts < c
        with np.errstate(all="ignore"):  # inf - inf gives NaN, which never converges
            try:
                vals = evaluate(f, pts)
            except DomainError as e:
                undefined, prev = (pts[below], delta, e), None
                continue
            undefined = None
            est = float(np.mean(vals))
            spread = float(np.max(vals) - np.min(vals))
            if mode == "two-sided":
                left_est = float(np.mean(vals[below]))
                right_est = float(np.mean(vals[~below]))
        if prev is not None and abs(est - prev) < tol and spread < tol:
            if mode == "two-sided" and abs(left_est - right_est) >= tol:
                raise OneSidedDisagreementError(left_est, right_est, tol)
            return LimitReport(est, spread, True, j + 1, left_est, right_est)
        prev = est
    if undefined is not None:
        left, delta, e = undefined
        side = mode
        if mode == "two-sided":
            try:
                evaluate(f, left)
                side = "right"
            except DomainError:
                side = "left"
        raise DivergenceError(f"no {mode} limit: f is undefined {side} of c = {c!r}, "
                              f"within {delta!r} of it ({e})")
    if mode == "two-sided" and left_est is not None and abs(left_est - right_est) >= tol:
        raise OneSidedDisagreementError(left_est, right_est, tol)
    raise DivergenceError(f"{why} (estimate {est}, spread {spread})")


def derivative(f: Expr, c: float, n: int = 1, tol: float = 1e-6) -> LimitReport:
    """f^(n)(c), as the limit of the symbolic f^(n) at c.

    Needs f, ..., f^(n-1) defined on one common closed cell about c
    (_defined_about), else DivergenceError.  Then f^(n-1) is continuous
    on the cell, and where f^(n) has a limit L at c the mean-value theorem
    gives f^(n)(c) = L.  So the answer is f^(n)(c) itself where f^(n) is
    defined about c, and the limit scan's otherwise, as at the kink of
    abs(x), whose one-sided limits disagree.  n = 0 is f(c), with no
    limit taken.  A negative n or a non-finite c is a PreconditionError.
    """
    require_tol(tol)
    _require_point(c)
    if n < 0:
        raise PreconditionError("derivative order must be nonnegative")
    if n == 0:
        return LimitReport(evaluate(f, c), 0.0, True)
    derivs = [f]  # f, ..., f^(n), each from the one before
    for _ in range(n):
        derivs.append(differentiate(derivs[-1], 1))
    if not _defined_about(derivs[:-1], c, "two-sided"):
        which = "f" if n == 1 else f"f or a derivative of order below {n}"
        raise DivergenceError(f"{which} is undefined or overflows on every cell about c = {c!r}")
    return limit(derivs[-1], c, tol=tol)


def _cell_bounds(g: Expr, dg: Expr, lo: np.ndarray,
                 hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Enclosures of g over the cells [lo, hi]: the natural interval
    extension, intersected with the mean-value form g(m) + g'(X)(X - m) at
    the midpoints m (dg the symbolic g'), whose width shrinks with the
    square of the cell's where the natural one's shrinks linearly.  The
    form is used only on cells where the natural enclosure is finite, so g
    is defined on the whole cell, as the mean-value theorem needs (g' may
    be defined where g is not: d/dx of u^0 is 0 whatever u); a NaN or
    infinite end of it (inf * 0, or g' unbounded at a kink of abs) adds
    nothing."""
    inf, sup = enclose(g, lo, hi)
    m = lo + (hi - lo) / 2
    with np.errstate(all="ignore"):  # inf - inf and inf * 0 give NaN: no information
        low, high = iadd(enclose(g, m, m), imul(enclose(dg, lo, hi), isub((lo, hi), (m, m))))
    finite = np.isfinite(inf) & np.isfinite(sup)
    return (np.where(finite, np.fmax(inf, low), inf),
            np.where(finite, np.fmin(sup, high), sup))


def extreme_point(f: Expr, a: float, b: float, tol: float = 1e-9) -> Tuple[float, float]:
    """Argmax c of f over [a, b] by interval branch and bound, and f(c).

    Both ends are evaluated first.  Each round then evaluates f at the
    cell midpoints, keeping the best point (the smallest x on ties), and
    bounds f over the cells by _cell_bounds, dropping those whose upper
    bound lies at most min(tol, 1)*(1 + |f(c)|) above the best value f(c),
    so a pole keeps only its own cell open.  It stops once the largest upper
    bound is within tol*(1 + |f(c)|) of f(c), so max f lies in that range
    above f(c); tol bounds the value, not the distance of c from an
    argmax.  Raises PreconditionError where f is not finite at a point
    evaluated, DomainError where it is undefined, and IterationCapError
    when cells of depth MAX_DEPTH, or the cell budget of refine_cells,
    leave the gap open.
    """
    require_tol(tol)
    require_interval(a, b)
    df = differentiate(f, 1)
    c, fc, gap = a, -math.inf, math.inf

    def visit(xs):
        nonlocal c, fc
        vals = evaluate(f, xs)
        bad = ~np.isfinite(vals)
        if bad.any():
            raise PreconditionError(f"f is not finite at x = {float(xs[bad][0])!r}")
        top = float(vals.max())
        x = float(xs[vals == top].min())
        if top > fc or (top == fc and x < c):
            c, fc = x, top

    def judge(lo, hi):
        nonlocal gap
        visit(lo + (hi - lo) / 2)
        sup = _cell_bounds(f, df, lo, hi)[1]
        gap = float(sup.max()) - fc
        # fc + min(tol, 1)*(1 + |fc|) never decreases as fc grows, so a cell
        # dropped below it stays within the final fc + tol*(1 + |fc|)
        return None if gap <= tol * (1 + abs(fc)) else sup > fc + min(tol, 1.0) * (1 + abs(fc))

    visit(np.array([a, b]))
    if a == b or refine_cells(a, b, judge, MAX_DEPTH):
        return c, fc
    raise IterationCapError(f"max f still up to {gap} above f({c!r}) = {fc!r} with cells "
                            f"of depth {MAX_DEPTH} or {CELL_BUDGET} cells in all")


def _holds(f: Expr, g: Expr, a: float, b: float, low: float,
           high: float) -> Tuple[bool, Optional[Tuple[float, float]]]:
    """Does low <= g(x) <= high hold for every x in [a, b]?

    Decided on the cells of refine_cells, bounded by _cell_bounds:
    (True, None) once g's enclosure on every cell lies in [low, high], and
    (False, (lo, hi)) for the leftmost cell of the first round in which
    some cell's enclosure lies wholly outside.  g is a derivative of f,
    whose tree may be defined where f's is not (d/dx of u^0 is 0 whatever
    u), so f is evaluated at a and b and, each round, at the cell
    midpoints: DomainError where f is undefined at one, before any budget
    is spent on g, and so even where g is a constant decided on the first
    round's 64 cells.  Raises IterationCapError, naming the leftmost cell
    still open and g's enclosure there, when cells of depth MAX_DEPTH, or
    the cell budget of refine_cells, leave the question open.
    """
    dg = differentiate(g, 1)
    verdict = True, None
    left = None  # the leftmost open cell of the last round, and g's enclosure there

    def judge(lo, hi):
        nonlocal verdict, left
        evaluate(f, lo + (hi - lo) / 2)
        inf, sup = _cell_bounds(g, dg, lo, hi)
        out = (inf > high) | (sup < low)
        if out.any():
            i = np.flatnonzero(out)[np.argmin(lo[out])]
            verdict = False, (float(lo[i]), float(hi[i]))
            return None
        open_ = (inf < low) | (sup > high)
        if not open_.any():
            return None
        i = np.flatnonzero(open_)[np.argmin(lo[open_])]
        left = (float(lo[i]), float(hi[i]), float(inf[i]), float(sup[i]))
        return open_

    evaluate(f, np.array([a, b]))
    if refine_cells(a, b, judge, MAX_DEPTH):
        return verdict
    raise IterationCapError(f"neither proven within [{low}, {high}] nor outside it with "
                            f"cells of depth {MAX_DEPTH} or {CELL_BUDGET} cells in all: on "
                            f"the leftmost open cell [{left[0]!r}, {left[1]!r}] the "
                            f"derivative is enclosed in [{left[2]!r}, {left[3]!r}]")


def _crossing(h: Callable, a: float, b: float, k: float, tol: float) -> Optional[float]:
    """Point c in (a, b) where h(c) = k, the one witness search.

    h is a function of floats and of arrays, such as a tree.  It is
    evaluated once, as an array, at the SCAN interior points of a
    uniform grid on [a, b].  Returns the midpoint where |h - k| <= tol at
    every grid point; else the first grid point where h = k exactly;
    else the first sign change of h - k, polished by bisect_root's ITP to
    max(1e-13, (b - a)*1e-13) from the scan's values at its two ends,
    if |h - k| <= tol there, so a jump of h across k (f' of abs at its
    kink) is no witness; else None, also where h is undefined at a point
    of the scan or of the polish.  The polish evaluates h last at the
    root it returns, unless that root is an end of its bracket.  Needs
    a < b.
    """
    if not a < b:
        raise PreconditionError("need a < b")
    xs = np.linspace(a, b, SCAN + 2)[1:-1]
    try:
        vals = h(xs)
        with np.errstate(invalid="ignore"):  # inf - inf: no crossing there
            resid = vals - k
        if np.all(np.abs(resid) <= tol):
            return a + (b - a) / 2
        hit = np.flatnonzero(resid == 0.0)
        if hit.size:
            return float(xs[hit[0]])
        signs = np.sign(resid)
        flips = np.flatnonzero(signs[:-1] * signs[1:] < 0)
        if not flips.size:
            return None
        i = int(flips[0])
        lo, hi = float(xs[i]), float(xs[i + 1])
        # the polish reads h at the bracket's ends from the scan, so it
        # evaluates neither again and sees the sign change the scan saw
        # (a scalar h may round differently from the array one there)
        ends = {lo: float(vals[i]), hi: float(vals[i + 1])}
        found = bisect_root(lambda t: ends[t] if t in ends else h(t), lo, hi, k,
                            tol=max(1e-13, (b - a) * 1e-13))
    except DomainError:
        return None
    return found.root if abs(found.residual) <= tol else None


def rolle_witness(f: Expr, a: float, b: float, tol: float = 1e-8) -> float:
    """Interior point where f' vanishes, given equal endpoint values.

    The _crossing of f' and 0: the midpoint where f' is within tol of 0
    on the whole scan.  Raises PreconditionError unless a < b and f(a) =
    f(b) within tol, and DivergenceError where f' does not meet 0 on the
    scan, as where it only jumps across 0 at a kink of abs.
    """
    require_tol(tol)
    require_finite(a, b)
    fa, fb = evaluate(f, a), evaluate(f, b)
    if abs(fa - fb) > tol * max(1.0, abs(fa)):
        raise PreconditionError(f"endpoint values differ: f({a})={fa}, f({b})={fb}")
    df = differentiate(f, 1)
    c = _crossing(df, a, b, 0.0, tol)
    if c is None:
        raise DivergenceError("no interior critical point located")
    return c


def mvt_witness(f: Expr, a: float, b: float, tol: float = 1e-8) -> float:
    """Point c in (a, b) where f' matches the secant slope.

    The _crossing of f' and the slope, so |f'(c) - slope| <= tol;
    DivergenceError where f' does not meet the slope on the scan.
    """
    require_tol(tol)
    require_finite(a, b)
    if not a < b:
        raise PreconditionError("need a < b")
    slope = (evaluate(f, b) - evaluate(f, a)) / (b - a)
    df = differentiate(f, 1)
    c = _crossing(df, a, b, slope, tol)
    if c is None:
        raise DivergenceError(f"f' does not meet the secant slope {slope!r} on the scan")
    return c


def emvt_witness(f: Expr, g: Expr, a: float, b: float, tol: float = 1e-8) -> float:
    """Cauchy mean-value witness: f'(c)/g'(c) equals the increment ratio.

    A _crossing of g' and 0 at tol is a PreconditionError that names the
    point.  The witness is the _crossing of (g(b) - g(a)) f' -
    (f(b) - f(a)) g' and 0, checked to leave the ratio's residual within
    tol; DivergenceError otherwise, and where there is no crossing on the
    scan.
    """
    require_tol(tol)
    require_finite(a, b)
    df, dg = differentiate(f, 1), differentiate(g, 1)
    c = _crossing(dg, a, b, 0.0, tol)
    if c is not None:
        raise PreconditionError(f"g' vanishes at x = {c!r} inside (a, b)")
    ga, gb = evaluate(g, a), evaluate(g, b)
    if gb == ga:
        raise PreconditionError("g(b) = g(a) contradicts a nonvanishing g'")
    fa, fb = evaluate(f, a), evaluate(f, b)
    c = _crossing(sub(mul(const(gb - ga), df), mul(const(fb - fa), dg)), a, b, 0.0, tol)
    if c is None:
        raise DivergenceError("no interior critical point located")
    resid = abs(evaluate(df, c) / evaluate(dg, c) - (fb - fa) / (gb - ga))
    if resid > tol:
        raise DivergenceError(f"residual {resid} exceeds {tol}")
    return c


def taylor(f: Expr, a: float, n: int, x: float, tol: float = 1e-9) -> TaylorReport:
    """Degree-n polynomial value at x plus the order-(n+1) remainder.

    The polynomial's coefficients are f's Taylor jet of order n at a.
    rho is fixed by the normalized truncation error; the witness c
    solves f^(n+1)(c) = rho and is the _crossing of f^(n+1) and rho on
    (a, x), the midpoint where f^(n+1) is within tol of rho on the whole
    scan, with f^(n+1)(t) read as (n+1)! times the last coefficient of
    f's jet of order n+1 at t (at the whole scan in one array run).  The
    remainder reads f^(n+1)(c) from the jet the polish last computed,
    where that was at c, so no jet is computed at c twice.  With no
    crossing the report carries rho but no witness, with the remainder
    taken from rho so the identity still closes.
    """
    require_tol(tol)
    if n < 0:
        raise PreconditionError("n must be nonnegative")
    require_finite(a, x)
    if not x > a:
        raise PreconditionError("need x > a")
    h = x - a
    try:  # Python's ** raises past the double range, and so does int / float
        weight = h ** (n + 1) / math.factorial(n + 1)
    except OverflowError:
        weight = math.inf
    if not 0.0 < weight < math.inf:
        raise PreconditionError(f"(x - a)^{n + 1}/{n + 1}! is outside the double range")
    value = 0.0
    for k, ck in enumerate(jet(f, a, n)):
        value += ck * h**k
    fx = evaluate(f, x)
    rho = math.factorial(n + 1) / h ** (n + 1) * (fx - value)
    last = [None, None]  # the last float top ran at, and f^(n+1)/(n+1)! there

    def top(t):  # f^(n+1)
        c = jet(f, t, n + 1)[n + 1]
        if isinstance(t, float):
            last[:] = t, c
        return math.factorial(n + 1) * c

    witness = _crossing(top, a, x, rho, tol)
    if witness is not None:
        c = last[1] if last[0] == witness else jet(f, witness, n + 1)[n + 1]
        remainder = c * h ** (n + 1)
    else:
        remainder = rho / math.factorial(n + 1) * h ** (n + 1)
    converged = abs(value + remainder - fx) <= tol * (1 + abs(fx))
    return TaylorReport(value, rho, witness, remainder, converged)


def polynomial_check(f: Expr, a: float, b: float, n: int, tol: float = 1e-9) -> bool:
    """Is f a polynomial of degree at most n on [a, b]?

    Yes once _holds proves f^(n+1) within [-tol, tol] on [a, b] (at once
    where it folds to the constant 0, as for every polynomial tree, and on
    one point), no once it finds a cell where it lies wholly outside.
    Raises DomainError where f is undefined at a cell midpoint, and
    IterationCapError where _holds leaves the question open.
    """
    require_tol(tol)
    if n < 0:
        raise PreconditionError("n must be nonnegative")
    require_interval(a, b)
    top = differentiate(f, n + 1) if a < b else const(0.0)
    return _holds(f, top, a, b, -tol, tol)[0]


_SHAPES = {"constant": (1, False), "increasing": (1, True), "convex": (2, True)}


def shape_checks(f: Expr, a: float, b: float, kind: str, tol: float = 1e-9):
    """Is f constant, increasing or convex on [a, b]?

    Decided by _holds on f' in [-tol, tol] (constant), f' >= -tol
    (increasing) or f'' >= -tol (convex).  Returns (ok, counterexample):
    None, or the cell that disproves the shape, (lo, hi) for constant and
    increasing, on which f(lo) differs from or exceeds f(hi), and (lo,
    mid, hi) for convex, where f(mid) lies above the chord.  On one point
    every shape holds, once f is defined there.  Raises IterationCapError
    where _holds leaves the question open, as near a kink of abs, where
    the enclosures of f' and f'' stay wide, unless a cell disproves the
    shape first.
    """
    require_tol(tol)
    if kind not in _SHAPES:
        raise PreconditionError(f"unknown kind {kind!r}")
    require_interval(a, b)
    order, one_sided = _SHAPES[kind]
    g = differentiate(f, order) if a < b else const(0.0)
    ok, cell = _holds(f, g, a, b, -tol, math.inf if one_sided else tol)
    if cell and kind == "convex":
        lo, hi = cell
        cell = (lo, lo + (hi - lo) / 2, hi)
    return ok, cell


def piecewise_linear(nodes, values) -> Callable[[float], float]:
    """Continuous interpolant through (a_k, c_k), constant c_1 to the
    left of the first node and zero beyond the last one."""
    nodes = [float(v) for v in nodes]
    values = [float(v) for v in values]
    if len(nodes) != len(values) or not nodes:
        raise PreconditionError("need equally many nodes and values, at least one")
    for u, v in zip(nodes, nodes[1:]):
        if not u < v:
            raise PreconditionError("nodes must be strictly increasing")

    def fn(x: float) -> float:
        if math.isnan(x):
            return math.nan  # in no cell
        if x <= nodes[0]:
            return values[0]
        if x > nodes[-1]:
            return 0.0
        i = _bisect.bisect_left(nodes, x)
        if nodes[i] == x:
            return values[i]
        lo, hi = nodes[i - 1], nodes[i]
        return values[i - 1] + (x - lo) / (hi - lo) * (values[i] - values[i - 1])

    return fn
