"""The four seeded workloads and their oracles.

A workload is a fixed list of tasks generated from the seed.  A task's
``run(tracer)`` is everything a caller does for one answer (parse the
text, call the public function); ``truth()`` computes the oracle with
mpmath, closed forms or numpy, never with fcalc, and is called before
any timing starts; ``check(answer, truth)`` returns ``None`` or the
reason the answer is wrong.

Task counts and sizes are chosen so that the work per task is set by
the task's structure (tree shape, refinement level, cover size), not
by the seed; the seed moves coefficients, intervals and argv values.
The number of tasks per pass (25, 65, 43, 21) is odd and puts the tail
percentile inside one task's samples, so neither percentile lands
between two tasks of different cost; in ``witnesses`` as many tasks are
faster as are slower than the block of ~1.5 ms derivative and limit
tasks, so the median falls inside that block.

Tasks carrying ``known_defect`` exercise defects the program has at the
time the benchmark was written.  They stay in the workloads: they count
as failed for as long as the defect lasts.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from families import CUBIC, DAMPED, LORENTZ, MONOTONE, POLY, ROOT, SMOOTH, WAVE, num

WORKLOADS = ("quadrature", "witnesses", "covers", "cli")


@dataclass
class Task:
    kind: str
    spec: dict
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], Optional[str]]
    truth: Callable[[], Any] = lambda: None
    known_defect: Optional[str] = None


def _mp():
    import mpmath
    mpmath.mp.dps = 30
    return mpmath


def _mp_fn(fam, p):
    mp = _mp()
    return lambda x: fam.fn(mp.mpf(x), p, mp)


def _rel(got, want, rtol, atol=0.0):
    """None if |got - want| <= atol + rtol * (1 + |want|), else a reason."""
    want = float(want)
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        return f"answer {got!r} is not a number"
    if not math.isfinite(got) or abs(got - want) > atol + rtol * (1 + abs(want)):
        return f"answer {got!r} vs oracle {want!r}"
    return None


def _raised(ans):
    if isinstance(ans, BaseException):
        return f"raised {type(ans).__name__}: {ans}"
    return None


def _parse(tr, text):
    return tr.call("expr.parse", text)


def _tv_tol(fam, p, a, b, level):
    """Tolerance at which the certified integral stops at 2^level cells.

    The sampled Darboux gap at n cells is close to TV(f) (b - a) / n, so
    1.5 times the gap at 2^level sits between the gaps of the last two
    levels; TV comes from numpy, not from fcalc.
    """
    xs = np.linspace(a, b, (1 << 16) + 1)
    tv = float(np.sum(np.abs(np.diff(fam.fn(xs, p, np)))))
    return float(f"{1.5 * tv * (b - a) / (1 << level):.4g}")


def _interval(rng, lo, hi, length_lo, length_hi):
    a = round(float(rng.uniform(lo, hi)), 4)
    return a, round(a + float(rng.uniform(length_lo, length_hi)), 4)


# ---------------------------------------------------------------------------
# quadrature

def _riemann_task(fam, p, a, b, tol):
    text = fam.text(p)

    def run(tr):
        f = _parse(tr, text)
        return tr.call("integrate.riemann_integral", f, a, b, tol)

    def check(ans, truth):
        if _raised(ans):
            return _raised(ans)
        if not ans.converged:
            return "not converged"
        return _rel(ans.value, truth, 0.0, tol)

    return Task("riemann_integral", {"f": text, "a": a, "b": b, "tol": tol}, run, check,
                lambda: float(_mp().quad(_mp_fn(fam, p), [a, b])))


def _spike_task():
    text, a, b, tol = "1000*exp(0-((x-0.3)*100000)^2)", 0.0, 1.0, 1e-3

    def run(tr):
        return tr.call("integrate.riemann_integral", _parse(tr, text), a, b, tol)

    def truth():
        mp = _mp()   # closed form: 1000 * sqrt(pi)/1e5 * (erf(0.7e5) + erf(0.3e5)) / 2
        return float(1000 * mp.sqrt(mp.pi) / 1e5 * (mp.erf(0.7e5) + mp.erf(0.3e5)) / 2)

    def check(ans, want):
        return _raised(ans) or _rel(ans.value, want, 0.0, tol)

    return Task("riemann_integral", {"f": text, "a": a, "b": b, "tol": tol}, run, check, truth,
                known_defect="spike integrand certified as 0.0; true value 0.0177")


def _darboux_task(fam, p, a, b, n):
    text = fam.text(p)

    def run(tr):
        f = _parse(tr, text)
        return tr.call("integrate.darboux_bounds", f, a, b, n, _attrs={"cells": n})

    def check(ans, truth):
        if _raised(ans):
            return _raised(ans)
        lower, upper = ans
        slack = 1e-12 * (1 + abs(truth))
        if not lower - slack <= truth <= upper + slack:
            return f"[{lower!r}, {upper!r}] misses oracle {truth!r}"
        return None

    return Task("darboux_bounds", {"f": text, "a": a, "b": b, "n": n}, run, check,
                lambda: float(_mp().quad(_mp_fn(fam, p), [a, b])))


def _imvt_task(fam, p, a, b, tol):
    text = fam.text(p)

    def run(tr):
        return tr.call("integrate.imvt_witness", _parse(tr, text), a, b, tol)

    def check(xi, mean):
        if _raised(xi):
            return _raised(xi)
        if not a <= xi <= b:
            return f"witness {xi!r} outside [{a}, {b}]"
        return _rel(float(_mp_fn(fam, p)(xi)), mean, 0.0, 2 * tol / (b - a))

    return Task("imvt_witness", {"f": text, "a": a, "b": b, "tol": tol}, run, check,
                lambda: float(_mp().quad(_mp_fn(fam, p), [a, b])) / (b - a))


def _antiderivative_task(fam, p, a, b, tol):
    text = fam.text(p)
    xs = (round(a + (b - a) / 2, 4), b)

    def run(tr):
        f = _parse(tr, text)
        phi = tr.call("integrate.antiderivative", f, a, tol)
        with tr.span("integrate.antiderivative_query"):
            return [phi(x) for x in xs]

    def truth():
        mp, f = _mp(), _mp_fn(fam, p)
        return [float(mp.quad(f, [a, x])) for x in xs]

    def check(ans, want):
        return _raised(ans) or next(
            (r for r in (_rel(g, w, 0.0, tol) for g, w in zip(ans, want)) if r), None)

    return Task("antiderivative", {"f": text, "a": a, "x": list(xs), "tol": tol}, run, check,
                truth)


def _straddle(rng, negative):
    """[a, b] of seeded length with a fixed share ``negative`` below zero.

    numpy's float power is many times slower on negative bases, so the
    share of negative points must not move with the seed.
    """
    length = float(rng.uniform(1.5, 2.5))
    a = round(-negative * length, 4) + 0.0
    return a, round(a + length, 4)


def quadrature(rng, tiny=False):
    """Certified integrals, Darboux bounds, IMVT and antiderivative queries.

    Each riemann task has a fixed target level (cells = 2^level); its
    tolerance is calibrated to the seeded integrand so that the level,
    and so the work, is the same for every seed.
    """
    shift = 8 if tiny else 0
    tasks = []
    for fam, levels in ((WAVE, (17, 15, 13)), (POLY, (16, 14, 12)), (DAMPED, (17, 15, 13)),
                        (ROOT, (16, 14, 12)), (LORENTZ, (16, 14, 12))):
        for level, negative in zip(levels, (0.5, 0.25, 0.0)):
            p = fam.draw(rng)
            a, b = _straddle(rng, negative)
            tasks.append(_riemann_task(fam, p, a, b, _tv_tol(fam, p, a, b, level - shift)))
        p = fam.draw(rng)
        a, b = _straddle(rng, 0.25)
        tasks.append(_darboux_task(fam, p, a, b, 1 << (15 - shift)))
    for fam in (WAVE, DAMPED):
        p = fam.draw(rng)
        a, b = _straddle(rng, 0.5)
        tasks.append(_imvt_task(fam, p, a, b, _tv_tol(fam, p, a, b, 14 - shift)))
    for fam in (WAVE, LORENTZ):
        p = fam.draw(rng)
        a, b = _straddle(rng, 0.0)
        tasks.append(_antiderivative_task(fam, p, a, b, _tv_tol(fam, p, a, b, 14 - shift)))
    tasks.append(_spike_task())
    return tasks


# ---------------------------------------------------------------------------
# witnesses

def _mp_diff(fam, p, x, n=1):
    mp = _mp()
    return float(mp.diff(lambda t: fam.fn(t, p, mp), mp.mpf(x), n))


def _ivt_task(fam, p, a, b, t, tol):
    text = fam.text(p)
    k = float(fam.fn(t, p, np))

    def run(tr):
        return tr.call("suprema.ivt_root", _parse(tr, text), a, b, k, tol)

    def truth():
        mp = _mp()
        return float(mp.findroot(lambda x: fam.fn(x, p, mp) - k, mp.mpf(t)))

    return Task("ivt_root", {"f": text, "a": a, "b": b, "k": k, "tol": tol}, run,
                lambda ans, want: _raised(ans) or _rel(ans, want, 0.0, tol), truth)


PREDICATES = (
    ("x*x", (0.5, 3.0), lambda p, mp: mp.sqrt(p), 2.0),
    ("x*x*x + x", (0.5, 3.0), None, 2.0),
    ("exp(x)", (1.5, 5.0), lambda p, mp: mp.log(p), 2.0),
    ("sin(x)", (0.2, 0.9), lambda p, mp: mp.asin(p), 1.5),
)


def _sup_task(lhs, c, closed, bound, tol):
    rhs = num(c)

    def run(tr):
        left, right = _parse(tr, lhs), _parse(tr, rhs)
        expr = tr.modules["expr"]
        member = lambda t: expr.evaluate(left, t) < expr.evaluate(right, t)
        pset = tr.modules["suprema"].PredicateSet(member, 0.0, bound)
        return tr.call("suprema.supremum", pset, tol)

    def truth():
        mp = _mp()
        if closed is not None:
            return float(closed(mp.mpf(c), mp))
        return float(mp.findroot(lambda x: x**3 + x - c, mp.mpf(1)))

    return Task("supremum", {"member": f"{lhs} < {rhs}", "seed": 0.0, "bound": bound,
                             "tol": tol}, run,
                lambda ans, want: _raised(ans) or _rel(ans, want, 0.0, tol), truth)


def _mvt_task(fam, p, a, b):
    text = fam.text(p)

    def run(tr):
        return tr.call("calculus.mvt_witness", _parse(tr, text), a, b)

    def truth():
        mp, f = _mp(), _mp_fn(fam, p)
        return float((f(b) - f(a)) / (mp.mpf(b) - a))

    def check(c, slope):
        if _raised(c):
            return _raised(c)
        if not a < c < b:
            return f"witness {c!r} outside ({a}, {b})"
        return _rel(_mp_diff(fam, p, c), slope, 1e-6)

    return Task("mvt_witness", {"f": text, "a": a, "b": b}, run, check, truth)


def _rolle_task(p, a, b):
    text = f"(x-{num(a)})*({num(b)}-x)*exp({num(p)}*x)"

    def run(tr):
        return tr.call("calculus.rolle_witness", _parse(tr, text), a, b)

    def check(c, scale):
        if _raised(c):
            return _raised(c)
        if not a < c < b:
            return f"witness {c!r} outside ({a}, {b})"
        mp = _mp()
        d = float(mp.diff(lambda t: (t - a) * (b - t) * mp.exp(p * t), mp.mpf(c)))
        return _rel(d, 0.0, 0.0, 1e-7 * scale)

    def truth():   # scale of f' on [a, b], for a relative zero test
        return max(1.0, float(np.max(np.abs(np.gradient(
            (lambda x: (x - a) * (b - x) * np.exp(p * x))(np.linspace(a, b, 1025)),
            (b - a) / 1024)))))

    return Task("rolle_witness", {"f": text, "a": a, "b": b}, run, check, truth)


def _emvt_task(fam, p, g_p, a, b):
    ftext, gtext = fam.text(p), CUBIC.text(g_p)

    def run(tr):
        return tr.call("calculus.emvt_witness", _parse(tr, ftext), _parse(tr, gtext), a, b)

    def truth():
        f, g = _mp_fn(fam, p), _mp_fn(CUBIC, g_p)
        return float((f(b) - f(a)) / (g(b) - g(a)))

    def check(c, ratio):
        if _raised(c):
            return _raised(c)
        if not a < c < b:
            return f"witness {c!r} outside ({a}, {b})"
        return _rel(_mp_diff(fam, p, c) / _mp_diff(CUBIC, g_p, c), ratio, 1e-6)

    return Task("emvt_witness", {"f": ftext, "g": gtext, "a": a, "b": b}, run, check, truth)


def _derivative_task(fam, p, c):
    text = fam.text(p)

    def run(tr):
        return tr.call("calculus.derivative", _parse(tr, text), c)

    return Task("derivative", {"f": text, "at": c}, run,
                lambda rep, want: _raised(rep) or _rel(rep.estimate, want, 1e-4),
                lambda: _mp_diff(fam, p, c))


LIMITS = (
    ("sin({0}*x)/x", lambda q: q),
    ("(exp({0}*x) - 1)/x", lambda q: q),
    ("(sqrt(1 + {0}*x) - 1)/x", lambda q: q / 2),
    ("(1 - cos({0}*x))/x^2", lambda q: q * q / 2),
)


def _limit_task(template, closed, q):
    text = template.format(num(q))

    def run(tr):
        return tr.call("calculus.limit", _parse(tr, text), 0.0)

    return Task("limit", {"f": text, "at": 0.0}, run,
                lambda rep, want: _raised(rep) or _rel(rep.estimate, want, 1e-4),
                lambda: closed(q))


def _taylor_task(fam, p, a, n, x):
    text = fam.text(p)

    def run(tr):
        return tr.call("calculus.taylor", _parse(tr, text), a, n, x)

    def truth():
        mp = _mp()
        f = lambda t: fam.fn(t, p, mp)
        coeffs = mp.taylor(f, mp.mpf(a), n)
        h = mp.mpf(x) - a
        value = sum(c * h**k for k, c in enumerate(coeffs))
        rho = mp.factorial(n + 1) / h ** (n + 1) * (f(mp.mpf(x)) - value)
        return float(value), float(rho)

    def check(rep, want):
        if _raised(rep):
            return _raised(rep)
        value, rho = want
        bad = _rel(rep.value, value, 1e-9) or _rel(rep.rho, rho, 1e-6)
        if bad:
            return bad
        if rep.witness is None:   # documented: no bracket found, remainder taken from rho
            return None if rep.converged else "no witness and the identity does not close"
        if not a < rep.witness < x:
            return f"witness {rep.witness!r} outside ({a}, {x})"
        return _rel(_mp_diff(fam, p, rep.witness, n + 1), rho, 1e-6)

    return Task("taylor", {"f": text, "at": a, "n": n, "x": x}, run, check, truth)


def witnesses(rng, tiny=False):
    """Scalar bisection, mean-value witnesses, limits and Taylor expansions."""
    tasks = []
    for fam in MONOTONE * (1 if tiny else 4):
        p = fam.draw(rng)
        a, b = round(float(rng.uniform(-1.5, -0.5)), 4), round(float(rng.uniform(0.5, 1.5)), 4)
        t = round(a + (b - a) * float(rng.uniform(0.2, 0.8)), 6)
        tasks.append(_ivt_task(fam, p, a, b, t, 1e-10))
    for lhs, (lo, hi), closed, bound in PREDICATES * (1 if tiny else 2):
        tasks.append(_sup_task(lhs, round(float(rng.uniform(lo, hi)), 4), closed, bound, 1e-10))
    for fam in SMOOTH:
        a, b = _interval(rng, -1.0, 0.0, 1.0, 2.0)
        tasks.append(_mvt_task(fam, fam.draw(rng), a, b))
    for fam in SMOOTH + (WAVE, DAMPED, ROOT):
        tasks.append(_derivative_task(fam, fam.draw(rng), round(float(rng.uniform(-0.5, 0.5)), 4)))
    for fam in (WAVE, LORENTZ):
        a, b = _interval(rng, 0.1, 0.5, 1.0, 2.0)
        tasks.append(_emvt_task(fam, fam.draw(rng), CUBIC.draw(rng), a, b))
    for _ in range(2):
        a, b = _interval(rng, 0.1, 0.5, 1.0, 2.0)
        tasks.append(_rolle_task(round(float(rng.uniform(0.3, 0.9)), 4), a, b))
    for template, closed in LIMITS:
        tasks.append(_limit_task(template, closed, round(float(rng.uniform(1.2, 2.5)), 4)))
    orders = ((WAVE, 6), (DAMPED, 5), (LORENTZ, 5), (ROOT, 4))
    for fam, top in orders:
        for n in range(1, (min(top, 3) if tiny else top) + 1):
            a = round(float(rng.uniform(0.0, 0.5)), 4)
            x = round(a + float(rng.uniform(0.5, 1.0)), 4)
            tasks.append(_taylor_task(fam, fam.draw(rng), a, n, x))
    return tasks


# ---------------------------------------------------------------------------
# covers

def chain_cover(rng, pieces, links, overlap, gap=False):
    """A shuffled cover of [0, 1] whose exact answers are known.

    ``links`` chain pieces overlap only their neighbours, by widths in
    [overlap, 1.1 overlap] with one exactly ``overlap``; the other pieces
    nest strictly inside chain pieces.  So the exact Lebesgue number is
    the smallest overlap, the greedy subcover is the chain, and with
    ``gap`` the middle link is broken by a gap of width ``overlap``.
    Returns (cover json, delta*, uncovered gap or None).
    """
    cuts = (np.arange(1, links) + rng.uniform(-0.25, 0.25, links - 1)) / links
    widths = rng.uniform(overlap, 1.1 * overlap, links - 1)
    widths[int(rng.integers(links - 1))] = overlap
    broken = (links - 1) // 2 if gap else -1
    edges = np.concatenate([[-0.05], cuts, [1.05]])
    chain = []
    for i in range(links):
        lo = edges[i] - (widths[i - 1] / 2 if i > 0 else 0.0)
        hi = edges[i + 1] + (widths[i] / 2 if i < links - 1 else 0.0)
        if i == broken:
            hi = edges[i + 1] - overlap / 2
        if i - 1 == broken:
            lo = edges[i] + overlap / 2
        chain.append((float(lo), float(hi)))
    nested = []
    for _ in range(pieces - links):
        lo, hi = chain[int(rng.integers(links))]
        u, v = np.sort(rng.uniform(0.05, 0.95, 2))
        nested.append((float(lo + u * (hi - lo)), float(lo + v * (hi - lo))))
    all_pieces = chain + nested
    shuffled = [list(all_pieces[i]) for i in rng.permutation(len(all_pieces))]
    delta = min(chain[i][1] - chain[i + 1][0] for i in range(links - 1))
    hole = (chain[broken][1], chain[broken + 1][0]) if gap else None
    return {"target": [0.0, 1.0], "pieces": shuffled}, delta, hole


def _cover_task(kind, data, links, delta, hole):
    attrs = {"pieces": len(data["pieces"])}

    def run(tr):
        c = tr.modules["cover"].OpenCover.from_json(data)
        verdict = tr.call("cover.verify_cover", c, _attrs=attrs)
        if kind == "verify_cover":
            return verdict
        if kind == "finite_subcover":
            return tr.call("cover.finite_subcover", c, _attrs=attrs)
        if kind == "lebesgue_exact":
            return tr.call("cover.lebesgue_number", c, "exact", _span="cover.lebesgue_exact",
                           _attrs=attrs)
        if kind == "lebesgue_paper":
            return tr.call("cover.lebesgue_number", c, "paper", _span="cover.lebesgue_paper",
                           _attrs=attrs)
        if kind == "binding_none":
            return tr.call("cover.binding_pair", c, delta, _attrs=attrs)
        return tr.call("cover.binding_pair", c, 1.5 * delta, _attrs=attrs)

    def check(ans, _):
        if _raised(ans):
            return _raised(ans)
        if kind == "verify_cover":
            ok, witness = ans
            if hole is None:
                return None if ok else f"valid cover rejected at {witness!r}"
            if ok or not hole[0] <= witness <= hole[1]:
                return f"gap {hole} missed: {ans!r}"
            return None
        if kind == "finite_subcover":
            return _check_subcover(data, ans, links)
        if kind == "lebesgue_exact":
            return None if abs(ans - delta) <= 1e-12 else f"{ans!r} vs oracle {delta!r}"
        if kind == "lebesgue_paper":
            return None if 0 < ans <= delta else f"{ans!r} not in (0, {delta!r}]"
        if kind == "binding_none":
            return None if ans is None else f"pair {ans!r} reported at the exact delta"
        return _check_binding(data, ans, 1.5 * delta)

    spec = {"kind": kind, "cover": data}
    return Task(kind, spec, run, check)


def _check_subcover(data, idx, minimum):
    pieces = sorted(data["pieces"][i] for i in idx)
    reach = 0.0
    for lo, hi in pieces:
        if lo >= reach:
            return f"subcover leaves {reach!r} uncovered"
        reach = max(reach, hi)
    if reach <= 1.0:
        return f"subcover stops at {reach!r}"
    return None if len(idx) == minimum else f"{len(idx)} pieces, minimum is {minimum}"


def _check_binding(data, pair, delta):
    if pair is None:
        return f"no pair reported for delta {delta!r} above the Lebesgue number"
    x, y = pair
    pieces = np.asarray(data["pieces"])
    share = np.any((pieces[:, 0] < x) & (x < pieces[:, 1])
                   & (pieces[:, 0] < y) & (y < pieces[:, 1]))
    if abs(x - y) >= delta or share or not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        return f"pair {pair!r} is not a binding pair for {delta!r}"
    return None


def _sin_sup_diff(a, b, s):
    """sup |sin x - sin y| over x, y in [a, b] with |x - y| <= s.

    sin x - sin y = 2 sin((x - y)/2) cos((x + y)/2), and |cos| peaks only
    at multiples of pi, so the sup over midpoints m in [a + s/2, b - s/2]
    is 1 or the larger endpoint value.
    """
    lo, hi = a + s / 2, b - s / 2
    if math.floor(hi / math.pi) >= math.ceil(lo / math.pi):
        peak = 1.0
    else:
        peak = max(abs(math.cos(lo)), abs(math.cos(hi)))
    return 2 * math.sin(s / 2) * peak


def _modulus_task(a, b, eps, grid, known=None):
    text = "sin(x)"

    def run(tr):
        f = _parse(tr, text)
        return tr.call("cover.uniform_modulus", f, a, b, eps, grid)

    def check(delta, _):
        if _raised(delta):
            return _raised(delta)
        if not 0 < delta <= b - a or _sin_sup_diff(a, b, delta) >= eps:
            return f"delta {delta!r} is not a modulus for eps {eps}"
        return None

    return Task("uniform_modulus", {"f": text, "a": a, "b": b, "eps": eps, "grid": grid},
                run, check, known_defect=known)


def _stepapprox_task(a, b, eps, grid):
    text = "sin(x)"

    def run(tr):
        f = _parse(tr, text)
        return tr.call("cover.step_approximation", f, a, b, eps, grid=grid)

    def check(phi, _):
        return _raised(phi) or _check_sin_steps(phi.partition.nodes, phi.cell_values, a, b, eps)

    return Task("step_approximation", {"f": text, "a": a, "b": b, "eps": eps, "grid": grid},
                run, check)


def covers(rng, tiny=False):
    """O(P^2) cover sweeps on shuffled covers, plus the modulus calls."""
    tasks = []
    overlap = 0.00274   # paper mode then stops at 1024 samples for every seed
    sizes = ((40, 20), (80, 20)) if tiny else ((60, 20), (125, 64), (250, 64), (500, 64),
                                               (1000, 64), (2000, 64))
    for P, links in sizes:
        data, delta, _ = chain_cover(rng, P, links, overlap)
        kinds = ["verify_cover", "finite_subcover", "lebesgue_exact", "lebesgue_paper"]
        if P <= 1000:
            kinds += ["binding_none", "binding_pair"]
        for kind in kinds:
            tasks.append(_cover_task(kind, data, links, delta, None))
        holed, delta, hole = chain_cover(rng, P, links, overlap, gap=True)
        tasks.append(_cover_task("verify_cover", holed, links, delta, hole))
    shift = round(float(rng.uniform(0.0, 1.0)), 4)
    tasks.append(_modulus_task(shift, round(shift + 2.0, 4), 0.05, 256))
    if not tiny:
        tasks.append(_stepapprox_task(shift, round(shift + 3.0, 4), 0.02, 512))
    tasks.append(_modulus_task(0.0, 3.0, 0.01, 256,
                               known="default-grid modulus of sin on [0, 3] misses a window"))
    return tasks


# ---------------------------------------------------------------------------
# cli

TRACEBACK = "Traceback (most recent call last)"


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def strict_json(text):
    return json.loads(text, parse_constant=_reject_constant)


@dataclass
class CliResult:
    code: int
    out: str
    err: str


def _cli_task(argv, value_check, codes=(0,), known=None, truth=lambda: None):
    def check(res, want):
        if _raised(res):
            return _raised(res)
        if TRACEBACK in res.err:
            return "traceback on stderr: " + res.err.strip().splitlines()[-1]
        if res.code not in codes:
            return f"exit code {res.code}, expected {codes}: {res.err.strip()[-200:]}"
        if "json" in argv:
            try:
                payload = strict_json(res.out)
            except ValueError as e:
                return f"stdout is not strict JSON: {e}"
            return value_check(payload, want)
        return value_check(res.out, want)

    return Task("cli:" + argv[0], {"argv": argv}, None, check, truth, known_defect=known)


def _first_float(out, want, rtol=0.0, atol=0.0):
    try:
        got = float(out.split()[0])
    except (IndexError, ValueError):
        return f"no number in output {out[:80]!r}"
    return _rel(got, want, rtol, atol)


def cli(rng, tiny=False, graph_data=None):
    """``python -m fcalc.cli`` commands from the README and ROADMAP."""
    mp_f = lambda fn: (lambda: float(fn(_mp())))
    tasks = []
    c = round(float(rng.uniform(0.5, 3.0)), 4)
    tasks.append(_cli_task(["sup", "--member", f"x*x < {num(c)}", "--seed-point", "0",
                            "--bound", "2"], lambda out, w: _first_float(out, w, 0, 2e-9),
                           truth=mp_f(lambda mp: mp.sqrt(c))))
    k = round(float(rng.uniform(0.5, 5.0)), 4)
    tasks.append(_cli_task(["root", "--f", f"x^3 - x - {num(k)}", "--a", "1", "--b", "2",
                            "--tol", "1e-10"], lambda out, w: _first_float(out, w, 0, 1e-10),
                           truth=mp_f(lambda mp: mp.findroot(lambda x: x**3 - x - k, 1.5))))
    q = round(float(rng.uniform(0.5, 2.0)), 4)
    level = 12 if tiny else 18
    tol = float(f"{1.5 * q / (1 << level):.4g}")   # TV(q x^2 on [0, 1]) = q
    tasks.append(_cli_task(["integrate", "--f", f"{num(q)}*x^2", "--a", "0", "--b", "1",
                            "--tol", repr(tol), "--certificate", "--output", "json"],
                           lambda js, w: (None if js["diagnostics"]["converged"] else
                                          "not converged") or _rel(js["result"], w, 0, tol),
                           truth=lambda: q / 3))
    r = round(float(rng.uniform(0.5, 1.5)), 4)
    tasks.append(_cli_task(["taylor", "--f", f"exp({num(r)}*x)", "--n", "2", "--at", "0",
                            "--x", "1"],
                           lambda out, w: _first_float(out.replace("value", ""), w, 1e-9),
                           truth=lambda: 1 + r + r * r / 2))
    o = round(float(rng.uniform(0.1, 0.3)), 4)
    small = {"target": [0.0, 1.0], "pieces": [[-0.1, 0.5 + o / 2], [0.5 - o / 2, 1.1]]}
    delta = small["pieces"][0][1] - small["pieces"][1][0]
    tasks.append(_cli_task(["lebesgue", "--cover", json.dumps(small)],
                           lambda out, w: _first_float(out, w, 0, 1e-12), truth=lambda: delta))
    a = round(float(rng.uniform(0.0, 1.0)), 4)
    tasks.append(_cli_task(["stepapprox", "--f", "sin(x)", "--a", num(a), "--b", num(a + 3),
                            "--eps", "0.01", "--grid", "1024", "--output", "json"],
                           lambda js, w: _check_sin_steps(js["result"]["partition"],
                                                          js["result"]["values"], a, a + 3,
                                                          0.01)))
    src, dst = _graph_pair(rng, graph_data)
    tasks.append(_cli_task(["graph", "path", src, dst],
                           lambda out, w: _check_path(out, src, dst, graph_data)))
    tasks.append(_cli_task(["graph", "dot"],
                           lambda out, w: _check_dot(out, graph_data)))
    s = round(float(rng.uniform(1.0, 3.0)), 4)
    tasks.append(_cli_task(["seq", "--op", "limit", "--s", f"{num(s)} - 1/n", "--upper",
                            num(s), "--tol", "1e-6"],
                           lambda out, w: _first_float(out, w, 0, 1e-6), truth=lambda: s))
    fp, xv = WAVE.draw(rng), round(float(rng.uniform(-1.0, 1.0)), 4)
    tasks.append(_cli_task(["eval", "--f", WAVE.text(fp), "--x", repr(xv)],
                           lambda out, w: _first_float(out, w, 1e-13),
                           truth=lambda: float(_mp_fn(WAVE, fp)(xv))))
    dp, at = DAMPED.draw(rng), round(float(rng.uniform(-0.5, 0.5)), 4)
    tasks.append(_cli_task(["deriv", "--f", DAMPED.text(dp), "--at", repr(at), "--tol", "1e-6"],
                           lambda out, w: _first_float(out, w, 1e-4),
                           truth=lambda: _mp_diff(DAMPED, dp, at)))
    lq = round(float(rng.uniform(1.2, 2.5)), 4)
    tasks.append(_cli_task(["limit", "--f", f"sin({num(lq)}*x)/x", "--at", "0"],
                           lambda out, w: _first_float(out, w, 1e-4), truth=lambda: lq))
    cc = round(float(rng.uniform(0.5, 3.0)), 4)
    tasks.append(_cli_task(["cut", "--below", f"x*x < {num(cc)}", "--in-point", "0",
                            "--out-point", "2"], lambda out, w: _first_float(out, w, 0, 2e-9),
                           truth=mp_f(lambda mp: mp.sqrt(cc))))
    mp_p, (ma, mb) = LORENTZ.draw(rng), _interval(rng, -1.0, 0.0, 1.0, 2.0)
    tasks.append(_cli_task(["mvt", "--f", LORENTZ.text(mp_p), "--a", repr(ma), "--b", repr(mb),
                            "--output", "json"],
                           lambda js, w: _check_cli_mvt(js["result"], LORENTZ, mp_p, ma, mb, w),
                           truth=lambda: float((_mp_fn(LORENTZ, mp_p)(mb)
                                                - _mp_fn(LORENTZ, mp_p)(ma)) / (mb - ma))))
    tasks.append(_cli_task(["graph", "scc"],
                           lambda out, w: None if out.strip() == "strongly connected: true"
                           else f"unexpected output {out[:80]!r}"))
    v1, v2 = (round(float(v), 4) for v in rng.uniform(-2.0, 2.0, 2))
    tasks.append(_cli_task(["stepint", "--partition", "[0, 0.5, 1]", "--values",
                            json.dumps([v1, v2]), "--output", "json"],
                           lambda js, w: _rel(js["result"], w, 0, 1e-15),
                           truth=lambda: v1 / 2 + v2 / 2))
    cp, (ca, cb) = POLY.draw(rng), _interval(rng, -1.0, 0.0, 1.0, 2.0)
    tasks.append(_cli_task(["polycheck", "--f", POLY.text(cp), "--a", repr(ca), "--b", repr(cb),
                            "--n", "3"],
                           lambda out, w: None if out.strip().endswith("true")
                           else f"cubic rejected: {out[:80]!r}"))
    pp = POLY.draw(rng)
    tasks.append(_cli_task(["parse", "--text", POLY.text(pp)],
                           lambda out, w: _check_parse(out.strip(), pp)))
    tasks.append(_cli_task(["modulus", "--f", "sin(x)", "--a", "0", "--b", "3", "--eps", "0.01"],
                           lambda out, w: _check_cli_modulus(out, 0.0, 3.0, 0.01),
                           known="default-grid modulus reports 'window cover misses'"))
    tasks.append(_cli_task(["eval", "--f", "exp(1000)", "--x", "0", "--output", "json"],
                           lambda js, w: None, codes=(0, 1),
                           known="JSON output carries Infinity"))
    tasks.append(_cli_task(["deriv", "--f", "x^2", "--order", "-1"],
                           lambda out, w: None, codes=(1, 2),
                           known="negative derivative order escapes as a traceback"))
    return tasks


def _check_sin_steps(nodes, values, a, b, eps):
    """A step function within eps of sin on every open cell (32 probes a cell)."""
    nodes, values = np.asarray(nodes, dtype=float), np.asarray(values, dtype=float)
    if nodes.ndim != 1 or nodes.size != values.size + 1 or nodes[0] != a or nodes[-1] != b:
        return "step function has the wrong support"
    t = np.linspace(0.0, 1.0, 34)[1:-1]
    xs = nodes[:-1, None] + t[None, :] * np.diff(nodes)[:, None]
    err = float(np.max(np.abs(np.sin(xs) - values[:, None])))
    return None if err < eps else f"sup error {err!r} >= eps {eps}"


def _check_cli_mvt(c, fam, p, a, b, slope):
    if not isinstance(c, float) or not a < c < b:
        return f"witness {c!r} outside ({a}, {b})"
    return _rel(_mp_diff(fam, p, c), slope, 1e-6)


def _check_cli_modulus(out, a, b, eps):
    try:
        delta = float(out.split()[0])
    except (IndexError, ValueError):
        return f"no number in output {out[:80]!r}"
    if not 0 < delta <= b - a or _sin_sup_diff(a, b, delta) >= eps:
        return f"delta {delta!r} is not a modulus for eps {eps}"
    return None


def _check_parse(text, p):
    """The printed text must denote the same polynomial (checked with numpy)."""
    safe = text.replace("^", "**")
    if any(ch not in "0123456789.e+-*/() x" for ch in safe):
        return f"unexpected printed text {text!r}"
    xs = np.linspace(-2, 2, 9)
    try:
        got = eval(safe, {"__builtins__": {}}, {"x": xs})   # noqa: S307 - numbers, x, + - * / only
    except (SyntaxError, NameError, TypeError) as e:
        return f"printed text {text!r} does not evaluate: {e}"
    want = POLY.fn(xs, p, np)
    return None if np.allclose(got, want, rtol=1e-12, atol=1e-12) else f"{text!r} differs"


def load_graph_data(root):
    with open(os.path.join(root, "src", "fcalc", "data", "principles.json")) as fh:
        return json.load(fh)


def _bfs(graph_data, src, dst):
    adj = {}
    for e in graph_data["edges"]:
        adj.setdefault(e["from"], []).append(e["to"])
    dist, frontier = {src: 0}, [src]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj.get(u, []):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist.get(dst)


def _graph_pair(rng, graph_data):
    ids = sorted(n["id"] for n in graph_data["nodes"])
    while True:
        src, dst = (ids[int(i)] for i in rng.choice(len(ids), 2, replace=False))
        if _bfs(graph_data, src, dst):
            return src, dst


def _check_path(out, src, dst, graph_data):
    lines = out.strip().splitlines()
    edges = {(e["from"], e["to"]) for e in graph_data["edges"]}
    hops = [tuple(h.split(" -> ")) for h in lines[1:]]
    if lines[0] != f"length {len(hops)}" or len(hops) != _bfs(graph_data, src, dst):
        return f"path of {len(hops)} hops, shortest is {_bfs(graph_data, src, dst)}"
    if hops[0][0] != src or hops[-1][1] != dst or any(h not in edges for h in hops) or any(
            u[1] != v[0] for u, v in zip(hops, hops[1:])):
        return "path is not a chain of implications from src to dst"
    return None


def _check_dot(out, graph_data):
    arrows = sum(" -> " in line for line in out.splitlines())
    if not out.startswith("digraph") or arrows != len(graph_data["edges"]):
        return f"DOT output has {arrows} edges, data has {len(graph_data['edges'])}"
    return None


def run_cli(root, argv, importtime=False):
    """One ``python -m fcalc.cli`` process; returns (CliResult, import_ms or None)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    env.pop("FC_SEED", None)
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-m", "fcalc.cli"]
    proc = subprocess.run(cmd + argv, capture_output=True, text=True, cwd=root, env=env,
                          timeout=120)
    err, import_ms = proc.stderr, None
    if importtime:
        err, import_ms = _split_importtime(err)
    return CliResult(proc.returncode, proc.stdout, err), import_ms


def _split_importtime(err):
    """Strip ``-X importtime`` lines; return the rest and the time, in ms,
    of the top-level imports from ``fcalc`` onwards."""
    rest, total, seen = [], 0, False
    for line in err.splitlines(keepends=True):
        if not line.startswith("import time:"):
            rest.append(line)
            continue
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip("\n")
        top = not name.startswith("  ")
        seen = seen or (top and name.strip() == "fcalc")
        if seen and top:
            total += int(parts[1])
    return "".join(rest), total / 1e3


def generate(name, rng, tiny, root):
    if name == "cli":
        return cli(rng, tiny, load_graph_data(root))
    return {"quadrature": quadrature, "witnesses": witnesses, "covers": covers}[name](rng, tiny)
