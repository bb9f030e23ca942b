"""Shared generators for the numerical property tests."""

import itertools
import math
import operator
import re

import numpy as np
from hypothesis import strategies as st

from fcalc import expr as E
from fcalc.errors import ParseError


def random_polynomial(rng, max_degree=5, scale=1.0, decay=1.0):
    """Random polynomial tree with coefficients scale * decay^k * U(-1, 1)."""
    degree = int(rng.integers(1, max_degree + 1))
    coeffs = [scale * decay**k * rng.uniform(-1.0, 1.0) for k in range(degree + 1)]
    tree = E.const(coeffs[0])
    for k in range(1, degree + 1):
        tree = E.add(tree, E.mul(E.const(coeffs[k]), E.pow_(E.Var(), k)))
    return tree


def random_smooth_expr(rng, trig=True):
    """Polynomial plus optional trig/exp parts; smooth on all of R."""
    tree = random_polynomial(rng, max_degree=3)
    if trig and rng.uniform() < 0.6:
        name = ("sin", "cos", "exp")[int(rng.integers(0, 3))]
        inner = E.add(E.mul(E.const(rng.uniform(-1.5, 1.5)), E.Var()),
                      E.const(rng.uniform(-1.0, 1.0)))
        tree = E.add(tree, E.mul(E.const(rng.uniform(-1.0, 1.0)), E.func(name, inner)))
    return tree


def random_partition(rng, a=0.0, b=1.0, max_interior=8):
    """Random strictly increasing node tuple from a to b."""
    k = int(rng.integers(0, max_interior + 1))
    interior = np.sort(rng.uniform(a, b, k))
    nodes = [a]
    for v in interior:
        if v > nodes[-1] + 1e-9 and v < b - 1e-9:
            nodes.append(float(v))
    nodes.append(b)
    return tuple(nodes)


def expr_trees(consts, max_leaves, var=True, functions=E.FUNCTIONS):
    """Hypothesis strategy for arbitrary trees over x (unless var is false),
    the given constants and the given functions."""
    def node(children):
        return st.one_of(
            st.builds(E.Neg, children),
            *[st.builds(n, children, children) for n in (E.Add, E.Sub, E.Mul, E.Div)],
            st.builds(E.Pow, children, st.integers(-3, 5)),
            st.builds(E.Func, st.sampled_from(functions), children),
        )

    leaves = st.sampled_from(consts).map(E.Const)
    if var:
        leaves = st.one_of(st.just(E.Var()), leaves)
    return st.recursive(leaves, node, max_leaves=max_leaves)


# The parser as it was before tokens became bare texts: a named group per
# token kind, the kind, text and offset of every token, and any character
# that starts no token refused before parsing starts.  The reference for
# E.parse's trees, messages and offsets.
_TOKEN_RE = re.compile(
    r"""
    \s*(?:
      (?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
    | (?P<ident>[A-Za-z_]+)
    | (?P<op>[-+*/^()])
    | (?P<bad>\S))
    """,
    re.VERBOSE,
)
_PREC = {E.Add: 1, E.Sub: 1, E.Mul: 2, E.Div: 2}
_BINARY = {"+": E.Add, "-": E.Sub, "*": E.Mul, "/": E.Div}


def oracle_tokens(text):
    """(kind, text, offset) for each token, then ("eof", "", len(text))."""
    tokens = [(kind := m.lastgroup, m[kind], m.start(kind)) for m in _TOKEN_RE.finditer(text)]
    for kind, value, offset in tokens:
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", offset)
    return tokens + [("eof", "", len(text))]


def oracle_parse(text, var_name="x"):
    """E.parse over oracle_tokens: one precedence-climbing loop."""
    tokens, i, operands, pending, depth = oracle_tokens(text), 0, [], [], 0

    def reduce(prec):
        while pending and pending[-1] in _PREC and _PREC[pending[-1]] >= prec:
            right = operands.pop()
            operands[-1] = pending.pop()(operands[-1], right)

    while True:
        kind, value, offset = tokens[i]
        i += 1
        if value in ("-", "("):
            pending.append(E.Neg if value == "-" else "(")
            depth += value == "("
            continue
        if kind == "ident" and value != var_name and value in E.FUNCTIONS:
            if tokens[i][1] != "(":
                raise ParseError("expected '('", tokens[i][2])
            i += 1
            pending.append(value)
            depth += 1
            continue
        if kind == "num":
            operands.append(E.Const(float(value)))
        elif kind == "ident" and value == var_name:
            operands.append(E.X)
        elif kind == "ident":
            raise ParseError(f"unknown identifier {value!r}", offset)
        else:
            raise ParseError(f"unexpected token {value!r}" if value else "unexpected end of input",
                             offset)
        while True:
            if tokens[i][1] == "^":
                minus = tokens[i + 1][1] == "-"
                kind, value, offset = tokens[i + 1 + minus]
                if kind != "num" or not value.isdigit():
                    raise ParseError("expected integer exponent", offset)
                i += 2 + minus
                operands[-1] = E.Pow(operands[-1], -int(value) if minus else int(value))
            while pending and pending[-1] is E.Neg:
                operands[-1] = pending.pop()(operands[-1])
            kind, value, offset = tokens[i]
            i += 1
            if value in _BINARY:
                reduce(_PREC[_BINARY[value]])
                pending.append(_BINARY[value])
                break
            if depth and value == ")":
                reduce(0)
                opener = pending.pop()
                if opener != "(":
                    operands[-1] = E.Func(opener, operands[-1])
                depth -= 1
                continue
            if depth:
                raise ParseError("expected ')'", offset)
            if kind != "eof":
                raise ParseError(f"trailing input {value!r}", offset)
            reduce(0)
            return operands[0]


# The jet op table as it was before its recurrences lost the per-term dot
# call and the reversed copies: the reference for E._jet_ops's coefficients.
def oracle_jet_ops(p):
    """E._jet_ops with a dot product per coefficient: the reference whose
    coefficients the jet tables must equal bit for bit."""
    div = p["div"]

    def dot(u, v):
        return sum(map(operator.mul, u, v))

    def mul(u, v):
        w = [p["mul"](u[0], v[0])]
        if len(u) == 1 or len(v) == 1:  # a constant factor
            c, other = (u[0], v) if len(u) == 1 else (v[0], u)
            return w + [c * a for a in other[1:]]
        return w + [dot(u[:k + 1], v[k::-1]) for k in range(1, len(u))]

    def quotient(w0, u, v):  # u/v, whose coefficient 0 is w0
        w = [w0]
        for k in range(1, max(len(u), len(v))):
            w.append(((u[k] if k < len(u) else 0.0) - dot(v[1:k + 1], w[::-1])) / v[0])
        return w

    def sqrt(u):
        w = [p["sqrt"](u[0])]
        for k in range(1, len(u)):
            w.append(div(u[k] - dot(w[1:k], w[k - 1:0:-1]), 2.0 * w[0]))
        return w

    def exp(u):
        du, w = [k * a for k, a in enumerate(u)], [p["exp"](u[0])]
        for k in range(1, len(u)):
            w.append(dot(du[1:k + 1], w[::-1]) / k)
        return w

    def ln(u):
        dw = [p["ln"](u[0])]  # then k*w_k
        for k in range(1, len(u)):
            dw.append((k * u[k] - dot(dw[1:], u[k - 1:0:-1])) / u[0])
        return [dw[0], *[d / k for k, d in enumerate(dw[1:], 1)]]

    def sincos(u):
        du, s, c = [k * a for k, a in enumerate(u)], [p["sin"](u[0])], [p["cos"](u[0])]
        for k in range(1, len(u)):
            s, c = s + [dot(du[1:k + 1], c[::-1]) / k], c + [-dot(du[1:k + 1], s[::-1]) / k]
        return s, c

    def abs_(u):
        w = [p["abs"](u[0])]
        if len(u) > 1:
            sign = div(u[0], w[0])
            w += [sign * a for a in u[1:]]
        return w

    def linear(op):  # add or sub, coefficient by coefficient
        return lambda u, v: [op(a, b) for a, b in itertools.zip_longest(u, v, fillvalue=0.0)]

    return {"neg": lambda u: [p["neg"](a) for a in u], "add": linear(p["add"]),
            "sub": linear(p["sub"]), "mul": mul,
            "div": lambda u, v: quotient(div(u[0], v[0]), u, v),
            "recip": lambda v: quotient(p["recip"](v[0]), [1.0], v),
            "one": lambda u: [p["one"](u[0])], "sqrt": sqrt, "exp": exp, "ln": ln,
            "sin": lambda u: sincos(u)[0], "cos": lambda u: sincos(u)[1], "abs": abs_}


def mp_eval(e, x, mp):
    """Direct evaluation of a tree in mpmath: the oracle never runs fcalc."""
    t = type(e)
    if t is E.Const:
        return mp.mpf(e.value)
    if t is E.Var:
        return x
    if t is E.Neg:
        return -mp_eval(e.arg, x, mp)
    if t is E.Pow:
        return mp_eval(e.base, x, mp) ** e.exponent
    if t is E.Func:
        fn = {"sin": mp.sin, "cos": mp.cos, "exp": mp.exp, "ln": mp.log, "sqrt": mp.sqrt,
              "abs": abs}[e.name]
        return fn(mp_eval(e.arg, x, mp))
    u, v = mp_eval(e.left, x, mp), mp_eval(e.right, x, mp)
    return {E.Add: mp.fadd, E.Sub: mp.fsub, E.Mul: mp.fmul, E.Div: mp.fdiv}[t](u, v)


def mp_diff(e, c, n):
    """n-th derivative of a tree at c: mpmath's diff of mp_eval, at 40 digits."""
    import mpmath as mp

    with mp.workdps(40):
        return mp.diff(lambda t: mp_eval(e, t, mp), mp.mpf(c), n)


def validate_lebesgue(cover, delta, pairs=10**4, seed=0):
    """Count seeded random pairs closer than delta that no one piece holds
    both of: the defining property of a Lebesgue number, sampled."""
    a, b = cover.target.lo, cover.target.hi
    rng = np.random.default_rng(seed)
    xs = rng.uniform(a, b, pairs)
    cs = np.clip(xs + rng.uniform(-delta, delta, pairs) * (1 - 1e-12), a, b)
    close = np.abs(xs - cs) < delta
    reach = cover._reach(np.minimum(xs, cs))
    return int(np.sum(close & ~(reach > np.maximum(xs, cs))))


def oracle_reach(keys, values, x, closed=False):
    """(value, index) of cover._Reach by its definition, one key at a
    time: the largest value over keys < x (keys <= x when closed), NaN
    values counting only where every such value is NaN, and the lowest
    index attaining it, whose value's bits are returned; (-inf, -1) where
    no key qualifies.  A NaN key is never below x."""
    best, index = -math.inf, -1
    for i, (k, v) in enumerate(zip(keys, values)):
        if (k <= x if closed else k < x) and (index < 0 or v > best or (best != best and v == v)):
            best, index = v, i
    return best, index


def value_instances():
    """One value of each of fcalc's immutable value and result classes.

    Callable fields hold builtins, so every value pickles.
    """
    from fcalc import calculus, expr, graph, integrate, interval, sequences, stepfn, suprema

    part = interval.Partition((0, 0.5, 1))
    level = integrate.CertificateLevel(4, 0.25, 0.5)
    return [
        calculus.LimitReport(1.0, 0.0, True), calculus.TaylorReport(2.5, 0.5, None, 0.1, True),
        graph.Principle("MCP", "monotone convergence", (1, 2)),
        graph.ImplicationEdge("MCP", "CA", "theorem 2"), integrate.ChoiceFunction("random", 3),
        level, integrate.IntegralCertificate(0.375, [level], True), interval.Interval(0, 1),
        part, expr.Predicate(expr.X, "<", expr.Const(2.0)),
        sequences.SubsequenceSelector((1, 3)), sequences.CauchyWindowReport(True, (1, 2), 0.0),
        stepfn.StepFunction(part, (2, 3)), suprema.PredicateSet(bool, 0.0, 2.0),
        suprema.Cut(bool, 0.0, 2.0), suprema.SupremumResult(1.0, 3, [(0.0, 2.0)]),
        suprema.RootResult(1.0, 3, (0.875, 1.125), 0.0),
    ]


def fields_of(value):
    """The field names of a value of value_instances(), in order."""
    return getattr(type(value), "_fields", None) or type(value).__slots__


def bisect_window_radii(f, ts, a, b, half_eps):
    """cover._window_radii's radii as 14 rounds of bisection over the
    exponent k find them, for all centres at once: the search's oracle."""
    from fcalc import cover
    from fcalc.errors import MathError

    cap = b - a
    depth = max(0, cover._FLOOR_BITS + math.floor(math.log2(cap / max(cap, abs(a), abs(b)))))
    flo, fhi = E.enclose(f, ts, ts)

    def fits(w):
        lo, hi = E.enclose(f, np.maximum(a, ts - w), np.minimum(b, ts + w))
        return (hi - flo < half_eps) & (fhi - lo < half_eps)

    # k fits at hi and fails at lo, except where both are 0 (w = b - a fits)
    lo, hi = np.zeros(ts.size), np.where(fits(cap), 0.0, depth + 1.0)
    for _ in range(cover._ROUNDS):
        k = (lo + hi) / 2
        ok = fits(cap * np.exp2(-k))
        lo, hi = np.where(ok, lo, k), np.where(ok, k, hi)
    if np.any(hi > depth):
        raise MathError(f"no window fits near {float(ts[hi > depth][0])}: "
                        "f is undefined, unbounded or too steep there")
    return cap * np.exp2(-hi)
