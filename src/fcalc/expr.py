"""Expression trees for real functions of one variable.

Grammar (whitespace insignificant)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | base ('^' integer)?
    base   := number | 'x' | ident '(' expr ')' | '(' expr ')'

with ident one of sin, cos, exp, ln, sqrt, abs.  Unary minus binds looser
than ``^``, as usual: -x^2 is -(x^2), and (-x)^2 reads as written.
Exponents are integer literals only, so symbolic differentiation stays
closed form.

Nodes are frozen and interned: building one returns the live node with
the same class and fields, so equal trees are one object, ``==`` is
identity and ``hash`` is O(1).  Constants are keyed by their bit pattern
(0.0 and -0.0 are two nodes).  The table holds nodes weakly; an insert
that meets another entry takes a lock, so threads building the same tree
get one object, and a dead node's entry goes in one atomic step.  No
walk recurses: ``_postorder`` (an explicit stack) serves compiling,
differentiating and printing, and the parser is one precedence-climbing
loop, so nesting depth is bounded by memory alone.

Evaluation compiles a tree once per backend (``math`` floats, numpy
arrays, and pairs of numpy arrays for interval enclosures) into a
straight-line program cached on the root node outside the dataclass
fields, so equality, hashing, printing and pickling never see it.
Compiling numbers values: each node gets one slot, and an instruction is
keyed by its op and its operands' slots, so a+b and b+a share one.
Integer powers become repeated squaring (u^0 an op that reads u and gives
1, so u's domain still counts), and registers are reused after a value's
last reader, so few array temporaries are alive at once.  Each backend is
an op table.  The two point backends share one set of domain checks, and
a scalar point where ``math`` raises instead of giving NaN or inf is
re-run on numpy, so both follow IEEE 754; the interval backend
(``enclose``) marks a cell where an op leaves its domain instead of
raising.  ``differentiate`` caches d/dx on each node in the same way, so
shared subtrees stay shared and a derivative is taken once.

numpy is imported on first use: by an array or interval call, or by the
scalar re-run on numpy.  The grammar, the printer, ``differentiate`` and
the scalar backend never need it, so ``fc parse`` and ``fc eval`` start
without it.
"""

from __future__ import annotations

import collections
import math
import operator
import re
import struct
import sys
import threading
import weakref
from _weakref import _remove_dead_weakref
from dataclasses import dataclass
from typing import Tuple, Union

from .errors import DomainError, NonDifferentiableError, ParseError, PreconditionError

FUNCTIONS = ("sin", "cos", "exp", "ln", "sqrt", "abs")


class _Numpy:
    """Stands for numpy until the first attribute read, which imports numpy
    and rebinds this module's np to it."""

    def __getattr__(self, name):
        global np
        import numpy as np
        return getattr(np, name)


np = _Numpy()

Number = Union[float, "np.ndarray"]


class Expr:
    """Base node; concrete nodes are the dataclasses below.

    Nodes are built only through __new__, which returns the live node for
    (class, fields) or sets the fields of a new one and records it.
    """

    def __new__(cls, *fields):
        names = cls.__dataclass_fields__
        if len(fields) != len(names):
            raise TypeError(f"{cls.__name__} takes {len(names)} fields, got {len(fields)}")
        # Children are keyed by id: a node keeps them alive, so their ids are
        # theirs while its entry stands, and the table holds no node.
        kids = fields
        if cls is Const:
            fields, kids = (float(fields[0]),), ()
            key = (cls, _DOUBLE.pack(fields[0]))  # the bit pattern: -0.0 is not 0.0
        elif cls is Pow:
            fields, kids = (fields[0], operator.index(fields[1])), fields[:1]
            key = (cls, id(fields[0]), fields[1])
        elif cls is Func:
            kids = fields[1:]
            key = (cls, fields[0], id(fields[1]))
        else:  # Var, Neg and the binary nodes
            key = (cls, id(fields[0]), id(fields[-1])) if fields else (cls,)
        ref = _NODES.get(key)
        node = ref and ref()
        if node is None:
            node = object.__new__(cls)
            node.__dict__.update(zip(names, fields), _kids=kids)
            new = _Ref(node, _forget)
            new.key = key
            ref = _NODES.setdefault(key, new)  # atomic: of racing threads, one inserts
            if ref is not new:
                with _LOCK:  # taken by a racing thread, or by a dead node not yet forgotten
                    ref = _NODES.get(key)
                    winner = ref and ref()
                    if winner is not None:  # another thread's node
                        return winner
                    _NODES[key] = new
        return node

    def __reduce__(self):
        # unpickling calls the class, which re-interns; cached programs are not state
        return type(self), tuple(getattr(self, name) for name in self.__dataclass_fields__)

    def __call__(self, x: Number) -> Number:
        return evaluate(self, x)

    def __neg__(self):
        return neg(self)

    def __pow__(self, n: int):
        return pow_(self, n)

    def __str__(self):
        return to_text(self)


_node = dataclass(frozen=True, eq=False, init=False)
_NODES = {}  # (class, fields) -> weak reference to the live node
_LOCK = threading.Lock()  # taken by inserts only
_DOUBLE = struct.Struct("d")


class _Ref(weakref.ref):
    __slots__ = ("key",)


def _forget(ref):
    """Drop a dead node's entry, unless a new node has taken its key."""
    # one atomic check-and-delete, as weakref.WeakValueDictionary does
    _remove_dead_weakref(_NODES, ref.key)


@_node
class Const(Expr):
    value: float


@_node
class Var(Expr):
    pass


@_node
class Neg(Expr):
    arg: Expr


@_node
class Add(Expr):
    left: Expr
    right: Expr


@_node
class Sub(Expr):
    left: Expr
    right: Expr


@_node
class Mul(Expr):
    left: Expr
    right: Expr


@_node
class Div(Expr):
    left: Expr
    right: Expr


@_node
class Pow(Expr):
    base: Expr
    exponent: int


@_node
class Func(Expr):
    name: str
    arg: Expr


X = Var()


def _coerce(v) -> Expr:
    return v if isinstance(v, Expr) else Const(v)


# ---------------------------------------------------------------------------
# the one walk

def _postorder(root, cached: str = None):
    """Each distinct node under root once, children first, left before right.

    The one tree traversal, from an explicit stack, so depth is bounded by
    memory alone.  A node holding the attribute `cached` is not yielded,
    and neither is its subtree (unless reached another way).
    """
    seen, stack = set(), [(None, iter((root,)))]  # a stand-in parent above root
    while stack:
        node, kids = stack[-1]
        for kid in kids:
            if kid not in seen and not (cached and hasattr(kid, cached)):
                seen.add(kid)
                try:
                    stack.append((kid, iter(kid._kids)))
                except AttributeError:
                    raise TypeError(f"not an expression node: {kid!r}") from None
                break
        else:
            stack.pop()
            if stack:  # not the stand-in
                yield node


# ---------------------------------------------------------------------------
# smart constructors (local constant folding only)

def const(v: float) -> Const:
    return Const(v)


def add(u: Expr, v: Expr) -> Expr:
    if isinstance(u, Const) and isinstance(v, Const):
        return Const(u.value + v.value)
    if isinstance(u, Const) and u.value == 0.0:
        return v
    if isinstance(v, Const) and v.value == 0.0:
        return u
    return Add(u, v)


def sub(u: Expr, v: Expr) -> Expr:
    if isinstance(u, Const) and isinstance(v, Const):
        return Const(u.value - v.value)
    if isinstance(v, Const) and v.value == 0.0:
        return u
    if isinstance(u, Const) and u.value == 0.0:
        return neg(v)
    return Sub(u, v)


def mul(u: Expr, v: Expr) -> Expr:
    if isinstance(u, Const) and isinstance(v, Const):
        return Const(u.value * v.value)
    for c, other in ((u, v), (v, u)):
        if isinstance(c, Const) and c.value in (0.0, 1.0):
            return Const(0.0) if c.value == 0.0 else other
    return Mul(u, v)


def div(u: Expr, v: Expr) -> Expr:
    if isinstance(v, Const) and v.value == 1.0:
        return u
    if isinstance(u, Const) and u.value == 0.0:
        return Const(0.0)
    if isinstance(u, Const) and isinstance(v, Const) and v.value != 0.0:
        return Const(u.value / v.value)
    return Div(u, v)


def neg(u: Expr) -> Expr:
    if isinstance(u, Const):
        return Const(-u.value)
    if isinstance(u, Neg):
        return u.arg
    return Neg(u)


def pow_(u: Expr, n: int) -> Expr:
    n = int(n)
    if n == 0:
        return Const(1.0)
    if n == 1:
        return u
    if isinstance(u, Const):
        return Const(_SCALAR.run(Pow(u, n), 0.0))
    return Pow(u, n)


def func(name: str, arg: Expr) -> Expr:
    if name not in FUNCTIONS:
        raise ValueError(f"unknown function {name!r}")
    return Func(name, arg)


# e + 2, 2 * e and so on: the smart constructors, with numbers as constants
for _op, _fn in (("add", add), ("sub", sub), ("mul", mul), ("truediv", div)):
    setattr(Expr, f"__{_op}__", lambda u, v, fn=_fn: fn(u, _coerce(v)))
    setattr(Expr, f"__r{_op}__", lambda u, v, fn=_fn: fn(_coerce(v), u))


# ---------------------------------------------------------------------------
# evaluation: one compile step, one op table per backend

# Partial ops: the test that puts an argument outside the domain, and the
# message.  The argument tested is the last one (the divisor of "div").
_DOMAIN = {
    "div": (lambda v: v == 0.0, "division by zero"),
    "recip": (lambda v: v == 0.0, "0 raised to a negative power"),
    "ln": (lambda v: v <= 0.0, "ln of a non-positive number"),
    "sqrt": (lambda v: v < 0.0, "sqrt of a negative number"),
}


_OPS = {Add: "add", Sub: "sub", Mul: "mul", Div: "div"}


def _compile(root: Expr, ops: dict):
    """Straight-line program (code, registers, result register) for root.

    Values are x = 0, constants -1, -2, ... (held in register -v) and
    instructions 1, 2, ...; each node gets one value, and an instruction
    is keyed by its op and operand values, so a+b and b+a, and the products
    repeated squaring builds, are computed once.  Instruction (fn, i, j, k)
    stores fn(r[i]), or fn(r[i], r[j]) when j >= 0, into register k, with
    fn taken from the backend's op table; registers is r without r[0] = x.
    """
    consts, code, number, value = [], [], {}, {}

    def emit(op, a, b=None):
        if op in ("add", "mul") and b < a:
            a, b = b, a
        v = number.setdefault((op, a, b), len(code) + 1)
        if v > len(code):
            code.append((op, a, b))
        return v

    for e in _postorder(root):
        t = type(e)
        if t in _OPS:
            v = emit(_OPS[t], value[e.left], value[e.right])
        elif t is Const:
            consts.append(e.value)
            v = -len(consts)
        elif t is Var:
            v = 0
        elif t is Neg or (t is Func and e.name in FUNCTIONS):
            v = emit("neg" if t is Neg else e.name, value[e.arg])
        elif t is Pow:  # repeated squaring, of the reciprocal if n < 0
            b, n = value[e.base], e.exponent
            if n < 0:
                b, n = emit("recip", b), -n
            v = emit("one", b) if n == 0 else None  # 1, read from the base
            while n:
                if n & 1:
                    v = b if v is None else emit("mul", v, b)
                n >>= 1
                if n:
                    b = emit("mul", b, b)
        else:
            raise TypeError(f"not an expression node: {e!r}")
        value[e] = v

    root_value = value[root]
    # A temporary's register is reused once its last reader has run, so no
    # more array intermediates are alive than the tree's shape needs.  The
    # root's register is never handed on, whichever instruction computes it.
    last = {u: t for t, (_, a, b) in enumerate(code, 1) for u in (a, b)}
    last[root_value] = len(code) + 1
    regs, reg, free, program = [None, *consts], {}, [], []
    for t, (op, a, b) in enumerate(code, 1):
        i, j = reg.get(a, -a), (-1 if b is None else reg.get(b, -b))
        free += {reg[u] for u in (a, b) if u in reg and last[u] == t}
        if not free:
            free.append(len(regs))
            regs.append(None)
        reg[t] = k = free.pop()
        program.append((ops[op], i, j, k))
    return tuple(program), regs[1:], reg.get(root_value, -root_value)


class _Backend:
    """An op table over one number type, and the loop that runs programs.

    ops is the table, or a function that builds it on the first compile.
    lift turns a constant into the backend's number type.  A tree is
    compiled once per backend, and the program cached on the node outside
    its fields (two threads may both store one; the copies are equal).
    """

    def __init__(self, name, ops, lift=float):
        self.attr, self._ops, self.lift = "_code_" + name, ops, lift

    @property
    def ops(self) -> dict:
        if callable(self._ops):
            self._ops = self._ops()
        return self._ops

    def _program(self, e: Expr):
        code, regs, out = _compile(e, self.ops)
        return code, [r if r is None else self.lift(r) for r in regs], out

    def run(self, e: Expr, x):
        code, regs, out = e.__dict__.get(self.attr) or e.__dict__.setdefault(
            self.attr, self._program(e))
        r = [x, *regs]
        for fn, i, j, k in code:
            r[k] = fn(r[i]) if j < 0 else fn(r[i], r[j])
        return r[out]


def _point_ops(functions, hit):
    """Op table over floats or arrays; hit reduces a domain test to a bool."""
    def guard(fn, bad, message):
        def op(*args):
            if hit(bad(args[-1])):
                raise DomainError(message)
            return fn(*args)
        return op

    ops = {"neg": operator.neg, "add": operator.add, "sub": operator.sub,
           "mul": operator.mul, "div": operator.truediv, "recip": lambda v: 1.0 / v,
           "one": lambda v: 1.0,
           **functions}
    for op, (bad, message) in _DOMAIN.items():
        ops[op] = guard(ops[op], bad, message)
    return ops


_SCALAR = _Backend("scalar", _point_ops({"sin": math.sin, "cos": math.cos, "exp": math.exp,
                                         "ln": math.log, "sqrt": math.sqrt, "abs": abs}, bool))
# Constants stay Python floats, which numpy broadcasts.
_ARRAY = _Backend("array", lambda: _point_ops({"sin": np.sin, "cos": np.cos, "exp": np.exp,
                                               "ln": np.log, "sqrt": np.sqrt, "abs": np.abs},
                                              np.any))


# Interval backend.  A value is a pair (lo, hi) of arrays (of numpy scalars,
# for constants) enclosing a function over cells.  Every result is rounded
# outward by one ulp, which is rigorous for the correctly rounded + - * /
# sqrt and for exp, ln, sin, cos as long as numpy's are faithfully rounded
# (error below one ulp).  The step gives np.nextafter's results bit for bit:
# on arrays of at least _STEP_MIN elements it moves each int64 bit pattern
# by one (a finite double's neighbour away from zero is the next pattern),
# and only the elements where that is wrong (zeros, infinities, NaN) go
# through np.nextafter; scalars and smaller arrays take one np.nextafter
# call, which costs less there.  Inputs are not widened, and neg and abs
# are exact.  A point constant c, held as (c, c) with one finite nonzero
# float object at both ends (as _pair builds it), times a value or divided
# by one takes two operations and two steps: the sign of c says which
# product or quotient is the lower end, so the bits equal the four-operation
# hull's.  The exception is a NaN bound in, which may come out on one bound
# only; that still marks the cell.  A square computes each end's square
# once.  NaN marks "undefined somewhere on the cell": an op that leaves its
# domain on part of a cell yields NaN, and every op maps a NaN bound to a
# NaN bound, so the mark survives to the end, where enclose() turns the
# cell into (-inf, inf).  enclose() runs a program over blocks of at most
# _BLOCK cells, so its temporaries stay in cache.

_STEP_MIN = 1024  # measured: below this one np.nextafter call is faster
_BLOCK = 1 << 13  # cells per run of an interval program


def _step(v, toward):
    """np.nextafter(v, toward) for a float64 array v, toward -inf or inf."""
    bits = v.view(np.int64)
    step = bits >> 63
    step |= 1  # -1 on negative patterns, 1 on positive: a step away from zero
    if toward > 0:
        step += bits
    else:
        np.subtract(bits, step, out=step)
    out = step.view(float)
    # Wrong only where v is not finite, or where the step crosses zero from
    # the zero of the other sign, whose pattern becomes a NaN's.
    ok = np.isfinite(v)
    ok &= np.isfinite(out)
    if np.count_nonzero(ok) < ok.size:
        bad = ~ok
        out[bad] = np.nextafter(v[bad], toward)
    return out


def _down(v):
    """v moved one ulp toward -inf, as np.nextafter(v, -inf) (v numpy)."""
    return np.nextafter(v, -np.inf) if v.size < _STEP_MIN else _step(v, -np.inf)


def _up(v):
    """v moved one ulp toward inf, as np.nextafter(v, inf) (v numpy)."""
    return np.nextafter(v, np.inf) if v.size < _STEP_MIN else _step(v, np.inf)


def _hull(p, q, r, s):
    return (_down(np.minimum(np.minimum(p, q), np.minimum(r, s))),
            _up(np.maximum(np.maximum(p, q), np.maximum(r, s))))


def iadd(u, v):
    """Enclosure of u + v for (lo, hi) pairs."""
    return _down(u[0] + v[0]), _up(u[1] + v[1])


def isub(u, v):
    """Enclosure of u - v for (lo, hi) pairs."""
    return _down(u[0] - v[1]), _up(u[1] - v[0])


def _point(u):
    """Is u a point constant (c, c): one finite, nonzero float object?"""
    c = u[0]
    return c is u[1] and isinstance(c, float) and 0.0 < abs(c) < math.inf


def imul(u, v):
    """Enclosure of u * v for (lo, hi) pairs; u * u (the same object) is a
    square, which is never negative.  A point constant goes first, as
    compiled programs put it, to take the two-product path."""
    (a, b), (c, d) = u, v
    if u is v:
        # even-power rule: x*x on a cell straddling 0 starts at 0, not at -a*b
        aa, bb = a * a, b * b
        lo = np.where((a <= 0.0) & (b >= 0.0), 0.0, np.minimum(aa, bb))
        return np.maximum(_down(lo), 0.0), _up(np.maximum(aa, bb))
    if _point(u):  # a*c <= a*d when a > 0, and the other way round when a < 0
        p, q = a * c, a * d
        return (_down(p), _up(q)) if a > 0.0 else (_down(q), _up(p))
    return _hull(a * c, a * d, b * c, b * d)


def _idiv(u, v):
    (a, b), (c, d) = u, v
    zero = (c <= 0.0) & (d >= 0.0)  # the divisor reaches 0
    c = np.where(zero, np.nan, c)
    if _point(u):  # a/d <= a/c when a > 0, and the other way round when a < 0
        p, q = a / c, a / np.where(zero, np.nan, d)
        return (_down(q), _up(p)) if a > 0.0 else (_down(p), _up(q))
    return _hull(a / c, a / d, b / c, b / d)


def _iabs(u):
    a, b = u
    return np.where(a > 0.0, a, np.where(b < 0.0, -b, 0.0)), np.maximum(-a, b)


_TWO_PI = 2.0 * math.pi


def _may_contain(a, b, phase):
    """Might [a, b] contain phase + 2*pi*k for an integer k?

    math.pi is not pi and the quotients round, so the test widens both
    ends by far more than the error (a few ulps of the quotient): it may
    answer yes wrongly, never no.  NaN ends answer no.
    """
    qa, qb = (a - phase) / _TWO_PI, (b - phase) / _TWO_PI
    return (np.floor(qb + 1e-15 * (1.0 + np.abs(qb)))
            >= np.ceil(qa - 1e-15 * (1.0 + np.abs(qa))))


def _periodic(fn, peak):
    """Interval sin or cos: maxima at peak + 2 pi k, minima half a period on."""
    def op(u):
        a, b = u
        fa, fb = fn(a), fn(b)
        lo = np.where(_may_contain(a, b, peak + math.pi), -1.0,
                      np.maximum(_down(np.minimum(fa, fb)), -1.0))
        hi = np.where(_may_contain(a, b, peak), 1.0, np.minimum(_up(np.maximum(fa, fb)), 1.0))
        return lo, hi
    return op


def _pair(c):
    c = np.float64(c)  # numpy scalars, so constant-only ops give inf, not ZeroDivisionError
    return (c, c)


_INTERVAL = _Backend("interval", lambda: {
    "neg": lambda u: (-u[1], -u[0]),
    "add": iadd,
    "sub": isub,
    "mul": imul,
    "div": _idiv,
    "recip": lambda v: _idiv((1.0, 1.0), v),
    "one": lambda u: (np.where(np.isnan(u[0]) | np.isnan(u[1]), np.nan, 1.0),) * 2,
    "sin": _periodic(np.sin, math.pi / 2),
    "cos": _periodic(np.cos, 0.0),
    "exp": lambda u: (np.maximum(_down(np.exp(u[0])), 0.0), _up(np.exp(u[1]))),
    "ln": lambda u: (_down(np.log(np.where(u[0] > 0.0, u[0], np.nan))), _up(np.log(u[1]))),
    "sqrt": lambda u: (np.maximum(_down(np.sqrt(u[0])), 0.0), _up(np.sqrt(u[1]))),
    "abs": _iabs,
}, _pair)


def evaluate(e: Expr, x: Number) -> Number:
    """Evaluate `e` at `x` (float or numpy array of floats).

    Raises DomainError when the point leaves the natural domain:
    division by zero, ln of a non-positive number, sqrt of a negative
    number, or zero raised to a negative power.  Overflow gives +-inf and
    sin, cos of +-inf give NaN, silently, in both backends.
    """
    if not isinstance(x, float):
        numpy = sys.modules.get("numpy")  # while numpy is not loaded, x is no array
        if numpy is not None and isinstance(x, numpy.ndarray):
            return _evaluate_array(e, numpy.asarray(x, dtype=float))
    x = float(x)
    try:
        return _SCALAR.run(e, x)
    except (ValueError, OverflowError):
        # math raises at sin(+-inf), cos(+-inf) and exp overflow, where
        # IEEE arithmetic (numpy) gives NaN or inf
        return float(_evaluate_array(e, np.array([x]))[0])


def _evaluate_array(e: Expr, x: np.ndarray) -> np.ndarray:
    # Overflow, inf - inf and sin(inf) give IEEE values without warnings;
    # the guards have already raised for every division by zero.
    with np.errstate(all="ignore"):
        out = _ARRAY.run(e, x)
    return out if isinstance(out, np.ndarray) else np.full_like(x, out)


def enclose(e: Expr, lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Enclosures of e over the cells [lo[i], hi[i]] (arrays of one shape,
    lo <= hi).

    Returns arrays (inf, sup) with inf <= e(x) <= sup for every x in a
    cell: the natural interval extension of the tree, rounded outward by
    one ulp per op (on the bit patterns of large arrays, with results
    equal to np.nextafter's).  A cell on which some op leaves its domain
    (a divisor reaching 0, ln reaching <= 0, sqrt reaching < 0, 0 to a
    negative power) gets the unbounded enclosure (-inf, inf) instead of
    raising.  Negation is exact, so enclose(-e) is (-sup, -inf) bit for
    bit.  The program runs over blocks of at most _BLOCK cells, so its
    temporaries stay in cache; every op works cell by cell, so the
    results equal those of one run over all cells.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    inf, sup = np.empty(lo.shape), np.empty(lo.shape)
    flat_lo, flat_hi, flat_inf, flat_sup = (a.reshape(-1) for a in (lo, hi, inf, sup))
    with np.errstate(all="ignore"):
        for start in range(0, flat_lo.size, _BLOCK):
            cells = slice(start, start + _BLOCK)
            low, high = _INTERVAL.run(e, (flat_lo[cells], flat_hi[cells]))
            undefined = np.isnan(low) | np.isnan(high)
            flat_inf[cells] = np.where(undefined, -np.inf, low)
            flat_sup[cells] = np.where(undefined, np.inf, high)
    return inf, sup


# ---------------------------------------------------------------------------
# symbolic differentiation

def differentiate(e: Expr, n: int = 1) -> Expr:
    """Symbolic n-th derivative.  n=0 returns the expression itself.

    abs is parseable but rejected here with NonDifferentiableError.
    d/dx is cached on each node, so shared subtrees stay shared and a
    derivative already taken costs nothing.
    """
    if n < 0:
        raise PreconditionError("derivative order must be nonnegative")
    for _ in range(int(n)):
        for node in _postorder(e, "_deriv"):
            node.__dict__["_deriv"] = _rule(node)
        e = e._deriv
    return e


_CHAIN = {  # d/dx of name(u), from u and du
    "sin": lambda u, du: mul(func("cos", u), du),
    "cos": lambda u, du: neg(mul(func("sin", u), du)),
    "exp": lambda u, du: mul(func("exp", u), du),
    "ln": lambda u, du: div(du, u),
    "sqrt": lambda u, du: div(du, mul(const(2.0), func("sqrt", u))),
}


def _rule(e: Expr) -> Expr:
    """d/dx of e, from the derivatives cached on its children."""
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0)
    if isinstance(e, Neg):
        return neg(e.arg._deriv)
    if isinstance(e, Add):
        return add(e.left._deriv, e.right._deriv)
    if isinstance(e, Sub):
        return sub(e.left._deriv, e.right._deriv)
    if isinstance(e, Mul):
        # product rule, f'g + g'f
        return add(mul(e.left._deriv, e.right), mul(e.right._deriv, e.left))
    if isinstance(e, Div):
        num = sub(mul(e.left._deriv, e.right), mul(e.right._deriv, e.left))
        return div(num, pow_(e.right, 2))
    if isinstance(e, Pow):
        inner = mul(const(e.exponent), pow_(e.base, e.exponent - 1))
        return mul(inner, e.base._deriv)
    if e.name not in _CHAIN:  # a Func
        raise NonDifferentiableError(f"cannot differentiate node {e.name!r}")
    return _CHAIN[e.name](e.arg, e.arg._deriv)


# ---------------------------------------------------------------------------
# printing

# How tightly each node binds, for parenthesising: atoms 5
_PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 3, Pow: 4}
_BINARY = {"+": Add, "-": Sub, "*": Mul, "/": Div}
_INFIX = {cls: op if op in "*/" else f" {op} " for op, cls in _BINARY.items()}


def _prec(e: Expr) -> int:
    if isinstance(e, Const) and math.copysign(1.0, e.value) < 0:  # -0.0 prints a minus too
        return _PREC[Neg]
    return _PREC.get(type(e), 5)


def to_text(e: Expr, var_name: str = "x") -> str:
    """Render to grammar-conformant text; parse(to_text(e)) evaluates like e.

    Each node's text is built from its children's, which are dropped
    after their last reader.
    """
    nodes = list(_postorder(e))
    readers = collections.Counter(kid for node in nodes for kid in node._kids)
    texts = {}

    def wrap(child, minimum):
        readers[child] -= 1
        text = texts[child] if readers[child] else texts.pop(child)
        return f"({text})" if _prec(child) < minimum else text

    for node in nodes:
        t = type(node)
        if t is Const:
            text = repr(node.value)
        elif t is Var:
            text = var_name
        elif t is Neg:
            # unary minus binds looser than ^, so Neg(Pow(x, 2)) prints -x^2
            text = f"-{wrap(node.arg, _PREC[Neg])}"
        elif t in _INFIX:
            text = wrap(node.left, _PREC[t]) + _INFIX[t] + wrap(node.right, _PREC[t] + 1)
        elif t is Pow:
            text = f"{wrap(node.base, 5)}^{node.exponent}"
        else:  # Func
            text = f"{node.name}({wrap(node.arg, 0)})"
        texts[node] = text
    return texts[e]


# ---------------------------------------------------------------------------
# parser: one precedence-climbing loop

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


def _tokens(text: str) -> list:
    """(kind, text, offset) for each token, then ("eof", "", len(text))."""
    tokens = [(kind := m.lastgroup, m[kind], m.start(kind)) for m in _TOKEN_RE.finditer(text)]
    for kind, value, offset in tokens:
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", offset)
    return tokens + [("eof", "", len(text))]


def parse(text: str, var_name: str = "x") -> Expr:
    """Parse expression text into a tree.

    var_name lets the sequence front end reuse the grammar with `n` as
    the variable.  Raises ParseError with the byte offset on bad input.

    One loop over the tokens with an operand stack and a stack of pending
    operators: node classes for binary operators and prefix minus (Neg),
    and "(" or a function name for each open group.  A prefix minus
    applies once its factor, with any ^ exponent, is complete; a binary
    operator first applies the pending ones that bind at least as tightly.
    Only operator tokens have the texts - + * / ^ ( ), so a token's text
    alone identifies them.
    """
    tokens, i, operands, pending, depth = _tokens(text), 0, [], [], 0

    def reduce(prec):
        while pending and pending[-1] in _INFIX and _PREC[pending[-1]] >= prec:
            right = operands.pop()
            operands[-1] = pending.pop()(operands[-1], right)

    while True:
        # operand position: prefix minuses and group openers, then one atom
        kind, value, offset = tokens[i]
        i += 1
        if value in ("-", "("):
            pending.append(Neg if value == "-" else "(")
            depth += value == "("
            continue
        if kind == "ident" and value != var_name and value in FUNCTIONS:
            if tokens[i][1] != "(":
                raise ParseError("expected '('", tokens[i][2])
            i += 1
            pending.append(value)
            depth += 1
            continue
        if kind == "num":
            operands.append(Const(float(value)))
        elif kind == "ident" and value == var_name:
            operands.append(X)
        elif kind == "ident":
            raise ParseError(f"unknown identifier {value!r}", offset)
        else:
            raise ParseError(f"unexpected token {value!r}" if value else "unexpected end of input",
                             offset)
        # operator position: a base is complete, so take its exponent and the
        # prefix minuses before it, then close a group or read an operator
        while True:
            if tokens[i][1] == "^":
                minus = tokens[i + 1][1] == "-"
                kind, value, offset = tokens[i + 1 + minus]
                if kind != "num" or not value.isdigit():
                    raise ParseError("expected integer exponent", offset)
                i += 2 + minus
                operands[-1] = Pow(operands[-1], -int(value) if minus else int(value))
            while pending and pending[-1] is Neg:
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
                    operands[-1] = Func(opener, operands[-1])
                depth -= 1
                continue
            if depth:
                raise ParseError("expected ')'", offset)
            if kind != "eof":
                raise ParseError(f"trailing input {value!r}", offset)
            reduce(0)
            return operands[0]
