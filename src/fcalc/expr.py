"""Expression trees for real functions of one variable.

Grammar (whitespace insignificant)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | base ('^' integer)?
    base   := number | 'x' | ident '(' expr ')' | '(' expr ')'

with ident one of sin, cos, exp, ln, sqrt, abs.  Unary minus binds looser
than ``^``, as usual: -x^2 is -(x^2), and (-x)^2 reads as written.
Exponents are integer literals only, so symbolic differentiation stays
closed form.  A predicate (``parse_predicate``) is two expressions joined
by one of <=, >=, <, >; it is a ``Predicate`` of two trees, which calls
as the comparison.

Nodes are frozen and interned: building one returns the live node with
the same class and fields, so equal trees are one object, ``==`` is
identity and ``hash`` is O(1).  Constants are keyed by their bit pattern
(0.0 and -0.0 are two nodes).  The table holds nodes weakly; an insert
that meets another entry takes a lock, so threads building the same tree
get one object, and a dead node's entry goes in one atomic step.  No
walk recurses: ``_postorder`` (an explicit stack) serves compiling,
differentiating and printing, and the parser is one precedence-climbing
loop, so nesting depth is bounded by memory alone.

Evaluation value-numbers a tree once into a backend-neutral
straight-line program of op names, and binds that program once per
backend (``math`` floats, numpy arrays, and pairs of floats or of numpy
arrays for interval enclosures) to the backend's op table; both are
cached on the root node outside its fields, so equality, hashing,
printing and pickling never see them.  Value numbering gives each node one slot,
and an instruction is keyed by its op and its operands' slots, so a+b and
b+a share one.  Integer powers become repeated squaring (u^0 an op that
reads u and gives 1, so u's domain still counts), and registers are
reused after a value's last reader, so few array temporaries are alive at
once.  The two point backends share one set of domain checks, and both
follow IEEE 754 (``exp`` overflow gives inf, ``sin`` and ``cos`` of +-inf
give NaN).  The two interval backends (``enclose``: one cell on floats,
many on arrays) share one set of rules, written once over a namespace of
primitives bound to ``math`` or to numpy, and mark a cell where an op
leaves its domain instead of raising.  The two jet backends (``jet``)
lift the point tables to Taylor coefficients, so one run of the same
program gives f(t), f'(t), ..., f^(n)(t)/n! at once.  ``differentiate``
caches d/dx on each node in the same way, so shared subtrees stay shared
and a derivative is taken once.

numpy is imported on first use, by an array call or an enclosure of
array cells.  The grammar, the printer, ``differentiate``, the scalar
backends and one-cell enclosures never need it, so ``fc parse``, ``fc
eval``, and ``fc deriv --at`` and ``fc limit`` where f is defined about
the point, start without it.
"""

from __future__ import annotations

import collections
import itertools
import math
import operator
import re
import struct
import sys
import threading
import weakref
from _weakref import _remove_dead_weakref
from typing import NamedTuple, Tuple, Union

from .errors import DomainError, ParseError, PreconditionError

FUNCTIONS = ("sin", "cos", "exp", "ln", "sqrt", "abs")


class _Numpy:
    """Stands for numpy in a module until the first attribute read, which
    imports numpy and rebinds the module's np to it, so later reads cost
    what they would with numpy imported up front."""

    def __init__(self, namespace):
        self.namespace = namespace

    def __getattr__(self, name):
        import numpy
        self.namespace["np"] = numpy
        return getattr(numpy, name)


np = _Numpy(globals())

Number = Union[float, "np.ndarray"]


class Expr:
    """Base node; each concrete node below names its fields in _fields.

    Nodes are built only through their class's __new__, which returns the
    live node with the same key or has _new build and record one.  They
    refuse attribute assignment; caches go straight into __dict__.
    """

    _fields: Tuple[str, ...] = ()

    def __reduce__(self):
        # unpickling calls the class, which re-interns; cached programs are not state
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete {name!r}: expression nodes are immutable")

    __delattr__ = __setattr__

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __call__(self, x: Number) -> Number:
        return evaluate(self, x)

    def __neg__(self):
        return neg(self)

    def __pow__(self, n: int):
        return pow_(self, n)

    def __str__(self):
        return to_text(self)


# Each class's __new__ looks its key up and leaves a miss to _new.  Keys of
# two classes never meet: a constant's is its bit pattern, Var's its class,
# and the others' are tuples that start with their class.  Children are keyed
# by id: a node keeps them alive, so their ids are theirs while its entry
# stands, and the table holds no node.
_NODES = {}  # key -> weak reference to the live node
_LOCK = threading.Lock()  # taken by inserts only
_DOUBLE = struct.Struct("d")


class _Ref(weakref.ref):
    __slots__ = ("key",)


def _new(cls, key, fields):
    """A new node of cls with the given fields (a dict, which becomes its
    __dict__), recorded under key; of threads racing to build it, all get
    the node recorded first."""
    node = object.__new__(cls)
    object.__setattr__(node, "__dict__", fields)
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


def _forget(ref):
    """Drop a dead node's entry, unless a new node has taken its key."""
    # one atomic check-and-delete, as weakref.WeakValueDictionary does
    _remove_dead_weakref(_NODES, ref.key)


class Const(Expr):
    _fields = ("value",)

    def __new__(cls, value):
        value = float(value)
        key = _DOUBLE.pack(value)  # the bit pattern: -0.0 is not 0.0
        ref = _NODES.get(key)
        return ref and ref() or _new(cls, key, {"value": value, "_kids": ()})


class Var(Expr):
    def __new__(cls):
        ref = _NODES.get(cls)
        return ref and ref() or _new(cls, cls, {"_kids": ()})


class Neg(Expr):
    _fields = ("arg",)

    def __new__(cls, arg):
        key = (cls, id(arg))
        ref = _NODES.get(key)
        return ref and ref() or _new(cls, key, {"arg": arg, "_kids": (arg,)})


class _Binary(Expr):
    _fields = ("left", "right")

    def __new__(cls, left, right):
        key = (cls, id(left), id(right))
        ref = _NODES.get(key)
        return ref and ref() or _new(cls, key, {"left": left, "right": right,
                                                "_kids": (left, right)})


class Add(_Binary):
    pass


class Sub(_Binary):
    pass


class Mul(_Binary):
    pass


class Div(_Binary):
    pass


class Pow(Expr):
    _fields = ("base", "exponent")

    def __new__(cls, base, exponent):
        exponent = operator.index(exponent)
        key = (cls, id(base), exponent)
        ref = _NODES.get(key)
        return ref and ref() or _new(cls, key, {"base": base, "exponent": exponent,
                                                "_kids": (base,)})


class Func(Expr):
    _fields = ("name", "arg")

    def __new__(cls, name, arg):
        key = (cls, name, id(arg))
        ref = _NODES.get(key)
        return ref and ref() or _new(cls, key, {"name": name, "arg": arg, "_kids": (arg,)})


X = Var()


def _coerce(v) -> Expr:
    return v if isinstance(v, Expr) else Const(v)


# ---------------------------------------------------------------------------
# the one walk

def _postorder(root, cached: str = None):
    """Each distinct node under root once, children first, left before
    right.

    The one tree traversal, from an explicit stack, so depth is bounded by
    memory alone.  A node holding the attribute `cached` is not yielded,
    and neither is its subtree (unless reached another way).
    """
    # nodes[k] is the node whose children iters[k] runs over, below a
    # stand-in parent of the root; a leaf is yielded without a level
    seen, nodes, iters = set(), [None], [iter((root,))]
    while iters:
        for kid in iters[-1]:
            if kid not in seen and not (cached and hasattr(kid, cached)):
                seen.add(kid)
                try:
                    kids = kid._kids
                except AttributeError:
                    raise TypeError(f"not an expression node: {kid!r}") from None
                if kids:
                    nodes.append(kid)
                    iters.append(iter(kids))
                    break
                yield kid
        else:
            iters.pop()
            node = nodes.pop()
            if iters:  # not the stand-in
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
        try:
            return Const(_SCALAR.run(Pow(u, n), 0.0))
        except DomainError:  # 0 to a negative power: raised when evaluated, not
            pass             # when built, so d/dx of 0^0 folds to 0
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


def _compile(root):
    """Backend-neutral straight-line program (code, registers, result
    register) for root.

    Values are x = 0, constants -1, -2, ... (held in register -v) and
    instructions 1, 2, ...; each node gets one value, and an instruction
    is keyed by its op and operand values, so a+b and b+a, and the products
    repeated squaring builds, are computed once.  Instruction (op, i, j, k)
    stores op(r[i]), or op(r[i], r[j]) when j >= 0, into register k, with op
    the name of an entry of a backend's op table; registers is r without
    r[0] = x: the constants' values, None for the others.
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

    # A temporary's register is reused once its last reader has run, so no
    # more array intermediates are alive than the tree's shape needs.  The
    # root's register is never handed on.  last[v] is the instruction that
    # reads value v last and reg[v] v's register; x and the constants, whose
    # registers are their own, sit at index 0 and at the lists' ends.
    end = len(code) + 1
    last, reg = [0] * (end + len(consts)), [*range(end), *range(len(consts), 0, -1)]
    for t, (_, a, b) in enumerate(code, 1):
        last[a] = last[a if b is None else b] = t
    last[value[root]] = end
    regs, free, program = [None, *consts], [], []
    for t, (op, a, b) in enumerate(code, 1):
        i, j = reg[a], (-1 if b is None else reg[b])
        if a > 0 and last[a] == t:
            free.append(i)
        if b is not None and b > 0 and b != a and last[b] == t:
            free.append(j)
        if not free:
            free.append(len(regs))
            regs.append(None)
        reg[t] = k = free.pop()
        program.append((op, i, j, k))
    return tuple(program), regs[1:], reg[value[root]]


class _Backend:
    """An op table over one number type, and the loop that runs programs.

    ops is the table, or a function that builds it on first use.  lift
    turns a constant into the backend's number type.  A tree is
    value-numbered once, whichever backend asks first, and bound to each
    backend's table once; both programs are cached on the node outside
    its fields (two threads may both store one; the copies are equal).
    """

    def __init__(self, name, ops, lift=float):
        self.attr, self._ops, self.lift = "_code_" + name, ops, lift

    @property
    def ops(self) -> dict:
        if callable(self._ops):
            self._ops = self._ops()
        return self._ops

    def _bind(self, e):
        code, regs, out = (e.__dict__.get("_numbered")
                           or e.__dict__.setdefault("_numbered", _compile(e)))
        ops = self.ops
        return ([(ops[op], i, j, k) for op, i, j, k in code],
                [r if r is None else self.lift(r) for r in regs], out)

    def run(self, e, x):
        """e's value at x."""
        code, regs, out = (e.__dict__.get(self.attr)
                           or e.__dict__.setdefault(self.attr, self._bind(e)))
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


def _ieee(fn, value):
    """fn, giving value where math raises instead: IEEE 754's NaN for sin
    and cos of +-inf and inf for exp past the double range, and NaN for
    log and sqrt outside their domain."""
    def op(v):
        try:
            return fn(v)
        except (ValueError, OverflowError):
            return value
    return op


_SCALAR = _Backend("scalar", _point_ops({"sin": _ieee(math.sin, math.nan),
                                         "cos": _ieee(math.cos, math.nan),
                                         "exp": _ieee(math.exp, math.inf),
                                         "ln": math.log, "sqrt": math.sqrt, "abs": abs}, bool))
# Constants stay Python floats, which numpy broadcasts.
_ARRAY = _Backend("array", lambda: _point_ops({"sin": np.sin, "cos": np.cos, "exp": np.exp,
                                               "ln": np.log, "sqrt": np.sqrt, "abs": np.abs},
                                              np.any))


def _jet_ops(p):
    """Op table over Taylor jets, lifted from the point op table p.

    A jet is the list [u_0, ..., u_n] of a value's Taylor coefficients
    u_k = u^(k)(t)/k! at t (a float, or each point of an array), and a
    constant is the jet [c], whose higher coefficients are 0, so the
    order is the input's and one bound program serves every order.  u_0
    is p's op on the operands' u_0, so it equals evaluate's value bit for
    bit and raises p's DomainErrors.  The higher coefficients follow the
    usual recurrences (Griewank & Walther, Evaluating Derivatives, 2nd
    ed., 2008, ch. 13), abs as sign(u_0)*u.  sqrt and abs divide by their
    u_0 through p's guarded "div" at order >= 1, so a 0 there raises
    DomainError, as the symbolic derivative's division by 0 does; every
    other divisor is a u_0 that p's own op has already refused at 0.
    """
    div, times = p["div"], operator.mul

    def mul(u, v):
        w = [p["mul"](u[0], v[0])]
        if len(u) == 1 or len(v) == 1:  # a constant factor
            c, other = (u[0], v) if len(u) == 1 else (v[0], u)
            return w + [c * a for a in other[1:]]
        rv, n = v[::-1], len(v) - 1  # rv[n - k:] is v_k, ..., v_0
        return w + [sum(map(times, u, rv[n - k:])) for k in range(1, len(u))]

    def quotient(w0, u, v):  # u/v, whose coefficient 0 is w0
        w, v1 = [w0], v[1:]
        for k in range(1, max(len(u), len(v))):
            w.append(((u[k] if k < len(u) else 0.0) - sum(map(times, v1, reversed(w)))) / v[0])
        return w

    def sqrt(u):
        w0, w = p["sqrt"](u[0]), []  # w: w_1, w_2, ...
        for k in range(1, len(u)):
            w.append(div(u[k] - sum(map(times, w, reversed(w))), 2.0 * w0))
        return [w0, *w]

    def exp(u):
        du, w = [k * a for k, a in enumerate(u[1:], 1)], [p["exp"](u[0])]
        for k in range(1, len(u)):
            w.append(sum(map(times, du, reversed(w))) / k)
        return w

    def ln(u):
        w0, dw = p["ln"](u[0]), []  # dw: k*w_k for k = 1, 2, ...
        for k in range(1, len(u)):
            dw.append((k * u[k] - sum(map(times, dw, u[k - 1:0:-1]))) / u[0])
        return [w0, *[d / k for k, d in enumerate(dw, 1)]]

    def sincos(u):
        du, s, c = [k * a for k, a in enumerate(u[1:], 1)], [p["sin"](u[0])], [p["cos"](u[0])]
        for k in range(1, len(u)):
            sk = sum(map(times, du, reversed(c))) / k
            c.append(-sum(map(times, du, reversed(s))) / k)
            s.append(sk)
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


_SCALAR_JET = _Backend("jet", lambda: _jet_ops(_SCALAR.ops), lambda c: [c])
_ARRAY_JET = _Backend("array_jet", lambda: _jet_ops(_ARRAY.ops), lambda c: [c])


# Interval backends.  A value is a pair (lo, hi) enclosing a function over
# cells: of arrays (of numpy scalars, for constants) on the array table, of
# floats on the float table.  One set of rules, _interval_ops, is bound to
# numpy's primitives and to math's.  Every result is rounded outward by one
# ulp, which is rigorous for the correctly rounded + - * / sqrt and for exp,
# ln, sin, cos as long as numpy's and math's are faithfully rounded (error
# below one ulp).  On arrays the step gives np.nextafter's results bit for
# bit: on arrays of at least _STEP_MIN elements it moves each int64 bit
# pattern by one (a finite double's neighbour away from zero is the next
# pattern), and only the elements where that is wrong (zeros, infinities,
# NaN) go through np.nextafter; scalars and smaller arrays take one
# np.nextafter call, which costs less there.  Inputs are not widened, and
# neg and abs are exact.  A point constant c, held as (c, c) with one finite
# nonzero float object at both ends (as the lifts build it), times a value
# or divided by one takes two operations and two steps: the sign of c says
# which product or quotient is the lower end, so the bits equal the
# four-operation hull's.  The exception is a NaN bound in, which may come
# out on one bound only; that still marks the cell.  A square computes each
# end's square once.  NaN marks "undefined somewhere on the cell": an op
# that leaves its domain on part of a cell yields NaN, and every op maps a
# NaN bound to a NaN bound, so the mark survives to the end, where enclose()
# turns the cell into (-inf, inf).  enclose() runs a program over blocks of
# at most _BLOCK cells, so its temporaries stay in cache.

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


def _point(u):
    """Is u a point constant (c, c): one finite, nonzero float object?"""
    c = u[0]
    return c is u[1] and isinstance(c, float) and 0.0 < abs(c) < math.inf


_TWO_PI = 2.0 * math.pi


def _interval_ops(where, minimum, maximum, down, up, isnan, floor, ceil, abs,
                  sin, cos, exp, log, sqrt):
    """The interval op table over one number type, written once over its
    primitives, which the ops read as closure variables: where(m, a, b),
    minimum and maximum (a NaN operand wins, b on a tie), down and up (one
    ulp toward -inf and inf), isnan, floor, ceil, abs, and the elementary
    functions, with NaN and inf where they leave their domain or range."""
    nan = math.nan

    def hull(p, q, r, s):
        return (down(minimum(minimum(p, q), minimum(r, s))),
                up(maximum(maximum(p, q), maximum(r, s))))

    def mul(u, v):
        # u * u (the same object) is a square, which is never negative; a
        # point constant goes first, as compiled programs put it
        (a, b), (c, d) = u, v
        if u is v:
            # even-power rule: x*x on a cell straddling 0 starts at 0, not at -a*b
            aa, bb = a * a, b * b
            lo = where((a <= 0.0) & (b >= 0.0), 0.0, minimum(aa, bb))
            return maximum(down(lo), 0.0), up(maximum(aa, bb))
        if _point(u):  # a*c <= a*d when a > 0, and the other way round when a < 0
            p, q = a * c, a * d
            return (down(p), up(q)) if a > 0.0 else (down(q), up(p))
        return hull(a * c, a * d, b * c, b * d)

    def div(u, v):
        (a, b), (c, d) = u, v
        # a divisor that may reach 0, or is marked, becomes NaN at both
        # ends, so no quotient divides by 0 (which raises on floats)
        away = (c > 0.0) | (d < 0.0)
        c, d = where(away, c, nan), where(away, d, nan)
        if _point(u):  # a/d <= a/c when a > 0, and the other way round when a < 0
            p, q = a / c, a / d
            return (down(q), up(p)) if a > 0.0 else (down(p), up(q))
        return hull(a / c, a / d, b / c, b / d)

    def may_contain(a, b, phase):
        # Might [a, b] contain phase + 2*pi*k for an integer k?  math.pi is
        # not pi and the quotients round, so both ends widen by far more
        # than the error (a few ulps of the quotient): it may answer yes
        # wrongly, never no.  NaN ends answer no.
        qa, qb = (a - phase) / _TWO_PI, (b - phase) / _TWO_PI
        return floor(qb + 1e-15 * (1.0 + abs(qb))) >= ceil(qa - 1e-15 * (1.0 + abs(qa)))

    def periodic(fn, peak):  # sin or cos: maxima at peak + 2 pi k, minima half a period on
        def op(u):
            a, b = u
            fa, fb = fn(a), fn(b)
            lo = where(may_contain(a, b, peak + math.pi), -1.0,
                       maximum(down(minimum(fa, fb)), -1.0))
            hi = where(may_contain(a, b, peak), 1.0, minimum(up(maximum(fa, fb)), 1.0))
            return lo, hi
        return op

    return {
        "neg": lambda u: (-u[1], -u[0]),
        "add": lambda u, v: (down(u[0] + v[0]), up(u[1] + v[1])),
        "sub": lambda u, v: (down(u[0] - v[1]), up(u[1] - v[0])),
        "mul": mul,
        "div": div,
        "recip": lambda v: div((1.0, 1.0), v),
        "one": lambda u: (where(isnan(u[0]) | isnan(u[1]), nan, 1.0),) * 2,
        "sin": periodic(sin, math.pi / 2),
        "cos": periodic(cos, 0.0),
        "exp": lambda u: (maximum(down(exp(u[0])), 0.0), up(exp(u[1]))),
        "ln": lambda u: (down(log(where(u[0] > 0.0, u[0], nan))), up(log(u[1]))),
        "sqrt": lambda u: (maximum(down(sqrt(u[0])), 0.0), up(sqrt(u[1]))),
        "abs": lambda u: (where(u[0] > 0.0, u[0], where(u[1] < 0.0, -u[1], 0.0)),
                          maximum(-u[0], u[1])),
    }


def _pair(c):
    c = np.float64(c)  # a numpy scalar, which _down and _up step
    return (c, c)


_INTERVAL = _Backend("interval", lambda: _interval_ops(
    np.where, np.minimum, np.maximum, _down, _up, np.isnan, np.floor, np.ceil, np.abs,
    np.sin, np.cos, np.exp, np.log, np.sqrt), _pair)


# np.minimum and np.maximum on floats: a NaN operand wins (Python's min(1,
# nan) is 1), and b on a tie, so 0.0 and -0.0 come out as numpy's do
def _fmin(a, b):
    return a if a < b or a != a else b


def _fmax(a, b):
    return a if a > b or a != a else b


def _fround(fn):
    """math.floor or math.ceil, with inf and NaN given back (math raises)."""
    return lambda v: fn(v) if -math.inf < v < math.inf else v


# math.log gives NaN at 0, where numpy gives -inf, but only on a cell that
# its lower end has marked already.
_FLOAT_INTERVAL = _Backend("float_interval", lambda: _interval_ops(
    lambda m, a, b: a if m else b, _fmin, _fmax,
    lambda v: math.nextafter(v, -math.inf), lambda v: math.nextafter(v, math.inf),
    math.isnan, _fround(math.floor), _fround(math.ceil), abs,
    _ieee(math.sin, math.nan), _ieee(math.cos, math.nan), _ieee(math.exp, math.inf),
    _ieee(math.log, math.nan), _ieee(math.sqrt, math.nan)), lambda c: (c, c))


def iadd(u, v):
    """Enclosure of u + v for (lo, hi) pairs of arrays."""
    return _INTERVAL.ops["add"](u, v)


def isub(u, v):
    """Enclosure of u - v for (lo, hi) pairs of arrays."""
    return _INTERVAL.ops["sub"](u, v)


def imul(u, v):
    """Enclosure of u * v for (lo, hi) pairs of arrays; u * u (the same
    object) is a square, and a point constant goes first."""
    return _INTERVAL.ops["mul"](u, v)


def evaluate(e: Expr, x: Number) -> Number:
    """Evaluate `e` at `x` (float or numpy array of floats).

    Raises DomainError when the point leaves the natural domain:
    division by zero, ln of a non-positive number, sqrt of a negative
    number, or zero raised to a negative power.  Overflow gives +-inf and
    sin, cos of +-inf give NaN, silently, in both backends.
    """
    return _run_point(e, x, _SCALAR, _ARRAY)


def jet(e: Expr, t: Number, n: int) -> list:
    """Taylor coefficients [e(t), e'(t), ..., e^(n)(t)/n!] of e at t
    (float or numpy array of floats), from one run of e's program on
    jets (_jet_ops).

    Coefficient 0 is evaluate(e, t) bit for bit.  Raises DomainError
    where evaluate does, and at n >= 1 where sqrt or abs meets 0, where
    the symbolic derivative divides by 0 too (unless it folds to a
    constant, as d/dx of sqrt(x - x) does to 0).
    """
    if n < 0:
        raise PreconditionError("jet order must be nonnegative")
    return _run_point(e, t, _SCALAR_JET, _ARRAY_JET, n)


def _run_point(e, x, scalar, array, n=None):
    """e's program run at a float or int x on scalar's table, or at a numpy
    array x on array's, whose results come back as arrays of x's shape.
    With an order n the tables are jet tables: x goes in, and e comes
    out, as a jet of order n."""
    if not isinstance(x, (float, int)):
        numpy = sys.modules.get("numpy")  # while numpy is not loaded, x is no array
        if numpy is not None and isinstance(x, numpy.ndarray):
            x = numpy.asarray(x, dtype=float)
            # Overflow, inf - inf and sin(inf) give IEEE values without
            # warnings; the guards have already raised for every division by 0.
            with numpy.errstate(all="ignore"):
                if n is None:
                    out = array.run(e, x)
                    return out if isinstance(out, numpy.ndarray) else numpy.full_like(x, out)
                out = _run_jet(array, e, x, n)
            return [v if isinstance(v, numpy.ndarray) else numpy.full_like(x, v) for v in out]
    x = float(x)
    return scalar.run(e, x) if n is None else _run_jet(scalar, e, x, n)


def _run_jet(backend, e, t, n):
    out = backend.run(e, [t, 1.0, *[0.0] * (n - 1)][:n + 1])  # x is t + (x - t)
    return out + [0.0] * (n + 1 - len(out))  # a constant's higher coefficients are 0


def enclose(e: Expr, lo: Number, hi: Number) -> Tuple[Number, Number]:
    """Enclosures of e over the cells [lo[i], hi[i]] (arrays of one shape,
    lo <= hi), or over the one cell [lo, hi] (floats).  A reversed cell
    (lo > hi) raises PreconditionError; a NaN end marks its cell.

    Returns (inf, sup) with inf <= e(x) <= sup for every x in a cell, as
    arrays or as floats: the natural interval extension of the tree,
    rounded outward by one ulp per op (on the bit patterns of large
    arrays, with results equal to np.nextafter's).  A cell on which some
    op leaves its domain (a divisor reaching 0, ln reaching <= 0, sqrt
    reaching < 0, 0 to a negative power) gets the unbounded enclosure
    (-inf, inf) instead of raising.  Negation is exact, so enclose(-e) is
    (-sup, -inf) bit for bit.  Float ends run the float table, on math
    and Python floats, with no numpy; arrays run over blocks of at most
    _BLOCK cells, so the temporaries stay in cache, and every op works
    cell by cell, so the results equal those of one run over all cells.
    """
    if isinstance(lo, (float, int)) and isinstance(hi, (float, int)):
        if lo > hi:
            raise PreconditionError(f"enclose needs lo <= hi, got the cell [{lo}, {hi}]")
        low, high = _FLOAT_INTERVAL.run(e, (float(lo), float(hi)))
        return (-math.inf, math.inf) if low != low or high != high else (low, high)
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    inf, sup = np.empty(lo.shape), np.empty(lo.shape)
    flat_lo, flat_hi, flat_inf, flat_sup = (a.reshape(-1) for a in (lo, hi, inf, sup))
    if np.count_nonzero(flat_lo > flat_hi):  # cheaper than .any() on small arrays
        k = int(np.argmax(flat_lo > flat_hi))
        raise PreconditionError(f"enclose needs lo <= hi, got the cell "
                                f"[{flat_lo[k]}, {flat_hi[k]}] at flat index {k}")
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

    Every tree of the grammar differentiates.  d|u| is (u/|u|) u', exact
    wherever u != 0; where u = 0 the point backends raise DomainError on
    the division, and the interval backend encloses it as (-inf, inf) on
    any cell whose enclosure of u reaches 0.  d/dx is cached on each
    node, so shared subtrees stay shared and a derivative already taken
    costs nothing.
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
    "abs": lambda u, du: mul(div(u, func("abs", u)), du),
}


def _rule(e: Expr) -> Expr:
    """d/dx of e, from the derivatives cached on its children.

    A node whose children all differentiate to the constant 0, as every
    subtree free of x does, differentiates to 0 before any rule multiplies
    its constants, which may have overflowed (d/dx of 1e-300^-2 would be
    -2*inf*0 = nan).
    """
    if isinstance(e, Var):
        return Const(1.0)
    for kid in e._kids:
        if type(kid._deriv) is not Const or kid._deriv.value != 0.0:
            break
    else:  # no child's derivative is other than 0
        return Const(0.0)
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
    return _CHAIN[e.name](e.arg, e.arg._deriv)  # a Func


# ---------------------------------------------------------------------------
# printing

# How tightly each node binds, for parenthesising: atoms 5
_PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 3, Pow: 4}
_BINARY = {"+": Add, "-": Sub, "*": Mul, "/": Div}
_INFIX = {cls: op if op in "*/" else f" {op} " for op, cls in _BINARY.items()}


# the text of a non-finite constant, by its repr: the grammar has no inf or nan
_NON_FINITE = {"inf": "1e400", "-inf": "-1e400", "nan": "(1e400 - 1e400)"}


def _prec(e: Expr) -> int:
    if isinstance(e, Const) and math.copysign(1.0, e.value) < 0:  # -0.0 prints a minus too
        return _PREC[Neg]
    return _PREC.get(type(e), 5)


def to_text(e: Expr) -> str:
    """Render to grammar-conformant text; parse(to_text(e)) evaluates like e.

    Each node's text is built from its children's, which are dropped
    after their last reader.  The grammar has no inf or nan, so a
    non-finite constant prints as text that evaluates to it: 1e400 for
    inf, -1e400 for -inf and (1e400 - 1e400) for NaN.
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
            text = _NON_FINITE.get(repr(node.value), repr(node.value))
        elif t is Var:
            text = "x"
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

# A token is one of the grammar's (an operator, an identifier, a number) or
# any other character, after optional whitespace; findall gives the tokens'
# texts alone.  The kinds differ in their first character, so their order
# is free: the most frequent first.
_GRAMMAR = r"[-+*/^()]|[A-Za-z_]+|\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
_TOKEN = re.compile(rf"\s*({_GRAMMAR}|\S)")
_GRAMMAR_TOKEN = re.compile(_GRAMMAR)


def _error(text: str, i: int, message: str) -> ParseError:
    """The ParseError for token i of text (len(text) past the last one):
    message there, unless a character anywhere starts no token of the
    grammar, which is reported first.  Only this path reads offsets."""
    found = [(m[1], m.start(1)) for m in _TOKEN.finditer(text)]
    for token, offset in found:
        if not _GRAMMAR_TOKEN.fullmatch(token):
            return ParseError(f"unexpected character {token!r}", offset)
    return ParseError(message, found[i][1] if i < len(found) else len(text))


def parse(text: str, var_name: str = "x") -> Expr:
    """Parse expression text into a tree.

    var_name lets the sequence front end reuse the grammar with `n` as
    the variable.  Raises ParseError with the byte offset on bad input.

    One loop over the tokens with an operand stack and a stack of pending
    operators: node classes for binary operators and prefix minus (Neg),
    and "(" or a function name for each open group.  A prefix minus
    applies once its factor, with any ^ exponent, is complete; a binary
    operator first applies the pending ones that bind at least as tightly.
    A token's text tells its kind: only operators are - + * / ^ ( ), only
    numbers start with a digit or with "." and a digit, and "" ends the
    input.  A character that starts no token is never consumed, so it
    surfaces as an error, which _error reports first.
    """
    tokens, i, operands, pending, depth = _TOKEN.findall(text) + [""], 0, [], [], 0

    def reduce(prec):
        while pending and pending[-1] in _INFIX and _PREC[pending[-1]] >= prec:
            right = operands.pop()
            operands[-1] = pending.pop()(operands[-1], right)

    while True:
        # operand position: prefix minuses and group openers, then one atom
        value = tokens[i]
        i += 1
        if value in ("-", "("):
            pending.append(Neg if value == "-" else "(")
            depth += value == "("
            continue
        if value in FUNCTIONS and value != var_name:
            if tokens[i] != "(":
                raise _error(text, i, "expected '('")
            i += 1
            pending.append(value)
            depth += 1
            continue
        if value[:1].isdecimal() or value[1:2].isdecimal():
            operands.append(Const(float(value)))
        elif value == var_name:
            operands.append(X)
        elif value.isidentifier():
            raise _error(text, i - 1, f"unknown identifier {value!r}")
        else:
            raise _error(text, i - 1, f"unexpected token {value!r}" if value
                         else "unexpected end of input")
        # operator position: a base is complete, so take its exponent and the
        # prefix minuses before it, then close a group or read an operator
        while True:
            if tokens[i] == "^":
                minus = tokens[i + 1] == "-"
                value = tokens[i + 1 + minus]
                if not value.isdecimal():
                    raise _error(text, i + 1 + minus, "expected integer exponent")
                i += 2 + minus
                operands[-1] = Pow(operands[-1], -int(value) if minus else int(value))
            while pending and pending[-1] is Neg:
                operands[-1] = pending.pop()(operands[-1])
            value = tokens[i]
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
            if depth or value:
                raise _error(text, i - 1, "expected ')'" if depth else f"trailing input {value!r}")
            reduce(0)
            return operands[0]


_COMPARATORS = {"<=": operator.le, ">=": operator.ge, "<": operator.lt, ">": operator.gt}


class Predicate(NamedTuple):
    """A comparison of two trees; called at x, the bool of comparing
    evaluate(lhs, x) with evaluate(rhs, x) by op, one of <=, >=, <, >."""

    lhs: Expr
    op: str
    rhs: Expr

    def __call__(self, x: float) -> bool:
        return bool(_COMPARATORS[self.op](evaluate(self.lhs, x), evaluate(self.rhs, x)))


def parse_predicate(text: str) -> Predicate:
    """Parse a comparison of two expressions, e.g. 'x*x < 2'.

    text splits at the first comparator found, looking for <=, >=, < and
    > in that order.  Offsets of a ParseError count from the start of
    text: the right side is parsed with what comes before it blanked out,
    which the grammar reads as whitespace.
    """
    for op in _COMPARATORS:
        pos = text.find(op)
        if pos >= 0:
            end = pos + len(op)
            return Predicate(parse(text[:pos]), op, parse(" " * end + text[end:]))
    raise ParseError("predicate needs a comparison (<, <=, >, >=)", 0)
