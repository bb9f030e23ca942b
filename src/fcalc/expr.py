"""Expression trees for real functions of one variable.

Grammar (whitespace insignificant)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | base ('^' integer)?
    base   := number | 'x' | ident '(' expr ')' | '(' expr ')'

with ident one of sin, cos, exp, ln, sqrt, abs.  Unary minus binds looser
than ``^``, as usual: -x^2 is -(x^2), and (-x)^2 reads as written.
Exponents are integer literals only, so symbolic differentiation stays
closed form.  Trees are frozen dataclasses: structurally equal trees
evaluate identically, and sharing between threads is safe.

Evaluation compiles a tree once per backend (``math`` floats, numpy
arrays, and pairs of numpy arrays for interval enclosures) into a
straight-line program cached on the root node outside the dataclass
fields, so equality, hashing, printing and pickling never see it.
Compiling numbers values: each structurally distinct subtree gets one
slot, keyed by its op and its operands' slots (constants by value and
sign, so 0.0 and -0.0 differ), in a walk memoised by object id.  Integer
powers become repeated squaring (u^0 an op that reads u and gives 1, so
u's domain still counts), and registers are reused after a value's last
reader, so few array temporaries are alive at once.  Each backend is an
op table.  The two point backends share one set of domain checks, and a
scalar point where ``math`` raises instead of giving NaN or inf is re-run
on numpy, so both follow IEEE 754; the interval backend (``enclose``)
marks a cell where an op leaves its domain instead of raising.
``differentiate`` memoises by object id, so shared subtrees stay shared.

numpy is imported on first use: by an array or interval call, or by the
scalar re-run on numpy.  The grammar, the printer, ``differentiate`` and
the scalar backend never need it, so ``fc parse`` and ``fc eval`` start
without it.
"""

from __future__ import annotations

import math
import operator
import re
import sys
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


@dataclass(frozen=True)
class Expr:
    """Base node; concrete nodes are the dataclasses below."""

    def __call__(self, x: Number) -> Number:
        return evaluate(self, x)

    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, n: int):
        return pow_(self, n)

    def __str__(self):
        return to_text(self)

    def __getstate__(self):
        # Compiled programs cached on the node by evaluate() are not state.
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_")}


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    pass


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True)
class Func(Expr):
    name: str
    arg: Expr


X = Var()


def _coerce(v) -> Expr:
    if isinstance(v, Expr):
        return v
    return Const(float(v))


# ---------------------------------------------------------------------------
# smart constructors (local constant folding only)

def const(v: float) -> Const:
    return Const(float(v))


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
    if isinstance(u, Const):
        if u.value == 0.0:
            return Const(0.0)
        if u.value == 1.0:
            return v
    if isinstance(v, Const):
        if v.value == 0.0:
            return Const(0.0)
        if v.value == 1.0:
            return u
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


def _compile(root: Expr, ops: dict):
    """Straight-line program (code, registers, result register) for root.

    Values are x = 0, constants -1, -2, ... (held in register -v) and
    instructions 1, 2, ...; an instruction is keyed by its op and operand
    values, a constant by its value and sign.  Instruction (fn, i, j, k)
    stores fn(r[i]), or fn(r[i], r[j]) when j >= 0, into register k, with
    fn taken from the backend's op table; registers is r without r[0] = x.
    """
    consts, code, number, seen = [], [], {}, {}

    def emit(op, a, b=None):
        if op in ("add", "mul") and b < a:
            a, b = b, a
        v = number.setdefault((op, a, b), len(code) + 1)
        if v > len(code):
            code.append((op, a, b))
        return v

    def visit(e):
        if id(e) in seen:
            return seen[id(e)]
        t = type(e)
        if t in (Add, Sub, Mul, Div):
            v = emit(t.__name__.lower(), visit(e.left), visit(e.right))
        elif t is Const:
            v = number.setdefault((e.value, math.copysign(1.0, e.value)), -len(consts) - 1)
            if v < -len(consts):
                consts.append(e.value)
        elif t is Var:
            v = 0
        elif t is Neg or (t is Func and e.name in FUNCTIONS):
            v = emit("neg" if t is Neg else e.name, visit(e.arg))
        elif t is Pow:  # repeated squaring, of the reciprocal if n < 0
            b, n = visit(e.base), e.exponent
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
        seen[id(e)] = v
        return v

    root_value = visit(root)
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
# outward by one ulp with np.nextafter, which is rigorous for the correctly
# rounded + - * / sqrt and for exp, ln, sin, cos as long as numpy's are
# faithfully rounded (error below one ulp).  Inputs are not widened, and
# neg and abs are exact.  NaN marks "undefined somewhere on the cell": an
# op that leaves its domain on part of a cell yields NaN, and every op maps
# a NaN bound to a NaN bound, so the mark survives to the end, where
# enclose() turns the cell into (-inf, inf).

def _down(v):
    return np.nextafter(v, -np.inf)


def _up(v):
    return np.nextafter(v, np.inf)


def _hull(p, q, r, s):
    return (_down(np.minimum(np.minimum(p, q), np.minimum(r, s))),
            _up(np.maximum(np.maximum(p, q), np.maximum(r, s))))


def iadd(u, v):
    """Enclosure of u + v for (lo, hi) pairs."""
    return _down(u[0] + v[0]), _up(u[1] + v[1])


def isub(u, v):
    """Enclosure of u - v for (lo, hi) pairs."""
    return _down(u[0] - v[1]), _up(u[1] - v[0])


def imul(u, v):
    """Enclosure of u * v for (lo, hi) pairs; u * u (the same object) is a
    square, which is never negative."""
    (a, b), (c, d) = u, v
    if u is v:
        # even-power rule: x*x on a cell straddling 0 starts at 0, not at -a*b
        lo = np.where((a <= 0.0) & (b >= 0.0), 0.0, np.minimum(a * a, b * b))
        return np.maximum(_down(lo), 0.0), _up(np.maximum(a * a, b * b))
    return _hull(a * c, a * d, b * c, b * d)


def _idiv(u, v):
    (a, b), (c, d) = u, v
    c = np.where((c <= 0.0) & (d >= 0.0), np.nan, c)  # the divisor reaches 0
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
    """Enclosures of e over the cells [lo[i], hi[i]] (arrays, lo <= hi).

    Returns arrays (inf, sup) with inf <= e(x) <= sup for every x in a
    cell: the natural interval extension of the tree, rounded outward.
    A cell on which some op leaves its domain (a divisor reaching 0, ln
    reaching <= 0, sqrt reaching < 0, 0 to a negative power) gets the
    unbounded enclosure (-inf, inf) instead of raising.  Negation is
    exact, so enclose(-e) is (-sup, -inf) bit for bit.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    with np.errstate(all="ignore"):
        inf, sup = _INTERVAL.run(e, (lo, hi))
    undefined = np.broadcast_to(np.isnan(inf) | np.isnan(sup), lo.shape)
    return np.where(undefined, -np.inf, inf), np.where(undefined, np.inf, sup)


# ---------------------------------------------------------------------------
# symbolic differentiation

def differentiate(e: Expr, n: int = 1) -> Expr:
    """Symbolic n-th derivative.  n=0 returns the expression itself.

    abs is parseable but rejected here with NonDifferentiableError.
    """
    if n < 0:
        raise PreconditionError("derivative order must be nonnegative")
    out = e
    for _ in range(int(n)):
        out = _d(out, {})
    return out


def _d(e: Expr, memo: dict) -> Expr:
    """d/dx of e, once per distinct object: memo maps id(node) -> derivative."""
    if id(e) not in memo:
        memo[id(e)] = _rule(e, memo)
    return memo[id(e)]


def _rule(e: Expr, memo: dict) -> Expr:
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0)
    if isinstance(e, Neg):
        return neg(_d(e.arg, memo))
    if isinstance(e, Add):
        return add(_d(e.left, memo), _d(e.right, memo))
    if isinstance(e, Sub):
        return sub(_d(e.left, memo), _d(e.right, memo))
    if isinstance(e, Mul):
        # product rule, f'g + g'f
        return add(mul(_d(e.left, memo), e.right), mul(_d(e.right, memo), e.left))
    if isinstance(e, Div):
        num = sub(mul(_d(e.left, memo), e.right), mul(_d(e.right, memo), e.left))
        return div(num, pow_(e.right, 2))
    if isinstance(e, Pow):
        inner = mul(const(e.exponent), pow_(e.base, e.exponent - 1))
        return mul(inner, _d(e.base, memo))
    if isinstance(e, Func):
        u, du = e.arg, _d(e.arg, memo)
        if e.name == "sin":
            return mul(func("cos", u), du)
        if e.name == "cos":
            return neg(mul(func("sin", u), du))
        if e.name == "exp":
            return mul(func("exp", u), du)
        if e.name == "ln":
            return div(du, u)
        if e.name == "sqrt":
            return div(du, mul(const(2.0), func("sqrt", u)))
        raise NonDifferentiableError(f"cannot differentiate node {e.name!r}")
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# printing

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(e: Expr) -> int:
    if isinstance(e, (Add, Sub)):
        return _PREC_ADD
    if isinstance(e, (Mul, Div)):
        return _PREC_MUL
    if isinstance(e, Neg):
        return _PREC_NEG
    if isinstance(e, Pow):
        return _PREC_POW
    if isinstance(e, Const) and math.copysign(1.0, e.value) < 0:  # -0.0 prints a minus too
        return _PREC_NEG
    return _PREC_ATOM


def _wrap(e: Expr, minimum: int) -> str:
    text = to_text(e)
    if _prec(e) < minimum:
        return f"({text})"
    return text


def to_text(e: Expr, var_name: str = "x") -> str:
    """Render to grammar-conformant text; parse(to_text(e)) evaluates like e."""
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Var):
        return var_name
    if isinstance(e, Neg):
        # unary minus binds looser than ^, so Neg(Pow(x, 2)) prints -x^2
        return f"-{_wrap(e.arg, _PREC_NEG)}"
    if isinstance(e, Add):
        return f"{_wrap(e.left, _PREC_ADD)} + {_wrap(e.right, _PREC_ADD + 1)}"
    if isinstance(e, Sub):
        return f"{_wrap(e.left, _PREC_ADD)} - {_wrap(e.right, _PREC_ADD + 1)}"
    if isinstance(e, Mul):
        return f"{_wrap(e.left, _PREC_MUL)}*{_wrap(e.right, _PREC_MUL + 1)}"
    if isinstance(e, Div):
        return f"{_wrap(e.left, _PREC_MUL)}/{_wrap(e.right, _PREC_MUL + 1)}"
    if isinstance(e, Pow):
        return f"{_wrap(e.base, _PREC_ATOM)}^{e.exponent}"
    if isinstance(e, Func):
        return f"{e.name}({to_text(e.arg, var_name)})"
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# recursive-descent parser

_TOKEN_RE = re.compile(
    r"""
    (?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
    | (?P<ident>[A-Za-z_]+)
    | (?P<op>[-+*/^()])
    """,
    re.VERBOSE,
)


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.tokens = []
        pos = 0
        while pos < len(text):
            if text[pos].isspace():
                pos += 1
                continue
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            kind = m.lastgroup
            self.tokens.append((kind, m.group(), pos))
            pos = m.end()
        self.i = 0

    def peek(self):
        if self.i < len(self.tokens):
            return self.tokens[self.i]
        return ("eof", "", len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, value, offset = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", offset)
        return self.next()


def parse(text: str, var_name: str = "x") -> Expr:
    """Parse expression text into a tree.

    var_name lets the sequence front end reuse the grammar with `n` as
    the variable.  Raises ParseError with the byte offset on bad input.
    """
    toks = _Tokens(text)
    e = _parse_expr(toks, var_name)
    kind, value, offset = toks.peek()
    if kind != "eof":
        raise ParseError(f"trailing input {value!r}", offset)
    return e


def _parse_expr(toks, var_name):
    e = _parse_term(toks, var_name)
    while True:
        kind, value, _ = toks.peek()
        if kind == "op" and value in "+-":
            toks.next()
            rhs = _parse_term(toks, var_name)
            e = Add(e, rhs) if value == "+" else Sub(e, rhs)
        else:
            return e


def _parse_term(toks, var_name):
    e = _parse_factor(toks, var_name)
    while True:
        kind, value, _ = toks.peek()
        if kind == "op" and value in "*/":
            toks.next()
            rhs = _parse_factor(toks, var_name)
            e = Mul(e, rhs) if value == "*" else Div(e, rhs)
        else:
            return e


def _parse_factor(toks, var_name):
    kind, value, _ = toks.peek()
    if kind == "op" and value == "-":
        toks.next()
        return Neg(_parse_factor(toks, var_name))
    base = _parse_base(toks, var_name)
    kind, value, _ = toks.peek()
    if kind == "op" and value == "^":
        toks.next()
        base = Pow(base, _parse_integer(toks))
    return base


def _parse_integer(toks):
    sign = 1
    kind, value, offset = toks.peek()
    if kind == "op" and value == "-":
        toks.next()
        sign = -1
        kind, value, offset = toks.peek()
    if kind != "num" or not value.isdigit():
        raise ParseError("expected integer exponent", offset)
    toks.next()
    return sign * int(value)


def _parse_base(toks, var_name):
    kind, value, offset = toks.next()
    if kind == "num":
        return Const(float(value))
    if kind == "ident":
        if value == var_name:
            return Var()
        if value in FUNCTIONS:
            toks.expect_op("(")
            inner = _parse_expr(toks, var_name)
            toks.expect_op(")")
            return Func(value, inner)
        raise ParseError(f"unknown identifier {value!r}", offset)
    if kind == "op" and value == "(":
        inner = _parse_expr(toks, var_name)
        toks.expect_op(")")
        return inner
    raise ParseError(f"unexpected token {value!r}" if value else "unexpected end of input", offset)
