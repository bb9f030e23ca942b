import gc
import hashlib
import math
import pickle
import struct
import sys
import threading
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fcalc import expr as E
from fcalc.errors import DomainError, ParseError, PreconditionError
from helpers import (expr_trees, fields_of, mp_eval, oracle_jet_ops, oracle_parse,
                     random_smooth_expr, value_instances)


def test_parse_examples():
    assert E.evaluate(E.parse("x^2 - 2"), 2.0) == 2.0
    assert E.evaluate(E.parse("3"), 17.0) == 3.0
    with pytest.raises(DomainError):
        E.evaluate(E.parse("sin(x)/x"), 0.0)


def test_eval_examples():
    assert E.evaluate(E.parse("x^3"), 2.0) == 8.0
    assert E.evaluate(E.parse("exp(x)"), 0.0) == 1.0
    assert E.evaluate(E.parse("x*(1-x)"), 0.5) == 0.25


def test_domain_errors():
    with pytest.raises(DomainError):
        E.evaluate(E.parse("ln(x)"), 0.0)
    with pytest.raises(DomainError):
        E.evaluate(E.parse("ln(x)"), -1.0)
    with pytest.raises(DomainError):
        E.evaluate(E.parse("sqrt(x)"), -1.0)
    with pytest.raises(DomainError):
        E.evaluate(E.parse("x^-1"), 0.0)
    with pytest.raises(DomainError):
        E.evaluate(E.parse("1/x"), np.array([1.0, 0.0]))


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as err:
        E.parse("x^")
    assert err.value.offset == 2
    with pytest.raises(ParseError):
        E.parse("foo(x)")
    with pytest.raises(ParseError):
        E.parse("x + ")
    with pytest.raises(ParseError):
        E.parse("(x + 1")
    with pytest.raises(ParseError):
        E.parse("x 1")


def test_predicate_errors_carry_offsets_into_the_whole_text():
    for text, offset in [("x < 2 +", 7), ("x < 2 @", 6), ("x @ < 2", 2), ("x <= ", 5), ("x", 0)]:
        with pytest.raises(ParseError) as err:
            E.parse_predicate(text)
        assert err.value.offset == offset, text


def test_differentiate_examples():
    assert E.evaluate(E.differentiate(E.parse("x^3"), 1), 2.0) == 12.0
    d = E.differentiate(E.parse("4.25"), 1)
    assert all(E.evaluate(d, t) == 0.0 for t in (-3.0, 0.0, 11.0))
    assert E.evaluate(E.differentiate(E.parse("exp(x)"), 3), 0.0) == 1.0
    # the rule for u^0 builds 0^-1, which folding raised on as DomainError
    assert E.differentiate(E.parse("0^0"), 1) is E.Const(0.0)


def test_differentiate_order_zero_is_identity():
    e = E.parse("sin(x) + x^2")
    assert E.differentiate(e, 0) is e


def test_abs_differentiates_to_its_sign():
    e = E.parse("abs(x - 0.3)")
    d = E.differentiate(e, 1)
    assert E.to_text(d) == "(x - 0.3)/abs(x - 0.3)"
    assert (E.evaluate(d, -2.0), E.evaluate(d, 0.5)) == (-1.0, 1.0)
    with pytest.raises(DomainError):   # no derivative at the kink
        E.evaluate(d, 0.3)
    assert E.differentiate(E.parse("abs(2.5)"), 1) is E.Const(0.0)


@settings(max_examples=200, deadline=None)
@given(expr_trees((0.0, 1.0, -1.0, 2.5, 1e-300, 1e300, -0.0), max_leaves=8, var=False))
def test_every_tree_without_x_differentiates_to_the_constant_0(tree):
    # the product and chain rules multiplied overflowed constants: d/dx of
    # 1/1e-300^-2 was nan/(1e-300^-2)^2
    assert E.differentiate(tree, 1) is E.Const(0.0)
    assert E.differentiate(E.add(E.X, tree), 2) is E.Const(0.0)


def test_a_constant_subtree_differentiates_to_0_before_its_constants_multiply():
    assert E.to_text(E.differentiate(E.parse("1/1e-300^-2"), 1)) == "0.0"
    assert E.to_text(E.differentiate(E.parse("x + 1/1e-300^-2"), 1)) == "1.0"
    assert E.to_text(E.differentiate(E.parse("x*1e-300^-2"), 1)) == "1e-300^-2"


@settings(max_examples=300, deadline=None)
@given(expr_trees((0.0, 1.0, -1.0, 2.5), max_leaves=6),
       st.floats(-2.0, 2.0).filter(lambda x: x == 0.0 or abs(x) >= 2**-20))
def test_derivatives_match_mpmath_where_they_evaluate(tree, x):
    # every tree differentiates, abs included (and abs(tree) puts one in
    # every example); where e and e' evaluate at x and e' encloses finitely
    # on [x, x] (so every divisor, abs's included, is proven nonzero
    # there), the enclosure holds mpmath's derivative
    import mpmath as mp

    mp.mp.dps = 40
    for e in (tree, E.func("abs", tree)):
        d = E.differentiate(e, 1)
        try:
            if not (math.isfinite(E.evaluate(e, x)) and math.isfinite(E.evaluate(d, x))):
                continue
        except DomainError:
            continue
        inf, sup = (float(v[0]) for v in E.enclose(d, np.array([x]), np.array([x])))
        if not (math.isfinite(inf) and math.isfinite(sup)):
            continue
        # the step, 2^-150, lies far inside the distance from x to any kink
        # or pole of e: at least 2^-20 from one at 0, ~1e-17 from one elsewhere
        want = mp.diff(lambda t: mp_eval(e, t, mp), mp.mpf(x), h=mp.ldexp(1, -150))
        slack = 1e-12 * (1 + abs(want))
        assert inf - slack <= want <= sup + slack


@pytest.mark.parametrize("q", [0.3, -1.25, 0.0, 1e-300])
@pytest.mark.parametrize("left, right", [(0.1, 0.2), (0.0, 1.0), (1e-9, 0.0)])
def test_the_kink_cell_of_abs_encloses_f2_as_the_real_line(q, left, right):
    # f'' of abs(x - q) is 0 off the kink and undefined at it: a cell that
    # holds the kink gets (-inf, inf), so callers fall back to f's own
    # enclosure there; a cell beside it stays finite
    f2 = E.differentiate(E.func("abs", E.sub(E.X, E.const(q))), 2)
    lo, hi = np.array([q - left, q + 0.5]), np.array([q + right, q + 1.0])
    inf, sup = E.enclose(f2, lo, hi)
    assert (inf[0], sup[0]) == (-math.inf, math.inf)
    assert math.isfinite(inf[1]) and math.isfinite(sup[1])


def test_structural_equality_and_immutability():
    assert E.parse("x^2 + 1") == E.parse("x^2 + 1")
    e = E.parse("x")
    with pytest.raises(AttributeError):
        e.value = 3  # frozen
    # nodes and every value class refuse assignment to a field, or a new attribute
    for v in [E.parse("sin(x) + 2"), *value_instances()]:
        for name in (*fields_of(v), "extra"):
            with pytest.raises(AttributeError):
                setattr(v, name, 0)
            with pytest.raises(AttributeError):
                delattr(v, name)


def test_array_eval_matches_scalar_eval():
    rng = np.random.default_rng(5)
    for _ in range(20):
        e = random_smooth_expr(rng)
        xs = rng.uniform(-2, 2, 7)
        arr = E.evaluate(e, xs)
        for x, v in zip(xs, arr):
            assert math.isclose(E.evaluate(e, float(x)), float(v), rel_tol=1e-12, abs_tol=1e-12)


def test_print_parse_round_trip_on_random_trees():
    rng = np.random.default_rng(17)
    for _ in range(40):
        e = random_smooth_expr(rng)
        back = E.parse(E.to_text(e))
        xs = rng.uniform(-2, 2, 100)
        assert np.allclose(E.evaluate(e, xs), E.evaluate(back, xs), rtol=0, atol=0)


def test_sum_and_product_rules_evaluate_equal():
    rng = np.random.default_rng(23)
    for _ in range(15):
        e1 = random_smooth_expr(rng)
        e2 = random_smooth_expr(rng)
        xs = rng.uniform(-2, 2, 100)
        d_sum = E.evaluate(E.differentiate(E.add(e1, e2), 1), xs)
        d_parts = E.evaluate(E.differentiate(e1, 1), xs) + E.evaluate(E.differentiate(e2, 1), xs)
        scale = 1 + np.abs(d_parts)
        assert np.all(np.abs(d_sum - d_parts) <= 1e-12 * scale)
        d_prod = E.evaluate(E.differentiate(E.mul(e1, e2), 1), xs)
        expect = (E.evaluate(E.differentiate(e1, 1), xs) * E.evaluate(e2, xs)
                  + E.evaluate(E.differentiate(e2, 1), xs) * E.evaluate(e1, xs))
        assert np.all(np.abs(d_prod - expect) <= 1e-12 * (1 + np.abs(expect)))


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-100, max_value=100, allow_nan=False),
       st.floats(min_value=-3, max_value=3))
def test_constant_derivative_is_zero_everywhere(c, x):
    d = E.differentiate(E.const(c), 1)
    assert E.evaluate(d, x) == 0.0


def test_alternate_variable_name():
    e = E.parse("1/n", var_name="n")
    assert E.evaluate(e, 4.0) == 0.25
    with pytest.raises(ParseError):
        E.parse("x + 1", var_name="n")


def test_negative_integer_exponent():
    assert E.evaluate(E.parse("x^-2"), 2.0) == 0.25


def test_negative_derivative_order_is_a_precondition_error():
    with pytest.raises(PreconditionError):
        E.differentiate(E.parse("x^2"), -1)


def test_integer_powers():
    x0 = E.parse("x^0")
    for t in (0.0, -0.0, math.inf, math.nan, -2.5):
        assert E.evaluate(x0, t) == 1.0
        assert E.evaluate(x0, np.array([t]))[0] == 1.0
    # repeated squaring, with a reciprocal first for negative exponents
    b = -1.7
    assert E.evaluate(E.parse("x^5"), b) == ((b * b) * (b * b)) * b
    assert E.evaluate(E.parse("x^-3"), b) == (1.0 / b) * ((1.0 / b) * (1.0 / b))
    xs = np.array([-3.0, -0.5, 0.25, 2.0])
    assert np.array_equal(E.evaluate(E.parse("x^7"), xs),
                          np.array([E.evaluate(E.parse("x^7"), float(t)) for t in xs]))
    assert E.evaluate(E.parse("x^2"), 1e300) == math.inf
    assert E.evaluate(E.parse("x^-2"), 1e-300) == math.inf
    for point in (0.0, np.array([1.0, -0.0])):
        with pytest.raises(DomainError, match="negative power"):
            E.evaluate(E.parse("x^-2"), point)


def test_sin_and_cos_of_infinity_are_nan():
    for text in ("sin(x)", "cos(x)"):
        e = E.parse(text)
        for t in (math.inf, -math.inf):
            assert math.isnan(E.evaluate(e, t))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert np.isnan(E.evaluate(e, np.array([t, 0.0]))[0])


@pytest.mark.parametrize("text", ["x", "2.5", "sin(x) + x^2", "exp(x)/(1+x)"])
def test_evaluate_dispatches_on_the_type_of_x(text):
    # a scalar of any kind gives a Python float; an array of any shape an array
    e = E.parse(text)
    expected = E.evaluate(e, 2.0)
    assert type(expected) is float
    for x in (2, True, 2.0, np.float64(2.0), np.int64(2)):
        out = E.evaluate(e, x)
        assert type(out) is float
        assert out == (expected if x is not True else E.evaluate(e, 1.0))
    for x in (np.array(2.0), np.array([2.0, 2.0, 2.0]), np.array([2, 2])):
        out = E.evaluate(e, x)
        assert type(out) is np.ndarray and out.dtype == np.float64 and out.shape == x.shape
        assert np.allclose(out, expected, rtol=1e-15, atol=0.0)  # math and numpy may differ


def test_integer_points_give_the_float_points_bits_on_a_tree_in_n():
    # ints skip the numpy lookup; bools and numpy integers convert as before
    e = E.parse("2.1234 - 1/n + sin(n)/n^2", "n")

    def bits(v):
        assert type(v) is float
        return struct.pack("<d", v)

    for x in (1, 7, 10**6, -3, True, np.int64(7), np.int64(-3)):
        assert bits(E.evaluate(e, x)) == bits(E.evaluate(e, float(x)))
        assert [*map(bits, E.jet(e, x, 3))] == [*map(bits, E.jet(e, float(x), 3))]
    with pytest.raises(DomainError):
        E.evaluate(e, False)  # 1/0, as at 0.0


# Constants and points are short decimals: math and numpy may round exp and
# ln differently in the last place, and a random tree that cancels such a
# result against a nearby value would amplify that without bound.
_CONSTS = (0.0, -0.0, 0.5, 1.0, -1.0, 2.0, -3.0, 1.2)
_EDGES = (math.inf, -math.inf, math.nan, 0.0, -0.0, 1.0, -1.0, 5e-324, 1e-300, 1e300, -1e300)


_trees = expr_trees(_CONSTS, max_leaves=10)


def _walk(e, x):
    """Direct recursive evaluation with Python floats: the reference."""
    t = type(e)
    if t is E.Const:
        return e.value
    if t is E.Var:
        return x
    if t is E.Neg:
        return -_walk(e.arg, x)
    if t is E.Pow:
        b, n = _walk(e.base, x), e.exponent
        if n < 0 and b == 0.0:
            raise DomainError("0 raised to a negative power")
        try:
            return b**n
        except OverflowError:
            return math.copysign(math.inf, b) if n % 2 else math.inf
    if t is E.Func:
        v = _walk(e.arg, x)
        if (e.name == "ln" and v <= 0.0) or (e.name == "sqrt" and v < 0.0):
            raise DomainError(e.name)
        fn = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "ln": math.log,
              "sqrt": math.sqrt, "abs": abs}[e.name]
        try:
            return fn(v)
        except ValueError:  # sin, cos of +-inf
            return math.nan
        except OverflowError:  # exp
            return math.inf
    a, b = _walk(e.left, x), _walk(e.right, x)
    if t is E.Div:
        if b == 0.0:
            raise DomainError("division by zero")
        return a / b
    return {E.Add: a + b, E.Sub: a - b, E.Mul: a * b}[t]


def _outcome(evaluate, e, x):
    try:
        out = evaluate(e, x)
    except DomainError:
        return "domain"
    return float(out[0]) if isinstance(out, np.ndarray) else out


def _agree(u, v):
    if u == "domain" or v == "domain":
        return u == v
    return (math.isnan(u) and math.isnan(v)) or u == v or math.isclose(
        u, v, rel_tol=1e-12, abs_tol=1e-12)


_points = st.one_of(st.sampled_from(_EDGES), st.integers(-16, 16).map(lambda k: k / 4))


def _check_backends(e, x):
    s = _outcome(E.evaluate, e, x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a = _outcome(E.evaluate, e, np.array([x]))
    assert _agree(s, _outcome(_walk, e, x))
    assert _agree(s, a)


@settings(max_examples=300, deadline=None)
@given(_trees, _points)
def test_scalar_array_and_direct_walk_agree_on_random_trees(e, x):
    _check_backends(e, x)


@settings(max_examples=300, deadline=None)
@given(_trees, _points)
def test_printed_text_parses_back_to_the_same_values(e, x):
    # Neg over Pow prints -x^2 and Pow over Neg (-x)^2; both must read back
    assert _agree(_outcome(E.evaluate, E.parse(E.to_text(e)), x), _outcome(_walk, e, x))


def test_root_inside_the_dead_base_of_a_zeroth_power():
    # when u^0 compiled to the constant 1, the root 1 + x took the slot of
    # the 1 + x inside sin(1 + x), whose register sin then reused
    e = E.parse("sin(1+x)^0 + x")
    assert E.evaluate(e, 0.5) == 1.5
    assert E.evaluate(e, np.array([0.5, 2.0])).tolist() == [1.5, 3.0]


@settings(max_examples=300, deadline=None)
@given(_trees, _trees, st.sampled_from([E.Add, E.Mul]), st.sampled_from(E.FUNCTIONS), _points)
def test_zeroth_power_whose_base_contains_its_sibling(s, t, op, name, x):
    # op(u^0, s) is op(1, s), a value the dead base u computes and reads
    base = E.Mul(E.Func(name, op(E.Const(1.0), s)), t)
    _check_backends(op(E.Pow(base, 0), s), x)


def _tree_size(e, memo):
    if id(e) not in memo:
        memo[id(e)] = 1 + sum(_tree_size(getattr(e, f), memo)
                              for f in ("arg", "left", "right", "base") if hasattr(e, f))
    return memo[id(e)]


def test_compiled_program_has_one_value_per_distinct_subtree():
    wave = E.parse("sin(1.2*x)*exp(0-0.9*x^2) + ln(1+1.1*x^2)")
    top = E.differentiate(wave, 7)
    assert _tree_size(top, {}) == 65284
    code, regs, _ = E._compile(top)
    constants = sum(r is not None for r in regs)
    assert 1 + constants + len(code) <= 400
    # registers are reused after a value's last reader
    assert 1 + len(regs) < 64
    assert math.isclose(E.evaluate(top, np.array([0.3]))[0], E.evaluate(top, 0.3), rel_tol=1e-9)
    # 0.0 and -0.0 are distinct constants: -0.0 - -0.0 is +0.0, -0.0 - 0.0 is -0.0
    zero, minus_zero = E.Const(0.0), E.Const(-0.0)
    for e in (E.Sub(E.Neg(zero), minus_zero), E.Sub(minus_zero, E.Neg(zero))):
        assert math.copysign(1.0, E.evaluate(e, 0.0)) == 1.0


def _term(terms, op, a, b=None):
    """The number of the term (op, a, b) over term numbers a and b, in the
    table terms; a+b and b+a, a*b and b*a are one term."""
    if op in ("add", "mul") and b < a:
        a, b = b, a
    return terms.setdefault((op, a, b), len(terms))


def _tree_term(e, terms, memo):
    """e's term, with u^n by repeated squaring, as _compile computes it."""
    if e in memo:
        return memo[e]
    t = type(e)
    if t is E.Var:
        v = _term(terms, "x", None)
    elif t is E.Const:
        v = _term(terms, "const", struct.pack("d", e.value))
    elif t is E.Neg or t is E.Func:
        v = _term(terms, "neg" if t is E.Neg else e.name, _tree_term(e.arg, terms, memo))
    elif t is E.Pow:
        b, n, v = _tree_term(e.base, terms, memo), e.exponent, None
        if n < 0:
            b, n = _term(terms, "recip", b), -n
        if n == 0:
            v = _term(terms, "one", b)
        while n:
            if n & 1:
                v = b if v is None else _term(terms, "mul", v, b)
            n >>= 1
            if n:
                b = _term(terms, "mul", b, b)
    else:
        op = {E.Add: "add", E.Sub: "sub", E.Mul: "mul", E.Div: "div"}[t]
        v = _term(terms, op, _tree_term(e.left, terms, memo), _tree_term(e.right, terms, memo))
    memo[e] = v
    return v


@settings(max_examples=300, deadline=None)
@given(_trees, _trees, st.integers(-3, 3), st.integers(0, 2))
def test_no_register_is_overwritten_before_its_last_read(t, s, k, order):
    # shared subtrees (t and s twice), u^k for negative k and u^0 (whose
    # dead base may hold the root), then derivatives, which share more
    e = E.differentiate(E.Add(E.Mul(E.Pow(t, k), s), E.Div(E.Pow(E.Add(t, s), 0), t)), order)
    code, regs, out = E._compile(e)
    # Run the program on term numbers: a register read after another value
    # took it gives a term that e does not have.
    terms = {}
    r = [_term(terms, "x", None)] + [
        None if c is None else _term(terms, "const", struct.pack("d", c)) for c in regs]
    root = _tree_term(e, terms, {})
    done = -1 if r[out] == root else None  # the instruction that computes the root
    for n, (op, i, j, k) in enumerate(code):
        assert r[i] is not None and (j < 0 or r[j] is not None)
        r[k] = _term(terms, op, r[i], None if j < 0 else r[j])
        assert done is None or k != out  # the root's register is never handed on
        done = n if r[k] == root and done is None else done
    assert r[out] == root


def test_the_wave_integrands_seventh_derivative_keeps_its_program_size():
    wave = E.parse("sin(1.2*x)*exp(0-0.9*x^2) + ln(1+1.0*x^2)")
    code, regs, _ = E._compile(E.differentiate(wave, 7))
    assert len(code) == 270 and len(regs) <= 31


def test_compiled_programs_are_cached_outside_the_value():
    e = E.parse("sin(x) + x^2")
    before = (repr(e), hash(e), E.to_text(e))
    assert E.evaluate(e, 1.0) == E.evaluate(e, np.array([1.0]))[0]
    assert (repr(e), hash(e), E.to_text(e)) == before
    back = pickle.loads(pickle.dumps(e))
    assert back == e and E.evaluate(back, 1.0) == E.evaluate(e, 1.0)
    assert repr(E.parse("2*x")) == "Mul(left=Const(value=2.0), right=Var())"
    for v in value_instances():  # Name(field=value, ...), the fields in order
        fields = ", ".join(f"{name}={getattr(v, name)!r}" for name in fields_of(v))
        assert repr(v) == f"{type(v).__name__}({fields})"


def test_a_tree_is_value_numbered_once_for_every_backend(monkeypatch):
    walks = []
    compile_ = E._compile
    monkeypatch.setattr(E, "_compile", lambda root: walks.append(root) or compile_(root))
    e = E.parse("sin(3.0517578125*x)/(1 + 7.62939453125*x^2)")  # constants no other test uses
    for _ in range(2):
        E.evaluate(e, 0.5)
        E.evaluate(e, np.array([0.5, 1.5]))
        E.enclose(e, np.array([0.0]), np.array([1.0]))
    assert walks == [e]
    for t in (0.5, np.array([0.5, 1.5])):  # a jet of any order runs the same numbering
        E.jet(e, t, 1)
        E.jet(e, t, 3)
    assert walks == [e]


def _slack(f, k, t):
    """Width of f^(k)'s enclosure on [t, t], over k!: the rounding that a
    float evaluation of f^(k) at t may carry, cancellation included."""
    inf, sup = E.enclose(E.differentiate(f, k), np.array([t]), np.array([t]))
    width = float(sup[0]) - float(inf[0])
    return width / math.factorial(k) if width == width else math.inf  # (inf, inf): overflow


def _close(got, want, slack):
    return abs(got - want) <= 4 * (slack + math.ulp(max(abs(got), abs(want))))


@settings(max_examples=400, deadline=None)
@given(expr_trees(_CONSTS, max_leaves=8), _points, st.integers(0, 4))
def test_a_jet_holds_the_derivatives_over_factorials(f, t, n):
    import mpmath as mp

    try:
        want = [E.evaluate(E.differentiate(f, k), t) / math.factorial(k) for k in range(n + 1)]
    except DomainError:
        want = None
    try:
        got = E.jet(f, t, n)
    except DomainError:
        got = None
    if got is None and want is not None:
        # the jet divides by sqrt(0) or abs(0), which the symbolic
        # derivative folded away: d/dx of sqrt(x - x) is 0
        assert any(type(e) is E.Func and e.name in ("sqrt", "abs")
                   and _outcome(E.evaluate, e.arg, t) == 0.0 for e in E._postorder(f))
        return
    if want is None and got is not None:
        # a divisor of the symbolic tree underflowed to 0 (d/dx of 1/x
        # squares x = 1e-300): in mpmath, which raises ZeroDivisionError on a
        # division by 0, every derivative is defined
        with mp.workdps(50):
            for k in range(n + 1):
                mp_eval(E.differentiate(f, k), mp.mpf(t), mp)
        return
    if got is None:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        arrays = E.jet(f, np.array([t, t]), n)
    # coefficient 0 is evaluate's, bit for bit, in both backends
    assert _agree_bits(got[0], E.evaluate(f, t))
    assert _agree_bits(arrays[0][1], E.evaluate(f, np.array([t]))[0])
    slacks = [_slack(f, k, t) for k in range(n + 1)]
    for k in range(1, n + 1):
        for g, w in ((got[k], want[k]), (arrays[k][1], got[k])):
            if math.isfinite(g) and math.isfinite(w):
                assert _close(g, w, slacks[k]), (E.to_text(f), t, k)
    # mpmath's steps stay inside f's domain about the quarters, not about 1e-300
    if (4 * t).is_integer() and abs(t) <= 4 and all(map(math.isfinite, got + slacks)):
        with mp.workdps(50):
            taylor = mp.taylor(lambda x: mp_eval(f, x, mp), mp.mpf(t), n)
        for k in range(n + 1):
            # beyond the rounding, mpmath's own error where the coefficient is 0
            assert _close(got[k], float(taylor[k]), slacks[k] + 1e-30), (E.to_text(f), t, k)


def _agree_bits(u, v):
    return (math.isnan(u) and math.isnan(v)) or struct.pack("d", u) == struct.pack("d", v)


def test_a_jet_raises_where_sqrt_or_abs_meets_0_at_order_1():
    for text in ("sqrt(x)", "abs(x)", "sqrt(x - x)", "abs(x)^3"):
        assert E.jet(E.parse(text), 0.0, 0) == [0.0]
        with pytest.raises(DomainError, match="division by zero"):
            E.jet(E.parse(text), 0.0, 1)
    assert E.jet(E.parse("sqrt(0*2)*x"), 0.0, 2) == [0.0, 0.0, 0.0]  # a constant: no division
    assert E.jet(E.parse("abs(x)"), -2.0, 3) == [2.0, -1.0, 0.0, 0.0]
    with pytest.raises(DomainError, match="0 raised to a negative power"):
        E.jet(E.parse("x^-2"), 0.0, 2)
    with pytest.raises(PreconditionError):
        E.jet(E.X, 0.0, -1)


def test_a_jet_of_a_constant_has_zero_higher_coefficients():
    assert E.jet(E.parse("2.5"), 1.0, 3) == [2.5, 0.0, 0.0, 0.0]
    assert E.jet(E.parse("x^0"), 1.0, 2) == [1.0, 0.0, 0.0]
    out = E.jet(E.parse("2.5"), np.array([0.0, 1.0]), 2)
    assert [c.tolist() for c in out] == [[2.5, 2.5], [0.0, 0.0], [0.0, 0.0]]


_ORACLE_JETS = (E._Backend("oracle_jet", lambda: oracle_jet_ops(E._SCALAR.ops), lambda c: [c]),
                E._Backend("oracle_array_jet", lambda: oracle_jet_ops(E._ARRAY.ops),
                           lambda c: [c]))


# Products of the constants and quarters are mostly exact, so their sums
# round alike in any order; a sum over an argument with no zero jet
# coefficient, at a point off the dyadic grid, shows the order.
_jet_points = st.one_of(_points, st.floats(-4.0, 4.0))
_DENSE = "(2.5 + exp(x)*sin(x) + x^3)"


def _jet_bits(run):
    """The coefficients' bit patterns, every NaN as one pattern, and their
    types, or the DomainError's message."""
    try:
        out = run()
    except DomainError as e:
        return str(e)
    bits = [np.where(np.isnan(c), np.nan, c).view(np.int64).tolist()
            for c in map(np.asarray, out)]
    return bits, [type(c) for c in out]


def _assert_jets_equal_the_oracle(f, t, n):
    want = _jet_bits(lambda: E._run_point(f, t, *_ORACLE_JETS, n))
    assert _jet_bits(lambda: E.jet(f, t, n)) == want, (E.to_text(f), t, n)


@settings(max_examples=400, deadline=None)
@given(_trees, st.one_of(_jet_points, st.lists(_jet_points, min_size=1, max_size=4).map(np.array)),
       st.integers(0, 7))
def test_jets_equal_the_dot_product_recurrences_bit_for_bit(f, t, n):
    # the recurrences sum the same products in the same order as the
    # reference, with no dot call and no reversed copies
    _assert_jets_equal_the_oracle(f, t, n)


@pytest.mark.parametrize("text", [f"{g}{_DENSE}" for g in ("exp", "ln", "sin", "cos", "sqrt")]
                         + [f"x*{_DENSE}", f"x/{_DENSE}"])
@pytest.mark.parametrize("t", [0.3, np.array([0.3, -0.7])], ids=["float", "array"])
def test_jets_of_dense_arguments_equal_the_dot_product_recurrences(text, t):
    # each recurrence summed backwards differs from the reference here
    # (sqrt's sum of w_j*w_(k-j) reads the same either way)
    _assert_jets_equal_the_oracle(E.parse(text), t, 7)


def test_unary_minus_binds_looser_than_power():
    assert E.evaluate(E.parse("-x^2"), 3.0) == -9.0
    assert E.evaluate(E.parse("exp(-x^2)"), 1.0) == math.exp(-1.0)
    assert E.evaluate(E.parse("(-x)^2"), 3.0) == 9.0
    assert E.evaluate(E.parse("2*-x^2"), 3.0) == -18.0
    assert E.parse("-x^2") == E.Neg(E.Pow(E.Var(), 2))
    assert E.to_text(E.Neg(E.Pow(E.Var(), 2))) == "-x^2"
    assert E.to_text(E.Pow(E.Neg(E.Var()), 2)) == "(-x)^2"
    # -0.0 prints with a minus sign, so as a base it needs parentheses too
    assert E.to_text(E.Pow(E.Const(-0.0), 0)) == "(-0.0)^0"
    assert E.evaluate(E.parse(E.to_text(E.Pow(E.Const(-0.0), 0))), 1.0) == 1.0


# ---------------------------------------------------------------------------
# interval enclosures

_ENDS = st.integers(-16, 16).map(lambda k: k / 4)


@settings(max_examples=300, deadline=None)
@given(_trees, _ENDS, _ENDS, st.sampled_from([1, E._BLOCK + 7]))
def test_enclosures_contain_every_point_value(e, u, v, cells):
    lo, hi = min(u, v), max(u, v)
    nodes = np.linspace(lo, hi, cells + 1)
    inf, sup = E.enclose(e, nodes[:-1], nodes[1:])
    assert np.all(inf <= sup)
    xs = np.linspace(lo, hi, 33)
    k = np.minimum(np.searchsorted(nodes, xs, side="right") - 1, cells - 1)  # x's cell
    # a finite enclosure means every op stayed in its domain on the whole cell
    finite = np.isfinite(inf[k]) & np.isfinite(sup[k])
    xs, k = xs[finite], k[finite]
    if not xs.size:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = E.evaluate(e, xs)
    assert np.all((inf[k] <= values) & (values <= sup[k]))


# Bit patterns of doubles: any int64, and the edges of each class.
_EDGES = [0, -1 << 63, 1, (-1 << 63) + 1, 0x000FFFFFFFFFFFFF, 0x0010000000000000,
          0x7FEFFFFFFFFFFFFF, 0x7FF0000000000000, 0x7FF0000000000001, 0x7FF8000000000000,
          0x7FFFFFFFFFFFFFFF]
_PATTERNS = st.one_of(st.integers(-1 << 63, (1 << 63) - 1),
                      st.sampled_from(_EDGES + [k | (-1 << 63) for k in _EDGES]))


@settings(max_examples=300, deadline=None)
@given(st.lists(_PATTERNS, min_size=1, max_size=40),
       st.sampled_from([None, E._STEP_MIN - 1, E._STEP_MIN, 3 * E._STEP_MIN + 5]))
def test_ulp_steps_equal_nextafter_bit_for_bit(patterns, size):
    # NaNs, subnormals, both zeros, both infinities and +-max, in arrays
    # (the patterns repeated to size) on both sides of the size where the
    # step moves to the bit patterns, and as a numpy scalar
    v = np.resize(np.array(patterns, dtype=np.int64), size or len(patterns)).view(np.float64)
    with np.errstate(all="ignore"):
        for value in (v, v[0]):
            for step, toward in ((E._down, -np.inf), (E._up, np.inf)):
                got, want = step(value), np.nextafter(value, toward)
                assert type(got) is type(want)
                assert np.array_equal(np.asarray(got).view(np.int64),
                                      np.asarray(want).view(np.int64))


@pytest.mark.parametrize("library", ["numpy", "math"])
def test_elementary_functions_are_faithfully_rounded(library):
    # enclose() widens each exp, log, sin, cos and sqrt result by one ulp,
    # numpy's on the array table (_down, _up) and math's on the float
    # table, which is sound only while they err by less than one ulp:
    # compare with mpmath at 200 bits, on seeded arrays below and above
    # _STEP_MIN (the two step paths), over wide and narrow ranges
    import mpmath as mp

    rng = np.random.default_rng(2021)
    ranges = {  # of x, wide and narrow; None is 10^U(-300, 300)
        "exp": (np.exp, math.exp, mp.exp, (-700, 700), (-1, 1)),
        "log": (np.log, math.log, mp.log, None, (0.5, 2)),
        "sin": (np.sin, math.sin, mp.sin, (-1e6, 1e6), (-4, 4)),
        "cos": (np.cos, math.cos, mp.cos, (-1e6, 1e6), (-4, 4)),
        "sqrt": (np.sqrt, math.sqrt, mp.sqrt, None, (0, 4)),
    }
    with mp.workprec(200):
        for name, (array_fn, float_fn, exact, wide, narrow) in ranges.items():
            for size in (E._STEP_MIN // 4, E._STEP_MIN + 76):
                half = size // 2
                xs = np.concatenate([rng.uniform(*wide, half) if wide else
                                     10.0 ** rng.uniform(-300, 300, half),
                                     rng.uniform(*narrow, size - half)])
                if library == "numpy":
                    ys = array_fn(xs)
                    ys, lo, hi = ys.tolist(), E._down(ys).tolist(), E._up(ys).tolist()
                else:
                    ys = [float_fn(x) for x in xs.tolist()]
                    lo = [math.nextafter(y, -math.inf) for y in ys]
                    hi = [math.nextafter(y, math.inf) for y in ys]
                for x, y, d, u in zip(xs.tolist(), ys, lo, hi):
                    t = exact(mp.mpf(x))
                    spacing = u - y if t > y else y - d  # the ulp on t's side of y
                    assert abs(t - y) < spacing, f"{library} {name}({x!r}) = {y!r}, true {t}"


@settings(max_examples=500, deadline=None)
@given(_PATTERNS, st.lists(st.tuples(_PATTERNS, _PATTERNS), min_size=1, max_size=8))
def test_point_constant_ops_equal_the_four_product_hull_bit_for_bit(constant, ends):
    # (c, c) with one object takes the two-operation path of imul and of
    # the interval div's numerator; the same value as two objects takes the hull
    c, idiv = np.int64(constant).view(np.float64), E._INTERVAL.ops["div"]
    point, split = (c, c), (c, np.float64(float(c)))
    pairs = np.array(ends, dtype=np.int64).view(np.float64)
    marked = np.isnan(pairs).any(axis=1)  # kept as drawn; the others ordered
    cell = tuple(np.where(marked[:, None], pairs, np.sort(pairs, axis=1)).T)
    with np.errstate(all="ignore"):
        for got, want in ((E.imul(point, cell), E.imul(split, cell)),
                          (idiv(point, cell), idiv(split, cell))):
            for g, w in zip(got, want):
                assert np.array_equal(g[~marked].view(np.int64), w[~marked].view(np.int64))
            # a NaN bound marks a cell as undefined; the mark may land on
            # one bound only, which is all enclose() reads
            assert np.all(np.isnan(got[0][marked]) | np.isnan(got[1][marked]))
            assert np.all(np.isnan(want[0][marked]) & np.isnan(want[1][marked]))


@pytest.mark.parametrize("text", ["1/(x-0.3)", "ln(x)", "sqrt(x)", "x^-2", "abs(x)*x^3",
                                  "sqrt(2)*3 - 1"])
def test_enclose_in_blocks_equals_one_run(text):
    e, block = E.parse(text), E._BLOCK
    rng = np.random.default_rng(0)
    for n in (0, 1, block - 1, block, block + 1, 3 * block + 5):
        lo = rng.uniform(-1.0, 2.0, n)
        hi = lo + rng.exponential(0.5, n)
        lo[: n // 10] = np.minimum(hi[: n // 10], 0.0)  # cells stay lo <= hi
        with np.errstate(all="ignore"):
            inf, sup = E._INTERVAL.run(e, (lo, hi))   # one run over all cells
        undefined = np.isnan(inf) | np.isnan(sup)     # a constant tree gives scalars
        want = [np.broadcast_to(np.where(undefined, bound, side), lo.shape)
                for bound, side in ((-np.inf, inf), (np.inf, sup))]
        got = E.enclose(e, lo, hi)
        for g, w in zip(got, want):
            assert g.shape == (n,) and np.array_equal(g.view(np.int64), w.view(np.int64))


# Trees for the golden digests of the array table: every op of the program
# (neg, add, sub, mul, div, recip, one, the square and each function),
# point constants on both sides, constant-only programs, poles and ln's edge.
_GOLDEN_EXACT = ("-x", "x + 0.7", "0.7 - x", "x - x^2", "x*(x - 1)", "3*x", "x*(0-2.5)",
                 "x/(x - 0.3)", "2/(x - 0.3)", "(0-2)/(x + 0.5)", "(x + 1)/x", "x/3", "x^-1",
                 "x^-2", "x^-3", "x^0", "(1/x)^0", "x^2", "x^3", "x^5", "x*x - x*x",
                 "sqrt(x)", "sqrt(1 - x^2)", "sqrt(x - 0.5)^0", "abs(x - 0.25)", "abs(x)*x^3",
                 "1/abs(x)", "sqrt(2)*3 - 1", "1/0", "0^-1", "(1e200*x)*(1e200*x)")
_GOLDEN_ELEMENTARY = ("sin(x)", "cos(3*x)", "sin(1e6*x)", "exp(x)", "exp(x^2)", "exp(0-x)",
                      "ln(x)", "ln(x - 0.5)", "ln(1 + x^2)", "sin(ln(x))", "ln(0)",
                      "sin(1.2*x)*exp(0-0.9*x^2) + ln(1+1.0*x^2)", "exp(0.5*x)*cos(2*x)")
_GOLDEN_DIGESTS = {  # SHA-256 of the bounds' int64 bit patterns, as recorded
    "exact": "ef5dce96303a5f2bc3b7d27f7943c95037cfbd3c0e148f74966b4a9f3b2ed9c4",
    "elementary": "5e08a0cf0493e18727856d8c7f682357e080724112c9ad6d14432641a8b38a5b",
}
# numpy's exp, log, sin and cos may round differently on another CPU (SIMD
# paths), so the elementary digest is checked where they give these bits
_NUMPY_ELEMENTARY_PRINT = "76d46b72e7d56982cc6b026a6e5593bd77fe23e8f6bbc377d23c8646d087b0c1"


def _golden_cells(n, rng):
    """n cells: random ones, some straddling 0, the poles 0 and 0.3 and
    ln's edges 0 and 0.5, points, and huge and infinite ends."""
    lo = rng.uniform(-3.0, 3.0, n)
    hi = lo + rng.exponential(0.7, n)
    special = [(-0.5, 0.5), (0.0, 0.25), (-0.25, 0.0), (0.0, 0.0), (-0.0, 0.0), (0.3, 0.3),
               (0.2, 0.4), (0.3, 0.31), (0.5, 0.5), (0.5, 0.75), (0.4, 0.5), (1e-300, 1e-290),
               (1e300, 1e308), (-1e308, -1e300), (-math.inf, 0.0), (1.0, math.inf),
               (-math.inf, math.inf), (math.pi / 2, math.pi / 2), (1.5, 1.6), (3.1, 3.2),
               (5e-324, 5e-324), (-5e-324, 5e-324), (700.0, 710.0), (25.0, 27.0)]
    k = min(n, len(special))
    lo[:k], hi[:k] = np.array(special[:k]).T
    points = slice(k, k + n // 8)
    hi[points] = lo[points]
    return lo, hi


def _golden_digest(texts):
    digest = hashlib.sha256()
    rng = np.random.default_rng(2026)
    for n in (40, E._STEP_MIN + 77):  # below and above the bit-pattern step
        lo, hi = _golden_cells(n, rng)
        for text in texts:
            f = E.parse(text)
            for e in (f, E.differentiate(f, 2)):
                for bound in E.enclose(e, lo, hi):
                    digest.update(np.ascontiguousarray(bound, dtype=np.float64).view(np.int64))
    return digest.hexdigest()


def _numpy_elementary_print():
    rng = np.random.default_rng(7)
    xs = np.concatenate([rng.uniform(-800, 800, 500), rng.uniform(-4, 4, 500),
                         10.0 ** rng.uniform(-300, 300, 500)])
    with np.errstate(all="ignore"):
        bits = [fn(v) for fn in (np.sin, np.cos, np.exp, np.log)
                for v in (xs[:40], xs, xs[:40] ** 2 + 0.1, xs ** 2 + 0.1)]
    return hashlib.sha256(np.concatenate(bits).view(np.int64)).hexdigest()


@pytest.mark.parametrize("kind, texts", [("exact", _GOLDEN_EXACT),
                                         ("elementary", _GOLDEN_ELEMENTARY)])
def test_array_enclosures_equal_the_recorded_bit_patterns(kind, texts):
    # the array interval table gives the same bounds, bit for bit, as when
    # these digests were recorded, for each tree and its second derivative
    # on cells below and above _STEP_MIN
    if kind == "elementary" and _numpy_elementary_print() != _NUMPY_ELEMENTARY_PRINT:
        pytest.skip("numpy's exp, log, sin or cos round differently here than where recorded")
    assert _golden_digest(texts) == _GOLDEN_DIGESTS[kind]


_cell_ends = st.one_of(_ENDS, st.sampled_from([0.0, -0.0, 0.3, 5e-324, 1e300, -1e300]),
                      st.floats(-1e6, 1e6), st.floats(allow_nan=False))


@settings(max_examples=400, deadline=None)
@given(_trees, _cell_ends, _cell_ends, st.randoms(use_true_random=False))
def test_float_enclosures_contain_mpmath_values(e, u, v, rng):
    # one cell on the float table: floats out, and mpmath's value at 200
    # bits at the ends, the midpoint and interior points lies inside
    import mpmath as mp

    lo, hi = min(u, v), max(u, v)
    inf, sup = E.enclose(e, lo, hi)
    assert type(inf) is float and type(sup) is float and inf <= sup
    if not (math.isfinite(inf) and math.isfinite(sup)):
        return
    mid = lo + (hi - lo) / 2 if math.isfinite(hi - lo) else lo / 2 + hi / 2
    xs = [lo, hi, mid] + [min(max(lo + (hi - lo) * rng.random(), lo), hi) for _ in range(3)]
    with mp.workprec(200):
        for x in xs:
            if math.isfinite(x):
                value = mp_eval(e, mp.mpf(x), mp)
                assert inf <= value <= sup, (E.to_text(e), lo, hi, x)


@pytest.mark.parametrize("text, lo, hi", [("1/(x-1)", 2.0, 1.0), ("1/x", 1.0, 0.0),
                                          ("x", 5e-324, -5e-324), ("3", 1, 0)])
def test_enclose_refuses_a_reversed_cell_on_both_tables(text, lo, hi):
    # refused on either table before any op runs: on floats 1/x over
    # [1, 0] would divide by 0
    f = E.parse(text)
    with pytest.raises(PreconditionError, match=rf"lo <= hi, got the cell \[{lo}, {hi}\]$"):
        E.enclose(f, lo, hi)
    cell = rf"\[{float(lo)}, {float(hi)}\] at flat index 2"
    with pytest.raises(PreconditionError, match=rf"lo <= hi, got the cell {cell}"):
        E.enclose(f, np.array([[0.0, 0.5], [lo, 0.5]]), np.array([[0.5, 0.5], [hi, 0.5]]))


@pytest.mark.parametrize("lo, hi", [(math.nan, 1.0), (2.0, math.nan), (math.nan, math.nan)])
def test_a_nan_end_still_marks_the_cell_unbounded(lo, hi):
    f = E.parse("1/(x-1)")
    assert E.enclose(f, lo, hi) == (-math.inf, math.inf)
    inf, sup = E.enclose(f, np.array([lo, 2.0]), np.array([hi, 3.0]))
    assert (inf[0], sup[0]) == (-math.inf, math.inf)
    assert (inf[1], sup[1]) == E.enclose(f, 2.0, 3.0) and 0.4 < inf[1] < sup[1] < 1.1


_MARKED = [(math.nan, 1.0), (-1.0, math.nan), (math.nan, math.nan)]
_OPERANDS = [(-2.0, 3.0), (0.5, 0.75), (-3.0, -1.0), (0.0, 0.0), (1.5, 1.5)] + _MARKED


@pytest.mark.parametrize("table", ["float", "array"])
def test_every_interval_op_keeps_the_nan_mark(table):
    # NaN marks a cell as undefined: every op, on either operand, keeps a
    # NaN bound, through the square, point-constant and hull paths alike
    backend = E._FLOAT_INTERVAL if table == "float" else E._INTERVAL
    wrap = (lambda u: u) if table == "float" else (lambda u: tuple(np.array([b]) for b in u))
    two = 2.5
    point = (two, two)
    with np.errstate(all="ignore"):
        for name, op in backend.ops.items():
            unary = name in ("neg", "recip", "one", "sin", "cos", "exp", "ln", "sqrt", "abs")
            for marked in map(wrap, _MARKED):
                calls = [(marked,)] if unary else (
                    [(marked, marked), (point, marked)] + [(marked, wrap(w)) for w in _OPERANDS]
                    + [(wrap(w), marked) for w in _OPERANDS])
                for args in calls:
                    out = op(*args)
                    assert np.isnan(out[0]).any() or np.isnan(out[1]).any(), (name, args)


@settings(max_examples=500, deadline=None)
@given(expr_trees(_CONSTS, max_leaves=10, functions=("sqrt", "abs")), _cell_ends, _cell_ends)
def test_float_enclosures_equal_the_array_table_on_correctly_rounded_ops(e, u, v):
    # + - * /, integer powers, sqrt and abs round alike in math and numpy,
    # so one cell on floats gets the array table's bounds bit for bit
    lo, hi = min(u, v), max(u, v)
    got = E.enclose(e, lo, hi)
    want = E.enclose(e, np.array([lo]), np.array([hi]))
    assert [struct.pack("d", g) for g in got] == [struct.pack("d", w[0]) for w in want], \
        (E.to_text(e), lo, hi)


def test_enclose_dispatches_on_its_ends():
    f = E.parse("x^2 - 1")
    inf, sup = E.enclose(f, 1, 2.0)  # numbers: one cell, on floats
    assert type(inf) is float and type(sup) is float
    assert -1e-15 < inf < 0.0 < 3.0 < sup < 3.0 + 1e-14
    inf, sup = E.enclose(f, [1.0], np.array([2.0]))
    assert type(inf) is np.ndarray and inf.shape == (1,)
    assert E.enclose(E.parse("ln(x)"), -1.0, 1.0) == (-math.inf, math.inf)
    assert E.enclose(E.parse("1/0"), 0.0, 1.0) == (-math.inf, math.inf)


def test_enclosure_rules():
    lo, hi = np.array([-1.0, 0.5, 2.0]), np.array([1.0, 1.0, 3.0])
    inf, sup = E.enclose(E.parse("x^2"), lo, hi)
    assert inf[0] == 0.0 and inf[1] <= 0.25 <= sup[1]   # even-power rule
    inf, sup = E.enclose(E.parse("x*x - x*x"), lo, hi)
    assert np.all(inf <= 0.0) and np.all(sup >= 0.0)
    for text in ("1/x", "ln(x)", "sqrt(x)", "x^-1"):    # domain left on part of a cell
        inf, sup = E.enclose(E.parse(text), lo, hi)
        assert inf[0] == -math.inf and sup[0] == math.inf
        assert math.isfinite(inf[2]) and math.isfinite(sup[2])
    inf, sup = E.enclose(E.parse("sin(ln(x))"), lo, hi)  # undefined stays undefined
    assert inf[0] == -math.inf and sup[0] == math.inf
    f = E.parse("sin(3*x) + exp(x)/(1 + x^2)")
    inf, sup = E.enclose(f, lo, hi)
    neg_inf, neg_sup = E.enclose(E.neg(f), lo, hi)
    assert np.array_equal(neg_inf, -sup) and np.array_equal(neg_sup, -inf)  # exact
    # sin reaches 1 at pi/2 and cos -1 at pi, though math.pi is not pi
    assert E.enclose(E.parse("sin(x)"), np.array([1.5]), np.array([1.6]))[1][0] == 1.0
    assert E.enclose(E.parse("cos(x)"), np.array([3.1]), np.array([3.2]))[0][0] == -1.0
    assert E.enclose(E.parse("cos(x)"), np.array([0.1]), np.array([3.0]))[1][0] < 1.0
    x = np.array([math.pi / 2])
    assert E.enclose(E.parse("sin(x)"), x, x)[1][0] == 1.0


# ---------------------------------------------------------------------------
# parse errors: message and offset for each kind of malformed input

_MALFORMED = [
    ("", "unexpected end of input", 0),
    (" ", "unexpected end of input", 1),
    ("x^", "expected integer exponent", 2),
    ("x^-", "expected integer exponent", 3),
    ("x^1.5", "expected integer exponent", 2),
    ("x^(2)", "expected integer exponent", 2),
    ("x^--2", "expected integer exponent", 3),
    ("x^1e2", "expected integer exponent", 2),
    ("sqrt(x)^", "expected integer exponent", 8),
    ("x^2^3", "trailing input '^'", 3),
    ("(x^2^3)", "expected ')'", 4),
    ("foo(x)", "unknown identifier 'foo'", 0),
    ("e^x", "unknown identifier 'e'", 0),
    ("x + ", "unexpected end of input", 4),
    ("x + )", "unexpected token ')'", 4),
    ("x +* 1", "unexpected token '*'", 3),
    ("*2", "unexpected token '*'", 0),
    ("(x + 1", "expected ')'", 6),
    ("((x)", "expected ')'", 4),
    ("sin(x", "expected ')'", 5),
    ("sin x", "expected '('", 4),
    ("sin", "expected '('", 3),
    ("sin()", "unexpected token ')'", 4),
    ("exp(-)", "unexpected token ')'", 5),
    ("x 1", "trailing input '1'", 2),
    ("x)", "trailing input ')'", 1),
    ("ln(x))", "trailing input ')'", 5),
    ("x (", "trailing input '('", 2),
    ("x^ 2 3", "trailing input '3'", 5),
    ("1e", "trailing input 'e'", 1),
    ("1.5.2", "trailing input '.2'", 3),
    ("()", "unexpected token ')'", 1),
    ("(", "unexpected end of input", 1),
    ("-(", "unexpected end of input", 2),
    ("--", "unexpected end of input", 2),
    ("x/-", "unexpected end of input", 3),
    ("x $ 1", "unexpected character '$'", 2),
]


@pytest.mark.parametrize("text, message, offset", _MALFORMED)
def test_malformed_input_gives_its_message_and_offset(text, message, offset):
    with pytest.raises(ParseError) as err:
        E.parse(text)
    assert (str(err.value), err.value.offset) == (f"{message} (at offset {offset})", offset)


def test_the_variable_name_is_the_only_identifier_besides_functions():
    with pytest.raises(ParseError, match=r"unknown identifier 'x' \(at offset 2\)"):
        E.parse("1/x", var_name="n")
    with pytest.raises(ParseError, match=r"unknown identifier 'n' \(at offset 0\)"):
        E.parse("n")


# Pieces of the grammar's texts, and characters that start no token: a lone
# ".", a non-ASCII letter, a superscript two (a digit to str.isdigit, not to
# the tokenizer), an Arabic-Indic three (a digit to both), a no-break space.
_PIECES = ["x", "n", "sin", "cos", "exp", "ln", "sqrt", "abs", "e", "_", "foo", "(", ")", "+",
           "-", "*", "/", "^", "0", "2", "10", "2.5", "1.", ".5", "1e3", "2E-2", ".", " ", "\t",
           "\u00e9", "\u00b2", "\u0663", "\u00a0", "$"]
_texts = st.one_of(st.lists(st.sampled_from(_PIECES), max_size=12).map("".join),
                   st.text(alphabet=sorted(set("".join(_PIECES))), max_size=16),
                   expr_trees((0.0, -0.0, 0.5, 2.0), max_leaves=8).map(E.to_text))


@settings(max_examples=1500, deadline=None)
@given(_texts, st.sampled_from(["x", "n"]))
@example("x^\u00b2", "x")
@example("x^\u0663 + \u0663.5", "x")
@example("2*. + x", "x")
@example("sin(x) \u00e9", "x")
def test_parse_agrees_with_the_named_group_tokenizer(text, var_name):
    try:
        want = oracle_parse(text, var_name)
    except ParseError as err:
        with pytest.raises(ParseError) as got:
            E.parse(text, var_name)
        assert (str(got.value), got.value.offset) == (str(err), err.offset)
    else:
        assert E.parse(text, var_name) is want


# ---------------------------------------------------------------------------
# interning: one live node per structure

def test_parsing_the_same_text_twice_gives_the_same_object():
    text = "sin(x)*exp(-(x^2)) + ln(1+x^2)"
    assert E.parse(text) is E.parse(text)
    assert E.differentiate(E.parse(text), 7) is E.differentiate(E.parse(text), 7)
    assert E.Const(1) is E.Const(1.0) and type(E.Const(1).value) is float
    assert E.Pow(E.Var(), np.int64(2)) is E.Pow(E.Var(), 2)
    assert E.Const(math.nan) is E.Const(float("nan"))


def test_signed_zeros_stay_distinct_nodes():
    zero, minus_zero = E.Const(0.0), E.Const(-0.0)
    assert zero is not minus_zero and zero != minus_zero
    assert math.copysign(1.0, minus_zero.value) == -1.0
    assert E.Neg(zero) is not E.Neg(minus_zero)


def test_a_pickle_round_trip_returns_the_same_object():
    e = E.differentiate(E.parse("sin(x)/(1 + x^2)"), 2)
    E.evaluate(e, 0.5)
    data = pickle.dumps(e)
    assert pickle.loads(data) is e
    assert b"_code_" not in data and b"_deriv" not in data   # caches are not state
    assert b"_numbered" not in data and "_numbered" in vars(e)
    for v in value_instances():  # and a value comes back equal, with its type
        back = pickle.loads(pickle.dumps(v))
        assert type(back) is type(v) and back == v


def test_threads_building_the_same_tree_get_one_object():
    # constants no other test uses, so every node is new and the threads race
    text = " + ".join(f"sin({k}.0625*x)^2/(1 + {k}.1875*x)" for k in range(300))
    barrier = threading.Barrier(8, timeout=60)
    trees = [None] * 8

    def build(k):
        barrier.wait()
        trees[k] = E.parse(text)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)   # switch threads often, inside the table lookups too
    try:
        threads = [threading.Thread(target=build, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert trees[0] is not None and all(t is trees[0] for t in trees)


def test_a_dropped_tree_leaves_the_intern_table():
    e = E.differentiate(E.parse("exp(3.40625*x) / (1 + 7.59375*x^2)"), 3)
    E.evaluate(e, np.array([0.5]))
    ref = weakref.ref(e)
    constants = [E.Const(3.40625), E.Const(7.59375)]
    keys = [key for key, node in E._NODES.items() if any(node() is c for c in constants)]
    assert len(keys) == 2
    del e, constants
    gc.collect()   # a node whose derivative contains it (exp) is a cycle
    assert ref() is None
    assert not any(key in E._NODES for key in keys)


# ---------------------------------------------------------------------------
# deep chains: nothing recurses, so depth is bounded by memory alone

# (node, value, derivative) for each step applied to the chain so far.  The
# constants are positive, so the printed text reads back as the same tree,
# and no step grows the value by more than 1.5, so math never overflows.
_STEPS = {
    "add": (lambda e, c: E.Add(e, E.Const(c)), lambda v, c: v + c, lambda v, d, c: d),
    "radd": (lambda e, c: E.Add(E.Const(c), e), lambda v, c: c + v, lambda v, d, c: d),
    "rsub": (lambda e, c: E.Sub(E.Const(c), e), lambda v, c: c - v, lambda v, d, c: -d),
    "mul": (lambda e, c: E.Mul(e, E.Const(c / 2)), lambda v, c: v * (c / 2),
            lambda v, d, c: d * (c / 2)),
    "div": (lambda e, c: E.Div(E.Const(c), E.Add(E.Const(c), E.Pow(e, 2))),
            lambda v, c: c / (c + v * v), lambda v, d, c: -c * 2 * v * d / (c + v * v) ** 2),
    "neg": (lambda e, c: E.Neg(e), lambda v, c: -v, lambda v, d, c: -d),
    "sin": (lambda e, c: E.Func("sin", e), lambda v, c: math.sin(v),
            lambda v, d, c: math.cos(v) * d),
    "cos": (lambda e, c: E.Func("cos", e), lambda v, c: math.cos(v),
            lambda v, d, c: -math.sin(v) * d),
}
_chains = st.lists(st.tuples(st.sampled_from(sorted(_STEPS)), st.sampled_from([0.25, 0.5, 1.5])),
                   min_size=500, max_size=3000)


def _build(steps, x):
    """The chain of steps over x, its value at x and its derivative there,
    the value in the scalar backend's order of operations."""
    e, v, d = E.Var(), x, 1.0
    for name, c in steps:
        node, value, slope = _STEPS[name]
        e, v, d = node(e, c), value(v, c), slope(v, d, c)
    return e, v, d


@settings(max_examples=30, deadline=None)
@given(_chains, st.sampled_from([-1.5, -0.25, 0.0, 0.75, 2.0]))
def test_deep_chains_parse_print_evaluate_and_differentiate(steps, x):
    e, value, slope = _build(steps, x)
    assert E.parse(E.to_text(e)) is e
    assert E.evaluate(e, x) == value
    assert E.evaluate(e, np.array([x]))[0] == pytest.approx(value, rel=1e-9, abs=1e-9)
    got = E.evaluate(E.differentiate(e, 1), x)
    if abs(slope) < 1e300:
        assert got == pytest.approx(slope, rel=1e-9, abs=1e-300)


_printable_trees = expr_trees((0.0, 0.5, 1.0, 2.0, 1.2), max_leaves=10)


@settings(max_examples=100, deadline=None)
@given(_printable_trees)
def test_printed_text_reads_back_as_the_same_tree(e):
    assert E.parse(E.to_text(e)) is e


@settings(max_examples=100, deadline=None)
@given(_printable_trees, _printable_trees, st.sampled_from(["<=", ">=", "<", ">"]),
       st.lists(_points, min_size=1, max_size=4))
def test_a_printed_comparison_reads_back_as_its_predicate(u, v, op, xs):
    p = E.parse_predicate(f"{E.to_text(u)} {op} {E.to_text(v)}")
    assert p == E.Predicate(u, op, v)
    for x in xs:
        try:
            left, right = E.evaluate(u, x), E.evaluate(v, x)
        except DomainError:
            with pytest.raises(DomainError):
                p(x)
            continue
        want = {"<=": left <= right, ">=": left >= right, "<": left < right, ">": left > right}
        assert p(x) is want[op]
