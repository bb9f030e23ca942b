import gc
import math
import pickle
import sys
import threading
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcalc import expr as E
from fcalc.errors import DomainError, NonDifferentiableError, ParseError, PreconditionError
from helpers import expr_trees, random_smooth_expr


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


def test_differentiate_examples():
    assert E.evaluate(E.differentiate(E.parse("x^3"), 1), 2.0) == 12.0
    d = E.differentiate(E.parse("4.25"), 1)
    assert all(E.evaluate(d, t) == 0.0 for t in (-3.0, 0.0, 11.0))
    assert E.evaluate(E.differentiate(E.parse("exp(x)"), 3), 0.0) == 1.0


def test_differentiate_order_zero_is_identity():
    e = E.parse("sin(x) + x^2")
    assert E.differentiate(e, 0) is e


def test_abs_parses_but_does_not_differentiate():
    e = E.parse("abs(x)")
    assert E.evaluate(e, -2.0) == 2.0
    with pytest.raises(NonDifferentiableError, match="abs"):
        E.differentiate(e, 1)


def test_structural_equality_and_immutability():
    assert E.parse("x^2 + 1") == E.parse("x^2 + 1")
    e = E.parse("x")
    with pytest.raises(Exception):
        e.value = 3  # frozen


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
    code, regs, _ = E._compile(top, E._SCALAR.ops)
    constants = sum(r is not None for r in regs)
    assert 1 + constants + len(code) <= 400
    # registers are reused after a value's last reader
    assert 1 + len(regs) < 64
    assert math.isclose(E.evaluate(top, np.array([0.3]))[0], E.evaluate(top, 0.3), rel_tol=1e-9)
    # 0.0 and -0.0 are distinct constants: -0.0 - -0.0 is +0.0, -0.0 - 0.0 is -0.0
    zero, minus_zero = E.Const(0.0), E.Const(-0.0)
    for e in (E.Sub(E.Neg(zero), minus_zero), E.Sub(minus_zero, E.Neg(zero))):
        assert math.copysign(1.0, E.evaluate(e, 0.0)) == 1.0


def test_compiled_programs_are_cached_outside_the_value():
    e = E.parse("sin(x) + x^2")
    before = (repr(e), hash(e), E.to_text(e))
    assert E.evaluate(e, 1.0) == E.evaluate(e, np.array([1.0]))[0]
    assert (repr(e), hash(e), E.to_text(e)) == before
    back = pickle.loads(pickle.dumps(e))
    assert back == e and E.evaluate(back, 1.0) == E.evaluate(e, 1.0)


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


@settings(max_examples=500, deadline=None)
@given(_PATTERNS, st.lists(st.tuples(_PATTERNS, _PATTERNS), min_size=1, max_size=8))
def test_point_constant_ops_equal_the_four_product_hull_bit_for_bit(constant, ends):
    # (c, c) with one object takes the two-operation path of imul and of
    # _idiv's numerator; the same value as two objects takes the hull
    c = np.int64(constant).view(np.float64)
    point, split = (c, c), (c, np.float64(float(c)))
    pairs = np.array(ends, dtype=np.int64).view(np.float64)
    marked = np.isnan(pairs).any(axis=1)  # kept as drawn; the others ordered
    cell = tuple(np.where(marked[:, None], pairs, np.sort(pairs, axis=1)).T)
    with np.errstate(all="ignore"):
        for got, want in ((E.imul(point, cell), E.imul(split, cell)),
                          (E._idiv(point, cell), E._idiv(split, cell))):
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
        lo[: n // 10] = 0.0
        with np.errstate(all="ignore"):
            inf, sup = E._INTERVAL.run(e, (lo, hi))   # one run over all cells
        undefined = np.isnan(inf) | np.isnan(sup)     # a constant tree gives scalars
        want = [np.broadcast_to(np.where(undefined, bound, side), lo.shape)
                for bound, side in ((-np.inf, inf), (np.inf, sup))]
        got = E.enclose(e, lo, hi)
        for g, w in zip(got, want):
            assert g.shape == (n,) and np.array_equal(g.view(np.int64), w.view(np.int64))


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


@settings(max_examples=100, deadline=None)
@given(expr_trees((0.0, 0.5, 1.0, 2.0, 1.2), max_leaves=10))
def test_printed_text_reads_back_as_the_same_tree(e):
    assert E.parse(E.to_text(e)) is e
