import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fcalc.errors import BracketError, NonCutError, PreconditionError
from fcalc.expr import differentiate, evaluate, parse, to_text
from fcalc.suprema import (
    MAX_HALVINGS,
    Cut,
    PredicateSet,
    _bisect,
    _linspace,
    affine_map,
    bisect_root,
    bisect_supremum,
    cut_point,
    ivt_root,
    sup_witnesses,
    supremum,
)


def test_supremum_sqrt2():
    pset = PredicateSet(lambda x: x * x < 2, 0.0, 2.0)
    value = supremum(pset, 1e-9)
    assert abs(value - math.sqrt(2)) <= 1e-9


def test_supremum_element_is_sup_shortcut():
    pset = PredicateSet(lambda x: x <= 1, 0.0, 1.0)
    res = bisect_supremum(pset, 1e-9)
    assert res.value == 1.0 and res.iterations == 0


def test_supremum_singleton():
    pset = PredicateSet(lambda x: x == 0.0, 0.0, 5.0)
    assert abs(supremum(pset, 1e-6)) <= 1e-6


def test_supremum_bracketing_property():
    pset = PredicateSet(lambda x: x * x < 2, 0.0, 2.0)
    tol = 1e-6
    r = supremum(pset, tol)
    rng = np.random.default_rng(1)
    probes = rng.uniform(0.0, 2.0, 1000)
    assert any(pset.member(t) for t in np.append(probes, r) if r - tol <= t <= r)
    assert not any(pset.member(t) for t in probes if t > r + tol)


def test_sup_witnesses_examples():
    pset = PredicateSet(lambda x: x * x < 2, 0.0, 2.0)
    sup_value = supremum(pset, 1e-9)
    wit = sup_witnesses(pset, sup_value, 10)
    for n, c in enumerate(wit, start=1):
        assert pset.member(c)
        assert abs(c - sup_value) < 1.0 / n
    singleton = PredicateSet(lambda x: x == 0.0, 0.0, 5.0)
    assert sup_witnesses(singleton, supremum(singleton, 1e-8), 3) == [0.0, 0.0, 0.0]
    box = PredicateSet(lambda x: x <= 1, 0.0, 1.0)
    wit = sup_witnesses(box, 1.0, 5)
    assert all(1 - 1.0 / n < c <= 1.0 for n, c in enumerate(wit, start=1))


def test_supremum_preconditions():
    with pytest.raises(PreconditionError):
        supremum(PredicateSet(lambda x: x < 1, 0.0, 2.0), -1.0)
    with pytest.raises(PreconditionError):
        supremum(PredicateSet(lambda x: False, 0.0, 2.0), 1e-9)
    with pytest.raises(PreconditionError):
        supremum(PredicateSet(lambda x: True, 3.0, 2.0), 1e-9)


def test_cut_point_examples():
    assert abs(cut_point(Cut(lambda x: x**3 < 2, 0.0, 2.0), 1e-9) - 2 ** (1 / 3)) <= 1e-9
    assert abs(cut_point(Cut(lambda x: x < 0, -1.0, 1.0), 1e-9)) <= 1e-9


def test_cut_point_detects_non_monotone_predicate():
    # sin > 0 holds again on (2pi, 3pi), so the probe grid sees a hit
    # above a miss: not downward closed
    with pytest.raises(NonCutError):
        cut_point(Cut(lambda x: math.sin(x) > 0, 1.0, 11.0), 1e-6)
    # samples ordered against downward closure are rejected outright
    with pytest.raises(NonCutError):
        cut_point(Cut(lambda x: math.sin(x) > 0, 7.0, -1.0), 1e-6)


@st.composite
def _brackets(draw):
    """Finite lo < hi with a finite span: any, a few ulps, or subnormal."""
    kind = draw(st.sampled_from(["any", "ulps", "subnormal"]))
    if kind == "subnormal":
        lo = draw(st.floats(-1e-300, 1e-300))
        hi = lo + draw(st.floats(5e-324, 1e-306))
    else:
        lo = draw(st.floats(allow_nan=False, allow_infinity=False))
        if kind == "any":
            hi = draw(st.floats(min_value=lo, allow_nan=False, allow_infinity=False))
        else:
            hi = lo
            for _ in range(draw(st.integers(1, 70))):
                hi = math.nextafter(hi, math.inf)
    assume(lo < hi and math.isfinite(hi - lo))
    return lo, hi


@settings(max_examples=500, deadline=None)
@given(_brackets(), st.integers(2, 300))
@example((0.0, 5e-324), 64)          # the span divided by n - 1 underflows to 0
@example((-1e-308, 1e-308), 300)
@example((-8.98e307, 8.98e307), 2)
def test_cut_probe_grid_is_numpy_linspace_bit_for_bit(bracket, n):
    lo, hi = bracket
    with np.errstate(over="ignore"):  # (n-1)*step may round past the largest double
        theirs = np.linspace(lo, hi, n)
    assert np.array(_linspace(lo, hi, n)).view(np.int64).tolist() == theirs.view(np.int64).tolist()


def test_cut_point_random_rationals():
    rng = np.random.default_rng(11)
    tol = 1e-9
    for _ in range(100):
        q = float(rng.integers(-50, 50)) / float(rng.integers(1, 50))
        got = cut_point(Cut(lambda x, q=q: x < q, q - 2.0, q + 2.0), tol)
        assert abs(got - q) <= tol


def test_ivt_root_examples():
    f = parse("x^3 - x - 2")
    res = bisect_root(f, 1.0, 2.0, 0.0, 1e-10)
    assert abs(evaluate(f, res.root)) <= 1e-8
    assert res.bracket[1] - res.bracket[0] <= 1e-10
    assert 1.0 <= res.root <= 2.0
    assert abs(ivt_root(parse("x"), -1.0, 1.0, 0.0, 1e-9)) <= 1e-9
    with pytest.raises(BracketError):
        ivt_root(parse("x^2"), 1.0, 2.0, 0.0)


def _halvings(a, b, tol):
    """Halvings that take [a, b] below tol, plus the one ITP may add."""
    return math.ceil(math.log2(b - a) - math.log2(tol)) + 1


def test_ivt_root_takes_at_most_one_cut_more_than_halving():
    # ITP's projection keeps the bracket within twice halving's width
    tol = 1e-6
    res = bisect_root(parse("x^3 - x - 2"), 1.0, 2.0, 0.0, tol)
    assert res.iterations <= _halvings(1.0, 2.0, tol)
    assert abs(res.root - 1.5213797068045676) <= tol


@pytest.mark.parametrize("text, a, b, root", [
    ("x^3 - x - 2", 1.0, 2.0, 1.5213797068045676),
    ("cos(x) - x", 0.0, 1.0, 0.7390851332151607),
    ("exp(x) - 2", -1.0, 3.0, math.log(2.0)),
    ("sin(x)", 2.0, 4.0, math.pi),
    ("1/(1 + x^2) - 0.3", 0.0, 5.0, math.sqrt(7 / 3)),
])
def test_ivt_root_is_superlinear_on_smooth_functions(text, a, b, root):
    # halving takes 33 to 36 cuts to 1e-10 on these brackets
    res = bisect_root(parse(text), a, b, 0.0, 1e-10)
    assert res.iterations <= 12 and abs(res.root - root) <= 1e-10


def test_ivt_root_closes_on_a_root_next_to_an_end():
    # f' of a Rolle workload task on its scan cell, polished as _crossing
    # does: the end 1.0198390112908378 comes within 4e-14 of the root, so
    # regula falsi rounds onto it and the cut fell back to halving (19
    # cuts); a cut kept tol/2 from the end closes the bracket at once
    f = differentiate(parse("(x-0.2985)*(1.4944-x)*exp(0.7209*x)"), 1)
    res = bisect_root(f, 1.0188374269005847, 1.0211686159844056, 0.0, 1.1959e-13)
    assert res.iterations <= 10 and abs(res.root - 1.0198390112908) <= 1e-12


def test_ivt_root_meets_the_bound_where_regula_falsi_stalls():
    f = lambda x: x**9 - 1   # convex on [0, 3]: regula falsi never moves the end 3
    lo, hi = 0.0, 3.0
    for _ in range(100):
        x = lo + (hi - lo) * (f(lo) / (f(lo) - f(hi)))
        lo, hi = (x, hi) if f(x) < 0 else (lo, x)
    assert hi == 3.0 and lo < 0.1
    res = bisect_root(f, 0.0, 3.0, 0.0, 1e-10)
    assert res.iterations <= _halvings(0.0, 3.0, 1e-10) and abs(res.root - 1.0) <= 1e-10


def test_ivt_root_exact_hit_terminates():
    res = bisect_root(parse("x"), -1.0, 1.0, 0.0, 1e-12)
    assert res.root == 0.0 and res.residual == 0.0


def _boundary(c):
    """Least double t >= 0 with t*t >= c in floating point: the point all
    three bisections of x*x < c close in on."""
    t = math.sqrt(c)
    while t * t >= c:
        t = math.nextafter(t, 0.0)
    while t * t < c:
        t = math.nextafter(t, math.inf)
    return t


def _tight(lo, hi, tol):
    return hi - lo < tol or math.nextafter(lo, math.inf) >= hi


_TOLS = st.one_of(
    st.integers(16, 300).map(lambda e: 10.0 ** -e),   # below the double spacing
    st.integers(1, 1074).map(lambda k: 2.0 ** -k),    # dyadic, landing on exact widths
    st.floats(1e-15, 0.5),
)


@settings(max_examples=300, deadline=None)
@given(st.floats(0.25, 4.0), _TOLS)
def test_sup_cut_and_root_share_one_stopping_rule(c, tol):
    below = lambda x: x * x < c
    sup = bisect_supremum(PredicateSet(below, 0.0, c + 1.0), tol)
    cut = cut_point(Cut(below, 0.0, c + 1.0), tol)
    root = bisect_root(lambda x: x * x - c, 0.0, c + 1.0, 0.0, tol)
    assert _tight(*sup.trace[-1], tol) and _tight(*root.bracket, tol)
    # every bracket is narrower than tol or one double spacing near the boundary
    width = max(tol, math.ulp(2.0 * math.sqrt(c)))
    t = _boundary(c)
    for value in (sup.value, cut, root.root):
        assert abs(value - t) <= width
    assert sup.value < t <= sup.trace[-1][1]
    for x, y in ((sup.value, cut), (sup.value, root.root), (cut, root.root)):
        assert abs(x - y) <= 2 * width


@settings(max_examples=300, deadline=None)
@given(st.floats(0.25, 4.0), st.integers(1, 9), _TOLS)
def test_ivt_root_never_takes_more_than_one_cut_over_halving(c, p, tol):
    # x^p - c on [0, c + 1], x^9 flat enough near 0 to stall regula falsi,
    # against the kernel's own halving.  The one-cut bound is exact
    # arithmetic's; where the cuts come within some dozens of ulps of the
    # root, each rounds to a double, which may cost ITP a second cut
    f = lambda x: x**p - c
    halvings = _bisect(lambda m: f(m) < 0, 0.0, c + 1.0, tol, MAX_HALVINGS)[2]
    res = bisect_root(f, 0.0, c + 1.0, 0.0, tol)
    spacing = math.ulp(c ** (1 / p))
    assert res.iterations <= halvings + (1 if tol >= 1024 * spacing else 2)
    assert _tight(*res.bracket, tol)


def test_affine_map_examples():
    identity = affine_map(0, 1, 0, 1)
    for t in (0.0, 0.5, 1.0):
        assert evaluate(identity, t) == t
    stretch = affine_map(0, 1, 3, 5)
    assert evaluate(stretch, 0.5) == 4.0
    shift = affine_map(-1, 1, 0, 1)
    assert evaluate(shift, -1.0) == 0.0 and evaluate(shift, 1.0) == 1.0
    with pytest.raises(PreconditionError):
        affine_map(1, 1, 0, 1)


def test_affine_map_composes_to_identity():
    rng = np.random.default_rng(7)
    fwd = affine_map(-2, 3, 10, 11)
    back = affine_map(10, 11, -2, 3)
    for t in rng.uniform(-2, 3, 100):
        assert abs(evaluate(back, evaluate(fwd, t)) - t) <= 1e-12
    # the expression is grammar-conformant text too
    assert evaluate(parse(to_text(fwd)), 0.5) == evaluate(fwd, 0.5)


def test_bisection_needs_a_finite_bracket():
    below = lambda x: x < 1.0
    big = 1e308   # finite ends whose distance overflows
    with pytest.raises(PreconditionError):
        cut_point(Cut(below, 0.0, math.inf), 1e-9)
    with pytest.raises(PreconditionError):
        bisect_supremum(PredicateSet(below, -big, big), 1e-9)
    with pytest.raises(PreconditionError):
        bisect_root(lambda x: x, -big, big, 0.0, 1e-9)


def test_a_root_bracket_may_come_in_either_order():
    # [2, 1] used to bisect as if 2 < 1 and return 1.5, with residual 0.875
    f = parse("x^3 - x - 1")
    for a, b in ((1.0, 2.0), (2.0, 1.0)):
        res = bisect_root(f, a, b, 0.0, 1e-12)
        assert abs(res.root - 1.324717957244746) <= 1e-12
        assert res.bracket[0] <= res.bracket[1]


def test_the_bisection_kernel_refuses_a_reversed_bracket():
    with pytest.raises(PreconditionError, match="lo <= hi"):
        _bisect(lambda m: True, 2.0, 1.0, 1e-9, MAX_HALVINGS)


def test_default_cap_reaches_adjacent_doubles_from_any_finite_bracket():
    # the widest finite bracket, closing on the smallest subnormal
    big = 2.0 ** 1023 * (1 - 2.0 ** -53)   # big - -big is the largest double
    res = bisect_supremum(PredicateSet(lambda x: x < 5e-324, -big, big), 5e-324)
    assert res.value == 0.0 and res.trace[-1] == (0.0, 5e-324)
    assert res.iterations <= MAX_HALVINGS
    # ITP on residuals of one size cuts at the midpoint, and on a cube root,
    # whose regula falsi points it projects, at most one cut later
    for fn in (lambda x: 1.0 if x >= 5e-324 else -1.0,
               lambda x: math.copysign(abs(x) ** (1 / 3), x) - 1e-108):
        res = bisect_root(fn, -big, big, 0.0, 5e-324)
        lo, hi = res.bracket
        assert res.iterations <= MAX_HALVINGS and (lo == hi or math.nextafter(lo, hi) == hi)
    # adjacent doubles need no cut, so not even a cap of 0 is reached
    assert _bisect(lambda m: True, 0.0, 5e-324, 5e-324, 0)[:3] == (0.0, 5e-324, 0)
