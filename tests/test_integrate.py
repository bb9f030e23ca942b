import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcalc import expr as E
from fcalc import interval
from fcalc.errors import (DivergenceError, DomainError, IterationCapError, MathError,
                          PreconditionError)
from fcalc.integrate import (
    ChoiceFunction,
    adt_check,
    antiderivative,
    bounds_check,
    darboux_bounds,
    ftc2_check,
    imvt_witness,
    integral_additivity_check,
    riemann_integral,
    riemann_sum,
)
from fcalc.interval import Partition, refine, uniform_partition
from fcalc.stepfn import (
    StepFunction,
    step_combine,
    step_integral,
    step_reexpress,
    step_split,
)
from helpers import mp_eval, random_partition, random_smooth_expr


def make_step(rng, a=0.0, b=1.0):
    nodes = random_partition(rng, a, b)
    values = rng.uniform(-10, 10, len(nodes) - 1)
    return StepFunction(Partition(nodes), tuple(values))


def test_step_integral_examples():
    phi = StepFunction(Partition((0.0, 0.5, 1.0)), (1.0, 3.0))
    assert step_integral(phi) == 2.0
    const = StepFunction(Partition((0.0, 3.0)), (5.0,))
    assert step_integral(const) == 15.0
    degenerate = StepFunction(Partition((2.0,)), ())
    assert step_integral(degenerate) == 0.0
    # the sum starts from +0.0, so -0.0 terms give +0.0, as numpy's sum did
    zero = step_integral(StepFunction(Partition((0.0, 1.0, 2.0)), (-0.0, -0.0)))
    assert math.copysign(1.0, zero) == 1.0


def test_step_function_node_value_convention():
    phi = StepFunction(Partition((0.0, 0.5, 1.0)), (1.0, 3.0))
    assert phi(0.0) == 1.0  # right cell at the left endpoint
    assert phi(0.5) == 1.0  # left cell at an interior node
    assert phi(1.0) == 3.0
    assert phi(0.25) == 1.0 and phi(0.75) == 3.0
    with pytest.raises(DomainError):
        phi(2.0)


def test_step_reexpress_examples():
    phi = StepFunction(Partition((0.0, 0.5, 1.0)), (1.0, 3.0))
    same = step_reexpress(phi, phi.partition)
    assert same == phi
    finer = step_reexpress(phi, Partition((0.0, 0.25, 0.5, 1.0)))
    assert finer.cell_values == (1.0, 1.0, 3.0)
    assert step_integral(finer) == 2.0
    with pytest.raises(PreconditionError):
        step_reexpress(phi, Partition((0.0, 0.25, 1.0)))


def test_step_reexpress_invariance_random():
    rng = np.random.default_rng(19)
    for _ in range(100):
        phi = make_step(rng)
        omega = refine(phi.partition, Partition(random_partition(rng)))
        psi = step_reexpress(phi, omega)
        i0, i1 = step_integral(phi), step_integral(psi)
        assert abs(i0 - i1) <= 1e-12 * max(1.0, abs(i0))


def test_step_combine_examples():
    phi = StepFunction(Partition((0.0, 0.5, 1.0)), (1.0, 3.0))
    zero = step_combine(phi, step_combine(phi, op="negate"), op="add")
    assert step_integral(zero) == 0.0
    doubled = step_combine(phi, op="scale", factor=2.0)
    assert step_integral(doubled) == 4.0
    psi = StepFunction(Partition((0.0, 0.25, 1.0)), (2.0, -1.0))
    total = step_combine(phi, psi, op="add")
    assert abs(step_integral(total) - (step_integral(phi) + step_integral(psi))) <= 1e-12
    with pytest.raises(PreconditionError):
        step_combine(phi, StepFunction(Partition((0.0, 2.0)), (1.0,)), op="add")


def test_step_monotonicity():
    rng = np.random.default_rng(23)
    for _ in range(50):
        phi = make_step(rng)
        bump = StepFunction(phi.partition,
                            tuple(v + rng.uniform(0, 3) for v in phi.cell_values))
        assert step_integral(phi) <= step_integral(bump) + 1e-12


def test_step_split_examples():
    phi = StepFunction(Partition((0.0, 0.5, 1.0)), (1.0, 3.0))
    left, right = step_split(phi, 0.5)
    assert step_integral(left) == 0.5 and step_integral(right) == 1.5
    left, right = step_split(phi, 0.25)
    assert step_integral(left) == 0.25 and step_integral(right) == 1.75
    left, right = step_split(phi, 0.0)
    assert left.partition.cell_count == 0 and step_integral(left) == 0.0
    assert step_integral(right) == 2.0
    with pytest.raises(PreconditionError):
        step_split(phi, 2.0)


def test_step_split_additivity_random():
    rng = np.random.default_rng(29)
    for _ in range(100):
        phi = make_step(rng)
        c = float(rng.uniform(0, 1))
        left, right = step_split(phi, c)
        total = step_integral(left) + step_integral(right)
        assert abs(total - step_integral(phi)) <= 1e-12 * max(1.0, abs(step_integral(phi)))


def test_darboux_examples():
    lower, upper = darboux_bounds(E.parse("x"), 0.0, 1.0, 4)
    assert lower == 0.375 and upper == 0.625
    lower, upper = darboux_bounds(E.parse("2.5"), 0.0, 3.0, 7)
    assert lower == upper == 7.5
    prev_gap = None
    for k in range(4, 13):
        lower, upper = darboux_bounds(E.parse("x^2"), 0.0, 1.0, 2**k)
        assert lower <= upper
        gap = upper - lower
        if prev_gap is not None:
            assert gap < prev_gap
        prev_gap = gap
    assert abs(lower - 1 / 3) <= 1e-3 and abs(upper - 1 / 3) <= 1e-3


def test_darboux_negation_duality_exact():
    rng = np.random.default_rng(31)
    for _ in range(20):
        f = random_smooth_expr(rng)
        n = int(rng.integers(1, 64))
        lower, upper = darboux_bounds(f, -1.0, 2.0, n)
        neg_lower, neg_upper = darboux_bounds(E.neg(f), -1.0, 2.0, n)
        assert neg_lower == -upper
        assert neg_upper == -lower
        assert lower <= upper


def test_riemann_sum_examples():
    p = uniform_partition(0.0, 1.0, 4)
    f = E.parse("x^2")
    assert riemann_sum(f, p, ChoiceFunction("left")) == 0.21875
    assert riemann_sum(f, p, ChoiceFunction("right")) == 0.46875
    assert riemann_sum(E.parse("4"), p, ChoiceFunction("midpoint")) == 4.0
    explicit = ChoiceFunction("explicit", points=(0.1, 0.3, 0.6, 0.9))
    assert abs(riemann_sum(E.parse("1"), p, explicit) - 1.0) <= 1e-15
    with pytest.raises(PreconditionError):
        riemann_sum(f, p, ChoiceFunction("explicit", points=(0.9, 0.3, 0.6, 0.1)))


def test_riemann_sum_between_darboux_bounds_for_monotone():
    f = E.parse("exp(x)")
    p = uniform_partition(0.0, 1.0, 16)
    lower, upper = darboux_bounds(E.parse("exp(x)"), 0.0, 1.0, 16)
    for kind in ("left", "right", "midpoint", "random"):
        s = riemann_sum(f, p, ChoiceFunction(kind, seed=4))
        assert lower - 1e-12 <= s <= upper + 1e-12


def test_riemann_integral_examples():
    cert = riemann_integral(E.parse("x^2"), 0.0, 1.0, 1e-6)
    assert cert.converged
    assert abs(cert.value - 1 / 3) <= 1e-6
    final = cert.levels[-1]
    assert final.lower <= cert.value <= final.upper
    cert = riemann_integral(E.parse("x"), 0.0, 1.0, 1e-5)
    assert abs(cert.value - 0.5) <= 1e-5
    cert = riemann_integral(E.parse("x^2"), 0.7, 0.7)
    assert cert.value == 0.0 and cert.converged


def test_riemann_integral_brackets_nest_for_monotone():
    cert = riemann_integral(E.parse("exp(x)"), 0.0, 1.0, 1e-4)
    for prev, nxt in zip(cert.levels, cert.levels[1:]):
        assert nxt.lower >= prev.lower
        assert nxt.upper <= prev.upper


def test_riemann_integral_brackets_nest_for_convex():
    # x^2 closes in one round (its cell enclosures are exact up to
    # rounding); each bracket is intersected with the one before, so
    # they nest exactly
    cert = riemann_integral(E.parse("exp(4*x)"), 0.0, 1.0, 1e-4)
    assert len(cert.levels) > 1
    for prev, nxt in zip(cert.levels, cert.levels[1:]):
        assert nxt.lower >= prev.lower
        assert nxt.upper <= prev.upper


def test_riemann_integral_closes_after_rounds_that_neither_freeze_nor_narrow():
    # sin on [0, 1000]: while cells are wider than the period, every cell's
    # enclosure is the first-order one, so the bracket stays [-1000, 1000]
    # and no cell freezes; a stop rule that gave up there would be wrong
    cert = riemann_integral(E.parse("sin(x)"), 0.0, 1000.0, 1e-2)
    first, second = cert.levels[:2]
    assert second.cells == 2 * first.cells
    assert second.upper - second.lower == first.upper - first.lower >= 2000.0
    assert cert.converged and abs(cert.value - (1 - math.cos(1000.0))) <= 1e-2
    assert cert.levels[-1].lower <= 1 - math.cos(1000.0) <= cert.levels[-1].upper


def test_riemann_integral_level_cap():
    with pytest.raises(IterationCapError):
        riemann_integral(E.parse("sin(1/x)"), 1e-6, 1.0, 1e-10, max_level=8)
    for max_level in (0, -1):   # one round on [a, b] itself, then the cap
        with pytest.raises(IterationCapError):
            riemann_integral(E.parse("sin(x)"), 0.0, 1000.0, 1e-2, max_level=max_level)


@pytest.mark.parametrize("text, a, b, tol, blame", [
    ("2", 0.0, 1.0, 1e-15, "tol is below the rounding of the bracket"),
    ("sin(1/x)", 1e-6, 1.0, 1e-10, "integrand may be unbounded or wildly oscillatory"),
])
def test_riemann_integral_blames_rounding_only_for_a_bracket_within_its_ulps(
        monkeypatch, text, a, b, tol, blame):
    # 2 keeps a bracket of 2.66e-15 from its first round on: no cell count closes it
    monkeypatch.setattr(interval, "CELL_BUDGET", 1 << 12)
    with pytest.raises(IterationCapError, match=f"cells in all; {blame}$"):
        riemann_integral(E.parse(text), a, b, tol)


@pytest.mark.parametrize("text, width", [("2", "2.6645352591003757e-15"),
                                         ("exp(x)", "3.1086244689504383e-15")])
def test_riemann_integral_refuses_a_tol_below_rounding_fast(text, width):
    # the bracket stalls within rounding after a few rounds; spending the
    # whole cell budget first took about 1 s
    import time

    f = E.parse(text)
    start = time.process_time()
    with pytest.raises(IterationCapError) as err:
        riemann_integral(f, 0.0, 1.0, 1e-15)
    assert time.process_time() - start < 0.1
    assert str(err.value) == (f"bracket width {width} still above 1e-15 with cells of depth 24 "
                              f"or {1 << 22} cells in all; tol is below the rounding of the bracket")


def test_integral_additivity_examples():
    f = E.parse("x^2")
    assert integral_additivity_check(f, 0.0, 0.3, 1.0, 1e-5)
    assert integral_additivity_check(f, 0.0, 0.0, 1.0, 1e-5)
    assert integral_additivity_check(E.parse("4"), -1.0, 0.5, 2.0, 1e-9)


def test_bounds_check_examples():
    assert bounds_check(E.parse("x^2"), 0.0, 1.0, 0.0, 1.0, 1e-6)
    assert bounds_check(E.parse("2"), 0.0, 1.0, 2.0, 2.0, 1e-9)
    with pytest.raises(PreconditionError):
        bounds_check(E.parse("x"), 0.0, 1.0, 0.6, 1.0, 1e-6)


def test_antiderivative_examples():
    f = E.parse("x^2")
    phi = antiderivative(f, 0.0, 1e-6)
    assert abs(phi(1.0) - 1 / 3) <= 1e-6
    assert phi(0.0) == 0.0
    h = 1e-3
    dphi = (phi(0.5 + h) - phi(0.5 - h)) / (2 * h)
    assert abs(dphi - 0.25) <= 1e-4


def test_ftc2_examples():
    assert ftc2_check(E.parse("x^3/3"), 0.0, 1.0, 1e-5)
    assert ftc2_check(E.parse("5"), -1.0, 2.0, 1e-9)
    assert ftc2_check(E.parse("exp(x)"), 0.0, 1.0, 1e-5)


def test_imvt_examples():
    assert abs(imvt_witness(E.parse("x^2"), 0.0, 1.0, 1e-6) - 1 / math.sqrt(3)) <= 1e-6
    assert imvt_witness(E.parse("7"), 0.0, 1.0, 1e-9) == 0.5
    assert abs(imvt_witness(E.parse("x"), 0.0, 2.0, 1e-6) - 1.0) <= 1e-5


def test_imvt_raises_where_f_does_not_meet_its_mean_on_the_scan():
    # a spike 1e-5 wide at 0.3: f is 0 on the whole scan and its mean 1.77e-5;
    # the grid point nearest the mean, 0.0, used to be returned as the witness
    with pytest.raises(DivergenceError, match="does not meet its mean"):
        imvt_witness(E.parse("exp(0-((x-0.3)*100000)^2)"), 0.0, 1.0, 1e-8)


def test_imvt_residual():
    f = E.parse("sin(x)")
    xi = imvt_witness(f, 0.0, 3.0, 1e-4)
    mean = riemann_integral(f, 0.0, 3.0, 1e-4).value / 3.0
    assert abs(math.sin(xi) - mean) <= 1e-4


def test_adt_examples():
    assert adt_check(E.parse("x^2"), E.parse("x^2 + 7"), 0.0, 1.0)
    assert adt_check(E.parse("x^3/3"), E.parse("x^3/3 - 1"), 0.0, 2.0)
    with pytest.raises(PreconditionError):
        adt_check(E.parse("x^2"), E.parse("x^3"), 0.0, 1.0)


@pytest.mark.parametrize("F, G", [
    ("sin(x)^2", "0-cos(x)^2"),
    ("(x+1)^2", "x^2 + 2*x"),
    ("exp(x)*exp(x)", "exp(2*x)"),
])
def test_adt_proves_derivatives_that_cancel(F, G):
    # F' - G' is 0 as a function but not as a tree: its natural enclosures
    # shrink only linearly with the cell, the mean-value form's quadratically
    assert E.differentiate(E.parse(F), 1) is not E.differentiate(E.parse(G), 1)
    assert adt_check(E.parse(F), E.parse(G), 0.0, 1.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=30))
def test_constant_integral_any_partition(n1, n2):
    phi = StepFunction(uniform_partition(0.0, 1.0, n1), (2.0,) * n1)
    psi = step_reexpress(phi, refine(phi.partition, uniform_partition(0.0, 1.0, n2)))
    assert abs(step_integral(psi) - 2.0) <= 1e-12


# ---------------------------------------------------------------------------
# enclosures against an mpmath oracle

def _mp_integral(f, a, b):
    import mpmath as mp

    mp.mp.dps = 30
    return mp, mp.quad(lambda x: mp_eval(f, x, mp), [a, b])


_EXTRAS = (
    None,
    lambda c: E.func("sqrt", E.X),                                   # f'' unbounded at 0
    lambda c: E.func("ln", E.add(E.const(1.0), E.pow_(E.X, 2))),
    lambda c: E.div(E.const(1.0), E.add(E.const(1.0), E.mul(E.const(c), E.pow_(E.X, 2)))),
)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(_EXTRAS), st.floats(0.2, 4.0),
       st.floats(-2.0, 2.0), st.floats(0.05, 3.0), st.floats(-8.0, -3.0),
       st.integers(1, 300))
def test_enclosures_contain_the_mpmath_integral(seed, extra, c, a, length, log_tol, n):
    f = random_smooth_expr(np.random.default_rng(seed))
    if extra is not None:
        f = E.add(f, E.mul(E.const(c / 4), extra(c)))
        if extra is _EXTRAS[1]:
            a = abs(a) if seed % 2 else 0.0  # sqrt's domain edge as an endpoint
    b, tol = a + length, 10.0 ** log_tol
    mp, truth = _mp_integral(f, a, b)
    lower, upper = darboux_bounds(f, a, b, n)
    slack = 1e-14 * (abs(lower) + abs(upper))  # the Darboux sums round to nearest
    assert lower - slack <= truth <= upper + slack
    cert = riemann_integral(f, a, b, tol)
    assert cert.converged and cert.levels[-1].upper - cert.levels[-1].lower <= tol
    for level in cert.levels:
        assert mp.mpf(level.lower) <= truth <= mp.mpf(level.upper)
    assert cert.levels[-1].lower <= cert.value <= cert.levels[-1].upper


@pytest.mark.parametrize("a", [0.0, 1e-300, 1e-92, 1e-20])
def test_sqrt_closes_just_right_of_its_domain_edge(a):
    # f'' = -x^-1.5/4 is finite but huge on the first cell when 0 < a << 1;
    # the first-order enclosure must take over there
    cert = riemann_integral(E.parse("sqrt(x)"), a, 1.0, 1e-3)
    assert cert.converged
    assert cert.levels[-1].lower <= 2 / 3 * (1 - a**1.5) <= cert.levels[-1].upper


def _kinked(kind, p, q, r):
    """An integrand with kinks of abs, and its kinks, as mpmath numbers."""
    X, c = E.X, E.const
    if kind == 0:    # abs(p x - q) + r x^2
        return (E.add(E.func("abs", E.sub(E.mul(c(p), X), c(q))), E.mul(c(r), E.pow_(X, 2))),
                lambda mp: [mp.mpf(q) / p])
    if kind == 1:    # x abs(x - q)
        return E.mul(X, E.func("abs", E.sub(X, c(q)))), lambda mp: [mp.mpf(q)]
    return (E.func("abs", E.func("sin", E.mul(c(p), X))),          # abs(sin(p x))
            lambda mp: [k * mp.pi / p for k in range(-8, 13)])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2), st.floats(0.5, 4.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
       st.floats(-2.0, 1.0), st.floats(0.1, 3.0), st.sampled_from([1e-4, 1e-6, 1e-8]))
def test_brackets_contain_the_mpmath_integral_split_at_the_kinks(kind, p, q, r, a, length,
                                                                 tol):
    # away from its kinks, abs takes the second-order cell enclosure; the
    # cell holding a kink falls back to w f(cell)
    import mpmath as mp

    f, kinks = _kinked(kind, p, q, r)
    b = a + length
    mp.mp.dps = 30
    nodes = [mp.mpf(a), *sorted(k for k in kinks(mp) if a < k < b), mp.mpf(b)]
    truth = mp.quad(lambda x: mp_eval(f, x, mp), nodes)
    cert = riemann_integral(f, a, b, tol)
    assert cert.converged and cert.levels[-1].upper - cert.levels[-1].lower <= tol
    for level in cert.levels:
        assert mp.mpf(level.lower) <= truth <= mp.mpf(level.upper)


def test_a_kink_of_abs_costs_its_own_cell_and_few_neighbours():
    # every cell was first order: 2,097,088 cells over 15 rounds, and
    # abs(sin(3x)) exp(x) on [0, 3] hit the cap at tol 1e-8
    cert = riemann_integral(E.parse("abs(x - 0.3)"), 0.0, 1.0, 1e-6)
    assert sum(level.cells for level in cert.levels) <= 2000
    assert cert.levels[-1].lower <= 0.29 <= cert.levels[-1].upper
    assert riemann_integral(E.parse("abs(sin(3*x))*exp(x)"), 0.0, 3.0, 1e-8).converged


_SPIKE = "1000*exp(0-((x-0.3)*100000)^2)"
_SPIKE_INTEGRAL = 0.017724538509055159   # 1000 sqrt(pi)/1e5 (erf(7e4) + erf(3e4))/2


def test_spike_is_never_certified_as_zero():
    # 16 uniform samples all miss a spike 1e-5 wide; enclosures cannot
    try:
        cert = riemann_integral(E.parse(_SPIKE), 0.0, 1.0, 1e-3)
    except MathError:
        return
    assert cert.converged and cert.value != 0.0
    assert abs(cert.value - _SPIKE_INTEGRAL) <= 1e-3
    assert cert.levels[-1].lower <= _SPIKE_INTEGRAL <= cert.levels[-1].upper


def test_darboux_bounds_are_unbounded_where_f_is():
    assert darboux_bounds(E.parse("1/x"), -1.0, 1.0, 4) == (-math.inf, math.inf)
    assert darboux_bounds(E.parse("ln(x)"), 0.0, 1.0, 4)[0] == -math.inf
    lower, upper = darboux_bounds(E.parse("x^2"), -1.0, 1.0, 2)   # even-power rule
    assert lower == 0.0 and 2.0 <= upper <= 2.0 + 1e-15


def test_riemann_integral_fails_fast_where_f_is_undefined():
    with pytest.raises(DomainError):
        riemann_integral(E.parse("ln(x)"), -1.0, 1.0)
    with pytest.raises(PreconditionError):
        riemann_integral(E.parse("exp(exp(x))"), 0.0, 10.0)
    with pytest.raises(IterationCapError):   # unbounded near 0: two cells per round
        riemann_integral(E.parse("1/x"), -1.0, 2.0)
    for tol in (0.0, math.nan, math.inf):
        with pytest.raises(PreconditionError):
            riemann_integral(E.parse("x"), 0.0, 1.0, tol)
