import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcalc import interval
from fcalc.errors import IterationCapError, NestingError, PreconditionError
from fcalc.interval import (
    Interval,
    OpenInterval,
    Partition,
    bisect,
    refine,
    shrink_to_point,
    uniform_partition,
)
from fcalc.expr import parse
from helpers import random_partition


def _routines_with_a_tol():
    from fcalc import calculus as C, integrate as I, sequences as S, suprema as P
    from fcalc.expr import parse

    x2, x3 = parse("x^2"), parse("x^3")
    return {
        "limit": lambda t: C.limit(parse("x"), 0.0, tol=t),
        "derivative": lambda t: C.derivative(x2, 0.0, tol=t),
        "extreme_point": lambda t: C.extreme_point(x2, 0.0, 1.0, t),
        "rolle_witness": lambda t: C.rolle_witness(parse("x*(1-x)"), 0.0, 1.0, t),
        "mvt_witness": lambda t: C.mvt_witness(x2, 0.0, 1.0, t),
        "emvt_witness": lambda t: C.emvt_witness(x2, parse("x"), 0.0, 1.0, t),
        "taylor": lambda t: C.taylor(parse("exp(x)"), 0.0, 2, 1.0, t),
        "polynomial_check": lambda t: C.polynomial_check(parse("exp(x)"), 0.0, 1.0, 1, t),
        "shape_checks": lambda t: C.shape_checks(x2, 0.0, 1.0, "constant", t),
        "riemann_integral": lambda t: I.riemann_integral(x2, 0.0, 1.0, t),
        "imvt_witness": lambda t: I.imvt_witness(x2, 0.0, 1.0, t),
        "adt_check": lambda t: I.adt_check(x2, x3, 0.0, 1.0, t),
        "ivt_root": lambda t: P.ivt_root(parse("x^3 - x - 1"), 1.0, 2.0, 0.0, t),
        "supremum": lambda t: P.supremum(P.PredicateSet(lambda v: v * v < 2, 0.0, 2.0), t),
        "cut_point": lambda t: P.cut_point(P.Cut(lambda v: v < 0.5, 0.0, 1.0), t),
        "shrink_to_point": lambda t: shrink_to_point(lambda k: 0.0, lambda k: 1.0 / k, t),
        "monotone_limit": lambda t: S.monotone_limit(lambda n: 1 - 1 / n, 1.0, t),
        "cauchy_limit": lambda t: S.cauchy_limit(lambda n: 1 / n, Interval(0.0, 1.0), t),
    }


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, math.inf])
@pytest.mark.parametrize("name", sorted(_routines_with_a_tol()))
def test_every_routine_with_a_tol_needs_a_positive_finite_one(name, tol):
    # a NaN tol passed every "tol <= 0" check and gave answers (1.5 for the root
    # of x^3 - x - 1 on [1, 2]), or was never checked at all
    with pytest.raises(PreconditionError, match="tol must be positive and finite"):
        _routines_with_a_tol()[name](tol)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def test_bisect_examples():
    left, right = bisect(Interval(0, 1))
    assert (left.lo, left.hi, right.lo, right.hi) == (0.0, 0.5, 0.5, 1.0)
    left, right = bisect(Interval(2, 2))
    assert left == right == Interval(2, 2)


def test_open_interval_is_a_pair_of_floats():
    p = OpenInterval(1, "2.5")
    assert tuple(p) == (1.0, 2.5) and type(p.lo) is type(p.hi) is float
    assert (p.length, p.to_json(), p.contains(1), p.contains(2)) == (1.5, [1.0, 2.5], False, True)
    with pytest.raises(AttributeError):
        p.lo = 0.0


def test_k_fold_bisection_halves_length():
    box = Interval(0.0, 1.0)
    for k in range(1, 40):
        box, _ = bisect(box)
        assert box.length == 1.0 / 2**k


@settings(max_examples=100, deadline=None)
@given(finite, finite)
def test_bisect_lengths_sum_within_ulp(a, b):
    a, b = sorted((a, b))
    i = Interval(a, b)
    left, right = bisect(i)
    total = left.length + right.length
    assert abs(total - i.length) <= math.ulp(max(1.0, abs(i.length)))
    assert left.hi == right.lo
    assert i.contains(left.hi)


def test_uniform_partition_examples():
    assert uniform_partition(0, 1, 4).nodes == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert uniform_partition(0, 1, 1).nodes == (0.0, 1.0)
    # smallest n with (b-a)/n < delta for delta = 0.3 on [0, 1]
    delta = 0.3
    n = 1
    while 1.0 / n >= delta:
        n += 1
    assert n == 4
    assert all(w < delta for w in uniform_partition(0, 1, n).widths())


def test_uniform_partition_endpoints_exact():
    p = uniform_partition(0.1, 0.3, 7)
    assert p.nodes[0] == 0.1 and p.nodes[-1] == 0.3
    widths = p.widths()
    target = (0.3 - 0.1) / 7
    # direct-formula nodes keep each width within one ulp at endpoint scale
    assert np.all(np.abs(widths - target) <= math.ulp(0.3))


def test_uniform_partition_rejects_zero_cells():
    with pytest.raises(PreconditionError):
        uniform_partition(0, 1, 0)


def test_uniform_partition_refuses_more_cells_than_the_cell_budget(monkeypatch):
    monkeypatch.setattr(interval, "CELL_BUDGET", 8)
    assert len(uniform_partition(0, 1, 8).nodes) == 9
    with pytest.raises(PreconditionError, match="n <= 8"):
        uniform_partition(0, 1, 9)


def test_degenerate_partition():
    assert uniform_partition(2, 2, 1).nodes == (2.0,)
    assert Partition((2.0,)).cell_count == 0


def test_refine_examples():
    p = Partition((0, 0.5, 1))
    q = Partition((0, 0.25, 1))
    assert refine(p, q).nodes == (0.0, 0.25, 0.5, 1.0)
    assert refine(p, p) == p
    with pytest.raises(PreconditionError):
        refine(p, Partition((0, 0.5, 2)))


def test_refine_commutative_on_random_pairs():
    rng = np.random.default_rng(3)
    for _ in range(100):
        p = Partition(random_partition(rng))
        q = Partition(random_partition(rng))
        assert refine(p, q) == refine(q, p)
        assert set(p.nodes) <= set(refine(p, q).nodes)


def test_partition_covers_interval():
    rng = np.random.default_rng(9)
    p = Partition(random_partition(rng))
    cells = p.cells()
    for x in np.linspace(p.a, p.b, 257):
        assert any(lo <= x <= hi for lo, hi in cells)


def test_shrink_to_point_examples():
    assert abs(shrink_to_point(lambda k: 0.0, lambda k: 2.0 ** (1 - k), 1e-9)) <= 1e-9
    # lengths 2/k reach 1e-6 only past index 2e6, so raise the cap
    symmetric = shrink_to_point(lambda k: 1 - 1 / k, lambda k: 1 + 1 / k, 1e-6,
                                max_iter=3 * 10**6)
    assert abs(symmetric - 1.0) <= 1e-6
    # end rules may be trees in n, which evaluate at float(k)
    assert shrink_to_point(parse("0 - 1/n", "n"), parse("1/n", "n"), 1e-4) == 0.0


def test_shrink_to_point_fat_intersection_hits_cap():
    with pytest.raises(IterationCapError):
        shrink_to_point(lambda k: 3.0, lambda k: 5.0, 1e-9, max_iter=10_000)


def test_shrink_to_point_detects_nesting_violation():
    with pytest.raises(NestingError):  # [0, 1], then [0.5, 2]
        shrink_to_point(lambda k: 0.0 if k == 1 else 0.5, lambda k: 1.0 if k == 1 else 2.0, 1e-9)


def test_interval_validation():
    with pytest.raises(PreconditionError):
        Interval(2, 1)
    with pytest.raises(PreconditionError):
        Partition((0.0, 0.0, 1.0))
