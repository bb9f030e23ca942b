import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcalc import calculus
from fcalc import expr as E
from fcalc.calculus import (
    SCAN,
    _crossing,
    derivative,
    emvt_witness,
    extreme_point,
    limit,
    mvt_witness,
    piecewise_linear,
    polynomial_check,
    rolle_witness,
    shape_checks,
    taylor,
)
from fcalc.errors import (
    DivergenceError,
    DomainError,
    IterationCapError,
    MathError,
    OneSidedDisagreementError,
    PreconditionError,
)
from fcalc.suprema import bisect_root
from helpers import expr_trees, mp_diff, mp_eval, random_smooth_expr


def test_limit_examples():
    rep = limit(E.parse("(x^2-1)/(x-1)"), 1.0)
    assert rep.converged and abs(rep.estimate - 2.0) <= 1e-6
    rep = limit(E.parse("x"), 3.7)
    assert abs(rep.estimate - 3.7) <= 1e-6
    with pytest.raises(OneSidedDisagreementError) as err:
        limit(E.parse("abs(x)/x"), 0.0)
    assert abs(err.value.left + 1.0) <= 1e-9
    assert abs(err.value.right - 1.0) <= 1e-9
    # f is undefined at the left end of the first windows only, so the scan
    # goes on to smaller ones (it stopped at the first, with a DomainError)
    rep = limit(E.parse("sin(x)/x + 0*sqrt(x + 0.006)"), 0.0)
    assert rep.converged and abs(rep.estimate - 1.0) <= 1e-6


def test_limit_one_sided_modes():
    f = E.parse("abs(x)/x")
    assert abs(limit(f, 0.0, "left").estimate + 1.0) <= 1e-9
    assert abs(limit(f, 0.0, "right").estimate - 1.0) <= 1e-9


def test_limit_report_invariant():
    rep = limit(E.parse("sin(x)/x"), 0.0, tol=1e-6)
    assert rep.converged
    assert rep.spread <= 1e-6


def test_limit_divergence_error():
    # sin(1/x) oscillates through every window near 0
    with pytest.raises(DivergenceError):
        limit(E.parse("sin(1/x)"), 0.0, tol=1e-6)
    # f is undefined on one side of c in every window: the error names it
    with pytest.raises(DivergenceError, match="no two-sided limit: f is undefined left of c = 0.0"):
        limit(E.parse("sqrt(x)"), 0.0)
    with pytest.raises(DivergenceError, match="undefined right of c = 0.0, within 1.86"):
        limit(E.parse("ln(0-x)"), 0.0)


@pytest.mark.parametrize("c, mode, step, side", [
    (1e300, "two-sided", 1, "the window"),            # runs no step: every point rounds onto c
    (1e12, "right", 5, "the window"),                 # window/8 below ulp(1e12) = 2^-13
    (2.0**40, "two-sided", 4, "the window"),          # window/8 below ulp(2^40) = 2^-12
])
def test_limit_names_the_step_where_the_window_rounds_onto_c(c, mode, step, side):
    # a NaN f never converges, so the scan runs until its window falls below the spacing at c
    with pytest.raises(DivergenceError) as err:
        limit(E.parse("1e400*x - 1e400*x"), c, mode)
    assert str(err.value) == (
        f"no convergence: stopped at step {step} of 30, where {side} fell below the "
        f"double spacing at c = {c!r} (estimate nan, spread nan)")


def test_limit_algebra_numerically():
    rng = np.random.default_rng(31)
    for _ in range(50):
        f = random_smooth_expr(rng)
        g = random_smooth_expr(rng)
        c = float(rng.uniform(-1, 1))
        k = float(rng.uniform(-2, 2))
        lf = limit(f, c, tol=1e-7).estimate
        lg = limit(g, c, tol=1e-7).estimate
        tol = 1e-6
        assert abs(limit(E.add(f, g), c, tol=1e-7).estimate - (lf + lg)) <= tol * (1 + abs(lf + lg))
        assert (abs(limit(E.mul(E.const(k), f), c, tol=1e-7).estimate - k * lf)
                <= tol * (1 + abs(k * lf)))
        assert abs(limit(E.mul(f, g), c, tol=1e-7).estimate - lf * lg) <= 2e-6 * (1 + abs(lf * lg))


def test_derivative_examples():
    assert abs(derivative(E.parse("x^2"), 1.0).estimate - 2.0) <= 1e-6
    assert abs(derivative(E.parse("7"), 0.3).estimate) <= 1e-9
    assert abs(derivative(E.parse("exp(x)"), 0.0).estimate - 1.0) <= 1e-6


def test_derivative_matches_symbolic_on_smooth_exprs():
    rng = np.random.default_rng(41)
    for _ in range(30):
        f = random_smooth_expr(rng)
        c = float(rng.uniform(-1, 1))
        sym = E.evaluate(E.differentiate(f, 1), c)
        rep = derivative(f, c, tol=1e-6)
        assert (rep.estimate, rep.steps_used) == (sym, 0)


@pytest.mark.parametrize("f, c, n, want", [
    # the difference quotient converged to 0.9999999999884568 on the wiggle
    ("x + 1e-13*sin(x*1e13)", 0.0, 1, 2.0),
    ("x + 1/1e-300^-2", 1.0, 1, 1.0),   # the constant's derivative folds to 0, not nan
    ("x^3", 2.0, 7, 0.0),
    ("exp(x)", 0.0, 3, 1.0),
    ("sin(x)", 1.0, 0, math.sin(1.0)),
])
def test_derivative_reads_the_symbolic_derivative_where_it_is_defined(f, c, n, want):
    rep = derivative(E.parse(f), c, n)
    assert (rep.estimate, rep.spread, rep.converged, rep.steps_used) == (want, 0.0, True, 0)


def test_limit_of_a_function_defined_about_c_is_its_value():
    # a bump 1e-12 wide: every window of the scan missed it and gave 1.0
    rep = limit(E.parse("1 + exp(0-(x*1e12)^2)"), 0.0)
    assert (rep.estimate, rep.steps_used) == (2.0, 0)
    # defined on the right of 0 only: exact from the right, sampled from the left
    assert limit(E.parse("sqrt(x)"), 0.0, "right").steps_used == 0
    with pytest.raises(DivergenceError, match="no left limit: f is undefined left of c = 0.0"):
        limit(E.parse("sqrt(x)"), 0.0, "left")


# points near the constants, where a tree's poles and domain edges lie, at
# distances on the scale of each of the twelve cells
_NEAR_EDGES = st.builds(lambda p, k, s: p + s * 16.0 ** -k, st.sampled_from([0.0, 1.0, -1.0, 0.3]),
                        st.integers(1, 13), st.floats(-2.0, 2.0))


@settings(max_examples=400, deadline=None)
@given(expr_trees((0.0, 1.0, -1.0, 2.5, 0.3), max_leaves=8),
       st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.3, 1e-300, 1e300]), st.floats(-4.0, 4.0),
                 _NEAR_EDGES),
       st.sampled_from(["left", "right", "two-sided"]))
def test_the_smallest_cell_decides_as_any_of_twelve_nested_cells_would(f, c, mode):
    # natural interval extensions are inclusion isotone: f encloses finitely
    # on the cell of radius (1 + |c|)*16^-12 exactly where it does on one of
    # the cells of radius (1 + |c|)*16^-k, k = 1..12, that contain it
    def finite(radius):
        r = (1 + abs(c)) * radius
        inf, sup = E.enclose(f, c if mode == "right" else c - r, c if mode == "left" else c + r)
        return math.isfinite(inf) and math.isfinite(sup)

    assert calculus.CELL == 16.0 ** -12
    assert calculus._defined_about((f,), c, mode) == any(finite(16.0 ** -k) for k in range(1, 13))


def test_derivative_checks_its_premise_and_falls_back_to_the_limit():
    # f = sqrt(x)^0 is undefined about -1, though its symbolic f'' folds to 0
    with pytest.raises(DivergenceError, match="about c = -1.0"):
        derivative(E.parse("sqrt(x)^0"), -1.0, 2)
    with pytest.raises(DivergenceError):
        derivative(E.parse("sin(x)/x"), 0.0)
    with pytest.raises(DomainError):       # order 0 is f(c), with no limit
        derivative(E.parse("sin(x)/x"), 0.0, 0)
    with pytest.raises(PreconditionError):
        derivative(E.parse("x"), 0.0, -1)
    # f' = x/abs(x) is undefined at the kink, so its limit is sampled
    with pytest.raises(OneSidedDisagreementError):
        derivative(E.parse("abs(x)"), 0.0)


@settings(max_examples=200, deadline=None)
@given(expr_trees((0.0, 1.0, -1.0, 2.5), max_leaves=6),
       st.one_of(st.sampled_from([0.0, 1.0, -1.0]), st.floats(-2.0, 2.0)),
       st.sampled_from([1, 2]))
def test_an_exact_derivative_agrees_with_mpmath(f, c, n):
    try:
        rep = derivative(f, c, n)
    except MathError:
        return
    if rep.steps_used:
        return
    want = float(mp_diff(f, c, n))
    # beyond 1e-9 relative, the rounding of the float evaluation, bounded by
    # the width of f^(n)'s enclosure on [c, c] ((x^-1)^-1 has f'' = 2.2e-16
    # at 1.625), and mpmath's own error where f^(n) is 0 (1e-88 for x^3 at 0)
    inf, sup = E.enclose(E.differentiate(f, n), np.array([c]), np.array([c]))
    slack = float(sup[0] - inf[0]) + 1e-30
    assert abs(rep.estimate - want) <= 1e-9 * abs(want) + slack, (E.to_text(f), c, n)


def test_extreme_point_examples():
    # tol bounds the value, not the argmax: the mean-value bound closes the
    # gap while c is still about 2e-6 from 0.5
    f = E.parse("x*(1-x)")
    c, fc = extreme_point(f, 0.0, 1.0)
    assert fc == E.evaluate(f, c) and abs(fc - 0.25) <= 1e-9
    c, fc = extreme_point(E.parse("x"), 0.0, 1.0)
    assert c == 1.0 and fc == 1.0
    c, fc = extreme_point(E.parse("3"), 0.0, 1.0)
    assert c == 0.0 and fc == 3.0  # ties go to the smallest x


def test_extreme_point_certifies_x_minus_x():
    # the natural extension of x - x is 2w wide on every cell; f' = 0 closes it
    assert extreme_point(E.parse("x-x"), 0.0, 1.0) == (0.0, 0.0)


def test_extreme_point_finds_a_spike_samples_miss():
    # 1e-5 wide at 0.3: a 256-point grid sees only zeros
    c, fc = extreme_point(E.parse("exp(-((x-0.3)*100000)^2)"), 0.0, 1.0, 1e-9)
    assert abs(c - 0.3) <= 1e-5 and abs(fc - 1.0) <= 1e-9


@pytest.mark.parametrize("text, a, b, error", [
    ("1/(x-0.3)", 0.0, 1.0, IterationCapError),    # unbounded: the gap never closes
    ("exp(1000*x)", 0.0, 1.0, PreconditionError),  # f(1) overflows
    ("ln(x)", 0.0, 1.0, DomainError),              # undefined at a
])
def test_extreme_point_raises_where_it_cannot_certify(text, a, b, error):
    with pytest.raises(error):
        extreme_point(E.parse(text), a, b)


def test_extreme_point_keeps_only_the_pole_cell_open(monkeypatch):
    # 0/x is 0 wherever it is defined: every cell but the pole's is within
    # tol of the best value, so one cell stays open per round until depth
    # MAX_DEPTH, where the flat cells once filled the 2^22-cell budget
    from fcalc import calculus

    opened = []

    def refine_cells(a, b, judge, max_depth):
        def counted(lo, hi):
            keep = judge(lo, hi)
            opened.append(None if keep is None else int(np.count_nonzero(keep)))
            return keep
        return refine(a, b, counted, max_depth)

    refine = calculus.refine_cells
    monkeypatch.setattr(calculus, "refine_cells", refine_cells)
    with pytest.raises(IterationCapError, match="cells of depth 52"):
        extreme_point(E.parse("0/x"), -1.0, 0.5, 1e-2)
    assert 0 < len(opened) <= 10 and set(opened) == {1}


@settings(max_examples=60, deadline=None)
@given(expr_trees((0.0, 1.0, -1.0, 2.5), max_leaves=6), st.floats(-2.0, 2.0),
       st.floats(0.01, 2.0), st.sampled_from([1e-3, 1e-6, 1e-9]))
def test_extreme_point_bounds_a_dense_maximum_or_raises(f, a, width, tol):
    import mpmath as mp

    b = a + width
    try:
        c, value = extreme_point(f, a, b, tol)
    except MathError:
        return
    assert a <= c <= b
    dense = E.evaluate(f, np.linspace(a, b, 10**4))   # defined: no cell was unbounded
    assert float(np.max(dense)) <= value + tol * (1 + abs(value))
    mp.mp.dps = 40
    assert abs(mp_eval(f, mp.mpf(c), mp) - value) <= 1e-9 * (1 + abs(value))


def test_extreme_point_dominates_probes():
    rng = np.random.default_rng(2)
    f = random_smooth_expr(rng)
    c, fc = extreme_point(f, -1.0, 2.0)
    assert fc >= float(np.max(E.evaluate(f, np.linspace(-1, 2, 57))))


def test_rolle_examples():
    assert abs(rolle_witness(E.parse("x*(1-x)"), 0.0, 1.0, 1e-8) - 0.5) <= 1e-8
    assert abs(rolle_witness(E.parse("sin(x)"), 0.0, math.pi, 1e-6) - math.pi / 2) <= 1e-6
    assert rolle_witness(E.parse("0"), 0.0, 1.0, 1e-8) == 0.5   # flat: the midpoint
    with pytest.raises(PreconditionError):
        rolle_witness(E.parse("x"), 0.0, 1.0, 1e-8)


def test_rolle_needs_its_ends_in_order():
    # reversed, the scan ran from 1 down to -0.2 and returned an unpolished
    # grid midpoint, 0.56608
    f = E.parse("(x-1)*(x+0.2)*exp(x)")
    with pytest.raises(PreconditionError, match="need a < b"):
        rolle_witness(f, 1.0, -0.2)
    # f' = exp(x) (x^2 + 1.2x - 1)
    assert abs(rolle_witness(f, -0.2, 1.0) - (math.sqrt(5.44) - 1.2) / 2) <= 1e-12


def _outcome(fn):
    try:
        return fn()
    except MathError as e:
        return type(e)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-2.0, 0.0), st.floats(0.5, 2.0))
def test_mvt_and_emvt_are_rolle_on_their_auxiliary_functions(seed, a, width):
    # the paper's RT => MVT => eMVT: each witness is Rolle's witness of the
    # auxiliary function of the proof, bit for bit
    rng = np.random.default_rng(seed)
    b = a + width
    f = random_smooth_expr(rng)
    p, q = (float(v) for v in rng.uniform(0.2, 3.0, 2))
    g = E.add(E.Var(), E.mul(E.const(0.9 / p), E.func("sin", E.add(E.mul(E.const(p), E.Var()),
                                                                     E.const(q)))))
    fa, fb, ga, gb = (E.evaluate(h, t) for h in (f, g) for t in (a, b))
    slope = (fb - fa) / (b - a)
    mvt_aux = E.sub(f, E.mul(E.const(slope), E.Var()))
    assert _outcome(lambda: mvt_witness(f, a, b)) == _outcome(lambda: rolle_witness(mvt_aux, a, b))
    emvt_aux = E.sub(E.mul(E.const(gb - ga), E.sub(f, E.const(fa))),
                     E.mul(E.sub(g, E.const(ga)), E.const(fb - fa)))
    c = _outcome(lambda: emvt_witness(f, g, a, b))
    rolle = _outcome(lambda: rolle_witness(emvt_aux, a, b))
    assert c == rolle or isinstance(c, type) and isinstance(rolle, type)


def _rolle_by_scalar_scan(f, a, b, scan=512, tol=1e-8):
    """Reference: Rolle's grid scan with one scalar derivative call per point."""
    df = E.differentiate(f, 1)
    dfn = lambda t: E.evaluate(df, t)
    xs = np.linspace(a, b, scan + 2)[1:-1]
    dvals = [dfn(float(t)) for t in xs]
    for i, (u, v) in enumerate(zip(dvals, dvals[1:])):
        if u == 0.0:
            return float(xs[i])
        if u * v < 0:
            found = bisect_root(dfn, float(xs[i]), float(xs[i + 1]), 0.0,
                                tol=max(1e-13, (b - a) * 1e-13))
            return found.root if abs(found.residual) <= tol else None  # a jump: no witness
    return None


def test_rolle_array_scan_matches_scalar_scan():
    rng = np.random.default_rng(5)
    checked = 0
    for k in range(60):
        a = round(float(rng.uniform(-2, 1)), 3)
        b = round(a + float(rng.uniform(0.2, 3)), 3)
        p, q = (round(float(v), 3) for v in rng.uniform(0.3, 3, 2))
        h = [f"sin({p}*x + {q})", f"exp({p}*x) - {q}*x^2", f"abs(x - {q}) + {p}*x^2"][k % 3]
        f = E.parse(f"(x - {a})*(x - {b})*({h})")
        want = _rolle_by_scalar_scan(f, a, b)
        if want is not None:
            assert rolle_witness(f, a, b) == want
            checked += 1
    assert checked >= 40


def test_mvt_examples():
    assert abs(mvt_witness(E.parse("x^2"), 0.0, 2.0, 1e-8) - 1.0) <= 1e-8
    c = mvt_witness(E.parse("x^3"), -1.0, 1.0, 1e-8)
    assert abs(3 * c * c - 1.0) <= 1e-8
    assert abs(abs(c) - 1 / math.sqrt(3)) <= 1e-7
    # affine functions satisfy the identity at any returned point
    f = E.parse("3*x + 1")
    c = mvt_witness(f, 0.0, 1.0, 1e-8)
    assert abs(E.evaluate(E.differentiate(f, 1), c) - 3.0) <= 1e-12


def test_mvt_residual_contract_on_random_cases():
    rng = np.random.default_rng(57)
    tol = 1e-8
    for _ in range(50):
        f = random_smooth_expr(rng)
        a = float(rng.uniform(-2, 0))
        b = a + float(rng.uniform(0.5, 2.0))
        slope = (E.evaluate(f, b) - E.evaluate(f, a)) / (b - a)
        c = mvt_witness(f, a, b, tol)
        assert a < c < b
        assert abs(E.evaluate(E.differentiate(f, 1), c) - slope) <= tol


def test_emvt_examples():
    assert abs(emvt_witness(E.parse("x^2"), E.parse("x"), 0.0, 2.0, 1e-8) - 1.0) <= 1e-8
    c = emvt_witness(E.parse("x^3"), E.parse("x^2"), 1.0, 2.0, 1e-6)
    assert abs(c - 14.0 / 9.0) <= 1e-6
    with pytest.raises(PreconditionError):
        emvt_witness(E.parse("x^3"), E.parse("x^2"), -1.0, 1.0, 1e-8)
    # g' = 3 cos(3x) vanishes at pi/6, where the bisected residual is not 0
    # but within tol
    with pytest.raises(PreconditionError, match="vanishes at x = 0.52359877"):
        emvt_witness(E.parse("x^2"), E.parse("sin(3*x)"), 0.0, 1.0)


def test_taylor_exp_example():
    rep = taylor(E.parse("exp(x)"), 0.0, 2, 1.0)
    rho_expected = 6 * (math.e - 2.5)
    assert abs(rep.rho - rho_expected) <= 1e-9
    assert rep.witness is not None
    assert abs(rep.witness - math.log(rho_expected)) <= 1e-6
    assert 0.0 < rep.witness < 1.0
    assert rep.converged


def test_taylor_polynomial_degenerate():
    rep = taylor(E.parse("1 + x + x^2"), 0.0, 2, 0.7)
    assert abs(rep.rho) <= 1e-9
    assert abs(rep.remainder) <= 1e-9
    assert abs(rep.value - E.evaluate(E.parse("1 + x + x^2"), 0.7)) <= 1e-12


def test_taylor_cubic_witness():
    rep = taylor(E.parse("x^3"), 0.0, 1, 1.0)
    assert abs(rep.rho - 2.0) <= 1e-12
    assert rep.witness is not None
    assert abs(rep.witness - 1.0 / 3.0) <= 1e-9


def test_taylor_witness_is_the_midpoint_where_the_derivative_is_flat():
    # f'' = 2 = rho everywhere: every point is a witness, and the scan says so
    rep = taylor(E.parse("x^2"), 0.0, 1, 1.0)
    assert rep.rho == 2.0 and rep.witness == 0.5


def test_taylor_identity_on_random_cases():
    rng = np.random.default_rng(71)
    for _ in range(30):
        f = random_smooth_expr(rng)
        n = int(rng.integers(0, 4))
        a = float(rng.uniform(-1, 0))
        x = a + float(rng.uniform(0.2, 1.5))
        rep = taylor(f, a, n, x, tol=1e-9)
        fx = E.evaluate(f, x)
        assert abs(rep.value + rep.remainder - fx) <= 1e-9 * (1 + abs(fx))
        if rep.witness is not None:
            assert a < rep.witness < x


@pytest.mark.parametrize("a, n, x", [(0.0, 2, 1e300), (-1e200, 2, 1e200), (0.0, 30, 1e-300),
                                     (0.0, 171, 1.0)])
def test_taylor_rejects_a_step_whose_top_power_leaves_the_double_range(a, n, x):
    # h^(n+1) overflowed with a traceback, or underflowed to a division by zero
    with pytest.raises(PreconditionError, match="outside the double range"):
        taylor(E.parse("x"), a, n, x)


def test_shape_checks_on_one_point_and_on_a_reversed_interval():
    for kind in ("convex", "increasing", "constant"):
        assert shape_checks(E.parse("x"), 0.0, -0.0, kind) == (True, None)
        with pytest.raises(PreconditionError, match="need a <= b"):
            shape_checks(E.parse("x"), 1.0, 0.0, kind)
    with pytest.raises(PreconditionError, match="unknown kind"):
        shape_checks(E.parse("x"), 0.0, 1.0, "concave")


def test_polynomial_check_examples():
    assert polynomial_check(E.parse("3*x^2 - x"), -1.0, 1.0, 2)
    assert not polynomial_check(E.parse("exp(x)"), 0.0, 1.0, 5, tol=1e-9)
    assert polynomial_check(E.parse("42"), 0.0, 1.0, 0)


def test_polynomial_check_decides_each_way():
    for text in ("3*x^2 - x", "(x+1)^3"):   # f^(n+1) folds to 0: no enclosure needed
        assert E.differentiate(E.parse(text), 4) is E.const(0.0)
        assert polynomial_check(E.parse(text), -1.0, 1.0, 3)
    # exp's sixth derivative is at least 1 on [0, 1]: disproved on the first cells
    assert not polynomial_check(E.parse("exp(x)"), 0.0, 1.0, 5, tol=1e-9)
    # the fourth derivative 1e-12 sin(x) is enclosed in [-1e-9, 1e-9] on every cell
    assert polynomial_check(E.parse("x^3 + 1e-12*sin(x)"), 0.0, 1.0, 3, tol=1e-9)
    assert not polynomial_check(E.parse("x^3 + 1e-6*sin(x)"), 0.5, 1.0, 3, tol=1e-9)
    # f'' = k - k for one tree k: its natural enclosures never narrow to 0,
    # the mean-value form's do
    assert polynomial_check(E.parse("x + 1/x - 1/x"), 0.5, 1.0, 1)


@pytest.mark.parametrize("text, a, b, n", [
    ("sqrt(0.5-x)^0 + x", 0.0, 1.0, 1),   # f'' folds to 0, f is undefined past 0.5
    ("ln(x)", -2.0, -1.0, 0),             # f' = 1/x is defined where ln(x) is not
    ("(x/x)^0", 0.0, 1.0, 0),             # undefined at a alone, never a cell midpoint
])
def test_polynomial_check_needs_f_defined_where_its_derivative_is(text, a, b, n):
    with pytest.raises(DomainError):
        polynomial_check(E.parse(text), a, b, n)


@pytest.mark.parametrize("a, b, n, message", [
    (0.0, 1.0, -1, "n must be nonnegative"),
    (-math.inf, 1.0, 1, "need a finite interval"),
    (0.0, math.nan, 1, "need a finite interval"),
])
def test_polynomial_check_rejects_bad_arguments(a, b, n, message):
    # a NaN node used to reach polyfit, whose SVD raised LinAlgError
    with pytest.raises(PreconditionError, match=message):
        polynomial_check(E.parse("x"), a, b, n)


@pytest.mark.parametrize("text", ["x", "sin(x)", "abs(x)", "x^7 - exp(x)"])
def test_every_function_is_a_constant_on_one_point(text):
    for n in (0, 3):
        assert polynomial_check(E.parse(text), 0.5, 0.5, n)
    with pytest.raises(DomainError):   # unless it is undefined there
        polynomial_check(E.parse(f"({text})/(x - 0.5)"), 0.5, 0.5, 0)


def test_shape_checks_examples():
    ok, ce = shape_checks(E.parse("x^2"), -1.0, 1.0, "convex")
    assert ok and ce is None
    assert shape_checks(E.parse("x^3"), 0.0, 2.0, "increasing")[0]
    assert shape_checks(E.parse("x^3"), -1.0, 1.0, "increasing")[0]
    ok, ce = shape_checks(E.parse("sin(x)"), 0.0, 1.0, "constant")
    assert not ok and ce is not None


def test_shape_checks_find_a_spike_samples_miss():
    # a spike 1e-5 wide at 0.3, and a dip whose descent, where f' < 0, spans
    # the 2.9e-3 left of 0.3: random pairs of points miss both
    spike = E.parse("exp(-((x-0.3)*100000)^2)")
    for f, kind, near in ((spike, "constant", 1e-4), (spike, "increasing", 1e-4),
                          (E.parse("x - exp(-((x-0.3)*1000)^2)"), "increasing", 3e-3)):
        ok, (lo, hi) = shape_checks(f, 0.0, 1.0, kind)
        assert not ok and abs(lo - 0.3) <= near and abs(hi - 0.3) <= near
        assert E.evaluate(f, lo) != E.evaluate(f, hi)


@settings(max_examples=60, deadline=None)
@given(expr_trees((0.0, 1.0, -1.0, 2.5), max_leaves=6), st.floats(-2.0, 2.0),
       st.floats(0.01, 2.0), st.sampled_from(["constant", "increasing", "convex"]),
       st.sampled_from([1e-3, 1e-9]))
def test_shape_checks_verdicts_hold_on_a_grid_and_in_mpmath(f, a, width, kind, tol):
    import mpmath as mp

    b = a + width
    try:
        ok, cell = shape_checks(f, a, b, kind, tol)
    except MathError:
        return
    if ok:
        # f' >= -tol or f'' >= -tol proven: differences and second
        # differences on the grid may fall short by tol times the step (its
        # square) and by the rounding of the evaluation
        xs = np.linspace(a, b, 10**4)
        ys = E.evaluate(f, xs)
        h = xs[1] - xs[0]
        slack = tol * h + 1e-12 * (1 + float(np.max(np.abs(ys))))
        if kind == "constant":
            assert float(np.max(ys) - np.min(ys)) <= tol * width + slack
        elif kind == "increasing":
            assert float(np.min(np.diff(ys))) >= -slack
        else:
            assert float(np.min(ys[:-2] - 2 * ys[1:-1] + ys[2:])) >= -(tol * h + 4 * slack)
        return
    # the returned cell is a real violation, not a rounding artefact
    mp.mp.dps = 50
    ends = [mp_eval(f, mp.mpf(t), mp) for t in cell]
    if kind == "constant":
        assert ends[0] != ends[1]
    elif kind == "increasing":
        assert ends[0] > ends[1]
    else:
        lo, mid, hi = (mp.mpf(t) for t in cell)
        assert ends[1] > ends[0] + (mid - lo) * (ends[2] - ends[0]) / (hi - lo)


def test_shape_checks_follow_derivative_signs():
    rng = np.random.default_rng(97)
    for _ in range(15):
        # a*x^2 + b*x + c with a >= 0 has nonnegative second derivative
        a = float(rng.uniform(0, 3))
        b, c = rng.uniform(-2, 2, 2)
        f = E.add(E.mul(E.const(a), E.pow_(E.Var(), 2)),
                  E.add(E.mul(E.const(b), E.Var()), E.const(c)))
        assert shape_checks(f, -2.0, 2.0, "convex")[0]
        # exp is increasing: f' = exp >= 0
        g = E.func("exp", E.mul(E.const(float(rng.uniform(0.1, 1.0))), E.Var()))
        assert shape_checks(g, -2.0, 2.0, "increasing")[0]


def test_shape_checks_from_derivative_signs():
    rng = np.random.default_rng(83)
    for _ in range(10):
        # integrating a nonnegative function gives an increasing one
        g = E.pow_(random_smooth_expr(rng), 2)
        ok, _ = shape_checks(_antideriv_like(g), -1.0, 1.0, "increasing", tol=1e-9)
        assert ok


def _antideriv_like(g):
    # cheap symbolic stand-in: x * g is not an antiderivative, so instead
    # test monotonicity of x plus a scaled sine, whose derivative stays
    # nonnegative by construction
    return E.add(E.Var(), E.mul(E.const(0.3), E.func("sin", E.Var())))


def test_piecewise_linear_examples():
    fn = piecewise_linear([0.0, 1.0], [0.0, 10.0])
    assert fn(0.5) == 5.0
    nodes = [0.0, 0.5, 2.0, 3.0]
    values = [1.0, -2.0, 0.5, 4.0]
    fn = piecewise_linear(nodes, values)
    for a, c in zip(nodes, values):
        assert fn(a) == c
    assert fn(nodes[-1] + 1.0) == 0.0
    assert fn(-5.0) == values[0]
    with pytest.raises(PreconditionError):
        piecewise_linear([0.0, 0.0], [1.0, 2.0])


def test_rolle_differentiates_abs_symbolically():
    # the numeric fallback for abs trees widened tol 100x and found this
    # witness only to 1e-4
    f = E.parse("x*(1-x) + 0*abs(x)")
    assert abs(rolle_witness(f, 0.0, 1.0, 1e-6) - 0.5) <= 1e-12
    # flat between its kinks: the first grid point there, where f' = 0 exactly
    f = E.parse("abs(x - 0.25) + abs(x - 0.75)")
    c = rolle_witness(f, 0.0, 1.0, 1e-8)
    assert 0.25 < c < 0.75 and E.evaluate(E.differentiate(f, 1), c) == 0.0


@pytest.mark.parametrize("find, error", [
    (lambda: rolle_witness(E.parse("abs(x - 0.3) + 0.5*(x - 0.3)"), -0.6, 0.6),
     DivergenceError),
    (lambda: mvt_witness(E.parse("abs(x - 0.1)"), -1.0, 2.0), DivergenceError),
])
def test_a_jump_of_the_derivative_is_no_witness(find, error):
    # f' only jumps across the target, at the kink; the central difference
    # returned the kink or a point next to it
    with pytest.raises(error):
        find()


@pytest.mark.parametrize("find, message", [
    # the bisection lands on the kink at 0.3
    (lambda: rolle_witness(E.parse("abs(x - 0.3)"), -0.2, 0.8),
     "no interior critical point located"),
    # a grid point lands on the kink at 0
    (lambda: mvt_witness(E.parse("abs(x)"), -1.0, 2.0),
     "f' does not meet the secant slope 0.3333333333333333 on the scan"),
], ids=["rolle-bisection", "mvt-scan"])
def test_a_kink_hit_by_the_witness_search_is_no_witness(find, message):
    # f' = u/abs(u) is undefined at the kink: a DomainError ("division by
    # zero") escaped where the search means that no witness was found
    with pytest.raises(DivergenceError) as err:
        find()
    assert str(err.value) == message


def test_taylor_reports_no_witness_at_a_jump():
    rep = taylor(E.parse("abs(x - 0.3)"), 0.0, 0, 1.0)
    assert rep.witness is None and rep.converged


def test_the_polish_starts_from_the_scans_values_where_scalar_and_array_round_apart():
    # the polish evaluated h again at the scan's bracket with the scalar
    # backend, which rounds exp(x)^3 some ulps apart from the array one:
    # with k between the two values at a scan point, the polish saw no sign
    # change where the scan had seen one, and raised BracketError
    h = E.parse("exp(x)*exp(x)*exp(x)")
    xs = np.linspace(0.0, 1.0, SCAN + 2)[1:-1]
    scan = E.evaluate(h, xs)
    i = next(i for i, t in enumerate(xs)
             if abs(E.evaluate(h, float(t)) - scan[i]) > math.ulp(scan[i]))
    k = float(scan[i] + (E.evaluate(h, float(xs[i])) - scan[i]) / 2)
    assert scan[i] < k < E.evaluate(h, float(xs[i]))
    c = _crossing(h, 0.0, 1.0, k, 1e-8)
    assert xs[i] < c < xs[i + 1] and abs(E.evaluate(h, c) - k) <= 1e-8


def test_the_polish_evaluates_neither_end_of_its_scan_bracket():
    f = E.differentiate(E.parse("(x-0.2985)*(1.4944-x)*exp(0.7209*x)"), 1)
    points = []

    def h(t):
        if not isinstance(t, np.ndarray):
            points.append(t)
        return E.evaluate(f, t)

    c = _crossing(h, 0.0, 2.0, 0.0, 1e-8)
    xs = np.linspace(0.0, 2.0, SCAN + 2)[1:-1]
    i = int(np.searchsorted(xs, c)) - 1
    assert xs[i] < c < xs[i + 1] and points
    assert not {float(xs[i]), float(xs[i + 1])} & set(points)
    assert points[-1] == c  # the residual is read last, at the root


@pytest.mark.parametrize("text, n", [("exp(x)", 2), ("sin(1.2*x)*exp(0-0.9*x^2)", 1),
                                     ("ln(1 + x^2) + x^7", 6)])
def test_taylor_computes_one_jet_per_point(monkeypatch, text, n):
    # the polish read f^(n+1) again at both ends of the scan bracket, and
    # the remainder once more at the witness: three scalar jets too many
    jets, roots = [], []
    jet, bisect_root = calculus.jet, calculus.bisect_root

    def counted_jet(e, t, order):
        jets.append((order, isinstance(t, np.ndarray)))
        return jet(e, t, order)

    def counted_bisect_root(*args, **kwargs):
        roots.append(bisect_root(*args, **kwargs))
        return roots[-1]

    monkeypatch.setattr(calculus, "jet", counted_jet)
    monkeypatch.setattr(calculus, "bisect_root", counted_bisect_root)
    rep = taylor(E.parse(text), 0.0, n, 1.0)
    assert rep.witness is not None and len(roots) == 1 and roots[0].root == rep.witness
    cuts = roots[0].iterations
    assert jets == [(n, False), (n + 1, True)] + [(n + 1, False)] * (cuts + 1)
