"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the
per-criterion report.
"""

import math
import re
import warnings

import numpy as np

from fcalc import expr as E
from fcalc.calculus import derivative, mvt_witness, rolle_witness, taylor
from fcalc.cli import main as cli_main
from fcalc.cover import (
    OpenCover,
    lebesgue_number,
    step_approximation,
    sup_error,
    verify_cover,
)
from fcalc.graph import CLOSING_EDGES, build, check_equivalence, export_dot, path
from fcalc.integrate import riemann_integral
from fcalc.interval import Interval, OpenInterval, Partition
from fcalc.stepfn import StepFunction, step_combine, step_integral, step_reexpress, step_split
from fcalc.suprema import PredicateSet, bisect_root, bisect_supremum
from helpers import (mp_diff, random_partition, random_polynomial, random_smooth_expr,
                     validate_lebesgue)


def report(n, detail):
    print(f"criterion {n}: PASS ({detail})")


def test_criterion_01_supremum():
    pset = PredicateSet(lambda x: x * x < 2, 0.0, 2.0)
    res = bisect_supremum(pset, 1e-9)
    err = abs(res.value - 1.4142135624)
    assert err <= 1e-9
    expected_iters = math.ceil(math.log2(2.0 / 1e-9))
    assert abs(res.iterations - expected_iters) <= 1
    report(1, f"sup error {err:.2e}, {res.iterations} iterations")


def test_criterion_02_ivt_root():
    f = E.parse("x^3 - x - 2")
    res = bisect_root(f, 1.0, 2.0, 0.0, 1e-10)
    assert abs(E.evaluate(f, res.root)) <= 1e-8
    width = res.bracket[1] - res.bracket[0]
    assert width <= 1e-10
    # re-verify the bracket by direct evaluation
    lo, hi = res.bracket
    if lo != hi:
        assert E.evaluate(f, lo) < 0 < E.evaluate(f, hi)
    report(2, f"|f(c)| = {abs(E.evaluate(f, res.root)):.2e}, bracket width {width:.2e}")


def test_criterion_03_step_integrals():
    rng = np.random.default_rng(101)
    worst_inv = worst_lin = worst_split = 0.0
    for _ in range(1000):
        nodes = random_partition(rng)
        phi = StepFunction(Partition(nodes), tuple(rng.uniform(-10, 10, len(nodes) - 1)))
        base = step_integral(phi)
        scale = max(1.0, abs(base))

        omega_nodes = sorted(set(nodes) | set(random_partition(rng)))
        psi = step_reexpress(phi, Partition(tuple(omega_nodes)))
        worst_inv = max(worst_inv, abs(step_integral(psi) - base) / scale)

        other_nodes = random_partition(rng)
        other = StepFunction(Partition(other_nodes),
                             tuple(rng.uniform(-10, 10, len(other_nodes) - 1)))
        total = step_combine(phi, other, op="add")
        lin_err = abs(step_integral(total) - (base + step_integral(other)))
        worst_lin = max(worst_lin, lin_err / max(1.0, abs(base + step_integral(other))))

        c = float(rng.uniform(0, 1))
        left, right = step_split(phi, c)
        split_err = abs(step_integral(left) + step_integral(right) - base)
        worst_split = max(worst_split, split_err / scale)
    assert worst_inv <= 1e-12
    assert worst_lin <= 1e-12
    assert worst_split <= 1e-12
    report(3, f"worst refinement {worst_inv:.2e}, linearity {worst_lin:.2e}, "
              f"split {worst_split:.2e} (relative)")


def test_criterion_04_darboux():
    from fcalc.integrate import darboux_bounds

    f = E.parse("x^2")
    for k in range(2, 13):
        lower, upper = darboux_bounds(f, 0.0, 1.0, 2**k)
        assert lower <= upper
    lower, upper = darboux_bounds(f, 0.0, 1.0, 4096)
    assert abs(lower - 1 / 3) <= 1e-3 and abs(upper - 1 / 3) <= 1e-3
    assert upper - lower <= 2 / 4096
    neg_lower, neg_upper = darboux_bounds(E.neg(f), 0.0, 1.0, 4096)
    assert neg_lower == -upper and neg_upper == -lower  # duality, exact
    report(4, f"n=4096 bounds [{lower:.6f}, {upper:.6f}], gap {upper - lower:.2e}")


def test_criterion_05_riemann():
    f = E.parse("x^2")
    cert = riemann_integral(f, 0.0, 1.0, 1e-6)
    assert cert.converged
    assert abs(cert.value - 1 / 3) <= 1e-6
    assert riemann_integral(f, 0.4, 0.4, 1e-6).value == 0.0
    whole = cert.value
    left = riemann_integral(f, 0.0, 0.3, 1e-6).value
    right = riemann_integral(f, 0.3, 1.0, 1e-6).value
    resid = abs(whole - left - right)
    assert resid <= 3e-6
    report(5, f"integral error {abs(cert.value - 1 / 3):.2e}, additivity {resid:.2e}")


def test_criterion_06_ftc():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(20):
        F = random_polynomial(rng, max_degree=5, decay=0.5)
        dF = E.differentiate(F, 1)
        a, b = 0.0, 1.0
        cert = riemann_integral(dF, a, b, 1e-4)
        assert cert.converged
        err = abs(cert.value - (E.evaluate(F, b) - E.evaluate(F, a)))
        worst = max(worst, err)
    assert worst <= 3e-7

    from fcalc.integrate import antiderivative

    f = E.parse("x^2")
    phi = antiderivative(f, 0.0, 1e-5)
    h = 1e-3
    worst_d = 0.0
    for x in np.linspace(0.1, 0.9, 10):
        dphi = (phi(x + h) - phi(x - h)) / (2 * h)
        worst_d = max(worst_d, abs(dphi - E.evaluate(f, x)))
    assert worst_d <= 1e-4
    report(6, f"worst |int F' - dF| = {worst:.2e}, worst FTC1 probe {worst_d:.2e}")


def test_criterion_07_taylor():
    rep = taylor(E.parse("exp(x)"), 0.0, 2, 1.0)
    rho_true = 6 * (math.e - 2.5)
    assert abs(rep.rho - rho_true) <= 1e-9
    assert rep.witness is not None
    assert abs(rep.witness - math.log(rho_true)) <= 1e-6

    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(30):
        f = random_smooth_expr(rng)
        n = int(rng.integers(0, 4))
        a = float(rng.uniform(-1, 0.5))
        x = a + float(rng.uniform(0.2, 1.2))
        t = taylor(f, a, n, x, tol=1e-9)
        fx = E.evaluate(f, x)
        worst = max(worst, abs(t.value + t.remainder - fx) / (1 + abs(fx)))
    assert worst <= 1e-9
    report(7, f"rho error {abs(rep.rho - rho_true):.2e}, worst identity {worst:.2e}")


def test_criterion_08_mvt_rolle():
    assert abs(mvt_witness(E.parse("x^2"), 0.0, 2.0, 1e-8) - 1.0) <= 1e-8
    assert abs(rolle_witness(E.parse("x*(1-x)"), 0.0, 1.0, 1e-8) - 0.5) <= 1e-8
    rng = np.random.default_rng(404)
    tol = 1e-8
    worst = 0.0
    for _ in range(50):
        f = random_smooth_expr(rng)
        a = float(rng.uniform(-2, 0))
        b = a + float(rng.uniform(0.5, 2.0))
        slope = (E.evaluate(f, b) - E.evaluate(f, a)) / (b - a)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            c = mvt_witness(f, a, b, tol)
        resid = abs(E.evaluate(E.differentiate(f, 1), c) - slope)
        worst = max(worst, resid)
        assert resid <= tol
    report(8, f"worst residual {worst:.2e} over 50 random cases")


def _brute_force_lebesgue(cover, grid=1000):
    """Minimal gap over non-sharing grid pairs; ~10^6 pairs at grid=1000."""
    xs = np.linspace(cover.target.lo, cover.target.hi, grid)
    los = np.array([p.lo for p in cover.pieces])
    his = np.array([p.hi for p in cover.pieces])
    inside = (los[None, :] < xs[:, None]) & (xs[:, None] < his[None, :])
    share = inside @ inside.T
    dist = np.abs(xs[None, :] - xs[:, None])
    masked = np.where(share, np.inf, dist)
    return float(masked.min())


def test_criterion_09_lebesgue():
    cov = OpenCover(Interval(0, 1), [OpenInterval(-0.1, 0.6), OpenInterval(0.4, 1.1)])
    verify_cover(cov)
    exact = lebesgue_number(cov, "exact")
    assert abs(exact - 0.2) <= 1e-9
    brute = _brute_force_lebesgue(cov)
    assert exact - 1e-12 <= brute <= exact + 3e-3  # grid-resolution slack

    rng = np.random.default_rng(505)
    checked = 0
    while checked < 100:
        pieces = []
        left = -float(rng.uniform(0.02, 0.2))
        while True:
            width = float(rng.uniform(0.15, 0.5))
            pieces.append(OpenInterval(left, left + width))
            if left + width > 1.0:
                break
            left = float(rng.uniform(left + 0.01, left + width - 0.01))
        for _ in range(int(rng.integers(0, 4))):
            lo = float(rng.uniform(-0.2, 0.9))
            pieces.append(OpenInterval(lo, lo + float(rng.uniform(0.05, 0.4))))
        cov = OpenCover(Interval(0, 1), pieces)
        ok, _ = verify_cover(cov)
        assert ok
        ex = lebesgue_number(cov, "exact")
        paper = lebesgue_number(cov, "paper", sample=128)
        assert paper <= ex + 1e-15
        assert validate_lebesgue(cov, ex, pairs=10**4, seed=checked) == 0
        assert validate_lebesgue(cov, paper, pairs=10**4, seed=checked + 1000) == 0
        checked += 1
    report(9, f"exact = {exact!r} vs closed form 0.2; 100 random covers validated")


def test_criterion_10_uas():
    f = E.parse("sin(x)")
    phi = step_approximation(f, 0.0, 3.0, 0.01, grid=1024)
    err = sup_error(f, phi)
    assert err < 0.01

    ident = E.parse("x")
    phi = step_approximation(ident, 0.0, 1.0, 0.25, delta=0.25)
    assert phi.partition.cell_count == 5
    trace_err = sup_error(ident, phi)
    assert abs(trace_err - 0.2) <= 1e-12
    assert trace_err < 0.25
    report(10, f"sin sup error {err:.4f} < 0.01; identity trace 5 cells, error {trace_err}")


def test_criterion_11_derivative_oracle():
    # the oracle is mpmath's diff, which never runs fcalc
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(50):
        f = random_smooth_expr(rng)
        c = float(rng.uniform(-1, 1))
        want = float(mp_diff(f, c, 1))
        rep = derivative(f, c, tol=1e-6)
        rel = abs(rep.estimate - want) / (1 + abs(want))
        worst = max(worst, rel)
        assert rel <= 1e-9
    report(11, f"worst relative deviation {worst:.2e} from mpmath over 50 expressions")


def test_criterion_12_graph():
    g = build()
    assert check_equivalence(g)
    for src, dst in CLOSING_EDGES:
        assert not check_equivalence(g.without_edge(src, dst))
    assert len(path(g, "I1", "I2")) == 1
    dot = export_dot(g)
    assert dot.startswith("digraph") and dot.rstrip().endswith("}")
    stmts = re.findall(r'^\s*("[^"]+"( -> "[^"]+" \[label="[^"]*"\])?);$', dot, flags=re.M)
    assert len(stmts) == len(g.nodes) + len(g.edges)
    report(12, f"{len(g.nodes)} principles, {len(g.edges)} implications, one component")


def test_criterion_13_cli_determinism(capsys):
    invocations = [
        ["--output", "json", "--seed", "9", "riemann", "--f", "x^2 + sin(x)",
         "--partition", "[0,0.25,0.5,0.75,1]", "--choice", "random"],
        ["--output", "json", "--seed", "9", "shape", "--f", "x^2", "--a", "-1",
         "--b", "1", "--kind", "convex"],
        ["--output", "json", "sup", "--member", "x*x < 2", "--seed-point", "0",
         "--bound", "2"],
        ["graph", "dot"],
        ["--output", "json", "--seed", "9", "integrate", "--f", "x^2", "--a", "0",
         "--b", "1", "--tol", "1e-4", "--certificate"],
    ]
    for argv in invocations:
        code1 = cli_main(list(argv))
        out1 = capsys.readouterr().out.encode()
        code2 = cli_main(list(argv))
        out2 = capsys.readouterr().out.encode()
        assert code1 == code2 == 0
        assert out1 == out2
    report(13, f"{len(invocations)} invocations byte-identical on repeat")
