import math

import pytest

from fcalc import interval
from fcalc.errors import BudgetError, PreconditionError
from fcalc.expr import parse
from fcalc.interval import Interval
from fcalc.sequences import (
    SubsequenceSelector,
    bound_prefix,
    bw_extract,
    cauchy_limit,
    check_cauchy_window,
    check_monotone,
    divergence_witness,
    monotone_limit,
)


def test_a_tree_in_n_is_a_rule_as_it_is():
    # a tree evaluates at float(k), as the lambda the CLI once wrapped it in did
    def both(routine, text, *args):
        tree = parse(text, var_name="n")
        return routine(tree, *args), routine(lambda k: tree(float(k)), *args)

    for routine, text, *args in [
        (check_monotone, "1 - 1/n", 100), (check_cauchy_window, "sin(n)", 1e-3, 1, 100),
        (bound_prefix, "sin(n)", 50), (bw_extract, "sin(n)", Interval(-1, 1), 4, 10**4),
        (monotone_limit, "1 - 1/n", 1.0, 1e-4), (divergence_witness, "n", 1.0, 3, 10**4),
        (cauchy_limit, "1/n", Interval(0, 1), 1e-3),
    ]:
        tree_answer, lambda_answer = both(routine, text, *args)
        assert tree_answer == lambda_answer, routine.__name__


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("routine, args", [
    (check_monotone, (100,)), (check_cauchy_window, (1e-3, 1, 100)), (bound_prefix, (50,)),
    (bw_extract, (Interval(0, 1), 4, 100)), (monotone_limit, (1e9, 1e-4)),
    (divergence_witness, (1.0, 5, 100)), (cauchy_limit, (Interval(0, 1), 1e-3, 100)),
], ids=lambda v: getattr(v, "__name__", ""))
def test_a_term_that_is_not_a_finite_real_is_refused_by_its_index(routine, args, bad):
    with pytest.raises(PreconditionError, match=f"^term 5 = {bad} is not a finite real$"):
        routine(lambda k: bad if k == 5 else float(k), *args)


def test_finite_terms_whose_sum_overflows_are_read():
    # a window is checked at once by its sum, then term by term where that overflows
    assert check_cauchy_window(lambda k: 1e308, 1.0, 1, 3).ok
    assert monotone_limit(lambda k: 1e308, 1e308, 1e-4) == 1e308


def test_windows_and_budgets_past_the_cell_budget_are_refused_before_any_term(monkeypatch):
    monkeypatch.setattr(interval, "CELL_BUDGET", 8)
    read = []

    def s(k):
        read.append(k)
        return 1.0 / k

    assert check_cauchy_window(s, 1.0, 3, 10).ok
    assert cauchy_limit(s, Interval(0, 1), 0.5, budget=8) < 0.5
    read.clear()
    with pytest.raises(PreconditionError, match="at most 8 terms"):
        check_cauchy_window(s, 1.0, 3, 11)
    with pytest.raises(PreconditionError, match="budget must be at most 8"):
        cauchy_limit(s, Interval(0, 1), 0.5, budget=9)
    with pytest.raises(PreconditionError, match="budget must be at most 8"):
        bw_extract(s, Interval(0, 1), 2, 9)
    assert read == []


def test_check_monotone_examples():
    assert check_monotone(lambda k: float(k), 100) == "strictly-increasing"
    assert check_monotone(lambda k: 1.0, 100) == "increasing"
    assert check_monotone(lambda k: (-1.0) ** k, 3) == "neither"


def test_check_cauchy_window_examples():
    rep = check_cauchy_window(lambda k: 1.0 / k, 0.1, 20, 1000)
    assert rep.ok and rep.pair == (20, 1000)
    rep = check_cauchy_window(lambda k: float(k), 0.5, 1, 2)
    assert not rep.ok and rep.pair == (1, 2)
    rep = check_cauchy_window(lambda k: (-1.0) ** k, 1.0, 1, 100)
    assert not rep.ok
    assert rep.pair[1] - rep.pair[0] == 1 and rep.gap == 2.0


def test_bound_prefix_examples():
    assert bound_prefix(lambda k: (-1.0) ** k, 10) == 1.0
    assert bound_prefix(lambda k: 0.0, 5) == 1.0
    assert bound_prefix(lambda k: 1.0 / k, 3) == 1.0


def test_selector_invariants_enforced():
    with pytest.raises(PreconditionError):
        SubsequenceSelector((2, 2, 3))
    with pytest.raises(PreconditionError):
        SubsequenceSelector((1, 1))


def test_bw_extract_alternating_left_tie():
    sel, intervals = bw_extract(lambda k: (-1.0) ** k, Interval(-1, 1), 10, 10**4)
    assert all((-1.0) ** k == -1.0 for k in sel.indices)
    assert intervals[-1].contains(-1.0)
    for k, iv in enumerate(intervals, start=1):
        assert iv.length == 2.0 / 2 ** (k - 1)
        assert iv.contains((-1.0) ** sel.indices[k - 1])
    for prev, nxt in zip(intervals, intervals[1:]):
        assert prev.contains_interval(nxt)


def test_bw_extract_harmonic_goes_to_zero():
    # the 0-adjacent half keeps winning the census only once the budget
    # dwarfs 2^depth, so inspect a million terms
    sel, intervals = bw_extract(lambda k: 1.0 / k, Interval(0, 1), 20, 10**6)
    assert intervals[-1].contains(0.0)
    values = [1.0 / k for k in sel.indices]
    assert values == sorted(values, reverse=True)
    assert values[-1] < 1e-4


def test_bw_extract_constant_sequence():
    c = 0.7
    sel, intervals = bw_extract(lambda k: c, Interval(c - 1, c + 1), 5, 100)
    assert sel.indices == (1, 2, 3, 4, 5)
    assert all(iv.contains(c) for iv in intervals)


def test_bw_extract_selector_satisfies_growth():
    sel, _ = bw_extract(lambda k: math.sin(k), Interval(-1, 1), 8, 10**4)
    for pos, idx in enumerate(sel.indices, start=1):
        assert idx >= pos


def test_bw_extract_box_precondition():
    with pytest.raises(PreconditionError):
        bw_extract(lambda k: float(k), Interval(0, 1), 3, 100)


def test_monotone_limit_examples():
    assert abs(monotone_limit(lambda k: 1 - 1 / k, 1.0, 1e-6) - 1.0) <= 1e-6
    assert monotone_limit(lambda k: 1.0, 1.0, 0.5) == 1.0
    with pytest.raises(PreconditionError, match="k=11"):
        monotone_limit(lambda k: float(k), 10.0, 1e-6)


def test_monotone_limit_bracket_contains_true_limit():
    tol = 1e-5
    value = monotone_limit(lambda k: 1 - 1 / k, 1.0, tol)
    assert value <= 1.0 <= value + tol


def test_divergence_witness_examples():
    sel = divergence_witness(lambda k: float(k), 1.0, 5, 10**6)
    assert sel.indices == (1, 2, 3, 4, 5, 6)
    with pytest.raises(BudgetError):
        divergence_witness(lambda k: 1 - 1 / k, 0.1, 20, 10**6)
    sel = divergence_witness(lambda k: math.sqrt(k), 0.5, 3, 10**4)
    base = math.sqrt(sel.indices[0])
    for k in range(1, 4):
        assert math.sqrt(sel.indices[k]) >= base + 0.5 * k


def test_cauchy_limit_examples():
    assert abs(cauchy_limit(lambda k: 1.0 / k, Interval(0, 1), 1e-6, budget=2**21)) <= 1e-6
    e_est = cauchy_limit(lambda k: (1 + 1 / k) ** k, Interval(2, 3), 1e-4, budget=200_000)
    assert abs(e_est - math.e) <= 1e-3
    assert cauchy_limit(lambda k: 0.25, Interval(0, 1), 1e-9, budget=1000) == 0.25


def test_cauchy_limit_rejects_divergent():
    with pytest.raises(BudgetError):
        cauchy_limit(lambda k: (-1.0) ** k, Interval(-1, 1), 1e-3, budget=10**4)
