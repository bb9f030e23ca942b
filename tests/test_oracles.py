"""Oracle rows: fc commands run in-process at the CLI's own defaults, each
checked against an mpmath oracle that never runs fcalc.

Every row holds one contract: fc exits 0 with an answer within --tol of
the oracle (the command's default tol unless the argv sets one), or it
exits 1.  Where no answer exists the oracle is None, and only exit 1
holds.  A row whose argv exits 0 with a wrong answer today is a strict
xfail that names the ROADMAP item that fixes it, so the fix fails the
row until its mark is removed.
"""

import json

import mpmath as mp
import pytest

from fcalc.cli import COMMANDS, main

_WAVE = "sin(x)*exp(-(x^2)) + ln(1+x^2)"


def _wave(t):
    return mp.sin(t) * mp.exp(-t**2) + mp.log(1 + t**2)


def _bump_max():
    """max of sin(x)*exp(-x^2) on [0, 3], at the interior zero of its slope."""
    g = lambda t: mp.sin(t) * mp.exp(-t**2)
    return g(mp.findroot(lambda t: mp.diff(g, t), 0.65))


def _near(answer, truth, tol):
    return abs(answer - truth) <= tol


def _brackets(answer, truth, tol):
    return answer["lower"] <= truth <= answer["upper"]


def _max_within(answer, truth, tol):
    # extremum's tol is the gap relative to 1 + |max|
    return abs(answer["max"] - truth) <= tol * (1 + abs(truth))


def _item(n, what):
    return pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason=f"ROADMAP item {n}: {what}")


# argv, the oracle (None: no answer exists), how an answer meets it
_ROWS = [
    pytest.param(["integrate", "--f", _WAVE, "--a", "0", "--b", "3"],
                 lambda: mp.quad(_wave, [0, 3]), _near, id="integrate-wave"),
    pytest.param(["darboux", "--f", _WAVE, "--a", "0", "--b", "3", "--n", "64"],
                 lambda: mp.quad(_wave, [0, 3]), _brackets, id="darboux-wave"),
    pytest.param(["root", "--f", "x^3 - x - 2", "--a", "1", "--b", "2"],
                 lambda: mp.findroot(lambda t: t**3 - t - 2, 1.5), _near, id="root-cubic"),
    pytest.param(["extremum", "--f", "sin(x)*exp(-(x^2))", "--a", "0", "--b", "3"],
                 _bump_max, _max_within, id="extremum-bump"),
    pytest.param(["seq", "--op", "limit", "--s", "1 - 1/sqrt(n)", "--upper", "1",
                  "--tol", "1e-3"], lambda: 1, _near, id="seq-limit-sqrt",
                 marks=_item(1, "a flat window of terms is taken for the limit")),
    pytest.param(["seq", "--op", "limit", "--s", "1 - 1/ln(n+1)", "--upper", "1",
                  "--tol", "1e-2"], lambda: 1, _near, id="seq-limit-ln",
                 marks=_item(1, "a flat window of terms is taken for the limit")),
    pytest.param(["seq", "--op", "cauchy-limit", "--s", "1/sqrt(n)", "--box", "0", "1",
                  "--tol", "1e-3", "--budget", "1000000"], lambda: 0, _near,
                 id="seq-cauchy-limit-sqrt",
                 marks=_item(1, "a flat window of terms is taken for the limit")),
    pytest.param(["limit", "--f", "(1-cos(2*x))/x^2", "--at", "0"],
                 lambda: mp.limit(lambda t: (1 - mp.cos(2 * t)) / t**2, 0), _near,
                 id="limit-cos-quotient",
                 marks=_item(9, "the window scan returns 0.0 where the limit is 2")),
    pytest.param(["sup", "--member", "x*(x-2)*(x-4) < 0", "--seed-point", "-1", "--bound", "5"],
                 lambda: max(mp.polyroots([1, -6, 8, 0])), _near, id="sup-cubic",
                 marks=_item(10, "midpoint bisection stops at the gap (0, 2), below sup 4")),
    pytest.param(["cut", "--below", "x*((x-0.5)^2 - 1e-12) <= 0", "--in-point", "-1",
                  "--out-point", "1"], lambda: None, _near, id="cut-not-a-cut",
                 marks=_item(10, "the 64 probes miss the members about 0.5")),
]


@pytest.mark.parametrize("argv, oracle, meets", _ROWS)
def test_fc_answers_within_tol_of_the_oracle_or_exits_1(capsys, argv, oracle, meets):
    code = main(["--output", "json", *argv])
    out = capsys.readouterr().out
    if code == 1:
        return
    assert code == 0
    truth = oracle()
    assert truth is not None, "no answer exists, yet fc exited 0"
    tol = float(argv[argv.index("--tol") + 1]) if "--tol" in argv else COMMANDS[argv[0]].tol
    answer = json.loads(out)["result"]
    assert meets(answer, truth, tol), (answer, truth, tol)
