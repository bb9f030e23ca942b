import argparse
import contextlib
import importlib
import inspect
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fcalc
from fcalc import cli
from fcalc import expr as E
from fcalc.cli import COMMANDS, OP_REGISTRY, build_parser, main
from fcalc.errors import MathError
from helpers import expr_trees


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sup_example(capsys):
    import math

    code, out, _ = run(capsys, "sup", "--member", "x*x < 2", "--seed-point", "0",
                       "--bound", "2")
    assert code == 0
    assert out.startswith("1.414213561")
    assert abs(float(out) - math.sqrt(2)) <= 1e-9


def test_graph_scc_example(capsys):
    code, out, _ = run(capsys, "graph", "scc")
    assert code == 0
    assert out.strip() == "strongly connected: true"


def test_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "integrate", "--f", "x^", "--a", "0", "--b", "1")
    assert code == 2
    assert "parse error" in err


def test_unknown_subcommand_exits_2(capsys):
    # shape and adt decide on enclosures and take no sample count
    for argv in (["frobnicate"],
                 ["shape", "--f", "x", "--a", "0", "--b", "1", "--kind", "convex",
                  "--samples", "3"],
                 ["adt", "--F", "x^2", "--G", "x^2+1", "--a", "0", "--b", "1", "--samples", "3"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--output", "json"])
        payload = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert exc.value.code == 2 and payload["result"] is None
        assert "error" in payload["diagnostics"]


def test_math_failure_exits_1(capsys):
    code, _, err = run(capsys, "root", "--f", "x^2", "--a", "1", "--b", "2")
    assert code == 1
    assert "sign change" in err


def test_a_tol_below_the_rounding_of_the_bracket_exits_1(capsys):
    # the bracket of 2 is 2.66e-15 wide from its first round on
    code, out, err = run(capsys, "integrate", "--f", "2", "--a", "0", "--b", "1", "--tol", "1e-15")
    assert (code, out) == (1, "")
    assert err == ("error: bracket width 2.6645352591003757e-15 still above 1e-15 with cells of "
                   "depth 24 or 4194304 cells in all; tol is below the rounding of the bracket\n")


def test_false_check_exits_1(capsys):
    code, out, _ = run(capsys, "shape", "--f", "sin(x)", "--a", "0", "--b", "1",
                       "--kind", "constant")
    assert code == 1
    assert "constant: false" in out


def test_shape_of_abs_names_a_cell_that_disproves_it(capsys):
    # exited 1 with "cannot differentiate node 'abs'"
    code, out, err = run(capsys, "shape", "--f", "abs(x)", "--a", "-1", "--b", "1",
                         "--kind", "increasing")
    assert (code, out, err) == (1, "increasing: false\ncounterexample: [-1.0, -0.96875]\n", "")


@pytest.mark.parametrize("argv, code, out, err", [
    (["deriv", "--f", "abs(x-0.3)"], 0, "(x - 0.3)/abs(x - 0.3)\n", ""),
    # f' jumps across the target at the kink: printed 3.333334036291223e-07
    # and 0.3, with exit 0, then "division by zero" where the search hit it
    (["mvt", "--f", "abs(x)", "--a", "-1", "--b", "2"], 1, "",
     "error: f' does not meet the secant slope 0.3333333333333333 on the scan\n"),
    (["rolle", "--f", "abs(x-0.3)", "--a", "-0.2", "--b", "0.8"], 1, "",
     "error: no interior critical point located\n"),
    # the window's points collapsed onto a few doubles, and the scan
    # converged on them to 0.8194597047356359
    (["limit", "--f", "sin(1/(x-1e6))", "--at", "1e6", "--mode", "right"], 1, "",
     "error: no convergence: stopped at step 25 of 30, where the window fell below the "
     "double spacing at c = 1000000.0"),
    # f is defined on one side of c only: both printed the bare DomainError
    (["limit", "--f", "sqrt(x)", "--at", "0"], 1, "",
     "error: no two-sided limit: f is undefined left of c = 0.0, within "),
    (["--output", "json", "limit", "--f", "ln(x)", "--at", "0"], 1,
     '{"diagnostics": {"error": "no two-sided limit: f is undefined left of c = 0.0, within '
     '1.862645149230957e-11 of it (ln of a non-positive number)"}, "result": null}\n', ""),
    (["limit", "--f", "sqrt(x)", "--at", "0", "--mode", "right"], 0, "0.0\n", ""),
    # printed the bare "error: sqrt of a negative number"
    (["limit", "--f", "sqrt(x)", "--at", "0", "--mode", "left"], 1, "",
     "error: no left limit: f is undefined left of c = 0.0, within 1.862645149230957e-11 of "
     "it (sqrt of a negative number)\n"),
], ids=["deriv", "mvt", "rolle", "limit", "limit-left-undefined", "limit-json-left-undefined",
        "limit-right", "limit-left-mode-undefined"])
def test_abs_and_a_collapsed_window_in_the_cli(capsys, argv, code, out, err):
    got_code, got_out, got_err = run(capsys, *argv)
    assert (got_code, got_out) == (code, out) and got_err.startswith(err)


def test_an_open_shape_check_names_the_cell_left_open(capsys):
    # f' = 1/(2 sqrt(x)) is unbounded at 0, so the cell at 0 stays open to
    # depth 52; the error used to say only "neither proven ... nor outside it"
    code, out, err = run(capsys, "shape", "--f", "sqrt(x)", "--a", "0", "--b", "1",
                         "--kind", "increasing")
    assert (code, out) == (1, "")
    assert "leftmost open cell [0.0, 2.220446049250313e-16]" in err
    assert "enclosed in [-inf, inf]" in err


def test_root_takes_its_bracket_in_either_order(capsys):
    # --a 2 --b 1 printed 1.5, with residual 0.875
    for a, b in (("1", "2"), ("2", "1")):
        code, out, _ = run(capsys, "root", "--f", "x^3 - x - 1", "--a", a, "--b", b)
        assert code == 0 and abs(float(out) - 1.324717957244746) <= 1e-9


def test_json_output_single_object(capsys):
    code, out, _ = run(capsys, "--output", "json", "eval", "--f", "x^3", "--x", "2")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"result", "diagnostics"}
    assert payload["result"] == 8.0


def test_json_error_object(capsys):
    code, out, _ = run(capsys, "--output", "json", "root", "--f", "x^2",
                       "--a", "1", "--b", "2")
    assert code == 1
    payload = json.loads(out)
    assert payload["result"] is None and "error" in payload["diagnostics"]


def test_global_flags_allowed_after_subcommand(capsys):
    code, out, _ = run(capsys, "root", "--f", "x^3 - x - 2", "--a", "1", "--b", "2",
                       "--tol", "1e-10", "--output", "json")
    assert code == 0
    assert json.loads(out)["diagnostics"]["bracket"][1] <= 2.0


def test_determinism_byte_identical(capsys):
    argv = ["--output", "json", "--seed", "42", "riemann", "--f", "x^2",
            "--partition", "[0,0.25,0.5,0.75,1]", "--choice", "random"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_seed_changes_random_choice(capsys):
    base = ["riemann", "--f", "x^2", "--partition", "[0,0.5,1]", "--choice", "random"]
    _, out1, _ = run(capsys, "--seed", "1", *base)
    _, out2, _ = run(capsys, "--seed", "2", *base)
    assert out1 != out2


def test_fc_seed_env_overrides_flag(capsys, monkeypatch):
    base = ["riemann", "--f", "x^2", "--partition", "[0,0.5,1]", "--choice", "random"]
    monkeypatch.setenv("FC_SEED", "2")
    _, env_out, _ = run(capsys, "--seed", "1", *base)
    monkeypatch.delenv("FC_SEED")
    _, flag_out, _ = run(capsys, "--seed", "2", *base)
    assert env_out == flag_out


@pytest.mark.parametrize("output", ["text", "json"])
def test_an_fc_seed_that_is_no_integer_is_a_usage_error(output):
    # int() raised ValueError, and the process ended in its traceback with exit 1
    proc = _fresh("-m", "fcalc.cli", "--output", output, "eval", "--f", "x", "--x", "1",
                  env={**os.environ, "FC_SEED": "abc"})
    message = "FC_SEED: invalid int value: 'abc'"
    assert proc.returncode == 2
    assert proc.stderr.endswith(f"fc: error: {message}\n") and "Traceback" not in proc.stderr
    want = {"result": None, "diagnostics": {"error": message}} if output == "json" else None
    assert (json.loads(proc.stdout) if proc.stdout else None) == want


def test_registry_every_op_has_exactly_one_subcommand():
    parser = build_parser()
    subactions = [a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction)]
    subcommands = set(subactions[0].choices)
    for op, sub in OP_REGISTRY.items():
        assert sub in subcommands, f"{op} mapped to missing subcommand {sub}"
        module, name = op.split(".")
        assert callable(getattr(importlib.import_module(f"fcalc.{module}"), name, None)), op
    # one subcommand per operation, and no library module left out
    ops = [op for command in COMMANDS.values() for op in command.ops.split()]
    assert sorted(ops) == sorted(OP_REGISTRY)
    modules = {op.split(".")[0] for op in OP_REGISTRY}
    assert modules == {"expr", "interval", "sequences", "suprema", "calculus",
                       "cover", "integrate", "stepfn", "graph"}


def test_readme_lists_every_subcommand_and_its_examples_run(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.search(r"^Subcommands: `([^`]*)`", readme, re.M).group(1)
    assert listed.split() == list(COMMANDS)
    block = readme.split("\n## Command line\n")[1].split("```sh\n")[1].split("```")[0]
    examples = [line for line in block.splitlines() if line.startswith("fc ")]
    assert len(examples) >= 10
    for line in examples:
        argv = shlex.split(line.split(" > ")[0])[1:]  # no redirect to principles.dot
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), line
        assert out


def test_cover_pipeline(capsys):
    cover_json = '{"target": [0, 1], "pieces": [[-0.1, 0.6], [0.4, 1.1]]}'
    code, out, _ = run(capsys, "cover-verify", "--cover", cover_json)
    assert code == 0 and "covers: true" in out
    code, out, _ = run(capsys, "lebesgue", "--cover", cover_json)
    assert code == 0 and abs(float(out.strip()) - 0.2) <= 1e-9
    code, out, _ = run(capsys, "subcover", "--cover", cover_json)
    assert code == 0 and out.strip() == "indices: [0, 1]"


def test_taylor_text_output(capsys):
    code, out, _ = run(capsys, "taylor", "--f", "exp(x)", "--n", "2", "--at", "0",
                       "--x", "1")
    assert code == 0
    assert "rho 1.309690970754" in out


def test_stepint_pipeline(capsys):
    code, out, _ = run(capsys, "stepint", "--partition", "[0,0.5,1]",
                       "--values", "[1,3]")
    assert code == 0 and out.strip() == "2.0"
    code, out, _ = run(capsys, "stepint", "--partition", "[0,0.5,1]",
                       "--values", "[1,3]", "--split-at", "0.25")
    assert code == 0 and "left 0.25 right 1.75" in out
    code, out, _ = run(capsys, "stepint", "--partition", "[0,0.5,1]",
                       "--values", "[1,3]", "--combine", "scale", "--factor", "2")
    assert code == 0 and out.strip() == "4.0"


def test_seq_and_ival_commands(capsys):
    code, out, _ = run(capsys, "seq", "--op", "monotone", "--s", "1 - 1/n")
    assert code == 0 and out.strip() == "strictly-increasing"
    code, out, _ = run(capsys, "seq", "--op", "limit", "--s", "1 - 1/n",
                       "--upper", "1", "--tol", "1e-4")
    assert code == 0 and abs(float(out.strip()) - 1.0) <= 1e-4
    code, out, _ = run(capsys, "ival", "--op", "partition", "--a", "0", "--b", "1",
                       "--n", "4")
    assert code == 0 and out.strip() == "[0.0, 0.25, 0.5, 0.75, 1.0]"
    code, out, _ = run(capsys, "ival", "--op", "shrink", "--lo-expr", "0 - 1/n",
                       "--hi-expr", "1/n", "--tol", "1e-4")
    assert code == 0 and abs(float(out.strip())) <= 1e-4


@pytest.mark.parametrize("op", [["scc"], ["dot"], ["path", "MVT", "CVT"]], ids=" ".join)
def test_global_flags_may_follow_each_graph_op(op):
    code, out, err = _cli(["graph", *op, "--output", "json"])
    assert (code, out, err) == _cli(["--output", "json", "graph", *op])
    assert code == 0 and set(json.loads(out)) == {"result", "diagnostics"}


def test_graph_dot_and_path(capsys):
    code, out, _ = run(capsys, "graph", "dot")
    assert code == 0 and out.startswith("digraph")
    code, out, _ = run(capsys, "graph", "path", "I1", "I2")
    assert code == 0 and out.splitlines()[0] == "length 1"


def test_affine_and_pwl(capsys):
    code, out, _ = run(capsys, "affine", "--from-a", "0", "--from-b", "1",
                       "--to-a", "3", "--to-b", "5")
    assert code == 0 and out.strip() == "2.0*x + 3.0"
    code, out, _ = run(capsys, "pwl", "--nodes", "[0,1]", "--values", "[0,10]",
                       "--x", "0.5")
    assert code == 0 and out.strip() == "5.0"
    # one node and x = NaN: bisection fell through to a zero-width cell
    assert run(capsys, "pwl", "--nodes", "[0]", "--values", "[0]", "--x", "nan") == (
        0, "nan\n", "")


def test_deriv_symbolic_and_numeric(capsys):
    from fcalc.expr import evaluate, parse

    code, out, _ = run(capsys, "deriv", "--f", "x^3", "--order", "2")
    assert code == 0 and evaluate(parse(out.strip()), 2.0) == 12.0
    code, out, _ = run(capsys, "--output", "json", "deriv", "--f", "x^2", "--at", "1")
    payload = json.loads(out)
    assert abs(payload["result"] - 2.0) <= 1e-6
    assert payload["diagnostics"]["converged"]


def test_negative_order_and_infinite_input_exit_cleanly(capsys):
    code, out, err = run(capsys, "deriv", "--f", "x^2", "--order", "-1")
    assert code == 1 and out == "" and err.startswith("error: ")
    code, out, _ = run(capsys, "eval", "--f", "sin(x)", "--x", "1e400")
    assert code == 0 and out.strip() == "nan"


@pytest.mark.parametrize("argv, out", [
    (["integrate", "--f", "x", "--a", "-2.5e-1", "--b", "1"], "0.46875\n"),
    (["eval", "--f", "x", "--x", "-1e-3"], "-0.001\n"),
    (["eval", "--f", "x", "--x", "-.5E+2"], "-50.0\n"),
    (["eval", "--f", "x", "--x", "-1."], "-1.0\n"),
    (["eval", "--f", "x", "--x", "-inf"], "-inf\n"),
    (["eval", "--f", "x", "--x", "-Infinity"], "-inf\n"),
    (["eval", "--f", "x", "--x", "-nan"], "nan\n"),
])
def test_negative_numbers_with_exponents_inf_and_nan_are_values(capsys, argv, out):
    # argparse took these for option flags: "argument --x: expected one argument"
    assert run(capsys, *argv) == (0, out, "")


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_modulus_certifies_sin_and_fails_cleanly_at_a_pole(capsys):
    code, out, _ = run(capsys, "modulus", "--f", "sin(x)", "--a", "0", "--b", "3",
                       "--eps", "0.01")
    assert code == 0 and 0 < float(out) < 0.01
    code, out, err = run(capsys, "modulus", "--f", "1/x", "--a", "-1", "--b", "1",
                         "--eps", "0.1")
    assert code == 1 and out == "" and err.startswith("error: ")
    assert "Traceback" not in err


def test_a_step_approximation_past_the_cell_cap_fails_cleanly(capsys):
    # (b - a) / delta overflows to inf here; math.floor(inf) raised OverflowError
    code, out, err = run(capsys, "stepapprox", "--f", "x", "--a", "0", "--b", "1e300",
                         "--eps", "0.5", "--delta", "1e-300")
    assert code == 1 and out == "" and "needs more than" in err


@pytest.mark.parametrize("cmd", ["modulus", "stepapprox"])
def test_grid_help_says_initial_window_centres(capsys, cmd):
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--help"])
    assert exc.value.code == 0
    assert "initial window centres" in " ".join(capsys.readouterr().out.split())


# Nothing on the expression path recurses, so nesting depth is unlimited.
_DEEP_SUM = "+".join(["x"] * 10**4)


@pytest.mark.parametrize("argv, text", [
    (["parse", "--text", "(" * 10**4 + "x" + ")" * 10**4], "x"),
    (["eval", "--x", "1", "--f", _DEEP_SUM], "10000.0"),
    (["deriv", "--f", _DEEP_SUM], "10000.0"),
], ids=["parse", "eval", "deriv"])
def test_deeply_nested_input_is_accepted(capsys, argv, text):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, text + "\n", "")
    code, out, _ = run(capsys, *argv, "--output", "json")
    payload = json.loads(out, parse_constant=_reject_constant)
    assert code == 0 and payload["result"] == (10000.0 if argv[0] == "eval" else text)


# json's decoder does recurse: past Python's recursion limit it is bad JSON
@pytest.mark.parametrize("cover", ["[" * 5000, "[" * 5000 + "]" * 5000], ids=["open", "closed"])
def test_deeply_nested_json_is_a_parse_error(capsys, cover):
    message = "bad JSON: nested too deeply (at offset 0)"
    code, out, err = run(capsys, "cover-verify", "--cover", cover)
    assert (code, out, err) == (2, "", f"parse error: {message}\n")
    code, out, _ = run(capsys, "cover-verify", "--cover", cover, "--output", "json")
    payload = json.loads(out, parse_constant=_reject_constant)
    assert code == 2 and payload == {"result": None, "diagnostics": {"error": message}}


@pytest.mark.parametrize("argv", [["eval", "--f", "exp(1000)", "--x", "0"],
                                  ["eval", "--f", "sin(x)", "--x", "1e400"]])
def test_json_output_is_strict_for_non_finite_results(capsys, argv):
    code, out, _ = run(capsys, *argv, "--output", "json")
    payload = json.loads(out, parse_constant=_reject_constant)
    assert code == 1 and payload["result"] is None and "error" in payload["diagnostics"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.strip() in ("inf", "nan")


@pytest.mark.parametrize("argv", [
    ["cover-verify", "--cover", '{"target": [0, 1]}'],
    ["cover-verify", "--cover", "[1]"],
    ["cover-verify", "--cover", '{"target": [0, 1], "pieces": [[NaN, 2]]}'],
    ["cover-verify", "--cover", '{"target": [0, 1], "pieces": [[0]]}'],
    ["lebesgue", "--cover", '{"target": [0, 1e400], "pieces": [[-1, 2]]}'],
    ["stepint", "--partition", '["a"]', "--values", "[1]"],
    ["stepint", "--partition", "[0, 1]", "--values", "[true]"],
    ["riemann", "--f", "x", "--partition", "{}"],
    ["pwl", "--nodes", "[0, Infinity]", "--values", "[0, 1]", "--x", "0.5"],
    ["ival", "--op", "bisect", "--interval", "[0, 1, 2]"],
])
def test_malformed_json_arguments_are_parse_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("parse error: ")
    assert "Traceback" not in err
    code, out, _ = run(capsys, *argv, "--output", "json")
    payload = json.loads(out, parse_constant=_reject_constant)
    assert code == 2 and payload["result"] is None and "error" in payload["diagnostics"]


@pytest.mark.parametrize("argv, out", [
    # the difference quotient converged to 0.9999999999884568
    (["deriv", "--f", "x + 1e-13*sin(x*1e13)", "--at", "0", "--tol", "1e-6"], "2.0\n"),
    # every window of the scan missed the bump and gave 1.0
    (["limit", "--f", "1 + exp(0-(x*1e12)^2)", "--at", "0"], "2.0\n"),
    # printed nan/(1e-300^-2)^2, and the scan found no convergence at 1
    (["deriv", "--f", "1/1e-300^-2"], "0.0\n"),
    (["deriv", "--f", "x + 1/1e-300^-2", "--at", "1"], "1.0\n"),
    # 2^47: c + 0.01 rounds to c, so the scan stopped before its first window
    (["limit", "--f", "x", "--at", "140737488355328"], "140737488355328.0\n"),
    (["deriv", "--f", "x^3", "--order", "7", "--at", "1"], "0.0\n"),
], ids=["wiggle", "bump", "constant", "constant-at", "limit-2^47", "order-7"])
def test_derivatives_and_limits_come_from_the_symbolic_tree(capsys, argv, out):
    assert run(capsys, *argv) == (0, out, "")


@pytest.mark.parametrize("argv, err", [
    (["deriv", "--f", "abs(x)", "--at", "0"], "error: one-sided limits disagree"),
    (["deriv", "--f", "sin(x)/x", "--order", "0", "--at", "0"], "error: division by zero\n"),
    (["deriv", "--f", "sqrt(x)^0", "--order", "2", "--at", "-1"],
     "error: f or a derivative of order below 2 is undefined or overflows on every cell "
     "about c = -1.0\n"),
], ids=["kink", "order-0", "premise"])
def test_deriv_at_a_point_fails_where_no_derivative_is_proven(capsys, argv, err):
    code, out, got = run(capsys, *argv)
    assert (code, out) == (1, "") and got.startswith(err)


def test_deriv_at_a_point_defaults_to_the_derivative_tolerance(capsys):
    import math

    code, out, _ = run(capsys, "deriv", "--f", "sin(x)", "--at", "0.5")
    assert code == 0 and abs(float(out) - math.cos(0.5)) <= 1e-6


_FAB = ["--f", "x", "--a", "0", "--b", "1"]


# a command per library operation that takes a tol, with its required flags
_TOL_OPS = [
    (["deriv", "--f", "x", "--at", "1"], "calculus", "derivative"),
    (["limit", "--f", "x", "--at", "1"], "calculus", "limit"),
    (["sup", "--member", "x < 1", "--seed-point", "0", "--bound", "2"], "suprema",
     "bisect_supremum"),
    (["cut", "--below", "x < 1", "--in-point", "0", "--out-point", "2"], "suprema", "cut_point"),
    (["root", *_FAB], "suprema", "bisect_root"),
    (["extremum", *_FAB], "calculus", "extreme_point"),
    (["rolle", *_FAB], "calculus", "rolle_witness"),
    (["mvt", *_FAB], "calculus", "mvt_witness"),
    (["emvt", *_FAB, "--g", "x"], "calculus", "emvt_witness"),
    (["taylor", "--f", "x", "--n", "1", "--at", "0", "--x", "1"], "calculus", "taylor"),
    (["polycheck", *_FAB, "--n", "1"], "calculus", "polynomial_check"),
    (["shape", *_FAB, "--kind", "convex"], "calculus", "shape_checks"),
    (["integrate", *_FAB], "integrate", "riemann_integral"),
    (["integrate", *_FAB, "--bounds", "0", "1"], "integrate", "bounds_check"),
    (["integrate", *_FAB, "--check-additivity-at", "0.5"], "integrate",
     "integral_additivity_check"),
    (["ftc2", "--F", "x", "--a", "0", "--b", "1"], "integrate", "ftc2_check"),
    (["imvt", *_FAB], "integrate", "imvt_witness"),
    (["adt", "--F", "x", "--G", "x", "--a", "0", "--b", "1"], "integrate", "adt_check"),
    (["seq", "--op", "limit", "--s", "1/n", "--upper", "1"], "sequences", "monotone_limit"),
    (["seq", "--op", "cauchy-limit", "--s", "1/n"], "sequences", "cauchy_limit"),
    (["ival", "--op", "shrink"], "interval", "shrink_to_point"),
]


@pytest.mark.parametrize("argv, module, name, tol", [
    (["integrate", *_FAB], "integrate", "riemann_integral", 1e-6),
    (["integrate", *_FAB, "--bounds", "0", "1"], "integrate", "bounds_check", 1e-6),
    (["integrate", *_FAB, "--check-additivity-at", "0.5"], "integrate",
     "integral_additivity_check", 1e-6),
    (["ftc2", "--F", "x", "--a", "0", "--b", "1"], "integrate", "ftc2_check", 1e-6),
    (["imvt", *_FAB], "integrate", "imvt_witness", 1e-6),
    (["deriv", "--f", "x", "--at", "1"], "calculus", "derivative", 1e-6),
    (["extremum", *_FAB], "calculus", "extreme_point", 1e-9),
    (["integrate", *_FAB, "--tol", "1e-3"], "integrate", "riemann_integral", 1e-3),
    # a tol below the spacing of the doubles near 1, so that any floor on it shows
    *[([*argv, "--tol", "1e-16"], module, name, 1e-16) for argv, module, name in _TOL_OPS],
])
def test_each_subcommand_passes_its_default_tol_to_the_library(
        capsys, monkeypatch, argv, module, name, tol):
    module = importlib.import_module(f"fcalc.{module}")
    signature, seen = inspect.signature(getattr(module, name)), []

    def spy(*args, **kwargs):
        seen.append(signature.bind(*args, **kwargs).arguments["tol"])
        raise MathError("stop")

    monkeypatch.setattr(module, name, spy)
    assert run(capsys, *argv) == (1, "", "error: stop\n") and seen == [tol]


def test_the_tol_table_covers_every_command_whose_operations_take_a_tol():
    def takes_tol(op):
        module, name = op.split(".")
        fn = getattr(importlib.import_module(f"fcalc.{module}"), name)
        return "tol" in inspect.signature(fn).parameters

    commands = {name for name, command in COMMANDS.items()
                if any(map(takes_tol, command.ops.split()))}
    assert {argv[0] for argv, _, _ in _TOL_OPS} == commands


def test_bisection_reaches_adjacent_doubles_below_a_tiny_tol(capsys):
    # near 0 doubles are 5e-324 apart: about 1075 halvings, past a cap of 200
    code, out, err = run(capsys, "root", "--f", "x^3 - x", "--a", "-0.5", "--b", "0.3",
                         "--tol", "1e-300")
    assert code == 0, err
    assert abs(float(out)) <= 1e-300


@pytest.mark.parametrize("argv, error", [
    (["seq", "--op", "limit", "--s", "1 - 1/n", "--upper", "1"],
     "no tol-flat window found up to index 3"),
    (["ival", "--op", "shrink"], "interval length 0.3333333333333333 still >= tol after 3 "
     "iterations"),
])
def test_max_iter_caps_seq_limit_and_ival_shrink(capsys, argv, error):
    argv = [*argv, "--tol", "1e-2"]
    code, out, _ = run(capsys, "--output", "json", *argv, "--max-iter", "3")
    payload = json.loads(out, parse_constant=_reject_constant)
    assert code == 1 and payload["result"] is None and payload["diagnostics"]["error"] == error
    code, out, _ = run(capsys, "--output", "json", *argv)
    assert code == 0 and isinstance(json.loads(out)["result"], float)


@pytest.mark.parametrize("argv, out, err", [
    (["adt", "--F", "x", "--G", "x - 1e-13*x", "--a", "0", "--b", "1", "--tol", "1e-14"],
     "", "error: F' and G' differ by more than 1e-14 on [0.0, 0.015625]\n"),
    (["deriv", "--f", "abs(x)^2", "--at", "0", "--tol", "1e-12"],
     "", "error: one-sided limits disagree: left=-2.3283064365386964e-11 "
     "right=2.3283064365386964e-11 (tol=1e-12)\n"),
    (["taylor", "--f", "exp(x)", "--n", "2", "--at", "0", "--x", "1", "--tol", "1e-14"],
     "value 2.5 rho 1.3096909707542705 witness none remainder 0.2182818284590451\n", ""),
], ids=["adt", "deriv", "taylor"])
def test_a_tol_below_the_usual_range_is_answered_as_asked(capsys, argv, out, err):
    assert run(capsys, *argv) == (1 if err else 0, out, err)


def test_unbounded_darboux_bound_is_a_json_error_object(capsys):
    code, out, _ = run(capsys, "--output", "json", "darboux", "--f", "1/x", "--a", "-1",
                       "--b", "1", "--n", "4")
    payload = json.loads(out, parse_constant=_reject_constant)
    assert code == 1 and payload["result"] is None and "error" in payload["diagnostics"]


# ---------------------------------------------------------------------------
# the reply path: the recorded output of one argv per branch of every
# handler, the false verdicts among them

_COVER = '{"target": [0, 1], "pieces": [[-0.1, 0.6], [0.4, 1.1]]}'
_GAPPED_COVER = '{"target": [0, 1], "pieces": [[-0.1, 0.4], [0.5, 1.1]]}'
_STEP = ["stepint", "--partition", "[0, 0.5, 1]", "--values", "[1, 3]"]

# argv, exit code, stdout as text, stdout with --output json
_GOLDEN = [
    (["parse", "--text", "sin(x)^2 - 1/x"], 0,
     "sin(x)^2 - 1.0/x\n",
     '{"diagnostics": {}, "result": "sin(x)^2 - 1.0/x"}\n'),
    (["eval", "--f", "exp(x)/(1+x^2)", "--x", "0.5"], 0,
     "1.3189770165601025\n",
     '{"diagnostics": {}, "result": 1.3189770165601025}\n'),
    (["deriv", "--f", "sin(x)*x^3", "--order", "2"], 0,
     "-sin(x)*x^3 + 3.0*x^2*cos(x) + (2.0*x*3.0*sin(x) + cos(x)*(3.0*x^2))\n",
     ('{"diagnostics": {}, '
      '"result": "-sin(x)*x^3 + 3.0*x^2*cos(x) + (2.0*x*3.0*sin(x) + cos(x)*(3.0*x^2))"}\n')),
    (["deriv", "--f", "sin(x)", "--at", "0.5"], 0,
     "0.8775825618903728\n",
     ('{"diagnostics": {"converged": true, "estimate": 0.8775825618903728, "left": null, '
      '"right": null, "spread": 0.0, "steps_used": 0}, "result": 0.8775825618903728}\n')),
    (["limit", "--f", "sin(x)/x", "--at", "0"], 0,
     "0.9999999998807907\n",
     ('{"diagnostics": {"converged": true, "estimate": 0.9999999998807907, '
      '"left": 0.9999999998807907, "right": 0.9999999998807907, '
      '"spread": 2.3841861818141297e-10, "steps_used": 9}, "result": 0.9999999998807907}\n')),
    (["sup", "--member", "x*x < 2", "--seed-point", "0", "--bound", "2"], 0,
     "1.4142135614529252\n",
     '{"diagnostics": {"iterations": 31}, "result": 1.4142135614529252}\n'),
    (["sup", "--member", "x*x < 2", "--seed-point", "0", "--bound", "2", "--witnesses", "3"], 0,
     "1.4142135614529252\nwitnesses: [1.0, 1.0, 1.25]\n",
     ('{"diagnostics": {"iterations": 31, "witnesses": [1.0, 1.0, 1.25]}, '
      '"result": 1.4142135614529252}\n')),
    (["cut", "--below", "x*x < 2", "--in-point", "0", "--out-point", "2"], 0,
     "1.4142135622955503\n",
     '{"diagnostics": {}, "result": 1.4142135622955503}\n'),
    (["root", "--f", "x^3 - x - 2", "--a", "1", "--b", "2"], 0,
     "1.5213797068045676\n",
     ('{"diagnostics": {"bracket": [1.5213797068045676, 1.5213797068045676], "iterations": 7, '
      '"residual": 0.0}, "result": 1.5213797068045676}\n')),
    (["extremum", "--f", "x*(1-x)", "--a", "0", "--b", "1"], 0,
     "argmax 0.49999237060546875 max 0.24999999994179234\n",
     ('{"diagnostics": {}, "result": {"argmax": 0.49999237060546875, '
      '"max": 0.24999999994179234}}\n')),
    (["rolle", "--f", "x^2 - x", "--a", "0", "--b", "1"], 0,
     "0.5\n",
     '{"diagnostics": {}, "result": 0.5}\n'),
    (["mvt", "--f", "x^3", "--a", "0", "--b", "1"], 0,
     "0.5773502691896065\n",
     '{"diagnostics": {}, "result": 0.5773502691896065}\n'),
    (["emvt", "--f", "x^2", "--g", "x^3", "--a", "1", "--b", "2"], 0,
     "1.5555555555555556\n",
     '{"diagnostics": {}, "result": 1.5555555555555556}\n'),
    (["taylor", "--f", "exp(x)", "--n", "2", "--at", "0", "--x", "1"], 0,
     ("value 2.5 rho 1.3096909707542705 witness 0.2697912091966389 remainder 0.2182818284590416"
      "8\n"),
     ('{"diagnostics": {"converged": true, "remainder": 0.21828182845904168, '
      '"rho": 1.3096909707542705, "value": 2.5, "witness": 0.2697912091966389}, '
      '"result": 2.5}\n')),
    (["polycheck", "--f", "x^2 - 1", "--a", "0", "--b", "1", "--n", "2"], 0,
     "polynomial of degree <= 2: true\n",
     '{"diagnostics": {}, "result": true}\n'),
    (["polycheck", "--f", "sin(x)", "--a", "0", "--b", "1", "--n", "2"], 1,
     "polynomial of degree <= 2: false\n",
     '{"diagnostics": {}, "result": false}\n'),
    (["shape", "--f", "x^2", "--a", "0", "--b", "1", "--kind", "convex"], 0,
     "convex: true\n",
     '{"diagnostics": {"counterexample": null}, "result": true}\n'),
    (["shape", "--f", "abs(x)", "--a", "-1", "--b", "1", "--kind", "increasing"], 1,
     "increasing: false\ncounterexample: [-1.0, -0.96875]\n",
     '{"diagnostics": {"counterexample": [-1.0, -0.96875]}, "result": false}\n'),
    (["cover-verify", "--cover", _COVER], 0,
     "covers: true\n",
     '{"diagnostics": {"length_inequality": true, "witness": null}, "result": true}\n'),
    (["cover-verify", "--cover", _GAPPED_COVER], 1,
     "covers: false\nuncovered point: 0.4\n",
     '{"diagnostics": {"witness": 0.4}, "result": false}\n'),
    (["subcover", "--cover", _COVER], 0,
     "indices: [0, 1]\n",
     '{"diagnostics": {}, "result": [0, 1]}\n'),
    (["lebesgue", "--cover", _COVER], 0,
     "0.19999999999999996\n",
     '{"diagnostics": {"mode": "exact"}, "result": 0.19999999999999996}\n'),
    (["modulus", "--f", "sin(x)", "--a", "0", "--b", "3", "--eps", "0.01"], 0,
     "0.005903275034549349\n",
     '{"diagnostics": {}, "result": 0.005903275034549349}\n'),
    (["stepapprox", "--f", "x", "--a", "0", "--b", "1", "--eps", "0.25"], 0,
     "cells 5 sup_error_bound 0.20000000000000007\n",
     ('{"diagnostics": {}, "result": {"partition": [0.0, 0.2, 0.4, 0.6, 0.8, 1.0], '
      '"sup_error_bound": 0.20000000000000007, "values": [0.0, 0.2, 0.4, 0.6, 0.8]}}\n')),
    ([*_STEP], 0,
     "2.0\n",
     '{"diagnostics": {"partition": [0.0, 0.5, 1.0], "values": [1.0, 3.0]}, "result": 2.0}\n'),
    ([*_STEP, "--split-at", "0.25"], 0,
     "left 0.25 right 1.75\n",
     '{"diagnostics": {}, "result": {"left": 0.25, "right": 1.75}}\n'),
    ([*_STEP, "--reexpress", "[0, 0.25, 0.5, 1]"], 0,
     "2.0\n",
     ('{"diagnostics": {"partition": [0.0, 0.25, 0.5, 1.0], "values": [1.0, 1.0, 3.0]}, '
      '"result": 2.0}\n')),
    ([*_STEP, "--combine", "add", "--other-partition", "[0, 1]", "--other-values", "[3]"], 0,
     "5.0\n",
     '{"diagnostics": {"partition": [0.0, 0.5, 1.0], "values": [4.0, 6.0]}, "result": 5.0}\n'),
    ([*_STEP, "--combine", "scale", "--factor", "2"], 0,
     "4.0\n",
     '{"diagnostics": {"partition": [0.0, 0.5, 1.0], "values": [2.0, 6.0]}, "result": 4.0}\n'),
    ([*_STEP, "--combine", "negate"], 0,
     "-2.0\n",
     '{"diagnostics": {"partition": [0.0, 0.5, 1.0], "values": [-1.0, -3.0]}, "result": -2.0}\n'),
    (["darboux", "--f", "x^2", "--a", "0", "--b", "1", "--n", "8"], 0,
     "lower 0.27343749999999994 upper 0.3984375000000001\n",
     ('{"diagnostics": {}, "result": {"lower": 0.27343749999999994, '
      '"upper": 0.3984375000000001}}\n')),
    (["riemann", "--f", "x^2", "--partition", "[0, 0.25, 0.5, 1]"], 0,
     "0.3203125\n",
     '{"diagnostics": {}, "result": 0.3203125}\n'),
    (["riemann", "--f", "x^2", "--partition", "[0, 0.25, 0.5, 1]", "--choice", "random",
      "--seed", "3"], 0,
     "0.4295899000171191\n",
     '{"diagnostics": {}, "result": 0.4295899000171191}\n'),
    (["integrate", "--f", "x^2", "--a", "0", "--b", "1"], 0,
     "0.33333333333333337\n",
     '{"diagnostics": {"converged": true, "levels": 1}, "result": 0.33333333333333337}\n'),
    (["integrate", "--f", "x^2", "--a", "0", "--b", "1", "--tol", "1e-3", "--certificate"], 0,
     "0.33333333333333337\n",
     ('{"diagnostics": {"converged": true, "levels": [{"cells": 64, '
      '"lower": 0.333333333333333, "upper": 0.3333333333333337}], '
      '"value": 0.33333333333333337}, "result": 0.33333333333333337}\n')),
    (["integrate", "--f", "x^2", "--a", "0", "--b", "1", "--check-additivity-at", "0.5"], 0,
     "additivity: true\n",
     '{"diagnostics": {}, "result": true}\n'),
    (["integrate", "--f", "x^2", "--a", "0", "--b", "1", "--bounds", "0", "1"], 0,
     "bounds: true\n",
     '{"diagnostics": {}, "result": true}\n'),
    (["ftc2", "--F", "x^3", "--a", "0", "--b", "1"], 0,
     "ftc2: true\n",
     '{"diagnostics": {}, "result": true}\n'),
    (["imvt", "--f", "x^2", "--a", "0", "--b", "1"], 0,
     "0.5773502691896066\n",
     '{"diagnostics": {}, "result": 0.5773502691896066}\n'),
    (["adt", "--F", "x^2", "--G", "x^2 + 1", "--a", "0", "--b", "1"], 0,
     "adt: true\n",
     '{"diagnostics": {}, "result": true}\n'),
    (["graph", "path", "MVT", "CVT"], 0,
     "length 3\nMVT -> FTC1&IAT\nFTC1&IAT -> ADT\nADT -> CVT\n",
     ('{"diagnostics": {}, "result": {"edges": ["MVT -> FTC1&IAT", "FTC1&IAT -> ADT", '
      '"ADT -> CVT"], "length": 3}}\n')),
    (["graph", "scc"], 0,
     "strongly connected: true\n",
     '{"diagnostics": {"edges": 41, "nodes": 31}, "result": true}\n'),
    (["graph", "dot"], 0,
     ('digraph principles {\n  "AP&CCC";\n  "MCP";\n  "AP&NIPs";\n  "AP&NIPw";\n  "BWP";\n'
      '  "ES";\n  "I1";\n  "I2";\n  "I3";\n  "IVT";\n  "I4";\n  "CA";\n  "EVT";\n  "RT";\n'
      '  "eMVT";\n  "MVT";\n  "TT_L";\n  "PCP";\n  "CFT";\n  "IFT";\n  "CVT";\n  "I5";\n'
      '  "AP&LCL";\n  "AP&UCT";\n  "UAS";\n  "CC&BVT";\n  "CC&DIT";\n  "CC&RIT";\n'
      '  "FTC1&IAT";\n  "FTC2";\n  "ADT";\n'
      '  "AP&CCC" -> "MCP" [label="Theorem 1 (convergence), AP&CCC => MCP"];\n'
      '  "MCP" -> "AP&NIPs" [label="Theorem 1 (convergence), MCP => AP&NIPs"];\n'
      '  "AP&NIPs" -> "AP&NIPw" [label="Theorem 1 (convergence), AP&NIPs => AP&NIPw"];\n'
      '  "AP&NIPw" -> "BWP" [label="Theorem 1 (convergence), AP&NIPw => BWP"];\n'
      '  "BWP" -> "AP&CCC" [label="Theorem 1 (convergence), BWP => AP&CCC"];\n'
      '  "AP&NIPw" -> "ES" [label="Theorem 2 (connectedness), AP&NIPw => ES"];\n'
      '  "ES" -> "I1" [label="Theorem 2 (connectedness), ES => I1"];\n'
      '  "I1" -> "I2" [label="Theorem 2 (connectedness), I1 => I2"];\n'
      '  "I2" -> "I3" [label="Theorem 2 (connectedness), I2 => I3"];\n'
      '  "I3" -> "IVT" [label="Theorem 2 (connectedness), I3 => IVT"];\n'
      '  "IVT" -> "I4" [label="Theorem 2 (connectedness), IVT => I4"];\n'
      '  "I4" -> "CA" [label="Theorem 2 (connectedness), I4 => CA"];\n'
      '  "CA" -> "MCP" [label="Theorem 2 (connectedness), CA => MCP"];\n'
      '  "BWP" -> "EVT" [label="Theorem 3 (differentiability), BWP&ES => EVT"];\n'
      '  "ES" -> "EVT" [label="Theorem 3 (differentiability), BWP&ES => EVT"];\n'
      '  "EVT" -> "RT" [label="Theorem 3 (differentiability), EVT => RT"];\n'
      '  "RT" -> "eMVT" [label="Theorem 3 (differentiability), RT => eMVT"];\n'
      '  "eMVT" -> "MVT" [label="Theorem 3 (differentiability), eMVT => MVT"];\n'
      '  "MVT" -> "TT_L" [label="Theorem 3 (differentiability), MVT => TT_L"];\n'
      '  "TT_L" -> "PCP" [label="Theorem 3 (differentiability), TT_L => PCP"];\n'
      '  "TT_L" -> "CFT" [label="Theorem 3 (differentiability), TT_L => CFT"];\n'
      '  "TT_L" -> "IFT" [label="Theorem 3 (differentiability), TT_L => IFT"];\n'
      '  "PCP" -> "CVT" [label="Theorem 3 (differentiability), PCP => CVT"];\n'
      '  "CFT" -> "CVT" [label="Theorem 3 (differentiability), CFT => CVT"];\n'
      '  "IFT" -> "CVT" [label="Theorem 3 (differentiability), IFT => CVT"];\n'
      '  "CVT" -> "I1" [label="Theorem 3 (differentiability), CVT => I1"];\n'
      '  "AP&NIPw" -> "I5" [label="Theorem 4 (compactness), AP&NIPw => I5"];\n'
      '  "I5" -> "AP&LCL" [label="Theorem 4 (compactness), I5 => AP&LCL"];\n'
      '  "AP&LCL" -> "AP&UCT" [label="Theorem 4 (compactness), AP&LCL => AP&UCT"];\n'
      '  "AP&UCT" -> "UAS" [label="Theorem 4 (compactness), AP&UCT => UAS"];\n'
      '  "UAS" -> "CC&BVT" [label="Theorem 4 (compactness), UAS => CC&BVT"];\n'
      '  "CC&BVT" -> "MCP" [label="Theorem 4 (compactness), CC&BVT => MCP"];\n'
      '  "UAS" -> "CC&DIT" [label="Theorem 5 (integration), UAS => CC&DIT"];\n'
      '  "UAS" -> "CC&RIT" [label="Theorem 5 (integration), UAS => CC&RIT"];\n'
      '  "CC&DIT" -> "CC&BVT" [label="Theorem 5 (integration), CC&DIT => CC&BVT"];\n'
      '  "CC&RIT" -> "CC&BVT" [label="Theorem 5 (integration), CC&RIT => CC&BVT"];\n'
      '  "MVT" -> "FTC1&IAT" [label="Theorem 5 (integration), MVT => FTC1&IAT"];\n'
      '  "MVT" -> "FTC2" [label="Theorem 5 (integration), MVT => FTC2"];\n'
      '  "FTC1&IAT" -> "ADT" [label="Theorem 5 (integration), FTC1&IAT => ADT"];\n'
      '  "FTC2" -> "ADT" [label="Theorem 5 (integration), FTC2 => ADT"];\n'
      '  "ADT" -> "CVT" [label="Theorem 5 (integration), ADT => CVT"];\n}\n'),
     ('{"diagnostics": {}, '
      '"result": "digraph principles {\\n  \\"AP&CCC\\";\\n  \\"MCP\\";\\n  \\"AP&NIPs\\";\\n  '
      '\\"AP&NIPw\\";\\n  \\"BWP\\";\\n  \\"ES\\";\\n  \\"I1\\";\\n  \\"I2\\";\\n  \\"I3\\";\\n'
      '  \\"IVT\\";\\n  \\"I4\\";\\n  \\"CA\\";\\n  \\"EVT\\";\\n  \\"RT\\";\\n  \\"eMVT\\";\\n'
      '  \\"MVT\\";\\n  \\"TT_L\\";\\n  \\"PCP\\";\\n  \\"CFT\\";\\n  \\"IFT\\";\\n  \\"CVT\\";'
      '\\n  \\"I5\\";\\n  \\"AP&LCL\\";\\n  \\"AP&UCT\\";\\n  \\"UAS\\";\\n  \\"CC&BVT\\";\\n  '
      '\\"CC&DIT\\";\\n  \\"CC&RIT\\";\\n  \\"FTC1&IAT\\";\\n  \\"FTC2\\";\\n  \\"ADT\\";\\n  '
      '\\"AP&CCC\\" -> \\"MCP\\" [label=\\"Theorem 1 (convergence), '
      'AP&CCC => MCP\\"];\\n  \\"MCP\\" -> \\"AP&NIPs\\" [label=\\"Theorem 1 (convergence), '
      'MCP => AP&NIPs\\"];\\n  \\"AP&NIPs\\" -> \\"AP&NIPw\\" [label=\\"Theorem 1 (convergence)'
      ", "
      'AP&NIPs => AP&NIPw\\"];\\n  \\"AP&NIPw\\" -> \\"BWP\\" [label=\\"Theorem 1 (convergence)'
      ', AP&NIPw => BWP\\"];\\n  \\"BWP\\" -> \\"AP&CCC\\" [label=\\"Theorem 1 (convergence), '
      'BWP => AP&CCC\\"];\\n  \\"AP&NIPw\\" -> \\"ES\\" [label=\\"Theorem 2 (connectedness), '
      'AP&NIPw => ES\\"];\\n  \\"ES\\" -> \\"I1\\" [label=\\"Theorem 2 (connectedness), '
      'ES => I1\\"];\\n  \\"I1\\" -> \\"I2\\" [label=\\"Theorem 2 (connectedness), '
      'I1 => I2\\"];\\n  \\"I2\\" -> \\"I3\\" [label=\\"Theorem 2 (connectedness), '
      'I2 => I3\\"];\\n  \\"I3\\" -> \\"IVT\\" [label=\\"Theorem 2 (connectedness), '
      'I3 => IVT\\"];\\n  \\"IVT\\" -> \\"I4\\" [label=\\"Theorem 2 (connectedness), '
      'IVT => I4\\"];\\n  \\"I4\\" -> \\"CA\\" [label=\\"Theorem 2 (connectedness), '
      'I4 => CA\\"];\\n  \\"CA\\" -> \\"MCP\\" [label=\\"Theorem 2 (connectedness), '
      'CA => MCP\\"];\\n  \\"BWP\\" -> \\"EVT\\" [label=\\"Theorem 3 (differentiability), '
      'BWP&ES => EVT\\"];\\n  \\"ES\\" -> \\"EVT\\" [label=\\"Theorem 3 (differentiability), '
      'BWP&ES => EVT\\"];\\n  \\"EVT\\" -> \\"RT\\" [label=\\"Theorem 3 (differentiability), '
      'EVT => RT\\"];\\n  \\"RT\\" -> \\"eMVT\\" [label=\\"Theorem 3 (differentiability), '
      'RT => eMVT\\"];\\n  \\"eMVT\\" -> \\"MVT\\" [label=\\"Theorem 3 (differentiability), '
      'eMVT => MVT\\"];\\n  \\"MVT\\" -> \\"TT_L\\" [label=\\"Theorem 3 (differentiability), '
      'MVT => TT_L\\"];\\n  \\"TT_L\\" -> \\"PCP\\" [label=\\"Theorem 3 (differentiability), '
      'TT_L => PCP\\"];\\n  \\"TT_L\\" -> \\"CFT\\" [label=\\"Theorem 3 (differentiability), '
      'TT_L => CFT\\"];\\n  \\"TT_L\\" -> \\"IFT\\" [label=\\"Theorem 3 (differentiability), '
      'TT_L => IFT\\"];\\n  \\"PCP\\" -> \\"CVT\\" [label=\\"Theorem 3 (differentiability), '
      'PCP => CVT\\"];\\n  \\"CFT\\" -> \\"CVT\\" [label=\\"Theorem 3 (differentiability), '
      'CFT => CVT\\"];\\n  \\"IFT\\" -> \\"CVT\\" [label=\\"Theorem 3 (differentiability), '
      'IFT => CVT\\"];\\n  \\"CVT\\" -> \\"I1\\" [label=\\"Theorem 3 (differentiability), '
      'CVT => I1\\"];\\n  \\"AP&NIPw\\" -> \\"I5\\" [label=\\"Theorem 4 (compactness), '
      'AP&NIPw => I5\\"];\\n  \\"I5\\" -> \\"AP&LCL\\" [label=\\"Theorem 4 (compactness), '
      'I5 => AP&LCL\\"];\\n  \\"AP&LCL\\" -> \\"AP&UCT\\" [label=\\"Theorem 4 (compactness), '
      'AP&LCL => AP&UCT\\"];\\n  \\"AP&UCT\\" -> \\"UAS\\" [label=\\"Theorem 4 (compactness), '
      'AP&UCT => UAS\\"];\\n  \\"UAS\\" -> \\"CC&BVT\\" [label=\\"Theorem 4 (compactness), '
      'UAS => CC&BVT\\"];\\n  \\"CC&BVT\\" -> \\"MCP\\" [label=\\"Theorem 4 (compactness), '
      'CC&BVT => MCP\\"];\\n  \\"UAS\\" -> \\"CC&DIT\\" [label=\\"Theorem 5 (integration), '
      'UAS => CC&DIT\\"];\\n  \\"UAS\\" -> \\"CC&RIT\\" [label=\\"Theorem 5 (integration), '
      'UAS => CC&RIT\\"];\\n  \\"CC&DIT\\" -> \\"CC&BVT\\" [label=\\"Theorem 5 (integration), '
      'CC&DIT => CC&BVT\\"];\\n  \\"CC&RIT\\" -> \\"CC&BVT\\" [label=\\"Theorem 5 (integration)'
      ", "
      'CC&RIT => CC&BVT\\"];\\n  \\"MVT\\" -> \\"FTC1&IAT\\" [label=\\"Theorem 5 (integration),'
      ' MVT => FTC1&IAT\\"];\\n  \\"MVT\\" -> \\"FTC2\\" [label=\\"Theorem 5 (integration), '
      'MVT => FTC2\\"];\\n  \\"FTC1&IAT\\" -> \\"ADT\\" [label=\\"Theorem 5 (integration), '
      'FTC1&IAT => ADT\\"];\\n  \\"FTC2\\" -> \\"ADT\\" [label=\\"Theorem 5 (integration), '
      'FTC2 => ADT\\"];\\n  \\"ADT\\" -> \\"CVT\\" [label=\\"Theorem 5 (integration), '
      'ADT => CVT\\"];\\n}\\n"}\n')),
    (["affine", "--from-a", "0", "--from-b", "1", "--to-a", "3", "--to-b", "5"], 0,
     "2.0*x + 3.0\n",
     '{"diagnostics": {}, "result": "2.0*x + 3.0"}\n'),
    (["pwl", "--nodes", "[0, 1]", "--values", "[0, 10]", "--x", "0.5"], 0,
     "5.0\n",
     '{"diagnostics": {}, "result": 5.0}\n'),
    (["seq", "--op", "monotone", "--s", "1 - 1/n"], 0,
     "strictly-increasing\n",
     '{"diagnostics": {}, "result": "strictly-increasing"}\n'),
    (["seq", "--op", "cauchy", "--s", "1/n", "--lo", "1000", "--hi", "2000"], 0,
     "cauchy: true worst pair (1000, 2000) gap 0.0005\n",
     '{"diagnostics": {"gap": 0.0005, "pair": [1000, 2000]}, "result": true}\n'),
    (["seq", "--op", "cauchy", "--s", "sin(n)"], 1,
     "cauchy: false worst pair (11, 33) gap 1.9999020666579708\n",
     '{"diagnostics": {"gap": 1.9999020666579708, "pair": [11, 33]}, "result": false}\n'),
    (["seq", "--op", "bound", "--s", "sin(n)", "--n", "50"], 0,
     "0.9999902065507035\n",
     '{"diagnostics": {}, "result": 0.9999902065507035}\n'),
    (["seq", "--op", "bw", "--s", "sin(n)", "--box", "-1", "1", "--depth", "4"], 0,
     "indices: [1, 2, 7, 8]\n",
     ('{"diagnostics": {}, "result": {"indices": [1, 2, 7, 8], "intervals": [[-1.0, 1.0], '
      "[0.0, 1.0], [0.5, 1.0], [0.75, 1.0]]}}\n")),
    (["seq", "--op", "limit", "--s", "1 - 1/n", "--upper", "1", "--tol", "1e-4"], 0,
     "0.99993896484375\n",
     '{"diagnostics": {}, "result": 0.99993896484375}\n'),
    (["seq", "--op", "diverge", "--s", "n", "--eps", "1", "--count", "3"], 0,
     "indices: [1, 2, 3, 4]\n",
     '{"diagnostics": {}, "result": [1, 2, 3, 4]}\n'),
    (["seq", "--op", "cauchy-limit", "--s", "1/n", "--box", "0", "1", "--tol", "1e-3"], 0,
     "0.00048828125\n",
     '{"diagnostics": {}, "result": 0.00048828125}\n'),
    (["ival", "--op", "bisect", "--interval", "[0, 1]"], 0,
     "left [0.0, 0.5] right [0.5, 1.0]\n",
     '{"diagnostics": {}, "result": {"left": [0.0, 0.5], "right": [0.5, 1.0]}}\n'),
    (["ival", "--op", "partition", "--a", "0", "--b", "1", "--n", "4"], 0,
     "[0.0, 0.25, 0.5, 0.75, 1.0]\n",
     '{"diagnostics": {}, "result": [0.0, 0.25, 0.5, 0.75, 1.0]}\n'),
    (["ival", "--op", "refine", "--p", "[0, 0.5, 1]", "--q", "[0, 0.25, 1]"], 0,
     "[0.0, 0.25, 0.5, 1.0]\n",
     '{"diagnostics": {}, "result": [0.0, 0.25, 0.5, 1.0]}\n'),
    (["ival", "--op", "shrink", "--lo-expr", "0 - 1/n", "--hi-expr", "1/n", "--tol", "1e-4"], 0,
     "0.0\n",
     '{"diagnostics": {}, "result": 0.0}\n'),
]


@pytest.mark.parametrize("argv, code, text, json_text", _GOLDEN,
                         ids=[" ".join(argv) for argv, *_ in _GOLDEN])
def test_each_reply_branch_prints_its_recorded_output(capsys, argv, code, text, json_text):
    assert run(capsys, *argv) == (code, text, "")
    assert run(capsys, *argv, "--output", "json") == (code, json_text, "")


# argv, exit code, stderr as text, stdout with --output json: parse errors
# report offsets into the whole flag's text, and every expression flag is
# parsed before the handler runs, whatever the --op; errors of the library
# print the same way
_GOLDEN_PARSE_ERRORS = [
    (["sup", "--member", "x < 2 +", "--seed-point", "0", "--bound", "2"], 2,
     "parse error: unexpected end of input (at offset 7)\n",
     '{"diagnostics": {"error": "unexpected end of input (at offset 7)"}, "result": null}\n'),
    (["sup", "--member", "x < 2 @", "--seed-point", "0", "--bound", "2"], 2,
     "parse error: unexpected character '@' (at offset 6)\n",
     """{"diagnostics": {"error": "unexpected character '@' (at offset 6)"}, "result": null}\n"""),
    (["ival", "--op", "bisect", "--interval", "[0, 1]", "--lo-expr", "1/"], 2,
     "parse error: unexpected end of input (at offset 2)\n",
     '{"diagnostics": {"error": "unexpected end of input (at offset 2)"}, "result": null}\n'),
    # the library refuses a non-cover with the text the CLI prints
    (["subcover", "--cover", _GAPPED_COVER], 1,
     "error: not a cover: 0.4 is uncovered\n",
     '{"diagnostics": {"error": "not a cover: 0.4 is uncovered"}, "result": null}\n'),
    (["lebesgue", "--cover", _GAPPED_COVER], 1,
     "error: not a cover: 0.4 is uncovered\n",
     '{"diagnostics": {"error": "not a cover: 0.4 is uncovered"}, "result": null}\n'),
]


@pytest.mark.parametrize("argv, code, err, json_text", _GOLDEN_PARSE_ERRORS,
                         ids=[" ".join(argv) for argv, *_ in _GOLDEN_PARSE_ERRORS])
def test_each_parse_error_prints_its_recorded_output(capsys, argv, code, err, json_text):
    assert run(capsys, *argv) == (code, "", err)
    assert run(capsys, *argv, "--output", "json") == (code, json_text, "")


def test_the_recorded_outputs_cover_every_subcommand_and_op():
    names = [argv[0] for argv, *_ in _GOLDEN]
    assert set(names) == set(COMMANDS)
    for name, command in COMMANDS.items():
        if "op" in command.flags:
            ops = {argv[argv.index("--op") + 1] for argv, *_ in _GOLDEN if argv[0] == name}
            assert ops == set(command.flags["op"]["choices"]), name
    graph_ops = _subcommands(_SUBPARSERS["graph"]).choices
    assert {argv[1] for argv, *_ in _GOLDEN if argv[0] == "graph"} == set(graph_ops)


# ---------------------------------------------------------------------------
# fuzzing the CLI contract: exit code 0, 1 or 2, no traceback, strict JSON

def _cli(argv):
    """Exit code, stdout and stderr of one in-process run; warnings are
    written to stderr, as a fresh process would print them."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(list(argv))
        except SystemExit as e:   # argparse usage errors
            code = e.code
    err.writelines(warnings.formatwarning(w.message, w.category, w.filename, w.lineno)
                   for w in caught)
    return code, out.getvalue(), err.getvalue()


def _nest(form, depth, cut):
    """form ("-{}", "sin({})", ...) applied depth times to x, less cut chars."""
    before, after = form.split("{}")
    text = before * depth + "x" + after * depth
    return text[:len(text) - cut]


# deep chains: nested groups, prefix minuses, calls, powers, products and
# sums, for parse and eval (the numerical commands cost tree size times cells)
_DEEP = st.builds(_nest, st.sampled_from(["({})", "-{}", "sin({})", "({})^2", "x*{}", "{}+x"]),
                  st.integers(1, 2000), st.sampled_from([0, 0, 1]))
_EXPRS = st.one_of(
    expr_trees((0.0, 1.0, -1.0, 2.5), max_leaves=6).map(E.to_text),
    st.sampled_from(["x", "-x^2", "exp(-x^2)", "1/x", "ln(x)", "sqrt(x)", "abs(x)",
                     "sin(1/x)", "x^-2", "exp(1000*x)", "0/0", "sqrt(0-1)", "1e400*x",
                     "x^", "", "(x", "sin()", "2^x", "--x", "x $ 1"]),
)
# endpoints near domain edges (0) for the integrals; anything for the rest
_ENDS = st.sampled_from(["0", "-0", "1", "-1", "0.5", "-2", "2", "1e-300", "-1e-300"])
_ANY = st.one_of(_ENDS, st.sampled_from(["1e300", "-1e300", "inf", "-inf", "nan", "1e400",
                                         "abc", ""]))
_TOLS = st.sampled_from(["1e-2", "1e-3", "0.5", "0", "-1", "nan", "inf"])
_JSON = st.sampled_from(["[0, 0.5, 1]", "[-1, 0, 1]", "[1, 0]", "[0]", "[]", "{}",
                         "[0, 1e400]", "[0, NaN]", "[0, 1", "[0.25, 0.75]"])


@st.composite
def _argv(draw):
    cmd = draw(st.sampled_from(["integrate", "darboux", "riemann", "imvt", "ftc2", "sup",
                                "cut", "root", "parse", "eval", "modulus", "stepapprox",
                                "adt", "polycheck", "shape", "extremum", "taylor", "deriv",
                                "limit"]))
    f, a, b = draw(_EXPRS), draw(_ENDS), draw(_ENDS)
    if cmd in ("integrate", "imvt", "ftc2"):
        argv = [cmd, "--F" if cmd == "ftc2" else "--f", f, "--a", a, "--b", b]
        argv += draw(st.sampled_from([[], ["--certificate"], ["--check-additivity-at", a],
                                      ["--bounds", "-1", "1"]])) if cmd == "integrate" else []
        argv += ["--tol", draw(_TOLS)]   # never the 1e-6 default: keeps each run short
    elif cmd == "darboux":
        argv = [cmd, "--f", f, "--a", a, "--b", b, "--n", draw(st.sampled_from(
            ["1", "7", "64", "0", "-3", "x"]))]
    elif cmd == "riemann":
        argv = [cmd, "--f", f, "--partition", draw(_JSON)]
        argv += draw(st.sampled_from([[], ["--choice", "random"], ["--choice", "left"],
                                      ["--choice", "explicit", "--points", "[0.25, 0.75]"]]))
    elif cmd in ("sup", "cut"):
        pred = f"{f} < {draw(_ANY)}"
        argv = (["sup", "--member", pred, "--seed-point", draw(_ANY), "--bound", draw(_ANY)]
                if cmd == "sup" else
                ["cut", "--below", pred, "--in-point", draw(_ANY), "--out-point", draw(_ANY)])
    elif cmd == "root":
        argv = [cmd, "--f", f, "--a", draw(_ANY), "--b", draw(_ANY), "--k", draw(_ANY)]
        argv += ["--tol", draw(st.sampled_from(["1e-300", "1e-9", "0.1"]))]
    elif cmd == "parse":
        argv = [cmd, "--text", draw(st.one_of(st.just(f), _DEEP))]
    elif cmd in ("modulus", "stepapprox"):
        argv = [cmd, "--f", f, "--a", draw(_ANY), "--b", draw(_ANY), "--eps",
                draw(st.sampled_from(["0.5", "0.05", "0", "nan", "inf"]))]
        argv += draw(st.sampled_from([[], ["--delta", "0.25"], ["--delta", "0"],
                                      ["--delta", "nan"], ["--delta", "1e-300"]])
                     ) if cmd == "stepapprox" else []
    elif cmd == "adt":
        argv = [cmd, "--F", f, "--G", draw(_EXPRS), "--a", draw(_ANY), "--b", draw(_ANY)]
    elif cmd in ("polycheck", "shape", "extremum"):
        argv = [cmd, "--f", f, "--a", draw(_ANY), "--b", draw(_ANY)]
        argv += {"polycheck": ["--n", draw(st.sampled_from(["0", "2", "-1"]))],
                 "shape": ["--kind", draw(st.sampled_from(["convex", "increasing", "constant"]))],
                 "extremum": []}[cmd]
    elif cmd == "deriv":   # at the ends, poles, kinks and domain edges meet 0 and +-1e-300
        argv = [cmd, "--f", f, "--at", a, "--order", draw(st.sampled_from(["0", "1", "2", "7"]))]
    elif cmd == "limit":
        argv = [cmd, "--f", f, "--at", a, "--mode",
                draw(st.sampled_from(["left", "right", "two-sided"]))]
    elif cmd == "taylor":
        argv = [cmd, "--f", f, "--n", draw(st.sampled_from(["0", "2", "-1"])),
                "--at", draw(_ANY), "--x", draw(_ANY)]
    else:
        argv = [cmd, "--f", draw(st.one_of(st.just(f), _DEEP)), "--x", draw(_ANY)]
    if draw(st.booleans()):
        argv += ["--max-iter", draw(st.sampled_from(["0", "3", "50"]))]
    return argv + draw(st.sampled_from([[], ["--output", "json"], ["--output", "text"]]))


# one pool of values per flag type, for argv drawn from the command table;
# a string flag holds an expression (in n for sequences), a predicate, a
# cover or other JSON
_SUBPARSERS = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices
_POOLS = {float: st.one_of(_ENDS, st.sampled_from(["inf", "nan"])),
          int: st.sampled_from(["-1", "0", "1", "2", "7"])}   # small: budgets, depths
_N_EXPRS = _EXPRS.map(lambda f: re.sub(r"\bx\b", "n", f))
_PREDICATES = st.builds("{} < {}".format, _EXPRS, _ENDS)
_STRINGS = {**dict.fromkeys(["text", "f", "g", "F", "G"], _EXPRS),
            **dict.fromkeys(["s", "lo-expr", "hi-expr"], _N_EXPRS),
            "member": _PREDICATES, "below": _PREDICATES,
            "cover": st.sampled_from(['{"target": [0, 1], "pieces": [[-0.1, 0.6], [0.4, 1.1]]}',
                                      '{"target": [0, 1], "pieces": [[0.5, 2]]}',
                                      '{"target": [0, 1], "pieces": []}'])}


@st.composite
def _table_argv(draw):
    """Every subcommand of COMMANDS, with its required flags and a random
    subset of the others, each value drawn by the flag's type."""
    name = draw(st.sampled_from(list(COMMANDS)))
    argv = [name, "--tol", draw(st.sampled_from(["1e-2", "1e-3", "0.5"])),
            "--max-iter", draw(st.sampled_from(["3", "50"]))]
    for flag in COMMANDS[name].flags:
        action = _SUBPARSERS[name]._option_string_actions["--" + flag]
        if action.required or draw(st.booleans()):
            pool = (st.sampled_from(action.choices) if action.choices else
                    _POOLS[action.type] if action.type else _STRINGS.get(flag, _JSON))
            argv += ["--" + flag, *(draw(pool) for _ in range(
                1 if action.nargs is None else action.nargs))]
    argv += draw(st.sampled_from([[], ["--output", "json"], ["--output", "text"]]))
    if name == "graph":  # last: the graph op and its operands
        argv += draw(st.sampled_from([["scc"], ["dot"], ["path", "MVT", "CVT"],
                                      ["path", "CVT", "nope"], ["path"]]))
    return argv


@settings(max_examples=700, deadline=None)
@given(st.one_of(_argv(), _table_argv()))
def test_cli_contract_holds_for_generated_argv(argv):
    code, out, err = _cli(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err
    assert "RuntimeWarning" not in err, (argv, err)
    if "--output" in argv and argv[argv.index("--output") + 1] == "json":
        payload = json.loads(out, parse_constant=_reject_constant)
        assert set(payload) == {"result", "diagnostics"}
        failed = "error" in payload["diagnostics"]
        assert failed == (code == 2 or payload["result"] is None and code == 1)


@pytest.mark.parametrize("argv, err", [
    (["limit", "--f", "abs(x)", "--at", "nan"], "error: need a finite point, got nan\n"),
    (["deriv", "--f", "ln(x)", "--at", "nan"], "error: need a finite point, got nan\n"),
    (["limit", "--f", "exp(1000*x)", "--at", "1"], None),
    (["deriv", "--f", "exp(1000*x)", "--at", "1"], None),
    (["limit", "--f", "1e400*x", "--at", "0"], None),
    (["deriv", "--f", "sqrt(x)^0", "--order", "2", "--at", "-1"], None),  # printed 0.0
    (["seq", "--op", "cauchy-limit", "--s", "n", "--box", "1", "1", "--budget", "0"],
     "error: budget must be at least 1\n"),
    # a NaN eps, a NaN end, and a slope past the double range
    (["seq", "--op", "diverge", "--s", "n", "--eps", "nan"], "error: eps must be positive\n"),
    (["seq", "--op", "cauchy", "--s", "1/n", "--eps", "nan"], "error: eps must be positive\n"),
    (["affine", "--from-a", "0", "--from-b", "nan", "--to-a", "0", "--to-b", "1"],
     "error: affine_map needs a0 < b0\n"),
    (["affine", "--from-a", "0", "--from-b", "1e-320", "--to-a", "0", "--to-b", "1e300"],
     "error: affine_map needs finite ends and a finite slope\n"),
])
def test_non_finite_points_and_an_empty_budget_fail_without_warnings(argv, err):
    # numpy warned: "Mean of empty slice", inf - inf in the spread and the
    # difference quotient, inf + -inf in the mean; the empty budget died
    # with "zero-size array to reduction operation maximum"
    code, out, text_err = _cli(argv)
    assert (code, out) == (1, "") and text_err.startswith("error: ")
    assert err is None or text_err == err
    code, out, json_err = _cli([*argv, "--output", "json"])
    payload = json.loads(out, parse_constant=_reject_constant)
    assert (code, json_err, payload["result"]) == (1, "", None)
    assert payload["diagnostics"]["error"] == text_err[len("error: "):-1]


# ---------------------------------------------------------------------------
# start-up: what a fresh process imports

def _fresh(*args, env=None, stdout=subprocess.PIPE):
    """Run the interpreter with args in a fresh process importing this fcalc,
    in env (default: this process's environment), its stdout captured
    unless given."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fcalc.__file__)))
    return subprocess.run([sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE,
                          text=True, timeout=120,
                          env={**(os.environ if env is None else env), "PYTHONPATH": src})


@pytest.mark.parametrize("args", [("graph", "dot"), ("eval", "--f", "x", "--x", "2")])
def test_a_closed_stdout_pipe_exits_1_without_a_traceback(args):
    # print raised BrokenPipeError, and the process ended in its traceback
    read, write = os.pipe()
    os.close(read)  # the reader has gone before fc writes
    try:
        proc = _fresh("-m", "fcalc.cli", *args, stdout=write)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ["eval", "--f", "x", "--x", "2"],
    ["--output", "json", "eval", "--f", "x", "--x", "2"],
    ["graph", "dot"],
    ["--output", "json", "root", "--f", "x^2 + 1", "--a", "0", "--b", "1"],  # the error object
    ["--help"],  # argparse's help, whose lost write exited 0
], ids=" ".join)
def test_a_failed_write_to_stdout_is_one_error_line_and_exit_1(argv):
    # print raised OSError (no space left on device), and the process ended in its traceback
    with open("/dev/full", "w") as full:
        proc = _fresh("-m", "fcalc.cli", *argv, stdout=full)
    assert (proc.returncode, proc.stderr) == (
        1, "error: cannot write to stdout: No space left on device\n")


_BLAS = "OPENBLAS_NUM_THREADS"


def _env_without_blas_threads():
    return {k: v for k, v in os.environ.items() if k != _BLAS}


@pytest.mark.parametrize("f, x, text", [("sin(x)", "1e400", "nan"), ("exp(1000)", "0", "inf")])
def test_non_finite_eval_in_a_fresh_process(f, x, text):
    # the scalar backend's IEEE values, in a process that has not loaded numpy
    proc = _fresh("-m", "fcalc.cli", "eval", "--f", f, "--x", x)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, text + "\n", "")
    proc = _fresh("-m", "fcalc.cli", "eval", "--f", f, "--x", x, "--output", "json")
    assert (proc.returncode, proc.stderr) == (1, "")
    assert json.loads(proc.stdout, parse_constant=_reject_constant) == {
        "result": None, "diagnostics": {"error": "result is not finite; JSON has no inf or nan"}}


@pytest.mark.parametrize("argv", [
    ["shape", "--f", "x", "--a", "0", "--b", "inf", "--kind", "increasing"],
    ["extremum", "--f", "x", "--a", "nan", "--b", "1"],
    ["extremum", "--f", "x", "--a", "0", "--b", "inf"],
    ["taylor", "--f", "exp(x)", "--n", "2", "--at", "0", "--x", "inf"],
    ["rolle", "--f", "x^2", "--a=-inf", "--b", "inf"],
    ["mvt", "--f", "x^2", "--a", "0", "--b", "inf"],
    ["emvt", "--f", "x^2", "--g", "x", "--a", "0", "--b", "inf"],
    ["adt", "--F", "x^2", "--G", "x^2+1", "--a", "0", "--b", "inf"],
], ids=lambda argv: argv[0] + " " + " ".join(argv[-4:]))
def test_a_non_finite_interval_is_a_precondition_error(argv):
    proc = _fresh("-m", "fcalc.cli", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", "error: need a finite interval [a, b]\n")


@pytest.mark.parametrize("argv, out, err", [
    (["shape", "--f", "x", "--a", "0", "--b", "1e300", "--kind", "convex"],
     "convex: true\n", ""),
    (["shape", "--f", "x", "--a", "0", "--b", "-0", "--kind", "convex"], "convex: true\n", ""),
    (["adt", "--F", "1e400*x", "--G", "1e400*x", "--a", "0", "--b", "1"],
     "", "error: F is not finite at a = 0.0\n"),
    (["taylor", "--f", "exp(1000*x)", "--n", "2", "--at", "0", "--x", "1"],
     "value 501001.0 rho inf witness none remainder inf\n", ""),
    (["darboux", "--f", "1e400*x", "--a", "0", "--b", "1", "--n", "64"],
     "lower nan upper inf\n", ""),
    (["integrate", "--f", "1e308*sin(abs(x))", "--a", "0", "--b", "24", "--tol", "1e306"],
     "5.758165050281276e+307\n", ""),
    (["stepint", "--partition", "[0, 10, 20]", "--values", "[1e308, -1e308]"], "nan\n", ""),
], ids=["shape-wide", "shape-signed-zeros", "adt-inf", "taylor-inf", "darboux-inf-minus-inf",
        "integrate-wide-cells", "stepint-inf-minus-inf"])
def test_overflowing_sums_warn_nothing(argv, out, err):
    # numpy scalars warned on overflow and inf - inf
    proc = _fresh("-m", "fcalc.cli", *argv)
    assert (proc.stdout, proc.stderr) == (out, err)


def test_a_nan_riemann_sum_warns_nothing():
    # f is inf and -inf on the two cells, so the weighted sum is inf - inf
    proc = _fresh("-m", "fcalc.cli", "riemann", "--f", "1e400*x", "--partition", "[-1, 0, 1]")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "nan\n", "")


@pytest.mark.parametrize("argv", [
    ["parse", "--text", "sin(x)^2 - 1/x"],
    ["eval", "--f", "exp(x)/(1+x^2)", "--x", "0.5"],
    ["eval", "--f", "exp(1000)", "--x", "0"],
    ["eval", "--f", "sin(x)", "--x", "1e400"],
    ["deriv", "--f", "sin(x)*x^3", "--order", "2"],
    ["sup", "--member", "x*x < 2", "--seed-point", "0", "--bound", "2", "--witnesses", "3"],
    ["cut", "--below", "x*x < 2", "--in-point", "0", "--out-point", "2"],
    ["root", "--f", "x^3 - x - 2", "--a", "1", "--b", "2"],
    ["affine", "--from-a", "0", "--from-b", "1", "--to-a", "2", "--to-b", "5"],
    ["graph", "path", "MVT", "CVT"],
    ["graph", "dot"],
    ["graph", "scc"],
    ["seq", "--op", "limit", "--s", "1 - 1/n", "--upper", "1", "--tol", "1e-5"],
    ["seq", "--op", "monotone", "--s", "1 - 1/n"],
    ["seq", "--op", "cauchy", "--s", "1/n", "--lo", "1000", "--hi", "2000"],
    ["seq", "--op", "bound", "--s", "sin(n)", "--n", "50"],
    ["seq", "--op", "diverge", "--s", "n", "--eps", "1", "--count", "3"],
    ["ival", "--op", "bisect", "--interval", "[0, 1]"],
    ["ival", "--op", "shrink", "--lo-expr", "0 - 1/n", "--hi-expr", "1/n", "--tol", "1e-4"],
    ["ival", "--op", "partition", "--a", "0", "--b", "1", "--n", "4"],
    ["ival", "--op", "refine", "--p", "[0, 0.5, 1]", "--q", "[0, 0.25, 1]"],
    ["stepint", "--partition", "[0, 0.5, 1]", "--values", "[1, 2]", "--output", "json"],
    ["stepint", "--partition", "[0, 0.5, 1]", "--values", "[1, 2]", "--reexpress",
     "[0, 0.25, 0.5, 1]", "--combine", "add", "--other-partition", "[0, 1]",
     "--other-values", "[3]"],
    ["stepint", "--partition", "[0, 0.5, 1]", "--values", "[1, 2]", "--split-at", "0.25"],
    ["--help"],
    ["deriv", "--f", "exp(0.5*x)*cos(2*x)", "--at", "0.3"],  # f defined about c: a float cell
    ["limit", "--f", "x^2", "--at", "1"],
], ids=" ".join)
def test_subcommands_without_arrays_never_import_numpy(argv):
    proc = _fresh("-c", f"""
import contextlib, io, sys
from fcalc.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = main({argv!r})
    except SystemExit as e:
        code = e.code
assert code == 0, code
assert "numpy" not in sys.modules, "numpy was imported"
assert "dataclasses" not in sys.modules, "dataclasses was imported"
""")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("user, want", [(None, "1"), ("4", "4")])
def test_fc_run_as_a_program_defaults_openblas_to_one_thread(monkeypatch, capsys, user, want):
    monkeypatch.setenv(_BLAS, "unset")  # so that teardown restores the variable either way
    if user is None:
        monkeypatch.delenv(_BLAS)
    else:
        monkeypatch.setenv(_BLAS, user)
    monkeypatch.setattr(sys, "argv", ["fc", "parse", "--text", "x"])
    assert main() == 0
    assert os.environ[_BLAS] == want


def test_importing_cli_and_calling_main_with_argv_leave_the_environment_alone():
    proc = _fresh("-c", """
import contextlib, io, os
before = dict(os.environ)
from fcalc.cli import main
assert dict(os.environ) == before, "import changed the environment"
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["integrate", "--f", "x^2", "--a", "0", "--b", "1"]) == 0
assert dict(os.environ) == before, "main(argv) changed the environment"
""", env=_env_without_blas_threads())
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_fc_run_as_a_program_starts_no_blas_worker_threads():
    proc = _fresh("-c", """
import contextlib, io, os, sys
sys.argv = ["fc", "integrate", "--f", "x^2", "--a", "0", "--b", "1"]
from fcalc.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main() == 0
assert "numpy" in sys.modules
print(len(os.listdir("/proc/self/task")))
""", env=_env_without_blas_threads())
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1\n", "")


def test_a_long_riemann_sum_does_not_depend_on_the_blas_thread_count():
    # np.dot split a long sum across OpenBLAS threads, which moved its last bits;
    # 2^15 cells overflow one argv string, so the process sets sys.argv itself
    script = """
import json, sys
sys.argv = ["fc", "riemann", "--f", "sin(1000*x)", "--partition",
            json.dumps([(k / 2**15) ** 2 for k in range(2**15 + 1)])]
from fcalc.cli import main
sys.exit(main())
"""
    runs = [_fresh("-c", script, env={**os.environ, _BLAS: n}) for n in ("1", "2")]
    assert [(p.returncode, p.stderr) for p in runs] == [(0, ""), (0, "")]
    assert runs[0].stdout == runs[1].stdout
    assert abs(float(runs[0].stdout) - (1 - math.cos(1000)) / 1000) < 1e-6


# Run as a program, fc flushes its output and ends with os._exit, skipping
# interpreter teardown; these runs go through a pipe, as a shell's would.
@pytest.mark.parametrize("argv, code", [
    (["graph", "dot"], 0),   # a long output, which must arrive whole
    (["eval", "--f", "exp(x)/(1+x^2)", "--x", "0.5"], 0),
    (["--output", "json", "root", "--f", "x^2 + 1", "--a", "0", "--b", "1"], 1),
    (["root", "--f", "x^2 + 1", "--a", "0", "--b", "1"], 1),
    (["eval", "--f", "x +", "--x", "1", "--output", "json"], 2),
    (["eval", "--f", "x"], 2),   # a usage error, from argparse
    (["--output", "json", "eval", "--x", "1"], 2),
    (["--help"], 0),
    (["graph", "dot", "--help"], 0),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_the_program_exits_with_mains_code_and_output(argv, code):
    proc = _fresh("-m", "fcalc.cli", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == _cli(argv)
    assert proc.returncode == code
    if "json" in argv:   # one object, the error's where the code is not 0
        assert set(json.loads(proc.stdout)) == {"result", "diagnostics"}


@pytest.mark.parametrize("argv, fail, out", [
    (["eval", "--f", "x", "--x", "2"], False, "2.0\n"),   # os._exit: no teardown
    (["eval", "--f", "x"], False, "teardown\n"),          # argparse's SystemExit
    (["eval", "--f", "x", "--x", "2"], True, "teardown\n"),  # an exception
])
def test_only_a_clean_run_skips_interpreter_teardown(argv, fail, out):
    proc = _fresh("-c", f"""
import atexit, sys
import fcalc.cli
atexit.register(print, "teardown")
sys.argv = ["fc", *{argv!r}]
if {fail!r}:
    fcalc.cli.main = lambda: 1 / 0
fcalc.cli.run()
""")
    assert proc.stdout == out
    assert ("ZeroDivisionError" in proc.stderr) == fail
    text = Path(__file__).parents[1].joinpath("pyproject.toml").read_text()
    assert re.search(r'^fc = "fcalc\.cli:run"$', text, re.M)   # the fc script


def test_fcalc_loads_each_submodule_on_first_use():
    proc = _fresh("-c", """
import sys
import fcalc
loaded = [m for m in sys.modules if m.startswith("fcalc.")]
assert loaded == [], loaded
assert "numpy" not in sys.modules
for name in fcalc.__all__:
    assert getattr(fcalc, name) is not None and name in dir(fcalc), name
assert fcalc.expr is sys.modules["fcalc.expr"]
assert not hasattr(fcalc, "numpy")
""")
    assert proc.returncode == 0, proc.stderr


def _dump(parser):
    """Every action of parser and of its subparsers, in order, as plain data,
    with each subcommand's help line and the help text it prints."""
    rows = [parser.prog, parser.format_help()]
    for a in parser._actions:
        sub = isinstance(a, argparse._SubParsersAction)
        rows.append((type(a).__name__, a.option_strings, a.dest, a.type, a.default, a.required,
                     None if sub else a.choices, a.nargs, a.metavar, a.const, a.help))
        if sub:
            rows.append([(c.dest, c.help) for c in a._choices_actions])
            rows += [(name, _dump(p)) for name, p in a.choices.items()]
    return rows


def _subcommands(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))


@pytest.mark.parametrize("name", list(COMMANDS))
def test_a_one_row_parser_builds_the_same_subparser(name):
    full, one = build_parser(), build_parser((name,))
    assert list(_subcommands(one).choices) == [name]
    assert _dump(_subcommands(one).choices[name]) == _dump(_subcommands(full).choices[name])
    assert [c.help for c in _subcommands(one)._choices_actions] == [COMMANDS[name].help]
    assert one.format_usage() == full.format_usage()  # it names every subcommand


@pytest.mark.parametrize("argv, word", [
    *(([name, "--help"], name) for name in COMMANDS),
    (["graph", "path", "--help"], "graph"),
    (["--help"], None),
    ([], None),
    (["nope", "--f", "x"], None),
    (["--tol", "abc", "eval", "--f", "x", "--x", "1"], "eval"),
    (["--output", "json", "--tol", "0", "eval", "--f", "x", "--x", "1"], "eval"),
    (["--output=json", "eval", "--f", "x", "--x", "1"], "eval"),
    (["--out", "json", "eval", "--f", "x", "--x", "1"], None),  # argparse's abbreviation
    (["--seed", "eval", "parse", "--text", "x"], "parse"),  # an int flag given a word
    (["graph", "path", "A", "B"], "graph"),
    (["graph", "--output=json", "path", "MVT", "CVT"], "graph"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_main_answers_as_with_the_full_parser(capsys, monkeypatch, argv, word):
    def answer():
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        return (code, *capsys.readouterr())

    built, build = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda names: built.append(names) or build(names))
    one = answer()
    assert built == [COMMANDS if word is None else (word,)]
    monkeypatch.setattr(cli, "_command_word", lambda argv: None)
    assert answer() == one
