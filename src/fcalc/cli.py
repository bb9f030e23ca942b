"""Command-line frontend.

Every library operation is reachable through exactly one subcommand
(see COMMANDS).  Exit codes: 0 success, 1 the mathematics said no
(bad bracket, divergence, a check that came back false), 2 bad usage or
unparseable input.  With --output json a single strict-JSON object with
"result" and "diagnostics" is emitted (a non-finite value there is an
exit-1 error object, and a usage error an exit-2 one); identical argv
and seed give byte-identical output.

One parse step and one reply path.  main parses every expression flag
(_EXPR_FLAGS), in flag order, before the handler runs: --text, --f,
--g, --F and --G into trees in x, --s, --lo-expr and --hi-expr into
trees in n, and --member and --below into expr.Predicate.  No handler
parses an expression; each hands the trees to the library as they are
(a tree is callable).  main also fills in args.tol, args.seed (FC_SEED
overrides --seed) and args.max_iter.  A handler takes args alone and
returns the library's answer, or a Reply where it has more to say:
diagnostics, a label, a text line that shows something other than the
value, or lines after it.  main derives the rest:
  - the text: _fmt of the value, which prints a dict as "key value"
    pairs and a bool as true or false, after "label: " where there is a
    label;
  - with --output json, the object {"result": value, "diagnostics": ...};
  - the exit code: 1 where the value is False (a verdict that came back
    false), else 0.
_write is fc's one write to stdout.  A write that fails gives one
"error:" line on stderr (none where the reader has gone: a closed pipe)
and exit 1.

Start-up pays only for the subcommand that runs.  main builds the
parser with the one subparser that argv names (the whole table for
--help, no command, or a token before the command that is not a global
flag).  This module imports the standard library and `errors` alone,
and json only where it reads or writes JSON, so the parser, --help and
usage errors load no library module; main imports `expr` for a
subcommand with an expression flag, and each handler imports its
modules when it runs.  Their value classes are plain classes and named
tuples, which cost little to define.  `expr`, `calculus` and `integrate`
import numpy only for an array call or an enclosure of array cells, and
`suprema` and `stepfn`'s algebra never do, so parse, eval, deriv, limit,
sup, cut, root, affine, graph, stepint, seq --op monotone, cauchy, bound,
limit and diverge, ival --op bisect, partition, refine and shrink, and
polycheck, shape and adt where one float enclosure of the derivative
they test on all of [a, b] proves its bound, run without it.  Run as a
program (run), fc starts numpy's OpenBLAS with one thread unless
OPENBLAS_NUM_THREADS is set (see main), and ends without interpreter
teardown.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from typing import Callable, Dict, NamedTuple, Optional, Sequence

from .errors import MathError, ParseError


_FLOATS = [float]
_PAIR = (float, float)
_COVER = {"target": _PAIR, "pieces": [_PAIR]}


def _json_arg(text: str, shape):
    """A JSON argument as finite floats in the given shape, else ParseError.

    A shape is float (a finite number), a tuple of shapes (a list of
    exactly that many items), a one-item list [s] (a list of any length
    whose items have shape s) or a dict (an object with exactly its
    keys).  Lists come back as tuples.
    """
    import json
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"bad JSON: {e.msg}", e.pos)
    except RecursionError:  # json's decoder recurses once per nesting level
        raise ParseError("bad JSON: nested too deeply", 0) from None

    def fail(where, what):
        raise ParseError(f"JSON argument {text!r}: {where} must be {what}", 0)

    def check(value, shape, where):
        if shape is float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                fail(where, "a number")
            try:
                value = float(value)
            except OverflowError:  # an integer literal beyond the double range
                value = math.inf
            if not math.isfinite(value):
                fail(where, "finite")
            return value
        if isinstance(shape, dict):
            if not isinstance(value, dict) or set(value) != set(shape):
                fail(where, "an object with keys " + ", ".join(shape))
            return {key: check(value[key], sub, f"{where}.{key}") for key, sub in shape.items()}
        if not isinstance(value, list):
            fail(where, "a list")
        if isinstance(shape, tuple) and len(value) != len(shape):
            fail(where, f"a list of {len(shape)} items")
        subs = shape if isinstance(shape, tuple) else shape * len(value)
        return tuple(check(v, sub, f"{where}[{i}]") for i, (v, sub) in enumerate(zip(value, subs)))

    return check(data, shape, "value")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    if isinstance(value, dict):
        return " ".join(f"{key} {_fmt(v)}" for key, v in value.items())
    return str(value)


class Reply(NamedTuple):
    """A handler's answer where its value alone is not all fc prints:
    the JSON diagnostics, the label before the text line, what that line
    shows where not the value, and the text lines after it."""

    value: object
    diagnostics: dict = {}  # read only: the default is shared
    label: Optional[str] = None
    shown: object = None  # None: the value
    lines: Sequence[str] = ()


def _output(reply: Reply, json_output: bool) -> str:
    """What fc writes to stdout for a reply."""
    if json_output:
        return _json({"result": reply.value, "diagnostics": reply.diagnostics})
    line = _fmt(reply.value if reply.shown is None else reply.shown)
    if reply.label is not None:
        line = f"{reply.label}: {line}"
    return "\n".join([line, *reply.lines])


# ---------------------------------------------------------------------------
# handlers: each takes args and returns the library's answer or a Reply

def _h_parse(args):
    return str(args.text)  # expr.to_text


def _h_eval(args):
    return args.f(args.x)  # a tree is callable: expr.evaluate(f, x)


def _h_deriv(args):
    from . import expr
    if args.at is None:
        return expr.to_text(expr.differentiate(args.f, args.order))
    from . import calculus
    rep = calculus.derivative(args.f, args.at, args.order, tol=args.tol)
    return Reply(rep.estimate, rep._asdict())


def _h_limit(args):
    from . import calculus
    rep = calculus.limit(args.f, args.at, args.mode, tol=args.tol)
    return Reply(rep.estimate, rep._asdict())


def _h_sup(args):
    from . import suprema
    pset = suprema.PredicateSet(args.member, args.seed_point, args.bound)
    res = suprema.bisect_supremum(pset, args.tol)
    if not args.witnesses:
        return Reply(res.value, {"iterations": res.iterations})
    wit = suprema.sup_witnesses(res, args.witnesses)
    return Reply(res.value, {"iterations": res.iterations, "witnesses": wit},
                 lines=["witnesses: " + _fmt(wit)])


def _h_cut(args):
    from . import suprema
    c = suprema.Cut(args.below, args.in_point, args.out_point)
    return suprema.cut_point(c, args.tol)


def _h_root(args):
    from . import suprema
    res = suprema.bisect_root(args.f, args.a, args.b, args.k, args.tol)
    return Reply(res.root, {"iterations": res.iterations, "bracket": res.bracket,
                            "residual": res.residual})


def _h_extremum(args):
    from . import calculus
    c, fc = calculus.extreme_point(args.f, args.a, args.b, args.tol)
    return {"argmax": c, "max": fc}


def _h_witness(args):  # rolle, mvt and emvt
    from . import calculus
    if args.command == "emvt":
        return calculus.emvt_witness(args.f, args.g, args.a, args.b, args.tol)
    witness = calculus.rolle_witness if args.command == "rolle" else calculus.mvt_witness
    return witness(args.f, args.a, args.b, args.tol)


def _h_taylor(args):
    from . import calculus
    rep = calculus.taylor(args.f, args.at, args.n, args.x, args.tol)
    witness = "none" if rep.witness is None else rep.witness
    shown = {"value": rep.value, "rho": rep.rho, "witness": witness, "remainder": rep.remainder}
    return Reply(rep.value, rep._asdict(), shown=shown)


def _h_polycheck(args):
    from . import calculus
    ok = calculus.polynomial_check(args.f, args.a, args.b, args.n, args.tol)
    return Reply(ok, label=f"polynomial of degree <= {args.n}")


def _h_shape(args):
    from . import calculus
    ok, ce = calculus.shape_checks(args.f, args.a, args.b, args.kind, args.tol)
    lines = ["counterexample: " + _fmt(ce)] if ce else ()
    return Reply(ok, {"counterexample": ce or None}, label=args.kind, lines=lines)


def _cover(text: str):
    """The cover that text holds."""
    from . import cover
    return cover.OpenCover.from_json(_json_arg(text, _COVER))


def _h_cover_verify(args):
    from . import cover
    c = _cover(args.cover)
    ok, witness = cover.verify_cover(c)
    if not ok:
        return Reply(ok, {"witness": witness}, label="covers",
                     lines=["uncovered point: " + _fmt(witness)])
    return Reply(ok, {"witness": witness, "length_inequality": cover.length_inequality(c)},
                 label="covers")


def _h_subcover(args):
    from . import cover
    return Reply(cover.finite_subcover(_cover(args.cover)), label="indices")


def _h_lebesgue(args):
    from . import cover
    delta = cover.lebesgue_number(_cover(args.cover), args.mode, args.sample)
    return Reply(delta, {"mode": args.mode})


def _h_modulus(args):
    from . import cover
    return cover.uniform_modulus(args.f, args.a, args.b, args.eps, args.grid)


def _h_stepapprox(args):
    from . import cover
    phi = cover.step_approximation(args.f, args.a, args.b, args.eps, args.delta, args.grid)
    err = cover.sup_error(args.f, phi)
    result = {"partition": phi.partition.to_json(), "values": list(phi.cell_values),
              "sup_error_bound": err}
    return Reply(result, shown={"cells": phi.partition.cell_count, "sup_error_bound": err})


def _step_from_args(ptext: str, vtext: str) -> stepfn.StepFunction:
    from . import interval, stepfn
    return stepfn.StepFunction(interval.Partition(_json_arg(ptext, _FLOATS)),
                               _json_arg(vtext, _FLOATS))


def _h_stepint(args):
    from . import interval, stepfn
    phi = _step_from_args(args.partition, args.values)
    if args.split_at is not None:
        left, right = stepfn.step_split(phi, args.split_at)
        return {"left": stepfn.step_integral(left), "right": stepfn.step_integral(right)}
    if args.reexpress is not None:
        omega = interval.Partition(_json_arg(args.reexpress, _FLOATS))
        phi = stepfn.step_reexpress(phi, omega)
    if args.combine is not None:
        psi = None
        if args.combine == "add":
            if args.other_partition is None or args.other_values is None:
                raise ParseError("--combine add needs --other-partition and --other-values", 0)
            psi = _step_from_args(args.other_partition, args.other_values)
        phi = stepfn.step_combine(phi, psi, op=args.combine, factor=args.factor)
    diag = {"partition": phi.partition.to_json(), "values": list(phi.cell_values)}
    return Reply(stepfn.step_integral(phi), diag)


def _h_darboux(args):
    from . import integrate
    lower, upper = integrate.darboux_bounds(args.f, args.a, args.b, args.n)
    return {"lower": lower, "upper": upper}


def _h_riemann(args):
    from . import integrate, interval
    part = interval.Partition(_json_arg(args.partition, _FLOATS))
    points = _json_arg(args.points, _FLOATS) if args.points else None
    choice = integrate.ChoiceFunction(args.choice, seed=args.seed, points=points)
    return integrate.riemann_sum(args.f, part, choice)


def _h_integrate(args):
    from . import integrate
    if args.check_additivity_at is not None:
        ok = integrate.integral_additivity_check(args.f, args.a, args.check_additivity_at,
                                                 args.b, args.tol)
        return Reply(ok, label="additivity")
    if args.bounds is not None:
        ok = integrate.bounds_check(args.f, args.a, args.b, *args.bounds, args.tol)
        return Reply(ok, label="bounds")
    cert = integrate.riemann_integral(args.f, args.a, args.b, args.tol)
    diag = cert.to_json() if args.certificate else {"converged": cert.converged,
                                                    "levels": len(cert.levels)}
    return Reply(cert.value, diag)


def _h_ftc2(args):
    from . import integrate
    return Reply(integrate.ftc2_check(args.F, args.a, args.b, args.tol), label="ftc2")


def _h_imvt(args):
    from . import integrate
    return integrate.imvt_witness(args.f, args.a, args.b, args.tol)


def _h_adt(args):
    from . import integrate
    integrate.adt_check(args.F, args.G, args.a, args.b, args.tol)  # raises unless true
    return Reply(True, label="adt")


def _h_graph(args):
    from . import graph
    g = graph.build()
    if args.gcmd == "scc":
        return Reply(graph.check_equivalence(g), {"nodes": len(g.nodes), "edges": len(g.edges)},
                     label="strongly connected")
    if args.gcmd == "dot":
        text = graph.export_dot(g)
        return Reply(text, shown=text.rstrip("\n"))
    chain = graph.path(g, args.src, args.dst)
    hops = [f"{e.src} -> {e.dst}" for e in chain]
    return Reply({"length": len(chain), "edges": hops}, shown={"length": len(chain)}, lines=hops)


def _h_affine(args):
    from . import expr, suprema
    return expr.to_text(suprema.affine_map(args.from_a, args.from_b, args.to_a, args.to_b))


def _h_pwl(args):
    from . import calculus
    fn = calculus.piecewise_linear(_json_arg(args.nodes, _FLOATS),
                                   _json_arg(args.values, _FLOATS))
    return fn(args.x)


def _h_seq(args):
    from . import interval, sequences
    if args.op == "monotone":
        return sequences.check_monotone(args.s, args.n)
    if args.op == "cauchy":
        rep = sequences.check_cauchy_window(args.s, args.eps, args.lo, args.hi)
        return Reply(rep.ok, {"pair": rep.pair, "gap": rep.gap}, label="cauchy",
                     shown=f"{_fmt(rep.ok)} worst pair {rep.pair} gap {_fmt(rep.gap)}")
    if args.op == "bound":
        return sequences.bound_prefix(args.s, args.n)
    if args.op == "bw":
        box = interval.Interval(args.box[0], args.box[1])
        sel, ivals = sequences.bw_extract(args.s, box, args.depth, args.budget)
        result = {"indices": sel.indices, "intervals": [iv.to_json() for iv in ivals]}
        return Reply(result, label="indices", shown=sel.indices)
    if args.op == "limit":
        if args.upper is None:
            raise ParseError("seq --op limit needs --upper", 0)
        return sequences.monotone_limit(args.s, args.upper, args.tol, args.max_iter)
    if args.op == "diverge":
        sel = sequences.divergence_witness(args.s, args.eps, args.count, args.budget)
        return Reply(sel.indices, label="indices")
    box = interval.Interval(args.box[0], args.box[1])  # cauchy-limit
    return sequences.cauchy_limit(args.s, box, args.tol, args.budget)


def _h_ival(args):
    from . import interval
    if args.op == "bisect":
        left, right = interval.bisect(interval.Interval(*_json_arg(args.interval, _PAIR)))
        return {"left": left.to_json(), "right": right.to_json()}
    if args.op == "partition":
        return interval.uniform_partition(args.a, args.b, args.n).to_json()
    if args.op == "refine":
        p = interval.Partition(_json_arg(args.p, _FLOATS))
        q = interval.Partition(_json_arg(args.q, _FLOATS))
        return interval.refine(p, q).to_json()
    return interval.shrink_to_point(args.lo_expr, args.hi_expr, args.tol, args.max_iter)  # shrink


# ---------------------------------------------------------------------------

# what float() reads as a negative number; argparse's own pattern has no
# exponent, inf or nan, so it took --a -2.5e-1 for a missing value
_NEGATIVE_NUMBER = re.compile(r"-(?:(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|inf(?:inity)?|nan)$",
                              re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors keep their message on the SystemExit,
    and which reads every negative number float() accepts as a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        try:
            super().error(message)
        except SystemExit as e:
            e.usage_error = message
            raise

    def _print_message(self, message, file=None):
        # the help goes to stdout through _write, whose failure exits 1
        if message and file in (None, sys.stdout):
            if not _write(message, end=""):
                sys.exit(1)
        else:
            super()._print_message(message, file)


def _asks_for_json(argv) -> bool:
    """Does argv select --output json?  Read by hand after argparse failed."""
    mode = None
    for flag, value in zip(argv, [*argv[1:], None]):
        if flag == "--output":
            mode = value
        elif flag.startswith("--output="):
            mode = flag.partition("=")[2]
    return mode == "json"


# ---------------------------------------------------------------------------
# the command table

REQ = object()  # the spec of a required flag


class Command(NamedTuple):
    """One subcommand: its handler, help line, the library operations it
    exposes ("module.function", space-separated) and its flags, in order.
    A flag's spec is its default (REQ: the flag is required), or a dict of
    add_argument keywords with a "default": a choice list (_one_of), or a
    help line that holds for this subcommand only."""

    handler: Callable
    help: str
    ops: str
    flags: dict
    tol: float = 1e-9  # the default of --tol


# add_argument keywords of each flag, on whichever subcommand takes it;
# a flag not listed takes a string
_FLAGS = {
    **dict.fromkeys("x at seed-point bound in-point out-point a b k eps delta split-at factor "
                    "check-additivity-at from-a from-b to-a to-b upper".split(), {"type": float}),
    **dict.fromkeys("order witnesses n sample lo hi depth budget count".split(), {"type": int}),
    "grid": {"type": int, "help": "initial window centres"},
    "box": {"type": float, "nargs": 2},
    "bounds": {"type": float, "nargs": 2, "metavar": ("LO", "HI")},
    "certificate": {"action": "store_true", "help": "add every round's cells and bracket "
                    "to the JSON diagnostics; text output is unchanged"},
    "member": {"help": "comparison predicate, e.g. 'x*x < 2'"},
    "cover": {"help": 'JSON {"target":[a,b],"pieces":[[lo,hi],...]}'},
    "partition": {"help": "JSON array of nodes"},
    "reexpress": {"help": "refined partition, JSON"},
    "points": {"help": "explicit choice points, JSON"},
    "s": {"help": "expression in n"},
}

_FAB = {"f": REQ, "a": REQ, "b": REQ}  # a function f on [a, b]


def _one_of(options: str, default=REQ) -> dict:
    return {"choices": tuple(options.split()), "default": default}


def _flag_kwargs(flag: str, spec) -> dict:
    kwargs = {**_FLAGS.get(flag, {}), **(spec if isinstance(spec, dict) else {"default": spec})}
    if kwargs["default"] is REQ:
        del kwargs["default"]
        kwargs["required"] = True
    return kwargs


COMMANDS: Dict[str, Command] = {
    "parse": Command(_h_parse, "parse an expression and print it back", "expr.parse",
                     {"text": REQ}),
    "eval": Command(_h_eval, "evaluate an expression at a point", "expr.evaluate",
                    {"f": REQ, "x": REQ}),
    "deriv": Command(
        _h_deriv, "symbolic derivative, or its value at a point (--tol defaults to 1e-6 "
        "with --at)", "expr.differentiate calculus.derivative",
        {"f": REQ, "order": 1, "at": {"default": None, "help": "point at which to evaluate the "
                                      "symbolic derivative; --tol bounds the limit taken "
                                      "where it is undefined about the point"}}, tol=1e-6),
    "limit": Command(_h_limit, "filter-base limit at a point", "calculus.limit",
                     {"f": REQ, "at": REQ, "mode": _one_of("left right two-sided", "two-sided")}),
    "sup": Command(_h_sup, "supremum of a predicate set by bisection",
                   "suprema.supremum suprema.sup_witnesses",
                   {"member": REQ, "seed-point": REQ, "bound": REQ, "witnesses": 0}),
    "cut": Command(_h_cut, "cut point of a downward-closed predicate", "suprema.cut_point",
                   {"below": REQ, "in-point": REQ, "out-point": REQ}),
    "root": Command(_h_root, "intermediate-value root by ITP bracketing", "suprema.ivt_root",
                    {**_FAB, "k": 0.0}),
    "extremum": Command(_h_extremum, "argmax by interval branch and bound, to --tol",
                        "calculus.extreme_point", _FAB),
    "rolle": Command(_h_witness, "rolle witness", "calculus.rolle_witness", _FAB),
    "mvt": Command(_h_witness, "mvt witness", "calculus.mvt_witness", _FAB),
    "emvt": Command(_h_witness, "Cauchy mean-value witness", "calculus.emvt_witness",
                    {"f": REQ, "g": REQ, "a": REQ, "b": REQ}),
    "taylor": Command(_h_taylor, "Taylor value, normalized error and witness", "calculus.taylor",
                      {"f": REQ, "n": REQ, "at": REQ, "x": REQ}),
    "polycheck": Command(_h_polycheck, "is f a polynomial of degree <= n",
                         "calculus.polynomial_check", {**_FAB, "n": REQ}),
    "shape": Command(_h_shape, "convex / increasing / constant check", "calculus.shape_checks",
                     {**_FAB, "kind": _one_of("convex increasing constant")}),
    "cover-verify": Command(_h_cover_verify, "exact cover check",
                            "cover.verify_cover cover.length_inequality", {"cover": REQ}),
    "subcover": Command(_h_subcover, "greedy finite subcover", "cover.finite_subcover",
                        {"cover": REQ}),
    "lebesgue": Command(_h_lebesgue, "Lebesgue number of a cover",
                        "cover.lebesgue_number",
                        {"cover": REQ, "mode": _one_of("exact paper", "exact"), "sample": 256}),
    "modulus": Command(_h_modulus, "uniform-continuity modulus", "cover.uniform_modulus",
                       {**_FAB, "eps": REQ, "grid": 256}),
    "stepapprox": Command(_h_stepapprox, "uniform step-function approximation",
                          "cover.step_approximation",
                          {**_FAB, "eps": REQ, "delta": None, "grid": 256}),
    "stepint": Command(
        _h_stepint, "step-function integral and algebra",
        "stepfn.step_integral stepfn.step_reexpress stepfn.step_combine stepfn.step_split",
        {"partition": REQ, "values": {"default": REQ, "help": "JSON array of cell values"},
         "reexpress": None, "split-at": None, "combine": _one_of("add scale negate", None),
         "other-partition": None, "other-values": None, "factor": None}),
    "darboux": Command(_h_darboux, "Darboux bounds from interval enclosures",
                       "integrate.darboux_bounds", {**_FAB, "n": REQ}),
    "riemann": Command(_h_riemann, "Riemann sum for a choice function", "integrate.riemann_sum",
                       {"f": REQ, "partition": REQ,
                        "choice": _one_of("left right midpoint random explicit", "midpoint"),
                        "points": None}),
    "integrate": Command(
        _h_integrate, "certified Riemann integral (--tol defaults to 1e-6)",
        "integrate.riemann_integral integrate.integral_additivity_check integrate.bounds_check "
        "integrate.antiderivative",
        {**_FAB, "certificate": False, "check-additivity-at": None, "bounds": None}, tol=1e-6),
    "ftc2": Command(_h_ftc2, "integral of F' equals F(b) - F(a) (--tol defaults to 1e-6)",
                    "integrate.ftc2_check", {"F": REQ, "a": REQ, "b": REQ}, tol=1e-6),
    "imvt": Command(_h_imvt, "integral mean-value witness (--tol defaults to 1e-6)",
                    "integrate.imvt_witness", _FAB, tol=1e-6),
    "adt": Command(_h_adt, "two antiderivatives differ by a constant", "integrate.adt_check",
                   {"F": REQ, "G": REQ, "a": REQ, "b": REQ}),
    "graph": Command(_h_graph, "implication graph queries",  # build_parser adds its commands
                     "graph.build graph.path graph.check_equivalence graph.export_dot", {}),
    "affine": Command(_h_affine, "affine map between intervals, as an expression",
                      "suprema.affine_map",
                      {"from-a": REQ, "from-b": REQ, "to-a": REQ, "to-b": REQ}),
    "pwl": Command(_h_pwl, "evaluate a piecewise-linear interpolant", "calculus.piecewise_linear",
                   {"nodes": REQ, "values": REQ, "x": REQ}),
    "seq": Command(
        _h_seq, "sequence diagnostics (expressions in n)",
        "sequences.check_monotone sequences.check_cauchy_window sequences.bound_prefix "
        "sequences.bw_extract sequences.monotone_limit sequences.divergence_witness "
        "sequences.cauchy_limit",
        {"op": _one_of("monotone cauchy bound bw limit diverge cauchy-limit"),
         "s": REQ, "n": 100, "eps": 1e-3, "lo": 1, "hi": 100, "box": (0.0, 1.0), "depth": 10,
         "budget": 10**4, "upper": None, "count": 5}),
    "ival": Command(
        _h_ival, "interval and partition helpers",
        "interval.bisect interval.uniform_partition interval.refine interval.shrink_to_point",
        {"op": _one_of("bisect partition refine shrink"),
         "interval": "[0,1]", "a": 0.0, "b": 1.0, "n": 1, "p": "[0,1]", "q": "[0,1]",
         "lo-expr": "0", "hi-expr": "1/n"}),
}

# library operation -> the subcommand that exposes it
OP_REGISTRY: Dict[str, str] = {op: name for name, command in COMMANDS.items()
                               for op in command.ops.split()}


# the flags every subcommand takes, each with one value
_GLOBAL_FLAGS = {
    "--tol": {"type": float,
              "help": "tolerance, passed to the library as given (1e-9; 1e-6 for integrate, "
                      "ftc2, imvt, deriv --at)"},
    "--seed": {"type": int, "help": "seed of riemann --choice random (0; FC_SEED overrides)"},
    "--output": {"choices": ("text", "json")},
    "--max-iter": {"type": int, "help": "iteration cap of seq --op limit and ival --op shrink "
                                        "(10^6)"},
}


def build_parser(names=COMMANDS) -> argparse.ArgumentParser:
    """The fc parser with the subcommands in names, all of them by default.
    A parser with fewer still names every subcommand in its usage line."""
    common = _Parser(add_help=False)
    for flag, kwargs in _GLOBAL_FLAGS.items():
        common.add_argument(flag, default=argparse.SUPPRESS, **kwargs)

    top = _Parser(prog="fc", parents=[common], description="constructive real-analysis toolkit")
    every = None if names is COMMANDS else "{" + ",".join(COMMANDS) + "}"
    subs = top.add_subparsers(dest="command", required=True, metavar=every)
    for name in names:
        p = subs.add_parser(name, parents=[common], help=COMMANDS[name].help)
        for flag, spec in COMMANDS[name].flags.items():
            p.add_argument("--" + flag, **_flag_kwargs(flag, spec))

    if "graph" in names:
        gsubs = subs.choices["graph"].add_subparsers(dest="gcmd", required=True)
        path = gsubs.add_parser("path", parents=[common])
        path.add_argument("src")
        path.add_argument("dst")
        gsubs.add_parser("scc", parents=[common])
        gsubs.add_parser("dot", parents=[common])
    return top


def _command_word(argv) -> Optional[str]:
    """The first token of argv that is neither a global flag nor its value;
    None where that token is another flag (--help, say) or there is none."""
    tokens = iter(argv)
    for token in tokens:
        flag, eq, _ = token.partition("=")
        if flag not in _GLOBAL_FLAGS:
            return None if token.startswith("-") else token
        if not eq:
            next(tokens, None)  # the flag's value
    return None


def _json(payload) -> str:
    import json
    try:
        return json.dumps(payload, sort_keys=True, allow_nan=False)
    except ValueError:
        raise MathError("result is not finite; JSON has no inf or nan") from None


def _json_error(message: str) -> str:
    return _json({"result": None, "diagnostics": {"error": message}})


def _write(text: str, end: str = "\n") -> bool:
    """Write text and end to stdout and flush it: fc's one write there.
    False where that fails; then stdout points at os.devnull, so that no
    later flush fails again, and stderr gets one error line, or none
    where the reader of stdout has gone (a closed pipe)."""
    try:
        sys.stdout.write(text + end)
        sys.stdout.flush()
        return True
    except OSError as e:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if not isinstance(e, BrokenPipeError):
            print(f"error: cannot write to stdout: {e.strerror or e}", file=sys.stderr)
        return False


def _fail(json_output: bool, kind: str, message: str, code: int) -> int:
    """Report an error as the JSON error object or one stderr line."""
    if json_output:
        return code if _write(_json_error(message)) else 1
    print(f"{kind}: {message}", file=sys.stderr)
    return code


# what each expression flag holds: a tree in x or in n, or a predicate in x
_EXPR_FLAGS = {**dict.fromkeys(("text", "f", "g", "F", "G"), "x"),
               **dict.fromkeys(("s", "lo-expr", "hi-expr"), "n"),
               "member": "predicate", "below": "predicate"}


def main(argv=None) -> int:
    if argv is None:
        # Run as a program: fcalc makes no BLAS call, so numpy's OpenBLAS
        # needs no worker threads.  Set before any handler imports numpy; a
        # value the user set wins, and main(argv) leaves a caller's alone.
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
        argv = sys.argv[1:]
    else:
        argv = list(argv)
    word = _command_word(argv)
    parser = build_parser((word,) if word in COMMANDS else COMMANDS)  # one subparser if it can
    try:
        args = parser.parse_args(argv)
        command = COMMANDS[args.command]
        args.tol = getattr(args, "tol", command.tol)
        if not 0 < args.tol < math.inf:
            parser.error("--tol must be positive and finite")
        seed = os.environ.get("FC_SEED")
        if seed is not None:  # read as argparse reads --seed
            try:
                args.seed = int(seed)
            except ValueError:
                parser.error(f"FC_SEED: invalid int value: {seed!r}")
    except SystemExit as e:
        # argparse has printed usage to stderr; JSON output still gets its object
        if hasattr(e, "usage_error") and _asks_for_json(argv):
            _write(_json_error(e.usage_error))
        raise
    args.seed = getattr(args, "seed", 0)
    args.max_iter = getattr(args, "max_iter", 10**6)  # the cap of seq --op limit and shrink
    json_output = getattr(args, "output", "text") == "json"
    try:
        for flag in command.flags:  # in flag order, before the handler runs
            holds = _EXPR_FLAGS.get(flag)
            if holds:
                from . import expr
                dest = flag.replace("-", "_")
                text = getattr(args, dest)
                setattr(args, dest, expr.parse_predicate(text) if holds == "predicate"
                        else expr.parse(text, holds))
        reply = command.handler(args)
        if not isinstance(reply, Reply):
            reply = Reply(reply)
        text = _output(reply, json_output)
    except ParseError as e:
        return _fail(json_output, "parse error", str(e), 2)
    except MathError as e:
        return _fail(json_output, "error", str(e), 1)
    code = 1 if reply.value is False else 0
    return code if _write(text) else 1


def run() -> None:
    """The fc program: main() on sys.argv, then the exit code.

    main has flushed stdout, so once stderr is flushed nothing is left to
    write, and the process ends with os._exit, which skips interpreter
    teardown: that would free every module and object (README,
    Start-up).  A failed flush of stderr, an exception and argparse's
    SystemExit take the normal exit, which reports them as before.
    """
    code = main()
    try:
        sys.stderr.flush()
    except (OSError, ValueError):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
