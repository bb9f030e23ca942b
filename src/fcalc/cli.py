"""Command-line frontend.

Every library operation is reachable through exactly one subcommand
(see COMMANDS).  Exit codes: 0 success, 1 the mathematics said no
(bad bracket, divergence, a check that came back false), 2 bad usage or
unparseable input.  With --output json a single strict-JSON object with
"result" and "diagnostics" is emitted (a non-finite value there is an
exit-1 error object, and a usage error an exit-2 one); identical argv
and seed give byte-identical output.

Start-up pays only for the subcommand that runs.  main builds the
parser with the one subparser that argv names (the whole table for
--help, no command, or a token before the command that is not a global
flag).  This module imports the standard library and `errors` alone,
and json only where it reads or writes JSON, so the parser, --help and
usage errors load no library module; each handler imports its modules
when it runs, and their value classes are plain classes and named
tuples, which cost little to define.  `expr` imports numpy only for an
array or interval call, and `suprema` and `stepfn`'s algebra never do,
so parse, eval, deriv (without --at), sup, cut, root, affine, graph,
stepint, seq --op limit and ival --op bisect run without it.  Run as a
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
from typing import Callable, Dict, NamedTuple, Optional

from .errors import MathError, ParseError


class Config(NamedTuple):
    tol: float = 1e-9
    seed: int = 0
    output: str = "text"
    max_iter: Optional[int] = None  # None: each operation's own cap

    def cap(self, default: int) -> int:
        return default if self.max_iter is None else self.max_iter


_COMPARATORS = (("<=", lambda u, v: u <= v), (">=", lambda u, v: u >= v),
                ("<", lambda u, v: u < v), (">", lambda u, v: u > v))


def parse_predicate(text: str) -> Callable[[float], bool]:
    """Comparison over the expression grammar, e.g. 'x*x < 2'."""
    from . import expr
    for sym, op in _COMPARATORS:
        pos = text.find(sym)
        if pos >= 0:
            lhs = expr.parse(text[:pos])
            rhs = expr.parse(text[pos + len(sym):])
            return lambda t: bool(op(expr.evaluate(lhs, t), expr.evaluate(rhs, t)))
    raise ParseError("predicate needs a comparison (<, <=, >, >=)", 0)


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
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return str(value)


# ---------------------------------------------------------------------------
# handlers: each returns (result, diagnostics, exit_code, text_lines)

def _h_parse(args, cfg):
    from . import expr
    text = expr.to_text(expr.parse(args.text))
    return text, {}, 0, [text]


def _h_eval(args, cfg):
    from . import expr
    value = expr.evaluate(expr.parse(args.f), args.x)
    return value, {}, 0, [_fmt(value)]


def _h_deriv(args, cfg):
    from . import expr
    f = expr.parse(args.f)
    if args.at is None:
        text = expr.to_text(expr.differentiate(f, args.order))
        return text, {}, 0, [text]
    from . import calculus  # numpy-backed: only with --at
    rep = calculus.derivative(f, args.at, args.order, tol=max(cfg.tol, 1e-10))
    return rep.estimate, rep._asdict(), 0, [_fmt(rep.estimate)]


def _h_limit(args, cfg):
    from . import calculus, expr
    rep = calculus.limit(expr.parse(args.f), args.at, args.mode, tol=max(cfg.tol, 1e-10))
    return rep.estimate, rep._asdict(), 0, [_fmt(rep.estimate)]


def _h_sup(args, cfg):
    from . import suprema
    pset = suprema.PredicateSet(parse_predicate(args.member), args.seed_point, args.bound)
    res = suprema.bisect_supremum(pset, cfg.tol, cfg.cap(suprema.MAX_HALVINGS))
    diag = {"iterations": res.iterations}
    lines = [_fmt(res.value)]
    if args.witnesses:
        wit = suprema.sup_witnesses(pset, res.value, args.witnesses)
        diag["witnesses"] = wit
        lines.append("witnesses: " + _fmt(wit))
    return res.value, diag, 0, lines


def _h_cut(args, cfg):
    from . import suprema
    c = suprema.Cut(parse_predicate(args.below), args.in_point, args.out_point)
    value = suprema.cut_point(c, cfg.tol, max_iter=cfg.cap(suprema.MAX_HALVINGS))
    return value, {}, 0, [_fmt(value)]


def _h_root(args, cfg):
    from . import expr, suprema
    f = expr.parse(args.f)
    res = suprema.ivt_root_result(f, args.a, args.b, args.k, cfg.tol,
                                  cfg.cap(suprema.MAX_HALVINGS))
    diag = {"iterations": res.iterations, "bracket": list(res.bracket),
            "residual": res.residual}
    return res.root, diag, 0, [_fmt(res.root)]


def _h_extremum(args, cfg):
    from . import calculus, expr
    f = expr.parse(args.f)
    c, fc = calculus.extreme_point(f, args.a, args.b, cfg.tol)
    return {"argmax": c, "max": fc}, {}, 0, [f"argmax {_fmt(c)} max {_fmt(fc)}"]


def _h_witness(args, cfg):  # rolle and mvt
    from . import calculus, expr
    witness = calculus.rolle_witness if args.command == "rolle" else calculus.mvt_witness
    c = witness(expr.parse(args.f), args.a, args.b, max(cfg.tol, 1e-12))
    return c, {}, 0, [_fmt(c)]


def _h_emvt(args, cfg):
    from . import calculus, expr
    f, g = expr.parse(args.f), expr.parse(args.g)
    c = calculus.emvt_witness(f, g, args.a, args.b, max(cfg.tol, 1e-12))
    return c, {}, 0, [_fmt(c)]


def _h_taylor(args, cfg):
    from . import calculus, expr
    f = expr.parse(args.f)
    rep = calculus.taylor(f, args.at, args.n, args.x, max(cfg.tol, 1e-12))
    diag = rep._asdict()
    lines = [f"value {_fmt(rep.value)} rho {_fmt(rep.rho)} witness "
             f"{_fmt(rep.witness) if rep.witness is not None else 'none'} "
             f"remainder {_fmt(rep.remainder)}"]
    return rep.value, diag, 0, lines


def _h_polycheck(args, cfg):
    from . import calculus, expr
    f = expr.parse(args.f)
    ok = calculus.polynomial_check(f, args.a, args.b, args.n, cfg.tol)
    return ok, {}, 0 if ok else 1, [f"polynomial of degree <= {args.n}: {str(ok).lower()}"]


def _h_shape(args, cfg):
    from . import calculus, expr
    f = expr.parse(args.f)
    ok, ce = calculus.shape_checks(f, args.a, args.b, args.kind, cfg.tol)
    diag = {"counterexample": list(ce) if ce else None}
    lines = [f"{args.kind}: {str(ok).lower()}"]
    if ce:
        lines.append("counterexample: " + _fmt(list(ce)))
    return ok, diag, 0 if ok else 1, lines


def _load_cover(text: str) -> cover.OpenCover:
    from . import cover
    return cover.OpenCover.from_json(_json_arg(text, _COVER))


def _h_cover_verify(args, cfg):
    from . import cover
    c = _load_cover(args.cover)
    ok, witness = cover.verify_cover(c)
    diag = {"witness": witness}
    lines = [f"covers: {str(ok).lower()}"]
    if ok:
        diag["length_inequality"] = cover.length_inequality(c)
    else:
        lines.append(f"uncovered point: {_fmt(witness)}")
    return ok, diag, 0 if ok else 1, lines


def _h_subcover(args, cfg):
    from . import cover
    c = _load_cover(args.cover)
    ok, witness = cover.verify_cover(c)
    if not ok:
        raise MathError(f"not a cover: {witness} is uncovered")
    idx = cover.finite_subcover(c)
    return idx, {}, 0, ["indices: " + _fmt(idx)]


def _h_lebesgue(args, cfg):
    from . import cover
    c = _load_cover(args.cover)
    ok, witness = cover.verify_cover(c)
    if not ok:
        raise MathError(f"not a cover: {witness} is uncovered")
    delta = cover.lebesgue_number(c, args.mode, args.sample)
    return delta, {"mode": args.mode}, 0, [_fmt(delta)]


def _h_modulus(args, cfg):
    from . import cover, expr
    f = expr.parse(args.f)
    delta = cover.uniform_modulus(f, args.a, args.b, args.eps, args.grid)
    return delta, {}, 0, [_fmt(delta)]


def _h_stepapprox(args, cfg):
    from . import cover, expr
    f = expr.parse(args.f)
    phi = cover.step_approximation(f, args.a, args.b, args.eps, delta=args.delta,
                                   grid=args.grid)
    err = cover.sup_error(f, phi)
    result = {"partition": phi.partition.to_json(), "values": list(phi.cell_values),
              "sup_error_bound": err}
    lines = [f"cells {phi.partition.cell_count} sup_error_bound {_fmt(err)}"]
    return result, {}, 0, lines


def _step_from_args(ptext: str, vtext: str) -> stepfn.StepFunction:
    from . import interval, stepfn
    return stepfn.StepFunction(interval.Partition(_json_arg(ptext, _FLOATS)),
                               _json_arg(vtext, _FLOATS))


def _h_stepint(args, cfg):
    from . import interval, stepfn
    phi = _step_from_args(args.partition, args.values)
    if args.split_at is not None:
        left, right = stepfn.step_split(phi, args.split_at)
        result = {"left": stepfn.step_integral(left), "right": stepfn.step_integral(right)}
        return result, {}, 0, [f"left {_fmt(result['left'])} right {_fmt(result['right'])}"]
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
    value = stepfn.step_integral(phi)
    diag = {"partition": phi.partition.to_json(), "values": list(phi.cell_values)}
    return value, diag, 0, [_fmt(value)]


def _h_darboux(args, cfg):
    from . import expr, integrate
    f = expr.parse(args.f)
    lower, upper = integrate.darboux_bounds(f, args.a, args.b, args.n)
    return {"lower": lower, "upper": upper}, {}, 0, [f"lower {_fmt(lower)} upper {_fmt(upper)}"]


def _h_riemann(args, cfg):
    from . import expr, integrate, interval
    f = expr.parse(args.f)
    part = interval.Partition(_json_arg(args.partition, _FLOATS))
    points = _json_arg(args.points, _FLOATS) if args.points else None
    choice = integrate.ChoiceFunction(args.choice, seed=cfg.seed, points=points)
    value = integrate.riemann_sum(f, part, choice)
    return value, {}, 0, [_fmt(value)]


def _h_integrate(args, cfg):
    from . import expr, integrate
    f = expr.parse(args.f)
    if args.check_additivity_at is not None:
        ok = integrate.integral_additivity_check(f, args.a, args.check_additivity_at,
                                                 args.b, cfg.tol)
        return ok, {}, 0 if ok else 1, [f"additivity: {str(ok).lower()}"]
    if args.bounds is not None:
        ok = integrate.bounds_check(f, args.a, args.b, args.bounds[0], args.bounds[1], cfg.tol)
        return ok, {}, 0 if ok else 1, [f"bounds: {str(ok).lower()}"]
    cert = integrate.riemann_integral(f, args.a, args.b, cfg.tol)
    diag = cert.to_json() if args.certificate else {"converged": cert.converged,
                                                    "levels": len(cert.levels)}
    return cert.value, diag, 0, [_fmt(cert.value)]


def _h_ftc2(args, cfg):
    from . import expr, integrate
    F = expr.parse(args.F)
    ok = integrate.ftc2_check(F, args.a, args.b, cfg.tol)
    return ok, {}, 0 if ok else 1, [f"ftc2: {str(ok).lower()}"]


def _h_imvt(args, cfg):
    from . import expr, integrate
    f = expr.parse(args.f)
    xi = integrate.imvt_witness(f, args.a, args.b, cfg.tol)
    return xi, {}, 0, [_fmt(xi)]


def _h_adt(args, cfg):
    from . import expr, integrate
    F, G = expr.parse(args.F), expr.parse(args.G)
    integrate.adt_check(F, G, args.a, args.b, max(cfg.tol, 1e-12))  # raises unless true
    return True, {}, 0, ["adt: true"]


def _h_graph(args, cfg):
    from . import graph
    g = graph.build()
    if args.gcmd == "scc":
        ok = graph.check_equivalence(g)
        return ok, {"nodes": len(g.nodes), "edges": len(g.edges)}, 0 if ok else 1, [
            f"strongly connected: {str(ok).lower()}"
        ]
    if args.gcmd == "dot":
        text = graph.export_dot(g)
        return text, {}, 0, [text.rstrip("\n")]
    chain = graph.path(g, args.src, args.dst)
    hops = [f"{e.src} -> {e.dst}" for e in chain]
    result = {"length": len(chain), "edges": hops}
    return result, {}, 0, [f"length {len(chain)}"] + hops


def _h_affine(args, cfg):
    from . import expr, suprema
    e = suprema.affine_map(args.from_a, args.from_b, args.to_a, args.to_b)
    text = expr.to_text(e)
    return text, {}, 0, [text]


def _h_pwl(args, cfg):
    from . import calculus
    fn = calculus.piecewise_linear(_json_arg(args.nodes, _FLOATS),
                                   _json_arg(args.values, _FLOATS))
    value = fn(args.x)
    return value, {}, 0, [_fmt(value)]


def _h_seq(args, cfg):
    from . import expr, interval, sequences
    rule_expr = expr.parse(args.s, var_name="n")
    s = sequences.Sequence(lambda k: expr.evaluate(rule_expr, float(k)))
    if args.op == "monotone":
        verdict = sequences.check_monotone(s, args.n)
        return verdict, {}, 0, [verdict]
    if args.op == "cauchy":
        rep = sequences.check_cauchy_window(s, args.eps, args.lo, args.hi)
        diag = {"pair": list(rep.pair), "gap": rep.gap}
        return rep.ok, diag, 0 if rep.ok else 1, [
            f"cauchy: {str(rep.ok).lower()} worst pair {rep.pair} gap {_fmt(rep.gap)}"
        ]
    if args.op == "bound":
        m = sequences.bound_prefix(s, args.n)
        return m, {}, 0, [_fmt(m)]
    if args.op == "bw":
        box = interval.Interval(args.box[0], args.box[1])
        sel, ivals = sequences.bw_extract(s, box, args.depth, args.budget)
        result = {"indices": list(sel.indices),
                  "intervals": [iv.to_json() for iv in ivals]}
        return result, {}, 0, ["indices: " + _fmt(list(sel.indices))]
    if args.op == "limit":
        if args.upper is None:
            raise ParseError("seq --op limit needs --upper", 0)
        value = sequences.monotone_limit(s, args.upper, max(cfg.tol, 1e-12), cfg.cap(10**6))
        return value, {}, 0, [_fmt(value)]
    if args.op == "diverge":
        sel = sequences.divergence_witness(s, args.eps, args.count, args.budget)
        return list(sel.indices), {}, 0, ["indices: " + _fmt(list(sel.indices))]
    box = interval.Interval(args.box[0], args.box[1])  # cauchy-limit
    value = sequences.cauchy_limit(s, box, max(cfg.tol, 1e-12), args.budget)
    return value, {}, 0, [_fmt(value)]


def _h_ival(args, cfg):
    from . import expr, interval
    if args.op == "bisect":
        iv = interval.Interval(*_json_arg(args.interval, _PAIR))
        left, right = interval.bisect(iv)
        result = {"left": left.to_json(), "right": right.to_json()}
        return result, {}, 0, [f"left {left.to_json()} right {right.to_json()}"]
    if args.op == "partition":
        part = interval.uniform_partition(args.a, args.b, args.n)
        return part.to_json(), {}, 0, [_fmt(part.to_json())]
    if args.op == "refine":
        p = interval.Partition(_json_arg(args.p, _FLOATS))
        q = interval.Partition(_json_arg(args.q, _FLOATS))
        nodes = interval.refine(p, q).to_json()
        return nodes, {}, 0, [_fmt(nodes)]
    lo_rule = expr.parse(args.lo_expr, var_name="n")  # shrink
    hi_rule = expr.parse(args.hi_expr, var_name="n")
    seq = interval.NestedSequence(
        lambda k: interval.Interval(expr.evaluate(lo_rule, float(k)),
                                    expr.evaluate(hi_rule, float(k)))
    )
    value = interval.shrink_to_point(seq, max(cfg.tol, 1e-15), cfg.cap(10**6))
    return value, {}, 0, [_fmt(value)]


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
    "certificate": {"action": "store_true"},
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
    "emvt": Command(_h_emvt, "Cauchy mean-value witness", "calculus.emvt_witness",
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
    "lebesgue": Command(_h_lebesgue, "Lebesgue number of a verified cover",
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
              "help": "default tolerance (1e-9; 1e-6 for integrate, ftc2, imvt, deriv --at)"},
    "--seed": {"type": int, "help": "seed of riemann --choice random (0; FC_SEED overrides)"},
    "--output": {"choices": ("text", "json")},
    "--max-iter": {"type": int, "help": "iteration cap of sup, cut, root (2099 cuts), seq "
                                        "--op limit and ival --op shrink (10^6)"},
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


def _fail(cfg: Config, kind: str, message: str, code: int) -> int:
    """Report an error as the JSON error object or one stderr line."""
    if cfg.output == "json":
        print(_json({"result": None, "diagnostics": {"error": message}}))
    else:
        print(f"{kind}: {message}", file=sys.stderr)
    return code


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
        tol = getattr(args, "tol", command.tol)
        if not 0 < tol < math.inf:
            parser.error("--tol must be positive and finite")
    except SystemExit as e:
        # argparse has printed usage to stderr; JSON output still gets its object
        if hasattr(e, "usage_error") and _asks_for_json(argv):
            print(_json({"result": None, "diagnostics": {"error": e.usage_error}}))
        raise
    cfg = Config(tol=tol, seed=int(os.environ.get("FC_SEED", getattr(args, "seed", 0))),
                 output=getattr(args, "output", "text"), max_iter=getattr(args, "max_iter", None))
    try:
        result, diagnostics, code, lines = command.handler(args, cfg)
        if cfg.output == "json":
            lines = [_json({"result": result, "diagnostics": diagnostics})]
    except ParseError as e:
        return _fail(cfg, "parse error", str(e), 2)
    except MathError as e:
        return _fail(cfg, "error", str(e), 1)
    for line in lines:
        print(line)
    return code


def run() -> None:
    """The fc program: main() on sys.argv, then the exit code.

    Once stdout and stderr are flushed nothing is left to write, so the
    process ends with os._exit and skips interpreter teardown, which
    would free every module and object (README, Start-up).  Where the
    reader of stdout has gone (a closed pipe), the exit code is 1, with
    stdout pointed at os.devnull so that the flush at interpreter exit
    cannot fail again.  A failed flush of stderr, an exception and
    argparse's SystemExit take the normal exit, which reports them as
    before.
    """
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    try:
        sys.stderr.flush()
    except (OSError, ValueError):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
