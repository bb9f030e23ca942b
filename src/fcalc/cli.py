"""Command-line frontend.

Every library operation is reachable through exactly one subcommand
(see OP_REGISTRY).  Exit codes: 0 success, 1 the mathematics said no
(bad bracket, divergence, a check that came back false), 2 bad usage or
unparseable input.  With --output json a single strict-JSON object with
"result" and "diagnostics" is emitted (a non-finite value there is an
exit-1 error object, and a usage error an exit-2 one); identical argv
and seed give byte-identical output.

Start-up pays only for the subcommand that runs: this module imports
the standard library and `errors` alone, so the parser, --help and
usage errors load no library module, and each handler imports its
modules when it runs.  `expr` imports numpy only for an array or
interval call and `suprema` never does, so parse, eval, deriv (without
--at), sup, cut, root, affine and graph run without it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from .errors import MathError, ParseError

# library operation -> owning subcommand
OP_REGISTRY: Dict[str, str] = {
    "expr.parse": "parse",
    "expr.eval": "eval",
    "expr.differentiate": "deriv",
    "interval.bisect": "ival",
    "interval.uniform_partition": "ival",
    "interval.refine": "ival",
    "interval.shrink_to_point": "ival",
    "sequences.check_monotone": "seq",
    "sequences.check_cauchy_window": "seq",
    "sequences.bound_prefix": "seq",
    "sequences.bw_extract": "seq",
    "sequences.monotone_limit": "seq",
    "sequences.divergence_witness": "seq",
    "sequences.cauchy_limit": "seq",
    "suprema.supremum": "sup",
    "suprema.sup_witnesses": "sup",
    "suprema.cut_point": "cut",
    "suprema.ivt_root": "root",
    "suprema.affine_map": "affine",
    "calculus.limit": "limit",
    "calculus.derivative": "deriv",
    "calculus.extreme_point": "extremum",
    "calculus.rolle_witness": "rolle",
    "calculus.mvt_witness": "mvt",
    "calculus.emvt_witness": "emvt",
    "calculus.taylor": "taylor",
    "calculus.polynomial_check": "polycheck",
    "calculus.shape_checks": "shape",
    "calculus.piecewise_linear": "pwl",
    "cover.verify_cover": "cover-verify",
    "cover.length_inequality": "cover-verify",
    "cover.finite_subcover": "subcover",
    "cover.lebesgue_number": "lebesgue",
    "cover.uniform_modulus": "modulus",
    "cover.step_approximation": "stepapprox",
    "stepfn.step_integral": "stepint",
    "stepfn.step_reexpress": "stepint",
    "stepfn.step_combine": "stepint",
    "stepfn.step_split": "stepint",
    "integrate.darboux_bounds": "darboux",
    "integrate.riemann_sum": "riemann",
    "integrate.riemann_integral": "integrate",
    "integrate.integral_additivity_check": "integrate",
    "integrate.bounds_check": "integrate",
    "integrate.antiderivative": "integrate",
    "integrate.ftc2_check": "ftc2",
    "integrate.imvt_witness": "imvt",
    "integrate.adt_check": "adt",
    "graph.build": "graph",
    "graph.path": "graph",
    "graph.check_equivalence": "graph",
    "graph.export_dot": "graph",
    "cli.dispatch": "fc",
}


@dataclass
class Config:
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
    if args.order != 1:
        value = expr.evaluate(expr.differentiate(f, args.order), args.at)
        return value, {"order": args.order}, 0, [_fmt(value)]
    from . import calculus  # numeric, and numpy-backed: only with --at at order 1
    rep = calculus.derivative(f, args.at, tol=max(getattr(args, "tol", 1e-6), 1e-10))
    diag = dataclasses.asdict(rep)
    return rep.estimate, diag, 0, [_fmt(rep.estimate)]


def _h_limit(args, cfg):
    from . import calculus, expr
    f = expr.parse(args.f)
    sched = calculus.LimitSchedule(mode=args.mode)
    rep = calculus.limit(f, args.at, sched, tol=max(cfg.tol, 1e-10))
    diag = dataclasses.asdict(rep)
    return rep.estimate, diag, 0, [_fmt(rep.estimate)]


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


def _h_rolle(args, cfg):
    from . import calculus, expr
    f = expr.parse(args.f)
    c = calculus.rolle_witness(f, args.a, args.b, max(cfg.tol, 1e-12))
    return c, {}, 0, [_fmt(c)]


def _h_mvt(args, cfg):
    from . import calculus, expr
    f = expr.parse(args.f)
    c = calculus.mvt_witness(f, args.a, args.b, max(cfg.tol, 1e-12))
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
    diag = dataclasses.asdict(rep)
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
    tol = getattr(args, "tol", 1e-6)
    if args.check_additivity_at is not None:
        ok = integrate.integral_additivity_check(f, args.a, args.check_additivity_at,
                                                 args.b, tol)
        return ok, {}, 0 if ok else 1, [f"additivity: {str(ok).lower()}"]
    if args.bounds is not None:
        ok = integrate.bounds_check(f, args.a, args.b, args.bounds[0], args.bounds[1], tol)
        return ok, {}, 0 if ok else 1, [f"bounds: {str(ok).lower()}"]
    cert = integrate.riemann_integral(f, args.a, args.b, tol)
    diag = cert.to_json() if args.certificate else {"converged": cert.converged,
                                                    "levels": len(cert.levels)}
    return cert.value, diag, 0, [_fmt(cert.value)]


def _h_ftc2(args, cfg):
    from . import expr, integrate
    F = expr.parse(args.F)
    tol = getattr(args, "tol", 1e-6)
    ok = integrate.ftc2_check(F, args.a, args.b, tol)
    return ok, {}, 0 if ok else 1, [f"ftc2: {str(ok).lower()}"]


def _h_imvt(args, cfg):
    from . import expr, integrate
    f = expr.parse(args.f)
    tol = getattr(args, "tol", 1e-6)
    xi = integrate.imvt_witness(f, args.a, args.b, tol)
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
    if args.op == "cauchy-limit":
        box = interval.Interval(args.box[0], args.box[1])
        value = sequences.cauchy_limit(s, box, max(cfg.tol, 1e-12), args.budget)
        return value, {}, 0, [_fmt(value)]
    raise ParseError(f"unknown sequence op {args.op!r}", 0)


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
        return interval.refine(p, q).to_json(), {}, 0, [_fmt(interval.refine(p, q).to_json())]
    if args.op == "shrink":
        lo_rule = expr.parse(args.lo_expr, var_name="n")
        hi_rule = expr.parse(args.hi_expr, var_name="n")
        seq = interval.NestedSequence(
            lambda k: interval.Interval(expr.evaluate(lo_rule, float(k)),
                                        expr.evaluate(hi_rule, float(k)))
        )
        value = interval.shrink_to_point(seq, max(cfg.tol, 1e-15), cfg.cap(10**6))
        return value, {}, 0, [_fmt(value)]
    raise ParseError(f"unknown interval op {args.op!r}", 0)


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


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--tol", type=float, default=argparse.SUPPRESS,
                        help="default tolerance (1e-9; 1e-6 for integrate, ftc2, imvt, deriv --at)")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="seed of riemann --choice random (0; FC_SEED overrides)")
    common.add_argument("--output", choices=("text", "json"), default=argparse.SUPPRESS)
    common.add_argument("--max-iter", type=int, default=argparse.SUPPRESS, dest="max_iter",
                        help="iteration cap of sup, cut, root (2099 halvings), seq --op "
                             "limit and ival --op shrink (10^6)")

    top = _Parser(prog="fc", parents=[common], description="constructive real-analysis toolkit")
    subs = top.add_subparsers(dest="command", required=True)

    def cmd(name, handler, **kwargs):
        p = subs.add_parser(name, parents=[common], **kwargs)
        p.set_defaults(handler=handler)
        return p

    p = cmd("parse", _h_parse, help="parse an expression and print it back")
    p.add_argument("--text", required=True)

    p = cmd("eval", _h_eval, help="evaluate an expression at a point")
    p.add_argument("--f", required=True)
    p.add_argument("--x", type=float, required=True)

    p = cmd("deriv", _h_deriv,
            help="symbolic or numeric derivative (--tol defaults to 1e-6 with --at)")
    p.add_argument("--f", required=True)
    p.add_argument("--order", type=int, default=1)
    p.add_argument("--at", type=float, default=None,
                   help="point for a numeric first derivative, a limit to within --tol")

    p = cmd("limit", _h_limit, help="filter-base limit at a point")
    p.add_argument("--f", required=True)
    p.add_argument("--at", type=float, required=True)
    p.add_argument("--mode", choices=("left", "right", "two-sided"), default="two-sided")

    p = cmd("sup", _h_sup, help="supremum of a predicate set by bisection")
    p.add_argument("--member", required=True, help="comparison predicate, e.g. 'x*x < 2'")
    p.add_argument("--seed-point", type=float, required=True, dest="seed_point")
    p.add_argument("--bound", type=float, required=True)
    p.add_argument("--witnesses", type=int, default=0)

    p = cmd("cut", _h_cut, help="cut point of a downward-closed predicate")
    p.add_argument("--below", required=True)
    p.add_argument("--in-point", type=float, required=True, dest="in_point")
    p.add_argument("--out-point", type=float, required=True, dest="out_point")

    p = cmd("root", _h_root, help="intermediate-value root by bisection")
    p.add_argument("--f", required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--k", type=float, default=0.0)

    p = cmd("extremum", _h_extremum, help="argmax by interval branch and bound, to --tol")
    p.add_argument("--f", required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)

    for name, handler in (("rolle", _h_rolle), ("mvt", _h_mvt)):
        p = cmd(name, handler, help=f"{name} witness")
        p.add_argument("--f", required=True)
        p.add_argument("--a", type=float, required=True)
        p.add_argument("--b", type=float, required=True)

    p = cmd("emvt", _h_emvt, help="Cauchy mean-value witness")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)

    p = cmd("taylor", _h_taylor, help="Taylor value, normalized error and witness")
    p.add_argument("--f", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--at", type=float, required=True)
    p.add_argument("--x", type=float, required=True)

    p = cmd("polycheck", _h_polycheck, help="is f a polynomial of degree <= n")
    p.add_argument("--f", required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--n", type=int, required=True)

    p = cmd("shape", _h_shape, help="convex / increasing / constant check")
    p.add_argument("--f", required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--kind", choices=("convex", "increasing", "constant"), required=True)

    p = cmd("cover-verify", _h_cover_verify, help="exact cover check")
    p.add_argument("--cover", required=True, help='JSON {"target":[a,b],"pieces":[[lo,hi],...]}')

    p = cmd("subcover", _h_subcover, help="greedy finite subcover")
    p.add_argument("--cover", required=True)

    p = cmd("lebesgue", _h_lebesgue, help="Lebesgue number of a verified cover")
    p.add_argument("--cover", required=True)
    p.add_argument("--mode", choices=("exact", "paper"), default="exact")
    p.add_argument("--sample", type=int, default=256)

    p = cmd("modulus", _h_modulus, help="uniform-continuity modulus")
    p.add_argument("--f", required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--grid", type=int, default=256, help="initial window centres")

    p = cmd("stepapprox", _h_stepapprox, help="uniform step-function approximation")
    p.add_argument("--f", required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--grid", type=int, default=256, help="initial window centres")

    p = cmd("stepint", _h_stepint, help="step-function integral and algebra")
    p.add_argument("--partition", required=True, help="JSON array of nodes")
    p.add_argument("--values", required=True, help="JSON array of cell values")
    p.add_argument("--reexpress", default=None, help="refined partition, JSON")
    p.add_argument("--split-at", type=float, default=None, dest="split_at")
    p.add_argument("--combine", choices=("add", "scale", "negate"), default=None)
    p.add_argument("--other-partition", default=None, dest="other_partition")
    p.add_argument("--other-values", default=None, dest="other_values")
    p.add_argument("--factor", type=float, default=None)

    p = cmd("darboux", _h_darboux, help="Darboux bounds from interval enclosures")
    p.add_argument("--f", required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--n", type=int, required=True)

    p = cmd("riemann", _h_riemann, help="Riemann sum for a choice function")
    p.add_argument("--f", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--choice", choices=("left", "right", "midpoint", "random", "explicit"),
                   default="midpoint")
    p.add_argument("--points", default=None, help="explicit choice points, JSON")

    p = cmd("integrate", _h_integrate, help="certified Riemann integral (--tol defaults to 1e-6)")
    p.add_argument("--f", required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--certificate", action="store_true")
    p.add_argument("--check-additivity-at", type=float, default=None,
                   dest="check_additivity_at")
    p.add_argument("--bounds", type=float, nargs=2, default=None, metavar=("LO", "HI"))

    p = cmd("ftc2", _h_ftc2, help="integral of F' equals F(b) - F(a) (--tol defaults to 1e-6)")
    p.add_argument("--F", required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)

    p = cmd("imvt", _h_imvt, help="integral mean-value witness (--tol defaults to 1e-6)")
    p.add_argument("--f", required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)

    p = cmd("adt", _h_adt, help="two antiderivatives differ by a constant")
    p.add_argument("--F", required=True)
    p.add_argument("--G", required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)

    p = cmd("graph", _h_graph, help="implication graph queries")
    gsubs = p.add_subparsers(dest="gcmd", required=True)
    gp = gsubs.add_parser("path")
    gp.add_argument("src")
    gp.add_argument("dst")
    gsubs.add_parser("scc")
    gsubs.add_parser("dot")

    p = cmd("affine", _h_affine, help="affine map between intervals, as an expression")
    p.add_argument("--from-a", type=float, required=True, dest="from_a")
    p.add_argument("--from-b", type=float, required=True, dest="from_b")
    p.add_argument("--to-a", type=float, required=True, dest="to_a")
    p.add_argument("--to-b", type=float, required=True, dest="to_b")

    p = cmd("pwl", _h_pwl, help="evaluate a piecewise-linear interpolant")
    p.add_argument("--nodes", required=True)
    p.add_argument("--values", required=True)
    p.add_argument("--x", type=float, required=True)

    p = cmd("seq", _h_seq, help="sequence diagnostics (expressions in n)")
    p.add_argument("--op", required=True,
                   choices=("monotone", "cauchy", "bound", "bw", "limit",
                            "diverge", "cauchy-limit"))
    p.add_argument("--s", required=True, help="expression in n")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--lo", type=int, default=1)
    p.add_argument("--hi", type=int, default=100)
    p.add_argument("--box", type=float, nargs=2, default=(0.0, 1.0))
    p.add_argument("--depth", type=int, default=10)
    p.add_argument("--budget", type=int, default=10**4)
    p.add_argument("--upper", type=float, default=None)
    p.add_argument("--count", type=int, default=5)

    p = cmd("ival", _h_ival, help="interval and partition helpers")
    p.add_argument("--op", required=True, choices=("bisect", "partition", "refine", "shrink"))
    p.add_argument("--interval", default="[0,1]")
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--p", default="[0,1]")
    p.add_argument("--q", default="[0,1]")
    p.add_argument("--lo-expr", default="0", dest="lo_expr")
    p.add_argument("--hi-expr", default="1/n", dest="hi_expr")

    return top


def _json(payload) -> str:
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
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not 0 < getattr(args, "tol", 1e-9) < math.inf:
            parser.error("--tol must be positive and finite")
    except SystemExit as e:
        # argparse has printed usage to stderr; JSON output still gets its object
        if hasattr(e, "usage_error") and _asks_for_json(argv):
            print(_json({"result": None, "diagnostics": {"error": e.usage_error}}))
        raise
    seed = getattr(args, "seed", 0)
    if "FC_SEED" in os.environ:
        seed = int(os.environ["FC_SEED"])
    cfg = Config(
        tol=getattr(args, "tol", 1e-9),
        seed=seed,
        output=getattr(args, "output", "text"),
        max_iter=getattr(args, "max_iter", None),
    )
    try:
        result, diagnostics, code, lines = args.handler(args, cfg)
        if cfg.output == "json":
            lines = [_json({"result": result, "diagnostics": diagnostics})]
    except ParseError as e:
        return _fail(cfg, "parse error", str(e), 2)
    except MathError as e:
        return _fail(cfg, "error", str(e), 1)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
