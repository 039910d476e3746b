"""Command-line front end.

Subcommands: eval | constants | verify | expand | tabulate | catalog.
Exit codes: 0 ok, 2 input/parse error or out-of-range value (NaN and
inf included), 3 convergence failure (rows are still emitted), a result
that is not finite or an arithmetic fault, 4 identity violation or a
suite that checked nothing.  Output is CSV or JSON, floats rendered by
repr so identical inputs (and seed) give byte-identical bytes on any
platform.  JSON comes from the module's own emitter (_emit_json), whose
bytes and errors are those of json.dumps(indent=2, allow_nan=False); it
writes each list of scalars with one join, where json.dumps with an
indent runs the pure-Python encoder.  The argparse tree is built once per
process and reused by every run() call.  Each subparser names its handler
cmd_*(args, out) and its default format; one table, _SUITES, gives
each verify suite its runner, the grid flags it reads and whether it
needs --fn psi2g.  A runner holds its default grids and tolerances and
takes each report from an identities builder, which makes every
residual and refuses one that is not finite.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import random
import sys

from . import asymptotics, constants, identities
from .catalog import CATALOG_NAMES, CatalogEntry, builtin, from_expression
from .exprlang import ExprError
from .numerics import NAMED_CONSTANTS, QuadratureError
from .shape import ShapeError, dp_degree
from .sigma import GFunction, sigma

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONVERGENCE = 3
EXIT_VIOLATION = 4

# the most rows tabulate emits; a step too small for its range is bad input
_MAX_ROWS = 100_000


class CliInputError(ValueError):
    """Bad flags, unknown names, unparsable grids: exit code 2."""


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _finite(value: float, flag: str) -> float:
    if not math.isfinite(value):
        raise CliInputError(f"{flag} must be finite, got {value!r}")
    return value


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise CliInputError(f"{flag} expects comma-separated numbers, got {text!r}")
    if not values:
        raise CliInputError(f"{flag} must contain at least one number")
    return [_finite(v, flag) for v in values]


def _parse_ints(text: str, flag: str) -> list[int]:
    values = _parse_floats(text, flag)
    out = []
    for v in values:
        if v != int(v):
            raise CliInputError(f"{flag} expects integers, got {v!r}")
        out.append(int(v))
    return out


def _label(args) -> str:
    # the function a subcommand reports on: the catalog name or the expression text
    return args.fn if args.fn is not None else args.expr


def _resolve_entry(args) -> CatalogEntry:
    if args.fn is not None:
        if args.fn not in CATALOG_NAMES:
            raise CliInputError(
                f"unknown catalog function {args.fn!r}; choose from {', '.join(CATALOG_NAMES)}"
            )
        entry = builtin(args.fn)
        if args.p is not None or args.shape is not None:
            g = entry.g  # builtin entries are shared: override a copy, caches included
            entry = entry._replace(g=GFunction(
                g.eval, g.jet, g.antideriv, g.p if args.p is None else args.p,
                g.shape if args.shape is None else args.shape, g.name, g.sigma_constant,
                g.anchor_integrals))
    else:
        try:
            entry = from_expression(args.expr, p=args.p, shape=args.shape,
                                    rng=random.Random(args.seed))
        except ExprError as exc:
            raise CliInputError(f"expression error: {exc}")
        except ShapeError as exc:
            raise CliInputError(f"classification failed: {exc}")
    # below the decay degree Delta^p g does not vanish and no route means anything
    if args.p is not None and args.p < (degree := dp_degree(entry.g)):
        raise CliInputError(f"--p {args.p} is below the decay degree {degree} of g")
    return entry


def _emit_csv(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


_JSON_STR = json.encoder.encode_basestring_ascii


def _json_scalar(v) -> str:
    # a scalar as json.dumps writes it: same text, same errors; a container is a
    # TypeError here, which _json_value catches
    if isinstance(v, float):
        if math.isfinite(v):
            return float.__repr__(v)
        raise ValueError(f"Out of range float values are not JSON compliant: {v!r}")
    if isinstance(v, str):
        return _JSON_STR(v)
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def _json_value(v, indent: str) -> str:
    # indent is the newline and indentation of the line v starts on; str keys only
    if isinstance(v, dict):
        if not v:
            return "{}"
        inner = indent + "  "
        items = [_JSON_STR(k) + ": " + _json_value(x, inner) for k, x in v.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(v, (list, tuple)):
        if not v:
            return "[]"
        inner = indent + "  "
        try:  # all scalars, the common case: one join of their texts
            items = list(map(_json_scalar, v))
        except TypeError:  # a container (or no JSON type): item by item, in order
            items = [_json_value(x, inner) for x in v]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    return _json_scalar(v)


def _emit_json(payload: dict) -> str:
    # the bytes of json.dumps(payload, indent=2, allow_nan=False) + "\n"
    return _json_value(payload, "\n") + "\n"


def _emit_rows(args, command: str, header: list[str], rows: list[list], **fields) -> str:
    # CSV under header, or JSON objects keyed by the same header
    if args.fmt == "csv":
        return _emit_csv(header, rows)
    return _emit_json({"command": command, "function": _label(args), **fields,
                       "rows": [dict(zip(header, r)) for r in rows]})


def _sigma_point(g, x: float, tol: float):
    res = sigma(g, x, tol=tol)
    if not (math.isfinite(res.value) and math.isfinite(res.err_estimate)):
        raise OverflowError(f"Sigma g({x!r}) is not finite in double precision")
    return res


# ---------------------------------------------------------------------------
# eval

def cmd_eval(args, out) -> int:
    xs = _parse_floats(args.x, "--x")
    entry = _resolve_entry(args)
    if any(x <= 0.0 for x in xs):
        raise CliInputError("--x values must be positive")
    shift = entry.offset if args.offset == "named" else 0.0
    rows = []
    for x in xs:
        res = _sigma_point(entry.g, x, args.tol)
        rows.append([x, res.value + shift, res.err_estimate, res.strategy])
    out.write(_emit_rows(args, "eval", ["x", "sigma", "err_estimate", "strategy"], rows,
                         offset=args.offset))
    return EXIT_CONVERGENCE if any(r[2] > args.tol for r in rows) else EXIT_OK


# ---------------------------------------------------------------------------
# constants

def cmd_constants(args, out) -> int:
    entry = _resolve_entry(args)
    report = constants.constants_report(entry.g)
    payload = {
        "command": "constants",
        "function": _label(args),
        "p": report.p,
        "shape": entry.g.shape,
        "sigma": report.sigma,
        "gamma": report.gamma_gen,
        "err": report.err,
        "method": report.method,
    }
    if args.fmt == "csv":
        header = ["p", "shape", "sigma", "gamma", "err", "method"]
        out.write(_emit_csv(header, [[payload[h] for h in header]]))
    else:
        out.write(_emit_json(payload))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify

def _suite_raabe(entry, ms, xs):
    xs = xs or [0.5, 1.0, 2.0, 5.0, 10.0]
    sides = [identities.raabe_sides(entry.g, x) for x in xs]
    return [(identities.sides_report("raabe", xs, sides), 1e-7)]


def _suite_mult(entry, ms, xs):
    ms = ms or [1, 2, 3, 5]
    xs = xs or [0.3, 1.0, 2.7, 8.0]
    points = [[m, x] for m in ms for x in xs]
    sides = [s for m in ms for s in identities.mult_sides(entry.g, m, xs)]
    reports = [(identities.sides_report("mult", points, sides), 1e-7)]
    finite = [m for m in ms if m >= 2]
    if entry.name == "psi2g" and finite:
        sides = [identities.mult_finite_sum_psi2(m) for m in finite]
        reports.append((identities.sides_report("mult-finite-sum", finite, sides), 1e-7))
    return reports


def _suite_wendel(entry, ms, xs):
    if entry.name != "ln":
        xs = xs or [16.0, 64.0, 256.0]
        rows = [([a], [abs(asymptotics.wendel_residual(entry.g, a, x)) for x in xs])
                for a in (0.25, 1.5, 3.0)]
        return [(identities.decay_report("wendel-decay", xs, rows), 1e-9)]
    xs = xs or [1.0, 10.0, 100.0]
    a_grid = [0.25, 0.5, 0.75]
    # (a - 1) ln(1 + a/x) <= Sigma ln(x + a) - Sigma ln(x) - a ln x <= 0
    points = [[a, x] for a in a_grid for x in xs]
    chains = []
    for a, x in points:
        w = sigma(entry.g, x + a).value - sigma(entry.g, x).value - a * math.log(x)
        chains.append([(a - 1.0) * math.log1p(a / x), w, 0.0])
    bracket = identities.chain_report("wendel-bracket", points, chains)
    tail = [sigma(entry.g, 1e4 + a).value - sigma(entry.g, 1e4).value - a * math.log(1e4)
            for a in a_grid]
    return [(bracket, 1e-9), (identities.make_report("wendel-tail", a_grid, tail), 1e-4)]


def _suite_stirling(entry, ms, xs):
    if entry.name == "psi2g":
        xs = xs or [25.0, 50.0, 100.0]
        # |remainder of the asymptotic expansion at x| <= 1.1/(720 x^2)
        chains = [[abs(asymptotics.expansion_remainder(entry.g, x)), 1.1 / (720.0 * x * x)]
                  for x in xs]
        return [(identities.chain_report("stirling-bound", xs, chains), 1e-9)]
    xs = xs or [10.0, 100.0, 1000.0]
    rows = [([], [abs(asymptotics.binet(entry.g, x)) for x in xs])]
    return [(identities.decay_report("stirling-decay", xs, rows), 1e-9)]


def _suite_webster(entry, ms, xs):
    ms = ms or [1, 2, 5]
    xs = xs or [0.7, 1.0, 2.0]
    points = [[m, x] for m in ms for x in xs]
    sides = [identities.webster_sides(m, x) for m, x in points]
    return [(identities.sides_report("webster", points, sides), 1e-7)]


def _suite_wallis(entry, ms, xs):
    first, second = identities.wallis_extrapolated()
    lim1 = NAMED_CONSTANTS["ln_2"] / 12.0 - 3.0 * NAMED_CONSTANTS["ln_glaisher"]
    lim2 = NAMED_CONSTANTS["ln_glaisher"] - NAMED_CONSTANTS["ln_2"] / 12.0
    return [(identities.sides_report("wallis", ["first", "second"],
                                     [(first, lim1), (second, lim2)]), 1e-9)]


def _suite_reflection(entry, ms, xs):
    xs = xs or [0.1, 0.25, 0.5, 0.75, 0.9]
    sides = [identities.reflection_sides_psi2(x) for x in xs]
    return [(identities.sides_report("reflection", xs, sides), 1e-7)]


def _suite_taylor(entry, ms, xs):
    xs = xs or [-0.5, -0.25, 0.25, 0.5]
    sides = [(identities.taylor_psi2(x), identities.psi2_value(1.0 + x)) for x in xs]
    return [(identities.sides_report("taylor", xs, sides), 1e-9)]


def _suite_euler_series(entry, ms, xs):
    sides = [(identities.euler_series_analogue(50), identities.euler_series_closed())]
    return [(identities.sides_report("euler-series", [50], sides), 1e-12)]


def _suite_inequalities(entry, ms, xs):
    inequalities = identities.inequality_chains_psi2([0.25 * i for i in range(1, 21)],
                                                     [0.25 * j for j in range(10)])
    # alpha(x) <= psi_-2(x) <= beta(x)
    grid = [0.1 * k for k in range(1, 51)] + [10.0, 20.0, 35.0, 50.0]
    bounds = [[alpha, identities.psi2_value(x), beta]
              for x, (alpha, beta) in zip(grid, map(identities.bounds_alpha_beta, grid))]
    sup = identities.alpha_beta_sup_gap()
    target = (3.0 * NAMED_CONSTANTS["ln_2"] - 1.0) / 18.0
    return [(inequalities, 1e-9),
            (identities.chain_report("alpha-beta-bounds", grid, bounds), 1e-9),
            (identities.sides_report("alpha-beta-sup-gap", ["sup"], [(sup, target)]), 1e-3)]


# suite name -> (runner(entry, ms, xs) returning (report, tol) pairs, the grid
# flags it reads (ms is --m, xs is --x), whether it needs --fn psi2g);
# "all" runs them in this order
_SUITES = {
    "raabe": (_suite_raabe, ("--x",), False),
    "mult": (_suite_mult, ("--m", "--x"), False),
    "wendel": (_suite_wendel, ("--x",), False),
    "stirling": (_suite_stirling, ("--x",), False),
    "webster": (_suite_webster, ("--m", "--x"), True),
    "wallis": (_suite_wallis, (), True),
    "reflection": (_suite_reflection, ("--x",), True),
    "taylor": (_suite_taylor, ("--x",), True),
    "euler-series": (_suite_euler_series, (), True),
    "inequalities": (_suite_inequalities, (), True),
}


def cmd_verify(args, out) -> int:
    ms = _parse_ints(args.m, "--m") if args.m is not None else None
    xs = _parse_floats(args.x, "--x") if args.x is not None else None
    entry = _resolve_entry(args)
    suite = args.suite
    if suite == "all":
        wanted = [s for s, (_, _, psi2_only) in _SUITES.items()
                  if entry.name == "psi2g" or not psi2_only]
    else:
        wanted = [suite]
        _, flags, psi2_only = _SUITES[suite]
        # a grid the named suite would ignore is bad input, not a silent pass
        for flag, grid in (("--m", ms), ("--x", xs)):
            if grid is not None and flag not in flags:
                raise CliInputError(f"suite {suite!r} does not read {flag}")
        if psi2_only and entry.name != "psi2g":
            raise CliInputError(f"suite {suite!r} requires --fn psi2g")
    collected = []
    for name in wanted:
        collected += _SUITES[name][0](entry, ms, xs)
    # a suite that checked nothing is not a pass
    all_pass = bool(collected) and all(rep.max_abs <= tol for rep, tol in collected)
    if args.fmt == "json":
        out.write(_emit_json({
            "command": "verify",
            "function": _label(args),
            "suite": suite,
            "pass": all_pass,
            "reports": [
                {
                    "identity": rep.identity,
                    "tol": tol,
                    "max_abs": rep.max_abs,
                    "pass": rep.max_abs <= tol,
                    "points": rep.points,
                    "residuals": rep.residuals,
                    "sides": rep.sides,
                }
                for rep, tol in collected
            ],
        }))
    else:
        rows = []
        for rep, tol in collected:
            for i, (pt, r) in enumerate(zip(rep.points, rep.residuals)):
                side = rep.sides[i] if rep.sides is not None else []
                rows.append([
                    rep.identity,
                    pt if isinstance(pt, str) else json.dumps(pt),
                    r,
                    ";".join(repr(float(v)) for v in side),
                    tol,
                    "pass" if abs(r) <= tol else "FAIL",
                ])
        out.write(_emit_csv(["identity", "point", "residual", "sides", "tol",
                             "status"], rows))
    return EXIT_OK if all_pass else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# expand

def cmd_expand(args, out) -> int:
    entry = _resolve_entry(args)
    if _finite(args.x, "--x") <= 0.0:
        raise CliInputError("--x must be positive")
    if not 0 <= args.q <= 8:
        raise CliInputError("--q must be in 0..8")
    if args.m < 1:
        raise CliInputError("--m must be >= 1")
    total, terms = asymptotics.asym_expansion(entry.g, args.x, args.q, args.m)
    main = total - math.fsum(t.value for t in terms)
    header = ["k", "coefficient", "value"]
    rows = [[t.k, t.coefficient, t.value] for t in terms]
    if args.fmt == "csv":
        out.write(_emit_csv(header, rows + [["main", None, main], ["total", None, total]]))
    else:
        out.write(_emit_json({
            "command": "expand",
            "function": _label(args),
            "x": args.x,
            "q": args.q,
            "m": args.m,
            "main": main,
            "terms": [dict(zip(header, r)) for r in rows],
            "total": total,
        }))
    return EXIT_OK


# ---------------------------------------------------------------------------
# tabulate

def cmd_tabulate(args, out) -> int:
    entry = _resolve_entry(args)
    if _finite(args.step, "--step") <= 0.0:
        raise CliInputError("--step must be positive")
    if _finite(args.start, "--from") <= 0.0:
        raise CliInputError("--from must be positive")
    limit = _finite(args.stop, "--to") + 1e-12 * max(1.0, abs(args.stop))
    xs = []
    while len(xs) <= _MAX_ROWS:
        x = args.start + len(xs) * args.step
        if x > limit:
            break
        xs.append(x)
    if len(xs) > _MAX_ROWS:
        raise CliInputError(f"--step {args.step!r} gives more than {_MAX_ROWS} rows")
    with_bounds = entry.name == "psi2g"
    worst_over_tol = False
    rows = []
    for x in xs:
        res = _sigma_point(entry.g, x, args.tol)
        if res.err_estimate > args.tol:
            worst_over_tol = True
        jval = asymptotics.binet(entry.g, x)
        if with_bounds:
            alpha, beta = identities.bounds_alpha_beta(x)
        else:
            alpha = beta = None
        rows.append([x, res.value, jval, alpha, beta])
    out.write(_emit_rows(args, "tabulate", ["x", "sigma", "binet", "alpha", "beta"], rows))
    return EXIT_CONVERGENCE if worst_over_tol else EXIT_OK


# ---------------------------------------------------------------------------
# catalog

def cmd_catalog(args, out) -> int:
    fields = ["name", "p", "shape", "offset", "sigma_closed", "gamma_closed"]
    entries = [[e.name, e.g.p, e.g.shape, e.offset, e.sigma_closed, e.gamma_closed]
               for e in map(builtin, CATALOG_NAMES)]
    if args.fmt == "csv":
        rows = [["entry", *r, None] for r in entries]
        rows += [["constant", name, None, None, None, None, None, value]
                 for name, value in NAMED_CONSTANTS.items()]
        out.write(_emit_csv(["kind", *fields, "value"], rows))
    else:
        out.write(_emit_json({"command": "catalog",
                              "entries": [dict(zip(fields, r)) for r in entries],
                              "constants": NAMED_CONSTANTS}))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built on first use and reused: parse_args reads the tree and never changes it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--fn", help="catalog function name")
    common.add_argument("--expr", help="expression-language source text")
    common.add_argument("--p", type=int, help="override difference order p")
    common.add_argument("--shape", choices=["convex", "concave"],
                        help="override certified shape")
    common.add_argument("--tol", type=float, default=1e-9,
                        help="target tolerance (default 1e-9)")
    common.add_argument("--format", choices=["csv", "json"], default=None,
                        dest="fmt",
                        help="output format (default: json for constants and "
                             "verify, csv otherwise)")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for sampled classification (default 0)")

    parser = argparse.ArgumentParser(
        prog="indefsum",
        description="Principal indefinite sums: evaluation, constants, and "
                    "identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", parents=[common],
                            help="evaluate Sigma g on a list of points")
    p_eval.set_defaults(handler=cmd_eval, default_fmt="csv")
    p_eval.add_argument("--x", required=True,
                        help="comma-separated evaluation points")
    p_eval.add_argument("--offset", choices=["none", "named"], default="none",
                        help="add the catalog offset so values land on the "
                             "named special function")

    sub.add_parser("constants", parents=[common],
                   help="compute sigma[g] and gamma[g]").set_defaults(
        handler=cmd_constants, default_fmt="json")

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run identity/inequality suites")
    p_verify.set_defaults(handler=cmd_verify, default_fmt="json")
    p_verify.add_argument("--suite", required=True, choices=list(_SUITES) + ["all"])
    for flag, what in (("--m", "multiplication orders"), ("--x", "grid override")):
        readers = ", ".join(s for s, (_, flags, _) in _SUITES.items() if flag in flags)
        p_verify.add_argument(flag, help=f"comma-separated {what} ({readers})")

    p_expand = sub.add_parser("expand", parents=[common],
                              help="Bernoulli asymptotic expansion terms")
    p_expand.set_defaults(handler=cmd_expand, default_fmt="csv")
    p_expand.add_argument("--x", type=float, required=True)
    p_expand.add_argument("--q", type=int, default=6)
    p_expand.add_argument("--m", type=int, default=1)

    p_tab = sub.add_parser("tabulate", parents=[common],
                           help="tabulate sigma/binet (and bounds) over a range")
    p_tab.set_defaults(handler=cmd_tabulate, default_fmt="csv")
    p_tab.add_argument("--from", dest="start", type=float, required=True)
    p_tab.add_argument("--to", dest="stop", type=float, required=True)
    p_tab.add_argument("--step", type=float, required=True)

    p_cat = sub.add_parser("catalog", help="list catalog entries and constants")
    p_cat.set_defaults(handler=cmd_catalog, default_fmt="csv")
    p_cat.add_argument("--format", choices=["csv", "json"], default=None,
                       dest="fmt")
    return parser


def run(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.fmt is None:
            args.fmt = args.default_fmt
        if args.command != "catalog":  # the one subcommand without --fn/--expr
            if (args.fn is None) == (args.expr is None):
                raise CliInputError("exactly one of --fn / --expr is required")
            if not (math.isfinite(args.tol) and args.tol >= 1e-12):
                raise CliInputError("--tol must be finite and >= 1e-12")
        return args.handler(args, out)
    except ValueError as exc:  # CliInputError, ExprError, ShapeError, out-of-range values
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (QuadratureError, ArithmeticError) as exc:  # OverflowError, ZeroDivisionError
        print(f"error: convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(main())
