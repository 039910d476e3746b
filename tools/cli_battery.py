"""Byte-identity battery for the indefsum command line.

Usage: python3 tools/cli_battery.py SRC_DIR

Imports the `indefsum` package found under SRC_DIR, runs every argv of
calls() through `cli.run` in this one process and prints one line per
call:

    sha256(exit, stdout, stderr)  exit  argv

Two source trees whose batteries print the same lines agree byte for byte
on every exit code, payload, error message and --help text the calls
reach.  The calls cover every subcommand in both formats on the four
catalog entries and both benchmark expressions, every verify suite and
`all`, grid and --p/--shape overrides, failing reports (exit 4), bad
input, --tol where it is read and where it is refused, every operator of
the expression language through evaluate and jets, each of its
evaluation-time failures and parse-error classes, argparse rejections,
every --help, and the argvs of perfbench's
verify_pass and cold_pass for seeds 1-3 (perfbench/workloads.py is
imported only to draw them).
Standard library only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FUNCTIONS = (("--fn", "ln"), ("--fn", "psi2g"), ("--fn", "xlnx"), ("--fn", "recip"),
             ("--expr", "1/x + ln(x)"), ("--expr", "x*ln(x) - x + ln(2*pi)/2"))
SUITES = ("raabe", "mult", "wendel", "stirling", "webster", "wallis", "reflection",
          "taylor", "euler-series", "inequalities")
SUBCOMMANDS = ("eval", "constants", "verify", "expand", "tabulate", "catalog")
# between them every operator of the expression language, every named constant,
# unary minus, and integer, negative and fractional exponents
EXPRESSIONS = ("ln(x)^2 + x^0.5", "sqrt(x) - exp(-x)", "x^(-2) + sin(1/x) - cos(1/x)/x^3",
               "(x+1)^3/x^3*e - euler_gamma + ln_glaisher/pi", "-x^(-1)",
               "x^(-1.5)*sqrt(x+2)", "\tx *\n2 +\u00a01/x")
# each evaluation-time failure of an expression, under eval and under expand
# (whose jets meet some of them first); --p and --shape skip the classification
# that would reject the expression first
EXPR_FAULTS = (("eval", "ln(x-0.5)", "0.25"), ("expand", "ln(x-0.5)", "0.25"),
               ("eval", "sqrt(x-0.5)", "0.25", "--p", "2", "--shape", "concave"),
               ("expand", "sqrt(x-0.5)", "0.25", "--p", "2", "--shape", "concave"),
               ("eval", "exp(1/(x-0.5))", "0.501"), ("expand", "exp(1/(x-0.5))", "0.25"),
               ("eval", "1/(x-0.5)", "0.5"), ("expand", "1/(x-0.5)", "0.5"),
               ("eval", "(x-0.5)^(-2)", "0.5"), ("expand", "(x-0.5)^(-2)", "0.25"),
               ("eval", "(x-0.5)^(-0.5)", "0.25"), ("expand", "(x-0.5)^(-0.5)", "0.25"),
               ("eval", "x^400", "2"), ("expand", "x^400", "2"),
               ("eval", "x*x", "1e300", "--p", "3", "--shape", "convex"), ("eval", "1e999", "2"),
               ("expand", "1/x", "1e-300", "--q", "8"))
# one source text per parse-error class and message
BAD_SOURCES = ("x $ 2", "x\u00b72", "ln(x", "x 3", "1.5.2", "2^x", "", "  ", "y + 1",
               "foo(x)", "x(2)", "pi(1)", "ln x", "ln")


def _workload_argvs() -> list[list[str]]:
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    argvs = []
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        argvs += [call.argv for call in workloads.verify_pass(rng)]
        argvs += [call.argv for call in workloads.cold_pass(rng)]
    return argvs


def calls() -> list[list[str]]:
    """Every argv the battery runs, in order."""
    out: list[list[str]] = []
    for fn in FUNCTIONS:
        for fmt in ((), ("--format", "csv"), ("--format", "json")):
            out += [["eval", *fn, "--x", "0.5,3,17.25", *fmt],
                    ["eval", *fn, "--x", "2", "--offset", "named", *fmt],
                    ["constants", *fn, *fmt],
                    ["expand", *fn, "--x", "12.5", *fmt],
                    ["expand", *fn, "--x", "7", "--q", "3", "--m", "2", *fmt],
                    ["tabulate", *fn, "--from", "0.5", "--to", "3", "--step", "0.75", *fmt]]
        for suite in SUITES + ("all",):
            out.append(["verify", *fn, "--suite", suite])
    for fmt in ("csv", "json"):
        for suite in SUITES + ("all",):
            out.append(["verify", "--fn", "psi2g", "--suite", suite, "--format", fmt])
        out.append(["verify", "--fn", "ln", "--suite", "all", "--format", fmt])
    out += [["catalog"], ["catalog", "--format", "csv"], ["catalog", "--format", "json"]]
    # grid overrides, and every (suite, flag) pair whether the suite reads it or not
    for suite in SUITES:
        out.append(["verify", "--fn", "psi2g", "--suite", suite, "--m", "2,3"])
        out.append(["verify", "--fn", "psi2g", "--suite", suite, "--x", "0.3,0.6"])
        out.append(["verify", "--fn", "ln", "--suite", suite, "--x", "30,60,240"])
        out.append(["verify", "--fn", "psi2g", "--suite", suite, "--x", ""])
    out += [["verify", "--fn", "ln", "--suite", "all", "--m", "2", "--x", "2,5"],
            ["verify", "--fn", "psi2g", "--suite", "all", "--m", "1,4", "--x", "0.4"],
            ["verify", "--fn", "ln", "--suite", "mult", "--m", "1,2", "--x", "1,2.7",
             "--format", "csv"],
            ["verify", "--fn", "psi2g", "--suite", "stirling", "--x", "25,50,100"],
            ["verify", "--fn", "psi2g", "--suite", "wendel", "--x=16,64,256"],
            ["verify", "--fn", "psi2g", "--suite", "taylor", "--x=-0.5,0.25"],
            ["verify", "--fn", "psi2g", "--suite", "mult", "--m", "2", "--x", "1e300"],
            ["verify", "--fn", "psi2g", "--suite", "webster", "--m", "0"],
            ["verify", "--fn", "psi2g", "--suite", "reflection", "--x", "1.5"],
            ["verify", "--fn", "ln", "--suite", "raabe", "--x", "1e308"],
            ["verify", "--fn", "ln", "--suite", "mult", "--m", "2.5"]]
    # --p / --shape overrides
    out += [["eval", "--fn", "ln", "--p", "2", "--x", "0.5,9"],
            ["eval", "--fn", "ln", "--p", "3", "--shape", "convex", "--x", "4"],
            ["eval", "--fn", "psi2g", "--shape", "convex", "--x", "4"],
            ["eval", "--expr", "x*ln(x) - x + ln(2*pi)/2", "--p", "2", "--shape", "concave",
             "--x", "0.5"],
            ["constants", "--fn", "psi2g", "--p", "3"],
            ["constants", "--fn", "ln", "--p", "2"],
            ["verify", "--fn", "ln", "--p", "2", "--suite", "wendel"],
            ["verify", "--fn", "ln", "--p", "3", "--suite", "all"],
            ["verify", "--fn", "psi2g", "--p", "1", "--suite", "stirling"],
            ["tabulate", "--fn", "ln", "--p", "3", "--from", "1", "--to", "2", "--step", "0.5"],
            ["expand", "--fn", "psi2g", "--p", "3", "--x", "9"]]
    # bad input (exit 2), convergence failures (exit 3)
    out += [["eval", "--fn", "ln", "--expr", "x", "--x", "1"],
            ["eval", "--x", "1"],
            ["eval", "--fn", "nope", "--x", "1"],
            ["eval", "--fn", "nope", "--x", "abc"],
            ["eval", "--expr", "x +* 2", "--x", "1"],
            ["eval", "--expr", "sin(x)", "--x", "1"],
            ["eval", "--fn", "ln", "--x", "-3"],
            ["eval", "--fn", "ln", "--x", "nan"],
            ["eval", "--fn", "ln", "--x", "1,inf"],
            ["eval", "--fn", "ln", "--x", ","],
            ["eval", "--fn", "ln", "--x", "1", "--tol", "inf"],
            ["eval", "--fn", "ln", "--x", "1", "--tol", "1e-13"],
            ["eval", "--fn", "ln", "--x", "0.5", "--tol", "1e-12"],
            ["eval", "--fn", "ln", "--x", "0.5", "--tol", "1e-12", "--format", "json"],
            ["eval", "--fn", "ln", "--x", "1e308"],
            ["eval", "--expr", "1/x + ln(x)", "--x", "1e308"],
            ["eval", "--fn", "psi2g", "--p", "1", "--x", "2"],
            ["constants", "--fn", "ln", "--p", "100"],
            ["constants", "--fn", "nope", "--tol", "nan"],
            ["verify", "--fn", "nope", "--suite", "raabe", "--x", "abc"],
            ["verify", "--expr", "x", "--fn", "ln", "--suite", "raabe", "--m", "abc"],
            ["verify", "--fn", "ln", "--suite", "wallis", "--x", "3"],
            ["verify", "--fn", "ln", "--suite", "raabe", "--m", "abc"],
            ["expand", "--fn", "ln", "--x", "10", "--q", "9"],
            ["expand", "--fn", "ln", "--x", "-1"],
            ["expand", "--fn", "ln", "--x", "nan"],
            ["expand", "--fn", "ln", "--x", "10", "--m", "0"],
            ["expand", "--fn", "recip", "--x", "1e-300", "--q", "8"],
            ["tabulate", "--fn", "ln", "--from", "5", "--to", "4", "--step", "1"],
            ["tabulate", "--fn", "ln", "--from", "1", "--to", "2", "--step", "0"],
            ["tabulate", "--fn", "ln", "--from", "-1", "--to", "2", "--step", "1"],
            ["tabulate", "--fn", "ln", "--from", "1", "--to", "nan", "--step", "1"],
            ["tabulate", "--fn", "ln", "--from", "1", "--to", "2", "--step", "1e-300"],
            ["tabulate", "--fn", "psi2g", "--from", "0.5", "--to", "1.5", "--step", "0.5",
             "--tol", "1e-12", "--format", "json"],
            ["verify", "--fn", "ln", "--suite", "raabe", "--x", "0"],
            ["verify", "--fn", "psi2g", "--suite", "stirling", "--x", "0"],
            # finite residuals, NaN sides
            ["verify", "--fn", "psi2g", "--suite", "stirling", "--x=1e200,1e201,1e202",
             "--format", "csv"],
            ["verify", "--fn", "psi2g", "--suite", "stirling", "--x=1e200,1e201,1e202",
             "--format", "json"]]
    # a decay report with NaN magnitudes
    for fmt in ("csv", "json"):
        out += [["verify", "--fn", "psi2g", "--suite", "wendel", "--x=1e200,1e201",
                 "--format", fmt],
                ["verify", "--fn", "xlnx", "--suite", "stirling", "--x=1e200,1e201",
                 "--format", fmt]]
    # failing reports (exit 4): FAIL rows and "pass": false; psi2g's mult residual
    # grows about 1.1e-11 per copy, so m = 1000 passes and m = 10000 fails
    for fmt in ("csv", "json"):
        out += [["verify", "--fn", "psi2g", "--suite", "mult", "--m", "1000", "--x", "1",
                 "--format", fmt],
                ["verify", "--fn", "psi2g", "--suite", "mult", "--m", "10000", "--x", "1",
                 "--format", fmt],
                ["verify", "--fn", "ln", "--suite", "stirling", "--x", "1000,10,1",
                 "--format", fmt],
                ["verify", "--fn", "recip", "--suite", "wendel", "--x", "256,64,16",
                 "--format", fmt]]
    # --tol belongs to eval and tabulate (whose binet column is built from the sigma
    # it prints at that tol); constants, verify and expand refuse it
    for fn in ("ln", "psi2g"):
        for fmt in ("csv", "json"):
            out.append(["tabulate", "--fn", fn, "--from", "0.5", "--to", "25.5", "--step",
                        "0.5", "--tol", "1e-12", "--format", fmt])
    out += [["constants", "--fn", "ln", "--tol", "1e-9"],
            ["verify", "--fn", "ln", "--suite", "raabe", "--tol", "1e-9"],
            ["expand", "--fn", "ln", "--x", "9", "--tol", "1e-9"]]
    # the expression language
    for src in EXPRESSIONS:
        out += [["eval", f"--expr={src}", "--x", "0.5,3,17.25"],
                ["eval", f"--expr={src}", "--x", "2", "--format", "json"],
                ["expand", f"--expr={src}", "--x", "12.5"],
                ["expand", f"--expr={src}", "--x", "7", "--q", "3", "--m", "2",
                 "--format", "json"],
                ["tabulate", f"--expr={src}", "--from", "0.5", "--to", "3", "--step", "0.75"]]
    for cmd, src, x, *flags in EXPR_FAULTS:
        flags = flags if "--p" in flags else ["--p", "1", "--shape", "convex", *flags]
        out.append([cmd, f"--expr={src}", "--x", x, *flags])
    out += [["eval", f"--expr={src}", "--x", "2"] for src in BAD_SOURCES]
    # argparse rejections (exit 2 through SystemExit)
    out += [[], ["nosuch"], ["verify", "--fn", "ln"],
            ["verify", "--fn", "ln", "--suite", "nosuch"],
            ["eval", "--fn", "ln"], ["eval", "--fn", "ln", "--x", "1", "--format", "xml"],
            ["eval", "--fn", "ln", "--x", "1", "--shape", "flat"],
            ["eval", "--fn", "ln", "--x", "1", "--p", "two"],
            ["expand", "--fn", "ln", "--x", "ten"], ["catalog", "--fn", "ln"],
            ["tabulate", "--fn", "ln", "--from", "1", "--to", "2"]]
    out += [["--help"]] + [[cmd, "--help"] for cmd in SUBCOMMANDS]
    return out + _workload_argvs()


def run_one(cli, argv: list[str]) -> tuple[object, str]:
    """(exit, sha256 of exit, stdout and stderr) of one call."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.run(list(argv), out=stdout)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback: recorded, not fatal to the battery
            code = f"raised {type(exc).__name__}: {exc}"
    blob = json.dumps([code, stdout.getvalue(), stderr.getvalue()])
    return code, hashlib.sha256(blob.encode()).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve()
    os.environ["COLUMNS"] = "80"  # argparse wraps --help to the terminal width
    sys.path.insert(0, str(src))
    from indefsum import cli
    if Path(cli.__file__).resolve().parent != src / "indefsum":
        print(f"indefsum imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    for call in calls():
        code, digest = run_one(cli, call)
        print(f"{digest}  {code}  {json.dumps(call)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
