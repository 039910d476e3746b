"""Command-line surface: payload shapes, schema conformance, exit codes."""

import argparse
import csv
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indefsum import cli

from _frozen import EULER_GAMMA, PSI2_HALF, SIGMA_LN


@pytest.fixture(scope="module")
def schema():
    path = resources.files("indefsum") / "schema" / "cli_output.schema.json"
    return json.loads(path.read_text())


def run_cli(*argv):
    out = io.StringIO()
    code = cli.run(list(argv), out=out)
    return code, out.getvalue()


def rows_of(text):
    return list(csv.DictReader(io.StringIO(text)))


# ---------------------------------------------------------------------------
# eval

def test_eval_csv_shape_and_values():
    code, text = run_cli("eval", "--fn", "ln", "--x", "1,7")
    assert code == 0
    rows = rows_of(text)
    assert [r["x"] for r in rows] == ["1.0", "7.0"]
    assert float(rows[0]["sigma"]) == pytest.approx(0.0, abs=1e-9)
    assert float(rows[1]["sigma"]) == pytest.approx(6.579251212010101, abs=1e-9)
    assert rows[0]["strategy"] == "gregory"
    assert float(rows[0]["err_estimate"]) >= 0.0


def test_eval_csv_deterministic():
    a = run_cli("eval", "--fn", "psi2g", "--x", "0.3,1.9,14")
    b = run_cli("eval", "--fn", "psi2g", "--x", "0.3,1.9,14")
    assert a == b


def test_eval_named_offset_lands_on_reference():
    code, text = run_cli("eval", "--fn", "psi2g", "--x", "0.5", "--offset", "named")
    assert code == 0
    assert float(rows_of(text)[0]["sigma"]) == pytest.approx(PSI2_HALF, abs=1e-8)


def test_eval_json_validates(schema):
    code, text = run_cli("eval", "--fn", "ln", "--x", "2", "--format", "json")
    assert code == 0
    payload = json.loads(text)
    jsonschema.validate(payload, schema)
    assert payload["command"] == "eval"


def test_eval_expression_route():
    code, text = run_cli("eval", "--expr", "x*ln(x) - x + ln(2*pi)/2",
                         "--p", "2", "--shape", "concave", "--x", "0.5")
    assert code == 0
    got = float(rows_of(text)[0]["sigma"])
    want, _ = run_cli("eval", "--fn", "psi2g", "--x", "0.5")
    assert got == pytest.approx(float(rows_of(_)[0]["sigma"]), abs=1e-8)


def test_eval_rejects_bad_inputs():
    assert run_cli("eval", "--fn", "ln", "--expr", "x", "--x", "1")[0] == 2
    assert run_cli("eval", "--x", "1")[0] == 2
    assert run_cli("eval", "--fn", "nope", "--x", "1")[0] == 2
    assert run_cli("eval", "--fn", "ln", "--x", "-3")[0] == 2
    assert run_cli("eval", "--fn", "ln", "--x", "abc")[0] == 2
    assert run_cli("eval", "--fn", "ln", "--x", "nan")[0] == 2
    assert run_cli("eval", "--fn", "ln", "--x", "1,inf")[0] == 2
    assert run_cli("eval", "--fn", "ln", "--x", "1", "--tol", "inf")[0] == 2
    # the value overflows double precision: a convergence failure, not inf
    assert run_cli("eval", "--fn", "ln", "--x", "1e308")[0] == 3
    assert run_cli("eval", "--fn", "ln", "--x", "1e308", "--format", "json")[0] == 3
    # an expression integrates up to x + N with no quadrature midpoint overflowing
    assert run_cli("eval", "--expr", "1/x + ln(x)", "--x", "1e308")[0] == 3
    # out-of-range overrides are bad input, not a traceback
    assert run_cli("eval", "--fn", "ln", "--p", "-1", "--x", "2")[0] == 2
    assert run_cli("tabulate", "--fn", "ln", "--from", "1", "--to", "2", "--step", "0.5",
                   "--p", "-3")[0] == 2
    assert run_cli("constants", "--fn", "ln", "--p", "100")[0] == 2
    # gamma[g] is defined only at the decay degree: 1 for ln, 2 for psi2g;
    # for ln, Delta^p at n = 4096 is pure roundoff from p = 5 on
    for p in ("0", "2", "6", "13", "30"):
        assert run_cli("constants", "--fn", "ln", "--p", p)[0] == 2, p
    assert run_cli("constants", "--fn", "psi2g", "--p", "1")[0] == 2
    assert run_cli("constants", "--fn", "psi2g", "--p", "2")[0] == 0
    # every subcommand rejects a p below the decay degree; a larger p still runs
    below = ("--fn", "psi2g", "--p", "1")
    assert run_cli("eval", *below, "--x", "2")[0] == 2
    assert run_cli("tabulate", *below, "--from", "10", "--to", "1000", "--step", "330")[0] == 2
    assert run_cli("expand", *below, "--x", "5")[0] == 2
    assert run_cli("verify", *below, "--suite", "stirling")[0] == 2
    assert run_cli("eval", "--fn", "ln", "--p", "3", "--x", "2")[0] == 0
    assert run_cli("tabulate", "--fn", "ln", "--p", "3", "--from", "1", "--to", "2",
                   "--step", "0.5")[0] == 0
    assert run_cli("verify", "--fn", "ln", "--p", "3", "--suite", "wendel")[0] == 0


@pytest.mark.parametrize("src", ["(" * 250 + "x" + ")" * 250, "+".join(["x"] * 1500)],
                         ids=["parens-250", "sum-1500"])
def test_eval_too_deep_expression_is_bad_input(src, capsys):
    # past the parser's depth limit, not a RecursionError from the parser or a walker
    assert run_cli("eval", "--expr", src, "--x", "2") == (2, "")
    assert capsys.readouterr().err.startswith("error: expression error: ")


def test_cold_eval_loads_no_dataclasses_or_fractions():
    # dataclasses (with inspect) and fractions (with decimal) were most of a cold
    # call's import time; the engine's records and coefficient tables need neither
    script = ("import sys; start = set(sys.modules); import indefsum.cli as cli; "
              "cli.run(['eval', '--fn', 'ln', '--x', '7']); "
              "print(sorted((set(sys.modules) - start) "
              "& {'dataclasses', 'inspect', 'fractions', 'decimal'}))")
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_eval_unreachable_tolerance_is_convergence_failure():
    code, text = run_cli("eval", "--fn", "ln", "--x", "0.5", "--tol", "1e-12")
    assert code == 3
    # rows are still emitted so the caller can inspect the shortfall
    assert len(rows_of(text)) == 1


# ---------------------------------------------------------------------------
# constants

def test_constants_json_validates(schema):
    code, text = run_cli("constants", "--fn", "ln")
    assert code == 0
    payload = json.loads(text)
    jsonschema.validate(payload, schema)
    assert payload["sigma"] == pytest.approx(SIGMA_LN, abs=1e-9)
    assert payload["gamma"] == pytest.approx(SIGMA_LN, abs=1e-9)
    assert payload["method"] == "gregory"


def test_constants_recip_is_euler_constant():
    _, text = run_cli("constants", "--fn", "recip")
    assert json.loads(text)["gamma"] == pytest.approx(EULER_GAMMA, abs=1e-8)


# ---------------------------------------------------------------------------
# verify

def test_verify_raabe_json(schema):
    code, text = run_cli("verify", "--fn", "ln", "--suite", "raabe")
    assert code == 0
    payload = json.loads(text)
    jsonschema.validate(payload, schema)
    assert payload["pass"] is True
    assert all(rep["pass"] for rep in payload["reports"])
    assert all(rep["max_abs"] <= rep["tol"] for rep in payload["reports"])


def test_verify_taylor_suite():
    code, text = run_cli("verify", "--fn", "psi2g", "--suite", "taylor")
    assert code == 0
    assert json.loads(text)["pass"] is True


def test_verify_stirling_csv():
    code, text = run_cli("verify", "--fn", "ln", "--suite", "stirling",
                         "--format", "csv")
    assert code == 0
    rows = rows_of(text)
    assert rows and all(r["status"] == "pass" for r in rows)
    assert {"identity", "point", "residual", "sides", "tol", "status"} <= set(rows[0])


def test_verify_mult_subgrid(schema):
    code, text = run_cli("verify", "--fn", "ln", "--suite", "mult",
                         "--m", "1,2", "--x", "1,2.7")
    assert code == 0
    jsonschema.validate(json.loads(text), schema)


def test_verify_every_suite_reports(monkeypatch):
    entry = cli._resolve_entry(argparse.Namespace(fn="psi2g", expr=None, p=None,
                                                  shape=None, seed=0))
    for name, (runner, _, _) in cli._SUITES.items():
        assert runner(entry, None, None), name
    # a suite that checks nothing is a failure, not a pass
    monkeypatch.setitem(cli._SUITES, "taylor", (lambda entry, ms, xs: [], ("--x",), True))
    code, text = run_cli("verify", "--fn", "psi2g", "--suite", "taylor")
    assert code == 4
    assert json.loads(text)["pass"] is False


def test_verify_psi2_only_suites_are_gated():
    code, _ = run_cli("verify", "--fn", "ln", "--suite", "wallis")
    assert code == 2
    code, _ = run_cli("verify", "--fn", "ln", "--suite", "reflection")
    assert code == 2
    # grid values outside a suite's domain are bad input, not a traceback
    for argv in (["--fn", "psi2g", "--suite", "mult", "--m", "0"],
                 ["--fn", "psi2g", "--suite", "webster", "--m", "0"],
                 ["--fn", "ln", "--suite", "raabe", "--x", "0"],
                 ["--fn", "ln", "--suite", "raabe", "--x", "-1"],
                 ["--fn", "ln", "--suite", "raabe", "--x", "1e308"],
                 ["--fn", "psi2g", "--suite", "reflection", "--x", "1.5"],
                 ["--fn", "psi2g", "--suite", "taylor", "--x", "0.9"],
                 ["--fn", "psi2g", "--suite", "stirling", "--x", "0"]):
        assert run_cli("verify", *argv)[0] == 2, argv
    # a residual of inf - inf is a result that is not finite, not bad input
    for argv in (["--fn", "psi2g", "--suite", "mult", "--m", "2", "--x", "1e300"],
                 ["--fn", "psi2g", "--suite", "webster", "--x", "1e300"]):
        assert run_cli("verify", *argv)[0] == 3, argv


_CHAIN_REPORTS = {"wendel-bracket", "stirling-bound", "inequality-chains",
                  "alpha-beta-bounds"}
_SIDELESS_REPORTS = {"wendel-tail", "wendel-decay", "stirling-decay"}


@pytest.mark.parametrize("fn", ["psi2g", "ln", "recip"])
def test_verify_residuals_follow_their_rule(fn):
    # a <= chain: its worst gap over max(1, |member|); a pair: lhs - rhs
    code, text = run_cli("verify", "--fn", fn, "--suite", "all")
    assert code == 0
    for rep in json.loads(text)["reports"]:
        name, sides = rep["identity"], rep["sides"]
        if name in _SIDELESS_REPORTS:
            assert sides is None, name
            continue
        if name in _CHAIN_REPORTS:
            want = [max([0.0, *(a - b for a, b in zip(s, s[1:]))])
                    / max([1.0, *map(abs, s)]) for s in sides]
        else:
            assert all(len(s) == 2 for s in sides), name
            want = [lhs - rhs for lhs, rhs in sides]
        assert rep["residuals"] == want, name


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_verify_non_finite_side_is_a_convergence_failure(fmt, capsys):
    # each residual max(0, |rem| - bound) of a NaN remainder reads 0.0, a pass
    code, text = run_cli("verify", "--fn", "psi2g", "--suite", "stirling",
                         "--x=1e200,1e201,1e202", "--format", fmt)
    assert (code, text) == (3, "")
    assert capsys.readouterr().err == \
        "error: convergence failure: stirling-bound: a side is not finite\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv, identity", [
    (["--fn", "psi2g", "--suite", "wendel"], "wendel-decay"),
    (["--fn", "xlnx", "--suite", "stirling"], "stirling-decay"),
])
def test_verify_non_finite_decay_magnitude_is_a_convergence_failure(argv, identity, fmt,
                                                                    capsys):
    # each residual max(0, |f(x')| - |f(x)|) of NaN magnitudes reads 0.0, a pass
    code, text = run_cli("verify", *argv, "--x=1e200,1e201", "--format", fmt)
    assert (code, text) == (3, "")
    assert capsys.readouterr().err == \
        f"error: convergence failure: {identity}: a magnitude is not finite\n"


@pytest.mark.parametrize("flag, grid", [("--m", "2,3"), ("--x", "0.25,0.5")])
@pytest.mark.parametrize("suite", list(cli._SUITES))
def test_verify_follows_the_suite_table(suite, flag, grid, capsys):
    _, flags, psi2_only = cli._SUITES[suite]
    code, text = run_cli("verify", "--fn", "psi2g", "--suite", suite, flag, grid)
    err = capsys.readouterr().err
    if flag in flags:
        assert (code, err) == (0, "")
        points = json.loads(text)["reports"][0]["points"]
        # --m leads an [m, x] point; x is the point itself or follows m or a
        got = {pt[0] for pt in points} if flag == "--m" else \
            {v for pt in points for v in ([pt] if isinstance(pt, float) else pt[1:])}
        assert got == {float(v) for v in grid.split(",")}
    else:
        # a grid the named suite would ignore is bad input, not a silent pass
        assert (code, text) == (2, "")
        assert err == f"error: suite {suite!r} does not read {flag}\n"
    code, text = run_cli("verify", "--fn", "ln", "--suite", suite)
    err = capsys.readouterr().err
    if psi2_only:
        assert (code, text, err) == (2, "", f"error: suite {suite!r} requires --fn psi2g\n")
    else:
        assert code == 0


def test_verify_grid_flag_a_named_suite_ignores_is_bad_input(capsys):
    # an empty grid is given too, not absent: it never falls back to a suite's default
    for suite, flag in (("wallis", "--x"), ("wallis", "--m"), ("raabe", "--x"),
                        ("mult", "--m")):
        code, text = run_cli("verify", "--fn", "psi2g", "--suite", suite, flag, "")
        err = capsys.readouterr().err
        assert (code, text) == (2, ""), (suite, flag)
        assert err.count("\n") == 1 and flag in err, err
    # "all" still hands the grid to the suites that read it
    code, text = run_cli("verify", "--fn", "ln", "--suite", "all", "--m", "2", "--x", "2,5")
    assert code == 0
    reports = {r["identity"]: r["points"] for r in json.loads(text)["reports"]}
    assert reports["raabe"] == [2.0, 5.0]
    assert reports["mult"] == [[2, 2.0], [2, 5.0]]


def test_verify_inequalities_evaluates_each_point_once(monkeypatch):
    # 1,406 sigma() calls at 104 distinct points before the per-call table
    from indefsum import asymptotics, identities, sigma as sigma_module
    calls = []

    def counted(g, x, tol=1e-10):
        calls.append((g.name, x))
        return sigma_module.sigma(g, x, tol)

    run_cli("verify", "--fn", "psi2g", "--suite", "inequalities")  # warm the constants
    monkeypatch.setattr(identities, "sigma", counted)
    monkeypatch.setattr(asymptotics, "sigma", counted)
    code, _ = run_cli("verify", "--fn", "psi2g", "--suite", "inequalities")
    assert code == 0
    assert len(calls) <= 134
    assert len(set(calls)) == 104


# ---------------------------------------------------------------------------
# the JSON emitter: json.dumps(indent=2, allow_nan=False) byte for byte

_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers() | st.sampled_from([-7, -(2 ** 70), 2 ** 64, 2 ** 64 + 1]),
    st.floats() | st.sampled_from([-0.0, 5e-324, 1e16, 1e308, 0.1]),
    st.text() | st.sampled_from(['"', "\\", "\x00\x1f\n\t\x7f", "ψ₋₂ é \u2028 \U0001d11e"]),
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=6) | st.lists(inner, max_size=6).map(tuple)
                   | st.dictionaries(st.text(), inner, max_size=6)),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(_JSON_VALUES)
def test_emit_json_equals_json_dumps(value):
    try:
        want = json.dumps(value, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:  # NaN or +-inf somewhere: the same error, same message
        with pytest.raises(ValueError) as got:
            cli._emit_json(value)
        assert str(got.value) == str(exc)
    else:
        assert cli._emit_json(value) == want


@pytest.mark.parametrize("value", [
    math.nan,
    [0.5, 1.5, math.inf],
    {"a": [1, "s", [2.0, -math.inf]]},
    ("x", {"k": (math.nan,)}),
    [[1.0], -math.inf, [math.inf]],
    [[math.inf], math.nan],
    [math.nan, [math.inf]],
])
def test_emit_json_rejects_non_finite_floats_as_json_does(value):
    # json names the first non-finite float in document order, with its repr
    with pytest.raises(ValueError) as want:
        json.dumps(value, indent=2, allow_nan=False)
    with pytest.raises(ValueError) as got:
        cli._emit_json(value)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("Out of range float values are not JSON compliant: ")


# ---------------------------------------------------------------------------
# the parser, built once per process

@pytest.mark.parametrize("argv, default", [
    (("eval", "--fn", "ln", "--x", "2"), "csv"),
    (("constants", "--fn", "ln"), "json"),
    (("verify", "--fn", "ln", "--suite", "raabe"), "json"),
    (("expand", "--fn", "ln", "--x", "10"), "csv"),
    (("tabulate", "--fn", "ln", "--from", "1", "--to", "2", "--step", "1"), "csv"),
    (("catalog",), "csv"),
])
def test_each_subcommand_defaults_to_its_documented_format(argv, default):
    code, text = run_cli(*argv)
    assert code == 0
    assert (code, text) == run_cli(*argv, "--format", default)
    assert text.startswith("{") == (default == "json")


def test_cli_battery_covers_every_subcommand_and_suite():
    spec = importlib.util.spec_from_file_location(
        "cli_battery", Path(__file__).resolve().parent.parent / "tools" / "cli_battery.py")
    battery = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(battery)
    calls = battery.calls()
    subcommands = cli._build_parser()._subparsers._group_actions[0].choices
    for name in subcommands:
        assert [name, "--help"] in calls, name
        assert any(argv[:1] == [name] and "--help" not in argv for argv in calls), name
    suites = {argv[argv.index("--suite") + 1] for argv in calls if "--suite" in argv}
    assert set(cli._SUITES) | {"all"} <= suites

def test_run_builds_the_parser_once(monkeypatch):
    run_cli("catalog")
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for argv in (["catalog"], ["eval", "--fn", "ln", "--x", "2"],
                 ["constants", "--fn", "recip"], ["verify", "--fn", "psi2g",
                                                  "--suite", "euler-series"]):
        assert run_cli(*argv)[0] == 0
    assert built == []
    assert cli._build_parser() is cli._build_parser()


def test_parser_reuse_after_a_rejected_call(capsys):
    good = ("verify", "--fn", "ln", "--suite", "stirling", "--format", "csv")
    first = run_cli(*good)
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "--fn", "ln", "--suite", "nosuch")
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert run_cli(*good) == first
    assert first[0] == 0


def test_reused_parser_help_equals_a_fresh_one():
    def helps(parser):
        subs = parser._subparsers._group_actions[0].choices
        return [parser.format_help()] + [subs[name].format_help() for name in subs]

    run_cli("catalog")
    assert helps(cli._build_parser()) == helps(cli._build_parser.__wrapped__())


# ---------------------------------------------------------------------------
# expand

def test_expand_csv_structure():
    code, text = run_cli("expand", "--fn", "psi2g", "--x", "10", "--q", "6")
    assert code == 0
    rows = rows_of(text)
    kinds = [r["k"] for r in rows]
    assert kinds[:6] == ["1", "2", "3", "4", "5", "6"]
    assert kinds[-2:] == ["main", "total"]
    total = float(rows[-1]["value"])
    main = float(rows[-2]["value"])
    terms = sum(float(r["value"]) for r in rows[:-2])
    assert total == pytest.approx(main + terms, abs=1e-12)


def test_expand_json_validates(schema):
    code, text = run_cli("expand", "--fn", "ln", "--x", "15", "--q", "4",
                         "--format", "json")
    assert code == 0
    jsonschema.validate(json.loads(text), schema)


def test_expand_validation():
    assert run_cli("expand", "--fn", "ln", "--x", "10", "--q", "9")[0] == 2
    assert run_cli("expand", "--fn", "ln", "--x", "-1")[0] == 2
    assert run_cli("expand", "--fn", "ln", "--x", "nan")[0] == 2
    assert run_cli("expand", "--fn", "ln", "--x", "10", "--m", "0")[0] == 2
    # x^k underflows to 0 in the jet of 1/x: an arithmetic failure, exit 3
    assert run_cli("expand", "--fn", "recip", "--x", "1e-300", "--q", "8")[0] == 3


# ---------------------------------------------------------------------------
# tabulate

def test_tabulate_psi2_carries_bounds():
    code, text = run_cli("tabulate", "--fn", "psi2g",
                         "--from", "0.5", "--to", "1.5", "--step", "0.5")
    assert code == 0
    rows = rows_of(text)
    assert [r["x"] for r in rows] == ["0.5", "1.0", "1.5"]
    for r in rows:
        alpha, beta = float(r["alpha"]), float(r["beta"])
        named = float(r["sigma"]) + 0.9189385332046728
        assert alpha <= named + 1e-9 <= beta + 2e-9
        float(r["binet"])  # parses


def test_tabulate_non_psi2_leaves_bounds_empty():
    code, text = run_cli("tabulate", "--fn", "ln",
                         "--from", "1", "--to", "2", "--step", "1")
    assert code == 0
    rows = rows_of(text)
    assert all(r["alpha"] == "" and r["beta"] == "" for r in rows)


def test_tabulate_empty_range_and_validation():
    code, text = run_cli("tabulate", "--fn", "ln",
                         "--from", "5", "--to", "4", "--step", "1")
    assert code == 0
    assert rows_of(text) == []
    assert run_cli("tabulate", "--fn", "ln", "--from", "1", "--to", "2",
                   "--step", "0")[0] == 2
    assert run_cli("tabulate", "--fn", "ln", "--from", "-1", "--to", "2",
                   "--step", "1")[0] == 2
    assert run_cli("tabulate", "--fn", "ln", "--from", "1", "--to", "nan",
                   "--step", "1")[0] == 2
    # a step that does not move x (1 + i * 1e-300 == 1) is bad input, not a
    # grid that grows until memory runs out; also when stop sits at 1 - 1e-12,
    # where the tolerated end of the grid is 1.0 itself
    for stop in ("2", "0.999999999999"):
        assert run_cli("tabulate", "--fn", "ln", "--from", "1", "--to", stop,
                       "--step", "1e-300")[0] == 2, stop


# ---------------------------------------------------------------------------
# catalog

def test_catalog_csv_lists_entries_and_constants():
    code, text = run_cli("catalog")
    assert code == 0
    rows = rows_of(text)
    entries = [r for r in rows if r["kind"] == "entry"]
    constants = [r for r in rows if r["kind"] == "constant"]
    assert [e["name"] for e in entries] == ["ln", "psi2g", "xlnx", "recip"]
    assert len(constants) == 5
    assert float(constants[0]["value"]) == EULER_GAMMA


def test_catalog_json_validates(schema):
    code, text = run_cli("catalog", "--format", "json")
    assert code == 0
    jsonschema.validate(json.loads(text), schema)
