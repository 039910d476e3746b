"""Expression parsing, evaluation, pretty-printing, and jet arithmetic."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indefsum.exprlang import (
    ArityError,
    Binary,
    Constant,
    ExprDomainError,
    ExprSyntaxError,
    Literal,
    Unary,
    UnknownIdentifierError,
    Variable,
    eval_jet,
    evaluate,
    parse,
)
from indefsum.numerics import NAMED_CONSTANTS

from _frozen import LN_2PI
from reference import pretty


PIN_SRC = "x*ln(x) - x + ln(2*pi)/2"


def _binary_count(e):
    if isinstance(e, Binary):
        return 1 + _binary_count(e.left) + _binary_count(e.right)
    if hasattr(e, "child"):
        return _binary_count(e.child)
    return 0


# ---------------------------------------------------------------------------
# parsing

def test_parse_operator_count():
    assert _binary_count(parse(PIN_SRC)) == 5


def test_parse_reports_error_offset():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("ln(x")
    assert exc.value.offset == 4


# 100 levels deep, the parser's limit, in each construct that nests
DEEPEST = {"parens": "(" * 100 + "x" + ")" * 100, "calls": "sqrt(" * 99 + "x" + ")" * 99,
           "chain": "+".join(["x"] * 100), "powers": "x" + "^1" * 99}


@pytest.mark.parametrize("src", ["ln(x, 2)", "2 +", "(x", "x 3",
                                 pytest.param("(" + DEEPEST["parens"] + ")", id="parens-101"),
                                 pytest.param("sqrt(" + DEEPEST["calls"] + ")", id="calls-101"),
                                 pytest.param(DEEPEST["chain"] + "+x", id="chain-101"),
                                 pytest.param(DEEPEST["powers"] + "^1", id="powers-101")])
def test_parse_rejects_malformed(src):
    with pytest.raises(ExprSyntaxError):
        parse(src)


@pytest.mark.parametrize("kind", DEEPEST)
def test_parse_and_walk_the_deepest_accepted_expressions(kind):
    # the walkers recurse once per level: at the limit they must not overflow the stack
    tree = parse(DEEPEST[kind])
    assert evaluate(tree, 2.0) == eval_jet(tree, 2.0, 2).coeffs[0]


def test_parse_rejects_unknown_identifiers():
    with pytest.raises(UnknownIdentifierError):
        parse("y + 1")
    with pytest.raises(UnknownIdentifierError):
        parse("foo(x)")


def test_function_requires_parenthesized_argument():
    with pytest.raises(ArityError):
        parse("ln x")


@pytest.mark.parametrize("src", ["2^x", "x^x", "x^(x+1)"])
def test_pow_exponent_must_be_constant(src):
    with pytest.raises(ExprSyntaxError):
        parse(src)


# ---------------------------------------------------------------------------
# evaluation

def test_evaluate_pinned_expression():
    tree = parse(PIN_SRC)
    assert evaluate(tree, 1.0) == pytest.approx(0.5 * LN_2PI - 1.0, abs=1e-15)
    assert evaluate(tree, 2.0) == pytest.approx(
        2.0 * math.log(2.0) - 2.0 + 0.5 * LN_2PI, abs=1e-14)


def test_evaluate_powers():
    assert evaluate(parse("x^2"), 3.0) == 9.0
    assert evaluate(parse("x^(1+1)"), 3.0) == 9.0
    assert evaluate(parse("x^0.5"), 4.0) == pytest.approx(2.0, abs=1e-15)
    assert evaluate(parse("(x+1)^3"), 2.0) == 27.0
    assert evaluate(parse("x^(-2)"), 2.0) == pytest.approx(0.25, abs=1e-16)


@pytest.mark.parametrize("src,x", [
    ("1/(x-1)", 1.0),
    ("ln(x-2)", 1.0),
    ("sqrt(-x)", 2.0),
    ("sin(x*x)", 1e200),
    ("cos(-x*x)", 1e200),
])
def test_evaluate_domain_errors(src, x):
    with pytest.raises(ExprDomainError):
        evaluate(parse(src), x)


def test_named_constants_match_catalog():
    # the same pinned doubles must be visible through both surfaces
    assert evaluate(parse("euler_gamma"), 1.0) == NAMED_CONSTANTS["euler_gamma"]
    assert evaluate(parse("ln_glaisher"), 1.0) == NAMED_CONSTANTS["ln_glaisher"]
    assert evaluate(parse("pi"), 1.0) == math.pi
    assert evaluate(parse("e"), 1.0) == math.e


# ---------------------------------------------------------------------------
# pretty printing

@pytest.mark.parametrize("src", [
    PIN_SRC,
    "x^2 + 1/x",
    "exp(-x)*sin(x)",
    "sqrt(x+1) - ln(x)/2",
    "-x + 3.5e-1",
    "ln(euler_gamma + x)*cos(2*x)",
    "(x+1)^3/(x-0.5)",
])
def test_pretty_parse_is_a_fixed_point(src):
    once = pretty(parse(src))
    twice = pretty(parse(once))
    assert once == twice
    # and printing preserves the value
    for x in (0.7, 1.3, 2.9):
        assert evaluate(parse(once), x) == pytest.approx(
            evaluate(parse(src), x), rel=1e-15, abs=1e-15)


# ---------------------------------------------------------------------------
# jets

def test_eval_jet_log():
    jet = eval_jet(parse("ln(x)"), 2.0, 2)
    assert jet.coeffs[0] == pytest.approx(math.log(2.0), abs=1e-16)
    assert jet.coeffs[1] == pytest.approx(0.5, abs=1e-16)
    assert jet.coeffs[2] == pytest.approx(-0.125, abs=1e-16)
    # derivative(k) rescales the Taylor coefficient by k!
    assert jet.derivative(2) == pytest.approx(-0.25, abs=1e-15)


def test_eval_jet_identity_and_pin():
    jet = eval_jet(parse("x"), 3.0, 1)
    assert jet.coeffs == (3.0, 1.0)
    jet = eval_jet(parse(PIN_SRC), 1.0, 1)
    assert jet.coeffs[0] == pytest.approx(0.5 * LN_2PI - 1.0, abs=1e-15)
    assert jet.coeffs[1] == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("src, x, r", [
    ("x^1.5", 1e300, 0),
    ("x^1.5", 1e300, 3),
    ("(x-2)^0.5", 1.0, 2),
])
def test_eval_jet_pow_domain_errors(src, x, r):
    with pytest.raises(ExprDomainError):
        eval_jet(parse(src), x, r)


def test_eval_jet_validation():
    with pytest.raises(ExprDomainError):
        eval_jet(parse("ln(x)"), 0.0, 2)
    with pytest.raises(ValueError):
        eval_jet(parse("x"), 1.0, 9)


def _central_derivative(tree, x0: float, k: int, h: float = 0.02) -> float:
    def stencil(hh: float) -> float:
        acc = 0.0
        for i in range(k + 1):
            acc += (-1.0) ** (k - i) * math.comb(k, i) * evaluate(tree, x0 + (i - k / 2.0) * hh)
        return acc / hh ** k
    v1, v2 = stencil(h), stencil(h / 2.0)
    return (4.0 * v2 - v1) / 3.0


@pytest.mark.parametrize("src", [
    "x^2*ln(x)",
    "exp(-x/4)*cos(x)",
    "sqrt(x)*sin(x)",
    "1/(1+x^2)",
])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_jet_matches_central_differences(src, k):
    tree = parse(src)
    x0 = 1.7
    want = _central_derivative(tree, x0, k)
    got = eval_jet(tree, x0, k).derivative(k)
    assert got == pytest.approx(want, rel=1e-6, abs=1e-6)


@given(x=st.floats(min_value=0.3, max_value=8.0))
@settings(max_examples=30, deadline=None)
def test_jet_constant_term_equals_evaluation(x):
    tree = parse(PIN_SRC)
    assert eval_jet(tree, x, 3).coeffs[0] == pytest.approx(
        evaluate(tree, x), rel=1e-15, abs=1e-15)


# trees of every operator but "^", whose integer powers the two walkers compute
# by different means
_TREES = st.recursive(
    st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(Literal),
              st.sampled_from(["pi", "e", "euler_gamma", "ln_glaisher"]).map(Constant),
              st.just(Variable())),
    lambda kids: st.one_of(
        st.builds(Unary, st.sampled_from(["neg", "ln", "exp", "sin", "cos", "sqrt"]), kids),
        st.builds(Binary, st.sampled_from(["add", "sub", "mul", "div"]), kids, kids)),
    max_leaves=12)


@given(tree=_TREES, x=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
@settings(max_examples=300, deadline=None)
def test_order_zero_jet_is_the_scalar_walk(tree, x):
    # one rule per op: the jet's constant term is the op's scalar form, domain
    # check included
    try:
        c0 = eval_jet(tree, x, 0).coeffs[0]
    except ExprDomainError:
        c0 = None
    try:
        value = evaluate(tree, x)
    except ExprDomainError:
        assert c0 is None
    else:
        # a jet stops at the first non-finite intermediate; the scalar walk
        # only checks its result, so 1/(x*inf) may still return 0.0
        assert c0 is None or c0 == value
