"""Built-in function entries, their reference oracles, and entries built
from expression text."""

import math
import random

import pytest

from indefsum import catalog
from indefsum.catalog import (
    CATALOG_NAMES,
    builtin,
    from_expression,
    reference_digamma,
    reference_lgamma,
    reference_psi2,
)
from indefsum.exprlang import ExprSyntaxError
from indefsum.numerics import NAMED_CONSTANTS
from indefsum.sigma import sigma

from _frozen import (
    DIGAMMA_5,
    EULER_GAMMA,
    GAMMA_PSI2G,
    LN_2,
    LN_2PI,
    LN_GLAISHER,
    LN_PI,
    PSI2_HALF,
    PSI2_ONE,
    SIGMA_LN,
    SIGMA_PSI2G,
    SIGMA_XLNX,
)


# ---------------------------------------------------------------------------
# lookup plumbing

def test_catalog_names_and_identity():
    assert CATALOG_NAMES == ("ln", "psi2g", "xlnx", "recip")
    for name in CATALOG_NAMES:
        assert builtin(name) is builtin(name)
    with pytest.raises(KeyError):
        builtin("gamma")


def test_catalog_public_names_are_pinned():
    # each entry is one row of one table; the named constants live in numerics alone
    public = sorted(
        name for name, obj in vars(catalog).items()
        if not name.startswith("_") and callable(obj)
        and getattr(obj, "__module__", None) == catalog.__name__
    )
    assert public == ["CatalogEntry", "builtin", "from_expression", "reference_digamma",
                      "reference_lgamma", "reference_psi2"]


def test_named_constants():
    # in the order `indefsum catalog` lists them
    assert list(NAMED_CONSTANTS.items()) == [
        ("euler_gamma", EULER_GAMMA), ("ln_glaisher", LN_GLAISHER), ("ln_2pi", LN_2PI),
        ("ln_pi", LN_PI), ("ln_2", LN_2)]


def test_entry_metadata(all_entries):
    want = {
        "ln": (1, "concave", 0.0, SIGMA_LN, SIGMA_LN),
        "psi2g": (2, "concave", 0.5 * LN_2PI, SIGMA_PSI2G, GAMMA_PSI2G),
        "xlnx": (2, "concave", 0.0, SIGMA_XLNX, GAMMA_PSI2G),
        "recip": (0, "concave", 0.0, EULER_GAMMA, EULER_GAMMA),
    }
    for entry in all_entries:
        p, shape, offset, sig, gam = want[entry.name]
        assert entry.g.p == p, entry.name
        assert entry.g.shape == shape, entry.name
        assert entry.offset == offset, entry.name
        assert entry.sigma_closed == pytest.approx(sig, abs=1e-15), entry.name
        assert entry.gamma_closed == pytest.approx(gam, abs=1e-15), entry.name


# ---------------------------------------------------------------------------
# reference oracles

def test_reference_lgamma_matches_stdlib():
    for k in range(1, 500):
        x = 0.1 * k
        assert reference_lgamma(x) == pytest.approx(
            math.lgamma(x), rel=1e-12, abs=1e-12), x
    assert reference_lgamma(1e6) == pytest.approx(math.lgamma(1e6), rel=1e-12)


def test_reference_digamma_values():
    assert reference_digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-10)
    assert reference_digamma(5.0) == pytest.approx(DIGAMMA_5, abs=1e-10)
    # derivative consistency with the log-gamma oracle
    for x in (0.7, 3.3, 12.0):
        h = 1e-5
        central = (reference_lgamma(x + h) - reference_lgamma(x - h)) / (2.0 * h)
        assert reference_digamma(x) == pytest.approx(central, rel=1e-6, abs=1e-8)


def test_reference_psi2_values_and_recurrence(psi2_entry):
    assert reference_psi2(1.0) == pytest.approx(PSI2_ONE, abs=1e-12)
    assert reference_psi2(0.5) == pytest.approx(PSI2_HALF, abs=1e-10)
    for x in (0.3, 1.0, 4.2, 17.0):
        step = reference_psi2(x + 1.0) - reference_psi2(x)
        assert step == pytest.approx(psi2_entry.g.eval(x), abs=1e-9), x


def test_entries_reproduce_their_references(all_entries):
    for entry in all_entries:
        if entry.reference is None:
            continue
        for x in (0.5, 2.5, 7.0):
            got = sigma(entry.g, x).value + entry.offset
            assert got == pytest.approx(entry.reference(x), abs=1e-9), (entry.name, x)


# ---------------------------------------------------------------------------
# per-entry analytic metadata

def test_antiderivatives_differentiate_back(all_entries):
    h = 1e-6
    for entry in all_entries:
        anti = entry.g.antideriv
        if anti is None:
            continue
        assert anti(1.0) == pytest.approx(0.0, abs=1e-14), entry.name
        for x in (0.6, 3.2, 9.1):
            central = (anti(x + h) - anti(x - h)) / (2.0 * h)
            assert central == pytest.approx(entry.g.eval(x), rel=1e-7, abs=1e-8)


def test_jets_head_matches_eval(all_entries):
    for entry in all_entries:
        for x in (0.4, 1.0, 6.3):
            jet = entry.g.jet(x, 3)
            assert jet.coeffs[0] == pytest.approx(entry.g.eval(x), rel=1e-15, abs=1e-15)


def test_jet_derivatives_match_finite_differences(all_entries):
    x, h = 2.6, 1e-4
    for entry in all_entries:
        g = entry.g
        central = (g.eval(x + h) - g.eval(x - h)) / (2.0 * h)
        assert g.deriv(x, 1) == pytest.approx(central, rel=1e-6, abs=1e-8), entry.name
        second = (g.eval(x + h) - 2.0 * g.eval(x) + g.eval(x - h)) / (h * h)
        assert g.deriv(x, 2) == pytest.approx(second, rel=1e-5, abs=1e-5), entry.name


# ---------------------------------------------------------------------------
# expression-backed entries

def test_from_expression_autoclassifies_psi2_integrand(psi2_entry):
    entry = from_expression("x*ln(x) - x + ln(2*pi)/2", rng=random.Random(3))
    assert entry.g.p == 2
    assert entry.g.shape == "concave"
    assert entry.sigma_closed is None
    got = sigma(entry.g, 2.5).value
    want = sigma(psi2_entry.g, 2.5).value
    assert got == pytest.approx(want, abs=1e-8)


def test_from_expression_respects_overrides():
    entry = from_expression("ln(x)", p=1, shape="concave")
    assert entry.g.p == 1
    assert entry.g.shape == "concave"
    # no oracle attached
    assert entry.reference is None
    assert entry.offset == 0.0


def test_from_expression_default_name_is_source_text():
    assert from_expression("1/x", p=0, shape="concave").name == "1/x"


def test_from_expression_propagates_parse_errors():
    with pytest.raises(ExprSyntaxError):
        from_expression("ln(", p=1, shape="concave")


def test_from_expression_deterministic_classification():
    a = from_expression("ln(x)", rng=random.Random(11))
    b = from_expression("ln(x)", rng=random.Random(11))
    assert (a.g.p, a.g.shape) == (b.g.p, b.g.shape) == (1, "concave")
