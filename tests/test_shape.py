"""Decay-degree detection and higher-order convexity certification."""

import math
import random

import pytest

from indefsum.shape import ShapeError, classify, decays_at, dp_degree, kp_check

from _frozen import psi2_integrand


RECIP = lambda x: 1.0 / x


# ---------------------------------------------------------------------------
# decay degree

def test_dp_degree_of_catalog_shapes():
    assert dp_degree(math.log) == 1
    assert dp_degree(psi2_integrand) == 2
    assert dp_degree(RECIP) == 0
    assert dp_degree(lambda x: x * math.log(x)) == 2


def test_dp_degree_polynomials():
    # Delta^2 of x^2 is the constant 2, Delta^3 vanishes identically
    assert dp_degree(lambda x: x * x) == 3
    assert dp_degree(lambda x: x) == 2


def test_dp_degree_gives_up_on_fast_growth():
    with pytest.raises(ShapeError):
        dp_degree(lambda x: x ** 7)


def test_membership_is_monotone_in_p(all_entries):
    for entry in all_entries:
        p = entry.g.p
        assert decays_at(entry.g.eval, p)
        assert decays_at(entry.g.eval, p + 1)


# ---------------------------------------------------------------------------
# shape certification

def test_kp_check_log_concave():
    assert kp_check(math.log, 1, (1.0, 65.0)) == "concave"


def test_kp_check_psi2_concave():
    assert kp_check(psi2_integrand, 2, (1.0, 65.0)) == "concave"


def test_kp_check_square_ties_to_convex():
    # order-3 divided differences of x^2 vanish; ties report convex
    assert kp_check(lambda x: x * x, 2, (1.0, 65.0)) == "convex"
    assert kp_check(lambda x: x * x, 1, (1.0, 65.0)) == "convex"


def test_kp_check_evaluates_g_once_per_node():
    calls = []

    def g(x):
        calls.append(x)
        return math.log(x)

    assert kp_check(g, 1, (1.0, 65.0)) == "concave"
    assert len(calls) == len(set(calls)) == 200 * 3  # 200 samples of 3 nodes


def test_kp_check_window_validation():
    with pytest.raises(ShapeError):
        kp_check(math.log, 1, (-1.0, 65.0))
    with pytest.raises(ShapeError):
        kp_check(math.log, 3, (1.0, 4.0))


def test_classify_catalog_functions():
    for g, p, shape in (
        (math.log, 1, "concave"),
        (psi2_integrand, 2, "concave"),
        (RECIP, 0, "concave"),  # order-0 shape is monotonicity; 1/x falls
    ):
        report = classify(g)
        assert report.p == p
        assert report.shape == shape
        assert report.minimal_p
        assert report.dp_margin >= 0.0
        assert report.window[0] >= 1.0
        assert report.window[1] > report.window[0]


def test_classify_deterministic_under_seeded_rng():
    r1 = classify(math.log, rng=random.Random(7))
    r2 = classify(math.log, rng=random.Random(7))
    assert r1 == r2
