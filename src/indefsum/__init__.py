"""Numerical engine for principal indefinite sums.

Given g with an eventually monotone p-th difference and eventual
p-convexity or p-concavity, the principal indefinite sum is the unique
solution f of f(x+1) - f(x) = g(x), f(1) = 0 that is eventually
p-convex or p-concave.  This package evaluates it, its normalization
constants sigma[g] and gamma[g], its Binet-style remainders and
asymptotic expansions, and checks the classical identities
(multiplication, Raabe, Wendel, Gautschi, Stirling, reflection, ...)
by residual.
"""

from .asymptotics import ExpansionTerm, asym_expansion, binet, \
    expansion_remainder, liu_formula_psi2, rho, stirling_decay_profile, \
    wendel_residual
from .catalog import CATALOG_NAMES, CatalogEntry, builtin, from_expression, \
    named_constant
from .constants import ConstantsReport, asymptotic_constant, constants_report, \
    euler_constant_gen, fontana_partial, gamma_piecewise_interp, \
    sigma_integral_rep_psi2
from .exprlang import ExprDomainError, ExprError, ExprSyntaxError, Jet, \
    eval_jet, evaluate, parse, pretty
from .identities import ResidualReport, alpha_beta_sup_gap, bounds_alpha_beta, \
    characterization_limit_psi2, euler_series_analogue, euler_series_closed, \
    inequality_report_psi2, mult_finite_sum_psi2, mult_residual, mult_sides, \
    raabe_residual, raabe_sides, reflection_sides_psi2, taylor_psi2, \
    wallis_extrapolated, wallis_partial_psi2, webster_check, webster_sides
from .numerics import QuadratureError, QuadResult, bernoulli_number, \
    forward_diff, gen_binomial, gregory_coeff, integrate, integrate_singular, \
    richardson_extrapolate, zeta_int
from .shape import ShapeError, ShapeReport, classify, decays_at, dp_degree, \
    kp_check
from .sigma import GFunction, SigmaResult, sigma, \
    sigma_deriv, sigma_direct, sigma_eulerian, sigma_gregory

__version__ = "0.1.0"

__all__ = [
    "CATALOG_NAMES",
    "CatalogEntry",
    "ConstantsReport",
    "ExpansionTerm",
    "ExprDomainError",
    "ExprError",
    "ExprSyntaxError",
    "GFunction",
    "Jet",
    "QuadResult",
    "QuadratureError",
    "ResidualReport",
    "ShapeError",
    "ShapeReport",
    "SigmaResult",
    "alpha_beta_sup_gap",
    "asym_expansion",
    "asymptotic_constant",
    "bernoulli_number",
    "binet",
    "bounds_alpha_beta",
    "builtin",
    "characterization_limit_psi2",
    "classify",
    "constants_report",
    "decays_at",
    "dp_degree",
    "euler_constant_gen",
    "euler_series_analogue",
    "euler_series_closed",
    "eval_jet",
    "evaluate",
    "expansion_remainder",
    "fontana_partial",
    "forward_diff",
    "from_expression",
    "gamma_piecewise_interp",
    "gen_binomial",
    "gregory_coeff",
    "inequality_report_psi2",
    "integrate",
    "integrate_singular",
    "kp_check",
    "liu_formula_psi2",
    "mult_finite_sum_psi2",
    "mult_residual",
    "mult_sides",
    "named_constant",
    "parse",
    "pretty",
    "raabe_residual",
    "raabe_sides",
    "reflection_sides_psi2",
    "rho",
    "richardson_extrapolate",
    "sigma",
    "sigma_deriv",
    "sigma_direct",
    "sigma_eulerian",
    "sigma_gregory",
    "sigma_integral_rep_psi2",
    "stirling_decay_profile",
    "taylor_psi2",
    "wallis_extrapolated",
    "wallis_partial_psi2",
    "webster_check",
    "webster_sides",
    "wendel_residual",
    "zeta_int",
]
