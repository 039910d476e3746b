"""Numerical engine for principal indefinite sums.

Given g with an eventually monotone p-th difference and eventual
p-convexity or p-concavity, the principal indefinite sum is the unique
solution f of f(x+1) - f(x) = g(x), f(1) = 0 that is eventually
p-convex or p-concave.  This package evaluates it, its normalization
constants sigma[g] and gamma[g], its Binet-style remainders and
asymptotic expansions, and checks the classical identities
(multiplication, Raabe, Wendel, Gautschi, Stirling, reflection, ...)
by residual.

The package namespace exports nothing; the names live in the
submodules (indefsum.sigma, indefsum.catalog, indefsum.constants, ...).
"""

__version__ = "0.1.0"
