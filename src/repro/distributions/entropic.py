"""Entropic independence and fractional log-concavity diagnostics.

Definition 22: ``μ`` on ``C([n], k)`` is ``1/α``-entropically independent if
for every distribution ``ν`` on ``C([n], k)``:

``D_KL(ν D_{k→1} || μ D_{k→1}) <= (1 / (α k)) · D_KL(ν || μ)``.

Definition 19: ``μ`` is ``α``-fractionally log-concave (α-FLC) if
``log g_μ(z^α)`` is concave on the positive orthant; Lemma 23 says α-FLC
implies ``1/α``-entropic independence of ``μ`` and all its conditionals.

Verifying these properties exactly is itself a hard optimization problem, so
the checkers here are *brute-force certifiers on small instances*: they search
over a rich family of test distributions ``ν`` (point masses, exponential
tilts of ``μ``, conditionals of ``μ``, and random perturbations) and over
random line segments in the positive orthant.  They are used by tests to
confirm Lemma 24 (DPP variants are Ω(1)-FLC / O(1)-entropically independent)
on random small instances and to certify the Section 7 hard instance.
"""

from __future__ import annotations

import math

import numpy as np

from repro.distributions.divergences import kl_divergence
from repro.distributions.generic import ExplicitDistribution
from repro.utils.rng import SeedLike, as_generator


def _check_homogeneous(mu: ExplicitDistribution) -> int:
    k = mu.cardinality
    if k is None:
        raise ValueError("entropic-independence diagnostics require a fixed-cardinality distribution")
    if k == 0:
        raise ValueError("cardinality must be at least 1")
    return k


def _level_one(mu: ExplicitDistribution) -> np.ndarray:
    """``μ D_{k→1}`` as a probability vector over the ground set."""
    k = _check_homogeneous(mu)
    vec = np.zeros(mu.n, dtype=float)
    for subset, weight in mu.items():
        for i in subset:
            vec[i] += weight / k
    total = vec.sum()
    return vec / total


def _nu_level_one(nu_weights: dict, n: int, k: int) -> np.ndarray:
    vec = np.zeros(n, dtype=float)
    total = sum(nu_weights.values())
    for subset, weight in nu_weights.items():
        for i in subset:
            vec[i] += weight / (k * total)
    return vec


def _kl_tables(nu_weights: dict, mu: ExplicitDistribution) -> float:
    total = sum(nu_weights.values())
    kl = 0.0
    for subset, weight in nu_weights.items():
        q = weight / total
        if q <= 0:
            continue
        p = mu.unnormalized(subset)
        if p <= 0:
            return math.inf
        kl += q * math.log(q / p)
    return kl


def _test_distributions(mu: ExplicitDistribution, trials: int, rng: np.random.Generator):
    """Yield candidate ``ν`` tables: point masses, tilts, conditionals, random."""
    support = mu.support
    # point masses at every support element
    for subset in support:
        yield {subset: 1.0}
    # exponential tilts nu(S) ∝ mu(S) * exp(<lambda, 1_S>)
    for _ in range(trials):
        lam = rng.normal(scale=1.5, size=mu.n)
        table = {}
        for subset, weight in mu.items():
            table[subset] = weight * math.exp(sum(lam[i] for i in subset))
        yield table
    # conditionals of mu on containing each single element
    for i in range(mu.n):
        table = {s: w for s, w in mu.items() if i in s}
        if table:
            yield table
    # random reweightings of the support
    for _ in range(trials):
        table = {s: float(rng.random()) + 1e-9 for s in support}
        yield table


def entropic_independence_constant(mu: ExplicitDistribution, *, trials: int = 30,
                                   seed: SeedLike = 0) -> float:
    """Empirical lower bound on the best ``1/α`` such that Definition 22 holds.

    Returns ``sup_ν  k · D_KL(ν_1 || μ_1) / D_KL(ν || μ)`` over the tested
    family of ``ν`` (the true constant is the supremum over *all* ν, so the
    returned value is a certified lower bound; a value ``<= 1/α + tol``
    across a rich test family is strong evidence of ``1/α``-EI and is how the
    tests exercise Lemma 24).
    """
    k = _check_homogeneous(mu)
    rng = as_generator(seed)
    mu1 = _level_one(mu)
    best = 0.0
    for nu_table in _test_distributions(mu, trials, rng):
        kl_full = _kl_tables(nu_table, mu)
        if not math.isfinite(kl_full) or kl_full <= 1e-12:
            continue
        nu1 = _nu_level_one(nu_table, mu.n, k)
        kl_marg = kl_divergence(nu1, mu1)
        ratio = k * kl_marg / kl_full
        if ratio > best:
            best = ratio
    return float(best)


def is_entropically_independent(mu: ExplicitDistribution, alpha: float, *, trials: int = 30,
                                seed: SeedLike = 0, tol: float = 1e-7) -> bool:
    """Check Definition 22 with parameter ``1/α`` against the brute-force test family."""
    if alpha <= 0 or alpha > 1:
        raise ValueError("alpha must lie in (0, 1]")
    constant = entropic_independence_constant(mu, trials=trials, seed=seed)
    return constant <= 1.0 / alpha + tol


def _log_generating_polynomial(mu: ExplicitDistribution, z: np.ndarray) -> float:
    """``log g_μ(z)`` for strictly positive ``z`` (log-sum-exp stabilized)."""
    logs = []
    for subset, weight in mu.items():
        if weight <= 0:
            continue
        logs.append(math.log(weight) + sum(math.log(z[i]) for i in subset))
    if not logs:
        return -math.inf
    m = max(logs)
    return m + math.log(sum(math.exp(v - m) for v in logs))


def is_fractionally_log_concave(mu: ExplicitDistribution, alpha: float, *, trials: int = 200,
                                seed: SeedLike = 0, tol: float = 1e-9) -> bool:
    """Numerically check ``α``-fractional log-concavity (Definition 19).

    Definition 19 requires ``f(z) = log g_μ(z_1^α, ..., z_n^α)`` to be concave
    over the positive orthant **in z**.  We test midpoint concavity along
    random segments: for random positive ``z_1, z_2``, check
    ``f((z_1+z_2)/2) >= (f(z_1) + f(z_2)) / 2 - tol``.
    """
    if alpha <= 0 or alpha > 1:
        raise ValueError("alpha must lie in (0, 1]")
    rng = as_generator(seed)
    for _ in range(trials):
        # log-uniform positive points spanning a couple of orders of magnitude
        z1 = np.exp(rng.uniform(-2.0, 2.0, size=mu.n))
        z2 = np.exp(rng.uniform(-2.0, 2.0, size=mu.n))
        zm = 0.5 * (z1 + z2)
        f1 = _log_generating_polynomial(mu, z1 ** alpha)
        f2 = _log_generating_polynomial(mu, z2 ** alpha)
        fm = _log_generating_polynomial(mu, zm ** alpha)
        if fm < 0.5 * (f1 + f2) - max(tol, 1e-9 * (abs(f1) + abs(f2) + 1.0)):
            return False
    return True
