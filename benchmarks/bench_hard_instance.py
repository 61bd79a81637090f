"""E9 — Section 7: the hard instance for batched rejection sampling.

Paper claim: on the paired distribution, a batch of ``ℓ`` i.i.d. draws from
the (uniform) marginals contains ``t`` duplicates with probability
``(Θ(ℓ²/k))^t``, and each duplicate inflates the density ratio by ``Θ(n/k)``.
To keep the failure probability inverse-polynomial the batch size must be
``ℓ ≤ k^{1/2-c}`` — the subpolynomial overhead of Theorem 29 is inherent to
rejection strategies.
"""

from __future__ import annotations

import math

from repro.distributions.hard_instance import PairedHardInstance

from _helpers import fit_power_law, print_table, record


def test_e9_duplicate_probability_scaling(benchmark):
    n, k = 800, 400
    mu = PairedHardInstance(n, k)

    rows = []
    ells = (5, 10, 20, int(math.sqrt(k)), 40, 80)
    probs = []
    for ell in sorted(set(ells)):
        p_dup = sum(mu.duplicate_probability_exact(ell, t) for t in range(1, ell // 2 + 1))
        probs.append(max(p_dup, 1e-12))
        predicted = min(ell * ell / (2.0 * k), 1.0)
        ratio_penalty = mu.density_ratio_bound(ell, 1)
        rows.append([ell, f"{ell / math.sqrt(k):.2f}", f"{p_dup:.4f}", f"{predicted:.4f}",
                     f"{ratio_penalty:.0f}x"])

    exponent = fit_power_law(sorted(set(ells))[:4], probs[:4])
    print_table(
        f"E9 (Section 7): duplicate probability in an ell-batch, paired instance n={n}, k={k}",
        ["ell", "ell/sqrt(k)", "P[>=1 duplicate] (exact)", "Theta(ell^2/k) prediction",
         "ratio penalty per duplicate"],
        rows,
    )
    print(f"fitted scaling P ~ ell^a with a = {exponent:.2f} (paper: 2).  Batches of size")
    print("~sqrt(k) already collide with constant probability, and every collision blows")
    print("the rejection ratio up by Theta(n/k) — hence ell must stay at k^(1/2-c).")

    record(benchmark, scaling_exponent=exponent)
    benchmark.pedantic(
        lambda: [mu.duplicate_probability_exact(20, t) for t in range(0, 11)],
        rounds=3, iterations=1)
    assert 1.6 <= exponent <= 2.4


def test_e9_monte_carlo_agreement(benchmark):
    """Monte Carlo duplicate frequencies agree with the closed form."""
    mu = PairedHardInstance(200, 100)
    ell = 14
    exact = sum(mu.duplicate_probability_exact(ell, t) for t in range(1, ell // 2 + 1))
    mc = benchmark.pedantic(
        lambda: mu.duplicate_probability(ell, 1, samples=3000, seed=0),
        rounds=1, iterations=1)
    print(f"\nE9b: P[>=1 duplicate] at ell={ell}: exact {exact:.4f}, Monte Carlo {mc:.4f}")
    record(benchmark, exact=exact, monte_carlo=mc)
    assert abs(mc - exact) < 0.05


def test_e9_allowed_batch_size_vs_failure_budget(benchmark):
    """The largest batch whose duplicate probability stays below delta scales as
    sqrt(k * delta) = k^{1/2 - c} for delta = k^{-2c} (the paper's calculation)."""
    mu = PairedHardInstance(1600, 800)
    rows = []
    thresholds = []
    for delta in (0.5, 0.1, 0.02, 0.004):
        ell = 1
        while ell < mu.k:
            p_dup = sum(mu.duplicate_probability_exact(ell + 1, t)
                        for t in range(1, (ell + 1) // 2 + 1))
            if p_dup > delta:
                break
            ell += 1
        thresholds.append(ell)
        rows.append([delta, ell, f"{math.sqrt(mu.k * delta * 2):.1f}",
                     f"{ell / math.sqrt(mu.k):.2f}"])

    print_table(
        "E9c: largest batch with duplicate probability <= delta (k=800)",
        ["delta", "max ell", "sqrt(2 k delta) prediction", "ell / sqrt(k)"],
        rows,
    )
    print("Tolerating only inverse-polynomial failure forces ell well below sqrt(k),")
    print("matching the k^(1/2-c) limit of Section 7.")
    record(benchmark, thresholds=thresholds)
    benchmark.pedantic(
        lambda: sum(mu.duplicate_probability_exact(20, t) for t in range(0, 11)),
        rounds=3, iterations=1)
    assert all(a >= b for a, b in zip(thresholds, thresholds[1:]))
