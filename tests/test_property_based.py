"""Property-based tests (hypothesis) on core invariants.

These exercise randomly generated instances of the library's fundamental data
structures: PSD/nPSD ensembles, kernels, subsets, ESPs, the down operator, the
batch schedule, divergences, and the PRAM tracker.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.core.batched import batch_schedule
from repro.distributions.divergences import kl_divergence, total_variation
from repro.dpp.spectral import sample_kdpp_spectral
from repro.service import FactorizationCache, KernelRegistry, RoundScheduler, serve
from repro.distributions.generic import ExplicitDistribution
from repro.dpp.kernels import ensemble_to_kernel, kernel_to_ensemble
from repro.dpp.likelihood import all_principal_minor_sums
from repro.linalg.esp import elementary_symmetric_polynomials
from repro.linalg.psd import is_npsd, is_psd
from repro.linalg.schur import condition_ensemble
from repro.pram.tracker import Tracker
from repro.utils.subsets import binomial, subset_key

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------- #
# strategies
# ---------------------------------------------------------------------- #
def psd_matrices(max_n=6):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        rows = draw(
            st.lists(
                st.lists(st.floats(min_value=-2, max_value=2, allow_nan=False), min_size=n, max_size=n),
                min_size=n, max_size=n,
            )
        )
        B = np.array(rows)
        return B @ B.T + 1e-6 * np.eye(n)

    return build()


def npsd_matrices(max_n=6):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        sym_rows = draw(
            st.lists(
                st.lists(st.floats(min_value=-2, max_value=2, allow_nan=False), min_size=n, max_size=n),
                min_size=n, max_size=n,
            )
        )
        skew_rows = draw(
            st.lists(
                st.lists(st.floats(min_value=-1, max_value=1, allow_nan=False), min_size=n, max_size=n),
                min_size=n, max_size=n,
            )
        )
        B = np.array(sym_rows)
        G = np.array(skew_rows)
        return B @ B.T + 0.5 * (G - G.T) + 1e-6 * np.eye(n)

    return build()


probability_vectors = st.lists(
    st.floats(min_value=1e-3, max_value=1.0, allow_nan=False), min_size=2, max_size=8
).map(lambda xs: np.array(xs) / np.sum(xs))


# ---------------------------------------------------------------------- #
# PSD / kernel properties
# ---------------------------------------------------------------------- #
class TestKernelProperties:
    @SETTINGS
    @given(psd_matrices())
    def test_psd_construction_is_psd(self, L):
        assert is_psd(L, tol=1e-6)

    @SETTINGS
    @given(npsd_matrices())
    def test_npsd_construction_is_npsd(self, L):
        assert is_npsd(L, tol=1e-6)

    @SETTINGS
    @given(npsd_matrices())
    def test_npsd_principal_minors_nonnegative(self, L):
        # [Gar+19, Lemma 1] via random 2x2 and full minors
        n = L.shape[0]
        assert np.linalg.det(L) >= -1e-7 * max(1.0, abs(np.linalg.det(L)))
        for i in range(n):
            for j in range(i + 1, n):
                sub = L[np.ix_((i, j), (i, j))]
                assert np.linalg.det(sub) >= -1e-8

    @SETTINGS
    @given(psd_matrices())
    def test_kernel_roundtrip(self, L):
        K = ensemble_to_kernel(L)
        back = kernel_to_ensemble(K)
        assert np.allclose(back, L, atol=1e-6 * max(1.0, np.abs(L).max()))

    @SETTINGS
    @given(psd_matrices())
    def test_kernel_eigenvalues_unit_interval(self, L):
        K = ensemble_to_kernel(L)
        eigs = np.linalg.eigvalsh(0.5 * (K + K.T))
        assert eigs.min() >= -1e-8
        assert eigs.max() <= 1 + 1e-8

    @SETTINGS
    @given(psd_matrices(), st.integers(min_value=0, max_value=5))
    def test_schur_determinant_identity(self, L, seed):
        n = L.shape[0]
        rng = np.random.default_rng(seed)
        if n < 2:
            return
        element = int(rng.integers(n))
        if L[element, element] <= 1e-9:
            return
        cond, remaining = condition_ensemble(L, (element,))
        # det(L_{i} cup A) = L_ii * det(cond_A) for A = all remaining
        lhs = np.linalg.det(L)
        rhs = L[element, element] * np.linalg.det(cond)
        assert lhs == pytest.approx(rhs, rel=1e-6, abs=1e-9)


# ---------------------------------------------------------------------- #
# ESP / minor-sum properties
# ---------------------------------------------------------------------- #
class TestESPProperties:
    @SETTINGS
    @given(st.lists(st.floats(min_value=0, max_value=5, allow_nan=False), min_size=1, max_size=8))
    def test_esp_nonnegative_for_nonnegative_inputs(self, values):
        esp = elementary_symmetric_polynomials(np.array(values))
        assert np.all(esp >= -1e-12)

    @SETTINGS
    @given(st.lists(st.floats(min_value=0.1, max_value=3, allow_nan=False), min_size=1, max_size=7))
    def test_esp_total_equals_product_of_one_plus(self, values):
        esp = elementary_symmetric_polynomials(np.array(values))
        assert esp.sum() == pytest.approx(np.prod(1.0 + np.array(values)), rel=1e-9)

    @SETTINGS
    @given(psd_matrices(), st.integers(min_value=0, max_value=6))
    def test_minor_sums_nonnegative_for_psd(self, L, order):
        if order > L.shape[0]:
            return
        assert all_principal_minor_sums(L)[order] >= -1e-7


# ---------------------------------------------------------------------- #
# batch schedule (Proposition 28)
# ---------------------------------------------------------------------- #
class TestScheduleProperties:
    @SETTINGS
    @given(st.integers(min_value=0, max_value=100000))
    def test_schedule_sums_and_length(self, k):
        schedule = batch_schedule(k)
        assert sum(schedule) == k
        assert len(schedule) <= 2 * math.sqrt(k) + 1

    @SETTINGS
    @given(st.integers(min_value=1, max_value=100000))
    def test_schedule_sizes_decrease(self, k):
        schedule = batch_schedule(k)
        assert all(a >= b for a, b in zip(schedule, schedule[1:]))


# ---------------------------------------------------------------------- #
# divergences
# ---------------------------------------------------------------------- #
class TestDivergenceProperties:
    @SETTINGS
    @given(probability_vectors, probability_vectors)
    def test_kl_nonnegative(self, q, p):
        if q.size != p.size:
            return
        assert kl_divergence(q, p) >= -1e-10

    @SETTINGS
    @given(probability_vectors, probability_vectors)
    def test_pinsker(self, q, p):
        if q.size != p.size:
            return
        assert total_variation(q, p) <= math.sqrt(max(kl_divergence(q, p), 0.0) / 2.0) + 1e-9

    @SETTINGS
    @given(probability_vectors)
    def test_tv_to_self_zero(self, p):
        assert total_variation(p, p) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------- #
# explicit distributions and subsets
# ---------------------------------------------------------------------- #
class TestDistributionProperties:
    @SETTINGS
    @given(st.dictionaries(
        st.tuples(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4)),
        st.floats(min_value=0.01, max_value=5.0, allow_nan=False),
        min_size=1, max_size=10,
    ))
    def test_explicit_distribution_normalizes(self, raw):
        table = {subset_key(set(key)): value for key, value in raw.items()}
        dist = ExplicitDistribution(5, table)
        total = sum(prob for _, prob in dist.items())
        assert total == pytest.approx(1.0, rel=1e-9)

    @SETTINGS
    @given(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=12))
    def test_binomial_symmetry(self, n, k):
        assert binomial(n, k) == binomial(n, n - k) if 0 <= k <= n else True

    @SETTINGS
    @given(st.integers(min_value=1, max_value=7), st.integers(min_value=1, max_value=7))
    def test_uniform_marginals_sum_to_k(self, n, k):
        if k > n:
            return
        from repro.distributions.generic import uniform_distribution_on_size_k

        dist = uniform_distribution_on_size_k(n, k)
        assert dist.marginal_vector().sum() == pytest.approx(k, rel=1e-9)


# ---------------------------------------------------------------------- #
# serving layer: caching and fusion never change samples
# ---------------------------------------------------------------------- #
SERVING_SETTINGS = settings(max_examples=8, deadline=None,
                            suppress_health_check=[HealthCheck.too_slow])
SERVING_BACKENDS = ("serial", "vectorized", "threads")


def conditioned_psd_matrices(max_n=6, ridge=0.05):
    """PSD ensembles with spectrum bounded away from zero.

    The seed repo's HKPV phase 2 can run out of probability mass on
    numerically rank-deficient spectra (eigenvalues at the QR drop
    tolerance); the serving-layer properties are about caching/fusion, so
    they use instances every sampler handles.
    """
    return psd_matrices(max_n=max_n).map(
        lambda L: L + ridge * np.eye(L.shape[0]))


class TestServingProperties:
    @SERVING_SETTINGS
    @given(conditioned_psd_matrices(max_n=6), st.integers(min_value=0, max_value=10**6))
    def test_cached_sampling_is_seed_identical(self, L, seed):
        """Warm SamplerSession draws == cold module-level draws, every backend."""
        k = min(2, L.shape[0])
        session = serve(L, registry=KernelRegistry())
        assert session.sample(k=k, seed=seed).subset == sample_kdpp_spectral(L, k, seed=seed)
        for backend in SERVING_BACKENDS:
            warm = session.sample(k=k, seed=seed, method="parallel", backend=backend).subset
            cold = repro.sample_symmetric_kdpp_parallel(L, k, seed=seed, backend=backend).subset
            assert warm == cold

    @SERVING_SETTINGS
    @given(conditioned_psd_matrices(max_n=6), st.integers(min_value=0, max_value=10**6))
    def test_fused_scheduling_is_seed_identical(self, L, seed):
        """Scheduler-fused rounds == per-request draws, every backend."""
        k = min(2, L.shape[0])
        seeds = [seed, seed + 1, seed + 2]
        session = serve(L, registry=KernelRegistry())
        for backend in SERVING_BACKENDS:
            scheduler = RoundScheduler(session, backend=backend)
            for s in seeds:
                scheduler.submit(k, seed=s)
            fused = [r.subset for r in scheduler.drain()]
            unfused = [session.sample(k=k, seed=s, method="parallel", backend=backend).subset
                       for s in seeds]
            assert fused == unfused

    @SERVING_SETTINGS
    @given(psd_matrices(max_n=6))
    def test_factorization_cache_content_addressing(self, L):
        """Equal content hits one entry; perturbed content misses."""
        cache = FactorizationCache(capacity=4)
        first = cache.factorization(L)
        assert cache.factorization(L.copy()) is first
        assert cache.factorization(L + 1e-6 * np.eye(L.shape[0])) is not first
        assert cache.stats.hits == 1
        assert cache.stats.misses == 2


# ---------------------------------------------------------------------- #
# tracker
# ---------------------------------------------------------------------- #
class TestTrackerProperties:
    @SETTINGS
    @given(st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=6))
    def test_merge_parallel_depth_is_max(self, depths):
        parent = Tracker()
        children = []
        for d in depths:
            child = parent.spawn()
            for _ in range(d):
                with child.round():
                    pass
            children.append(child)
        parent.merge_parallel(children)
        assert parent.rounds == max(depths)

    @SETTINGS
    @given(st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), min_size=1, max_size=20))
    def test_work_accumulates(self, works):
        t = Tracker()
        for w in works:
            t.charge(work=w)
        assert t.work == pytest.approx(sum(works), rel=1e-9)
