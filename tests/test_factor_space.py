"""Factor-space oracles of symmetric k-DPPs (Theorem-10 rounds).

Conditioning ``L = B Bᵀ`` on ``T`` keeps a factor: ``F = B_O Q`` factors the
Schur complement ``L^T``, and the ``r x r`` Gram ``FᵀF`` carries its whole
nonzero spectrum.  Counting queries read ``[z^k]`` of the generating
polynomial off ``r + 1`` points on a circle.  These tests hold the
factor-space artifacts to the dense ``n x n`` quantities they replace, the
counts to brute force, to the per-query eigendecomposition they replace and,
beyond brute force, to identities every k-DPP oracle satisfies, and the
served Theorem-10 sampler to both replaced routes, seed for seed.  A k-DPP
keeps its kernel-only work (marginals, normalizer, circle) after first use;
the last tests hold a served root to computing it once and to the reports of
fresh instances.
"""

import itertools
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.dpp.symmetric
import repro.linalg.esp
import repro.service.cache
from repro import KernelRegistry, sample_symmetric_kdpp_parallel, serve
from repro.core.batched import batched_sample
from repro.core.symmetric import kdpp_batched_config
from repro.distributions.base import CountingOracleError
from repro.distributions.lowrank import LowRankKDPP, LowRankKernel
from repro.dpp.elementary import kdpp_marginals_from_factor, leave_one_out_esp
from repro.dpp.exact import exact_kdpp_distribution
from repro.dpp.nonsymmetric import NonsymmetricKDPP
from repro.dpp.partition import PartitionDPP
from repro.dpp.symmetric import SymmetricKDPP
from repro.engine import OracleBatch, resolve_backend
from repro.linalg.batch import (
    conditioned_factor,
    group_by_size,
    lowrank_conditioned_gram,
    psd_factor,
    symmetrized_eigh,
)
from repro.linalg.determinant import principal_minor
from repro.linalg.esp import elementary_symmetric_polynomials, kdpp_counts_from_factor
from repro.linalg.schur import condition_ensemble
from repro.pram.tracker import Tracker, use_tracker
from repro.service.cache import KernelFactorization
from repro.utils.validation import check_subset
from repro.workloads import random_npsd_ensemble, random_psd_ensemble

EPS = np.finfo(float).eps


def reference_conditioned_gram(B, G, subsets):
    """The ``O(r³)`` route: form ``Q``, then ``Q (G - B_TᵀB_T) Q``."""
    idx = np.asarray([sorted(s) for s in subsets], dtype=int)
    B_T = B[idx]
    X = np.linalg.solve(B_T @ B_T.transpose(0, 2, 1), B_T)
    P = B_T.transpose(0, 2, 1) @ X
    G_O = G[None] - B_T.transpose(0, 2, 1) @ B_T
    QG = G_O - P @ G_O
    C = QG - QG @ P
    return 0.5 * (C + C.transpose(0, 2, 1))


def dense_kdpp_marginals(L, k):
    """k-DPP marginals from an ``n x n`` eigh of ``L`` (the replaced route)."""
    n = L.shape[0]
    if k == 0:
        return np.zeros(n)
    if k == n:
        return np.ones(n)
    lam, U = np.linalg.eigh(0.5 * (L + L.T))
    lam = np.clip(lam, 0.0, None)
    ek = elementary_symmetric_polynomials(lam, max_order=k)[k]
    weights = lam * leave_one_out_esp(lam, k - 1) / ek
    return np.clip((U ** 2) @ weights, 0.0, 1.0)


def gram_route_counts(factor, gram, subsets, k):
    """Counts by the route the circle replaced: one ``r x r`` eigvalsh per query.

    Each ``T`` forms its conditioned Gram (``lowrank_conditioned_gram``),
    whose spectrum is the nonzero spectrum of ``L^T``, and reads
    ``det(L_T) · e_{k-t}(λ(L^T))`` off its ESPs.
    """
    t = len(subsets[0])
    det_T, reduced = lowrank_conditioned_gram(factor, gram, subsets)
    spectra = np.clip(np.linalg.eigvalsh(reduced), 0.0, None)
    esp = elementary_symmetric_polynomials(spectra, max_order=k - t)
    return np.where(det_T > 0, det_T * esp[k - t], 0.0)


class GramRouteKDPP(SymmetricKDPP):
    """Factor-space oracles, with batched counting on :func:`gram_route_counts`."""

    def counting_batch(self, subsets):
        values = np.zeros(len(subsets))
        for t, positions in group_by_size(subsets).items():
            group = [subsets[p] for p in positions]
            if 0 < t < self.k:
                values[positions] = gram_route_counts(self.factor, self.factor_gram, group, self.k)
            else:
                values[positions] = super().counting_batch(group)
        return values

    def condition(self, include):
        child = super().condition(include)
        child.__class__ = type(self)
        return child


class DenseRouteKDPP(GramRouteKDPP):
    """The oracles before factor-space conditioning, kept as the reference.

    Every conditioned kernel is decomposed densely: marginals from an
    ``n x n`` eigh, the normalizer from an ``n x n`` eigvalsh, batched counting
    from the kernel's own ``psd_factor`` by :func:`gram_route_counts`, and
    scalar counting through an eigvalsh of each query's Schur complement.
    """

    def counting(self, given=()):
        items = check_subset(given, self.n)
        t = len(items)
        if t > self.k:
            return 0.0
        if t == 0:
            return self.partition_function()
        det_t = principal_minor(self.L, items)
        if det_t <= 0:
            return 0.0
        if t == self.k:
            return det_t
        L_cond, _ = condition_ensemble(self.L, items)
        spectrum = np.clip(np.linalg.eigvalsh(0.5 * (L_cond + L_cond.T)), 0.0, None)
        return det_t * float(elementary_symmetric_polynomials(spectrum, max_order=self.k - t)[self.k - t])

    def marginal_vector(self, given=()):
        assert not tuple(given)  # Algorithm 1 conditions first, then asks
        return dense_kdpp_marginals(self.L, self.k)

    def condition(self, include):
        items = check_subset(include, self.n)
        if not items:
            return self
        L_cond, remaining = condition_ensemble(self.L, items)
        labels = tuple(self._labels[i] for i in remaining)
        return DenseRouteKDPP(0.5 * (L_cond + L_cond.T), self.k - len(items),
                              validate=False, labels=labels)


def _random_subsets(rng, n, t, count):
    return [tuple(sorted(int(i) for i in rng.choice(n, size=t, replace=False)))
            for _ in range(count)]


# ---------------------------------------------------------------------- #
# linalg: the conditioned factor and its Gram
# ---------------------------------------------------------------------- #
class TestConditionedFactor:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(n=st.integers(3, 30), rank_gap=st.integers(0, 12), t=st.integers(1, 4),
           seed=st.integers(0, 2 ** 16))
    def test_factor_reproduces_schur_complement(self, n, rank_gap, t, seed):
        # rank_gap = 0 is the full-rank case r = n
        t = min(t, n - 1)
        r = max(n - rank_gap, t)
        L = random_psd_ensemble(n, rank=r, seed=seed)
        B = psd_factor(L)
        T = _random_subsets(np.random.default_rng(seed), n, t, 1)[0]
        F, remaining = conditioned_factor(B, T)
        L_cond, expected_remaining = condition_ensemble(L, T)
        assert np.array_equal(remaining, expected_remaining)
        assert F.shape == (n - t, B.shape[1])
        # both sides carry the backward error of solving with L_TT
        kappa = np.linalg.cond(L[np.ix_(T, T)])
        np.testing.assert_allclose(F @ F.T, L_cond, rtol=0,
                                   atol=100 * EPS * kappa * np.abs(L).max())

    @pytest.mark.parametrize("rank", [12, 40])
    def test_ill_conditioned_block(self, rank):
        # rows 0 and 1 nearly parallel: cond(L_TT) >= 1e8, for r < n and r = n
        rng = np.random.default_rng(5)
        B = rng.standard_normal((40, rank))
        B[1] = B[0] + 1e-4 * rng.standard_normal(rank)
        L = B @ B.T
        T = (0, 1, 7)
        kappa = np.linalg.cond(L[np.ix_(T, T)])
        assert kappa >= 1e8
        F, _ = conditioned_factor(B, T)
        L_cond, _ = condition_ensemble(L, T)
        np.testing.assert_allclose(F @ F.T, L_cond, rtol=0,
                                   atol=100 * EPS * kappa * np.abs(L).max())

    def test_zero_probability_event_raises(self):
        B = np.random.default_rng(1).standard_normal((6, 3))
        B[2] = 2.0 * B[1]
        with pytest.raises(ValueError, match="zero probability"):
            conditioned_factor(B, (1, 2))

    @pytest.mark.parametrize("n, rank", [(200, 60), (40, 40), (12, 5)])
    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_gram_matches_cubic_reference(self, n, rank, t):
        L = random_psd_ensemble(n, rank=rank, seed=n + t)
        B = psd_factor(L)
        G = B.T @ B
        subsets = _random_subsets(np.random.default_rng(t), n, t, 34)
        det_T, C = lowrank_conditioned_gram(B, G, subsets)
        np.testing.assert_allclose(C, reference_conditioned_gram(B, G, subsets),
                                   rtol=1e-12, atol=1e-12 * np.abs(G).max())
        assert np.array_equal(C, C.transpose(0, 2, 1))
        np.testing.assert_allclose(det_T, [np.linalg.det(L[np.ix_(s, s)]) for s in subsets],
                                   rtol=1e-8, atol=1e-12)
        # C is the Gram of the conditioned factor
        F, _ = conditioned_factor(B, subsets[0])
        np.testing.assert_allclose(C[0], F.T @ F, rtol=0, atol=1e-12 * np.abs(G).max())

    def test_factor_and_gram_from_one_solve_equal_the_two_routines(self):
        # what a conditioned child gets from one t x t solve is bitwise the
        # factor of conditioned_factor and the Gram of lowrank_conditioned_gram,
        # charged as their two determinants
        rng = np.random.default_rng(31)
        for case in range(50):
            n = int(rng.integers(8, 220))
            B = psd_factor(random_psd_ensemble(n, rank=int(rng.integers(4, min(n, 70) + 1)),
                                               seed=case))
            G = B.T @ B
            T = _random_subsets(rng, n, int(rng.integers(1, 6)), 1)[0]
            with use_tracker(Tracker()) as tracker:
                F, remaining, C = conditioned_factor(B, T, G)
            F_alone, remaining_alone = conditioned_factor(B, T)
            assert np.array_equal(F, F_alone) and np.array_equal(remaining, remaining_alone)
            assert np.array_equal(C, lowrank_conditioned_gram(B, G, [T])[1][0])
            r = B.shape[1]
            assert (tracker.oracle_calls, tracker.work) == (2, len(T) ** 3 + r ** 3)


# ---------------------------------------------------------------------- #
# dpp: conditioned kernels answer from factor-space artifacts
# ---------------------------------------------------------------------- #
class TestConditionedKernel:
    @pytest.mark.parametrize("n, rank, k, T", [
        (200, 60, 10, (3, 17, 42, 101)),
        (40, 40, 6, (0, 5)),      # r = n: the Gram has more rows than the child
        (30, 12, 5, (7,)),
    ])
    def test_child_matches_dense_decomposition(self, n, rank, k, T):
        L = random_psd_ensemble(n, rank=rank, seed=3)
        child = SymmetricKDPP(L, k).condition(T)
        k_child = k - len(T)
        L_cond, _ = condition_ensemble(L, T)
        dense = np.clip(np.linalg.eigvalsh(L_cond), 0.0, None)
        # the child holds its factor's Gram spectrum: at most n - t values,
        # the top of the dense spectrum, with the rest of it zero
        width = min(rank, n - len(T))
        assert child.eigenvalues.shape == (width,)
        np.testing.assert_allclose(child.eigenvalues, dense[dense.size - width:], rtol=0,
                                   atol=1e-12 * dense.max())
        np.testing.assert_allclose(dense[:dense.size - width], 0.0, rtol=0,
                                   atol=1e-12 * dense.max())
        np.testing.assert_allclose(child.marginal_vector(),
                                   dense_kdpp_marginals(L_cond, k_child),
                                   rtol=1e-12, atol=1e-15)
        expected_z = elementary_symmetric_polynomials(dense, max_order=k_child)[k_child]
        assert child.partition_function() == pytest.approx(expected_z, rel=1e-12)

    def test_child_holds_and_ships_only_factor_space_arrays(self):
        n, rank, T = 200, 60, (3, 50)
        child = SymmetricKDPP(random_psd_ensemble(n, rank=rank, seed=2), 10).condition(T)
        child.marginal_vector()  # warm every artifact the child ships
        bound = (n - len(T)) * rank
        assert child.L is None
        held = [a for value in vars(child).values()
                for a in (value if isinstance(value, tuple) else (value,))
                if isinstance(a, np.ndarray)]
        assert held and max(a.size for a in held) <= bound
        arrays, params = child.worker_payload()
        assert {"factor", "factor_gram"} <= set(arrays)
        assert max(a.size for a in arrays.values()) <= bound
        rebuilt = SymmetricKDPP.from_worker_payload(arrays, params)
        assert rebuilt.L is None
        subsets = _random_subsets(np.random.default_rng(3), child.n, 2, 10) + [tuple(range(8))]
        assert np.array_equal(rebuilt.counting_batch(subsets), child.counting_batch(subsets))

    def test_nested_conditioning_keeps_factor_width(self):
        L = random_psd_ensemble(60, rank=20, seed=8)
        first = SymmetricKDPP(L, 8).condition((4, 9))
        child = first.condition((0, 30, 31))
        assert child.factor.shape == (55, 20)
        # conditioning twice is conditioning once on the union
        union = (4, 9) + tuple(first.ground_labels[i] for i in (0, 30, 31))
        L_cond, remaining = condition_ensemble(L, union)
        assert tuple(remaining) == child.ground_labels
        np.testing.assert_allclose(child.factor @ child.factor.T, L_cond,
                                   rtol=0, atol=1e-12 * np.abs(L).max())

    def test_counting_has_one_route(self):
        # scalar counting is a one-subset counting_batch: equal bit for bit,
        # on the root and on a conditioned kernel
        dist = SymmetricKDPP(random_psd_ensemble(200, rank=60, seed=4), 10)
        child = dist.condition((5, 77))
        rng = np.random.default_rng(0)
        for target in (dist, child):
            for t in (1, 3, 4):
                subsets = _random_subsets(rng, target.n, t, 34)
                singles = [target.counting(s) for s in subsets]
                assert np.array_equal(target.counting_batch(subsets), singles)

    def test_scalar_backends_equal_vectorized_bitwise(self):
        child = SymmetricKDPP(random_psd_ensemble(120, rank=40, seed=6), 9).condition((2, 50, 99))
        rng = np.random.default_rng(1)
        subsets = [s for t in (1, 2, 3, 6) for s in _random_subsets(rng, child.n, t, 8)]
        reference = resolve_backend("vectorized").execute(
            OracleBatch.joint_marginals(child, subsets), tracker=Tracker()).values
        for name in ("serial", "threads"):
            values = resolve_backend(name).execute(
                OracleBatch.joint_marginals(child, subsets), tracker=Tracker()).values
            assert np.array_equal(values, reference), name


# ---------------------------------------------------------------------- #
# counting: [z^k] of the generating polynomial, read off a circle
# ---------------------------------------------------------------------- #
#: relative error bound of a count against an independent reference
COUNT_RTOL = 1e-12


def _orthonormal_factor(n, spectrum, seed):
    """``B = U diag(√s)`` with orthonormal ``U``: ``L = B Bᵀ`` has spectrum ``s``."""
    U, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, len(spectrum))))
    return U * np.sqrt(spectrum), U


def _both_classes(B, k):
    """The dense-kernel and the low-rank k-DPP over the same factor."""
    dense = SymmetricKDPP(B @ B.T, k).attach_precomputed(factor=B, factor_gram=B.T @ B)
    # unvalidated: a 12-decade factor is column-rank-deficient at the default tolerance
    return dense, LowRankKDPP(B, k, validate=False)


class TestCircleCounts:
    @pytest.mark.parametrize("n, rank, k", [
        (10, 10, 10),   # r = n and k = rank
        (12, 12, 6),    # r = n
        (12, 5, 5),     # k = rank < n
        (11, 7, 4),
    ])
    def test_matches_brute_force(self, n, rank, k):
        spectrum = np.random.default_rng(n + rank + k).uniform(0.5, 3.0, rank)
        B, _ = _orthonormal_factor(n, spectrum, seed=k)
        L = B @ B.T
        minors = {S: np.linalg.det(L[np.ix_(S, S)]) for S in itertools.combinations(range(n), k)}
        rng = np.random.default_rng(0)
        for dist in _both_classes(B, k):
            for t in range(1, k):   # up to t = k - 1
                subsets = _random_subsets(rng, n, t, 12)
                expected = [sum(v for S, v in minors.items() if set(T) <= set(S)) for T in subsets]
                np.testing.assert_allclose(dist.counting_batch(subsets), expected,
                                           rtol=COUNT_RTOL, atol=0)

    def test_matches_gram_route_on_root_and_children(self):
        root = SymmetricKDPP(random_psd_ensemble(200, rank=60, seed=11), 10)
        rng = np.random.default_rng(2)
        for dist in (root, root.condition((4, 90)), root.condition((0, 13, 150))):
            for t in (1, 2, 3, 4):
                subsets = _random_subsets(rng, dist.n, t, 30)
                expected = gram_route_counts(dist.factor, dist.factor_gram, subsets, dist.k)
                np.testing.assert_allclose(dist.counting_batch(subsets), expected,
                                           rtol=COUNT_RTOL, atol=0)

    def test_twelve_decade_spectrum(self):
        # exact counts from Cauchy–Binet: a sum of nonnegative terms
        #   Σ_{|J| = t} det(U_{T,J})² s_J e_{k-t}(s without J),
        # so the reference itself cannot cancel
        n, k = 200, 10
        s = np.logspace(-6, 6, 60)
        B, U = _orthonormal_factor(n, s, seed=3)
        rng = np.random.default_rng(4)
        singles = _random_subsets(rng, n, 1, 20)
        pairs = _random_subsets(rng, n, 2, 20)
        expected_singles = [(U[T[0]] ** 2 * s) @ leave_one_out_esp(s, k - 1) for T in singles]
        J = np.array(list(itertools.combinations(range(s.size), 2)))
        keep = np.ones((len(J), s.size), dtype=bool)
        keep[np.arange(len(J))[:, None], J] = False
        rest = np.broadcast_to(s, keep.shape)[keep].reshape(len(J), -1)
        tails = s[J].prod(axis=1) * elementary_symmetric_polynomials(rest, max_order=k - 2)[k - 2]
        expected_pairs = []
        for a, b in pairs:
            minors = U[a, J[:, 0]] * U[b, J[:, 1]] - U[a, J[:, 1]] * U[b, J[:, 0]]
            expected_pairs.append(np.sum(minors ** 2 * tails))
        for dist in _both_classes(B, k):
            np.testing.assert_allclose(dist.counting_batch(singles), expected_singles,
                                       rtol=COUNT_RTOL, atol=0)
            np.testing.assert_allclose(dist.counting_batch(pairs), expected_pairs,
                                       rtol=COUNT_RTOL, atol=0)

    def test_zero_probability_set_counts_exactly_zero(self):
        B = np.random.default_rng(6).standard_normal((15, 6))
        B[4] = B[9]
        # the last kernel factors L by eigh, leaving rounding in det(L_{4,9})
        for dist in (*_both_classes(B, 4), SymmetricKDPP(B @ B.T, 4)):
            values = dist.counting_batch([(4, 9), (4, 5), (1, 4, 9), (2, 3, 4)])
            assert values[0] == 0.0 and values[2] == 0.0
            assert values[1] > 0 and values[3] > 0
            assert dist.counting((4, 9)) == 0.0

    def test_lowrank_batched_equals_single_bitwise(self):
        B, _ = _orthonormal_factor(150, np.random.default_rng(7).uniform(0.2, 5.0, 40), seed=8)
        root = LowRankKDPP(B, 9)
        rng = np.random.default_rng(9)
        for dist in (root, root.condition((3, 70, 149))):
            for t in (1, 2, 4):
                subsets = _random_subsets(rng, dist.n, t, 25)
                singles = [dist.counting(s) for s in subsets]
                assert np.array_equal(dist.counting_batch(subsets), singles)
                assert np.array_equal(dist.counting_batch(subsets[7:9]), singles[7:9])

    def test_rounding_below_zero_clips(self):
        # k above the rank: every z^k coefficient is 0 up to rounding
        B, _ = _orthonormal_factor(9, np.array([0.5, 1.0, 2.0]), seed=1)
        values = kdpp_counts_from_factor(np.array([0.5, 1.0, 2.0]), B, [(0,), (3,), (8,)], 4)
        assert np.all(values >= 0.0)
        assert np.all(values <= 1e-12 * np.prod([1.5, 2.0, 3.0]))

    def test_negative_coefficient_raises(self, monkeypatch):
        # a broken evaluation that negates P_T: its count must raise, not clip to 0
        dist = SymmetricKDPP(random_psd_ensemble(30, rank=10, seed=2), 4)
        det = np.linalg.det

        def negated(a):
            return -det(a) if np.iscomplexobj(a) else det(a)

        monkeypatch.setattr(np.linalg, "det", negated)
        with pytest.raises(CountingOracleError, match="k-DPP count"):
            dist.counting_batch([(1, 2)])

    @pytest.mark.parametrize("kernel", ["dense", "lowrank"])
    def test_marginal_and_extension_identities_beyond_brute_force(self, kernel):
        # identities every k-DPP oracle satisfies at any size: the marginals
        # sum to k, and each set counted for T holds k - |T| one-item
        # extensions of T.  They check the circle counts, which every
        # backend shares and fixed-seed byte-identity cannot catch.
        L = random_psd_ensemble(200, rank=60, seed=0)
        root = SymmetricKDPP(L, 10) if kernel == "dense" else LowRankKDPP(psd_factor(L), 10)
        rng = np.random.default_rng(5)
        given = tuple(rng.choice(200, size=9, replace=False).tolist())
        for dist in (root, root.condition(given[:5]), root.condition(given)):
            assert dist.marginal_vector().sum() == pytest.approx(dist.k, rel=1e-9)
            for j in range(20):
                T = _random_subsets(rng, dist.n, 1 + j % 3, 1)[0]
                extensions = [tuple(sorted(T + (i,))) for i in range(dist.n) if i not in T]
                assert dist.counting_batch(extensions).sum() == pytest.approx(
                    (dist.k - len(T)) * dist.counting(T), rel=1e-9)

    def test_one_oracle_call_per_query(self):
        kdpp = SymmetricKDPP(random_psd_ensemble(60, rank=20, seed=5), 6)
        kdpp._factor_spectrum()   # warm: the decomposition is charged once, elsewhere
        # warm torus roots (built at construction) on 16 x 16 = 256 and 31
        # nodes, and children that read their root's tables: a node
        # determinant is work, not a query
        partition = PartitionDPP(random_psd_ensemble(30, seed=5),
                                 [list(range(15)), list(range(15, 30))], [2, 2])
        nonsymmetric = NonsymmetricKDPP(random_npsd_ensemble(30, seed=5), 6)
        for dist in (kdpp, partition, partition.condition((3,)),
                     nonsymmetric, nonsymmetric.condition((3,))):
            subsets = _random_subsets(np.random.default_rng(3), dist.n, 2, 17)
            tracker = Tracker()
            with use_tracker(tracker):
                dist.counting_batch(subsets)
            assert tracker.oracle_calls == 17
            assert tracker.peak_machines <= 17


# ---------------------------------------------------------------------- #
# end to end: the served Theorem-10 sampler
# ---------------------------------------------------------------------- #
def _recording(function, sizes):
    def wrapper(a, *args, **kwargs):
        sizes.append(np.shape(a)[-1])
        return function(a, *args, **kwargs)
    return wrapper


@pytest.mark.parametrize("backend", ["serial", "vectorized"])
def test_warm_parallel_sample_decomposes_nothing_above_rank(monkeypatch, backend):
    L = random_psd_ensemble(200, rank=60, seed=0)
    sizes = []
    with serve(L, registry=KernelRegistry()) as session:
        session.sample(k=10, method="parallel", seed=0, backend=backend)  # warm
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigh", _recording(np.linalg.eigh, sizes))
            patch.setattr(np.linalg, "eigvalsh", _recording(np.linalg.eigvalsh, sizes))
            result = session.sample(k=10, method="parallel", seed=1, backend=backend)
    assert len(result.subset) == 10
    assert sizes and max(sizes) <= 60


@pytest.mark.parametrize("path", ["warm", "first-served-draw", "unconstrained-distribution"])
def test_one_decomposition_per_symmetric_kernel(monkeypatch, path):
    # the spectrum, the factor and the size distribution share one eigh, and
    # a served unconstrained DPP answers from the cached factor
    L = random_psd_ensemble(200, rank=60, seed=0)
    calls = {name: [] for name in ("eigh", "eigvalsh", "inv", "det")}
    with serve(L, registry=KernelRegistry()) as session:  # validates L unrecorded
        with monkeypatch.context() as patch:
            for name, sizes in calls.items():
                patch.setattr(np.linalg, name, _recording(getattr(np.linalg, name), sizes))
            if path == "warm":
                KernelFactorization(L).warm()
            elif path == "first-served-draw":
                session.sample(k=10, method="parallel", seed=0, backend="vectorized")
            else:
                dist = session.distribution()
                for _ in range(10):
                    dist.counting_batch([(0,), (1, 2), ()])
                dist.marginal_vector()
                dist.marginal_vector((3,))
    assert {name: sizes.count(200) for name, sizes in calls.items()} == \
        {"eigh": 1, "eigvalsh": 0, "inv": 0, "det": 0}


@pytest.mark.parametrize("route", ["direct", "served"])
def test_identical_items_are_never_sampled_together(route):
    B = np.random.default_rng(6).standard_normal((15, 6))
    B[4] = B[9]
    L = B @ B.T
    if route == "direct":
        subsets = [sample_symmetric_kdpp_parallel(L, 4, seed=s).subset for s in range(200)]
    else:
        with serve(L, registry=KernelRegistry()) as session:
            subsets = [session.sample(k=4, method="parallel", seed=s).subset
                       for s in range(200)]
    assert all(len(s) == 4 and not {4, 9} <= set(s) for s in subsets)


@pytest.mark.parametrize("seed", range(5))
def test_served_samples_match_dense_route(monkeypatch, seed):
    L = random_psd_ensemble(200, rank=60, seed=seed)
    with serve(L, registry=KernelRegistry()) as session:
        factored = session.sample(k=10, method="parallel", seed=seed, backend="vectorized")
    conditioned = []

    class Recorded(DenseRouteKDPP):
        def condition(self, include):
            conditioned.append(tuple(include))
            return super().condition(include)

    with monkeypatch.context() as patch:
        patch.setattr(repro.service.cache, "SymmetricKDPP", Recorded)
        with serve(L, registry=KernelRegistry()) as session:
            dense = session.sample(k=10, method="parallel", seed=seed, backend="vectorized")
    assert conditioned  # the reference route really ran
    assert factored.subset == dense.subset


@pytest.mark.parametrize("seed", range(5))
def test_served_samples_match_gram_route(monkeypatch, seed):
    L = random_psd_ensemble(200, rank=60, seed=seed)
    with serve(L, registry=KernelRegistry()) as session:
        circle = session.sample(k=10, method="parallel", seed=seed, backend="vectorized")
    queried = []

    class Recorded(GramRouteKDPP):
        def counting_batch(self, subsets):
            queried.append(len(subsets))
            return super().counting_batch(subsets)

    with monkeypatch.context() as patch:
        patch.setattr(repro.service.cache, "SymmetricKDPP", Recorded)
        with serve(L, registry=KernelRegistry()) as session:
            reference = session.sample(k=10, method="parallel", seed=seed, backend="vectorized")
    assert queried  # the reference route really ran
    assert circle.subset == reference.subset


@pytest.mark.parametrize("seed", range(5))
def test_lowrank_served_samples_match_dense_served(seed):
    # the same kernel registered as a factor answers from the same factor
    # spectrum, so the parallel sampler's draws agree seed for seed
    L = random_psd_ensemble(200, rank=60, seed=seed)
    with serve(L, registry=KernelRegistry()) as session:
        dense = session.sample(k=10, method="parallel", seed=seed, backend="vectorized")
    with serve(LowRankKernel(psd_factor(L)), registry=KernelRegistry()) as session:
        lowrank = session.sample(k=10, method="parallel", seed=seed, backend="vectorized")
    assert lowrank.subset == dense.subset


# ---------------------------------------------------------------------- #
# kernel-only work a k-DPP keeps after first use
# ---------------------------------------------------------------------- #
def _orders(function, orders, order_of):
    """``function``, appending each call's ESP order (its ``k``) to ``orders``."""
    def wrapper(*args, **kwargs):
        orders.append(order_of(*args, **kwargs))
        return function(*args, **kwargs)
    return wrapper


def _fresh_kdpp(session, k):
    """A new instance built from the session's cached artifacts, as the
    cache builds the served one."""
    fact = session.factorization
    if session.entry.kind == "lowrank":
        dist = LowRankKDPP(LowRankKernel(session.entry.matrix, validate=False), k, validate=False)
        return dist.attach_precomputed(factor_gram=fact.factor_gram, gram_eigh=fact.gram_eigh)
    dist = SymmetricKDPP(session.entry.matrix, k, validate=False)
    return dist.attach_precomputed(eigenvalues=fact.eigenvalues, factor=fact.factor,
                                   factor_gram=fact.factor_gram, gram_eigh=fact.gram_eigh)


class TestKeptKernelWork:
    @pytest.mark.parametrize("kernel", ["dense", "lowrank"])
    def test_served_root_work_runs_once_and_draws_match_fresh_instances(self, monkeypatch,
                                                                        kernel):
        L = random_psd_ensemble(200, rank=60, seed=3)
        matrix = L if kernel == "dense" else LowRankKernel(psd_factor(L))
        orders = {"marginals": [], "radius": [], "normalizer": []}
        with serve(matrix, registry=KernelRegistry()) as session:
            with monkeypatch.context() as patch:
                patch.setattr(repro.dpp.symmetric, "kdpp_marginals_from_factor", _orders(
                    repro.dpp.symmetric.kdpp_marginals_from_factor, orders["marginals"],
                    lambda spectrum, rotated, k: k))
                patch.setattr(repro.linalg.esp, "_saddle_radius", _orders(
                    repro.linalg.esp._saddle_radius, orders["radius"], lambda spectrum, k: k))
                patch.setattr(repro.dpp.symmetric, "elementary_symmetric_polynomials", _orders(
                    repro.dpp.symmetric.elementary_symmetric_polynomials, orders["normalizer"],
                    lambda values, max_order=None: max_order))
                served = [session.sample(k=10, method="parallel", seed=seed, backend="vectorized")
                          for seed in range(20)]
            fresh = [batched_sample(_fresh_kdpp(session, 10),
                                    kdpp_batched_config(10), seed, backend="vectorized")
                     for seed in range(20)]
        # the root is the one k = 10 instance (its children have k = 5 and 1)
        # and each child ran its own
        assert {name: calls.count(10) for name, calls in orders.items()} == \
            {"marginals": 1, "radius": 1, "normalizer": 1}
        assert orders["marginals"].count(5) == orders["radius"].count(5) == 20
        for mine, theirs in zip(served, fresh):
            assert mine.subset == theirs.subset
            assert (mine.report.rounds, mine.report.oracle_calls, mine.report.work,
                    mine.report.batch_sizes) == \
                (theirs.report.rounds, theirs.report.oracle_calls, theirs.report.work,
                 theirs.report.batch_sizes)

    @pytest.mark.parametrize("warm", [False, True], ids=["lazy", "warm"])
    @pytest.mark.parametrize("kernel", ["dense", "lowrank"])
    def test_first_request_charges_what_later_ones_do(self, kernel, warm):
        # the cache attaches the Gram's eigh to the served distribution, so
        # no request decomposes it: 74 then 73 oracle calls before, on a
        # dense kernel, with or without warm().  The last child, a 1-DPP,
        # forms and decomposes no Gram, and its normalizer is an order-1
        # count, not an r x r decomposition: 73 and 11,502,374 before
        L = random_psd_ensemble(200, rank=60, seed=0)
        matrix = L if kernel == "dense" else LowRankKernel(psd_factor(L))
        with serve(matrix, registry=KernelRegistry()) as session:
            if warm:
                session.warm()
            reports = [session.sample(k=10, method="parallel", seed=0).report for _ in range(3)]
        assert len({(r.rounds, r.oracle_calls, r.work) for r in reports}) == 1
        if kernel == "dense":
            assert (reports[0].oracle_calls, reports[0].work) == (71, 10_854_375)

    def test_sessions_of_one_registry_share_the_served_distribution(self):
        registry = KernelRegistry()
        registry.register("x", random_psd_ensemble(200, rank=60, seed=0))
        first, second = registry.session("x"), registry.session("x")
        first.sample(k=10, method="parallel", seed=0)
        again = first.sample(k=10, method="parallel", seed=0).report
        other = second.sample(k=10, method="parallel", seed=0).report
        assert (other.rounds, other.oracle_calls, other.work) == \
            (again.rounds, again.oracle_calls, again.work)
        assert first.distribution(10) is second.distribution(10)

    def test_attach_precomputed_clears_kept_values(self):
        B = psd_factor(random_psd_ensemble(60, rank=20, seed=3))
        other = np.ascontiguousarray(B * np.random.default_rng(4).uniform(0.5, 2.0, (60, 1)))
        dist = LowRankKDPP(B, 5)
        marginals = dist.marginal_vector()
        assert dist.marginal_vector() is marginals and not marginals.flags.writeable
        dist.partition_function(), dist.counting_batch([(0, 1)])
        gram = other.T @ other
        dist.attach_precomputed(factor=other, factor_gram=gram, gram_eigh=symmetrized_eigh(gram))
        expected = LowRankKDPP(other, 5)
        assert np.array_equal(dist.marginal_vector(), expected.marginal_vector())
        assert dist.partition_function() == expected.partition_function()
        assert np.array_equal(dist.counting_batch([(0, 1)]), expected.counting_batch([(0, 1)]))

    def test_racing_first_uses_store_equal_values(self):
        # 6 threads on 2+ cores race each kept value's first use on one
        # instance, with a short switch interval: every thread must read the
        # single-threaded values bit for bit
        L = random_psd_ensemble(120, rank=30, seed=8)
        reference = SymmetricKDPP(L, 6)
        expected = (reference.marginal_vector(), reference.partition_function(),
                    reference.counting_batch([(0, 1), (5, 9)]))
        for _ in range(5):
            shared = SymmetricKDPP(L, 6)
            shared._factor_spectrum()   # the spectrum is not a kept value
            start, seen, errors = threading.Barrier(6), [], []

            def draw():
                try:
                    start.wait(timeout=10)
                    seen.append((shared.marginal_vector(), shared.partition_function(),
                                 shared.counting_batch([(0, 1), (5, 9)])))
                except Exception as exc:  # reported below
                    errors.append(exc)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=draw) for _ in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
            finally:
                sys.setswitchinterval(interval)
            assert not errors and not any(thread.is_alive() for thread in threads)
            assert len(seen) == 6
            for marginals, z, counts in seen:
                assert np.array_equal(marginals, expected[0]) and z == expected[1]
                assert np.array_equal(counts, expected[2])


# ---------------------------------------------------------------------- #
# the last iteration: a 1-DPP answers from its factor's row norms
# ---------------------------------------------------------------------- #
#: items conditioned on at each level, down to a 1-DPP at depth 1, 2 and 3
_LEVELS = {1: (4,), 2: (3, 2), 3: (2, 2, 1)}


def _one_dpp_child(L, kernel, depth, seed):
    """A root with ``k = 1 + Σ levels``, conditioned level by level on random items."""
    sizes = _LEVELS[depth]
    k = 1 + sum(sizes)
    child = SymmetricKDPP(L, k) if kernel == "dense" else LowRankKDPP(psd_factor(L), k)
    rng = np.random.default_rng(seed)
    for size in sizes:
        child = child.condition(rng.choice(child.n, size=size, replace=False).tolist())
    return child


def _spectral_one_dpp(child):
    """The spectral route a 1-DPP took before: its factor's Gram eigh, the k-DPP formulas."""
    s, V = symmetrized_eigh(child.factor.T @ child.factor)
    marginals = kdpp_marginals_from_factor(s, child.factor @ V, 1)
    return marginals, float(elementary_symmetric_polynomials(s[s > 0], max_order=1)[1])


def _spectral_condition(self, include):
    """``SymmetricKDPP.condition`` with every child, a 1-DPP too, given its Gram."""
    items = check_subset(include, self.n)
    if not items:
        return self
    return self._conditioned(items, k=self.k - len(items))


class TestOneDPP:
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("kernel", ["dense", "lowrank"])
    def test_equals_the_spectral_formula(self, kernel, depth):
        L = random_psd_ensemble(200, rank=60, seed=depth)
        for seed in range(5):
            child = _one_dpp_child(L, kernel, depth, seed)
            assert (child.k, child.L, child._factor_gram) == (1, None, None)
            marginals, z = _spectral_one_dpp(child)
            np.testing.assert_allclose(child.marginal_vector(), marginals, rtol=1e-12, atol=0)
            assert child.partition_function() == pytest.approx(z, rel=1e-12)
            assert child.marginal_vector() is child.marginal_vector()
            assert not child.marginal_vector().flags.writeable
            # it answered without forming or decomposing a Gram
            assert child._factor_gram is None and child._gram_eigh is None

    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("kernel", ["dense", "lowrank"])
    def test_matches_brute_force(self, kernel, depth):
        L = random_psd_ensemble(10, rank=7, seed=depth)
        for seed in range(4):
            child = _one_dpp_child(L, kernel, depth, seed)
            given = sorted(set(range(10)) - set(child.ground_labels))
            L_cond, remaining = condition_ensemble(L, given)
            assert tuple(remaining.tolist()) == child.ground_labels
            exact = exact_kdpp_distribution(L_cond, 1).marginal_vector()
            np.testing.assert_allclose(child.marginal_vector(), exact, rtol=1e-9, atol=1e-12)
            assert child.partition_function() == pytest.approx(np.trace(L_cond), rel=1e-9)
            singles = [(i,) for i in range(child.n)]
            np.testing.assert_allclose(child.counting_batch(singles), np.diag(L_cond),
                                       rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("kernel", ["dense", "lowrank"])
    def test_served_draws_match_the_spectral_route(self, monkeypatch, kernel):
        # k = 10 runs batches 5, 4, 1: the last child is a 1-DPP.  Seed for
        # seed, the spectral route draws the same subsets; it also forms and
        # decomposes that child's r x r Gram and charges its normalizer as
        # an r x r decomposition, r = 60
        for seed in range(3):
            L = random_psd_ensemble(200, rank=60, seed=seed)
            matrix = L if kernel == "dense" else LowRankKernel(psd_factor(L))
            with serve(matrix, registry=KernelRegistry()) as session:
                rows = [session.sample(k=10, method="parallel", seed=s, backend="vectorized")
                        for s in range(10)]
            with monkeypatch.context() as patch:
                patch.setattr(SymmetricKDPP, "_reads_rows", property(lambda self: False))
                patch.setattr(SymmetricKDPP, "condition", _spectral_condition)
                with serve(matrix, registry=KernelRegistry()) as session:
                    spectral = [session.sample(k=10, method="parallel", seed=s,
                                               backend="vectorized") for s in range(10)]
            for mine, theirs in zip(rows, spectral):
                assert mine.subset == theirs.subset
                assert mine.report.batch_sizes == theirs.report.batch_sizes == [5, 4, 1]
                assert mine.report.rounds == theirs.report.rounds
                assert theirs.report.oracle_calls - mine.report.oracle_calls == 2
                assert theirs.report.work - mine.report.work == 3 * 60 ** 3 - 1

    @pytest.mark.parametrize("kernel", ["dense", "lowrank"])
    def test_served_draw_runs_one_gram_eigh(self, monkeypatch, kernel):
        # the root's Gram eigh is the cache's and the 1-DPP runs none: the
        # k = 5 child's is the one decomposition of a served k = 10 draw
        L = random_psd_ensemble(200, rank=60, seed=0)
        matrix = L if kernel == "dense" else LowRankKernel(psd_factor(L))
        with serve(matrix, registry=KernelRegistry()) as session:
            session.warm()
            session.sample(k=10, method="parallel", seed=0, backend="vectorized")
            for seed in range(1, 5):
                sizes = {"eigh": [], "eigvalsh": []}
                with monkeypatch.context() as patch:
                    for name, recorded in sizes.items():
                        patch.setattr(np.linalg, name, _recording(getattr(np.linalg, name),
                                                                  recorded))
                    session.sample(k=10, method="parallel", seed=seed, backend="vectorized")
                assert sizes == {"eigh": [60], "eigvalsh": []}
