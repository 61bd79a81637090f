"""Sublinear tier: LowRankKernel, intermediate sampling, and serving identity.

Three layers of pins:

* **exactness** — the intermediate sampler's output law is *exactly*
  ``DPP(B Bᵀ)``: total-variation distance against brute-force enumeration at
  small ``n`` stays under the sampling-noise floor (the accuracy-bench idiom
  of ``benchmarks/bench_accuracy_tv.py``), including where the projection
  chain's acceptance step rejects the most: ``k`` equal to the rank (every
  eigenvector selected) and a factor with two equal rows;
* **serving identity** — ``repro.serve(LowRankKernel(B))`` and
  ``repro.serve_cluster(...)`` draw byte-identical fixed-seed samples across
  every execution backend, fused and unfused, warm and cold, and their cache
  artifacts are keyed on the factor-pair fingerprint;
* **validation** — malformed factors fail at construction with
  :class:`~repro.utils.validation.ValidationError`, while layout quirks
  (fortran order, non-contiguity) are canonicalized, not rejected.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import repro
from repro.distributions.lowrank import LowRankDPP, LowRankKDPP, LowRankKernel
from repro.dpp import intermediate
from repro.dpp.exact import exact_dpp_distribution, exact_kdpp_distribution
from repro.dpp.intermediate import (
    lowrank_intermediate_basis,
    proposal_tables,
    sample_dpp_intermediate,
    sample_kdpp_intermediate,
)
from repro.dpp.symmetric import SymmetricDPP
from repro.linalg.schur import condition_ensemble
from repro.service import KernelRegistry
from repro.utils.fingerprint import kernel_fingerprint
from repro.utils.subsets import subset_key
from repro.utils.validation import ValidationError, check_factor
from repro.workloads import random_low_rank_factor_ensemble, rbf_factor_ensemble

# same statistical budget as benchmarks/bench_accuracy_tv.py: with this many
# draws the expected TV of a *correct* sampler stays well under the floor
NUM_SAMPLES = 1200
NOISE_FLOOR = 0.12


def _factor(n: int, rank: int, seed: int) -> np.ndarray:
    factor, _ = random_low_rank_factor_ensemble(n, rank, seed=seed)
    return factor


def _empirical_tv(sample_fn, exact, num_samples: int, seed: int) -> float:
    """TV distance between empirical frequencies and an exact distribution."""
    rng = np.random.default_rng(seed)
    counts: dict = {}
    for _ in range(num_samples):
        subset = tuple(sorted(sample_fn(rng)))
        counts[subset] = counts.get(subset, 0) + 1
    support = set(exact.support) | set(counts)
    tv = 0.0
    for subset in support:
        p = exact.probability_vector([subset])[0] if subset in exact.support else 0.0
        tv += abs(counts.get(subset, 0) / num_samples - p)
    return 0.5 * tv


# --------------------------------------------------------------------------- #
# exactness: TV distance against brute-force enumeration
# --------------------------------------------------------------------------- #
class TestIntermediateExactness:
    def test_dpp_tv_under_noise_floor(self):
        B = _factor(9, 3, seed=7)
        exact = exact_dpp_distribution(B @ B.T)
        tv = _empirical_tv(lambda rng: sample_dpp_intermediate(B, rng),
                           exact, NUM_SAMPLES, seed=11)
        assert tv < NOISE_FLOOR

    def test_kdpp_tv_under_noise_floor(self):
        B = _factor(9, 3, seed=8)
        exact = exact_kdpp_distribution(B @ B.T, 2)
        tv = _empirical_tv(lambda rng: sample_kdpp_intermediate(B, 2, rng),
                           exact, NUM_SAMPLES, seed=12)
        assert tv < NOISE_FLOOR

    def test_full_rank_kdpp_tv(self):
        # k = rank selects every column, so the chain runs all of its steps
        # and its last ones reject most proposals
        B = _factor(9, 3, seed=9)
        exact = exact_kdpp_distribution(B @ B.T, 3)
        tv = _empirical_tv(lambda rng: sample_kdpp_intermediate(B, 3, rng),
                           exact, NUM_SAMPLES, seed=13)
        assert tv < NOISE_FLOOR

    def test_equal_rows_tv_and_never_drawn_together(self):
        # once one of two equal rows is chosen the other's residual is zero:
        # its proposals must all reject
        B = _factor(9, 3, seed=10)
        B[1] = B[0]
        exact = exact_kdpp_distribution(B @ B.T, 3)
        draws = []

        def sample(rng):
            draws.append(sample_kdpp_intermediate(B, 3, rng))
            return draws[-1]

        tv = _empirical_tv(sample, exact, NUM_SAMPLES, seed=15)
        assert tv < NOISE_FLOOR
        assert not any({0, 1} <= set(subset) for subset in draws)

    def test_rbf_factor_kdpp_tv(self):
        B, _ = rbf_factor_ensemble(8, 4, seed=21)
        exact = exact_kdpp_distribution(B @ B.T, 3)
        tv = _empirical_tv(lambda rng: sample_kdpp_intermediate(LowRankKernel(B), 3, rng),
                           exact, NUM_SAMPLES, seed=14)
        assert tv < NOISE_FLOOR


# --------------------------------------------------------------------------- #
# the low-rank counting oracle agrees with the dense one
# --------------------------------------------------------------------------- #
class TestLowRankOracle:
    def test_counting_batch_matches_dense(self):
        B = _factor(12, 4, seed=3)
        L = B @ B.T
        dense = SymmetricDPP(L)
        lowrank = LowRankDPP(LowRankKernel(B))
        subsets = [(), (0,), (2, 5), (1, 4, 7), (0, 3, 6, 9)]
        np.testing.assert_allclose(lowrank.counting_batch(subsets),
                                   dense.counting_batch(subsets),
                                   rtol=1e-8, atol=1e-8)
        # the rest of the oracle surface, against brute-force enumeration
        assert isinstance(lowrank, SymmetricDPP)
        exact = exact_dpp_distribution(L)
        np.testing.assert_allclose(lowrank.joint_marginals_batch(subsets),
                                   [exact.counting(s) for s in subsets], rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(lowrank.marginal_vector(), exact.marginal_vector(),
                                   rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(lowrank.marginal_vector((2,)), exact.marginal_vector((2,)),
                                   rtol=1e-8, atol=1e-10)
        sizes = np.zeros(13)
        for subset, probability in exact.items():
            sizes[len(subset)] += probability
        np.testing.assert_allclose(lowrank.cardinality_distribution(), sizes, atol=1e-10)
        z = float(np.linalg.det(np.eye(12) + L))
        assert lowrank.partition_function() == pytest.approx(z, rel=1e-10)
        assert dense.partition_function() == pytest.approx(z, rel=1e-10)
        # a conditioned child counts Σ_{S ⊇ T} det(L^{(1,4)}_S) on the Schur complement
        child = lowrank.condition((1, 4))
        L_cond, _ = condition_ensemble(L, (1, 4))
        exact_child = exact.condition((1, 4))
        local = [(), (0,), (2, 5), (1, 6, 7)]
        z_child = float(np.linalg.det(np.eye(10) + L_cond))
        np.testing.assert_allclose(child.counting_batch(local),
                                   [exact_child.counting(s) * z_child for s in local],
                                   rtol=1e-8, atol=1e-10)

    def test_partition_function_is_char_poly(self):
        B = _factor(10, 3, seed=4)
        expected = float(np.linalg.det(np.eye(10) + B @ B.T))
        assert LowRankDPP(LowRankKernel(B)).partition_function() == pytest.approx(expected)

    def test_kdpp_cardinality_and_marginals(self):
        B = _factor(10, 4, seed=5)
        dist = LowRankKDPP(LowRankKernel(B), 3)
        exact = exact_kdpp_distribution(B @ B.T, 3)
        marginals = dist.marginal_vector()
        expected = np.zeros(10)
        for subset in exact.support:
            p = exact.probability_vector([subset])[0]
            for i in subset:
                expected[i] += p
        np.testing.assert_allclose(marginals, expected, rtol=1e-8, atol=1e-10)

    def test_parallel_sample_work_does_not_grow_with_n(self):
        # a factor-only kernel decomposes r x r Grams, so the PRAM work it
        # charges per served parallel sample is independent of n
        work = []
        for n in (500, 20_000):
            B = _factor(n, 16, seed=1)
            with repro.serve(LowRankKernel(B), registry=KernelRegistry()) as session:
                result = session.sample(k=8, method="parallel", seed=1, backend="vectorized")
            work.append(result.report.work)
        assert max(work) <= 2 * min(work), work

    def test_warm_lowrank_draw_work_grows_sublinearly_in_n(self):
        # a warm intermediate draw sums O(n/b) table entries per selected
        # column and scans one b-row block per proposal, b ≈ √(n/k): its
        # work grows like √n, where one pass over all n rows grows 100x here
        work = []
        for n in (2_000, 200_000):
            B = _factor(n, 16, seed=1)
            with repro.serve(LowRankKernel(B), registry=KernelRegistry()) as session:
                session.warm()
                work.append(sum(session.sample(k=8, seed=seed).report.work
                                for seed in range(8)))
        assert work[1] <= 15 * work[0], work

    def test_whitened_basis_spans_factor(self):
        B = _factor(20, 5, seed=6)
        eigenvalues, coords = lowrank_intermediate_basis(B)
        # marginal kernel diagonal from the whitened coordinates matches dense
        L = B @ B.T
        K = L @ np.linalg.inv(np.eye(20) + L)
        lev = np.einsum("ij,j,ij->i", coords, eigenvalues / (1.0 + eigenvalues), coords)
        np.testing.assert_allclose(lev, np.diag(K), rtol=1e-8, atol=1e-10)


# --------------------------------------------------------------------------- #
# the two-level leverage search against one flat inverse CDF over all rows
# --------------------------------------------------------------------------- #
def _flat_row(coords, mask, position):
    """The O(n·m) search the two-level one replaces: one inverse CDF over all rows."""
    selected = coords[:, mask]
    cumulative = np.cumsum(np.einsum("ij,ij->i", selected, selected))
    row = int(np.searchsorted(cumulative, position * cumulative[-1], side="right"))
    return min(row, coords.shape[0] - 1)


def _two_level_row(coords, mask, position):
    selected = np.flatnonzero(mask)
    blocks = proposal_tables(coords)[selected].sum(axis=0).tolist()
    b = intermediate._block_rows(*coords.shape)
    return intermediate._propose(coords, selected, blocks, b, position)


def _orthonormal_rows(n, rank, zero_rows, seed):
    """``n x rank`` orthonormal columns whose ``zero_rows`` are exactly zero."""
    live = np.setdiff1d(np.arange(n), zero_rows)
    coords = np.zeros((n, rank))
    coords[live] = np.linalg.qr(np.random.default_rng(seed).standard_normal(
        (live.size, rank)))[0]
    return coords


def reference_projection_chain(coords, tables, mask, rng):
    """The projection chain with one ``rng.random(2)`` per proposal.

    Kept as the reference of the chain that reads its uniforms in blocks: the
    same proposals, residuals and acceptance test, with the uniforms drawn
    two at a time.
    """
    selected = np.flatnonzero(mask)
    m = selected.size
    if m == 0:
        return ()
    b = intermediate._block_rows(*coords.shape)
    blocks = tables[selected].sum(axis=0).tolist()
    basis = np.empty((m, m))
    chosen = []
    while len(chosen) < m:
        position, accept = rng.random(2).tolist()
        i, row, leverage = intermediate._propose(coords, selected, blocks, b, position)
        if i in chosen:
            continue
        span = basis[:len(chosen)]
        residual = row - (span @ row) @ span
        norm2 = float(residual @ residual)
        if accept * leverage < norm2:
            basis[len(chosen)] = residual / math.sqrt(norm2)
            chosen.append(i)
    return subset_key(chosen)


class TestBlockReadChain:
    @pytest.mark.parametrize("n, rank", [(48, 6), (200, 16), (2_000, 30)])
    def test_matches_the_pairwise_chain_and_its_stream(self, n, rank):
        # 120 fixed-seed masks per kernel, from one row to all of them: the
        # same subset, and the generator left where the pairwise reads leave it
        _, coords = lowrank_intermediate_basis(_factor(n, rank, seed=rank))
        tables = proposal_tables(coords)
        masks = np.random.default_rng(n)
        for case in range(120):
            mask = masks.random(rank) < masks.uniform(0.05, 1.0)
            fast, slow = np.random.default_rng(case), np.random.default_rng(case)
            assert intermediate._projection_chain(coords, tables, mask, fast) == \
                reference_projection_chain(coords, tables, mask, slow)
            assert fast.random() == slow.random()


class TestTwoLevelLeverageSearch:
    # uniform positions away from 0 and 1, and 0 itself
    GRID = np.concatenate([(np.arange(257) + 0.5) / 257,
                           np.random.default_rng(7).random(200), [0.0]])

    def _masks(self, rank, seed):
        rng = np.random.default_rng(seed)
        masks = [rng.random(rank) < 0.5 for _ in range(6)] + [np.ones(rank, dtype=bool)]
        return [mask for mask in masks if mask.any()]

    @pytest.mark.parametrize("n, rank", [(1, 1), (7, 3), (200, 16), (1_000, 5), (5_000, 12)])
    def test_picks_the_flat_search_row(self, n, rank):
        _, coords = lowrank_intermediate_basis(_factor(n, rank, seed=n + rank))
        for mask in self._masks(coords.shape[1], seed=n):
            for position in self.GRID:
                assert _two_level_row(coords, mask, position)[0] == \
                    _flat_row(coords, mask, position)

    @pytest.mark.parametrize("n", [5, 24, 25])   # n < b, n = b·j, n = b·j + 1
    def test_block_edges_pick_the_flat_search_row(self, monkeypatch, n):
        monkeypatch.setattr(intermediate, "_block_rows", lambda n, k: 8)
        coords = _orthonormal_rows(n, 3, zero_rows=[], seed=n)
        assert proposal_tables(coords).shape == (3, -(-n // 8))
        for mask in self._masks(3, seed=n):
            for position in self.GRID:
                assert _two_level_row(coords, mask, position)[0] == \
                    _flat_row(coords, mask, position)

    # blocks of 4 rows: a zero block in the middle (rows 8-11) and a zero row
    # inside a live block; 24 rows end on a zero block, 25 on a zero row
    @pytest.mark.parametrize("n, zero_rows", [(24, [8, 9, 10, 11, 14, 20, 21, 22, 23]),
                                              (25, [8, 9, 10, 11, 14, 24])])
    def test_zero_rows_are_never_proposed(self, monkeypatch, n, zero_rows):
        monkeypatch.setattr(intermediate, "_block_rows", lambda n, k: 4)
        coords = _orthonormal_rows(n, 4, zero_rows, seed=n)
        last_live = max(set(range(n)) - set(zero_rows))
        with np.errstate(divide="raise", invalid="raise"):
            for mask in self._masks(4, seed=n):
                for position in self.GRID:
                    row, _, leverage = _two_level_row(coords, mask, position)
                    assert row not in zero_rows and leverage > 0
                    assert row == _flat_row(coords, mask, position)
                # a uniform never reaches 1, but position · total can round
                # up to the total: the last row with mass, not a zero row
                assert _two_level_row(coords, mask, 1.0)[0] == last_live
            for seed in range(40):
                subset = sample_kdpp_intermediate(coords, 3, seed,
                                                  whitened=(np.ones(4), coords))
                assert len(subset) == 3 and not set(subset) & set(zero_rows)

    def test_tables_of_another_kernel_are_refused(self):
        whitened = lowrank_intermediate_basis(_factor(40, 4, seed=1))
        other = proposal_tables(lowrank_intermediate_basis(_factor(90, 4, seed=2))[1])
        with pytest.raises(ValueError, match="proposal tables"):
            sample_kdpp_intermediate(None, 2, 0, whitened=whitened, tables=other)


# --------------------------------------------------------------------------- #
# serving identity: backends x fusion x cluster, cache keyed on the factor
# --------------------------------------------------------------------------- #
class TestServingByteIdentity:
    N, RANK, K = 48, 6, 4
    SEEDS = (0, 1, 2, 17)

    def _session(self, B, **kwargs):
        return repro.serve(LowRankKernel(B), registry=KernelRegistry(), **kwargs)

    def test_serve_matches_cold_sampler_and_backends(self):
        B = _factor(self.N, self.RANK, seed=31)
        kernel = LowRankKernel(B)
        cold_dpp = [sample_dpp_intermediate(kernel, seed) for seed in self.SEEDS]
        cold_kdpp = [sample_kdpp_intermediate(kernel, self.K, seed) for seed in self.SEEDS]
        for backend in ("serial", "vectorized", "threads", "process"):
            session = self._session(B, backend=backend)
            assert [session.sample(seed=s).subset for s in self.SEEDS] == cold_dpp
            assert [session.sample(k=self.K, seed=s).subset for s in self.SEEDS] == cold_kdpp
            session.close()

    def test_warm_and_fused_identity(self):
        B = _factor(self.N, self.RANK, seed=32)
        cold = self._session(B)
        reference = [cold.sample(k=self.K, seed=s).subset for s in self.SEEDS]
        cold.close()

        warm = self._session(B).warm()
        assert [warm.sample(k=self.K, seed=s).subset for s in self.SEEDS] == reference
        for seed in self.SEEDS:
            warm.submit(k=self.K, seed=seed, method="lowrank")
        assert [r.subset for r in warm.drain()] == reference
        warm.close()

    def test_cluster_matches_single_node(self):
        B = _factor(self.N, self.RANK, seed=33)
        single = self._session(B)
        reference = [single.sample(k=self.K, seed=s).subset for s in self.SEEDS]
        unconstrained = [single.sample(seed=s).subset for s in self.SEEDS]
        single.close()

        session = repro.serve_cluster(LowRankKernel(B), nodes=3, replication=2, warm=True)
        try:
            assert [session.sample(k=self.K, seed=s).subset for s in self.SEEDS] == reference
            assert [session.sample(seed=s).subset for s in self.SEEDS] == unconstrained
            for seed in self.SEEDS:
                session.submit(k=self.K, seed=seed, method="lowrank")
            assert [r.subset for r in session.drain()] == reference
        finally:
            session.close()

    def test_proposal_tables_follow_the_whitening(self):
        B = _factor(self.N, self.RANK, seed=36)
        session = self._session(B).warm()
        try:
            for epoch in range(3):
                fact = session.factorization
                # built once per epoch before any draw: by warm(), then by
                # each update from the patched factor
                assert fact.artifact_stats()["lowrank_proposal_tables"]["misses"] == 1
                coords = fact.lowrank_whitened[1]
                tables = fact.lowrank_proposal_tables
                np.testing.assert_array_equal(tables, proposal_tables(coords))
                matrix = session.entry.matrix
                for seed in self.SEEDS:
                    served = session.sample(k=self.K, seed=seed).subset
                    assert served == sample_kdpp_intermediate(matrix, self.K, seed)
                    assert served == sample_kdpp_intermediate(
                        matrix, self.K, seed, whitened=fact.lowrank_whitened, tables=tables)
                if epoch == 0:
                    session.append_items(np.full((3, self.RANK), 0.2))
                elif epoch == 1:
                    session.delete_items([0, 5])
            assert session.entry.matrix.shape[0] == self.N + 1
        finally:
            session.close()

    def test_cache_keyed_on_factor_fingerprint(self):
        B = _factor(self.N, self.RANK, seed=34)
        fingerprint = kernel_fingerprint(np.ascontiguousarray(B), kind="lowrank")
        registry = KernelRegistry()
        entry = registry.register("lr", LowRankKernel(B))
        assert entry.kind == "lowrank"
        assert entry.fingerprint == fingerprint
        # a fortran-ordered duplicate re-keys to the same canonical fingerprint
        duplicate = registry.register("lr-f", np.asfortranarray(B.copy()), kind="lowrank")
        assert duplicate.fingerprint == fingerprint

    def test_registry_rejects_mismatched_kind(self):
        B = _factor(12, 3, seed=35)
        with pytest.raises(ValueError):
            KernelRegistry().register("bad", LowRankKernel(B), kind="nonsymmetric")
        with pytest.raises(ValueError):
            repro.serve(LowRankKernel(B), kind="partition", registry=KernelRegistry())


# --------------------------------------------------------------------------- #
# validation: malformed factors fail fast, layout quirks canonicalize
# --------------------------------------------------------------------------- #
class TestFactorValidation:
    def test_rejects_non_2d_and_bad_shapes(self):
        with pytest.raises(ValidationError):
            check_factor(np.ones(5))
        with pytest.raises(ValidationError):
            check_factor(np.ones((3, 7)))  # k > n
        with pytest.raises(ValidationError):
            check_factor(np.ones((4, 0)))

    def test_rejects_non_finite_and_rank_deficient(self):
        bad = np.ones((6, 2))
        bad[3, 1] = np.nan
        with pytest.raises(ValidationError):
            check_factor(bad)
        degenerate = np.ones((6, 2))  # duplicate columns: BᵀB singular
        with pytest.raises(ValidationError):
            LowRankKernel(degenerate)

    def test_canonicalizes_layout(self):
        B = _factor(10, 3, seed=41)
        fortran = np.asfortranarray(B.copy())
        strided = np.repeat(B, 2, axis=0)[::2]
        for variant in (fortran, strided):
            kernel = LowRankKernel(variant)
            assert kernel.factor.flags["C_CONTIGUOUS"]
            assert kernel.fingerprint == LowRankKernel(B).fingerprint
        assert check_factor(B.astype(np.float32)).dtype == np.float64

    def test_from_dense_recovers_low_rank(self):
        B = _factor(14, 4, seed=42)
        L = B @ B.T
        kernel = LowRankKernel.from_dense(L)
        assert kernel.rank == 4
        np.testing.assert_allclose(kernel.materialize(), L, rtol=1e-8, atol=1e-8)
