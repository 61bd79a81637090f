"""Property-based tests (hypothesis) for incremental factorization updates.

The secular-equation machinery in :mod:`repro.linalg.updates` must agree with
direct refactorization on exactly the inputs that break naive implementations:
near-degenerate eigenvalue clusters (where the eigenbasis is only defined up
to rotation), zero-norm update vectors, downdates that graze indefiniteness,
and updated-then-conditioned ensembles (the :mod:`repro.linalg.schur`
interaction the module docstring promises).
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.linalg.schur import condition_ensemble, schur_complement
from repro.linalg.updates import KernelUpdate, rank_one_eigh_update
from repro.linalg.batch import factor_from_eigh, psd_factor

SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------- #
# strategies
# ---------------------------------------------------------------------- #
@st.composite
def eigh_instances(draw, max_n=8, clustered=False):
    """(eigenvalues, eigenvectors, z, rho) with an exact orthonormal basis."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    raw = draw(st.lists(st.floats(min_value=-3, max_value=3, allow_nan=False),
                        min_size=n, max_size=n))
    d = np.sort(np.asarray(raw, dtype=float))
    if clustered and n >= 2:
        # collapse a prefix into an exactly degenerate cluster, and push two
        # more values within the deflation tolerance of each other
        half = max(2, n // 2)
        d[:half] = d[0]
        if n > half:
            d[half] = d[half - 1] + 1e-14
        d = np.sort(d)
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
    z = rng.standard_normal(n)
    rho = draw(st.sampled_from([-1.5, -0.4, 0.3, 1.0, 2.5]))
    return d, basis, z, float(rho)


# ---------------------------------------------------------------------- #
# rank_one_eigh_update vs direct refactorization
# ---------------------------------------------------------------------- #
class TestRankOneEighUpdate:
    @SETTINGS
    @given(eigh_instances())
    def test_matches_direct_eigh(self, instance):
        d, V, z, rho = instance
        A = V @ np.diag(d) @ V.T
        new_d, new_V = rank_one_eigh_update(d, V, z, rho)
        target = 0.5 * ((A + rho * np.outer(z, z))
                        + (A + rho * np.outer(z, z)).T)
        assert np.all(np.diff(new_d) >= 0)
        np.testing.assert_allclose(new_d, np.linalg.eigvalsh(target),
                                   rtol=1e-8, atol=1e-8)
        np.testing.assert_allclose(new_V @ np.diag(new_d) @ new_V.T, target,
                                   rtol=1e-8, atol=1e-8)
        np.testing.assert_allclose(new_V.T @ new_V, np.eye(d.size),
                                   atol=1e-10)

    @SETTINGS
    @given(eigh_instances(clustered=True))
    def test_survives_degenerate_clusters(self, instance):
        d, V, z, rho = instance
        A = V @ np.diag(d) @ V.T
        new_d, new_V = rank_one_eigh_update(d, V, z, rho)
        target = 0.5 * ((A + rho * np.outer(z, z))
                        + (A + rho * np.outer(z, z)).T)
        np.testing.assert_allclose(new_d, np.linalg.eigvalsh(target),
                                   rtol=1e-7, atol=1e-7)
        np.testing.assert_allclose(new_V @ np.diag(new_d) @ new_V.T, target,
                                   rtol=1e-7, atol=1e-7)
        np.testing.assert_allclose(new_V.T @ new_V, np.eye(d.size),
                                   atol=1e-9)

    def test_zero_vector_and_zero_weight_are_exact_noops(self):
        d = np.array([0.5, 1.0, 2.0])
        V = np.eye(3)
        for z, rho in ((np.zeros(3), 1.0), (np.ones(3), 0.0)):
            new_d, new_V = rank_one_eigh_update(d, V, z, rho)
            np.testing.assert_array_equal(new_d, d)
            np.testing.assert_array_equal(new_V, V)

    def test_rejects_descending_eigenvalues(self):
        with pytest.raises(ValueError, match="ascending"):
            rank_one_eigh_update(np.array([2.0, 1.0]), np.eye(2),
                                 np.ones(2), 1.0)

    @SETTINGS
    @given(eigh_instances(max_n=6))
    def test_factor_from_patched_eigh_spans_the_ensemble(self, instance):
        d, V, z, rho = instance
        A = V @ np.diag(d) @ V.T
        target = 0.5 * ((A + rho * np.outer(z, z))
                        + (A + rho * np.outer(z, z)).T)
        new_d, new_V = rank_one_eigh_update(d, V, z, rho)
        patched = factor_from_eigh(new_d, new_V)
        direct = psd_factor(0.5 * (target + target.T))
        # both factors reconstruct the PSD part of the mutated ensemble
        # (column counts may differ by eigenvalues grazing the rank tol,
        # but the reconstructions must agree)
        np.testing.assert_allclose(patched @ patched.T, direct @ direct.T,
                                   rtol=1e-7, atol=1e-7)
        assert patched.shape[0] == d.size


# ---------------------------------------------------------------------- #
# interaction with Schur conditioning (the schur.py edge cases)
# ---------------------------------------------------------------------- #
class TestUpdateThenCondition:
    @SETTINGS
    @given(eigh_instances(max_n=6), st.integers(min_value=0, max_value=5))
    def test_update_then_condition_equals_condition_of_mutated(self, instance,
                                                               pick):
        d, V, z, rho = instance
        n = d.size
        if n < 2:
            return
        L = V @ np.diag(np.abs(d) + 0.2) @ V.T
        L = 0.5 * (L + L.T)
        mutated = L + rho * np.outer(z, z)
        mutated = 0.5 * (mutated + mutated.T)
        if np.linalg.eigvalsh(mutated).min() < 1e-6:
            return
        include = [pick % n]
        via_update, labels_a = condition_ensemble(mutated, include)
        # the same conditioning computed from the patched eigendecomposition
        new_d, new_V = rank_one_eigh_update(*np.linalg.eigh(L), z, rho)
        rebuilt = new_V @ np.diag(new_d) @ new_V.T
        via_patch, labels_b = condition_ensemble(0.5 * (rebuilt + rebuilt.T),
                                                 include)
        np.testing.assert_array_equal(labels_a, labels_b)
        np.testing.assert_allclose(via_patch, via_update, rtol=1e-6, atol=1e-6)

    @SETTINGS
    @given(st.integers(min_value=2, max_value=7),
           st.integers(min_value=0, max_value=2**31 - 1))
    def test_nested_schur_conditioning_associates(self, n, seed):
        """Conditioning on {i} then {j} equals conditioning on {i, j} once."""
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((n, n))
        A = B @ B.T + np.eye(n)
        if n < 3:
            return
        once = schur_complement(A, [0, 1])
        first = schur_complement(A, [0])
        # after removing row/col 0, original index 1 is the new index 0
        twice = schur_complement(first, [0])
        np.testing.assert_allclose(twice, once, rtol=1e-9, atol=1e-9)

    def test_block_diagonal_complement_is_the_other_block(self):
        A = np.block([[2.0 * np.eye(2), np.zeros((2, 3))],
                      [np.zeros((3, 2)), 5.0 * np.eye(3)]])
        np.testing.assert_allclose(schur_complement(A, [0, 1]),
                                   5.0 * np.eye(3))


# ---------------------------------------------------------------------- #
# the serializable descriptor
# ---------------------------------------------------------------------- #
class TestKernelUpdateDescriptor:
    def test_validation_matrix(self):
        up = KernelUpdate.rank_one(np.ones(4))
        up.validate_for("symmetric", 4)
        with pytest.raises(ValueError, match="does not apply"):
            up.validate_for("lowrank", 4)
        with pytest.raises(ValueError, match="length"):
            up.validate_for("symmetric", 5)
        rows = KernelUpdate.append_rows(np.ones((2, 3)))
        with pytest.raises(ValueError, match="does not apply"):
            rows.validate_for("symmetric", 4)
        with pytest.raises(ValueError, match="at least one"):
            KernelUpdate.delete_rows([])
        with pytest.raises(ValueError, match="duplicate"):
            KernelUpdate.delete_rows([1, 1])
        with pytest.raises(ValueError, match="every row"):
            KernelUpdate.delete_rows([0, 1]).validate_for("lowrank", 2)

    def test_chain_fingerprint_is_deterministic_and_order_sensitive(self):
        a = KernelUpdate.rank_one(np.arange(3.0), weight=0.5)
        b = KernelUpdate.rank_one(np.arange(3.0), weight=0.25)
        base = "f" * 64
        assert a.chained_fingerprint(base) == a.chained_fingerprint(base)
        assert a.chained_fingerprint(base) != b.chained_fingerprint(base)
        ab = b.chained_fingerprint(a.chained_fingerprint(base))
        ba = a.chained_fingerprint(b.chained_fingerprint(base))
        assert ab != ba
        # and derived keys never collide with content fingerprints
        from repro.utils.fingerprint import array_fingerprint

        assert a.chained_fingerprint(base) != array_fingerprint(
            *a.arrays(), extra=a.signature())

    def test_apply_matches_dense_arithmetic(self):
        rng = np.random.default_rng(3)
        L = rng.standard_normal((4, 4))
        u = rng.standard_normal(4)
        v = rng.standard_normal(4)
        sym = KernelUpdate.rank_one(u, v, weight=0.7).apply(L, "symmetric")
        np.testing.assert_allclose(
            sym, L + 0.7 * 0.5 * (np.outer(u, v) + np.outer(v, u)))
        nonsym = KernelUpdate.rank_one(u, v, weight=0.7).apply(L, "nonsymmetric")
        np.testing.assert_allclose(nonsym, L + 0.7 * np.outer(u, v))
        assert not sym.flags.writeable

    @pytest.mark.parametrize("op", ["append_rows", "delete_rows"])
    def test_apply_freezes_its_result_without_copying_it(self, op):
        # cluster-stream's factor shape: the result is frozen in place, so
        # apply allocates it once and never holds a second copy
        rng = np.random.default_rng(4)
        B = rng.standard_normal((20_000, 16))
        B.flags.writeable = False
        if op == "append_rows":
            update = KernelUpdate.append_rows(rng.standard_normal((3, 16)))
            expected = np.concatenate([B, update.rows])
        else:
            update = KernelUpdate.delete_rows([5, 17, 19_999])
            expected = np.delete(B, [5, 17, 19_999], axis=0)
        tracemalloc.start()
        try:
            out = update.apply(B, "lowrank")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(out, expected)
        assert not out.flags.writeable and out.flags.c_contiguous
        assert not np.shares_memory(out, B)
        assert peak < 1.5 * out.nbytes

    @pytest.mark.parametrize("n", [7, 300, 2000])
    def test_dense_apply_is_the_one_outer_update_bitwise(self, n):
        rng = np.random.default_rng(n)
        L = rng.standard_normal((n, n))
        u, v = rng.standard_normal(n), rng.standard_normal(n)
        update = KernelUpdate.rank_one(u, v, weight=0.7)
        terms = update.rank_one_terms("symmetric")
        # the symmetrized u vᵀ + v uᵀ splits into terms of both signs
        assert sorted(np.sign(rho) for _z, rho in terms) == [-1.0, 1.0]
        expected = L.copy()
        for z, rho in terms:
            expected += rho * np.outer(z, z)
        assert np.array_equal(update.apply(L, "symmetric"), expected)
        assert np.array_equal(update.apply(L, "nonsymmetric"),
                              L + 0.7 * np.outer(u, v))

    def test_dense_apply_forms_no_second_square_array(self):
        rng = np.random.default_rng(5)
        L = rng.standard_normal((2000, 2000))
        update = KernelUpdate.rank_one(rng.standard_normal(2000),
                                       rng.standard_normal(2000), weight=-0.3)
        tracemalloc.start()
        try:
            out = update.apply(L, "symmetric")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * out.nbytes

    def test_delta_nbytes_counts_payload_only(self):
        up = KernelUpdate.append_rows(np.ones((3, 5)))
        assert up.delta_nbytes == 3 * 5 * 8
        assert KernelUpdate.delete_rows([1, 2]).delta_nbytes == 0
