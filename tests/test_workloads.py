"""Tests for synthetic workload generators."""

import numpy as np
import pytest

from repro.dpp.kernels import ensemble_to_kernel
from repro.linalg.psd import is_npsd, is_psd
from repro.workloads import (
    bounded_spectrum_ensemble,
    clustered_ensemble,
    random_low_rank_ensemble,
    random_npsd_ensemble,
    random_psd_ensemble,
    rbf_kernel_ensemble,
    synthetic_catalog,
    synthetic_documents,
)
from repro.workloads.datasets import catalog_to_ensemble, documents_to_ensemble


class TestKernelGenerators:
    def test_random_psd_is_psd(self):
        assert is_psd(random_psd_ensemble(10, seed=0))

    def test_random_psd_rank(self):
        L = random_psd_ensemble(10, rank=3, seed=1)
        assert np.linalg.matrix_rank(L, tol=1e-8) == 3

    def test_random_psd_invalid_rank(self):
        with pytest.raises(ValueError):
            random_psd_ensemble(5, rank=9)

    def test_low_rank_ensemble(self):
        L = random_low_rank_ensemble(8, rank=4, seed=2)
        eigs = np.linalg.eigvalsh(L)
        assert np.sum(eigs > 1e-9) == 4
        assert is_psd(L)

    def test_low_rank_invalid_rank(self):
        with pytest.raises(ValueError):
            random_low_rank_ensemble(5, rank=0)

    def test_rbf_is_psd(self):
        L, features = rbf_kernel_ensemble(12, seed=3)
        assert is_psd(L, tol=1e-7)
        assert features.shape == (12, 5)

    def test_rbf_quality_scaling(self):
        quality = np.full(6, 2.0)
        L, _ = rbf_kernel_ensemble(6, quality=quality, seed=4)
        assert np.allclose(np.diag(L), 4.0)

    def test_clustered_ensemble(self):
        L, parts = clustered_ensemble([3, 5], seed=5)
        assert is_psd(L, tol=1e-7)
        assert [len(p) for p in parts] == [3, 5]
        assert sorted(i for p in parts for i in p) == list(range(8))

    def test_clustered_invalid_sizes(self):
        with pytest.raises(ValueError):
            clustered_ensemble([0, 3])

    def test_npsd_ensemble(self):
        L = random_npsd_ensemble(10, seed=6)
        assert is_npsd(L)
        assert not np.allclose(L, L.T)

    def test_bounded_spectrum_lambda_max(self):
        L = bounded_spectrum_ensemble(15, kernel_lambda_max=0.2, seed=7)
        K = ensemble_to_kernel(L)
        assert np.linalg.eigvalsh(0.5 * (K + K.T)).max() <= 0.2 + 1e-8

    def test_bounded_spectrum_expected_size(self):
        L = bounded_spectrum_ensemble(20, kernel_lambda_max=0.5, expected_size=3.0, seed=8)
        K = ensemble_to_kernel(L)
        assert np.trace(K) == pytest.approx(3.0, rel=0.05)

    def test_bounded_spectrum_invalid_lambda(self):
        with pytest.raises(ValueError):
            bounded_spectrum_ensemble(5, kernel_lambda_max=1.5)

    def test_spiked_spectrum_shape(self):
        from repro.workloads import spiked_spectrum_ensemble

        L = spiked_spectrum_ensemble(12, num_spikes=2, spike_value=0.9, background=0.01, seed=9)
        K = ensemble_to_kernel(L)
        eigs = np.sort(np.linalg.eigvalsh(0.5 * (K + K.T)))[::-1]
        assert eigs[0] == pytest.approx(0.9, abs=1e-6)
        assert eigs[1] == pytest.approx(0.9, abs=1e-6)
        assert eigs[2] == pytest.approx(0.01, abs=1e-6)

    def test_spiked_spectrum_invalid_args(self):
        from repro.workloads import spiked_spectrum_ensemble

        with pytest.raises(ValueError):
            spiked_spectrum_ensemble(5, spike_value=1.2)
        with pytest.raises(ValueError):
            spiked_spectrum_ensemble(5, num_spikes=9)


class TestGraphsAndDatasets:
    def test_synthetic_documents(self):
        docs = synthetic_documents(20, num_topics=3, seed=0)
        assert len(docs) == 20
        assert all(0 <= d.topic < 3 for d in docs)
        L = documents_to_ensemble(docs)
        assert is_psd(L, tol=1e-7)

    def test_synthetic_catalog(self):
        items = synthetic_catalog(15, num_categories=3, seed=1)
        assert len(items) == 15
        L, parts = catalog_to_ensemble(items)
        assert is_psd(L, tol=1e-7)
        assert sum(len(p) for p in parts) == 15

    def test_generators_are_deterministic(self):
        a = random_psd_ensemble(6, seed=42)
        b = random_psd_ensemble(6, seed=42)
        assert np.allclose(a, b)
