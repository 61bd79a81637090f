"""End-to-end integration tests across modules.

These tests exercise the public API the way the examples and benchmarks do:
depth comparisons between parallel samplers and sequential baselines, chained
conditioning, workload-to-sampler pipelines, and the paper's headline
quadratic-speedup claim on mid-size instances.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.core.sequential import sequential_sample
from repro.dpp.exact import exact_kdpp_distribution
from repro.dpp.spectral import sample_kdpp_spectral
from repro.dpp.symmetric import SymmetricKDPP
from repro.planar.graphs import grid_graph
from repro.pram.tracker import Tracker, use_tracker
from repro.workloads import random_psd_ensemble, rbf_kernel_ensemble
from repro.workloads.datasets import documents_to_ensemble, synthetic_documents


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__

    def test_top_level_exports(self):
        for name in (
            "sample_symmetric_kdpp_parallel",
            "sample_nonsymmetric_kdpp_parallel",
            "sample_partition_dpp_parallel",
            "sample_planar_matching_parallel",
            "sequential_sample",
            "Tracker",
        ):
            assert hasattr(repro, name)

    def test_import_leaves_networkx_unloaded(self):
        # repro.planar is networkx's only user; its names resolve on first read
        src = os.path.dirname(os.path.dirname(repro.__file__))
        script = ("import sys, repro\n"
                  "assert 'networkx' not in sys.modules, 'import repro loaded networkx'\n"
                  "assert 'planar' in repro.__all__\n"
                  "assert callable(repro.sample_planar_matching_parallel)\n"
                  "assert 'networkx' in sys.modules\n")
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr

    def test_sample_result_behaves_like_container(self, small_psd):
        result = repro.sample_symmetric_kdpp_parallel(small_psd, 3, seed=0)
        assert len(result) == 3
        assert list(result) == list(result.subset)
        assert result.subset[0] in result


class TestQuadraticSpeedupHeadline:
    def test_symmetric_kdpp_speedup(self):
        # The headline claim: parallel rounds ~ sqrt(k) vs sequential ~ k.
        L = random_psd_ensemble(96, rank=96, seed=0)
        k = 49
        parallel = repro.sample_symmetric_kdpp_parallel(L, k, seed=1)
        sequential = sequential_sample(SymmetricKDPP(L, k), seed=1)
        assert sequential.report.rounds == 2 * k
        # parallel rounds should be closer to sqrt(k): allow generous constant
        assert parallel.report.rounds <= 10 * math.sqrt(k)
        assert parallel.report.rounds < 0.5 * sequential.report.rounds

    def test_planar_matching_speedup(self):
        g = grid_graph(8, 8)
        parallel = repro.sample_planar_matching_parallel(g, seed=2)
        sequential = repro.sample_planar_matching_sequential(g, seed=2)
        assert sequential.report.rounds == 32
        assert parallel.report.rounds < sequential.report.rounds

    def test_depth_exponent_estimate(self):
        # Fit log(rounds) vs log(k): the exponent should be well below 1
        # (sequential) and in the vicinity of 1/2.
        L = random_psd_ensemble(120, rank=120, seed=3)
        ks = [9, 25, 49, 100]
        rounds = []
        for k in ks:
            result = repro.sample_symmetric_kdpp_parallel(L, k, seed=5)
            rounds.append(result.report.rounds)
        slope = np.polyfit(np.log(ks), np.log(rounds), 1)[0]
        assert slope < 0.85
        assert slope > 0.2


class TestChainedConditioning:
    def test_conditioning_chain_consistency(self, small_psd):
        # conditioning twice equals conditioning once on the union
        kdpp = SymmetricKDPP(small_psd, 4)
        once = kdpp.condition((0, 3))
        twice = kdpp.condition((0,)).condition(
            (kdpp.condition((0,)).ground_labels.index(3),)
        )
        assert once.to_explicit().total_variation(twice.to_explicit()) < 1e-8

    def test_parallel_sampler_on_conditioned_distribution(self, small_psd):
        from repro.core.batched import batched_sample

        kdpp = SymmetricKDPP(small_psd, 4).condition((1,))
        result = batched_sample(kdpp, seed=0)
        assert len(result.subset) == 3
        assert 1 not in result.subset  # labels exclude the conditioned element


class TestWorkloadPipelines:
    def test_document_summarization_pipeline(self):
        docs = synthetic_documents(18, num_topics=3, seed=0)
        L = documents_to_ensemble(docs)
        result = repro.sample_symmetric_kdpp_parallel(L, 5, seed=1)
        assert len(result.subset) == 5
        topics = {docs[i].topic for i in result.subset}
        assert len(topics) >= 2  # diversity: more than one topic represented

    def test_rbf_kernel_pipeline(self):
        L, _ = rbf_kernel_ensemble(30, dimension=4, seed=2)
        result = repro.sample_symmetric_kdpp_parallel(L, 6, seed=3)
        assert len(result.subset) == 6

    def test_parallel_matches_spectral_baseline_distribution(self, small_psd):
        # Theorem 10 sampler and the HKPV baseline sample the same distribution.
        exact = exact_kdpp_distribution(small_psd, 2)
        rng = np.random.default_rng(4)
        num = 1500
        counts_parallel, counts_spectral = {}, {}
        for _ in range(num):
            a = repro.sample_symmetric_kdpp_parallel(small_psd, 2, seed=rng).subset
            b = tuple(sorted(sample_kdpp_spectral(small_psd, 2, rng)))
            counts_parallel[a] = counts_parallel.get(a, 0) + 1
            counts_spectral[b] = counts_spectral.get(b, 0) + 1
        tv = 0.5 * sum(
            abs(counts_parallel.get(s, 0) / num - counts_spectral.get(s, 0) / num)
            for s in set(counts_parallel) | set(counts_spectral)
        )
        assert tv < 0.1


class TestTrackerIntegration:
    def test_shared_tracker_across_samplers(self, small_psd):
        tracker = Tracker()
        repro.sample_symmetric_kdpp_parallel(small_psd, 2, seed=0, tracker=tracker)
        first = tracker.rounds
        repro.sample_symmetric_kdpp_parallel(small_psd, 2, seed=1, tracker=tracker)
        assert tracker.rounds > first

    def test_oracle_calls_charged(self, small_psd):
        tracker = Tracker()
        with use_tracker(tracker):
            SymmetricKDPP(small_psd, 3).marginal_vector()
        assert tracker.oracle_calls >= 1
        assert tracker.work > 0
