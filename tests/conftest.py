"""Shared fixtures for the test suite."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.workloads import (
    clustered_ensemble,
    random_low_rank_ensemble,
    random_npsd_ensemble,
    random_psd_ensemble,
)


def _shard_threads():
    return {thread for thread in threading.enumerate()
            if thread.name.startswith("repro-shard-")}


@pytest.fixture(autouse=True)
def no_leaked_shard_threads():
    """Fail any test that leaves a shard node's thread running.

    A stopped :class:`~repro.cluster.node.ShardNode` joins its accept thread,
    and its connection threads end once their sockets close.  A thread that
    outlives its test keeps its node, registry and cache alive.  Threads
    already running when the test began are charged to the test that
    started them, not to this one.
    """
    before = _shard_threads()
    yield
    started = _shard_threads() - before
    for thread in started:
        thread.join(timeout=5.0)  # a connection thread may finish its reply first
    alive = sorted(thread.name for thread in started if thread.is_alive())
    if alive:
        pytest.fail(f"shard-node threads outlived the test: {alive}")


@pytest.fixture
def rng():
    return np.random.default_rng(20230428)


@pytest.fixture
def small_psd():
    """A well-conditioned 6x6 PSD ensemble matrix."""
    return random_psd_ensemble(6, rank=6, scale=1.5, seed=11)


@pytest.fixture
def small_low_rank_psd():
    """A 7x7 PSD ensemble of rank 4."""
    return random_low_rank_ensemble(7, rank=4, seed=13)


@pytest.fixture
def small_npsd():
    """A 6x6 nonsymmetric PSD ensemble matrix."""
    return random_npsd_ensemble(6, symmetric_scale=1.0, skew_scale=0.8, seed=17)


@pytest.fixture
def clustered():
    """A clustered PSD ensemble with 2 parts (for Partition-DPPs)."""
    L, parts = clustered_ensemble([4, 4], within=0.7, across=0.05, scale=1.5, seed=19)
    return L, parts


def empirical_distribution(samples, n):
    """Build a normalized subset->frequency table from a list of subsets."""
    from repro.distributions.generic import ExplicitDistribution

    table = {}
    for subset in samples:
        key = tuple(sorted(subset))
        table[key] = table.get(key, 0.0) + 1.0
    return ExplicitDistribution(n, table)
