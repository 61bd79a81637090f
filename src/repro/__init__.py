"""repro — reproduction of "Quadratic Speedups in Parallel Sampling from
Determinantal Distributions" (Anari, Burgess, Tian, Vuong; SPAA 2023).

Public API highlights
---------------------

Parallel samplers (the paper's contribution):

* :func:`repro.core.sample_symmetric_kdpp_parallel` /
  :func:`repro.core.sample_symmetric_dpp_parallel` — Theorem 10, exact,
  ``Õ(√k)`` depth.
* :func:`repro.core.sample_entropic_parallel` — Theorem 29 meta-sampler.
* :func:`repro.core.sample_nonsymmetric_kdpp_parallel` /
  :func:`repro.core.sample_nonsymmetric_dpp_parallel` — Theorem 8.
* :func:`repro.core.sample_partition_dpp_parallel` — Theorem 9.
* :func:`repro.core.sample_bounded_dpp_filtering` — Theorem 41 / Algorithm 4.
* :func:`repro.planar.sample_planar_matching_parallel` — Theorem 11.

Baselines: :func:`repro.core.sequential_sample` (JVV reduction),
:func:`repro.dpp.sample_dpp_spectral` / :func:`repro.dpp.sample_kdpp_spectral`
(HKPV), :func:`repro.planar.sample_planar_matching_sequential`.

Execution engine: every sampler expresses each adaptive round as an
:class:`~repro.engine.batch.OracleBatch` executed by a pluggable backend —
select it globally with :func:`repro.configure_backend` (``"auto"``, the
default, routes each round on measured round times; or ``"serial"``,
``"vectorized"``, ``"threads"``, ``"process"``), scope it with
:func:`repro.use_backend`, or pass ``backend=...`` to any sampler call.

Serving layer: :func:`repro.serve` opens a :class:`~repro.service.SamplerSession`
whose repeated draws reuse cached factorizations
(:class:`~repro.service.FactorizationCache`), with
:class:`~repro.service.KernelRegistry` for named kernels and
:class:`~repro.service.RoundScheduler` for fusing concurrent requests into
shared engine rounds — fixed-seed samples are identical with and without the
cache, and fused or unfused.

Cluster layer: :func:`repro.serve_cluster` shards the registry + cache across
:class:`~repro.cluster.ShardNode` processes behind a consistent-hash
:class:`~repro.cluster.HashRing` (replication R, replica failover, minimal-
movement rebalance), returning a :class:`~repro.cluster.ClusterSession` with
the same ``sample/warm/close`` surface and byte-identical fixed-seed samples.

Sublinear tier: :class:`repro.LowRankKernel` holds an ``n x k`` factor ``B``
for ``L = B Bᵀ`` and never materializes the ``n x n`` kernel;
:func:`repro.sample_dpp_intermediate` / :func:`repro.sample_kdpp_intermediate`
draw *exact* DPP / k-DPP samples by running the projection DPP's chain rule
by rejection against leverage scores (``O(n·k + k³ log k)`` work a draw,
memory ``O(n·k)``), and ``repro.serve(LowRankKernel(B))`` /
``serve_cluster(...)`` serve the factor with ``k``-sized cached artifacts.

Observability: :mod:`repro.obs` — process-wide metrics + per-round tracing
across backends, planner, scheduler, caches and cluster (off by default;
``repro.obs.enable()``), exported via :func:`repro.obs.snapshot` (JSON) and
:func:`repro.obs.render_prometheus` (Prometheus text).

Substrates: :mod:`repro.dpp` (kernels, counting oracles),
:mod:`repro.planar` (Kasteleyn counting, separators), :mod:`repro.linalg`
(NC-style linear algebra, batched in :mod:`repro.linalg.batch`),
:mod:`repro.pram` (depth/work accounting), :mod:`repro.engine` (oracle-batch
execution backends), :mod:`repro.distributions` (divergences, entropic
independence, isotropic transform, hard instance), :mod:`repro.workloads`
(synthetic workloads).
"""

import importlib

from repro import cluster, core, distributions, dpp, engine, linalg, obs, pram, service, utils, workloads
from repro.service import (
    FactorizationCache,
    KernelRegistry,
    RoundScheduler,
    SamplerSession,
    default_registry,
    serve,
)
from repro.cluster import (
    ClusterClient,
    ClusterSession,
    HashRing,
    LocalCluster,
    ShardNode,
    serve_cluster,
)
from repro.engine import (
    AutoBackend,
    OracleBatch,
    OracleBatchResult,
    ProcessPoolBackend,
    RoundPlanner,
    SerialBackend,
    ThreadPoolBackend,
    VectorizedBackend,
    configure_backend,
    current_backend,
    use_backend,
)
from repro.core import (
    SampleResult,
    SamplerReport,
    sample_symmetric_kdpp_parallel,
    sample_symmetric_dpp_parallel,
    sample_entropic_parallel,
    sample_nonsymmetric_kdpp_parallel,
    sample_nonsymmetric_dpp_parallel,
    sample_partition_dpp_parallel,
    sample_bounded_dpp_filtering,
    sequential_sample,
)
from repro.distributions.lowrank import LowRankDPP, LowRankKDPP, LowRankKernel
from repro.dpp.intermediate import sample_dpp_intermediate, sample_kdpp_intermediate
from repro.pram import Tracker

__version__ = "1.0.0"

#: served through ``__getattr__``: ``repro.planar`` is networkx's only user,
#: so ``import repro`` loads neither until one of these is first read
_PLANAR_NAMES = ("sample_planar_matching_parallel", "sample_planar_matching_sequential")


def __getattr__(name: str):
    if name == "planar":
        return importlib.import_module("repro.planar")
    if name in _PLANAR_NAMES:
        return getattr(importlib.import_module("repro.planar"), name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")

__all__ = [
    "cluster",
    "core",
    "distributions",
    "dpp",
    "engine",
    "linalg",
    "obs",
    "planar",
    "pram",
    "service",
    "utils",
    "workloads",
    "FactorizationCache",
    "KernelRegistry",
    "RoundScheduler",
    "SamplerSession",
    "default_registry",
    "serve",
    "ClusterClient",
    "ClusterSession",
    "HashRing",
    "LocalCluster",
    "ShardNode",
    "serve_cluster",
    "SampleResult",
    "SamplerReport",
    "Tracker",
    "AutoBackend",
    "OracleBatch",
    "OracleBatchResult",
    "RoundPlanner",
    "SerialBackend",
    "VectorizedBackend",
    "ThreadPoolBackend",
    "ProcessPoolBackend",
    "configure_backend",
    "current_backend",
    "use_backend",
    "sample_symmetric_kdpp_parallel",
    "sample_symmetric_dpp_parallel",
    "sample_entropic_parallel",
    "sample_nonsymmetric_kdpp_parallel",
    "sample_nonsymmetric_dpp_parallel",
    "sample_partition_dpp_parallel",
    "sample_bounded_dpp_filtering",
    "sequential_sample",
    "sample_planar_matching_parallel",
    "sample_planar_matching_sequential",
    "LowRankDPP",
    "LowRankKDPP",
    "LowRankKernel",
    "sample_dpp_intermediate",
    "sample_kdpp_intermediate",
    "__version__",
]
