"""The three pinned serving workloads, driven through the public API.

Every input (kernels, request seeds, the cluster's update log) is generated
here from the workload seed; the program only ever receives those inputs.
Each workload is a closed loop with one client: the next op is sent when the
previous one has returned.  A window repeats a pinned pass of ops and ends on a pass boundary once at
least the requested number of seconds has passed.

Why these three (``perfbench/README.md`` has the full table):

* ``hkpv-warm`` — the cheapest request; its time is per-request and
  per-round overhead (session, planner, backend dispatch, one batched QR per
  round).  No ESP numerics run, so it is the bypass workload for the
  Theorem-10 oracle work.
* ``thm10-serve`` — the paper's sampler (Theorem 10) one request at a time:
  leave-one-out ESPs and two eigendecompositions per round dominate.
* ``cluster-stream`` — a 3-node, R=2 cluster over a 20000-item low-rank
  kernel with a write after every nine reads: the wire, node dispatch,
  replicated writes, cache patching and the sublinear intermediate sampler.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro
from repro.dpp.spectral import sample_kdpp_spectral
from repro.workloads import random_low_rank_factor_ensemble, random_psd_ensemble

#: dense kernel of the three single-kernel workloads
N, RANK, K = 200, 60, 10
#: request seeds per pass of ``hkpv-warm``; a Theorem-10 request takes a
#: third of a second, so its pass is shorter, which a window repeats often
#: enough for the best pass to be a best of several
SEEDS, THM10_SEEDS = 8, 4
#: seeds (and, on the cluster, reads of the first two epochs) also compared
#: with the cold entry point
PINNED = 2
#: low-rank kernel of ``cluster-stream``
CLUSTER_N, CLUSTER_RANK, CLUSTER_K = 20000, 16, 8
NODES, REPLICATION = 3, 2
READS_PER_WRITE, ROWS_PER_WRITE = 9, 4
#: ``cluster-stream`` pass: an append and a delete, so n is back to CLUSTER_N
PERIOD = 2 * (READS_PER_WRITE + 1)
#: ``cluster-stream`` ops replayed on one node (its pinned first pass)
REPLAY_OPS = 5 * PERIOD


@dataclass
class Request:
    """One served sample (``subset`` is ``None`` if the call raised)."""

    index: int
    seed: int
    subset: Optional[Tuple[int, ...]]
    report: Optional[object]
    latency: float
    #: ground-set size the request was served at
    n: int


#: one op of a window: (seconds it took, the samples it served); a cluster
#: write serves none
Op = Tuple[float, List[Request]]


@dataclass
class Window:
    """One measured window of a workload."""

    ops: List[Op]
    #: ops per pass of the pinned sequence
    pass_ops: int
    wall: float
    #: the samples of the window's first pass (pinned, deterministic)
    first_pass: List[Request]

    @property
    def requests(self) -> List[Request]:
        return [request for _seconds, served in self.ops for request in served]

    @property
    def write_latencies(self) -> List[float]:
        return [seconds for seconds, served in self.ops if not served]

    def best_pass(self) -> List[Op]:
        """Every position of the pass at its fastest service in the window.

        A per-position best-of-N: the window repeats the pass, so each op of
        the pass was served several times, and the fastest instance of each
        is the least disturbed by other tenants of the host.
        """
        return [min(self.ops[position::self.pass_ops], key=lambda op: op[0])
                for position in range(self.pass_ops)]


@dataclass
class Verdict:
    """Output-correctness result over every window of a run."""

    attempted: int
    #: failed requests per window, in window order
    failed_per_window: List[int]
    digest: str
    problems: List[str]

    @property
    def failed(self) -> int:
        return sum(self.failed_per_window)


def _is_subset(subset, k: int, n: int) -> bool:
    """A sorted tuple of ``k`` distinct indices in ``[0, n)``."""
    return (isinstance(subset, tuple) and len(subset) == k
            and all(isinstance(i, (int, np.integer)) for i in subset)
            and all(a < b for a, b in zip(subset, subset[1:]))
            and (k == 0 or (subset[0] >= 0 and subset[-1] < n)))


def _digest(pairs) -> str:
    payload = json.dumps([[int(key), [int(i) for i in subset]] for key, subset in pairs])
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _timed(call):
    """``(result, seconds)``; a raising call yields ``None`` and is reported."""
    began = time.perf_counter()
    try:
        result = call()
    except Exception:  # a failed request is counted, the closed loop goes on
        traceback.print_exc(file=sys.stderr)
        result = None
    return result, time.perf_counter() - began


def _request(index: int, seed: int, result, latency: float, n: int) -> Request:
    if result is None:
        return Request(index, seed, None, None, latency, n)
    return Request(index, seed, result.subset, result.report, latency, n)


def _failed(request: Request, k: int, expected) -> bool:
    return (request.subset is None or request.report.failed
            or not _is_subset(request.subset, k, request.n)
            or request.subset != expected)


class Workload:
    """Interface shared by the three workloads."""

    name = ""
    #: span keys that must record calls here, and those that must record none
    exercises: frozenset = frozenset()
    bypasses: frozenset = frozenset()
    #: cold set-ups before the windows, and again after them (about a second)
    setups = 5

    def setup(self) -> None:
        """Open a cold serving front end, through its first served sample."""
        raise NotImplementedError

    def window(self, seconds: float) -> Window:
        raise NotImplementedError

    def counters(self) -> Dict[str, float]:
        """Cumulative cache and failover counters of the front end."""
        raise NotImplementedError

    def check(self, windows: List[Window]) -> Verdict:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------------- #
# single-kernel workloads
# ---------------------------------------------------------------------- #
class _DenseWorkload(Workload):
    method = "spectral"
    #: request seeds per pass
    pass_seeds = SEEDS
    #: planner candidates (``None``: the default ``auto`` backend)
    candidates: Optional[Tuple[str, ...]] = None

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        kernel_seed, *request_seeds = (int(s) for s in rng.integers(0, 2**31 - 1,
                                                                    1 + self.pass_seeds))
        self.L = random_psd_ensemble(N, rank=RANK, seed=kernel_seed)
        self.seeds = request_seeds
        self.session = None
        if self.candidates is not None:
            repro.configure_backend("auto", candidates=self.candidates)

    def setup(self) -> None:
        self.close()
        # a private registry (and cache) per set-up keeps every set-up cold
        self.session = repro.serve(self.L, registry=repro.KernelRegistry())
        self.session.warm()
        self.session.sample(k=K, seed=self.seeds[0], method=self.method)

    def window(self, seconds: float) -> Window:
        ops: List[Op] = []
        started = time.perf_counter()
        while True:
            seed = self.seeds[len(ops) % self.pass_seeds]
            result, latency = _timed(
                lambda: self.session.sample(k=K, seed=seed, method=self.method))
            ops.append((latency, [_request(len(ops), seed, result, latency, N)]))
            elapsed = time.perf_counter() - started
            if len(ops) % self.pass_seeds == 0 and elapsed >= seconds:
                break
        window = Window(ops, self.pass_seeds, elapsed, [])
        window.first_pass = window.requests[:self.pass_seeds]
        return window

    def counters(self) -> Dict[str, float]:
        info = self.session.cache.cache_info()
        return {"cache_hits": info["hits"], "cache_lookups": info["hits"] + info["misses"]}

    def _cold(self, seed: int) -> Tuple[int, ...]:
        return sample_kdpp_spectral(self.L, K, seed)

    def _reference(self, seed: int, first_seen: Optional[Tuple[int, ...]]):
        """The subset every request with ``seed`` must return."""
        return first_seen

    def check(self, windows: List[Window]) -> Verdict:
        problems: List[str] = []
        first_seen = {request.seed: request.subset for request in windows[0].first_pass}
        reference = {seed: self._reference(seed, first_seen[seed]) for seed in self.seeds}
        for seed in self.seeds[:PINNED]:
            cold = self._cold(seed)
            if reference[seed] != cold:
                problems.append(f"seed {seed}: served {reference[seed]} != cold entry point {cold}")
                reference[seed] = None
        failed_per_window = [sum(_failed(request, K, reference[request.seed])
                                 for request in window.requests) for window in windows]
        if any(failed_per_window):
            problems.append(f"{sum(failed_per_window)} requests failed or differ from the reference")
        digest = _digest((seed, reference[seed] or ()) for seed in self.seeds)
        attempted = sum(len(window.requests) for window in windows)
        return Verdict(attempted, failed_per_window, digest, problems)

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None


class HkpvWarm(_DenseWorkload):
    name = "hkpv-warm"
    method = "spectral"
    setups = 40
    exercises = frozenset({"service.sample", "engine.plan", "engine.execute",
                           "dpp.spectral", "linalg.projection_step"})
    bypasses = frozenset({"service.scheduler", "cluster.wire", "cluster.node",
                          "core.driver", "dpp.marginals", "dpp.leave_one_out_esp",
                          "dpp.normalization", "dpp.intermediate", "linalg.eig",
                          "linalg.updates"})


class Thm10Serve(_DenseWorkload):
    name = "thm10-serve"
    method = "parallel"
    pass_seeds = THM10_SEEDS
    # The planner over the in-process backends.  On a 2-vCPU host the
    # default candidates send every other round to the ``threads`` pool,
    # whose GIL-bound scalar loops make a request about 2x slower and its
    # time 3-5x less steady from run to run (README.md, "Backend").
    candidates = ("serial", "vectorized")
    exercises = frozenset({"service.sample", "engine.plan", "engine.execute",
                           "core.driver", "dpp.marginals", "dpp.leave_one_out_esp",
                           "dpp.normalization", "linalg.eig"})
    bypasses = frozenset({"service.scheduler", "cluster.wire", "cluster.node",
                          "dpp.spectral", "dpp.intermediate", "linalg.projection_step",
                          "linalg.updates"})

    def _cold(self, seed: int) -> Tuple[int, ...]:
        return repro.sample_symmetric_kdpp_parallel(self.L, K, seed=seed).subset


# ---------------------------------------------------------------------- #
# cluster-stream
# ---------------------------------------------------------------------- #
class ClusterStream(Workload):
    name = "cluster-stream"
    setups = 10
    # The engine is in neither set: the intermediate sampler runs its phase 2
    # through engine rounds only for candidate pools of at most 1024 rows,
    # and on this kernel every draw currently takes the direct q = 1 route.
    exercises = frozenset({"service.sample", "cluster.wire", "cluster.node",
                           "dpp.intermediate", "linalg.eig", "linalg.updates"})
    bypasses = frozenset({"service.scheduler", "core.driver", "dpp.spectral",
                          "dpp.marginals", "dpp.leave_one_out_esp", "dpp.normalization"})

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.factor, _ = random_low_rank_factor_ensemble(
            CLUSTER_N, CLUSTER_RANK, seed=int(rng.integers(0, 2**31 - 1)))
        self._script_rng = np.random.default_rng(int(rng.integers(0, 2**31 - 1)))
        self._row_scale = float(np.std(self.factor))
        #: the op script, generated lazily in order: (op, payload, n after it)
        self.script: List[Tuple[str, object, int]] = []
        self._script_n = CLUSTER_N
        self._next_op = 0
        self.cluster = None
        self.session = None

    def _op(self, index: int) -> Tuple[str, object, int]:
        rng = self._script_rng
        while len(self.script) <= index:
            position = len(self.script)
            if position % (READS_PER_WRITE + 1) != READS_PER_WRITE:
                op = ("read", int(rng.integers(0, 2**31 - 1)), self._script_n)
            elif position // (READS_PER_WRITE + 1) % 2 == 0:
                rows = rng.standard_normal((ROWS_PER_WRITE, CLUSTER_RANK)) * self._row_scale
                self._script_n += ROWS_PER_WRITE
                op = ("append", rows, self._script_n)
            else:
                doomed = tuple(sorted(int(i) for i in rng.choice(
                    self._script_n, ROWS_PER_WRITE, replace=False)))
                self._script_n -= ROWS_PER_WRITE
                op = ("delete", doomed, self._script_n)
            self.script.append(op)
        return self.script[index]

    def setup(self) -> None:
        self.close()
        self.cluster = repro.LocalCluster(nodes=NODES, replication=REPLICATION)
        self.session = repro.serve_cluster(repro.LowRankKernel(self.factor),
                                           cluster=self.cluster, warm=True)
        self.session.sample(k=CLUSTER_K, seed=0)
        self._next_op = 0

    def window(self, seconds: float) -> Window:
        ops: List[Op] = []
        started = time.perf_counter()
        while True:
            index = self._next_op
            kind, payload, n = self._op(index)
            if kind == "read":
                result, latency = _timed(
                    lambda: self.session.sample(k=CLUSTER_K, seed=payload))
                ops.append((latency, [_request(index, payload, result, latency, n)]))
            else:
                write = self.session.append_items if kind == "append" else self.session.delete_items
                outcome, latency = _timed(lambda: write(payload))
                if outcome is None:
                    raise RuntimeError(f"cluster write {index} ({kind}) failed; "
                                       "later reads cannot match the replay")
                ops.append((latency, []))
            self._next_op += 1
            elapsed = time.perf_counter() - started
            if len(ops) % PERIOD == 0 and len(ops) >= REPLAY_OPS and elapsed >= seconds:
                break
        window = Window(ops, PERIOD, elapsed, [])
        window.first_pass = [request for _seconds, served in ops[:REPLAY_OPS]
                             for request in served]
        return window

    def counters(self) -> Dict[str, float]:
        info = self.cluster.cluster_info()
        caches = [stats["registry"]["cache"] for stats in info["nodes"].values()
                  if "unreachable" not in stats]
        return {
            "cache_hits": info["cache"]["hits"],
            "cache_lookups": info["cache"]["hits"] + info["cache"]["misses"],
            "update_patched": sum(cache["update_patched"] for cache in caches),
            "update_recomputed": sum(cache["update_recomputed"] for cache in caches),
            "failovers": self.cluster.client().failover_count(),
        }

    def check(self, windows: List[Window]) -> Verdict:
        """Replay the first window's first ``REPLAY_OPS`` ops on a single node.

        The first window starts at op 0 of the script (``setup`` resets it),
        so the replay applies the same update log in the same order.
        """
        problems: List[str] = []
        reference: Dict[int, Optional[Tuple[int, ...]]] = {}
        replay = repro.serve(repro.LowRankKernel(self.factor), registry=repro.KernelRegistry())
        try:
            for index in range(REPLAY_OPS):
                kind, payload, _n = self.script[index]
                if kind == "append":
                    replay.append_items(payload)
                elif kind == "delete":
                    replay.delete_items(payload)
                else:
                    subset = replay.sample(k=CLUSTER_K, seed=payload).subset
                    epoch, position = divmod(index, READS_PER_WRITE + 1)
                    if epoch < 2 and position < PINNED:
                        cold = repro.sample_kdpp_intermediate(
                            repro.LowRankKernel(replay.entry.matrix), CLUSTER_K, payload)
                        if cold != subset:
                            problems.append(f"op {index}: single-node {subset} != "
                                            f"cold entry point {cold}")
                            subset = None
                    reference[index] = subset
        finally:
            replay.close()
        failed_per_window = [
            sum(_failed(request, CLUSTER_K, reference.get(request.index, request.subset))
                for request in window.requests) for window in windows]
        if any(failed_per_window):
            problems.append(f"{sum(failed_per_window)} reads failed or differ from the "
                            "single-node replay")
        digest = _digest((request.index, request.subset or ())
                         for request in windows[0].first_pass)
        attempted = sum(len(window.ops) for window in windows)
        return Verdict(attempted, failed_per_window, digest, problems)

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None
        if self.cluster is not None:
            self.cluster.shutdown()
            self.cluster = None


WORKLOADS = {cls.name: cls for cls in (HkpvWarm, Thm10Serve, ClusterStream)}
