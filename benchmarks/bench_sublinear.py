"""Sublinear-tier benchmark: exact sampling at n >> 10^5 without the n x n kernel.

Measures the two claims the low-rank tier makes:

* **huge ground sets are reachable** — an exact DPP and k-DPP sample is drawn
  from ``L = B Bᵀ`` at ``n = 10^5`` (override with ``BENCH_SUBLINEAR_N``; CI
  uses ``2·10^4``) while peak traced allocation and process RSS stay under
  1.5 GB: memory is ``O(n·k)`` because only the factor, its ``k x k`` Gram,
  and the whitened coordinates ever exist.
* **the factor path beats the dense path where both run** — at the largest
  dense-runnable size (``BENCH_SUBLINEAR_DENSE_N``, default 2048) the
  intermediate sampler is gated ≥ 5x faster wall-clock and ≥ 10x lighter in
  peak memory than the dense spectral sampler on the materialized kernel,
  cold-for-cold (each run pays its own factorization).

* **a warm draw is sublinear** — the PRAM work a warm served draw charges
  at ``n_large`` is gated below ``n_large·k/2``: the two-level leverage
  search sums ``O(√(n·r))`` table entries per selected column where one
  pass over every row charged ``n·k``, so the gate fails if that pass
  comes back.  The warm leg's wall clock is reported as the median
  per-draw time over :data:`WARM_DRAWS` draws, and is not gated.

Serving identity is pinned along the way — ``repro.serve(LowRankKernel(B))``
must reproduce the cold sampler byte for byte, warm or cold.  One
machine-readable JSON line per run is printed (and written to ``argv[1]``,
and appended to ``BENCH_trajectory.json``): ``PYTHONPATH=src python
benchmarks/bench_sublinear.py [output.json]``.
"""

from __future__ import annotations

import os
import resource
import sys
import time
import tracemalloc
from typing import Dict, Tuple

import numpy as np
import pytest

import repro
from _helpers import best_of, emit_reports
from repro.distributions.lowrank import LowRankKernel
from repro.dpp.intermediate import sample_dpp_intermediate, sample_kdpp_intermediate
from repro.dpp.spectral import sample_kdpp_spectral
from repro.service import KernelRegistry

N_LARGE = int(os.environ.get("BENCH_SUBLINEAR_N", "100000"))
N_DENSE = int(os.environ.get("BENCH_SUBLINEAR_DENSE_N", "2048"))
RANK = 48
K = 12
WARM_DRAWS = 32
#: a warm draw's work stays below this fraction of one pass, ``n_large·k``
WARM_WORK_GATE = 0.5
SPEEDUP_GATE = 5.0
MEMORY_GATE = 10.0
RSS_GATE_BYTES = 1.5 * 2 ** 30


def _traced(run) -> Tuple[object, float, int]:
    """Run ``run()`` once; return (value, seconds, peak traced bytes)."""
    tracemalloc.start()
    start = time.perf_counter()
    value = run()
    elapsed = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return value, elapsed, peak


def _maxrss_bytes() -> int:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(rss) * 1024  # Linux reports kilobytes


def _large_factor(n: int, rank: int, seed: int) -> np.ndarray:
    """O(n·rank) factor build that avoids the QR of the workload generator
    dominating the trace: orthonormality is irrelevant to the memory claim."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, rank)) / np.sqrt(rank)


def sublinear_report(n_large: int = N_LARGE, n_dense: int = N_DENSE,
                     rank: int = RANK) -> Dict[str, object]:
    """The benchmark body; returns one JSON-serializable report."""
    # ---- huge-n leg: exact samples, O(n·k) memory (run FIRST so ru_maxrss
    # reflects this leg, before the dense comparison inflates the process) ---
    def large_leg():
        kernel = LowRankKernel(_large_factor(n_large, rank, seed=0))
        dpp = sample_dpp_intermediate(kernel, 1)
        kdpp = sample_kdpp_intermediate(kernel, K, 2)
        session = repro.serve(kernel, registry=KernelRegistry()).warm()
        return dpp, kdpp, session, session.sample(k=K, seed=2).subset

    (dpp, kdpp, session, served), large_seconds, large_peak = _traced(large_leg)
    # timed outside tracemalloc, which taxes every allocation of a draw
    seconds, work = [], []
    with session:
        for draw in range(WARM_DRAWS):
            start = time.perf_counter()
            result = session.sample(k=K, seed=100 + draw)
            seconds.append(time.perf_counter() - start)
            work.append(result.report.work)
    warm_ms, warm_work = 1e3 * float(np.median(seconds)), max(work)
    large_rss = _maxrss_bytes()
    valid = (len(kdpp) == K
             and all(0 <= i < n_large for i in kdpp)
             and list(kdpp) == sorted(set(kdpp))
             and all(0 <= i < n_large for i in dpp))

    # ---- dense-comparison leg: cold-for-cold at the largest dense size -----
    factor = np.ascontiguousarray(_large_factor(n_dense, rank, seed=1))
    kernel = LowRankKernel(factor)
    lowrank_seconds = best_of(lambda: sample_kdpp_intermediate(kernel, K, 3))
    dense_seconds = best_of(lambda: sample_kdpp_spectral(factor @ factor.T, K, 3))
    _, _, lowrank_peak = _traced(lambda: sample_kdpp_intermediate(kernel, K, 3))
    _, _, dense_peak = _traced(lambda: sample_kdpp_spectral(factor @ factor.T, K, 3))

    return {
        "bench": "sublinear",
        "n_large": n_large, "n_dense": n_dense, "rank": rank, "k": K,
        "large_sample_valid": bool(valid),
        "large_serve_identical": bool(served == kdpp),
        "large_seconds": large_seconds,
        "large_peak_traced_bytes": int(large_peak),
        "large_maxrss_bytes": int(large_rss),
        "warm_draw_ms_p50": warm_ms,
        "warm_draw_work_max": warm_work,
        "warm_work_bound": WARM_WORK_GATE * n_large * K,
        "lowrank_seconds": lowrank_seconds,
        "dense_seconds": dense_seconds,
        "speedup_vs_dense": dense_seconds / lowrank_seconds,
        "lowrank_peak_bytes": int(lowrank_peak),
        "dense_peak_bytes": int(dense_peak),
        "memory_ratio_vs_dense": dense_peak / max(lowrank_peak, 1),
    }


def _gates(report: Dict[str, object]) -> bool:
    return (report["large_sample_valid"]
            and report["large_serve_identical"]
            and report["large_peak_traced_bytes"] < RSS_GATE_BYTES
            and report["large_maxrss_bytes"] < RSS_GATE_BYTES
            and report["warm_draw_work_max"] < report["warm_work_bound"]
            and report["speedup_vs_dense"] >= SPEEDUP_GATE
            and report["memory_ratio_vs_dense"] >= MEMORY_GATE)


# ---------------------------------------------------------------------- #
# pytest entry points (CI smoke job; tier-1 runs these at default sizes)
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def report():
    # typical margins are far above the pins (the dense path pays an n x n
    # eigendecomposition the factor path never sees); re-measure once so a
    # scheduler hiccup on a loaded shared runner doesn't flake the suite
    result = sublinear_report()
    if result["speedup_vs_dense"] < SPEEDUP_GATE:
        result = sublinear_report()
    return result


def test_large_n_exact_sampling_stays_small(report):
    """Acceptance pin: exact samples at huge n with < 1.5 GB peak memory."""
    assert report["large_sample_valid"]
    assert report["large_serve_identical"]
    assert report["large_peak_traced_bytes"] < RSS_GATE_BYTES
    assert report["large_maxrss_bytes"] < RSS_GATE_BYTES


def test_warm_draw_work_is_sublinear(report):
    """Acceptance pin: a warm draw charges less than half of one O(n·k) pass."""
    assert report["warm_draw_work_max"] < report["warm_work_bound"], (
        f"a warm draw at n={report['n_large']} charged "
        f"{report['warm_draw_work_max']:.0f} work, over {report['warm_work_bound']:.0f}")


def test_factor_path_beats_dense_path(report):
    """Acceptance pin: ≥ 5x wall-clock and ≥ 10x peak memory vs dense."""
    import json

    print(json.dumps(report))
    assert report["speedup_vs_dense"] >= SPEEDUP_GATE, (
        f"low-rank sampling should be >= {SPEEDUP_GATE}x faster than the dense "
        f"spectral path at n={report['n_dense']} "
        f"(got {report['speedup_vs_dense']:.2f}x)"
    )
    assert report["memory_ratio_vs_dense"] >= MEMORY_GATE, (
        f"low-rank sampling should allocate >= {MEMORY_GATE}x less than the "
        f"dense path (got {report['memory_ratio_vs_dense']:.2f}x)"
    )


def main() -> int:
    result = sublinear_report()
    if result["speedup_vs_dense"] < SPEEDUP_GATE:
        result = sublinear_report()
    emit_reports(result, sys.argv[1] if len(sys.argv) > 1 else None)
    return 0 if _gates(result) else 1


if __name__ == "__main__":
    sys.exit(main())
