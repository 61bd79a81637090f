"""Process backend vs threads on the torus counting path.

The thread backend only overlaps inside LAPACK, so a pure-Python oracle path
holds the GIL and thread fan-out cannot use more than one core.  The
workload here reads torus node tables with stacked LAPACK, where the GIL is
mostly released; it is the one counting route of the partition sampler and
of the nonsymmetric k-DPP (the one-part partition DPP), so it measures what
``process`` wins without a GIL-bound share.  This sweep times one large
``counting`` round through the ``threads`` and ``process`` backends (same
worker count) plus the single-process ``vectorized`` reference, verifies
the values agree bitwise-closely, and reports a machine-readable JSON line.

Acceptance target: ``process`` ≥ 2x faster than ``threads`` with 4 workers on
a ≥ 4-core host.  The pytest entry points warn (rather than flake) when the
host cannot show it — single-core CI runners physically cannot exhibit
multicore scaling — while running this file as a script gives an exit-code
gate on capable hosts (same softening rationale as ``bench_wallclock.py``):
``PYTHONPATH=src python benchmarks/bench_process_backend.py [output.json]``.
"""

from __future__ import annotations

import json
import os
import sys
import warnings
from typing import Dict, List

import numpy as np
import pytest

from _helpers import best_of, emit_reports
from repro.dpp.partition import PartitionDPP
from repro.engine import (
    OracleBatch,
    ProcessPoolBackend,
    ThreadPoolBackend,
    resolve_backend,
)
from repro.pram.tracker import Tracker
from repro.workloads import random_psd_ensemble

WORKERS = 4
REPEATS = 3
SPEEDUP_TARGET = 2.0
#: below this many cores the speedup target is physically unreachable
MIN_CORES_FOR_GATE = 4


def _partition_workload():
    n = 24
    L = random_psd_ensemble(n, rank=12, seed=0)
    parts = [list(range(n // 2)), list(range(n // 2, n))]
    dist = PartitionDPP(L, parts, [4, 4])
    rng = np.random.default_rng(1)
    subsets = [tuple(sorted(rng.choice(n, size=t, replace=False).tolist()))
               for t in (1, 2, 3, 4) for _ in range(12)]
    return "partition", dist, subsets


def _best_of(run, repeats: int = REPEATS) -> float:
    return best_of(run, repeats)


def _measure(name: str, dist, subsets, process_backend) -> Dict[str, object]:
    batch = lambda: OracleBatch.counting(dist, subsets)  # noqa: E731
    threads = ThreadPoolBackend(max_workers=WORKERS)
    vectorized = resolve_backend("vectorized")

    try:
        reference = vectorized.execute(batch(), tracker=Tracker()).values
        process_values = process_backend.execute(batch(), tracker=Tracker()).values  # warm-up
        threads_values = threads.execute(batch(), tracker=Tracker()).values
        identical = bool(np.allclose(process_values, reference, rtol=1e-9, atol=1e-12)
                         and np.allclose(threads_values, reference, rtol=1e-9, atol=1e-12))

        threads_s = _best_of(lambda: threads.execute(batch(), tracker=Tracker()))
        process_s = _best_of(lambda: process_backend.execute(batch(), tracker=Tracker()))
        vectorized_s = _best_of(lambda: vectorized.execute(batch(), tracker=Tracker()))
    finally:
        threads.close()
    return {
        "bench": "process_backend",
        "path": name,
        "n": dist.n,
        "queries": len(subsets),
        "workers": WORKERS,
        "cpu_count": os.cpu_count(),
        "threads_s": threads_s,
        "process_s": process_s,
        "vectorized_s": vectorized_s,
        "speedup_vs_threads": threads_s / process_s,
        "values_identical": identical,
    }


def process_backend_report() -> List[Dict[str, object]]:
    """The benchmark body: one JSON-serializable report per workload."""
    process_backend = ProcessPoolBackend(max_workers=WORKERS)
    try:
        return [_measure(*_partition_workload(), process_backend)]
    finally:
        process_backend.close()


def _gate(report: Dict[str, object]) -> bool:
    """Whether this report meets the acceptance pin on this host."""
    if not report["values_identical"]:
        return False
    if (report["cpu_count"] or 1) < MIN_CORES_FOR_GATE:
        return True  # target not measurable here; values already checked
    return report["speedup_vs_threads"] >= SPEEDUP_TARGET


# ---------------------------------------------------------------------- #
# pytest entry points (CI smoke job)
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def reports():
    return process_backend_report()


def test_process_backend_values_and_speedup(reports):
    for report in reports:
        print(json.dumps(report))
        assert report["values_identical"], report
        if not _gate(report):
            warnings.warn(
                f"process backend speedup vs threads on the {report['path']} path is "
                f"{report['speedup_vs_threads']:.2f}x (< {SPEEDUP_TARGET}x target with "
                f"{report['workers']} workers on {report['cpu_count']} cores)",
                RuntimeWarning, stacklevel=0)


def main() -> int:
    reports = process_backend_report()
    emit_reports(reports, sys.argv[1] if len(sys.argv) > 1 else None)
    return 0 if all(_gate(report) for report in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
