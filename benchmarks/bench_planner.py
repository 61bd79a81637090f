"""Planner quality gate: ``auto`` vs every forced backend, plus spectral fusion.

Two questions, answered with machine-readable JSON lines:

1. **Routing quality.**  On a small/large × k-DPP/partition-DPP grid of
   counting rounds (the ``lapack-*`` and ``python-*`` cells; both oracles
   are stacked LAPACK), plus (full grid only) warm samples of the paper's
   Theorem-10 sampler, is ``backend="auto"`` ever meaningfully slower than
   the best *forced* backend?  The planner's whole job is to make
   hand-picking backends unnecessary, so the acceptance pin is relative —
   ``auto`` must land within ``TOLERANCE`` (plus a small absolute slack for
   timer noise) of the per-cell winner.  Being a same-host ratio, the pin
   is robust to slow CI machines in a way absolute wall-clock targets are
   not.

2. **Spectral fusion.**  Concurrent same-kernel HKPV requests drained
   through the ``RoundScheduler`` run phase 2 in lockstep, and their
   projection rounds stack into single leverage-downdate rounds; the fused
   drain should beat draining the same seeds sequentially, with identical
   samples.

Running as a script gives the exit-code gate (cell tolerance violations
fail; the fusion speedup is advisory — it warns, because thread scheduling
on loaded runners is noisy):
``PYTHONPATH=src python benchmarks/bench_planner.py [output.json]``.
The pytest entry point runs a reduced grid and warns instead of flaking.
"""

from __future__ import annotations

import json
import os
import sys
import time
import warnings
from typing import Dict, List

import numpy as np

import repro
from _helpers import best_of, emit_reports
from repro.dpp.partition import PartitionDPP
from repro.dpp.symmetric import SymmetricKDPP
from repro.engine import (
    AutoBackend,
    OracleBatch,
    ProcessPoolBackend,
    RoundPlanner,
    ThreadPoolBackend,
    VectorizedBackend,
)
from repro.engine.planner import PLANNED_KINDS
from repro.pram.tracker import Tracker
from repro.service import KernelRegistry
from repro.workloads import random_psd_ensemble

WORKERS = 4
REPEATS = 5
#: auto may be at most this factor above the best forced backend per cell
TOLERANCE = 1.10
#: absolute slack (seconds) so microsecond-scale cells cannot flake the ratio
ABSOLUTE_SLACK_S = 5e-3

#: spectral-fusion workload: G lockstep requests on one warm kernel
FUSION_N, FUSION_K, FUSION_REQUESTS = 150, 12, 24
FUSION_TARGET = 1.05

#: Theorem-10 cell: THM10_SAMPLES warm samples, k = THM10_K, of an n =
#: THM10_N, rank THM10_RANK kernel (the shape of perfbench's thm10-serve)
THM10_N, THM10_RANK, THM10_K, THM10_SAMPLES = 200, 60, 10, 4


def _subsets(rng, n: int, sizes, count: int) -> List[tuple]:
    return [tuple(sorted(rng.choice(n, size=int(t), replace=False).tolist()))
            for t in np.resize(list(sizes), count)]


def _grid(small: bool = False):
    """The small/large × k-DPP (``lapack-*``) / partition-DPP (``python-*``) cells."""
    rng = np.random.default_rng(0)
    L64 = random_psd_ensemble(64, rank=24, seed=1)
    kdpp = SymmetricKDPP(L64, 8)
    n_part = 20
    Lp = random_psd_ensemble(n_part, rank=10, seed=2)
    partition = PartitionDPP(Lp, [list(range(10)), list(range(10, n_part))], [3, 2])
    cells = [
        ("lapack-small", kdpp, _subsets(rng, 64, (1, 2, 3), 12)),
        ("python-small", partition, _subsets(rng, n_part, (1, 2), 8)),
    ]
    if not small:
        cells += [
            ("lapack-large", kdpp, _subsets(rng, 64, (1, 2, 3, 4), 192)),
            ("python-large", partition, _subsets(rng, n_part, (1, 2, 3), 48)),
        ]
    return cells


def _best_of(run, repeats: int = REPEATS) -> float:
    return best_of(run, repeats)


def _measure(name, run, backends, auto, **fields) -> Dict[str, object]:
    """Time ``run(backend)`` (which returns the values it computed) on every
    forced backend and on ``auto``, and gate ``auto`` against the best.

    Each of the ``REPEATS`` passes times every backend once, and each
    backend keeps its best pass: a slow spell on a shared host then hits
    every backend alike instead of whichever one it happened to overlap.
    """
    named = list(backends.items()) + [("auto", auto)]
    values = {backend_name: run(backend) for backend_name, backend in named}  # warm
    timings = {backend_name: float("inf") for backend_name, _ in named}
    for _ in range(REPEATS):
        for backend_name, backend in named:
            start = time.perf_counter()
            run(backend)
            timings[backend_name] = min(timings[backend_name], time.perf_counter() - start)
    reference = values["vectorized"]
    identical = all(np.allclose(v, reference, rtol=1e-9, atol=1e-12)
                    for v in values.values())
    forced = {k: v for k, v in timings.items() if k != "auto"}
    best_forced = min(forced, key=lambda k: forced[k])
    decision = next((d for d in reversed(auto.planner.decisions)
                     if d.kind in PLANNED_KINDS), None)
    return {
        "bench": "planner",
        "cell": name,
        **fields,
        "workers": WORKERS,
        "cpu_count": os.cpu_count(),
        **{f"{k}_s": v for k, v in timings.items()},
        "best_forced": best_forced,
        "best_forced_s": forced[best_forced],
        "auto_over_best": timings["auto"] / forced[best_forced],
        "auto_chose": decision.chosen if decision is not None else None,
        "values_identical": identical,
        "within_tolerance": timings["auto"] <= TOLERANCE * forced[best_forced] + ABSOLUTE_SLACK_S,
    }


def _measure_cell(name, dist, subsets, backends, auto) -> Dict[str, object]:
    def run(backend):
        return backend.execute(OracleBatch.counting(dist, subsets), tracker=Tracker()).values

    return _measure(name, run, backends, auto, n=dist.n, queries=len(subsets))


def _measure_theorem10(backends, auto) -> Dict[str, object]:
    """Warm Theorem-10 samples through a served session: the paper's sampler."""
    L = random_psd_ensemble(THM10_N, rank=THM10_RANK, seed=0)
    with repro.serve(L, registry=KernelRegistry()) as session:
        session.warm()

        def run(backend):
            return np.array([session.sample(k=THM10_K, seed=seed, method="parallel",
                                            backend=backend).subset
                             for seed in range(THM10_SAMPLES)])

        return _measure("theorem10", run, backends, auto, n=THM10_N,
                        samples=THM10_SAMPLES)


def planner_report(small: bool = False) -> List[Dict[str, object]]:
    """One JSON-serializable report per routing cell."""
    backends = {
        "vectorized": VectorizedBackend(),
        "threads": ThreadPoolBackend(max_workers=WORKERS),
        "process": ProcessPoolBackend(max_workers=WORKERS),
    }
    auto = AutoBackend(RoundPlanner(backends=backends))
    try:
        reports = [_measure_cell(name, dist, subsets, backends, auto)
                   for name, dist, subsets in _grid(small=small)]
        if not small:
            reports.append(_measure_theorem10(backends, auto))
        return reports
    finally:
        backends["threads"].close()
        backends["process"].close()


def fusion_report() -> Dict[str, object]:
    """Fused vs sequential drains of concurrent same-kernel HKPV requests."""
    L = random_psd_ensemble(FUSION_N, rank=2 * FUSION_K, seed=3)
    session = repro.serve(L, registry=KernelRegistry())
    session.warm()
    scheduler = session.scheduler()
    seeds = list(range(FUSION_REQUESTS))

    def fused():
        for seed in seeds:
            scheduler.submit(FUSION_K, seed=seed, method="spectral")
        return [r.subset for r in scheduler.drain()]

    def sequential():
        return [session.sample(FUSION_K, seed=seed, method="spectral").subset
                for seed in seeds]

    identical = fused() == sequential()  # also warms both paths
    sequential_s = _best_of(sequential)
    fused_s = _best_of(fused)
    session.close()
    return {
        "bench": "planner-spectral-fusion",
        "n": FUSION_N,
        "k": FUSION_K,
        "requests": FUSION_REQUESTS,
        "cpu_count": os.cpu_count(),
        "sequential_s": sequential_s,
        "fused_s": fused_s,
        "fusion_speedup": sequential_s / fused_s,
        "values_identical": identical,
    }


# ---------------------------------------------------------------------- #
# pytest entry points (CI smoke job runs the module; tier-1 gets the small grid)
# ---------------------------------------------------------------------- #
def test_planner_auto_within_tolerance_small_grid():
    for report in planner_report(small=True):
        print(json.dumps(report))
        assert report["values_identical"], report
        if not report["within_tolerance"]:
            warnings.warn(
                f"auto is {report['auto_over_best']:.2f}x the best forced backend "
                f"({report['best_forced']}) on the {report['cell']} cell",
                RuntimeWarning, stacklevel=0)


def test_spectral_fusion_identity_and_speedup():
    report = fusion_report()
    print(json.dumps(report))
    assert report["values_identical"], report
    if report["fusion_speedup"] < FUSION_TARGET:
        warnings.warn(
            f"spectral fusion speedup is {report['fusion_speedup']:.2f}x "
            f"(< {FUSION_TARGET}x advisory target)",
            RuntimeWarning, stacklevel=0)


def main() -> int:
    reports = planner_report()
    fusion = fusion_report()
    emit_reports(reports + [fusion], sys.argv[1] if len(sys.argv) > 1 else None)
    ok = all(r["values_identical"] and r["within_tolerance"] for r in reports)
    if not fusion["values_identical"]:
        ok = False
    elif fusion["fusion_speedup"] < FUSION_TARGET:
        warnings.warn(
            f"spectral fusion speedup {fusion['fusion_speedup']:.2f}x is below the "
            f"{FUSION_TARGET}x advisory target (not gating: thread scheduling on "
            "shared runners is noisy)", RuntimeWarning, stacklevel=0)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
