"""Serving recommender-diversity traffic through the sampling service layer.

Simulates many concurrent users requesting diverse item slates from one
registered catalog kernel and reports amortized latency:

* **cold path** — each request pays full preprocessing (what calling the
  module-level sampler per request costs);
* **warm session** — requests share one cached factorization
  (``repro.serve``), so only the per-draw work remains;
* **fused scheduler** — concurrent parallel-sampler requests are coalesced
  into shared engine rounds (``submit()`` / ``drain()``).

Fixed seeds make every path return identical slates — the service layer is
pure wall-clock engineering on top of the paper's samplers.

Run:  python examples/serving_traffic.py
"""

from __future__ import annotations

import time

import numpy as np

import repro
from repro.dpp.spectral import sample_kdpp_spectral
from repro.workloads import random_psd_ensemble

CATALOG_SIZE = 200
KERNEL_RANK = 60
SLATE_SIZE = 8
USERS = 24


def main() -> None:
    L = random_psd_ensemble(CATALOG_SIZE, rank=KERNEL_RANK, seed=0)
    registry = repro.KernelRegistry()
    registry.register("catalog", L)
    print(f"Registered catalog kernel: n={CATALOG_SIZE}, rank={KERNEL_RANK}; "
          f"serving {USERS} users, slates of {SLATE_SIZE}\n")

    # --- cold path: every user pays the eigendecomposition ------------- #
    start = time.perf_counter()
    cold_slates = [sample_kdpp_spectral(L, SLATE_SIZE, seed=user) for user in range(USERS)]
    cold = time.perf_counter() - start

    # --- warm session: preprocessing amortized across users ------------ #
    session = registry.session("catalog")
    session.sample(k=SLATE_SIZE, seed=0)  # first request fills the cache
    start = time.perf_counter()
    warm_slates = [session.sample(k=SLATE_SIZE, seed=user).subset for user in range(USERS)]
    warm = time.perf_counter() - start

    assert warm_slates == cold_slates, "cache must never change samples"
    print("== per-request latency (spectral sampler) ==")
    print(f"cold:  {1e3 * cold / USERS:7.2f} ms/request   ({USERS / cold:7.1f} req/s)")
    print(f"warm:  {1e3 * warm / USERS:7.2f} ms/request   ({USERS / warm:7.1f} req/s)")
    print(f"amortization speedup: {cold / warm:.1f}x, identical slates: True\n")

    # --- concurrent traffic: fused parallel-sampler rounds ------------- #
    start = time.perf_counter()
    unfused = [session.sample(k=SLATE_SIZE, seed=user, method="parallel").subset
               for user in range(USERS)]
    unfused_time = time.perf_counter() - start

    scheduler = repro.RoundScheduler(session)
    for user in range(USERS):
        scheduler.submit(SLATE_SIZE, seed=user)
    start = time.perf_counter()
    fused = [result.subset for result in scheduler.drain()]
    fused_time = time.perf_counter() - start

    assert fused == unfused, "fusion must never change samples"
    stats = scheduler.stats
    print("== concurrent traffic (parallel sampler, Theorem 10) ==")
    print(f"unfused: {1e3 * unfused_time / USERS:7.2f} ms/request")
    print(f"fused:   {1e3 * fused_time / USERS:7.2f} ms/request   "
          f"({stats['submitted_batches']} request rounds -> "
          f"{stats['executed_batches']} engine rounds)")
    print("identical slates fused vs unfused: True\n")

    sample = warm_slates[0]
    print(f"example slate for user 0: {sample}")
    print("session stats:", session.stats)


if __name__ == "__main__":
    main()
