"""Streaming-kernel benchmark: incremental updates instead of O(n³) recompute.

Measures the three claims the streaming tier (:mod:`repro.linalg.updates` +
``SamplerSession.update``/``append_items``) makes:

* **updates beat refactorization** — at ``n = BENCH_STREAMING_N`` (default
  2000) with a rank-8 factor kernel, one incremental mutation (append one
  item + delete one item, patching the cached k-sized artifacts) is gated
  ≥ 5x faster wall-clock than the dense O(n³) refactorization of the same
  ensemble (``KernelFactorization(B Bᵀ).warm()``) that a
  recompute-on-mutate serving layer would pay.  A dense rank-1 secular
  update at ``n = BENCH_STREAMING_DENSE_N`` (default 600) is reported as an
  advisory ratio against a fresh ``numpy.linalg.eigh``.
* **deltas, not matrices, cross the wire** — the pickled ``update`` request
  frame a :class:`~repro.cluster.client.ClusterClient` ships is gated to
  ≤ a small multiple of the update's array payload (O(n·k) bytes for an
  appended row) and ≪ the full re-registration frame it replaces.
* **throughput survives mutation** — a sampler loop keeps draining fused
  rounds while a mutator thread rewrites the kernel at ~50 Hz; the run is
  gated on zero errors and every draw landing on a valid epoch.

One machine-readable JSON line per run is printed (and written to
``argv[1]``, and appended to ``BENCH_trajectory.json``):
``PYTHONPATH=src python benchmarks/bench_streaming.py [output.json]``.
"""

from __future__ import annotations

import os
import pickle
import sys
import threading
import time
from typing import Dict

import numpy as np
import pytest

from _helpers import best_of, emit_reports
from repro.linalg.updates import KernelUpdate, rank_one_eigh_update
from repro.service.cache import KernelFactorization
from repro.service.registry import KernelRegistry

N_STREAM = int(os.environ.get("BENCH_STREAMING_N", "2000"))
N_DENSE = int(os.environ.get("BENCH_STREAMING_DENSE_N", "600"))
RANK = 8
K = 8
SPEEDUP_GATE = 5.0
#: one appended row is RANK doubles; the frame may cost a few pickling
#: envelopes on top but never a second copy of the kernel
DELTA_OVERHEAD_BYTES = 4096
MUTATION_HZ = 50.0
MUTATE_SECONDS = 1.5


def _factor(n: int, rank: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, rank)) / np.sqrt(rank)


def _update_leg(n: int, rank: int) -> Dict[str, float]:
    """Patch-vs-refactorization timings on one registered low-rank kernel."""
    factor = _factor(n, rank, seed=0)
    registry = KernelRegistry()
    registry.register("stream", factor, kind="lowrank")
    session = registry.session("stream").warm()
    rng = np.random.default_rng(1)
    rows = iter(rng.standard_normal((64, rank)) / np.sqrt(rank))

    def one_update() -> None:
        # append one item + delete the oldest: constant-size mutation, and
        # both cached-artifact patch paths (concat + delete) get exercised
        session.append_items(next(rows))
        session.delete_items([0])

    update_seconds = best_of(one_update) / 2.0  # two updates per call
    dense = np.asarray(session.entry.matrix) @ np.asarray(session.entry.matrix).T

    def refactorize() -> None:
        KernelFactorization(dense).warm()

    refactor_seconds = best_of(refactorize)
    subset = session.sample(K, seed=7).subset
    epoch = session.epoch
    session.close()
    return {
        "update_seconds": update_seconds,
        "refactor_seconds": refactor_seconds,
        "speedup_vs_refactor": refactor_seconds / max(update_seconds, 1e-12),
        "final_epoch": float(epoch),
        "sample_size": float(len(subset)),
    }


def _delta_leg(n: int, rank: int) -> Dict[str, float]:
    """Wire-size accounting: the frames are pickled exactly as the cluster
    protocol pickles them (protocol 5), no sockets needed for byte counts."""
    factor = _factor(n, rank, seed=2)
    update = KernelUpdate.append_rows(_factor(1, rank, seed=3))
    update_frame = pickle.dumps(
        {"op": "update", "name": "stream", "update": update,
         "prev": "0" * 64}, protocol=5)
    register_frame = pickle.dumps(
        {"op": "register", "name": "stream", "matrix": factor,
         "kind": "lowrank", "parts": None, "counts": None,
         "warm": False, "validate": True}, protocol=5)
    return {
        "delta_payload_bytes": float(update.delta_nbytes),
        "delta_frame_bytes": float(len(update_frame)),
        "register_frame_bytes": float(len(register_frame)),
    }


def _throughput_leg(n: int, rank: int) -> Dict[str, float]:
    """Sampler draws while a mutator thread rewrites the kernel at ~50 Hz."""
    registry = KernelRegistry()
    registry.register("live", _factor(n, rank, seed=4), kind="lowrank")
    session = registry.session("live").warm()
    rng = np.random.default_rng(5)
    rows = rng.standard_normal((512, rank)) / np.sqrt(rank)
    stop = threading.Event()
    errors: list = []

    def mutate() -> None:
        i = 0
        while not stop.is_set() and i < rows.shape[0]:
            try:
                session.append_items(rows[i])
                session.delete_items([0])
            except BaseException as exc:  # surfaced in the report, gates the run
                errors.append(repr(exc))
                return
            i += 1
            time.sleep(1.0 / MUTATION_HZ)

    mutator = threading.Thread(target=mutate, name="bench-stream-mutator")
    mutator.start()
    draws = 0
    epochs_seen = set()
    start = time.perf_counter()
    try:
        while time.perf_counter() - start < MUTATE_SECONDS:
            result = session.sample(K, seed=1000 + draws)
            epochs_seen.add(int(result.report.extra.get("kernel_epoch", 0.0)))
            draws += 1
    except BaseException as exc:
        errors.append(repr(exc))
    finally:
        stop.set()
        mutator.join()
        elapsed = time.perf_counter() - start
        final_epoch = session.epoch
        session.close()
    return {
        "sustained_rps": draws / max(elapsed, 1e-9),
        "sustained_draws": float(draws),
        "epochs_absorbed": float(final_epoch),
        "distinct_epochs_sampled": float(len(epochs_seen)),
        "errors": len(errors),
    }


def _dense_advisory(n: int) -> Dict[str, float]:
    """Advisory (ungated): secular rank-1 eigen update vs a fresh eigh."""
    rng = np.random.default_rng(6)
    a = rng.standard_normal((n, n))
    matrix = (a @ a.T) / n
    eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    z = rng.standard_normal(n) / np.sqrt(n)
    update_seconds = best_of(
        lambda: rank_one_eigh_update(eigenvalues, eigenvectors, z, 0.5))
    eigh_seconds = best_of(
        lambda: np.linalg.eigh(matrix + 0.5 * np.outer(z, z)))
    return {
        "dense_n": float(n),
        "dense_update_seconds": update_seconds,
        "dense_eigh_seconds": eigh_seconds,
        "dense_speedup_vs_eigh": eigh_seconds / max(update_seconds, 1e-12),
    }


def streaming_report(n: int = N_STREAM, rank: int = RANK,
                     dense_n: int = N_DENSE) -> Dict[str, object]:
    """The benchmark body; returns one JSON-serializable report."""
    report: Dict[str, object] = {"bench": "streaming", "n": n, "rank": rank,
                                 "k": K}
    report.update(_update_leg(n, rank))
    report.update(_delta_leg(n, rank))
    report.update(_throughput_leg(n, rank))
    report.update(_dense_advisory(dense_n))
    return report


def _gates(report: Dict[str, object]) -> bool:
    delta_budget = (4.0 * report["delta_payload_bytes"] + DELTA_OVERHEAD_BYTES)
    return (report["speedup_vs_refactor"] >= SPEEDUP_GATE
            and report["delta_frame_bytes"] <= delta_budget
            and report["delta_frame_bytes"] < report["register_frame_bytes"]
            and report["errors"] == 0
            and report["sustained_draws"] > 0
            and report["epochs_absorbed"] > 0)


# ---------------------------------------------------------------------- #
# pytest entry points (tier-1 runs these at reduced sizes; the CI streaming
# job runs main() at the full defaults as the hard gate)
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def report():
    # the margin is orders of magnitude (an O(n·k²) patch vs an O(n³) eigh);
    # re-measure once so a scheduler hiccup on a shared runner doesn't flake
    result = streaming_report(n=512, dense_n=256)
    if result["speedup_vs_refactor"] < SPEEDUP_GATE:
        result = streaming_report(n=512, dense_n=256)
    return result


def test_update_beats_refactorization(report):
    """Acceptance pin: an incremental update is ≥ 5x faster than recompute."""
    assert report["speedup_vs_refactor"] >= SPEEDUP_GATE, (
        f"incremental update should be >= {SPEEDUP_GATE}x faster than a dense "
        f"refactorization at n={report['n']} "
        f"(got {report['speedup_vs_refactor']:.2f}x)"
    )


def test_cluster_ships_deltas_not_matrices(report):
    """Acceptance pin: the update frame is O(n·k) delta bytes, not the kernel."""
    assert report["delta_frame_bytes"] <= (4.0 * report["delta_payload_bytes"]
                                           + DELTA_OVERHEAD_BYTES)
    assert report["delta_frame_bytes"] < report["register_frame_bytes"]


def test_throughput_survives_mutation(report):
    """Acceptance pin: fused draws keep landing while the kernel mutates."""
    assert report["errors"] == 0
    assert report["sustained_draws"] > 0
    assert report["epochs_absorbed"] > 0


def main() -> int:
    result = streaming_report()
    if result["speedup_vs_refactor"] < SPEEDUP_GATE:
        result = streaming_report()
    emit_reports(result, sys.argv[1] if len(sys.argv) > 1 else None)
    return 0 if _gates(result) else 1


if __name__ == "__main__":
    sys.exit(main())
