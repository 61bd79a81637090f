"""The repository benchmark: three pinned serving workloads, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload hkpv-warm --seed 1 --seconds 20 --trace 0

A run sets the workload up from cold a pinned number of times, measures one
closed-loop window of at least ``--seconds``, sets it up as many times again
(set-up time is the median of all set-ups), and checks every output outside
the timed window.  ``--trace 1`` adds a second window with every layer's
entry points wrapped (``spans.py``) and reports the per-layer split instead
of the end-to-end metrics.  Human-readable tables and one
provenance-stamped JSON report go to standard output first; the last line
is the result::

    {"correct": true, "attempted": 41, "failed": 0, "metrics": {...}}

The metric names, units and bounds are declared in ``BENCHMARK.json`` at the
repository root, and which end-to-end metric each per-layer metric should
move, on which workload, in ``perfbench/layers.json``.  A run fails (exit 1,
``"correct": false``) on any wrong output, on any ``RuntimeWarning`` (such
as a process-backend spawn fallback), or when a wrapped entry point records
calls on a workload that bypasses it, or none on one that exercises it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time
import warnings
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: the tail percentile is reported only with this many requests beyond it
TAIL_SAMPLES = 10
LAYERS = ("service", "cluster", "engine", "core", "dpp", "linalg")
ROUTES = ("serial", "vectorized", "threads", "process")


@dataclass
class Traced:
    """The traced window with what the wrappers and counters saw."""

    window: object
    split: object
    before: Dict[str, float]
    after: Dict[str, float]
    decisions: List[object] = field(default_factory=list)
    #: (decision, measured seconds) of every routed round
    observations: List[Tuple[object, float]] = field(default_factory=list)

    def delta(self, name: str) -> float:
        return self.after.get(name, 0) - self.before.get(name, 0)


def _per(value: float, count: float) -> float:
    return value / count if count else 0.0


def _rounds(requests) -> int:
    return sum(request.report.rounds for request in requests if request.report is not None)


def _reports(window):
    return [request.report for request in window.first_pass if request.report is not None]


def end_to_end(window, setup_s: List[float], peak_rss_mb: float) -> Dict[str, float]:
    """The gated metrics; timed ones come from the window's best pass.

    On a shared host the CPU speed drifts by 1.5x or more in phases of
    several seconds, so whole-window means mostly measure the neighbours.
    The best pass (each op of the pinned pass at its fastest service in the
    window) is the steadiest estimate of what the program itself costs.
    Any wrong output fails the run, so every sample counted here is correct.
    """
    best = window.best_pass()
    seconds = sum(op_seconds for op_seconds, _served in best)
    requests = [request for _seconds, served in best for request in served]
    return {
        "samples_per_s": len(requests) / seconds,
        "latency_p50_ms": 1e3 * statistics.median(request.latency for request in requests),
        "rounds_per_sample": statistics.mean(report.rounds for report in _reports(window)),
        "s_per_round": seconds / _rounds(requests),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb,
    }


def workload_only(window, failed: int) -> Dict[str, float]:
    """Whole-window figures, some defined on some workloads only (printed, not gated)."""
    import numpy as np

    latencies = [request.latency for request in window.requests]
    extra = {"requests": len(window.requests), "writes": len(window.write_latencies),
             "window_samples_per_s": len(window.requests) / window.wall,
             "failed_ratio": _per(failed, len(window.requests) + len(window.write_latencies))}
    if len(latencies) * (1 - 0.99) >= TAIL_SAMPLES:
        extra["latency_p99_ms"] = 1e3 * float(np.percentile(latencies, 99))
    if window.write_latencies:
        extra["update_p50_ms"] = 1e3 * statistics.median(window.write_latencies)
    return extra


def set_up(workload) -> List[float]:
    """Seconds of each of ``workload.setups`` cold set-ups (it is left set up).

    Set-ups run before the windows and again after them, so their median
    spans the run rather than one of the host's speed phases.  The count is
    pinned, not timed: each cluster set-up leaves memory behind, so a timed
    count would make ``peak_rss_mb`` follow the host's speed.
    """
    durations = []
    for _ in range(workload.setups):
        start = time.perf_counter()
        workload.setup()
        durations.append(time.perf_counter() - start)
    return durations


def trace_window(workload, seconds: float) -> Traced:
    from spans import Recorder

    traced = Traced(window=None, split=None, before=workload.counters(), after={})
    recorder = Recorder(traced.decisions.append,
                        lambda decision, result: traced.observations.append(
                            (decision, result.wall_time)))
    recorder.install()
    try:
        start = time.perf_counter()
        traced.window = workload.window(seconds)
        end = time.perf_counter()
    finally:
        recorder.uninstall()
    traced.after = workload.counters()
    traced.split = recorder.split(start, end)
    return traced


def per_layer(plain, traced: Traced, verdict, fallbacks: int) -> Dict[str, float]:
    window, split = traced.window, traced.split
    rounds = _rounds(window.requests)
    writes = len(window.write_latencies)

    def ms(*keys: str) -> float:
        return 1e3 * sum(split.self_s.get(key, 0.0) for key in keys)

    first = _reports(plain)
    routes = Counter(decision.chosen for decision in traced.decisions)
    predicted = [(decision.estimates[decision.chosen], measured)
                 for decision, measured in traced.observations
                 if decision.chosen in decision.estimates]
    shares = split.layer_shares()
    failed_traced = verdict.failed_per_window[-1]
    plain_rate = (len(plain.requests) - verdict.failed_per_window[0]) / plain.wall
    traced_rate = (len(window.requests) - failed_traced) / window.wall
    calls = split.calls
    return {
        "service.sample.self_ms": _per(ms("service.sample"), calls["service.sample"]),
        "service.cache.hit_ratio": _per(traced.delta("cache_hits"), traced.delta("cache_lookups")),
        "service.cache.patched_per_update": _per(traced.delta("update_patched"), writes),
        "service.cache.recomputed_per_update": _per(traced.delta("update_recomputed"), writes),
        "engine.plan.ms_per_round": _per(1e3 * split.inclusive_s["engine.plan"], rounds),
        "engine.execute.self_ms_per_round": _per(ms("engine.execute", "engine.pool_wait"), rounds),
        **{f"engine.route_share.{route}": _per(routes[route], len(traced.decisions))
           for route in ROUTES},
        "engine.measured_over_predicted": _per(sum(m for _p, m in predicted),
                                               sum(p for p, _m in predicted)),
        "engine.fallbacks": fallbacks,
        "core.oracle_calls_per_sample": statistics.mean(r.oracle_calls for r in first),
        "core.work_per_sample": statistics.mean(r.work for r in first),
        "core.acceptance_mean": statistics.mean(r.mean_acceptance for r in first),
        "dpp.marginals.ms_per_round": _per(ms("dpp.marginals"), rounds),
        "dpp.leave_one_out_esp.ms_per_round": _per(ms("dpp.leave_one_out_esp"), rounds),
        "dpp.normalization.ms_per_round": _per(ms("dpp.normalization"), rounds),
        "dpp.intermediate.ms_per_sample": _per(ms("dpp.intermediate"), len(window.requests)),
        "linalg.eig.calls_per_round": _per(calls["linalg.eig"], rounds),
        "linalg.eig.ms_per_round": _per(ms("linalg.eig"), rounds),
        "linalg.projection_step.ms_per_round": _per(ms("linalg.projection_step"), rounds),
        "linalg.updates.ms_per_update": _per(ms("linalg.updates"), writes),
        "cluster.rpc.ms": _per(1e3 * split.inclusive_s["cluster.wire"], calls["cluster.wire"]),
        "cluster.wire.self_ms": _per(ms("cluster.wire"), calls["cluster.wire"]),
        "cluster.node.self_ms": _per(ms("cluster.node"), calls["cluster.node"]),
        "cluster.failovers": traced.delta("failovers"),
        **{f"share.{layer}": shares.get(layer, 0.0) for layer in LAYERS},
        "share.other": shares.get("other", 0.0),
        "trace.overhead_ratio": _per(traced_rate, plain_rate),
    }


def self_check(workload, split) -> List[str]:
    """Wrappers must see calls exactly where the workload's layers run."""
    problems = [f"{key}: no calls on {workload.name}, which exercises it"
                for key in sorted(workload.exercises) if not split.calls[key]]
    problems += [f"{key}: {split.calls[key]} calls on {workload.name}, which bypasses it"
                 for key in sorted(workload.bypasses) if split.calls[key]]
    return problems


def close_pools() -> None:
    """Join the executors the planner may have started, and every child process.

    The process backend's spawn pool and shared-memory store start
    multiprocessing's resource tracker, which would otherwise outlive the
    run by a moment; it is stopped and waited for here.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    from repro.engine import resolve_backend

    for name in ("threads", "process"):
        resolve_backend(name).close()
    for child in multiprocessing.active_children():
        child.join()
    resource_tracker._resource_tracker._stop()


def adopt_orphans() -> None:
    """Make this process the reaper of all its descendants (Linux only).

    A process started under the run whose own parent ends first is then
    re-parented to this process instead of to init, so ``stop_children``
    can still stop it and wait for it.
    """
    try:
        import ctypes

        pr_set_child_subreaper = 36
        ctypes.CDLL(None).prctl(pr_set_child_subreaper, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _children() -> List[Tuple[int, str]]:
    """``(pid, command)`` of every child of this process, zombies included."""
    children = []
    me = os.getpid()
    try:
        entries = os.listdir("/proc")
    except OSError:
        return children
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                ppid = int(handle.read().rsplit(")", 1)[1].split()[1])
            if ppid != me:
                continue
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                command = handle.read().replace(b"\0", b" ").decode(errors="replace").strip()
        except (OSError, IndexError, ValueError):
            continue
        children.append((int(entry), command))
    return children


def _stop(pid: int, grace: float) -> None:
    """Terminate ``pid`` (killed after ``grace`` seconds) and wait for it."""
    try:
        os.kill(pid, signal.SIGTERM)
        deadline = time.monotonic() + grace
        while os.waitpid(pid, os.WNOHANG)[0] == 0:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return
            time.sleep(0.01)
    except (ProcessLookupError, ChildProcessError):
        pass


def stop_children(grace: float = 5.0) -> List[str]:
    """Stop and wait for every process still running under this one.

    ``close_pools`` already ends every process the program is known to
    start; this is the last line of defence on every way out of the run,
    so that nothing the run started outlives it.  Stopping a child can
    orphan a grandchild onto this process (``adopt_orphans``), so it
    repeats until none is left.  Returns what it had to stop.
    """
    stopped: List[str] = []
    for _ in range(64):
        children = _children()
        if not children:
            break
        for pid, command in children:
            stopped.append(f"{pid} {command}")
            _stop(pid, grace)
    return stopped


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One BLAS thread (set before numpy loads): on a 2-vCPU shared host,
    # two-thread BLAS made whole thm10-serve runs bimodal, 300 or 600 ms a
    # request from one process to the next.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    sys.path[:0] =[os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks")]
    # provenance() asks git for the commit; never look above the checkout
    os.environ["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
    try:
        from _helpers import print_table, provenance
        from workloads import WORKLOADS
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            declared = json.load(handle)
        with open(os.path.join(HERE, "layers.json")) as handle:
            moves = json.load(handle)
    except (ImportError, OSError) as exc:
        print(f"perfbench: cannot load the program under test: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")

    workload = WORKLOADS[args.workload](args.seed)
    traced = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            setup_s = set_up(workload)
            plain = workload.window(args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if args.trace:
                traced = trace_window(workload, args.seconds)
            setup_s += set_up(workload)
            verdict = workload.check([plain] + ([traced.window] if traced else []))
        finally:
            workload.close()
            close_pools()
    problems = list(verdict.problems)
    runtime_warnings = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    problems += [f"RuntimeWarning: {message}" for message in runtime_warnings]

    e2e = end_to_end(plain, setup_s, peak_rss_mb)
    extra = workload_only(plain, verdict.failed_per_window[0])
    print_table(f"{args.workload} end to end (seed {args.seed}, closed loop, 1 client)",
                ["metric", "value"], [[name, value] for name, value in {**e2e, **extra}.items()])
    first = _reports(plain)
    pram = {"rounds_per_sample": e2e["rounds_per_sample"],
            "oracle_calls_per_sample": statistics.mean(r.oracle_calls for r in first),
            "work_per_sample": statistics.mean(r.work for r in first),
            "s_per_round": e2e["s_per_round"]}
    if args.trace:
        problems += self_check(workload, traced.split)
        fallbacks = sum("process backend" in message for message in runtime_warnings)
        layers = per_layer(plain, traced, verdict, fallbacks)
        pram["measured_over_predicted"] = layers["engine.measured_over_predicted"]
        print_table(f"{args.workload} per layer (traced window)", ["metric", "value", "moves"],
                    [[name, value, ",".join(moves.get(name, {}).get("moves", []))]
                     for name, value in layers.items()])
        split = traced.split
        print_table(f"{args.workload} self time by span (share of the traced window)",
                    ["span", "share", "calls"],
                    [[key, seconds / split.wall, split.calls[key]]
                     for key, seconds in sorted(split.self_s.items(), key=lambda kv: -kv[1])
                     if seconds > 0])
        metrics, section = layers, "per_layer"
    else:
        metrics, section = e2e, "end_to_end"
    print_table(f"{args.workload} PRAM model vs measured", list(pram), [list(pram.values())])

    units = {entry["name"]: entry["unit"] for entry in declared[section]}
    if set(metrics) != set(units):
        problems.append(f"metrics {sorted(set(metrics) ^ set(units))} disagree with "
                        f"BENCHMARK.json {section}")
    if set(moves) != {entry["name"] for entry in declared["per_layer"]}:
        problems.append("perfbench/layers.json and BENCHMARK.json per_layer disagree")
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)

    print(json.dumps({"report": {"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, "digest": verdict.digest,
                                 "setup_runs_s": setup_s, "metrics": metrics,
                                 "workload_only": extra, "pram": pram,
                                 "problems": problems},
                      "provenance": provenance()}))
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items() if name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    adopt_orphans()
    # a terminated run still stops its children on the way out
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(128 + signal.SIGTERM))
    try:
        status = main()
    finally:
        for leftover in stop_children():
            print(f"perfbench: stopped a process left running: {leftover}", file=sys.stderr)
    sys.exit(status)
