"""Shared table-printing and fitting helpers for the benchmark harness.

Every benchmark prints the rows/series it reproduces (the paper has no
numbered tables — each experiment regenerates a theorem's quantitative claim;
see EXPERIMENTS.md) and also stores the key numbers in
``benchmark.extra_info`` so they survive in pytest-benchmark's JSON output.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
from typing import Dict, Optional, Sequence, Union

import numpy as np

#: Default landing spot for the cross-run trajectory: one JSON line per bench
#: report, appended on every run, next to this file's parent (the repo root).
TRAJECTORY_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                               "BENCH_trajectory.json")

_PROVENANCE: Optional[Dict[str, object]] = None


def provenance() -> Dict[str, object]:
    """Where/what produced these numbers: git SHA, host, CPUs, BLAS vendor.

    Computed once per process (the git subprocess is the expensive part) and
    stamped into every report line by :func:`emit_reports`, so trajectory
    lines from different machines/commits stay comparable after the fact.
    Every field degrades to a placeholder rather than raising: benchmarks
    must run from tarballs and containers without git just as well.
    """
    global _PROVENANCE
    if _PROVENANCE is not None:
        return dict(_PROVENANCE)
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except Exception:
        sha = "unknown"
    try:
        hostname = socket.gethostname()
    except Exception:
        hostname = "unknown"
    _PROVENANCE = {
        "git_sha": sha,
        "hostname": hostname,
        "cpu_count": os.cpu_count() or 0,
        "blas": _blas_vendor(),
        "numpy": np.__version__,
    }
    return dict(_PROVENANCE)


def _blas_vendor() -> str:
    """Best-effort BLAS library name from numpy's build/runtime config."""
    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
        name = blas.get("name", "")
        if name:
            return str(name)
    except Exception:
        pass
    try:  # older numpy: parse the printed config header
        import numpy.__config__ as npconfig
        for attr in ("blas_ilp64_opt_info", "blas_opt_info", "blas_info"):
            info = getattr(npconfig, attr, None)
            if isinstance(info, dict) and info.get("libraries"):
                return str(info["libraries"][0])
    except Exception:
        pass
    return "unknown"


def append_trajectory(reports: Union[Dict, Sequence[Dict]],
                      path: Optional[str] = None) -> str:
    """Append one JSON line per report to the shared ``BENCH_trajectory.json``.

    Every benchmark's machine-readable report lands in a single append-only
    JSON-lines file so speed/memory numbers can be compared across commits
    without hunting per-script artifacts.  Override the destination with
    ``path=`` or the ``BENCH_TRAJECTORY`` environment variable (the empty
    string disables appending — useful for throwaway local runs).

    The file is created even when ``reports`` is empty, so downstream
    tooling (CI artifact collection, trajectory diffing) can rely on its
    existence after any benchmark run.
    """
    if isinstance(reports, dict):
        reports = [reports]
    destination = path if path is not None else os.environ.get("BENCH_TRAJECTORY",
                                                               TRAJECTORY_PATH)
    if destination:
        with open(destination, "a") as handle:
            for report in reports:
                handle.write(json.dumps(report) + "\n")
    return destination


def emit_reports(reports: Union[Dict, Sequence[Dict]],
                 output: Optional[str] = None) -> None:
    """Print each report as a JSON line, mirror to ``output``, log trajectory.

    The shared tail of every benchmark ``main()``: stdout gets the JSON lines
    (CI greps them), ``output`` (usually ``sys.argv[1]``) gets the same lines
    as the uploaded artifact, and :func:`append_trajectory` accumulates them
    in the cross-run trajectory file.  Each line is stamped with
    :func:`provenance` (git SHA, hostname, CPU count, BLAS vendor) unless the
    report already carries its own ``provenance`` key.
    """
    if isinstance(reports, dict):
        reports = [reports]
    stamp = provenance()
    reports = [report if "provenance" in report
               else {**report, "provenance": stamp}
               for report in reports]
    lines = [json.dumps(report) for report in reports]
    for line in lines:
        print(line)
    if output:
        with open(output, "w") as handle:
            handle.write("\n".join(lines) + "\n")
    append_trajectory(reports)


def print_table(title: str, headers: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Render a small fixed-width table to stdout."""
    print(f"\n=== {title} ===")
    widths = [max(len(str(h)), max((len(_fmt(r[i])) for r in rows), default=0)) + 2
              for i, h in enumerate(headers)]
    print("".join(str(h).rjust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("".join(_fmt(cell).rjust(w) for cell, w in zip(row, widths)))


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000 or abs(cell) < 0.01:
            return f"{cell:.3g}"
        return f"{cell:.3f}"
    return str(cell)


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares exponent of ``y ~ x^alpha`` (slope in log-log space)."""
    x = np.log(np.asarray(xs, dtype=float))
    y = np.log(np.asarray(ys, dtype=float))
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)


def record(benchmark, **info) -> None:
    """Store scalars in pytest-benchmark's extra_info (stringify numpy types)."""
    if benchmark is None:
        return
    for key, value in info.items():
        if isinstance(value, (np.floating, np.integer)):
            value = float(value)
        benchmark.extra_info[key] = value


def best_of(run, repeats: int = 3) -> float:
    """Minimum wall-clock seconds of ``run()`` over ``repeats`` calls.

    The shared timing primitive of the sweep-style benchmarks: min-of-N is
    robust to one-off scheduler hiccups on shared runners, and keeping one
    definition here stops per-script copies from diverging.
    """
    import time

    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best
