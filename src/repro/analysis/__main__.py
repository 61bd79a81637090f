"""CLI entry point: ``python -m repro.analysis src benchmarks``.

Exit codes: ``0`` clean, ``1`` violations (or scan errors), ``2`` usage /
internal error — the contract CI's ``analysis`` job gates on.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.checker import ALL_RULES, check_paths


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=("determinism & concurrency invariant checker: "
                     "R1 determinism, R2 lock discipline, R3 shipping "
                     "contract, R4 export hygiene, R5 unused imports"),
    )
    parser.add_argument("paths", nargs="*", default=[],
                        help="files or directory trees to scan (e.g. src benchmarks)")
    parser.add_argument("--json", metavar="FILE", default=None,
                        help="also write the machine-readable report to FILE")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-violation lines; summary only")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        options = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if options.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.id}: {rule.summary}")
        return 0
    if not options.paths:
        parser.print_usage(sys.stderr)
        print("error: no paths given", file=sys.stderr)
        return 2
    try:
        report = check_paths(options.paths)
    except Exception as exc:  # pragma: no cover - internal-error guard
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if options.json:
        try:
            with open(options.json, "w", encoding="utf-8") as handle:
                handle.write(report.to_json())
                handle.write("\n")
        except OSError as exc:
            print(f"error: cannot write {options.json}: {exc}", file=sys.stderr)
            return 2
    if options.quiet:
        lines = report.render().splitlines()
        print(lines[-1])
    else:
        print(report.render())
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
