#!/usr/bin/env python
"""Run the hot-path benchmarks and record them to ``BENCH_*.json``.

The JSON files are the repo's performance trajectory: each entry of
``"runs"`` is one measurement of a fast path raced against its kept
reference implementation.  Subsequent performance PRs should re-run this
script and compare against the committed numbers before and after their
change.

* ``--suite dp`` → ``BENCH_dp.json`` via ``benchmarks/bench_dp_hotpath.py``
  (vectorized MadPipe-DP vs the naive recursion);
* ``--suite phase2`` → ``BENCH_phase2.json`` via
  ``benchmarks/bench_phase2_hotpath.py`` (ILP period search and the
  1F1B\\* kernel vs their references);
* ``--suite all`` (default) → both.

Every other performance number (plan latency, sweep wall time, serve
QPS, per-layer self time, tracing overhead) comes from the layer ledger,
``benchmarks/ledger/run.py``.

Usage::

    python scripts/bench_report.py [--smoke] [--suite dp|phase2|all]

``--smoke`` shrinks every suite to a single quick instance (used by CI
to keep the script from rotting).
"""

from __future__ import annotations

import argparse
import json
import os
import platform as platform_mod
import sys
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))  # the suites import tests.oracles
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
sys.path.insert(0, str(REPO_ROOT / "src"))

import bench_dp_hotpath  # noqa: E402
import bench_phase2_hotpath  # noqa: E402


def _payload(smoke: bool, runs) -> dict:
    return {
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "smoke": smoke,
        "python": platform_mod.python_version(),
        "cpu_count": os.cpu_count(),
        "runs": runs,
    }


def _summarize(records: list[dict]) -> None:
    """Per-run speedup range plus the aggregate (total ref / total fast);
    tolerant of records without a reference measurement."""
    ratios = [r["speedup"] for r in records if "speedup" in r]
    fast = sum(r.get("fast_s", 0.0) for r in records)
    ref = sum(r.get("reference_s", 0.0) for r in records if "reference_s" in r)
    if ratios:
        agg = f", aggregate {ref / fast:.2f}x" if fast > 0 and ref > 0 else ""
        print(
            f"speedup vs reference: min {min(ratios):.2f}x "
            f"max {max(ratios):.2f}x{agg}"
        )


def run_dp(smoke: bool, out_dir: Path) -> None:
    if smoke:
        runs = bench_dp_hotpath.run_bench(
            networks=("resnet50",),
            grids=("coarse",),
            repeats=1,
            iterations=4,
            reference_grids=("coarse",),
        )
    else:
        runs = bench_dp_hotpath.run_bench()
    out = out_dir / "BENCH_dp.json"
    out.write_text(json.dumps(_payload(smoke, runs), indent=1) + "\n")
    print(bench_dp_hotpath.render(runs))
    _summarize(runs)
    print(f"wrote {out}\n")


def run_phase2(smoke: bool, out_dir: Path) -> None:
    result = bench_phase2_hotpath.run_bench(smoke=smoke)
    out = out_dir / "BENCH_phase2.json"
    out.write_text(json.dumps(_payload(smoke, result), indent=1) + "\n")
    print(bench_phase2_hotpath.render(result))
    for name in ("ilp", "onef1b"):
        print(f"{name}: ", end="")
        _summarize(result[name])
    print(f"wrote {out}\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="one quick instance per suite — just proves the harness works",
    )
    parser.add_argument(
        "--suite",
        choices=("dp", "phase2", "all"),
        default="all",
        help="which benchmark suite(s) to run",
    )
    parser.add_argument(
        "-o", "--out-dir", default=str(REPO_ROOT), help="directory for BENCH_*.json"
    )
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    if args.suite in ("dp", "all"):
        run_dp(args.smoke, out_dir)
    if args.suite in ("phase2", "all"):
        run_phase2(args.smoke, out_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
