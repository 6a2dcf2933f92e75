#!/usr/bin/env python
"""Run the paper's evaluation grid (§5) and render Figs. 6-8 from it.

The one producer of ``results/paper_grid.jsonl``: every (network, P, M,
β, algorithm) instance Figs. 6, 7 and 8 need, planned in one
:func:`repro.api.sweep` call, then ``fig6.txt``, ``fig7.txt`` and
``fig8.txt`` rendered from the sweep's results next to ``--out``.
Instances already in the cache are replayed, not solved: on the
committed cache the script solves nothing and re-renders the figures
byte for byte, and a killed sweep resumes from where it stopped.
``--resume`` additionally re-runs cached instances that previously
ended in ``solver_timeout``/``error``.  Crashed or deadline-blowing
instances are retried ``--max-retries`` times with exponential backoff
before the sweep records a typed error result and moves on.

All runtime flags are the canonical sweep options shared with
``repro sweep`` (defined once in :func:`repro.cli.sweep_options` and
turned into ``api.sweep`` arguments by :func:`repro.cli.sweep_kwargs`);
this script only adds ``--fast`` and fixes the grid axes to the paper's.

Usage::

    python scripts/run_paper_sweep.py [--fast --out PATH] [--resume]
        [--workers N] [--max-retries N] [--instance-timeout S] [--trace PATH]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro import api
from repro.cli import sweep_kwargs, sweep_options
from repro.experiments import (
    FIG8_PROCS,
    PAPER_BANDWIDTHS_GBPS,
    PAPER_MEMORIES_GB,
    PAPER_NETWORKS,
    PAPER_PROCS,
    fig6_data,
    fig7_data,
    fig8_data,
    render_fig6,
    render_fig7,
    render_fig8,
)

DEFAULT_OUT = "results/paper_grid.jsonl"


def paper_specs() -> list[api.SweepSpec]:
    """Figs. 6 & 7's full (network, P, M, β) grid, then Fig. 8's
    intermediate processor counts at β = 12."""
    return [
        api.SweepSpec(
            PAPER_NETWORKS, PAPER_PROCS, PAPER_MEMORIES_GB, PAPER_BANDWIDTHS_GBPS
        ),
        api.SweepSpec(
            PAPER_NETWORKS,
            [p for p in FIG8_PROCS if p not in PAPER_PROCS],
            (4, 8, 12, 16),
            12,
        ),
    ]


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, parents=[sweep_options()]
    )
    parser.add_argument(
        "--fast", action="store_true",
        help="reduced grid for quick checks (needs its own --out)",
    )
    parser.add_argument(
        "--out", default=DEFAULT_OUT,
        help="cache file path; fig6/7/8.txt are written next to it",
    )
    # paper defaults: keep going on exhausted instances, record them typed
    parser.set_defaults(on_error="record")
    args = parser.parse_args()
    if args.fast and args.out == DEFAULT_OUT:
        parser.error("--fast needs its own --out: the figures are written next to it")

    specs = (
        api.SweepSpec("resnet50", (2, 4), (4, 8, 16), 12) if args.fast
        else paper_specs()
    )
    t0 = time.time()
    result = api.sweep(specs, **sweep_kwargs(args))
    print(f"sweep done in {time.time() - t0:.0f}s, {len(result)} instances")
    print(result.render_summary())
    print("counters: " + " ".join(f"{k}={v}" for k, v in sorted(result.metrics.items())))

    out_dir = Path(args.out).parent
    for name, text in (
        ("fig6.txt", render_fig6(fig6_data(result.results, "resnet50"))),
        ("fig7.txt", render_fig7(fig7_data(result.results))),
        ("fig8.txt", render_fig8(fig8_data(result.results))),
    ):
        (out_dir / name).write_text(text)
    print(f"figures: {', '.join(str(out_dir / n) for n in ('fig6.txt', 'fig7.txt', 'fig8.txt'))}")
    if args.trace:
        print(f"trace: {args.trace} (see 'repro trace summary {args.trace}')")
    return 0


if __name__ == "__main__":
    sys.exit(main())
