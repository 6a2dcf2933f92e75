#!/usr/bin/env python
"""Run the full paper evaluation grid (§5) and cache results to JSON.

Produces ``results/paper_grid.json`` with every (network, P, M, β,
algorithm) instance needed by Figs. 6, 7 and 8.  Instances already in the
cache are skipped, so a killed sweep resumes from where it stopped;
``--resume`` additionally re-runs cached instances that previously ended
in ``solver_timeout``/``error``.  Crashed or deadline-blowing instances
are retried ``--max-retries`` times with exponential backoff before the
sweep records a typed error result and moves on.

All runtime flags are the canonical sweep options shared with
``repro sweep`` (defined once in :func:`repro.cli.sweep_options` and
turned into ``run_grid`` arguments by :func:`repro.cli.sweep_kwargs`);
this script only adds ``--fast`` and fixes the grid axes to the paper's.

Usage::

    python scripts/run_paper_sweep.py [--fast] [--resume] [--workers N]
        [--max-retries N] [--instance-timeout S] [--trace PATH]
"""

from __future__ import annotations

import argparse
import sys
import time

from repro import obs
from repro.cli import sweep_kwargs, sweep_options
from repro.experiments import (
    FIG8_PROCS,
    PAPER_BANDWIDTHS_GBPS,
    PAPER_MEMORIES_GB,
    PAPER_NETWORKS,
    PAPER_PROCS,
    run_grid,
)


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, parents=[sweep_options()]
    )
    parser.add_argument(
        "--fast", action="store_true", help="reduced grid for quick checks"
    )
    parser.add_argument(
        "--out", default="results/paper_grid.json", help="cache file path"
    )
    # paper defaults: keep going on exhausted instances, record them typed
    parser.set_defaults(on_error="record")
    args = parser.parse_args()

    kwargs = sweep_kwargs(args)
    cache = kwargs["cache"]
    registry = obs.MetricsRegistry()

    t0 = time.time()
    with obs.use_metrics(registry):
        if args.fast:
            run_grid(("resnet50",), (2, 4), (4.0, 8.0, 16.0), (12.0,), **kwargs)
        else:
            # Figs. 6 & 7: full (network, P, M, beta) grid
            run_grid(
                PAPER_NETWORKS,
                PAPER_PROCS,
                tuple(float(m) for m in PAPER_MEMORIES_GB),
                tuple(float(b) for b in PAPER_BANDWIDTHS_GBPS),
                **kwargs,
            )
            # Fig. 8: intermediate processor counts at beta = 12
            extra_procs = tuple(p for p in FIG8_PROCS if p not in PAPER_PROCS)
            run_grid(
                PAPER_NETWORKS,
                extra_procs,
                (4.0, 8.0, 12.0, 16.0),
                (12.0,),
                **kwargs,
            )
    print(f"sweep done in {time.time() - t0:.0f}s, {len(cache)} cached instances")
    if not args.quiet and len(registry):
        counters = registry.counters()
        print(
            "counters: "
            + " ".join(f"{k}={v}" for k, v in sorted(counters.items())[:8])
        )
    if args.trace:
        print(f"trace: {args.trace} (see 'repro trace summary {args.trace}')")
    return 0


if __name__ == "__main__":
    sys.exit(main())
