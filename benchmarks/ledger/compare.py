"""Judge two sets of ledger runs, workload by workload and metric by metric.

    python3 benchmarks/ledger/compare.py BASE... -- CHANGE...

Each argument is a ``results.json`` written by ``run.py --out`` (or the
directory holding one); each side should hold at least ten runs.  Runs
pair up in the order given, so alternate which commit runs first from
pair to pair.  Every metric with a bound (``definitions.bounds()``) gets
one verdict per workload:

* ``improved``: the change wins at least 9/10 of the pairs (ties count
  for neither) and its median beats the parent's by more than the
  distance between the parent's quartiles;
* ``regressed``: the change's median is worse than the parent's by more
  than the metric's bound (a share of the parent's median);
* ``unresolved``: not regressed, but one side's quartile distance over
  its median exceeds the bound, and not every change run reads better
  than every parent run;
* ``unchanged``: everything else.

Exits 1 when any metric regressed, 2 on bad arguments.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import definitions


def load(arg: str) -> dict[str, dict[str, float]]:
    """workload -> metric -> value, from one run's ``results.json``."""
    path = Path(arg)
    if path.is_dir():
        path = path / "results.json"
    workloads = json.loads(path.read_text())["workloads"]
    return {
        name: {**rec.get("end_to_end", {}), **rec.get("extras", {})}
        for name, rec in workloads.items()
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _share(x: float, of: float) -> float:
    if of:
        return x / abs(of)
    return 0.0 if x == 0 else float("inf")


def verdict(base: list[float], change: list[float], better: str, bound: float) -> dict:
    """The pair rule for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0

    def worse(a: float, b: float) -> float:  # > 0 when a is worse than b
        return sign * (a - b)

    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if worse(b, c) > 0)
    spread = max(_share(b3 - b1, bm), _share(c3 - c1, cm))
    all_better = all(worse(b, c) > 0 for b in base for c in change)
    if pairs and wins >= 0.9 * len(pairs) and worse(bm, cm) > b3 - b1:
        result = "improved"
    elif worse(cm, bm) > bound * abs(bm):
        result = "regressed"
    elif spread > bound and not all_better:
        result = "unresolved"
    else:
        result = "unchanged"
    return {"verdict": result, "base": (b1, bm, b3), "change": (c1, cm, c3),
            "wins": wins, "pairs": len(pairs), "spread": spread}


def compare(base_runs: list[dict], change_runs: list[dict]) -> list[tuple[str, str, dict]]:
    rows = []
    for workload in definitions.WORKLOADS:
        for metric, (_, better, bound) in definitions.bounds().items():
            base = [r[workload][metric] for r in base_runs if metric in r.get(workload, {})]
            change = [r[workload][metric] for r in change_runs
                      if metric in r.get(workload, {})]
            if base and change:
                rows.append((workload, metric, verdict(base, change, better, bound)))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    base_args, change_args = argv[:cut], argv[cut + 1:]
    if not base_args or not change_args:
        print(__doc__, file=sys.stderr)
        return 2
    rows = compare([load(a) for a in base_args], [load(a) for a in change_args])
    print(f"{'workload':12} {'metric':13} {'base median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'wins':>6} {'spread':>7}  verdict")
    for workload, metric, v in rows:
        b1, bm, b3 = v["base"]
        c1, cm, c3 = v["change"]
        print(f"{workload:12} {metric:13} {bm:12.6g} [{b1:.6g}, {b3:.6g}] "
              f"{cm:12.6g} [{c1:.6g}, {c3:.6g}] {v['wins']:>3}/{v['pairs']:<2} "
              f"{v['spread']:7.3f}  {v['verdict']}")
    counts: dict[str, int] = {}
    for *_, v in rows:
        counts[v["verdict"]] = counts.get(v["verdict"], 0) + 1
    print(" ".join(f"{k}={n}" for k, n in sorted(counts.items())))
    return 1 if counts.get("regressed") else 0


if __name__ == "__main__":
    sys.exit(main())
