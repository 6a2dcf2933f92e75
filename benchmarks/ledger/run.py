"""The layer ledger: plan, sweep and serve metrics with per-layer self time.

Every workload, untraced and then traced, with a report written to DIR::

    PYTHONPATH=src python benchmarks/ledger/run.py --seed 0 --out DIR

One measurement of one workload; the last line of stdout is one JSON
object (end-to-end metrics with ``--trace 0``, per-layer with ``1``)::

    python3 benchmarks/ledger/run.py --workload plan-gpt --seed 0 \\
        --seconds 20 --trace 0 [--out DIR]

Recompute ``expected.json`` from the current source tree::

    PYTHONPATH=src python benchmarks/ledger/run.py --write-expected

Each measurement runs in fresh child processes (``workloads.py``) from
the repository root's ``src`` tree; scratch files live under
``.ledger_work/`` in the repository root and are removed afterwards.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import definitions

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Extra children per end-to-end measurement that only set up, so
#: ``setup_s`` is a median of three.
SETUP_PROBES = 2
#: Wall-clock budget of one single-workload invocation, in seconds.
RUN_BUDGET_S = 170.0


class Run:
    """Starts children for one invocation and owns their scratch space."""

    def __init__(self, seed: int, seconds: float, budget_s: float | None):
        self.seed = seed
        self.seconds = seconds
        self.deadline = None if budget_s is None else time.monotonic() + budget_s
        self.work = ROOT / ".ledger_work" / str(os.getpid())
        self._n = 0

    def child(self, workload: str, *, trace=False, one_pass=False, setup_only=False) -> dict:
        """Run ``workloads.py`` once in a fresh process; its JSON result."""
        self._n += 1
        work = self.work / f"{workload}-{self._n}"
        work.mkdir(parents=True)
        result_path = work / "result.json"
        cmd = [
            sys.executable, str(HERE / "workloads.py"),
            "--workload", workload, "--seed", str(self.seed),
            "--seconds", str(self.seconds), "--work", str(work),
            "--result", str(result_path),
        ]
        cmd += [flag for flag, on in (("--trace", trace), ("--one-pass", one_pass),
                                      ("--setup-only", setup_only)) if on]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        timeout = None if self.deadline is None else max(1.0, self.deadline - time.monotonic())
        proc = subprocess.Popen(cmd + ["--started", repr(time.time())], env=env,
                                stdout=sys.stderr, start_new_session=True)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"{workload}: child exceeded the {RUN_BUDGET_S:g}s budget")
        finally:
            # the child's session holds any worker it left behind
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        if code != 0:
            raise RuntimeError(f"{workload}: child exited with code {code}")
        return json.loads(result_path.read_text())

    def end_to_end(self, workload: str) -> tuple[dict, dict]:
        """Untraced metrics: (metrics, the measuring child's result)."""
        setups = [self.child(workload, setup_only=True)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        res = self.child(workload)
        metrics = {name: res[name] for name in definitions.END_TO_END}
        metrics["setup_s"] = statistics.median(setups + [res["setup_s"]])
        return metrics, res

    def per_layer(self, workload: str) -> tuple[dict, dict, dict]:
        """One untraced and one traced pass: (per-layer metrics, both results)."""
        base = self.child(workload, one_pass=True)
        traced = self.child(workload, trace=True, one_pass=True)
        metrics = dict(traced["layers"])
        metrics["bench.trace_overhead"] = traced["wall_s"] / base["wall_s"]
        for key in sorted(set(base["answers"]) | set(traced["answers"])):
            if base["answers"].get(key) != traced["answers"].get(key):
                traced["problems"].append(f"{key}: traced answer differs from untraced")
        return metrics, base, traced

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass


def extras(res: dict) -> dict:
    return {name: res[name] for name in definitions.EXTRAS if name in res}


def json_line(results: list[dict], metrics: dict, units: dict) -> str:
    problems = [p for r in results for p in r["problems"]]
    return json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    })


def report_problems(results: list[dict]) -> None:
    for r in results:
        for problem in r["problems"]:
            print(f"{r['workload']}: WRONG ANSWER: {problem}", file=sys.stderr)


def one_workload(args) -> int:
    run = Run(args.seed, args.seconds, RUN_BUDGET_S)
    try:
        if args.trace:
            metrics, base, traced = run.per_layer(args.workload)
            results = [base, traced]
            units = {n: u for n, (u, _) in definitions.per_layer_metrics().items()}
            record = {"per_layer": metrics, "layers": traced["records"]}
        else:
            metrics, res = run.end_to_end(args.workload)
            results = [res]
            units = {n: u for n, (u, _, _) in definitions.END_TO_END.items()}
            record = {"end_to_end": metrics, "extras": extras(res),
                      "reference_ms": res["reference_ms"]}
    finally:
        run.close()
    report_problems(results)
    if args.out:
        record["correct"] = not any(r["problems"] for r in results)
        write_results(args.out, {args.workload: record})
    print(json_line(results, metrics, units))
    return 0 if not any(r["problems"] for r in results) else 1


def write_results(out: Path, workloads: dict) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / "results.json").write_text(json.dumps({"workloads": workloads}, indent=1) + "\n")


def all_workloads(args) -> int:
    units = {n: u for n, (u, _, _) in definitions.bounds().items()}
    units.update({n: u for n, (u, _) in definitions.per_layer_metrics().items()})
    report: dict = {}
    ledger_rows: list[dict] = []
    all_results: list[dict] = []
    run = Run(args.seed, args.seconds, None)
    try:
        for workload in definitions.WORKLOADS:
            e2e, res = run.end_to_end(workload)
            layers, base, traced = run.per_layer(workload)
            results = [res, base, traced]
            all_results += results
            report[workload] = {
                "end_to_end": e2e,
                "extras": extras(res),
                "per_layer": layers,
                "correct": not any(r["problems"] for r in results),
                "reference_ms": res["reference_ms"],
            }
            for section in ("end_to_end", "extras", "per_layer"):
                for name, value in report[workload][section].items():
                    print(f"{workload} {name} {value:.9g} {units[name]}", flush=True)
            for layer, (calls, self_s, total_s) in sorted(traced["records"].items()):
                ledger_rows.append({"scenario": workload, "layer": layer, "calls": calls,
                                    "self_s": self_s, "total_s": total_s})
    finally:
        run.close()
    write_results(args.out, report)
    (args.out / "BENCHMARK.json").write_text(
        json.dumps(definitions.benchmark_json(), indent=2) + "\n"
    )
    with (args.out / "layers.jsonl").open("w") as fh:
        for row in ledger_rows:
            fh.write(json.dumps(row) + "\n")
    report_problems(all_results)
    return 0 if all(w["correct"] for w in report.values()) else 1


def write_expected() -> int:
    """Cold ``api.plan`` answers for every instance any workload runs."""
    sys.path.insert(0, str(SRC))
    import workloads as wl
    from repro import api, warmstart
    from repro.core.platform import Platform
    from repro.experiments.scenarios import paper_chain

    g = wl.SWEEP_GRID
    instances = {i for insts in wl.PLAN_INSTANCES.values() for i in insts}
    instances |= {(n, p, m, a, "1f1b") for n in g["networks"] for p in g["procs"]
                  for m in g["memories_gb"] for a in g["algorithms"]}
    instances |= {(n, p, m, a, "1f1b") for n, p, m, a in wl.SERVE["specs"]}
    periods = {}
    for net, p, m, alg, family in sorted(instances):
        warmstart.reset_process_context()
        with warmstart.activate(False):
            res = api.plan(paper_chain(net), Platform.of(p, m, wl.BANDWIDTH_GBPS),
                           algorithm=alg, schedule_family=family, **wl.solver_opts(alg))
        if res.certificate is None or not res.certificate.ok:
            print(f"{net} P={p} M={m} {alg} {family}: uncertified", file=sys.stderr)
            return 1
        periods[wl.instance_key(net, p, m, alg, family)] = (
            res.period if res.feasible else None
        )
    doc = {
        "command": "PYTHONPATH=src python benchmarks/ledger/run.py --write-expected",
        "periods": periods,
    }
    wl.EXPECTED_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(periods)} periods to {wl.EXPECTED_PATH}")
    return 0


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through the children's cleanup


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=list(definitions.WORKLOADS),
                    help="measure one workload (default: all, with --out)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=definitions.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="directory for results.json (and the "
                    "BENCHMARK.json / layers.jsonl of an all-workload run)")
    ap.add_argument("--write-expected", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no program source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.write_expected:
        return write_expected()
    if args.workload:
        return one_workload(args)
    if args.out is None:
        ap.error("--out is required without --workload")
    return all_workloads(args)


if __name__ == "__main__":
    sys.exit(main())
