"""The four ledger workloads; every measurement runs in a fresh child.

``run.py`` starts this file once per measurement::

    python3 benchmarks/ledger/workloads.py --workload plan-gpt --seed 3 \\
        --seconds 20 --started <time.time() at spawn> --work DIR \\
        --result FILE [--trace] [--one-pass] [--setup-only]

The child imports the program, builds its inputs from the seed, warms
lazy imports up, installs the layer wrappers when tracing (before any
worker pool exists), then measures and writes one JSON result.
``setup_s`` runs from ``--started`` to the first timed call.  Every
answer is checked against ``expected.json`` as it arrives.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import hashlib
import json
import math
import multiprocessing
import random
import resource
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

BANDWIDTH_GBPS = 12.0
ITERATIONS = 8
ILP_TIME_LIMIT = 30.0
#: Period tolerance of the correctness check (relative).
PERIOD_RTOL = 1e-9
FAILED_STATUSES = ("error", "solver_timeout")

RESNETS = ("resnet50", "resnet101")
PLAN_INSTANCES = {
    "plan-resnet": [
        (net, p, m, "madpipe", "1f1b")
        for net in RESNETS
        for p, m in ((4, 8.0), (8, 6.0), (8, 12.0))
    ] + [(net, 8, 8.0, alg, "1f1b") for net in RESNETS for alg in ("pipedream", "gpipe")],
    "plan-gpt": [
        ("gpt24", p, m, "madpipe", family)
        for p, m in ((4, 2.0), (8, 1.0), (8, 1.5))
        for family in ("1f1b", "zero_bubble")
    ],
}
SWEEP_GRID = {
    "networks": ("resnet50",),
    "procs": (4,),
    "memories_gb": (16.0, 14.0, 12.0, 10.0, 8.0, 6.0, 4.0, 3.0),
    "bandwidths_gbps": (BANDWIDTH_GBPS,),
    "algorithms": ("madpipe", "pipedream"),
}
SERVE = {
    "specs": [
        (net, p, m, alg)
        for net in RESNETS
        for p, m in ((4, 8.0), (8, 6.0), (8, 12.0), (4, 16.0))
        for alg in ("madpipe", "pipedream")
    ],
    "rate": 40.0,  # arrivals per second; a lifetime lasts --seconds
    "zipf_s": 1.1,
    "trace_seed": 0,  # the request sequence is fixed; the seed orders the probes
    "workers": 2,
    "probe_requests": 3000,
    "probe_rounds": 5,
    "late_s": 5.0,
}


def instance_key(network: str, p: int, m: float, algorithm: str, family: str = "1f1b") -> str:
    return f"{network}|{p}|{m:g}|{algorithm}|{family}"


def solver_opts(algorithm: str) -> dict:
    from repro.algorithms import Discretization

    if algorithm != "madpipe":
        return {}
    return {"grid": Discretization.coarse(), "iterations": ITERATIONS,
            "ilp_time_limit": ILP_TIME_LIMIT}


def plan_digest(result) -> str:
    """Identity of one planner answer (the pattern included)."""
    from repro.core.serialize import pattern_to_dict

    pattern = None if result.pattern is None else pattern_to_dict(result.pattern)
    payload = (result.status, result.period, result.dp_period, pattern)
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]


class Checker:
    """Counts operations and checks every answer against ``expected``.

    ``failed`` counts operations that raised, ended in an error or
    solver-timeout status, or returned an uncertified plan.
    ``problems`` lists wrong answers: uncertified, a period worse than
    expected, or an answer that changed between calls of one instance.
    """

    def __init__(self, expected: dict):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.answers: dict[str, str] = {}
        self.periods: dict[str, float] = {}

    def answer(self, key: str, period: float, status: str, certified: bool,
               digest: "str | None") -> None:
        self.attempted += 1
        if status in FAILED_STATUSES or not certified:
            self.failed += 1
        if key not in self.expected:
            self.problems.append(f"{key}: no expected period")
        elif not certified:
            self.problems.append(f"{key}: uncertified answer ({status})")
        else:
            want = self.expected[key]
            if want is not None and period > want * (1 + PERIOD_RTOL):
                self.problems.append(f"{key}: period {period!r} worse than {want!r}")
        if digest is not None and self.answers.setdefault(key, digest) != digest:
            self.problems.append(f"{key}: answer changed between calls")
        self.periods[key] = period

    def error(self, key: str, exc: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"{key}: {type(exc).__name__}: {exc}")

    def period_gmean(self) -> float:
        finite = [p for p in self.periods.values() if math.isfinite(p)]
        if not finite:
            return 0.0
        return math.exp(sum(math.log(p) for p in finite) / len(finite))


def add_counters(into: dict, snapshot: dict) -> None:
    for name, value in snapshot.items():
        into[name] = into.get(name, 0) + value


def warm_up() -> None:
    """Pay lazy imports (HiGHS, LP paths) before the first timed call."""
    from repro import api
    from repro.core.platform import Platform
    from repro.experiments.scenarios import paper_chain

    platform = Platform.of(2, 0.2, BANDWIDTH_GBPS)
    for family in ("1f1b", "zero_bubble"):
        api.plan(paper_chain("toy6"), platform, schedule_family=family,
                 **solver_opts("madpipe"))
    for algorithm in ("pipedream", "gpipe"):
        api.plan(paper_chain("toy6"), platform, algorithm=algorithm)


#: Scaled times read as seconds on a machine where one reference slice
#: takes this long (about an unloaded 2.1 GHz x86-64 core).
REFERENCE_S = 0.004


class Speed:
    """How fast the machine runs right now, from reference slices.

    On a shared machine the same work takes 20-50% longer for seconds to
    minutes at a time while neighbours load the cores.  Each timed
    operation is scaled by ``REFERENCE_S`` over the reference slice time
    measured just before and just after it: that cancels the machine's
    drift but not a change in the program, whose code the slice never
    runs.  The slice mixes interpreted loops, small cached NumPy kernels
    and one pass over 8 MB, because the solver's time reacts to all
    three kinds of contention.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._small = np.random.default_rng(0).random(20_000)
        self._large = np.ones(1_000_000)
        self.samples = [self._sample()]

    def reference_slice(self) -> float:
        """Time one fixed slice of work that runs none of the program's code."""
        np = self._np
        t0 = time.perf_counter()
        total = 0.0
        for i in range(20_000):
            total += i * 0.5
        counts: dict[int, int] = {}
        for i in range(5_000):
            counts[i % 97] = counts.get(i % 97, 0) + i
        for _ in range(10):
            np.sort(self._small)
            np.cumsum(self._small)
        np.multiply(self._large, 1.5)
        return time.perf_counter() - t0

    def _sample(self) -> float:
        return median([self.reference_slice() for _ in range(3)])

    def factor(self) -> float:
        """Scale for the operation that just ended; samples again."""
        before = self.samples[-1]
        self.samples.append(self._sample())
        return 2 * REFERENCE_S / (before + self.samples[-1])


# -- plan-resnet / plan-gpt ----------------------------------------------------


class PlanLoop:
    """A closed loop of one caller: cold ``api.plan`` per instance.

    Passes visit every instance once in a seeded order; after the first
    pass an instance starts only if its last time still fits in
    ``seconds``.  The process warm-start context is reset before each
    call and masked during it, so every call is a from-scratch solve.
    Times are scaled per call (:class:`Speed`).
    """

    def __init__(self, instances, seed: int, seconds: float, one_pass: bool, work: Path):
        from repro.core.platform import Platform
        from repro.experiments.scenarios import paper_chain

        self.instances = [
            (instance_key(*inst), paper_chain(inst[0]),
             Platform.of(inst[1], inst[2], BANDWIDTH_GBPS), inst[3], inst[4])
            for inst in instances
        ]
        self.rng = random.Random(seed)
        self.seconds = seconds
        self.one_pass = one_pass

    def run(self, checker: Checker, speed: Speed) -> dict:
        from repro import api, warmstart

        samples: dict[str, list[float]] = {key: [] for key, *_ in self.instances}
        counters: dict = {}
        t_start = time.perf_counter()
        passes = 0
        while True:
            order = list(self.instances)
            self.rng.shuffle(order)
            for key, chain, platform, algorithm, family in order:
                if passes and (
                    self.one_pass
                    or time.perf_counter() - t_start + samples[key][-1] > self.seconds
                ):
                    return self._metrics(samples, counters, passes)
                warmstart.reset_process_context()
                with warmstart.activate(False):
                    t0 = time.perf_counter()
                    try:
                        result = api.plan(chain, platform, algorithm=algorithm,
                                          schedule_family=family, **solver_opts(algorithm))
                    except Exception as exc:  # counted, reported, never fatal
                        result = exc
                    elapsed = time.perf_counter() - t0
                samples[key].append(elapsed * speed.factor())
                if isinstance(result, Exception):
                    checker.error(key, result)
                    continue
                add_counters(counters, result.metrics)
                certified = result.certificate is not None and result.certificate.ok
                checker.answer(key, result.period, result.status, certified,
                               plan_digest(result))
            passes += 1

    @staticmethod
    def _metrics(samples, counters, passes) -> dict:
        medians = [median(v) for v in samples.values()]
        return {
            "wall_s": sum(medians),
            "p50_ms": median(medians) * 1e3,
            "tail_ms": max(medians) * 1e3,
            "counters": counters,
            "passes": passes,
        }


# -- sweep-grid ------------------------------------------------------------------


class SweepLoop:
    """Whole warm-started serial sweeps, each into a fresh JSONL cache.

    After the first sweep another starts only if the last one's wall
    time still fits in ``seconds``.  Times are scaled per sweep
    (:class:`Speed`).
    """

    def __init__(self, grid: dict, seed: int, seconds: float, one_pass: bool, work: Path):
        from repro import api
        from repro.experiments.scenarios import paper_chain

        for network in grid["networks"]:
            paper_chain(network)  # profile once, as a long-lived sweeper would
        self.spec = api.SweepSpec(**grid)
        self.seconds = seconds
        self.one_pass = one_pass
        self.work = work

    def run(self, checker: Checker, speed: Speed) -> dict:
        from repro import api, warmstart

        walls: list[float] = []
        runtimes: dict[str, list[float]] = {}
        counters: dict = {}
        t_start = time.perf_counter()
        while not walls or not (
            self.one_pass or time.perf_counter() - t_start + walls[-1] > self.seconds
        ):
            cache = self.work / f"sweep-{len(walls)}.jsonl"
            warmstart.reset_process_context()
            t0 = time.perf_counter()
            sweep = api.sweep(self.spec, cache=cache, warm_start=True, n_workers=1,
                              **solver_opts("madpipe"))
            elapsed = time.perf_counter() - t0
            scale = speed.factor()
            walls.append(elapsed * scale)
            add_counters(counters, sweep.metrics)
            for r in sweep.results:
                key = instance_key(r.network, r.n_procs, r.memory_gb, r.algorithm)
                runtimes.setdefault(key, []).append(r.runtime_s * scale)
                digest = repr((r.status, r.valid_period, r.dp_period, r.n_stages))
                checker.answer(key, r.valid_period, r.status, r.status != "error", digest)
        medians = [median(v) for v in runtimes.values()]
        return {
            "wall_s": median(walls),
            "p50_ms": median(medians) * 1e3,
            "tail_ms": max(medians) * 1e3,
            "counters": counters,
            "passes": len(walls),
        }


# -- serve-zipf ------------------------------------------------------------------


def zipf_trace(n_specs: int, n: int, s: float, seed: int) -> list[int]:
    """``n`` spec indices, spec ``i`` drawn with weight ``1 / (i + 1)^s``."""
    weights = [1.0 / (i + 1) ** s for i in range(n_specs)]
    return random.Random(seed).choices(range(n_specs), weights=weights, k=n)


class ServeLifetime:
    """One service lifetime under open-loop Zipf traffic, then hit probes.

    A fresh ``api.serve(max_workers=2)`` with an empty store receives
    ``rate * seconds`` arrivals, one every ``1 / rate`` seconds, of one
    fixed Zipf request sequence.  Each arrival builds a fresh
    ``service.request(...)`` and is timed from when it was due, so a
    stalled loop delays every request behind it.  The generator sleeps
    to 2 ms before each due time and spins the rest, and the lateness it
    still has is reported.  Afterwards ``probe_rounds`` closed-loop
    rounds of ``probe_requests`` requests from 2 clients, over specs
    already cached and in seeded order, time the hit path alone: they
    give ``wall_s`` and ``p50_ms``, while the open loop gives the tail.
    Open-loop latencies are scaled by the lifetime's :class:`Speed`
    factor and each probe round by its own: reference slices would
    stall the open loop.

    The sequence and the spacing are fixed because the tail is set by
    which specs arrive while the first solves run: with seeded draws or
    seeded Poisson spacing it moved by 20-36% from seed to seed.
    """

    def __init__(self, cfg: dict, seed: int, seconds: float, one_pass: bool, work: Path):
        from repro.core.platform import Platform
        from repro.experiments.scenarios import paper_chain

        self.cfg = cfg
        self.work = work
        self.specs = [
            (instance_key(net, p, m, alg), paper_chain(net),
             Platform.of(p, m, BANDWIDTH_GBPS), alg, solver_opts(alg))
            for net, p, m, alg in cfg["specs"]
        ]
        n = max(1, round(cfg["rate"] * seconds))
        self.trace = zipf_trace(len(self.specs), n, cfg["zipf_s"], cfg["trace_seed"])
        self.probe_rng = random.Random(seed)

    def run(self, checker: Checker, speed: Speed) -> dict:
        return asyncio.run(self._run(checker, speed))

    async def _ask(self, service, i: int):
        """One request for spec ``i``: ``(i, reply or the exception raised)``."""
        _, chain, platform, algorithm, opts = self.specs[i]
        try:
            return i, await service.handle(
                service.request(chain, platform, algorithm=algorithm, **opts)
            )
        except Exception as exc:  # counted and reported by _check, untimed
            return i, exc

    def _check(self, checker: Checker, i: int, reply, *, digest: bool = True) -> bool:
        """Check one answer; ``False`` when the request failed."""
        key = self.specs[i][0]
        if isinstance(reply, Exception):
            checker.error(key, reply)
            return False
        result = reply.result
        certified = result.certificate is not None and result.certificate.ok
        checker.answer(key, result.period, result.status, certified,
                       plan_digest(result) if digest else None)
        return certified and result.status not in FAILED_STATUSES

    async def _run(self, checker: Checker, speed: Speed) -> dict:
        from repro import api

        cfg = self.cfg
        service = api.serve(store=self.work / "plans.jsonl", max_workers=cfg["workers"])
        answered: list[tuple] = []  # (spec, reply, seconds since due)
        lags: list[float] = []

        async def arrival(i: int, due: float) -> None:
            answer = await self._ask(service, i)
            answered.append((*answer, time.perf_counter() - due))

        tasks = []
        due = time.perf_counter()
        for i in self.trace:
            due += 1.0 / cfg["rate"]
            pause = due - time.perf_counter() - 0.002
            if pause > 0:
                await asyncio.sleep(pause)
            while time.perf_counter() < due:
                pass
            lags.append(time.perf_counter() - due)
            tasks.append(asyncio.create_task(arrival(i, due)))
            await asyncio.sleep(0)  # a hit completes before the next arrival
        await asyncio.gather(*tasks)
        scale = speed.factor()
        counters = dict(service.registry.snapshot())
        late_ratio = sum(
            not self._check(checker, i, reply) or latency > cfg["late_s"]
            for i, reply, latency in answered
        ) / len(answered)
        open_loop = sorted(latency * scale for *_, latency in answered)
        answered.clear()
        tasks.clear()

        cached = sorted(set(self.trace))

        async def client(n: int, hits: list) -> None:
            for _ in range(n):
                t0 = time.perf_counter()
                i, reply = await self._ask(service, self.probe_rng.choice(cached))
                hits.append(time.perf_counter() - t0)
                # a cheap check only: digests, or keeping replies for them,
                # would cost more than the hit path being timed
                self._check(checker, i, reply, digest=False)

        rounds, hit_latencies = [], []
        half = cfg["probe_requests"] // 2
        for _ in range(cfg["probe_rounds"]):
            hits: list[float] = []
            gc.collect()  # every round starts from the same heap
            t0 = time.perf_counter()
            await asyncio.gather(client(half, hits),
                                 client(cfg["probe_requests"] - half, hits))
            scale = speed.factor()
            rounds.append((time.perf_counter() - t0) * scale)
            hit_latencies += [latency * scale for latency in hits]
        await service.close()
        for proc in multiprocessing.active_children():
            proc.join(timeout=60)

        requests = counters.get("serve.requests", 0) or 1
        return {
            "wall_s": median(rounds),
            "p50_ms": median(hit_latencies) * 1e3,
            # the highest percentile that still has 10 samples beyond it
            "tail_ms": open_loop[max(0, len(open_loop) - 11)] * 1e3,
            "late_ratio": late_ratio,
            "gen_lag_p99_ms": sorted(lags)[int(0.99 * (len(lags) - 1))] * 1e3,
            "hit_ratio": counters.get("serve.hits", 0) / requests,
            "coalesce_ratio": counters.get("serve.coalesced", 0) / requests,
            "retries": counters.get("serve.retries", 0),
            "counters": counters,
            "passes": 1,
        }


WORKLOADS = {
    "plan-resnet": lambda *a: PlanLoop(PLAN_INSTANCES["plan-resnet"], *a),
    "plan-gpt": lambda *a: PlanLoop(PLAN_INSTANCES["plan-gpt"], *a),
    "sweep-grid": lambda *a: SweepLoop(SWEEP_GRID, *a),
    "serve-zipf": lambda *a: ServeLifetime(SERVE, *a),
}


def layer_metrics(records: dict, events: list, out: dict) -> dict:
    """Per-layer metrics from merged ledger records and one run's output
    (all but ``bench.trace_overhead``, which needs the untraced twin)."""
    from definitions import LAYERS
    from tracer import stitch

    pool_wait = stitch(records, events, "serve.dispatch", "serve.worker")
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        calls, self_s, _ = records.get(layer, (0, 0.0, 0.0))
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.self_s"] = self_s
    c = out["counters"]
    saved = c.get("warm.probes_saved", 0)
    attempted = saved + c.get("dp.probes", 0) + c.get("ilp.milp_probes", 0)
    metrics.update({
        "serve.pool_wait_s": pool_wait,
        "dp.states": c.get("dp.states", 0),
        "dp.probes": c.get("dp.probes", 0),
        "ilp.milp_probes": c.get("ilp.milp_probes", 0),
        "ilp.timeouts": c.get("ilp.milp_timeouts", 0),
        "warm.reuse_ratio": saved / attempted if attempted else 0.0,
        "serve.hit_ratio": out.get("hit_ratio", 0.0),
        "serve.coalesce_ratio": out.get("coalesce_ratio", 0.0),
        "serve.retries": out.get("retries", 0),
        "bench.gen_lag_p99_ms": out.get("gen_lag_p99_ms", 0.0),
        "bench.layer_coverage": sum(r[1] for r in records.values()) / out["traced_s"],
    })
    return metrics


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest (joined) worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def measure(workload: str, seed: int, seconds: float, *, trace: bool, one_pass: bool,
            started: float, work: Path, setup_only: bool = False,
            expected: "dict | None" = None, factory=None) -> dict:
    """Set one workload up, run it once, and return the child's result."""
    from definitions import LAYERS, STITCH
    from tracer import Ledger

    import repro.api  # noqa: F401  (binds every traced entry point)
    import repro.serve  # noqa: F401

    work.mkdir(parents=True, exist_ok=True)
    loop = (factory or WORKLOADS[workload])(seed, seconds, one_pass, work)
    warm_up()
    ledger = None
    if trace:
        ledger = Ledger(work / "spool", stitch=STITCH)
        ledger.install({layer: targets for layer, (targets, _) in LAYERS.items()})
    setup_s = time.time() - started
    speed = Speed()
    result: dict = {
        "workload": workload,
        "setup_s": setup_s * REFERENCE_S / speed.samples[0],
    }
    if setup_only:
        return result
    if expected is None:
        expected = json.loads(EXPECTED_PATH.read_text())["periods"]
    checker = Checker(expected)
    t0 = time.perf_counter()
    try:
        out = loop.run(checker, speed)
    finally:
        if ledger is not None:
            ledger.uninstall()
    out["traced_s"] = time.perf_counter() - t0
    result.update(
        attempted=checker.attempted,
        failed=checker.failed,
        problems=checker.problems,
        answers=checker.answers,
        wall_s=out["wall_s"],
        p50_ms=out["p50_ms"],
        tail_ms=out["tail_ms"],
        peak_rss_mb=peak_rss_mb(),
        period_gmean=checker.period_gmean(),
        fail_ratio=checker.failed / max(1, checker.attempted),
        passes=out["passes"],
        reference_ms=median(speed.samples) * 1e3,
    )
    if "late_ratio" in out:
        result["late_ratio"] = out["late_ratio"]
    if ledger is not None:
        records, events = ledger.collect()
        result["records"] = records
        result["layers"] = layer_metrics(records, events, out)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--started", type=float, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--one-pass", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    result = measure(
        args.workload, args.seed, args.seconds, trace=args.trace,
        one_pass=args.one_pass, started=args.started, work=args.work,
        setup_only=args.setup_only,
    )
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
