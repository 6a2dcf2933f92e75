"""Tests of the layer ledger (not tier-1)::

    PYTHONPATH=src python -m pytest benchmarks/ledger
"""

from __future__ import annotations

import asyncio
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import compare
import definitions
import tracer
import workloads as wl
from tracer import Ledger, stitch

from repro import api, warmstart
from repro.core.platform import Platform
from repro.experiments.scenarios import paper_chain

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# toy chains: milliseconds per solve; toy6 at 0.2 GB reaches the MILP
TOY_PLANS = [
    ("toy6", 2, 0.2, "madpipe", "1f1b"),
    ("toy6", 2, 0.2, "madpipe", "zero_bubble"),
    ("toy6", 2, 0.5, "pipedream", "1f1b"),
    ("toy6", 2, 0.5, "gpipe", "1f1b"),
]
TOY_SWEEP = {
    "networks": ("toy6",), "procs": (2,), "memories_gb": (0.5, 0.2),
    "bandwidths_gbps": (wl.BANDWIDTH_GBPS,), "algorithms": ("madpipe", "pipedream"),
}
TOY_SERVE = dict(
    wl.SERVE,
    specs=[("toy6", 2, 0.2, "madpipe"), ("toy6", 2, 0.5, "madpipe"),
           ("toy8", 2, 0.5, "madpipe"), ("toy6", 2, 0.5, "pipedream")],
    rate=200.0, probe_requests=40, probe_rounds=2,
)


def cold_expected(instances) -> dict:
    expected = {}
    for net, p, m, alg, family in instances:
        warmstart.reset_process_context()
        with warmstart.activate(False):
            res = api.plan(paper_chain(net), Platform.of(p, m, wl.BANDWIDTH_GBPS),
                           algorithm=alg, schedule_family=family, **wl.solver_opts(alg))
        expected[wl.instance_key(net, p, m, alg, family)] = (
            res.period if res.feasible else None
        )
    return expected


def toy_run(tmp_path, name, factory, instances, *, trace=True, seconds=0.0):
    return wl.measure(
        name, 7, seconds, trace=trace, one_pass=True, started=time.time(),
        work=tmp_path / name, expected=cold_expected(instances), factory=factory,
    )


# -- self-time arithmetic ----------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(tracer.time, "perf_counter", fake)
    return fake


def test_self_time_excludes_nested_wrapped_calls(clock):
    ledger = Ledger()

    def inner():
        clock.now += 3.0

    inner = ledger.wrap("inner", inner)

    def outer():
        clock.now += 1.0
        inner()
        clock.now += 2.0
        inner()

    ledger.wrap("outer", outer)()
    assert ledger.records["inner"] == [2, 6.0, 6.0]
    assert ledger.records["outer"] == [1, 3.0, 9.0]


def test_concurrent_tasks_keep_separate_stacks(clock):
    ledger = Ledger()

    def inner():
        clock.now += 5.0

    inner = ledger.wrap("inner", inner)

    async def outer():
        clock.now += 1.0
        await asyncio.sleep(0)  # the other task runs `inner` meanwhile
        clock.now += 1.0

    outer = ledger.wrap("outer", outer)

    async def other():
        inner()

    async def main():
        await asyncio.gather(outer(), other())

    asyncio.run(main())
    # the other task's call overlaps `outer` in time but is not its child
    assert ledger.records["outer"] == [1, 7.0, 7.0]
    assert ledger.records["inner"] == [1, 5.0, 5.0]


def test_stitch_charges_worker_time_to_its_dispatch():
    records = {"send": [2, 10.0, 10.0]}
    events = [
        ["send", "a", 100.0, 4.0],
        ["send", "b", 101.0, 6.0],
        ["work", "a", 100.5, 3.0],  # waited 0.5 s after its send
        ["work", "b", 103.0, 2.0],  # waited 2.0 s
        ["work", "c", 104.0, 9.0],  # no matching send: not charged
    ]
    waited = stitch(records, events, "send", "work")
    assert waited == pytest.approx(2.5)
    assert records["send"] == [2, 5.0, 10.0]


def test_install_covers_every_import_site_and_uninstalls():
    import repro.api

    # the package re-exports the function under the submodule's name
    madpipe_mod = sys.modules["repro.algorithms.madpipe"]

    original = repro.api.plan
    ledger = Ledger()
    ledger.install({layer: targets for layer, (targets, _) in definitions.LAYERS.items()})
    try:
        assert repro.api.plan is not original
        # `from .robust import certify_pattern` sites share one wrapper
        assert madpipe_mod.certify_pattern is repro.api.certify_pattern
        assert madpipe_mod.certify_pattern.__wrapped__ is not None
    finally:
        ledger.uninstall()
    assert repro.api.plan is original
    assert not hasattr(madpipe_mod.certify_pattern, "__wrapped__")
    assert "flush" not in vars(repro.experiments.harness.ResultCache)


# -- every workload on toy chains ----------------------------------------------------


def _assert_ok(result):
    assert result["problems"] == []
    assert result["attempted"] > 0 and result["failed"] == 0
    layers = result["layers"]
    assert set(layers) == set(definitions.per_layer_metrics()) - {"bench.trace_overhead"}
    assert layers["bench.layer_coverage"] > 0.5


def test_plan_loop_smoke(tmp_path):
    result = toy_run(tmp_path, "plan-resnet",
                     lambda *a: wl.PlanLoop(TOY_PLANS, *a), TOY_PLANS)
    _assert_ok(result)
    layers = result["layers"]
    assert layers["api.plan.calls"] == len(TOY_PLANS)
    assert layers["ilp.milp.calls"] > 0 and layers["algorithms.zero_bubble.calls"] > 0
    assert layers["serve.handle.calls"] == 0
    assert result["wall_s"] > 0 and result["tail_ms"] >= result["p50_ms"]


def test_sweep_loop_smoke(tmp_path):
    instances = [(n, p, m, a, "1f1b") for n in TOY_SWEEP["networks"]
                 for p in TOY_SWEEP["procs"] for m in TOY_SWEEP["memories_gb"]
                 for a in TOY_SWEEP["algorithms"]]
    result = toy_run(tmp_path, "sweep-grid",
                     lambda *a: wl.SweepLoop(TOY_SWEEP, *a), instances)
    _assert_ok(result)
    layers = result["layers"]
    assert layers["experiments.harness.calls"] == 1
    assert layers["experiments.cache.calls"] >= len(instances)
    assert layers["api.plan.calls"] == 0  # the harness calls the algorithms


def test_serve_lifetime_smoke_merges_worker_spools(tmp_path):
    instances = [(n, p, m, a, "1f1b") for n, p, m, a in TOY_SERVE["specs"]]
    result = toy_run(tmp_path, "serve-zipf",
                     lambda *a: wl.ServeLifetime(TOY_SERVE, *a), instances, seconds=0.2)
    _assert_ok(result)
    layers = result["layers"]
    solved = layers["serve.dispatch.calls"]
    assert solved >= 1
    # only the forked workers call api.plan: their spools were merged
    assert layers["api.plan.calls"] == solved == layers["serve.worker.calls"]
    assert layers["serve.handle.calls"] == result["attempted"]
    assert layers["serve.pool_wait_s"] >= 0
    assert 0 < layers["serve.hit_ratio"] <= 1
    assert "late_ratio" in result
    assert not list((tmp_path / "serve-zipf").glob("spool/*.tmp"))


def test_checker_rejects_a_worse_period():
    checker = wl.Checker({"x": 1.0, "y": None})
    checker.answer("x", 1.0 + 1e-12, "ok", True, "d1")
    checker.answer("y", float("inf"), "infeasible", True, "d2")
    assert checker.problems == []
    checker.answer("x", 1.01, "ok", True, "d1")
    checker.answer("y", 2.0, "ok", False, "d3")
    assert len(checker.problems) == 3  # worse, uncertified, answer changed
    assert checker.failed == 1 and checker.attempted == 4


# -- a deliberately slowed layer -------------------------------------------------------


def test_slowed_milp_shows_in_its_own_row_only(tmp_path, monkeypatch):
    import repro.ilp.solver as solver

    instances = [("toy12", 3, 0.2, "madpipe", "1f1b")]

    def run(tag):
        return toy_run(tmp_path / tag, "plan-gpt",
                       lambda *a: wl.PlanLoop(instances, *a), instances)["records"]

    base = run("base")
    original = solver.milp

    def slowed(*args, **kwargs):
        time.sleep(0.05)
        return original(*args, **kwargs)

    monkeypatch.setattr(solver, "milp", slowed)
    slow = run("slow")
    calls = base["ilp.milp"][0]
    assert calls >= 3
    assert {k: v[0] for k, v in slow.items()} == {k: v[0] for k, v in base.items()}
    added = slow["ilp.milp"][1] - base["ilp.milp"][1]
    assert added == pytest.approx(calls * 0.05, rel=0.3)
    for layer in base:
        if layer != "ilp.milp":
            assert abs(slow[layer][1] - base[layer][1]) < 0.2 * added, layer


# -- BENCHMARK.json ----------------------------------------------------------------------


def test_benchmark_json_schema():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc == definitions.benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert 1 <= len(doc["command"]) <= 32 and doc["command"][0] == "python3"
    assert all(len(part) <= 200 and not part.startswith("/") for part in doc["command"])
    for path in doc["paths"]:
        assert re.fullmatch(r"[A-Za-z0-9_.\-/]{1,200}", path) and (ROOT / path).is_dir()
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200
        assert "\n" not in w["why"]
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
        assert 0 < m["bound"] <= 0.25
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert len(json.dumps(doc)) <= 64 * 1024


def test_every_layer_names_an_end_to_end_metric_and_workload():
    for layer, (targets, moves) in definitions.LAYERS.items():
        assert NAME.match(layer) and targets and moves, layer
        for metric, workload in moves:
            assert metric in definitions.bounds(), (layer, metric)
            assert workload in definitions.WORKLOADS, (layer, workload)


def test_expected_covers_every_instance():
    periods = json.loads(wl.EXPECTED_PATH.read_text())["periods"]
    keys = {wl.instance_key(*i) for insts in wl.PLAN_INSTANCES.values() for i in insts}
    keys |= {wl.instance_key(n, p, m, a) for n, p, m, a in wl.SERVE["specs"]}
    g = wl.SWEEP_GRID
    keys |= {wl.instance_key(n, p, m, a) for n in g["networks"] for p in g["procs"]
             for m in g["memories_gb"] for a in g["algorithms"]}
    assert keys == set(periods)


# -- run.py and compare.py -------------------------------------------------------------


def test_run_refuses_without_the_program(tmp_path):
    bench = tmp_path / definitions.PATH
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "plan-gpt",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    faster = [v * 0.8 for v in base]
    assert compare.verdict(base, faster, "lower", 0.1)["verdict"] == "improved"
    assert compare.verdict(base, [v * 1.2 for v in base], "lower", 0.1)["verdict"] \
        == "regressed"
    assert compare.verdict(base, list(base), "lower", 0.1)["verdict"] == "unchanged"
    noisy = [60.0, 140.0, 70.0, 130.0, 100.0, 80.0, 120.0, 90.0, 110.0, 100.0]
    assert compare.verdict(base, noisy, "lower", 0.1)["verdict"] == "unresolved"
    # higher-is-better flips the direction; a zero bound allows no increase
    assert compare.verdict(base, faster, "higher", 0.1)["verdict"] == "regressed"
    assert compare.verdict([0.0] * 3, [0.0, 0.01, 0.01], "lower", 0.0)["verdict"] \
        == "regressed"


def test_compare_reads_run_directories(tmp_path, capsys):
    for side, scale in (("a", 1.0), ("b", 1.0)):
        for i in range(3):
            out = tmp_path / f"{side}{i}"
            out.mkdir()
            metrics = {m: scale * (1 + i / 100) for m in definitions.END_TO_END}
            (out / "results.json").write_text(json.dumps(
                {"workloads": {"plan-gpt": {"end_to_end": metrics, "extras": {}}}}
            ))
    argv = [str(tmp_path / f"a{i}") for i in range(3)] + ["--"]
    argv += [str(tmp_path / f"b{i}") for i in range(3)]
    assert compare.main(argv) == 0
    out = capsys.readouterr().out
    assert out.count("plan-gpt") == len(definitions.END_TO_END)
    assert f"unchanged={len(definitions.END_TO_END)}" in out
