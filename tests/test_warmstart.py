"""Warm-start layer tests: bit-identity vs cold, reuse mechanics, dedup.

The contract under test is the one rule of :mod:`repro.warmstart`:
**warm starts never change results**.  Every test here compares a warm
solve against a cold one field for field (``runtime_s`` excepted — it is
the one thing warm starts are supposed to change), across the harness,
the MILP layer, the DP and the 1F1B* search, including under the
fault-injection kill-and-resume harness.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import api, obs, warmstart
from repro.algorithms import Discretization
from repro.algorithms.madpipe import madpipe
from repro.algorithms.madpipe_dp import algorithm1, madpipe_dp
from repro.core.partition import Allocation, Partitioning
from repro.core.platform import Platform
from repro.experiments import ResultCache, run_grid, verify_cache
from repro.experiments.scenarios import paper_chain
from repro.ilp.solver import schedule_allocation
from repro.models import random_chain, uniform_chain
from repro.testing import Fault, faults

INF = float("inf")
MB = float(2**20)
COARSE = Discretization.coarse()

TOY_GRID = dict(
    networks=("toy5",),
    procs=(2,),
    memories_gb=(0.25, 0.5, 1.0),
    bandwidths_gbps=(12.0,),
)
N_TOY = 6

#: Non-contiguous madpipe instance (phase 2 goes through the MILP); the
#: same seed/platform family as the resilience tests.
ILP_SEED = 7
ILP_MEMORIES = (1.0, 0.8, 0.7)


@pytest.fixture(autouse=True)
def _fresh_warm_state():
    warmstart.reset_process_context()
    faults.clear()
    yield
    warmstart.reset_process_context()
    faults.clear()


def toy_sweep(warm_start=False, **kw):
    defaults = dict(grid=COARSE, iterations=4, ilp_time_limit=10.0)
    defaults.update(kw)
    return run_grid(
        TOY_GRID["networks"],
        TOY_GRID["procs"],
        TOY_GRID["memories_gb"],
        TOY_GRID["bandwidths_gbps"],
        warm_start=warm_start,
        **defaults,
    )


def strip_runtime(results):
    return [dataclasses.replace(r, runtime_s=0.0) for r in results]


def ilp_probe_sig(res):
    """The full probe sequence of one MILP period search — identical
    floats and statuses prove the warm search took the exact same path."""
    return [(p.period, p.feasible, p.kind, p.status) for p in res.trace]


def ilp_trace_sig(res):
    """:func:`ilp_probe_sig` of a MadPipe result's ILP search, if any."""
    if res.ilp is None:
        return None
    return ilp_probe_sig(res.ilp)


class TestWarmColdIdentity:
    def test_toy_grid_bit_identical(self):
        """Every (network, P, M, β, algorithm) grid point: warm equals
        cold on every RunResult field except runtime_s."""
        cold = toy_sweep(warm_start=False)
        warmstart.reset_process_context()
        warm = toy_sweep(warm_start=True)
        assert strip_runtime(cold) == strip_runtime(warm)

    def test_noncontiguous_milp_instances_identical(self):
        """Descending-memory MILP instances: the warm search must take
        the exact same probe path."""
        chain = random_chain(12, seed=ILP_SEED, decay=0.2)

        def solve_all():
            out = []
            for m in ILP_MEMORIES:
                res = madpipe(
                    chain, Platform.of(4, m, 12),
                    grid=COARSE, iterations=6, ilp_time_limit=15,
                )
                out.append((res.dp_period, res.period, res.status, ilp_trace_sig(res)))
            return out

        cold = solve_all()
        warmstart.reset_process_context()
        with warmstart.activate(True):
            warm = solve_all()
        assert any(sig is not None for *_, sig in cold)  # MILP actually ran
        assert cold == warm

    def test_statuses_identical_under_injected_milp_timeout(self, tmp_path):
        """Descending-memory searches on one allocation with one MILP
        probe period timing out on every solve after the first: warm and
        cold must report the same period and ``status`` per instance (the
        timed-out probe makes the middle instance ``degraded``)."""
        chain = uniform_chain(8, u_f=1.0, u_b=2.0, weights=1 * MB, activation=64 * MB)
        alloc = Allocation(Partitioning.from_cuts(8, [2, 6]), (0, 1, 0))
        plats = [Platform.of(2, m, 12) for m in (0.7, 0.6, 0.5)]

        def solve_all(warm: bool):
            faults.install(
                [Fault(site="milp_solve", action="timeout", key="T=17.9311774",
                       after=1, times=-1)],
                tmp_path / f"state-{warm}",
            )
            try:
                with warmstart.activate(warm):
                    return [
                        schedule_allocation(chain, p, alloc, time_limit=10)
                        for p in plats
                    ]
            finally:
                faults.clear()

        cold = solve_all(False)
        warm = solve_all(True)
        assert [r.status for r in cold] == ["ok", "degraded", "infeasible"]
        assert [(r.period, r.status) for r in warm] == [
            (r.period, r.status) for r in cold
        ]
        assert [ilp_probe_sig(r) for r in warm] == [ilp_probe_sig(r) for r in cold]

    def test_pooled_warm_matches_serial_cold(self):
        cold = toy_sweep(warm_start=False)
        warmstart.reset_process_context()
        warm = toy_sweep(warm_start=True, n_workers=2)
        assert strip_runtime(cold) == strip_runtime(warm)

    def test_cold_after_warm_stays_cold(self):
        """activate(False) masks the process database: a cold sweep after
        a warm one must not see (or grow) the warm context."""
        toy_sweep(warm_start=True)
        ctx = warmstart.process_context()
        before = {k: sorted(ws) for k, ws in ctx.dp_rows.items()}
        assert before  # the warm sweep filled the workspace
        with warmstart.activate(True):
            with warmstart.activate(False):
                assert warmstart.active_warm() is None
            assert warmstart.active_warm() is ctx
        toy_sweep(warm_start=False)
        assert {k: sorted(ws) for k, ws in ctx.dp_rows.items()} == before

    @pytest.mark.faultinject
    def test_killed_warm_sweep_resumes_to_cold_results(self, tmp_path):
        """A warm CLI sweep (the default) killed mid-run and resumed must
        land on the exact result set of a cold serial run."""
        cache_path = tmp_path / "grid.jsonl"
        src_path = str(Path(__file__).resolve().parents[1] / "src")
        cmd = [
            sys.executable, "-m", "repro", "sweep",
            "--networks", "toy5", "--procs", "2",
            "--memories", "0.25", "0.5", "1.0", "--bandwidths", "12",
            "--out", str(cache_path), "--flush-every", "1",
            "--grid", "coarse", "--iterations", "4",
            "--ilp-time-limit", "10", "--quiet",
        ]
        faults.install(
            [Fault(site="sweep_record", action="exit", after=3, times=1, param=86)],
            tmp_path / "state",
        )
        env = dict(os.environ)  # after install: carries the fault spec
        env["PYTHONPATH"] = src_path
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True, timeout=300
        )
        faults.clear()
        assert proc.returncode == 86, proc.stderr
        assert 0 < len(ResultCache(cache_path)) < N_TOY

        # resume warm (CLI default), then compare with a cold serial run
        env = dict(os.environ)  # after clear: fault spec gone
        env["PYTHONPATH"] = src_path
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        resumed = {r.key: r for r in ResultCache(cache_path)._data.values()}
        cold = toy_sweep(warm_start=False)
        assert len(resumed) == N_TOY
        for r in cold:
            got = resumed[r.key]
            assert dataclasses.replace(got, runtime_s=0.0) == dataclasses.replace(
                r, runtime_s=0.0
            )
        assert verify_cache(cache_path)["clean"]


class TestSearchMemos:
    def test_memo_key_separates_neighbors(self):
        """Different memory / iterations / restriction must not share a
        memo entry."""
        chain = uniform_chain(6)
        with warmstart.activate(True):
            a = algorithm1(chain, Platform.of(2, 8.0, 12.0), iterations=4, grid=COARSE)
            b = algorithm1(chain, Platform.of(2, 4.0, 12.0), iterations=4, grid=COARSE)
            c = algorithm1(chain, Platform.of(2, 8.0, 12.0), iterations=5, grid=COARSE)
            d = algorithm1(
                chain, Platform.of(2, 8.0, 12.0),
                iterations=4, grid=COARSE, allow_special=False,
            )
        assert a is not b and a is not c and a is not d
        # and each matches its cold twin
        assert a.period == algorithm1(
            chain, Platform.of(2, 8.0, 12.0), iterations=4, grid=COARSE
        ).period
        assert b.period == algorithm1(
            chain, Platform.of(2, 4.0, 12.0), iterations=4, grid=COARSE
        ).period

    def test_chain_fingerprint_is_value_based(self):
        c1 = uniform_chain(6)
        c2 = uniform_chain(6)
        c3 = uniform_chain(7)
        assert warmstart.chain_fingerprint(c1) == warmstart.chain_fingerprint(c2)
        assert warmstart.chain_fingerprint(c1) != warmstart.chain_fingerprint(c3)
        # cached on the object after the first computation
        assert c1._warm_fingerprint == warmstart.chain_fingerprint(c1)


class TestDPWorkspace:
    @staticmethod
    def evaluations(chain):
        """16 DP evaluations of one (chain, P, β, grid) that differ in
        memory capacity, headroom, target and cap."""
        u = chain.total_compute()
        for memory in (16.0, 8.0, 4.0, 2.0):
            for headroom in (0.0, 0.2):
                platform = Platform.of(4, memory, 12.0).with_headroom(headroom)
                for target, cap in ((u / 4, INF), (u / 2, u * 0.3)):
                    yield platform, target, cap

    @staticmethod
    def warm_equals_cold(chain, platform, target, cap, workspace, allow_special):
        kw = dict(grid=COARSE, period_cap=cap, allow_special=allow_special)
        warm = madpipe_dp(chain, platform, target, workspace=workspace, **kw)
        cold = madpipe_dp(chain, platform, target, **kw)
        for f in dataclasses.fields(cold):
            if f.name != "wall_time_s":
                assert getattr(warm, f.name) == getattr(cold, f.name), f.name
        return cold

    @pytest.mark.parametrize("allow_special", [True, False])
    def test_workspace_shared_across_memory_budgets(self, allow_special):
        """The DP workspace key carries no memory term, so a workspace
        filled at one capacity (or headroom) must serve every other one:
        each evaluation equals its cold twin field for field."""
        chain = paper_chain("resnet50")
        workspace: dict = {}
        seen = set()
        for platform, target, cap in self.evaluations(chain):
            cold = self.warm_equals_cold(
                chain, platform, target, cap, workspace, allow_special
            )
            seen.add((cold.states, cold.pruned_mem))
        assert workspace and len(seen) == 16  # every budget searched differently

    def test_both_kernels_share_one_workspace(self):
        """A warm ``madpipe()`` runs the contiguous and the special-processor
        kernel on one workspace dict.  Interleaved, every evaluation still
        equals its cold twin, and neither kernel's cached tables depend on
        M, the headroom, T̂ or the cap: filled in the opposite order, whose
        first evaluation differs in all four, the workspace ends equal."""
        chain = paper_chain("resnet50")
        evaluations = list(self.evaluations(chain))
        spaces = []
        for order in (evaluations, evaluations[::-1]):
            workspace: dict = {}
            for platform, target, cap in order:
                for allow_special in (False, True):
                    self.warm_equals_cold(
                        chain, platform, target, cap, workspace, allow_special
                    )
            spaces.append(workspace)
        first, second = spaces
        assert first.keys() == second.keys() and len(first) > 1
        for key, tables in first.items():
            for a, b in zip(tables, second[key], strict=True):
                assert np.array_equal(a, b), key


class TestSweepDedupAndTrace:
    def test_duplicate_specs_solved_once(self, tmp_path):
        cache = ResultCache(tmp_path / "grid.jsonl")
        registry = obs.MetricsRegistry()
        with obs.use_metrics(registry):
            results = run_grid(
                ("toy5",), (2,), (0.5, 0.5, 1.0), (12.0,),
                grid=COARSE, iterations=4, ilp_time_limit=10.0, cache=cache,
            )
        snap = registry.snapshot()
        assert snap["sweep.dedup_hits"] == 2  # one dup memory × 2 algorithms
        assert snap["sweep.instances"] == 4  # 6 specs, 4 solves
        assert len(results) == 6
        by_key = {}
        for r in results:
            by_key.setdefault(r.key, []).append(r)
        for dups in by_key.values():
            assert all(d is dups[0] for d in dups)  # fanned out, not re-solved
        report = verify_cache(tmp_path / "grid.jsonl")
        assert report["clean"] and report["records"] == 4

    def test_cached_duplicates_fan_out(self, tmp_path):
        cache_path = tmp_path / "grid.jsonl"
        run_grid(
            ("toy5",), (2,), (0.5, 1.0), (12.0,),
            grid=COARSE, iterations=4, ilp_time_limit=10.0,
            cache=ResultCache(cache_path),
        )
        registry = obs.MetricsRegistry()
        with obs.use_metrics(registry):
            again = run_grid(
                ("toy5",), (2,), (0.5, 0.5, 1.0), (12.0,),
                grid=COARSE, iterations=4, ilp_time_limit=10.0,
                cache=ResultCache(cache_path),
            )
        snap = registry.snapshot()
        assert snap.get("sweep.instances", 0) == 0  # everything served
        assert snap["sweep.dedup_hits"] == 2
        assert all(r is not None for r in again)

    def test_trace_file_single_handle_one_line_per_instance(self, tmp_path):
        trace_path = tmp_path / "sweep_trace.jsonl"
        cache = ResultCache(tmp_path / "grid.jsonl")
        toy_sweep(cache=cache, trace_path=trace_path)
        lines = trace_path.read_text().splitlines()
        assert len(lines) == N_TOY
        specs = {tuple(json.loads(line)["spec"]) for line in lines}
        assert len(specs) == N_TOY
        # a fully-cached re-run appends nothing (and must not fail on the
        # lazily-opened handle)
        toy_sweep(cache=ResultCache(tmp_path / "grid.jsonl"), trace_path=trace_path)
        assert len(trace_path.read_text().splitlines()) == N_TOY


class TestApiSurface:
    def test_sweep_warm_default_and_counters(self, tmp_path):
        warmstart.reset_process_context()
        res = api.sweep(
            ("toy5", 2, (0.25, 0.5, 1.0), 12.0, "madpipe"),
            grid=COARSE, iterations=4, ilp_time_limit=10.0,
        )
        assert len(res) == 3
        # warm by default: the sweep filled the process's DP workspace
        assert len(warmstart.process_context().dp_rows) > 0
        assert not any(k.startswith("warm.") for k in res.metrics)
        assert "warm" not in res.summary()

    def test_sweep_warm_off_matches(self, tmp_path):
        warm = api.sweep(
            ("toy5", 2, (0.25, 0.5, 1.0), 12.0, "madpipe"),
            grid=COARSE, iterations=4, ilp_time_limit=10.0,
        )
        warmstart.reset_process_context()
        cold = api.sweep(
            ("toy5", 2, (0.25, 0.5, 1.0), 12.0, "madpipe"),
            grid=COARSE, iterations=4, ilp_time_limit=10.0, warm_start=False,
        )
        assert not any(k.startswith("warm.") for k in cold.metrics)
        assert not warmstart.process_context().dp_rows  # cold touched none
        assert strip_runtime(warm.results) == strip_runtime(cold.results)

    def test_cli_no_warm_start_flag(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        rc = cli_main(
            [
                "sweep", "--networks", "toy5", "--procs", "2",
                "--memories", "0.5", "--bandwidths", "12",
                "--algorithms", "madpipe",
                "--out", str(tmp_path / "g.jsonl"),
                "--grid", "coarse", "--iterations", "4",
                "--ilp-time-limit", "10", "--no-warm-start", "--quiet",
            ]
        )
        assert rc == 0
