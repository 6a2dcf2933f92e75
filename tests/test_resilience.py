"""Resilience tests: fault-injected sweeps, solver guardrails, deadlines.

Everything here drives real failure paths through
:mod:`repro.testing.faults` — worker crashes, hard pool deaths, HiGHS
time-limit hits, mid-run kills — and checks that the runtime degrades
the way the taxonomy promises instead of crashing or lying.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import obs
from repro.algorithms import Discretization
from repro.algorithms.madpipe import madpipe
from repro.cli import main as cli_main
from repro.core.partition import Allocation, Partitioning
from repro.core.platform import Platform
from repro.experiments import (
    ResultCache,
    SweepInstanceError,
    run_grid,
    verify_cache,
)
from repro.ilp.solver import schedule_allocation
from repro.models import random_chain, uniform_chain
from repro.profiling import save_chain
from repro.runtime import BACKOFF_CAP_S
from repro.testing import Fault, FaultInjected, faults

INF = float("inf")
MB = float(2**20)
COARSE = Discretization.coarse()

#: A small sweep: 1 toy network x 1 P x 3 M x 1 beta x 2 algorithms.
TOY_GRID = dict(
    networks=("toy5",),
    procs=(2,),
    memories_gb=(0.25, 0.5, 1.0),
    bandwidths_gbps=(12.0,),
)
N_TOY = 6

#: madpipe instance whose phase 1 picks a *non-contiguous* allocation,
#: so phase 2 goes through the scheduling MILP (found empirically; the
#: contiguous restriction stays feasible, so the 1F1B* fallback exists).
ILP_SEED, ILP_PLAT = 7, Platform.of(4, 1.2, 12)


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.clear()
    yield
    faults.clear()


def toy_sweep(**kw):
    defaults = dict(grid=COARSE, iterations=4, ilp_time_limit=10.0)
    defaults.update(kw)
    return run_grid(
        TOY_GRID["networks"],
        TOY_GRID["procs"],
        TOY_GRID["memories_gb"],
        TOY_GRID["bandwidths_gbps"],
        **defaults,
    )


def result_map(results):
    return {
        r.key: (r.dp_period, r.valid_period, r.status) for r in results
    }


def _bump_many(state: Path, n: int, barrier, out: Path) -> None:
    barrier.wait()  # start together so the appends interleave
    out.write_text(" ".join(str(faults._bump(state, 0)) for _ in range(n)))


class TestFaultPlumbing:
    def test_inert_without_plan(self):
        assert faults.fire("worker", key="anything") is None
        assert not faults.active()

    def test_raise_action_counts_across_calls(self, tmp_path):
        faults.install([Fault(site="worker", action="raise", after=1, times=1)], tmp_path)
        assert faults.fire("worker") is None  # skipped by after=1
        with pytest.raises(FaultInjected):
            faults.fire("worker")
        assert faults.fire("worker") is None  # times=1 exhausted

    def test_key_filtering(self, tmp_path):
        faults.install([Fault(site="worker", action="raise", key="toy5|2")], tmp_path)
        assert faults.fire("worker", key="resnet50|4|8.0") is None
        with pytest.raises(FaultInjected):
            faults.fire("worker", key="toy5|2|0.5|12.0|madpipe")

    def test_call_numbers_unique_across_processes(self, tmp_path):
        n_procs, n_bumps = 4, 200
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(n_procs)
        outs = [tmp_path / f"seq{i}" for i in range(n_procs)]
        procs = [
            ctx.Process(target=_bump_many, args=(tmp_path, n_bumps, barrier, out))
            for out in outs
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(60)
        seqs = sorted(int(s) for out in outs for s in out.read_text().split())
        assert seqs == list(range(1, n_procs * n_bumps + 1))

    def test_bad_fault_rejected(self):
        with pytest.raises(ValueError):
            Fault(site="worker", action="explode")
        with pytest.raises(ValueError):
            Fault(site="worker", action="raise", times=0)


class TestRetries:
    @pytest.mark.faultinject
    def test_transient_crash_is_retried(self, tmp_path):
        # first madpipe instance crashes once, then succeeds on retry
        faults.install(
            [Fault(site="worker", action="raise", key="madpipe", times=1)], tmp_path
        )
        results = toy_sweep(max_retries=1, retry_backoff_s=0.01)
        assert len(results) == N_TOY
        assert all(r.status in ("ok", "infeasible") for r in results)

    @pytest.mark.faultinject
    def test_exhausted_retries_raise_naming_the_spec(self, tmp_path):
        faults.install(
            [Fault(site="worker", action="raise", key="madpipe", times=-1)], tmp_path
        )
        with pytest.raises(SweepInstanceError) as exc_info:
            toy_sweep(max_retries=1, retry_backoff_s=0.01)
        err = exc_info.value
        assert err.spec[0] == "toy5" and err.spec[4] == "madpipe"
        assert err.attempts == 2
        assert "toy5" in str(err)

    @pytest.mark.faultinject
    def test_exhausted_retries_recorded(self, tmp_path):
        faults.install(
            [Fault(site="worker", action="raise", key="madpipe", times=-1)], tmp_path
        )
        results = toy_sweep(
            max_retries=0, retry_backoff_s=0.01, on_exhausted="record"
        )
        errors = [r for r in results if r.status == "error"]
        assert len(errors) == 3  # every madpipe instance
        assert all("FaultInjected" in r.failure for r in errors)
        assert all(r.status in ("ok", "infeasible") for r in results if r.algorithm == "pipedream")

    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError):
            toy_sweep(max_retries=-1)
        with pytest.raises(ValueError):
            toy_sweep(on_exhausted="explode")

    @pytest.mark.faultinject
    def test_hard_worker_death_restarts_pool(self, tmp_path):
        # one worker dies with os._exit (≈ SIGKILL): BrokenProcessPool;
        # the pool restarts and the next round completes the sweep
        faults.install(
            [Fault(site="worker", action="exit", key="madpipe", times=1, param=86)],
            tmp_path,
        )
        results = toy_sweep(n_workers=2, max_retries=2, retry_backoff_s=0.01)
        assert len(results) == N_TOY
        assert all(r.status in ("ok", "infeasible") for r in results)

    @pytest.mark.faultinject
    def test_retry_delays_are_seeded_and_capped(self, tmp_path, monkeypatch):
        faults.install(
            [Fault(site="worker", action="raise", key="madpipe", times=-1)], tmp_path
        )
        runs = []
        for _ in range(2):
            delays: list[float] = []

            async def no_sleep(seconds, delays=delays):
                delays.append(seconds)

            monkeypatch.setattr(asyncio, "sleep", no_sleep)
            # a base far above the cap: every delay is the capped one
            toy_sweep(max_retries=3, retry_backoff_s=100.0, on_exhausted="record")
            runs.append(delays)
        # one draw per retried attempt: 3 madpipe instances x 3 retries
        assert len(runs[0]) == 9
        assert runs[0] == runs[1]
        assert all(BACKOFF_CAP_S <= d <= BACKOFF_CAP_S * 1.25 for d in runs[0])

    @pytest.mark.faultinject
    def test_pool_rebuilds_bounded_by_retries(self, tmp_path):
        # every worker dies on every attempt, so no death count is ever
        # reset.  Which attempts share a pool depends on timing, but the
        # accounting does not: each death past max_pool_restarts (the
        # sweep's max_retries) is counted by, and exhausts, one solve
        faults.install(
            [Fault(site="worker", action="exit", times=-1, param=86)], tmp_path
        )
        max_retries = 2
        registry = obs.MetricsRegistry()
        with obs.use_metrics(registry):
            results = toy_sweep(n_workers=2, max_retries=max_retries,
                                retry_backoff_s=0.01, on_exhausted="record")
        assert all(r.status == "error" for r in results)
        restarts = registry.get("sweep.pool_restarts")
        exhausted = registry.get("sweep.pool_exhausted")
        assert exhausted >= 1
        assert restarts == max_retries + exhausted
        assert restarts <= max_retries + N_TOY


class TestInstanceDeadline:
    @pytest.mark.faultinject
    @pytest.mark.skipif(os.name != "posix", reason="SIGALRM deadline is POSIX-only")
    def test_hung_instance_times_out_and_is_typed(self, tmp_path):
        faults.install(
            [Fault(site="worker", action="sleep", key="madpipe", times=-1, param=5.0)],
            tmp_path,
        )
        t0 = time.perf_counter()
        results = toy_sweep(
            instance_timeout=0.3,
            max_retries=0,
            retry_backoff_s=0.01,
            on_exhausted="record",
        )
        # SIGALRM cuts each 5 s sleep short; a watchdog thread (attempts
        # off the main thread) would let all three run out: 15 s
        assert time.perf_counter() - t0 < 5.0
        hung = [r for r in results if r.algorithm == "madpipe"]
        assert all(r.status == "solver_timeout" for r in hung)
        assert all("deadline" in r.failure for r in hung)


class TestSolverGuardrails:
    @pytest.fixture
    def noncontig(self):
        chain = uniform_chain(8, u_f=1.0, u_b=2.0, weights=1 * MB, activation=64 * MB)
        alloc = Allocation(Partitioning.from_cuts(8, [2, 6]), (0, 1, 0))
        return chain, Platform.of(2, 4, 12), alloc

    @pytest.mark.faultinject
    def test_all_probes_timeout_is_not_infeasible(self, tmp_path, noncontig):
        chain, plat, alloc = noncontig
        faults.install([Fault(site="milp_solve", action="timeout", times=-1)], tmp_path)
        res = schedule_allocation(chain, plat, alloc, time_limit=10)
        assert res.status == "timeout"  # never a silent "infeasible"
        assert not res.feasible
        assert res.timings["milp_timeouts"] > 0

    @pytest.mark.faultinject
    def test_partial_timeout_degrades(self, tmp_path, noncontig):
        chain, plat, alloc = noncontig
        # only the first (lower-bound) probe times out; the search still
        # finds a schedule but must flag the budget hit
        faults.install([Fault(site="milp_solve", action="timeout", times=1)], tmp_path)
        res = schedule_allocation(chain, plat, alloc, time_limit=10)
        assert res.feasible
        assert res.status == "degraded"

    def test_clean_search_is_ok(self, noncontig):
        chain, plat, alloc = noncontig
        res = schedule_allocation(chain, plat, alloc, time_limit=10)
        assert res.feasible and res.status == "ok"
        assert res.timings["milp_timeouts"] == 0

    @pytest.mark.faultinject
    def test_madpipe_degrades_to_certified_fallback(self, tmp_path):
        chain = random_chain(12, seed=ILP_SEED, decay=0.2)
        clean = madpipe(chain, ILP_PLAT, grid=COARSE, iterations=6, ilp_time_limit=15)
        assert clean.ilp is not None and clean.status == "ok"
        faults.install([Fault(site="milp_solve", action="timeout", times=-1)], tmp_path)
        res = madpipe(chain, ILP_PLAT, grid=COARSE, iterations=6, ilp_time_limit=15)
        faults.clear()
        assert res.status == "degraded"
        assert res.feasible and res.period < INF
        assert res.allocation.is_contiguous()  # the 1F1B* fallback
        assert any("timeout" in n for n in res.notes)

    @pytest.mark.faultinject
    def test_madpipe_timeout_without_fallback_is_solver_timeout(self, tmp_path):
        # tighter memory: the contiguous restriction is infeasible, so no
        # fallback exists — the status must still not claim "infeasible"
        chain = random_chain(12, seed=5, decay=0.2)
        plat = Platform.of(3, 0.52, 12)
        faults.install([Fault(site="milp_solve", action="timeout", times=-1)], tmp_path)
        res = madpipe(chain, plat, grid=COARSE, iterations=6, ilp_time_limit=15)
        faults.clear()
        assert not res.feasible
        assert res.status == "solver_timeout"


class TestKillAndResume:
    @pytest.mark.faultinject
    def test_killed_sweep_resumes_identically(self, tmp_path):
        """Acceptance: kill a sweep mid-run, resume, get the exact result
        set of an uninterrupted run — no losses, no duplicates."""
        cache_path = tmp_path / "grid.jsonl"
        faults.install(
            # hard-kill the process right after the 4th record is flushed
            [Fault(site="sweep_record", action="exit", after=3, times=1, param=86)],
            tmp_path / "state",
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "sweep",
                "--networks", "toy5", "--procs", "2",
                "--memories", "0.25", "0.5", "1.0", "--bandwidths", "12",
                "--out", str(cache_path), "--flush-every", "1",
                "--grid", "coarse", "--iterations", "4",
                "--ilp-time-limit", "10", "--quiet",
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        faults.clear()
        assert proc.returncode == 86, proc.stderr
        killed = ResultCache(cache_path)
        assert 0 < len(killed) < N_TOY  # died mid-run with a partial cache

        # resume against the same cache, then compare with a fresh run
        resumed = toy_sweep(cache=ResultCache(cache_path))
        fresh = toy_sweep(cache=ResultCache(tmp_path / "fresh.jsonl"))
        assert result_map(resumed) == result_map(fresh)

        report = verify_cache(cache_path)
        assert report["clean"]
        assert report["records"] == N_TOY
        assert report["duplicate_keys"] == 0

    def test_resume_skips_completed_instances(self, tmp_path, monkeypatch):
        cache_path = tmp_path / "grid.jsonl"
        toy_sweep(cache=ResultCache(cache_path))

        calls = []
        import repro.experiments.harness as harness

        def counting_run_spec(spec, *a, **kw):
            calls.append(spec)
            raise AssertionError("cached instance re-ran")

        monkeypatch.setattr(harness, "_run_spec", counting_run_spec)
        again = toy_sweep(cache=ResultCache(cache_path))
        assert calls == []
        assert len(again) == N_TOY

    @pytest.mark.faultinject
    def test_retry_failed_reruns_only_failures(self, tmp_path):
        cache_path = tmp_path / "grid.jsonl"
        faults.install(
            [Fault(site="worker", action="raise", key="madpipe", times=-1)], tmp_path
        )
        with_errors = toy_sweep(
            cache=ResultCache(cache_path),
            max_retries=0,
            retry_backoff_s=0.01,
            on_exhausted="record",
        )
        assert sum(1 for r in with_errors if r.status == "error") == 3
        faults.clear()

        # without retry_failed the error records are treated as cached
        kept = toy_sweep(cache=ResultCache(cache_path))
        assert sum(1 for r in kept if r.status == "error") == 3
        # with retry_failed (--resume) they are re-run and now succeed
        healed = toy_sweep(cache=ResultCache(cache_path), retry_failed=True)
        assert all(r.status in ("ok", "infeasible") for r in healed)
        assert verify_cache(cache_path)["duplicate_keys"] == 0


class TestCLIStats:
    @pytest.mark.faultinject
    def test_schedule_stats_surfaces_degradation(self, tmp_path, capsys):
        """Acceptance: a forced HiGHS time limit shows up in
        ``repro schedule --stats`` as a degraded result with the failure
        reason, and the reported period is the certified fallback."""
        profile = tmp_path / "chain.json"
        save_chain(random_chain(12, seed=ILP_SEED, decay=0.2), profile)
        faults.install([Fault(site="milp_solve", action="timeout", times=-1)], tmp_path)
        rc = cli_main(
            [
                "schedule", str(profile), "-p", "4", "-m", "1.2", "-b", "12",
                "--grid", "coarse", "--iterations", "6",
                "--ilp-time-limit", "15", "--stats",
            ]
        )
        faults.clear()
        out = capsys.readouterr().out
        assert rc == 0  # the fallback schedule is valid
        assert "result status: degraded" in out
        assert "timeout" in out
        assert "milp probes" in out.lower() or "MILP probes" in out

    def test_schedule_stats_reports_infeasible_reason(self, tmp_path, capsys):
        profile = tmp_path / "chain.json"
        save_chain(uniform_chain(4, u_f=1.0, u_b=2.0, weights=512 * MB,
                                 activation=64 * MB), profile)
        rc = cli_main(
            [
                "schedule", str(profile), "-p", "2", "-m", "0.1", "-b", "12",
                "--grid", "coarse", "--stats",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "[infeasible]" in out
        assert "result status: infeasible" in out
