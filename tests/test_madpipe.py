"""End-to-end tests for the complete MadPipe algorithm (phase 1 + 2)."""

import asyncio

import pytest

from repro import api, obs
from repro.algorithms import Discretization, madpipe, pipedream
from repro.cli import main as cli_main
from repro.core import Allocation, Partitioning, Platform
from repro.ilp import schedule_allocation
from repro.models import random_chain, uniform_chain
from repro.profiling import save_chain
from repro.sim import verify_pattern

MB = float(2**20)
COARSE = Discretization.coarse()


class TestMadPipe:
    def test_roomy_instance(self, cnnlike16, roomy4):
        res = madpipe(cnnlike16, roomy4, grid=COARSE, iterations=6, ilp_time_limit=15)
        assert res.feasible
        verify_pattern(cnnlike16, roomy4, res.pattern)
        assert res.period <= cnnlike16.total_compute() + 1e-9

    def test_period_consistent_with_pattern(self, cnnlike16, roomy4):
        res = madpipe(cnnlike16, roomy4, grid=COARSE, iterations=6, ilp_time_limit=15)
        assert res.pattern.period == pytest.approx(res.period)

    def test_allocation_matches_pattern(self, cnnlike16, roomy4):
        res = madpipe(cnnlike16, roomy4, grid=COARSE, iterations=6, ilp_time_limit=15)
        assert res.pattern.allocation is res.allocation or (
            res.pattern.allocation.stages == res.allocation.stages
        )

    def test_infeasible_memory(self, uniform8):
        tiny = Platform.of(2, 1 * MB / 2**30, 12)
        res = madpipe(uniform8, tiny, grid=COARSE, iterations=4)
        assert not res.feasible
        assert res.period == float("inf")
        assert res.notes

    def test_tight_memory_still_verifies(self):
        chain = random_chain(16, seed=11, decay=0.2)
        for mem in (2.0, 1.0, 0.6):
            plat = Platform.of(4, mem, 12)
            res = madpipe(chain, plat, grid=COARSE, iterations=6, ilp_time_limit=15)
            if res.feasible:
                verify_pattern(chain, plat, res.pattern)

    def test_never_worse_than_sequential(self, cnnlike16):
        # memory that fits a single-GPU schedule must yield a result
        plat = Platform.of(4, 64.0, 12)
        res = madpipe(cnnlike16, plat, grid=COARSE, iterations=6)
        assert res.feasible
        assert res.period <= cnnlike16.total_compute() * 1.001

    def test_beats_pipedream_under_memory_pressure(self):
        """The headline claim: on memory-constrained heterogeneous chains
        MadPipe is at least as good as PipeDream in the aggregate.  We
        assert it on the geometric mean over a small batch of instances
        (pointwise wins are not guaranteed by the algorithm)."""
        import math

        logs = []
        for seed in (0, 3, 11):
            chain = random_chain(16, seed=seed, decay=0.25)
            for mem in (1.0, 0.7):
                plat = Platform.of(4, mem, 12)
                mp = madpipe(chain, plat, grid=COARSE, iterations=6, ilp_time_limit=15)
                pd = pipedream(chain, plat)
                if not mp.feasible:
                    continue
                pd_period = pd.period if pd.feasible else chain.total_compute()
                logs.append(math.log(pd_period / mp.period))
        assert logs, "no feasible MadPipe instances in the batch"
        assert math.exp(sum(logs) / len(logs)) >= 0.95

    def test_notes_explain_path(self, cnnlike16, roomy4):
        res = madpipe(cnnlike16, roomy4, grid=COARSE, iterations=6)
        assert any(
            "1F1B*" in n or "ILP" in n or "candidate" in n for n in res.notes
        )

    def test_uniform_chain_plan_certifies(self):
        chain = uniform_chain(8, u_f=0.01, u_b=0.02, weights=16 * MB, activation=32 * MB)
        res = api.plan(chain, Platform.of(4, 4.0, 12.0), grid=COARSE, iterations=6)
        assert res.status == "ok", res.raw.notes


class TestIterationsValidation:
    """``iterations < 1`` leaves phase 1 without a probe; every entry
    point must reject it instead of reporting the instance infeasible."""

    def test_madpipe_rejects(self, uniform8, plat4):
        assert madpipe(uniform8, plat4, iterations=10).period == pytest.approx(6.0)
        for bad in (0, -1):
            with pytest.raises(ValueError, match="iterations"):
                madpipe(uniform8, plat4, iterations=bad)

    def test_plan_and_serve_reject(self, uniform8, plat4, tmp_path):
        with pytest.raises(ValueError, match="iterations"):
            api.plan(uniform8, plat4, iterations=0)

        async def scenario():
            async with api.serve(max_workers=0, store=tmp_path / "plans.jsonl") as svc:
                with pytest.raises(ValueError, match="iterations"):
                    await svc.handle(svc.request(uniform8, plat4, iterations=0))
                return svc.stats()["cached_plans"]

        assert asyncio.run(scenario()) == 0  # nothing stored for replay

    def test_cli_schedule_rejects(self, uniform8, tmp_path, capsys):
        profile = tmp_path / "u8.json"
        save_chain(uniform8, profile)
        out_path = tmp_path / "sched.json"
        rc = cli_main([
            "schedule", str(profile), "-p", "4", "-m", "1",
            "--iterations", "0", "-o", str(out_path),
        ])
        out, err = capsys.readouterr()
        assert rc == 2
        assert "iterations must be >= 1" in err
        assert "period" not in out and not out_path.exists()


class TestPhase2Cap:
    """The contiguous candidate's period caps the MILP search; the cap
    decision is on the ``ilp.search`` span, the metrics and ``--stats``."""

    def test_cap_decision_observed(self):
        chain = random_chain(8, seed=0, decay=0.2)
        platform = Platform.of(4, 1.5, 12)
        trace, registry = obs.Trace("cap"), obs.MetricsRegistry()
        with obs.use_trace(trace), obs.use_metrics(registry):
            res = madpipe(chain, platform, grid=COARSE, iterations=6)
        assert res.ilp.status == "capped" and res.status == "ok"
        [search] = trace.find("ilp.search")
        assert search.attrs["period_cap"] == res.period  # the contiguous candidate
        assert search.attrs["capped"] is True
        assert registry.snapshot()["ilp.status.capped"] == 1

    def test_uncapped_search_span(self, uniform8):
        special3 = Allocation(Partitioning.from_cuts(8, [2, 6]), (0, 1, 0))
        trace = obs.Trace("free")
        with obs.use_trace(trace):
            schedule_allocation(uniform8, Platform.of(2, 1.0, 12), special3)
        [search] = trace.find("ilp.search")
        assert search.attrs["period_cap"] is None and search.attrs["capped"] is False

    def test_cli_stats_print_capped(self, tmp_path, capsys):
        profile = tmp_path / "r0.json"
        save_chain(random_chain(8, seed=0, decay=0.2), profile)
        rc = cli_main([
            "schedule", str(profile), "-p", "4", "-m", "1.5",
            "--grid", "coarse", "--iterations", "6", "--stats",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "search status: capped" in out
        assert "result status: ok" in out
