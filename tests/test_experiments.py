"""Tests for the experiment harness and figure generators."""

import importlib

import pytest

from repro import api
from repro.algorithms import Discretization
from repro.core import Platform
from repro.experiments import (
    PAPER_NETWORKS,
    ResultCache,
    RunResult,
    fig6_data,
    fig7_data,
    fig8_data,
    load_results,
    paper_chain,
    paper_platforms,
    render_fig6,
    render_fig7,
    render_fig8,
    run_grid,
    run_instance,
    save_results,
)

INF = float("inf")


def mk(network, p, m, b, algo, dp, valid, seq=1.0):
    return RunResult(
        network=network,
        n_procs=p,
        memory_gb=m,
        bandwidth_gbps=b,
        algorithm=algo,
        dp_period=dp,
        valid_period=valid,
        n_stages=p,
        runtime_s=0.0,
        sequential=seq,
    )


@pytest.fixture
def toy_results():
    out = []
    for m, (pd, mp) in {4.0: (0.5, 0.4), 8.0: (0.3, 0.25)}.items():
        out.append(mk("netA", 2, m, 12.0, "pipedream", pd * 0.9, pd))
        out.append(mk("netA", 2, m, 12.0, "madpipe", mp * 0.95, mp))
    # an infeasible PipeDream point
    out.append(mk("netA", 4, 4.0, 12.0, "pipedream", INF, INF))
    out.append(mk("netA", 4, 4.0, 12.0, "madpipe", 0.2, 0.22))
    return out


class TestScenarios:
    def test_networks_list(self):
        assert set(PAPER_NETWORKS) == {
            "resnet50",
            "resnet101",
            "inception",
            "densenet121",
        }

    def test_unknown_network(self):
        with pytest.raises(ValueError):
            paper_chain("alexnet")

    def test_platform_grid_size(self):
        plats = paper_platforms(
            procs=(2, 4), memories_gb=(4, 8), bandwidths_gbps=(12,)
        )
        assert len(plats) == 4
        assert all(isinstance(p, Platform) for p in plats)

    def test_paper_chain_cached(self):
        a = paper_chain("resnet50", image_size=128, batch_size=1)
        b = paper_chain("resnet50", image_size=128, batch_size=1)
        assert a is b


class TestHarness:
    def test_run_instance_both_algorithms(self):
        chain = paper_chain("resnet50", image_size=128, batch_size=1)
        plat = Platform.of(2, 8, 12)
        for algo in ("pipedream", "madpipe"):
            r = run_instance(
                chain,
                plat,
                algo,
                network="resnet50-128",
                grid=Discretization.coarse(),
                iterations=4,
                ilp_time_limit=10,
            )
            assert r.algorithm == algo
            assert r.feasible
            assert r.valid_period >= r.dp_period * 0.5
            assert r.runtime_s > 0

    def test_unknown_algorithm(self, uniform8, roomy4):
        with pytest.raises(ValueError):
            run_instance(uniform8, roomy4, "magic")

    @pytest.mark.parametrize("opts", [
        {"certify": False}, {"allow_special": False}, {"memory_headroom": 0.2},
        {"bogus": 1},
    ])
    def test_sweep_takes_only_its_solver_options(self, uniform8, roomy4, opts):
        # options outside the cache identity's reach would be replayed as
        # default-option hits, so a sweep refuses them before any solve
        with pytest.raises(TypeError, match="sweep takes no solver option"):
            run_instance(uniform8, roomy4, "madpipe", **opts)
        with pytest.raises(TypeError, match="sweep takes no solver option"):
            run_grid(("toy6",), (2,), (8.0,), (12.0,), **opts)

    def test_save_load_roundtrip(self, tmp_path, toy_results):
        path = tmp_path / "r.json"
        save_results(toy_results, path)
        loaded = load_results(path)
        assert len(loaded) == len(toy_results)
        assert {r.key for r in loaded} == {r.key for r in toy_results}
        inf_points = [r for r in loaded if not r.feasible]
        assert len(inf_points) == 1
        assert inf_points[0].valid_period == INF

    def test_result_cache(self, tmp_path, toy_results):
        path = tmp_path / "cache.json"
        cache = ResultCache(path)
        for r in toy_results:
            cache.put(r)
        reopened = ResultCache(path)
        assert len(reopened) == len(toy_results)
        assert reopened.get(toy_results[0].key) is not None
        assert reopened.get(("nope", 1, 1.0, 1.0, "x")) is None

    # 1F1B ids keep their pre-family names ("madpipe-roomy")
    @pytest.mark.parametrize("algorithm, memory_gb, schedule_family", [
        pytest.param(algorithm, memory_gb, family,
                     id="-".join([algorithm, size] + ([family] if family != "1f1b" else [])))
        for family in ("1f1b", "zero_bubble")
        for algorithm in ("madpipe", "pipedream")
        for memory_gb, size in ((8.0, "roomy"), (0.1, "tight"))
    ])
    def test_sweep_and_plan_agree(self, algorithm, memory_gb, schedule_family):
        chain, plat = paper_chain("toy8"), Platform.of(2, memory_gb, 12.0)
        # one option set for both algorithms, as in a sweep
        opts = dict(grid=Discretization.coarse(), iterations=4, ilp_time_limit=10,
                    schedule_family=schedule_family)
        r = run_instance(chain, plat, algorithm, **opts)
        res = api.plan(chain, plat, algorithm=algorithm,
                       **api.plan_options(algorithm, opts, shared=True))
        assert (r.status, r.valid_period, r.dp_period) == (
            res.status, res.period, res.dp_period
        )

    def test_pipedream_partition_without_schedule_is_infeasible(self, monkeypatch):
        """PipeDream's optimistic DP finds a partitioning that 1F1B* cannot
        schedule: the sweep record and the plan both say infeasible."""
        # pipedream reaches the search through contiguous_search, which
        # reads it from its defining module at call time
        onef1b_mod = importlib.import_module("repro.algorithms.onef1b")
        monkeypatch.setattr(onef1b_mod, "min_feasible_period", lambda *a, **k: None)
        chain, plat = paper_chain("toy8"), Platform.of(2, 8.0, 12.0)
        r = run_instance(chain, plat, "pipedream")
        res = api.plan(chain, plat, algorithm="pipedream")
        assert r.status == res.status == "infeasible"
        assert r.failure
        assert r.dp_period == res.dp_period < INF
        assert r.valid_period == res.period == INF
        assert res.pattern is None and res.certificate.mode == "skipped"

    def test_speedup(self):
        r = mk("n", 2, 4.0, 12.0, "madpipe", 0.5, 0.5, seq=2.0)
        assert r.speedup == pytest.approx(4.0)


class TestFigures:
    def test_fig6(self, toy_results):
        panels = fig6_data(toy_results, "netA")
        assert len(panels) == 2  # (P=2, 12) and (P=4, 12)
        p2 = [p for p in panels if p.n_procs == 2][0]
        assert p2.memories_gb == [4.0, 8.0]
        assert p2.madpipe_valid == [0.4, 0.25]
        text = render_fig6(panels)
        assert "P=2" in text and "inf" in text

    def test_fig7_geomean(self, toy_results):
        data = fig7_data(toy_results)
        rows = dict((m, v) for m, v, _ in data["netA"])
        # M=8: single case, ratio 0.3/0.25
        assert rows[8.0] == pytest.approx(0.3 / 0.25)
        # M=4: geomean of 0.5/0.4 and seq(1.0)/0.22 (PipeDream infeasible)
        import math

        expected = math.exp(
            (math.log(0.5 / 0.4) + math.log(1.0 / 0.22)) / 2
        )
        assert rows[4.0] == pytest.approx(expected)
        assert "netA" in render_fig7(data)

    def test_fig8(self, toy_results):
        data = fig8_data(toy_results)
        assert data[("netA", 4.0, "madpipe")] == [(2, 1 / 0.4), (4, 1 / 0.22)]
        text = render_fig8(data)
        assert "speedup" in text
        assert "madpipe" in text
