"""The stable ``repro.api`` facade and the top-level names removed in 2.0.0."""

from __future__ import annotations

import asyncio
import importlib
import warnings
from pathlib import Path

import pytest

import repro
from repro import api
from repro.algorithms.gpipe import gpipe
from repro.algorithms.madpipe import madpipe
from repro.algorithms.madpipe_dp import Discretization
from repro.algorithms.pipedream import pipedream
from repro.core.platform import Platform
from repro.experiments import run_grid

COARSE = Discretization.coarse()


def _ops(pattern):
    """Hashable view of a pattern's operations for bit-identity checks."""
    if pattern is None:
        return None
    return sorted((k, tuple(v) if isinstance(v, (list, tuple)) else v)
                  for k, v in pattern.ops.items())


class TestPlan:
    def test_madpipe_bit_identical(self, cnnlike16, plat4):
        legacy = madpipe(cnnlike16, plat4, grid=COARSE, iterations=4)
        res = api.plan(cnnlike16, plat4, algorithm="madpipe",
                       grid=COARSE, iterations=4)
        assert res.period == legacy.period
        assert res.dp_period == legacy.dp_period
        assert res.status == legacy.status
        assert _ops(res.pattern) == _ops(legacy.pattern)
        assert res.raw.notes == legacy.notes

    def test_pipedream_bit_identical(self, cnnlike16, plat4):
        legacy = pipedream(cnnlike16, plat4)
        res = api.plan(cnnlike16, plat4, algorithm="pipedream")
        assert res.period == legacy.period
        assert res.dp_period == legacy.dp_period
        assert _ops(res.pattern) == _ops(
            legacy.schedule.pattern if legacy.schedule else None
        )

    def test_gpipe_bit_identical(self, cnnlike16, roomy4):
        legacy = gpipe(cnnlike16, roomy4, micro_batches=4)
        res = api.plan(cnnlike16, roomy4, algorithm="gpipe", micro_batches=4)
        assert res.period == legacy.period
        assert res.feasible == legacy.feasible

    def test_unknown_algorithm(self, uniform8, plat2):
        with pytest.raises(ValueError, match="unknown algorithm"):
            api.plan(uniform8, plat2, algorithm="magic")

    def test_trace_true_records_spans(self, uniform8, plat4):
        res = api.plan(uniform8, plat4, grid=COARSE, iterations=3, trace=True)
        assert res.trace is not None
        assert res.trace.find("madpipe.phase1")
        assert res.metrics.get("madpipe.runs") == 1

    def test_trace_object_appended(self, uniform8, plat4):
        from repro import obs

        tr = obs.Trace("mine")
        api.plan(uniform8, plat4, grid=COARSE, iterations=3, trace=tr)
        api.plan(uniform8, plat4, grid=COARSE, iterations=3, trace=tr)
        assert len(tr.find("madpipe")) == 2

    def test_no_trace_by_default(self, uniform8, plat4):
        res = api.plan(uniform8, plat4, grid=COARSE, iterations=3)
        assert res.trace is None
        assert res.metrics  # metrics are always collected

    def test_outer_registry_sees_plan_counters(self, uniform8, plat4):
        from repro import obs

        reg = obs.MetricsRegistry()
        with obs.use_metrics(reg):
            api.plan(uniform8, plat4, grid=COARSE, iterations=3)
        assert reg.get("madpipe.runs") == 1


class TestSweep:
    def test_matches_run_grid(self, tmp_path):
        direct = run_grid(("toy6",), (2,), (8.0,), (12.0,),
                          iterations=2, grid=COARSE)
        res = api.sweep(("toy6", 2, 8.0, 12.0), iterations=2, grid=COARSE)
        assert len(res) == len(direct) == 2
        for a, b in zip(res.results, direct):
            assert a.key == b.key
            assert a.valid_period == b.valid_period
        assert res.statuses == {"ok": 2}
        assert res.metrics.get("sweep.instances") == 2

    def test_spec_forms(self):
        tup = api.SweepSpec("toy6", 2, 8.0, 12.0, "madpipe")
        assert tup.networks == ("toy6",) and tup.algorithms == ("madpipe",)
        mapped = api.sweep(
            {"networks": "toy6", "procs": 2, "memories_gb": 8.0,
             "bandwidths_gbps": 12.0, "algorithms": "madpipe"},
            iterations=2, grid=COARSE,
        )
        assert len(mapped) == 1
        multi = api.sweep([tup, tup], iterations=2, grid=COARSE)
        assert len(multi) == 2 and len(multi.specs) == 2

    def test_bad_spec(self):
        with pytest.raises(TypeError, match="sweep spec"):
            api.sweep(object())

    def test_cache_path_coercion(self, tmp_path):
        cache_file = tmp_path / "c.jsonl"
        api.sweep(("toy6", 2, 8.0, 12.0, "madpipe"),
                  cache=cache_file, iterations=2, grid=COARSE)
        assert cache_file.exists()
        again = api.sweep(("toy6", 2, 8.0, 12.0, "madpipe"),
                          cache=str(cache_file), iterations=2, grid=COARSE)
        assert again.metrics.get("sweep.cache_hits") == 1

    def test_runs_inside_a_running_event_loop(self):
        # a coroutine may call the blocking sweep: it runs the sweep's own
        # event loop on a helper thread and returns the same records and
        # counters as a call from plain code
        direct = api.sweep(("toy6", 2, 8.0, 12.0), iterations=2, grid=COARSE)

        async def caller():
            asyncio.get_running_loop()  # a loop is running here
            return api.sweep(("toy6", 2, 8.0, 12.0), iterations=2, grid=COARSE)

        nested = asyncio.run(caller())
        assert [(r.key, r.dp_period, r.valid_period, r.status)
                for r in nested.results] == [
            (r.key, r.dp_period, r.valid_period, r.status) for r in direct.results
        ]
        counts = [{k: v for k, v in res.metrics.items() if not k.endswith("_s")}
                  for res in (nested, direct)]
        assert counts[0] == counts[1] and counts[0]["sweep.instances"] == 2

    def test_load_chain_reexport(self):
        from repro.profiling import load_chain

        assert api.load_chain is load_chain


class TestDeprecationShims:
    @pytest.mark.parametrize(
        "name", ["definitely_not_a_thing", "madpipe", "schedule_allocation", "hybrid"]
    )
    def test_unknown_attribute(self, name):
        # repro.madpipe / repro.schedule_allocation were removed in 2.0.0,
        # repro.hybrid in 4.0.0
        with pytest.raises(AttributeError, match="no attribute"):
            getattr(repro, name)

    def test_hybrid_module_removed(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.algorithms.hybrid")

    def test_internal_imports_do_not_warn(self):
        """The instrumented modules import from submodules, so merely
        planning must not emit DeprecationWarning."""
        import repro.models as models

        chain = models.uniform_chain(6)
        plat = Platform.of(2, 8.0, 12.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            api.plan(chain, plat, iterations=2, grid=COARSE)


class TestTopLevelFacade:
    def test_plan_and_sweep_reexported(self):
        assert repro.plan is api.plan
        assert repro.sweep is api.sweep
        assert repro.PlanResult is api.PlanResult
        assert {"api", "obs", "plan", "sweep"} <= set(repro.__all__)

    def test_all_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_version_matches_pyproject(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        with pyproject.open("rb") as fh:
            assert tomllib.load(fh)["project"]["version"] == repro.__version__
