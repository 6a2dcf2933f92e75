"""Observability layer: spans, metrics, exporters, cross-process merge."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.algorithms.madpipe_dp import Discretization, algorithm1
from repro.core.platform import Platform
from repro.experiments import run_grid
from repro.experiments.harness import ResultCache
from repro.models import uniform_chain

COARSE = Discretization.coarse()
MB = float(2**20)


# ------------------------------------------------------------------ spans


class TestTrace:
    def test_span_nesting(self):
        tr = obs.Trace("t")
        with obs.use_trace(tr):
            with obs.span("outer", a=1):
                with obs.span("inner"):
                    pass
                with obs.span("inner") as sp:
                    sp.set(b=2)
        assert len(tr.roots) == 1
        outer = tr.roots[0]
        assert outer.name == "outer" and outer.attrs == {"a": 1}
        assert [c.name for c in outer.children] == ["inner", "inner"]
        assert outer.children[1].attrs == {"b": 2}
        assert outer.wall_s >= sum(c.wall_s for c in outer.children) >= 0
        assert len(tr) == 3 and len(tr.find("inner")) == 2

    def test_exception_leaves_recorded_span_with_error_status(self):
        tr = obs.Trace()
        with obs.use_trace(tr):
            with pytest.raises(ValueError):
                with obs.span("outer"):
                    with obs.span("boom"):
                        raise ValueError("x")
            with obs.span("after"):
                pass
        assert [r.name for r in tr.roots] == ["outer", "after"]
        boom = tr.roots[0].children[0]
        assert boom.status == "error:ValueError"
        # the stack unwound cleanly: "after" is a root, not a child
        assert tr._stack == []

    def test_span_dict_round_trip(self):
        tr = obs.Trace()
        with obs.use_trace(tr):
            with obs.span("a", x=1.5, label="s") as sp:
                sp.set(period=float("inf"))  # non-finite → None in JSON
                with obs.span("b"):
                    pass
        d = tr.roots[0].to_dict()
        json.dumps(d)  # must be JSON-clean
        assert d["attrs"]["period"] is None
        back = obs.Span.from_dict(d)
        assert back.name == "a" and back.children[0].name == "b"
        assert back.attrs["x"] == 1.5

    def test_disabled_is_null_span(self):
        assert obs.active_trace() is None
        assert obs.span("anything", k=1) is obs.NULL_SPAN
        with obs.span("anything") as sp:
            sp.set(a=1)  # no-op, no error

    def test_disabled_trace_identical_results(self, uniform8):
        plat = Platform.of(4, 1.0, 12)
        base = algorithm1(uniform8, plat, iterations=6, grid=COARSE)
        tr = obs.Trace()
        with obs.use_trace(tr), obs.use_metrics(obs.MetricsRegistry()):
            traced = algorithm1(uniform8, plat, iterations=6, grid=COARSE)
        assert traced.period == base.period
        assert traced.states == base.states
        assert len(tr.find("madpipe.dp")) == len(base.history)


# ---------------------------------------------------------------- metrics


class TestMetrics:
    def test_inc_get_snapshot(self):
        reg = obs.MetricsRegistry()
        reg.inc("a.b")
        reg.inc("a.b", 2)
        reg.inc("z.wall_s", 0.5)
        assert reg.get("a.b") == 3
        assert list(reg.snapshot()) == ["a.b", "z.wall_s"]
        assert reg.counters() == {"a.b": 3}  # _s-suffixed filtered out
        assert len(reg) == 2

    def test_module_inc_is_guarded(self):
        obs.inc("nobody.home")  # no registry installed: silent no-op
        reg = obs.MetricsRegistry()
        with obs.use_metrics(reg):
            obs.inc("x")
        obs.inc("x")  # outside the context again
        assert reg.get("x") == 1

    def test_merge_is_additive(self):
        a, b = obs.MetricsRegistry(), obs.MetricsRegistry()
        a.inc("n", 2)
        b.inc("n", 3)
        b.inc("m")
        a.merge(b.snapshot())
        assert a.get("n") == 5 and a.get("m") == 1

    def test_timer_accumulates(self):
        reg = obs.MetricsRegistry()
        with reg.timer("t_s"):
            pass
        with obs.use_metrics(reg), obs.time_block("t_s"):
            pass
        assert reg.get("t_s") > 0


# ----------------------------------------------------- cross-process merge


class TestSweepObservability:
    GRID = dict(
        networks=("toy6",),
        procs=(2,),
        memories_gb=(8.0,),
        bandwidths_gbps=(12.0,),
    )

    def test_serial_vs_pool_counters_identical(self):
        """Counter sums are order-independent: a 2-worker pool must merge
        to exactly the serial totals."""
        serial = obs.MetricsRegistry()
        with obs.use_metrics(serial):
            run_grid(**self.GRID, iterations=2, grid=COARSE)
        pooled = obs.MetricsRegistry()
        with obs.use_metrics(pooled):
            run_grid(**self.GRID, iterations=2, grid=COARSE, n_workers=2)
        assert serial.counters() == pooled.counters()
        assert serial.get("sweep.instances") == 2

    def test_trace_path_jsonl(self, tmp_path):
        trace_file = tmp_path / "sweep_trace.jsonl"
        run_grid(**self.GRID, iterations=2, grid=COARSE,
                 trace_path=trace_file)
        lines = [json.loads(ln) for ln in trace_file.read_text().splitlines()]
        assert len(lines) == 2  # one record per instance
        for rec in lines:
            assert set(rec) == {"spec", "spans"}
            assert rec["spans"][0]["name"] == "instance"
        roots = obs.load_trace_file(trace_file)
        names = {s["name"] for r in roots for s in _walk(r)}
        assert "madpipe.dp" in names

    def test_resumed_sweep_appends(self, tmp_path):
        trace_file = tmp_path / "t.jsonl"
        cache = ResultCache(tmp_path / "c.jsonl")
        run_grid(**self.GRID, iterations=2, grid=COARSE,
                 cache=cache, trace_path=trace_file)
        n = len(trace_file.read_text().splitlines())
        # resume: everything cached, nothing new appended
        run_grid(**self.GRID, iterations=2, grid=COARSE,
                 cache=cache, trace_path=trace_file)
        assert len(trace_file.read_text().splitlines()) == n
        # forcing a re-run appends to the same file
        run_grid(**self.GRID, iterations=2, grid=COARSE,
                 trace_path=trace_file)
        assert len(trace_file.read_text().splitlines()) == 2 * n

    def test_no_observation_returns_plain_results(self):
        results = run_grid(**self.GRID, iterations=2, grid=COARSE)
        assert all(r.status == "ok" for r in results)


def _walk(span: dict):
    yield span
    for c in span.get("children", ()):
        yield from _walk(c)


# -------------------------------------------------------------- exporters


class TestExport:
    def _traced_run(self):
        tr = obs.Trace("x")
        chain = uniform_chain(6, u_f=1.0, u_b=2.0, weights=4 * MB,
                              activation=8 * MB)
        with obs.use_trace(tr):
            algorithm1(chain, Platform.of(2, 1.0, 12), iterations=3,
                       grid=COARSE)
        return tr

    def test_chrome_trace_schema(self):
        tr = self._traced_run()
        doc = obs.chrome_trace(tr)
        assert doc["displayTimeUnit"] == "ms"
        assert doc["reproSpans"] == [s.to_dict() for s in tr.roots]
        assert len(doc["traceEvents"]) == len(tr)
        for ev in doc["traceEvents"]:
            assert {"name", "cat", "ph", "ts", "dur", "pid", "tid"} <= set(ev)
            assert ev["ph"] == "X"
            assert ev["ts"] >= 0 and ev["dur"] >= 0
        json.dumps(doc)  # Chrome must be able to parse it

    def test_write_and_load_round_trip(self, tmp_path):
        tr = self._traced_run()
        path = obs.write_chrome_trace(tr, tmp_path / "t.json")
        roots = obs.load_trace_file(path)
        assert roots == [s.to_dict() for s in tr.roots]

    def test_load_rejects_foreign_chrome_trace(self, tmp_path):
        p = tmp_path / "foreign.json"
        p.write_text(json.dumps({"traceEvents": []}))
        with pytest.raises(ValueError, match="reproSpans"):
            obs.load_trace_file(p)

    def test_load_rejects_bare_span_list(self, tmp_path):
        # nothing in the package writes a bare JSON list of spans
        p = tmp_path / "list.json"
        p.write_text(json.dumps([{"name": "x"}]))
        with pytest.raises(ValueError, match="not a trace record"):
            obs.load_trace_file(p)

    def test_summarize_and_render(self):
        tr = self._traced_run()
        rows = obs.summarize(tr)
        by_name = {r["name"]: r for r in rows}
        assert by_name["madpipe.algorithm1"]["count"] == 1
        assert by_name["madpipe.dp"]["count"] >= 1
        # total wall is sorted descending
        walls = [r["wall_s"] for r in rows]
        assert walls == sorted(walls, reverse=True)
        table = obs.render_summary(rows)
        assert "madpipe.dp" in table and "count" in table
        assert obs.render_summary([]) == "(empty trace)"

    def test_metrics_payload(self):
        reg = obs.MetricsRegistry()
        reg.inc("a", 2)
        payload = obs.metrics_payload(reg, command="x")
        assert payload == {"metrics": {"a": 2}, "command": "x"}
