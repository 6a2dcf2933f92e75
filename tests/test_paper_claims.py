"""Regression tests for the reproduced paper claims (§5.2).

These run against the cached sweep ``results/paper_grid.jsonl`` when it
exists (produced by ``scripts/run_paper_sweep.py``, which also renders
``results/fig6-8.txt`` from it) and are skipped otherwise — they protect
the EXPERIMENTS.md conclusions against algorithm regressions.
"""

from __future__ import annotations

import math
from pathlib import Path

import pytest

from repro.experiments import fig6_data, fig7_data, fig8_data, load_results

GRID = Path(__file__).resolve().parent.parent / "results" / "paper_grid.jsonl"

pytestmark = pytest.mark.skipif(
    not GRID.exists(), reason="run scripts/run_paper_sweep.py first"
)


@pytest.fixture(scope="module")
def results():
    return load_results(GRID)


class TestFig6Claims:
    def test_pipedream_dp_is_optimistic(self, results):
        """PD-valid ≥ PD-DP everywhere, with a real gap somewhere."""
        gap_seen = False
        for r in results:
            if r.algorithm != "pipedream" or not r.feasible:
                continue
            assert r.valid_period >= r.dp_period * (1 - 1e-9)
            if r.valid_period > r.dp_period * 1.2:
                gap_seen = True
        assert gap_seen

    def test_madpipe_feasible_wherever_pipedream_is(self, results):
        idx = {r.key: r for r in results}
        for r in results:
            if r.algorithm == "pipedream" and r.feasible:
                mp = idx.get(r.key[:-1] + ("madpipe",))
                assert mp is not None and mp.feasible

    def test_madpipe_extends_the_memory_floor(self, results):
        """For each network there are scenarios feasible for MadPipe only."""
        idx = {r.key: r for r in results}
        networks = {r.network for r in results}
        for net in networks:
            only_madpipe = 0
            for r in results:
                if r.network != net or r.algorithm != "madpipe" or not r.feasible:
                    continue
                pd = idx.get(r.key[:-1] + ("pipedream",))
                if pd is not None and not pd.feasible:
                    only_madpipe += 1
            assert only_madpipe > 0, f"{net}: MadPipe never extended feasibility"

    def test_dp_estimates_non_increasing_in_memory(self, results):
        panels = fig6_data(results, "resnet50")
        for panel in panels:
            dp = [x for x in panel.madpipe_dp if x != float("inf")]
            assert all(a >= b - 1e-9 for a, b in zip(dp, dp[1:]))


class TestFig7Claims:
    def test_overall_geomean_favours_madpipe(self, results):
        data = fig7_data(results)
        logs = [
            math.log(ratio) for rows in data.values() for (_m, ratio, _n) in rows
        ]
        assert math.exp(sum(logs) / len(logs)) >= 1.0

    def test_tight_memory_advantage(self, results):
        """The 4-8 GB band shows a clear MadPipe advantage on average."""
        data = fig7_data(results)
        logs = [
            math.log(ratio)
            for rows in data.values()
            for (m, ratio, _n) in rows
            if 4 <= m <= 8
        ]
        assert math.exp(sum(logs) / len(logs)) >= 1.05

    def test_tight_memory_advantage_does_not_vanish(self, results):
        """The ≤8 GB geomean stays within 5% of the >8 GB one, or above."""
        low, high = [], []
        for rows in fig7_data(results).values():
            for m, ratio, _n in rows:
                (low if m <= 8 else high).append(math.log(ratio))
        assert math.exp(sum(low) / len(low)) >= 0.95 * math.exp(sum(high) / len(high))


class TestFig8Claims:
    def test_scaling_at_roomy_memory(self, results):
        data = fig8_data(results)
        for net in {k[0] for k in data}:
            key = (net, 16.0, "madpipe")
            if key not in data:
                continue
            series = dict(data[key])
            assert series[max(series)] >= 2.5, f"{net}: no scaling at 16 GB"
            # speedup grows from P=2 to P=8
            assert series[max(series)] > series[min(series)]

    def test_memory_starved_scaling_is_worse(self, results):
        data = fig8_data(results)
        for net in {k[0] for k in data}:
            lo, hi = (net, 4.0, "madpipe"), (net, 16.0, "madpipe")
            if lo in data and hi in data:
                lo_s, hi_s = dict(data[lo]), dict(data[hi])
                shared = sorted(set(lo_s) & set(hi_s))
                if shared:
                    p = shared[-1]
                    assert hi_s[p] >= lo_s[p] * 1.2

    def test_most_memory_scales_at_least_as_well_as_least(self, results):
        """At the largest P, MadPipe's speedup at the network's largest
        memory is at least its speedup at the smallest."""
        data = fig8_data(results)
        for net in {k[0] for k in data}:
            mems = sorted(m for n, m, algo in data if n == net and algo == "madpipe")
            most = dict(data[(net, mems[-1], "madpipe")])
            least = dict(data[(net, mems[0], "madpipe")])
            p = max(most)
            if p in least:
                assert most[p] >= least[p] - 1e-9, f"{net}: P={p}"

    def test_madpipe_scales_at_least_as_well_as_pipedream(self, results):
        """Aggregate P=8, M≥12 comparison (the paper's scalability claim)."""
        data = fig8_data(results)
        logs = []
        for (net, m, algo), series in data.items():
            if algo != "madpipe" or m < 12:
                continue
            pd = dict(data.get((net, m, "pipedream"), []))
            mp = dict(series)
            if 8 in mp and 8 in pd:
                logs.append(math.log(mp[8] / pd[8]))
        assert logs
        assert math.exp(sum(logs) / len(logs)) >= 1.0
