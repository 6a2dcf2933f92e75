"""Integration tests: the full pipeline on a realistic (small) network."""

import pytest

from repro import (
    Discretization,
    Platform,
    V100,
    gpipe,
    linearize,
    pipedream,
    profile_model,
    render_gantt,
    resnet50,
    verify_pattern,
)
from repro.algorithms import madpipe
from repro.profiling import load_chain, save_chain
from repro.sim import eager_1f1b
from repro.core import Allocation


@pytest.fixture(scope="module")
def chain():
    """ResNet-50 at 320px, batch 4 — the full model zoo path, but fast."""
    g = resnet50(image_size=320)
    profile_model(g, V100, 4)
    return linearize(g)


COARSE = Discretization.coarse()


class TestFullPipeline:
    def test_profile_shape(self, chain):
        assert 30 <= chain.L <= 50
        assert chain.total_compute() > 0
        # early activations dominate late ones (CNN profile)
        assert chain.activation(1) > chain.activation(chain.L - 1)

    def test_pipedream_end_to_end(self, chain):
        plat = Platform.of(4, 2.0, 12)
        res = pipedream(chain, plat)
        assert res.feasible
        rep = verify_pattern(chain, plat, res.schedule.pattern)
        assert rep.steady_throughput == pytest.approx(1 / res.period, rel=0.2)

    def test_madpipe_end_to_end(self, chain):
        plat = Platform.of(4, 2.0, 12)
        res = madpipe(chain, plat, grid=COARSE, iterations=6, ilp_time_limit=15)
        assert res.feasible
        verify_pattern(chain, plat, res.pattern)

    def test_madpipe_survives_tighter_memory_than_pipedream(self, chain):
        """Scan memory downwards: MadPipe must stay feasible at least as
        far as PipeDream does."""
        last_pd, last_mp = None, None
        for mem in (2.0, 1.5, 1.0, 0.8, 0.6):
            plat = Platform.of(4, mem, 12)
            if pipedream(chain, plat).feasible:
                last_pd = mem
            if madpipe(chain, plat, grid=COARSE, iterations=6, ilp_time_limit=15).feasible:
                last_mp = mem
        assert last_mp is not None
        if last_pd is not None:
            assert last_mp <= last_pd  # MadPipe reaches at least as low

    def test_gpipe_comparison(self, chain):
        plat = Platform.of(4, 4.0, 12)
        gp = gpipe(chain, plat, micro_batches=4)
        pd = pipedream(chain, plat)
        if gp.feasible and pd.feasible:
            assert gp.period > pd.period  # the fill/drain bubble costs

    def test_eager_execution_on_pipedream_partition(self, chain):
        plat = Platform.of(4, 4.0, 12)
        res = pipedream(chain, plat)
        eager = eager_1f1b(
            chain, plat, Allocation.contiguous(res.partitioning), n_batches=24
        )
        # eager reaches a steady period no better than the load bound
        lb = Allocation.contiguous(res.partitioning).period_lower_bound(chain, plat)
        assert eager.steady_period >= lb * 0.99

    def test_gantt_renders(self, chain):
        plat = Platform.of(4, 2.0, 12)
        res = madpipe(chain, plat, grid=COARSE, iterations=5, ilp_time_limit=15)
        text = render_gantt(res.pattern)
        assert "GPU 0" in text

    def test_profile_roundtrip_preserves_decisions(self, chain, tmp_path):
        path = tmp_path / "chain.json"
        save_chain(chain, path)
        clone = load_chain(path)
        plat = Platform.of(4, 2.0, 12)
        a = pipedream(chain, plat)
        b = pipedream(clone, plat)
        assert a.partitioning == b.partitioning
        assert a.period == pytest.approx(b.period)
