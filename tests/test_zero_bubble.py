"""Zero-bubble B/W-split schedule family: registry, builder, memory, wins.

Covers the op-kind registry surface, the split-backward helper, validity
of the zero-bubble contiguous construction (analytic *and* executed
through the discrete-event verifier), the split-backward memory model
against its closed forms, the family dispatch through
``madpipe``/``pipedream``/``api.plan``, and the headline claim: under
tight memory on a deep uniform chain the certified zero-bubble period is
strictly below 1F1B\\*'s.
"""

from __future__ import annotations

import json

import pytest

from repro import api, obs
from repro.algorithms.madpipe import madpipe
from repro.algorithms.onef1b import contiguous_search, min_feasible_period
from repro.algorithms.zero_bubble import (
    SPLIT_FRACTION,
    assign_groups_zb,
    min_feasible_period_zb,
)
from repro.core.partition import Partitioning
from repro.core.pattern import OP_KINDS, B, F, W, is_comm, is_compute, split_backward
from repro.core.platform import Platform
from repro.cli import main as cli_main
from repro.models.synthetic import uniform_chain
from repro.profiling import save_chain
from repro.sim import verify_pattern
from repro.testing import Fault, faults

GB = float(2**30)


# ------------------------------------------------------------ registry


class TestOpKindRegistry:
    def test_registry_entries(self):
        assert set(OP_KINDS) == {"F", "B", "W", "CF", "CB"}
        for kind, meta in OP_KINDS.items():
            assert meta.name == kind
            assert meta.category in ("compute", "comm")
            assert meta.glyph and meta.description

    def test_predicates_partition_kinds(self):
        for kind in OP_KINDS:
            assert is_compute(kind) != is_comm(kind)
        assert all(is_compute(k) for k in (F, B, W))
        assert all(is_comm(k) for k in ("CF", "CB"))

    def test_unknown_kind_raises(self):
        with pytest.raises(KeyError):
            is_compute("X")


class TestSplitBackward:
    def test_halves_sum_to_whole(self):
        d_b, d_w = split_backward(2.0)
        assert d_b == pytest.approx(2.0 * SPLIT_FRACTION)
        assert d_b + d_w == pytest.approx(2.0)

    @pytest.mark.parametrize("fraction", (0.0, 1.0, -0.5, 1.5))
    def test_degenerate_fraction_rejected(self, fraction):
        with pytest.raises(ValueError):
            split_backward(1.0, fraction=fraction)


# ------------------------------------------------------------ builder


def even_partition(L: int, P: int) -> Partitioning:
    per = L // P
    return Partitioning.from_cuts(L, [per * i for i in range(1, P)])


@pytest.fixture(scope="module")
def zb_planned():
    """A verified zero-bubble schedule on a tight-memory uniform chain."""
    chain = uniform_chain(24, name="zb24")
    platform = Platform.of(4, 0.05, 1.0)
    res = min_feasible_period_zb(chain, platform, even_partition(24, 4))
    assert res is not None and res.pattern is not None
    return chain, platform, res


class TestZeroBubbleBuilder:
    def test_pattern_has_w_per_stage(self, zb_planned):
        chain, platform, res = zb_planned
        n = res.pattern.allocation.n_stages
        assert sum(1 for k in res.pattern.ops if k[0] == "W") == n
        assert sum(1 for k in res.pattern.ops if k[0] == "B") == n

    def test_pattern_verifies_end_to_end(self, zb_planned):
        chain, platform, res = zb_planned
        report = verify_pattern(chain, platform, res.pattern)
        assert not report.violations

    def test_w_follows_b_same_resource(self, zb_planned):
        """W runs back-to-back after its B on the same GPU: the unrolled
        gap ``(h_W − h_B)·T + t_W − t_B`` is exactly ``d_B`` (normalize()
        may wrap W into the next period, bumping its shift)."""
        chain, platform, res = zb_planned
        T = res.pattern.period
        for (kind, i), op in res.pattern.ops.items():
            if kind != "W":
                continue
            b = res.pattern.ops[("B", i)]
            assert op.resource == b.resource
            gap = (op.shift - b.shift) * T + op.start - b.start
            assert gap == pytest.approx(b.duration)

    def test_analytic_memory_bounds_exact_peaks(self, zb_planned):
        """The search's conservative per-GPU bound must dominate the
        pattern's exact event-based peaks (so search-feasible implies
        certification-feasible)."""
        chain, platform, res = zb_planned
        exact = res.pattern.memory_peaks(chain)
        for p, peak in exact.items():
            assert peak <= res.memory[p] * (1 + 1e-9)
            assert peak <= platform.memory * (1 + 1e-9)

    def test_infeasible_memory_returns_none(self):
        chain = uniform_chain(24, name="zb24tight")
        platform = Platform.of(4, 0.001, 1.0)
        assert min_feasible_period_zb(chain, platform, even_partition(24, 4)) is None

    def test_group_assignment_rejects_oversized_item(self):
        with pytest.raises(ValueError):
            assign_groups_zb([3.0, 1.0], [2.0, 0.5], 4.0)  # 3 + 2 > 4


class TestGradBufferClosedForm:
    def test_active_grad_batches_matches_op_times(self, zb_planned):
        """Closed form: a split stage holds exactly one grad-input buffer
        between B's start and W's end (mod T), zero elsewhere — the
        builder always emits W back-to-back with B on the same shift."""
        chain, platform, res = zb_planned
        pattern = res.pattern
        T = pattern.period
        for (kind, i), w in pattern.ops.items():
            if kind != "W":
                continue
            b = pattern.ops[("B", i)]
            held = b.duration + w.duration  # B start -> W end, mod T
            for k in range(40):
                tau = (k / 40.0) * T
                inside = (tau - b.start) % T < held
                assert pattern.active_grad_batches(i, tau) == (1 if inside else 0)

    def test_non_split_stage_holds_no_grad_buffer(self, uniform8, roomy4):
        sched = min_feasible_period(
            uniform8, roomy4, even_partition(uniform8.L, roomy4.n_procs)
        )
        assert sched is not None
        for i in range(sched.pattern.allocation.n_stages):
            assert sched.pattern.active_grad_batches(i, 0.0) == 0


# ------------------------------------------------------------ the win


class TestZeroBubbleWin:
    def test_strictly_better_under_tight_memory(self):
        """On a deep uniform chain with activation-dominated memory the
        split family merges groups earlier and drops strictly below the
        1F1B* period on the same partitioning."""
        chain = uniform_chain(24, name="win24")
        platform = Platform.of(4, 0.05, 1.0)
        part = even_partition(24, 4)
        base = min_feasible_period(chain, platform, part)
        zb = min_feasible_period_zb(chain, platform, part)
        assert base is not None and zb is not None
        assert zb.period < base.period - 1e-12
        # both certified-valid, not just analytically feasible
        verify_pattern(chain, platform, base.pattern)
        verify_pattern(chain, platform, zb.pattern)

    def test_never_worse_than_onef1b_lower_bound(self):
        """The split family can't beat the V-load lower bound: with roomy
        memory both families sit on it."""
        chain = uniform_chain(8, name="lb8")
        platform = Platform.of(4, 8.0, 12.0)
        part = even_partition(8, 4)
        base = min_feasible_period(chain, platform, part)
        zb = min_feasible_period_zb(chain, platform, part)
        assert base is not None and zb is not None
        assert zb.period == pytest.approx(base.period)


# ------------------------------------------------------------ dispatch


class TestFamilyDispatch:
    def test_madpipe_family_validation(self, uniform8, roomy4):
        from repro.algorithms.madpipe import madpipe

        with pytest.raises(ValueError, match="schedule family"):
            madpipe(uniform8, roomy4, schedule_family="interleaved")

    def test_pipedream_zero_bubble(self, uniform8, roomy4):
        from repro.algorithms.pipedream import pipedream

        res = pipedream(uniform8, roomy4, schedule_family="zero_bubble")
        assert res.feasible
        assert any(k[0] == "W" for k in res.schedule.pattern.ops)
        with pytest.raises(ValueError, match="schedule family"):
            pipedream(uniform8, roomy4, schedule_family="nope")

    def test_plan_zero_bubble_certified(self, uniform8, roomy4):
        res = api.plan(
            uniform8, roomy4, schedule_family="zero_bubble", iterations=4
        )
        assert res.schedule_family == "zero_bubble"
        assert res.feasible and res.certificate is not None and res.certificate.ok
        assert any(k[0] == "W" for k in res.pattern.ops)

    def test_plan_unknown_family_rejected(self, uniform8, roomy4):
        with pytest.raises(ValueError, match="schedule family"):
            api.plan(uniform8, roomy4, schedule_family="zb")

    def test_plan_gpipe_rejects_nondefault_family(self, uniform8, roomy4):
        with pytest.raises(ValueError, match="gpipe"):
            api.plan(
                uniform8, roomy4, algorithm="gpipe", schedule_family="zero_bubble"
            )

    def test_default_family_keyword_is_identity(self, uniform8, roomy4):
        a = api.plan(uniform8, roomy4, iterations=4)
        b = api.plan(uniform8, roomy4, iterations=4, schedule_family="1f1b")
        assert a.to_json() == b.to_json()


# ------------------------------------------------------------ gpt chains


class TestGptScenarios:
    def test_gpt_chain_is_uniform(self):
        from repro.experiments.scenarios import paper_chain

        c = paper_chain("gpt24")
        assert c.L == 24 and c.name == "gpt24"
        u_f = {round(c.u_f(i), 12) for i in range(1, 25)}
        w = {c.weight(i) for i in range(1, 25)}
        assert len(u_f) == 1 and len(w) == 1

    def test_gpt_name_validation(self):
        from repro.experiments.scenarios import paper_chain

        with pytest.raises(ValueError, match="gpt"):
            paper_chain("gptx")
        with pytest.raises(ValueError, match="depth"):
            paper_chain("gpt999")

    def test_gpt_zero_bubble_win_deep_pipeline(self):
        """The acceptance instance: gpt24 at P=8 under ~1 GB/GPU."""
        from repro.experiments.scenarios import paper_chain

        chain = paper_chain("gpt24")
        platform = Platform.of(8, 1.0, 12.0)
        part = even_partition(24, 8)
        base = min_feasible_period(chain, platform, part)
        zb = min_feasible_period_zb(chain, platform, part)
        assert base is not None and zb is not None
        assert zb.period < base.period - 1e-9

    def test_gpt24_planned_win_is_certified(self):
        """The README's end-to-end claim: the full planner on gpt24, P=8,
        1.2 GB/GPU returns certified plans for both families and the
        zero-bubble period is ~20% lower (2.588381 -> 2.071777)."""
        from repro.algorithms import Discretization
        from repro.experiments.scenarios import paper_chain

        chain = paper_chain("gpt24")
        platform = Platform.of(8, 1.2, 12.0)
        periods = {}
        for family in ("1f1b", "zero_bubble"):
            res = api.plan(
                chain,
                platform,
                schedule_family=family,
                grid=Discretization.coarse(),
                iterations=8,
                ilp_time_limit=30.0,
            )
            assert res.feasible and res.certificate is not None
            assert res.certificate.ok, family
            periods[family] = res.period
        assert periods["zero_bubble"] < periods["1f1b"]
        gain = 1.0 - periods["zero_bubble"] / periods["1f1b"]
        assert gain >= 0.199, periods

    def test_robustness_reads_split_backward(self):
        """The stress test reads a zero-bubble pattern's ``B`` as the
        grad-input half and ``W`` as the grad-weight half: at zero noise
        the certified plan needs no stretch (reading ``B`` as the whole
        backward asked for 2x on this plan)."""
        from repro.algorithms import Discretization
        from repro.experiments.scenarios import paper_chain
        from repro.robust.perturb import _op_durations, _required_stretch

        chain = paper_chain("gpt24")
        platform = Platform.of(4, 2.0, 12.0)
        res = api.plan(
            chain,
            platform,
            schedule_family="zero_bubble",
            grid=Discretization.coarse(),
            iterations=6,
        )
        assert res.certificate.ok and W in {k[0] for k in res.pattern.ops}
        dur = _op_durations(chain, platform, res.pattern)
        assert _required_stretch(res.pattern, dur) == pytest.approx(1.0, abs=1e-9)
        report = api.certify(chain, platform, res, samples=8, seed=0).robustness
        assert report.worst_sample_sim_violations == 0


# ------------------------------------------------ one search, two families


@pytest.fixture
def tight24():
    """A deep uniform chain under tight memory: both families feasible."""
    return uniform_chain(24, name="zb24obs"), Platform.of(4, 0.05, 1.0), even_partition(24, 4)


class TestSharedSearch:
    def test_contiguous_search_lookup(self):
        assert contiguous_search("1f1b") is min_feasible_period
        assert contiguous_search("zero_bubble") is min_feasible_period_zb
        with pytest.raises(ValueError, match="schedule family"):
            contiguous_search("zb")

    def test_span_and_counters(self, tight24):
        chain, platform, part = tight24
        starved = Platform.of(4, 0.001, 1.0)
        tr, reg = obs.Trace(), obs.MetricsRegistry()
        with obs.use_trace(tr), obs.use_metrics(reg):
            assert min_feasible_period_zb(chain, platform, part) is not None
            assert min_feasible_period_zb(chain, starved, part) is None
        spans = tr.find("zero_bubble.period_search")
        assert [sp.attrs["feasible"] for sp in spans] == [True, False]
        assert not tr.find("onef1b.period_search")
        assert reg.get("zero_bubble.searches") == 2
        assert reg.get("zero_bubble.feasible") == 1
        assert reg.get("onef1b.searches") == 0


class TestFamilyNotes:
    """MadPipe's notes name the family's construction."""

    def test_contiguous_phase1_notes(self, uniform8):
        platform = Platform.of(4, 1.0, 12)
        base = madpipe(uniform8, platform, iterations=4)
        zb = madpipe(uniform8, platform, iterations=4, schedule_family="zero_bubble")
        assert base.notes == ["phase-1 contiguous allocation via 1F1B*"]
        assert zb.notes == ["phase-1 contiguous allocation via zero-bubble"]

    @pytest.mark.faultinject
    def test_quarantine_fallback_note(self, uniform8, tmp_path):
        platform = Platform.of(4, 1.0, 12)
        faults.install(
            [Fault(site="sim_verify", action="fail", key="madpipe:", times=1)], tmp_path
        )
        try:
            res = madpipe(uniform8, platform, iterations=4, schedule_family="zero_bubble")
        finally:
            faults.clear()
        assert res.status == "degraded" and res.certificate.mode == "fallback"
        assert "replaced by the certified zero-bubble contiguous fallback" in res.notes
        assert not any("1F1B*" in note for note in res.notes)


def test_schedule_stats_prints_zero_bubble_searches(tmp_path, capsys):
    """``repro schedule --schedule-family zero_bubble --stats`` reports the
    family's period searches like the 1F1B* line."""
    profile = tmp_path / "chain.json"
    save_chain(uniform_chain(8, u_f=1.0, u_b=2.0, weights=4e6, activation=8e6), profile)
    rc = cli_main(
        [
            "schedule", str(profile), "-p", "4", "-m", "1", "--grid", "coarse",
            "--iterations", "4", "--schedule-family", "zero_bubble", "--stats",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "zero-bubble: " in out and " period searches, " in out
    assert "replaced by the zero-bubble fallback" in out
    assert "1F1B*" not in out


def test_certify_takes_schedule_family(tmp_path):
    """``repro certify --schedule-family zero_bubble`` plans, certifies and
    stress-tests a zero-bubble plan, and records the family."""
    profile = tmp_path / "chain.json"
    save_chain(uniform_chain(8, u_f=1.0, u_b=2.0, weights=4e6, activation=8e6), profile)
    args = [
        "certify", str(profile), "-p", "4", "-m", "8", "--grid", "coarse",
        "--iterations", "4", "--schedule-family", "zero_bubble", "--samples", "4",
    ]
    assert cli_main(args + ["-o", str(tmp_path / "c1.json")]) == 0
    assert cli_main(args + ["-o", str(tmp_path / "c2.json")]) == 0
    text = (tmp_path / "c1.json").read_text()
    assert text == (tmp_path / "c2.json").read_text()
    payload = json.loads(text)
    assert payload["schedule_family"] == "zero_bubble"
    assert payload["certificate"]["ok"] and payload["certificate"]["robustness"]
    # an out-of-range option is an error exit, as for ``repro schedule``
    assert cli_main(args + ["--iterations", "0"]) == 2
