"""Certification gate + robustness layer (repro.robust, api.certify).

Covers: every plan() result carrying a certificate, seeded robustness
reports being bit-reproducible, the memory_headroom knob (inert at 0,
enforced margins when set), and the quarantine path — an injected
certification failure must degrade to the certified 1F1B* fallback with
visible counters, never silently return the rejected pattern.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.algorithms.madpipe import madpipe
from repro.api import certify, plan
from repro.cli import main as cli_main
from repro.core.memory import effective_capacity
from repro.core.platform import Platform
from repro.core.tolerances import memory_slack
from repro.experiments.harness import run_instance
from repro.models import uniform_chain
from repro.profiling import NoiseModel, save_chain
from repro.robust import certify_pattern, robustness_report
from repro.testing import Fault, faults

INF = float("inf")
MB = float(2**20)


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.clear()
    yield
    faults.clear()


@pytest.fixture
def chain():
    return uniform_chain(8, u_f=1.0, u_b=2.0, weights=1 * MB, activation=2 * MB)


@pytest.fixture
def plat(chain):
    return Platform(n_procs=4, memory=64 * MB, bandwidth=100 * MB)


class TestPlanCertificate:
    def test_madpipe_plan_carries_certificate(self, chain, plat):
        result = plan(chain, plat, algorithm="madpipe", iterations=6)
        cert = result.certificate
        assert cert is not None and cert.ok
        assert cert.mode == "verified"
        assert cert.periods_simulated > 0
        assert cert.oom_margin and all(m >= 0 for m in cert.oom_margin.values())
        assert result.metrics.get("certify.checks", 0) >= 1

    def test_pipedream_plan_carries_certificate(self, chain, plat):
        result = plan(chain, plat, algorithm="pipedream")
        assert result.certificate is not None and result.certificate.ok
        assert result.certificate.mode == "verified"

    def test_gpipe_certificate_skipped(self, chain, plat):
        result = plan(chain, plat, algorithm="gpipe")
        assert result.certificate is not None and result.certificate.ok
        assert result.certificate.mode == "skipped"

    def test_certify_option_rejected(self, chain, plat):
        # every plan is certified: there is no option to skip the gate
        for algorithm in ("madpipe", "pipedream", "gpipe"):
            with pytest.raises(TypeError, match="certify"):
                plan(chain, plat, algorithm=algorithm, certify=False)

    def test_certificate_serializes_deterministically(self, chain, plat):
        result = plan(chain, plat, algorithm="madpipe", iterations=6)
        d = result.certificate.to_dict()
        assert "wall_s" not in d  # wall time must not leak into the dict
        json.dumps(d)  # JSON-ready


class TestApiCertify:
    def test_same_seed_same_report(self, chain, plat):
        result = plan(chain, plat, algorithm="madpipe", iterations=6)
        c1 = certify(chain, plat, result, samples=16, seed=11)
        c2 = certify(chain, plat, result, samples=16, seed=11)
        assert c1.robustness is not None
        assert c1.to_dict() == c2.to_dict()

    def test_different_seed_different_draws(self, chain, plat):
        result = plan(chain, plat, algorithm="madpipe", iterations=6)
        c1 = certify(chain, plat, result, samples=16, seed=1)
        c2 = certify(chain, plat, result, samples=16, seed=2)
        r1, r2 = c1.robustness, c2.robustness
        assert (
            r1.worst_period_inflation != r2.worst_period_inflation
            or r1.worst_oom_margin != r2.worst_oom_margin
        )

    def test_robustness_fields_sane(self, chain, plat):
        result = plan(chain, plat, algorithm="madpipe", iterations=6)
        cert = certify(chain, plat, result, samples=16, seed=0)
        rep = cert.robustness
        assert rep.worst_period_inflation >= 1.0
        assert 1.0 <= rep.mean_period_inflation <= rep.worst_period_inflation
        assert rep.oom_margin  # nominal margins, one per used GPU
        for p, m in rep.worst_oom_margin.items():
            assert m <= rep.oom_margin[p]
        if rep.breaking_noise_scale is not None:
            assert 0.0 < rep.breaking_noise_scale <= rep.max_noise_scale
        assert rep.worst_sample_sim_violations == 0  # stretch restores validity

    def test_certify_refreshes_result_field(self, chain, plat):
        result = plan(chain, plat, algorithm="madpipe", iterations=6)
        before = result.certificate
        after = certify(chain, plat, result, samples=4, seed=0)
        assert result.certificate is after and after is not before

    def test_bare_pattern_accepted(self, chain, plat):
        result = plan(chain, plat, algorithm="madpipe", iterations=6)
        cert = certify(chain, plat, result.pattern, robustness=False)
        assert cert.ok and cert.robustness is None

    def test_noise_model_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(sigma_compute=-0.1)
        with pytest.raises(ValueError):
            NoiseModel(distribution="cauchy")

    def test_scale_zero_is_nominal(self, chain, plat):
        """At noise scale 0 the report must see the unperturbed chain:
        inflation exactly 1, margins equal to the certificate's."""
        result = plan(chain, plat, algorithm="madpipe", iterations=6)
        rep = robustness_report(
            chain, plat, result.pattern, samples=4, seed=0, max_noise_scale=0.0
        )
        assert rep.breaking_noise_scale is None
        for p, m in rep.oom_margin.items():
            assert m == pytest.approx(result.certificate.oom_margin[p])


class TestMemoryHeadroom:
    def test_zero_headroom_bit_identical(self, chain, plat):
        base = madpipe(chain, plat, iterations=6)
        zero = madpipe(chain, plat, iterations=6, memory_headroom=0.0)
        assert zero.period == base.period
        assert {
            k: (o.start, o.shift) for k, o in zero.pattern.ops.items()
        } == {k: (o.start, o.shift) for k, o in base.pattern.ops.items()}

    def test_headroom_reserves_margin(self, chain, plat):
        res = madpipe(chain, plat, iterations=6, memory_headroom=0.3)
        assert res.status in ("ok", "degraded")
        floor = 0.3 * plat.memory - memory_slack(plat.memory)
        assert min(res.certificate.oom_margin.values()) >= floor

    def test_headroom_can_cost_period(self, chain):
        """On a tight platform, reserving headroom can only hurt (or
        match) the achievable period — never improve it."""
        tight = Platform(n_procs=4, memory=16 * MB, bandwidth=100 * MB)
        base = madpipe(chain, tight, iterations=6)
        held = madpipe(chain, tight, iterations=6, memory_headroom=0.25)
        if base.feasible and held.feasible:
            assert held.period >= base.period - 1e-9

    def test_invalid_headroom_rejected(self, chain, plat):
        with pytest.raises(ValueError):
            madpipe(chain, plat, memory_headroom=1.0)
        with pytest.raises(ValueError):
            effective_capacity(100.0, -0.1)

    def test_effective_capacity_identity_at_zero(self):
        assert effective_capacity(12345.678, 0.0) == 12345.678
        assert effective_capacity(100.0, 0.25) == 75.0


class TestQuarantine:
    @pytest.mark.faultinject
    def test_quarantine_falls_back_to_onef1b(self, chain, plat, tmp_path):
        faults.install(
            [Fault(site="sim_verify", action="fail", key="madpipe:", times=1)],
            tmp_path,
        )
        registry = obs.MetricsRegistry()
        with obs.use_metrics(registry):
            res = madpipe(chain, plat, iterations=6)
        assert res.status == "degraded"
        cert = res.certificate
        assert cert.ok and cert.mode == "fallback"
        assert cert.quarantined is not None and not cert.quarantined.ok
        assert "injected certification failure" in cert.quarantined.violations[0]
        snap = registry.snapshot()
        assert snap["certify.quarantined"] == 1
        assert snap["certify.failures"] >= 1
        assert snap["certify.fallbacks"] == 1

    @pytest.mark.faultinject
    def test_error_when_nothing_certifiable(self, chain, plat, tmp_path):
        """When the fallback fails certification too, the pattern is
        withheld — status error, never an uncertified plan."""
        faults.install(
            [Fault(site="sim_verify", action="fail", key="madpipe", times=-1)],
            tmp_path,
        )
        res = madpipe(chain, plat, iterations=6)
        assert res.status == "error"
        assert res.pattern is None and res.period == INF
        assert res.certificate is not None and not res.certificate.ok

    @pytest.mark.faultinject
    @pytest.mark.parametrize("allow_special, searches", [(True, 2), (False, 1)])
    def test_quarantine_reuses_contiguous_dp(
        self, chain, tmp_path, allow_special, searches
    ):
        """The quarantine falls back on the contiguous-DP allocation the
        run already has: one DP search per phase-1 run, none in the gate."""
        faults.install(
            [Fault(site="sim_verify", action="fail", key="madpipe", times=-1)],
            tmp_path,
        )
        registry = obs.MetricsRegistry()
        with obs.use_metrics(registry):
            res = madpipe(
                chain, Platform.of(4, 1.0, 12), iterations=4,
                allow_special=allow_special,
            )
        assert res.status == "error"
        assert registry.snapshot()["dp.searches"] == searches

    @pytest.mark.faultinject
    def test_pipedream_instance_quarantined(self, chain, plat, tmp_path):
        faults.install(
            [Fault(site="sim_verify", action="fail", key="pipedream:", times=1)],
            tmp_path,
        )
        r = run_instance(chain, plat, "pipedream")
        assert r.status == "error"
        assert r.valid_period == INF
        assert "certification failed" in r.failure

    @pytest.mark.faultinject
    def test_pipedream_schedule_cli_quarantined(self, chain, plat, tmp_path, capsys):
        profile = tmp_path / "toy.json"
        save_chain(chain, profile)
        faults.install(
            [Fault(site="sim_verify", action="fail", key="pipedream:", times=1)],
            tmp_path,
        )
        out_path = tmp_path / "sched.json"
        rc = cli_main(
            [
                "schedule", str(profile), "-a", "pipedream",
                "-p", "4", "-m", "4", "-b", str(100 / 1024), "-o", str(out_path),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "[error]" in out and "certification failed" in out
        assert not out_path.exists()  # the quarantined pattern is never saved

    @pytest.mark.faultinject
    def test_api_certify_fault_site(self, chain, plat, tmp_path):
        result = plan(chain, plat, algorithm="madpipe", iterations=6)
        faults.install(
            [Fault(site="certify", action="fail", times=1)], tmp_path
        )
        cert = certify(chain, plat, result, robustness=False)
        assert not cert.ok
        assert "injected certification failure" in cert.violations[0]

    @pytest.mark.faultinject
    def test_quarantine_counters_in_cli_stats(self, chain, plat, tmp_path, capsys):
        profile = tmp_path / "toy.json"
        save_chain(chain, profile)
        faults.install(
            [Fault(site="sim_verify", action="fail", key="madpipe:", times=1)],
            tmp_path,
        )
        rc = cli_main(
            [
                "schedule", str(profile),
                "-p", "4", "-m", "4", "-b", str(100 / 1024),
                "--grid", "coarse", "--iterations", "6", "--stats",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "plans quarantined" in out and "1 plans quarantined" in out
        assert "replaced by the 1F1B* fallback" in out
        assert "certificate: ok [fallback]" in out


class TestCliCertify:
    def test_bit_reproducible(self, chain, tmp_path):
        profile = tmp_path / "toy.json"
        save_chain(chain, profile)
        args = [
            "certify", str(profile),
            "-p", "4", "-m", "4", "-b", str(100 / 1024),
            "--grid", "coarse", "--iterations", "6",
            "--samples", "8", "--seed", "7",
        ]
        rc1 = cli_main(args + ["-o", str(tmp_path / "c1.json")])
        rc2 = cli_main(args + ["-o", str(tmp_path / "c2.json")])
        assert rc1 == 0 and rc2 == 0
        b1 = (tmp_path / "c1.json").read_bytes()
        b2 = (tmp_path / "c2.json").read_bytes()
        assert b1 == b2
        payload = json.loads(b1)
        assert payload["certificate"]["ok"]
        assert payload["certificate"]["robustness"]["seed"] == 7

    def test_stdout_json(self, chain, tmp_path, capsys):
        profile = tmp_path / "toy.json"
        save_chain(chain, profile)
        rc = cli_main(
            [
                "certify", str(profile),
                "-p", "4", "-m", "4", "-b", str(100 / 1024),
                "--grid", "coarse", "--iterations", "6",
                "--samples", "4", "--no-robustness",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        payload = json.loads(out)
        assert payload["certificate"]["mode"] == "verified"
        assert "robustness" not in payload["certificate"]

    @pytest.mark.faultinject
    def test_failed_certification_exit_code(self, chain, tmp_path, capsys):
        profile = tmp_path / "toy.json"
        save_chain(chain, profile)
        faults.install(
            [Fault(site="certify", action="fail", times=1)], tmp_path
        )
        rc = cli_main(
            [
                "certify", str(profile),
                "-p", "4", "-m", "4", "-b", str(100 / 1024),
                "--grid", "coarse", "--iterations", "6", "--samples", "4",
            ]
        )
        assert rc == 1
        assert not json.loads(capsys.readouterr().out)["certificate"]["ok"]


class TestIncumbentGate:
    @pytest.mark.faultinject
    def test_incumbent_source_key_reaches_gate(self, chain, plat, tmp_path):
        """The ilp.incumbent source label is addressable by the fault
        plan (the gate is wired); with no incumbent outcome in this easy
        instance the fault simply never fires."""
        faults.install(
            [Fault(site="sim_verify", action="fail", key="ilp.incumbent", times=-1)],
            tmp_path,
        )
        res = madpipe(chain, plat, iterations=6)
        assert res.status in ("ok", "degraded")
        assert res.certificate is not None and res.certificate.ok


def test_certify_pattern_none_is_skipped(chain, plat):
    cert = certify_pattern(chain, plat, None, source="x")
    assert cert.ok and cert.mode == "skipped"
