"""Measured-profile ingestion and calibration tests.

Covers the robustness contract of :mod:`repro.profiles`: strict schema
validation, corrupt-line quarantine with sidecars and counters,
MAD-based outlier rejection, min-sample fallback with loud ``degraded``
marking, byte-identical reruns, and the CLI front ends (``repro
ingest`` / ``repro certify --traces``).
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.cli import main as cli_main
from repro.models import generate_traces, random_chain, uniform_chain
from repro.profiles import (
    SCHEMA_VERSION,
    CalibrationResult,
    TraceRecord,
    calibrate,
    fit_lognormal_sigma,
    ingest_traces,
    mad_filter,
    parse_record,
    record_from_csv_row,
)
from repro.profiling import LayerNoiseModel, NoiseModel, ProfileError
from repro.testing import faults
from repro.testing.faults import Fault


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.clear()
    yield
    faults.clear()


def record(run=0, layer="l1", u_f=0.1, u_b=0.2, **extra) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "run": run,
        "layer": layer,
        "u_f": u_f,
        "u_b": u_b,
        **extra,
    }


# -------------------------------------------------------------- schema


class TestSchema:
    def test_minimal_record(self):
        r = parse_record(record())
        assert r == TraceRecord(run=0, layer="l1", u_f=0.1, u_b=0.2)
        assert r.weights is None and r.activation is None

    def test_unit_normalization(self):
        r = parse_record(record(u_f=3.0, u_b=5.0, time_unit="ms"))
        assert r.u_f == pytest.approx(3e-3)
        assert r.u_b == pytest.approx(5e-3)
        with pytest.raises(ProfileError, match="time unit"):
            parse_record(record(time_unit="minutes"))

    @pytest.mark.parametrize(
        "mutation, match",
        [
            ({"schema": 2}, "schema version"),
            ({"schema": True}, "schema version"),
            ({"run": -1}, "run"),
            ({"run": 1.5}, "run"),
            ({"layer": ""}, "layer"),
            ({"u_f": float("nan")}, "non-finite"),
            ({"u_b": float("inf")}, "non-finite"),
            ({"u_f": -0.1}, "negative"),
            ({"u_f": "fast"}, "number"),
            ({"weights": -1.0}, "negative"),
            ({"surprise": 1}, "unknown fields"),
        ],
    )
    def test_rejections(self, mutation, match):
        with pytest.raises(ProfileError, match=match):
            parse_record({**record(), **mutation})

    def test_missing_fields_listed(self):
        with pytest.raises(ProfileError, match=r"\['u_f', 'u_b'\]"):
            parse_record({"schema": SCHEMA_VERSION, "run": 0, "layer": "l1"})

    def test_non_object_rejected(self):
        with pytest.raises(ProfileError, match="object"):
            parse_record([1, 2])

    def test_error_names_source(self):
        with pytest.raises(ProfileError, match="run7.jsonl"):
            parse_record({**record(), "u_f": -1}, source="run7.jsonl")

    def test_csv_row_parsing(self):
        row = {
            "schema": str(SCHEMA_VERSION), "run": "2", "layer": "l3",
            "u_f": "0.25", "u_b": "0.5", "weights": "", "activation": "1e6",
            "time_unit": "",
        }
        r = record_from_csv_row(row)
        assert r.run == 2 and r.layer == "l3"
        assert r.weights is None and r.activation == 1e6

    def test_csv_bad_number(self):
        row = {
            "schema": str(SCHEMA_VERSION), "run": "0", "layer": "l1",
            "u_f": "fast", "u_b": "0.5",
        }
        with pytest.raises(ProfileError, match="u_f"):
            record_from_csv_row(row)

    def test_csv_extra_cells_rejected(self):
        with pytest.raises(ProfileError, match="extra cell"):
            record_from_csv_row({**{k: "" for k in ("u_f",)}, None: ["x"]})


# ------------------------------------------------------------ robust stats


class TestRobustStats:
    def test_mad_filter_drops_spike(self):
        xs = [1.0, 1.01, 0.99, 1.02, 25.0]
        kept, rejected = mad_filter(xs, mad_k=5.0)
        assert rejected == 1 and 25.0 not in kept

    def test_mad_filter_zero_spread_keeps_all(self):
        xs = [1.0, 1.0, 1.0, 1.0, 2.0]
        kept, rejected = mad_filter(xs, mad_k=5.0)
        assert rejected == 0 and len(kept) == 5

    def test_sigma_fit_zero_spread(self):
        assert fit_lognormal_sigma([2.0, 2.0, 2.0]) == 0.0
        assert fit_lognormal_sigma([2.0]) is None
        assert fit_lognormal_sigma([0.0, 0.0]) is None


# ------------------------------------------------------------- ingestion


class TestIngestion:
    def traces(self, tmp_path, chain=None, **kw):
        chain = chain or random_chain(5, seed=1, name="t5")
        out = tmp_path / "traces"
        generate_traces(chain, out, runs=5, seed=11, **kw)
        return chain, out

    def test_clean_ingest(self, tmp_path):
        chain, d = self.traces(tmp_path)
        ts = ingest_traces(d)
        assert ts.n_records == 5 * chain.L
        assert ts.n_quarantined == 0
        assert ts.runs == (0, 1, 2, 3, 4)

    def test_corruption_quarantined_not_fatal(self, tmp_path):
        chain, d = self.traces(
            tmp_path, corrupt_lines=2, nan_records=2, csv_runs=1
        )
        registry = obs.MetricsRegistry()
        with obs.use_metrics(registry):
            ts = ingest_traces(d)
        assert ts.n_quarantined == 4
        assert ts.n_records == 5 * chain.L - 2  # NaN records dropped
        assert registry.get("ingest.quarantined") == 4
        assert registry.get("ingest.records") == ts.n_records
        # every quarantined line landed in a sidecar next to its file
        sidecars = sorted(d.glob("*.quarantine"))
        assert sidecars
        text = "".join(p.read_text() for p in sidecars)
        assert text.count("# line") == 4

    def test_trace_files_never_rewritten(self, tmp_path):
        _, d = self.traces(tmp_path, corrupt_lines=3)

        def snapshot():
            return {
                p.name: p.read_bytes()
                for ext in ("*.jsonl", "*.csv")
                for p in sorted(d.glob(ext))
            }

        before = snapshot()
        ingest_traces(d)
        assert snapshot() == before

    def test_rerun_byte_identical(self, tmp_path):
        chain, d = self.traces(
            tmp_path, corrupt_lines=2, nan_records=1, outlier_records=2,
            csv_runs=2,
        )
        a = calibrate(chain, ingest_traces(d)).to_dict()
        b = calibrate(chain, ingest_traces(d)).to_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_generator_seed_determinism(self, tmp_path):
        chain = random_chain(4, seed=2)
        generate_traces(chain, tmp_path / "a", runs=3, seed=5, corrupt_lines=1)
        generate_traces(chain, tmp_path / "b", runs=3, seed=5, corrupt_lines=1)
        for pa, pb in zip(
            sorted((tmp_path / "a").iterdir()), sorted((tmp_path / "b").iterdir())
        ):
            assert pa.read_bytes() == pb.read_bytes()

    def test_csv_and_jsonl_agree(self, tmp_path):
        chain = uniform_chain(3, u_f=0.1, u_b=0.2, weights=1e6, activation=2e6)
        generate_traces(
            chain, tmp_path / "j", runs=4, seed=9,
            noise=NoiseModel(0.0, 0.0, 0.0), csv_runs=0,
        )
        generate_traces(
            chain, tmp_path / "c", runs=4, seed=9,
            noise=NoiseModel(0.0, 0.0, 0.0), csv_runs=4,
        )
        tj = ingest_traces(tmp_path / "j")
        tc = ingest_traces(tmp_path / "c")
        assert sorted(map(repr, tj.records)) == sorted(map(repr, tc.records))

    def test_missing_dir_and_empty_dir(self, tmp_path):
        with pytest.raises(ProfileError, match="does not exist"):
            ingest_traces(tmp_path / "nope")
        (tmp_path / "empty").mkdir()
        with pytest.raises(ProfileError, match="no .* trace files"):
            ingest_traces(tmp_path / "empty")

    @pytest.mark.faultinject
    def test_injected_record_fault_quarantines(self, tmp_path):
        chain, d = self.traces(tmp_path)
        faults.install(
            [Fault(site="ingest_record", action="fail", times=3)],
            tmp_path / "state",
        )
        registry = obs.MetricsRegistry()
        with obs.use_metrics(registry):
            ts = ingest_traces(d)
        assert ts.n_quarantined == 3
        assert ts.n_records == 5 * chain.L - 3
        assert registry.get("ingest.quarantined") == 3
        assert any("injected ingest fault" in reason for _, _, reason in ts.quarantined)

    @pytest.mark.faultinject
    def test_injected_file_fault_raises(self, tmp_path):
        _, d = self.traces(tmp_path)
        faults.install(
            [Fault(site="ingest_file", action="raise", times=1)],
            tmp_path / "state",
        )
        with pytest.raises(faults.FaultInjected):
            ingest_traces(d)


# ------------------------------------------------------------ calibration


class TestCalibration:
    def test_medians_recover_truth_under_outliers(self, tmp_path):
        chain = uniform_chain(4, u_f=0.1, u_b=0.2, weights=1e6, activation=2e6)
        generate_traces(
            chain, tmp_path / "t", runs=15, seed=3,
            noise=NoiseModel(sigma_compute=0.01, sigma_activation=0.01),
            outlier_records=3, outlier_scale=40.0,
        )
        registry = obs.MetricsRegistry()
        with obs.use_metrics(registry):
            cal = calibrate(chain, ingest_traces(tmp_path / "t"))
        assert not cal.degraded
        assert registry.get("ingest.rejected") > 0
        # 40x outliers survive in no column: medians stay near truth
        for layer, ref in zip(cal.chain.layers, chain.layers):
            assert layer.u_f == pytest.approx(ref.u_f, rel=0.05)
            assert layer.u_b == pytest.approx(ref.u_b, rel=0.05)

    def test_fitted_noise_tracks_injected_noise(self, tmp_path):
        chain = uniform_chain(3, u_f=0.1, u_b=0.2, weights=1e6, activation=2e6)
        generate_traces(
            chain, tmp_path / "t", runs=64, seed=4,
            noise=NoiseModel(sigma_compute=0.1, sigma_activation=0.05),
        )
        cal = calibrate(chain, ingest_traces(tmp_path / "t"))
        assert isinstance(cal.noise, LayerNoiseModel)
        assert cal.noise.n_layers == chain.L
        for s in cal.noise.sigma_compute:
            assert 0.05 < s < 0.2  # rough consistency, 64 samples
        for s in cal.noise.sigma_activation[1:]:
            assert 0.02 < s < 0.1

    def test_missing_layer_falls_back_degraded(self, tmp_path):
        chain = random_chain(5, seed=6, name="t5")
        generate_traces(
            chain, tmp_path / "t", runs=5, seed=7, missing_layers=("l3",)
        )
        registry = obs.MetricsRegistry()
        with obs.use_metrics(registry):
            cal = calibrate(chain, ingest_traces(tmp_path / "t"))
        assert cal.degraded
        assert cal.fallback_layers == ("l3",)
        assert registry.get("ingest.fallback_layers") == 1
        cov = {c.layer: c for c in cal.coverage}
        assert cov["l3"].samples == 0
        assert set(cov["l3"].fallback) == {"u_f", "u_b", "weights", "activation"}
        # the under-covered layer keeps the baseline value and the
        # default sigma — never a blend
        l3 = next(la for la in cal.chain.layers if la.name == "l3")
        ref = next(la for la in chain.layers if la.name == "l3")
        assert l3.u_f == ref.u_f and l3.activation == ref.activation
        assert cal.noise.sigma_compute[2] == NoiseModel().sigma_compute

    def test_unknown_trace_layers_reported_degraded(self, tmp_path):
        chain = random_chain(3, seed=8, name="t3")
        generate_traces(chain, tmp_path / "t", runs=4, seed=9)
        other = random_chain(3, seed=8, name="other")
        renamed = [
            {**json.loads(line), "layer": "ghost"}
            for line in (tmp_path / "t" / "run00.jsonl").read_text().splitlines()
        ]
        (tmp_path / "t" / "run00.jsonl").write_text(
            "\n".join(json.dumps(r) for r in renamed) + "\n"
        )
        cal = calibrate(other, ingest_traces(tmp_path / "t"))
        assert cal.unknown_layers == ("ghost",)
        assert cal.degraded

    def test_min_samples_floor(self, tmp_path):
        chain = random_chain(3, seed=1)
        generate_traces(chain, tmp_path / "t", runs=2, seed=2)
        cal = calibrate(chain, ingest_traces(tmp_path / "t"), min_samples=3)
        assert cal.degraded
        assert len(cal.fallback_layers) == chain.L
        ok = calibrate(chain, ingest_traces(tmp_path / "t"), min_samples=2)
        assert not ok.degraded

    def test_timing_only_traces_keep_baseline_memory(self, tmp_path):
        chain = uniform_chain(2, u_f=0.1, u_b=0.2, weights=3e6, activation=4e6)
        lines = [
            json.dumps(
                {"schema": SCHEMA_VERSION, "run": r, "layer": f"l{i + 1}",
                 "u_f": 0.11, "u_b": 0.19}
            )
            for r in range(4)
            for i in range(2)
        ]
        d = tmp_path / "t"
        d.mkdir()
        (d / "run00.jsonl").write_text("\n".join(lines) + "\n")
        cal = calibrate(chain, ingest_traces(d))
        assert cal.degraded  # memory fields fell back
        for c in cal.coverage:
            assert set(c.fallback) == {"weights", "activation"}
        for layer in cal.chain.layers:
            assert layer.weights == 3e6 and layer.activation == 4e6
            assert layer.u_f == pytest.approx(0.11)

    def test_result_roundtrip(self, tmp_path):
        chain = random_chain(4, seed=5)
        generate_traces(chain, tmp_path / "t", runs=4, seed=6)
        cal = calibrate(chain, ingest_traces(tmp_path / "t"))
        clone = CalibrationResult.from_dict(
            json.loads(json.dumps(cal.to_dict()))
        )
        assert clone.to_dict() == cal.to_dict()
        with pytest.raises(ValueError):
            CalibrationResult.from_dict({"chain": {}})

    def test_parameter_validation(self, tmp_path):
        chain = random_chain(2, seed=0)
        generate_traces(chain, tmp_path / "t", runs=3, seed=0)
        ts = ingest_traces(tmp_path / "t")
        with pytest.raises(ValueError):
            calibrate(chain, ts, min_samples=0)
        with pytest.raises(ValueError):
            calibrate(chain, ts, mad_k=0.0)


# ------------------------------------------------------ certify integration


class TestObservedNoiseCertify:
    def test_calibrated_noise_changes_report(self, tmp_path):
        from repro.api import certify, plan
        from repro.core.platform import Platform

        chain = random_chain(6, seed=3, name="t6")
        generate_traces(
            chain, tmp_path / "t", runs=16, seed=1,
            noise=NoiseModel(sigma_compute=0.15, sigma_activation=0.1),
        )
        cal = calibrate(chain, ingest_traces(tmp_path / "t"))
        platform = Platform.of(2, 64.0, 12.0)
        result = plan(chain, platform, algorithm="pipedream")
        assert result.pattern is not None
        synthetic = certify(
            chain, platform, result.pattern, samples=8, seed=0
        ).robustness
        observed = certify(
            chain, platform, result.pattern, samples=8, seed=0, noise=cal.noise
        ).robustness
        assert observed.noise.get("per_layer") is True
        assert observed.to_dict() != synthetic.to_dict()
        # same seed + same calibrated noise → bit-identical report
        again = certify(
            chain, platform, result.pattern, samples=8, seed=0, noise=cal.noise
        ).robustness
        assert again.to_dict() == observed.to_dict()

    def test_wrong_length_noise_rejected_early(self):
        from repro.robust import robustness_report
        from repro.core.platform import Platform
        from repro.api import plan

        chain = random_chain(4, seed=0)
        platform = Platform.of(2, 64.0, 12.0)
        result = plan(chain, platform, algorithm="pipedream")
        noise = LayerNoiseModel.uniform(NoiseModel(), 7)
        with pytest.raises(ValueError, match="calibrated for 7"):
            robustness_report(chain, platform, result.pattern, noise=noise)


# ------------------------------------------------------------------ CLI


class TestIngestCli:
    def setup_inputs(self, tmp_path, **kw):
        from repro.profiling import save_chain

        chain = random_chain(5, seed=3, name="t5")
        save_chain(chain, tmp_path / "base.json")
        generate_traces(chain, tmp_path / "traces", runs=5, seed=11, **kw)
        return chain

    def test_ingest_writes_deterministic_json(self, tmp_path, capsys):
        self.setup_inputs(tmp_path, corrupt_lines=2, nan_records=1)
        argv = [
            "ingest", str(tmp_path / "traces"), str(tmp_path / "base.json"),
            "--quiet",
        ]
        assert cli_main([*argv, "-o", str(tmp_path / "a.json")]) == 0
        assert cli_main([*argv, "-o", str(tmp_path / "b.json")]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        payload = json.loads((tmp_path / "a.json").read_text())
        assert payload["n_quarantined"] == 3
        assert payload["noise"]["per_layer"] is True
        capsys.readouterr()

    def test_ingest_reports_degraded(self, tmp_path, capsys):
        self.setup_inputs(tmp_path, missing_layers=("l2",))
        rc = cli_main(
            ["ingest", str(tmp_path / "traces"), str(tmp_path / "base.json")]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "DEGRADED" in captured.err
        assert json.loads(captured.out)["degraded"] is True

    def test_ingest_missing_dir_exits_2(self, tmp_path, capsys):
        self.setup_inputs(tmp_path)
        rc = cli_main(
            ["ingest", str(tmp_path / "nope"), str(tmp_path / "base.json")]
        )
        assert rc == 2
        assert "ingestion failed" in capsys.readouterr().err

    def test_certify_traces_deterministic_and_distinct(self, tmp_path, capsys):
        self.setup_inputs(tmp_path, nan_records=1, outlier_records=2)
        base = [
            "certify", str(tmp_path / "base.json"), "-p", "2", "-m", "64",
            "-a", "pipedream", "--samples", "8", "--seed", "0",
        ]
        traced = [*base, "--traces", str(tmp_path / "traces")]
        assert cli_main([*traced, "-o", str(tmp_path / "c1.json")]) == 0
        assert cli_main([*traced, "-o", str(tmp_path / "c2.json")]) == 0
        assert cli_main([*base, "-o", str(tmp_path / "cs.json")]) == 0
        capsys.readouterr()
        c1 = (tmp_path / "c1.json").read_bytes()
        assert c1 == (tmp_path / "c2.json").read_bytes()
        assert c1 != (tmp_path / "cs.json").read_bytes()
        payload = json.loads(c1)
        assert payload["calibration"]["noise"]["per_layer"] is True
        assert set(payload["calibration"]) == {
            "traces", "degraded", "coverage", "unknown_layers", "n_records",
            "n_quarantined", "min_samples", "mad_k", "noise",
        }
        assert "robustness" in payload["certificate"]

    def test_certify_traces_degraded_status(self, tmp_path, capsys):
        self.setup_inputs(tmp_path, missing_layers=("l4",))
        rc = cli_main(
            [
                "certify", str(tmp_path / "base.json"), "-p", "2", "-m", "64",
                "-a", "pipedream", "--samples", "4",
                "--traces", str(tmp_path / "traces"),
                "-o", str(tmp_path / "cert.json"),
            ]
        )
        capsys.readouterr()
        assert rc == 0
        payload = json.loads((tmp_path / "cert.json").read_text())
        assert payload["status"] == "degraded"
        assert payload["calibration"]["degraded"] is True
